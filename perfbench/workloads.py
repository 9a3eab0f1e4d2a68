"""Workload definitions and seeded input generation.

Each workload turns a seed into structure files (written to an input
directory) and a list of calls; only structure-sweep's inputs depend on
the seed. A call is a dict with a `key` that
names it independently of file paths (used to look up the recorded
output digest), and either CLI `argv` or a sweep `index` and `q`.

Everything here is plain Python: the program under test is never
imported by run.py, so it sees only the generated JSON files and
argv.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations
from pathlib import Path

# Cost of one pass when the benchmark was defined, on a 2-vCPU x86-64 VM
# (Intel Xeon, 2 BLAS threads); sets how many passes a run of --seconds
# makes (see passes_for).
NOMINAL_PASS_S = {
    "threshold-ladder": 8.5,
    "structure-sweep": 7.5,
    "oracle-acceptance": 7.8,
}

TRIANGLE = (3, [[1, 2], [2, 3], [3, 1]])
FAN = (3, [[1, 2], [1, 3]])
STAR_HUB2 = (4, [[1, 2], [2, 3], [2, 4], [1, 3, 4]])
ORACLE_SCHEMES = {"triangle": TRIANGLE, "fan": FAN, "star_hub2": STAR_HUB2}
# (scheme, q, secret) for verify-oracle; None is the uniform secret.
ORACLE_CASES = [
    ("triangle", 2, None),
    ("triangle", 2, "0.9,0.1"),
    ("fan", 2, None),
    ("fan", 2, "0.9,0.1"),
    ("star_hub2", 2, None),
    ("star_hub2", 2, "0.9,0.1"),
    ("triangle", 3, None),
    ("triangle", 3, "0.6,0.3,0.1"),
]
# One subset per q; {1,3,5,7,9} and its complement {2,4,6,8} cost the
# same three eliminations, one authorized and one not.
ENTROPY_SUBSETS = {2: "1,3,5,7,9", 3: "2,4,6,8", 5: "1,3,5,7,9", 7: "2,4,6,8"}


def passes_for(workload: str, seconds: float) -> int:
    """Passes per run: fixed work per --seconds, the same on every commit.

    Tying the pass count to the seed's cost rather than to a clock keeps
    the pooled sample count, and so the meaning of call_s.tail, equal
    between a parent and a change.
    """
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def threshold(k: int, n: int) -> tuple[int, list[list[int]]]:
    return n, [list(c) for c in combinations(range(1, n + 1), k)]


def structure_json(n: int, sets) -> str:
    return json.dumps({"n": n, "minimal_sets": [list(s) for s in sets]}, separators=(",", ":"))


def cli_call(key: str, command: str, path: str, q: int, *extra: str) -> dict:
    return {"key": key, "argv": [command, "--structure", path, "--q", str(q), *extra]}


def connected_realizable(n: int) -> list[list[list[int]]]:
    """Every antichain of pairwise-intersecting sets covering 1..n."""
    full = (1 << n) - 1
    masks = sorted(
        range(1, 1 << n),
        key=lambda m: (bin(m).count("1"), [p for p in range(n) if m >> p & 1]),
    )
    found = []

    def grow(start: int, chosen: list[int], covered: int):
        if chosen and covered == full:
            found.append(list(chosen))
        for i in range(start, len(masks)):
            m = masks[i]
            if all(c & m and c & m not in (c, m) for c in chosen):
                chosen.append(m)
                grow(i + 1, chosen, covered | m)
                chosen.pop()

    grow(0, [], 0)
    return [[[p + 1 for p in range(n) if m >> p & 1] for m in ch] for ch in found]


def stratified_sample(structures, count: int, rng: random.Random):
    """One structure from each of `count` equal strata of a cost order.

    Sorting by total minimal-set size, then set count, orders the
    structures roughly by matrix size; drawing one per stratum keeps
    the pass cost close to the population mean for every seed.
    """
    order = sorted(structures, key=lambda s: (sum(map(len, s)), len(s)))
    total = len(order)
    return [order[rng.randrange(k * total // count, (k + 1) * total // count)] for k in range(count)]


def probe_calls(files: dict[str, str], rel: str) -> list[dict]:
    """Calls that touch every traced layer once, on FAN at q=2.

    Every pass of a traced run, traced or not, runs them first, so that
    every per-layer metric is measured on every workload and the
    overhead comparison sees equally warm workers.
    """
    files["probe_fan.json"] = structure_json(*FAN)
    path = f"{rel}/probe_fan.json"
    return [
        cli_call("verify-oracle fan q=2 secret=uniform", "verify-oracle", path, 2),
        cli_call("msp fan q=2", "msp", path, 2),
        {"key": "sweep probe_fan q=2", "index": "probe_fan.json", "q": 2},
    ]


def threshold_ladder(rng: random.Random, files: dict[str, str], rel: str) -> list[dict]:
    """Fixed calls; no seeded input.

    Which players a 5-of-9 subset holds moves the cost of its three
    eliminations from 0.22 s to 0.82 s (first-nonzero pivoting fills in
    differently), and a seeded pick moved call_s.p50 by 24% between
    seeds, more than the changes this workload is there to show.
    """
    for k, n in ((3, 5), (4, 7), (5, 9), (6, 11)):
        files[f"t{k}of{n}.json"] = structure_json(*threshold(k, n))
    calls = []
    for k, n in ((3, 5), (4, 7)):
        for q in (2, 3):
            calls.append(
                cli_call(f"verify-theorem {k}of{n} q={q}", "verify-theorem", f"{rel}/t{k}of{n}.json", q)
            )
    for q, text in ENTROPY_SUBSETS.items():
        calls.append(
            cli_call(f"entropy 5of9 q={q} set={text}", "entropy", f"{rel}/t5of9.json", q, "--set", text)
        )
    calls.append(cli_call("classify 6of11 q=2", "classify", f"{rel}/t6of11.json", 2))
    calls.append(cli_call("msp 6of11 q=2", "msp", f"{rel}/t6of11.json", 2))
    return calls


def structure_sweep(rng: random.Random, files: dict[str, str], rel: str) -> list[dict]:
    chosen = [(4, s) for s in connected_realizable(4)]
    chosen += [(5, s) for s in stratified_sample(connected_realizable(5), 150, rng)]
    calls = []
    for i, (n, sets) in enumerate(chosen):
        name = f"s{i:03d}.json"
        files[name] = structure_json(n, sets)
        calls.append({"key": f"sweep {name}", "index": name, "q": 2 + i % 2})
    return calls


def oracle_acceptance(rng: random.Random, files: dict[str, str], rel: str) -> list[dict]:
    """The acceptance schemes as the acceptance suite labels them; no seeded input.

    Relabeling players moved STAR_HUB2's cost by up to 30% between
    seeds (coordinate order changes the strides of every reduction),
    which would hide the oracle changes this workload is there to show.
    """
    calls = []
    for scheme, (n, sets) in ORACLE_SCHEMES.items():
        files[f"{scheme}.json"] = structure_json(n, sets)
    for scheme, q, secret in ORACLE_CASES:
        extra = ("--secret", secret) if secret else ()
        key = f"verify-oracle {scheme} q={q} secret={secret or 'uniform'}"
        calls.append(cli_call(key, "verify-oracle", f"{rel}/{scheme}.json", q, *extra))
    return calls


WORKLOADS = {
    "threshold-ladder": threshold_ladder,
    "structure-sweep": structure_sweep,
    "oracle-acceptance": oracle_acceptance,
}


def generate(workload: str, seed: int, input_dir: Path, rel: str) -> tuple[list[dict], list[dict], str]:
    """Write the workload's inputs; return (calls, probe calls, input digest).

    `rel` is `input_dir` relative to the working directory of the
    worker, as it appears in argv.
    """
    rng = random.Random(f"{workload}:{seed}")
    files: dict[str, str] = {}
    calls = WORKLOADS[workload](rng, files, rel)
    probes = probe_calls(files, rel)
    digest = hashlib.sha256()
    for name in sorted(files):
        (input_dir / name).write_text(files[name])
        digest.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    for call in calls:  # argv holds run-specific paths; the key and q do not
        digest.update(json.dumps({k: v for k, v in call.items() if k != "argv"}, sort_keys=True).encode())
    return calls, probes, digest.hexdigest()
