"""Self-test of the benchmark's resource guard and seeded inputs.

    python3 perfbench/selftest.py

Run from the checkout root; takes about half a minute. Checks that

- verify-oracle on STAR_HUB2 at q=3, which asks for a 5.77 GiB dense
  operator, is recorded as a failed call under the worker's
  address-space limit, and the next call of the pass still runs;
- a call that overruns the per-call limit is killed with its worker,
  charged the limit, and the pass goes on in a fresh worker;
- the same seed gives the same inputs, another seed gives another
  structure-sweep sample, and every CLI call either seed makes has a
  recorded output.

Exits 0 when every check passes.
"""

from __future__ import annotations

import shutil
import sys

import run
import workloads


def check(name: str, ok: bool, detail: str = "") -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    return ok


def guard_checks(input_dir, rel: str, expected: dict) -> list[bool]:
    n, sets = workloads.STAR_HUB2
    (input_dir / "star.json").write_text(workloads.structure_json(n, sets))
    n, sets = workloads.TRIANGLE
    (input_dir / "tri.json").write_text(workloads.structure_json(n, sets))
    star = workloads.cli_call("verify-oracle star_hub2 q=3 secret=uniform", "verify-oracle", f"{rel}/star.json", 3)
    tri = workloads.cli_call("verify-oracle triangle q=2 secret=uniform", "verify-oracle", f"{rel}/tri.json", 2)
    result = run.run_pass([star, tri], input_dir, expected)
    first, second = result["calls"]
    results = [
        check("STAR_HUB2 q=3 is a failed call", first["failure"] is not None, str(first["failure"])),
        check("failed call is charged the call limit", first["wall"] == run.CALL_LIMIT_S),
        check("next call of the pass succeeds", second["failure"] is None, str(second["failure"])),
        check(
            "worker memory stayed under the address-space limit",
            result["peak_rss_mb"] * 2**20 < run.AS_LIMIT_BYTES,
            f"peak RSS {result['peak_rss_mb']:.0f} MB",
        ),
    ]

    n, sets = workloads.threshold(4, 7)
    (input_dir / "t4of7.json").write_text(workloads.structure_json(n, sets))
    n, sets = workloads.threshold(3, 5)
    (input_dir / "t3of5.json").write_text(workloads.structure_json(n, sets))
    slow = workloads.cli_call("verify-theorem 4of7 q=2", "verify-theorem", f"{rel}/t4of7.json", 2)
    fast = workloads.cli_call("verify-theorem 3of5 q=2", "verify-theorem", f"{rel}/t3of5.json", 2)
    result = run.run_pass([slow, fast], input_dir, expected, call_limit=0.5)
    first, second = result["calls"]
    results += [
        check("overrunning call times out", first["failure"] == "timeout or worker exit", str(first["failure"])),
        check("timed-out call is charged the limit", first["wall"] == 0.5),
        check("pass continues in a fresh worker", second["failure"] is None and len(result["setup_s"]) == 2),
    ]
    return results


def seed_checks(input_dir, rel: str, expected: dict) -> list[bool]:
    results = []
    for workload in workloads.WORKLOADS:
        digests = []
        for seed in (1, 1, 2):
            calls, probes, digest = workloads.generate(workload, seed, input_dir, rel)
            digests.append(digest)
            missing = [c["key"] for c in calls + probes if "argv" in c and c["key"] not in expected]
            results.append(check(f"{workload} seed {seed}: every CLI call has a recorded output", not missing, ", ".join(missing)))
        results.append(check(f"{workload}: same seed, same inputs", digests[0] == digests[1]))
        if workload == "structure-sweep":  # the other workloads have no seeded input
            results.append(check(f"{workload}: other seed, other inputs", digests[0] != digests[2]))
    return results


def main() -> int:
    expected = run.load_expected()
    input_dir = run.OUT / "selftest-inputs"
    shutil.rmtree(input_dir, ignore_errors=True)
    input_dir.mkdir(parents=True)
    rel = str(input_dir.relative_to(run.ROOT))
    try:
        results = seed_checks(input_dir, rel, expected) + guard_checks(input_dir, rel, expected)
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)
    print(f"{sum(results)}/{len(results)} checks passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
