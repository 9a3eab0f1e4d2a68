"""The CLI's contract under drawn input: an answer or one `error:` line, never a traceback.

Every example runs `cli.main` in-process on a drawn argv: a command, a
structure file that is valid, malformed or adversarial, and options that
are often out of range. It must exit 0, 1 or 2; a nonzero exit leaves
exactly one `error: ` line on stderr, as its last line, after argparse's
usage text if there is any; and nothing escapes `main` but SystemExit.
Structures stay small (at most 8 minimal sets, and n <= 6 for
`--all-chains`), so that the whole module runs in seconds.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import spanshare
from spanshare import cli

resource = pytest.importorskip("resource")

PRIMES = [2, 3, 5, 7, 31, 101, 2**61 - 1, 2**64 + 13]
ODD_Q = [0, 1, -3, 4, 6, 9, 2**128 + 51]

small_n = st.integers(1, 6)
any_n = small_n | st.sampled_from([7, 9, 13, 20, 21, 40, 63, 64, 65, 70])
odd = st.sampled_from((False, False, False, True))  # one draw in four leaves the valid path


def _odd_value(n):
    return st.sampled_from([0, -1, n + 1, 2**63, 2**70, 1.0, 2.5, True, False, None, "1", [1]])


@st.composite
def structure_text(draw, n_values):
    """(JSON text, n) of a structure: mostly valid, else malformed or with adversarial values.

    A valid one is drawn sets, a hub ({1, i} for every other player i, and
    those players together) or an (n - 1)-of-n threshold: the last two are
    realizable and connected, so every command runs to its answer.
    """
    n = draw(n_values)
    width = min(n, 8)
    if not draw(odd):
        members = st.lists(st.integers(1, n), min_size=1, max_size=width, unique=True)
        drawn = st.lists(members, min_size=1, max_size=8, unique_by=frozenset)
        everyone = list(range(1, n + 1))
        hub = [[1, i] for i in everyone[1:]] + [everyone[1:]] if n > 2 else [everyone]
        threshold = [everyone[:i] + everyone[i + 1 :] for i in range(n)] if n > 1 else [everyone]
        sets = draw(drawn | st.sampled_from([hub, threshold]).filter(lambda sets: len(sets) <= 8))
        return json.dumps({"n": n, "minimal_sets": sets}), n
    sets = draw(st.lists(st.lists(st.integers(1, n) | _odd_value(n), max_size=width), max_size=7))
    if draw(st.booleans()) and sets:
        sets.append(draw(st.sampled_from(sets)))  # a duplicate, the eighth set at most
    data = {"n": draw(st.just(n) | _odd_value(n)), "minimal_sets": sets}
    how = draw(st.sampled_from(["as is", "extra key", "missing key", "not an object", "nested",
                                "broken"]))
    if how == "extra key":
        data["comment"] = "ignored"
    elif how == "missing key":
        del data[draw(st.sampled_from(["n", "minimal_sets"]))]
    elif how == "not an object":
        data = draw(st.sampled_from([sets, n, "text", None]))
    elif how == "nested":
        data["minimal_sets"] = [sets] if draw(st.booleans()) else 3
    text = json.dumps(data)
    if how == "broken":
        text = text[: draw(st.integers(0, max(0, len(text) - 1)))]
    return text, n


def _players(draw, n):
    """A set of players as `--set` text: mostly distinct and in range."""
    if draw(odd):
        return draw(st.lists(st.integers(-1, n + 2), max_size=n + 2).map(
            lambda ps: ",".join(map(str, ps))
        ) | st.sampled_from(["", " ", "a", "1,,2", "1.5", "1,1"]))
    return ",".join(map(str, draw(st.lists(st.integers(1, n), unique=True, max_size=n))))


def _chain(draw, n):
    """`--chain` text: mostly the prefixes of an ordering of some players."""
    if draw(odd):
        return "|".join(_players(draw, n) for _ in range(draw(st.integers(0, n + 1))))
    order = draw(st.permutations(range(1, n + 1)))[: draw(st.integers(0, n))]
    return "|".join(",".join(map(str, order[:k])) for k in range(1, len(order) + 1))


def _secret(draw, q):
    """`--secret` text: mostly a distribution over F_q, else huge, tiny, negative or NaN."""
    if q in (2, 3, 5, 7) and not draw(odd):
        if draw(st.booleans()):
            return ",".join([repr(1 / q)] * q)
        point = draw(st.integers(0, q - 1))
        return ",".join("1.0" if i == point else "0.0" for i in range(q))
    pool = [0.0, 0.1, 0.5, 0.9, 1.0, 1 / 3, -0.0, -0.5, 1e-320, 1e308, math.inf, math.nan]
    values = draw(st.lists(st.sampled_from(pool), max_size=8))
    return draw(st.just(",".join(map(repr, values)))
                | st.sampled_from(["", ",", "a,b", "0.5;0.5", "1e999,0"]))


@st.composite
def cli_argv(draw, structure_path):
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    all_chains = command == "profile" and draw(st.booleans())
    text, n = draw(structure_text(small_n if all_chains else any_n))
    structure_path.write_text(text)
    argv = [command, "--structure", str(structure_path)]
    if all_chains:
        argv.append("--all-chains")
    q = draw(st.sampled_from(ODD_Q) if draw(odd) else st.sampled_from(PRIMES))
    if draw(st.booleans()):
        argv.append(f"--q={q}")
    else:
        q = 2
    if draw(st.booleans()):
        argv.append(f"--secret={_secret(draw, q)}")
    if command == "entropy" or draw(odd) and draw(odd):
        argv.append(f"--set={_players(draw, n)}")
    if command in ("profile", "tent") and draw(st.booleans()):
        argv.append(f"--chain={_chain(draw, n)}")
    if draw(st.booleans()):
        fmt = ["xml", ""] if draw(odd) else ["text", "json", "csv"]
        argv.append(f"--format={draw(st.sampled_from(fmt))}")
    if draw(st.booleans()):
        cap = st.sampled_from(["x", "1e6", -1, 0]) if draw(odd) else st.integers(1, 2**22)
        argv.append(f"--cap={draw(cap)}")
    return argv


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refused the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, out, err):
    assert code in (0, 1, 2), code
    assert "Traceback" not in out + err
    lines = err.splitlines()
    errors = [line for line in lines if line.startswith("error: ")]
    if code == 0:
        assert not errors, err
        return
    assert len(errors) == 1 and lines[-1] == errors[0], err
    before = lines[:-1]
    usage = bool(before) and before[0].startswith("usage: ")
    # Before the error: argparse's usage text, or a warning that the oracle fell back.
    assert usage or all(line.startswith("warning: ") for line in before), err


@pytest.fixture(scope="module")
def structure_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "structure.json"


@settings(
    max_examples=300,
    deadline=10_000,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_any_argv_gives_an_answer_or_one_error_line(structure_path, data):
    argv = data.draw(cli_argv(structure_path))
    assert_contract(*_run_main(argv))


def test_oracle_allocation_past_the_address_limit_is_one_error_line(tmp_path):
    # STAR_HUB2 at q = 31: q^d passes a cap of 10^14, and numpy is then asked for
    # 887,503,681 int64 codewords. Run only under a 2 GiB address-space limit.
    path = tmp_path / "star_hub2.json"
    path.write_text('{"n": 4, "minimal_sets": [[1,2],[2,3],[2,4],[1,3,4]]}')
    limit = 2 << 30

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(spanshare.__file__).resolve().parent.parent)
    threads = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    path_var = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, **threads, "PYTHONPATH": path_var}
    argv = ["verify-oracle", "--structure", str(path), "--q", "31", "--cap", str(10**14)]
    run = subprocess.run(
        [sys.executable, "-m", "spanshare.cli", *argv],
        env=env, preexec_fn=cap_address_space, capture_output=True, text=True, timeout=60,
    )
    assert (run.returncode, run.stdout) == (1, ""), run.stderr
    assert run.stderr.startswith("error: Unable to allocate 6.61 GiB ")
    assert run.stderr.count("\n") == 1
