"""Command-line behavior: outputs, formats, exit codes."""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spanshare
from spanshare import access, cli, fields, msp
from spanshare.entropy import (
    EntropyReport,
    MonotonicityViolation,
    SecretSpec,
    chain_profile,
    greedy_chain,
)
from spanshare.fields import FieldMatrix

from test_oracle import flipped

TRIANGLE_JSON = '{"n": 3, "minimal_sets": [[1,2],[2,3],[3,1]]}'
FAN_JSON = '{"n": 3, "minimal_sets": [[1,2],[1,3]]}'


@pytest.fixture
def tri_path(tmp_path):
    path = tmp_path / "tri.json"
    path.write_text(TRIANGLE_JSON)
    return str(path)


@pytest.fixture
def fan_path(tmp_path):
    path = tmp_path / "fan.json"
    path.write_text(FAN_JSON)
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify(capsys, tri_path):
    code, out, _ = run_cli(capsys, "classify", "--structure", tri_path)
    assert code == 0
    assert out == "self_dual=true quantum_realizable=true connected=true\n"


def test_classify_json(capsys, tri_path):
    code, out, _ = run_cli(capsys, "classify", "--structure", tri_path, "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "self_dual": True,
        "quantum_realizable": True,
        "connected": True,
    }


def test_dual(capsys, tri_path):
    code, out, _ = run_cli(capsys, "dual", "--structure", tri_path)
    assert code == 0
    assert out == "minimal sets [[1,2],[1,3],[2,3]]\n"


def test_purify(capsys, fan_path):
    code, out, _ = run_cli(capsys, "purify", "--structure", fan_path)
    assert code == 0
    assert out == "n=4 minimal sets [[1,2],[1,3],[1,4],[2,3,4]]\n"


def test_msp_dump(capsys, tri_path):
    code, out, _ = run_cli(capsys, "msp", "--structure", tri_path)
    assert code == 0
    assert out.splitlines()[0] == "6 4 2"
    assert out.splitlines()[-1] == "psi: 1 2 2 3 3 1"


def test_msp_past_63_players(capsys, tmp_path):
    # The hub on 70 players: {1, i} for i = 2..70, plus {2, ..., 70}.
    path = tmp_path / "hub70.json"
    sets = [[1, i] for i in range(2, 71)] + [list(range(2, 71))]
    path.write_text(json.dumps({"n": 70, "minimal_sets": sets}))
    code, out, _ = run_cli(capsys, "msp", "--structure", str(path))
    assert code == 0
    assert out.splitlines()[0] == "207 138 2"


def test_entropy_text(capsys, tri_path):
    code, out, _ = run_cli(capsys, "entropy", "--structure", tri_path, "--set", "1,2")
    assert code == 0
    assert out == "3.000000 bits (a=4,b=2,m=4, authorized)\n"


def test_entropy_unauthorized(capsys, tri_path):
    code, out, _ = run_cli(capsys, "entropy", "--structure", tri_path, "--set", "1")
    assert code == 0
    assert out == "2.000000 bits (a=2,b=4,m=4, unauthorized)\n"


def test_entropy_json(capsys, tri_path):
    code, out, _ = run_cli(
        capsys, "entropy", "--structure", tri_path, "--set", "1,2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "subset": [1, 2],
        "authorized": True,
        "a": 4,
        "b": 2,
        "m": 4,
        "entropy_bits": 3.0,
    }


def test_entropy_biased_secret(capsys, tri_path):
    code, out, _ = run_cli(
        capsys, "entropy", "--structure", tri_path, "--set", "1,2",
        "--secret", "0.9,0.1",
    )
    assert code == 0
    assert out.startswith("2.468996 bits")


def test_verify_theorem_ok(capsys, tri_path):
    code, out, _ = run_cli(capsys, "verify-theorem", "--structure", tri_path)
    assert code == 0
    assert out == "OK: 0 violations over 8 subsets\n"


def test_verify_theorem_reports_violations(capsys, tri_path, monkeypatch):
    fake = EntropyReport((1,), False, 0, 0, 0, 0.0)
    monkeypatch.setattr(
        cli.entropy,
        "verify_monotonicity",
        lambda g, secret, rz=None: [MonotonicityViolation(fake, fake)],
    )
    code, out, _ = run_cli(capsys, "verify-theorem", "--structure", tri_path)
    assert code == 2
    assert out.startswith("VIOLATION")


def test_verify_theorem_reports_a_corrupted_cut_table(
    capsys, tri_path, monkeypatch, corrupted_triangle_rz
):
    monkeypatch.setattr(cli.entropy, "realize", lambda g, q=2: corrupted_triangle_rz)
    code, out, _ = run_cli(capsys, "verify-theorem", "--structure", tri_path)
    assert code == 2
    assert out == "VIOLATION S((1, 2)) < S((1, 2, 3)): 0.000000 vs 1.000000\n"


def test_verify_oracle_ok(capsys, tri_path):
    code, out, _ = run_cli(capsys, "verify-oracle", "--structure", tri_path)
    assert code == 0
    assert out == "OK: 8/8 subsets match; secrecy OK; recoverability OK\n"


def test_verify_oracle_fan(capsys, fan_path):
    code, out, _ = run_cli(capsys, "verify-oracle", "--structure", fan_path)
    assert code == 0
    assert out == "OK: 8/8 subsets match; secrecy OK; recoverability OK\n"


def test_verify_oracle_star_hub2_at_q3(capsys, tmp_path):
    # 3^9 amplitudes; a dense reduction onto all four players would take 5.8 GiB.
    path = tmp_path / "star.json"
    path.write_text('{"n": 4, "minimal_sets": [[1,2],[2,3],[2,4],[1,3,4]]}')
    code, out, _ = run_cli(capsys, "verify-oracle", "--structure", str(path), "--q", "3")
    assert code == 0
    assert out == "OK: 16/16 subsets match; secrecy OK; recoverability OK\n"


def test_verify_oracle_degrades_when_capped(capsys, tri_path):
    code, out, err = run_cli(
        capsys, "verify-oracle", "--structure", tri_path, "--cap", "32"
    )
    assert code == 0
    assert "formula only" in out
    assert "warning" in err
    # The default cap, 2^22, lies between 13^5 and 13^6: the triangle (d = 6)
    # at q = 13 falls back to the formula, and runs the oracle at cap 13^6.
    code, out, err = run_cli(capsys, "verify-oracle", "--structure", tri_path, "--q", "13")
    assert (code, out) == (0, "OK (formula only): 0 violations over 8 subsets\n")
    assert err.startswith("warning: q^d = 13^6 exceeds cap 4194304;")
    argv = ["verify-oracle", "--structure", tri_path, "--q", "13", "--cap", "4826809"]
    ok = "OK: 8/8 subsets match; secrecy OK; recoverability OK\n"
    assert run_cli(capsys, *argv) == (0, ok, "")


def test_css(capsys, tri_path):
    code, out, _ = run_cli(capsys, "css", "--structure", tri_path)
    assert code == 0
    assert out.splitlines() == [
        "xbar: 0 1 0 1 0 1",
        "generator: 1 1 0 0 0 0",
        "generator: 0 0 1 1 0 0",
        "generator: 0 0 0 0 1 1",
    ]


@pytest.mark.parametrize(
    "argv", [["msp"], ["css"], ["css", "--format", "json"]], ids=["msp", "css", "css-json"]
)
def test_msp_and_css_build_no_field_matrix(capsys, tri_path, monkeypatch, argv):
    expected = run_cli(capsys, *argv, "--structure", tri_path)

    def refuse(self):
        raise AssertionError("the printout built a FieldMatrix")

    monkeypatch.setattr(FieldMatrix, "__post_init__", refuse)
    assert run_cli(capsys, *argv, "--structure", tri_path) == expected
    assert expected[0] == 0 and expected[1]


@pytest.fixture(scope="module")
def t6of11_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("t6of11") / "t6of11.json"
    sets = [list(c) for c in itertools.combinations(range(1, 12), 6)]
    path.write_text(json.dumps({"n": 11, "minimal_sets": sets}))
    return str(path)


def normal_form(path: str, q: int) -> msp.MonotoneSpanProgram:
    with open(path) as f:
        return msp.build_normal_form(access.structure_from_json(f.read()), q)[0]


def dense(program: msp.MonotoneSpanProgram) -> np.ndarray:
    """The whole matrix as one array, from the program's nonzeros."""
    array = np.zeros(program.shape, np.int64)
    array[program.row, program.col] = program.value
    return array


@pytest.mark.parametrize("q", [2, 7, 11, 101])
def test_msp_and_css_slabs_match_the_whole_array(capsys, monkeypatch, t6of11_path, q):
    # The whole 2772 x 2311 matrix and its transpose printed as one slab.
    program = normal_form(t6of11_path, q)
    with monkeypatch.context() as whole:
        whole.setattr(fields, "_SLAB_CELLS", 1 << 40)
        expected_msp = "".join(msp.msp_text_blocks(program))
        columns = fields.coords_to_text(*program.columns, program.shape[::-1])
        expected_css = "xbar: " + "\ngenerator: ".join("".join(columns).splitlines()) + "\n"
    assert run_cli(capsys, "msp", "--structure", t6of11_path, "--q", str(q)) == (0, expected_msp, "")
    assert run_cli(capsys, "css", "--structure", t6of11_path, "--q", str(q)) == (0, expected_css, "")


def test_css_json_slabs_match_the_whole_array(capsys, t6of11_path):
    x_bar, *generators = dense(normal_form(t6of11_path, 2)).T.tolist()
    expected = json.dumps({"x_bar": x_bar, "generators": generators}, sort_keys=True) + "\n"
    assert run_cli(capsys, "css", "--structure", t6of11_path, "--format", "json") == (0, expected, "")


@pytest.mark.parametrize("q", [2, 3, 101])
def test_css_json_matches_json_dumps(capsys, tmp_path, q):
    # 4-of-7, and one player alone: a secret column and no generators.
    for n, sets in [(7, itertools.combinations(range(1, 8), 4)), (1, [[1]])]:
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": n, "minimal_sets": [list(s) for s in sets]}))
        x_bar, *generators = dense(normal_form(str(path), q)).T.tolist()
        expected = json.dumps({"x_bar": x_bar, "generators": generators}, sort_keys=True) + "\n"
        argv = ["css", "--structure", str(path), "--q", str(q), "--format", "json"]
        assert run_cli(capsys, *argv) == (0, expected, "")


@pytest.mark.parametrize("command", ["msp", "css"])
@pytest.mark.parametrize(
    "structure, flags, message",
    [('{"n": 4, "minimal_sets": [[1,2],[3,4]]}', [], "disjoint"), (TRIANGLE_JSON, ["--q", "4"], "prime")],
    ids=["unrealizable", "composite-q"],
)
def test_printouts_check_their_input_before_opening_out(capsys, tmp_path, command, structure, flags, message):
    path, target = tmp_path / "g.json", tmp_path / "out.txt"
    path.write_text(structure)
    code, out, err = run_cli(capsys, command, "--structure", str(path), *flags, "--out", str(target))
    assert_one_line_error(code, out, err)
    assert message in err and not target.exists()


def test_one_parser_serves_every_call(capsys, tri_path):
    # `tent` rewrites its parsed format to csv; the next call must not see it.
    assert run_cli(capsys, "tent", "--structure", tri_path)[0] == 0
    code, out, _ = run_cli(capsys, "profile", "--structure", tri_path, "--format", "json")
    assert code == 0
    assert out == '{"chain": [[], [1], [1, 2], [1, 2, 3]], "crossover": 2, "entropies": [0.0, 2.0, 3.0, 1.0]}\n'
    assert cli._parser() is cli._parser()


def test_large_field_is_accepted(capsys, tri_path):
    code, out, _ = run_cli(capsys, "classify", "--structure", tri_path, "--q", "100003")
    assert code == 0 and out == "self_dual=true quantum_realizable=true connected=true\n"
    code, out, _ = run_cli(capsys, "entropy", "--structure", tri_path, "--q", "100003", "--set", "1")
    assert code == 0
    assert out.startswith(f"{2 * math.log2(100003):.6f} bits (a=2,")


def test_uniform_secret_over_a_field_past_2_to_the_64(capsys, tri_path):
    argv = ["entropy", "--structure", tri_path, "--set", "1", "--q", "18446744073709551629"]
    assert run_cli(capsys, *argv) == (0, "128.000000 bits (a=2,b=4,m=4, unauthorized)\n", "")


def test_oracle_falls_back_without_the_secret_probabilities(capsys, tri_path):
    # 1000003^6 is over the cap; q floats would take 8 MB.
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "verify-oracle", "--structure", tri_path, "--q", "1000003")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (0, "OK (formula only): 0 violations over 8 subsets\n")
    assert "exceeds cap" in err and peak < 2**20


def test_tent_default_chain(capsys, tri_path):
    code, out, _ = run_cli(capsys, "tent", "--structure", tri_path)
    assert code == 0
    assert out.splitlines() == [
        "subset,size,authorized,entropy_bits",
        ",0,false,0.000000",
        "1,1,false,2.000000",
        "1-2,2,true,3.000000",
        "1-2-3,3,true,1.000000",
    ]


def test_tent_explicit_chain(capsys, tri_path):
    code, out, _ = run_cli(
        capsys, "tent", "--structure", tri_path, "--chain", "3|2,3|1,2,3"
    )
    assert code == 0
    assert "3,1,false,2.000000" in out.splitlines()


def test_profile_all_chains(capsys, tri_path):
    code, out, _ = run_cli(capsys, "profile", "--structure", tri_path, "--all-chains")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0] == (
        "chain 1>2>3 entropies 0.000000,2.000000,3.000000,1.000000 crossover 2"
    )


def test_profile_json(capsys, tri_path):
    code, out, _ = run_cli(
        capsys, "profile", "--structure", tri_path, "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["entropies"] == [0.0, 2.0, 3.0, 1.0]
    assert data["crossover"] == 2


def test_output_to_file(capsys, tri_path, tmp_path):
    out_path = tmp_path / "out.csv"
    code, out, _ = run_cli(
        capsys, "tent", "--structure", tri_path, "--out", str(out_path)
    )
    assert code == 0
    assert out == ""
    assert out_path.read_text().startswith("subset,size,authorized")


def test_outputs_are_deterministic(capsys, tri_path):
    _, first, _ = run_cli(capsys, "verify-oracle", "--structure", tri_path)
    _, second, _ = run_cli(capsys, "verify-oracle", "--structure", tri_path)
    assert first == second


def test_missing_file_is_input_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "classify", "--structure", str(tmp_path / "nope.json")
    )
    assert code == 1
    assert "error:" in err


def test_malformed_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "classify", "--structure", str(path))
    assert code == 1


def test_unrealizable_structure_is_input_error(capsys, tmp_path):
    path = tmp_path / "split.json"
    path.write_text('{"n": 4, "minimal_sets": [[1,2],[3,4]]}')
    code, _, err = run_cli(capsys, "entropy", "--structure", str(path), "--set", "1")
    assert code == 1
    assert "disjoint" in err


def test_bad_flags_are_input_errors(capsys, tri_path):
    with pytest.raises(SystemExit) as info:
        cli.main(["entropy", "--structure", tri_path])  # missing --set
    assert info.value.code == 1


def test_composite_field_is_input_error(capsys, tri_path):
    code, _, err = run_cli(
        capsys, "entropy", "--structure", tri_path, "--set", "1", "--q", "4"
    )
    assert code == 1
    assert "prime" in err


def assert_one_line_error(code, out, err):
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_field_below_two_is_input_error(capsys, tri_path):
    code, out, err = run_cli(capsys, "classify", "--structure", tri_path, "--q", "0")
    assert_one_line_error(code, out, err)
    assert "at least 2" in err


@pytest.mark.parametrize("command", ["classify", "dual", "purify", "msp", "css"])
def test_commands_that_never_read_the_secret_build_none(capsys, tri_path, command):
    code, out, _ = run_cli(capsys, command, "--structure", tri_path, "--q", "16777213")
    assert code == 0 and out
    code, out, err = run_cli(capsys, command, "--structure", tri_path, "--q", "1")
    assert_one_line_error(code, out, err)
    assert "at least 2" in err


@pytest.mark.parametrize("command", ["classify", "verify-theorem"])
def test_structure_errors_come_before_the_field_size(capsys, tmp_path, command):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3, "minimal_sets": [[1, 5]]}')
    code, out, err = run_cli(capsys, command, "--structure", str(path), "--q", "0")
    assert_one_line_error(code, out, err)
    assert "out of range" in err


def test_msp_over_a_61_bit_prime(capsys, tri_path):
    code, out, _ = run_cli(capsys, "msp", "--structure", tri_path, "--q", str(2**61 - 1))
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == ["6 4 2305843009213693951", "0 1 0 0", "1 2305843009213693950 0 0"]


@pytest.mark.parametrize("command", ["msp", "css"])
@pytest.mark.parametrize(
    "q, message",
    [(2**64 + 13, "does not fit the matrix's 64-bit"), (fields.PRIMALITY_LIMIT, "undecided")],
)
def test_fields_past_64_bits_or_the_prime_test_are_input_errors(
    capsys, tri_path, command, q, message
):
    code, out, err = run_cli(capsys, command, "--structure", tri_path, "--q", str(q))
    assert_one_line_error(code, out, err)
    assert message in err


def test_out_into_missing_directory_is_input_error(capsys, tri_path, tmp_path):
    target = tmp_path / "missing" / "out.csv"
    code, out, err = run_cli(capsys, "tent", "--structure", tri_path, "--out", str(target))
    assert_one_line_error(code, out, err)
    assert not target.exists()


def test_memory_error_is_input_error(capsys, tri_path, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 5.77 GiB")

    monkeypatch.setattr(cli.oracle, "verify_scheme", exhausted)
    code, out, err = run_cli(capsys, "verify-oracle", "--structure", tri_path)
    assert_one_line_error(code, out, err)
    assert "5.77 GiB" in err


def test_non_integer_structure_is_input_error(capsys, tmp_path):
    path = tmp_path / "float.json"
    path.write_text('{"n": 3.7, "minimal_sets": [[1,2],[2,3],[3,1.9]]}')
    code, out, err = run_cli(capsys, "classify", "--structure", str(path))
    assert_one_line_error(code, out, err)
    assert "integer" in err


def test_player_past_int64_is_out_of_range(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 3, "minimal_sets": [[1, 2], [2**70, 3]]}))
    code, out, err = run_cli(capsys, "classify", "--structure", str(path))
    assert_one_line_error(code, out, err)
    assert err == f"error: player {2**70} out of range 1..3\n"


def test_no_command_imports_numpy_ma(tmp_path):
    # The first np.unique call imports numpy.ma, about 19 ms and its memory per process.
    path = tmp_path / "tri.json"
    path.write_text(TRIANGLE_JSON)
    script = (
        "import contextlib, io, sys\n"
        "from spanshare import cli\n"
        "for argv in (['classify'], ['entropy', '--set', '1,2'], ['verify-theorem'],\n"
        "             ['verify-oracle'], ['msp']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv + ['--structure', sys.argv[1]]) == 0, argv\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    src = str(Path(spanshare.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("command", ["msp", "css"])
def test_unconnected_structure_of_2_to_62_players_is_input_error(capsys, tmp_path, command):
    # Deciding connectedness must not build a 2^n-bit player mask.
    path = tmp_path / "huge.json"
    path.write_text('{"n": 4611686018427387904, "minimal_sets": [[1]]}')
    code, out, err = run_cli(capsys, command, "--structure", str(path))
    assert_one_line_error(code, out, err)
    assert "outside every minimal set" in err


@pytest.mark.parametrize(
    "command, secret",
    [
        (["entropy", "--set", "1,2"], "nan,nan"),
        (["verify-theorem"], "nan,0.5"),
        (["verify-oracle"], "nan,nan"),
        # Refused before `math.fsum`, which overflows on them.
        (["entropy", "--set", "1"], "1e308,1e308"),
        (["profile"], "1e308,1e308"),
    ],
    ids=["entropy", "verify-theorem", "verify-oracle", "entropy-overflow", "profile-overflow"],
)
def test_nan_secret_is_input_error(capsys, tri_path, command, secret):
    code, out, err = run_cli(capsys, *command, "--structure", tri_path, "--secret", secret)
    assert_one_line_error(code, out, err)
    assert "finite" in err


@pytest.mark.parametrize(
    "subset, q, expected",
    [
        ("1,3,5,7,9", "2", "126.000000 bits (a=350,b=280,m=505, authorized)\n"),
        ("2,4,6,8", "3", "198.120313 bits (a=280,b=350,m=505, unauthorized)\n"),
    ],
    ids=["q2-odd", "q3-even"],
)
def test_entropy_5_of_9_ranks(capsys, tmp_path, subset, q, expected):
    # Recorded from the elimination-based subset ranks.
    path = tmp_path / "t5of9.json"
    sets = [list(c) for c in itertools.combinations(range(1, 10), 5)]
    path.write_text(json.dumps({"n": 9, "minimal_sets": sets}))
    code, out, _ = run_cli(capsys, "entropy", "--structure", str(path), "--set", subset, "--q", q)
    assert (code, out) == (0, expected)


@pytest.mark.parametrize(
    "sets, n, flags, expected",
    [
        (list(itertools.combinations(range(1, 8), 4)), 7, ["--q", "3"],
         "827e86b7bd7ad2c442d2da23e144baa4c74077f8db6c871b48b29d96222bf180"),
        ([[1, 2], [1, 3], [1, 4]], 4, ["--secret", "0.9,0.1"],
         "8607bcba3db6b4cbc7375a3bc7ad65794fbf6af0e0156ebdd476af142b4ffdb1"),
        ([[1, 2], [2, 3], [2, 4], [1, 3, 4]], 4, ["--q", "5", "--secret", "0.5,0.2,0.1,0.1,0.1"],
         "73bdeb560286f0996ce329097cb0e21eca3393b2993b140e885d1eac2fb111a7"),
    ],
    ids=["4-of-7-q3", "purified-fan-biased", "star-hub2-q5-biased"],
)
def test_all_chains_output_is_pinned(capsys, tmp_path, sets, n, flags, expected):
    # sha256 of stdout recorded from the per-chain `chain_profile` loop.
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": n, "minimal_sets": [list(s) for s in sets]}))
    code, out, err = run_cli(capsys, "profile", "--structure", str(path), "--all-chains", *flags)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def test_all_chains_beyond_the_enumeration_cap_is_input_error(capsys, tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n": 10, "minimal_sets": [list(range(1, 11))]}))
    code, out, err = run_cli(capsys, "profile", "--structure", str(path), "--all-chains")
    assert_one_line_error(code, out, err)
    assert "10! chain enumeration" in err


def test_invariant_failure_is_a_one_line_error(capsys, tri_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("authorization must flip exactly once along a chain")

    monkeypatch.setattr(cli.entropy, "chain_profile", broken)
    code, out, err = run_cli(capsys, "profile", "--structure", tri_path)
    assert (code, out) == (2, "")
    assert err == "error: authorization must flip exactly once along a chain\n"


@pytest.mark.parametrize(
    "row, col, expected",
    [
        (
            1,
            1,
            "MISMATCH 1: formula 2.000000000 oracle 1.000000000\n"
            "MISMATCH 1-3: formula 3.000000000 oracle 2.000000000\n"
            "MISMATCH 2-3: formula 3.000000000 oracle 2.000000000\n"
            "SECRECY LEAK ((2,), 0, 1, 1.0)\n",
        ),
        (
            0,
            0,
            "MISMATCH 1-2: formula 3.000000000 oracle 2.000000000\n"
            "RECOVERY FAILURE ((1, 2), 0, 1, 0.25)\n",
        ),
    ],
)
def test_verify_oracle_prints_every_violation(capsys, tri_path, monkeypatch, row, col, expected):
    # The sweep reads the program matrix, the formula the layout: one
    # corrupted matrix entry shows as mismatches and a broken scheme.
    realize = cli.entropy.realize
    monkeypatch.setattr(cli.entropy, "realize", lambda g, q: flipped(realize(g, q), row, col))
    code, out, err = run_cli(capsys, "verify-oracle", "--structure", tri_path)
    assert (code, out, err) == (2, expected, "")


@pytest.mark.parametrize(
    "sets, auth_at, cut_at, code, message",
    [
        # Raised by the range checks in `mask_entropies` before any contract is checked.
        ([[1, 2], [2, 3], [3, 1]], {}, {0b000: 1}, 1, "subset ranks cannot exceed the full rank"),
        ([[1, 2], [2, 3], [3, 1]], {}, {0b111: 1}, 1, "subset ranks cannot exceed the full rank"),
        ([[1, 2], [2, 3], [3, 1]], {0b001: True, 0b011: False}, {}, 2,
         "authorization must flip exactly once along a chain"),
        ([[1]], {0b1: False}, {}, 2, "authorization must flip exactly once along a chain"),
        ([[1]], {0b0: True}, {0b0: 1}, 2, "empty set must carry zero entropy"),
        ([[1, 2], [2, 3], [3, 1]], {}, {0b111: -1}, 2,
         "full set of a pure scheme must carry exactly the secret entropy"),
        # The fan is purified: 0b111 is its full original set.
        ([[1, 2], [1, 3]], {}, {0b111: -1}, 2, "full set must carry at least the secret entropy"),
        # Off the greedy chain: only chains through (3,) and then (2, 3) meet it.
        ([[1, 2], [2, 3], [3, 1]], {0b100: True, 0b110: False}, {}, 2,
         "authorization must flip exactly once along a chain"),
    ],
)
def test_chain_contracts_fire_on_a_corrupted_cut_table(
    capsys, tmp_path, monkeypatch, sets, auth_at, cut_at, code, message
):
    realize = cli.entropy.realize

    def corrupted(g, q):
        rz = realize(g, q)
        auth, cut = (table.copy() for table in rz.layout.cut_table)
        for at, table in ((auth_at, auth), (cut_at, cut)):
            for mask, value in at.items():
                table[mask] = value
        rz.layout.__dict__["cut_table"] = (auth, cut)
        return rz

    g = access.from_minimal_sets(max(map(max, sets)), sets)
    error = RuntimeError if code == 2 else ValueError
    # The chain through the corrupted sets, which are nested: smaller sets' players first.
    nested = sorted([*auth_at, *cut_at, (1 << g.n) - 1], key=int.bit_count)
    order = sorted(g.players, key=lambda p: next(i for i, m in enumerate(nested) if m >> p - 1 & 1))
    chain = [tuple(order[:i]) for i in range(g.n + 1)]
    with pytest.raises(error) as info:
        chain_profile(g, SecretSpec.uniform(2), chain, corrupted(g, 2))
    assert str(info.value) == message
    path = tmp_path / "g.json"
    path.write_text(access.structure_to_json(g))
    monkeypatch.setattr(cli.entropy, "realize", corrupted)
    steps = "|".join(",".join(map(str, step)) for step in chain[1:])
    # No flag runs the greedy chain; --all-chains checks every chain before any line.
    for argv in ([], ["--chain", steps], ["--all-chains"]):
        if argv or chain == greedy_chain(g):
            result = run_cli(capsys, "profile", "--structure", str(path), *argv)
            assert result == (code, "", f"error: {message}\n")


@pytest.mark.parametrize("crash", [RecursionError, NotImplementedError])
def test_runtime_error_crashes_are_not_verdicts(capsys, tri_path, monkeypatch, crash):
    def broken(*args, **kwargs):
        raise crash("not an invariant check")

    monkeypatch.setattr(cli.entropy, "chain_profile", broken)
    with pytest.raises(crash):
        cli.main(["profile", "--structure", tri_path])


def test_entropy_commands_never_build_the_program(capsys, monkeypatch, tri_path, fan_path):
    # Only the oracle reads the span program; every other command answers
    # from the layout, so the realizations they make never build it.
    made = []
    realize = cli.entropy.realize

    def spy(g, q):
        made.append(realize(g, q))
        return made[-1]

    monkeypatch.setattr(cli.entropy, "realize", spy)
    commands = (
        ["entropy", "--set", "1,2"],
        ["verify-theorem"],
        ["profile"],
        ["profile", "--all-chains"],
        ["tent"],
        ["verify-oracle", "--cap", "2"],  # above the cap: the formula only
    )
    for argv in commands:
        for path in (tri_path, fan_path):
            assert run_cli(capsys, *argv, "--structure", path)[0] == 0
    assert len(made) == 2 * len(commands)
    assert not any("program" in rz.__dict__ for rz in made)
    assert run_cli(capsys, "verify-oracle", "--structure", tri_path)[0] == 0
    assert "program" in made[-1].__dict__
