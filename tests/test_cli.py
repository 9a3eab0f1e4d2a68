"""Command-line behavior: outputs, formats, exit codes."""

import itertools
import json
import math

import pytest

from spanshare import cli
from spanshare.entropy import EntropyReport, MonotonicityViolation
from spanshare.fields import FieldMatrix

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


def test_verify_oracle_ok(capsys, tri_path):
    code, out, _ = run_cli(capsys, "verify-oracle", "--structure", tri_path)
    assert code == 0
    assert out == "OK: 8/8 subsets match; secrecy OK; recoverability OK\n"


def test_verify_oracle_fan(capsys, fan_path):
    code, out, _ = run_cli(capsys, "verify-oracle", "--structure", fan_path)
    assert code == 0
    assert out == "OK: 8/8 subsets match; secrecy OK; recoverability OK\n"


def test_verify_oracle_degrades_when_capped(capsys, tri_path):
    code, out, err = run_cli(
        capsys, "verify-oracle", "--structure", tri_path, "--cap", "32"
    )
    assert code == 0
    assert "formula only" in out
    assert "warning" in err


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


def test_large_field_is_accepted(capsys, tri_path):
    code, out, _ = run_cli(capsys, "classify", "--structure", tri_path, "--q", "100003")
    assert code == 0 and out == "self_dual=true quantum_realizable=true connected=true\n"
    code, out, _ = run_cli(capsys, "entropy", "--structure", tri_path, "--q", "100003", "--set", "1")
    assert code == 0
    assert out.startswith(f"{2 * math.log2(100003):.6f} bits (a=2,")


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


def test_out_into_missing_directory_is_input_error(capsys, tri_path, tmp_path):
    target = tmp_path / "missing" / "out.csv"
    code, out, err = run_cli(capsys, "tent", "--structure", tri_path, "--out", str(target))
    assert_one_line_error(code, out, err)
    assert not target.exists()


def test_memory_error_is_input_error(capsys, tri_path, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 5.77 GiB")

    monkeypatch.setattr(cli.oracle, "compare_with_formula", exhausted)
    code, out, err = run_cli(capsys, "verify-oracle", "--structure", tri_path)
    assert_one_line_error(code, out, err)
    assert "5.77 GiB" in err


def test_non_integer_structure_is_input_error(capsys, tmp_path):
    path = tmp_path / "float.json"
    path.write_text('{"n": 3.7, "minimal_sets": [[1,2],[2,3],[3,1.9]]}')
    code, out, err = run_cli(capsys, "classify", "--structure", str(path))
    assert_one_line_error(code, out, err)
    assert "integer" in err


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
    ],
    ids=["entropy", "verify-theorem", "verify-oracle"],
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


@pytest.mark.parametrize("crash", [RecursionError, NotImplementedError])
def test_runtime_error_crashes_are_not_verdicts(capsys, tri_path, monkeypatch, crash):
    def broken(*args, **kwargs):
        raise crash("not an invariant check")

    monkeypatch.setattr(cli.entropy, "chain_profile", broken)
    with pytest.raises(crash):
        cli.main(["profile", "--structure", tri_path])
