"""Command-line behavior: outputs, formats, exit codes."""

import json

import pytest

from spanshare import cli
from spanshare.entropy import EntropyReport, MonotonicityViolation

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
