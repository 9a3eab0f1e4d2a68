"""Golden CLI outputs: every command and --format on the triangle and the fan.

`cli_golden.json` holds the exit code and stdout of each case, recorded
from the CLI before it moved to a command table; the refactor had to
keep them byte-identical. To re-record after a deliberate output
change, run `PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from spanshare import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")
STRUCTURES = {
    "triangle": '{"n": 3, "minimal_sets": [[1,2],[2,3],[3,1]]}',
    "fan": '{"n": 3, "minimal_sets": [[1,2],[1,3]]}',
}
COMMANDS = (
    "classify", "dual", "purify", "msp", "entropy",
    "profile", "verify-theorem", "verify-oracle", "css", "tent",
)
FORMATS = (None, "json", "csv", "text")
# Command-specific flag sets; every command also runs with none.
EXTRAS = {
    "entropy": [["--set", "1,2"], ["--set", "1"]],
    "profile": [[], ["--chain", "3|2,3|1,2,3"], ["--all-chains"]],
    "tent": [[], ["--chain", "3|2,3|1,2,3"]],
    "verify-oracle": [[], ["--cap", "32"]],
}
SECRET_COMMANDS = ("entropy", "profile", "tent", "verify-theorem", "verify-oracle")


def cases() -> dict[str, tuple[str, list[str]]]:
    """Case key -> (structure name, argv after --structure PATH)."""
    out = {}
    for name in STRUCTURES:
        for command in COMMANDS:
            extras = EXTRAS.get(command, [[]])
            for fmt in FORMATS:
                for extra in extras:
                    flags = (["--format", fmt] if fmt else []) + extra
                    out[" ".join([name, command, *flags])] = (name, [command, *flags])
            if command in SECRET_COMMANDS:
                flags = extras[0] + ["--secret", "0.9,0.1"]
                out[" ".join([name, command, *flags])] = (name, [command, *flags])
    return out


def run_case(directory: Path, name: str, argv: list[str]) -> tuple[int, str]:
    path = directory / f"{name}.json"
    path.write_text(STRUCTURES[name])
    command, *flags = argv
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main([command, "--structure", str(path), "--q", "2", *flags])
    return code, out.getvalue()


@pytest.mark.parametrize("key", sorted(cases()))
def test_cli_matches_golden(key, tmp_path):
    expected = json.loads(GOLDEN.read_text())[key]
    name, argv = cases()[key]
    assert list(run_case(tmp_path, name, argv)) == expected


def test_golden_covers_every_case_and_command():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(cases())
    assert set(COMMANDS) == set(cli.COMMANDS)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        golden = {key: run_case(Path(tmp), *case) for key, case in sorted(cases().items())}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN}", file=sys.stderr)
