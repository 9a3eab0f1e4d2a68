"""Record the expected output of every CLI call the workloads make.

    python3 perfbench/record.py

Run it from the checkout root at the commit whose outputs are the
reference. It runs each call once, in-process, and writes
perfbench/expected.json: exit code, stdout SHA-256 and stdout length per
call key. The benchmark fails any call whose output differs. Takes
about 20 seconds.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import workloads
from worker import ROOT, import_program, run_cli


def all_calls(input_dir, rel: str) -> list[dict]:
    """Every CLI call of every workload (their CLI calls do not depend on the seed)."""
    calls = {}
    for workload in workloads.WORKLOADS:
        found, probes, _ = workloads.generate(workload, 0, input_dir, rel)
        calls.update((c["key"], c) for c in found + probes if "argv" in c)
    return list(calls.values())


def main() -> int:
    _, cli, _ = import_program()
    work = ROOT / "perfbench" / "out" / "record-inputs"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    calls = all_calls(work, str(work.relative_to(ROOT)))
    expected = {}
    for i, call in enumerate(calls):
        rc, out, error = run_cli(cli, call["argv"])
        if error is not None:
            print(f"{call['key']}: {error}", file=sys.stderr)
            return 1
        data = out.encode()
        expected[call["key"]] = {"rc": rc, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        print(f"[{i + 1}/{len(calls)}] {call['key']} rc={rc} bytes={len(data)}", file=sys.stderr)
    shutil.rmtree(work)
    path = ROOT / "perfbench" / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(expected)} entries to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
