"""Benchmark worker: imports spanshare from the checkout and serves calls.

Started by run.py as `python3 perfbench/worker.py INPUT_DIR TRACE` from
the checkout root. It imports the package, parses every structure file
in INPUT_DIR, prints one ready line, then answers one JSON request per
stdin line with one JSON reply line:

    {"op": "call", "call": {...}}  -> {"ok", "rc", "sha256", "bytes", "wall", "error"}
    {"op": "exit", "spans": PATH}  -> {"layers": {...} or null}, then exits

Calls run one after another in this process (a closed loop with one
caller). The protocol uses a private copy of the original stdout, so
anything the program prints cannot corrupt it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_program():
    """Import spanshare from ROOT/src, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "spanshare" / "__init__.py").is_file():
        raise SystemExit(f"worker: no spanshare package under {src}")
    sys.path.insert(0, str(src))
    import spanshare
    from spanshare import access, cli, entropy

    if Path(spanshare.__file__).resolve().parent != (src / "spanshare").resolve():
        raise SystemExit(f"worker: imported spanshare from {spanshare.__file__}")
    return access, cli, entropy


def run_cli(cli, argv: list[str]) -> tuple[int | None, str, str | None]:
    """Run `cli.main(argv)` in-process; return (exit code, stdout, error)."""
    out = io.StringIO()
    error = None
    rc = None
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except MemoryError:
        error = "MemoryError"
    except Exception as exc:  # a crash is a failed call, not a dead worker
        error = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), error


def run_sweep(entropy, g, q: int) -> tuple[bool, str | None]:
    """realize + monotonicity + extremal sets + greedy tent, as the acceptance suite does."""
    secret = entropy.SecretSpec.uniform(q)
    try:
        rz = entropy.realize(g, q)
        violations = entropy.verify_monotonicity(g, secret, rz)
        extremal = entropy.extremal_check(g, secret, rz)
        profile = entropy.chain_profile(g, secret, entropy.greedy_chain(g), rz)
    except MemoryError:
        return False, "MemoryError"
    except Exception as exc:
        return False, f"{type(exc).__name__}: {exc}"
    if violations:
        return False, f"{len(violations)} monotonicity violations"
    if not extremal.all_pass():
        return False, "extremal check failed"
    if not profile.is_tent():
        return False, "greedy chain profile is not a tent"
    return True, None


def execute(cli, entropy, structures: dict, call: dict) -> dict:
    start = time.perf_counter()
    if "argv" in call:
        rc, out, error = run_cli(cli, call["argv"])
        wall = time.perf_counter() - start
        data = out.encode()
        return {
            "ok": error is None,
            "rc": rc,
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
            "wall": wall,
            "error": error,
        }
    ok, error = run_sweep(entropy, structures[call["index"]], call["q"])
    wall = time.perf_counter() - start
    return {"ok": ok, "rc": 0 if ok else 2, "sha256": None, "bytes": 0, "wall": wall, "error": error}


def blas_version() -> str:
    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas']['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def main(argv: list[str]) -> int:
    input_dir, traced = Path(argv[0]), argv[1] == "1"
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)  # stray prints from the program go to stderr
    sys.stdout = sys.stderr

    access, cli, entropy = import_program()
    structures = {
        p.name: access.structure_from_json(p.read_text()) for p in sorted(input_dir.glob("*.json"))
    }
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import numpy

    ready = {
        "ready": True,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version(),
        "spanshare": str(Path(sys.modules["spanshare"].__file__).parent.relative_to(ROOT)),
    }
    print(json.dumps(ready), file=proto, flush=True)

    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "exit":
            layers = None
            if tracer is not None:
                tracer.write_spans(Path(request["spans"]))
                layers = tracer.layer_metrics()
            print(json.dumps({"layers": layers}), file=proto, flush=True)
            return 0
        call = request["call"]
        if tracer is not None:
            tracer.call_id = call["key"]
        reply = execute(cli, entropy, structures, call)
        print(json.dumps(reply), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
