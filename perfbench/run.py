"""spanshare benchmark: runs one workload (or all) and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the checkout root. Each pass of a workload starts a fresh
worker process (perfbench/worker.py) under an address-space limit,
sends it the workload's calls one at a time, and times each call. With
--trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of traced passes
(perfbench/tracing.py) and the tracing overhead. A results file with
the environment, the seed, the input digest and every call goes to
perfbench/out/. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"

AS_LIMIT_BYTES = 3 * 2**30  # per worker: far above any workload peak (~200 MB), below STAR_HUB2 q=3's 5.77 GiB
CALL_LIMIT_S = 60.0  # a failed or timed-out call is charged this
SETUP_LIMIT_S = 60.0
SETUP_SAMPLES = 15  # worker start-ups timed per run, for the setup_s median
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
TAIL_BEYOND = 10  # call_s.tail: highest percentile with this many samples above it

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "call_s.p50": "s",
    "call_s.tail": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "access.classify_s": "s",
    "access.classify_calls": "count",
    "access.purify_s": "s",
    "access.purify_calls": "count",
    "entropy.realize_s": "s",
    "entropy.realize_calls": "count",
    "msp.build_s": "s",
    "msp.build_calls": "count",
    "msp.rows_max": "count",
    "msp.cols_max": "count",
    "msp.to_text_s": "s",
    "fields.rank_s": "s",
    "fields.rank_calls": "count",
    "fields.rank_cells": "count",
    "entropy.subset_s": "s",
    "entropy.subsets": "count",
    "entropy.monotonicity_s": "s",
    "entropy.pairs": "count",
    "entropy.extremal_s": "s",
    "entropy.chain_s": "s",
    "oracle.encode_s": "s",
    "oracle.amplitudes": "count",
    "oracle.compare_s": "s",
    "oracle.secrecy_s": "s",
    "oracle.dense_bytes_max": "B",
    "oracle.traced_peak_mb": "MB",
    "cli.main_s": "s",
    "cli.unattributed_s": "s",
    "trace.overhead_frac": "frac",
}


def _limit_child():
    """Runs in the worker child only, between fork and exec."""
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT_BYTES, AS_LIMIT_BYTES))


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    return env


class Worker:
    """One worker process; its start-up time is `setup_s`."""

    def __init__(self, input_dir: Path, traced: bool):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), str(input_dir), "1" if traced else "0"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=worker_env(),
            preexec_fn=_limit_child,
        )
        self.max_rss_mb = 0.0
        self.info = self._read(SETUP_LIMIT_S)
        self.setup_s = time.perf_counter() - start
        if self.info is None or not self.info.get("ready"):
            self.kill()
            raise RuntimeError("worker did not start; is src/spanshare importable?")

    def _read(self, timeout: float) -> dict | None:
        """The next reply line, or None on timeout or worker exit."""
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            return None
        line = self.proc.stdout.readline()
        return json.loads(line) if line else None

    def _send(self, request: dict) -> bool:
        try:
            self.proc.stdin.write((json.dumps(request) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            return False
        return True

    def call(self, call: dict, limit: float) -> dict | None:
        if not self._send({"op": "call", "call": call}):
            return None
        return self._read(limit)

    def _reap(self):
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_mb = usage.ru_maxrss / 1024  # Linux reports KiB
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except BrokenPipeError:
                pass

    def stop(self, spans: Path | None) -> dict | None:
        """Ask the worker to exit; returns its per-layer metrics if traced."""
        reply = None
        if self._send({"op": "exit", "spans": str(spans) if spans else None}):
            reply = self._read(SETUP_LIMIT_S)
        if reply is None:
            self.proc.kill()
        self._reap()
        return reply and reply.get("layers")

    def kill(self):
        self.proc.kill()
        self._reap()


def load_expected() -> dict:
    return json.loads((BENCH / "expected.json").read_text())


def check(call: dict, reply: dict | None, expected: dict) -> str | None:
    """Why the call failed, or None when its outcome is the recorded one."""
    if reply is None:
        return "timeout or worker exit"
    if not reply["ok"]:
        return reply["error"] or "failed"
    if "argv" not in call:
        return None
    want = expected.get(call["key"])
    if want is None:
        return "no recorded output for this call"
    if reply["rc"] != want["rc"]:
        return f"exit code {reply['rc']}, expected {want['rc']}"
    if reply["sha256"] != want["sha256"]:
        return f"stdout digest differs ({reply['bytes']} bytes, expected {want['bytes']})"
    return None


def run_pass(
    calls: list[dict],
    input_dir: Path,
    expected: dict,
    traced: bool = False,
    probes: list[dict] = (),
    spans: Path | None = None,
    call_limit: float = CALL_LIMIT_S,
) -> dict:
    """Send the calls one at a time to a fresh worker and check each reply.

    A call that times out or ends its worker is charged `call_limit`;
    the pass goes on in a new worker.
    """
    records, setups, rss, layers = [], [], [], []
    worker = info = None
    try:
        for is_probe, call in [(True, c) for c in probes] + [(False, c) for c in calls]:
            if worker is None:
                worker = Worker(input_dir, traced)
                setups.append(worker.setup_s)
                info = info or worker.info
            reply = worker.call(call, call_limit)
            if reply is None:
                worker.kill()
                rss.append(worker.max_rss_mb)
                worker = None
            failure = check(call, reply, expected)
            wall = call_limit if failure else reply["wall"]
            records.append({"key": call["key"], "probe": is_probe, "wall": wall, "failure": failure})
        if worker is not None:
            layers.append(worker.stop(spans))
            rss.append(worker.max_rss_mb)
            worker = None
    finally:
        if worker is not None:
            worker.kill()
    return {
        "calls": records,
        "wall_s": sum(r["wall"] for r in records if not r["probe"]),
        "peak_rss_mb": max(rss) if rss else 0.0,
        "setup_s": setups,
        "layers": next((x for x in layers if x), None),
        "worker": info,
    }


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest sample with TAIL_BEYOND above it."""
    ordered = sorted(values)
    i = max(0, len(ordered) - 1 - TAIL_BEYOND)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def git_sha() -> str | None:
    """HEAD of the checkout, or None outside git (src_sha256 covers that case)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(worker_info: dict, seed: int) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": worker_info["python"],
        "numpy": worker_info["numpy"],
        "blas": worker_info["blas"],
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "address_space_limit_bytes": AS_LIMIT_BYTES,
        "call_limit_s": CALL_LIMIT_S,
        "seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    expected = load_expected()
    input_dir = OUT / f"inputs-{workload}-{seed}"
    shutil.rmtree(input_dir, ignore_errors=True)
    input_dir.mkdir(parents=True)
    try:
        calls, probes, inputs_sha256 = workloads.generate(
            workload, seed, input_dir, str(input_dir.relative_to(ROOT))
        )
        passes = workloads.passes_for(workload, seconds)
        results = []
        if trace:
            # Alternate untraced and traced passes so drift hits both alike.
            # Both start with the probe calls, so both are equally warm.
            for k in range(2 * max(1, passes // 2)):
                traced = k % 2 == 1
                spans = OUT / f"spans-{workload}-{seed}-pass{k}.jsonl" if traced else None
                result = run_pass(calls, input_dir, expected, traced, probes, spans)
                result["traced"] = traced
                results.append(result)
        else:
            # Start-only workers go before, between and after the passes,
            # so setup_s samples the same stretch of time as the calls.
            extra = max(0, SETUP_SAMPLES - passes)
            for k in range(passes + 1):
                for _ in range(extra * (k + 1) // (passes + 1) - extra * k // (passes + 1)):
                    results.append(setup_only(input_dir))
                if k < passes:
                    results.append(run_pass(calls, input_dir, expected))
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)
    worker_info = next(r["worker"] for r in results if not r.get("setup_only"))
    return summarize(workload, seed, seconds, trace, inputs_sha256, results, worker_info)


def setup_only(input_dir: Path) -> dict:
    """Start a worker and stop it at once: one more setup_s sample."""
    worker = Worker(input_dir, False)
    worker.stop(None)
    return {"calls": [], "setup_s": [worker.setup_s], "setup_only": True}


def summarize(workload, seed, seconds, trace, inputs_sha256, results, worker_info) -> dict:
    timed = [r for r in results if not r.get("setup_only")]
    records = [c for r in results for c in r["calls"]]
    failed = [c for c in records if c["failure"]]
    report = {
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "inputs_sha256": inputs_sha256,
        "environment": environment(worker_info, seed),
        "attempted": len(records),
        "failed": len(failed),
        "failed_frac": len(failed) / len(records),
        "failures": [{"key": c["key"], "failure": c["failure"]} for c in failed],
        "passes": timed,
    }
    if trace:
        plain = [r["wall_s"] for r in timed if not r["traced"]]
        traced = [r for r in timed if r["traced"]]
        layers = [r["layers"] for r in traced if r["layers"]]
        metrics = {
            name: statistics.median(layer[name] for layer in layers) if layers else 0.0
            for name in PER_LAYER_UNITS
            if name != "trace.overhead_frac"
        }
        metrics["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced) / statistics.median(plain) - 1.0
        )
        report["unmeasured"] = sorted({name for layer in layers for name in layer["unmeasured"]})
        units = PER_LAYER_UNITS
    else:
        walls = [c["wall"] for r in timed for c in r["calls"]]
        tail_value, tail_pct = tail(walls)
        metrics = {
            "setup_s": statistics.median(s for r in results for s in r["setup_s"]),
            "wall_s": statistics.median(r["wall_s"] for r in timed),
            "call_s.p50": statistics.median(walls),
            "call_s.tail": tail_value,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        }
        report["samples"] = {
            "setup_s": sum(len(r["setup_s"]) for r in results),
            "wall_s": len(timed),
            "call_s": len(walls),
            "call_s.tail_percentile": tail_pct,
        }
        units = END_TO_END_UNITS
    report["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    return report


def write_report(report: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"results-{report['workload']}-seed{report['environment']['seed']}-trace{report['trace']}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    return path


def print_report(report: dict, path: Path):
    print(f"# {report['workload']}  seed={report['environment']['seed']}  trace={report['trace']}")
    for name, metric in report["metrics"].items():
        print(f"{report['workload']:18s} {name:24s} {metric['value']:.6g} {metric['unit']}")
    print(f"{report['workload']:18s} {'failed_frac':24s} {report['failed_frac']:.6g} ({report['failed']}/{report['attempted']})")
    for failure in report["failures"]:
        print(f"  FAILED {failure['key']}: {failure['failure']}")
    if "samples" in report:
        s = report["samples"]
        print(
            f"  samples: setup {s['setup_s']}, passes {s['wall_s']}, calls {s['call_s']}"
            f" (tail = p{s['call_s.tail_percentile']:.1f})"
        )
    print(f"  results: {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spanshare" / "__init__.py").is_file():
        print(f"error: no spanshare sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_report(report, write_report(report))
        reports.append(report)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in reports for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
