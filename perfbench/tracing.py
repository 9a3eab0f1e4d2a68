"""Spans and counters around spanshare's public functions, from outside.

The tracer wraps selected public functions in the worker process by
rebinding every module-level name that refers to them, so calls between
modules (for example `entropy.subset_report` calling `rank`) are seen
too. Spans (name, start, end, parent, call id) and counters stay in
memory and are written when the worker exits. Nothing inside `src/` is
changed.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

# (module, function) -> span name. Spans nest through the call stack.
TRACED = {
    ("access", "classify"): "access.classify",
    ("access", "purify"): "access.purify",
    ("entropy", "realize"): "entropy.realize",
    ("msp", "build_normal_form"): "msp.build",
    ("msp", "msp_to_text"): "msp.to_text",
    ("fields", "rank"): "fields.rank",
    ("entropy", "subset_report"): "entropy.subset",
    ("entropy", "verify_monotonicity"): "entropy.monotonicity",
    ("entropy", "extremal_check"): "entropy.extremal",
    ("entropy", "chain_profile"): "entropy.chain",
    ("oracle", "encode_secret"): "oracle.encode",
    ("oracle", "compare_with_formula"): "oracle.compare",
    ("oracle", "verify_secrecy_recoverability"): "oracle.secrecy",
    ("cli", "main"): "cli.main",
}
# tracemalloc runs only inside these spans: it slows pure-Python code.
MEMORY_TRACED = {"oracle.compare", "oracle.secrecy"}
COMPLEX_BYTES = 16


def _dense_bytes(rz) -> int:
    """Largest dense operator the oracle builds for one realization.

    A state vector has q^d amplitudes; the reduced density matrix on
    all original players' coordinates is q^v x q^v, v the coordinates
    not held by a purification player.
    """
    q, psi = rz.q, rz.program.psi
    visible = sum(1 for p in psi if p != rz.hidden_player)
    return COMPLEX_BYTES * max(q ** len(psi), q ** (2 * visible))


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str | None]] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.maxima: dict[str, float] = defaultdict(float)
        self.unmeasured: list[str] = []
        self.call_id: str | None = None

    def install(self):
        """Wrap every function in TRACED wherever the package binds it."""
        modules = [m for name, m in sys.modules.items() if name == "spanshare" or name.startswith("spanshare.")]
        for (module_name, attr), span_name in TRACED.items():
            original = getattr(sys.modules.get(f"spanshare.{module_name}"), attr, None)
            if original is None:
                self.unmeasured.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    def _wrap(self, name: str, fn):
        count = self._counter(name)
        memory = name in MEMORY_TRACED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(index)
            if memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.maxima["oracle.traced_peak_mb"] = max(self.maxima["oracle.traced_peak_mb"], peak / 2**20)
                self.stack.pop()
                self.spans[index] = (name, start, end, parent, self.call_id)
            count(args, result)
            return result

        return wrapper

    def _counter(self, name: str):
        """Counts computed from a traced call's arguments and result."""

        def none(args, result):
            pass

        def rank(args, result):
            self.counters["fields.rank_cells"] += args[0].rows * args[0].cols

        def build(args, result):
            matrix = result[0].matrix
            self.maxima["msp.rows_max"] = max(self.maxima["msp.rows_max"], matrix.rows)
            self.maxima["msp.cols_max"] = max(self.maxima["msp.cols_max"], matrix.cols)

        def monotonicity(args, result):
            n = args[0].n  # nested pairs A < B of the n players
            self.counters["entropy.pairs"] += 3**n - 2**n

        def encode(args, result):
            self.counters["oracle.amplitudes"] += result.amplitudes.shape[0]

        def oracle(args, result):
            self.maxima["oracle.dense_bytes_max"] = max(self.maxima["oracle.dense_bytes_max"], _dense_bytes(args[0]))

        return {
            "fields.rank": rank,
            "msp.build": build,
            "entropy.monotonicity": monotonicity,
            "oracle.encode": encode,
            "oracle.compare": oracle,
            "oracle.secrecy": oracle,
        }.get(name, none)

    def layer_metrics(self) -> dict:
        """Per-layer totals for everything traced in this worker.

        `<name>_s` is inclusive time, not counting a span nested in one
        of the same name; `<name>_calls` counts every span.
        """
        total: Counter = Counter()
        calls: Counter = Counter()
        child_time: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += end - start
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                total[name] += end - start
        unattributed = sum(
            end - start - child_time[i] for i, (name, start, end, _, _) in enumerate(self.spans) if name == "cli.main"
        )
        subsets = calls["entropy.subset"]
        return {
            "access.classify_s": total["access.classify"],
            "access.classify_calls": calls["access.classify"],
            "access.purify_s": total["access.purify"],
            "access.purify_calls": calls["access.purify"],
            "entropy.realize_s": total["entropy.realize"],
            "entropy.realize_calls": calls["entropy.realize"],
            "msp.build_s": total["msp.build"],
            "msp.build_calls": calls["msp.build"],
            "msp.rows_max": self.maxima["msp.rows_max"],
            "msp.cols_max": self.maxima["msp.cols_max"],
            "msp.to_text_s": total["msp.to_text"],
            "fields.rank_s": total["fields.rank"],
            "fields.rank_calls": calls["fields.rank"],
            "fields.rank_cells": self.counters["fields.rank_cells"],
            "entropy.subset_s": total["entropy.subset"] / subsets if subsets else 0.0,
            "entropy.subsets": subsets,
            "entropy.monotonicity_s": total["entropy.monotonicity"],
            "entropy.pairs": self.counters["entropy.pairs"],
            "entropy.extremal_s": total["entropy.extremal"],
            "entropy.chain_s": total["entropy.chain"],
            "oracle.encode_s": total["oracle.encode"],
            "oracle.amplitudes": self.counters["oracle.amplitudes"],
            "oracle.compare_s": total["oracle.compare"],
            "oracle.secrecy_s": total["oracle.secrecy"],
            "oracle.dense_bytes_max": self.maxima["oracle.dense_bytes_max"],
            "oracle.traced_peak_mb": self.maxima["oracle.traced_peak_mb"],
            "cli.main_s": total["cli.main"],
            "cli.unattributed_s": unattributed,
            "unmeasured": self.unmeasured,
        }

    def write_spans(self, path: Path):
        """One JSON line per span: name, start, end, parent index, call id."""
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters), "maxima": dict(self.maxima)}) + "\n")
