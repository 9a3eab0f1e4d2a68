"""Command-line front end.

Reads an access structure from JSON, dispatches to the engines, and
prints deterministic text, JSON or CSV reports. Exit status: 0 for
success with no violations, 1 for input errors (a one-line `error:` on
stderr), 2 when a verification command finds violations or an engine's
internal invariant check fails (a `RuntimeError`, also reported as a
one-line `error:`). `RecursionError` and `NotImplementedError` are
crashes, not verdicts, and propagate.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import chain
from pathlib import Path

from . import access, entropy, fields, msp as msp_mod, oracle
from .entropy import SecretSpec, format_subset


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # input errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_players(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    return tuple(int(x) for x in text.split(","))


def _parse_chain(text: str) -> list[tuple[int, ...]]:
    steps = [_parse_players(step) for step in text.split("|") if step.strip()]
    return [()] + steps


def _secret_spec(args) -> SecretSpec:
    """The given secret, checked; else the uniform one, which stores only q."""
    if args.secret is not None:
        return SecretSpec(args.q, tuple(float(x) for x in args.secret.split(",")))
    return SecretSpec.uniform(args.q)


def _sets_json(sets) -> str:
    return json.dumps([list(s) for s in sets], separators=(",", ":"))


# Each handler takes the parsed arguments, the structure, the secret and
# an `emit` callback, and returns the exit status. An emitted str is one
# output line; any other item is an iterable of text blocks that carry
# their own newlines, so large outputs are written without being joined.


def _classify(args, g, secret, emit) -> int:
    flags = access.classify(g)
    payload = {
        "self_dual": flags.self_dual,
        "quantum_realizable": flags.quantum_realizable,
        "connected": flags.connected,
    }
    if args.fmt == "json":
        emit(json.dumps(payload, sort_keys=True))
    else:
        emit(" ".join(f"{k}={str(v).lower()}" for k, v in payload.items()))
    return 0


def _dual(args, g, secret, emit) -> int:
    d = access.dual(g)
    if args.fmt == "json":
        emit(access.structure_to_json(d))
    else:
        emit(f"minimal sets {_sets_json(d.minimal_sets)}")
    return 0


def _purify(args, g, secret, emit) -> int:
    p = access.purify(g)
    if args.fmt == "json":
        emit(access.structure_to_json(p))
    else:
        emit(f"n={p.n} minimal sets {_sets_json(p.minimal_sets)}")
    return 0


def _msp(args, g, secret, emit) -> int:
    emit(msp_mod.msp_text_blocks(msp_mod.normal_form_layout(g).program(args.q)))
    return 0


def _entropy(args, g, secret, emit) -> int:
    report = entropy.subset_report(
        entropy.realize(g, args.q), secret, _parse_players(args.subset)
    )
    if args.fmt == "json":
        emit(
            json.dumps(
                {
                    "subset": list(report.subset),
                    "authorized": report.authorized,
                    "a": report.rank_subset,
                    "b": report.rank_complement,
                    "m": report.rank_total,
                    "entropy_bits": report.entropy_bits,
                },
                sort_keys=True,
            )
        )
    else:
        word = "authorized" if report.authorized else "unauthorized"
        emit(
            f"{report.entropy_bits:.6f} bits (a={report.rank_subset},"
            f"b={report.rank_complement},m={report.rank_total}, {word})"
        )
    return 0


def _profile(args, g, secret, emit) -> int:
    rz = entropy.realize(g, args.q)
    if args.all_chains:
        for chain in entropy.maximal_chains(g):
            profile = entropy.chain_profile(g, secret, chain, rz)
            order = ">".join(
                str((set(b) - set(a)).pop()) for a, b in zip(chain, chain[1:])
            )
            vals = ",".join(f"{v:.6f}" for v in profile.entropies)
            emit(f"chain {order} entropies {vals} crossover {profile.crossover}")
        return 0
    chain = _parse_chain(args.chain) if args.chain else entropy.greedy_chain(g)
    profile = entropy.chain_profile(g, secret, chain, rz)
    if args.fmt == "csv":
        emit(entropy.reports_to_csv(profile.reports).rstrip("\n"))
    elif args.fmt == "json":
        emit(
            json.dumps(
                {
                    "chain": [list(s) for s in profile.chain],
                    "entropies": list(profile.entropies),
                    "crossover": profile.crossover,
                },
                sort_keys=True,
            )
        )
    else:
        for step, r in zip(profile.chain, profile.reports):
            emit(f"{format_subset(step) or '(empty)'}: {r.entropy_bits:.6f} bits")
    return 0


def _tent(args, g, secret, emit) -> int:
    args.fmt, args.all_chains = "csv", False
    return _profile(args, g, secret, emit)


def _verify_theorem(args, g, secret, emit, rz=None, label="OK") -> int:
    violations = entropy.verify_monotonicity(g, secret, rz)
    if violations:
        for v in violations:
            emit(f"VIOLATION {v}")
        return 2
    emit(f"{label}: 0 violations over {2 ** g.n} subsets")
    return 0


def _verify_oracle(args, g, secret, emit) -> int:
    rz = entropy.realize(g, args.q)
    d = rz.layout.d
    if oracle.exceeds_cap(args.q, d, args.cap):
        print(
            f"warning: q^d = {args.q}^{d} exceeds cap {args.cap}; "
            "running the rank formula only",
            file=sys.stderr,
        )
        return _verify_theorem(args, g, secret, emit, rz, "OK (formula only)")
    mismatches, secrecy = oracle.verify_scheme(rz, secret, args.cap)
    if mismatches or not secrecy.ok():
        for m in mismatches:
            emit(
                f"MISMATCH {format_subset(m.subset) or '(empty)'}: "
                f"formula {m.formula_bits:.9f} oracle {m.oracle_bits:.9f}"
            )
        for s in secrecy.secrecy_violations:
            emit(f"SECRECY LEAK {s}")
        for r in secrecy.recoverability_violations:
            emit(f"RECOVERY FAILURE {r}")
        return 2
    total = 2**g.n
    emit(f"OK: {total}/{total} subsets match; secrecy OK; recoverability OK")
    return 0


def _css(args, g, secret, emit) -> int:
    program = msp_mod.normal_form_layout(g).program(args.q)
    columns = (*program.columns, program.shape[::-1])  # x_bar, then the generators
    emit(_css_json(columns) if args.fmt == "json" else _css_text(columns))
    return 0


def _css_text(columns):
    prefix = "xbar: "
    for text in fields.coords_to_text(*columns):
        yield prefix  # every newline but the slab's last starts a generator's line
        yield text.replace("\n", "\ngenerator: ", text.count("\n") - 1)
        prefix = "generator: "


def _css_json(columns):
    """`json.dumps({"x_bar": ..., "generators": [...]}, sort_keys=True)`, a slab
    of columns at a time: each column is a line of text with ", " between entries."""
    texts = fields.coords_to_text(*columns, ", ", "]\n")
    x_bar, _, first = next(texts).partition("\n")
    yield '{"generators": ['
    separator = ""
    for text in chain([first], texts):
        if text:
            yield separator + "[" + text[:-1].replace("\n", ", [")
            separator = ", "
    yield '], "x_bar": [' + x_bar + "}\n"


COMMANDS = {
    "classify": (_classify, "report self-duality, realizability and connectedness"),
    "dual": (_dual, "print the dual access structure"),
    "purify": (_purify, "print the one-extra-player self-dual extension"),
    "msp": (_msp, "dump the normal-form span matrix and row labeling"),
    "entropy": (_entropy, "entropy of one share subset by the rank formula"),
    "profile": (_profile, "entropy profile along subset chains"),
    "verify-theorem": (_verify_theorem, "exhaustive entropy monotonicity sweep"),
    "verify-oracle": (_verify_oracle, "simulate and compare against the rank formula"),
    "css": (_css, "print the coset form: secret vector and code generators"),
    "tent": (_tent, "CSV entropy profile along one maximal chain"),
}

@functools.cache
def _parser() -> _Parser:
    # Built on first use, once per process. The options every command
    # takes are shared through `parents`.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--structure", required=True, help="access structure JSON file")
    common.add_argument("--q", type=int, default=2, help="prime field size (default 2)")
    common.add_argument("--secret", help="comma-separated secret distribution")
    common.add_argument("--format", dest="fmt", choices=("json", "csv", "text"), default="text")
    common.add_argument("--cap", type=int, default=oracle.DEFAULT_CAP, help="oracle's largest q^d")
    common.add_argument("--out", help="write output to this path instead of stdout")
    parser = _Parser(prog="spanshare", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.set_defaults(handler=handler)
        if name == "entropy":
            p.add_argument("--set", dest="subset", required=True, help="players, e.g. 1,2")
        if name in ("profile", "tent"):
            p.add_argument("--chain", help="chain steps, e.g. '1|1,2|1,2,3'")
        if name == "profile":
            p.add_argument("--all-chains", action="store_true", dest="all_chains")
    return parser


def _write(out, items) -> None:
    for item in items:
        if isinstance(item, str):
            out.write(item)
            out.write("\n")
        else:
            for block in item:
                out.write(block)


def main(argv=None) -> int:
    """Run one command; returns the process exit status."""
    args = _parser().parse_args(argv)
    items: list = []
    try:
        g = access.structure_from_json(Path(args.structure).read_text())
        status = args.handler(args, g, _secret_spec(args), items.append)
        if args.out:
            with open(args.out, "w") as out:
                _write(out, items)
        else:
            _write(sys.stdout, items)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    except (RecursionError, NotImplementedError):  # crashes, not verdicts
        raise
    except RuntimeError as exc:  # an engine's invariant check failed
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
