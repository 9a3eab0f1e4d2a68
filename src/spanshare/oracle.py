"""Codeword oracle for the span-program schemes.

The encoding map sends a basis secret s to the uniform superposition
over its N = q^(e-1) codewords M u with secret coordinate s. The sweep
never builds that q^d state vector: it holds the q^e codewords as basis
indices, and grouping them by their digits on a subset's coordinates
and on the rest gives per-secret 0/1 blocks V_s with
rho_s = V_s V_s^T / N, each array at most q^(d+1) entries and each
spectrum taken on the smaller side. Secrecy is
decided by the trace distance between the per-secret reductions and
recoverability by their overlap Tr(rho_s rho_t), which for positive
operators is zero exactly when their supports are orthogonal. It
shares no code path with the rank formula, so agreement between the
two is evidence, not tautology. `encode_secret`, `reduced_entropy` and
`dump_state` are the dense reference the tests hold the sweep to.

Basis convention: a codeword (y_1, ..., y_d) maps to the amplitude
index sum(y_j * q^(d-j)), i.e. big-endian with coordinate 1 most
significant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .access import is_authorized, subsets_in_order
from .entropy import SchemeRealization, SecretSpec, subset_report
from .msp import MonotoneSpanProgram, codewords

DEFAULT_CAP = 2**22  # maximum q^d, the basis strings of the d codeword digits

EIG_CLIP = 1e-12  # eigenvalues below this count as zero in entropies

FORMULA_TOLERANCE = 1e-6  # bits by which the simulation may differ from the formula


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over (F_q)^d basis strings."""

    q: int
    num_coords: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.amplitudes.shape != (self.q**self.num_coords,):
            raise ValueError("amplitude vector has the wrong length")
        norm = float(np.linalg.norm(self.amplitudes))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state is not normalized (norm {norm})")
        self.amplitudes.setflags(write=False)


def exceeds_cap(q: int, d: int, cap: int) -> bool:
    """True when the q^d basis strings are over the cap."""
    return q**d > cap


def basis_index(codeword, q: int) -> int:
    idx = 0
    for y in codeword:
        idx = idx * q + (y % q)
    return idx


def basis_string(index: int, q: int, d: int) -> str:
    digits = []
    for _ in range(d):
        index, digit = divmod(index, q)
        digits.append(str(digit))
    return "".join(reversed(digits))


def encode_secret(msp: MonotoneSpanProgram, s: int, cap: int = DEFAULT_CAP) -> PureState:
    """Equal superposition over the q^(e-1) codewords with secret s."""
    q, d = msp.field.q, msp.matrix.rows
    index = _encode(msp, cap)[s % q]
    amplitudes = np.zeros(q**d, dtype=complex)
    amplitudes[index] = 1.0 / math.sqrt(len(index))
    return PureState(q, d, amplitudes)


def dump_state(state: PureState) -> str:
    """One 'basis-string re im' line per nonzero amplitude, sorted."""
    lines = []
    for idx in range(state.amplitudes.shape[0]):
        amp = state.amplitudes[idx]
        if abs(amp) <= 1e-15:
            continue
        lines.append(
            f"{basis_string(idx, state.q, state.num_coords)} {amp.real:.12g} {amp.imag:.12g}"
        )
    return "\n".join(lines) + "\n"


def _reduce_pure(state: PureState, coords: tuple[int, ...]) -> np.ndarray:
    """Reduced density matrix of a pure state on the given coordinates."""
    q, d = state.q, state.num_coords
    if not coords:
        return np.ones((1, 1), dtype=complex)
    kept = [c - 1 for c in coords]
    rest = [i for i in range(d) if i not in set(kept)]
    tensor = state.amplitudes.reshape([q] * d).transpose(kept + rest)
    mat = tensor.reshape(q ** len(kept), q ** len(rest))
    return mat @ mat.conj().T


def entropy_bits_of(matrix: np.ndarray) -> float:
    eigs = np.linalg.eigvalsh(matrix)
    eigs = eigs[eigs > EIG_CLIP]
    return float(-(eigs * np.log2(eigs)).sum())


def reduced_entropy(state: PureState, coords) -> float:
    """Entropy in bits of the reduction onto the given coordinates."""
    return entropy_bits_of(_reduce_pure(state, tuple(sorted(coords))))


def _encode(msp: MonotoneSpanProgram, cap: int) -> np.ndarray:
    """`codewords`, checked: within the cap, no collision, disjoint cosets."""
    q, d = msp.field.q, msp.matrix.rows
    if exceeds_cap(q, d, cap):
        raise ValueError(f"state of q^d = {q}^{d} amplitudes exceeds the cap {cap}")
    index = codewords(msp)
    ordered = np.sort(index, axis=1)
    if (ordered[:, 1:] == ordered[:, :-1]).any():
        raise ValueError("encoding collides; the program is not in normal form")
    flat = np.sort(ordered, axis=None)  # np.unique would import numpy.ma on first use
    if (flat[1:] == flat[:-1]).any():
        raise RuntimeError("secret cosets overlap; encodings are not orthogonal")
    return index


def _reduce(index: np.ndarray, kept, d: int) -> list[np.ndarray]:
    """Per-secret reductions onto the coordinates `kept` (0-based).

    `index` holds each secret's codewords as basis indices. V has a 1 per
    codeword, in the row of its digits on `kept` and the column of (its
    secret, its other digits); rho_s = V_s V_s^T / N for secret s's
    columns V_s. With more rows than columns, V = QR and
    R_s R_t^T = Q^T V_s V_t^T Q keeps spectra, overlaps and trace
    distances. Keys have q^e entries and V at most q^(d+1).
    """
    q, size = index.shape
    on_kept = np.zeros_like(index)
    for place in q ** (d - 1 - np.asarray(kept, dtype=np.int64)):
        on_kept += index // place % q * place
    rows, a = np.unique(on_kept.ravel(), return_inverse=True)
    # Keyed secret first, so each secret's columns are one contiguous block.
    off_kept = index - on_kept + np.arange(q)[:, None] * q**d
    cols, r = np.unique(off_kept.ravel(), return_inverse=True)
    v = np.zeros((len(rows), len(cols)))
    v[a, r] = 1.0
    if len(rows) > len(cols):
        v = np.linalg.qr(v, mode="r")
    blocks = np.split(v, np.searchsorted(cols // q**d, np.arange(1, q)), axis=1)
    return [b @ b.T / size for b in blocks]


def _sweep(rz: SchemeRealization, secret: SecretSpec, cap: int, subsets=None):
    """Encode now; then lazily yield (subset, per-secret reductions), by default for all.

    A player holds the coordinates of its rows (coordinate = row + 1).
    For purified realizations the hidden share is never in a subset, so
    its coordinates are always traced out.
    """
    if secret.q != rz.q:
        raise ValueError("secret field does not match the program field")
    index, d = _encode(rz.program, cap), rz.program.matrix.rows
    subsets = subsets_in_order(rz.structure.players) if subsets is None else subsets
    return ((a, _reduce(index, rz.program.rows_of(a), d)) for a in subsets)


def _mixture_entropy(reductions, secret: SecretSpec) -> float:
    """Entropy of the secret-weighted mixture of per-secret reductions."""
    rho = sum(p_s * red for p_s, red in zip(secret.distribution, reductions) if p_s > 0)
    return entropy_bits_of(rho)


def oracle_subset_entropy(
    rz: SchemeRealization, secret: SecretSpec, a, cap: int = DEFAULT_CAP
) -> float:
    """Entropy in bits of the shares of `a` under the scheme density."""
    a = tuple(sorted(set(a)))
    if not set(a) <= set(rz.structure.players):
        raise ValueError(f"subset {a} contains unknown players")
    ((_, reductions),) = _sweep(rz, secret, cap, [a])
    return _mixture_entropy(reductions, secret)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    return float(0.5 * np.abs(np.linalg.eigvalsh(rho - sigma)).sum())


@dataclass(frozen=True)
class SecrecyReport:
    """Outcome of the perfect secrecy / perfect recoverability sweep.

    Secrecy: every unauthorized reduction is the same state for every
    secret value; a violation is (subset, s, t, trace distance).
    Recoverability: authorized reductions of distinct secrets have zero
    overlap Tr(rho_s rho_t), i.e. orthogonal supports; a violation is
    (subset, s, t, overlap). Only classical (basis-diagonal) secret
    ensembles are swept; coherent secret states are outside this
    oracle's remit.
    """

    subsets_checked: int
    secrecy_violations: tuple
    recoverability_violations: tuple

    def ok(self) -> bool:
        return not self.secrecy_violations and not self.recoverability_violations


def _secrecy_report(rz: SchemeRealization, secret: SecretSpec, sweep) -> SecrecyReport:
    if any(p <= 0 for p in secret.distribution):
        raise ValueError("secrecy sweep needs a full-support secret distribution")
    found: dict[bool, list] = {False: [], True: []}  # authorized -> violations
    checked = 0
    for subset, reductions in sweep:
        checked += 1
        authorized = is_authorized(rz.structure, subset)
        for s, t in combinations(range(rz.q), 2):
            rho, sigma = reductions[s], reductions[t]
            # Overlap Tr(rho sigma) on authorized sets, trace distance on the others.
            x = float(np.vdot(sigma, rho).real) if authorized else trace_distance(rho, sigma)
            if x >= 1e-9:
                found[authorized].append((subset, s, t, x))
    return SecrecyReport(checked, tuple(found[False]), tuple(found[True]))


def verify_secrecy_recoverability(
    rz: SchemeRealization, secret: SecretSpec, cap: int = DEFAULT_CAP
) -> SecrecyReport:
    """Sweep every subset of the original players for both guarantees."""
    return _secrecy_report(rz, secret, _sweep(rz, secret, cap))


@dataclass(frozen=True)
class FormulaDiscrepancy:
    subset: tuple[int, ...]
    formula_bits: float
    oracle_bits: float


def _mismatches(rz, secret, sweep, tolerance, into: list):
    """Pass the sweep through, appending each formula disagreement to `into`."""
    for subset, reductions in sweep:
        formula = subset_report(rz, secret, subset).entropy_bits
        simulated = _mixture_entropy(reductions, secret)
        if abs(formula - simulated) > tolerance:
            into.append(FormulaDiscrepancy(subset, formula, simulated))
        yield subset, reductions


def compare_with_formula(
    rz: SchemeRealization,
    secret: SecretSpec,
    cap: int = DEFAULT_CAP,
    tolerance: float = FORMULA_TOLERANCE,
) -> list[FormulaDiscrepancy]:
    """Check the rank formula against the simulation on every subset."""
    out: list[FormulaDiscrepancy] = []
    for _ in _mismatches(rz, secret, _sweep(rz, secret, cap), tolerance, out):
        pass
    return out


def verify_scheme(
    rz: SchemeRealization, secret: SecretSpec, cap: int = DEFAULT_CAP
) -> tuple[list[FormulaDiscrepancy], SecrecyReport]:
    """`compare_with_formula` and `verify_secrecy_recoverability` from one
    sweep: one encoding, one reduction per subset. A cap or encoding
    error comes before the full-support error."""
    mismatches: list[FormulaDiscrepancy] = []
    sweep = _mismatches(rz, secret, _sweep(rz, secret, cap), FORMULA_TOLERANCE, mismatches)
    return mismatches, _secrecy_report(rz, secret, sweep)
