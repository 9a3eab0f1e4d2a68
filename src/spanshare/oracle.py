"""Dense state-vector oracle for the span-program schemes.

The encoding map sends a basis secret s to the uniform superposition
over the codewords M u whose secret coordinate is s. This module
builds those states explicitly, reduces them onto share coordinates,
and measures von Neumann entropies by eigendecomposition. Secrecy is
decided by the trace distance between the per-secret reductions and
recoverability by their overlap Tr(rho_s rho_t), which for positive
operators is zero exactly when their supports are orthogonal. It
shares no code path with the rank formula, so agreement between the
two is evidence, not tautology.

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
from .msp import MonotoneSpanProgram, encoding_image

DEFAULT_CAP = 2**22  # maximum number of amplitudes in a state vector

EIG_CLIP = 1e-12  # eigenvalues below this count as zero in entropies


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


@dataclass(frozen=True)
class ShareLayout:
    """Which codeword coordinates (1-based) each player holds."""

    coords: dict[int, tuple[int, ...]]

    def __post_init__(self):
        seen: set[int] = set()
        for player, cs in self.coords.items():
            if not cs:
                raise ValueError(f"player {player} holds no coordinates")
            if seen & set(cs):
                raise ValueError("coordinate assigned to two players")
            seen |= set(cs)
        if seen != set(range(1, len(seen) + 1)):
            raise ValueError("coordinates must partition 1..d")

    def of(self, players) -> tuple[int, ...]:
        out: list[int] = []
        for p in players:
            out.extend(self.coords[p])
        return tuple(sorted(out))


def share_layout(msp: MonotoneSpanProgram) -> ShareLayout:
    coords: dict[int, list[int]] = {}
    for i, player in enumerate(msp.psi):
        coords.setdefault(player, []).append(i + 1)
    return ShareLayout({p: tuple(sorted(cs)) for p, cs in coords.items()})


def exceeds_cap(q: int, d: int, cap: int) -> bool:
    """True when a state vector of q^d amplitudes is over the cap."""
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
    q = msp.field.q
    d, e = msp.matrix.rows, msp.matrix.cols
    if exceeds_cap(q, d, cap):
        raise ValueError(f"state of q^d = {q}^{d} amplitudes exceeds the cap {cap}")
    indices = sorted(basis_index(cw, q) for cw in encoding_image(msp, s))
    if len(indices) != q ** (e - 1):
        raise ValueError("encoding collides; the program is not in normal form")
    amplitudes = np.zeros(q**d, dtype=complex)
    amplitudes[indices] = 1.0 / math.sqrt(len(indices))
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


def _encoded_states(rz: SchemeRealization, cap: int) -> list[PureState]:
    states = [encode_secret(rz.program, s, cap) for s in range(rz.q)]
    supports = [set(np.nonzero(st.amplitudes)[0].tolist()) for st in states]
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            if supports[i] & supports[j]:
                raise RuntimeError("secret cosets overlap; encodings are not orthogonal")
    return states


def _sweep(rz: SchemeRealization, secret: SecretSpec, cap: int, subsets=None):
    """Yield (subset, per-secret reductions) for each subset, by default all.

    The q encoded states and the share layout are built once per sweep.
    For purified realizations the hidden share is never in a subset, so
    its coordinates are always traced out.
    """
    if secret.q != rz.q:
        raise ValueError("secret field does not match the program field")
    states = _encoded_states(rz, cap)
    layout = share_layout(rz.program)
    for subset in subsets_in_order(rz.structure.players) if subsets is None else subsets:
        coords = layout.of(subset)
        yield subset, [_reduce_pure(st, coords) for st in states]


def _mixture_entropy(reductions, secret: SecretSpec) -> float:
    """Entropy of the secret-weighted mixture of per-secret reductions."""
    rho = sum(p_s * red for p_s, red in zip(secret.distribution, reductions) if p_s > 0)
    return entropy_bits_of(rho)


def oracle_subset_entropy(
    rz: SchemeRealization, secret: SecretSpec, a, cap: int = DEFAULT_CAP
) -> float:
    """Entropy in bits of the shares of `a` under the scheme density.

    Computed from per-secret pure-state reductions, which is the same
    operator as reducing the full mixture but never materializes it.
    """
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


def verify_secrecy_recoverability(
    rz: SchemeRealization, secret: SecretSpec, cap: int = DEFAULT_CAP
) -> SecrecyReport:
    """Sweep every subset of the original players for both guarantees."""
    if any(p <= 0 for p in secret.distribution):
        raise ValueError("secrecy sweep needs a full-support secret distribution")
    secrecy = []
    recoverability = []
    checked = 0
    for subset, reductions in _sweep(rz, secret, cap):
        checked += 1
        authorized = is_authorized(rz.structure, subset)
        for s, t in combinations(range(rz.q), 2):
            if authorized:
                overlap = float(np.vdot(reductions[t], reductions[s]).real)
                if overlap >= 1e-9:
                    recoverability.append((subset, s, t, overlap))
            else:
                td = trace_distance(reductions[s], reductions[t])
                if td >= 1e-9:
                    secrecy.append((subset, s, t, td))
    return SecrecyReport(checked, tuple(secrecy), tuple(recoverability))


@dataclass(frozen=True)
class FormulaDiscrepancy:
    subset: tuple[int, ...]
    formula_bits: float
    oracle_bits: float

    @property
    def delta(self) -> float:
        return abs(self.formula_bits - self.oracle_bits)


def compare_with_formula(
    rz: SchemeRealization,
    secret: SecretSpec,
    cap: int = DEFAULT_CAP,
    tolerance: float = 1e-6,
) -> list[FormulaDiscrepancy]:
    """Check the rank formula against the simulation on every subset."""
    out = []
    for subset, reductions in _sweep(rz, secret, cap):
        formula = subset_report(rz, secret, subset).entropy_bits
        simulated = _mixture_entropy(reductions, secret)
        if abs(formula - simulated) > tolerance:
            out.append(FormulaDiscrepancy(subset, formula, simulated))
    return out
