"""Dense reference for the codeword oracle and the coset form.

Each secret's encoding is built as a q^d amplitude vector, reduced by
matrix products and diagonalized: the route the library's oracle
replaced by counting codewords in blocks. The coset form s * x_bar + C
is spanned as Python sets from the matrix columns. The tests hold the
oracle's sweep and `codewords` to both.

Basis convention: a codeword (y_1, ..., y_d) maps to the amplitude
index sum(y_j * q^(d-j)), i.e. big-endian with coordinate 1 most
significant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from spanshare.fields import Vector
from spanshare.msp import MonotoneSpanProgram, NormalFormLayout, codewords
from spanshare.oracle import DEFAULT_CAP, _encode

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
    q, d = msp.field.q, msp.shape[0]
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


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    return float(0.5 * np.abs(np.linalg.eigvalsh(rho - sigma)).sum())


@dataclass(frozen=True)
class CssForm:
    """Coset description of the encoding: secret column plus code span.

    x_bar is the secret column of M read along the d coordinates; the
    generators are the remaining columns, spanning the code C. The
    encoding of s is the uniform superposition over s * x_bar + C.
    """

    q: int
    x_bar: Vector
    generators: tuple[Vector, ...]

    def code(self) -> frozenset[Vector]:
        span = {(0,) * len(self.x_bar)}
        for gen in self.generators:
            span = {
                tuple((x + t * y) % self.q for x, y in zip(v, gen))
                for v in span
                for t in range(self.q)
            }
        return frozenset(span)

    def coset(self, s: int) -> frozenset[Vector]:
        return frozenset(
            tuple((s * x + c) % self.q for x, c in zip(self.x_bar, cw)) for cw in self.code()
        )


def to_css(msp: MonotoneSpanProgram, layout: NormalFormLayout) -> CssForm:
    """Read the coset form off the columns of a normal-form matrix."""
    x_bar, *generators = map(tuple, msp.matrix.array.T.tolist())
    return CssForm(msp.field.q, x_bar, tuple(generators))


def encoding_image(msp: MonotoneSpanProgram, s: int) -> frozenset[Vector]:
    """All codewords M u with u_0 = s, as a set view of `codewords`; the
    coset form is checked against it."""
    q, d = msp.field.q, msp.shape[0]
    digits = codewords(msp)[s % q][:, None] // q ** np.arange(d - 1, -1, -1) % q
    return frozenset(map(tuple, digits.tolist()))
