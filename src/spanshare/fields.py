"""Exact linear algebra over prime fields F_q.

A matrix is one read-only 2-D array of canonical representatives in
[0, q-1]. It is int64 while (q - 1)^2 + q < 2^63, so that every product
elimination forms fits; above that it is an object array of Python ints,
run through the same code. Ranks, solved coefficients and kernel vectors
are exact: no float dtype touches them. Elimination uses first-nonzero
pivoting, which makes every result deterministic. `coords_to_text` prints
a matrix from its nonzeros.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

Vector = tuple[int, ...]


# Miller-Rabin to these bases decides primality for every n below the limit
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; a ValueError from PRIMALITY_LIMIT up."""
    if n >= PRIMALITY_LIMIT:
        limit = f"{PRIMALITY_LIMIT:.2g}"
        raise ValueError(f"primality of {n} is undecided: the test is exact below {limit}")
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for a in _WITNESSES:
        x = pow(a, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field F_q for a prime modulus q; -1 is stored as q-1."""

    q: int

    def __post_init__(self):
        # A float modulus passes Miller-Rabin (3.0) or fails in pow() (2.5): only ints count.
        if type(self.q) is not int or not is_prime(self.q):
            raise ValueError(f"field modulus must be prime, got {self.q!r}")

    @property
    def dtype(self) -> np.dtype:
        """int64 while (q - 1)^2 + q < 2^63, so that elimination's products
        fit; above that, object arrays of Python ints, through the same code."""
        return np.dtype(np.int64 if (self.q - 1) ** 2 + self.q < 2**63 else object)


@dataclass(frozen=True, eq=False)
class FieldMatrix:
    """Immutable d x e matrix as one read-only array of entries canonical in
    [0, q-1], of the field's dtype. Given rows of integers, or an array of
    another dtype, it reduces them as Python ints, which is exact at any size.

    `cols` must be given explicitly when there are no rows, since a
    0 x e matrix still has a well-defined kernel. Matrices are equal when
    their fields and entries are.
    """

    field: PrimeField
    array: np.ndarray
    cols: int = -1

    def __post_init__(self):
        dtype, q, array = self.field.dtype, self.field.q, self.array
        if not (isinstance(array, np.ndarray) and array.dtype == dtype):
            array = np.array(array, object)
        if array.shape == (0,) and self.cols >= 0:
            array = array.reshape(0, self.cols)
        if array.ndim != 2 or self.cols not in (-1, array.shape[1]):
            raise ValueError("rows must share one length, cols if given; no rows need cols")
        if array.dtype == object:  # as Python ints, exact at any size: numpy scalars wrap
            reduce = np.frompyfunc(lambda x: operator.index(x) % q, 1, 1)
            array = reduce(array).astype(dtype, copy=False)
        else:
            array = array % q
        array.flags.writeable = False
        object.__setattr__(self, "array", array)
        object.__setattr__(self, "cols", array.shape[1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return self.field == other.field and np.array_equal(self.array, other.array)

    @property
    def entries(self) -> tuple[Vector, ...]:
        """The rows as tuples of Python ints."""
        return tuple(map(tuple, self.array.tolist()))

    @property
    def rows(self) -> int:
        return len(self.array)

    def submatrix(self, row_indices) -> "FieldMatrix":
        return FieldMatrix(self.field, self.array[list(row_indices)], self.cols)


def _rref(a: np.ndarray, q: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a copy of `a`; returns (rows, pivot columns).

    The pivot is the first row with a nonzero in the column, and one array
    update clears the column from every other row it hits. Rows from the
    pivot's down are zero left of its column, so the update starts there.
    """
    a = a.copy()
    pivots: list[int] = []
    nrows, ncols = a.shape
    for col in range(ncols):
        h = len(pivots)
        if h == nrows:
            break
        hits = a[h:, col].nonzero()[0]
        if not hits.size:
            continue
        if hits[0]:
            a[[h, h + hits[0]]] = a[[h + hits[0], h]]
        a[h, col:] = a[h, col:] * pow(int(a[h, col]), q - 2, q) % q
        hit = a[:, col].nonzero()[0]
        hit = hit[hit != h]
        a[hit, col:] = (a[hit, col:] - a[hit, col, None] * a[h, col:]) % q
        pivots.append(col)
    return a, pivots


def rank(m: FieldMatrix) -> int:
    """Dimension of the row space, by exact Gaussian elimination."""
    return len(_rref(m.array, m.field.q)[1])


def solve_combination(m: FieldMatrix, target: Vector) -> Vector | None:
    """Coefficients lam with sum(lam[j] * row_j) == target, or None.

    Free coefficients are set to zero, so the witness is deterministic.
    The returned coefficients always substitute back exactly.
    """
    if len(target) != m.cols:
        raise ValueError("target length does not match column count")
    q = m.field.q
    # Solve M^t lam = target as a linear system on the transpose.
    column = np.array([x % q for x in target], m.field.dtype)
    reduced, pivots = _rref(np.column_stack((m.array.T, column)), q)
    if m.rows in pivots:
        return None  # pivot in the augmented column: inconsistent
    lam = np.zeros(m.rows, m.field.dtype)
    lam[pivots] = reduced[: len(pivots), m.rows]
    return tuple(lam.tolist())


def kernel_basis(m: FieldMatrix) -> list[Vector]:
    """Canonical basis of {v : M v = 0}, one vector per free column."""
    reduced, pivots = _rref(m.array, m.field.q)
    free = np.delete(np.arange(m.cols), pivots)
    basis = np.zeros((len(free), m.cols), m.field.dtype)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-reduced[: len(pivots), free]).T % m.field.q
    return list(map(tuple, basis.tolist()))


# Cells in one printed slab: it bounds the slab's buffer and text.
_SLAB_CELLS = 1 << 19


def coords_to_text(
    row: np.ndarray, col: np.ndarray, value: np.ndarray, shape, sep: str = " ", end: str = "\n"
) -> Iterator[str]:
    """The d x e matrix with these nonzeros, canonical and sorted by row, then
    column, as lines of decimals, `sep` after each entry but a row's last,
    which `end` (as long as `sep`) follows; a slab of rows at a time.

    Each entry and its separator are one cell of a reused byte buffer of
    `'0' + sep` cells. A slab's nonzeros are poked in as digits, and reset
    to '0' once its text is taken. A longer entry leaves a NUL in its cell;
    the text is split at the NULs and joined with those entries' decimals.
    A normal-form matrix has one such value, q - 1, once per band column.
    """
    rows, cols = shape
    step = max(1, _SLAB_CELLS // cols)
    line = np.frombuffer(("0" + sep).encode("ascii") * cols, np.uint8)
    cells = np.tile(line, min(step, rows)).reshape(-1, cols, 1 + len(sep))
    cells[:, -1, 1:] = np.frombuffer(end.encode("ascii"), np.uint8)
    digits = cells[..., 0]
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        first, last = row.searchsorted((lo, hi))
        r, c, v = row[first:last] - lo, col[first:last], value[first:last]
        wide = v >= 10
        digits[r, c] = np.where(wide, 0, v + ord("0"))  # v + ord("0") may wrap where wide
        text = str(memoryview(cells[: hi - lo]), "ascii")
        if wide.any():  # one part more than wide entries, each ended by a NUL
            parts = text.split("\0")
            parts[:-1] = map(str.__add__, parts, map(str, v[wide].tolist()))
            text = "".join(parts)
        yield text
        digits[r, c] = ord("0")


def matrix_from_text(text: str) -> FieldMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    try:
        d, e, q = (int(x) for x in lines[0].split())
    except Exception as exc:
        raise ValueError(f"bad matrix header {lines[0]!r}") from exc
    if len(lines) != d + 1:
        raise ValueError(f"expected {d} matrix rows, found {len(lines) - 1}")
    return FieldMatrix(PrimeField(q), [[int(x) for x in ln.split()] for ln in lines[1:]], e)
