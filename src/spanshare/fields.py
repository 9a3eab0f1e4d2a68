"""Exact linear algebra over prime fields F_q.

Everything here works on plain Python integers reduced to canonical
representatives in [0, q-1], so ranks, solved coefficients and kernel
vectors are exact (no floating point anywhere). Elimination uses
first-nonzero pivoting, which makes every result deterministic. numpy
enters only as array input and in `rows_to_text`, the shared formatter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Vector = tuple[int, ...]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field F_q for a prime modulus q; -1 is stored as q-1."""

    q: int

    def __post_init__(self):
        if not is_prime(self.q):
            raise ValueError(f"field modulus must be prime, got {self.q}")

    def canon(self, x: int) -> int:
        return x % self.q


@dataclass(frozen=True)
class FieldMatrix:
    """Immutable d x e matrix with entries canonical in [0, q-1].

    `cols` must be given explicitly when there are no rows, since a
    0 x e matrix still has a well-defined kernel. `entries` may also be a
    2-D integer array, reduced mod q into tuple rows.
    """

    field: PrimeField
    entries: tuple[Vector, ...]
    cols: int = -1

    def __post_init__(self):
        q = self.field.q
        if isinstance(self.entries, np.ndarray):
            array = self.entries
            if array.ndim != 2 or 0 <= self.cols != array.shape[1]:
                raise ValueError("matrix array must be 2-D with the given column count")
            # Reduce 256 rows and list one row at a time: no full-size copy is ever held.
            rows = (r.tolist() for i in range(0, len(array), 256) for r in array[i : i + 256] % q)
            object.__setattr__(self, "cols", array.shape[1])
            object.__setattr__(self, "entries", tuple(map(tuple, rows)))
            return
        if self.cols < 0:
            if not self.entries:
                raise ValueError("column count required for a matrix with no rows")
            object.__setattr__(self, "cols", len(self.entries[0]))
        canon = []
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows in matrix")
            # C-level min/max keep a canonical tuple row without copying it.
            if type(row) is tuple and (not row or 0 <= min(row) and max(row) < q):
                canon.append(row)
            else:
                canon.append(tuple(x % q for x in row))
        object.__setattr__(self, "entries", tuple(canon))

    @property
    def rows(self) -> int:
        return len(self.entries)

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def submatrix(self, row_indices) -> "FieldMatrix":
        return FieldMatrix(self.field, tuple(self.entries[i] for i in row_indices), self.cols)

    def mul_vector(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        q = self.field.q
        return tuple(sum(a * b for a, b in zip(row, v)) % q for row in self.entries)


def _rref(rows: list[list[int]], q: int) -> tuple[list[list[int]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot columns)."""
    pivots: list[int] = []
    h = 0
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        if h == nrows:
            break
        pivot = next((r for r in range(h, nrows) if rows[r][col] % q != 0), None)
        if pivot is None:
            continue
        rows[h], rows[pivot] = rows[pivot], rows[h]
        inv = pow(rows[h][col], q - 2, q)
        rows[h] = [(x * inv) % q for x in rows[h]]
        for r in range(nrows):
            if r != h and rows[r][col] % q != 0:
                f = rows[r][col]
                rows[r] = [(a - f * b) % q for a, b in zip(rows[r], rows[h])]
        pivots.append(col)
        h += 1
    return rows, pivots


def rank(m: FieldMatrix) -> int:
    """Dimension of the row space, by exact Gaussian elimination."""
    _, pivots = _rref([list(r) for r in m.entries], m.field.q)
    return len(pivots)


def solve_combination(m: FieldMatrix, target: Vector) -> Vector | None:
    """Coefficients lam with sum(lam[j] * row_j) == target, or None.

    Free coefficients are set to zero, so the witness is deterministic.
    The returned coefficients always substitute back exactly.
    """
    if len(target) != m.cols:
        raise ValueError("target length does not match column count")
    q = m.field.q
    # Solve M^t lam = target as a linear system on the transpose.
    aug = [[m.entries[i][j] for i in range(m.rows)] + [target[j] % q] for j in range(m.cols)]
    if not aug:
        return (0,) * m.rows  # 0-column matrix: every combination hits the empty target
    reduced, pivots = _rref(aug, q)
    if m.rows in pivots:
        return None  # pivot in the augmented column: inconsistent
    lam = [0] * m.rows
    for i, col in enumerate(pivots):
        lam[col] = reduced[i][m.rows]
    return tuple(lam)


def kernel_basis(m: FieldMatrix) -> list[Vector]:
    """Canonical basis of {v : M v = 0}, one vector per free column."""
    q = m.field.q
    reduced, pivots = _rref([list(r) for r in m.entries], q)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [0] * m.cols
        v[free] = 1
        for i, col in enumerate(pivots):
            v[col] = (-reduced[i][free]) % q
        basis.append(tuple(v))
    return basis


def rows_to_text(array: np.ndarray, q: int) -> str:
    """Rows of a canonical 2-D array as lines of space-separated decimals.

    Each entry fills len(str(q - 1)) digit cells and a separator in one
    uint8 buffer, decoded once; leading zeros are masked out.
    """
    if not array.shape[1]:
        return "\n" * len(array)
    width = len(str(q - 1))
    cells = np.empty((*array.shape, width + 1), dtype=np.uint8)
    cells[:, :, width] = ord(" ")
    cells[:, -1, width] = ord("\n")
    for j in range(width):
        cells[:, :, j] = array // 10 ** (width - 1 - j) % 10 + ord("0")
    if width > 1:
        keep = np.ones(cells.shape, dtype=bool)
        for j in range(width - 1):
            keep[:, :, j] = array >= 10 ** (width - 1 - j)
        cells = cells[keep]
    return str(memoryview(cells), "ascii")


def matrix_to_text(m: FieldMatrix) -> str:
    """Serialize as 'd e q' header plus one line per row."""
    q = m.field.q
    array = np.array(m.entries, dtype=np.min_scalar_type(q - 1)).reshape(m.rows, m.cols)
    return f"{m.rows} {m.cols} {q}\n" + rows_to_text(array, q)


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
    rows = []
    for ln in lines[1:]:
        row = tuple(int(x) for x in ln.split())
        if len(row) != e:
            raise ValueError(f"expected {e} entries per row, got {len(row)}")
        rows.append(row)
    return FieldMatrix(PrimeField(q), tuple(rows), e)
