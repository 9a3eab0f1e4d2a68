"""Exact linear algebra over prime fields F_q.

Everything here works on plain Python integers reduced to canonical
representatives in [0, q-1], so ranks, solved coefficients and kernel
vectors are exact (no floating point anywhere). Elimination uses
first-nonzero pivoting, which makes every result deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def inv(self, x: int) -> int:
        if x % self.q == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(x, self.q - 2, self.q)


@dataclass(frozen=True)
class FieldMatrix:
    """Immutable d x e matrix with entries canonical in [0, q-1].

    `cols` must be given explicitly when there are no rows, since a
    0 x e matrix still has a well-defined kernel.
    """

    field: PrimeField
    entries: tuple[Vector, ...]
    cols: int = -1

    def __post_init__(self):
        q = self.field.q
        if self.cols < 0:
            if not self.entries:
                raise ValueError("column count required for a matrix with no rows")
            object.__setattr__(self, "cols", len(self.entries[0]))
        canon = []
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows in matrix")
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


def matrix_to_text(m: FieldMatrix) -> str:
    """Serialize as 'd e q' header plus one line per row."""
    lines = [f"{m.rows} {m.cols} {m.field.q}"]
    lines.extend(" ".join(str(x) for x in row) for row in m.entries)
    return "\n".join(lines) + "\n"


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
