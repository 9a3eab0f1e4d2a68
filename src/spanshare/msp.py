"""Monotone span programs and their normal-form construction.

A program is a matrix M over F_q together with a labeling of rows by
players. It accepts a player set A when the target vector
(1, 0, ..., 0) lies in the row space of the rows labeled by A. The
normal form stacks, per minimal authorized set A_i of size r_i + 1, an
identity block I_{r_i} in a private column band and one closing row
carrying 1 in the secret column and -1 across the band. The identity
rows are labeled with the first r_i participants of A_i and the
closing row with the last, both in presentation order.
The matrix is laid out once per build, by `NormalFormLayout.array`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, product

import numpy as np

from .access import AccessStructure, Subset, _mask, from_minimal_sets, inside_counts
from .access import is_authorized, is_connected, is_realizable, subsets_in_order
from .fields import (
    FieldMatrix,
    PrimeField,
    Vector,
    kernel_basis,
    matrix_from_text,
    matrix_to_text,
    rank,
    rows_to_text,
    solve_combination,
)


@dataclass(frozen=True)
class MonotoneSpanProgram:
    field: PrimeField
    matrix: FieldMatrix
    psi: tuple[int, ...]  # row index (0-based) -> player (1-based)

    def __post_init__(self):
        if len(self.psi) != self.matrix.rows:
            raise ValueError("psi must label every matrix row")
        if self.matrix.cols < 1:
            raise ValueError("need at least the secret column")
        players = set(self.psi)
        if players != set(range(1, len(players) + 1)):
            raise ValueError("psi must be surjective onto 1..n")

    @property
    def n_players(self) -> int:
        return max(self.psi)

    @property
    def target(self) -> Vector:
        return (1,) + (0,) * (self.matrix.cols - 1)

    def rows_of(self, players) -> list[int]:
        wanted = set(players)
        return [i for i, p in enumerate(self.psi) if p in wanted]

    def submatrix(self, players) -> FieldMatrix:
        return self.matrix.submatrix(self.rows_of(players))


@dataclass(frozen=True)
class NormalFormLayout:
    """Block geometry of a normal-form matrix.

    d = sum |A_i| rows, e = c + 1 columns with c = sum (|A_i| - 1).
    Block i owns the half-open row range row_blocks[i] and the column
    band col_blocks[i] (absolute indices; column 0 is the secret).
    """

    minimal_set_order: tuple[Subset, ...]
    block_sizes: tuple[int, ...]  # r_i = |A_i| - 1
    row_blocks: tuple[tuple[int, int], ...]
    col_blocks: tuple[tuple[int, int], ...]

    @property
    def k(self) -> int:
        return len(self.minimal_set_order)

    @property
    def c(self) -> int:
        return sum(self.block_sizes)

    @property
    def d(self) -> int:
        return self.c + self.k

    @property
    def e(self) -> int:
        return self.c + 1

    @property
    def psi(self) -> tuple[int, ...]:
        return tuple(p for a_i in self.minimal_set_order for p in a_i)

    def array(self, q: int) -> np.ndarray:
        """The d x e matrix over F_q, in the smallest unsigned dtype holding q - 1.

        Band column j of block i (from 0) has its identity 1 in row j - 1 + i;
        block i's closing row has 1 in column 0 and q - 1 across the band.
        """
        PrimeField(q)  # rejects a q that is not prime
        m = np.zeros((self.d, self.e), dtype=np.min_scalar_type(q - 1))
        band = np.arange(1, self.e)
        blocks = np.repeat(np.arange(self.k), self.block_sizes)
        closing = np.array([hi - 1 for _, hi in self.row_blocks])
        m[band - 1 + blocks, band] = 1
        m[closing, 0] = 1
        m[closing[blocks], band] = q - 1
        return m

    @cached_property
    def rank_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(K, rank) for every player mask S (bit p - 1 for player p).

        K[S] counts the minimal sets A_i inside S, and rank[S] is
        rank(M_S) for the rows of S. Block i gives one row per member of
        A_i in S. The rows of a block wholly inside S sum to the secret
        column, so the K[S] full blocks are tied together through that
        one shared column and lose K[S] - 1 dimensions. The rows of a
        block missing a member enter no dependence: the identity rows
        are unit vectors, and the closing row, if present, has a band
        column (the missing member's) that no other row of S covers.
        Hence

            rank(M_S) = sum_i |A_i & S| - max(0, K(S) - 1),

        exact for the matrix that `build_normal_form` lays out this way.
        Both tables take O(n 2^n) numpy operations.
        """
        n = max(max(a_i) for a_i in self.minimal_set_order)
        counts = inside_counts(n, [_mask(a_i, n) for a_i in self.minimal_set_order])
        rows = np.zeros(1 << n, dtype=np.int64)
        for p, degree in Counter(p for a_i in self.minimal_set_order for p in a_i).items():
            rows.reshape(-1, 2, 1 << (p - 1))[:, 1] += degree
        return counts, rows - np.maximum(0, counts - 1)

    def block_of_row(self, row: int) -> int | None:
        for i, (lo, hi) in enumerate(self.row_blocks):
            if lo <= row < hi:
                return i
        return None


def normal_form_layout(g: AccessStructure) -> NormalFormLayout:
    """Block geometry of the normal form of `g`, without its matrix.

    Requires a connected, quantum-realizable structure. Minimal sets
    and their members are taken in the structure's presentation order,
    which pins the block layout and the row labeling.
    """
    if not is_realizable(g):
        raise ValueError("structure admits two disjoint authorized sets; not realizable")
    if not is_connected(g):
        raise ValueError("structure has a player outside every minimal set")
    order = g.presentation
    sizes = tuple(len(a) - 1 for a in order)
    rows = tuple(accumulate((len(a) for a in order), initial=0))
    cols = tuple(accumulate(sizes, initial=1))
    return NormalFormLayout(order, sizes, tuple(zip(rows, rows[1:])), tuple(zip(cols, cols[1:])))


def build_normal_form(
    g: AccessStructure, q: int = 2
) -> tuple[MonotoneSpanProgram, NormalFormLayout]:
    """Construct the normal-form program computing `g` over F_q.

    The matrix is `normal_form_layout(g).array(q)`, built once. It has
    full column rank by construction: the identity rows span every
    band column, and any closing row then adds the secret column.
    """
    layout = normal_form_layout(g)
    fq = PrimeField(q)
    return MonotoneSpanProgram(fq, FieldMatrix(fq, layout.array(q), layout.e), layout.psi), layout


def normal_form_text(g: AccessStructure, q: int = 2) -> str:
    """`msp_to_text(build_normal_form(g, q)[0])`, printed from the layout's array."""
    layout = normal_form_layout(g)
    matrix = rows_to_text(layout.array(q), q)
    return f"{layout.d} {layout.e} {q}\n{matrix}psi: " + " ".join(map(str, layout.psi)) + "\n"


@dataclass(frozen=True)
class AcceptanceResult:
    accepted: bool
    row_indices: tuple[int, ...]
    coefficients: Vector | None  # aligned with row_indices

    def __bool__(self) -> bool:
        return self.accepted


def accepts(msp: MonotoneSpanProgram, a) -> AcceptanceResult:
    """Test whether the rows of `a` span the target, with a witness.

    The witness coefficients substitute back to the target exactly;
    they are None for rejected sets.
    """
    idx = tuple(msp.rows_of(a))
    sub = msp.matrix.submatrix(idx)
    lam = solve_combination(sub, msp.target)
    return AcceptanceResult(lam is not None, idx, lam)


def rejection_witness(msp: MonotoneSpanProgram, b) -> Vector:
    """A vector v with M_b v = 0 and nonzero first coordinate.

    Such a v exists exactly when `b` is rejected; it certifies that no
    row combination of `b` reaches the target.
    """
    for v in kernel_basis(msp.submatrix(b)):
        if v[0] != 0:
            return v
    raise ValueError("set is accepted; no rejection witness exists")


def computes(msp: MonotoneSpanProgram, g: AccessStructure) -> bool:
    """True iff acceptance matches authorization for all 2^n subsets."""
    if msp.n_players != g.n:
        return False
    for subset in subsets_in_order(g.players):
        if bool(accepts(msp, subset)) != is_authorized(g, subset):
            return False
    return True


@dataclass(frozen=True)
class StructuralReport:
    authorized_rows_independent: bool
    rank_is_one_plus_row_count_of_blocks: bool
    per_player_rows_independent: bool
    columns_have_two_supports_in_one_block: bool

    def all_pass(self) -> bool:
        return (
            self.authorized_rows_independent
            and self.rank_is_one_plus_row_count_of_blocks
            and self.per_player_rows_independent
            and self.columns_have_two_supports_in_one_block
        )


def structural_check(msp: MonotoneSpanProgram, layout: NormalFormLayout) -> StructuralReport:
    """Verify the four structural facts a normal-form matrix satisfies.

    (1) the rows of every minimal authorized set's players are
    independent (a superset of players accumulates dependent rows, so
    minimality matters), (2) the rank is 1 + sum r_i, (3) each single
    player's rows are independent, and (4) every non-secret column is
    supported by exactly two rows, both inside one block.
    """
    auth_ok = True
    for a_i in layout.minimal_set_order:
        idx = msp.rows_of(a_i)
        if rank(msp.matrix.submatrix(idx)) != len(idx):
            auth_ok = False
            break
    rank_ok = rank(msp.matrix) == 1 + layout.c
    player_ok = all(
        rank(msp.submatrix([p])) == len(msp.rows_of([p]))
        for p in range(1, msp.n_players + 1)
    )
    col_ok = True
    for j in range(1, msp.matrix.cols):
        support = [i for i in range(msp.matrix.rows) if msp.matrix.entries[i][j] != 0]
        blocks = {layout.block_of_row(i) for i in support}
        if len(support) != 2 or len(blocks) != 1 or None in blocks:
            col_ok = False
            break
    return StructuralReport(auth_ok, rank_ok, player_ok, col_ok)


def _independent_within(msp: MonotoneSpanProgram, row: int, row_set: list[int]) -> bool:
    """True iff `row` is outside the span of the other rows in row_set."""
    others = [i for i in row_set if i != row]
    with_row = rank(msp.matrix.submatrix(others + [row]))
    without = rank(msp.matrix.submatrix(others))
    return with_row == without + 1


@dataclass(frozen=True)
class IndependenceCase:
    """How the pivot player's row in one block sits in two submatrices.

    For a partition A, {p}, B of the players with B authorized and a
    minimal set A_i containing p: if A_i avoids A entirely, the row is
    a consequence of the complement-of-A rows but adds rank to A u {p};
    if A_i straddles A, the row adds rank on both sides.
    """

    subset_a: Subset
    pivot_player: int
    minimal_set: Subset
    contained_in_complement: bool  # minimal set avoids A entirely
    row_index: int
    dependent_in_complement: bool
    independent_in_a_with_pivot: bool

    @property
    def consistent(self) -> bool:
        if self.contained_in_complement:
            return self.dependent_in_complement and self.independent_in_a_with_pivot
        return (not self.dependent_in_complement) and self.independent_in_a_with_pivot


def row_independence_case(
    msp: MonotoneSpanProgram,
    layout: NormalFormLayout,
    a,
    p: int,
    a_i,
) -> IndependenceCase:
    """Classify the pivot row of `p` in block `a_i` and check the pattern.

    Preconditions: p not in a, B = P minus a minus {p} is authorized by
    the layout's structure, and a_i is a minimal set containing p.
    """
    a = tuple(sorted(a))
    a_i = tuple(sorted(a_i))
    players = set(range(1, msp.n_players + 1))
    if p in a or not set(a) <= players:
        raise ValueError("pivot player must lie outside the subset")
    order = [tuple(sorted(s)) for s in layout.minimal_set_order]
    if a_i not in order:
        raise ValueError(f"{a_i} is not a minimal set of the program")
    if p not in a_i:
        raise ValueError("minimal set must contain the pivot player")
    g = from_minimal_sets(max(players), layout.minimal_set_order)
    b = tuple(sorted(players - set(a) - {p}))
    if not is_authorized(g, b):
        raise ValueError("remaining players must form an authorized set")

    block = order.index(a_i)
    lo, hi = layout.row_blocks[block]
    row = next(i for i in range(lo, hi) if msp.psi[i] == p)
    complement = players - set(a)  # includes p
    a_prime = set(a) | {p}
    dep = not _independent_within(msp, row, msp.rows_of(complement))
    indep = _independent_within(msp, row, msp.rows_of(a_prime))
    case = IndependenceCase(
        a, p, a_i, set(a_i) <= complement, row, dep, indep
    )
    if not case.consistent:
        raise RuntimeError(f"independence pattern violated for {case}")
    return case


@dataclass(frozen=True)
class RankBookkeeping:
    """Rank movement when the pivot player changes sides.

    pivot_sets_inside: minimal sets containing p that lie inside the complement of A.
    pivot_sets_straddling: minimal sets containing p that meet A.
    Adjoining p's rows to M_A raises the rank by the number of minimal
    sets containing p; removing them from the complement's rows lowers it only by
    the straddling count.
    """

    subset_a: Subset
    pivot_player: int
    authorized_remainder: Subset
    pivot_sets_inside: tuple[Subset, ...]
    pivot_sets_straddling: tuple[Subset, ...]
    rank_a: int
    rank_a_with_pivot: int
    rank_complement: int
    rank_remainder: int


def rank_bookkeeping(
    msp: MonotoneSpanProgram,
    layout: NormalFormLayout,
    g: AccessStructure,
    a,
    p: int,
) -> RankBookkeeping:
    """Account for the rank change of moving player p across the cut.

    Verifies rk(M_{A u p}) = rk(M_A) + |inside| + |straddling| and
    rk(M_B) = rk(M_complement) - |straddling| where B = P minus A minus p.
    """
    a = tuple(sorted(a))
    if p in a:
        raise ValueError("pivot player must lie outside the subset")
    players = set(g.players)
    b = tuple(sorted(players - set(a) - {p}))
    if not is_authorized(g, b):
        raise ValueError("remaining players must form an authorized set")
    complement = players - set(a)
    inside = tuple(s for s in g.minimal_sets if p in s and set(s) <= complement)
    straddling = tuple(s for s in g.minimal_sets if p in s and not set(s) <= complement)
    rank_a = rank(msp.submatrix(a))
    rank_ap = rank(msp.submatrix(set(a) | {p}))
    rank_comp = rank(msp.submatrix(complement))
    rank_b = rank(msp.submatrix(b))
    result = RankBookkeeping(
        a, p, b, inside, straddling, rank_a, rank_ap, rank_comp, rank_b
    )
    if rank_ap != rank_a + len(inside) + len(straddling):
        raise RuntimeError(f"rank gain identity violated: {result}")
    if rank_b != rank_comp - len(straddling):
        raise RuntimeError(f"rank loss identity violated: {result}")
    return result


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
    m = msp.matrix
    return CssForm(
        msp.field.q, m.column(0), tuple(m.column(j) for j in range(1, m.cols))
    )


def encoding_image(msp: MonotoneSpanProgram, s: int) -> frozenset[Vector]:
    """All codewords M u with the secret coordinate of u fixed to s.

    Direct enumeration over the q^(e-1) free coordinates; the
    independent route against which the coset form is checked.
    """
    q = msp.field.q
    e = msp.matrix.cols
    out = set()
    for rest in product(range(q), repeat=e - 1):
        out.add(msp.matrix.mul_vector((s % q,) + rest))
    return frozenset(out)


def dispensable_rows(msp: MonotoneSpanProgram, g: AccessStructure) -> list[int]:
    """Rows whose deletion leaves every owning minimal set accepted.

    Such a row aids reconstruction in none of the minimal sets its
    player belongs to, so the share coordinate could be discarded.
    Normal-form programs have none.
    """
    out = []
    for r in range(msp.matrix.rows):
        player = msp.psi[r]
        owning = [s for s in g.minimal_sets if player in s]
        if not owning:
            continue
        needed = False
        for s in owning:
            idx = [i for i in msp.rows_of(s) if i != r]
            if solve_combination(msp.matrix.submatrix(idx), msp.target) is None:
                needed = True
                break
        if not needed:
            out.append(r)
    return out


def msp_to_text(msp: MonotoneSpanProgram) -> str:
    """Matrix text plus a labeling line 'psi: 1 2 2 3 3 1'."""
    return matrix_to_text(msp.matrix) + "psi: " + " ".join(str(p) for p in msp.psi) + "\n"


def msp_from_text(text: str) -> MonotoneSpanProgram:
    lines = text.splitlines()
    psi_lines = [ln for ln in lines if ln.strip().startswith("psi:")]
    if len(psi_lines) != 1:
        raise ValueError("program text needs exactly one 'psi:' line")
    psi = tuple(int(x) for x in psi_lines[0].split(":", 1)[1].split())
    matrix = matrix_from_text("\n".join(ln for ln in lines if not ln.strip().startswith("psi:")))
    return MonotoneSpanProgram(matrix.field, matrix, psi)
