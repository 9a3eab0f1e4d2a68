"""Monotone span programs and their normal-form construction.

A program is a matrix M over F_q together with a labeling of rows by
players. It accepts a player set A when the target vector
(1, 0, ..., 0) lies in the row space of the rows labeled by A. The
normal form stacks, per minimal authorized set A_i of size r_i + 1, an
identity block I_{r_i} in a private column band and one closing row
carrying 1 in the secret column and -1 across the band. The identity
rows are labeled with the first r_i participants of A_i and the
closing row with the last, both in presentation order. A layout holds
only that presentation and its structure, and derives its geometry.
A program holds its matrix as coordinate arrays of its nonzeros, 2c + k
of them in the normal form: `NormalFormLayout.program` lays them out,
and `codewords` and the printers read them. Exact elimination reads
`MonotoneSpanProgram.matrix`, a `FieldMatrix` whose one array is filled
from them on first read, int64 or Python ints as q requires;
`structural_check` takes column supports from the nonzeros themselves.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .access import AccessStructure, Subset
from .access import _mask, is_authorized, is_connected, is_realizable, subsets_in_order
from .fields import (
    FieldMatrix,
    PrimeField,
    Vector,
    coords_to_text,
    kernel_basis,
    matrix_from_text,
    rank,
    solve_combination,
)


@dataclass(frozen=True, eq=False)
class MonotoneSpanProgram:
    """A d x e matrix over F_q as its nonzeros, entry i being value[i] at
    (row[i], col[i]) in row-major order, with rows labeled by psi.
    Programs are equal when their fields, shapes, nonzeros and labels are."""

    field: PrimeField
    shape: tuple[int, int]
    row: np.ndarray
    col: np.ndarray
    value: np.ndarray
    psi: tuple[int, ...]  # row index (0-based) -> player (1-based)

    def __post_init__(self):
        d, e = self.shape
        if len(self.psi) != d:
            raise ValueError("psi must label every matrix row")
        if e < 1:
            raise ValueError("need at least the secret column")
        players = set(self.psi)
        if players != set(range(1, len(players) + 1)):
            raise ValueError("psi must be surjective onto 1..n")
        key, q = self.row * e + self.col, self.field.q
        cells = np.all((0 <= self.col) & (self.col < e) & (0 <= key) & (key < d * e))
        if not (cells and np.all(key[1:] > key[:-1]) and np.all((0 < self.value) & (self.value < q))):
            raise ValueError("nonzeros must be distinct entries in [1, q - 1], by row, then column")

    @classmethod
    def from_matrix(cls, matrix: FieldMatrix, psi) -> MonotoneSpanProgram:
        """The program of a dense matrix: its nonzeros, in row-major order."""
        row, col = matrix.array.nonzero()
        value = matrix.array[row, col].astype(_entry_dtype(matrix.field.q))
        return cls(matrix.field, matrix.array.shape, row, col, value, tuple(psi))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonotoneSpanProgram):
            return NotImplemented
        nonzeros = zip((self.row, self.col, self.value), (other.row, other.col, other.value))
        same = (self.field, self.shape, self.psi) == (other.field, other.shape, other.psi)
        return same and all(np.array_equal(a, b) for a, b in nonzeros)

    @cached_property
    def matrix(self) -> FieldMatrix:
        """The dense matrix, for exact elimination: built on first read."""
        dense = np.zeros(self.shape, self.field.dtype)
        dense[self.row, self.col] = self.value.tolist()  # Python ints, exact in an object array
        return FieldMatrix(self.field, dense)

    @property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzeros as (col, row, value) by column, then row: the transpose's."""
        order = self.col.argsort(kind="stable")  # rows already ascend within each column
        return self.col[order], self.row[order], self.value[order]

    @property
    def n_players(self) -> int:
        return max(self.psi)

    @property
    def target(self) -> Vector:
        return (1,) + (0,) * (self.shape[1] - 1)

    def rows_of(self, players) -> list[int]:
        """The rows labeled by `players`; a ValueError for a player outside 1..n."""
        held = _mask(players, self.n_players)
        return [i for i, p in enumerate(self.psi) if held >> (p - 1) & 1]

    def submatrix(self, players) -> FieldMatrix:
        return self.matrix.submatrix(self.rows_of(players))


@dataclass(frozen=True)
class NormalFormLayout:
    """Block geometry of a normal-form matrix: the presentation, which pins
    the matrix and is all equality compares, and the structure laid out,
    whose K table the cut table reads. The rest is derived on first use:
    block i owns the rows up to the i-th cumulative set size and
    r_i = |A_i| - 1 band columns, after column 0, the secret's;
    d = sum |A_i| rows and e = c + 1 columns, c = d - k.
    """

    minimal_set_order: tuple[Subset, ...]
    structure: AccessStructure = field(repr=False, compare=False)

    @property
    def k(self) -> int:
        return len(self.minimal_set_order)

    @cached_property
    def _row_ends(self) -> np.ndarray:
        """One past each block's last row, its closing row."""
        return np.cumsum(np.fromiter(map(len, self.minimal_set_order), np.int64, self.k))

    @cached_property
    def d(self) -> int:
        return int(self._row_ends[-1])

    @property
    def c(self) -> int:
        return self.d - self.k

    @property
    def e(self) -> int:
        return self.c + 1

    @cached_property
    def psi(self) -> tuple[int, ...]:
        return tuple(chain.from_iterable(self.minimal_set_order))

    def program(self, q: int) -> MonotoneSpanProgram:
        """The normal-form program over F_q, labeled by `psi`, from its 2c + k nonzeros.

        Band column j of block i (from 0) has its identity 1 in row j - 1 + i;
        block i's closing row has 1 in column 0 and q - 1 across the band.
        It has full column rank by construction: the identity rows span
        every band column, and any closing row then adds the secret column.
        """
        dtype = _entry_dtype(q)
        band = np.arange(1, self.e)
        blocks = np.arange(self.k).repeat(np.diff(self._row_ends, prepend=0) - 1)
        closing = self._row_ends - 1
        row = np.concatenate((band - 1 + blocks, closing, closing[blocks]))
        col = np.concatenate((band, np.zeros(self.k, band.dtype), band))
        value = np.array((1, 1, q - 1), dtype).repeat((self.c, self.k, self.c))
        order = row.argsort(kind="stable")  # a closing row's secret entry precedes its band
        nonzeros = row[order], col[order], value[order]
        return MonotoneSpanProgram(PrimeField(q), (self.d, self.e), *nonzeros, self.psi)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Rows per player: entry p counts the minimal sets holding player p (entry 0 is 0)."""
        return tuple(np.bincount(self.psi).tolist())

    @cached_property
    def cut_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(auth, cut) for every player mask S (bit p - 1 for player p), in O(n 2^n).

        With K[S] the number of minimal sets inside S, auth[S] is K[S] > 0 and
        cut[S] = k - K[S] - K[~S] counts the minimal sets meeting both S and its
        complement. `entropy` proves it is the rank excess of a self-dual structure.
        """
        counts = self.structure.inside_table
        # Reversing the table maps S to full ^ S, its complement.
        return self.structure.authorized_table, self.k - counts - counts[::-1]

    def block_of_row(self, row: int) -> int | None:
        """The block owning `row`, or None for a row outside the matrix."""
        if 0 <= row < self.d:
            return int(np.searchsorted(self._row_ends, row, side="right"))
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
    return NormalFormLayout(g.presentation, g)


def build_normal_form(
    g: AccessStructure, q: int = 2
) -> tuple[MonotoneSpanProgram, NormalFormLayout]:
    """Construct the normal-form program computing `g` over F_q, with its layout."""
    layout = normal_form_layout(g)
    return layout.program(q), layout


def _entry_dtype(q: int) -> np.dtype:
    """The smallest unsigned dtype holding q - 1; q must be a prime below 2^64."""
    PrimeField(q)
    if q > 2**64:
        raise ValueError(f"field size {q} does not fit the matrix's 64-bit entries")
    return np.min_scalar_type(q - 1)


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
    col, row, _ = msp.columns  # by column, then row: a band column's rows are adjacent
    counts = np.bincount(col, minlength=msp.shape[1])
    blocks = [layout.block_of_row(r) for r in row[col > 0].tolist()]
    col_ok = bool(np.all(counts[1:] == 2)) and None not in blocks and blocks[::2] == blocks[1::2]
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
    b = tuple(sorted(players - set(a) - {p}))
    if not is_authorized(layout.structure, b):
        raise ValueError("remaining players must form an authorized set")

    block = order.index(a_i)
    hi = int(layout._row_ends[block])
    row = next(i for i in range(hi - len(a_i), hi) if msp.psi[i] == p)
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
    x_bar, *generators = map(tuple, msp.matrix.array.T.tolist())
    return CssForm(msp.field.q, x_bar, tuple(generators))


def codewords(msp: MonotoneSpanProgram) -> np.ndarray:
    """Every codeword M u as its basis index sum(y_j * q^(d-j)), shape
    (q, q^(e-1)), row s holding those with u_0 = s, u enumerated big-endian.

    One pass over the q^e entries per nonzero of M: digit u_j is axis 1 of
    the (q^j, q, q^(e-1-j)) view, so no digit is stored, and the index and
    one row's y are the only q^e-entry arrays, whatever e is. A row with one
    nonzero adds its reduced digits to the index directly."""
    q, (d, e) = msp.field.q, msp.shape
    index = np.zeros(q**e, dtype=np.int64)
    y = np.empty_like(index)
    digits = np.arange(q, dtype=np.int64)[:, None]
    starts = msp.row.searchsorted(np.arange(d + 1)).tolist()
    cols, values = msp.col.tolist(), msp.value.tolist()
    for lo, hi in zip(starts, starts[1:]):
        index *= q
        # m * u_j mod q for u_j's q values, as a column that broadcasts along axis 1
        terms = [(j, m * digits % q) for j, m in zip(cols[lo:hi], values[lo:hi])]
        if len(terms) == 1:
            j, term = terms[0]
            view = index.reshape(q**j, q, -1)
            view += term
        elif terms:
            y.fill(0)
            for j, term in terms:
                view = y.reshape(q**j, q, -1)
                view += term
            y %= q
            index += y
    return index.reshape(q, q ** (e - 1))


def encoding_image(msp: MonotoneSpanProgram, s: int) -> frozenset[Vector]:
    """All codewords M u with u_0 = s, as a set view of `codewords`; the
    coset form is checked against it."""
    q, d = msp.field.q, msp.shape[0]
    digits = codewords(msp)[s % q][:, None] // q ** np.arange(d - 1, -1, -1) % q
    return frozenset(map(tuple, digits.tolist()))


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


def msp_text_blocks(msp: MonotoneSpanProgram) -> Iterator[str]:
    """The text of `msp_to_text` in blocks: the 'd e q' header, the matrix a
    slab of rows at a time, then the 'psi:' line."""
    (d, e), psi = msp.shape, " ".join(map(str, msp.psi))
    matrix = coords_to_text(msp.row, msp.col, msp.value, msp.shape)
    return chain([f"{d} {e} {msp.field.q}\n"], matrix, [f"psi: {psi}\n"])


def msp_to_text(msp: MonotoneSpanProgram) -> str:
    """Matrix text plus a labeling line 'psi: 1 2 2 3 3 1'."""
    return "".join(msp_text_blocks(msp))


def msp_from_text(text: str) -> MonotoneSpanProgram:
    lines = text.splitlines()
    psi_lines = [ln for ln in lines if ln.strip().startswith("psi:")]
    if len(psi_lines) != 1:
        raise ValueError("program text needs exactly one 'psi:' line")
    psi = tuple(int(x) for x in psi_lines[0].split(":", 1)[1].split())
    matrix = matrix_from_text("\n".join(ln for ln in lines if not ln.strip().startswith("psi:")))
    return MonotoneSpanProgram.from_matrix(matrix, psi)
