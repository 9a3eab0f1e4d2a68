"""Normal-form span programs: construction, acceptance, rank accounting."""

import dataclasses
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from spanshare import fields
from spanshare.access import enumerate_structures, from_minimal_sets, is_authorized
from spanshare.entropy import realize
from spanshare.fields import FieldMatrix, PrimeField, rank
from spanshare.msp import (
    MonotoneSpanProgram,
    accepts,
    build_normal_form,
    codewords,
    computes,
    dispensable_rows,
    encoding_image,
    msp_from_text,
    msp_text_blocks,
    msp_to_text,
    normal_form_layout,
    rank_bookkeeping,
    rejection_witness,
    row_independence_case,
    structural_check,
    to_css,
)

from conftest import all_subsets, brute_solve

REFERENCE_MATRIX = (
    (0, 1, 0, 0),
    (1, 1, 0, 0),
    (0, 0, 1, 0),
    (1, 0, 1, 0),
    (0, 0, 0, 1),
    (1, 0, 0, 1),
)


@pytest.fixture(scope="module")
def tri_program(triangle):
    return build_normal_form(triangle, 2)


def test_triangle_normal_form_matches_reference(tri_program):
    program, layout = tri_program
    assert program.matrix.entries == REFERENCE_MATRIX
    # Labeling per the definitional rule: identity rows go to the first
    # participants of each block, the closing row to the last. A
    # well-known worked example of this construction instead lists the
    # third row under player 1; that contradicts the rule (row 3 is the
    # identity row of the {2,3} block), so player 2 is correct here.
    assert program.psi == (1, 2, 2, 3, 3, 1)
    assert layout.k == 3 and layout.c == 3 and layout.d == 6 and layout.e == 4


def test_trivial_single_player_program():
    g = from_minimal_sets(1, [[1]])
    program, layout = build_normal_form(g, 2)
    assert program.matrix.entries == ((1,),)
    assert program.psi == (1,)
    assert layout.c == 0 and layout.k == 1


def test_normal_form_respects_presentation_member_order(triangle):
    # The {3,1} block labels its identity row with 3 and its closing
    # row with 1, exactly as presented.
    program, layout = build_normal_form(triangle, 2)
    assert layout.minimal_set_order == ((1, 2), (2, 3), (3, 1))
    assert program.psi[4] == 3 and program.psi[5] == 1
    # The layout is its presentation and structure: a second presentation
    # of the same structure lays out a different matrix.
    assert [f.name for f in dataclasses.fields(layout)] == ["minimal_set_order", "structure"]
    other = normal_form_layout(from_minimal_sets(3, [[2, 1], [3, 2], [1, 3]]))
    assert normal_form_layout(from_minimal_sets(3, [[1, 2], [2, 3], [3, 1]])) == layout
    assert other != layout and other.structure == layout.structure


def test_normal_form_over_f3(triangle):
    program, _ = build_normal_form(triangle, 3)
    # -1 is stored as 2
    assert program.matrix.entries[1] == (1, 2, 0, 0)
    assert rank(program.matrix) == 4


def test_build_rejects_bad_structures():
    with pytest.raises(ValueError):
        build_normal_form(from_minimal_sets(4, [[1, 2], [3, 4]]), 2)
    with pytest.raises(ValueError):
        build_normal_form(from_minimal_sets(3, [[1, 2]]), 2)  # player 3 unused


def test_normal_form_text_matches_the_built_program():
    # The text, printed from the nonzeros, against a per-entry join of the
    # dense rows.
    for n in range(1, 5):
        for g in enumerate_structures(n, realizable_only=True, connected_only=True):
            for q in (2, 3, 11):
                program = build_normal_form(g, q)[0]
                rows = "".join(" ".join(map(str, r)) + "\n" for r in program.matrix.entries)
                psi = " ".join(map(str, program.psi))
                expected = f"{len(program.psi)} {program.matrix.cols} {q}\n{rows}psi: {psi}\n"
                assert msp_to_text(program) == expected, (g.minimal_sets, q)


def test_array_windows_tile_the_whole_array(monkeypatch):
    # The normal-form matrix, and its transpose, printed in slabs of random
    # sizes: each slab is whole lines, as many as the slab size allows, and
    # the slabs join to the text printed in one slab.
    rng = random.Random(15)
    for n in range(1, 5):
        for g in enumerate_structures(n, realizable_only=True, connected_only=True):
            for q in (2, 3, 11):
                program = build_normal_form(g, q)[0]
                for nonzeros, shape in [
                    ((program.row, program.col, program.value), program.shape),
                    (program.columns, program.shape[::-1]),
                ]:
                    rows, cols = shape
                    monkeypatch.setattr(fields, "_SLAB_CELLS", rows * cols)
                    (whole,) = fields.coords_to_text(*nonzeros, shape)
                    for slab_cells in (1, *rng.choices(range(1, rows * cols + 1), k=3)):
                        monkeypatch.setattr(fields, "_SLAB_CELLS", slab_cells)
                        step = max(1, slab_cells // cols)
                        slabs = list(fields.coords_to_text(*nonzeros, shape))
                        lines = [slab.count("\n") for slab in slabs]
                        assert lines == [min(step, rows - lo) for lo in range(0, rows, step)]
                        assert all(slab.endswith("\n") for slab in slabs)
                        assert "".join(slabs) == whole, (g.minimal_sets, q, shape, slab_cells)


def test_normal_form_matches_rows_built_block_by_block():
    # The row-by-row construction the layout's nonzeros replaced, on a
    # threshold (equal blocks), a hub (unequal blocks) and a triangle
    # whose members are presented out of order.
    q = 3
    for n, sets in [
        (5, [list(c) for c in itertools.combinations(range(1, 6), 3)]),
        (6, [[1, i] for i in range(2, 7)] + [list(range(2, 7))]),
        (3, [[2, 1], [3, 2], [1, 3]]),
    ]:
        g = from_minimal_sets(n, sets)
        e = 1 + sum(len(a) - 1 for a in g.presentation)
        rows, psi, blocks, col = [], [], [], 1
        for i, a_i in enumerate(g.presentation):
            r_i = len(a_i) - 1
            for t in range(r_i):
                rows.append(tuple(1 if j == col + t else 0 for j in range(e)))
            closing = (1 if j == 0 else q - 1 if col <= j < col + r_i else 0 for j in range(e))
            rows.append(tuple(closing))
            psi.extend(a_i)
            blocks += [i] * len(a_i)
            col += r_i
        program, layout = build_normal_form(g, q)
        assert program.matrix.entries == tuple(rows) and program.psi == tuple(psi)
        assert program.matrix.cols == e == layout.e and layout.d == len(rows)
        assert normal_form_layout(g) == layout
        assert [layout.block_of_row(r) for r in range(-1, layout.d + 1)] == [None, *blocks, None]
        with pytest.raises(ValueError, match="prime"):
            layout.program(4)


@pytest.mark.parametrize(
    "row, col, value",
    [(6, 0, 1), (-1, 3, 1), (5, 4, 1), (1, -1, 1), (2, 3, 0), (2, 3, 2), (1, 0, 1)],
    ids=["row-past-end", "negative-row", "column-past-end", "negative-column", "zero", "past-q", "repeat"],
)
def test_program_rejects_nonzeros_off_the_matrix(tri_program, row, col, value):
    # The triangle's nonzeros plus one more, kept in row-major order.
    program = tri_program[0]
    nonzeros = [(*rc, v) for rc, v in zip(zip(program.row, program.col), program.value.tolist())]
    nonzeros = sorted(nonzeros + [(row, col, value)], key=lambda x: x[:2])
    row, col, value = map(np.array, zip(*nonzeros))
    with pytest.raises(ValueError, match="nonzeros must be distinct entries"):
        MonotoneSpanProgram(program.field, program.shape, row, col, value, program.psi)


def test_program_of_7_of_13_is_its_nonzeros():
    # 22,308 nonzeros of a 12012 x 10297 matrix: the dense tuple rows alone
    # would take about 1 GB. None is built until `matrix` is read.
    rz = realize(from_minimal_sets(13, itertools.combinations(range(1, 14), 7)), 2)
    tracemalloc.start()
    try:
        program = rz.program
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert program.shape == (12012, 10297) and program.value.size == 2 * 10296 + 1716
    assert "matrix" not in vars(program)
    assert peak < 5 * 2**20


def test_printing_6_of_11_holds_one_slab_at_a_time():
    # The whole 2772 x 2311 array, its cells and its text would take tens of MB.
    g = from_minimal_sets(11, itertools.combinations(range(1, 12), 6))
    tracemalloc.start()
    try:
        size = sum(map(len, msp_text_blocks(build_normal_form(g, 2)[0])))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    psi = "psi: " + " ".join(map(str, normal_form_layout(g).psi)) + "\n"
    assert size == len("2772 2311 2\n") + 2 * 2772 * 2311 + len(psi)
    assert peak < 8 * 2**20


def test_accepts_authorized_pair(tri_program):
    program, _ = tri_program
    result = accepts(program, (1, 2))
    assert result
    assert result.coefficients is not None
    # cross-check with exhaustive coefficient search
    rows = [program.matrix.entries[i] for i in result.row_indices]
    assert brute_solve(rows, 2, program.target) is not None


def test_accepts_rejects_singleton_and_empty(tri_program):
    program, _ = tri_program
    rows = [program.matrix.entries[i] for i in program.rows_of((1,))]
    assert brute_solve(rows, 2, program.target) is None
    assert not accepts(program, (1,))
    assert not accepts(program, ())


def test_acceptance_witness_reproduces_target(tri_program, star4_rz):
    for program, g in (
        (tri_program[0], from_minimal_sets(3, [[1, 2], [2, 3], [3, 1]])),
        (star4_rz.program, star4_rz.structure),
    ):
        q = program.field.q
        for a in all_subsets(g.n):
            result = accepts(program, a)
            assert bool(result) == is_authorized(g, a)
            if result:
                combo = [0] * program.matrix.cols
                for lam, i in zip(result.coefficients, result.row_indices):
                    row = program.matrix.entries[i]
                    combo = [(x + lam * y) % q for x, y in zip(combo, row)]
                assert tuple(combo) == program.target


def test_rejection_witness(tri_program):
    program, _ = tri_program
    v = rejection_witness(program, (1,))
    assert v[0] != 0
    assert program.submatrix((1,)).mul_vector(v) == (0, 0)
    # the hand-derived witness is also valid
    hand = (1, 0, 1, 1)
    assert program.submatrix((1,)).mul_vector(hand) == (0, 0)


def test_rejection_witness_empty_set(tri_program):
    program, _ = tri_program
    v = rejection_witness(program, ())
    assert v == (1, 0, 0, 0)


def test_rejection_witness_every_singleton(tri_program):
    program, _ = tri_program
    for player in (1, 2, 3):
        v = rejection_witness(program, (player,))
        assert v[0] != 0


def test_rejection_witness_errors_on_accepted(tri_program):
    program, _ = tri_program
    with pytest.raises(ValueError):
        rejection_witness(program, (1, 2))


def test_computes(tri_program, triangle):
    program, _ = tri_program
    assert computes(program, triangle)
    assert not computes(program, from_minimal_sets(3, [[1]]))
    g1 = from_minimal_sets(1, [[1]])
    assert computes(build_normal_form(g1, 2)[0], g1)


def test_computes_is_false_on_another_player_count(tri_program):
    # The triangle's sets on four players: same acceptance, one player more.
    program, _ = tri_program
    assert not computes(program, from_minimal_sets(4, [[1, 2], [2, 3], [3, 1]]))


def test_every_small_structure_is_computed():
    for n in range(1, 5):
        for g in enumerate_structures(n, realizable_only=True, connected_only=True):
            for q in (2, 3):
                program, _ = build_normal_form(g, q)
                assert computes(program, g), (g.minimal_sets, q)


def test_structural_checks_pass_for_normal_forms(tri_program, star4_rz):
    for program, layout in (tri_program, (star4_rz.program, star4_rz.layout)):
        report = structural_check(program, layout)
        assert report.all_pass()


def test_structural_checks_trivial_program():
    program, layout = build_normal_form(from_minimal_sets(1, [[1]]), 2)
    assert structural_check(program, layout).all_pass()


def test_structural_check_catches_duplicated_row(tri_program):
    program, layout = tri_program
    doubled = MonotoneSpanProgram.from_matrix(
        FieldMatrix(
            program.field,
            program.matrix.entries + (program.matrix.entries[0],),
            program.matrix.cols,
        ),
        program.psi + (program.psi[0],),
    )
    report = structural_check(doubled, layout)
    assert not report.per_player_rows_independent
    assert not report.all_pass()


STAR_HUB2_SETS = [[1, 2], [2, 3], [2, 4], [1, 3, 4]]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("q, dtype", [(3037000493, np.int64), (3037000507, object), (2**61 - 1, object)])
@pytest.mark.parametrize("n, sets", [(3, [[1, 2], [2, 3], [3, 1]]), (4, STAR_HUB2_SETS)])
def test_elimination_is_exact_at_large_q(q, dtype, n, sets):
    # 3037000493 is the largest prime with (q - 1)^2 + q below 2^63, the
    # last on int64; the next prime and 2^61 - 1 eliminate Python ints.
    g = from_minimal_sets(n, sets)
    program, layout = build_normal_form(g, q)
    assert program.matrix.array.dtype == dtype
    assert rank(program.matrix) == program.shape[1]
    rows = program.matrix.entries
    for a in all_subsets(n):
        result = accepts(program, a)
        assert bool(result) == is_authorized(g, a)
        if result:
            assert all(type(lam) is int for lam in result.coefficients)
            combo = (sum(lam * rows[i][j] for lam, i in zip(result.coefficients, result.row_indices)) % q
                     for j in range(program.shape[1]))
            assert tuple(combo) == program.target
        else:
            v = rejection_witness(program, a)
            assert v[0] != 0
            assert all(sum(x * y for x, y in zip(rows[i], v)) % q == 0 for i in program.rows_of(a))
    assert structural_check(program, layout).all_pass()


def test_rank_bookkeeping_refuses_a_pivot_outside_the_players(tri_program, triangle):
    program, layout = tri_program
    with pytest.raises(ValueError, match="player 99 out of range 1..3"):
        rank_bookkeeping(program, layout, triangle, (1,), 99)


def test_accepts_refuses_a_player_outside_the_players(tri_program):
    program, _ = tri_program
    with pytest.raises(ValueError, match="player 99 out of range 1..3"):
        accepts(program, (1, 2, 99))
    with pytest.raises(ValueError, match="player 0 out of range 1..3"):
        accepts(program, (0,))


def test_structural_check_catches_columns_outside_one_block(tri_program):
    program, layout = tri_program
    assert structural_check(program, layout).columns_have_two_supports_in_one_block
    # Rows 1 and 2 swapped: band columns 1 and 2 each pair rows of blocks 0 and 1.
    order = [0, 2, 1, 3, 4, 5]
    swapped = FieldMatrix(program.field, program.matrix.array[order])
    across = MonotoneSpanProgram.from_matrix(swapped, [program.psi[i] for i in order])
    # Column 1 also in rows 2 and 3: four supports, two in each of two blocks.
    wide = program.matrix.array.copy()
    wide[2:4, 1] = 1
    wider = MonotoneSpanProgram.from_matrix(FieldMatrix(program.field, wide), program.psi)
    for bad in (across, wider):
        assert not structural_check(bad, layout).columns_have_two_supports_in_one_block
    # The layout of {1, 2} alone has two rows: rows 2 to 5 lie outside its block.
    short = normal_form_layout(from_minimal_sets(2, [[1, 2]]))
    assert not structural_check(program, short).columns_have_two_supports_in_one_block


def _admissible_triples(program, layout, g):
    players = set(g.players)
    for a in all_subsets(g.n):
        for p in players - set(a):
            b = tuple(sorted(players - set(a) - {p}))
            if not is_authorized(g, b):
                continue
            for a_i in g.minimal_sets:
                if p in a_i:
                    yield a, p, a_i


def test_row_case_reference_example(tri_program, triangle):
    program, layout = tri_program
    case = row_independence_case(program, layout, (), 1, (1, 2))
    assert case.contained_in_complement
    assert case.row_index == 0  # the (0,1,0,0) row
    assert case.dependent_in_complement
    assert case.independent_in_a_with_pivot
    assert case.consistent


def test_row_case_precondition_errors(tri_program):
    program, layout = tri_program
    with pytest.raises(ValueError):
        # remainder {3} is unauthorized
        row_independence_case(program, layout, (2,), 1, (1, 3))
    with pytest.raises(ValueError):
        row_independence_case(program, layout, (1,), 1, (1, 2))
    with pytest.raises(ValueError):
        row_independence_case(program, layout, (), 1, (2, 3))


def test_row_case_straddling_in_star(star4_rz):
    rz = star4_rz
    case = row_independence_case(rz.program, rz.layout, (2,), 3, (2, 3, 4))
    assert not case.contained_in_complement
    assert not case.dependent_in_complement  # independent on both sides
    assert case.independent_in_a_with_pivot


def test_row_case_exhaustive_small_structures():
    for n in range(1, 5):
        for g in enumerate_structures(n, realizable_only=True, connected_only=True):
            program, layout = build_normal_form(g, 2)
            for a, p, a_i in _admissible_triples(program, layout, g):
                case = row_independence_case(program, layout, a, p, a_i)
                assert case.consistent


def test_rank_bookkeeping_reference_example(tri_program, triangle):
    program, layout = tri_program
    bk = rank_bookkeeping(program, layout, triangle, (), 1)
    assert len(bk.pivot_sets_inside) == 2
    assert len(bk.pivot_sets_straddling) == 0
    assert bk.rank_a_with_pivot == 2
    assert bk.rank_remainder == 4


def test_rank_bookkeeping_precondition(tri_program, triangle):
    program, layout = tri_program
    with pytest.raises(ValueError):
        rank_bookkeeping(program, layout, triangle, (2,), 3)  # {1} unauthorized


def test_rank_bookkeeping_star_example(star4_rz):
    rz = star4_rz
    bk = rank_bookkeeping(rz.program, rz.layout, rz.structure, (2,), 3)
    assert bk.authorized_remainder == (1, 4)


def test_rank_bookkeeping_exhaustive_small_structures():
    for n in range(1, 5):
        for g in enumerate_structures(n, realizable_only=True, connected_only=True):
            program, layout = build_normal_form(g, 2)
            players = set(g.players)
            for a in all_subsets(n):
                for p in players - set(a):
                    b = tuple(sorted(players - set(a) - {p}))
                    if not is_authorized(g, b):
                        continue
                    rank_bookkeeping(program, layout, g, a, p)  # raises on violation


def test_to_css_triangle(tri_program):
    program, layout = tri_program
    form = to_css(program, layout)
    assert form.x_bar == (0, 1, 0, 1, 0, 1)
    assert form.generators == (
        (1, 1, 0, 0, 0, 0),
        (0, 0, 1, 1, 0, 0),
        (0, 0, 0, 0, 1, 1),
    )
    code = form.code()
    assert (0,) * 6 in code
    assert form.coset(1) == encoding_image(program, 1)
    assert (1, 0, 1, 0, 1, 0) in form.coset(1)


def test_coset_equality_all_programs(tri_program, star4_rz, fan_rz):
    programs = [tri_program, (star4_rz.program, star4_rz.layout), (fan_rz.program, fan_rz.layout)]
    g1 = from_minimal_sets(1, [[1]])
    programs.append(build_normal_form(g1, 2))
    programs.append(build_normal_form(from_minimal_sets(3, [[1, 2], [2, 3], [3, 1]]), 3))
    for program, layout in programs:
        form = to_css(program, layout)
        for s in range(program.field.q):
            assert form.coset(s) == encoding_image(program, s)


def test_cosets_partition_the_image(tri_program):
    program, layout = tri_program
    form = to_css(program, layout)
    seen = set()
    for s in range(2):
        coset = form.coset(s)
        assert not seen & coset
        seen |= coset
    assert len(seen) == 2 ** 4


def brute_codewords(program):
    """M u mod q for every u, big-endian, as basis indices: plain matrix products."""
    q, d, e = program.field.q, program.matrix.rows, program.matrix.cols
    u = np.array(list(itertools.product(range(q), repeat=e)), dtype=np.int64)
    y = u @ np.array(program.matrix.entries, dtype=np.int64).T % q
    return (y @ q ** np.arange(d - 1, -1, -1)).reshape(q, -1)


def test_codewords_match_a_brute_force_product():
    # Every connected realizable structure with n <= 4 whose q^e codewords
    # number at most 2^16: 56 of the 57 at q = 2, 46 at q = 3, 11 at q = 5.
    checked = {2: 0, 3: 0, 5: 0}
    for n in range(1, 5):
        for g in enumerate_structures(n, realizable_only=True, connected_only=True):
            for q in checked:
                rz = realize(g, q)
                if q**rz.layout.e <= 2**16:
                    assert np.array_equal(codewords(rz.program), brute_codewords(rz.program))
                    checked[q] += 1
    assert checked == {2: 56, 3: 46, 5: 11}
    # Shamir 2-of-3 over F_5, rows (1, x) for x = 1, 2, 3: entries other than 0, 1 and q - 1.
    f5 = PrimeField(5)
    shamir = MonotoneSpanProgram.from_matrix(FieldMatrix(f5, ((1, 1), (1, 2), (1, 3))), (1, 2, 3))
    assert np.array_equal(codewords(shamir), brute_codewords(shamir))


def test_codewords_hold_two_arrays_of_q_to_the_e():
    # The d = 20 scheme at q = 2 (e = 14): the index and one row's y, 8 bytes
    # an entry, plus less than one more such array of small change.
    rz = realize(from_minimal_sets(4, [[1, 2, 3], [1, 2, 4], [2, 3, 4]]), 2)
    q, e, program = 2, rz.layout.e, rz.program
    tracemalloc.start()
    try:
        codewords(program)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rz.layout.d, e) == (20, 14)
    assert peak < 3 * 8 * q**e


def test_dispensable_rows_empty_for_normal_forms(tri_program, triangle, star4_rz):
    assert dispensable_rows(tri_program[0], triangle) == []
    assert dispensable_rows(star4_rz.program, star4_rz.structure) == []
    g1 = from_minimal_sets(1, [[1]])
    assert dispensable_rows(build_normal_form(g1, 2)[0], g1) == []


def test_dispensable_rows_flags_zero_row(tri_program, triangle):
    program, _ = tri_program
    padded = MonotoneSpanProgram.from_matrix(
        FieldMatrix(
            program.field,
            program.matrix.entries + ((0, 0, 0, 0),),
            program.matrix.cols,
        ),
        program.psi + (1,),
    )
    assert dispensable_rows(padded, triangle) == [6]


def test_program_text_roundtrip(tri_program):
    program, _ = tri_program
    text = msp_to_text(program)
    assert text.endswith("psi: 1 2 2 3 3 1\n")
    again = msp_from_text(text)
    assert again == program


def test_program_text_rejects_missing_psi(tri_program):
    with pytest.raises(ValueError):
        msp_from_text("1 1 2\n1\n")
