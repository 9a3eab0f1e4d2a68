"""Normal-form span programs: construction, acceptance, rank accounting."""

import itertools

import pytest

from spanshare.access import enumerate_structures, from_minimal_sets, is_authorized
from spanshare.fields import FieldMatrix, rank
from spanshare.msp import (
    MonotoneSpanProgram,
    accepts,
    build_normal_form,
    computes,
    dispensable_rows,
    encoding_image,
    msp_from_text,
    msp_to_text,
    normal_form_layout,
    normal_form_text,
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
    for n in range(1, 5):
        for g in enumerate_structures(n, realizable_only=True, connected_only=True):
            for q in (2, 3, 11):
                text = msp_to_text(build_normal_form(g, q)[0])
                assert normal_form_text(g, q) == text, (g.minimal_sets, q)


def test_normal_form_matches_rows_built_block_by_block():
    # The row-by-row construction the layout's array replaced.
    q = 3
    g = from_minimal_sets(5, [list(c) for c in itertools.combinations(range(1, 6), 3)])
    e = 1 + sum(len(a) - 1 for a in g.presentation)
    rows, psi, col = [], [], 1
    for a_i in g.presentation:
        r_i = len(a_i) - 1
        for t in range(r_i):
            rows.append(tuple(1 if j == col + t else 0 for j in range(e)))
        rows.append(tuple(1 if j == 0 else q - 1 if col <= j < col + r_i else 0 for j in range(e)))
        psi.extend(a_i)
        col += r_i
    program, layout = build_normal_form(g, q)
    assert program.matrix.entries == tuple(rows) and program.psi == tuple(psi)
    assert program.matrix.cols == e == layout.e
    assert normal_form_layout(g) == layout
    with pytest.raises(ValueError, match="prime"):
        layout.array(4)


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
    doubled = MonotoneSpanProgram(
        program.field,
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


def test_dispensable_rows_empty_for_normal_forms(tri_program, triangle, star4_rz):
    assert dispensable_rows(tri_program[0], triangle) == []
    assert dispensable_rows(star4_rz.program, star4_rz.structure) == []
    g1 = from_minimal_sets(1, [[1]])
    assert dispensable_rows(build_normal_form(g1, 2)[0], g1) == []


def test_dispensable_rows_flags_zero_row(tri_program, triangle):
    program, _ = tri_program
    padded = MonotoneSpanProgram(
        program.field,
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
