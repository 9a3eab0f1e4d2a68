"""Exact prime-field linear algebra against brute-force enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanshare.fields import (
    FieldMatrix,
    PrimeField,
    kernel_basis,
    matrix_from_text,
    matrix_to_text,
    rank,
    rows_to_text,
    solve_combination,
)

from conftest import brute_rank, brute_solve

F2 = PrimeField(2)

REFERENCE_6X4 = (
    (0, 1, 0, 0),
    (1, 1, 0, 0),
    (0, 0, 1, 0),
    (1, 0, 1, 0),
    (0, 0, 0, 1),
    (1, 0, 0, 1),
)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 101])
def test_prime_moduli_accepted(q):
    assert PrimeField(q).q == q


@pytest.mark.parametrize("q", [0, 1, 4, 6, 8, 9, 15, 25])
def test_composite_moduli_rejected(q):
    with pytest.raises(ValueError):
        PrimeField(q)


def test_minus_one_is_q_minus_one():
    assert PrimeField(5).canon(-1) == 4
    assert PrimeField(2).canon(-1) == 1


def test_entries_canonicalized():
    m = FieldMatrix(PrimeField(3), ((-1, 4, 3),))
    assert m.entries == ((2, 1, 0),)


def test_canonical_tuple_rows_are_kept():
    row = (2, 1, 0)
    m = FieldMatrix(PrimeField(3), (row, [4, -1, 3]))
    assert m.entries[0] is row
    assert m.entries[1] == (1, 2, 0) and type(m.entries[1]) is tuple


def test_array_entries_are_canonicalized():
    m = FieldMatrix(PrimeField(3), np.array([[-1, 4, 3], [5, -3, 2]]))
    assert m.entries == ((2, 1, 0), (2, 0, 2)) and m.cols == 3
    assert all(type(row) is tuple and type(row[0]) is int for row in m.entries)
    empty = FieldMatrix(PrimeField(3), np.zeros((0, 4), dtype=np.uint8))
    assert empty.entries == () and empty.cols == 4


def test_array_shape_checks():
    with pytest.raises(ValueError):
        FieldMatrix(F2, np.zeros((2, 3), dtype=np.int64), 4)
    with pytest.raises(ValueError):
        FieldMatrix(F2, np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError):
        FieldMatrix(F2, np.zeros((1, 2, 3), dtype=np.int64))


def test_dimension_checks():
    with pytest.raises(ValueError):
        FieldMatrix(F2, ((1, 0), (1,)))
    with pytest.raises(ValueError):
        FieldMatrix(F2, ())  # no rows and no explicit column count


def test_rank_reference_matrix():
    assert rank(FieldMatrix(F2, REFERENCE_6X4)) == 4


def test_rank_empty_matrix():
    assert rank(FieldMatrix(F2, (), cols=4)) == 0
    assert rank(FieldMatrix(F2, (), cols=0)) == 0


def test_rank_four_row_example():
    # Hand elimination: rows 1, 2 and 4 are unit-ish, row 3 adds the
    # remaining direction. Cross-checked by exhaustive subset search.
    rows = ((1, 1, 0, 0), (0, 0, 1, 0), (1, 0, 1, 0), (0, 0, 0, 1))
    assert rank(FieldMatrix(F2, rows)) == 4
    assert brute_rank(rows, 2) == 4


def test_solve_combination_example():
    m = FieldMatrix(F2, ((0, 1, 0, 0), (1, 1, 0, 0)))
    target = (1, 0, 0, 0)
    assert brute_solve(m.entries, 2, target) == (1, 1)
    assert solve_combination(m, target) == (1, 1)


def test_solve_combination_zero_target():
    m = FieldMatrix(F2, ((0, 1, 0, 0), (1, 0, 0, 1)))
    assert solve_combination(m, (0, 0, 0, 0)) == (0, 0)


def test_solve_combination_absent():
    m = FieldMatrix(F2, ((0, 1, 0, 0), (1, 0, 0, 1)))
    target = (1, 0, 0, 0)
    assert brute_solve(m.entries, 2, target) is None
    assert solve_combination(m, target) is None


def test_solve_combination_dimension_mismatch():
    m = FieldMatrix(F2, ((0, 1),))
    with pytest.raises(ValueError):
        solve_combination(m, (1, 0, 0))


def test_solve_combination_no_rows():
    empty = FieldMatrix(F2, (), cols=3)
    assert solve_combination(empty, (0, 0, 0)) == ()
    assert solve_combination(empty, (1, 0, 0)) is None


def test_kernel_identity_empty():
    eye = FieldMatrix(F2, tuple(tuple(int(i == j) for j in range(4)) for i in range(4)))
    assert kernel_basis(eye) == []


def test_kernel_of_full_column_rank_submatrix():
    # Rows of players 2 and 3 in the reference matrix span all of F_2^4.
    rows = (REFERENCE_6X4[1], REFERENCE_6X4[2], REFERENCE_6X4[3], REFERENCE_6X4[4])
    m = FieldMatrix(F2, rows)
    assert rank(m) == 4
    assert kernel_basis(m) == []


def test_kernel_of_parity_row():
    m = FieldMatrix(F2, ((1, 1),))
    assert kernel_basis(m) == [(1, 1)]


def test_kernel_of_empty_matrix_is_full_space():
    basis = kernel_basis(FieldMatrix(F2, (), cols=3))
    assert basis == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


@st.composite
def small_matrix(draw):
    q = draw(st.sampled_from([2, 3, 5]))
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(1, 6))
    entries = tuple(
        tuple(draw(st.integers(0, q - 1)) for _ in range(ncols)) for _ in range(nrows)
    )
    return FieldMatrix(PrimeField(q), entries, ncols)


@settings(max_examples=120, deadline=None)
@given(small_matrix())
def test_rank_matches_exhaustive_search(m):
    assert rank(m) == brute_rank(m.entries, m.field.q)


@settings(max_examples=120, deadline=None)
@given(small_matrix(), st.data())
def test_solve_present_iff_rank_unchanged(m, data):
    q = m.field.q
    target = tuple(data.draw(st.integers(0, q - 1)) for _ in range(m.cols))
    lam = solve_combination(m, target)
    stacked = FieldMatrix(m.field, m.entries + (target,), m.cols)
    assert (lam is not None) == (rank(stacked) == rank(m))
    if lam is not None:
        for j in range(m.cols):
            acc = sum(c * row[j] for c, row in zip(lam, m.entries)) % q
            assert acc == target[j] % q


@settings(max_examples=120, deadline=None)
@given(small_matrix())
def test_kernel_vectors_annihilate_and_are_independent(m):
    basis = kernel_basis(m)
    assert len(basis) == m.cols - rank(m)
    for v in basis:
        assert m.mul_vector(v) == (0,) * m.rows
    if basis:
        assert rank(FieldMatrix(m.field, tuple(basis), m.cols)) == len(basis)


def test_matrix_text_roundtrip():
    m = FieldMatrix(PrimeField(3), ((0, 1, 2), (2, 2, 0)))
    text = matrix_to_text(m)
    assert text == "2 3 3\n0 1 2\n2 2 0\n"
    again = matrix_from_text(text)
    assert again == m


def test_matrix_text_rejects_garbage():
    with pytest.raises(ValueError):
        matrix_from_text("")
    with pytest.raises(ValueError):
        matrix_from_text("2 2 2\n1 0\n")
    with pytest.raises(ValueError):
        matrix_from_text("1 2 2\n1 0 1\n")


@st.composite
def canonical_arrays(draw):
    q = draw(st.sampled_from([2, 3, 11, 101, 65537]))
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols)
    return q, rows, cols, draw(st.lists(row, min_size=rows, max_size=rows))


@settings(max_examples=200, deadline=None)
@given(canonical_arrays())
def test_rows_to_text_matches_a_per_entry_join(case):
    q, rows, cols, entries = case
    array = np.array(entries, dtype=np.min_scalar_type(q - 1)).reshape(rows, cols)
    text = rows_to_text(array, q)
    assert text == "".join(" ".join(str(x) for x in row) + "\n" for row in entries)
    again = matrix_from_text(f"{rows} {cols} {q}\n" + text)
    assert again.entries == tuple(map(tuple, entries)) and again.cols == cols
