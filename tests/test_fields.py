"""Exact prime-field linear algebra against brute-force enumeration."""

import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanshare.access import from_minimal_sets
from spanshare.fields import (
    PRIMALITY_LIMIT,
    FieldMatrix,
    PrimeField,
    coords_to_text,
    is_prime,
    kernel_basis,
    matrix_from_text,
    rank,
    solve_combination,
)
from spanshare.msp import MonotoneSpanProgram, build_normal_form

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


@pytest.mark.parametrize("q", [0, 1, 4, 6, 8, 9, 15, 25, 3.0, 2.5, True])
def test_composite_moduli_rejected(q):
    with pytest.raises(ValueError):
        PrimeField(q)


def trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_agrees_with_trial_division_below_10_to_the_5():
    assert [n for n in range(-3, 10**5) if is_prime(n)] == [
        n for n in range(-3, 10**5) if trial_division(n)
    ]


@pytest.mark.parametrize(
    "n",
    # Carmichael numbers, then strong pseudoprimes to the prime bases up to 7,
    # to those up to 31, and to those up to 37: only base 41 rejects the last.
    [561, 1105, 1729, 2465, 2821, 6601, 8911, 3215031751, 3825123056546413051,
     318665857834031151167461],
)
def test_is_prime_rejects_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_takes_milliseconds_on_large_primes():
    start = time.perf_counter()
    assert is_prime(2**61 - 1) and is_prime(2**64 + 13) and is_prime(2**80 - 65)
    assert not is_prime((2**61 - 1) * (2**19 - 1))
    assert time.perf_counter() - start < 0.05


def test_is_prime_refuses_what_its_bases_cannot_decide():
    # The limit is the least strong pseudoprime to all 13 bases.
    assert not is_prime(PRIMALITY_LIMIT - 2)
    with pytest.raises(ValueError, match="undecided"):
        is_prime(PRIMALITY_LIMIT)


def test_entries_canonicalized():
    m = FieldMatrix(PrimeField(3), ((-1, 4, 3),))
    assert m.entries == ((2, 1, 0),)


def test_canonical_tuple_rows_are_kept():
    # Rows are kept by value in one read-only array and read back as tuples.
    row = (2, 1, 0)
    m = FieldMatrix(PrimeField(3), (row, [4, -1, 3]))
    assert m.entries == (row, (1, 2, 0)) and all(type(r) is tuple for r in m.entries)
    assert m.array.dtype == np.int64 and not m.array.flags.writeable


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
        assert not (m.array @ np.array(v) % m.field.q).any()
    if basis:
        assert rank(FieldMatrix(m.field, tuple(basis), m.cols)) == len(basis)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("q", [3037000493, 3037000507, 2**61 - 1])
def test_large_q_results_substitute_back(q):
    # Entries near q give products near (q - 1)^2, which the int64 path
    # holds up to 3037000493; above it the same code runs on Python ints.
    rng = random.Random(q)
    rows = [[rng.choice((0, 1, q - 2, q - 1, rng.randrange(q))) for _ in range(5)] for _ in range(4)]
    rows.append([(a + (q - 1) * b) % q for a, b in zip(rows[0], rows[1])])
    m = FieldMatrix(PrimeField(q), rows)
    basis = kernel_basis(m)
    assert len(basis) == 5 - rank(m) >= 1
    for v in basis:
        assert all(sum(x * y for x, y in zip(row, v)) % q == 0 for row in rows)
    target = [(3 * a + (q - 5) * b) % q for a, b in zip(rows[2], rows[3])]
    lam = solve_combination(m, target)
    assert [sum(c * row[j] for c, row in zip(lam, rows)) % q for j in range(5)] == target
    # Rows of numpy integer scalars, whose products would wrap, are read as Python ints.
    scalars = FieldMatrix(PrimeField(q), [list(np.array(row, np.uint64)) for row in rows])
    assert kernel_basis(scalars) == basis and solve_combination(scalars, target) == lam


def text_of(array: np.ndarray, sep: str = " ", end: str = "\n") -> str:
    """`coords_to_text` of a canonical 2-D array's nonzeros, joined."""
    row, col = array.nonzero()
    return "".join(coords_to_text(row, col, array[row, col], array.shape, sep, end))


def joined(rows, sep: str = " ", end: str = "\n") -> str:
    return "".join(sep.join(map(str, row)) + end for row in rows)


def test_matrix_text_roundtrip():
    m = FieldMatrix(PrimeField(3), ((0, 1, 2), (2, 2, 0)))
    text = "2 3 3\n" + text_of(np.array(m.entries, dtype=np.uint8))
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
    with pytest.raises(ValueError, match="bad matrix header"):
        matrix_from_text("1 2\n1 0\n")


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
    # The renderer prints rows from coordinates; a 0-row matrix prints nothing.
    q, rows, cols, entries = case
    array = np.array(entries, dtype=np.min_scalar_type(q - 1)).reshape(rows, cols)
    text = text_of(array)
    assert text == joined(entries)
    again = matrix_from_text(f"{rows} {cols} {q}\n" + text)
    assert again.entries == tuple(map(tuple, entries)) and again.cols == cols


def test_one_digit_cells_match_the_padded_cells():
    # Entries below 10 are poked into '0' + sep cells as digits; wider
    # entries are joined in at NULs, including values past one byte and
    # past uint16.
    rng = np.random.default_rng(7)
    for q in (2, 7, 11, 101, 65521, 100003):
        for shape in ((1, 1), (9, 13), (40, 2)):
            array = rng.integers(0, q, shape).astype(np.min_scalar_type(q - 1))
            for sep, end in ((" ", "\n"), (", ", "]\n")):  # `css --format json` uses the second
                assert text_of(array, sep, end) == joined(array.tolist(), sep, end)
            # `css` prints the columns, the nonzeros sorted by column, then row.
            matrix = FieldMatrix(PrimeField(q), array.tolist())
            program = MonotoneSpanProgram.from_matrix(matrix, (1,) * len(array))
            assert "".join(coords_to_text(*program.columns, shape[::-1])) == joined(array.T.tolist())
    # The normal form's entries are 0, 1 and q - 1; `css` prints its columns.
    star = from_minimal_sets(4, [[1, 2], [2, 3], [2, 4], [1, 3, 4]])
    for q in (11, 101):
        program = build_normal_form(star, q)[0]
        rows = program.matrix.entries
        text = coords_to_text(program.row, program.col, program.value, program.shape)
        assert "".join(text) == joined(rows)
        assert "".join(coords_to_text(*program.columns, program.shape[::-1])) == joined(zip(*rows))
