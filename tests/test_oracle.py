"""State-vector oracle: encodings, reductions, secrecy, formula checks."""

import math

import numpy as np
import pytest

from spanshare.access import from_minimal_sets
from spanshare.entropy import SchemeRealization, SecretSpec, realize, subset_report
from spanshare.msp import build_normal_form, to_css
from spanshare.oracle import (
    PureState,
    basis_index,
    basis_string,
    compare_with_formula,
    dump_state,
    encode_secret,
    oracle_subset_entropy,
    reduced_entropy,
    share_layout,
    trace_distance,
    verify_secrecy_recoverability,
)

TRIANGLE_COSET_0 = {
    "000000", "110000", "001100", "000011", "111100", "110011", "001111", "111111",
}
# The published worked example lists 011110 in the second superposition,
# but that string fails the code's parity relations; the member of the
# coset produced by the construction itself is 010110. The other seven
# strings agree.
TRIANGLE_COSET_1 = {
    "101010", "011010", "100110", "101001", "010110", "011001", "100101", "010101",
}


def state_support(state):
    return {
        basis_string(i, state.q, state.num_coords)
        for i in np.nonzero(state.amplitudes)[0]
    }


def test_basis_encoding_roundtrip():
    assert basis_index((1, 0, 1), 2) == 5
    assert basis_string(5, 2, 3) == "101"
    assert basis_index((2, 1), 3) == 7
    assert basis_string(7, 3, 2) == "21"


def test_encode_triangle_secret_zero(triangle_rz):
    state = encode_secret(triangle_rz.program, 0)
    assert state_support(state) == TRIANGLE_COSET_0
    nonzero = state.amplitudes[np.nonzero(state.amplitudes)[0]]
    assert np.allclose(nonzero, 1 / math.sqrt(8), atol=1e-10)


def test_encode_triangle_secret_one(triangle_rz):
    state = encode_secret(triangle_rz.program, 1)
    assert state_support(state) == TRIANGLE_COSET_1
    assert "101010" in state_support(state)
    assert "010101" in state_support(state)


def test_encode_trivial_program_is_basis_state():
    g = from_minimal_sets(1, [[1]])
    program, _ = build_normal_form(g, 2)
    state = encode_secret(program, 1)
    assert state.amplitudes.tolist() == [0, 1]


def test_encoding_matches_coset_form(triangle_rz, star4_rz, fan_rz):
    # amplitude-exact agreement between the column-coset description
    # and the direct enumeration encoder
    for rz in (triangle_rz, star4_rz, fan_rz):
        form = to_css(rz.program, rz.layout)
        d = rz.program.matrix.rows
        for s in range(rz.q):
            state = encode_secret(rz.program, s)
            coset = form.coset(s)
            expected = np.zeros(rz.q**d, dtype=complex)
            for word in coset:
                expected[basis_index(word, rz.q)] = 1 / math.sqrt(len(coset))
            assert np.array_equal(state.amplitudes, expected)


def test_encodings_are_orthogonal(triangle_rz):
    s0 = encode_secret(triangle_rz.program, 0)
    s1 = encode_secret(triangle_rz.program, 1)
    assert not (state_support(s0) & state_support(s1))
    assert abs(np.vdot(s0.amplitudes, s1.amplitudes)) == 0.0


def test_dump_state_format(triangle_rz):
    text = dump_state(encode_secret(triangle_rz.program, 0))
    lines = text.strip().split("\n")
    assert len(lines) == 8
    assert lines[0] == "000000 0.353553390593 0"
    assert lines == sorted(lines)


def test_pure_state_normalization_enforced():
    with pytest.raises(ValueError):
        PureState(2, 1, np.array([1.0, 1.0], dtype=complex))


def test_share_layout_triangle(triangle_rz):
    layout = share_layout(triangle_rz.program)
    assert layout.coords == {1: (1, 6), 2: (2, 3), 3: (4, 5)}


def test_reduced_entropy_product_state():
    state = PureState(2, 3, np.eye(8, dtype=complex)[5])
    for coords in [(1,), (2,), (1, 3), (1, 2, 3)]:
        assert reduced_entropy(state, coords) == 0.0


def test_reduced_entropy_bell_pair():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    state = PureState(2, 2, bell)
    assert abs(reduced_entropy(state, (1,)) - 1.0) < 1e-12


def test_reduced_entropy_player_one_share(triangle_rz):
    state = encode_secret(triangle_rz.program, 0)
    coords = share_layout(triangle_rz.program).coords[1]
    assert coords == (1, 6)
    assert abs(reduced_entropy(state, coords) - 2.0) < 1e-10


def test_oracle_entropies_triangle(triangle_rz, uniform2):
    assert oracle_subset_entropy(triangle_rz, uniform2, ()) == 0.0
    assert abs(oracle_subset_entropy(triangle_rz, uniform2, (1, 2)) - 3.0) < 1e-10
    assert abs(oracle_subset_entropy(triangle_rz, uniform2, (1, 2, 3)) - 1.0) < 1e-10


def test_oracle_formula_agreement_uniform_and_biased(
    triangle_rz, fan_rz, star4_rz, uniform2, biased2
):
    for rz in (triangle_rz, fan_rz, star4_rz):
        for secret in (uniform2, biased2):
            assert compare_with_formula(rz, secret) == []


def test_oracle_formula_agreement_f3():
    g = from_minimal_sets(3, [[1, 2], [2, 3], [3, 1]])
    rz = realize(g, 3)
    assert compare_with_formula(rz, SecretSpec.uniform(3)) == []


def test_unauthorized_entropy_ignores_distribution(triangle_rz, uniform2, biased2):
    for subset in [(), (1,), (2,), (3,)]:
        u = oracle_subset_entropy(triangle_rz, uniform2, subset)
        b = oracle_subset_entropy(triangle_rz, biased2, subset)
        assert abs(u - b) < 1e-8


def test_secrecy_and_recoverability(triangle_rz, fan_rz, star4_rz, uniform2):
    for rz in (triangle_rz, fan_rz, star4_rz):
        report = verify_secrecy_recoverability(rz, uniform2)
        assert report.ok()
        assert report.subsets_checked == 2 ** rz.structure.n


def test_secrecy_single_player_scheme(uniform2):
    rz = realize(from_minimal_sets(1, [[1]]), 2)
    report = verify_secrecy_recoverability(rz, uniform2)
    assert report.ok()


def test_secrecy_sweep_reports_both_failures(triangle_rz, uniform2):
    # The triangle's program paired with a structure it does not realize:
    # player 1 alone is claimed authorized, and {2, 3} unauthorized.
    wrong = SchemeRealization(
        from_minimal_sets(3, [[1]]), triangle_rz.program, triangle_rz.layout, None
    )
    report = verify_secrecy_recoverability(wrong, uniform2)
    assert not report.ok()
    assert report.subsets_checked == 8
    assert [v[:3] for v in report.secrecy_violations] == [((2, 3), 0, 1)]
    assert [v[:3] for v in report.recoverability_violations] == [((1,), 0, 1)]
    assert report.secrecy_violations[0][3] >= 1e-9
    assert report.recoverability_violations[0][3] >= 1e-9


def test_secrecy_requires_full_support(triangle_rz):
    with pytest.raises(ValueError):
        verify_secrecy_recoverability(triangle_rz, SecretSpec.point(2, 0))


def test_unauthorized_reduction_is_maximally_mixed(triangle_rz):
    from spanshare.oracle import _reduce_pure

    coords = share_layout(triangle_rz.program).coords[1]
    red0 = _reduce_pure(encode_secret(triangle_rz.program, 0), coords)
    red1 = _reduce_pure(encode_secret(triangle_rz.program, 1), coords)
    assert trace_distance(red0, red1) < 1e-12
    assert np.allclose(red0, np.eye(4) / 4, atol=1e-12)


def test_authorized_reductions_have_orthogonal_supports(triangle_rz):
    from spanshare.oracle import _reduce_pure

    coords = share_layout(triangle_rz.program).of((2, 3))
    red0 = _reduce_pure(encode_secret(triangle_rz.program, 0), coords)
    red1 = _reduce_pure(encode_secret(triangle_rz.program, 1), coords)
    assert abs(np.trace(red0 @ red1)) < 1e-12


def test_flat_spectra(triangle_rz, star4_rz):
    # all nonzero eigenvalues of every reduction are equal: the states
    # are stabilizer-like, which doubles as a numerical sanity check
    from spanshare.access import subsets_in_order
    from spanshare.oracle import _reduce_pure

    for rz in (triangle_rz, star4_rz):
        layout = share_layout(rz.program)
        for s in range(rz.q):
            state = encode_secret(rz.program, s)
            for subset in subsets_in_order(rz.structure.players):
                coords = layout.of(subset)
                eigs = np.linalg.eigvalsh(_reduce_pure(state, coords))
                nonzero = eigs[eigs > 1e-10]
                assert np.allclose(nonzero, nonzero[0], atol=1e-8)


def test_entropy_range(triangle_rz, uniform2):
    layout = share_layout(triangle_rz.program)
    from spanshare.access import subsets_in_order

    for subset in subsets_in_order(triangle_rz.structure.players):
        bits = oracle_subset_entropy(triangle_rz, uniform2, subset)
        assert -1e-12 <= bits <= len(layout.of(subset)) * math.log2(2) + 1e-12


def test_simulation_cap(triangle_rz, uniform2):
    with pytest.raises(ValueError):
        encode_secret(triangle_rz.program, 0, cap=32)
    with pytest.raises(ValueError):
        oracle_subset_entropy(triangle_rz, uniform2, (1,), cap=32)


def test_formula_and_oracle_disagree_on_nothing_but_match_reports(
    triangle_rz, uniform2
):
    # spot-check that the two routes compute the same numbers they
    # publish individually
    for subset in [(1,), (2, 3), (1, 2, 3)]:
        formula = subset_report(triangle_rz, uniform2, subset).entropy_bits
        oracle_bits = oracle_subset_entropy(triangle_rz, uniform2, subset)
        assert abs(formula - oracle_bits) < 1e-10
