"""State-vector oracle: encodings, reductions, secrecy, formula checks."""

import json
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from spanshare import cli, oracle
from spanshare.access import enumerate_structures, from_minimal_sets, is_authorized
from spanshare.entropy import SchemeRealization, SecretSpec, realize, subset_report
from spanshare.fields import FieldMatrix
from spanshare.msp import MonotoneSpanProgram, build_normal_form
from spanshare.oracle import (
    _pair_measures,
    _sweep,
    compare_with_formula,
    oracle_subset_entropy,
    verify_scheme,
    verify_secrecy_recoverability,
)

from dense_reference import (
    PureState,
    _reduce_pure,
    basis_index,
    basis_string,
    dump_state,
    encode_secret,
    entropy_bits_of,
    reduced_entropy,
    to_css,
    trace_distance,
)

STAR_HUB2_SETS = [[1, 2], [2, 3], [2, 4], [1, 3, 4]]

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


def coords_of(program, players):
    """The codeword coordinates (1-based) held by `players`: their rows, plus one."""
    return tuple(i + 1 for i in program.rows_of(players))


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
    with pytest.raises(ValueError, match="wrong length"):
        PureState(2, 2, np.array([1.0, 0.0], dtype=complex))


def test_share_layout_triangle(triangle_rz):
    coords = {p: coords_of(triangle_rz.program, [p]) for p in (1, 2, 3)}
    assert coords == {1: (1, 6), 2: (2, 3), 3: (4, 5)}


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
    coords = coords_of(triangle_rz.program, [1])
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
    wrong = SchemeRealization(from_minimal_sets(3, [[1]]), triangle_rz.layout, None, 2)
    wrong.__dict__["program"] = triangle_rz.program
    report = verify_secrecy_recoverability(wrong, uniform2)
    assert not report.ok()
    assert report.subsets_checked == 8
    assert [v[:3] for v in report.secrecy_violations] == [((2, 3), 0, 1)]
    assert [v[:3] for v in report.recoverability_violations] == [((1,), 0, 1)]
    assert report.secrecy_violations[0][3] >= 1e-9
    assert report.recoverability_violations[0][3] >= 1e-9


def test_secrecy_requires_full_support(triangle_rz):
    with pytest.raises(ValueError):
        verify_secrecy_recoverability(triangle_rz, SecretSpec(2, (1.0, 0.0)))


def test_unauthorized_reduction_is_maximally_mixed(triangle_rz):
    coords = coords_of(triangle_rz.program, [1])
    red0 = _reduce_pure(encode_secret(triangle_rz.program, 0), coords)
    red1 = _reduce_pure(encode_secret(triangle_rz.program, 1), coords)
    assert trace_distance(red0, red1) < 1e-12
    assert np.allclose(red0, np.eye(4) / 4, atol=1e-12)


def test_authorized_reductions_have_orthogonal_supports(triangle_rz):
    coords = coords_of(triangle_rz.program, (2, 3))
    red0 = _reduce_pure(encode_secret(triangle_rz.program, 0), coords)
    red1 = _reduce_pure(encode_secret(triangle_rz.program, 1), coords)
    assert abs(np.trace(red0 @ red1)) < 1e-12


def test_flat_spectra(triangle_rz, star4_rz):
    # all nonzero eigenvalues of every reduction are equal: the states
    # are stabilizer-like, which doubles as a numerical sanity check
    from spanshare.access import subsets_in_order

    for rz in (triangle_rz, star4_rz):
        for s in range(rz.q):
            state = encode_secret(rz.program, s)
            for subset in subsets_in_order(rz.structure.players):
                coords = coords_of(rz.program, subset)
                eigs = np.linalg.eigvalsh(_reduce_pure(state, coords))
                nonzero = eigs[eigs > 1e-10]
                assert np.allclose(nonzero, nonzero[0], atol=1e-8)


def test_entropy_range(triangle_rz, uniform2):
    from spanshare.access import subsets_in_order

    for subset in subsets_in_order(triangle_rz.structure.players):
        bits = oracle_subset_entropy(triangle_rz, uniform2, subset)
        held = len(coords_of(triangle_rz.program, subset))
        assert -1e-12 <= bits <= held * math.log2(2) + 1e-12


def test_simulation_cap(triangle_rz, uniform2):
    with pytest.raises(ValueError):
        encode_secret(triangle_rz.program, 0, cap=32)
    with pytest.raises(ValueError):
        oracle_subset_entropy(triangle_rz, uniform2, (1,), cap=32)


def test_oracle_guards_name_the_fault(triangle_rz, uniform2):
    with pytest.raises(ValueError, match="secret field does not match the program field"):
        _sweep(triangle_rz, SecretSpec.uniform(3), oracle.DEFAULT_CAP)
    with pytest.raises(ValueError, match=r"subset \(1, 4\) contains unknown players"):
        oracle_subset_entropy(triangle_rz, uniform2, (4, 1))


def test_formula_and_oracle_disagree_on_nothing_but_match_reports(
    triangle_rz, uniform2
):
    # spot-check that the two routes compute the same numbers they
    # publish individually
    for subset in [(1,), (2, 3), (1, 2, 3)]:
        formula = subset_report(triangle_rz, uniform2, subset).entropy_bits
        oracle_bits = oracle_subset_entropy(triangle_rz, uniform2, subset)
        assert abs(formula - oracle_bits) < 1e-10


def small_schemes():
    """Every connected realizable structure with n <= 4 and d <= 9, at q = 2 and 3."""
    for n in range(1, 5):
        for g in enumerate_structures(n, realizable_only=True, connected_only=True):
            for q in (2, 3):
                rz = realize(g, q)
                if rz.program.matrix.rows <= 9:
                    yield rz


def dense_measures(rz, secret, subset):
    """Mixture entropy and per-pair measures of `subset` from dense state vectors.

    Pairs run over combinations(range(q), 2): overlaps Tr(rho_s rho_t)
    on authorized sets, trace distances on the others, as the secrecy
    sweep uses them. Each is taken on the smaller side: the entropy
    from the purification sum_s sqrt(p_s)|psi_s>|s> reduced onto the
    complement when that is smaller, and the overlap as
    ||M_s^+ M_t||_F^2, M_s the amplitudes as a q^c x q^(d-c) matrix.
    """
    q, d = rz.q, rz.program.matrix.rows
    coords = coords_of(rz.program, subset)
    rest = [c for c in range(1, d + 1) if c not in coords]
    states = [encode_secret(rz.program, s) for s in range(q)]
    pairs = list(combinations(range(q), 2))
    if len(coords) <= len(rest) + 1:
        mixture = sum(p * _reduce_pure(st, coords) for p, st in zip(secret.probabilities, states))
        entropy = entropy_bits_of(mixture)
    else:
        weighted = [math.sqrt(p) * st.amplitudes for p, st in zip(secret.probabilities, states)]
        purified = PureState(q, d + 1, np.stack(weighted, axis=1).ravel())
        entropy = reduced_entropy(purified, rest + [d + 1])
    if not is_authorized(rz.structure, subset):
        reds = [_reduce_pure(st, coords) for st in states]
        return entropy, [trace_distance(reds[s], reds[t]) for s, t in pairs]
    if len(coords) <= len(rest):
        reds = [_reduce_pure(st, coords) for st in states]
        return entropy, [np.vdot(reds[t], reds[s]).real for s, t in pairs]
    order = [c - 1 for c in coords + tuple(rest)]
    shape = (q ** len(coords), -1)
    mats = [st.amplitudes.reshape([q] * d).transpose(order).reshape(shape) for st in states]
    return entropy, [np.linalg.norm(mats[s].conj().T @ mats[t]) ** 2 for s, t in pairs]


def assert_sweep_matches_dense(rz, secret):
    compared = 0
    for subsets, _, batch_bits, batch_w, bounds in _sweep(rz, secret, oracle.DEFAULT_CAP):
        for subset, bits, lo, hi in zip(subsets, batch_bits, bounds, bounds[1:]):
            w = batch_w[lo:hi]
            entropy, measures = dense_measures(rz, secret, subset)
            assert abs(bits - entropy) < 1e-10, subset
            swept = [x for _, _, x in _pair_measures(w, is_authorized(rz.structure, subset))]
            assert np.allclose(swept, measures, rtol=0, atol=1e-10), subset
            compared += 1
    assert compared == 2**rz.structure.n


def test_sweep_matches_dense_reference_on_small_schemes():
    schemes = list(small_schemes())
    assert len(schemes) == 22
    named = [[[1, 2], [1, 3], [2, 3]], [[1, 2], [1, 3]], STAR_HUB2_SETS]  # triangle, fan
    covered = {(rz.structure.minimal_sets, rz.q) for rz in schemes}
    assert covered >= {(tuple(map(tuple, sets)), q) for sets in named for q in (2, 3)}
    for rz in schemes:
        biased = SecretSpec(rz.q, (0.9, 0.1) if rz.q == 2 else (0.5, 0.3, 0.2))
        for secret in (SecretSpec.uniform(rz.q), biased):
            assert_sweep_matches_dense(rz, secret)


def flipped(rz, row, col, value=None):
    """`rz` with one program-matrix entry set to `value` (default: raised
    by 1 mod q), or a whole column when `row` is None; the layout is kept."""
    entries = [list(r) for r in rz.program.matrix.entries]
    for i in range(len(entries)) if row is None else [row]:
        entries[i][col] = (entries[i][col] + 1) % rz.q if value is None else value
    matrix = FieldMatrix(rz.program.field, tuple(map(tuple, entries)), rz.program.matrix.cols)
    bad = SchemeRealization(rz.structure, rz.layout, rz.hidden_player, rz.q)
    bad.__dict__["program"] = MonotoneSpanProgram.from_matrix(matrix, rz.program.psi)
    return bad


def test_flipped_program_entry_is_caught_and_matches_dense(triangle_rz, fan_rz, uniform2):
    # The sweep reads the program matrix, the formula the layout, so a
    # corrupted matrix shows: row 1, player 2's closing row of block
    # (1, 2), loses its band entry and hands player 2 the secret.
    mismatches, report = verify_scheme(flipped(triangle_rz, 1, 1), uniform2)
    assert [m.subset for m in mismatches] == [(1,), (1, 3), (2, 3)]
    assert [v[:3] for v in report.secrecy_violations] == [((2,), 0, 1)]
    # Every single-entry flip of both programs, against the dense reference.
    for rz in (triangle_rz, fan_rz):
        for row in range(rz.program.matrix.rows):
            for col in range(rz.program.matrix.cols):
                bad = flipped(rz, row, col)
                try:
                    oracle._encode(bad.program, oracle.DEFAULT_CAP)
                except (ValueError, RuntimeError):
                    continue  # encode_secret refuses it the same way
                assert_sweep_matches_dense(bad, uniform2)


def test_encoding_checks_collisions_and_coset_overlap(triangle_rz, uniform2):
    # A zero band column leaves one free coordinate unused: codewords repeat.
    band_zero = flipped(triangle_rz, None, 1, 0)
    with pytest.raises(ValueError, match="encoding collides"):
        verify_scheme(band_zero, uniform2)
    with pytest.raises(ValueError, match="encoding collides"):
        encode_secret(band_zero.program, 0)
    # A zero secret column gives every secret the same coset.
    with pytest.raises(RuntimeError, match="secret cosets overlap"):
        verify_scheme(flipped(triangle_rz, None, 0, 0), uniform2)


def test_codewords_off_their_coset_fail_the_block_checks(
    triangle_rz, uniform2, monkeypatch, tmp_path, capsys
):
    # 000000 -> 000001 collides with no codeword, so `_encode` passes it
    # and only the sweep's block checks can see it.
    index = oracle.codewords(triangle_rz.program)
    index[0, 0] = 1
    monkeypatch.setattr(oracle, "codewords", lambda msp: index.copy())
    with pytest.raises(RuntimeError, match="neither identical nor disjoint"):
        oracle_subset_entropy(triangle_rz, uniform2, (3,))
    with pytest.raises(RuntimeError, match="not complete bipartite"):
        oracle_subset_entropy(triangle_rz, uniform2, (1, 2))
    path = tmp_path / "triangle.json"
    path.write_text('{"n": 3, "minimal_sets": [[1,2],[2,3],[3,1]]}')
    assert cli.main(["verify-oracle", "--structure", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: an A-pattern lies in two blocks; row sets are neither identical nor disjoint\n"
    )


def test_keys_past_64_bits_are_a_one_line_input_error(tmp_path, capsys):
    # 4-of-7 has d = 140: within a cap of 2^140, but its keys need 141 bits.
    path = tmp_path / "t4of7.json"
    sets = [list(c) for c in combinations(range(1, 8), 4)]
    path.write_text(json.dumps({"n": 7, "minimal_sets": sets}))
    argv = ["verify-oracle", "--structure", str(path), "--cap", str(2**140)]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: q^(d+1) = 2^141 overflows the oracle's 64-bit codeword keys\n"


def test_verify_oracle_encodes_once_and_reduces_each_subset_once(capsys, tmp_path, monkeypatch):
    path = tmp_path / "fan.json"
    path.write_text('{"n": 3, "minimal_sets": [[1,2],[1,3]]}')
    calls = {"codewords": 0, "grouped": []}
    real_codewords, real_blocks = oracle.codewords, oracle._blocks

    def counted_codewords(msp):
        calls["codewords"] += 1
        return real_codewords(msp)

    def counted_blocks(index, kept, d):
        calls["grouped"] += [tuple(k) for k in kept]
        return real_blocks(index, kept, d)

    monkeypatch.setattr(oracle, "codewords", counted_codewords)
    monkeypatch.setattr(oracle, "_blocks", counted_blocks)
    monkeypatch.setattr(np, "linalg", None)  # the sweep never diagonalizes
    assert cli.main(["verify-oracle", "--structure", str(path), "--q", "3"]) == 0
    assert capsys.readouterr().out == "OK: 8/8 subsets match; secrecy OK; recoverability OK\n"
    assert calls["codewords"] == 1
    assert len(calls["grouped"]) == len(set(calls["grouped"])) == 8


@pytest.mark.parametrize(
    "sets, q",
    [(STAR_HUB2_SETS, 3), ([[1, 2], [1, 3]], 3), ([[1, 2, 3], [1, 2, 4], [2, 3, 4]], 2)],
    ids=["star_hub2", "fan", "d20"],
)
def test_sweep_memory_is_bounded_by_the_cap(sets, q):
    # At the smallest cap that runs it, every array holds at most
    # q * cap = q^(d+1) entries; a few are live at once. The dense
    # route needed a 5.8 GiB operator for STAR_HUB2 at q = 3 and
    # 64 GiB for the d = 20 structure at q = 2.
    rz = realize(from_minimal_sets(max(map(max, sets)), sets), q)
    cap = q**rz.program.matrix.rows
    tracemalloc.start()
    try:
        mismatches, report = verify_scheme(rz, SecretSpec.uniform(q), cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mismatches == [] and report.ok()
    assert peak < 16 * 8 * q * cap


def test_verify_scheme_reports_the_cap_before_the_support(triangle_rz):
    point = SecretSpec(2, (1.0, 0.0))
    with pytest.raises(ValueError, match="exceeds the cap"):
        verify_scheme(triangle_rz, point, cap=32)
    with pytest.raises(ValueError, match="full-support"):
        verify_scheme(triangle_rz, point)
    assert compare_with_formula(triangle_rz, point) == []
