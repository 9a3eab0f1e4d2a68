"""Rank-formula entropies, monotonicity sweeps, and tent profiles."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanshare.access import enumerate_structures, from_minimal_sets
from spanshare.entropy import (
    SecretSpec,
    all_subset_entropies,
    chain_profile,
    extremal_check,
    greedy_chain,
    maximal_chains,
    realize,
    reports_to_csv,
    subset_entropy,
    subset_report,
    verify_monotonicity,
)

from conftest import all_subsets, brute_authorized


def test_secret_spec_validation():
    with pytest.raises(ValueError):
        SecretSpec(2, (0.5, 0.6))
    with pytest.raises(ValueError):
        SecretSpec(2, (1.2, -0.2))
    with pytest.raises(ValueError):
        SecretSpec(3, (0.5, 0.5))


def test_secret_spec_rejects_non_finite_probabilities():
    nan, inf = float("nan"), float("inf")
    for dist in ((nan, nan), (nan, 0.5), (inf, -inf), (inf, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            SecretSpec(2, dist)


def test_uniform_secret_over_a_large_field():
    # A plain sum of 100003 copies of 1/100003 misses 1 by more than 1e-12.
    assert abs(SecretSpec.uniform(100003).entropy_bits - math.log2(100003)) < 1e-9


def test_secret_entropy_values():
    assert SecretSpec.uniform(2).entropy_bits == 1.0
    assert SecretSpec.point(2, 0).entropy_bits == 0.0
    h = SecretSpec(2, (0.9, 0.1)).entropy_bits
    assert abs(h - (-0.9 * math.log2(0.9) - 0.1 * math.log2(0.1))) < 1e-15
    assert abs(SecretSpec.uniform(3).entropy_bits - math.log2(3)) < 1e-15


def test_triangle_subset_reports(triangle, triangle_rz, uniform2):
    empty = subset_report(triangle_rz, uniform2, ())
    assert empty.entropy_bits == 0.0 and not empty.authorized

    full = subset_report(triangle_rz, uniform2, (1, 2, 3))
    assert full.entropy_bits == 1.0  # exactly the secret entropy

    single = subset_report(triangle_rz, uniform2, (1,))
    assert (single.rank_subset, single.rank_complement, single.rank_total) == (2, 4, 4)
    assert single.entropy_bits == 2.0


def test_triangle_sweep_values(triangle, triangle_rz, uniform2):
    reports = all_subset_entropies(triangle, uniform2, triangle_rz)
    assert [r.entropy_bits for r in reports] == [0.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 1.0]
    assert [len(r.subset) for r in reports] == [0, 1, 1, 1, 2, 2, 2, 3]


def test_single_player_sweep():
    g = from_minimal_sets(1, [[1]])
    reports = all_subset_entropies(g, SecretSpec.uniform(2))
    assert [r.entropy_bits for r in reports] == [0.0, 1.0]


def test_star4_sweep_is_finite_and_nonnegative(star4, star4_rz, uniform2):
    reports = all_subset_entropies(star4, uniform2, star4_rz)
    assert len(reports) == 16
    assert all(r.entropy_bits >= 0 for r in reports)


def test_subset_entropy_convenience(triangle, uniform2):
    assert subset_entropy(triangle, uniform2, (2, 3)).entropy_bits == 3.0


def test_rejects_unrealizable_and_field_mismatch(triangle, triangle_rz):
    with pytest.raises(ValueError):
        subset_entropy(from_minimal_sets(4, [[1, 2], [3, 4]]), SecretSpec.uniform(2), ())
    with pytest.raises(ValueError):
        subset_report(triangle_rz, SecretSpec.uniform(3), (1,))
    with pytest.raises(ValueError):
        subset_report(triangle_rz, SecretSpec.uniform(2), (9,))


def test_fan_goes_through_purification(fan, fan_rz, uniform2):
    assert fan_rz.hidden_player == 4
    # the hidden share participates in complements, never in queries
    full = subset_report(fan_rz, uniform2, (1, 2, 3))
    assert full.entropy_bits >= uniform2.entropy_bits
    with pytest.raises(ValueError):
        subset_report(fan_rz, uniform2, (4,))


def test_monotonicity_clean_cases(triangle, fan, uniform2):
    assert verify_monotonicity(triangle, uniform2) == []
    assert verify_monotonicity(fan, uniform2) == []
    threshold35 = from_minimal_sets(
        5, [list(c) for c in __import__("itertools").combinations(range(1, 6), 3)]
    )
    assert verify_monotonicity(threshold35, SecretSpec.uniform(2)) == []


def test_monotonicity_exhaustive_self_dual():
    from spanshare.access import classify

    for n in range(1, 5):
        for g in enumerate_structures(n, realizable_only=True, connected_only=True):
            if not classify(g).self_dual:
                continue
            assert verify_monotonicity(g, SecretSpec.uniform(2)) == []


def test_chain_profile_triangle(triangle, triangle_rz, uniform2):
    profile = chain_profile(
        triangle, uniform2, [(), (1,), (1, 2), (1, 2, 3)], triangle_rz
    )
    assert profile.entropies == (0.0, 2.0, 3.0, 1.0)
    assert profile.crossover == 2
    assert profile.is_tent()


def test_chain_profile_all_triangle_chains(triangle, triangle_rz, uniform2):
    for chain in maximal_chains(triangle):
        profile = chain_profile(triangle, uniform2, chain, triangle_rz)
        assert profile.entropies[0] == 0.0
        assert profile.entropies[-1] == uniform2.entropy_bits
        assert profile.is_tent()
        flags = [r.authorized for r in profile.reports]
        assert flags == [False] * profile.crossover + [True] * (4 - profile.crossover)


def test_chain_profile_fan_ends_above_secret(fan, fan_rz, uniform2):
    for chain in maximal_chains(fan):
        profile = chain_profile(fan, uniform2, chain, fan_rz)
        assert profile.entropies[-1] >= uniform2.entropy_bits


def test_all_chains_are_tents_for_small_self_dual_structures():
    from spanshare.access import classify

    for n in range(1, 5):
        for g in enumerate_structures(n, realizable_only=True, connected_only=True):
            if not classify(g).self_dual:
                continue
            rz = realize(g, 2)
            secret = SecretSpec.uniform(2)
            for chain in maximal_chains(g):
                profile = chain_profile(g, secret, chain, rz)
                assert profile.is_tent()
                flags = [r.authorized for r in profile.reports]
                assert flags == sorted(flags)  # single crossover


def test_chain_validation(triangle, uniform2):
    with pytest.raises(ValueError):
        chain_profile(triangle, uniform2, [(), (1, 2), (1, 2, 3)])
    with pytest.raises(ValueError):
        chain_profile(triangle, uniform2, [(1,), (1, 2), (1, 2, 3)])
    with pytest.raises(ValueError):
        chain_profile(triangle, uniform2, [(), (1,), (1, 2)])


def test_greedy_chain(triangle):
    assert greedy_chain(triangle) == [(), (1,), (1, 2), (1, 2, 3)]


def test_extremal_triangle(triangle, triangle_rz, uniform2):
    report = extremal_check(triangle, uniform2, triangle_rz)
    assert report.all_pass()
    assert report.max_authorized.entropy_bits == 3.0
    assert report.max_authorized.subset in {(1, 2), (1, 3), (2, 3)}
    assert report.max_unauthorized.entropy_bits == 2.0
    assert report.max_unauthorized.subset in {(1,), (2,), (3,)}


def test_extremal_single_player():
    g = from_minimal_sets(1, [[1]])
    report = extremal_check(g, SecretSpec.uniform(2))
    assert report.all_pass()
    assert report.max_authorized.subset == (1,)


def test_extremal_exhaustive():
    for n in range(1, 5):
        for g in enumerate_structures(n, realizable_only=True, connected_only=True):
            assert extremal_check(g, SecretSpec.uniform(2)).all_pass()


def test_self_dual_complement_relation():
    # For pure schemes, complements of authorized sets sit exactly one
    # secret entropy lower.
    from spanshare.access import classify, is_authorized

    secret = SecretSpec.uniform(2)
    for n in range(1, 5):
        for g in enumerate_structures(n, realizable_only=True, connected_only=True):
            if not classify(g).self_dual:
                continue
            rz = realize(g, 2)
            for a in all_subsets(n):
                if not is_authorized(g, a):
                    continue
                comp = tuple(sorted(set(g.players) - set(a)))
                sa = subset_report(rz, secret, a)
                sc = subset_report(rz, secret, comp)
                assert abs(sc.entropy_bits - (sa.entropy_bits - 1.0)) < 1e-12


def test_complement_reports_swap_ranks(triangle, triangle_rz, uniform2):
    for a in all_subsets(3):
        comp = tuple(sorted({1, 2, 3} - set(a)))
        ra = subset_report(triangle_rz, uniform2, a)
        rc = subset_report(triangle_rz, uniform2, comp)
        assert (ra.rank_subset, ra.rank_complement) == (rc.rank_complement, rc.rank_subset)
        assert ra.rank_total == rc.rank_total


def test_entropies_are_lattice_points(star4, star4_rz):
    # every value is an integer multiple of log2 q plus 0 or S(secret)
    secret = SecretSpec(2, (0.9, 0.1))
    for r in all_subset_entropies(star4, secret, star4_rz):
        base = secret.entropy_bits if r.authorized else 0.0
        assert abs(r.entropy_bits - base - round(r.entropy_bits - base)) < 1e-12


def test_csv_rendering(triangle, triangle_rz, uniform2):
    profile = chain_profile(
        triangle, uniform2, [(), (3,), (2, 3), (1, 2, 3)], triangle_rz
    )
    text = reports_to_csv(profile.reports)
    assert text.splitlines() == [
        "subset,size,authorized,entropy_bits",
        ",0,false,0.000000",
        "3,1,false,2.000000",
        "2-3,2,true,3.000000",
        "1-2-3,3,true,1.000000",
    ]


def test_secret_spec_rejects_fields_below_two():
    for q in (-1, 0, 1):
        with pytest.raises(ValueError, match="at least 2"):
            SecretSpec.uniform(q)


def test_realize_enumerates_the_dual_once_pure_twice_purified(monkeypatch, triangle, fan):
    from spanshare import access

    calls = []
    original = access.dual

    def counting_dual(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(access, "dual", counting_dual)
    realize(triangle, 2)
    assert len(calls) == 1
    calls.clear()
    realize(fan, 2)
    assert len(calls) == 2


def test_rank_total_is_the_rank_of_the_whole_matrix():
    """subset_report takes m = e from the layout; elimination must agree.

    Checked on the benchmark's threshold sizes k-of-(2k-1), up to the
    630 x 505 matrix of 5-of-9. With k >= 2 blocks the matrix has k - 1
    spare rows, so a lost row can leave rank(M) = e; the odd-player
    subset's a and b are held to elimination as well.
    """
    from spanshare.fields import rank

    for k in (3, 4, 5):
        n = 2 * k - 1
        g = from_minimal_sets(n, [list(c) for c in itertools.combinations(range(1, n + 1), k)])
        odd, even = tuple(range(1, n + 1, 2)), tuple(range(2, n + 1, 2))
        for q in (2, 3, 5):
            rz = realize(g, q)
            assert rank(rz.program.matrix) == rz.layout.e
            report = subset_report(rz, SecretSpec.uniform(q), odd)
            assert report.rank_total == rz.layout.e
            assert report.rank_subset == rank(rz.program.submatrix(odd))
            assert report.rank_complement == rank(rz.program.submatrix(even))


def _assert_ranks_match_elimination(g, q):
    """m once, and a and b of every report, equal exact elimination's ranks."""
    from spanshare.fields import rank

    rz = realize(g, q)
    m = rank(rz.program.matrix)
    assert m == rz.layout.e
    for report in all_subset_entropies(g, SecretSpec.uniform(q), rz):
        complement = set(rz.full_players) - set(report.subset)
        assert report.rank_total == m
        assert report.rank_subset == rank(rz.program.submatrix(report.subset))
        assert report.rank_complement == rank(rz.program.submatrix(complement))


def test_subset_ranks_match_elimination_exhaustive():
    from spanshare.access import classify

    purified = 0
    for n in range(1, 5):
        for g in enumerate_structures(n, realizable_only=True, connected_only=True):
            purified += not classify(g).self_dual
            for q in (2, 3, 5):
                _assert_ranks_match_elimination(g, q)
    assert purified > 0


@st.composite
def realizable_structures(draw):
    """Connected structures on up to 6 players with no two disjoint authorized sets."""
    n = draw(st.integers(1, 6))
    candidates = draw(
        st.lists(st.frozensets(st.integers(1, n), min_size=1), min_size=1, max_size=8)
    )
    family = []
    for s in candidates:
        if s not in family and all(s & t for t in family):
            family.append(s)
    minimal = [s for s in family if not any(t < s for t in family)]
    used = sorted(set().union(*minimal))
    relabel = {p: i + 1 for i, p in enumerate(used)}
    return from_minimal_sets(len(used), [sorted(relabel[p] for p in s) for s in minimal])


@settings(max_examples=60, deadline=None)
@given(realizable_structures(), st.sampled_from((2, 3, 5)))
def test_subset_ranks_match_elimination_random(g, q):
    _assert_ranks_match_elimination(g, q)


def test_authorization_flags_match_the_minimal_sets():
    for n in range(1, 5):
        for g in enumerate_structures(n, realizable_only=True, connected_only=True):
            for report in all_subset_entropies(g, SecretSpec.uniform(2)):
                assert report.authorized == brute_authorized(g.minimal_sets, report.subset)


def test_subset_report_runs_no_elimination(monkeypatch, triangle, fan, star4):
    from spanshare import fields

    def refuse(*args, **kwargs):
        raise AssertionError("elimination ran")

    monkeypatch.setattr(fields, "_rref", refuse)
    realizations = [(g, realize(g, 2)) for g in (triangle, fan, star4)]
    secret = SecretSpec.uniform(2)
    for g, rz in realizations:
        assert len(all_subset_entropies(g, secret, rz)) == 2**g.n
        assert verify_monotonicity(g, secret, rz) == []
        assert extremal_check(g, secret, rz).all_pass()
        assert chain_profile(g, secret, greedy_chain(g), rz).is_tent()


def _all_pairs_violations(reports):
    """The rule verify_monotonicity used to apply: every nested same-flag pair."""
    out = set()
    for small in reports:
        for large in reports:
            if not set(small.subset) < set(large.subset):
                continue
            if small.authorized != large.authorized:
                continue
            if small.authorized and small.rank_excess < large.rank_excess:
                out.add((small.subset, large.subset))
            if not small.authorized and small.rank_excess > large.rank_excess:
                out.add((small.subset, large.subset))
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_covering_pairs_find_a_violation_iff_all_pairs_do(data):
    from spanshare.access import subsets_in_order
    from spanshare.entropy import EntropyReport, _covering_violations

    n = data.draw(st.integers(1, 5))
    subsets = list(subsets_in_order(range(1, n + 1)))
    generators = data.draw(st.lists(st.sampled_from(subsets), max_size=4))
    excess = data.draw(st.lists(st.integers(0, 3), min_size=len(subsets), max_size=len(subsets)))
    reports = [
        EntropyReport(a, any(set(gen) <= set(a) for gen in generators), x, 3, 3, float(x))
        for a, x in zip(subsets, excess)
    ]
    violations = _covering_violations(reports, tuple(range(1, n + 1)))
    covering = {(v.smaller.subset, v.larger.subset) for v in violations}
    reference = _all_pairs_violations(reports)
    assert bool(covering) == bool(reference)
    assert covering == {(s, l) for s, l in reference if len(l) == len(s) + 1}


def test_maximal_chains_refuses_beyond_the_enumeration_cap():
    g = from_minimal_sets(10, [list(range(1, 11))])  # 10! > 2^20 chains
    with pytest.raises(ValueError, match="10! chain enumeration"):
        maximal_chains(g)
    assert len(list(maximal_chains(from_minimal_sets(4, [[1, 2, 3, 4]])))) == 24
