"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines inline. Every tolerance is pinned here, not configured.
"""

import math
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np

from spanshare.access import classify, enumerate_structures, from_minimal_sets
from spanshare.entropy import (
    SecretSpec,
    chain_profile,
    maximal_chains,
    realize,
    subset_report,
    verify_monotonicity,
)
from spanshare.msp import (
    build_normal_form,
    dispensable_rows,
    rank_bookkeeping,
    row_independence_case,
    structural_check,
)
from spanshare.oracle import (
    compare_with_formula,
    oracle_subset_entropy,
    verify_secrecy_recoverability,
)

from conftest import all_subsets
from dense_reference import basis_string, encode_secret, encoding_image, to_css

TRIANGLE = from_minimal_sets(3, [[1, 2], [2, 3], [3, 1]])
FAN = from_minimal_sets(3, [[1, 2], [1, 3]])
STAR_HUB2 = from_minimal_sets(4, [[1, 2], [2, 3], [2, 4], [1, 3, 4]])
THRESHOLD_3_OF_5 = from_minimal_sets(5, [list(c) for c in combinations(range(1, 6), 3)])

UNIFORM = SecretSpec.uniform(2)
BIASED = SecretSpec(2, (0.9, 0.1))


@contextmanager
def criterion(number: int, name: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL {name}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, f"criterion {number} took {elapsed:.2f}s"
    print(f"ACCEPTANCE {number:2d} PASS {name} ({elapsed:.2f}s)")


def test_criterion_01_normal_form_reproduction():
    with criterion(1, "normal-form matrix and labeling reproduction", 1.0):
        program, layout = build_normal_form(TRIANGLE, 2)
        assert program.matrix.entries == (
            (0, 1, 0, 0),
            (1, 1, 0, 0),
            (0, 0, 1, 0),
            (1, 0, 1, 0),
            (0, 0, 0, 1),
            (1, 0, 0, 1),
        )
        # Known discrepancy, recorded: the worked example this matrix
        # comes from lists row 3 under player 1, but row 3 is the
        # identity row of the {2,3} block, so the labeling rule (first
        # participants take the identity rows, the last participant the
        # closing row) assigns it to player 2. The rule wins.
        assert program.psi == (1, 2, 2, 3, 3, 1)
        assert program.psi[2] == 2


def test_criterion_02_encoding_reproduction():
    with criterion(2, "encoded superpositions for both secrets", 1.0):
        program, _ = build_normal_form(TRIANGLE, 2)
        expected = {
            0: {
                "000000", "110000", "001100", "000011",
                "111100", "110011", "001111", "111111",
            },
            # One string of the second superposition circulates
            # misprinted as 011110; it fails both parity relations of
            # the code (coordinates 1-4 and 1,2,5,6 must sum to zero),
            # while 010110 satisfies them and is produced by the
            # construction. The other seven strings agree.
            1: {
                "101010", "011010", "100110", "101001",
                "010110", "011001", "100101", "010101",
            },
        }
        for s, strings in expected.items():
            state = encode_secret(program, s)
            support = np.nonzero(state.amplitudes)[0]
            assert {basis_string(i, 2, 6) for i in support} == strings
            assert np.allclose(
                state.amplitudes[support], 1 / math.sqrt(8), atol=1e-10
            )


def test_criterion_03_formula_vs_oracle():
    with criterion(3, "rank formula matches simulation on three schemes", 30.0):
        cases = [TRIANGLE, FAN, STAR_HUB2]
        for g in cases:
            rz = realize(g, 2)
            for secret in (UNIFORM, BIASED):
                mismatches = compare_with_formula(rz, secret, tolerance=1e-6)
                assert mismatches == [], (g.minimal_sets, secret.distribution)


def test_criterion_04_adjudicated_share_entropies():
    with criterion(4, "adjudicated entropy values for the reference scheme", 5.0):
        rz = realize(TRIANGLE, 2)
        log2q = 1.0
        # Both independent routes give 2*log2(q) for a single share and
        # 2*log2(q) + S(secret) for an authorized pair. Values of
        # log2(q) and S(secret) + log2(q) sometimes quoted for this
        # example undercount player 1's two coordinates; the
        # discrepancy is reported here rather than silently absorbed.
        for secret in (UNIFORM, BIASED):
            single_f = subset_report(rz, secret, (1,)).entropy_bits
            single_o = oracle_subset_entropy(rz, secret, (1,))
            assert abs(single_f - 2 * log2q) < 1e-9
            assert abs(single_o - 2 * log2q) < 1e-9
            pair_f = subset_report(rz, secret, (1, 2)).entropy_bits
            pair_o = oracle_subset_entropy(rz, secret, (1, 2))
            assert abs(pair_f - (2 * log2q + secret.entropy_bits)) < 1e-9
            assert abs(pair_o - (2 * log2q + secret.entropy_bits)) < 1e-9
            # the uncontested endpoint values
            assert subset_report(rz, secret, ()).entropy_bits == 0.0
            assert abs(
                oracle_subset_entropy(rz, secret, (1, 2, 3)) - secret.entropy_bits
            ) < 1e-9
        print(
            "  note: single-share entropy is 2*log2(q), not log2(q); "
            "authorized-pair entropy is 2*log2(q) + S(secret)"
        )


def test_criterion_05_monotonicity_exhaustive():
    with criterion(5, "entropy monotonicity for all small self-dual schemes", 60.0):
        checked = 0
        for n in range(1, 5):
            for g in enumerate_structures(n, realizable_only=True, connected_only=True):
                if not classify(g).self_dual:
                    continue
                for q in (2, 3):
                    assert verify_monotonicity(g, SecretSpec.uniform(q)) == []
                    checked += 1
        assert checked == 12  # 6 structures x 2 fields
        for q in (2, 3):
            assert verify_monotonicity(THRESHOLD_3_OF_5, SecretSpec.uniform(q)) == []


def test_criterion_06_row_cases_and_rank_bookkeeping():
    with criterion(6, "row independence cases and rank accounting", 10.0):
        fan_rz = realize(FAN, 2)
        purified = from_minimal_sets(4, fan_rz.layout.minimal_set_order)
        cases = 0
        for g, (program, layout) in (
            (TRIANGLE, build_normal_form(TRIANGLE, 2)),
            (purified, (fan_rz.program, fan_rz.layout)),
        ):
            players = set(g.players)
            for a in all_subsets(g.n):
                for p in players - set(a):
                    b = tuple(sorted(players - set(a) - {p}))
                    if not any(set(ms) <= set(b) for ms in g.minimal_sets):
                        continue
                    rank_bookkeeping(program, layout, g, a, p)  # raises on violation
                    for a_i in g.minimal_sets:
                        if p not in a_i:
                            continue
                        case = row_independence_case(program, layout, a, p, a_i)
                        assert case.consistent
                        cases += 1
        assert cases > 0


def test_criterion_07_tent_profiles():
    with criterion(7, "tent-shaped chain profiles", 5.0):
        rz = realize(TRIANGLE, 2)
        for chain in maximal_chains(TRIANGLE):
            profile = chain_profile(TRIANGLE, UNIFORM, chain, rz)
            assert profile.is_tent()
            assert profile.entropies[0] == 0.0
            assert profile.entropies[-1] == UNIFORM.entropy_bits
            flags = [r.authorized for r in profile.reports]
            assert flags == sorted(flags)  # single crossover
        fan_rz = realize(FAN, 2)
        for chain in maximal_chains(FAN):
            profile = chain_profile(FAN, UNIFORM, chain, fan_rz)
            assert profile.entropies[-1] >= UNIFORM.entropy_bits


def test_criterion_08_secrecy_and_recoverability():
    with criterion(8, "perfect secrecy and recoverability", 30.0):
        single = from_minimal_sets(1, [[1]])
        for g in (TRIANGLE, FAN, STAR_HUB2, single):
            rz = realize(g, 2)
            report = verify_secrecy_recoverability(rz, UNIFORM)
            assert report.ok(), g.minimal_sets
        report3 = verify_secrecy_recoverability(realize(TRIANGLE, 3), SecretSpec.uniform(3))
        assert report3.ok()


def test_criterion_09_css_coset_equality():
    with criterion(9, "coset form equals direct encoding enumeration", 10.0):
        single = from_minimal_sets(1, [[1]])
        programs = [
            build_normal_form(TRIANGLE, 2),
            build_normal_form(TRIANGLE, 3),
            build_normal_form(STAR_HUB2, 2),
            build_normal_form(single, 2),
        ]
        fan_rz = realize(FAN, 2)
        programs.append((fan_rz.program, fan_rz.layout))
        for program, layout in programs:
            form = to_css(program, layout)
            for s in range(program.field.q):
                assert form.coset(s) == encoding_image(program, s)


def test_criterion_10_structure_and_no_dispensable_rows():
    with criterion(10, "structural properties and indispensable rows", 30.0):
        single = from_minimal_sets(1, [[1]])
        suite = [TRIANGLE, FAN, STAR_HUB2, single, THRESHOLD_3_OF_5]
        for g in suite:
            rz = realize(g, 2)
            report = structural_check(rz.program, rz.layout)
            assert report.all_pass(), g.minimal_sets
            realized_on = from_minimal_sets(
                rz.program.n_players, rz.layout.minimal_set_order
            )
            assert dispensable_rows(rz.program, realized_on) == []
