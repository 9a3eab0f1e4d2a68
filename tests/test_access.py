"""Access-structure combinatorics, checked against subset enumeration."""

import json
from collections import Counter
from functools import cached_property
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanshare import access
from spanshare.access import (
    AccessStructure,
    classify,
    dual,
    enumerate_structures,
    from_minimal_sets,
    is_authorized,
    maximal_unauthorized,
    purify,
    structure_from_json,
    structure_to_json,
)
from spanshare.entropy import realize

from conftest import all_subsets, brute_authorized, brute_dual_minimal_sets


def test_triangle_canonicalization(triangle):
    assert triangle.n == 3
    assert triangle.minimal_sets == ((1, 2), (1, 3), (2, 3))
    # input order survives for layout purposes, including member order
    assert triangle.presentation == ((1, 2), (2, 3), (3, 1))


def test_superset_dropped():
    g = from_minimal_sets(3, [[1, 2], [1, 2, 3]])
    assert g.minimal_sets == ((1, 2),)


def test_antichain_kept(fan):
    assert fan.minimal_sets == ((1, 2), (1, 3))


def test_duplicates_rejected():
    with pytest.raises(ValueError):
        from_minimal_sets(3, [[1, 2], [2, 1]])


def test_empty_inputs_rejected():
    with pytest.raises(ValueError):
        from_minimal_sets(3, [])
    with pytest.raises(ValueError):
        from_minimal_sets(3, [[]])
    with pytest.raises(ValueError):
        from_minimal_sets(3, [[1, 4]])
    with pytest.raises(ValueError):
        from_minimal_sets(3, [[1, 1, 2]])
    # Python input meets the same integer check as JSON: one ValueError naming the value.
    triangle = [[1, 2], [2, 3], [3, 1]]
    for n, sets, value in (
        (3, [[True, 2], [2, 3], [3, 1]], "True"),
        (3, np.array(triangle), repr(np.int64(1))),
        (3, [["a", 2]], "'a'"),
        (3.0, triangle, "3.0"),
        (True, triangle, "True"),
    ):
        with pytest.raises(ValueError) as info:
            from_minimal_sets(n, sets)
        assert str(info.value) == f"expected an integer in structure JSON, got {value}"


def test_is_authorized(triangle):
    assert is_authorized(triangle, (1, 2))
    assert not is_authorized(triangle, ())
    assert is_authorized(triangle, (1, 2, 3))
    assert not is_authorized(triangle, (3,))
    with pytest.raises(ValueError):
        is_authorized(triangle, (4,))


def test_is_authorized_matches_brute_force(triangle, fan, star4):
    for g in (triangle, fan, star4):
        for a in all_subsets(g.n):
            assert is_authorized(g, a) == brute_authorized(g.minimal_sets, a)


def test_dual_triangle_is_itself(triangle):
    assert dual(triangle).minimal_sets == triangle.minimal_sets
    assert dual(triangle).minimal_sets == tuple(
        brute_dual_minimal_sets(3, triangle.minimal_sets)
    )


def test_dual_single_player():
    g = from_minimal_sets(1, [[1]])
    assert dual(g).minimal_sets == ((1,),)


def test_dual_fan(fan):
    assert dual(fan).minimal_sets == ((1,), (2, 3))
    assert dual(fan).minimal_sets == tuple(brute_dual_minimal_sets(3, fan.minimal_sets))


def test_dual_is_involution_exhaustive():
    # Every realizable structure on up to 5 players. The per-n counts
    # are the nonempty intersecting antichains: 1, 3, 11, 80, 2645.
    counts = []
    for n in range(1, 6):
        count = 0
        for g in enumerate_structures(n, realizable_only=True):
            assert dual(dual(g)) == g
            count += 1
        counts.append(count)
    assert counts == [1, 3, 11, 80, 2645]


def test_classify_triangle(triangle):
    flags = classify(triangle)
    assert flags.self_dual and flags.quantum_realizable and flags.connected


def test_classify_fan(fan):
    flags = classify(fan)
    assert not flags.self_dual
    assert flags.quantum_realizable
    assert flags.connected
    # witness: {1} is authorized in the dual but not in the structure
    assert is_authorized(dual(fan), (1,)) and not is_authorized(fan, (1,))


def test_classify_disjoint_pairs_unrealizable():
    g = from_minimal_sets(4, [[1, 2], [3, 4]])
    assert not classify(g).quantum_realizable


def test_classify_realizability_matches_dual_containment():
    # realizable means every authorized set is authorized in the dual
    for n in range(1, 5):
        for g in enumerate_structures(n):
            d = dual(g)
            contained = all(
                is_authorized(d, a) for a in all_subsets(n) if is_authorized(g, a)
            )
            flags = classify(g)
            assert flags.quantum_realizable == contained
            assert flags.self_dual == (d.minimal_sets == g.minimal_sets)


def test_purify_fan(fan):
    p = purify(fan)
    assert p.n == 4
    assert p.minimal_sets == ((1, 2), (1, 3), (1, 4), (2, 3, 4))


def test_purify_single_player():
    p = purify(from_minimal_sets(1, [[1]]))
    assert p.n == 2
    assert p.minimal_sets == ((1,),)  # the new player is never needed


def test_purify_self_dual_input_adds_unimportant_player(triangle):
    # Self-dual input: the construction still moves to n+1 players, and
    # the extra player ends up in no minimal set.
    p = purify(triangle)
    assert p.n == 4
    assert p.minimal_sets == triangle.minimal_sets
    assert not classify(p).connected


def test_purify_rejects_unrealizable():
    with pytest.raises(ValueError):
        purify(from_minimal_sets(4, [[1, 2], [3, 4]]))


def test_purify_exhaustive_properties():
    # Self-duality and exact restriction for every realizable structure
    # on up to 4 players (validated internally; checked again here).
    for n in range(1, 5):
        for g in enumerate_structures(n, realizable_only=True):
            p = purify(g)
            assert p.n == n + 1
            assert classify(p).self_dual
            for a in all_subsets(n):
                assert is_authorized(p, a) == is_authorized(g, a)


def test_maximal_unauthorized_examples(triangle, fan):
    assert maximal_unauthorized(triangle) == [(1,), (2,), (3,)]
    assert maximal_unauthorized(from_minimal_sets(1, [[1]])) == [()]
    assert maximal_unauthorized(fan) == [(1,), (2, 3)]


def test_maximal_unauthorized_definition(star4):
    found = maximal_unauthorized(star4)
    for b in all_subsets(star4.n):
        should = not is_authorized(star4, b) and all(
            is_authorized(star4, tuple(set(b) | {p}))
            for p in star4.players
            if p not in b
        )
        assert (tuple(sorted(b)) in found) == should


def test_authorization_monotone(star4):
    for a in all_subsets(star4.n):
        if not is_authorized(star4, a):
            continue
        for b in all_subsets(star4.n):
            if set(a) <= set(b):
                assert is_authorized(star4, b)


def test_realizable_means_no_disjoint_authorized_pairs():
    for n in range(1, 5):
        for g in enumerate_structures(n):
            disjoint = any(
                is_authorized(g, a) and is_authorized(g, b)
                for a in all_subsets(n)
                for b in all_subsets(n)
                if not set(a) & set(b)
            )
            assert classify(g).quantum_realizable == (not disjoint)


# Bit 63 (player 64) is where an inferred mask array turns into float64.
WIDE_PLAYERS = (1, 2, 62, 63, 64, 65, 70)
wide_sets = st.lists(
    st.frozensets(st.sampled_from(WIDE_PLAYERS), min_size=1), min_size=1, max_size=10, unique=True
).map(lambda sets: [sorted(s) for s in sets])


def _canonical(sets):
    return tuple(sorted((tuple(s) for s in sets), key=lambda s: (len(s), s)))


@settings(max_examples=100, deadline=None)
@given(wide_sets)
def test_pairwise_facts_past_63_players(sets):
    n = max(map(max, sets))  # 63 and 64 lie on either side of the int64 boundary
    minimal = [s for s in sets if not any(set(t) < set(s) for t in sets)]
    g = from_minimal_sets(n, sets)
    assert g.presentation == tuple(map(tuple, minimal))
    assert g.minimal_sets == _canonical(minimal)
    assert access.is_realizable(g) == all(set(a) & set(b) for a in minimal for b in minimal)
    for a in sets:
        assert is_authorized(g, a[1:]) == brute_authorized(minimal, a[1:])
    if any(set(a) < set(b) for a in sets for b in sets):
        with pytest.raises(ValueError, match="antichain"):
            AccessStructure(n, _canonical(sets))
    else:
        assert AccessStructure(n, _canonical(sets)) == g


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pruned_passes_match_pairwise_brute_force(data):
    # Complements give disjoint pairs with |A| + |B| = n exactly, the edge of the
    # realizability rule; subsets and supersets give nested pairs of unequal size.
    n = data.draw(st.sampled_from(WIDE_PLAYERS[2:] + (4, 7)))
    everyone = frozenset(range(1, n + 1))
    sets = []
    for _ in range(data.draw(st.integers(1, 8))):
        how = data.draw(st.sampled_from(("fresh", "inside", "around", "complement")))
        if how == "fresh" or not sets:
            size = data.draw(st.integers(1, n))
            s = frozenset(data.draw(st.permutations(sorted(everyone)))[:size])
        elif how == "inside":
            base = sorted(data.draw(st.sampled_from(sets)))
            s = frozenset(data.draw(st.lists(st.sampled_from(base), min_size=1, unique=True)))
        elif how == "around":
            extra = data.draw(st.sampled_from(WIDE_PLAYERS[:2] + (n,)))
            s = data.draw(st.sampled_from(sets)) | {extra}
        else:
            s = everyone - data.draw(st.sampled_from(sets))
        if s and s not in sets:
            sets.append(s)
    sets.sort(key=len)
    sizes = np.array([len(s) for s in sets])
    masks = access._mask_array([sum(1 << (p - 1) for p in s) for s in sets], n)
    # The bounds are the pairs each pass tests: exactly those the size rules leave.
    assert access._smaller_counts(sizes).tolist() == [
        sum(len(b) < len(a) for b in sets) for a in sets
    ]
    assert access._fitting_counts(sizes, n).tolist() == [
        sum(len(a) + len(b) <= n for b in sets) for a in sets
    ]
    assert access._inside_each(masks, sizes).tolist() == [sum(b < a for b in sets) for a in sets]
    disjoint = any(not a & b for a in sets for b in sets)
    assert access._has_disjoint_pair(masks, sizes, n) == disjoint
    g = from_minimal_sets(n, [sorted(s) for s in sets])
    minimal = [s for s in sets if not any(b < s for b in sets)]
    assert g.minimal_sets == _canonical(sorted(s) for s in minimal)
    assert access.is_realizable(g) == all(a & b for a in minimal for b in minimal)


def _first_error(n, sets):
    """The message of the first fault met by checking each value, then each set, in order."""
    for s in sets:
        for p in s:
            if type(p) is not int:
                return f"expected an integer in structure JSON, got {p!r}"
    for s in sets:
        if not s:
            return "authorized sets must be nonempty"
        for p in s:
            if not 1 <= p <= n:
                return f"player {p} out of range 1..{n}"
        if len(set(s)) != len(s):
            return f"repeated player in set {tuple(s)}"
    return "duplicate minimal set after canonicalization"


def test_the_first_fault_in_input_order_is_reported():
    faults = [[], [1, 2**70], [2, 2], [1, 2.5], [True, 3], [4, 0]]
    for count in range(1, len(faults) + 1):
        for chosen in permutations(faults, count):
            for at in range(len(chosen) + 1):
                sets = [[1, 2], *chosen[:at], [2, 3], *chosen[at:], [3, 2]]  # [2, 3] twice
                with pytest.raises(ValueError) as info:
                    structure_from_json(json.dumps({"n": 4, "minimal_sets": sets}))
                assert str(info.value) == _first_error(4, sets)


def test_json_roundtrip(triangle):
    text = structure_to_json(triangle)
    assert text == '{"n": 3, "minimal_sets": [[1, 2], [1, 3], [2, 3]]}'
    assert structure_from_json(text) == triangle


def test_json_preserves_presentation():
    g = structure_from_json('{"n": 3, "minimal_sets": [[1,2],[2,3],[3,1]]}')
    assert g.presentation == ((1, 2), (2, 3), (3, 1))


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        structure_from_json("{}")
    with pytest.raises(ValueError):
        structure_from_json('{"n": 3}')


def test_enumeration_cap(monkeypatch):
    big = AccessStructure(25, ((1,),))
    with pytest.raises(ValueError):
        dual(big)
    with pytest.raises(ValueError, match="structure enumeration is for small n only"):
        next(enumerate_structures(7))
    # the module-level cap is the one knob
    small = from_minimal_sets(3, [[1, 2]])
    monkeypatch.setattr(access, "ENUMERATION_CAP", 2)
    with pytest.raises(ValueError):
        dual(small)


def test_dual_and_maximal_unauthorized_match_brute_force():
    for n in range(1, 5):
        for g in enumerate_structures(n):
            sets = g.minimal_sets
            assert dual(g).minimal_sets == tuple(brute_dual_minimal_sets(n, sets))
            maximal = [
                b
                for b in all_subsets(n)
                if not brute_authorized(sets, b)
                and all(brute_authorized(sets, set(b) | {p}) for p in g.players if p not in b)
            ]
            assert maximal_unauthorized(g) == sorted(maximal, key=lambda s: (len(s), s))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_inside_counts_match_a_direct_count(data):
    n = data.draw(st.integers(0, 8))
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
    counts = access.inside_counts(n, masks)
    assert counts.tolist() == [sum(m & s == m for m in masks) for s in range(1 << n)]


def test_json_rejects_non_integers():
    for text in (
        '{"n": 3.7, "minimal_sets": [[1,2],[2,3],[3,1.9]]}',
        '{"n": 3, "minimal_sets": [[1,2],[2,3],[3,1.9]]}',
        '{"n": 3.0, "minimal_sets": [[1,2],[2,3],[3,1]]}',
        '{"n": 3, "minimal_sets": [[1,true],[2,3]]}',
        '{"n": true, "minimal_sets": [[1]]}',
    ):
        with pytest.raises(ValueError, match="integer"):
            structure_from_json(text)


def _key_sorted_subsets(players):
    """Reference order: every mask sorted by popcount, then by its member list."""
    masks = sorted(
        range(1 << len(players)),
        key=lambda m: (bin(m).count("1"), [p for i, p in enumerate(players) if m >> i & 1]),
    )
    return [tuple(p for i, p in enumerate(players) if m >> i & 1) for m in masks]


def test_subsets_in_order_matches_the_key_sort():
    for n in range(9):
        sparse = (2, 5, 7, 11, 64, 65, 90, 100)[:n]
        for players in (tuple(range(1, n + 1)), tuple(range(3, 3 + 2 * n, 2)), sparse):
            assert list(access.subsets_in_order(players)) == _key_sorted_subsets(players)
    # Players are taken as a set: any order of them gives the sorted order's subsets.
    assert list(access.subsets_in_order((7, 2, 5))) == _key_sorted_subsets((2, 5, 7))


def test_structure_passes_run_once_per_structure(monkeypatch):
    # Building a structure counts containment once, and `realize` decides
    # realizability once per structure it meets: the given one, and for a
    # non-self-dual one also its purification.
    calls = Counter()
    inside_each, realizable = access._inside_each, AccessStructure._realizable.func

    def counted_inside_each(*args):
        calls["inside"] += 1
        return inside_each(*args)

    def counted_realizable(g):
        calls["realizable"] += 1
        return realizable(g)

    counted = cached_property(counted_realizable)
    counted.__set_name__(AccessStructure, "_realizable")
    monkeypatch.setattr(access, "_inside_each", counted_inside_each)
    monkeypatch.setattr(AccessStructure, "_realizable", counted)
    sets = [list(c) for c in combinations(range(1, 8), 4)]
    realize(structure_from_json(json.dumps({"n": 7, "minimal_sets": sets})), 2)
    assert calls == {"inside": 1, "realizable": 1}
    calls.clear()
    realize(from_minimal_sets(3, [[1, 2], [1, 3]]), 2)
    assert calls == {"inside": 2, "realizable": 2}  # the second structure is purify's


def test_direct_construction_rejects_a_non_antichain():
    with pytest.raises(ValueError, match="antichain"):
        AccessStructure(3, ((1,), (1, 2)))
    with pytest.raises(ValueError, match="antichain"):
        AccessStructure(4, ((1, 2), (3, 4), (1, 2, 3)))


def test_every_structure_is_built_by_from_minimal_sets(monkeypatch):
    calls = []
    built = access.from_minimal_sets

    def counted(n, sets):
        calls.append(n)
        return built(n, sets)

    monkeypatch.setattr(access, "from_minimal_sets", counted)
    g = built(3, [[1, 2], [1, 3]])
    for make in (
        lambda: dual(g),
        lambda: purify(g),
        lambda: next(enumerate_structures(3)),
        lambda: AccessStructure(3, ((1, 2), (1, 3))),
    ):
        calls.clear()
        make()
        assert len(calls) == 1


def test_direct_construction_is_what_from_minimal_sets_builds():
    for g in enumerate_structures(4):
        direct = AccessStructure(g.n, g.minimal_sets)
        built = from_minimal_sets(g.n, g.minimal_sets)
        assert (direct, direct.minimal_sets, direct.presentation) == (
            built,
            built.minimal_sets,
            built.presentation,
        )
        assert direct.masks.dtype == built.masks.dtype
        assert direct.masks.tolist() == built.masks.tolist()


CANONICAL = "minimal sets must form an antichain, members ascending, sets sorted by size then"


@pytest.mark.parametrize(
    "n, sets, presentation, message",
    [
        (0, ((1,),), (), "need at least one player"),
        (3, (), (), "at least one minimal authorized set is required"),
        (3, ((),), (), "authorized sets must be nonempty"),
        (3, ((1, 4),), (), r"player 4 out of range 1\.\.3"),
        (3, ((1, 1),), (), r"repeated player in set \(1, 1\)"),
        (3, ((2, 1),), (), CANONICAL),  # members out of order
        (3, ((1, 3), (1, 2)), (), CANONICAL),  # sets out of canonical order
        (3, ((1, 3), (2,)), (), CANONICAL),  # ... by size
        (3, ((1, 2), (1, 2)), (), "duplicate minimal set"),
        (3, ((1,), (1, 2)), (), CANONICAL),  # a superset of another set
        (3, ((1, 2),), ((1, 3),), "presentation must list the same sets"),
        (3, ((1, 2), (1, 3)), ((1, 2),), "presentation must list the same sets"),
        (2**63, ((1,),), (), "player count 9223372036854775808 does not fit in 64 bits"),
    ],
)
def test_malformed_direct_construction_is_rejected(n, sets, presentation, message):
    with pytest.raises(ValueError, match=message):
        AccessStructure(n, sets, presentation)
