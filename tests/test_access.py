"""Access-structure combinatorics, checked against subset enumeration."""

import pytest

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
            assert classify(g).quantum_realizable == contained


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


def test_enumeration_cap():
    big = AccessStructure(25, ((1,),))
    with pytest.raises(ValueError):
        dual(big)
    # explicit caps override the default
    small = from_minimal_sets(3, [[1, 2]])
    with pytest.raises(ValueError):
        dual(small, cap=2)


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
