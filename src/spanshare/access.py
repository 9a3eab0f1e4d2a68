"""Access structures: antichains of minimal authorized player sets.

Players are numbered 1..n. A subset is authorized exactly when it
contains some minimal authorized set, so the antichain determines the
whole monotone family. Subsets are bitmasks internally (bit p-1 for
player p) and sorted 1-based tuples externally.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from itertools import chain, combinations, compress, repeat

import numpy as np

Subset = tuple[int, ...]

# Structure-level operations enumerate all 2^n subsets; this guards
# against runaway loops; callers who mean it can raise the module value.
ENUMERATION_CAP = 20


def _mask(members, n: int) -> int:
    m = 0
    for p in members:
        if type(p) is not int:
            raise ValueError(f"player {p!r} is not an integer")
        if not 1 <= p <= n:
            raise ValueError(f"player {p} out of range 1..{n}")
        m |= 1 << (p - 1)
    return m


def _members(mask: int) -> Subset:
    return tuple(p for p in range(1, mask.bit_length() + 1) if mask >> (p - 1) & 1)


def _canonical(sets) -> list[Subset]:
    """Ascending tuples by size, then lexicographically: two C-level sorts, no key function."""
    ordered = sorted(sets)
    ordered.sort(key=len)
    return ordered


def _check_cap(n: int):
    if n > ENUMERATION_CAP:
        raise ValueError(f"refusing 2^{n} subset enumeration (cap {ENUMERATION_CAP})")


def subsets_in_order(players):
    """All subsets of `players` as sorted tuples, by size, then lexicographically.

    `combinations` of the sorted players yields each size in exactly
    that order, so nothing is sorted.
    """
    players = tuple(sorted(players))
    return (c for k in range(len(players) + 1) for c in combinations(players, k))


@dataclass(frozen=True)
class AccessStructure:
    """Player count plus the antichain of minimal authorized sets.

    `minimal_sets` is canonical (sets sorted by size then
    lexicographically, members ascending) and is what equality and
    hashing use. `presentation` preserves the order in which the sets
    and their members were supplied; the span-program builder uses it
    to lay out blocks and label rows deterministically. `masks` holds
    the minimal sets as bitmasks, in `minimal_sets` order.

    Every structure is checked by `from_minimal_sets`: built directly,
    a structure must be exactly what that function makes of its sets.
    """

    n: int
    minimal_sets: tuple[Subset, ...]
    presentation: tuple[Subset, ...] = field(compare=False, default=())
    masks: np.ndarray = field(init=False, compare=False, repr=False)
    # Passed only by `from_minimal_sets`, which has checked the sets it built them from.
    _masks: InitVar[np.ndarray | None] = None

    def __post_init__(self, _masks):
        if _masks is None:
            sets = self.minimal_sets
            built = from_minimal_sets(self.n, sets)
            if built.minimal_sets != sets:
                raise ValueError(
                    "minimal sets must form an antichain, members ascending, "
                    "sets sorted by size then lexicographically"
                )
            _masks = built.masks
            if not self.presentation:
                object.__setattr__(self, "presentation", sets)
            elif {frozenset(s) for s in self.presentation} != {frozenset(s) for s in sets}:
                raise ValueError("presentation must list the same sets")
        object.__setattr__(self, "masks", _masks)

    @property
    def players(self) -> Subset:
        return tuple(range(1, self.n + 1))

    @cached_property
    def _sizes(self) -> np.ndarray:
        """|A| per minimal set, in `minimal_sets` order, so ascending: the passes' size order."""
        return np.array(list(map(len, self.minimal_sets)), dtype=np.int64)

    @cached_property
    def inside_table(self) -> np.ndarray:
        """K[S], the number of minimal sets inside S, for all 2^n masks S: built once."""
        return inside_counts(self.n, self.masks)

    @cached_property
    def authorized_table(self) -> np.ndarray:
        """auth[S] for all 2^n masks S: whether S contains a minimal set."""
        return self.inside_table > 0

    @cached_property
    def _realizable(self) -> bool:
        # Cached: `classify` and `normal_form_layout` both ask.
        return not _has_disjoint_pair(self.masks, self._sizes, self.n)


def _mask_array(masks: list[int], n: int) -> np.ndarray:
    # Inferred, a mask holding bit 63 would turn the whole array into float64.
    return np.array(masks, dtype=np.int64 if n <= 63 else object)


def _scan_masks(sets: list[Subset], n: int) -> list[int]:
    """The mask of each set, checked one value at a time: the first fault met raises.

    Every value must be an `int` (not a bool, float, str or numpy
    integer): n first, then each player in input order. Then n must lie
    in 1..2^63 - 1 and some set be given; then each set in turn must be
    nonempty, in range 1..n and free of repeated players.
    """
    for value in chain((n,), *sets):
        if type(value) is not int:
            raise ValueError(f"expected an integer in structure JSON, got {value!r}")
    if n < 1:
        raise ValueError("need at least one player")
    if n >= 1 << 63:  # numpy does size arithmetic with n in int64
        raise ValueError(f"player count {n} does not fit in 64 bits")
    if not sets:
        raise ValueError("at least one minimal authorized set is required")
    masks = []
    for s in sets:
        if not s:
            raise ValueError("authorized sets must be nonempty")
        m = _mask(s, n)
        if len(s) != m.bit_count():
            raise ValueError(f"repeated player in set {s}")
        masks.append(m)
    return masks


def _masks_of(sets: list[Subset], n: int) -> list[int]:
    """`_scan_masks(sets, n)` in C-level passes; the scan runs only to name a fault.

    The types of n and every player are gathered in one pass, so one
    value that is not an `int` fails it. A mask is the sum of its
    players' bits. A repeated player makes that sum carry, so the mask
    has fewer bits than the set has members.
    """
    if all(sets) and set(map(type, chain((n,), *sets))) == {int}:
        players = set(chain.from_iterable(sets))
        if players and 1 <= min(players) and max(players) <= n < 1 << 63:
            bit = {p: 1 << (p - 1) for p in players}
            masks = list(map(sum, map(map, repeat(bit.__getitem__), sets)))
            if list(map(int.bit_count, masks)) == list(map(len, sets)):
                return masks
    return _scan_masks(sets, n)


def _smaller_counts(sizes: np.ndarray) -> np.ndarray:
    """For ascending set sizes: how many sets are strictly smaller than each."""
    return np.searchsorted(sizes, sizes)


def _fitting_counts(sizes: np.ndarray, n: int) -> np.ndarray:
    """For ascending set sizes |A|: how many sets B have |A| + |B| <= n."""
    return np.searchsorted(sizes, n - sizes, side="right")


def _inside_each(masks: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """For each of `masks`, sorted by ascending set size, how many others lie inside it.

    Only a strictly smaller set can lie inside a set, so each is tested
    against the prefix of smaller sets alone and sets of equal size are
    never compared: a threshold structure tests no pair.
    """
    counts = np.zeros(len(masks), dtype=np.int64)
    smaller = _smaller_counts(sizes)
    for i in np.flatnonzero(smaller).tolist():
        head = masks[: smaller[i]]
        counts[i] = np.count_nonzero(head & masks[i] == head)
    return counts


def _has_disjoint_pair(masks: np.ndarray, sizes: np.ndarray, n: int) -> bool:
    """Whether two of `masks`, sorted by ascending set size, are disjoint.

    Sets A and B of n players can be disjoint only if |A| + |B| <= n, so
    each is tested against the prefix of sets that short alone: on
    k-of-(2k-1) thresholds no pair is tested.
    """
    fitting = _fitting_counts(sizes, n)
    for i in np.flatnonzero(fitting).tolist():
        if not (masks[: fitting[i]] & masks[i]).all():
            return True
    return False


def from_minimal_sets(n: int, sets) -> AccessStructure:
    """Build a structure, dropping supersets and canonicalizing.

    A set that strictly contains another listed set is redundant and is
    removed; two sets with the same members are an error. n and every
    player must be an `int`: bools, floats, strings and numpy integers
    are refused (pass a numpy array's `.tolist()`). Faults are found in
    C-level passes, and the first one in input order is named. Every
    structure is checked and given its masks here, JSON input included.
    """
    sets = list(map(tuple, sets))
    masks = _masks_of(sets, n)
    if len(set(masks)) != len(masks):
        raise ValueError("duplicate minimal set after canonicalization")
    sizes = list(map(len, sets))
    members = list(map(tuple, map(sorted, sets)))
    # Canonical order, by size and then members: two C-level sorts of indices.
    order = sorted(range(len(sets)), key=members.__getitem__)
    order.sort(key=sizes.__getitem__)
    masks = _mask_array(masks, n)[order]
    sizes = np.array(sizes, dtype=np.int64)[order]
    keep = _inside_each(masks, sizes) == 0
    given = np.empty_like(keep)
    given[order] = keep  # `keep` in input order
    canonical = tuple(compress(map(members.__getitem__, order), keep.tolist()))
    presentation = tuple(compress(sets, given.tolist()))
    return AccessStructure(n, canonical, presentation, masks[keep])


def structure_from_json(text: str) -> AccessStructure:
    """Parse {"n": 3, "minimal_sets": [[1,2],[2,3],[3,1]]}; `from_minimal_sets` checks values."""
    data = json.loads(text)
    try:
        n, sets = data["n"], list(map(tuple, data["minimal_sets"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"structure JSON needs 'n' and 'minimal_sets': {exc}") from exc
    return from_minimal_sets(n, sets)


def structure_to_json(g: AccessStructure) -> str:
    return json.dumps({"n": g.n, "minimal_sets": [list(s) for s in g.minimal_sets]})


def is_authorized(g: AccessStructure, a) -> bool:
    """True iff `a` contains some minimal authorized set."""
    m = _mask(a, g.n)
    return bool((g.masks & m == g.masks).any())


def inside_counts(n: int, masks) -> np.ndarray:
    """K[S], the number of `masks` inside S, for all 2^n masks S.

    The subset-sum (zeta) transform: pass b adds K[S without b] to
    K[S] for every S holding bit b, n vectorized passes in all.
    """
    _check_cap(n)
    counts = np.bincount(np.asarray(masks, dtype=np.int64), minlength=1 << n)
    for b in range(n):
        halves = counts.reshape(-1, 2, 1 << b)
        halves[:, 1] += halves[:, 0]
    return counts


def _minimal_masks_of(n: int, table: np.ndarray) -> np.ndarray:
    """Masks of the minimal elements of a monotone family given as a table over all 2^n masks."""
    minimal = table.copy()
    for b in range(n):
        # S holding bit b is minimal only if S without b is outside the family.
        minimal.reshape(-1, 2, 1 << b)[:, 1] &= ~table.reshape(-1, 2, 1 << b)[:, 0]
    return np.flatnonzero(minimal)


def _structure_of(n: int, table: np.ndarray) -> AccessStructure:
    """The structure authorizing a monotone family given as a table over all 2^n masks."""
    return from_minimal_sets(n, _canonical(map(_members, _minimal_masks_of(n, table).tolist())))


def dual(g: AccessStructure) -> AccessStructure:
    """The structure authorizing exactly the complements of unauthorized sets."""
    # Reversing the table maps S to full ^ S, its complement.
    return _structure_of(g.n, ~g.authorized_table[::-1])


@dataclass(frozen=True)
class StructureClassification:
    self_dual: bool
    quantum_realizable: bool
    connected: bool

    def __post_init__(self):
        if self.self_dual and not self.quantum_realizable:
            raise ValueError("a self-dual structure is always realizable")


def is_realizable(g: AccessStructure) -> bool:
    """No-cloning: no two authorized sets, so no two minimal sets, are disjoint."""
    return g._realizable


def is_connected(g: AccessStructure) -> bool:
    """True iff every player lies in some minimal authorized set."""
    return int(np.bitwise_or.reduce(g.masks)).bit_count() == g.n


def classify(g: AccessStructure) -> StructureClassification:
    """Self-duality, quantum realizability and connectedness flags."""
    realizable = is_realizable(g)
    self_dual = realizable and _is_self_dual(g.authorized_table)
    return StructureClassification(self_dual, realizable, is_connected(g))


def _is_self_dual(auth: np.ndarray) -> bool:
    """Exactly one of each set and its complement is authorized: g equals its dual."""
    return bool((auth != auth[::-1]).all())


def purify(g: AccessStructure) -> AccessStructure:
    """Extend to a self-dual structure on one extra player.

    On players 1..n+1, a set A is authorized iff its restriction to the
    original players is authorized, or A holds player n+1 and the
    original players missing from A form an unauthorized set. The
    result is checked to be self-dual and to restrict back to `g`
    exactly; both are guaranteed for realizable input.
    """
    if not is_realizable(g):
        raise ValueError("structure admits two disjoint authorized sets; not realizable")
    n1 = g.n + 1
    _check_cap(n1)
    auth = g.authorized_table  # auth[::-1] is auth at the complement
    result = _structure_of(n1, np.concatenate((auth, auth | ~auth[::-1])))
    if not _is_self_dual(result.authorized_table):
        raise RuntimeError("purification produced a non-self-dual structure")
    if not np.array_equal(result.authorized_table[: 1 << g.n], auth):
        raise RuntimeError("purification does not restrict to the original structure")
    return result


def _maximal_unauthorized_masks(g: AccessStructure) -> np.ndarray:
    # The complements of the dual's minimal sets, read off the dual's table.
    return ((1 << g.n) - 1) ^ _minimal_masks_of(g.n, ~g.authorized_table[::-1])


def maximal_unauthorized(g: AccessStructure) -> list[Subset]:
    """Unauthorized sets whose every proper superset is authorized: the
    complements of the dual's minimal sets, found without building the dual."""
    return _canonical(map(_members, _maximal_unauthorized_masks(g).tolist()))


def enumerate_structures(
    n: int, *, realizable_only: bool = False, connected_only: bool = False
):
    """Yield every access structure on n players, canonically ordered.

    Antichains are grown over the subsets of {1..n} in canonical order.
    With `realizable_only` the pairwise-intersection constraint prunes
    the search enough to make n=5 (2645 structures) cheap; without it
    the antichain count explodes combinatorially, so keep n small.
    """
    if n > 6:
        raise ValueError("structure enumeration is for small n only")
    all_masks = [_mask(s, n) for s in subsets_in_order(range(1, n + 1))][1:]
    full = (1 << n) - 1

    def compatible(m: int, chosen: list[int]) -> bool:
        for c in chosen:
            if c & m == c or c & m == m:
                return False  # comparable: not an antichain
            if realizable_only and not c & m:
                return False
        return True

    def grow(start: int, chosen: list[int], covered: int):
        if chosen:
            if not connected_only or covered == full:
                yield from_minimal_sets(n, map(_members, chosen))
        for i in range(start, len(all_masks)):
            m = all_masks[i]
            if compatible(m, chosen):
                chosen.append(m)
                yield from grow(i + 1, chosen, covered | m)
                chosen.pop()

    yield from grow(0, [], 0)
