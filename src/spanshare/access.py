"""Access structures: antichains of minimal authorized player sets.

Players are numbered 1..n. A subset is authorized exactly when it
contains some minimal authorized set, so the antichain determines the
whole monotone family. Subsets are bitmasks internally (bit p-1 for
player p) and sorted 1-based tuples externally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations

Subset = tuple[int, ...]

# Structure-level operations enumerate all 2^n subsets; this guards
# against runaway loops and can be raised by callers who mean it.
ENUMERATION_CAP = 20


def _mask(members, n: int) -> int:
    m = 0
    for p in members:
        if not 1 <= p <= n:
            raise ValueError(f"player {p} out of range 1..{n}")
        m |= 1 << (p - 1)
    return m


def _members(mask: int) -> Subset:
    out = []
    p = 1
    while mask:
        if mask & 1:
            out.append(p)
        mask >>= 1
        p += 1
    return tuple(out)


def _canon_key(s: Subset):
    return (len(s), s)


def _check_cap(n: int, cap: int | None = None):
    limit = ENUMERATION_CAP if cap is None else cap
    if n > limit:
        raise ValueError(f"refusing 2^{n} subset enumeration (cap {limit})")


def subsets_in_order(players):
    """All subsets of `players` ordered by size, then lexicographically."""
    players = tuple(players)
    n = len(players)
    masks = sorted(
        range(1 << n),
        key=lambda m: (bin(m).count("1"), [p for i, p in enumerate(players) if m >> i & 1]),
    )
    for m in masks:
        yield tuple(p for i, p in enumerate(players) if m >> i & 1)


@dataclass(frozen=True)
class AccessStructure:
    """Player count plus the antichain of minimal authorized sets.

    `minimal_sets` is canonical (sets sorted by size then
    lexicographically, members ascending) and is what equality and
    hashing use. `presentation` preserves the order in which the sets
    and their members were supplied; the span-program builder uses it
    to lay out blocks and label rows deterministically.
    """

    n: int
    minimal_sets: tuple[Subset, ...]
    presentation: tuple[Subset, ...] = field(compare=False, default=())

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one player")
        if not self.minimal_sets:
            raise ValueError("at least one minimal authorized set is required")
        for s in self.minimal_sets:
            if not s or list(s) != sorted(set(s)):
                raise ValueError(f"set {s} must be nonempty with ascending members")
        masks = self.minimal_masks()
        for i, a in enumerate(masks):
            for b in masks[i + 1 :]:
                if a & b in (a, b):
                    raise ValueError("minimal sets must form an antichain")
        if list(self.minimal_sets) != sorted(self.minimal_sets, key=_canon_key):
            raise ValueError("minimal sets must be sorted by size then lexicographically")
        if not self.presentation:
            object.__setattr__(self, "presentation", self.minimal_sets)
        elif {frozenset(s) for s in self.presentation} != {
            frozenset(s) for s in self.minimal_sets
        }:
            raise ValueError("presentation must list the same sets")

    @property
    def players(self) -> Subset:
        return tuple(range(1, self.n + 1))

    def minimal_masks(self) -> list[int]:
        return [_mask(s, self.n) for s in self.minimal_sets]


def from_minimal_sets(n: int, sets) -> AccessStructure:
    """Build a structure, dropping supersets and canonicalizing.

    A set that strictly contains another listed set is redundant and is
    removed; two sets with the same members are an error.
    """
    if n < 1:
        raise ValueError("need at least one player")
    sets = [tuple(s) for s in sets]
    masks = []
    for s in sets:
        if not s:
            raise ValueError("authorized sets must be nonempty")
        m = _mask(s, n)
        if len(s) != bin(m).count("1"):
            raise ValueError(f"repeated player in set {s}")
        masks.append(m)
    if len(set(masks)) != len(masks):
        raise ValueError("duplicate minimal set after canonicalization")
    keep = [
        (s, m)
        for s, m in zip(sets, masks)
        if not any(other != m and m & other == other for other in masks)
    ]
    presentation = tuple(s for s, _ in keep)
    canonical = tuple(sorted((_members(m) for _, m in keep), key=_canon_key))
    return AccessStructure(n, canonical, presentation)


def _json_int(value) -> int:
    # int() would truncate 3.7 and accept true; only JSON integers count.
    if type(value) is not int:
        raise ValueError(f"expected an integer in structure JSON, got {value!r}")
    return value


def structure_from_json(text: str) -> AccessStructure:
    """Parse {"n": 3, "minimal_sets": [[1,2],[2,3],[3,1]]}."""
    data = json.loads(text)
    try:
        n = _json_int(data["n"])
        sets = [[_json_int(p) for p in s] for s in data["minimal_sets"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"structure JSON needs 'n' and 'minimal_sets': {exc}") from exc
    return from_minimal_sets(n, sets)


def structure_to_json(g: AccessStructure) -> str:
    return json.dumps({"n": g.n, "minimal_sets": [list(s) for s in g.minimal_sets]})


def is_authorized(g: AccessStructure, a) -> bool:
    """True iff `a` contains some minimal authorized set."""
    return _authorized_mask(g.minimal_masks(), _mask(a, g.n))


def _authorized_mask(minimal_masks: list[int], m: int) -> bool:
    return any(m & ms == ms for ms in minimal_masks)


def _minimal_sets_of(n: int, authorized) -> tuple[Subset, ...]:
    """Minimal elements of a monotone family given as a mask predicate."""
    mins = []
    for m in range(1, 1 << n):
        if not authorized(m):
            continue
        if all(not authorized(m & ~(1 << b)) for b in range(n) if m >> b & 1):
            mins.append(m)
    return tuple(sorted((_members(m) for m in mins), key=_canon_key))


def dual(g: AccessStructure, cap: int | None = None) -> AccessStructure:
    """The structure authorizing exactly the complements of unauthorized sets."""
    _check_cap(g.n, cap)
    mm = g.minimal_masks()
    full = (1 << g.n) - 1
    sets = _minimal_sets_of(g.n, lambda m: not _authorized_mask(mm, full & ~m))
    return AccessStructure(g.n, sets)


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
    return all(x & y for x, y in combinations(g.minimal_masks(), 2))


def is_connected(g: AccessStructure) -> bool:
    """True iff every player lies in some minimal authorized set."""
    covered = 0
    for m in g.minimal_masks():
        covered |= m
    return covered == (1 << g.n) - 1


def classify(g: AccessStructure, cap: int | None = None) -> StructureClassification:
    """Self-duality, quantum realizability and connectedness flags."""
    realizable = is_realizable(g)
    self_dual = realizable and dual(g, cap).minimal_sets == g.minimal_sets
    return StructureClassification(self_dual, realizable, is_connected(g))


def purify(g: AccessStructure, cap: int | None = None) -> AccessStructure:
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
    _check_cap(n1, cap)
    mm = g.minimal_masks()
    original = (1 << g.n) - 1
    extra = 1 << g.n

    def authorized(m: int) -> bool:
        if _authorized_mask(mm, m & original):
            return True
        return bool(m & extra) and not _authorized_mask(mm, original & ~m)

    result = AccessStructure(n1, _minimal_sets_of(n1, authorized))
    if not classify(result, cap).self_dual:
        raise RuntimeError("purification produced a non-self-dual structure")
    for m in range(1 << g.n):
        if _authorized_mask(result.minimal_masks(), m) != _authorized_mask(mm, m):
            raise RuntimeError("purification does not restrict to the original structure")
    return result


def maximal_unauthorized(g: AccessStructure, cap: int | None = None) -> list[Subset]:
    """Unauthorized sets whose every proper superset is authorized.

    They are the complements of the dual's minimal authorized sets.
    """
    full = (1 << g.n) - 1
    complements = (full & ~m for m in dual(g, cap).minimal_masks())
    return sorted((_members(m) for m in complements), key=_canon_key)


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
    all_masks = sorted(range(1, 1 << n), key=lambda m: (bin(m).count("1"), _members(m)))
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
                yield AccessStructure(
                    n, tuple(sorted((_members(m) for m in chosen), key=_canon_key))
                )
        for i in range(start, len(all_masks)):
            m = all_masks[i]
            if compatible(m, chosen):
                chosen.append(m)
                yield from grow(i + 1, chosen, covered | m)
                chosen.pop()

    yield from grow(0, [], 0)
