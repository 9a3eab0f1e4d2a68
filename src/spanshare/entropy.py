"""Share-subset entropies as cut counts.

For a scheme realized by a normal-form program, the entropy of the
shares held by a player set A is

    S(A) = (a + b - m) * log2(q) + S(secret)   if A is authorized
    S(A) = (a + b - m) * log2(q)               otherwise

where a, b, m are the ranks of the rows of A, the rows of its
complement A', and the whole matrix. Structures that are not self-dual
are first extended by one purification player; the extra share is kept
out of every queried subset but belongs to A'. The realized structure
is therefore self-dual: exactly one of A and A' is authorized.

Ranks from the block layout. Let A_1..A_k be the minimal sets, K(S) the
number of them inside a player set S, deg(p) the number holding player
p, and rows(S) = sum of deg(p) over p in S. Block i gives S one row per
member of A_i in S. The rows of a block wholly inside S sum to the
secret column, so the K(S) full blocks are tied together through that
one shared column and lose K(S) - 1 dimensions. The rows of a block
missing a member enter no dependence: the identity rows are unit
vectors, and the closing row, if present, has a band column (the
missing member's) that no other row of S covers. Hence

    rank(M_S) = rows(S) - max(0, K(S) - 1),

and m = d - (k - 1) = e, every block lying inside the full set.

The cut count. rows(A) + rows(A') = d = e + k - 1, and one of K(A),
K(A') is 0, so

    a + b - m = k - K(A) - K(A') = cut(A),

the number of minimal sets that meet both A and A' (none lies inside
both). So S(A) = cut(A) * log2(q), plus S(secret) when A is authorized.
`NormalFormLayout.cut_table` holds the flag and cut(A) for every player
set. `mask_entropies`, the one evaluator that reports, sweeps, chains and
the oracle's comparison read, takes them for masks of any shape and
recovers a and b from cut(A) and the degrees (k - cut(A) - 1 = K - 1 on
the side holding whole blocks). Tests hold it to exact elimination.

The paper's theorems follow. On unauthorized sets K(A) = 0 and
cut(A) = k - K(A'); as A grows, A' shrinks, so the entropy is
nondecreasing. On authorized sets K(A') = 0 and cut(A) = k - K(A),
which falls as A grows: nonincreasing. Both maxima are k - 1, since the
authorized side of a cut holds at least one minimal set. They are
attained: K = 1 at a minimal set, and the complement of a minimal set
is unauthorized with K(A') = 1 (for a purified structure, take a
minimal set holding the extra player). An unauthorized single share
{p} has K({p}') = k - deg(p), so its entropy is deg(p) * log2(q):
2 * log2(q) for each share of the triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, permutations, repeat

import numpy as np

from . import access
from .access import AccessStructure, Subset, classify, purify, subsets_in_order
from .fields import PrimeField
from .msp import MonotoneSpanProgram, NormalFormLayout, normal_form_layout


@dataclass(frozen=True)
class SecretSpec:
    """Classical secret ensemble: a probability for each value in F_q. The
    uniform one stores none (`distribution` is None), so it costs O(1) at any q."""

    q: int
    distribution: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.q < 2:
            raise ValueError(f"field size must be at least 2, got {self.q}")
        if self.distribution is None:
            return
        if len(self.distribution) != self.q:
            raise ValueError("need one probability per field element")
        # NaN fails both comparisons; above 1 goes before the sum, which would overflow.
        if not all(0 <= p <= 1 for p in self.distribution):
            raise ValueError("probabilities must be finite and within [0, 1]")
        if abs(math.fsum(self.distribution) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")

    @classmethod
    def uniform(cls, q: int) -> "SecretSpec":
        return cls(q)

    @property
    def probabilities(self) -> np.ndarray:
        """The q probabilities as an array, built on each read."""
        uniform = self.distribution is None
        return np.full(self.q, 1.0 / self.q) if uniform else np.asarray(self.distribution)

    @cached_property
    def entropy_bits(self) -> float:
        if self.distribution is None:
            return math.log2(self.q)  # exact; a sum of q terms rounds in its last bits
        return -sum(p * math.log2(p) for p in self.distribution if p > 0)


@dataclass(frozen=True)
class EntropyReport:
    subset: Subset
    authorized: bool
    rank_subset: int  # rank of the subset's rows
    rank_complement: int  # rank of the complement's rows
    rank_total: int  # rank of the whole matrix
    entropy_bits: float

    @property
    def rank_excess(self) -> int:
        """The integer a + b - m that scales log2 q."""
        return self.rank_subset + self.rank_complement - self.rank_total


@dataclass(frozen=True)
class SchemeRealization:
    """A structure together with the normal-form layout realizing it over F_q.

    For non-self-dual structures the layout lives on the purified
    structure and `hidden_player` names the extra share; queries are
    always posed on the original players. Entropies read only the
    layout; `program`, the span program itself, is built on first use.
    """

    structure: AccessStructure
    layout: NormalFormLayout
    hidden_player: int | None
    q: int

    @cached_property
    def program(self) -> MonotoneSpanProgram:
        return self.layout.program(self.q)


def realize(g: AccessStructure, q: int = 2) -> SchemeRealization:
    """The normal-form realization of `g` over F_q, purifying when not self-dual.

    `purify` rejects unrealizable input, `normal_form_layout` a player
    outside every minimal set (which purification keeps outside), and
    `PrimeField` a q that is not prime, in that order. No matrix is built.
    """
    if classify(g).self_dual:
        realized, hidden = g, None
    else:
        realized = purify(g)
        hidden = realized.n
    layout = normal_form_layout(realized)
    PrimeField(q)
    return SchemeRealization(g, layout, hidden, q)


def mask_entropies(rz: SchemeRealization, secret: SecretSpec, masks: np.ndarray):
    """Arrays of authorized, a, b and the entropy in bits, shaped as `masks`, the
    subsets of the original players as integer masks; their ranges are checked."""
    if secret.q != rz.q:
        raise ValueError("secret field does not match the program field")
    layout = rz.layout
    auth, cut = layout.cut_table
    authorized, split = auth[masks], cut[masks]
    held = masks[..., None] >> np.arange(rz.structure.n) & 1
    rows = held @ layout.degrees[1 : rz.structure.n + 1]
    tied = layout.k - 1 - split  # K - 1 on the side holding whole blocks
    a_rk = rows - tied * authorized
    b_rk = layout.d - tied - a_rk
    bits = split * math.log2(rz.q) + secret.entropy_bits * authorized
    if np.maximum(a_rk, b_rk).max(initial=0) > layout.e:
        raise ValueError("subset ranks cannot exceed the full rank")
    if bits.min(initial=0.0) < -1e-12:
        raise ValueError("entropy cannot be negative")
    return authorized, a_rk, b_rk, bits


def _reports(rz: SchemeRealization, secret: SecretSpec, subsets, masks) -> list[EntropyReport]:
    """One report per subset, from `mask_entropies` on their masks."""
    authorized, a_rk, b_rk, bits = (c.tolist() for c in mask_entropies(rz, secret, masks))
    return list(map(EntropyReport, subsets, authorized, a_rk, b_rk, repeat(rz.layout.e), bits))


def subset_report(rz: SchemeRealization, secret: SecretSpec, a) -> EntropyReport:
    """Entropy of the shares of `a`, a subset of the original players."""
    a = tuple(sorted(set(a)))
    return _reports(rz, secret, [a], np.array([access._mask(a, rz.structure.n)]))[0]


def _check_structure(rz: SchemeRealization, g: AccessStructure):
    """Refuse a realization of another structure; identity is tested first, as it is cheap."""
    if rz.structure is not g and rz.structure != g:
        raise ValueError("realization is of another structure")


def _sweep(g: AccessStructure, secret: SecretSpec, rz: SchemeRealization | None):
    """The checked realization and its (auth, cut) over the original players' masks."""
    access._check_cap(g.n)
    rz = rz or realize(g, secret.q)
    _check_structure(rz, g)
    if secret.q != rz.q:
        raise ValueError("secret field does not match the program field")
    auth, cut = rz.layout.cut_table
    return rz, auth[: 1 << g.n], cut[: 1 << g.n]


def _subset_order(mask: int):
    """Sort key of `subsets_in_order`: size, then members lexicographically."""
    return mask.bit_count(), access._members(mask)


def all_subset_entropies(
    g: AccessStructure, secret: SecretSpec, rz: SchemeRealization | None = None
) -> list[EntropyReport]:
    rz = _sweep(g, secret, rz)[0]
    masks = map(sum, subsets_in_order([1 << p - 1 for p in g.players]))
    return _reports(rz, secret, subsets_in_order(g.players), np.fromiter(masks, np.int64))


@dataclass(frozen=True)
class MonotonicityViolation:
    smaller: EntropyReport
    larger: EntropyReport

    def __str__(self):
        rel = ">" if self.smaller.entropy_bits > self.larger.entropy_bits else "<"
        return (
            f"S({self.smaller.subset}) {rel} S({self.larger.subset}): "
            f"{self.smaller.entropy_bits:.6f} vs {self.larger.entropy_bits:.6f}"
        )


def verify_monotonicity(
    g: AccessStructure, secret: SecretSpec, rz: SchemeRealization | None = None
) -> list[MonotonicityViolation]:
    """Check entropy ordering over every covering pair (A, A u {p}).

    Unauthorized pairs must be nondecreasing and authorized pairs
    nonincreasing. Unauthorized sets are closed downward and authorized
    sets upward, so every one-player chain between a nested same-flag
    pair keeps that flag: a nested pair out of order exists iff a
    covering pair out of order does, and the returned list names
    covering pairs only (n * 2^(n-1) comparisons instead of 4^n).
    Entropies of same-flag pairs differ by an integer multiple of
    log2 q: comparing cut counts is exact, and only violations get reports.
    """
    rz, auth, cut = _sweep(g, secret, rz)
    return [
        MonotonicityViolation(*(subset_report(rz, secret, access._members(m)) for m in pair))
        for pair in _covering_violations(auth, cut)
    ]


def _covering_violations(auth: np.ndarray, cut: np.ndarray) -> list[tuple[int, int]]:
    """Same-flag covering pairs (S, S | bit) out of order, one pass per bit over
    all 2^n masks, in subset order of S, then by the added player."""
    pairs = []
    for b in range(len(auth).bit_length() - 1):
        flag, split = auth.reshape(-1, 2, 1 << b), cut.reshape(-1, 2, 1 << b)
        small, large = split[:, 0], split[:, 1]
        bad = (flag[:, 0] == flag[:, 1]) & np.where(flag[:, 0], small < large, small > large)
        high, low = np.nonzero(bad)
        pairs += [(s, s | 1 << b) for s in ((high << (b + 1)) | low).tolist()]
    return sorted(pairs, key=lambda pair: (_subset_order(pair[0]), pair[1]))


@dataclass(frozen=True)
class EntropyProfile:
    """Entropies along a maximal chain of subsets (the tent)."""

    chain: tuple[Subset, ...]
    reports: tuple[EntropyReport, ...]
    crossover: int  # index of the first authorized set

    @property
    def entropies(self) -> tuple[float, ...]:
        return tuple(r.entropy_bits for r in self.reports)

    def is_tent(self) -> bool:
        """Nondecreasing before the crossover, nonincreasing after it."""
        vals = [r.rank_excess for r in self.reports]
        j = self.crossover
        rising = all(vals[i] <= vals[i + 1] for i in range(j - 1))
        falling = all(vals[i] >= vals[i + 1] for i in range(j, len(vals) - 1))
        return rising and falling


def chain_profile(
    g: AccessStructure,
    secret: SecretSpec,
    chain,
    rz: SchemeRealization | None = None,
) -> EntropyProfile:
    """Entropy profile along a chain from the empty set to all players.

    The chain must grow by exactly one player per step. The first and
    last entropies are checked against their exact contracts: 0 at the
    empty set, and S(secret) at the full set for self-dual structures
    (at least S(secret) otherwise).
    """
    chain = [tuple(sorted(set(step))) for step in chain]
    if not chain or chain[0] != () or chain[-1] != g.players:
        raise ValueError("chain must run from the empty set to all players")
    for prev, nxt in zip(chain, chain[1:]):
        if not (set(prev) < set(nxt) and len(nxt) == len(prev) + 1):
            raise ValueError("chain must add exactly one player per step")
    rz = rz or realize(g, secret.q)
    _check_structure(rz, g)
    reports = _reports(rz, secret, chain, np.array([access._mask(s, g.n) for s in chain]))
    flags = [r.authorized for r in reports]
    if flags != sorted(flags) or not flags[-1]:
        raise RuntimeError("authorization must flip exactly once along a chain")
    crossover = flags.index(True)
    if reports[0].rank_excess != 0:
        raise RuntimeError("empty set must carry zero entropy")
    final = reports[-1]
    if rz.hidden_player is None and final.rank_excess != 0:
        raise RuntimeError("full set of a pure scheme must carry exactly the secret entropy")
    if final.rank_excess < 0:
        raise RuntimeError("full set must carry at least the secret entropy")
    return EntropyProfile(tuple(chain), tuple(reports), crossover)


def _player_orders(g: AccessStructure):
    """The n! orders of adding the players, lexicographic: one per maximal chain.

    Refuses up front when n! exceeds 2^ENUMERATION_CAP, the bound the
    subset sweeps use, instead of running for hours.
    """
    if math.factorial(g.n) > 2**access.ENUMERATION_CAP:
        raise ValueError(
            f"refusing {g.n}! chain enumeration (cap 2^{access.ENUMERATION_CAP})"
        )
    return permutations(g.players)


def maximal_chains(g: AccessStructure):
    """All n! one-player-at-a-time chains from empty to full, in `_player_orders`."""
    return ([tuple(sorted(perm[:i])) for i in range(g.n + 1)] for perm in _player_orders(g))


_SLAB_CHAINS = 1 << 12


def chain_text_blocks(g: AccessStructure, secret: SecretSpec, rz: SchemeRealization):
    """`chain_profile` over all `maximal_chains` as text, a block per `_SLAB_CHAINS`
    chains. The chains share one table, checked before the first block: every
    chain has the greedy chain's end contracts, `mask_entropies` checks every
    subset's ranges, and the flag flips once along every chain iff no covering
    pair goes from authorized to unauthorized. Each chain gathers its text from
    that one evaluation, formatted once per subset."""
    orders = _player_orders(g)
    chain_profile(g, secret, greedy_chain(g), rz)
    masks = np.arange(1 << g.n)
    authorized, _, _, bits = mask_entropies(rz, secret, masks)
    if not all((authorized <= authorized[masks | 1 << b]).all() for b in range(g.n)):
        raise RuntimeError("authorization must flip exactly once along a chain")
    fixed6 = np.array([f"{v:.6f}" for v in bits.tolist()], object)
    return _chain_lines(g, orders, authorized, fixed6)


def _chain_lines(g: AccessStructure, orders, authorized: np.ndarray, fixed6: np.ndarray):
    labels = np.array([str(p) for p in range(g.n + 1)], object)
    while slab := list(islice(orders, _SLAB_CHAINS)):
        players = np.array(slab)
        masks = np.bitwise_or.accumulate(np.pad(1 << players - 1, ((0, 0), (1, 0))), axis=1)
        crossovers = authorized[masks].argmax(axis=1).tolist()  # the first authorized set
        yield "".join(
            f"chain {'>'.join(order)} entropies {','.join(vals)} crossover {c}\n"
            for order, vals, c in zip(labels[players].tolist(), fixed6[masks].tolist(), crossovers)
        )


def greedy_chain(g: AccessStructure) -> list[Subset]:
    """The chain adding players in ascending label order."""
    return [tuple(range(1, i + 1)) for i in range(g.n + 1)]


@dataclass(frozen=True)
class ExtremalReport:
    max_authorized: EntropyReport
    max_authorized_is_minimal_set: bool
    max_unauthorized: EntropyReport
    max_unauthorized_is_maximal_set: bool

    def all_pass(self) -> bool:
        return self.max_authorized_is_minimal_set and self.max_unauthorized_is_maximal_set


def extremal_check(
    g: AccessStructure, secret: SecretSpec, rz: SchemeRealization | None = None
) -> ExtremalReport:
    """Locate the entropy maxima among authorized and unauthorized sets.

    The authorized maximum must be attained at some minimal authorized
    set and the unauthorized maximum at some maximal unauthorized set.
    Ties are allowed; each side, never empty, reports its first subset
    in subset order.
    """
    rz, auth, cut = _sweep(g, secret, rz)

    def side(flag: np.ndarray, extremal_masks: np.ndarray) -> tuple[int, bool]:
        top = cut[flag].max()
        first = min(np.flatnonzero(flag & (cut == top)).tolist(), key=_subset_order)
        attained = bool((cut[extremal_masks] == top).any())
        return first, attained

    top_authorized, minimal = side(auth, g.masks)
    top_unauthorized, maximal = side(~auth, access._maximal_unauthorized_masks(g))
    tops = [top_authorized, top_unauthorized]
    authorized, unauthorized = _reports(rz, secret, map(access._members, tops), np.array(tops))
    return ExtremalReport(authorized, minimal, unauthorized, maximal)


def format_subset(a: Subset) -> str:
    return "-".join(str(p) for p in a)


def reports_to_csv(reports) -> str:
    """CSV with header subset,size,authorized,entropy_bits."""
    lines = ["subset,size,authorized,entropy_bits"]
    for r in reports:
        lines.append(
            f"{format_subset(r.subset)},{len(r.subset)},"
            f"{'true' if r.authorized else 'false'},{r.entropy_bits:.6f}"
        )
    return "\n".join(lines) + "\n"
