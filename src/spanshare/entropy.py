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
set; a and b are recovered from cut(A) and the degrees, since
k - cut(A) - 1 = K - 1 for the side holding whole blocks. Exact
elimination over F_q is the reference the tests hold them to.

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
from itertools import permutations

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
        # NaN compares false both ways, so `p < 0` and the sum check let it through.
        if not all(math.isfinite(p) and p >= 0 for p in self.distribution):
            raise ValueError("probabilities must be finite and nonnegative")
        if abs(math.fsum(self.distribution) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")

    @classmethod
    def uniform(cls, q: int) -> "SecretSpec":
        return cls(q)

    @classmethod
    def point(cls, q: int, s: int) -> "SecretSpec":
        """All weight on s: a tuple of q floats, for fields the oracle can sweep."""
        dist = [0.0] * q
        dist[s % q] = 1.0
        return cls(q, tuple(dist))

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

    def __post_init__(self):
        if max(self.rank_subset, self.rank_complement) > self.rank_total:
            raise ValueError("subset ranks cannot exceed the full rank")
        if self.entropy_bits < -1e-12:
            raise ValueError("entropy cannot be negative")

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

    @property
    def full_players(self) -> Subset:
        n = self.structure.n + (1 if self.hidden_player else 0)
        return tuple(range(1, n + 1))


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


def _counted(rz: SchemeRealization, secret: SecretSpec, authorized, split, rows):
    """a, b and the entropy in bits from the cut count and the rows held. Plain
    arithmetic, flags as 0/1: one subset's Python numbers and arrays of many
    give the same floats."""
    layout = rz.layout
    tied = layout.k - split - 1  # K - 1 on the side holding whole blocks
    a_rk = rows - tied * authorized
    b_rk = layout.d - rows - tied * (1 - authorized)
    return a_rk, b_rk, split * math.log2(rz.q) + secret.entropy_bits * authorized


def subset_report(rz: SchemeRealization, secret: SecretSpec, a) -> EntropyReport:
    """Entropy of the shares of `a`, a subset of the original players."""
    if secret.q != rz.q:
        raise ValueError("secret field does not match the program field")
    a = tuple(sorted(set(a)))
    layout = rz.layout
    auth, cut = layout.cut_table
    s = access._mask(a, rz.structure.n)
    authorized, split = auth.item(s), cut.item(s)
    rows = sum(map(layout.degrees.__getitem__, a))
    a_rk, b_rk, bits = _counted(rz, secret, authorized, split, rows)
    return EntropyReport(a, authorized, a_rk, b_rk, layout.e, bits)


def subset_bits(rz: SchemeRealization, secret: SecretSpec, masks: np.ndarray) -> np.ndarray:
    """`subset_report`'s entropies of many subsets of the original players,
    given as masks: the same arithmetic, so the same floats, with both
    `EntropyReport` checks run on the arrays."""
    if secret.q != rz.q:
        raise ValueError("secret field does not match the program field")
    layout = rz.layout
    auth, cut = layout.cut_table
    held = masks[:, None] >> np.arange(rz.structure.n) & 1
    rows = held @ np.array(layout.degrees[1 : rz.structure.n + 1])
    a_rk, b_rk, bits = _counted(rz, secret, auth[masks], cut[masks], rows)
    if (np.maximum(a_rk, b_rk) > layout.e).any():
        raise ValueError("subset ranks cannot exceed the full rank")
    if (bits < -1e-12).any():
        raise ValueError("entropy cannot be negative")
    return bits


def subset_entropy(g: AccessStructure, secret: SecretSpec, a) -> EntropyReport:
    return subset_report(realize(g, secret.q), secret, a)


def _sweep(g: AccessStructure, secret: SecretSpec, rz: SchemeRealization | None):
    """The checked realization and its (auth, cut) over the original players' masks."""
    access._check_cap(g.n)
    rz = rz or realize(g, secret.q)
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
    return [subset_report(rz, secret, a) for a in subsets_in_order(g.players)]


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
    if chain[0] != () or chain[-1] != g.players:
        raise ValueError("chain must run from the empty set to all players")
    for prev, nxt in zip(chain, chain[1:]):
        if not (set(prev) < set(nxt) and len(nxt) == len(prev) + 1):
            raise ValueError("chain must add exactly one player per step")
    rz = rz or realize(g, secret.q)
    reports = tuple(subset_report(rz, secret, step) for step in chain)
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
    return EntropyProfile(tuple(chain), reports, crossover)


def maximal_chains(g: AccessStructure):
    """All n! one-player-at-a-time chains from empty to full, lexicographic.

    Refuses up front when n! exceeds 2^ENUMERATION_CAP, the bound the
    subset sweeps use, instead of running for hours.
    """
    if math.factorial(g.n) > 2**access.ENUMERATION_CAP:
        raise ValueError(
            f"refusing {g.n}! chain enumeration (cap 2^{access.ENUMERATION_CAP})"
        )
    return (
        [tuple(sorted(perm[:i])) for i in range(g.n + 1)]
        for perm in permutations(g.players)
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

    def side(flag: np.ndarray, extremal_masks: np.ndarray) -> tuple[EntropyReport, bool]:
        top = cut[flag].max()
        first = min(np.flatnonzero(flag & (cut == top)).tolist(), key=_subset_order)
        attained = bool((cut[extremal_masks] == top).any())
        return subset_report(rz, secret, access._members(first)), attained

    return ExtremalReport(
        *side(auth, g.masks), *side(~auth, access._maximal_unauthorized_masks(g))
    )


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
