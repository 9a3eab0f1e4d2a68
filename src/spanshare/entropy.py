"""Share-subset entropies from ranks of the span matrix.

For a scheme realized by a normal-form program, the entropy of the
shares held by a player set A is

    S(A) = (a + b - m) * log2(q) + S(secret)   if A is authorized
    S(A) = (a + b - m) * log2(q)               otherwise

where a, b, m are the ranks of the rows of A, the rows of its
complement, and the whole matrix. In the normal form these ranks are
counted from the block layout, with no elimination: for a player set S,

    rank(M_S) = sum_i |A_i & S| - max(0, K(S) - 1),

with A_i the minimal sets and K(S) the number of them inside S.
`NormalFormLayout.rank_table` holds K and this rank for all 2^n player
sets, so each subset's entropy is two lookups, and A is authorized iff
K(A) > 0. For S the full player set every block is inside, so
m = d - (k - 1) = e. Exact elimination over F_q is the reference the
tests hold the table to. Structures that are not
self-dual are first extended by one purification player; the extra
share is kept out of every queried subset but participates in the
complement ranks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

from . import access
from .access import AccessStructure, Subset, classify, purify, subsets_in_order
from .msp import MonotoneSpanProgram, NormalFormLayout, build_normal_form


@dataclass(frozen=True)
class SecretSpec:
    """Classical secret ensemble: a probability for each value in F_q."""

    q: int
    distribution: tuple[float, ...]

    def __post_init__(self):
        if self.q < 2:
            raise ValueError(f"field size must be at least 2, got {self.q}")
        if len(self.distribution) != self.q:
            raise ValueError("need one probability per field element")
        # NaN compares false both ways, so `p < 0` and the sum check let it through.
        if not all(math.isfinite(p) and p >= 0 for p in self.distribution):
            raise ValueError("probabilities must be finite and nonnegative")
        if abs(math.fsum(self.distribution) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")

    @classmethod
    def uniform(cls, q: int) -> "SecretSpec":
        return cls(q, tuple(1.0 / q for _ in range(q)))

    @classmethod
    def point(cls, q: int, s: int) -> "SecretSpec":
        dist = [0.0] * q
        dist[s % q] = 1.0
        return cls(q, tuple(dist))

    @property
    def entropy_bits(self) -> float:
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
    """A structure together with the normal-form program realizing it.

    For non-self-dual structures the program lives on the purified
    structure and `hidden_player` names the extra share; queries are
    always posed on the original players.
    """

    structure: AccessStructure
    program: MonotoneSpanProgram
    layout: NormalFormLayout
    hidden_player: int | None

    @property
    def q(self) -> int:
        return self.program.field.q

    @property
    def full_players(self) -> Subset:
        n = self.structure.n + (1 if self.hidden_player else 0)
        return tuple(range(1, n + 1))


def realize(g: AccessStructure, q: int = 2) -> SchemeRealization:
    """Build the normal-form realization, purifying when not self-dual.

    `purify` rejects unrealizable input and `build_normal_form` rejects
    a player outside every minimal set, which purification keeps outside.
    """
    if classify(g).self_dual:
        program, layout = build_normal_form(g, q)
        return SchemeRealization(g, program, layout, None)
    extended = purify(g)
    program, layout = build_normal_form(extended, q)
    return SchemeRealization(g, program, layout, extended.n)


def subset_report(rz: SchemeRealization, secret: SecretSpec, a) -> EntropyReport:
    """Entropy of the shares of `a`, a subset of the original players."""
    if secret.q != rz.q:
        raise ValueError("secret field does not match the program field")
    a = tuple(sorted(set(a)))
    original = set(rz.structure.players)
    if not set(a) <= original:
        raise ValueError(f"subset {a} contains unknown players")
    counts, rank = rz.layout.rank_table
    s = access._mask(a, rz.structure.n)
    complement = ((1 << len(rz.full_players)) - 1) ^ s
    a_rk, b_rk = int(rank[s]), int(rank[complement])
    m_rk = rz.layout.e  # rank of the full player set: d - (k - 1) = e
    authorized = bool(counts[s])
    bits = (a_rk + b_rk - m_rk) * math.log2(rz.q)
    if authorized:
        bits += secret.entropy_bits
    return EntropyReport(a, authorized, a_rk, b_rk, m_rk, bits)


def subset_entropy(g: AccessStructure, secret: SecretSpec, a) -> EntropyReport:
    return subset_report(realize(g, secret.q), secret, a)


def all_subset_entropies(
    g: AccessStructure, secret: SecretSpec, rz: SchemeRealization | None = None
) -> list[EntropyReport]:
    access._check_cap(g.n)
    rz = rz or realize(g, secret.q)
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
    log2 q, so the comparison is exact on the rank sums.
    """
    return _covering_violations(all_subset_entropies(g, secret, rz), g.players)


def _covering_violations(reports, players) -> list[MonotonicityViolation]:
    """Same-flag covering pairs out of order; `reports` holds every subset of `players`."""
    by_subset = {r.subset: r for r in reports}
    violations = []
    for small in reports:
        for p in players:
            if p in small.subset:
                continue
            large = by_subset[tuple(sorted(small.subset + (p,)))]
            if small.authorized != large.authorized:
                continue
            if small.authorized and small.rank_excess < large.rank_excess:
                violations.append(MonotonicityViolation(small, large))
            if not small.authorized and small.rank_excess > large.rank_excess:
                violations.append(MonotonicityViolation(small, large))
    return violations


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
    crossover = next(i for i, r in enumerate(reports) if r.authorized)
    flags = [r.authorized for r in reports]
    if flags != sorted(flags):
        raise RuntimeError("authorization must flip exactly once along a chain")
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
    max_unauthorized: EntropyReport | None
    max_unauthorized_is_maximal_set: bool

    def all_pass(self) -> bool:
        return self.max_authorized_is_minimal_set and self.max_unauthorized_is_maximal_set


def extremal_check(
    g: AccessStructure, secret: SecretSpec, rz: SchemeRealization | None = None
) -> ExtremalReport:
    """Locate the entropy maxima among authorized and unauthorized sets.

    The authorized maximum must be attained at some minimal authorized
    set and the unauthorized maximum at some maximal unauthorized set;
    ties across several sets are allowed.
    """
    reports = all_subset_entropies(g, secret, rz)
    authorized = [r for r in reports if r.authorized]
    unauthorized = [r for r in reports if not r.authorized]
    best_auth = max(authorized, key=lambda r: r.rank_excess)
    minimal_sets = set(g.minimal_sets)
    auth_ok = any(
        r.rank_excess == best_auth.rank_excess and r.subset in minimal_sets
        for r in authorized
    )
    if unauthorized:
        best_unauth = max(unauthorized, key=lambda r: r.rank_excess)
        maximal_sets = set(access.maximal_unauthorized(g))
        unauth_ok = any(
            r.rank_excess == best_unauth.rank_excess and r.subset in maximal_sets
            for r in unauthorized
        )
    else:
        best_unauth, unauth_ok = None, True
    return ExtremalReport(best_auth, auth_ok, best_unauth, unauth_ok)


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
