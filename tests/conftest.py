"""Shared fixtures and independent brute-force oracles.

The brute-force helpers here deliberately avoid the library's
elimination code: independence is decided by enumerating coefficient
vectors and authorization by scanning minimal sets directly, so they
can serve as ground truth for the fast implementations.
"""

from __future__ import annotations

from itertools import combinations, product

import pytest

from spanshare import SecretSpec, from_minimal_sets, realize

TRIANGLE_SETS = [[1, 2], [2, 3], [3, 1]]
FAN_SETS = [[1, 2], [1, 3]]  # not self-dual; realized via purification
STAR_SETS = [[1, 2], [1, 3], [1, 4], [2, 3, 4]]  # self-dual on 4 players


@pytest.fixture(scope="session")
def triangle():
    return from_minimal_sets(3, TRIANGLE_SETS)


@pytest.fixture(scope="session")
def fan():
    return from_minimal_sets(3, FAN_SETS)


@pytest.fixture(scope="session")
def star4():
    return from_minimal_sets(4, STAR_SETS)


@pytest.fixture(scope="session")
def triangle_rz(triangle):
    return realize(triangle, 2)


@pytest.fixture(scope="session")
def fan_rz(fan):
    return realize(fan, 2)


@pytest.fixture(scope="session")
def star4_rz(star4):
    return realize(star4, 2)


@pytest.fixture
def corrupted_triangle_rz(triangle):
    """A fresh triangle realization whose cut table puts S(1, 2) below S(1, 2, 3)."""
    rz = realize(triangle, 2)
    auth, cut = rz.layout.cut_table
    cut = cut.copy()
    cut[0b011] = -1  # 0 bits for (1, 2) against the 1 bit of the full set
    rz.layout.__dict__["cut_table"] = (auth, cut)
    return rz


@pytest.fixture(scope="session")
def uniform2():
    return SecretSpec.uniform(2)


@pytest.fixture(scope="session")
def biased2():
    return SecretSpec(2, (0.9, 0.1))


def brute_independent(rows, q: int) -> bool:
    """True iff no nontrivial combination of `rows` vanishes.

    Enumerates all q^k coefficient vectors; exact but exponential.
    """
    if not rows:
        return True
    width = len(rows[0])
    for coeffs in product(range(q), repeat=len(rows)):
        if not any(coeffs):
            continue
        if all(
            sum(c * row[j] for c, row in zip(coeffs, rows)) % q == 0
            for j in range(width)
        ):
            return False
    return True


def brute_rank(rows, q: int) -> int:
    """Size of a largest independent subset, by exhaustive search.

    Only subsets whose proper subsets are all independent can carry a
    minimal dependence with every coefficient nonzero, which keeps the
    enumeration at q^d total work.
    """
    rows = [tuple(r) for r in rows]
    independent = {(): True}
    best = 0
    for size in range(1, len(rows) + 1):
        for subset in combinations(range(len(rows)), size):
            if not all(
                independent.get(subset[:i] + subset[i + 1 :], False)
                for i in range(size)
            ):
                independent[subset] = False
                continue
            ok = _no_full_support_dependence([rows[i] for i in subset], q)
            independent[subset] = ok
            if ok:
                best = size
    return best


def _no_full_support_dependence(rows, q: int) -> bool:
    width = len(rows[0])
    for coeffs in product(range(1, q), repeat=len(rows)):
        if all(
            sum(c * row[j] for c, row in zip(coeffs, rows)) % q == 0
            for j in range(width)
        ):
            return False
    return True


def brute_solve(rows, q: int, target) -> tuple | None:
    """First coefficient vector with sum(c_i row_i) = target, or None."""
    rows = [tuple(r) for r in rows]
    width = len(target)
    for coeffs in product(range(q), repeat=len(rows)):
        if all(
            sum(c * row[j] for c, row in zip(coeffs, rows)) % q == target[j] % q
            for j in range(width)
        ):
            return coeffs
    return None


def all_subsets(n: int):
    players = range(1, n + 1)
    for mask in range(1 << n):
        yield tuple(p for i, p in enumerate(players) if mask >> i & 1)


def brute_authorized(minimal_sets, subset) -> bool:
    s = set(subset)
    return any(set(ms) <= s for ms in minimal_sets)


def brute_dual_minimal_sets(n: int, minimal_sets):
    """Minimal sets of the dual, straight from its definition."""
    authorized_in_dual = [
        a
        for a in all_subsets(n)
        if not brute_authorized(minimal_sets, set(range(1, n + 1)) - set(a))
    ]
    mins = []
    for a in authorized_in_dual:
        if not any(set(b) < set(a) for b in authorized_in_dual):
            mins.append(tuple(sorted(a)))
    return sorted(mins, key=lambda s: (len(s), s))
