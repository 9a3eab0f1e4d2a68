"""Codeword oracle for the span-program schemes.

The encoding map sends a basis secret s to the uniform superposition
over its N = q^(e-1) codewords M u with secret coordinate s. The sweep
builds no q^d state vector and no density matrix: it counts codewords.
For a subset holding coordinates A, with the rest R, each secret's
codewords form a coset of one linear code, so the components (blocks)
of their A-pattern x R-pattern graph are complete bipartite, and their
A-pattern sets are identical or disjoint across secrets (Smith,
quant-ph/0001087). So rho_s = sum_L (w[L, s] / N) u_L u_L^T, u_L uniform
on block L's A-patterns: entropies, trace distances and overlaps are
sums over the integer counts w, and secrecy and recoverability are
exact tests. Both block facts are checked, not assumed. The sweep
shares no code path with the rank formula, so agreement between the
two is evidence, not tautology. The dense reference the tests hold
the sweep to, state vectors reduced and diagonalized, lives in
`tests/dense_reference.py`.

Basis convention: a codeword (y_1, ..., y_d) maps to the amplitude
index sum(y_j * q^(d-j)), i.e. big-endian with coordinate 1 most
significant.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .access import _mask, subsets_in_order
from .entropy import SchemeRealization, SecretSpec, mask_entropies
from .msp import MonotoneSpanProgram, codewords

DEFAULT_CAP = 2**22  # maximum q^d, the basis strings of the d codeword digits

FORMULA_TOLERANCE = 1e-6  # bits by which the simulation may differ from the formula


def exceeds_cap(q: int, d: int, cap: int) -> bool:
    """True when the q^d basis strings are over the cap."""
    return q**d > cap


def _encode(msp: MonotoneSpanProgram, cap: int) -> np.ndarray:
    """`codewords`, checked: within the cap and 64-bit keys, no collision, disjoint cosets."""
    q, d = msp.field.q, msp.shape[0]
    if exceeds_cap(q, d, cap):
        raise ValueError(f"state of q^d = {q}^{d} amplitudes exceeds the cap {cap}")
    if q ** (d + 1) >= 2**63:
        raise ValueError(f"q^(d+1) = {q}^{d + 1} overflows the oracle's 64-bit codeword keys")
    index = codewords(msp)
    flat = np.sort(index, axis=None)  # np.unique would import numpy.ma on first use
    if (flat[1:] == flat[:-1]).any():  # a repeat; within one secret's row it is a collision
        ordered = np.sort(index, axis=1)
        if (ordered[:, 1:] == ordered[:, :-1]).any():
            raise ValueError("encoding collides; the program is not in normal form")
        raise RuntimeError("secret cosets overlap; encodings are not orthogonal")
    return index


# Entries in each array of one batch of subsets: q^e keys per subset, and up to
# q block counts per key. One subset alone may exceed it.
_BATCH_CELLS = 1 << 20


def _run_starts(keys: np.ndarray, length: int) -> np.ndarray:
    """Flags over rows of `length` sorted keys, read flat, plus one past the end:
    True where a run of equal keys starts, at every row's start and at the end."""
    new = np.empty(keys.size + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:-1])
    new[::length] = True
    return new


def _blocks(index: np.ndarray, keep: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Block counts of a batch of subsets, given as rows of 0/1 flags: keep[i, j]
    is 1 when subset i holds coordinate j + 1.

    Returns (w, bounds): subset i's blocks are rows bounds[i]:bounds[i + 1]
    of w, and w[L, s] counts secret s's codewords in block L. The
    codewords sharing a secret and an R-pattern form a group, labeled by
    its least A-pattern. The labels are blocks when every A-pattern
    carries one label, across all secrets too, and every group holds all
    of its label's A-patterns; either failure is a `RuntimeError`. Keys
    are built one coordinate at a time, never as a q^e x d digit table,
    from whichever of A and R has fewer coordinates; the A-key is the
    index minus the R-key. A-keys are sorted a subset at a time and
    R-keys a secret at a time, as the rows of one array, then read
    through flat indices with per-row offsets.
    """
    q, size = index.shape
    width, flat = index.size, index.ravel()
    total = len(keep) * width
    flip = 2 * keep.sum(axis=1) > d  # key R, the smaller side
    use = keep != flip[:, None]
    on = np.zeros((len(keep), width), dtype=np.int64)
    # Each used coordinate's digit times its place, as many per pass as _BATCH_CELLS allows.
    coords = use.any(axis=0).nonzero()[0]
    step = max(1, _BATCH_CELLS // width)
    for lo in range(0, coords.size, step):
        chunk = coords[lo : lo + step]
        places = q ** (d - 1 - chunk[:, None])
        for j, term in zip(chunk.tolist(), flat // places % q * places):
            np.add(on, term, out=on, where=use[:, j, None])
    np.subtract(flat, on, out=on, where=flip[:, None])
    off = flat - on  # R-patterns, sorted below within each secret's N codewords
    # A-patterns as ids, numbered through the batch in key order.
    by_on = (on.argsort(axis=1) + np.arange(0, total, width)[:, None]).ravel()
    ranks = _run_starts(on.ravel()[by_on], width).cumsum()
    ids = np.empty(total, dtype=np.int64)
    ids[by_on] = ranks[:-1]
    ids -= 1
    firsts = ranks[::width] - 1  # each subset's first id, then the id count
    patterns = int(firsts[-1])
    del on, by_on, ranks  # every array here has q^e entries per subset: drop each early
    off = off.reshape(-1, size)
    by_off = (off.argsort(axis=1) + np.arange(0, total, size)[:, None]).ravel()
    edges = _run_starts(off.ravel()[by_off], size).nonzero()[0]
    del off
    ids = ids[by_off]
    del by_off
    groups, sizes = edges[:-1], edges[1:] - edges[:-1]
    labels = np.minimum.reduceat(ids, groups)
    label_of = labels.repeat(sizes)
    owner = np.empty(patterns, dtype=np.int64)  # every A-pattern lies in some group
    owner[ids] = label_of
    if (owner[ids] != label_of).any():
        raise RuntimeError(
            "an A-pattern lies in two blocks; row sets are neither identical nor disjoint"
        )
    del ids, label_of
    rows = np.bincount(owner, minlength=patterns)
    if (sizes != rows[labels]).any():
        raise RuntimeError("a codeword block is not complete bipartite; the codewords are no coset")
    heads = rows.nonzero()[0]  # the labels in order, one per block
    # Sorted by key, secret s's groups start at places s N to (s + 1) N of a subset's row.
    block = heads.searchsorted(labels) * q + groups % width // size
    w = np.bincount(block, minlength=heads.size * q).reshape(-1, q) * rows[heads, None]
    return w, heads.searchsorted(firsts)


def _sweep(rz: SchemeRealization, secret: SecretSpec, cap: int, subsets=None):
    """Encode now; then lazily yield, by default for all subsets, a batch of
    subsets at a time: (subsets, masks, bits, w, bounds), with the subsets'
    player masks, their entropies in bits, and block counts w, subset i's
    in rows bounds[i]:bounds[i + 1].

    A player holds the coordinates of its rows (coordinate = row + 1).
    For purified realizations the hidden player's bit is never in a mask,
    so its coordinates are always traced out.
    """
    if secret.q != rz.q:
        raise ValueError("secret field does not match the program field")
    program = rz.program
    index, d = _encode(program, cap), program.shape[0]
    subsets = list(subsets_in_order(rz.structure.players) if subsets is None else subsets)
    masks = np.fromiter((_mask(a, rz.structure.n) for a in subsets), np.int64, len(subsets))
    psi = np.array(program.psi) - 1
    step = max(1, _BATCH_CELLS // (rz.q * index.size))
    p = secret.probabilities / index.shape[1]  # q floats, as q <= q^d <= cap

    def batches():
        for lo in range(0, len(subsets), step):
            batch = masks[lo : lo + step]
            w, bounds = _blocks(index, batch[:, None] >> psi & 1, d)
            lam = w @ p  # the mixture's eigenvalues
            terms = lam * np.log2(lam, out=np.zeros(lam.shape), where=lam > 0)
            yield subsets[lo : lo + step], batch, -np.add.reduceat(terms, bounds[:-1]), w, bounds

    return batches()


def oracle_subset_entropy(
    rz: SchemeRealization, secret: SecretSpec, a, cap: int = DEFAULT_CAP
) -> float:
    """Entropy in bits of the shares of `a` under the scheme density."""
    a = tuple(sorted(set(a)))
    if not set(a) <= set(rz.structure.players):
        raise ValueError(f"subset {a} contains unknown players")
    ((_, _, bits, _, _),) = _sweep(rz, secret, cap, [a])
    return float(bits[0])


def _pair_measures(w: np.ndarray, authorized: bool) -> list[tuple[int, int, float]]:
    """(s, t, x) per pair of secrets s < t: x is the overlap sum_L w_s w_t / N^2
    on authorized sets and the trace distance sum_L |w_s - w_t| / 2N on the
    others, 0 exactly when the pair passes (w / N is exact for N < 2^52)."""
    spectra, pairs = w / w[:, 0].sum(), combinations(range(w.shape[1]), 2)
    if authorized:
        return [(s, t, float(spectra[:, s] @ spectra[:, t])) for s, t in pairs]
    return [(s, t, 0.5 * float(np.abs(spectra[:, s] - spectra[:, t]).sum())) for s, t in pairs]


@dataclass(frozen=True)
class SecrecyReport:
    """Outcome of the perfect secrecy / perfect recoverability sweep.

    Secrecy: every unauthorized reduction is the same state for every
    secret value; a violation is (subset, s, t, trace distance).
    Recoverability: authorized reductions of distinct secrets have zero
    overlap Tr(rho_s rho_t), i.e. orthogonal supports; a violation is
    (subset, s, t, overlap). Only classical (basis-diagonal) secret
    ensembles are swept; coherent secret states are outside this
    oracle's remit.
    """

    subsets_checked: int
    secrecy_violations: tuple
    recoverability_violations: tuple

    def ok(self) -> bool:
        return not self.secrecy_violations and not self.recoverability_violations


def _secrecy_report(rz: SchemeRealization, secret: SecretSpec, sweep) -> SecrecyReport:
    if (secret.probabilities <= 0).any():
        raise ValueError("secrecy sweep needs a full-support secret distribution")
    found: dict[bool, list] = {False: [], True: []}  # authorized -> violations
    checked, minimal = 0, rz.structure.masks
    for subsets, masks, _, w, bounds in sweep:
        checked += len(subsets)
        authorized = (masks[:, None] & minimal == minimal).any(axis=1)
        # Authorized sets fail where a block holds two secrets, the others where counts differ.
        shared = np.logical_or.reduceat((w > 0).sum(axis=1) > 1, bounds[:-1])
        uneven = np.logical_or.reduceat((w != w[:, :1]).any(axis=1), bounds[:-1])
        for i in np.where(authorized, shared, uneven).nonzero()[0].tolist():
            flag = bool(authorized[i])
            measures = _pair_measures(w[bounds[i] : bounds[i + 1]], flag)
            found[flag] += [(subsets[i], *m) for m in measures if m[2] > 0]
    return SecrecyReport(checked, tuple(found[False]), tuple(found[True]))


def verify_secrecy_recoverability(
    rz: SchemeRealization, secret: SecretSpec, cap: int = DEFAULT_CAP
) -> SecrecyReport:
    """Sweep every subset of the original players for both guarantees."""
    return _secrecy_report(rz, secret, _sweep(rz, secret, cap))


@dataclass(frozen=True)
class FormulaDiscrepancy:
    subset: tuple[int, ...]
    formula_bits: float
    oracle_bits: float


def _mismatches(rz, secret, sweep, tolerance, into: list):
    """Pass the sweep through, appending each formula disagreement to `into`."""
    for batch in sweep:
        subsets, masks, simulated, _, _ = batch
        formula = mask_entropies(rz, secret, masks)[3]
        for i in (np.abs(formula - simulated) > tolerance).nonzero()[0].tolist():
            into.append(FormulaDiscrepancy(subsets[i], float(formula[i]), float(simulated[i])))
        yield batch


def compare_with_formula(
    rz: SchemeRealization,
    secret: SecretSpec,
    cap: int = DEFAULT_CAP,
    tolerance: float = FORMULA_TOLERANCE,
) -> list[FormulaDiscrepancy]:
    """Check the rank formula against the simulation on every subset."""
    out: list[FormulaDiscrepancy] = []
    for _ in _mismatches(rz, secret, _sweep(rz, secret, cap), tolerance, out):
        pass
    return out


def verify_scheme(
    rz: SchemeRealization, secret: SecretSpec, cap: int = DEFAULT_CAP
) -> tuple[list[FormulaDiscrepancy], SecrecyReport]:
    """`compare_with_formula` and `verify_secrecy_recoverability` from one
    sweep: one encoding, each subset grouped once. A cap or encoding
    error comes before the full-support error."""
    mismatches: list[FormulaDiscrepancy] = []
    sweep = _mismatches(rz, secret, _sweep(rz, secret, cap), FORMULA_TOLERANCE, mismatches)
    return mismatches, _secrecy_report(rz, secret, sweep)
