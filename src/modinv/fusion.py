"""Commutative fusion rings over the nonnegative integers.

A fusion ring is given by a finite label set with distinguished vacuum 0
and nonnegative integer structure constants N_{lam mu}^nu; the labels
are known by their names, in order.  A ring holds N by its nonzeros
only (`FusionRing.nonzeros`): the label triples and their values, in C
order of (lam, mu, nu), never an m^3 array.  What N alone decides is
read off them here, once: the conjugation (the nu = 0 entries) and the
cyclic subgroups of the simple-current group.  The current mask, the
cyclic subgroups and the axioms cost O(nnz) or O(nnz + m^2) each; the
quantum dimensions are one symmetric eigensolve, O(m^3); associativity
is decided by a randomized identity test with fresh entropy, and its
failing positions are named exactly.
Everything downstream (modular data, invariant enumeration, extensions)
consumes the interface defined here.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "FusionRing",
    "quantum_dimensions",
    "verify_axioms",
    "simple_currents",
    "check_size",
]

DIM_TOL = 1e-9
# Largest label count of a model.  Downstream every model is held as
# m x m matrices (Omega, Y, S, T, the commutant's cells and basis), so a
# larger m is refused before any of them, or the nonzeros, is formed.
MAX_LABELS = 256


def check_size(m: int) -> None:
    """Refuse m labels above MAX_LABELS; called before anything of size
    m is allocated."""
    if m > MAX_LABELS:
        raise ValueError(f"{m} labels exceed the {MAX_LABELS}-label limit")


class FusionRing:
    """Fusion ring on labels 0..m-1 with vacuum at position 0; names[i]
    is the display name of label i.

    N_{lam mu}^nu is given and held by its nonzeros: `nonzeros` is
    (lam, mu, nu, val), label arrays and the values N_{lam mu}^nu, with
    distinct in-range triples in C order of (lam, mu, nu), so the
    nonzeros of each N[lam] are contiguous; the arrays are read-only.
    `flat` is the position ((lam m + mu) m + nu) of each nonzero in the
    flattened m x m x m array, ascending, also read-only.  conj is the
    conjugation permutation, read off the vacuum slice:
    N_{lam mu}^0 = delta_{mu, conj(lam)}, so the nu = 0 entries must
    form a permutation matrix.
    """

    def __init__(self, names: Sequence[str], lam, mu, nu, val):
        self.names: List[str] = [str(nm) for nm in names]
        m = len(self.names)
        if not m:
            raise ValueError("fusion ring has no labels")
        self.nonzeros: Tuple[np.ndarray, ...] = tuple(
            np.ascontiguousarray(a, dtype=int).ravel() for a in (lam, mu, nu, val))
        lam, mu, nu, val = self.nonzeros
        for a in self.nonzeros:
            a.flags.writeable = False
        self.flat = key = (lam * m + mu) * m + nu
        key.flags.writeable = False
        if not (all(0 <= x.min(initial=0) and x.max(initial=0) < m for x in (lam, mu, nu))
                and (key[1:] > key[:-1]).all() and val.all()):
            raise ValueError(f"fusion nonzeros are not distinct triples in 0..{m - 1}, "
                             f"in C order, with nonzero values")
        vacuum = nu == 0
        self.conj = mu[vacuum]
        if not (np.array_equal(lam[vacuum], np.arange(m)) and np.all(val[vacuum] == 1)
                and np.array_equal(np.sort(self.conj), np.arange(m))):
            raise ValueError("vacuum slice N[:, :, 0] is not a permutation matrix")

    @property
    def size(self) -> int:
        return len(self.names)

    @functools.cached_property
    def d(self) -> np.ndarray:
        """Quantum dimensions (cached)."""
        return quantum_dimensions(self)

    @functools.cached_property
    def is_current(self) -> np.ndarray:
        """Mask of the simple currents: labels g whose fusion permutes the
        labels (each row of N[g] is a unit vector; in a ring, d_g = 1).
        A row is a unit vector when it holds one nonzero and that is 1."""
        lam, mu, _, val = self.nonzeros
        m = self.size
        row = lam * m + mu
        unit = np.bincount(row, minlength=m * m) == 1
        unit[row[val != 1]] = False
        return unit.reshape(m, m).all(axis=1)

    @functools.cached_property
    def current_pairs(self) -> np.ndarray:
        """m x m mask of the pairs (mu, nu) that a simple current joins:
        N_{sigma mu}^nu != 0 for some current sigma (cached, read-only)."""
        lam, mu, nu, _ = self.nonzeros
        current = self.is_current[lam]
        joined = np.zeros((self.size, self.size), dtype=bool)
        joined[mu[current], nu[current]] = True
        joined.flags.writeable = False
        return joined

    @property
    def global_index(self) -> float:
        """w = sum of squared quantum dimensions."""
        return float(np.sum(self.d ** 2))

    def __repr__(self) -> str:
        return f"FusionRing(m={self.size})"


def quantum_dimensions(ring: FusionRing) -> np.ndarray:
    """Common Perron-Frobenius eigenvector of all fusion matrices.

    Returns d with d[0] = 1 and N_lam d = d_lam d for every lam, up to a
    residual below DIM_TOL.  M = sum_lam N_lam is symmetric by Frobenius
    reciprocity, N_{lam mu}^nu = N_{conj(lam) nu}^mu, and entrywise
    positive, so d is its top eigenvector, from one symmetric eigensolve.
    Raises ValueError for an M that is not symmetric, naming its first
    asymmetric (mu, nu), or for an ill-conditioned ring.
    """
    lam, mu, nu, val = ring.nonzeros
    m = ring.size
    # M = sum_lam N_lam, and the residual N_lam d - d_lam d, on the nonzeros.
    M = np.bincount(mu * m + nu, weights=val, minlength=m * m).reshape(m, m)
    asym = np.flatnonzero(M != M.T)
    if len(asym):
        raise ValueError(f"Frobenius reciprocity fails: sum_lam N_lam is not symmetric "
                         f"at {_first_bad(asym, (m, m))[0]}")
    try:
        v = np.linalg.eigh(M)[1][:, -1]
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"ill-conditioned fusion ring: {exc}") from None
    if abs(v[0]) < 1e-12:
        raise ValueError("ill-conditioned fusion ring: PF vector vanishes at vacuum")
    d = v / v[0]
    # Polish with one Rayleigh-style pass to reduce eigh() roundoff.  A
    # polish that meets u[0] = 0 leaves a NaN residual, refused below.
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(2):
            u = M @ d
            d = u / u[0]
        Nd = np.bincount(lam * m + mu, weights=val * d[nu], minlength=m * m)
        resid = float(np.max(np.abs(Nd - np.outer(d, d).ravel())))
    if not resid <= DIM_TOL:
        raise ValueError(
            f"ill-conditioned fusion ring: PF residual {resid:.3e} exceeds {DIM_TOL:.1e}"
        )
    return d


def _first_bad(cells: np.ndarray, shape: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    """The first three of the ascending flat C-order cells, as positions."""
    return [tuple(map(int, x)) for x in zip(*np.unravel_index(cells[:3], shape))]


def _spans(start: np.ndarray, end: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every position p in start[g]:end[g], for each g in order, with the
    g it came from: (which, p)."""
    cnt = end - start
    which = np.repeat(np.arange(len(cnt)), cnt)
    return which, np.arange(cnt.sum()) + np.repeat(start - (np.cumsum(cnt) - cnt), cnt)


def _grouped(key: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """Exact sums of the Python-int weights by key, as an object array."""
    out = np.zeros(size, dtype=object)
    np.add.at(out, key, weights)
    return out


def _associativity_failures(ring: FusionRing) -> List[Tuple[int, ...]]:
    """The first three (l, m, n, r), in C order, with
    sum_s N_{lm}^s N_{sn}^r != sum_s N_{mn}^s N_{ls}^r.

    Two trials of a randomized identity test (Freivalds; Rajagopalan-
    Schulman 2000), each with z, y, x uniform in [0, 2^32) from fresh
    entropy, in exact Python-int sums over the nonzeros, O(nnz + m^2):
    a_s = sum N_{sn}^r y_n x_r, C[l, s] = sum_r N_{ls}^r x_r,
    B[k, s] = sum_n N_{kn}^s y_n, L[l, k] = sum_s N_{lk}^s a_s.  D =
    L - C B^T is the associator contracted with x_r y_n; l is flagged when
    (D z)_l != 0 (a failing l is missed with probability <= 3/2^32), and
    each k with D[l, k] != 0 in either trial names the nonzeros of the
    exact slice sum_s N_{lk}^s N_s - N_k N_l, in C order.
    """
    lam, mu, nu, val = ring.nonzeros
    m = ring.size
    v = val.astype(object)
    trials = []
    for _ in range(2):
        z, y, x = np.random.default_rng().integers(0, 2 ** 32, size=(3, m)).astype(object)
        a = _grouped(lam, v * y[mu] * x[nu], m)
        C = _grouped(lam * m + mu, v * x[nu], m * m).reshape(m, m)
        B = _grouped(lam * m + nu, v * y[mu], m * m).reshape(m, m)
        L = _grouped(lam * m + mu, v * a[nu], m * m).reshape(m, m)
        trials.append((L, B, C, L @ z != C @ (B.T @ z)))
    # The nonzeros of N[l, k, :] are by_lk[l m + k]:by_lk[l m + k + 1].
    by_lk = np.searchsorted(lam * m + mu, np.arange(m * m + 1))
    out: List[Tuple[int, ...]] = []
    for l in np.flatnonzero(trials[0][3] | trials[1][3]):
        for k in np.flatnonzero(np.any([L[l] != B @ C[l] for L, B, C, _ in trials], axis=0)):
            # Each N_{lk}^s times the row N[s], less each N_{kn}^s times
            # the row N[l, s], summed into the (n, r) slice.
            i = np.arange(by_lk[l * m + k], by_lk[l * m + k + 1])
            g, j = _spans(by_lk[nu[i] * m], by_lk[nu[i] * m + m])
            q = np.arange(by_lk[k * m], by_lk[k * m + m])
            h, p = _spans(by_lk[l * m + nu[q]], by_lk[l * m + nu[q] + 1])
            net = _grouped(np.concatenate([mu[j] * m + nu[j], mu[q[h]] * m + nu[p]]),
                           np.concatenate([v[i[g]] * v[j], -(v[q[h]] * v[p])]), m * m)
            out += _first_bad(np.flatnonzero(net)[:3 - len(out)] + (l * m + k) * m * m, (m,) * 4)
            if len(out) == 3:
                return out
    return out


def verify_axioms(ring: FusionRing) -> List[str]:
    """Check the fusion-ring axioms; return a list of violation messages.

    Empty list means the ring passed.  Checks: integrality/nonnegativity,
    vacuum acts as identity, commutativity, associativity, conjugation
    (the vacuum slice, see FusionRing) is an involution fixing the vacuum,
    and the quantum dimensions exist with d >= 1 (they need Frobenius
    reciprocity: sum_lam N_lam symmetric).  Positions are listed
    in C order, three at most.  Associativity is two randomized trials
    with fresh entropy: a non-associative ring passes with probability
    <= (3/2^32)^2 < 2^-60, whatever file it came from, and the output is
    deterministic except with probability below 2^-58.
    """
    out: List[str] = []
    lam, mu, nu, val = ring.nonzeros
    m = ring.size

    key = (lam * m + mu) * m + nu
    if np.any(val < 0):
        out.append(f"negative structure constants at {_first_bad(key[val < 0], (m,) * 3)}")

    # N[0] and N[:, 0] are the identity: their nonzeros are (j, j) -> 1.
    labels = np.arange(m)
    for side, (i, j) in (("left", (lam, mu)), ("right", (mu, lam))):
        unit = i == 0
        if not (np.array_equal(j[unit], labels) and np.array_equal(nu[unit], labels)
                and np.all(val[unit] == 1)):
            out.append(f"vacuum is not a {side} identity")

    # N differs from its transpose N[mu, lam] at a nonzero whose mirror
    # holds another value, and at the mirror of a nonzero that has none.
    mirror = (mu * m + lam) * m + nu
    at = np.minimum(np.searchsorted(key, mirror), len(key) - 1)
    found = key[at] == mirror
    comm = np.union1d(key[val != np.where(found, val[at], 0)], mirror[~found])
    if len(comm):
        out.append(f"commutativity fails at {_first_bad(comm, (m,) * 3)}")

    assoc = _associativity_failures(ring)
    if assoc:
        out.append(f"associativity fails at {assoc}")

    c = ring.conj
    if c[0] != 0:
        out.append("conjugation does not fix the vacuum")
    if not np.array_equal(c[c], np.arange(m)):
        out.append("conjugation is not an involution")

    try:
        d = ring.d
        if np.any(d < 1.0 - DIM_TOL):
            out.append(f"quantum dimension below 1 at "
                       f"{_first_bad(np.flatnonzero(d < 1.0 - DIM_TOL), (m,))}")
    except ValueError as exc:
        out.append(str(exc))

    return out


def simple_currents(ring: FusionRing) -> Dict[Tuple[int, ...], int]:
    """The cyclic subgroups of the simple-current group: each subgroup
    (its labels, ascending) mapped to its smallest generating label.

    The currents are `FusionRing.is_current` (exact).  They must close
    under fusion and conjugation, and the powers of each must reach the
    vacuum; a ring not passed through verify_axioms may fail any of these.
    """
    (currents,) = np.nonzero(ring.is_current)
    n = len(currents)

    # pos[label] = position among the currents, -1 off them.  Each current
    # row N[g, h] holds one nonzero, at the product label, so the m
    # nonzeros of N[g] are the action of g on the labels, in order of h.
    lam, _, nu, _ = ring.nonzeros
    pos = np.full(ring.size, -1)
    pos[currents] = np.arange(n)
    action = nu[ring.is_current[lam]].reshape(n, ring.size)
    table = pos[action[:, currents]]
    if np.any(table < 0):
        raise ValueError("simple currents do not close under fusion")
    if np.any(pos[ring.conj[currents]] < 0):
        raise ValueError("simple currents do not close under conjugation")

    # x = i^k for every current i at once, until each has come back to
    # the vacuum: row i of powers marks the cyclic subgroup <i>.  i and j
    # generate the same subgroup when each is a power of the other; i is
    # its smallest generator when no j < i is.
    idx = np.arange(n)
    powers = np.zeros((n, n), dtype=bool)
    x = idx
    for _ in range(n):
        powers[idx, x] = True
        if powers[:, 0].all():
            break
        x = table[x, idx]
    else:
        raise ValueError("simple currents do not form a group")
    smallest = ((powers & powers.T).argmax(axis=1) == idx).nonzero()[0]
    return {tuple(currents[powers[i]].tolist()): int(currents[i]) for i in smallest}
