"""Commutative fusion rings over the nonnegative integers.

A fusion ring is given by a finite label set with distinguished vacuum 0,
a tensor N[lam, mu, nu] = N_{lam mu}^nu of nonnegative integer structure
constants; the labels are known by their names, in order.  What N
alone decides is read off it here, once: the conjugation (the vacuum
slice) and the cyclic subgroups of the simple-current group.  N stays a
dense array, but it is read through its nonzeros (`FusionRing.nonzeros`,
one scan per ring): the current mask, the cyclic subgroups, the quantum
dimensions and the permutation test cost O(nnz) beyond that scan, not a
pass over all m^3 entries each, and associativity is checked one label
slice at a time on them.
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
    "fusion_tensor",
]

DIM_TOL = 1e-9
# Products the associativity check forms at once (a few int64 arrays of
# this length, 2 MiB each).
ASSOC_PAIRS = 2 ** 18
# Largest label count given a dense fusion tensor: m^3 int64 entries are
# 128 MiB at 256 labels (zn:128:1 needs 16 MiB).
MAX_LABELS = 256


def fusion_tensor(m: int) -> np.ndarray:
    """Zero m x m x m integer tensor for N; refuses m above MAX_LABELS
    before allocating anything."""
    if m > MAX_LABELS:
        raise ValueError(f"{m} labels exceed the {MAX_LABELS}-label limit "
                         f"of a dense fusion tensor")
    return np.zeros((m, m, m), dtype=int)


class FusionRing:
    """Fusion ring on labels 0..m-1 with vacuum at position 0; names[i]
    is the display name of label i.

    N has shape (m, m, m) with N[lam, mu, nu] = N_{lam mu}^nu.  conj is
    the conjugation permutation, read off the vacuum slice:
    N_{lam mu}^0 = delta_{mu, conj(lam)}, so N[:, :, 0] must be a
    permutation matrix.
    """

    def __init__(self, names: Sequence[str], N: np.ndarray):
        self.names: List[str] = [str(nm) for nm in names]
        self.N = np.asarray(N, dtype=int)
        m = len(self.names)
        if not m:
            raise ValueError("fusion ring has no labels")
        if self.N.shape != (m, m, m):
            raise ValueError(
                f"fusion tensor shape {self.N.shape} does not match {m} labels"
            )
        vacuum = self.N[:, :, 0]
        self.conj = vacuum.argmax(axis=1)
        if not (np.array_equal(vacuum, np.eye(m, dtype=int)[self.conj])
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
    def nonzeros(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero entries of N, found by one scan per ring: label
        arrays lam, mu, nu and the values N[lam, mu, nu], in C order of
        (lam, mu, nu), so the nonzeros of each N[lam] are contiguous.
        The arrays are read-only."""
        # A bool mask scans 5x faster than the int64 tensor; it is formed
        # for 2^20 entries at a time, so it stays small beside N.
        m = self.size
        step = max(1, 2 ** 20 // (m * m))
        flat = np.concatenate([np.flatnonzero(self.N[l:l + step] != 0) + l * m * m
                               for l in range(0, m, step)])
        lam, mu, nu = np.unravel_index(flat, self.N.shape)
        out = (lam, mu, nu, self.N[lam, mu, nu])
        for a in out:
            a.flags.writeable = False
        return out

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

    @property
    def global_index(self) -> float:
        """w = sum of squared quantum dimensions."""
        return float(np.sum(self.d ** 2))

    def __repr__(self) -> str:
        return f"FusionRing(m={self.size})"


def quantum_dimensions(ring: FusionRing) -> np.ndarray:
    """Common Perron-Frobenius eigenvector of all fusion matrices.

    Returns d with d[0] = 1 and N_lam d = d_lam d for every lam, up to a
    residual below DIM_TOL.  Raises ValueError for an ill-conditioned ring.
    """
    lam, mu, nu, val = ring.nonzeros
    m = ring.size
    # M = sum_lam N_lam, and the residual N_lam d - d_lam d, on the nonzeros.
    M = np.bincount(mu * m + nu, weights=val, minlength=m * m).reshape(m, m)
    try:
        vals, vecs = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"ill-conditioned fusion ring: {exc}") from None
    i = int(np.argmax(vals.real))
    v = vecs[:, i].real
    if abs(v[0]) < 1e-12:
        raise ValueError("ill-conditioned fusion ring: PF vector vanishes at vacuum")
    d = v / v[0]
    # Polish with one Rayleigh-style pass to reduce eig() roundoff.
    for _ in range(2):
        u = M @ d
        d = u / u[0]
    Nd = np.bincount(lam * m + mu, weights=val * d[nu], minlength=m * m)
    resid = float(np.max(np.abs(Nd - np.outer(d, d).ravel())))
    if resid > DIM_TOL:
        raise ValueError(
            f"ill-conditioned fusion ring: PF residual {resid:.3e} exceeds {DIM_TOL:.1e}"
        )
    return d


def _first_bad(mask: np.ndarray) -> List[Tuple[int, ...]]:
    idx = np.argwhere(mask)
    return [tuple(int(x) for x in row) for row in idx[:3]]


def _spans(ptr: np.ndarray, groups: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every position p in ptr[g]:ptr[g + 1] for g in groups, in order,
    with the index into groups it came from: (which, p)."""
    cnt = ptr[groups + 1] - ptr[groups]
    which = np.repeat(np.arange(len(groups)), cnt)
    return which, np.arange(cnt.sum()) + np.repeat(ptr[groups] - (np.cumsum(cnt) - cnt), cnt)


def _associativity_failures(ring: FusionRing) -> List[Tuple[int, ...]]:
    """The first three (l, m, n, r), in C order, with
    sum_s N_{lm}^s N_{sn}^r != sum_s N_{mn}^s N_{ls}^r.

    One label l at a time, on the nonzeros: the left side pairs each
    nonzero N_{lm}^s with the nonzeros of N[s], the right side each
    nonzero N_{ls}^r with the nonzeros N_{mn}^s, and both are summed into
    one m^3 slice of their difference, at most ASSOC_PAIRS pairs at once.
    Memory is that slice and one batch of pairs, never the m^4 tensor;
    time goes with the number of pairs.
    """
    lam, mu, nu, val = ring.nonzeros
    m = ring.size
    labels = np.arange(m + 1)
    by_lam = np.searchsorted(lam, labels)
    third = np.argsort(nu, kind="stable")
    by_nu = np.searchsorted(nu[third], labels)
    net = np.zeros(m ** 3, dtype=int)  # zero again after each slice
    out: List[Tuple[int, ...]] = []
    for l in range(m):
        i = np.arange(by_lam[l], by_lam[l + 1])
        pairs = np.cumsum(np.diff(by_lam)[nu[i]] + np.diff(by_nu)[mu[i]])
        batches = np.split(i, np.flatnonzero(np.diff(pairs // ASSOC_PAIRS)) + 1)
        for batch in batches:
            a, j = _spans(by_lam, nu[batch])
            a = batch[a]
            b, k = _spans(by_nu, mu[batch])
            b, k = batch[b], third[k]
            cells = np.concatenate([(mu[a] * m + mu[j]) * m + nu[j],
                                    (lam[k] * m + mu[k]) * m + nu[b]])
            np.add.at(net, cells, np.concatenate([val[a] * val[j], -val[k] * val[b]]))
        bad = np.unique(cells[net[cells] != 0]) if len(batches) == 1 else np.flatnonzero(net)
        net[bad] = 0
        out += [(l, *map(int, np.unravel_index(c, (m, m, m))))
                for c in bad[:3 - len(out)]]
        if len(out) == 3:
            break
    return out


def verify_axioms(ring: FusionRing) -> List[str]:
    """Check the fusion-ring axioms; return a list of violation messages.

    Empty list means the ring passed.  Checks: integrality/nonnegativity,
    vacuum acts as identity, commutativity, associativity, conjugation
    (the vacuum slice, see FusionRing) is an involution fixing the vacuum,
    and the quantum dimensions exist with d >= 1.
    """
    out: List[str] = []
    N = ring.N
    m = ring.size

    if np.any(N < 0):
        out.append(f"negative structure constants at {_first_bad(N < 0)}")

    eye = np.eye(m, dtype=int)
    if not np.array_equal(N[0], eye):
        out.append("vacuum is not a left identity")
    if not np.array_equal(N[:, 0, :], eye):
        out.append("vacuum is not a right identity")

    comm = N != N.transpose(1, 0, 2)
    if np.any(comm):
        out.append(f"commutativity fails at {_first_bad(comm)}")

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
            out.append(f"quantum dimension below 1 at {_first_bad(d < 1.0 - DIM_TOL)}")
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
