"""Commutative fusion rings over the nonnegative integers.

A fusion ring is given by a finite label set with distinguished vacuum 0
and nonnegative integer structure constants N_{lam mu}^nu; the labels
are known by their names, in order.  A ring holds N by its nonzeros
only (`FusionRing.nonzeros`): the label triples and their values, in C
order of (lam, mu, nu), never an m^3 array.  What N alone decides is
read off them here, once: the conjugation (the nu = 0 entries) and the
cyclic subgroups of the simple-current group.  The current mask, the
cyclic subgroups, the quantum dimensions and the axioms cost O(nnz) or
O(m^2) each, and associativity is checked one label and one run of
labels mu at a time on them.
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
# Pairs the associativity check forms at once (a few int64 arrays of
# this length, 2 MiB each), and the cells of the difference slice it sums
# them into (8 MiB of int64: one run of labels up to m = 101, a few up
# to 256, so the Python work per label stays small).
ASSOC_PAIRS = 2 ** 18
ASSOC_CELLS = 2 ** 20
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
    conj is the conjugation permutation, read off the vacuum slice:
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
        key = (lam * m + mu) * m + nu
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


def _first_bad(cells: np.ndarray, shape: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    """The first three of the ascending flat C-order cells, as positions."""
    return [tuple(map(int, x)) for x in zip(*np.unravel_index(cells[:3], shape))]


def _spans(start: np.ndarray, end: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every position p in start[g]:end[g], for each g in order, with the
    g it came from: (which, p)."""
    cnt = end - start
    which = np.repeat(np.arange(len(cnt)), cnt)
    return which, np.arange(cnt.sum()) + np.repeat(start - (np.cumsum(cnt) - cnt), cnt)


def _associativity_failures(ring: FusionRing) -> List[Tuple[int, ...]]:
    """The first three (l, m, n, r), in C order, with
    sum_s N_{lm}^s N_{sn}^r != sum_s N_{mn}^s N_{ls}^r.

    One label l and one run of labels m at a time, on the nonzeros: the
    left side pairs each nonzero N_{lm}^s with the nonzeros of N[s], the
    right side each nonzero N_{ls}^r with the nonzeros N_{mn}^s, and both
    are summed into one slice (m, n, r) of their difference, m in the
    run.  A run holds at most ASSOC_PAIRS pairs and ASSOC_CELLS cells,
    or one label m when that alone holds more pairs.  Memory is that slice,
    the pairs of one run and O(m^2) pointers: it does not grow as m^3,
    and never holds the m^4 tensor; time goes with the number of pairs.
    """
    lam, mu, nu, val = ring.nonzeros
    m = ring.size
    rows = np.arange(m * m + 1)
    third = np.argsort(nu, kind="stable")  # the nonzeros by (nu, lam, mu)
    # The nonzeros of N[l, m, :] are by_lm[l m]:by_lm[l m + 1]; those of
    # N[l, :, s] are third[by_nl[s m + l]:by_nl[s m + l + 1]].
    by_lm = np.searchsorted(lam * m + mu, rows)
    by_nl = np.searchsorted((nu * m + lam)[third], rows)
    row_nnz = np.diff(by_lm[::m])  # nonzeros of each N[s]
    col_nnz = np.diff(by_nl).reshape(m, m)  # [s, l]: nonzeros of N[l, :, s]
    width = max(1, ASSOC_CELLS // (m * m))
    net = np.zeros(min(width, m) * m * m, dtype=int)  # zero again after each run
    out: List[Tuple[int, ...]] = []
    for l in range(m):
        b = np.arange(by_lm[l * m], by_lm[l * m + m])
        # Pairs per label m, both sides; a run ends where the running
        # total passes a multiple of ASSOC_PAIRS, or after `width` labels.
        pairs = np.cumsum(np.bincount(mu[b], weights=row_nnz[nu[b]], minlength=m).astype(int)
                          + np.bincount(mu[b], minlength=m) @ col_nnz)
        ends = np.flatnonzero(np.diff(pairs // ASSOC_PAIRS) + np.diff(rows[:m] // width)) + 1
        for lo, hi in zip([0, *ends], [*ends, m]):
            a = np.arange(by_lm[l * m + lo], by_lm[l * m + hi])
            g, j = _spans(by_lm[nu[a] * m], by_lm[nu[a] * m + m])
            a = a[g]
            h, k = _spans(by_nl[mu[b] * m + lo], by_nl[mu[b] * m + hi])
            c, k = b[h], third[k]
            cells = np.concatenate([((mu[a] - lo) * m + mu[j]) * m + nu[j],
                                    ((lam[k] - lo) * m + mu[k]) * m + nu[c]])
            np.add.at(net, cells, np.concatenate([val[a] * val[j], -val[k] * val[c]]))
            bad = np.unique(cells[net[cells] != 0])
            net[bad] = 0
            out += _first_bad(bad[:3 - len(out)] + (l * m + lo) * m * m, (m,) * 4)
            if len(out) == 3:
                return out
    return out


def verify_axioms(ring: FusionRing) -> List[str]:
    """Check the fusion-ring axioms; return a list of violation messages.

    Empty list means the ring passed.  Checks: integrality/nonnegativity,
    vacuum acts as identity, commutativity, associativity, conjugation
    (the vacuum slice, see FusionRing) is an involution fixing the vacuum,
    and the quantum dimensions exist with d >= 1.  Positions are listed
    in C order, three at most.
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
