"""Commutative fusion rings over the nonnegative integers.

A fusion ring is given by a finite label set with distinguished vacuum 0,
a tensor N[lam, mu, nu] = N_{lam mu}^nu of nonnegative integer structure
constants.  What N alone decides is read off it here, once: the
conjugation (the vacuum slice) and the simple-current group with its
cyclic subgroups.  Everything downstream (modular data, invariant
enumeration, extensions) consumes the interface defined here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "SectorLabel",
    "FusionRing",
    "SimpleCurrentGroup",
    "quantum_dimensions",
    "verify_axioms",
    "frobenius_violations",
    "simple_currents",
    "fusion_tensor",
]

DIM_TOL = 1e-9
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


@dataclass(frozen=True)
class SectorLabel:
    """A sector: position in the canonical ordering plus a display name."""

    index: int
    name: str

    def __str__(self) -> str:
        return self.name


class FusionRing:
    """Fusion ring on labels 0..m-1 with vacuum at position 0.

    N has shape (m, m, m) with N[lam, mu, nu] = N_{lam mu}^nu.  conj is
    the conjugation permutation, read off the vacuum slice:
    N_{lam mu}^0 = delta_{mu, conj(lam)}, so N[:, :, 0] must be a
    permutation matrix.
    """

    def __init__(self, names: Sequence[str], N: np.ndarray):
        self.labels: List[SectorLabel] = [
            SectorLabel(i, str(nm)) for i, nm in enumerate(names)
        ]
        self.N = np.asarray(N, dtype=int)
        m = len(self.labels)
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
        return len(self.labels)

    def fusion_matrix(self, lam: int) -> np.ndarray:
        """(N_lam)_{mu nu} = N_{lam mu}^nu as an integer matrix."""
        if not 0 <= lam < self.size:
            raise IndexError(f"label {lam} out of range")
        return self.N[lam]

    @functools.cached_property
    def d(self) -> np.ndarray:
        """Quantum dimensions (cached)."""
        return quantum_dimensions(self)

    @functools.cached_property
    def is_current(self) -> np.ndarray:
        """Mask of the simple currents: labels g whose fusion permutes the
        labels (each row of N[g] is a unit vector; in a ring, d_g = 1)."""
        rows = (self.N.sum(axis=2) == 1) & (self.N.min(axis=2) >= 0)
        return rows.all(axis=1)

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
    N = ring.N
    M = N.sum(axis=0).astype(float)
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
    resid = float(np.max(np.abs(np.einsum("lmn,n->lm", N, d) - np.outer(d, d))))
    if resid > DIM_TOL:
        raise ValueError(
            f"ill-conditioned fusion ring: PF residual {resid:.3e} exceeds {DIM_TOL:.1e}"
        )
    return d


def _first_bad(mask: np.ndarray, limit: int = 3) -> List[Tuple[int, ...]]:
    idx = np.argwhere(mask)
    return [tuple(int(x) for x in row) for row in idx[:limit]]


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

    lhs = np.einsum("lms,snr->lmnr", N, N, optimize=True)
    rhs = np.einsum("mns,lsr->lmnr", N, N, optimize=True)
    if np.any(lhs != rhs):
        out.append(f"associativity fails at {_first_bad(lhs != rhs)}")

    c = ring.conj
    if c[0] != 0:
        out.append("conjugation does not fix the vacuum")
    if not np.array_equal(c[c], np.arange(m)):
        out.append("conjugation is not an involution")

    try:
        d = quantum_dimensions(ring)
        if np.any(d < 1.0 - DIM_TOL):
            out.append(f"quantum dimension below 1 at {_first_bad(d < 1.0 - DIM_TOL)}")
    except ValueError as exc:
        out.append(str(exc))

    return out


def frobenius_violations(ring: FusionRing) -> List[Tuple[int, int, int]]:
    """Triples where N_{lam mu}^nu != N_{conj(lam) nu}^mu.

    Reciprocity holds automatically for the catalog rings; a nonempty
    result is a warning sign for hand-entered data, not a hard error.
    """
    N = ring.N
    c = ring.conj
    recip = N[c][:, :, :].transpose(0, 2, 1)
    return _first_bad(N != recip, limit=10)


@dataclass
class SimpleCurrentGroup:
    """Abelian group of simple currents inside a fusion ring.

    elements are ring labels (vacuum first), table[i, j] is the position
    in `elements` of the product of elements[i] and elements[j], orders
    the element orders, cyclic maps each cyclic subgroup (its labels,
    ascending) to its smallest generating label, and cyclic_factors lists
    (generator label, order) for a decomposition into cyclic subgroups,
    largest order first.
    """

    elements: List[int]
    table: np.ndarray
    orders: List[int]
    cyclic: Dict[Tuple[int, ...], int]
    cyclic_factors: List[Tuple[int, int]]

    @property
    def order(self) -> int:
        return len(self.elements)


def simple_currents(ring: FusionRing) -> SimpleCurrentGroup:
    """Detect the simple currents (`FusionRing.is_current`, exact) and
    their group structure.

    The currents must close under product and conjugation (a ring not
    passed through verify_axioms may fail to).  The cyclic decomposition
    is greedy on element order and is validated by comparing the product
    of the factor orders with the group order.
    """
    (currents,) = np.nonzero(ring.is_current)
    elems = currents.tolist()
    n = len(elems)

    # pos[label] = position in elems, -1 off the currents; each current
    # row N[g, h] is a unit vector at the product label.
    pos = np.full(ring.size, -1)
    pos[currents] = np.arange(n)
    table = pos[ring.N.argmax(axis=2)[np.ix_(currents, currents)]]
    if np.any(table < 0):
        raise ValueError("simple currents do not close under fusion")
    if np.any(pos[ring.conj[currents]] < 0):
        raise ValueError("simple currents do not close under conjugation")

    # x = i^k for every current i at once, until each has come back to
    # the vacuum: row i of powers marks the cyclic subgroup <i>, whose size
    # is the order of i.  i and j generate the same subgroup when each is
    # a power of the other; i is its smallest generator when no j < i is.
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
    orders = powers.sum(axis=1)
    smallest = ((powers & powers.T).argmax(axis=1) == idx).nonzero()[0].tolist()
    cyclic = {tuple(currents[powers[i]].tolist()): elems[i] for i in smallest}

    # Greedy: the first element of largest order whose subgroup meets the
    # span only in the vacuum generates the next cyclic factor.
    by_order = np.argsort(-orders, kind="stable")
    factors: List[Tuple[int, int]] = []
    span = idx == 0
    while not span.all():
        free = (by_order != 0) & ~(powers[by_order, 1:] & span[1:]).any(axis=1)
        if not free.any():
            raise ValueError("no cyclic decomposition found for the current group")
        i = int(by_order[free.argmax()])
        factors.append((elems[i], int(orders[i])))
        span[table[np.ix_(np.flatnonzero(span), np.flatnonzero(powers[i]))]] = True

    if math.prod(k for _, k in factors) != n:
        raise ValueError("cyclic decomposition does not exhaust the group")

    return SimpleCurrentGroup(elements=elems, table=table, orders=orders.tolist(),
                              cyclic=cyclic, cyclic_factors=factors)
