"""Structural analysis of a physical invariant Z.

Covers the permutation (automorphism) test, vacuum symmetry, the simple
current support criterion, integer Gram decompositions Z = b^T b (type I
data), chiral index bookkeeping, and the parent search that attaches a
pair of type I invariants to a general one through its vacuum row and
column.

The type I parents come from the chiral extensions theta_+- = sum_l Z_{l0} l
(vacuum column) and sum_l Z_{0l} l (vacuum row), so they depend only on
those two vectors and on the enumerated list.  A private index of the
most recent list (keyed by its content) decides type I at most once per
listed matrix and each parent once per distinct vacuum vector, which
makes classifying a whole list linear in its length.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .catalog import BranchingTable
from .fusion import FusionRing
from .modular import ModularData, degenerate_sectors

__all__ = [
    "permutation_test",
    "vacuum_symmetry",
    "simple_current_test",
    "type1_decomposition",
    "chiral_indices",
    "sector_counts",
    "find_parents",
    "zz_diagnostics",
    "InvariantReport",
    "classify_invariant",
]


def permutation_test(
    Z: np.ndarray, ring: FusionRing, spins=None
) -> Optional[Dict[str, object]]:
    """If Z is a permutation matrix, return the permutation and checks.

    The permutation must fix the vacuum; the report records whether it
    preserves the fusion rules and (when spins are given) the weights.
    A non-permutation Z yields None.
    """
    Z = np.asarray(Z)
    m = Z.shape[0]
    if not (
        np.all((Z == 0) | (Z == 1))
        and np.all(Z.sum(axis=0) == 1)
        and np.all(Z.sum(axis=1) == 1)
    ):
        return None
    theta = np.array([int(np.argmax(Z[i])) for i in range(m)])
    rep: Dict[str, object] = {"theta": theta, "fixes_vacuum": bool(theta[0] == 0)}
    Np = ring.N[theta][:, theta][:, :, theta]
    rep["fusion_ok"] = bool(np.array_equal(Np, ring.N))
    if spins is not None:
        rep["spin_ok"] = all(spins.h[int(theta[i])] == spins.h[i] for i in range(m))
    rep["consistent"] = bool(
        rep["fixes_vacuum"] and rep["fusion_ok"] and rep.get("spin_ok", True)
    )
    return rep


def vacuum_symmetry(Z: np.ndarray) -> bool:
    """Vacuum row equals vacuum column."""
    Z = np.asarray(Z)
    return bool(np.array_equal(Z[0, :], Z[:, 0]))


def simple_current_test(Z: np.ndarray, ring: FusionRing) -> bool:
    """Every nonzero cell (l, m) is connected by a simple current.

    That is, some current sigma has N_{sigma l}^m = 1.  Holds for all
    pure simple-current invariants; fails for exceptional couplings.
    """
    d = ring.d
    currents = [i for i in range(ring.size) if abs(d[i] - 1.0) < 1e-6]
    reach = np.zeros((ring.size, ring.size), dtype=bool)
    for s in currents:
        reach |= ring.N[s].astype(bool)
    Z = np.asarray(Z)
    return bool(np.all(reach[Z != 0]))


def _gram_rows(
    R: np.ndarray, node_cap: int
) -> Optional[List[np.ndarray]]:
    """Peel nonnegative integer rows v (first nonzero diag anchored) with
    sum over rows of outer(v, v) = R.  Deterministic backtracking."""
    m = R.shape[0]
    nodes = [0]

    def rec(R: np.ndarray) -> Optional[List[np.ndarray]]:
        if not R.any():
            return []
        diag = np.diagonal(R)
        if np.any(diag < 0):
            return None
        live = np.nonzero(diag > 0)[0]
        if len(live) == 0:
            return None  # off-diagonal residue cannot be covered
        lam = int(live[0])

        # Build candidate rows v with v[lam] >= 1, entries bounded by the
        # diagonal and pairwise constraints, generated in descending
        # lexicographic order so the first full solution is canonical.
        # R >= 0 and v[lam] >= 1, so a j with R[lam, j] = 0 can only
        # take the value 0: only the neighbours of lam are searched.
        idxs = [lam] + [int(j) for j in live if j > lam and R[lam, j] > 0]

        def build(pos: int, v: np.ndarray):
            nodes[0] += 1
            if nodes[0] > node_cap:
                raise RuntimeError(
                    f"Gram decomposition exceeded {node_cap:.0e} nodes"
                )
            if pos == len(idxs):
                yield v.copy()
                return
            j = idxs[pos]
            hi = math.isqrt(int(R[j, j]))
            for prev in idxs[:pos]:
                if v[prev]:
                    hi = min(hi, int(R[prev, j]) // int(v[prev]))
            lo = 1 if j == lam else 0
            for val in range(hi, lo - 1, -1):
                v[j] = val
                yield from build(pos + 1, v)
            v[j] = 0

        for v in build(0, np.zeros(m, dtype=int)):
            rest = rec(R - np.outer(v, v))
            if rest is not None:
                return [v] + rest
        return None

    return rec(R)


def type1_decomposition(
    Z: np.ndarray, node_cap: int = 10 ** 7, col_names: Optional[Sequence[str]] = None
) -> Optional[BranchingTable]:
    """Integer branching table b with Z = b^T b, or None.

    The first row of b is the vacuum row of Z; the remaining rows vanish
    on the vacuum and are returned sorted lexicographically descending.
    Requires a vacuum-symmetric Z (otherwise None immediately).
    """
    Z = np.asarray(Z, dtype=int)
    if not vacuum_symmetry(Z) or not np.array_equal(Z, Z.T):
        return None
    m = Z.shape[0]
    b0 = Z[0].copy()
    R = Z - np.outer(b0, b0)
    if np.any(R < 0) or np.any(R[0, :]) or np.any(R[:, 0]):
        return None
    rows = _gram_rows(R, node_cap)
    if rows is None:
        return None
    rows.sort(key=lambda v: tuple(v), reverse=True)
    b = np.vstack([b0] + rows) if rows else b0.reshape(1, m)
    names = list(col_names) if col_names is not None else [str(i) for i in range(m)]
    return BranchingTable(
        b, [f"tau{t}" for t in range(b.shape[0])], names, name="gram"
    )


def chiral_indices(Z: np.ndarray, md: ModularData) -> Dict[str, float]:
    """The four index quantities attached to a coupling matrix.

    w_plus = w / sum_l d_l Z_{l0},  w_minus = w / sum_l Z_{0l} d_l,
    w_alpha uses only the degenerate sectors in the vacuum row, and
    w_zero = w_plus^2 / w_alpha.
    """
    Z = np.asarray(Z)
    d = md.ring.d
    w = md.w
    den_p = float(d @ Z[:, 0])
    den_m = float(Z[0, :] @ d)
    if den_p <= 0 or den_m <= 0:
        raise ValueError("vacuum row/column of Z is empty")
    deg = degenerate_sectors(md)
    den_a = float(sum(Z[0, l] * d[l] for l in deg))
    out = {
        "w_plus": w / den_p,
        "w_minus": w / den_m,
        "w_alpha": w / den_a if den_a > 0 else math.inf,
    }
    out["w_zero"] = out["w_plus"] ** 2 / out["w_alpha"]
    return out


def sector_counts(Z: np.ndarray) -> Dict[str, int]:
    """Diagonal count, total squared sum and the two vacuum counts."""
    Z = np.asarray(Z, dtype=int)
    return {
        "trace": int(np.trace(Z)),
        "sum_squares": int(np.sum(Z * Z)),
        "x_plus": int(np.sum(Z[:, 0] ** 2)),
        "x_minus": int(np.sum(Z[0, :] ** 2)),
    }


class _ListIndex:
    """Stacked vacuum columns and rows of one enumerated list.

    Type I is decided at most once per listed matrix, on first need, and
    the parent once per distinct vacuum vector.  A vacuum-symmetric P has
    P[:, 0] = P[0, :], so the plus and minus searches share one memo.
    Concurrent callers can at worst repeat a decision; the answer is the
    same.
    """

    def __init__(self, key, mats: np.ndarray):
        self.key = key
        self.cols = mats[:, :, 0].copy()
        self.rows = mats[:, 0, :].copy()
        self.sym = np.all(self.cols == self.rows, axis=1)
        self.tables: Dict[int, Optional[BranchingTable]] = {}
        self.found: Dict[bytes, Optional[int]] = {}

    def table(self, i: int, enumerated) -> Optional[BranchingTable]:
        if i not in self.tables:
            self.tables[i] = type1_decomposition(enumerated[i])
        return self.tables[i]

    def parents(self, Z: np.ndarray, enumerated) -> Dict[str, Optional[int]]:
        return {"plus": self._parent(Z[:, 0], enumerated),
                "minus": self._parent(Z[0, :], enumerated)}

    def _parent(self, v: np.ndarray, enumerated) -> Optional[int]:
        key = v.tobytes()
        if key not in self.found:
            hits = np.nonzero(self.sym & np.all(self.cols == v, axis=1))[0]
            self.found[key] = next(
                (int(i) for i in hits if self.table(int(i), enumerated) is not None),
                None,
            )
        return self.found[key]

    def branching(self, Z: np.ndarray, enumerated) -> Optional[BranchingTable]:
        """Type I table of Z, from the memo when Z is in the list; always
        a fresh object, so a caller's edits never reach the memo."""
        same = np.all(self.cols == Z[:, 0], axis=1) & np.all(self.rows == Z[0], axis=1)
        for i in np.nonzero(same)[0]:
            if np.array_equal(enumerated[i], Z):
                return copy.deepcopy(self.table(int(i), enumerated))
        return type1_decomposition(Z)


_last_index: Optional[_ListIndex] = None


def _list_index(enumerated: Sequence[np.ndarray], m: int) -> _ListIndex:
    """The index of `enumerated`; only the most recent list is kept."""
    global _last_index
    mats = np.ascontiguousarray(enumerated, dtype=np.int64).reshape(len(enumerated), m, m)
    key = (mats.shape, hashlib.blake2b(mats, digest_size=16).digest())
    index = _last_index
    if index is None or index.key != key:
        index = _last_index = _ListIndex(key, mats)
    return index


def find_parents(
    Z: np.ndarray, enumerated: Sequence[np.ndarray]
) -> Dict[str, Optional[int]]:
    """Locate type I parents of Z inside an enumerated invariant list.

    The plus parent is a type I invariant whose vacuum column equals the
    vacuum column of Z; the minus parent matches the vacuum row.  Returns
    indices into `enumerated` (first match each), None where no parent
    exists in the list.  The answer depends only on the vacuum column,
    the vacuum row and the list, so calls for every Z of one list share
    one index: each listed matrix is decomposed at most once.
    """
    Z = np.asarray(Z, dtype=int)
    return _list_index(enumerated, Z.shape[0]).parents(Z, enumerated)


def _integer_combination(
    target: np.ndarray, named: List[Tuple[str, np.ndarray]], cap: int = 10 ** 5
) -> Optional[Dict[str, int]]:
    """Nonnegative integer coefficients c with sum c_i M_i = target."""
    if not named:
        return None
    A = np.stack([M.ravel().astype(float) for _, M in named], axis=1)
    t = target.ravel().astype(float)
    c, *_ = np.linalg.lstsq(A, t, rcond=None)
    ci = np.round(c).astype(int)
    if np.all(ci >= 0) and np.array_equal(
        sum(int(x) * M for x, (_, M) in zip(ci, named)), target
    ):
        return {nm: int(x) for x, (nm, _) in zip(ci, named) if x}
    # Bounded exhaustive fallback for degenerate candidate sets.
    hi = int(target.max())
    total = (hi + 1) ** len(named)
    if total > cap:
        return None
    for combo in itertools.product(range(hi + 1), repeat=len(named)):
        acc = np.zeros_like(target)
        for c, (_, M) in zip(combo, named):
            acc = acc + c * M
        if np.array_equal(acc, target):
            return {nm: c for c, (nm, _) in zip(combo, named) if c}
    return None


def zz_diagnostics(
    Z: np.ndarray,
    C: Optional[np.ndarray] = None,
    extra: Optional[List[Tuple[str, np.ndarray]]] = None,
) -> Dict[str, object]:
    """Z^T Z and Z Z^T with decompositions over natural candidates.

    Candidates are the identity, Z itself, and (when C is given) C, CZ
    and ZC, plus any (name, matrix) pairs in `extra`.  Decompositions
    are nonnegative integer combinations; None when there is none.
    """
    Z = np.asarray(Z, dtype=int)
    m = Z.shape[0]
    named: List[Tuple[str, np.ndarray]] = [("I", np.eye(m, dtype=int)), ("Z", Z)]
    if C is not None:
        C = np.asarray(C, dtype=int)
        named += [("C", C), ("CZ", C @ Z), ("ZC", Z @ C)]
    if extra:
        named += [(nm, np.asarray(M, dtype=int)) for nm, M in extra]
    # drop duplicate matrices, keeping the first name
    uniq: List[Tuple[str, np.ndarray]] = []
    for nm, M in named:
        if not any(np.array_equal(M, M2) for _, M2 in uniq):
            uniq.append((nm, M))
    ZtZ = Z.T @ Z
    ZZt = Z @ Z.T
    return {
        "ZtZ": ZtZ,
        "ZZt": ZZt,
        "ZtZ_combo": _integer_combination(ZtZ, uniq),
        "ZZt_combo": _integer_combination(ZZt, uniq),
    }


@dataclass
class InvariantReport:
    """Everything the classifier knows about one coupling matrix."""

    Z: np.ndarray
    kind: str
    heterotic: bool
    vacuum_symmetric: bool
    permutation: Optional[Dict[str, object]]
    simple_current_supported: bool
    branching: Optional[BranchingTable]
    indices: Dict[str, float]
    counts: Dict[str, int]
    parents: Optional[Dict[str, Optional[int]]]


def classify_invariant(
    Z: np.ndarray,
    md: ModularData,
    enumerated: Optional[Sequence[np.ndarray]] = None,
) -> InvariantReport:
    """Full structural report for one invariant of a model."""
    Z = np.asarray(Z, dtype=int)
    ring = md.ring
    perm = permutation_test(Z, ring, md.spins)
    vac = vacuum_symmetry(Z)
    index = None if enumerated is None else _list_index(enumerated, Z.shape[0])
    b = None
    if vac:
        b = type1_decomposition(Z) if index is None else index.branching(Z, enumerated)
    kind = "type I" if b is not None else "type II"
    return InvariantReport(
        Z=Z,
        kind=kind,
        heterotic=not vac,
        vacuum_symmetric=vac,
        permutation=perm,
        simple_current_supported=simple_current_test(Z, ring),
        branching=b,
        indices=chiral_indices(Z, md),
        counts=sector_counts(Z),
        parents=None if index is None else index.parents(Z, enumerated),
    )
