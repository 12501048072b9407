"""Structural analysis of a physical invariant Z.

Covers the permutation (automorphism) test, vacuum symmetry, the simple
current support criterion (currents read exactly off N), integer Gram
decompositions Z = b^T b (type I data), chiral index bookkeeping, and the
parent search that attaches a pair of type I invariants to a general one
through its vacuum row and column.

The type I parents come from the chiral extensions theta_+- = sum_l Z_{l0} l
(vacuum column) and sum_l Z_{0l} l (vacuum row), so they depend only on
those two vectors and on which listed invariants are type I.  Whether a
matrix is type I is a function of that matrix alone, so its Gram rows
are memoized per matrix (keyed by its int64 bytes, at most
TYPE1_MEMO_SIZE entries).  The Gram search peels rows off the residue
R = Z - z0 z0^T in one explicit stack and cuts every residue that has a
negative entry or 2 x 2 principal minor, since a sum of v v^T has none;
the first residue is tested before any node.  The parent search reads
one table per list, from vacuum vector to its first type I entry, built
once and kept for the last list seen; each call still restacks the list
to recognise it.
"""

from __future__ import annotations

import functools
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
    "InvariantReport",
    "classify_invariant",
]

# Node budget of one Gram decomposition search.
GRAM_NODE_CAP = 10 ** 7
# Matrices whose type I answer is kept.  Some lists are as long or longer:
# sun_currents:20:2 has 1,024 invariants and sun_currents:24:2 has 8,192.
TYPE1_MEMO_SIZE = 1024


def permutation_test(
    Z: np.ndarray, ring: FusionRing, spins=None
) -> Optional[Dict[str, object]]:
    """If Z is a permutation matrix, return the permutation and checks.

    The permutation must fix the vacuum; the report records whether it
    preserves the fusion rules (checked on supp N, enough for a bijection)
    and, when spins are given, the weights.  A non-permutation Z yields None.
    """
    Z = np.asarray(Z)
    if not (
        np.all((Z == 0) | (Z == 1))
        and np.all(Z.sum(axis=0) == 1)
        and np.all(Z.sum(axis=1) == 1)
    ):
        return None
    theta = Z.argmax(axis=1)
    rep: Dict[str, object] = {"theta": theta, "fixes_vacuum": bool(theta[0] == 0)}
    # theta is a bijection, so it preserves N exactly when the permuted
    # nonzeros, sorted, are the nonzeros themselves.
    lam, mu, nu, val = ring.nonzeros
    shape = (ring.size,) * 3
    moved = np.ravel_multi_index((theta[lam], theta[mu], theta[nu]), shape)
    order = np.argsort(moved)
    rep["fusion_ok"] = bool(np.array_equal(moved[order], np.ravel_multi_index((lam, mu, nu), shape))
                            and np.array_equal(val[order], val))
    if spins is not None:
        rep["spin_ok"] = [spins.h[t] for t in theta.tolist()] == list(spins.h)
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

    That is, some current sigma (fusion with sigma permutes the labels)
    has N_{sigma l}^m = 1.  Holds for all pure simple-current invariants;
    fails for exceptional couplings.
    """
    lam, mu, nu, _ = ring.nonzeros
    current = ring.is_current[lam]
    joined = np.zeros((ring.size, ring.size), dtype=bool)
    joined[mu[current], nu[current]] = True
    return bool(np.all(joined[np.asarray(Z) != 0]))


def _gram_rows(R: np.ndarray) -> Optional[List[np.ndarray]]:
    """Nonnegative integer rows v with sum over rows of outer(v, v) = R, or
    None.  Depth first with one stack: each residue peels a row v anchored
    at its first nonzero diagonal entry lam (v[lam] >= 1), the candidates
    in descending lexicographic order, so the first full solution is
    canonical.  Each row is subtracted from one m x m residue and added
    back on backtracking.

    A residue R = sum v v^T is nonnegative with no negative 2 x 2 principal
    minor, R_lm^2 <= R_ll R_mm, so a residue that fails this has no
    solution and is cut.  Only the rows in supp v change, so only they are
    tested after a peel; the whole of R is tested before the first node.
    Then a row of R is zero when its diagonal is, so lam is the first
    nonzero row, v is 0 off supp R[lam], and every value up to the bounds
    v_j^2 <= R_jj and v_i v_j <= R_ij extends to a candidate."""
    R = np.array(R, dtype=np.int64)
    m = R.shape[0]
    # Residue entries only fall, so squares from 2^31 on, which need Python
    # ints, are ruled out or in once.
    dtype = np.int64 if R.max() < 2 ** 31 else object
    stack: List[Tuple[np.ndarray, np.ndarray]] = []
    nodes, s = 0, np.arange(m)
    while True:
        Q, diag = R[s].astype(dtype), np.diagonal(R).astype(dtype)
        if (Q >= 0).all() and (Q * Q <= np.outer(diag[s], diag)).all():
            if not R.any():
                return [v for _, v in stack]
            idxs = np.flatnonzero(R[np.flatnonzero(diag)[0]])
            v, p = np.zeros(m, dtype=np.int64), 0
        else:
            # Back to the last row with a position above its least value
            # (1 at lam, 0 elsewhere): lower it and refill the rest.
            while stack:
                idxs, v = stack.pop()
                R += np.outer(v, v)
                above = np.flatnonzero(v[idxs] > (idxs == idxs[0]))
                if above.size:
                    break
            else:
                return None
            p = int(above[-1]) + 1
            v[idxs[p - 1]] -= 1
        nodes += len(idxs) - p
        if nodes > GRAM_NODE_CAP:
            raise RuntimeError(f"Gram decomposition exceeded {GRAM_NODE_CAP:.0e} nodes")
        for q in range(p, len(idxs)):
            j, prev = idxs[q], idxs[:q][v[idxs[:q]] > 0]
            v[j] = min([math.isqrt(int(R[j, j]))] + (R[prev, j] // v[prev]).tolist())
        R -= np.outer(v, v)
        stack.append((idxs, v))
        s = np.flatnonzero(v)


@functools.lru_cache(maxsize=TYPE1_MEMO_SIZE)
def _type1_rows(key: bytes, m: int) -> Optional[np.ndarray]:
    """Read-only rows b with Z = b^T b for the m x m int64 matrix Z whose
    bytes are `key`, or None when Z is not type I."""
    Z = np.frombuffer(key, dtype=np.int64).reshape(m, m)
    if not np.array_equal(Z, Z.T):
        return None
    b0 = Z[0].copy()
    R = Z - np.outer(b0, b0)
    if np.any(R[0]):
        return None
    rows = _gram_rows(R)
    if rows is None:
        return None
    rows.sort(key=lambda v: tuple(v), reverse=True)
    b = np.vstack([b0] + rows)
    b.flags.writeable = False
    return b


def type1_decomposition(Z: np.ndarray) -> Optional[BranchingTable]:
    """Integer branching table b with Z = b^T b, or None.

    The first row of b is the vacuum row of Z; the remaining rows vanish
    on the vacuum and are returned sorted lexicographically descending.
    Requires a symmetric Z (otherwise None immediately).  The table is a
    fresh object over a copy of the memoized rows.
    """
    Z = np.asarray(Z, dtype=np.int64)
    m = Z.shape[0]
    b = _type1_rows(np.ascontiguousarray(Z).tobytes(), m)
    if b is None:
        return None
    return BranchingTable(
        b.copy(), [f"tau{t}" for t in range(b.shape[0])],
        [str(i) for i in range(m)], name="gram"
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


class _StackedList:
    """An n x m x m int64 list, hashed by its shape and its vacuum columns
    and rows (O(n m)) and compared in full."""

    def __init__(self, mats: np.ndarray):
        self.mats = mats
        self.hash = hash((mats.shape, mats[:, :, 0].tobytes(), mats[:, 0, :].tobytes()))

    def __hash__(self) -> int:
        return self.hash

    def __eq__(self, other: _StackedList) -> bool:
        return np.array_equal(self.mats, other.mats)


@functools.lru_cache(maxsize=1)
def _parent_index(stacked: _StackedList) -> Dict[bytes, int]:
    """Vacuum vector (int64 bytes) -> index of the first type I entry with
    that vacuum column.  A type I P is symmetric, so P[:, 0] = P[0, :] and
    the one table serves the plus and the minus parent.  Each
    vacuum-symmetric entry whose vector has no parent yet is decided once."""
    mats = stacked.mats
    m = mats.shape[1]
    cols = mats[:, :, 0]
    first: Dict[bytes, int] = {}
    for i in np.nonzero(np.all(cols == mats[:, 0, :], axis=1))[0].tolist():
        key = cols[i].tobytes()
        if key not in first and _type1_rows(mats[i].tobytes(), m) is not None:
            first[key] = i
    return first


def find_parents(
    Z: np.ndarray, enumerated: Sequence[np.ndarray]
) -> Dict[str, Optional[int]]:
    """Locate type I parents of Z inside an enumerated invariant list.

    The plus parent is a type I invariant whose vacuum column equals the
    vacuum column of Z; the minus parent matches the vacuum row.  Returns
    indices into `enumerated` (first match each), None where no parent
    exists in the list.  Both are read off one table per list, from vacuum
    vector to its first type I entry, kept for the last list seen; each
    call restacks the list to find it.
    """
    Z = np.asarray(Z, dtype=np.int64)
    m = Z.shape[0]
    # A fresh copy, so the cached key cannot change under a caller's array.
    mats = np.array(enumerated, dtype=np.int64).reshape(len(enumerated), m, m)
    first = _parent_index(_StackedList(mats))
    return {"plus": first.get(Z[:, 0].tobytes()), "minus": first.get(Z[0].tobytes())}


@dataclass
class InvariantReport:
    """Everything the classifier knows about one coupling matrix."""

    kind: str
    heterotic: bool
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
    b = type1_decomposition(Z) if vac else None
    kind = "type I" if b is not None else "type II"
    return InvariantReport(
        kind=kind,
        heterotic=not vac,
        permutation=perm,
        simple_current_supported=simple_current_test(Z, ring),
        branching=b,
        indices=chiral_indices(Z, md),
        counts=sector_counts(Z),
        parents=None if enumerated is None else find_parents(Z, enumerated),
    )
