"""Structural analysis of physical invariants, one Z or a whole list.

Covers the permutation (automorphism) test, vacuum symmetry, the simple
current support criterion (currents read exactly off N), integer Gram
decompositions Z = b^T b (type I data), chiral index bookkeeping, and the
parent search that attaches a pair of type I invariants to a general one
through its vacuum row and column.

`classify_list(invs, md)` reports on a whole list in one pass.  It stacks
the list once as an (n, m, m) int64 array and computes the permutation
test, vacuum symmetry, current support and chiral indices as one
whole-array kernel each over the stack; the per-model tables the kernels
read (the current-pair mask, the spin classes, the degenerate sectors) are
cached on the ring, the weights and the model, beside the ring's flat
positions of N's nonzeros.  `permutation_test`, `vacuum_symmetry`,
`simple_current_test` and `chiral_indices` are the same kernels on one
matrix.  `sector_counts` sums one matrix in Python ints, so no count can
wrap, and a report from the list pass calls it on its own matrix.

`classify_invariant` against a list follows one rule: a Z found in the list
(by the hash of its bytes, the bytes then compared) reads its report off the
list's pass, built once per (list, model), and any other Z is reported by the
one-matrix views.  Only the pass of the last list seen is kept, so a call
against another list, or the first call, builds a pass.  Each report is
built of fresh objects, and an entry whose vacuum row or column is empty
raises only in its own report.  `type1_decomposition`, `sector_counts`,
`find_parents`, `classify_invariant` and `classify_list` read their input
through one int64 conversion, which refuses a non-integral value, and a Z
or list entry that is not m x m, with a ValueError.

The type I parents come from the chiral extensions theta_+- = sum_l Z_{l0} l
(vacuum column) and sum_l Z_{0l} l (vacuum row), so they depend only on those
two vectors and on which listed invariants are type I.  Whether a matrix is
type I is a function of that matrix alone, so its Gram rows are memoized per
matrix (keyed by its int64 bytes, at most TYPE1_MEMO_SIZE entries), which
carries the answers across lists.  The decision is exact integer arithmetic
on one path, Python ints from the residue R = Z - z0 z0^T to the rows, and
the Gram search cuts every residue that no sum of v v^T can be.  The parent
table of a list maps each vacuum vector to its first type I entry; the pass
builds it once, deciding each vacuum-symmetric entry once whatever the memo
keeps (an enumerated list has no repeated entry), and reads the type I rows
off it.  `find_parents` and
`classify_invariant` restack the list on every call, O(n m^2), to compare
it with the last one.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass
from itertools import compress
from typing import Dict, List, Optional, Sequence

import numpy as np

from .catalog import BranchingTable
from .fusion import FusionRing
from .modular import ModularData

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
    "classify_list",
]

# Node budget of one Gram decomposition search.
GRAM_NODE_CAP = 10 ** 7
# Matrices whose type I answer is kept.  Some lists are as long or longer:
# sun_currents:20:2 has 1,024 invariants and sun_currents:24:2 has 8,192.
TYPE1_MEMO_SIZE = 1024
# Elements of each (permutation rows x fusion nonzeros) temporary of the
# permutation test of a stack: the rows are checked in blocks of
# max(1, PERMUTATION_BLOCK_CELLS // nnz).
PERMUTATION_BLOCK_CELLS = 1 << 16


def _int64(a, m: Optional[int] = None, stack: bool = False) -> np.ndarray:
    """a as an int64 m x m matrix (square if m is None) or, with stack, the
    list a as a fresh (n, m, m) int64 stack.  Signed or boolean input is
    only cast; a non-integral value or another shape is a ValueError."""
    a = np.array(a) if stack else np.asarray(a)
    if stack and not len(a):
        a = a.reshape(0, m, m)
    if m is None:
        m = len(a) if a.ndim else 0
    what, shape = ("a list entry", a.shape[1:]) if stack else ("Z", a.shape)
    if shape != (m, m):
        raise ValueError(f"{what} has shape {shape}, not {m} x {m}")
    if a.dtype.kind in "bi":
        return a.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):
        b = a.astype(np.int64)
    if not np.array_equal(a, b):
        raise ValueError(f"{what} has a value that is not an int64 integer")
    return b


def permutation_test(
    Z: np.ndarray, ring: FusionRing, spins=None
) -> Optional[Dict[str, object]]:
    """If Z is a permutation matrix, return the permutation and checks.

    The permutation must fix the vacuum; the report records whether it
    preserves the fusion rules (checked on supp N, enough for a bijection)
    and, when spins are given, the weights.  A non-permutation Z yields None.
    """
    return _permutations(np.asarray(Z)[None], ring, spins)[0]


def _permutations(
    mats: np.ndarray, ring: FusionRing, spins=None
) -> List[Optional[Dict[str, object]]]:
    """permutation_test of each matrix of the (n, m, m) stack, all the
    permutation matrices checked together."""
    n, m = mats.shape[:2]
    reports: List[Optional[Dict[str, object]]] = [None] * n
    # A permutation matrix is the one-hot matrix of its rows' argmax, and
    # that is a bijection.
    theta = mats.argmax(axis=2)
    labels = np.arange(m)
    ones = theta[:, :, None] == labels
    perm = (mats == ones).reshape(n, m * m).all(axis=1) & ones.any(axis=1).all(axis=1)
    (rows,) = perm.nonzero()
    if not len(rows):
        return reports
    theta = theta[rows]
    # theta is a bijection, so it preserves N exactly when the moved
    # positions, sorted, are the positions of the nonzeros and the values
    # sorted with them are their values.
    lam, mu, nu, val = ring.nonzeros
    step = max(1, PERMUTATION_BLOCK_CELLS // len(val))
    fusion: List[bool] = []
    for lo in range(0, len(rows), step):
        t = theta[lo:lo + step]
        moved = t.take(lam, axis=1)
        for x in (mu, nu):
            moved *= m
            moved += t.take(x, axis=1)
        order = moved.argsort(axis=1)
        moved.sort(axis=1)
        fusion += ((moved == ring.flat) & (val[order] == val)).all(axis=1).tolist()
    spin = [True] * len(rows)
    if spins is not None:
        spin = (spins.classes[theta] == spins.classes).all(axis=1).tolist()
    for i, t, t0, fu, sp in zip(rows.tolist(), theta, theta[:, 0].tolist(), fusion, spin):
        rep: Dict[str, object] = {"theta": t, "fixes_vacuum": t0 == 0, "fusion_ok": fu}
        if spins is not None:
            rep["spin_ok"] = sp
        rep["consistent"] = t0 == 0 and fu and sp
        reports[i] = rep
    return reports


def vacuum_symmetry(Z: np.ndarray) -> bool:
    """Vacuum row equals vacuum column."""
    return bool(_vacuum_symmetric(np.asarray(Z)))


def _vacuum_symmetric(mats: np.ndarray) -> np.ndarray:
    """vacuum_symmetry of each matrix of a (..., m, m) stack."""
    return (mats[..., 0, :] == mats[..., :, 0]).all(axis=-1)


def simple_current_test(Z: np.ndarray, ring: FusionRing) -> bool:
    """Every nonzero cell (l, m) is connected by a simple current.

    That is, some current sigma (fusion with sigma permutes the labels)
    has N_{sigma l}^m = 1.  Holds for all pure simple-current invariants;
    fails for exceptional couplings.
    """
    return bool(_current_supported(np.asarray(Z), ring))


def _current_supported(mats: np.ndarray, ring: FusionRing) -> np.ndarray:
    """simple_current_test of each matrix of a (..., m, m) stack."""
    return ((mats == 0) | ring.current_pairs).all(axis=(-2, -1))


def _gram_rows(R: np.ndarray) -> Optional[List[np.ndarray]]:
    """Nonnegative integer rows v with sum v v^T = R, or None, exact on lists
    of Python ints.  Depth first with one stack: each residue peels a row v
    anchored at its first nonzero diagonal entry lam (v[lam] >= 1), the
    candidates in descending lexicographic order, so the first is canonical.

    A residue R = sum v v^T has no negative entry or 2 x 2 principal minor,
    R_lm^2 <= R_ll R_mm, so one that has is cut: all of R before the first
    node, then the rows in supp v, the only ones a peel changes.  A row of a
    passing R is zero when its diagonal is, so lam is the first nonzero row,
    v is 0 off supp R[lam], and every value up to the bounds v_j^2 <= R_jj
    and v_i v_j <= R_ij extends to a candidate.  The bounds keep R >= 0, so
    it stays 0 off each row's first support, the only entries tested."""
    R = np.asarray(R, dtype=object).tolist()
    m = len(R)
    nz = [list(compress(range(m), r)) for r in R]
    stack, nodes, s = [], 0, range(m)
    while True:
        if all(0 <= R[i][j] and R[i][j] ** 2 <= R[i][i] * R[j][j] for i in s for j in nz[i]):
            lam = next((j for j in range(m) if R[j][j]), None)
            if lam is None:
                return [np.array(v, dtype=np.int64) for _, v in stack]
            idxs, v, p = [j for j in nz[lam] if R[lam][j]], [0] * m, 0
        else:
            # Back to the last row with a position above its least value
            # (1 at lam, 0 elsewhere): lower it and refill the rest.
            while stack:
                idxs, v = stack.pop()
                _add_outer(R, v, [j for j in idxs if v[j]], 1)
                above = [q for q, j in enumerate(idxs) if v[j] > (q == 0)]
                if above:
                    break
            else:
                return None
            p = above[-1] + 1
            v[idxs[p - 1]] -= 1
        nodes += len(idxs) - p
        if nodes > GRAM_NODE_CAP:
            raise RuntimeError(f"Gram decomposition exceeded {GRAM_NODE_CAP:.0e} nodes")
        s = [i for i in idxs[:p] if v[i]]
        for j in idxs[p:]:
            v[j] = min([math.isqrt(R[j][j])] + [R[i][j] // v[i] for i in s])
            if v[j]:
                s.append(j)
        _add_outer(R, v, s, -1)
        stack.append((idxs, v))


def _add_outer(R: List[List[int]], v: List[int], supp: List[int], sign: int) -> None:
    """R += sign * v v^T in place, on supp v."""
    for i in supp:
        row, a = R[i], sign * v[i]
        for j in supp:
            row[j] += a * v[j]


@functools.lru_cache(maxsize=TYPE1_MEMO_SIZE)
def _type1_rows(key: bytes, m: int) -> Optional[np.ndarray]:
    """Read-only rows b with Z = b^T b for the m x m int64 matrix Z whose
    bytes are `key`, or None; R = Z - z0 z0^T is formed in Python ints."""
    Z = np.frombuffer(key, dtype=np.int64).reshape(m, m)
    if not np.array_equal(Z, Z.T):
        return None
    R = Z.astype(object)
    _add_outer(R, Z[0].tolist(), np.flatnonzero(Z[0]).tolist(), -1)
    rows = _gram_rows(R)
    if rows is None:
        return None
    rows.sort(key=lambda v: v.tolist(), reverse=True)
    b = np.vstack([Z[0]] + rows)
    b.flags.writeable = False
    return b


def type1_decomposition(Z: np.ndarray) -> Optional[BranchingTable]:
    """Integer branching table b with Z = b^T b, or None.

    The first row of b is the vacuum row of Z; the remaining rows vanish
    on the vacuum and are returned sorted lexicographically descending.
    Requires a symmetric Z (otherwise None immediately).  The table is a
    fresh object over a copy of the memoized rows.
    """
    Z = _int64(Z)
    return _table(_type1_rows(Z.tobytes(), Z.shape[0]))


def _table(b: Optional[np.ndarray]) -> Optional[BranchingTable]:
    if b is None:
        return None
    return BranchingTable(
        b.copy(), [f"tau{t}" for t in range(b.shape[0])],
        [str(i) for i in range(b.shape[1])], name="gram"
    )


def chiral_indices(Z: np.ndarray, md: ModularData) -> Dict[str, float]:
    """The four index quantities attached to a coupling matrix.

    w_plus = w / sum_l d_l Z_{l0},  w_minus = w / sum_l Z_{0l} d_l,
    w_alpha uses only the degenerate sectors in the vacuum row, and
    w_zero = w_plus^2 / w_alpha.
    """
    return _nonempty(_indices(np.asarray(Z)[None], md)[0])


def _indices(mats: np.ndarray, md: ModularData) -> List[Optional[Dict[str, float]]]:
    """chiral_indices of each matrix of the (n, m, m) stack, None for a
    matrix whose vacuum row or column is empty."""
    d, deg, w = md.ring.d, md.degenerate, md.w
    out: List[Optional[Dict[str, float]]] = []
    for p, q, a in zip((mats[:, :, 0] @ d).tolist(), (mats[:, 0, :] @ d).tolist(),
                       (mats[:, 0, deg] @ d[deg]).tolist()):
        if p <= 0 or q <= 0:
            out.append(None)
            continue
        w_alpha = w / a if a > 0 else math.inf
        out.append({"w_plus": w / p, "w_minus": w / q, "w_alpha": w_alpha,
                    "w_zero": (w / p) ** 2 / w_alpha})
    return out


def _nonempty(indices: Optional[Dict[str, float]]) -> Dict[str, float]:
    if indices is None:
        raise ValueError("vacuum row/column of Z is empty")
    return indices


def sector_counts(Z: np.ndarray) -> Dict[str, int]:
    """Diagonal count, total squared sum and the two vacuum counts, in Python ints."""
    Z = _int64(Z)
    return {
        "trace": sum(np.diagonal(Z).tolist()),
        "sum_squares": sum(x * x for x in Z[Z != 0].tolist()),
        "x_plus": sum(x * x for x in Z[:, 0].tolist()),
        "x_minus": sum(x * x for x in Z[0].tolist()),
    }


class _ListPass:
    """The pass of one list: its int64 stack, the one copy; the vacuum
    symmetry of each entry; its parent table, vacuum vector (int64 bytes)
    -> index of the first type I entry with that vacuum column; and the
    memoized type I rows of each vacuum-symmetric entry, None for the
    others, each entry decided once whatever the memo keeps.  A type I P
    is symmetric, so P[:, 0] = P[0, :] and the one table serves the plus
    and the minus parent.

    `md` is a weak reference to the model the fields were last built for,
    so the pass keeps no model alive, and `fields` the whole-array fields
    of every entry for it: permutation report, current support and
    indices."""

    def __init__(self, mats: np.ndarray):
        self.mats = mats
        self.vac: List[bool] = _vacuum_symmetric(mats).tolist()
        self.rows: List[Optional[np.ndarray]] = [None] * len(mats)
        self.first: Dict[bytes, int] = {}
        for i in compress(range(len(mats)), self.vac):
            self.rows[i] = _type1_rows(mats[i].tobytes(), mats.shape[1])
            if self.rows[i] is not None:
                self.first.setdefault(mats[i, :, 0].tobytes(), i)
        self.md: Optional[weakref.ref] = None
        self.fields: Optional[list] = None

    @functools.cached_property
    def where(self) -> Dict[int, int]:
        """The first index of each entry, keyed by the hash of its bytes
        (a hash, not the bytes, so the keys take no copy of the stack);
        built on the first lookup, which classify_list never makes."""
        where: Dict[int, int] = {}
        for i, Z in enumerate(self.mats):
            where.setdefault(hash(Z.tobytes()), i)
        return where

    def index(self, Z: np.ndarray) -> Optional[int]:
        """The first index of the int64 matrix Z in the list, or None."""
        key = Z.tobytes()
        i = self.where.get(hash(key))
        return None if i is None or self.mats[i].tobytes() != key else i

    def report(self, i: int, md: ModularData) -> InvariantReport:
        """A fresh report of entry i, read off the fields of every entry
        for md, built on the first report for md; its counts and parents
        are read off entry i alone."""
        if self.md is None or self.md() is not md:
            mats, ring = self.mats, md.ring
            self.md, self.fields = weakref.ref(md), list(zip(
                _permutations(mats, ring, md.spins), _current_supported(mats, ring).tolist(),
                _indices(mats, md)))
        perm, current, indices = self.fields[i]
        if perm is not None:
            perm = dict(perm, theta=perm["theta"].copy())
        Z = self.mats[i]
        return _report(self.vac[i], _table(self.rows[i]), perm, current,
                       dict(_nonempty(indices)), sector_counts(Z),
                       _parents_of(self.first, Z[:, 0], Z[0]))


# The pass of the last list seen.
_last: Optional[_ListPass] = None


def _list_pass(enumerated: Sequence[np.ndarray], m: int) -> _ListPass:
    """The pass of a list of m x m matrices: the last one, unless the list
    differs from it.  Each call restacks the list, O(n m^2), to compare; the
    stack is a fresh copy, so a kept pass cannot change under a caller's
    array."""
    global _last
    mats = _int64(enumerated, m, stack=True)
    if _last is None or not np.array_equal(_last.mats, mats):
        _last = _ListPass(mats)
    return _last


def _parents_of(first: Dict[bytes, int], col: np.ndarray, row: np.ndarray
                ) -> Dict[str, Optional[int]]:
    """The plus and minus parents of an int64 vacuum column and row, read
    off a parent table."""
    return {"plus": first.get(col.tobytes()), "minus": first.get(row.tobytes())}


def find_parents(
    Z: np.ndarray, enumerated: Sequence[np.ndarray]
) -> Dict[str, Optional[int]]:
    """Locate type I parents of Z inside an enumerated invariant list.

    The plus parent is a type I invariant whose vacuum column equals the
    vacuum column of Z; the minus parent matches the vacuum row.  Returns
    indices into `enumerated` (first match each), None where no parent
    exists in the list.  Both are read off the parent table of the list's
    pass, vacuum vector to its first type I entry, kept for the last list
    seen; each call restacks the list to compare it, which classify_list
    does once.  Building the table decides type I for every
    vacuum-symmetric entry, not only until each vacuum vector has its
    parent, since classify_list reads those answers too; so the first call
    on a list runs every such Gram search, and raises the search's
    RuntimeError on any entry that passes GRAM_NODE_CAP.
    """
    Z = _int64(Z)
    return _parents_of(_list_pass(enumerated, Z.shape[0]).first, Z[:, 0], Z[0])


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


def _report(vac: bool, b: Optional[BranchingTable], *fields) -> InvariantReport:
    """A report from the vacuum symmetry, the branching table and the
    other fields in InvariantReport's order."""
    perm, current, indices, counts, parents = fields
    return InvariantReport("type II" if b is None else "type I", not vac, perm, current, b,
                           indices, counts, parents)


def classify_invariant(
    Z: np.ndarray,
    md: ModularData,
    enumerated: Optional[Sequence[np.ndarray]] = None,
) -> InvariantReport:
    """Full structural report for one invariant of a model.

    A Z found in `enumerated` reads its report off the list's pass, the
    one classify_list runs, built once per (list, md); any other Z is
    reported by the one-matrix views."""
    Z = _int64(Z, md.ring.size)
    parents = None
    if enumerated is not None:
        listed = _list_pass(enumerated, md.ring.size)
        i = listed.index(Z)
        if i is not None:
            return listed.report(i, md)
        parents = find_parents(Z, enumerated)
    ring = md.ring
    vac = vacuum_symmetry(Z)
    return _report(
        vac, type1_decomposition(Z) if vac else None, permutation_test(Z, ring, md.spins),
        simple_current_test(Z, ring), chiral_indices(Z, md), sector_counts(Z), parents)


def classify_list(invs: Sequence[np.ndarray], md: ModularData) -> List[InvariantReport]:
    """classify_invariant(Z, md, enumerated=invs) for every Z of invs, in
    one pass: the list is stacked once, each field is one whole-array
    kernel over the stack, and the parent table and the type I rows are
    read once."""
    listed = _list_pass(invs, md.ring.size)
    return [listed.report(i, md) for i in range(len(invs))]
