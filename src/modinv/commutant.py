"""Enumeration of nonnegative-integer matrices commuting with (Y, Omega).

Three stages cut down the search: the exact spin classes (T-support)
restrict the cells; the real Y-commutant on them (the S-commutant too,
S = Y / |z|) is the nullspace of a closed-form |cells| x |cells| Gram
matrix, found once by eigh and put into reduced row echelon form; the
integer points are searched depth first over the pivot values, with
bounds Z_{lm} <= d_l d_m and sum Z <= w.

The echelon basis is rationalized by a whole-array snap to n/q, q <= 12
(values it leaves open keep the exact two-cap decision), and rechecked
against Y once; a basis failing either is refused with RuntimeError.
The search then works in int64 on the exact rows num / den: a partial
sum is cut once the open pivots cannot bring a cell or the row sum into
range, and a complete one is decided by range, integrality and sum <= w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .modular import ModularData, SpinAssignment

__all__ = [
    "t_support",
    "support_cells",
    "CommutantBasis",
    "commutant_basis",
    "enumerate_invariants",
    "brute_force_enumerate",
    "is_invariant",
]

RANK_TOL = 1e-9
EXACT_TOL = 1e-8
FINAL_TOL = 1e-7
MAX_DEN = 10 ** 6
NODE_CAP = 10 ** 8
BRUTE_NODE_CAP = 10 ** 7
INT64_MAX = int(np.iinfo(np.int64).max)


def t_support(spins: SpinAssignment) -> List[List[int]]:
    """Partition the labels into classes of equal exact weight mod 1."""
    groups: Dict[Fraction, List[int]] = {}
    for i, h in enumerate(spins.h):
        groups.setdefault(h, []).append(i)
    return sorted(groups.values())


def support_cells(spins: SpinAssignment) -> List[Tuple[int, int]]:
    """Cells (l, m) with h_l = h_m, sorted, vacuum cell first."""
    cells = [
        (i, j) for cls in t_support(spins) for i in cls for j in cls
    ]
    return sorted(cells)


@dataclass(frozen=True)
class CommutantBasis:
    """Echelonized basis of the Y-commutant restricted to the T-support.

    kind is "modular" (nondegenerate data) or "Y-commutant".  The echelon
    rows B_i over `cells` are exactly num / den: num an int64 (r, len(cells))
    array and den the common denominator; residual[i] = ||Y B_i - B_i Y||.
    The basis is exact or refused: commutant_basis never returns a float one.
    It is frozen and num, residual are read-only, so the residuals that
    certify an enumeration stay those of num / den.
    """

    kind: str
    cells: List[Tuple[int, int]]
    pivot_cells: List[Tuple[int, int]]
    num: np.ndarray
    residual: np.ndarray
    den: int = 1

    def __post_init__(self):
        self.num.setflags(write=False)
        self.residual.setflags(write=False)

    @property
    def r(self) -> int:
        return int(self.num.shape[0])

    @property
    def exact(self) -> bool:
        """Always True; kept for reports that state the exactness."""
        return True


def _operator(md: ModularData) -> Tuple[np.ndarray, str, float]:
    """The operator K = Y the invariants commute with, its kind, and the
    tolerance on ||KZ - ZK||: FINAL_TOL on [S, Z] scaled by |z| = sqrt(w)."""
    kind = "modular" if md.nondegenerate else "Y-commutant"
    return md.Y, kind, FINAL_TOL * math.sqrt(md.w)


def _scatter(rows: np.ndarray, cells: Sequence[Tuple[int, int]], m: int) -> np.ndarray:
    """Stack (r, m, m) of matrices with each row's values on `cells`."""
    mats = np.zeros((len(rows), m, m), dtype=rows.dtype)
    l, mu = np.array(cells).T
    mats[:, l, mu] = rows
    return mats


def _gram(K: np.ndarray, cells: Sequence[Tuple[int, int]]) -> np.ndarray:
    """Re(A^H A) for A: Z on `cells` -> KZ - ZK.  At cells c = (l, mu),
    c' = (l', mu') it is Re[d(mu, mu') (K^H K)[l, l'] + d(l, l') (K K^H)[mu', mu]]
    - X[c, c'] - X[c', c], with X[c, c'] = Re(conj(K[l', l]) K[mu', mu])."""
    l, mu = np.array(cells).T
    li, lj, mi, mj = l[:, None], l[None, :], mu[:, None], mu[None, :]
    X = (K[lj, li].conj() * K[mj, mi]).real
    G = (mi == mj) * (K.conj().T @ K)[li, lj].real
    G += (li == lj) * (K @ K.conj().T)[mj, mi].real
    return G - X - X.T


def _rref(rows: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    R = rows.copy()
    nr, nc = R.shape
    pivots: List[int] = []
    row = 0
    for col in range(nc):
        if row >= nr:
            break
        piv = row + int(np.argmax(np.abs(R[row:, col])))
        if abs(R[piv, col]) < 1e-8:
            continue
        R[[row, piv]] = R[[piv, row]]
        R[row] = R[row] / R[row, col]
        f = np.where(np.arange(nr) == row, 0.0, R[:, col])
        R -= f[:, None] * R[row]
        pivots.append(col)
        row += 1
    R = R[:row]
    R[np.abs(R) < 1e-10] = 0.0
    return R, pivots


def _rationalize(R: np.ndarray) -> Optional[Tuple[np.ndarray, int]]:
    """Integer rows num and a common denominator den with num / den = R,
    or None when some entry has no small-denominator reconstruction.

    A distinct value x is exact when its reconstructions with denominator
    caps 10^4 and MAX_DEN agree within 1e-9.  Values |x| < 2^16 are first
    snapped, whole-array, to n/q (q <= 12) on |x q - n| < q 1e-12: then
    |x - n/q| < 2.4e-10, as fl(x q) is within 2^-32 of x q, while any other
    fraction with denominator <= MAX_DEN is >= 1/(12 MAX_DEN) ~ 8.3e-8 from
    n/q, so both caps give n/q.  Only the values left open meet the caps.
    """
    vals, inverse = np.unique(R, return_inverse=True)
    nums, dens = np.zeros((2, len(vals)), dtype=np.int64)  # dens 0: still open
    q, todo = 1, np.flatnonzero(np.abs(vals) < 2.0 ** 16)
    while todo.size and q <= 12:
        xq = vals[todo] * q
        hit = np.abs(xq - np.rint(xq)) < q * 1e-12
        nums[todo[hit]], dens[todo[hit]] = np.rint(xq[hit]), q
        q, todo = q + 1, todo[~hit]
    for i in np.flatnonzero(dens == 0).tolist():
        f, g = (Fraction(vals[i]).limit_denominator(c) for c in (10 ** 4, MAX_DEN))
        if f != g or abs(float(f) - vals[i]) > 1e-9 or abs(f.numerator) > INT64_MAX:
            return None
        nums[i], dens[i] = f.numerator, f.denominator
    nums, dens = np.stack([nums, dens]) // np.gcd(nums, dens)
    den = math.lcm(*set(dens.tolist()))
    if den > INT64_MAX or (np.abs(nums) > INT64_MAX // (den // dens)).any():
        return None
    return (nums * (den // dens))[inverse].reshape(R.shape), den


def commutant_basis(md: ModularData) -> CommutantBasis:
    """Deterministic echelon basis of {Z real : YZ = ZY, supp Z in cells}."""
    K, kind, _ = _operator(md)
    m = K.shape[0]
    cells = support_cells(md.spins)
    lam, V = np.linalg.eigh(_gram(K, cells))
    null = V[:, lam < RANK_TOL * max(float(lam[-1]), 1.0)].T
    if null.shape[0] == 0:
        return CommutantBasis(kind, cells, [], np.zeros((0, len(cells)), dtype=np.int64),
                              np.zeros(0))

    R, piv_idx = _rref(null)
    pivot_cells = [cells[c] for c in piv_idx]

    exact = _rationalize(R)
    if exact is None:
        raise RuntimeError("commutant basis has no small-denominator rationalization")
    num, den = exact
    mats = _scatter(num / den, cells, m)
    residual = np.linalg.norm(K @ mats - mats @ K, axis=(1, 2))
    if not residual.max() <= EXACT_TOL * float(np.linalg.norm(K)):
        raise RuntimeError("rationalized commutant basis fails the commutation recheck")
    return CommutantBasis(kind, cells, pivot_cells, num, residual, den)


def enumerate_invariants(
    md: ModularData, basis: Optional[CommutantBasis] = None
) -> List[np.ndarray]:
    """All physical invariants: integer Z >= 0, Z_00 = 1, [Y, Z] = 0,
    supp Z in the T-support, Z_lm <= d_l d_m, sum Z <= w.

    `basis` is commutant_basis(md), computed here when not given.
    Output is sorted by the flattened rows, so runs are reproducible.
    """
    if basis is None:
        basis = commutant_basis(md)
    r, m = basis.r, md.ring.size
    if r == 0:
        return []
    if not basis.pivot_cells or basis.pivot_cells[0] != (0, 0):
        raise RuntimeError("echelon basis does not pivot on the vacuum cell")

    _, _, tol = _operator(md)
    d = md.ring.d
    l, mu = np.array(basis.cells).T
    bound = np.floor(d[l] * d[mu] + 1e-9).astype(np.int64)
    w_max = math.floor(md.w + 1e-6)
    num, den = basis.num, basis.den

    # Pivot 0 is the vacuum, fixed to 1; pivot i > 0 runs over 0..b_i.
    b = bound[[basis.cells.index(c) for c in basis.pivot_cells]]
    # So every Z below is sum a_i B_i with 0 <= a_i <= b_i, and one bound
    # ||YZ - ZY|| <= sum b_i ||Y B_i - B_i Y|| certifies the whole list.
    if not (worst := float(b @ basis.residual)) < tol:
        raise RuntimeError(f"basis residuals bound ||YZ - ZY|| by {worst:.3g} >= {tol:.3g}")
    # Every int64 value formed below (partial sums on the cells and on the row
    # sum, suffix bounds, caps bound * den and w * den, a cap plus a suffix
    # bound) is at most 2 * top; a spare 2 absorbs the rounding of top.
    top = max(float(b @ np.abs(num).sum(axis=1, dtype=float)), w_max, bound.max()) * den
    if 4 * top > INT64_MAX:
        raise RuntimeError("exact recheck would overflow int64")

    # The row sum is one more column, capped like a cell.  Pivots j > i
    # add between sum b_j min(row_j, 0) and sum b_j max(row_j, 0), so a
    # partial sum over pivots 0..i outside [lo_i, hi_i] is cut.
    rows = np.column_stack([num, num.sum(axis=1)])
    up = b[:, None] * np.maximum(rows, 0)
    down = b[:, None] * np.minimum(rows, 0)
    lo = up - np.cumsum(up[::-1], axis=0)[::-1]
    hi = np.append(bound, w_max) * den + down - np.cumsum(down[::-1], axis=0)[::-1]
    out = [np.zeros((0, len(basis.cells)), dtype=np.int64)]
    expanded = 0

    def search(i: int, N: np.ndarray) -> None:
        # Depth first: cut the rows N (pivots 0..i fixed), then extend the
        # survivors by pivot i + 1 in blocks of at most 4096 rows.
        nonlocal expanded
        N = N[((lo[i] <= N) & (N <= hi[i])).all(axis=1)]
        if i == r - 1:
            Zi, rem = np.divmod(N[:, :-1], den)
            out.append(Zi[~rem.any(axis=1)])
            return
        vals = np.arange(b[i + 1] + 1)[:, None]
        step = max(1, 4096 // len(vals))
        for s in range(0, len(N), step):
            expanded += min(step, len(N) - s) * len(vals)
            if expanded > NODE_CAP:
                raise RuntimeError(f"frontier search exceeds {NODE_CAP:.0e} rows")
            # Unnamed, so the block is freed as soon as the callee cuts it.
            search(i + 1, (N[s:s + step, None] + vals * rows[i + 1])
                   .reshape(-1, rows.shape[1]))

    search(0, rows[:1])
    # Cells are row-major and Z is 0 off them: this is the flattened order.
    Z = np.concatenate(out)
    return list(_scatter(Z[np.lexsort(Z.T[::-1])], basis.cells, m))


def brute_force_enumerate(md: ModularData) -> List[np.ndarray]:
    """Reference oracle: direct search over all T-support cell values.

    Independent of the commutant computation; intended for small models
    to cross-check enumerate_invariants.
    """
    ring = md.ring
    m = ring.size
    d = ring.d
    w = md.w
    cells = support_cells(md.spins)
    K, _, tol = _operator(md)

    bounds = [1] + [int(math.floor(d[l] * d[mu] + 1e-9)) for l, mu in cells[1:]]
    if math.prod(b + 1 for b in bounds[1:]) > BRUTE_NODE_CAP:
        raise RuntimeError(f"brute-force space exceeds {BRUTE_NODE_CAP:.0e} assignments")

    out: List[np.ndarray] = []
    Z = np.zeros((m, m), dtype=int)

    def rec(pos: int, acc: float) -> None:
        if pos == len(cells):
            if np.linalg.norm(K @ Z - Z @ K) < tol:
                out.append(Z.copy())
            return
        l, mu = cells[pos]
        lo = 1 if (l, mu) == (0, 0) else 0
        for v in range(lo, bounds[pos] + 1):
            if acc + v > w + 1e-6:
                break
            Z[l, mu] = v
            rec(pos + 1, acc + v)
        Z[l, mu] = 0

    rec(0, 0.0)
    out.sort(key=lambda M: tuple(M.ravel()))
    return out


def is_invariant(md: ModularData, Z: np.ndarray) -> Tuple[bool, Dict[str, object]]:
    """Check one matrix against the physical-invariant conditions.

    Returns (flag, report) where report carries the individual residuals
    and booleans.
    """
    ring = md.ring
    m = ring.size
    Z = np.asarray(Z)
    if Z.shape != (m, m):
        raise ValueError("matrix shape does not match the model")
    d = ring.d
    cells = set(support_cells(md.spins))
    K, kind, tol = _operator(md)

    rep: Dict[str, object] = {"kind": kind}
    rep["integer"] = bool(np.all(Z == np.round(Z)))
    rep["nonnegative"] = bool(np.all(Z >= 0))
    rep["vacuum"] = bool(abs(Z[0, 0] - 1) < 1e-12)
    supp = [tuple(int(x) for x in p) for p in np.argwhere(Z != 0)]
    rep["t_support"] = all(p in cells for p in supp)
    rep["pf_bounds"] = bool(np.all(Z <= np.outer(d, d) + 1e-9))
    rep["sum_bound"] = bool(Z.sum() <= md.w + 1e-6)
    rep["commutation"] = float(np.linalg.norm(K @ Z - Z @ K))
    flags = ("integer", "nonnegative", "vacuum", "t_support", "pf_bounds", "sum_bound")
    ok = all(rep[f] for f in flags) and rep["commutation"] < tol
    return bool(ok), rep
