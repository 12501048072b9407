"""Enumeration of nonnegative-integer matrices commuting with (Y, Omega).

The exact spin classes (T-support) restrict the cells.  The real
Y-commutant on them (the S-commutant too, S = Y / |z|) is the nullspace
of a closed-form Gram matrix, found once by eigh and put into reduced row
echelon form.  The cells are first tied into signed Galois orbits: for
nondegenerate data Z commutes with S and Omega, so with each G_l, a
phase times a signed permutation, and the Gram matrix is taken on one
unknown per orbit.  Degenerate data read no Galois action, so each of
their cells is its own orbit.  The integer points are searched depth
first over the pivot values, with bounds Z_{lm} <= d_l d_m and sum Z <= w.

The Gram matrix's cross term and the basis recheck are each formed in
blocks of at most GRAM_BLOCK entries, never whole.  The echelon basis
is rationalized by a whole-array snap to n/q, q <= 12 (values it leaves
open keep the exact two-cap decision), and rechecked against Y once; a
basis failing either is refused with RuntimeError.
The search, _frontier, works in int64 on the exact rows num / den, one
explicit stack of blocks of at most FRONTIER_BLOCK rows: a partial sum
is cut once the open pivots cannot bring a cell or the row sum into
range, and a complete one is decided by range, integrality and sum <= w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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
# Rows of one frontier block: each pivot extends at most this many at once.
FRONTIER_BLOCK = 512
# Entries of one block of the orbit Gram's cross term, and of the stack of
# basis matrices one recheck takes: max(1, GRAM_BLOCK // n) rows of n.
GRAM_BLOCK = 2 ** 14
BRUTE_NODE_CAP = 10 ** 7
INT64_MAX = int(np.iinfo(np.int64).max)
# Galois actions are read for ord(Omega) <= 2^31: trial division then takes
# at most 2^16 steps, and l a for weight numerators a stays in int64.
GALOIS_MAX_N = 2 ** 31


def t_support(spins: SpinAssignment) -> List[List[int]]:
    """Partition the labels into classes of equal exact weight mod 1."""
    groups: Dict[Tuple[int, int], List[int]] = {}
    for i, h in enumerate(spins.h):
        # Keyed by the reduced pair: hashing a Fraction is far slower.
        groups.setdefault((h.numerator, h.denominator), []).append(i)
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


def _prime_factors(n: int) -> List[int]:
    """The distinct primes dividing n, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] * (n > 1)


def _unit_generators(n: int) -> List[int]:
    """Generators of (Z/n)^x: for each prime power q = p^k exactly dividing
    n, a primitive root mod q (p odd), or -1 and 5 (q >= 8), or -1 (q = 4),
    lifted to 1 modulo n / q."""
    gens = []
    for p in _prime_factors(n):
        q = p
        while n % (q * p) == 0:
            q *= p
        if p == 2:
            local = [q - 1, 5][:(q >= 4) + (q >= 8)]
        else:
            phi = q // p * (p - 1)
            primes = _prime_factors(phi)
            local = [next(g for g in range(2, q)
                          if all(pow(g, phi // f, q) != 1 for f in primes))]
        rest = n // q
        gens += [(1 + rest * ((g - 1) * pow(rest, -1, q))) % n for g in local]
    return gens


def _galois_actions(md: ModularData) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ls, pi, eps) for the generators l of (Z/n)^x, n = ord(Omega), whose
    G_l = Omega^l S Omega^l' S Omega^l S^-1 (l l' = 1 mod n) is within
    EXACT_TOL of one phase times a signed permutation, G[pi[j], j] =
    phase eps[j]: one row of pi and eps per kept l, the other generators
    left out.  Every Z commuting with S and Omega then has
    Z[pi[a], pi[b]] = eps[a] eps[b] Z[a, b]."""
    h, m = md.spins.h, md.ring.size
    n = math.lcm(*(x.denominator for x in h))
    ls = _unit_generators(n) if md.nondegenerate and n <= GALOIS_MAX_N else []
    if not ls:
        return np.zeros(0, dtype=np.int64), *np.zeros((2, 0, m), dtype=np.int64)
    a = np.array([x.numerator * (n // x.denominator) for x in h])
    om = np.exp(np.outer(ls + [pow(l, -1, n) for l in ls], a) % n * (2j * np.pi / n))
    g, S = len(ls), md.S
    G = (om[:g, :, None] * S * om[g:, None]) @ (S * om[:g, None]) @ S.conj()
    absG = np.abs(G)
    pi = absG.argmax(axis=1)
    top = G[np.arange(g)[:, None], pi, np.arange(m)]
    ratio = top / top[:, :1]
    eps = np.where(ratio.real < 0, -1, 1)
    # The moduli off pi sum to < EXACT_TOL in every column.  G is unitary
    # (S is), so pi is then a permutation.
    ok = (((absG.sum(axis=1) - np.abs(top)).max(axis=1) < EXACT_TOL)
          & (np.abs(ratio - eps).max(axis=1) < EXACT_TOL))
    return np.array(ls)[ok], pi[ok], eps[ok]


def _orbits(md: ModularData, l: np.ndarray, mu: np.ndarray
            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tie the cells (l, mu) into signed orbits under the Galois actions.

    Returns (order, orbit, v): the live cells sorted by orbit, and per
    cell its orbit number and weight eps / sqrt(orbit size), so that the
    orbit vectors V_k are unit-norm.  A cell whose orbit meets itself with
    both signs is forced to 0: it has weight 0 and is not in order.
    """
    nc = len(l)
    _, pi, eps = _galois_actions(md)
    idx = np.full((md.ring.size,) * 2, -1)
    idx[l, mu] = np.arange(nc)
    img = idx[pi[:, l], pi[:, mu]]
    flip = eps[:, l] != eps[:, mu]
    if (img < 0).any():
        # An action that maps a cell off the cells is left out.
        keep = (img >= 0).all(axis=1)
        img, flip = img[keep], flip[keep]
    # key = 2 root + sign bit.  Every cell takes the smallest key among its
    # own and its images' (the sign flipped along the way), then its root's
    # key, until none changes.  Each action permutes the cells, so the keys
    # meet round every cycle: one root per orbit, and a key that still
    # differs from an image's marks an orbit with both signs on one cell.
    nb = np.concatenate([np.arange(nc)[None], img])
    flip = np.concatenate([np.zeros((1, nc), dtype=bool), flip])
    key = 2 * np.arange(nc)
    while ((new := (key[nb] ^ flip).min(axis=0)) != key).any():
        key = new[new >> 1] ^ (new & 1)
    root = key >> 1
    live = np.ones(nc, dtype=bool)
    live[root[((key[nb] ^ flip) != key).any(axis=0)]] = False
    live = live[root]
    order = np.flatnonzero(live)
    order = order[np.argsort(root[order], kind="stable")]
    # Orbits are numbered by root; the vacuum cell 0 is a live root.
    rank = np.cumsum(np.bincount(root[order], minlength=nc) > 0) - 1
    orbit = rank[root]
    size = np.bincount(orbit[order])
    return order, orbit, np.where(key & 1, -1.0, 1.0) * live / np.sqrt(size)[orbit]


def _orbit_gram(K: np.ndarray, l: np.ndarray, mu: np.ndarray, order: np.ndarray,
                orbit: np.ndarray, v: np.ndarray) -> np.ndarray:
    """V^T G V for the orbit vectors V of _orbits, without forming G.

    G = Re(A^H A) for A: Z on the cells -> KZ - ZK.  At cells c = (l, mu),
    c' = (l', mu') it is D[c, c'] - X[c, c'] - X[c', c], with D[c, c'] =
    Re[d(mu, mu') (K^H K)[l, l'] + d(l, l') (K K^H)[mu', mu]] and X[c, c'] =
    Re(conj(K[l', l]) K[mu', mu]).  D is nonzero only on cells sharing a
    row or a column, one T-class, and is summed over those pairs alone.
    X, on all pairs of live cells, is formed in blocks of rows of at most
    GRAM_BLOCK entries; each block is weighted and summed along its rows
    by orbit at once, and the rows by orbit at the end.  X is never whole,
    and the sums are bit for bit those of the whole array."""
    size = np.bincount(orbit[order])
    u = len(size)
    # Cells are sorted by (l, mu) and the rows of one T-class hold the same
    # columns: row a is the cells rs[a] + t, t < s[a], and the cell (a', b)
    # of c = (a, b) sits in row a' at the rank c has in row a.
    s = np.bincount(l)
    rs = np.cumsum(s) - s
    start = rs[l]
    c, t = np.nonzero(np.arange(s.max()) < s[l][:, None])
    p = start[c] + t
    mp = mu[p]
    q = rs[mp] + c - start[c]
    oc, vc = orbit[c] * u, v[c]
    D = np.bincount(np.concatenate([oc + orbit[p], oc + orbit[q]]),
                    np.concatenate([(K @ K.conj().T).real[mp, mu[c]] * vc * v[p],
                                    (K.conj().T @ K).real[l[c], mp] * vc * v[q]]),
                    minlength=u * u)
    lo, mo, vo = l[order], mu[order], v[order]
    starts = np.cumsum(size) - size
    # Row i of the weighted X is Re(A[i, lo] B[i, mo]) vo[i] vo.
    A, B = K.T.conj()[lo], K.T[mo]
    n = len(lo)
    step, rows = max(1, GRAM_BLOCK // n), np.empty((n, u))
    for i in range(0, n, step):
        X = (np.take(A[i:i + step], lo, axis=1) * np.take(B[i:i + step], mo, axis=1)).real
        rows[i:i + step] = np.add.reduceat(X * np.outer(vo[i:i + step], vo), starts, axis=1)
    M = np.add.reduceat(rows, starts, axis=0)
    return D.reshape(u, u) - M - M.T


def _commutator_norms(K: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """||K B_i - B_i K|| for the real stack mats (r, m, m): the real and
    imaginary parts of K go through two real GEMMs, one against the B_i
    side by side and one against them stacked."""
    r, m, _ = mats.shape
    left = np.concatenate([K.real, K.imag]) @ mats.transpose(1, 0, 2).reshape(m, r * m)
    right = mats.reshape(r * m, m) @ np.concatenate([K.real, K.imag], axis=1)
    diff = left.reshape(2, m, r, m).transpose(2, 1, 0, 3) - right.reshape(r, m, 2, m)
    return np.linalg.norm(diff.reshape(r, -1), axis=1)


def commutant_basis(md: ModularData) -> CommutantBasis:
    """Deterministic echelon basis of {Z real : YZ = ZY, supp Z in cells}.

    The cells are first tied into Galois orbits (_orbits), and the
    nullspace of the Gram matrix is taken on the orbit unknowns."""
    K, kind, _ = _operator(md)
    m = K.shape[0]
    cells = support_cells(md.spins)
    l, mu = np.array(cells).T
    order, orbit, v = _orbits(md, l, mu)
    lam, V = np.linalg.eigh(_orbit_gram(K, l, mu, order, orbit, v))
    null = V[:, lam < RANK_TOL * max(float(lam[-1]), 1.0)].T[:, orbit] * v
    if null.shape[0] == 0:
        return CommutantBasis(kind, cells, [], np.zeros((0, len(cells)), dtype=np.int64),
                              np.zeros(0))

    R, piv_idx = _rref(null)
    pivot_cells = [cells[c] for c in piv_idx]

    exact = _rationalize(R)
    if exact is None:
        raise RuntimeError("commutant basis has no small-denominator rationalization")
    num, den = exact
    rows, step = num / den, max(1, GRAM_BLOCK // (m * m))
    residual = np.concatenate([_commutator_norms(K, _scatter(rows[i:i + step], cells, m))
                               for i in range(0, len(rows), step)])
    if not residual.max() <= EXACT_TOL * float(np.linalg.norm(K)):
        raise RuntimeError("rationalized commutant basis fails the commutation recheck")
    return CommutantBasis(kind, cells, pivot_cells, num, residual, den)


def _frontier(rows: np.ndarray, lo: np.ndarray, hi: np.ndarray,
              b: np.ndarray) -> Iterator[np.ndarray]:
    """Depth first over the pivot values a_0 = 1 (b_0 = 1), 0 <= a_i <= b_i:
    the row sum_i a_i rows[i] is cut once pivots 0..i are fixed unless
    lo[i] <= it <= hi[i].  Yields, block by block, the complete rows that
    pass the last cut.  A block is extended by its pivot, to at most
    FRONTIER_BLOCK rows, only when it is popped, so memory stays depth x
    block.  More than NODE_CAP extended rows raise."""
    width = rows.shape[1]
    stack, expanded = [(0, np.zeros((1, width), dtype=np.int64))], 0
    while stack:
        i, N = stack.pop()
        N = (N[:, None] + np.arange(i == 0, b[i] + 1)[:, None] * rows[i]).reshape(-1, width)
        N = N[((lo[i] <= N) & (N <= hi[i])).all(axis=1)]
        if i + 1 == len(b):
            yield N
            continue
        expanded += len(N) * (b[i + 1] + 1)
        if expanded > NODE_CAP:
            raise RuntimeError(f"frontier search exceeds {NODE_CAP:.0e} rows")
        step = max(1, FRONTIER_BLOCK // (b[i + 1] + 1))
        # Reversed, so the first block is popped first.
        stack += [(i + 1, N[s:s + step]) for s in range(0, len(N), step)][::-1]


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
    # A complete row is an invariant when den divides it on every cell.
    out = [N[(N[:, :-1] % den == 0).all(axis=1), :-1] // den
           for N in _frontier(rows, lo, hi, b)]
    # Cells are row-major and Z is 0 off them: this is the flattened order.
    Z = np.concatenate([np.zeros((0, len(basis.cells)), dtype=np.int64)] + out)
    return list(_scatter(Z[np.lexsort(Z.T[::-1])], basis.cells, m))


def brute_force_enumerate(md: ModularData) -> List[np.ndarray]:
    """Reference oracle: direct search over all T-support cell values.

    Independent of the commutant computation; for small models, to
    cross-check enumerate_invariants.  The box Z_00 = 1, 0 <= Z_c <=
    d_l d_mu over the cells c = (l, mu) is refused above BRUTE_NODE_CAP
    points.  Under it the search is whole-array, with no Python call per
    point: a frontier of int64 rows, one value per cell, is extended cell
    by cell and a row whose sum exceeds w is dropped.  Blocks of about
    512 rows go depth first, so memory stays depth x block x cells.  A
    complete row x is kept when ||x @ M|| < tol, M_c = K E_c - E_c K with
    its real and imaginary parts side by side, that is when ||KZ - ZK||
    < tol.  Sorted like enumerate_invariants.  The walk is kept apart from
    enumerate_invariants' on purpose, so that the oracle stays independent;
    tests/brute_reference.py checks it against the plain recursion.
    """
    cells = support_cells(md.spins)
    K, _, tol = _operator(md)
    d, m, nc = md.ring.d, K.shape[0], len(cells)
    l, mu = np.array(cells).T
    bound = np.floor(d[l] * d[mu] + 1e-9).astype(np.int64)
    bound[0] = 1
    if math.prod((bound[1:] + 1).tolist()) > BRUTE_NODE_CAP:
        raise RuntimeError(f"brute-force space exceeds {BRUTE_NODE_CAP:.0e} assignments")

    E = _scatter(np.eye(nc), cells, m)
    KE = K @ E - E @ K
    M = np.concatenate([KE.real, KE.imag], axis=2).reshape(nc, -1)
    # Row i adds one to cell i and to the row sum, the last column.
    unit = np.eye(nc, nc + 1, dtype=np.int64)
    unit[:, -1] = 1
    out = [np.zeros((0, nc), dtype=np.int64)]
    # Each entry holds rows with cells 0..i-1 set; cell i is set when popped.
    stack = [(0, np.zeros((1, nc + 1), dtype=np.int64))]
    while stack:
        i, N = stack.pop()
        N = (N[:, None] + np.arange(i == 0, bound[i] + 1)[:, None] * unit[i]).reshape(-1, nc + 1)
        N = N[N[:, -1] <= md.w + 1e-6]
        if i + 1 == nc:
            x = N[:, :-1]
            out.append(x[np.linalg.norm(x @ M, axis=1) < tol])
            continue
        chunk = max(1, 512 // (bound[i + 1] + 1))
        stack += [(i + 1, N[s:s + chunk]) for s in range(0, len(N), chunk)]
    # Cells are row-major and Z is 0 off them: this is the flattened order.
    Z = np.concatenate(out)
    return list(_scatter(Z[np.lexsort(Z.T[::-1])], cells, m))


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
