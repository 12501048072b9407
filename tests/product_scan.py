"""Test-only reference for enumerate_invariants: the full pivot-product scan.

Every point of the box 0 <= a_i <= floor(d_l d_mu) over the non-vacuum
pivots is decoded by mixed radix in int64 blocks and decided on the
exact rows num / den: range, integrality, the sum bound and ||KZ - ZK||.
No pruning, so it is independent of the frontier bounds it checks.
"""

import math

import numpy as np

from modinv import commutant


def product_scan_enumerate(md, basis=None, cap=10 ** 8):
    """The invariants enumerate_invariants must return, by walking every
    candidate of the pivot box (refused beyond `cap` candidates)."""
    if basis is None:
        basis = commutant.commutant_basis(md)
    r, m = basis.r, md.ring.size
    if r == 0:
        return []
    assert basis.pivot_cells[0] == (0, 0)
    K, _, tol = commutant._operator(md)
    d = md.ring.d
    l, mu = np.array(basis.cells).T
    bound = np.floor(d[l] * d[mu] + 1e-9).astype(np.int64)
    w_max = math.floor(md.w + 1e-6)

    # Pivot 0 is the vacuum, fixed to 1; pivot i > 0 runs over 0..bound.
    radix = [int(bound[basis.cells.index(c)]) + 1 for c in basis.pivot_cells[1:]]
    total = math.prod(radix)
    if total > cap:
        raise RuntimeError(f"product space exceeds {cap:.0e} candidates")
    cells_cap = bound * basis.den

    out = []
    for start in range(0, total, 4096):
        k = np.arange(start, min(start + 4096, total), dtype=np.int64)
        A = np.ones((len(k), r), dtype=np.int64)
        for i in range(r - 1, 0, -1):  # mixed radix, last pivot fastest
            k, A[:, i] = np.divmod(k, radix[i - 1])
        N = A @ basis.num
        N = N[np.all((N >= 0) & (N <= cells_cap), axis=1)]
        Zi, rem = np.divmod(N, basis.den)
        Zi = Zi[~rem.any(axis=1) & (Zi.sum(axis=1) <= w_max)]
        for Z in commutant._scatter(Zi, *np.array(basis.cells).T, m):
            if np.linalg.norm(K @ Z - Z @ K) < tol:
                out.append(Z)
    out.sort(key=lambda Z: tuple(Z.ravel()))
    return out
