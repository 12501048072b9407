"""Test-only reference for brute_force_enumerate: the recursive walk.

It visits the box Z_00 = 1, 0 <= Z_c <= d_l d_mu over the T-support cells
one cell value at a time, cuts a branch once the running sum exceeds w,
and tests each complete matrix by ||KZ - ZK|| < tol, one norm per leaf.
The whole-array oracle must return exactly the same list.
"""

import math

import numpy as np

from modinv import commutant


def brute_force_reference(md):
    """Sorted list of the integer matrices the recursive walk accepts."""
    d, w = md.ring.d, md.w
    cells = commutant.support_cells(md.spins)
    K, _, tol = commutant._operator(md)
    bounds = [1] + [int(math.floor(d[l] * d[mu] + 1e-9)) for l, mu in cells[1:]]
    out = []
    Z = np.zeros((md.ring.size,) * 2, dtype=int)

    def rec(pos, acc):
        if pos == len(cells):
            if np.linalg.norm(K @ Z - Z @ K) < tol:
                out.append(Z.copy())
            return
        l, mu = cells[pos]
        for v in range(pos == 0, bounds[pos] + 1):
            if acc + v > w + 1e-6:
                break
            Z[l, mu] = v
            rec(pos + 1, acc + v)
        Z[l, mu] = 0

    rec(0, 0.0)
    out.sort(key=lambda M: tuple(M.ravel()))
    return out
