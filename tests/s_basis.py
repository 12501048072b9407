"""Test-only reference for commutant_basis: the echelon basis built from S.

Before every model used K = Y, nondegenerate data took K = S with the
recheck EXACT_TOL max(1, ||S||_F).  S = Y / |z| spans the same commutant,
so this path must give the same exact rows and pivots as commutant_basis.
"""

import numpy as np

from modinv import commutant


def s_commutant_basis(md):
    """(num, den, pivot_cells) of the rationalized echelon basis of the
    S-commutant on the T-support cells of nondegenerate data `md`."""
    S, m = md.S, md.S.shape[0]
    cells = commutant.support_cells(md.spins)
    lam, V = np.linalg.eigh(commutant._gram(S, cells))
    null = V[:, lam < commutant.RANK_TOL * max(float(lam[-1]), 1.0)].T
    if null.shape[0] == 0:
        return np.zeros((0, len(cells)), dtype=np.int64), 1, []
    R, piv_idx = commutant._rref(null)
    num, den = commutant._rationalize(R)
    mats = commutant._scatter(num / den, cells, m)
    worst = float(np.linalg.norm(S @ mats - mats @ S, axis=(1, 2)).max())
    assert worst <= commutant.EXACT_TOL * max(1.0, float(np.linalg.norm(S)))
    return num, den, [cells[c] for c in piv_idx]
