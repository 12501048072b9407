"""Test-only reference for commutant_basis: the echelon basis built from S.

Before every model used K = Y, nondegenerate data took K = S with the
recheck EXACT_TOL max(1, ||S||_F).  S = Y / |z| spans the same commutant,
so this path must give the same exact rows and pivots as commutant_basis.
It takes the Gram matrix over all cells, with no Galois orbits.
"""

import numpy as np

from modinv import commutant


def gram(K, cells):
    """Re(A^H A) for A: Z on `cells` -> KZ - ZK.  At cells c = (l, mu),
    c' = (l', mu') it is Re[d(mu, mu') (K^H K)[l, l'] + d(l, l') (K K^H)[mu', mu]]
    - X[c, c'] - X[c', c], with X[c, c'] = Re(conj(K[l', l]) K[mu', mu])."""
    l, mu = np.array(cells).T
    li, lj, mi, mj = l[:, None], l[None, :], mu[:, None], mu[None, :]
    X = (K[lj, li].conj() * K[mj, mi]).real
    G = (mi == mj) * (K.conj().T @ K)[li, lj].real
    G += (li == lj) * (K @ K.conj().T)[mj, mi].real
    return G - X - X.T


def s_commutant_basis(md):
    """(num, den, pivot_cells) of the rationalized echelon basis of the
    S-commutant on the T-support cells of nondegenerate data `md`."""
    S, m = md.S, md.S.shape[0]
    cells = commutant.support_cells(md.spins)
    lam, V = np.linalg.eigh(gram(S, cells))
    null = V[:, lam < commutant.RANK_TOL * max(float(lam[-1]), 1.0)].T
    if null.shape[0] == 0:
        return np.zeros((0, len(cells)), dtype=np.int64), 1, []
    R, piv_idx = commutant._rref(null)
    num, den = commutant._rationalize(R)
    mats = commutant._scatter(num / den, cells, m)
    worst = float(np.linalg.norm(S @ mats - mats @ S, axis=(1, 2)).max())
    assert worst <= commutant.EXACT_TOL * max(1.0, float(np.linalg.norm(S)))
    return num, den, [cells[c] for c in piv_idx]
