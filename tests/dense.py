"""Dense reference forms of a fusion ring, for the tests only: a ring in
src/ holds N by its nonzeros alone."""
import numpy as np

from modinv.fusion import FusionRing


def dense(ring):
    """N as an m x m x m int array, N[lam, mu, nu] = N_{lam mu}^nu."""
    m = ring.size
    N = np.zeros((m, m, m), dtype=int)
    lam, mu, nu, val = ring.nonzeros
    N[lam, mu, nu] = val
    return N


def ring_from_dense(names, N):
    """The ring whose structure constants are the dense array N."""
    N = np.asarray(N)
    cells = np.nonzero(N)
    return FusionRing(names, *cells, N[cells])
