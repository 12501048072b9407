"""Test-only A-D-E oracle: the physical invariants of su(2)_k from k alone.

Cappelli-Itzykson-Zuber (1987) list every physical invariant of su(2)_k.
Labels are j = 0..k (twice the spin, so j = lambda - 1 in their
notation), and |chi_a + chi_b|^2 stands for the block with ones on every
pair of a, b:

* A_{k+1}, the identity, at every k;
* D_{k/2+2} at even k >= 4: for k = 0 mod 4 the blocks
  |chi_j + chi_{k-j}|^2 over even j < k/2 plus 2|chi_{k/2}|^2; for
  k = 2 mod 4 the permutation j -> k - j on odd j (even j fixed);
* E_6 at k = 10, E_7 at k = 16 and E_8 at k = 28.

Nothing here comes from modinv: the list is written down, not searched.
"""

import numpy as np


def _blocks(m, blocks, extra=()):
    """Sum of |sum_{j in B} chi_j|^2 over the blocks B, plus the single
    entries (a, b, value) in extra."""
    Z = np.zeros((m, m), dtype=np.int64)
    for block in blocks:
        Z[np.ix_(block, block)] += 1
    for a, b, value in extra:
        Z[a, b] += value
    return Z


def _d_series(k):
    m = k + 1
    if k % 4 == 0:
        return _blocks(m, [[j, k - j] for j in range(0, k // 2, 2)],
                       [(k // 2, k // 2, 2)])
    perm = [k - j if j % 2 else j for j in range(m)]
    return np.eye(m, dtype=np.int64)[perm]


# The exceptional invariants, as (blocks, extra) for _blocks.
EXCEPTIONAL = {
    # E_6: |chi_0 + chi_6|^2 + |chi_3 + chi_7|^2 + |chi_4 + chi_10|^2
    10: ([[0, 6], [3, 7], [4, 10]], ()),
    # E_7: |chi_0 + chi_16|^2 + |chi_4 + chi_12|^2 + |chi_6 + chi_10|^2
    #      + |chi_8|^2 + ((chi_2 + chi_14) chi_8^* + c.c.)
    16: ([[0, 16], [4, 12], [6, 10], [8]],
         [(2, 8, 1), (14, 8, 1), (8, 2, 1), (8, 14, 1)]),
    # E_8: |chi_0 + chi_10 + chi_18 + chi_28|^2 + |chi_6 + chi_12 + chi_16 + chi_22|^2
    28: ([[0, 10, 18, 28], [6, 12, 16, 22]], ()),
}


def ade_invariants(k):
    """The physical invariants of su(2)_k as int64 (k+1) x (k+1) matrices,
    sorted by their flattened entries."""
    mats = [np.eye(k + 1, dtype=np.int64)]
    if k % 2 == 0 and k >= 4:
        mats.append(_d_series(k))
    if k in EXCEPTIONAL:
        mats.append(_blocks(k + 1, *EXCEPTIONAL[k]))
    return sorted(mats, key=lambda Z: Z.ravel().tolist())
