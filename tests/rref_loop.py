"""Test-only reference for commutant._rref: Gauss-Jordan elimination with
partial pivoting that clears the pivot column one row at a time.

commutant._rref clears it with one rank-1 update, which does the same
float operations on every entry, so R and the pivots must match this
loop bit for bit.
"""

import numpy as np


def rref_loop(rows):
    """(R, pivots): the reduced row echelon form of `rows` and its pivot
    columns, with entries below 1e-10 in magnitude set to 0."""
    R = rows.copy()
    nr, nc = R.shape
    pivots = []
    row = 0
    for col in range(nc):
        if row >= nr:
            break
        piv = row + int(np.argmax(np.abs(R[row:, col])))
        if abs(R[piv, col]) < 1e-8:
            continue
        R[[row, piv]] = R[[piv, row]]
        R[row] = R[row] / R[row, col]
        for rr in range(nr):
            if rr != row:
                R[rr] = R[rr] - R[rr, col] * R[row]
        pivots.append(col)
        row += 1
    R = R[:row]
    R[np.abs(R) < 1e-10] = 0.0
    return R, pivots
