"""Test-only exact reference for the associativity check: the run-batched
pass `fusion._associativity_failures` made before it became a randomized
identity test.  It reads only `ring.nonzeros` and `ring.size` and imports
nothing but numpy.

One label l and one run of labels m at a time, on the nonzeros: the left
side pairs each nonzero N_{lm}^s with the nonzeros of N[s], the right side
each nonzero N_{ls}^r with the nonzeros N_{mn}^s, and both are summed into
one slice (m, n, r) of their difference, m in the run.  A run holds at
most PAIRS pairs and CELLS cells, or one label m when that alone holds
more pairs.  Time goes with the number of pairs, and every product is
exact in int64 for the rings the tests build.
"""
import numpy as np

# Pairs formed at once, and the cells of the difference slice they are
# summed into.
PAIRS = 2 ** 18
CELLS = 2 ** 20


def _first_bad(cells, shape):
    return [tuple(map(int, x)) for x in zip(*np.unravel_index(cells[:3], shape))]


def _spans(start, end):
    cnt = end - start
    which = np.repeat(np.arange(len(cnt)), cnt)
    return which, np.arange(cnt.sum()) + np.repeat(start - (np.cumsum(cnt) - cnt), cnt)


def associativity_failures(ring):
    """The first three (l, m, n, r), in C order, with
    sum_s N_{lm}^s N_{sn}^r != sum_s N_{mn}^s N_{ls}^r."""
    lam, mu, nu, val = ring.nonzeros
    m = ring.size
    rows = np.arange(m * m + 1)
    third = np.argsort(nu, kind="stable")  # the nonzeros by (nu, lam, mu)
    # The nonzeros of N[l, m, :] are by_lm[l m]:by_lm[l m + 1]; those of
    # N[l, :, s] are third[by_nl[s m + l]:by_nl[s m + l + 1]].
    by_lm = np.searchsorted(lam * m + mu, rows)
    by_nl = np.searchsorted((nu * m + lam)[third], rows)
    row_nnz = np.diff(by_lm[::m])  # nonzeros of each N[s]
    col_nnz = np.diff(by_nl).reshape(m, m)  # [s, l]: nonzeros of N[l, :, s]
    width = max(1, CELLS // (m * m))
    net = np.zeros(min(width, m) * m * m, dtype=int)  # zero again after each run
    out = []
    for l in range(m):
        b = np.arange(by_lm[l * m], by_lm[l * m + m])
        # Pairs per label m, both sides; a run ends where the running
        # total passes a multiple of PAIRS, or after `width` labels.
        pairs = np.cumsum(np.bincount(mu[b], weights=row_nnz[nu[b]], minlength=m).astype(int)
                          + np.bincount(mu[b], minlength=m) @ col_nnz)
        ends = np.flatnonzero(np.diff(pairs // PAIRS) + np.diff(rows[:m] // width)) + 1
        for lo, hi in zip([0, *ends], [*ends, m]):
            a = np.arange(by_lm[l * m + lo], by_lm[l * m + hi])
            g, j = _spans(by_lm[nu[a] * m], by_lm[nu[a] * m + m])
            a = a[g]
            h, k = _spans(by_nl[mu[b] * m + lo], by_nl[mu[b] * m + hi])
            c, k = b[h], third[k]
            cells = np.concatenate([((mu[a] - lo) * m + mu[j]) * m + nu[j],
                                    ((lam[k] - lo) * m + mu[k]) * m + nu[c]])
            np.add.at(net, cells, np.concatenate([val[a] * val[j], -val[k] * val[c]]))
            bad = np.unique(cells[net[cells] != 0])
            net[bad] = 0
            out += _first_bad(bad[:3 - len(out)] + (l * m + lo) * m * m, (m,) * 4)
            if len(out) == 3:
                return out
    return out
