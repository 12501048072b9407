"""Built-in models and their name grammar: su(2)_k, Z_n, so(8)_1, so(16)_1.

Also hosts the branching tables of the three conformal embeddings used
by the restriction machinery, and reference Kac-Peterson data against
which the internally built matrices are gated once per process.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .fusion import FusionRing, _spans, check_size
from .modular import ModelSpec, SpinAssignment, build, tensor_product

__all__ = [
    "su2_model",
    "zn_model",
    "zn_valid_weights",
    "zn_weight_valid",
    "so8_level1_model",
    "so16_level1_model",
    "sun_current_model",
    "name_family",
    "model_by_name",
    "catalog_names",
    "BranchingTable",
    "branching_catalog",
    "SO8_KAC_PETERSON_S",
    "SO8_KAC_PETERSON_T",
    "SO16_HETEROTIC_Z",
    "SO16_PARENT_PLUS",
    "SO16_PARENT_MINUS",
]

# ---------------------------------------------------------------------------
# su(2) at level k

def su2_model(k: int) -> ModelSpec:
    """su(2)_k: labels j = 0..k (twice the spin), h_j = j(j+2)/(4k+8)."""
    if k < 1:
        raise ValueError("level must be a positive integer")
    m = k + 1
    check_size(m)
    # Truncated Clebsch-Gordan: N_{ab}^c = 1 exactly when
    # |a - b| <= c <= min(a + b, 2k - a - b) and a + b + c is even, so
    # the nonzeros of each row (a, b) run from |a - b| in steps of 2.
    a, b = np.divmod(np.arange(m * m), m)
    lo = abs(a - b)
    count = (np.minimum(a + b, 2 * k - a - b) - lo) // 2 + 1
    run, step = _spans(np.zeros_like(count), count)
    names = [f"j={j}" for j in range(m)]
    ring = FusionRing(names, a[run], b[run], lo[run] + 2 * step, np.ones_like(step))
    h = [Fraction(j * (j + 2), 4 * k + 8) for j in range(m)]
    return ModelSpec(ring, SpinAssignment(h), name=f"su2:{k}")


# ---------------------------------------------------------------------------
# Z_n spin models

def zn_weight_valid(n: int, a: int) -> bool:
    """Whether a mod 2n gives a consistent Z_n spin model: gcd(a, n) = 1,
    and a even when n is odd (a = 0 is the unique choice for n = 1).
    O(1) in n; raises ValueError for n < 1."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    a %= 2 * n
    return math.gcd(a, n) == 1 and (n % 2 == 0 or a % 2 == 0)


def zn_valid_weights(n: int) -> List[int]:
    """Residues a mod 2n giving a consistent Z_n spin model (zn_weight_valid)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return [a for a in range(2 * n) if zn_weight_valid(n, a)]


def _cyclic_ring(n: int) -> FusionRing:
    """Z_n fusion rules on labels [0]..[n-1] (conjugation j -> -j)."""
    check_size(n)
    i, j = np.divmod(np.arange(n * n), n)
    names = [f"[{j}]" for j in range(n)]
    return FusionRing(names, i, j, (i + j) % n, np.ones_like(i))


def zn_model(n: int, a: int) -> ModelSpec:
    """Z_n model with h_j = a j^2 / 2n; a taken mod 2n.

    The weight must be coprime to n, and even when n is odd, so that
    h is well defined on Z_n and conjugation symmetric.
    """
    if not zn_weight_valid(n, a):  # raises ValueError for n < 1
        raise ValueError(f"invalid weight a={a % (2 * n)} for Z_{n}")
    a %= 2 * n
    ring = _cyclic_ring(n)  # refuses n > MAX_LABELS before the O(n) weights
    h = [Fraction(a * j * j, 2 * n) for j in range(n)]
    return ModelSpec(ring, SpinAssignment(h), name=f"zn:{n}:{a}")


# ---------------------------------------------------------------------------
# so(8)_1 and so(16)_1 (Z_2 x Z_2 fusion rules: labels 0, v, s, c)

SO8_KAC_PETERSON_S = 0.5 * np.array(
    [
        [1.0, 1.0, 1.0, 1.0],
        [1.0, 1.0, -1.0, -1.0],
        [1.0, -1.0, 1.0, -1.0],
        [1.0, -1.0, -1.0, 1.0],
    ]
)

# Kac-Peterson T for so(8)_1; the overall phase convention here is the
# complex conjugate of the one produced by build() (which fixes the
# principal branch of the central charge).
SO8_KAC_PETERSON_T = np.exp(1j * np.pi / 3) * np.diag([1.0, -1.0, -1.0, -1.0])

SO16_HETEROTIC_Z = np.array(
    [[1, 0, 0, 1], [0, 0, 0, 0], [1, 0, 0, 1], [0, 0, 0, 0]], dtype=int
)
SO16_PARENT_PLUS = np.array(
    [[1, 0, 1, 0], [0, 0, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0]], dtype=int
)
SO16_PARENT_MINUS = np.array(
    [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=int
)


def _z2z2_ring() -> FusionRing:
    names = ["0", "v", "s", "c"]
    x, y = np.divmod(np.arange(16), 4)
    return FusionRing(names, x, y, x ^ y, np.ones_like(x))


@functools.lru_cache(maxsize=None)
def _so8_gate() -> Tuple[Fraction, ...]:
    """The so(8)_1 weights, once the S built from them reproduced the
    Kac-Peterson matrix.  Runs once per process; a failure is not cached."""
    h = (Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    md = build(ModelSpec(_z2z2_ring(), SpinAssignment(list(h)), name="so8_1"))
    if not md.nondegenerate or np.max(np.abs(md.S - SO8_KAC_PETERSON_S)) > 1e-12:
        raise RuntimeError("so(8)_1 self-check failed: built S != Kac-Peterson S")
    return h


def so8_level1_model() -> ModelSpec:
    """so(8)_1: h = (0, 1/2, 1/2, 1/2) on Z_2 x Z_2 fusion rules.

    The built S must reproduce the Kac-Peterson matrix exactly; this is
    checked once per process (_so8_gate).  Each call returns a new spec.
    """
    return ModelSpec(_z2z2_ring(), SpinAssignment(list(_so8_gate())), name="so8_1")


@functools.lru_cache(maxsize=None)
def _so16_gate() -> Tuple[Fraction, ...]:
    """The so(16)_1 weights, once the reference couplings commuted with
    the built S and Omega.  Runs once per process; a failure is not cached."""
    h = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(1))
    md = build(ModelSpec(_z2z2_ring(), SpinAssignment(list(h)), name="so16_1"))
    if not md.nondegenerate:
        raise RuntimeError("so(16)_1 self-check failed: degenerate data")
    for Z in (SO16_HETEROTIC_Z, SO16_PARENT_PLUS, SO16_PARENT_MINUS):
        if np.max(np.abs(md.S @ Z - Z @ md.S)) > 1e-12:
            raise RuntimeError("so(16)_1 self-check failed: [S, Z] != 0")
        if np.max(np.abs(md.Omega @ Z - Z @ md.Omega)) > 1e-12:
            raise RuntimeError("so(16)_1 self-check failed: [Omega, Z] != 0")
    return h


def so16_level1_model() -> ModelSpec:
    """so(16)_1: h = (0, 1/2, 1, 1) on Z_2 x Z_2 fusion rules.

    The spinor weights are imported (the vector weight is forced, the
    spinor pair is external input), so _so16_gate checks them once per
    process.  Each call returns a new spec.
    """
    return ModelSpec(_z2z2_ring(), SpinAssignment(list(_so16_gate())), name="so16_1")


# ---------------------------------------------------------------------------
# simple-current sector of su(n)_k (a Z_n system, possibly degenerate)

def sun_current_model(n: int, k: int) -> ModelSpec:
    """Z_n fusion with the su(n)_k current weights h_j = k j(n-j) / 2n.

    This is generally *not* a Z_n spin model in the sense of zn_model
    (the quadratic coefficient need not be coprime to n) and its Gauss
    sum may vanish; it exists to feed the extension calculus, which only
    needs the ring and the exact weights.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive integers")
    ring = _cyclic_ring(n)  # refuses n > MAX_LABELS before the O(n) weights
    h = [Fraction(k * j * (n - j), 2 * n) for j in range(n)]
    return ModelSpec(ring, SpinAssignment(h), name=f"sun_currents:{n}:{k}")


# ---------------------------------------------------------------------------
# registry: the one model-name grammar

# family -> (constructor, number of integer parameters after the family)
_FAMILIES = {"su2": (su2_model, 1), "zn": (zn_model, 2), "sun_currents": (sun_current_model, 2),
             "so8_1": (so8_level1_model, 0), "so16_1": (so16_level1_model, 0)}


def name_family(name: str) -> Tuple[str, Tuple[int, ...]]:
    """('zn', (6, 1)) for 'zn:6:1': the family and integer parameters of a
    built-in name.  A product gives ('*', ()) if a factor starts with a
    family, any other name ('', ()); malformed parameters raise ValueError."""
    if "*" in name:
        return ("*" if any(f.split(":")[0] in _FAMILIES for f in name.split("*"))
                else ""), ()
    family, *args = name.split(":")
    if family not in _FAMILIES:
        return "", ()
    if len(args) != _FAMILIES[family][1]:
        raise ValueError(f"unknown model name '{name}'")
    try:
        return family, tuple(int(a) for a in args)
    except ValueError as exc:
        raise ValueError(f"cannot build model '{name}': {exc}") from None


def model_by_name(name: str) -> ModelSpec:
    """Parse 'su2:K', 'zn:N:A', 'sun_currents:N:K', 'so8_1', 'so16_1',
    and products 'A*B' of these (modular.tensor_product).  The factors of
    a product are built left to right, then multiplied from the right."""
    if "*" in name:
        *rest, spec = [model_by_name(f) for f in name.split("*")]
        for left in reversed(rest):
            spec = tensor_product(left, spec)
        return spec
    family, params = name_family(name)
    if not family:
        raise ValueError(f"unknown model name '{name}'")
    try:
        return _FAMILIES[family][0](*params)
    except ValueError as exc:
        raise ValueError(f"cannot build model '{name}': {exc}") from None


def catalog_names() -> List[str]:
    """Names of the full built-in sweep (used by the property suite)."""
    out = [f"su2:{k}" for k in range(1, 29)]
    for n in range(1, 25):
        out.extend(f"zn:{n}:{a}" for a in zn_valid_weights(n))
    out.extend(["so8_1", "so16_1"])
    return out


# ---------------------------------------------------------------------------
# branching tables of the three conformal embeddings

@dataclass
class BranchingTable:
    """Multiplicities b[tau, lam] of a chiral extension.

    Rows are extended sectors (vacuum first), columns the base-theory
    sectors that appear (vacuum first).  b[0, 0] = 1 always.
    """

    b: np.ndarray
    row_names: List[str]
    col_names: List[str]
    name: str = ""

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=int)
        if self.b.ndim != 2:
            raise ValueError("branching table must be a matrix")
        if self.b.shape != (len(self.row_names), len(self.col_names)):
            raise ValueError("branching table shape does not match names")
        if np.any(self.b < 0):
            raise ValueError("branching multiplicities must be nonnegative")
        if self.b[0, 0] != 1:
            raise ValueError("extended vacuum must contain the base vacuum once")

    @property
    def rows(self) -> int:
        return self.b.shape[0]


_SU4_ROWS: List[List[Tuple[int, int, int]]] = [
    [(0, 0, 0), (0, 6, 0), (2, 0, 2), (2, 2, 2)],
    [(0, 0, 2), (2, 4, 0), (2, 1, 2)],
    [(0, 1, 2), (2, 3, 0), (3, 0, 3)],
    [(1, 0, 3), (3, 2, 1), (0, 3, 0)],
    [(0, 0, 4), (4, 2, 0), (1, 2, 1)],
    [(0, 0, 6), (6, 0, 0), (0, 2, 2), (2, 2, 0)],
    [(4, 0, 0), (0, 2, 4), (1, 2, 1)],
    [(3, 0, 1), (1, 2, 3), (0, 3, 0)],
    [(0, 3, 2), (2, 1, 0), (3, 0, 3)],
    [(2, 0, 0), (0, 4, 2), (2, 1, 2)],
]


def _table_from_rows(
    rows: Sequence[Sequence[Tuple[int, ...]]],
    row_names: Sequence[str],
    name: str,
) -> BranchingTable:
    cols: List[Tuple[int, ...]] = []
    for row in rows:
        for wt in row:
            if wt not in cols:
                cols.append(wt)
    b = np.zeros((len(rows), len(cols)), dtype=int)
    for t, row in enumerate(rows):
        for wt in row:
            b[t, cols.index(wt)] += 1
    col_names = [str(tuple(wt)).replace(" ", "") for wt in cols]
    return BranchingTable(b, list(row_names), col_names, name=name)


def su4_charge_conjugation(table: BranchingTable) -> np.ndarray:
    """Weight reversal (p,q,r) -> (r,q,p) as a permutation of the columns."""
    wts = [tuple(int(x) for x in nm.strip("()").split(",")) for nm in table.col_names]
    perm = np.zeros(len(wts), dtype=int)
    for i, (p, q, r) in enumerate(wts):
        rev = (r, q, p)
        if rev not in wts:
            raise ValueError("column set is not closed under weight reversal")
        perm[i] = wts.index(rev)
    return perm


def branching_catalog() -> Dict[str, BranchingTable]:
    """The three built-in conformal embedding tables.

    * su10_to_su4: su(4)_6 in su(10)_1, ten Z_10 sectors over 28 weights.
    * e6_to_su3:   su(3)_9 in (E6)_1, three Z_3 sectors over 9 weights.
    * so8_to_su3:  su(3)_3 in so(8)_1, four sectors over 4 weights.
    """
    su4 = _table_from_rows(
        _SU4_ROWS, [f"tau{j}" for j in range(10)], name="su10_to_su4"
    )
    su4_charge_conjugation(su4)  # gate: columns closed under reversal

    e6_rows = [
        [(0, 0), (9, 0), (0, 9), (4, 1), (1, 4), (4, 4)],
        [(2, 2), (5, 2), (2, 5)],
        [(2, 2), (5, 2), (2, 5)],
    ]
    e6 = _table_from_rows(e6_rows, ["tau0", "tau1", "tau2"], name="e6_to_su3")

    so8_rows = [
        [(0, 0), (3, 0), (0, 3)],
        [(1, 1)],
        [(1, 1)],
        [(1, 1)],
    ]
    so8 = _table_from_rows(so8_rows, ["0", "v", "s", "c"], name="so8_to_su3")

    return {"su10_to_su4": su4, "e6_to_su3": e6, "so8_to_su3": so8}
