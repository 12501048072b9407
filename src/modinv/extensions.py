"""Extension calculus for simple-current sectors.

Covers: which cyclic current subgroups admit a modular invariant
(integral m h_sigma), the explicit Z_n invariant attached to a divisor
of n-tilde, the chiral locality criterion for su(n)_k current charges,
restriction of extended invariants through a branching table, and the
dual-vacuum vector (theta) of a current extension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

from .catalog import BranchingTable, branching_catalog, zn_weight_valid
from .fusion import check_size, simple_currents
from .modular import ModelSpec

__all__ = [
    "ExtensionRecord",
    "rehren_admissible",
    "zn_invariant",
    "zn_invariant_table",
    "locality_test",
    "restrict",
    "so8_restriction_sweep",
    "theta_vector",
    "sun_divisor_table",
]


@dataclass
class ExtensionRecord:
    """One cyclic current subgroup and its admissibility data."""

    generator: int
    order: int
    elements: Tuple[int, ...]
    h_generator: Fraction
    admissible: bool
    ring_size: int


def rehren_admissible(spec: ModelSpec) -> List[ExtensionRecord]:
    """All cyclic subgroups of the simple-current group, with the
    admissibility flag: order times the generator weight is an integer.

    The canonical generator of each subgroup is its smallest generating
    label (`simple_currents` maps each subgroup to it); records are
    sorted by (order, generator).
    """
    records = []
    for key, gen in simple_currents(spec.ring).items():
        h = spec.spins.h[gen]
        records.append(
            ExtensionRecord(
                generator=gen,
                order=len(key),
                elements=key,
                h_generator=h,
                admissible=(len(key) * h).denominator == 1,
                ring_size=spec.ring.size,
            )
        )
    records.sort(key=lambda r: (r.order, r.generator))
    return records


def zn_invariant(n: int, a: int, delta: int) -> np.ndarray:
    """The invariant Z^(delta) of the Z_n model, delta a divisor of
    n-tilde (= n for odd n, n/2 for even n).

    Support: j, j' both divisible by alpha = gcd(delta, ntilde/delta)
    and j' = omega(delta) j mod n/alpha, where omega comes from the
    canonical Bezout solution r u - s v = 1, u = ntilde/(delta alpha),
    v = delta/alpha, 0 <= s < u, omega = r u + s v.  The matrix does not
    depend on the Bezout representative; the canonical one makes runs
    reproducible.
    """
    if not zn_weight_valid(n, a):  # raises ValueError for n < 1
        raise ValueError(f"invalid weight a={a % (2 * n)} for Z_{n}")
    check_size(n)
    nt = n if n % 2 == 1 else n // 2
    if delta < 1 or nt % delta != 0:
        raise ValueError(f"delta={delta} does not divide {nt}")

    alpha = math.gcd(delta, nt // delta)
    u = nt // (delta * alpha)
    v = delta // alpha
    s = -pow(v, -1, u) % u  # u, v are coprime, and 0 <= s < u
    r = (1 + s * v) // u
    omega = r * u + s * v

    Z = np.zeros((n, n), dtype=int)
    period = n // alpha
    for j in range(0, n, alpha):
        jp = (omega * j) % n
        # all j' = omega j mod n/alpha that are divisible by alpha
        for t in range(alpha):
            cand = (jp + t * period) % n
            if cand % alpha == 0:
                Z[j, cand] = 1
    return Z


def zn_invariant_table(n: int, a: int) -> Dict[int, np.ndarray]:
    """Z^(delta) for every divisor delta of n-tilde."""
    nt = n if n % 2 == 1 else n // 2
    return {
        delta: zn_invariant(n, a, delta)
        for delta in range(1, nt + 1)
        if nt % delta == 0
    }


def locality_test(n: int, k: int, q: int) -> bool:
    """Chiral locality of the su(n)_k current extension generated by
    charge q: k q in 2 m Z for even n, k q in m Z for odd n, with m the
    order of q in Z_n.

    Cross-checked internally against integrality of the generator
    weight h_q = k q (n - q) / 2n; a disagreement raises RuntimeError.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive integers")
    q = q % n
    m = n // math.gcd(q, n) if q else 1
    if n % 2 == 0:
        local = (k * q) % (2 * m) == 0
    else:
        local = (k * q) % m == 0
    h = Fraction(k * q * (n - q), 2 * n)
    integral = h.denominator == 1
    if local != integral:
        raise RuntimeError(
            f"locality criterion disagrees with weight integrality at (n={n}, k={k}, q={q})"
        )
    return local


def restrict(table: BranchingTable, Z_ext: np.ndarray) -> np.ndarray:
    """Pull an extended invariant down: Z = b^T Z_ext b."""
    Z_ext = np.asarray(Z_ext, dtype=int)
    if Z_ext.shape != (table.rows, table.rows):
        raise ValueError("extended invariant shape does not match the table")
    return table.b.T @ Z_ext @ table.b


def so8_restriction_sweep() -> Dict[str, object]:
    """Push all six so(8)_1 invariants through the su(3)_3 table.

    They all restrict to one and the same matrix; the sweep asserts this
    and returns it together with the count.
    """
    from .catalog import so8_level1_model
    from .commutant import enumerate_invariants
    from .modular import build

    spec = so8_level1_model()
    md = build(spec)
    invs = enumerate_invariants(md)
    table = branching_catalog()["so8_to_su3"]
    restricted = [restrict(table, Z) for Z in invs]
    base = restricted[0]
    for R in restricted[1:]:
        if not np.array_equal(R, base):
            raise RuntimeError("so(8)_1 invariants do not restrict uniformly")
    return {"matrix": base, "count": len(invs), "table": table}


def theta_vector(rec: ExtensionRecord) -> np.ndarray:
    """Dual-vacuum multiplicities of an extension: the indicator vector
    of the current subgroup inside its own ring."""
    v = np.zeros(rec.ring_size, dtype=int)
    for g in rec.elements:
        v[g] = 1
    return v


def sun_divisor_table(n: int, k: int) -> Dict[str, object]:
    """Admissible extension orders for the su(n)_k current sector.

    Closed form: all divisors of n, except that for even n and odd k
    only the divisors of n/2 survive.  The closed form is cross-checked
    against rehren_admissible on the current model; a mismatch raises.
    """
    from .catalog import sun_current_model

    if n % 2 == 0 and k % 2 == 1:
        rule = [m for m in range(1, n // 2 + 1) if (n // 2) % m == 0]
    else:
        rule = [m for m in range(1, n + 1) if n % m == 0]

    spec = sun_current_model(n, k)
    records = rehren_admissible(spec)
    found = sorted(r.order for r in records if r.admissible)
    if found != sorted(rule):
        raise RuntimeError(
            f"divisor rule {sorted(rule)} disagrees with subgroup scan {found}"
        )
    locality = {
        r.order: locality_test(n, k, r.generator) for r in records if r.admissible
    }
    return {"orders": found, "records": records, "locality": locality}
