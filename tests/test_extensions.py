"""Current extensions, Z_n divisor invariants, locality, restriction."""
import math

import numpy as np
import pytest

from modinv import (
    build,
    rehren_admissible,
    restrict,
    so8_level1_model,
    su2_model,
    sun_current_model,
    theta_vector,
    zn_invariant,
    zn_model,
)
from modinv.catalog import branching_catalog, su4_charge_conjugation, zn_valid_weights
from modinv.commutant import is_invariant
from modinv.extensions import (
    locality_test,
    so8_restriction_sweep,
    sun_divisor_table,
    zn_invariant_table,
)


def test_rehren_su2():
    recs = rehren_admissible(su2_model(6))
    assert [(r.order, r.generator) for r in recs] == [(1, 0), (2, 6)]
    assert recs[1].admissible and recs[1].h_generator == pytest.approx(1 / 2)
    recs = rehren_admissible(su2_model(5))
    assert not recs[1].admissible  # 2 h_5 = 5/2 is not an integer


def test_rehren_so8_cyclic_only():
    recs = rehren_admissible(so8_level1_model())
    assert sorted(r.order for r in recs) == [1, 2, 2, 2]
    assert all(r.admissible for r in recs)
    # the full Klein four-group is not cyclic, hence not listed
    assert all(len(r.elements) <= 2 for r in recs)
    gens = sorted(r.generator for r in recs if r.order == 2)
    assert gens == [1, 2, 3]


def test_rehren_sun_currents():
    recs = rehren_admissible(sun_current_model(4, 6))
    byorder = {r.order: r for r in recs}
    assert sorted(byorder) == [1, 2, 4]
    assert all(r.admissible for r in recs)
    assert byorder[4].elements == (0, 1, 2, 3)
    assert byorder[2].elements == (0, 2)


def test_sun_divisor_table():
    tab = sun_divisor_table(4, 6)
    assert tab["orders"] == [1, 2, 4]
    assert tab["locality"] == {1: True, 2: True, 4: False}
    assert sun_divisor_table(4, 3)["orders"] == [1, 2]
    assert sun_divisor_table(3, 5)["orders"] == [1, 3]
    assert sun_divisor_table(2, 4)["orders"] == [1, 2]
    assert sun_divisor_table(2, 3)["orders"] == [1]


def test_locality():
    assert locality_test(2, 4, 1)
    assert not locality_test(2, 6, 1)  # the k=6 index-2 block is heterotic-free but non-local
    assert locality_test(3, 9, 1)
    assert not locality_test(3, 5, 1)
    assert locality_test(5, 10, 2)
    assert locality_test(7, 14, 1)
    with pytest.raises(ValueError):
        locality_test(0, 4, 1)


def test_zn_invariant_endpoints():
    assert np.array_equal(zn_invariant(10, 9, 5), np.eye(10, dtype=int))
    C = np.eye(10, dtype=int)[[(-j) % 10 for j in range(10)]]
    assert np.array_equal(zn_invariant(10, 9, 1), C)


def test_zn_invariant_traces():
    for n in range(1, 13):
        eps = 2 if n % 2 == 0 else 1
        nt = n if n % 2 == 1 else n // 2
        a = zn_valid_weights(n)[0]
        for delta, Z in zn_invariant_table(n, a).items():
            assert nt % delta == 0
            assert Z.trace() == eps * delta
            assert np.all(Z[0] >= 0) and Z[0, 0] == 1


def test_zn_invariant_is_physical():
    for n, a in ((5, 2), (8, 1), (9, 2), (12, 5)):
        md = build(zn_model(n, a))
        for Z in zn_invariant_table(n, a).values():
            ok, rep = is_invariant(md, Z)
            assert ok, rep


def test_zn_invariant_validation():
    with pytest.raises(ValueError):
        zn_invariant(10, 9, 3)  # 3 does not divide 5
    with pytest.raises(ValueError):
        zn_invariant(10, 5, 1)  # gcd(a, n) != 1
    with pytest.raises(ValueError):
        zn_invariant(9, 3, 1)
    with pytest.raises(ValueError):
        zn_invariant(0, 1, 1)


def support_matrix(n, alpha, omega):
    """Support grid for a given multiplier, mirroring the divisor rule."""
    Z = np.zeros((n, n), dtype=int)
    period = n // alpha
    for j in range(0, n, alpha):
        for t in range(alpha):
            cand = (omega * j + t * period) % n
            if cand % alpha == 0:
                Z[j, cand] = 1
    return Z


def test_bezout_representative_independence():
    # n = 9, delta = 3: u = v = 1, so omega = 1 + 2t over representatives;
    # omega mod 3 varies (1 vs 0) yet the support matrix does not
    n, delta = 9, 3
    alpha = math.gcd(delta, (n // delta))
    assert alpha == 3
    omegas = [1, 3]
    assert omegas[0] % 3 != omegas[1] % 3
    mats = [support_matrix(n, alpha, w) for w in omegas]
    assert np.array_equal(mats[0], mats[1])
    assert np.array_equal(zn_invariant(9, 2, 3), mats[0])


def test_restrict_vacuum_and_shapes():
    for name, tab in branching_catalog().items():
        Z = restrict(tab, np.eye(tab.rows, dtype=int))
        assert np.array_equal(Z, tab.b.T @ tab.b), name
        assert Z[0, 0] >= 1
    tab = branching_catalog()["so8_to_su3"]
    with pytest.raises(ValueError):
        restrict(tab, np.eye(3, dtype=int))


def test_restrict_conjugation_su4():
    tab = branching_catalog()["su10_to_su4"]
    C10 = np.eye(10, dtype=int)[[(-j) % 10 for j in range(10)]]
    R = restrict(tab, C10)
    assert R.trace() == 16
    perm = su4_charge_conjugation(tab)
    C28 = np.eye(28, dtype=int)[perm]
    Z28 = tab.b.T @ tab.b
    assert np.array_equal(R, C28 @ Z28)
    assert np.array_equal(R, Z28 @ C28)


def test_so8_restriction_sweep():
    sweep = so8_restriction_sweep()
    assert sweep["count"] == 6
    expect = np.array(
        [[1, 1, 1, 0], [1, 1, 1, 0], [1, 1, 1, 0], [0, 0, 0, 3]], dtype=int)
    assert np.array_equal(sweep["matrix"], expect)
    assert sweep["matrix"].trace() == 6


def test_restrict_e6_conjugation_blind():
    tab = branching_catalog()["e6_to_su3"]
    I3 = np.eye(3, dtype=int)
    C3 = np.eye(3, dtype=int)[[0, 2, 1]]
    R1, R2 = restrict(tab, I3), restrict(tab, C3)
    assert np.array_equal(R1, R2)  # the two non-vacuum rows coincide
    b0, b1 = tab.b[0], tab.b[1]
    assert np.array_equal(R1, np.outer(b0, b0) + 2 * np.outer(b1, b1))
    assert R1.trace() == 12


def test_theta_vectors():
    recs = rehren_admissible(su2_model(6))
    v = theta_vector(recs[1])
    assert v.tolist() == [1, 0, 0, 0, 0, 0, 1]
