"""Omega/Y/S/T construction, nondegeneracy, Verlinde recovery."""
import cmath
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from modinv import (
    ModelSpec,
    SpinAssignment,
    build,
    degenerate_sectors,
    is_nondegenerate,
    su2_model,
    sun_current_model,
    tensor_product,
    verlinde_check,
    zn_model,
    so8_level1_model,
    so16_level1_model,
)
from modinv.catalog import catalog_names, model_by_name
from modinv.modular import _nondegeneracy, relation_residuals, statistics_phase
from report_loops import charge_conjugation_from_s, report_models
from dense import dense


def z2_spec(h1):
    """Z_2 fusion with a hand-chosen weight on the nontrivial label."""
    ring = zn_model(2, 1).ring
    return ModelSpec(ring, SpinAssignment([Fraction(0), h1]), name="z2-test")


def test_su2_level6_s_is_unitary_with_cos_ratios():
    md = build(su2_model(6))
    assert md.nondegenerate
    S = md.S
    assert np.max(np.abs(S @ S.conj().T - np.eye(7))) < 1e-12
    for rho in range(7):
        ratio = S[1, rho] / S[0, rho]
        assert ratio == pytest.approx(2 * math.cos((rho + 1) * math.pi / 8), abs=1e-10)


def test_z2_quarter_weight_by_hand():
    md = build(z2_spec(Fraction(1, 4)))
    assert np.max(np.abs(md.Y - np.array([[1, 1], [1, -1]]))) < 1e-12
    assert abs(abs(md.z) ** 2 - 2.0) < 1e-12
    assert md.nondegenerate


def test_z2_half_weight_degenerates():
    md = build(z2_spec(Fraction(1, 2)))
    assert np.max(np.abs(md.Y - np.ones((2, 2)))) < 1e-12
    assert not md.nondegenerate
    assert md.S is None and md.T is None and md.c is None
    assert md.degenerate_reason == "vanishing Gauss sum"


def test_is_nondegenerate_residuals():
    for k in (1, 4, 9, 16, 28):
        flag, resid = is_nondegenerate(build(su2_model(k)))
        assert flag
        assert resid["gauss"] < 1e-6
        assert resid["unitarity"] < 1e-9 * (k + 1)
        assert resid["s2_c_max"] < 1e-9
    flag, resid = is_nondegenerate(build(z2_spec(Fraction(1, 2))))
    assert not flag
    assert resid["gauss"] == pytest.approx(2.0)
    assert resid["unitarity"] == resid["s2_c_max"] == math.inf


def ring_conjugation(ring):
    C = np.zeros((ring.size, ring.size), dtype=int)
    C[np.arange(ring.size), ring.conj] = 1
    return C


def test_c_comes_from_the_ring_and_one_rule_decides():
    for name, md, _ in report_models():
        assert np.array_equal(md.C, ring_conjugation(md.ring)), name
        if md.nondegenerate:
            assert np.array_equal(md.C, charge_conjugation_from_s(md.S)), name
        assert is_nondegenerate(md)[0] == md.nondegenerate, name


def test_degenerate_data_with_a_gauss_sum_keeps_s_and_t():
    # S, T and c are None only when the Gauss sum vanishes; readers of S
    # go by the nondegenerate flag.
    md = build(sun_current_model(4, 2))
    assert not md.nondegenerate
    assert md.degenerate_reason == "Gauss sum modulus mismatch"
    assert md.S is not None and md.T is not None and md.c == pytest.approx(7.0)
    assert np.array_equal(md.C, ring_conjugation(md.ring))
    assert list(relation_residuals(md)) == ["omega_y"]
    with pytest.raises(ValueError, match="nondegenerate"):
        verlinde_check(md)


def test_s_squared_must_be_the_ring_conjugation():
    # A unitary symmetric S whose square swaps labels 1 and 2, while the
    # ring says every label is self-conjugate.
    a = cmath.exp(1j * math.pi / 4) / math.sqrt(2)
    b = 1 / (2 * a)
    S = np.array([[1, 0, 0], [0, a, b], [0, b, a]])
    swap = np.eye(3, dtype=int)[[0, 2, 1]]
    assert np.max(np.abs(S @ S.conj().T - np.eye(3))) < 1e-15
    assert np.array_equal(charge_conjugation_from_s(S), swap)
    reason, resid = _nondegeneracy(1.0, 1.0, S, np.eye(3, dtype=int))
    assert reason == "S^2 is not the charge conjugation"
    assert resid["s2_c_max"] == pytest.approx(1.0)
    assert _nondegeneracy(1.0, 1.0, S, swap)[0] is None


def test_nondegeneracy_verdicts_are_pinned():
    names = catalog_names() + ["sun_currents:12:2", "sun_currents:8:4",
                               "su2:4*su2:4", "zn:6:1*zn:6:1"]
    assert len(names) == 277
    digest = hashlib.sha256()
    for name in names:
        md = build(model_by_name(name))
        C = md.C
        digest.update(f"{name}|{md.nondegenerate}|{md.degenerate_reason}|"
                      f"{C.dtype.str}{C.shape}".encode() + C.tobytes())
    # Pins the verdict, the reason and C byte for byte, as recorded when C
    # was still read off S^2 on nondegenerate data.
    assert digest.hexdigest() == \
        "bf953938b258bfaf07e2752928607db60ad1310b25cc10afdda2784a826464f1"


def test_verlinde_recovery():
    assert verlinde_check(build(su2_model(6))) < 1e-8
    assert verlinde_check(build(zn_model(5, 2))) < 1e-8
    with pytest.raises(ValueError):
        verlinde_check(build(z2_spec(Fraction(1, 2))))


def test_zn_s_matrix_is_fourier_kernel():
    md = build(zn_model(5, 2))
    S = md.S
    for j in range(5):
        for jp in range(5):
            ref = cmath.exp(-2j * math.pi * 2 * j * jp / 5) / math.sqrt(5)
            assert abs(S[j, jp] - ref) < 1e-10


def test_degenerate_sectors_nondegenerate_vacuum_only():
    for spec in (su2_model(6), zn_model(10, 9), so8_level1_model()):
        assert degenerate_sectors(build(spec)) == [0]


def test_degenerate_sectors_transparent_label():
    assert degenerate_sectors(build(z2_spec(Fraction(1, 2)))) == [0, 1]


def test_tensor_product_degenerate_factor():
    prod = tensor_product(z2_spec(Fraction(1, 2)), z2_spec(Fraction(1, 4)))
    md = build(prod)
    # first factor is transparent: (0,0) and (1,0), i.e. indices 0 and 2
    assert degenerate_sectors(md) == [0, 2]
    assert not md.nondegenerate


def test_tensor_product_of_nondegenerate_is_nondegenerate():
    prod = tensor_product(su2_model(2), zn_model(3, 2))
    md = build(prod)
    assert md.nondegenerate
    assert md.w == pytest.approx(su2_model(2).ring.global_index * 3.0, rel=1e-10)


def test_statistics_phase_values():
    spec = su2_model(6)
    assert spec.spins.h[6] == Fraction(1, 2)
    assert statistics_phase(spec.spins, 6) == pytest.approx(-1.0)
    assert statistics_phase(spec.spins, 0) == 1
    cur = sun_current_model(4, 6)
    assert cur.spins.h[2] == 0  # k j (n-j) / 2n = 3, reduced mod 1
    assert statistics_phase(cur.spins, 2) == pytest.approx(1.0)


def test_exact_weight_equality_at_level_16():
    spins = su2_model(16).spins
    assert spins.h[2] == spins.h[8] == spins.h[14] == Fraction(1, 9)


def test_matrix_relations_small_residuals():
    for spec in (su2_model(6), su2_model(16), zn_model(10, 9),
                  so8_level1_model(), so16_level1_model()):
        res = relation_residuals(build(spec))
        for key in ("omega_y", "st_cube", "s2_conj", "ct_commute", "tstst", "verlinde"):
            assert res[key] < 1e-8, (spec.name, key, res[key])


def test_vacuum_column_dominates():
    for spec in (su2_model(6), zn_model(12, 7), so8_level1_model()):
        S = build(spec).S
        col = S[:, 0].real
        assert col[0] > 0
        assert np.all(col >= col[0] - 1e-12)
        assert np.max(np.abs(S[:, 0].imag)) < 1e-12


def test_y_and_c_match_the_dense_slices():
    # Y sums the nonzeros of N by (lam, mu), in another order than the
    # dense slices N_lam (d / om): within a few ulps of max |Y|, and
    # exactly on the pointed models, whose cells each hold one term.
    eps = np.finfo(float).eps
    for name in catalog_names():
        md = build(model_by_name(name))
        N, om = dense(md.ring), np.diag(md.Omega)
        d_om = md.ring.d / om
        want = np.outer(om, om) * np.array([N_l @ d_om for N_l in N])
        if md.ring.is_current.all():
            assert np.array_equal(md.Y, want), name
        assert np.max(np.abs(md.Y - want)) <= 4 * eps * np.max(np.abs(want)), name
        assert md.C.dtype == np.dtype(int) and np.array_equal(md.C, N[:, :, 0]), name


@pytest.mark.parametrize("a, b", [("su2:4", "su2:4"), ("zn:6:1", "zn:6:1"), ("so8_1", "su2:3")])
def test_tensor_product_nonzeros_match_the_dense_einsum(a, b):
    ra, rb = model_by_name(a).ring, model_by_name(b).ring
    ma, mb = ra.size, rb.size
    N = np.einsum("ikp,jlq->ijklpq", dense(ra), dense(rb)).reshape((ma * mb,) * 3)
    cells = np.nonzero(N)
    got = tensor_product(model_by_name(a), model_by_name(b)).ring.nonzeros
    assert all(x.tobytes() == y.tobytes() for x, y in zip(got, (*cells, N[cells])))


def test_y_formula_restated_with_exact_phases():
    # S = S_00 sum_rho exp(2 pi i (h_l + h_m - h_r)) N_{l m}^r d_r
    spec = su2_model(6)
    md = build(spec)
    ring, h = spec.ring, spec.spins.h
    N = dense(ring)
    m = ring.size
    d = ring.d
    S2 = np.zeros((m, m), dtype=complex)
    for l in range(m):
        for mu in range(m):
            acc = 0
            for r in range(m):
                if N[l, mu, r]:
                    ph = cmath.exp(2j * math.pi * float(h[l] + h[mu] - h[r]))
                    acc += ph * N[l, mu, r] * d[r]
            S2[l, mu] = md.S[0, 0] * acc
    assert np.max(np.abs(S2 - md.S)) < 1e-8


def test_central_charge_mod_eight():
    for k in (1, 6, 16):
        md = build(su2_model(k))
        assert md.c == pytest.approx(3 * k / (k + 2), abs=1e-10)
    assert build(so8_level1_model()).c == pytest.approx(4.0, abs=1e-10)


def test_charge_conjugation_from_s_square():
    md = build(zn_model(5, 2))
    C = md.C
    expect = np.zeros((5, 5), dtype=int)
    for j in range(5):
        expect[j, (-j) % 5] = 1
    assert np.array_equal(C, expect)
    assert np.max(np.abs(md.S @ md.S - C)) < 1e-12


def test_spin_assignment_validation():
    ring = zn_model(5, 2).ring
    with pytest.raises(ValueError):
        # vacuum weight must vanish
        ModelSpec(ring, SpinAssignment([Fraction(1, 3)] + [Fraction(0)] * 4))
    with pytest.raises(ValueError):
        # conjugation must preserve weights: h_1 != h_4 here
        h = [Fraction(0), Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(4, 5)]
        ModelSpec(ring, SpinAssignment(h))
    with pytest.raises(ValueError):
        ModelSpec(ring, SpinAssignment([Fraction(0)] * 4))  # length mismatch


def test_weights_normalized_mod_one():
    s = SpinAssignment([Fraction(0), Fraction(7, 4), Fraction(-1, 4)])
    assert s.h[1] == Fraction(3, 4)
    assert s.h[2] == Fraction(3, 4)


def test_build_rejects_weights_breaking_omega_y():
    ring = zn_model(2, 1).ring
    md = build(ModelSpec(ring, SpinAssignment([Fraction(0), Fraction(1, 4)])))
    assert relation_residuals(md)["omega_y"] < 1e-12
    with pytest.raises(ValueError, match="Omega-Y residual"):
        build(ModelSpec(ring, SpinAssignment([Fraction(0), Fraction(1, 3)])))
