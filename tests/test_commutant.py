"""T-support, commutant basis, and complete invariant enumeration."""
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modinv import (
    brute_force_enumerate,
    build,
    commutant_basis,
    enumerate_invariants,
    is_invariant,
    so8_level1_model,
    su2_model,
    t_support,
    tensor_product,
    zn_model,
)
from modinv import commutant
from modinv.catalog import catalog_specs, model_by_name, zn_valid_weights
from modinv.commutant import support_cells


def d5_matrix():
    Z = np.zeros((7, 7), dtype=int)
    for j in (0, 2, 3, 4, 6):
        Z[j, j] = 1
    Z[1, 5] = Z[5, 1] = 1
    return Z


def d10_matrix():
    Z = np.zeros((17, 17), dtype=int)
    for a, b in [(0, 16), (2, 14), (4, 12), (6, 10)]:
        Z[np.ix_((a, b), (a, b))] = 1
    Z[8, 8] = 2
    return Z


def e7_matrix():
    Z = np.zeros((17, 17), dtype=int)
    for a, b in [(0, 16), (4, 12), (6, 10)]:
        Z[np.ix_((a, b), (a, b))] = 1
    Z[8, 8] = 1
    for x in (2, 14):
        Z[x, 8] = Z[8, x] = 1
    return Z


def sort_key(Z):
    return tuple(Z.ravel())


def test_t_support_level6():
    classes = t_support(su2_model(6).spins)
    assert sorted(sorted(c) for c in classes) == [[0], [1, 5], [2], [3], [4], [6]]


def test_t_support_level16_exceptional_class():
    classes = t_support(su2_model(16).spins)
    assert [2, 8, 14] in [sorted(c) for c in classes]


def test_t_support_z2():
    classes = t_support(zn_model(2, 1).spins)
    assert sorted(sorted(c) for c in classes) == [[0], [1]]


def test_support_cells_start_at_vacuum():
    cells = support_cells(su2_model(6).spins)
    assert cells[0] == (0, 0)
    assert set(cells) == {(0, 0), (1, 1), (1, 5), (5, 1), (5, 5), (2, 2),
                          (3, 3), (4, 4), (6, 6)}


def test_commutant_rank_su2_level6():
    basis = commutant_basis(build(su2_model(6)))
    assert basis.r == 2
    assert basis.kind == "modular"
    assert basis.exact


def test_commutant_rank_so8():
    md = build(so8_level1_model())
    basis = commutant_basis(md)
    # the six permutation invariants span the commutant, but they are not
    # independent (even and odd permutations share the same sum), so the
    # space is 5-dimensional: (3-1)^2 + 1 for the S_3 block plus nothing new
    assert basis.r == 5
    invs = enumerate_invariants(md)
    assert len(invs) == 6
    stack = np.stack([Z.ravel() for Z in invs]).astype(float)
    assert np.linalg.matrix_rank(stack) == 5
    # every invariant lies in the basis span
    B = basis.mats.reshape(basis.r, -1).T
    for Z in invs:
        coef, res, *_ = np.linalg.lstsq(B, Z.ravel().astype(float), rcond=None)
        assert np.max(np.abs(B @ coef - Z.ravel())) < 1e-9


def test_commutant_rank_zn10():
    basis = commutant_basis(build(zn_model(10, 9)))
    assert basis.r == 2


def test_enumerate_su2_level6_exact_matrices():
    invs = enumerate_invariants(build(su2_model(6)))
    expect = sorted([np.eye(7, dtype=int), d5_matrix()], key=sort_key)
    assert len(invs) == 2
    for got, want in zip(invs, expect):
        assert np.array_equal(got, want)


def test_enumerate_su2_level16_exact_matrices():
    invs = enumerate_invariants(build(su2_model(16)))
    expect = sorted([np.eye(17, dtype=int), d10_matrix(), e7_matrix()], key=sort_key)
    assert len(invs) == 3
    for got, want in zip(invs, expect):
        assert np.array_equal(got, want)


def test_enumerate_so8_six_permutations():
    invs = enumerate_invariants(build(so8_level1_model()))
    assert len(invs) == 6
    import itertools

    perms = []
    for p in itertools.permutations((1, 2, 3)):
        P = np.zeros((4, 4), dtype=int)
        P[0, 0] = 1
        for i, j in zip((1, 2, 3), p):
            P[i, j] = 1
        perms.append(P)
    perms.sort(key=sort_key)
    for got, want in zip(invs, perms):
        assert np.array_equal(got, want)


def test_enumerate_zn_divisor_count():
    # number of invariants = number of divisors of n-tilde
    assert len(enumerate_invariants(build(zn_model(3, 2)))) == 2
    assert len(enumerate_invariants(build(zn_model(4, 1)))) == 2
    assert len(enumerate_invariants(build(zn_model(10, 9)))) == 2
    assert len(enumerate_invariants(build(zn_model(12, 1)))) == 4  # 6 = 2*3


def test_brute_force_agreement_small():
    for spec in (su2_model(4), zn_model(5, 2), so8_level1_model()):
        md = build(spec)
        a = enumerate_invariants(md)
        b = brute_force_enumerate(md)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


def test_brute_force_su2_level4_shapes():
    invs = brute_force_enumerate(build(su2_model(4)))
    assert len(invs) == 2
    traces = sorted(int(np.trace(Z)) for Z in invs)
    assert traces == [4, 5]  # D_4 and A_5


def test_identity_and_conjugation_always_appear():
    for spec in (su2_model(7), zn_model(5, 2), zn_model(8, 3), so8_level1_model()):
        md = build(spec)
        invs = enumerate_invariants(md)
        m = spec.ring.size
        assert any(np.array_equal(Z, np.eye(m, dtype=int)) for Z in invs)
        ok, _ = is_invariant(md, md.C)
        assert ok
        assert any(np.array_equal(Z, md.C) for Z in invs)


def test_is_invariant_paper_matrices():
    md = build(su2_model(6))
    ok, rep = is_invariant(md, np.eye(7, dtype=int))
    assert ok and rep["kind"] == "modular"
    ok, _ = is_invariant(md, d5_matrix())
    assert ok
    bad = d5_matrix()
    bad[1, 5] = 2
    ok, rep = is_invariant(md, bad)
    assert not ok


def test_is_invariant_shape_guard():
    md = build(su2_model(6))
    with pytest.raises(ValueError):
        is_invariant(md, np.eye(5, dtype=int))


def test_enumerated_support_is_exact_on_weights():
    spec = su2_model(16)
    md = build(spec)
    h = spec.spins.h
    for Z in enumerate_invariants(md):
        for l, mu in np.argwhere(Z != 0):
            assert h[int(l)] == h[int(mu)]  # exact Fraction equality


def test_enumeration_is_sorted():
    invs = enumerate_invariants(build(su2_model(16)))
    keys = [sort_key(Z) for Z in invs]
    assert keys == sorted(keys)


def test_degenerate_model_enumerates_against_y():
    # Z_2 with h = 1/2 has vanishing Gauss sum; the Y-commutant branch runs
    from modinv import ModelSpec, SpinAssignment

    ring = zn_model(2, 1).ring
    md = build(ModelSpec(ring, SpinAssignment([Fraction(0), Fraction(1, 2)]), name="z2h"))
    assert not md.nondegenerate
    basis = commutant_basis(md)
    assert basis.kind == "Y-commutant"
    invs = enumerate_invariants(md)
    assert any(np.array_equal(Z, np.eye(2, dtype=int)) for Z in invs)
    ref = brute_force_enumerate(md)
    assert len(invs) == len(ref)
    for x, y in zip(invs, ref):
        assert np.array_equal(x, y)


def test_node_cap_guards(monkeypatch):
    md = build(su2_model(6))
    monkeypatch.setattr(commutant, "NODE_CAP", 1)
    with pytest.raises(RuntimeError):
        enumerate_invariants(md)
    monkeypatch.setattr(commutant, "BRUTE_NODE_CAP", 2)
    with pytest.raises(RuntimeError):
        brute_force_enumerate(md)


def test_exact_rows_reproduce_float_basis():
    for spec in catalog_specs(28, 24):
        basis = commutant_basis(build(spec))
        assert basis.exact, spec.name
        m = spec.ring.size
        mats = np.zeros((basis.r, m, m))
        for c, (l, mu) in enumerate(basis.cells):
            mats[:, l, mu] = basis.num[:, c] / basis.den
        assert np.array_equal(mats, basis.mats), spec.name


def test_inexact_basis_is_refused(monkeypatch):
    md = build(su2_model(16))
    monkeypatch.setattr(commutant, "EXACT_TOL", -1.0)
    with pytest.raises(RuntimeError, match="commutation recheck"):
        commutant_basis(md)
    monkeypatch.undo()
    monkeypatch.setattr(commutant, "_rationalize", lambda R: None)
    with pytest.raises(RuntimeError, match="rationalization"):
        commutant_basis(md)


def test_exact_recheck_refuses_int64_overflow():
    md = build(su2_model(6))
    basis = commutant_basis(md)
    big = 2 ** 40
    basis.num, basis.den = basis.num * big, basis.den * big
    with pytest.raises(RuntimeError, match="int64"):
        enumerate_invariants(md, basis=basis)


def commutation_matrix(K, cells):
    """Columns flatten K E_c - E_c K for the unit matrix of each cell."""
    m = K.shape[0]
    A = np.zeros((m * m, len(cells)), dtype=complex)
    for c, (l, mu) in enumerate(cells):
        col = np.zeros((m, m), dtype=complex)
        col[:, mu] += K[:, l]
        col[l, :] -= K[mu, :]
        A[:, c] = col.ravel()
    return A


def operator_and_cells(md):
    K, _, _ = commutant._operator(md)
    return K, support_cells(md.spins)


@pytest.mark.parametrize("name", ["su2:16", "zn:96:1", "so8_1", "su2:4*su2:4",
                                  "sun_currents:6:3"])
def test_gram_matches_explicit_product(name):
    md = build(model_by_name(name))
    K, cells = operator_and_cells(md)
    A = commutation_matrix(K, cells)
    G = commutant._gram(K, cells)
    assert np.max(np.abs(G - (A.conj().T @ A).real)) < 1e-10


@pytest.mark.parametrize("a, b, den, count", [("su2:4", "su2:4", 2, 13),
                                              ("zn:6:1", "zn:6:1", 1, 16)])
def test_product_lists_contain_the_factor_products(a, b, den, count):
    # su2:4*su2:4 is the one model known to scan with den = 2; brute force
    # cannot reach it, so the product property pins that path.
    md = build(model_by_name(f"{a}*{b}"))
    assert commutant_basis(md).den == den
    invs = enumerate_invariants(md)
    assert len(invs) == count
    keys = {sort_key(Z) for Z in invs}
    for X in enumerate_invariants(build(model_by_name(a))):
        for Y in enumerate_invariants(build(model_by_name(b))):
            assert sort_key(np.kron(X, Y)) in keys


def test_basis_rank_matches_svd_on_catalog():
    for spec in catalog_specs(28, 24):
        md = build(spec)
        K, cells = operator_and_cells(md)
        A = commutation_matrix(K, cells)
        s = np.linalg.svd(np.vstack([A.real, A.imag]), compute_uv=False)
        rank = int(np.sum(s < commutant.RANK_TOL * max(s[0], 1.0)))
        assert commutant_basis(md).r == rank, spec.name


def test_basis_and_scan_memory_zn128():
    md = build(zn_model(128, 1))
    tracemalloc.start()
    try:
        invs = enumerate_invariants(md, basis=commutant_basis(md))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert invs
    assert peak < 100 * 2 ** 20


BRUTE_SPACE = 10 ** 5


def brute_space(spec):
    """Number of assignments brute_force_enumerate walks, before pruning."""
    d = spec.ring.d
    total = 1
    for l, mu in support_cells(spec.spins)[1:]:
        total *= int(math.floor(d[l] * d[mu] + 1e-9)) + 1
    return total


@st.composite
def small_zn(draw, n_max):
    n = draw(st.integers(2, n_max))
    return zn_model(n, draw(st.sampled_from(zn_valid_weights(n))))


def small_su2(k_max):
    return st.integers(1, k_max).map(su2_model)


small_specs = st.one_of(
    small_su2(5),
    small_zn(8),
    st.builds(tensor_product, st.one_of(small_su2(3), small_zn(4)),
              st.one_of(small_su2(3), small_zn(4))),
)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(small_specs)
def test_enumeration_matches_brute_force(spec):
    assume(brute_space(spec) <= BRUTE_SPACE)
    md = build(spec)
    got = enumerate_invariants(md)
    want = brute_force_enumerate(md)
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
