"""T-support, commutant basis, and complete invariant enumeration."""
import dataclasses
import hashlib
import math
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

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
from modinv.catalog import catalog_names, model_by_name, zn_valid_weights
from modinv.cli import main
from modinv.commutant import support_cells
from brute_reference import brute_force_reference
from product_scan import product_scan_enumerate
from report_loops import report_models
from rref_loop import rref_loop
from s_basis import gram, s_commutant_basis


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
    B = commutant._scatter(basis.num / basis.den, basis.cells, 4).reshape(basis.r, -1).T
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


def test_node_cap_guards(monkeypatch, capsys):
    # NODE_CAP caps the frontier rows the search expands, i.e. its work;
    # the CLI reports the refusal as one error line with exit 2.
    md = build(su2_model(6))
    monkeypatch.setattr(commutant, "NODE_CAP", 1)
    with pytest.raises(RuntimeError, match="frontier search exceeds"):
        enumerate_invariants(md)
    assert main(["enumerate", "su2:6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: frontier search exceeds") and err.count("\n") == 1
    monkeypatch.setattr(commutant, "BRUTE_NODE_CAP", 2)
    with pytest.raises(RuntimeError):
        brute_force_enumerate(md)


def test_exact_rows_reproduce_float_basis(monkeypatch):
    # num / den is within 1e-9 of the float echelon rows it was snapped
    # from, and residual holds ||Y B_i - B_i Y|| of each exact row B_i.
    echelons = []
    rref = commutant._rref
    monkeypatch.setattr(commutant, "_rref",
                        lambda null: echelons.append(rref(null)) or echelons[-1])
    for name in catalog_names():
        spec = model_by_name(name)
        md = build(spec)
        echelons.clear()
        basis = commutant_basis(md)
        assert basis.exact, spec.name
        assert basis.residual.shape == (basis.r,), spec.name
        if not basis.r:
            continue
        assert np.abs(basis.num / basis.den - echelons[0][0]).max() <= 1e-9, spec.name
        m, Y = spec.ring.size, md.Y
        for row, r in zip(basis.num, basis.residual):
            B = np.zeros((m, m))
            for c, (l, mu) in enumerate(basis.cells):
                B[l, mu] = row[c] / basis.den
            direct = np.linalg.norm(Y @ B - B @ Y)
            assert abs(r - direct) <= 1e-12 * np.linalg.norm(Y), spec.name
            assert r <= commutant.EXACT_TOL * np.linalg.norm(Y), spec.name


def test_y_basis_equals_the_s_basis_on_nondegenerate_models():
    # S = Y / |z|: the S-commutant path with its own recheck gives the
    # same exact rows and pivots as the one Y path.
    # The reference takes the full-cell Gram of S, so it also checks the
    # Galois orbit reduction the package applies to nondegenerate data.
    names = catalog_names() + ["sun_currents:12:2", "sun_currents:8:4",
                               "su2:4*su2:4", "zn:6:1*zn:6:1", "zn:96:1", "zn:128:1",
                               "su2:8*su2:8", "su2:6*su2:10"]
    seen = 0
    for name in names:
        md = build(model_by_name(name))
        if not md.nondegenerate:
            continue
        seen += 1
        basis = commutant_basis(md)
        num, den, pivot_cells = s_commutant_basis(md)
        assert basis.kind == "modular", name
        assert (basis.num.dtype, basis.num.shape, basis.num.tobytes(), basis.den,
                basis.pivot_cells) == (num.dtype, num.shape, num.tobytes(), den,
                                       pivot_cells), name
    assert seen == 279  # all but the two sun_currents models


def unit_group_closure(gens, n):
    """The subgroup of (Z/n)^x that gens generate."""
    seen, todo = {1 % n}, [1 % n]
    while todo:
        x = todo.pop()
        for g in gens:
            if (y := x * g % n) not in seen:
                seen.add(y)
                todo.append(y)
    return seen


def galois_matrix(md, l, n):
    """G_l = Omega^l S Omega^l' S Omega^l S^-1, from the exact weights."""
    def omega(k):
        return np.diag([np.exp(2j * np.pi * float(h * k % 1)) for h in md.spins.h])
    S = md.S
    return omega(l) @ S @ omega(pow(l, -1, n)) @ S @ omega(l) @ np.linalg.inv(S)


def test_galois_actions_tie_every_basis_row_and_invariant():
    # For every generator l of (Z/n)^x, n = ord(Omega), G_l is one phase
    # times the signed permutation (pi, eps) the package reads, and every
    # exact basis row and every enumerated Z obeys the tie
    # Z[pi a, pi b] = eps_a eps_b Z[a, b] exactly, in integers.
    seen = 0
    for name, md, invs in report_models():
        if not md.nondegenerate:
            continue
        seen += 1
        n = math.lcm(*(h.denominator for h in md.spins.h))
        gens = commutant._unit_generators(n)
        assert unit_group_closure(gens, n) == {x for x in range(n) if math.gcd(x, n) == 1}
        ls, pi, eps = commutant._galois_actions(md)
        assert ls.tolist() == gens, name  # no generator is left out
        basis = commutant_basis(md)
        index = {cell: i for i, cell in enumerate(basis.cells)}
        for l, p, e in zip(ls.tolist(), pi, eps):
            G = galois_matrix(md, l, n)
            P = np.zeros_like(G)
            P[p, np.arange(len(p))] = G[p[0], 0] * e
            assert np.abs(G - P).max() < 1e-8, (name, l)
            image = [index[(p[a], p[b])] for a, b in basis.cells]
            sign = np.array([e[a] * e[b] for a, b in basis.cells])
            assert np.array_equal(basis.num[:, image], basis.num * sign), (name, l)
            for Z in invs:
                assert np.array_equal(Z[np.ix_(p, p)], np.outer(e, e) * Z), (name, l)
    assert seen == 277


def test_weights_beyond_the_galois_bound_keep_every_cell_an_unknown():
    # A weight off by 2^-40 still passes the float Omega-Y check, but
    # ord(Omega) is then beyond GALOIS_MAX_N: no action is read, each cell
    # is its own orbit, and the basis is that of the exact weights.
    from modinv import ModelSpec, SpinAssignment

    spec = su2_model(3)
    h = list(spec.spins.h)
    h[1] += Fraction(1, 2 ** 40)
    md = build(ModelSpec(spec.ring, SpinAssignment(h), name="near"))
    assert md.nondegenerate
    assert commutant._galois_actions(md)[0].size == 0
    cells = support_cells(md.spins)
    l, mu = np.array(cells).T
    order, orbit, v = commutant._orbits(md, l, mu)
    assert order.tolist() == orbit.tolist() == list(range(len(cells))) and (v == 1).all()
    got, want = commutant_basis(md), commutant_basis(build(spec))
    assert (got.num.tobytes(), got.den, got.pivot_cells) == \
        (want.num.tobytes(), want.den, want.pivot_cells)


@pytest.mark.parametrize("name, unknowns", [("zn:128:1", 44), ("su2:10*su2:10", 265),
                                            ("sun_currents:12:2", 40)])
def test_basis_eigh_runs_on_the_orbit_unknowns(name, unknowns):
    # One orbit Gram and one eigh on the Galois orbit unknowns, for
    # degenerate data too: they read no action, so every cell is an unknown.
    md = build(model_by_name(name))
    with mock.patch.object(np.linalg, "eigh", side_effect=np.linalg.eigh) as eigh, \
            mock.patch.object(commutant, "_orbit_gram",
                              side_effect=commutant._orbit_gram) as orbit_gram:
        basis = commutant_basis(md)
    assert [call.args[0].shape for call in eigh.call_args_list] == [(unknowns, unknowns)]
    assert orbit_gram.call_count == 1
    if not md.nondegenerate:
        assert unknowns == len(basis.cells)


def test_inexact_basis_is_refused(monkeypatch):
    md = build(su2_model(16))
    monkeypatch.setattr(commutant, "EXACT_TOL", -1.0)
    with pytest.raises(RuntimeError, match="commutation recheck"):
        commutant_basis(md)
    monkeypatch.undo()
    monkeypatch.setattr(commutant, "_rationalize", lambda R: None)
    with pytest.raises(RuntimeError, match="rationalization"):
        commutant_basis(md)


def per_entry_rationalize(R):
    """Reference for commutant._rationalize: the same two-cap decision
    and int64 guard, made on every entry of R in turn."""
    fracs = []
    for x in R.ravel().tolist():
        f = Fraction(x).limit_denominator(10 ** 4)
        if f != Fraction(x).limit_denominator(commutant.MAX_DEN) or abs(float(f) - x) > 1e-9:
            return None
        fracs.append(f)
    den = math.lcm(*(f.denominator for f in fracs))
    ints = [f.numerator * (den // f.denominator) for f in fracs]
    if max(den, *map(abs, ints)) > commutant.INT64_MAX:
        return None
    return np.array(ints, dtype=np.int64).reshape(R.shape), den


def same_rationalization(got, want):
    if got is None or want is None:
        return got is None and want is None
    return (got[0].dtype == want[0].dtype and got[0].shape == want[0].shape
            and np.array_equal(got[0], want[0]) and got[1] == want[1])


def test_rationalize_matches_the_per_entry_reference_on_the_catalog(monkeypatch):
    rows = []
    rationalize = commutant._rationalize
    monkeypatch.setattr(commutant, "_rationalize", lambda R: rows.append(R) or rationalize(R))
    for name in catalog_names():
        commutant_basis(build(model_by_name(name)))
    assert len(rows) == 273
    for R in rows:
        assert same_rationalization(rationalize(R), per_entry_rationalize(R))


@pytest.mark.parametrize("R, accepted", [
    (np.array([[1.0, 0.5, math.sqrt(2)]]), False),  # irrational
    # within 1e-10 of 1/9973, but exact with denominator 997301: the caps disagree
    (np.array([[1.0, 100 / 997301]]), False),
    (np.array([[1.0, 0.0, 2.0 ** 63]]), False),  # integral, beyond int64
    (np.array([[1.0, -0.0, 0.5, 1 / 3], [0.0, 1 / 3, -0.5, 0.5]]), True),
    (np.array([[1.0, 0.0, -0.0, 0.25], [0.0, 1.0, 0.25, -0.0]]), True),
    # "near": accepted as n/q within 1e-9, not equal to R.  The snap takes
    # |x q - n| < q 1e-12, so n/q +- 0.99e-12 is snapped and n/q +- 1.01e-12
    # is left to the two caps, for q = 1, 2 and 12; q = 13 is never snapped.
    (np.array([[1.0, 3 + 0.99e-12, 3 - 0.99e-12]]), "near"),
    (np.array([[1.0, 3 + 1.01e-12, 3 - 1.01e-12]]), "near"),
    (np.array([[1.0, -2.5 + 0.99e-12, -2.5 - 0.99e-12]]), "near"),
    (np.array([[1.0, -2.5 + 1.01e-12, -2.5 - 1.01e-12]]), "near"),
    (np.array([[1.0, 7 / 12 + 0.99e-12, 7 / 12 - 0.99e-12]]), "near"),
    (np.array([[1.0, 7 / 12 + 1.01e-12, 7 / 12 - 1.01e-12]]), "near"),
    (np.array([[1.0, 5 / 13 + 0.99e-12, 5 / 13 - 0.99e-12]]), "near"),
    (np.array([[1.0, 5 / 13 + 1.01e-12, 5 / 13 - 1.01e-12]]), "near"),
    (np.array([[1.0, 0.5 + 3e-13, -0.0]]), "near"),
    # |x| < 2^16 is snapped, |x| >= 2^16 goes to the caps
    (np.array([[1.0, 65535.5, -65535.75]]), True),
    (np.array([[1.0, 65536.0, -65536.5]]), True),
    (np.array([[1.0, np.nextafter(65535.5, 0.0)]]), "near"),  # one ulp: not snapped
    # fl(3 x) is an integer, yet the caps refuse x: why large values are not snapped
    (np.array([[1.0, 2.0 ** 33 + 1 / 3]]), False),
    # first snapped at 3/9 (q = 3 just misses it): den 3, not 9
    (np.array([[1.0, 0.33333333333433335]]), "near"),
    # left to the caps
    (np.array([[1.0, 1 / 9999, 355 / 113]]), True),
    (np.array([[1.0, 1 / 7 + 1e-11]]), "near"),
    # the int64 guard over snapped and capped values together
    (np.array([[0.5, 2.0 ** 61]]), True),
    (np.array([[0.5, 2.0 ** 62]]), False),
    (np.array([[1.0, 1 / 9973, 1 / 9967, 1 / 9949, 1 / 9941, 1 / 9931]]), False),  # lcm
])
def test_rationalize_matches_the_per_entry_reference_on_crafted_rows(R, accepted):
    got = commutant._rationalize(R)
    assert same_rationalization(got, per_entry_rationalize(R))
    assert (got is not None) == bool(accepted)
    if accepted:
        num, den = got
        if accepted is True:
            assert np.array_equal(num / den, R)
        else:
            assert 0 < np.abs(num / den - R).max() <= 1e-9


def near_fractions():
    """p/q + eps with q <= 10^4 and |eps| <= 1e-8, often exact or within
    the snap tolerance, and -0.0."""
    q = st.one_of(st.integers(1, 13), st.integers(1, 10 ** 4))
    eps = st.one_of(st.just(0.0), st.floats(-2e-12, 2e-12), st.floats(-1e-8, 1e-8))
    near = st.builds(lambda p, q, e: p / q + e, st.integers(-10 ** 5, 10 ** 5), q, eps)
    return st.one_of(near, st.just(-0.0))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(near_fractions(), min_size=1, max_size=6))
def test_rationalize_matches_the_per_entry_reference_near_small_fractions(row):
    R = np.array([row, row[::-1]])
    assert same_rationalization(commutant._rationalize(R), per_entry_rationalize(R))
    for x in row:
        R = np.array([[1.0, x]])
        assert same_rationalization(commutant._rationalize(R), per_entry_rationalize(R))


def test_catalog_bases_never_reach_the_two_cap_reconstruction():
    with mock.patch.object(Fraction, "limit_denominator", autospec=True,
                           side_effect=Fraction.limit_denominator) as calls:
        for _, md, _ in report_models()[:273]:
            commutant_basis(md)
        assert calls.call_count == 0
        assert commutant._rationalize(np.array([[1.0, 100 / 997301]])) is None
        assert calls.call_count == 2


def test_rref_matches_the_row_by_row_loop_on_the_gram_nullspaces():
    nullspaces = []
    rref = commutant._rref
    with mock.patch.object(commutant, "_rref",
                           side_effect=lambda rows: nullspaces.append(rows) or rref(rows)):
        for _, md, _ in report_models():
            commutant_basis(md)
    assert len(nullspaces) == 279
    rng = np.random.default_rng(0)
    # rank 3 in 4 rows: some columns hold no pivot and a zero row is dropped
    nullspaces += [rng.standard_normal((4, 3)) @ rng.integers(-2, 3, (3, 9)).astype(float)
                   for _ in range(20)]
    for rows in nullspaces:
        got, want = rref(rows), rref_loop(rows)
        assert got[1] == want[1]
        assert (got[0].dtype, got[0].shape, got[0].tobytes()) == \
            (want[0].dtype, want[0].shape, want[0].tobytes())


def test_scan_rejects_a_basis_that_is_not_integral_over_den():
    # Halving a real basis puts 1/2 on the vacuum cell of every candidate:
    # the remainder filter of N / den alone keeps them out of the list, as
    # no commutation check runs per candidate.
    md = build(su2_model(4))
    half = dataclasses.replace(commutant_basis(md), den=2)
    assert enumerate_invariants(md, basis=half) == []


def test_a_basis_cannot_be_edited_after_it_is_certified():
    # Its residuals certify num / den, so neither may change in place.
    basis = commutant_basis(build(su2_model(6)))
    with pytest.raises(ValueError, match="read-only"):
        basis.num[1] = 0
    with pytest.raises(ValueError, match="read-only"):
        basis.residual[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        basis.den = 3


def test_exact_recheck_refuses_int64_overflow():
    md = build(su2_model(6))
    basis = commutant_basis(md)
    big = 2 ** 40
    basis = dataclasses.replace(basis, num=basis.num * big, den=basis.den * big)
    with pytest.raises(RuntimeError, match="int64"):
        enumerate_invariants(md, basis=basis)


def test_frontier_refuses_an_int64_overflow_through_the_row_sum():
    # Scaled so that the product scan's guard (1 + sum b_i) max|num| den
    # holds with room 8: every partial sum on a cell fits in int64 with
    # room to spare, but the row sums of su2:24 (up to 12.5 times larger)
    # do not fit.
    md = build(su2_model(24))
    basis = commutant_basis(md)
    d = md.ring.d
    b = [1] + [int(math.floor(d[l] * d[mu] + 1e-9)) for l, mu in basis.pivot_cells[1:]]
    rows = basis.num.tolist()
    big = commutant.INT64_MAX // (8 * sum(b) * int(np.abs(basis.num).max()) * basis.den)
    cells = [sum(bj * abs(row[c]) for bj, row in zip(b, rows)) for c in range(len(rows[0]))]
    assert 8 * max(cells) * big <= commutant.INT64_MAX
    assert max(abs(sum(row)) for row in rows) * big > commutant.INT64_MAX
    basis = dataclasses.replace(basis, num=basis.num * big)
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
    G = gram(K, cells)
    assert np.max(np.abs(G - (A.conj().T @ A).real)) < 1e-10


@pytest.mark.parametrize("name", ["su2:16", "su2:28", "zn:96:1", "so8_1", "su2:4*su2:4",
                                  "su2:6*su2:10", "sun_currents:6:3"])
def test_orbit_gram_is_the_gram_on_the_orbit_vectors(name):
    # V has one unit-norm column per Galois orbit; the pairs sum gives
    # V^T G V for the full-cell Gram G, which it never forms.  Degenerate
    # data (sun_currents:6:3) have V = I.
    md = build(model_by_name(name))
    K, cells = operator_and_cells(md)
    l, mu = np.array(cells).T
    order, orbit, v = commutant._orbits(md, l, mu)
    V = np.zeros((len(cells), orbit.max() + 1))
    V[np.arange(len(cells)), orbit] = v
    assert np.allclose(V.T @ V, np.eye(V.shape[1]), atol=1e-14)
    assert sorted(order.tolist()) == np.flatnonzero(v).tolist()
    G = gram(K, cells)
    got = commutant._orbit_gram(K, l, mu, order, orbit, v)
    assert np.abs(got - V.T @ G @ V).max() < 1e-12 * np.abs(G).max()


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
    for name in catalog_names():
        md = build(model_by_name(name))
        K, cells = operator_and_cells(md)
        A = commutation_matrix(K, cells)
        s = np.linalg.svd(np.vstack([A.real, A.imag]), compute_uv=False)
        rank = int(np.sum(s < commutant.RANK_TOL * max(s[0], 1.0)))
        assert commutant_basis(md).r == rank, name


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


def same_bytes(got, want):
    """The two lists hold the same arrays: dtype, shape and bytes."""
    return len(got) == len(want) and all(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(got, want))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(small_specs)
def test_brute_force_matches_recursive_reference(spec):
    # The whole-array frontier returns exactly the recursive walk's list.
    assume(brute_space(spec) <= BRUTE_SPACE)
    md = build(spec)
    assert same_bytes(brute_force_enumerate(md), brute_force_reference(md))


def test_brute_force_matches_enumeration_on_catalog():
    # Every catalog model whose brute-force box is at most 2^17 points.
    names = [n for n in catalog_names() if brute_space(model_by_name(n)) <= 2 ** 17]
    assert len(names) == 48
    for name in names:
        md = build(model_by_name(name))
        assert same_bytes(brute_force_enumerate(md), enumerate_invariants(md)), name


def test_brute_force_memory_zn9():
    # Blocks of about 512 rows keep the frontier small on a 2^20 box.
    spec = zn_model(9, 2)
    assert brute_space(spec) == 2 ** 20
    md = build(spec)
    tracemalloc.start()
    try:
        invs = brute_force_enumerate(md)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert same_bytes(invs, enumerate_invariants(md))
    assert peak < 8 * 2 ** 20


def scan_space(md, basis):
    """Size of the pivot box (the PF ranges of the pivots), which bounds
    the work of enumerate_invariants."""
    d = md.ring.d
    return math.prod(int(math.floor(d[l] * d[mu] + 1e-9)) + 1
                     for l, mu in basis.pivot_cells[1:])


def assert_symmetric_list(md, invs, factors=()):
    """The list holds the identity, is closed under Z -> Z^T and Z -> CZ,
    and, for a product, holds kron(X, Y) of every pair of factor invariants."""
    keys = {sort_key(Z) for Z in invs}
    assert sort_key(np.eye(md.ring.size, dtype=int)) in keys
    for Z in invs:
        assert sort_key(Z.T) in keys
        assert sort_key(md.C @ Z) in keys
    if factors:
        a, b = (enumerate_invariants(build(f)) for f in factors)
        for X in a:
            for Y in b:
                assert sort_key(np.kron(X, Y)) in keys


factor_pairs = st.tuples(st.one_of(small_su2(4), small_zn(6)),
                         st.one_of(small_su2(4), small_zn(6)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(small_su2(10).map(lambda s: (s,)), small_zn(12).map(lambda s: (s,)),
                 factor_pairs))
def test_enumerated_lists_hold_the_identity_symmetries_and_products(factors):
    spec = factors[0] if len(factors) == 1 else tensor_product(*factors)
    md = build(spec)
    assume(md.nondegenerate)
    basis = commutant_basis(md)
    assume(scan_space(md, basis) <= 10 ** 5)
    invs = enumerate_invariants(md, basis=basis)
    assert_symmetric_list(md, invs, factors if len(factors) == 2 else ())


@pytest.mark.parametrize("name", ["sun_currents:4:2", "sun_currents:5:5",
                                  "sun_currents:6:3", "sun_currents:10:4",
                                  "sun_currents:4:2*zn:3:2",
                                  "sun_currents:3:3*sun_currents:2:2"])
def test_y_commutant_lists_hold_the_same_symmetries(name):
    # Y is symmetric and C Y C = Y, so the Y-commutant is closed under
    # Z -> Z^T and Z -> CZ as the S-commutant is.
    md = build(model_by_name(name))
    assert not md.nondegenerate
    factors = [model_by_name(f) for f in name.split("*")] if "*" in name else ()
    assert_symmetric_list(md, enumerate_invariants(md), factors)


def list_bytes(invs):
    return [(Z.dtype.str, Z.shape, Z.tobytes()) for Z in invs]


def test_frontier_matches_the_product_scan_on_the_catalog_and_dense_models():
    names = catalog_names() + ["sun_currents:12:2", "sun_currents:8:4",
                               "su2:4*su2:4", "zn:6:1*zn:6:1"]
    assert len(names) == 277
    digest = hashlib.sha256()
    for name in names:
        md = build(model_by_name(name))
        basis = commutant_basis(md)
        got = enumerate_invariants(md, basis=basis)
        assert list_bytes(got) == list_bytes(product_scan_enumerate(md, basis)), name
        digest.update(name.encode())
        for Z in got:
            digest.update(f"{Z.dtype.str}{Z.shape}".encode() + Z.tobytes())
    # Pins every list byte for byte, so list drift fails here.
    assert digest.hexdigest() == \
        "090304e488609b00053d68df504fd4c94e9781dbf2a0908dbd53c7aad1b2e457"


def test_bases_are_pinned_byte_for_byte_on_the_catalog_and_workload_models():
    # The residuals are left out: their last bits follow the GEMM order,
    # and test_exact_rows_reproduce_float_basis bounds them.
    digest = hashlib.sha256()
    for name, md, _ in report_models():
        basis = commutant_basis(md)
        digest.update(f"{name}|{basis.kind}|{basis.cells}|{basis.pivot_cells}|"
                      f"{basis.den}|{basis.num.dtype.str}{basis.num.shape}".encode())
        digest.update(basis.num.tobytes())
    assert digest.hexdigest() == \
        "98f0d80a805a8762631ac3cf722b7262aa8bcbd0595c3bc5e0e810105df29c34"


@pytest.mark.parametrize("name, count, den, seconds, megabytes", [
    ("su2:8*su2:8", 13, 2, 5, 32),
    ("sun_currents:6:3*su2:1", 864, 1, 5, 32),
    ("su2:10*su2:10", 27, 1, 20, 160),
    ("sun_currents:24:2", 8192, 1, 20, 150),
])
def test_frontier_finishes_models_beyond_the_product_scan(name, count, den, seconds,
                                                          megabytes):
    # Pivot boxes of 1.8e8, 3.4e7, 1.2e24 and 8.6e9 candidates.
    md = build(model_by_name(name))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        basis = commutant_basis(md)
        invs = enumerate_invariants(md, basis=basis)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(invs), basis.den) == (count, den)
    assert elapsed < seconds and peak < megabytes * 2 ** 20, (elapsed, peak)
    if "*" in name:
        assert_symmetric_list(md, invs, [model_by_name(f) for f in name.split("*")])
