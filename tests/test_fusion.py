"""Fusion ring axioms, quantum dimensions and simple currents."""
import functools
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modinv import build, enumerate_invariants, su2_model, zn_model, so8_level1_model, verify_axioms
from modinv import fusion
from modinv.catalog import catalog_names, model_by_name, sun_current_model
from modinv.classify import permutation_test
from modinv.extensions import rehren_admissible
from modinv.fusion import DIM_TOL, FusionRing, quantum_dimensions, simple_currents
from modinv.modular import tensor_product, verlinde_check

from report_loops import report_models, rehren_admissible_loop, simple_currents_loop
from test_commutant import small_su2, small_zn
from assoc_reference import associativity_failures
from dense import dense, ring_from_dense


def test_su2_ring_axioms_clean():
    assert verify_axioms(su2_model(6).ring) == []


def test_injected_identity_violation_is_reported():
    ring = su2_model(6).ring
    N = dense(ring)
    N[0, 1, 2] = 1  # identity no longer acts trivially
    broken = ring_from_dense(ring.names, N)
    report = verify_axioms(broken)
    assert report
    assert any("identity" in line for line in report)
    assert any("(0, 1, 2)" in line for line in report)


def test_zn_ring_axioms_clean():
    assert verify_axioms(zn_model(5, 2).ring) == []


def test_vacuum_dimension_is_one():
    for spec in (su2_model(3), zn_model(7, 2), so8_level1_model()):
        assert spec.ring.d[0] == pytest.approx(1.0, abs=1e-12)


def test_su2_level2_dimension():
    d = su2_model(2).ring.d
    assert d[1] == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_su2_level6_dimension_closed_form():
    d = su2_model(6).ring.d
    assert d[1] == pytest.approx(2 * math.cos(math.pi / 8), abs=1e-9)
    # full column: d_j = sin((j+1)pi/8)/sin(pi/8)
    for j in range(7):
        ref = math.sin((j + 1) * math.pi / 8) / math.sin(math.pi / 8)
        assert d[j] == pytest.approx(ref, abs=1e-9)


def test_dimension_residual_tolerance():
    for spec in (su2_model(6), su2_model(16), zn_model(10, 9), so8_level1_model()):
        ring = spec.ring
        d = ring.d
        resid = np.max(np.abs(np.outer(d, d) - dense(ring) @ d))
        assert resid < 1e-9


def su2_truncation_holds(k, lam, mu, nu, val):
    """Whether the label triples and values are exactly the su(2)_k fusion
    rule, given distinct triples: N_{ab}^c = 1 exactly when a + b + c = 2s
    is even, each of a, b, c is at most s, and s <= k.  With x = s - a,
    y = s - b, z = s - c these triples are the (x, y, z) >= 0 with
    x + y + z <= k, C(k + 3, 3) of them: distinct admissible triples that
    many are all of them."""
    lam, mu, nu = (a.astype(np.int16) for a in (lam, mu, nu))
    s2 = lam + mu + nu
    slack = s2 - 2 * np.maximum(np.maximum(lam, mu), nu)
    return (len(val) == math.comb(k + 3, 3) and not (s2 & 1).any() and slack.min() >= 0
            and s2.max() <= 2 * k and (val == 1).all())


def test_su2_tensor_matches_truncation_rule():
    # At every level up to the 256-label limit, the nonzeros are distinct,
    # in C order, and exactly the admissible triples, each with value 1.
    for k in range(1, 256):
        ring = su2_model(k).ring
        assert all(a.dtype == np.dtype(int) for a in ring.nonzeros)
        assert (np.diff(ring.flat) > 0).all(), k
        assert su2_truncation_holds(k, *ring.nonzeros), k


def test_fusion_matrix_of_vacuum_is_identity():
    ring = su2_model(6).ring
    assert np.array_equal(dense(ring)[0], np.eye(7, dtype=int))


def test_fusion_matrix_of_generator_is_path():
    A = dense(su2_model(6).ring)[1]
    expect = np.zeros((7, 7), dtype=int)
    for i in range(6):
        expect[i, i + 1] = expect[i + 1, i] = 1
    assert np.array_equal(A, expect)


def test_fusion_matrix_cyclic_shift():
    A = dense(zn_model(4, 1).ring)[1]
    expect = np.zeros((4, 4), dtype=int)
    for j in range(4):
        expect[j, (j + 1) % 4] = 1
    assert np.array_equal(A, expect)


def test_fusion_matrix_bad_label():
    # A ring holds nonzeros on its own labels only: FusionRing refuses a
    # label past the ring, triples out of C order or repeated, and a zero
    # value; the arrays it holds are read-only.
    ring = su2_model(4).ring
    lam, mu, nu, val = ring.nonzeros
    assert ring.size == 5 and lam.max() == mu.max() == nu.max() == 4
    for bad in ((*(np.append(x, 9) for x in (lam, mu, nu)), np.append(val, 1)),
                (lam[::-1], mu[::-1], nu[::-1], val[::-1]),
                (*(np.append(x, x[-1]) for x in (lam, mu, nu)), np.append(val, 1)),
                (lam, mu, nu, val * (nu != 0))):
        with pytest.raises(ValueError, match="not distinct triples in 0..4"):
            FusionRing(ring.names, *bad)
    with pytest.raises(ValueError, match="read-only"):
        lam[0] = 1


def test_simple_currents_su2():
    # The currents 0 and k: the trivial subgroup and one of order 2.
    for k in (2, 3, 6, 16):
        assert simple_currents(su2_model(k).ring) == {(0,): 0, (0, k): k}


def test_simple_currents_zn_everything():
    g = simple_currents(zn_model(10, 9).ring)
    assert sorted(set().union(*g)) == list(range(10))
    assert g[tuple(range(10))] == 1  # the whole group is cyclic, of order 10


def test_simple_currents_so8_klein_four():
    # Z_2 x Z_2: three subgroups of order 2 and none of order 4.
    g = simple_currents(so8_level1_model().ring)
    assert g == {(0,): 0, (0, 1): 1, (0, 2): 2, (0, 3): 3}


def test_current_group_closure():
    for spec in (su2_model(6), zn_model(12, 5), so8_level1_model()):
        ring = spec.ring
        elems = sorted(set().union(*simple_currents(ring)))
        assert set(ring.conj[elems].tolist()) <= set(elems)
        products = dense(ring)[np.ix_(elems, elems)].argmax(axis=2)
        assert set(products.ravel().tolist()) <= set(elems)


def test_simple_currents_match_the_nonzero_loop():
    # The exact current mask against the float test |d - 1| < CURRENT_TOL,
    # and the subgroups against a walk over the powers of each current.
    for name, md, _ in report_models():
        got, ref = simple_currents(md.ring), simple_currents_loop(md.ring)
        assert list(got.items()) == list(ref.items()), name


def test_simple_currents_that_do_not_close_are_refused():
    # Not associative: fusion with 1 permutes the labels and 1 x 1 = 2,
    # but 2 x 2 = 1 + 2, so 2 is no current.
    N = np.zeros((3, 3, 3), dtype=int)
    N[0] = N[:, 0] = np.eye(3, dtype=int)
    N[1, 1, 2] = N[1, 2, 0] = N[2, 1, 0] = N[2, 2, 1] = N[2, 2, 2] = 1
    ring = ring_from_dense(["0", "1", "2"], N)
    assert ring.is_current.tolist() == [True, True, False]
    with pytest.raises(ValueError, match="simple currents do not close under fusion"):
        simple_currents(ring)
    N[2, 2] = [0, 2, -1]  # each row of N[2] sums to 1, but one is no unit vector
    ring = ring_from_dense(["0", "1", "2"], N)
    assert ring.is_current.tolist() == [True, True, False]


def test_simple_currents_that_never_reach_the_vacuum_are_refused():
    # Not associative: 1 x 2 = 0, but 1 x 1 = 1 and 2 x 2 = 2, so the
    # powers of 1 never come back to the vacuum (a walk over them would
    # not end).
    N = np.zeros((3, 3, 3), dtype=int)
    N[0] = N[:, 0] = np.eye(3, dtype=int)
    N[1, 2, 0] = N[2, 1, 0] = N[1, 1, 1] = N[2, 2, 2] = 1
    ring = ring_from_dense(["0", "1", "2"], N)
    assert ring.is_current.all() and verify_axioms(ring)
    with pytest.raises(ValueError, match="simple currents do not form a group"):
        simple_currents(ring)


@pytest.mark.parametrize("cells", [
    {(2, 2, 0): 1},                  # two entries in row 2
    {(1, 2, 0): 2},                  # an entry 2
    {(1, 2, 0): 0},                  # row 1 empty
    {(2, 1, 0): 0, (2, 0, 0): 1},    # unit rows, but column 0 twice
    {(1, 2, 0): -1, (1, 1, 0): 1, (1, 0, 0): 1},  # row sum 1, not a unit row
], ids=["two-in-a-row", "entry-2", "empty-row", "column-twice", "negative"])
def test_vacuum_slice_must_be_a_permutation_matrix(cells):
    N = dense(zn_model(3, 2).ring)  # vacuum slice: 0 -> 0, 1 <-> 2
    for cell, value in cells.items():
        N[cell] = value
    with pytest.raises(ValueError, match="vacuum slice N\\[:, :, 0\\] is not a permutation matrix"):
        ring_from_dense(["0", "1", "2"], N)


def test_current_subgroups_match_the_power_walk():
    for name, md, _ in report_models():
        records = [[r.generator, r.order, list(r.elements), str(r.h_generator),
                    r.admissible, r.ring_size] for r in rehren_admissible(md.spec)]
        assert json.dumps(records) == json.dumps(rehren_admissible_loop(md.spec)), name


def test_current_group_and_y_stay_small_beside_n():
    # zn:128:1 has m^2 nonzeros of m^3 cells, and a dense N would be 16
    # MiB.  The ring holds only the nonzeros, the product table and the
    # subgroup masks are m x m, Y and the Verlinde check go one label at
    # a time and a permutation test reads only the nonzeros.
    invs = enumerate_invariants(build(zn_model(128, 1)))
    tracemalloc.start()
    try:
        spec = zn_model(128, 1)
        md = build(spec)
        simple_currents(spec.ring)
        reports = [permutation_test(Z, spec.ring, md.spins) for Z in invs]
        verlinde = verlinde_check(md)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reports) == len(invs) and all(r["consistent"] for r in reports if r)
    assert verlinde < 1e-8
    assert peak < 4 * 2 ** 20


def test_a_product_ring_is_built_from_its_factors_nonzeros():
    # su2:16*su2:14 has 255 labels: a dense N would be 127 MiB for its
    # 658,920 nonzeros, and the einsum that filled it as large again.
    factors = su2_model(16), su2_model(14)
    tracemalloc.start()
    try:
        ring = tensor_product(*factors).ring
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ring.size == 255 and len(ring.nonzeros[0]) == 658_920
    assert peak < 64 * 2 ** 20


def nonzero_calls(ring):
    ring.d
    with mock.patch.object(np, "nonzero", wraps=np.nonzero) as spy:
        simple_currents(ring)
    return spy.call_count


def test_simple_current_table_is_not_built_cell_by_cell():
    assert nonzero_calls(zn_model(128, 1).ring) == nonzero_calls(zn_model(4, 1).ring)


def test_frobenius_reciprocity_holds_on_catalog():
    # N_{lam mu}^nu = N_{conj(lam) nu}^mu
    for spec in (su2_model(6), zn_model(7, 2), so8_level1_model()):
        N = dense(spec.ring)
        assert np.array_equal(N, N[spec.ring.conj].transpose(0, 2, 1))


def test_conjugation_read_from_vacuum_slice():
    # zn ring: the vacuum slice gives j -> -j
    n = 6
    N = np.zeros((n, n, n), dtype=int)
    for a in range(n):
        for b in range(n):
            N[a, b, (a + b) % n] = 1
    ring = ring_from_dense([str(j) for j in range(n)], N)
    assert [int(x) for x in ring.conj] == [(-j) % n for j in range(n)]


def test_global_index_su2():
    # w = sum d_j^2 = (k+2)/(2 sin^2(pi/(k+2)))
    for k in (2, 6, 16):
        w = su2_model(k).ring.global_index
        ref = (k + 2) / (2 * math.sin(math.pi / (k + 2)) ** 2)
        assert w == pytest.approx(ref, rel=1e-10)


# Dense definitions of what the package reads off the nonzeros of N.

def dense_is_current(N):
    return ((N.sum(axis=2) == 1) & (N.min(axis=2) >= 0)).all(axis=1)


def dense_current_table(N, currents):
    pos = np.full(N.shape[0], -1)
    pos[currents] = np.arange(len(currents))
    return pos[N.argmax(axis=2)[np.ix_(currents, currents)]]


def dense_cyclic_subgroups(table, currents):
    """{subgroup labels: smallest generator}, walking the powers of each
    current through the dense table (vacuum first), or the refusal text."""
    out = {}
    for i in range(len(currents)):
        powers, x = [0], i
        while x != 0:
            if len(powers) == len(currents):
                return "simple currents do not form a group"
            powers.append(x)
            x = table[x, i]
        out.setdefault(tuple(sorted(currents[powers].tolist())), int(currents[i]))
    return out


def dense_quantum_dimensions(N):
    """d from M = N.sum(axis=0), or the start of the ValueError text."""
    M = N.sum(axis=0).astype(float)
    try:
        vals, vecs = np.linalg.eig(M)
    except np.linalg.LinAlgError:
        return "ill-conditioned fusion ring"
    v = vecs[:, int(np.argmax(vals.real))].real
    if abs(v[0]) < 1e-12:
        return "ill-conditioned fusion ring: PF vector vanishes at vacuum"
    d = v / v[0]
    for _ in range(2):
        u = M @ d
        d = u / u[0]
    resid = np.max(np.abs(np.einsum("lmn,n->lm", N, d) - np.outer(d, d)))
    return d if resid <= DIM_TOL else "ill-conditioned fusion ring: PF residual"


def dense_associativity_failures(N):
    lhs = np.einsum("lms,snr->lmnr", N, N)
    rhs = np.einsum("mns,lsr->lmnr", N, N)
    return [tuple(int(x) for x in row) for row in np.argwhere(lhs != rhs)[:3]]


def dense_axiom_messages(N):
    """The negativity, identity and commutativity lines of verify_axioms,
    read off the dense N."""
    def first(mask):
        return [tuple(int(x) for x in row) for row in np.argwhere(mask)[:3]]
    eye = np.eye(len(N), dtype=int)
    out = [f"negative structure constants at {first(N < 0)}"] if np.any(N < 0) else []
    out += [f"vacuum is not a {side} identity"
            for side, A in (("left", N[0]), ("right", N[:, 0, :])) if not np.array_equal(A, eye)]
    comm = N != N.transpose(1, 0, 2)
    return out + ([f"commutativity fails at {first(comm)}"] if np.any(comm) else [])


def row_two_minus_one_ring():
    # Row N[2, 2] = (0, 2, -1) sums to 1 but is no unit vector: 2 is no
    # current, and the currents 0, 1 do not close (1 x 1 = 2).
    N = np.zeros((3, 3, 3), dtype=int)
    N[0] = N[:, 0] = np.eye(3, dtype=int)
    N[1, 1, 2] = N[1, 2, 0] = N[2, 1, 0] = 1
    N[2, 2] = [0, 2, -1]
    return ring_from_dense(["0", "1", "2"], N)


def reciprocity_breaking_ring():
    # Unital, commutative and associative, with conjugation 1 <-> 2, but
    # 1 x 2 = 0 + 1 while 2 x 1 holds no 2: N_{12}^1 = 1 and
    # N_{conj(1) 1}^2 = N_{21}^2 = 0, so M[1, 2] = 1 and M[2, 1] = 2.
    N = np.zeros((3, 3, 3), dtype=int)
    N[0] = N[:, 0] = np.eye(3, dtype=int)
    N[1, 1] = [0, 0, 1]
    N[1, 2] = N[2, 1] = [1, 1, 0]
    N[2, 2] = [0, 1, 1]
    return ring_from_dense(["0", "a", "b"], N)


def reciprocity_message(mu, nu):
    return f"Frobenius reciprocity fails: sum_lam N_lam is not symmetric at ({mu}, {nu})"


def test_a_ring_without_frobenius_reciprocity_is_refused():
    # Both rings' M has M[1, 2] = 1 and M[2, 1] = 2.  The second passes
    # every other axiom, and a non-symmetric eigensolve of its M gives
    # d = (1, 1.3247..., 1.7548...) with no residual: only the symmetry
    # test refuses it.
    line = reciprocity_message(1, 2)
    for ring in (row_two_minus_one_ring(), reciprocity_breaking_ring()):
        with pytest.raises(ValueError) as exc:
            quantum_dimensions(ring)
        assert str(exc.value) == line
        assert line in verify_axioms(ring)
    assert verify_axioms(reciprocity_breaking_ring()) == [line]


def test_fusion_matrix_sum_is_symmetric_with_a_simple_top_eigenvalue():
    # quantum_dimensions takes the last eigenpair of eigh(M): on every
    # report model M is symmetric and its top eigenvalue is simple, with
    # a relative gap of at least 0.83 (su2:2).
    for name, md, _ in report_models():
        M = dense(md.ring).sum(axis=0)
        assert np.array_equal(M, M.T), name
        top = np.linalg.eigvalsh(M)[::-1]
        assert len(top) == 1 or top[1] < 0.5 * top[0], name


def row_two_ring():
    # Row N[1, 1] = (0, 0, 2) holds one nonzero, but it is no unit vector.
    N = dense(zn_model(3, 2).ring)
    N[1, 1, 2] = 2
    return ring_from_dense(["0", "1", "2"], N)


def small_sun_currents(n_max, k_max):
    return st.builds(sun_current_model, st.integers(1, n_max), st.integers(1, k_max))


factor_specs = st.one_of(small_su2(4), small_zn(6), small_sun_currents(6, 3))


@st.composite
def rings_and_permutations(draw):
    """A ring (su2, zn, sun_currents or a two-factor product) and a
    permutation of its labels that fixes the vacuum."""
    spec = draw(st.one_of(small_su2(10), small_zn(24), small_sun_currents(24, 4),
                          st.builds(tensor_product, factor_specs, factor_specs)))
    m = spec.ring.size
    return spec.ring, [0, *draw(st.permutations(range(1, m)))]


def outcome(call):
    try:
        return call()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(rings_and_permutations())
@example((row_two_minus_one_ring(), [0, 2, 1]))
@example((row_two_ring(), [0, 2, 1]))
def test_nonzero_readers_match_the_dense_definitions(case):
    ring, theta = case
    N = dense(ring)
    assert np.array_equal(ring.is_current, dense_is_current(N))
    (currents,) = np.nonzero(dense_is_current(N))
    table = dense_current_table(N, currents)
    if np.any(table < 0):
        with pytest.raises(ValueError, match="simple currents do not close under fusion"):
            simple_currents(ring)
    else:
        got = outcome(lambda: simple_currents(ring))
        want = dense_cyclic_subgroups(table, currents)
        assert got == want and list(got) == list(want)
    # d comes from eigh(M), the reference from eig: within DIM_TOL, and
    # refused wherever M is not symmetric.
    M = N.sum(axis=0)
    got, want = outcome(lambda: quantum_dimensions(ring)), dense_quantum_dimensions(N)
    if not np.array_equal(M, M.T):
        assert got == reciprocity_message(*np.argwhere(M != M.T)[0])
    elif isinstance(want, str):
        assert isinstance(got, str) and got.startswith(want)
    else:
        assert not isinstance(got, str) and np.max(np.abs(got - want)) <= DIM_TOL
    for perm in (theta, ring.conj, np.arange(ring.size)):
        Z = np.eye(ring.size, dtype=int)[perm]
        assert permutation_test(Z, ring)["fusion_ok"] == np.array_equal(
            N[np.ix_(perm, perm, perm)], N)


@st.composite
def edited_rings(draw):
    """A small ring with a few cells N_{lm}^n = N_{ml}^n, n > 0, changed:
    commutative, with the same vacuum slice, mostly not associative."""
    ring = draw(st.one_of(small_su2(6), small_zn(8),
                          st.builds(tensor_product, small_su2(2), small_zn(3)))).ring
    N = dense(ring)
    m = ring.size
    for _ in range(draw(st.integers(0, 3))):
        l, mu, nu = (draw(st.integers(lo, m - 1)) for lo in (0, 0, 1))
        N[l, mu, nu] = N[mu, l, nu] = draw(st.integers(-1, 3))
    return ring_from_dense(ring.names, N)


@st.composite
def asymmetric_rings(draw):
    """A small ring with a few cells N_{lm}^n, n > 0, set one at a time
    (identity rows and columns included): mostly not commutative, with
    the same vacuum slice."""
    ring = draw(st.one_of(small_su2(6), small_zn(8),
                          st.builds(tensor_product, small_su2(2), small_zn(3)))).ring
    N = dense(ring)
    m = ring.size
    for _ in range(draw(st.integers(1, 4))):
        l, mu, nu = (draw(st.integers(lo, m - 1)) for lo in (0, 0, 1))
        N[l, mu, nu] = draw(st.integers(-2, 3))
    return ring_from_dense(ring.names, N)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.one_of(edited_rings(), asymmetric_rings()))
def test_axiom_messages_match_the_dense_definitions(ring):
    lines = [x for x in verify_axioms(ring)
             if x.startswith(("negative", "vacuum is not", "commutativity"))]
    assert lines == dense_axiom_messages(dense(ring))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(edited_rings())
def test_associativity_failures_match_the_dense_einsum(ring):
    assert fusion._associativity_failures(ring) == dense_associativity_failures(dense(ring))


@functools.lru_cache(maxsize=None)
def large_ring(name):
    return model_by_name(name).ring


@st.composite
def large_edited_rings(draw):
    """su2:8*su2:8 (m = 81) or su2:4*zn:6:1 (m = 30), too large for the
    dense m^4 einsum, with 1-3 cells N_{ab}^c = N_{ba}^c, c > 0, changed."""
    ring = large_ring(draw(st.sampled_from(["su2:8*su2:8", "su2:4*zn:6:1"])))
    N = dense(ring)
    m = ring.size
    for _ in range(draw(st.integers(1, 3))):
        a, b, c = (draw(st.integers(lo, m - 1)) for lo in (0, 0, 1))
        N[a, b, c] = N[b, a, c] = N[a, b, c] + draw(st.sampled_from([-1, 1, 2]))
    return ring_from_dense(ring.names, N)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(large_edited_rings())
def test_associativity_line_matches_the_exact_reference(ring):
    ref = associativity_failures(ring)
    lines = [x for x in verify_axioms(ring) if x.startswith("associativity")]
    assert lines == ([f"associativity fails at {ref}"] if ref else [])


def test_every_associative_ring_passes():
    # No flag of the randomized test is ever false, so each of these
    # passes on every run, whatever the draws.
    for name in catalog_names() + ["su2:4*su2:4", "zn:6:1*zn:6:1", "su2:8*su2:8",
                                   "su2:16*su2:7"]:
        assert verify_axioms(model_by_name(name).ring) == [], name

