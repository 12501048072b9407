"""Graph catalog, nimreps, spectral assignment, tadpole exclusion."""
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modinv import (
    ade_assignment,
    build,
    enumerate_invariants,
    graph_catalog,
    model_by_name,
    su2_model,
    sun_current_model,
)
from modinv import graphs
from modinv.graphs import (
    Graph,
    spectrum_match,
    su2_nimrep_from_graph,
    tadpole_exclusion,
)

from test_commutant import d5_matrix, e7_matrix
from dense import dense


def test_catalog_shapes():
    a7 = graph_catalog("A", 7)
    assert a7.size == 7 and a7.name == "A7"
    expect = np.zeros((7, 7), dtype=int)
    for i in range(6):
        expect[i, i + 1] = expect[i + 1, i] = 1
    assert np.array_equal(a7.adjacency, expect)
    t2 = graph_catalog("T", 2)
    assert np.array_equal(t2.adjacency, [[0, 1], [1, 1]])
    d5 = graph_catalog("D", 5)
    assert d5.adjacency.sum() == 8  # 4 edges
    assert sorted(d5.adjacency.sum(axis=0)) == [1, 1, 1, 2, 3]
    e6 = graph_catalog("E", 6)
    assert e6.adjacency[2, 5] == 1 and e6.adjacency.sum() == 10
    e8 = graph_catalog("E", 8)
    assert e8.adjacency[2, 7] == 1 and e8.size == 8


def test_catalog_errors():
    with pytest.raises(ValueError):
        graph_catalog("D", 3)
    with pytest.raises(ValueError):
        graph_catalog("E", 5)
    with pytest.raises(ValueError):
        graph_catalog("F", 4)
    with pytest.raises(ValueError):
        graph_catalog("A", 0)


def test_graph_validation_and_pf():
    with pytest.raises(ValueError):
        Graph(np.zeros((2, 3), dtype=int), ["a", "b"])
    with pytest.raises(ValueError):
        Graph(np.zeros((2, 2), dtype=int), ["a"])
    a7 = graph_catalog("A", 7)
    assert a7.pf_eigenvalue() == pytest.approx(2 * math.cos(math.pi / 8), abs=1e-12)
    v = a7.pf_vector()
    assert np.all(v > 0)


def test_nimrep_a7_is_fusion_tower():
    mats = su2_nimrep_from_graph(6, graph_catalog("A", 7))
    assert mats is not None and len(mats) == 7
    N = dense(su2_model(6).ring)
    for j in range(7):
        assert np.array_equal(mats[j], N[j])


def test_nimrep_tadpole_t2():
    mats = su2_nimrep_from_graph(3, graph_catalog("T", 2))
    assert mats is not None
    assert np.array_equal(mats[1], [[0, 1], [1, 1]])
    assert np.array_equal(mats[2], mats[1])
    assert np.array_equal(mats[3], np.eye(2, dtype=int))


def test_nimrep_d5_valid_and_pf_gate():
    assert su2_nimrep_from_graph(6, graph_catalog("D", 5)) is not None
    # wrong level: PF eigenvalue gate
    assert su2_nimrep_from_graph(5, graph_catalog("A", 7)) is None
    assert su2_nimrep_from_graph(6, graph_catalog("A", 6)) is None


@functools.lru_cache(maxsize=None)
def su2_fusion(k):
    return dense(su2_model(k).ring)


def einsum_nimrep(k, graph):
    """Reference for su2_nimrep_from_graph: the same PF gate and
    nonnegative recursion, then the whole tower checked against the
    su(2)_k fusion tensor, G_i G_j = sum_l N_ij^l G_l for all i, j."""
    A = graph.adjacency
    if abs(graph.pf_eigenvalue() - 2.0 * math.cos(math.pi / (k + 2))) > graphs.PF_TOL:
        return None
    mats = [np.eye(A.shape[0], dtype=int), A.copy()]
    for _ in range(2, k + 1):
        nxt = A @ mats[-1] - mats[-2]
        if np.any(nxt < 0):
            return None
        mats.append(nxt)
    G = np.stack(mats)
    lhs = np.einsum("iab,jbc->ijac", G, G)
    rhs = np.einsum("ijn,nac->ijac", su2_fusion(k), G)
    return mats if np.array_equal(lhs, rhs) else None


def same_tower(got, want):
    if got is None or want is None:
        return got is None and want is None
    return len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))


# Every family and size ade_assignment can ask for at k <= 40, and more.
CATALOG_GRAPHS = (
    [graph_catalog("A", n) for n in range(1, 42)]
    + [graph_catalog("D", n) for n in range(4, 24)]
    + [graph_catalog("E", n) for n in (6, 7, 8)]
    + [graph_catalog("T", n) for n in range(1, 22)]
)


def test_nimrep_matches_the_einsum_check_on_the_catalog():
    towers = 0
    for k in range(1, 41):
        for g in CATALOG_GRAPHS:
            got = su2_nimrep_from_graph(k, g)
            assert same_tower(got, einsum_nimrep(k, g)), (k, g.name)
            towers += got is not None
    # A_{k+1} at each level, D_{k/2+2} at even k >= 4, E6/E7/E8 at
    # 10/16/28, T_{(k+1)/2} at odd k: 40 + 19 + 3 + 20 towers.
    assert towers == 82


def test_nimrep_matches_the_einsum_check_on_the_catalog_without_the_pf_gate(monkeypatch):
    # Every pair reaches the recursion and the U_{k+1}(A) = 0 test; the
    # sizes are cut because the reference einsum costs k^2 n^3.
    monkeypatch.setattr(graphs, "PF_TOL", math.inf)
    for k in range(1, 17):
        for g in CATALOG_GRAPHS:
            if g.size <= 18:
                assert same_tower(su2_nimrep_from_graph(k, g), einsum_nimrep(k, g)), (k, g.name)


@st.composite
def symmetric_graphs(draw):
    n = draw(st.integers(1, 4))
    upper = draw(st.lists(st.integers(0, 2), min_size=n * (n + 1) // 2,
                          max_size=n * (n + 1) // 2))
    A = np.zeros((n, n), dtype=int)
    A[np.triu_indices(n)] = upper
    return Graph(A + np.triu(A, 1).T, [str(i) for i in range(n)])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8), symmetric_graphs())
def test_nimrep_matches_the_einsum_check_without_the_pf_gate(k, graph):
    # Entries <= 2 on <= 4 vertices keep the tower (PF <= 8) well inside int64.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "PF_TOL", math.inf)
        assert same_tower(su2_nimrep_from_graph(k, graph), einsum_nimrep(k, graph))


def test_nimrep_tower_stops_at_an_entry_of_2_52(monkeypatch):
    # Off the PF gate, the tower over the one-vertex graph [a] is
    # G_j = U_j(a), about a^j.  It stops at the first entry >= 2^52,
    # while every product is still exact; run on, its products would
    # overflow to inf, a RuntimeWarning (an error in this suite).
    monkeypatch.setattr(graphs, "PF_TOL", math.inf)
    for a in (2, 2 ** 26, 2 ** 52, 2 ** 62):
        assert su2_nimrep_from_graph(40, Graph([[a]], ["0"])) is None


def test_spectrum_match_diagonal_and_block():
    md = build(su2_model(6))
    a7 = su2_nimrep_from_graph(6, graph_catalog("A", 7))
    ok, info = spectrum_match(a7, md.S, np.eye(7, dtype=int))
    assert ok and info["size"] == info["trace"] == 7
    d5 = su2_nimrep_from_graph(6, graph_catalog("D", 5))
    ok, _ = spectrum_match(d5, md.S, d5_matrix())
    assert ok
    # D5 against the diagonal invariant must fail
    ok, info = spectrum_match(d5, md.S, np.eye(7, dtype=int))
    assert not ok and "vertex count" in info["reason"]


def test_spectrum_match_e7():
    md = build(su2_model(16))
    e7 = su2_nimrep_from_graph(16, graph_catalog("E", 7))
    ok, _ = spectrum_match(e7, md.S, e7_matrix())
    assert ok


def test_ade_assignment_k6():
    md = build(su2_model(6))
    assert [g.name for g in ade_assignment(md, np.eye(7, dtype=int))] == ["A7"]
    assert [g.name for g in ade_assignment(md, d5_matrix())] == ["D5"]


def eigenvalue_match(mats, S, Z):
    """Reference for spectrum_match: the eigenvalues of every G_lam,
    sorted, are {S_{lam rho}/S_{0 rho}} with multiplicity Z_{rho rho},
    within PF_TOL, and the graph size is tr Z."""
    diag = np.diagonal(Z)
    if mats[0].shape[0] != diag.sum():
        return False

    def ordered(vals):
        return vals[np.lexsort((np.round(vals.imag, 8), np.round(vals.real, 8)))]

    for lam, G in enumerate(mats):
        expect = ordered(np.repeat(S[lam] / S[0], diag).astype(complex))
        got = ordered(np.linalg.eigvals(G.astype(complex)))
        if np.max(np.abs(got - expect)) > graphs.PF_TOL:
            return False
    return True


def eigenvalue_multiplicities(mats, S):
    """How often G_1 has the eigenvalue S_{1 rho}/S_{0 rho}, for each rho;
    these values are distinct for su(2)."""
    vals = np.linalg.eigvalsh(mats[1].astype(float))
    return np.array([int(np.sum(np.abs(vals - S[1, r].real / S[0, r].real) < graphs.PF_TOL))
                     for r in range(S.shape[0])])


@functools.lru_cache(maxsize=None)
def su2_catalog():
    """{k: (modular data, invariants)} of the catalog models su2:1..28."""
    out = {}
    for k in range(1, 29):
        md = build(model_by_name(f"su2:{k}"))
        out[k] = (md, enumerate_invariants(md))
    assert sum(len(invs) for _, invs in out.values()) == 44
    return out


def catalog_towers(k):
    """(name, su(2)_k tower) of every graph in CATALOG_GRAPHS that has one."""
    return [(g.name, mats) for g in CATALOG_GRAPHS
            if (mats := su2_nimrep_from_graph(k, g)) is not None]


def test_spectrum_match_agrees_with_the_eigenvalue_reference():
    # Every catalog tower at k <= 28 against every su2 catalog invariant.
    # Here the vertex count alone sorts out the pairs that fail; the
    # off-by-one test below reaches the exponents.
    pairs, same_size, matches = 0, 0, 0
    for k, (md, invs) in su2_catalog().items():
        for name, mats in catalog_towers(k):
            for Z in invs:
                ok = spectrum_match(mats, md.S, Z)[0]
                assert ok == eigenvalue_match(mats, md.S, Z), (k, name, Z)
                pairs += 1
                same_size += len(mats[0]) == np.trace(Z)
                matches += ok
    assert (pairs, same_size, matches) == (96, 44, 44)


def test_spectrum_match_names_the_first_label_off_by_one():
    # Z = diag of the eigenvalue multiplicities passes, even with PF_TOL
    # at 1e-12; moving one unit from label sigma to label rho keeps tr Z
    # and fails at min(rho, sigma).
    for k, (md, _) in su2_catalog().items():
        for name, mats in catalog_towers(k):
            mult = eigenvalue_multiplicities(mats, md.S)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(graphs, "PF_TOL", 1e-12)
                assert spectrum_match(mats, md.S, np.diag(mult))[0], (k, name)
            assert eigenvalue_match(mats, md.S, np.diag(mult)), (k, name)
            for rho in range(k + 1):
                sigma = next((s for s in np.flatnonzero(mult) if s != rho), None)
                if sigma is None:
                    continue
                moved = mult.copy()
                moved[rho] += 1
                moved[sigma] -= 1
                ok, info = spectrum_match(mats, md.S, np.diag(moved))
                assert not ok and not eigenvalue_match(mats, md.S, np.diag(moved))
                assert info["reason"] == f"spectrum mismatch at label {min(rho, sigma)}"


def test_ade_assignment_matches_the_all_label_spectra():
    # On every su(2) catalog invariant ade_assignment must name exactly
    # the catalog graphs whose towers match diag Z at all k + 1 labels
    # by the eigenvalue reference.
    seen = 0
    for k, (md, invs) in su2_catalog().items():
        towers = catalog_towers(k)
        for Z in invs:
            ref = [g for g, mats in towers if eigenvalue_match(mats, md.S, Z)]
            assert [g.name for g in ade_assignment(md, Z)] == ref, (k, Z)
            seen += 1
    assert seen == 44


def test_ade_assignment_refuses_degenerate_data():
    # sun_currents:4:2 has z != 0, so S is set, but S is not modular.
    md = build(sun_current_model(4, 2))
    assert md.S is not None and not md.nondegenerate
    with pytest.raises(ValueError, match="needs nondegenerate data"):
        ade_assignment(md, np.eye(4, dtype=int))


def test_tadpole_negative_control():
    # spectral criterion alone admits the tadpole partition diag(1,0,1,0,1,0)
    # at k = 5, yet the modular enumeration only contains the identity
    md = build(su2_model(5))
    Z = np.diag([1, 0, 1, 0, 1, 0])
    assert [g.name for g in ade_assignment(md, Z)] == ["T3"]
    invs = enumerate_invariants(md)
    assert len(invs) == 1 and np.array_equal(invs[0], np.eye(6, dtype=int))


def test_tadpole_exclusion():
    rec = tadpole_exclusion(5)
    assert rec.ell == 3
    assert rec.extremal_weight == pytest.approx(math.sqrt(2), abs=1e-9)
    assert rec.forces_index_two
    # h_5 = 5/4, stored reduced mod 1; 2h integrality is mod-1 safe
    assert rec.current_weight == pytest.approx(1 / 4)
    assert not rec.current_integral
    assert rec.excluded
    assert tadpole_exclusion(3).excluded
    assert all(tadpole_exclusion(k).excluded for k in range(3, 28, 2))
    with pytest.raises(ValueError):
        tadpole_exclusion(2)
