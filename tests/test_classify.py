"""Invariant classification: permutations, type I/II, parents, indices."""
import numpy as np
import pytest

from modinv import (
    build,
    classify_invariant,
    enumerate_invariants,
    find_parents,
    so8_level1_model,
    so16_level1_model,
    su2_model,
    type1_decomposition,
    zn_model,
)
from modinv import classify
from modinv.catalog import (
    SO16_HETEROTIC_Z,
    SO16_PARENT_MINUS,
    SO16_PARENT_PLUS,
    branching_catalog,
    model_by_name,
    su4_charge_conjugation,
)
from modinv.classify import (
    chiral_indices,
    permutation_test,
    sector_counts,
    simple_current_test,
    vacuum_symmetry,
    zz_diagnostics,
)
from modinv.extensions import restrict

from test_commutant import d5_matrix, d10_matrix, e7_matrix


def su4_block_invariant():
    """The embedding invariant b^T b over the 28 carried weights."""
    tab = branching_catalog()["su10_to_su4"]
    return tab.b.T @ tab.b, tab


def test_permutation_test_d5():
    spec = su2_model(6)
    rep = permutation_test(d5_matrix(), spec.ring, spec.spins)
    assert rep is not None
    assert list(rep["theta"]) == [0, 5, 2, 3, 4, 1, 6]
    assert rep["fixes_vacuum"] and rep["fusion_ok"] and rep["spin_ok"]
    assert rep["consistent"]


def test_permutation_test_identity_and_d10():
    spec = su2_model(16)
    rep = permutation_test(np.eye(17, dtype=int), spec.ring, spec.spins)
    assert rep is not None and list(rep["theta"]) == list(range(17))
    assert permutation_test(d10_matrix(), spec.ring, spec.spins) is None


def test_vacuum_symmetry():
    assert not vacuum_symmetry(SO16_HETEROTIC_Z)
    assert vacuum_symmetry(d5_matrix())
    Z28, _ = su4_block_invariant()
    assert vacuum_symmetry(Z28)


def test_simple_current_test():
    ring6 = su2_model(6).ring
    assert simple_current_test(d5_matrix(), ring6)
    assert simple_current_test(np.eye(7, dtype=int), ring6)
    ring16 = su2_model(16).ring
    assert not simple_current_test(e7_matrix(), ring16)
    assert simple_current_test(d10_matrix(), ring16)


def test_type1_decomposition_d10():
    b = type1_decomposition(d10_matrix())
    assert b is not None
    rows = b.b
    assert rows.shape == (6, 17)
    assert np.array_equal(rows.T @ rows, d10_matrix())
    assert np.array_equal(rows[0], np.eye(17, dtype=int)[0] + np.eye(17, dtype=int)[16])
    # two identical chi_8 rows account for Z_88 = 2
    e8 = np.zeros(17, dtype=int)
    e8[8] = 1
    assert sum(np.array_equal(r, e8) for r in rows) == 2


def test_type1_decomposition_failures():
    assert type1_decomposition(e7_matrix()) is None  # type II
    assert type1_decomposition(d5_matrix()) is None  # automorphism, not block
    assert type1_decomposition(SO16_HETEROTIC_Z) is None  # not vacuum symmetric


def test_type1_decomposition_identity():
    b = type1_decomposition(np.eye(5, dtype=int))
    assert b is not None
    assert sorted(map(tuple, b.b)) == sorted(map(tuple, np.eye(5, dtype=int)))


def test_chiral_indices_d10():
    md = build(su2_model(16))
    idx = chiral_indices(d10_matrix(), md)
    assert idx["w_plus"] == pytest.approx(md.w / 2, rel=1e-10)
    assert idx["w_minus"] == pytest.approx(md.w / 2, rel=1e-10)
    assert idx["w_alpha"] == pytest.approx(md.w, rel=1e-10)
    assert idx["w_zero"] == pytest.approx(md.w / 4, rel=1e-10)


def test_chiral_indices_identity():
    md = build(su2_model(6))
    idx = chiral_indices(np.eye(7, dtype=int), md)
    for key in ("w_plus", "w_minus", "w_alpha", "w_zero"):
        assert idx[key] == pytest.approx(md.w, rel=1e-10)


def test_sector_counts():
    assert sector_counts(d10_matrix()) == {
        "trace": 10, "sum_squares": 20, "x_plus": 2, "x_minus": 2}
    assert sector_counts(e7_matrix()) == {
        "trace": 7, "sum_squares": 17, "x_plus": 2, "x_minus": 2}
    Z28, tab = su4_block_invariant()
    assert sector_counts(Z28)["trace"] == 32
    perm = su4_charge_conjugation(tab)
    C = np.eye(28, dtype=int)[perm]
    assert sector_counts(C @ Z28)["trace"] == 16


def test_find_parents_e7():
    md = build(su2_model(16))
    invs = enumerate_invariants(md)
    parents = find_parents(e7_matrix(), invs)
    assert parents["plus"] is not None and parents["plus"] == parents["minus"]
    assert np.array_equal(invs[parents["plus"]], d10_matrix())


def test_find_parents_heterotic():
    md = build(so16_level1_model())
    invs = enumerate_invariants(md)
    parents = find_parents(SO16_HETEROTIC_Z, invs)
    assert parents["plus"] is not None and parents["minus"] is not None
    assert parents["plus"] != parents["minus"]
    assert np.array_equal(invs[parents["plus"]], SO16_PARENT_PLUS)
    assert np.array_equal(invs[parents["minus"]], SO16_PARENT_MINUS)


def test_find_parents_identity_is_self():
    md = build(su2_model(6))
    invs = enumerate_invariants(md)
    i_id = next(i for i, Z in enumerate(invs) if np.array_equal(Z, np.eye(7, dtype=int)))
    parents = find_parents(invs[i_id], invs)
    assert parents == {"plus": i_id, "minus": i_id}


def test_zz_identity_su4():
    Z28, tab = su4_block_invariant()
    perm = su4_charge_conjugation(tab)
    C = np.eye(28, dtype=int)[perm]
    rep = zz_diagnostics(Z28, C)
    assert np.array_equal(rep["ZtZ"], 3 * Z28 + C @ Z28)
    assert rep["ZtZ_combo"] == {"Z": 3, "CZ": 1}
    # Z is symmetric and C-invariant, so the same holds for Z Z^T
    assert rep["ZZt_combo"] == {"Z": 3, "CZ": 1}


def test_zz_identity_permutations():
    rep = zz_diagnostics(d5_matrix())
    assert np.array_equal(rep["ZtZ"], np.eye(7, dtype=int))
    assert rep["ZtZ_combo"] == {"I": 1}
    rep = zz_diagnostics(np.eye(4, dtype=int))
    assert rep["ZtZ_combo"] == {"I": 1}


def test_index_identities_across_models():
    for spec in (su2_model(6), su2_model(16), so8_level1_model(),
                  so16_level1_model(), zn_model(12, 5), zn_model(9, 2)):
        md = build(spec)
        for Z in enumerate_invariants(md):
            idx = chiral_indices(Z, md)
            assert idx["w_plus"] == pytest.approx(idx["w_minus"], rel=1e-9)
            assert idx["w_zero"] * idx["w_alpha"] == pytest.approx(
                idx["w_plus"] ** 2, rel=1e-9)


def test_permutation_set_equivalences():
    # {Z : vacuum row = e0} = {Z : vacuum col = e0} = {permutations} = {x+ = 1}
    for spec in (su2_model(16), so8_level1_model(), zn_model(8, 1)):
        md = build(spec)
        m = spec.ring.size
        e0 = np.eye(m, dtype=int)[0]
        for Z in enumerate_invariants(md):
            row_trivial = np.array_equal(Z[0, :], e0)
            col_trivial = np.array_equal(Z[:, 0], e0)
            is_perm = permutation_test(Z, spec.ring, spec.spins) is not None
            x_plus_one = sector_counts(Z)["x_plus"] == 1
            assert row_trivial == col_trivial == is_perm == x_plus_one


def test_classify_invariant_reports():
    md16 = build(su2_model(16))
    invs = enumerate_invariants(md16)
    rep = classify_invariant(d10_matrix(), md16, enumerated=invs)
    assert rep.kind == "type I"
    assert not rep.heterotic
    assert rep.branching is not None
    assert rep.permutation is None
    rep = classify_invariant(e7_matrix(), md16, enumerated=invs)
    assert rep.kind == "type II"
    assert not rep.simple_current_supported
    md = build(so16_level1_model())
    invs16 = enumerate_invariants(md)
    rep = classify_invariant(SO16_HETEROTIC_Z, md, enumerated=invs16)
    assert rep.heterotic and rep.kind == "type II"
    assert rep.counts["x_plus"] == 2 and rep.counts["trace"] == 1


def test_classify_d5_automorphism():
    md = build(su2_model(6))
    rep = classify_invariant(d5_matrix(), md)
    assert rep.kind == "type II"  # no nonnegative block factorization
    assert rep.permutation is not None and rep.permutation["consistent"]
    assert rep.simple_current_supported
    assert not rep.heterotic


def test_gram_node_cap():
    with pytest.raises(RuntimeError):
        type1_decomposition(d10_matrix(), node_cap=1)


def _parents_by_full_scan(Z, enumerated):
    """The parent search as one loop that decomposes every symmetric P."""
    plus = minus = None
    for i, P in enumerate(enumerated):
        if not vacuum_symmetry(P) or classify.type1_decomposition(P) is None:
            continue
        if plus is None and np.array_equal(P[:, 0], Z[:, 0]):
            plus = i
        if minus is None and np.array_equal(P[0, :], Z[0, :]):
            minus = i
    return {"plus": plus, "minus": minus}


@pytest.mark.parametrize("name, calls_new, calls_old",
                         [("zn:96:1", 36, 100), ("sun_currents:12:2", 4096, 4096)])
def test_find_parents_matches_full_scan(monkeypatch, name, calls_new, calls_old):
    # Same first indices as the full scan, with at most as many Gram
    # decompositions.  In sun_currents:12:2 all 64 invariants share the
    # vacuum row and column and only the last one is type I, so the scan
    # still decomposes every candidate.
    calls = []

    def counting(P, *args, **kwargs):
        calls.append(1)
        return type1_decomposition(P, *args, **kwargs)

    monkeypatch.setattr(classify, "type1_decomposition", counting)
    invs = enumerate_invariants(build(model_by_name(name)))
    new_calls = old_calls = 0
    for Z in invs:
        calls.clear()
        got = find_parents(Z, invs)
        new_calls += len(calls)
        calls.clear()
        assert got == _parents_by_full_scan(Z, invs)
        old_calls += len(calls)
    assert (new_calls, old_calls) == (calls_new, calls_old)
