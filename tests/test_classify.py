"""Invariant classification: permutations, type I/II, parents, indices."""
import gc
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    catalog_names,
    model_by_name,
    su4_charge_conjugation,
)
from modinv.classify import (
    chiral_indices,
    permutation_test,
    sector_counts,
    simple_current_test,
    vacuum_symmetry,
)
from modinv.extensions import restrict
from modinv.modular import tensor_product

from report_loops import permutation_test_loop, report_models, simple_current_test_loop
from test_commutant import d5_matrix, d10_matrix, e7_matrix


def su4_block_invariant():
    """The embedding invariant b^T b over the 28 carried weights."""
    tab = branching_catalog()["su10_to_su4"]
    return tab.b.T @ tab.b, tab


def same_permutation_report(got, want):
    if want is None:
        return got is None
    return (got.keys() == want.keys()
            and got["theta"].dtype == want["theta"].dtype
            and np.array_equal(got["theta"], want["theta"])
            and all(got[k] is want[k] for k in want if k != "theta"))


def test_permutation_and_current_tests_match_the_per_label_loops():
    for name, md, invs in report_models():
        for Z in invs:
            assert same_permutation_report(permutation_test(Z, md.ring, md.spins),
                                           permutation_test_loop(Z, md.ring, md.spins)), name
            assert simple_current_test(Z, md.ring) == simple_current_test_loop(Z, md.ring)
    spec = zn_model(4, 1)
    shift = np.roll(np.eye(4, dtype=int), 1, axis=1)  # lam -> lam + 1 moves the vacuum
    for spins in (None, spec.spins):
        rep = permutation_test(shift, spec.ring, spins)
        assert not rep["fixes_vacuum"] and not rep["consistent"]
        assert same_permutation_report(rep, permutation_test_loop(shift, spec.ring, spins))
    assert simple_current_test(shift, spec.ring) == simple_current_test_loop(shift, spec.ring)
    # Swapping [1] and [7] of Z_8 keeps the vacuum and every weight
    # (h = j^2/16 mod 1), but [1] x [1] = [2] goes to [7] x [7] = [6].
    spec = zn_model(8, 1)
    swap = np.eye(8, dtype=int)[[0, 7, 2, 3, 4, 5, 6, 1]]
    rep = permutation_test(swap, spec.ring, spec.spins)
    assert rep["fixes_vacuum"] and rep["spin_ok"] and not rep["fusion_ok"]
    assert same_permutation_report(rep, permutation_test_loop(swap, spec.ring, spec.spins))


def test_permutation_test_memory_is_linear_in_the_fusion_support():
    # Charge conjugation of Z_128 preserves N; N has 128^2 nonzero cells of
    # 128^3, and a permuted copy of N would take 16 MiB.
    spec = zn_model(128, 1)
    m = spec.ring.size
    Z = np.eye(m, dtype=int)[-np.arange(m) % m]
    tracemalloc.start()
    try:
        rep = permutation_test(Z, spec.ring, spec.spins)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep["consistent"] and rep["fusion_ok"]
    assert peak < m ** 3 * 8 // 8, peak


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
    # vacuum symmetric but Z != Z^T
    assert type1_decomposition(np.array([[1, 0, 0], [0, 1, 1], [0, 0, 1]])) is None


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
    # Z^T Z = Z Z^T = 3 Z + C Z for the su(4)_6 block invariant
    Z28, tab = su4_block_invariant()
    C = np.eye(28, dtype=int)[su4_charge_conjugation(tab)]
    assert np.array_equal(Z28.T @ Z28, 3 * Z28 + C @ Z28)
    assert np.array_equal(Z28 @ Z28.T, 3 * Z28 + C @ Z28)


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


def test_consistent_automorphisms_act_on_the_list():
    # A permutation invariant P that preserves fusion, weights and the
    # vacuum maps invariants to invariants by Z -> P Z P^T, P Z and Z P.
    pairs = 0
    for name, md, invs in report_models():
        listed = {np.asarray(Z, dtype=np.int64).tobytes() for Z in invs}
        for P in invs:
            rep = permutation_test(P, md.ring, md.spins)
            if rep is None or not rep["consistent"]:
                continue
            for Z in invs:
                for W in (P @ Z @ P.T, P @ Z, Z @ P):
                    assert np.asarray(W, dtype=np.int64).tobytes() in listed, name
                pairs += 1
    assert pairs > 3000


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


def test_gram_node_cap(monkeypatch):
    monkeypatch.setattr(classify, "GRAM_NODE_CAP", 1)
    classify._type1_rows.cache_clear()  # a memoized answer would skip the search
    with pytest.raises(RuntimeError):
        type1_decomposition(d10_matrix())


def test_gram_decomposition_keeps_one_residue():
    # The identity of Z_96 peels 95 rows; a fresh 72 KiB residue per row
    # would hold 6.7 MiB at the deepest point.
    classify._type1_rows.cache_clear()
    tracemalloc.start()
    try:
        b = type1_decomposition(np.eye(96, dtype=int))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert b is not None and np.array_equal(b.b, np.eye(96, dtype=int))
    assert peak < 2 ** 20, peak


def test_gram_decomposition_leaves_no_reference_cycle():
    # The peel is one module-level loop, so a cold decision leaves nothing
    # for the cyclic collector.
    classify._type1_rows.cache_clear()
    gc.collect()
    gc.disable()
    try:
        assert type1_decomposition(d10_matrix()) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_gram_peel_cuts_every_residue(monkeypatch):
    # The search without a cut inside it tried the largest first rows and
    # took over 10 s to find these rows, recorded from it.  Each residue
    # that fails the 2 x 2 minor test is now cut at once.
    b = np.array([[1, 0, 2, 0], [0, 2, 2, 2], [0, 1, 2, 2], [0, 2, 2, 1]])
    monkeypatch.setattr(classify, "GRAM_NODE_CAP", 10 ** 3)
    classify._type1_rows.cache_clear()
    tab = type1_decomposition(b.T @ b)
    assert tab is not None
    assert tab.b.tolist() == [[1, 0, 2, 0], [0, 2, 2, 2], [0, 2, 2, 1], [0, 1, 2, 2]]


def test_gram_minor_test_squares_large_entries_exactly(monkeypatch):
    # Squares of entries from 2^31 on leave int64: (2^32)^2 wraps to 0,
    # which would pass 0 <= 3 * 2^40.  The test is exact, so this residue
    # is refused before the first node, and a large type I Z still splits.
    monkeypatch.setattr(classify, "GRAM_NODE_CAP", 1)
    classify._type1_rows.cache_clear()
    x = 2 ** 32
    assert type1_decomposition(np.array([[1, 0, 0], [0, 3, x], [0, x, 2 ** 40]])) is None
    big = 3 * 10 ** 9
    assert type1_decomposition(np.diag([1, big * big])).b.tolist() == [[1, 0], [0, big]]


def test_type1_decomposition_does_not_wrap():
    # z0 z0^T has 2^64 at (1, 1), which wraps to 0 in int64: the residue
    # is 5 - 2^64 < 0, not 5 = 2^2 + 1^2, so Z is not type I.
    assert type1_decomposition(np.array([[1, 2 ** 32], [2 ** 32, 5]])) is None


def test_sector_counts_do_not_wrap():
    x = 2 ** 32
    assert sector_counts(np.array([[1, x], [x, 5]])) == {
        "trace": 6, "sum_squares": 2 ** 65 + 26, "x_plus": 2 ** 64 + 1, "x_minus": 2 ** 64 + 1}


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
                         [("zn:96:1", 10, 100), ("sun_currents:12:2", 64, 4096)])
def test_find_parents_matches_full_scan(monkeypatch, name, calls_new, calls_old):
    # Same first indices as the full scan, with one Gram decomposition per
    # vacuum-symmetric invariant of the list: the calls for every Z of
    # one list share the per-matrix memo.  In sun_currents:12:2 all 64
    # invariants share the vacuum row and column and only the last one
    # is type I, so each is decided once, not once per Z.
    calls = []

    def counting(P):
        calls.append(1)
        return type1_decomposition(P)

    invs = enumerate_invariants(build(model_by_name(name)))
    classify._type1_rows.cache_clear()
    got = [find_parents(Z, invs) for Z in invs]
    new_calls = classify._type1_rows.cache_info().misses
    monkeypatch.setattr(classify, "type1_decomposition", counting)
    assert got == [_parents_by_full_scan(Z, invs) for Z in invs]
    assert (new_calls, len(calls)) == (calls_new, calls_old)


def test_interleaved_lists_decide_each_matrix_once():
    # Classifying two lists Z by Z, alternating between them, decides each
    # vacuum-symmetric matrix once: 10 in zn:96:1 plus 64 in
    # sun_currents:12:2.  The answer of a matrix does not depend on which
    # list was classified last.
    runs = []
    for name in ("zn:96:1", "sun_currents:12:2"):
        md = build(model_by_name(name))
        runs.append((md, enumerate_invariants(md)))
    classify._type1_rows.cache_clear()
    got = []
    for i in range(max(len(invs) for _, invs in runs)):
        for md, invs in runs:
            if i < len(invs):
                rep = classify_invariant(invs[i], md, enumerated=invs)
                got.append((invs[i], invs, rep.parents))
    assert classify._type1_rows.cache_info().misses == 10 + 64
    for Z, invs, parents in got:
        assert parents == _parents_by_full_scan(Z, invs)


def _same_table(a, b):
    if a is None or b is None:
        return a is None and b is None
    return (np.array_equal(a.b, b.b) and a.row_names == b.row_names
            and a.col_names == b.col_names and a.name == b.name)


def test_list_index_does_not_leak_across_lists():
    md_zn = build(model_by_name("zn:96:1"))
    md_sun = build(model_by_name("sun_currents:12:2"))
    zn = enumerate_invariants(md_zn)
    sun = enumerate_invariants(md_sun)
    rev = zn[::-1]
    # Same vacuum row and column as zn[3] (type I), but not in the list.
    outside = zn[3].copy()
    outside[5, 7] += 1
    assert not any(np.array_equal(outside, P) for P in zn)
    calls = [(zn, md_zn, zn[0]), (sun, md_sun, sun[5]), (rev, md_zn, zn[0]),
             (zn, md_zn, outside), ([], md_zn, zn[1]), (zn, md_zn, zn[3]),
             (rev, md_zn, rev[1]), (sun, md_sun, sun[-1]), ([], md_zn, outside),
             (rev, md_zn, outside), (zn, md_zn, zn[9])]
    for invs, md, Z in calls:
        expect = _parents_by_full_scan(Z, invs)
        assert find_parents(Z, invs) == expect
        rep = classify_invariant(Z, md, enumerated=invs)
        assert rep.parents == expect
        assert _same_table(rep.branching, type1_decomposition(Z))
    assert find_parents(zn[0], rev)["plus"] == len(zn) - 1 - 3
    assert find_parents(outside, zn) == {"plus": 3, "minus": 3}
    assert classify_invariant(outside, md_zn, enumerated=zn).kind == "type II"


def test_classifying_a_list_builds_its_parent_index_once():
    # All 144 invariants of sun_currents:8:4 are vacuum-symmetric.  One
    # index serves every Z, each matrix is decided once, and the calls
    # stay linear in the list: at most one while building the index and
    # one from each report, where a search per Z would re-read the list.
    md = build(model_by_name("sun_currents:8:4"))
    invs = enumerate_invariants(md)
    n_sym = sum(vacuum_symmetry(Z) for Z in invs)
    assert n_sym == len(invs) == 144
    classify._type1_rows.cache_clear()
    classify._parent_index.cache_clear()
    reps = [classify_invariant(Z, md, enumerated=invs) for Z in invs]
    index = classify._parent_index.cache_info()
    assert (index.hits, index.misses) == (len(invs) - 1, 1)
    info = classify._type1_rows.cache_info()
    assert info.misses == n_sym
    assert info.hits + info.misses <= 2 * n_sym
    assert [rep.parents for rep in reps] == [_parents_by_full_scan(Z, invs) for Z in invs]


def _type1_rows_unscreened(Z):
    """_type1_rows with the Gram search before pruning, which applies no
    2 x 2 minor test to any residue."""
    if not np.array_equal(Z, Z.T):
        return None
    b0 = Z[0].copy()
    R = Z - np.outer(b0, b0)
    if np.any(R < 0) or np.any(R[0, :]) or np.any(R[:, 0]):
        return None
    rows = _gram_rows_unpruned(R, 10 ** 7)
    if rows is None:
        return None
    rows.sort(key=lambda v: tuple(v), reverse=True)
    return np.vstack([b0] + rows)


def test_gram_pretest_keeps_every_type1_answer():
    # The 2 x 2 minor test is a proof (R = sum v v^T has no negative 2 x 2
    # minor), so on every vacuum-symmetric invariant of the report models
    # the answer must equal that of the search without it.
    found = rejected = 0
    for name, md, invs in report_models():
        for Z in invs:
            if not vacuum_symmetry(Z):
                continue
            Z = np.ascontiguousarray(Z, dtype=np.int64)
            got = classify._type1_rows(Z.tobytes(), Z.shape[0])
            want = _type1_rows_unscreened(Z)
            if want is None:
                assert got is None, name
                rejected += 1
            else:
                assert got is not None and np.array_equal(got, want), name
                found += 1
    assert found > 0 and rejected > 0


@st.composite
def vacuum_tables(draw):
    """Small nonnegative integer b with b[:, 0] = e_0: a vacuum row with
    entries up to 3 over at most four rows with entries up to 2.  Denser
    tables, entries up to 3 over six rows, can still take the Gram search
    past 10^5 nodes."""
    m = draw(st.integers(1, 5))
    k = draw(st.integers(0, 4))
    b = np.zeros((k + 1, m), dtype=np.int64)
    b[0, 0] = 1
    for j in range(1, m):
        b[0, j] = draw(st.integers(0, 3))
        b[1:, j] = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    return b


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(vacuum_tables())
def test_gram_pretest_never_rejects_a_gram_matrix(b):
    Z = b.T @ b
    tab = type1_decomposition(Z)
    assert tab is not None
    assert np.array_equal(tab.b.T @ tab.b, Z) and np.array_equal(tab.b[0], b[0])


@pytest.mark.parametrize("name, picks", [("su2:10*su2:10", [10]), ("su2:6*su2:10", [4, 6])])
def test_gram_pretest_rejects_without_a_search(monkeypatch, name, picks):
    # These are symmetric with R = Z - z0 z0^T >= 0 vanishing on the vacuum,
    # but R has a negative 2 x 2 minor.  The search alone used 1e7 nodes
    # on su2:10*su2:10 #10 and raised; with a one-node budget the answer
    # is still None.
    invs = enumerate_invariants(build(model_by_name(name)))
    monkeypatch.setattr(classify, "GRAM_NODE_CAP", 1)
    classify._type1_rows.cache_clear()
    for i in picks:
        assert vacuum_symmetry(invs[i]) and np.array_equal(invs[i], invs[i].T)
        assert type1_decomposition(invs[i]) is None


def test_product_parents_match_full_scan():
    invs = enumerate_invariants(build(model_by_name("su2:10*su2:10")))
    assert len(invs) == 27
    for Z in invs:
        assert find_parents(Z, invs) == _parents_by_full_scan(Z, invs)


# sha256 of every find_parents answer on the report models, su2:8*su2:8 and
# su2:6*su2:10, recorded with the per-Z search the parent index replaced.
PARENTS_SHA256 = "058755529042a46e50a7c21cafa2cb2bb901a2fc787e23a08cb46bb11129e662"


def parents_digest():
    models = [(name, invs) for name, _, invs in report_models()]
    for name in ("su2:8*su2:8", "su2:6*su2:10"):
        models.append((name, enumerate_invariants(build(model_by_name(name)))))
    h = hashlib.sha256()
    for name, invs in models:
        answers = [find_parents(Z, invs) for Z in invs]
        h.update(json.dumps([name, [[p["plus"], p["minus"]] for p in answers]]).encode())
    return h.hexdigest()


def test_parents_are_pinned():
    assert parents_digest() == PARENTS_SHA256


def test_report_branching_is_fresh_per_report():
    md = build(model_by_name("zn:96:1"))
    invs = enumerate_invariants(md)
    rep = classify_invariant(invs[3], md, enumerated=invs)
    assert rep.kind == "type I"
    kept = rep.branching.b.copy()
    rep.branching.b[...] = 7
    rep.branching.row_names.append("extra")
    again = classify_invariant(invs[3], md, enumerated=invs)
    assert np.array_equal(again.branching.b, kept)
    assert again.branching.row_names == [f"tau{t}" for t in range(kept.shape[0])]
    assert _same_table(again.branching, type1_decomposition(invs[3]))
    direct = type1_decomposition(invs[3])
    direct.b[...] = 7
    direct.row_names.append("extra")
    assert _same_table(type1_decomposition(invs[3]), again.branching)


def _gram_rows_unpruned(R, node_cap):
    """The Gram search before pruning: every live j > lam is a position."""
    m = R.shape[0]
    nodes = [0]

    def rec(R):
        if not R.any():
            return []
        diag = np.diagonal(R)
        if np.any(diag < 0):
            return None
        live = np.nonzero(diag > 0)[0]
        if len(live) == 0:
            return None
        lam = int(live[0])
        idxs = [lam] + [int(j) for j in live if j > lam]

        def build_rows(pos, v):
            nodes[0] += 1
            if nodes[0] > node_cap:
                raise RuntimeError("node cap")
            if pos == len(idxs):
                yield v.copy()
                return
            j = idxs[pos]
            hi = math.isqrt(int(R[j, j]))
            for prev in idxs[:pos]:
                if v[prev]:
                    hi = min(hi, int(R[prev, j]) // int(v[prev]))
            lo = 1 if j == lam else 0
            for val in range(hi, lo - 1, -1):
                v[j] = val
                yield from build_rows(pos + 1, v)
            v[j] = 0

        for v in build_rows(0, np.zeros(m, dtype=int)):
            rest = rec(R - np.outer(v, v))
            if rest is not None:
                return [v] + rest
        return None

    return rec(R)


def test_gram_pruning_gives_the_same_rows():
    # The pruned search skips positions j with R[lam, j] = 0, which can
    # only take the value 0; the rows found must not change.
    names = catalog_names() + ["sun_currents:12:2", "sun_currents:8:4",
                               "su2:4*su2:4", "zn:6:1*zn:6:1"]
    found = missing = 0
    for name in names:
        specs = [model_by_name(f) for f in name.split("*")]
        spec = specs[0] if len(specs) == 1 else tensor_product(*specs)
        for Z in enumerate_invariants(build(spec)):
            if not vacuum_symmetry(Z) or not np.array_equal(Z, Z.T):
                continue
            R = Z - np.outer(Z[0], Z[0])
            if np.any(R < 0) or np.any(R[0]):
                continue
            new = classify._gram_rows(R)
            old = _gram_rows_unpruned(R, 10 ** 7)
            if old is None:
                assert new is None
                missing += 1
            else:
                assert new is not None and len(new) == len(old)
                assert all(np.array_equal(a, b) for a, b in zip(new, old))
                found += 1
    assert found > 0 and missing > 0
