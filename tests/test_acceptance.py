"""End-to-end acceptance suite.

Each test covers one headline result with its runtime budget where one
applies, and prints a single summary line.
"""
import itertools
import time
from fractions import Fraction

import numpy as np

from modinv import (
    ade_assignment,
    build,
    classify_invariant,
    enumerate_invariants,
    find_parents,
    restrict,
    so8_level1_model,
    so16_level1_model,
    su2_model,
    type1_decomposition,
    zn_invariant,
    zn_model,
)
from modinv.catalog import (
    SO16_HETEROTIC_Z,
    SO16_PARENT_MINUS,
    SO16_PARENT_PLUS,
    branching_catalog,
    catalog_names,
    model_by_name,
    su4_charge_conjugation,
    zn_valid_weights,
)
from modinv.classify import sector_counts, vacuum_symmetry
from modinv.cli import render_partition_function
from modinv.commutant import brute_force_enumerate
from modinv.extensions import so8_restriction_sweep, zn_invariant_table
from modinv.graphs import graph_catalog, su2_nimrep_from_graph, tadpole_exclusion
from modinv.modular import relation_residuals

from su4_oracle import build_su4
from test_commutant import d5_matrix, d10_matrix, e7_matrix, sort_key


def canonical(mats):
    return sorted((np.asarray(Z, dtype=int) for Z in mats), key=sort_key)


def same_set(got, expect):
    got, expect = canonical(got), canonical(expect)
    return len(got) == len(expect) and all(
        np.array_equal(a, b) for a, b in zip(got, expect))


def su2_count_prediction(k):
    return 1 + (1 if k % 2 == 0 and k >= 4 else 0) + (1 if k in (10, 16, 28) else 0)


def test_criterion_1_su2_level6():
    t0 = time.perf_counter()
    invs = enumerate_invariants(build(su2_model(6)))
    dt = time.perf_counter() - t0
    assert same_set(invs, [np.eye(7, dtype=int), d5_matrix()])
    assert dt < 1.0
    print(f"criterion 1: PASS ({dt:.2f} s, 2 invariants at level 6)")


def test_criterion_2_su2_level16():
    t0 = time.perf_counter()
    invs = enumerate_invariants(build(su2_model(16)))
    dt = time.perf_counter() - t0
    assert same_set(invs, [np.eye(17, dtype=int), d10_matrix(), e7_matrix()])
    assert int(d10_matrix()[8, 8]) == 2
    assert dt < 10.0
    print(f"criterion 2: PASS ({dt:.2f} s, 3 invariants at level 16)")


def test_criterion_3_su2_ade_counts():
    t0 = time.perf_counter()
    counts = {}
    for k in range(1, 29):
        counts[k] = len(enumerate_invariants(build(su2_model(k))))
    dt = time.perf_counter() - t0
    for k, c in counts.items():
        assert c == su2_count_prediction(k), (k, c)
    assert dt < 60.0
    print(f"criterion 3: PASS ({dt:.2f} s, counts match for k <= 28)")


def test_criterion_4_so8_permutations():
    t0 = time.perf_counter()
    md = build(so8_level1_model())
    invs = enumerate_invariants(md)
    perms = [
        np.eye(4, dtype=int)[[0] + [1 + i for i in p]]
        for p in itertools.permutations(range(3))
    ]
    assert same_set(invs, perms)
    assert same_set(invs, brute_force_enumerate(md))
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"criterion 4: PASS ({dt:.2f} s, six permutation invariants)")


def test_criterion_5_zn_divisor_sweep():
    t0 = time.perf_counter()
    checked = 0
    for n in range(1, 25):
        eps = 2 if n % 2 == 0 else 1
        for a in zn_valid_weights(n):
            invs = enumerate_invariants(build(zn_model(n, a)))
            table = zn_invariant_table(n, a)
            assert same_set(invs, list(table.values())), (n, a)
            for delta, Z in table.items():
                assert Z.trace() == eps * delta, (n, a, delta)
            checked += 1
    dt = time.perf_counter() - t0
    assert dt < 30.0
    print(f"criterion 5: PASS ({dt:.2f} s, {checked} (n, a) pairs)")


def test_criterion_6_modular_property_suite():
    t0 = time.perf_counter()
    n_models = 0
    for name in catalog_names():
        spec = model_by_name(name)
        md = build(spec)
        if not md.nondegenerate:
            continue
        m = spec.ring.size
        unit = np.linalg.norm(md.S @ md.S.conj().T - np.eye(m))
        assert unit < 1e-8, spec.name
        res = relation_residuals(md)
        for key in ("omega_y", "st_cube", "s2_conj", "verlinde"):
            assert res[key] < 1e-8, (spec.name, key, res[key])
        n_models += 1
    dt = time.perf_counter() - t0
    print(f"criterion 6: PASS ({dt:.2f} s, {n_models} nondegenerate models)")


def test_criterion_7_nimrep_suite():
    t0 = time.perf_counter()
    for k in range(1, 29):
        md = build(su2_model(k))
        for Z in enumerate_invariants(md):
            graphs = ade_assignment(md, Z)
            assert len(graphs) == 1, (k, [g.name for g in graphs])
            assert not graphs[0].name.startswith("T"), (k, graphs[0].name)
    for k in range(3, 28, 2):
        assert tadpole_exclusion(k).excluded, k
    # the tadpole is a consistent nimrep at k = 3 all the same
    assert su2_nimrep_from_graph(3, graph_catalog("T", 2)) is not None
    dt = time.perf_counter() - t0
    print(f"criterion 7: PASS ({dt:.2f} s, unique non-tadpole graph per invariant)")


def test_criterion_8_restriction_suite():
    t0 = time.perf_counter()
    ref = build_su4()
    tab = branching_catalog()["su10_to_su4"]
    Z = restrict(tab, np.eye(10, dtype=int))
    assert Z.trace() == 32
    C10 = np.eye(10, dtype=int)[[(-t) % 10 for t in range(10)]]
    assert restrict(tab, C10).trace() == 16
    C = np.eye(28, dtype=int)[su4_charge_conjugation(tab)]
    assert np.array_equal(Z.T @ Z, 3 * Z + C @ Z)
    # independent cross-check: each extended sector only carries base
    # weights of one conformal-weight class
    h10 = zn_model(10, 9).spins.h
    for t in range(10):
        for lam in np.nonzero(tab.b[t])[0]:
            w = eval(tab.col_names[lam])
            diff = (float(ref["h"][ref["widx"][w]]) - float(h10[t])) % 1.0
            assert min(diff, 1.0 - diff) < 1e-9, (t, lam)
    # oracle matrix lives on all 84 weights; the table keeps the carried 28
    idx = [ref["widx"][eval(name)] for name in tab.col_names]
    assert np.array_equal(Z, ref["Z32"][np.ix_(idx, idx)])
    others = [i for i in range(ref["Z32"].shape[0]) if i not in idx]
    assert not ref["Z32"][others].any()

    e6 = branching_catalog()["e6_to_su3"]
    C3 = np.eye(3, dtype=int)[[0, 2, 1]]
    R1 = restrict(e6, np.eye(3, dtype=int))
    R2 = restrict(e6, C3)
    expect = np.outer(e6.b[0], e6.b[0]) + 2 * np.outer(e6.b[1], e6.b[1])
    assert np.array_equal(R1, R2) and np.array_equal(R1, expect)

    sweep = so8_restriction_sweep()
    assert sweep["count"] == 6
    text = render_partition_function(
        sweep["matrix"], names=branching_catalog()["so8_to_su3"].col_names)
    assert "3|χ(1,1)|²" in text
    dt = time.perf_counter() - t0
    print(f"criterion 8: PASS ({dt:.2f} s, traces 32/16, common restrictions)")


def test_criterion_9_classifier_suite():
    t0 = time.perf_counter()
    md6 = build(su2_model(6))
    rep = classify_invariant(d5_matrix(), md6)
    assert rep.permutation is not None and rep.permutation["consistent"]
    assert rep.simple_current_supported

    md16 = build(su2_model(16))
    invs16 = enumerate_invariants(md16)
    rep = classify_invariant(d10_matrix(), md16, enumerated=invs16)
    assert rep.kind == "type I"
    b = rep.branching.b
    assert np.array_equal(b.T @ b, d10_matrix()) and b.dtype == int

    rep = classify_invariant(e7_matrix(), md16, enumerated=invs16)
    assert rep.kind == "type II"
    i_d10 = next(
        i for i, Z in enumerate(invs16) if np.array_equal(Z, d10_matrix()))
    assert rep.parents == {"plus": i_d10, "minus": i_d10}

    md_so16 = build(so16_level1_model())
    invs_so16 = enumerate_invariants(md_so16)
    assert not vacuum_symmetry(SO16_HETEROTIC_Z)
    parents = find_parents(SO16_HETEROTIC_Z, invs_so16)
    assert parents["plus"] != parents["minus"]
    assert np.array_equal(invs_so16[parents["plus"]], SO16_PARENT_PLUS)
    assert np.array_equal(invs_so16[parents["minus"]], SO16_PARENT_MINUS)

    for spec in (su2_model(6), su2_model(16), so8_level1_model(),
                  so16_level1_model(), zn_model(10, 9)):
        md = build(spec)
        for Z in enumerate_invariants(md):
            rep = classify_invariant(Z, md)
            assert rep.indices["w_plus"] == rep.indices["w_minus"] or abs(
                rep.indices["w_plus"] - rep.indices["w_minus"]
            ) < 1e-9 * md.w
            assert abs(
                rep.indices["w_zero"] * rep.indices["w_alpha"]
                - rep.indices["w_plus"] ** 2
            ) < 1e-6 * md.w ** 2
    dt = time.perf_counter() - t0
    print(f"criterion 9: PASS ({dt:.2f} s, classifier checks)")


def test_criterion_10_oracle_equivalence():
    t0 = time.perf_counter()
    pairs = 0
    specs = [su2_model(k) for k in range(1, 7)]
    for n in range(1, 7):
        specs.extend(zn_model(n, a) for a in zn_valid_weights(n))
    specs += [so8_level1_model(), so16_level1_model()]
    for spec in specs:
        md = build(spec)
        assert same_set(enumerate_invariants(md), brute_force_enumerate(md)), spec.name
        pairs += 1
    dt = time.perf_counter() - t0
    print(f"criterion 10: PASS ({dt:.2f} s, {pairs} models, exact set equality)")
