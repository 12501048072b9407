"""Built-in models and the three embedding branching tables."""
import math
from fractions import Fraction

import numpy as np
import pytest

from modinv import (
    branching_catalog,
    build,
    is_nondegenerate,
    model_by_name,
    so8_level1_model,
    so16_level1_model,
    su2_model,
    tensor_product,
    verify_axioms,
    zn_model,
)
from modinv import catalog
from modinv.catalog import (
    SO8_KAC_PETERSON_S,
    SO8_KAC_PETERSON_T,
    SO16_HETEROTIC_Z,
    SO16_PARENT_MINUS,
    SO16_PARENT_PLUS,
    catalog_names,
    name_family,
    su4_charge_conjugation,
    zn_valid_weights,
    zn_weight_valid,
)
from dense import dense


def test_su2_level6_weights():
    h = su2_model(6).spins.h
    assert list(h) == [Fraction(0), Fraction(3, 32), Fraction(1, 4),
                       Fraction(15, 32), Fraction(3, 4), Fraction(3, 32),
                       Fraction(1, 2)]


def test_su2_level1_is_z2():
    spec = su2_model(1)
    assert spec.ring.size == 2
    assert dense(spec.ring)[1, 1, 0] == 1 and dense(spec.ring)[1, 1, 1] == 0
    assert spec.spins.h[1] == Fraction(1, 4)


def test_su2_level16_shared_weight_class():
    h = su2_model(16).spins.h
    assert h[2] == h[14] == Fraction(1, 9)


def test_su2_level_bounds():
    with pytest.raises(ValueError):
        su2_model(0)


def test_zn_su10_weights():
    spec = zn_model(10, 9)
    assert spec.spins.h[1] == Fraction(9, 20)
    # a = n-1 reproduces the su(10)_1 weights j(n-j)/2n mod 1
    for j in range(10):
        assert spec.spins.h[j] == Fraction(j * (10 - j), 20) % 1


def test_zn_e6_type_weights():
    spec = zn_model(3, 2)
    assert spec.spins.h[1] == spec.spins.h[2] == Fraction(1, 3)
    assert spec.spins.h[0] == 0


def test_zn_parameter_constraints():
    with pytest.raises(ValueError):
        zn_model(4, 2)  # gcd(a, n) != 1
    with pytest.raises(ValueError):
        zn_model(3, 1)  # odd n needs even a
    assert zn_valid_weights(1) == [0]
    assert zn_valid_weights(2) == [1, 3]
    assert zn_valid_weights(3) == [2, 4]
    assert all(a % 2 == 0 for a in zn_valid_weights(9))
    assert len(zn_valid_weights(12)) == 8


def test_zn_weight_rule_matches_the_listing_loop():
    for n in range(1, 61):
        loop = [a for a in range(2 * n)
                if math.gcd(a, n) == 1 and not (n % 2 == 1 and a % 2 == 1)]
        assert zn_valid_weights(n) == loop
        assert all(zn_weight_valid(n, a) == (a % (2 * n) in loop) for a in range(-2 * n, 4 * n))
    with pytest.raises(ValueError):
        zn_weight_valid(0, 1)


def test_zn_weight_taken_mod_2n():
    a = zn_model(5, 12)  # 12 = 2 mod 10
    b = zn_model(5, 2)
    assert list(a.spins.h) == list(b.spins.h)


def test_so8_matches_reference_s():
    md = build(so8_level1_model())
    assert np.max(np.abs(md.S - SO8_KAC_PETERSON_S)) < 1e-12
    assert np.array_equal(md.C, np.eye(4, dtype=int))
    assert list(so8_level1_model().spins.h) == [0, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)]


def test_so8_t_matches_reference_up_to_conjugation():
    md = build(so8_level1_model())
    assert np.max(np.abs(SO8_KAC_PETERSON_T - np.conj(md.T))) < 1e-12
    # and not the other branch
    assert np.max(np.abs(SO8_KAC_PETERSON_T - md.T)) > 0.5


def test_so16_reference_matrices_commute():
    md = build(so16_level1_model())
    for Z in (SO16_HETEROTIC_Z, SO16_PARENT_PLUS, SO16_PARENT_MINUS):
        assert np.max(np.abs(md.S @ Z - Z @ md.S)) < 1e-12
        assert np.max(np.abs(md.Omega @ Z - Z @ md.Omega)) < 1e-12
    # spinor weights h = 1 are stored reduced mod 1
    assert list(so16_level1_model().spins.h) == [0, Fraction(1, 2), 0, 0]


def test_so_factories_gate_once_per_process(monkeypatch):
    so8_level1_model(), so16_level1_model()  # gates have run at least once

    def no_build(spec):
        raise AssertionError("build ran inside a factory")

    monkeypatch.setattr(catalog, "build", no_build)
    for factory in (so8_level1_model, so16_level1_model):
        a, b = factory(), factory()
        assert a is not b and a.spins is not b.spins and a.ring is not b.ring
        assert list(a.spins.h) == list(b.spins.h)


def test_so_factories_reject_corrupted_reference(monkeypatch):
    monkeypatch.setattr(catalog, "SO8_KAC_PETERSON_S", -SO8_KAC_PETERSON_S)
    catalog._so8_gate.cache_clear()
    with pytest.raises(RuntimeError, match="Kac-Peterson"):
        so8_level1_model()
    off = np.zeros((4, 4), dtype=int)
    off[0, 1] = 1  # commutes with no S whose entries are all nonzero
    monkeypatch.setattr(catalog, "SO16_PARENT_PLUS", off)
    catalog._so16_gate.cache_clear()
    with pytest.raises(RuntimeError, match=r"\[S, Z\]"):
        so16_level1_model()


def test_so16_heterotic_row_differs_from_column():
    Z = SO16_HETEROTIC_Z
    assert not np.array_equal(Z[0, :], Z[:, 0])


def test_branching_table_shapes():
    tabs = branching_catalog()
    a, b, c = tabs["su10_to_su4"], tabs["e6_to_su3"], tabs["so8_to_su3"]
    assert a.b.shape == (10, 28)
    assert [int(r.sum()) for r in a.b] == [4, 3, 3, 3, 3, 4, 3, 3, 3, 3]
    assert b.b.shape == (3, 9)
    assert [int(r.sum()) for r in b.b] == [6, 3, 3]
    assert c.b.shape == (4, 4)
    assert [int(r.sum()) for r in c.b] == [3, 1, 1, 1]
    for t in (a, b, c):
        assert set(np.unique(t.b)) <= {0, 1}
        assert t.b[0, 0] == 1


def test_su4_doubled_weights():
    tab = branching_catalog()["su10_to_su4"]
    cols = tab.b.shape[1]
    doubled = {tab.col_names[i] for i in range(cols) if tab.b[:, i].sum() == 2}
    assert doubled == {"(0,3,0)", "(3,0,3)", "(1,2,1)", "(2,1,2)"}
    assert all(tab.b[:, i].sum() == 1 for i in range(cols)
               if tab.col_names[i] not in doubled)


def test_su4_conjugation_closes_column_set():
    tab = branching_catalog()["su10_to_su4"]
    perm = su4_charge_conjugation(tab)
    assert np.array_equal(perm[perm], np.arange(28))
    assert perm[0] == 0  # (0,0,0) is self-conjugate


def test_t_equivalence_classes_level6():
    h = su2_model(6).spins.h
    classes = {}
    for j, x in enumerate(h):
        classes.setdefault(x, []).append(j)
    assert sorted(classes.values()) == [[0], [1, 5], [2], [3], [4], [6]]


def catalog_up_to(top):
    """The catalog_names() with level K <= top (su2:K) and N <= top (zn:N:A)."""
    return [name for name in catalog_names()
            if all(p <= top for p in name_family(name)[1][:1])]


def test_full_catalog_is_clean():
    for name in catalog_up_to(8):
        spec = model_by_name(name)
        assert verify_axioms(spec.ring) == []
        md = build(spec)
        flag, _ = is_nondegenerate(md)
        assert flag, spec.name


def test_model_by_name_roundtrip():
    assert model_by_name("su2:6").name == "su2:6"
    assert model_by_name("zn:10:9").ring.size == 10
    assert model_by_name("sun_currents:4:6").spins.h[1] == Fraction(1, 4)
    assert model_by_name("so8_1").name == "so8_1"
    for bad in ("su3:4", "zn:4:2", "su2", "zn:10", ""):
        with pytest.raises(ValueError):
            model_by_name(bad)


def test_name_family_is_the_one_grammar():
    assert name_family("zn:6:1") == ("zn", (6, 1))
    assert name_family("su2:+4") == ("su2", (4,))
    assert name_family("sun_currents:4:6") == ("sun_currents", (4, 6))
    assert name_family("so8_1") == ("so8_1", ())
    for other in ("custom", "", "su3:4", "foo*bar"):
        assert name_family(other) == ("", ()), other
    for product in ("su2:4*su2:4", "foo*su2:x", "su2:4*"):
        assert name_family(product) == ("*", ()), product
    with pytest.raises(ValueError, match="unknown model name 'su2:1:2'"):
        name_family("su2:1:2")
    with pytest.raises(ValueError, match="cannot build model 'zn:x:2'"):
        name_family("zn:x:2")
    assert [n for n in catalog_names() if name_family(n)[0] not in ("su2", "zn")] == \
        ["so8_1", "so16_1"]


def test_model_by_name_products():
    spec = model_by_name("su2:4*zn:3:2")
    ref = tensor_product(su2_model(4), zn_model(3, 2))
    assert spec.name == "su2:4*zn:3:2" and spec.ring.size == 15
    assert np.array_equal(dense(spec.ring), dense(ref.ring)) and spec.spins.h == ref.spins.h
    for bad in ("su2:4*", "*su2:4", "su2:4*su3:1"):
        with pytest.raises(ValueError):
            model_by_name(bad)
    # Three factors are multiplied from the right.
    nested = model_by_name("su2:2*zn:3:2*so8_1")
    ref = tensor_product(su2_model(2), tensor_product(zn_model(3, 2), so8_level1_model()))
    assert nested.name == ref.name and nested.ring.names == ref.ring.names
    assert np.array_equal(dense(nested.ring), dense(ref.ring)) and nested.spins.h == ref.spins.h
    # Every factor is built, left to right, before any product is formed:
    # a bad tenth factor is named before nine factors exceed the label limit.
    with pytest.raises(ValueError, match="cannot build model 'zn:4:2'"):
        model_by_name("zn:2:1*" * 9 + "zn:4:2")


def test_catalog_names_cover_families():
    names = catalog_up_to(4)
    assert "su2:4" in names and "zn:4:1" in names
    assert "so8_1" in names and "so16_1" in names
    assert "zn:4:2" not in names  # invalid weight filtered out


def test_sun_current_model_weights():
    from modinv import sun_current_model

    spec = sun_current_model(4, 6)
    assert [str(x) for x in spec.spins.h] == ["0", "1/4", "0", "1/4"]
    # generally degenerate: not a spin model, only a weight carrier
    md = build(spec)
    assert not md.nondegenerate
