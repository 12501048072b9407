"""Command line surface: exit codes, JSON round trips, renderers."""
import hashlib
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import hypothesis.extra.numpy as hnp

from modinv import Graph, build, enumerate_invariants, graph_catalog, su2_model, verify_axioms, zn_model
from modinv.catalog import BranchingTable, branching_catalog, model_by_name, so8_level1_model
from modinv import cli
from modinv.cli import (
    _json_text,
    _matrix_rows,
    graph_to_dot,
    main,
    matrix_to_json,
    model_from_json,
    model_to_json,
    render_partition_function,
)
from modinv.classify import classify_invariant, type1_decomposition
from modinv.extensions import restrict, zn_invariant
from modinv.fusion import MAX_LABELS
from modinv.modular import tensor_product

from report_loops import dot_loop, matrix_to_json_loop, render_loop, report_models
from test_commutant import d5_matrix, d10_matrix
from dense import dense, ring_from_dense
from test_fusion import reciprocity_breaking_ring, reciprocity_message


def chi_terms(expr):
    """Coupling coefficients of a character-sum expression.

    Understands m|χa + 2χb|², mχaχb* and m|χa|² terms; returns a dict
    (row, col) -> coefficient so differently written but equal
    expressions compare equal.
    """
    out = {}

    def add(r, c, v):
        out[(r, c)] = out.get((r, c), 0) + v

    def split_pre(t):
        i = 0
        while i < len(t) and t[i].isdigit():
            i += 1
        return (int(t[:i]) if i else 1), t[i:]

    def top_terms(s):
        terms, buf, inside, i = [], "", False, 0
        while i < len(s):
            if s[i] == "|":
                inside = not inside
            if not inside and s.startswith(" + ", i):
                terms.append(buf)
                buf, i = "", i + 3
                continue
            buf += s[i]
            i += 1
        terms.append(buf)
        return terms

    for term in top_terms(expr):
        term = term.strip()
        pre, rest = split_pre(term)
        if rest.startswith("|") and rest.endswith("|²"):
            inner = rest[1:-2]
            parts = []
            for piece in inner.split(" + "):
                c, tail = split_pre(piece.strip())
                assert tail.startswith("χ")
                parts.append((c, tail[1:]))
            for c1, n1 in parts:
                for c2, n2 in parts:
                    add(n1, n2, pre * c1 * c2)
        else:
            assert rest.endswith("*") and rest.startswith("χ")
            names = rest[:-1].split("χ")[1:]
            assert len(names) == 2
            add(names[0], names[1], pre)
    return out


def matrix_terms(Z):
    return {
        (str(i), str(j)): int(Z[i, j])
        for i, j in np.argwhere(np.asarray(Z) != 0)
    }


def test_render_d5_matches_offdiagonal_writing():
    ours = render_partition_function(d5_matrix())
    # same coupling, diagonal term written out as chi3 chi3*
    classic = "|χ0|² + |χ2|² + |χ4|² + |χ6|² + χ1χ5* + χ3χ3* + χ5χ1*"
    assert chi_terms(ours) == chi_terms(classic) == matrix_terms(d5_matrix())


def test_render_d10_block_form():
    b = type1_decomposition(d10_matrix())
    out = render_partition_function(d10_matrix(), branching=b)
    assert out == "|χ0 + χ16|² + |χ2 + χ14|² + |χ4 + χ12|² + |χ6 + χ10|² + 2|χ8|²"
    assert chi_terms(out) == matrix_terms(d10_matrix())


def test_render_identity_and_empty():
    out = render_partition_function(np.eye(7, dtype=int))
    assert out == " + ".join(f"|χ{i}|²" for i in range(7))
    assert render_partition_function(np.zeros((3, 3), dtype=int)) == "0"
    with pytest.raises(ValueError, match="does not reproduce"):
        render_partition_function(
            np.eye(17, dtype=int), branching=type1_decomposition(d10_matrix()))


def test_render_and_json_match_the_per_label_loops():
    for name, md, invs in report_models():
        for Z in invs:
            b = classify_invariant(Z, md).branching
            assert render_partition_function(Z) == render_loop(Z), name
            if b is not None:
                assert render_partition_function(Z, branching=b) == render_loop(Z, branching=b)
            assert json.dumps(matrix_to_json(Z)) == json.dumps(matrix_to_json_loop(Z))
    for table in branching_catalog().values():  # named columns, repeated rows
        Z = restrict(table, np.eye(table.rows, dtype=int))
        for b in (None, table):
            assert (render_partition_function(Z, names=table.col_names, branching=b)
                    == render_loop(Z, names=table.col_names, branching=b))
    b = np.array([[1, 0, 0, 0], [0, 2, 1, 0], [0, 0, 0, 1], [0, 2, 1, 0], [0, 0, 0, 1]])
    table = BranchingTable(b, [f"tau{t}" for t in range(5)], list("abcd"))
    Z = b.T @ b
    out = render_partition_function(Z, names=table.col_names, branching=table)
    assert out == render_loop(Z, names=table.col_names, branching=table)
    assert out == "|χa|² + 2|2χb + χc|² + 2|χd|²"
    zero = np.zeros((4, 4), dtype=int)
    assert render_partition_function(zero) == render_loop(zero) == "0"
    assert matrix_to_json(zero) == matrix_to_json_loop(zero)


def test_render_and_json_refuse_non_integral_input():
    Z = np.array([[1.5, 0], [0, 0.7]])
    for call in (render_partition_function, matrix_to_json):
        with pytest.raises(ValueError, match="not an int64 integer"):
            call(Z)
    assert render_partition_function(np.eye(2)) == "|χ0|² + |χ1|²"
    assert matrix_to_json(np.eye(2)) == [[1, 0], [0, 1]]


def test_render_checks_the_branching_table_exactly():
    # A column's sum of squares must stay below 2^53, where the float
    # product b^T b is exact: 2^26 squared passes, 2^27 and 2^32 are
    # refused (2^32 squared wraps to 0 in an int64 product).
    for big, ok in ((2 ** 26, True), (2 ** 27, False), (2 ** 32, False)):
        b = BranchingTable(np.array([[1, 0], [0, big]]), ["t0", "t1"], ["0", "1"])
        Z = np.diag([1, big * big if ok else 0])
        if ok:
            assert render_partition_function(Z, branching=b) == f"|χ0|² + |{big}χ1|²"
        else:
            with pytest.raises(ValueError, match="reaches 2\\^53"):
                render_partition_function(Z, branching=b)


def test_render_compares_a_branching_table_once():
    n = 256
    table = BranchingTable(np.eye(n, dtype=int), [f"tau{t}" for t in range(n)],
                           [str(i) for i in range(n)])
    with mock.patch.object(np, "array_equal", wraps=np.array_equal) as spy:
        out = render_partition_function(np.eye(n, dtype=int), branching=table)
    assert spy.call_count == 1  # the b^T b = Z check
    assert out == " + ".join(f"|χ{i}|²" for i in range(n))


def test_graph_to_dot():
    dot = graph_to_dot(graph_catalog("A", 7))
    assert dot.startswith('graph "A7"')
    assert dot.count("--") == 6 and "->" not in dot
    assert dot.count("label=") == 7
    dot = graph_to_dot(graph_catalog("T", 2))
    assert "n1 -- n1;" in dot
    dot = graph_to_dot(Graph([[0, 1], [0, 0]], ["a", "b"], name="P2"))
    assert dot.startswith('digraph "P2"') and "n0 -> n1;" in dot and "--" not in dot
    assert dot.count("->") == 1
    # Byte for byte the double loop, loops and multiple edges included.
    graphs = [graph_catalog(family, n)
              for family, sizes in (("A", range(1, 31)), ("D", range(4, 31)),
                                    ("E", (6, 7, 8)), ("T", range(1, 31)))
              for n in sizes]
    graphs += [Graph([[0, 1], [0, 0]], ["a", "b"], name="P2"),
               Graph([[2, 1, 0], [1, 0, 3], [0, 3, 1]], list("abc"), name="multi"),
               Graph([[0, 2, 0], [1, 0, -1], [0, 0, 1]], list("abc"))]
    for g in graphs:
        assert graph_to_dot(g) == dot_loop(g), g.name


@pytest.mark.parametrize("argv", [
    ["enumerate", "su2:6"], ["enumerate", "su2:4*su2:4"], ["enumerate", "zn:96:1"],
    ["model", "show", "so8_1"], ["model", "show", "su2:4*su2:4"]])
def test_written_files_are_canonical_dumps(tmp_path, argv):
    path = tmp_path / "out.json"
    assert main([*argv, "--json", str(path)]) == 0
    text = path.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)
    if argv[0] == "model":
        spec = model_by_name(argv[2])
        assert text == json.dumps(model_to_json(spec), indent=2, sort_keys=True)


# int64 arrays of 1-3 dimensions, a leading length of 0 included, with
# small, negative and beyond-2**53 values.
_int_arrays = st.integers(1, 3).flatmap(lambda ndim: hnp.arrays(
    np.int64, st.tuples(*[st.integers(0, 3)] * ndim),
    elements=st.one_of(st.integers(-20, 20), st.integers(-2 ** 63, 2 ** 63 - 1),
                       st.sampled_from([2 ** 53, -2 ** 53 - 1, 2 ** 63 - 1, -2 ** 63]))))
_payloads = st.recursive(
    st.one_of(_int_arrays, st.none(), st.booleans(), st.integers(), st.text(max_size=4)),
    lambda inner: st.one_of(st.dictionaries(st.text(max_size=4), inner, max_size=4),
                            st.lists(inner, max_size=3)),
    max_leaves=10)


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.text(max_size=4), _payloads, max_size=4))
def test_json_writer_is_the_indented_dump(payload):
    assert _json_text(payload) == json.dumps(_plain(payload), indent=2, sort_keys=True)


def test_json_writer_refuses_non_integer_arrays():
    assert _json_text({"a": np.zeros((0, 3, 3), dtype=int)}) == '{\n  "a": []\n}'
    for a in (np.array([True, False]), np.array([1.0, 0.0]), np.zeros((2, 2), dtype=bool)):
        with pytest.raises(TypeError, match="only integer arrays"):
            _json_text({"Z": a})
    for Z in (np.eye(2), np.zeros((2, 2), dtype=bool), np.zeros((0, 2))):
        with pytest.raises(TypeError, match="only integer arrays"):
            _matrix_rows(Z)


# 2-D int64 arrays with 0 rows or columns included, and values that are
# small, negative, of three or more digits, or at the ends of int64.
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(hnp.arrays(np.int64, st.tuples(st.integers(0, 4), st.integers(0, 4)),
                  elements=st.one_of(st.integers(-20, 20), st.integers(100, 10 ** 6),
                                     st.integers(-2 ** 63, 2 ** 63 - 1),
                                     st.sampled_from([2 ** 63 - 1, -2 ** 63]))))
def test_matrix_listing_is_the_per_cell_format(Z):
    want = "\n".join("  " + " ".join("%2d" % x for x in row) for row in Z.tolist())
    assert _matrix_rows(Z) == want


def test_main_reuses_one_parser(tmp_path, capsys):
    # One parser serves every main() call of the process; each call reads
    # as a call on a freshly built parser, errors and exit codes included.
    argvs = [["enumerate", "su2:4"], ["enumerate", "su2:4", "--bogus"], ["model", "show"],
             ["enumerate", "su2:4", "--json", str(tmp_path / "no" / "x.json")],
             ["enumerate", "su2:4"]]

    def calls():
        out = []
        for argv in argvs:
            code = main(argv)
            text = capsys.readouterr()
            out.append((code, text.out, text.err))
        return out

    reused = calls()
    assert cli._parser() is cli._parser()
    assert [code for code, _, _ in reused] == [0, 1, 1, 1, 0]
    assert reused[0] == reused[-1]
    with mock.patch.object(cli, "_parser", cli.make_parser):
        assert calls() == reused


def test_model_json_round_trip():
    for name in ("su2:6", "zn:10:9", "so8_1"):
        spec = model_by_name(name)
        data = json.loads(json.dumps(model_to_json(spec)))
        back = model_from_json(data)
        assert back.name == spec.name
        assert np.array_equal(dense(back.ring), dense(spec.ring))
        assert np.array_equal(back.ring.conj, spec.ring.conj)
        assert back.spins.h == spec.spins.h
        assert all(isinstance(h, Fraction) for h in back.spins.h)


def test_cli_model_list_and_show(capsys):
    assert main(["model", "list"]) == 0
    out = capsys.readouterr().out
    assert "su2:K" in out and "so16_1" in out
    assert main(["model", "show", "su2:6"]) == 0
    out = capsys.readouterr().out
    assert "7 sectors" in out and "3/32" in out and "nondegenerate" in out
    assert main(["model", "show", "so8_1"]) == 0
    out = capsys.readouterr().out
    assert "S:" in out and "c = 4.000000" in out


def test_cli_model_errors(capsys):
    assert main(["model", "show", "nosuch"]) == 1
    assert "error" in capsys.readouterr().err
    assert main(["model", "show"]) == 1
    capsys.readouterr()
    for name in ("/nonexistent/x.json", "nosuch", "zn:x:2"):
        assert main(["model", "validate", name]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid model: ") and err.count("\n") == 1, name
    assert main([]) == 1
    assert main(["model", "frobnicate", "su2:6"]) == 1


def test_cli_model_json_and_validate(tmp_path, capsys):
    path = tmp_path / "su2_6.json"
    assert main(["model", "show", "su2:6", "--json", str(path)]) == 0
    capsys.readouterr()
    assert main(["model", "validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "model ok" in out and "nondegenerate=True" in out
    assert main(["model", "validate", "su2:6"]) == 0
    assert capsys.readouterr().out == "model ok: su2:6 (m=7, nondegenerate=True)\n"
    # corrupt the conjugation: loader must reject it
    data = json.loads(path.read_text())
    data["conjugation"] = [0] * 7
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["model", "validate", str(bad)]) == 2
    trunc = tmp_path / "trunc.json"
    trunc.write_text('{"labels": []}')
    assert main(["model", "validate", str(trunc)]) == 2


def test_validate_refuses_a_nan_dimension_in_one_line(tmp_path):
    # Every ring's M has its first row all ones, so the polish's u[0] is
    # sum_nu d_nu = lambda_max >= M[0, 0] = 1, and u[0] = 0 arises only from
    # roundoff in the eigensolve.  An eigh that returns the bottom eigenpair
    # stands in for it: on Z_2, M = [[1, 1], [1, 1]], d = (1, -1) and
    # u = M d = 0, so the residual is NaN.  validate names the ill-conditioned
    # ring in its one error line, and no numpy warning reaches stderr.
    path = tmp_path / "nan_dims.json"
    path.write_text(json.dumps({
        "name": "nan_dims", "conjugation": [0, 1],
        "labels": [{"index": 0, "name": "a", "h": "0"}, {"index": 1, "name": "b", "h": "3/4"}],
        "fusion": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]]}))
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, numpy as np\n"
            "eigh = np.linalg.eigh\n"
            "np.linalg.eigh = lambda M: tuple(x[..., ::-1] for x in eigh(M))\n"
            "from modinv.cli import main\n"
            "sys.exit(main(['model', 'validate', sys.argv[1]]))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(path)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith("invalid model: ")
    assert proc.stderr.endswith("ill-conditioned fusion ring: PF residual nan exceeds 1.0e-09\n")


def test_validate_refuses_a_ring_without_frobenius_reciprocity(tmp_path, capsys):
    ring = reciprocity_breaking_ring()
    path = tmp_path / "reciprocity.json"
    path.write_text(json.dumps({
        "name": "", "conjugation": ring.conj.tolist(),
        "labels": [{"index": i, "name": nm, "h": h} for i, (nm, h) in
                   enumerate(zip(ring.names, ["0", "1/3", "1/3"]))],
        "fusion": np.stack(ring.nonzeros, axis=1).tolist()}))
    assert main(["model", "validate", str(path)]) == 2
    assert capsys.readouterr() == ("", f"invalid model: {reciprocity_message(1, 2)}\n")


def test_cli_show_from_json_file(tmp_path, capsys):
    path = tmp_path / "zn.json"
    assert main(["model", "show", "zn:5:2", "--json", str(path)]) == 0
    capsys.readouterr()
    assert main(["model", "show", str(path)]) == 0
    assert "5 sectors" in capsys.readouterr().out


def test_cli_enumerate(tmp_path, capsys):
    assert main(["enumerate", "su2:6"]) == 0
    out = capsys.readouterr().out
    assert "commutant rank 2 (modular)" in out
    assert "2 physical invariants" in out
    assert main(["enumerate", "su2:6", "--oracle"]) == 0
    assert "oracle agrees (2 invariants)" in capsys.readouterr().out
    path = tmp_path / "inv.json"
    assert main(["enumerate", "su2:6", "--json", str(path)]) == 0
    payload = json.loads(path.read_text())
    invs = enumerate_invariants(build(su2_model(6)))
    assert payload["invariants"] == [matrix_to_json(Z) for Z in invs]
    assert payload["commutant"] == {"rank": 2, "kind": "modular", "exact": True}
    assert main(["enumerate", "nosuch:9"]) == 1


def test_cli_oracle_refuses_a_box_over_the_cap(capsys):
    # su2:16 has a brute-force box above BRUTE_NODE_CAP: one error line, exit 2.
    assert main(["enumerate", "su2:16", "--oracle"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: brute-force space exceeds") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_classify(capsys):
    assert main(["classify", "su2:16"]) == 0
    out = capsys.readouterr().out
    assert "3 invariants" in out
    assert "type I," in out and "type II" in out
    assert "automorphism" in out
    assert "|χ0 + χ16|²" in out
    invs = enumerate_invariants(build(su2_model(16)))
    i_d10 = next(i for i, Z in enumerate(invs) if np.array_equal(Z, d10_matrix()))
    assert f"parents: plus={i_d10}, minus={i_d10}" in out
    assert main(["classify", "so16_1"]) == 0
    assert "heterotic" in capsys.readouterr().out


def test_cli_classify_products(capsys):
    # su2:6*su2:10 prints what the per-Z parent search printed;
    # su2:10*su2:10 used to raise at the Gram node cap.
    assert main(["classify", "su2:6*su2:10"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e746302373a4143e6d2582666dc73e48663d0f30fb8cbd853dbf8e58e3b1cd15")
    assert main(["classify", "su2:10*su2:10"]) == 0
    assert capsys.readouterr().out.startswith("su2:10*su2:10: 27 invariants\n")


# sha256 of `modinv classify` stdout, recorded with the per-Z classification
# that the one list pass replaced.
CLASSIFY_SHA256 = {
    "sun_currents:12:2": "89f3fd585d8df74d8842d10f7f29fa3cd52fc6b8b7a50a443eda48c5839ede2d",
    "sun_currents:8:4": "c2435a91f8e1145724ee0b6f2ab99e49e6816fe243eaf497241de816aaf6330a",
    "su2:4*su2:4": "2541bc2f3721aac4908ca61751e523cc7a75eba55531abbedb178c2f0238177a",
    "so16_1": "a3d8d94cb9465751d0772e90939ba37f92d1c4b1127078a666222864d24e82d2",
    "su2:16": "54345df9302c2e27a7205e31a8dbc48d22b8b0ecceac3a76c4d3acdf37a636de",
    "sun_currents:20:2": "690cc517ac99e68c5d85890e2fa1e9fc993e3a99e85b2a78ec880d376f48977a",
}


@pytest.mark.parametrize("name", sorted(CLASSIFY_SHA256))
def test_cli_classify_output_is_pinned(capsys, name):
    assert main(["classify", name]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_SHA256[name]


def test_cli_classify_is_one_list_pass(monkeypatch, capsys):
    # One classify_list call for the whole list, and no per-Z call of
    # classify_invariant or find_parents.
    import modinv.classify
    import modinv.cli
    lists = []
    real = modinv.cli.classify_list
    monkeypatch.setattr(modinv.cli, "classify_list",
                        lambda invs, md: lists.append(len(invs)) or real(invs, md))

    def per_z(*args, **kwargs):
        raise AssertionError("a per-Z call")

    monkeypatch.setattr(modinv.classify, "classify_invariant", per_z)
    monkeypatch.setattr(modinv.classify, "find_parents", per_z)
    assert main(["classify", "sun_currents:12:2"]) == 0
    assert lists == [64]
    assert capsys.readouterr().out.startswith("sun_currents:12:2: 64 invariants\n")


def test_cli_graphs(tmp_path, capsys):
    dotdir = tmp_path / "dots"
    assert main(["graphs", "su2:6", "--dot", str(dotdir)]) == 0
    out = capsys.readouterr().out
    assert "A7" in out and "D5" in out
    files = sorted(p.name for p in dotdir.iterdir())
    assert files == ["su2_6_inv0_D5.dot", "su2_6_inv1_A7.dot"]
    assert (dotdir / files[0]).read_text().startswith('graph "D5"')
    assert main(["graphs", "zn:5:2"]) == 1
    assert "su2" in capsys.readouterr().err


def test_cli_extend(capsys):
    assert main(["extend", "su2:6"]) == 0
    out = capsys.readouterr().out
    assert "gen 6 order 2" in out and "[admissible]" in out
    assert "theta=[1, 0, 0, 0, 0, 0, 1]" in out
    assert main(["extend", "sun_currents:4:6"]) == 0
    out = capsys.readouterr().out
    assert "admissible orders: [1, 2, 4]" in out
    assert "locality by order: {1: True, 2: True, 4: False}" in out
    assert main(["extend", "zn:10:9"]) == 0
    out = capsys.readouterr().out
    assert "Z^(1): trace 2" in out and "Z^(5): trace 10" in out
    assert main(["extend", "su2:5"]) == 0
    assert "[not admissible]" in capsys.readouterr().out


def test_cli_restrict(capsys):
    assert main(["restrict", "su10_to_su4", "conjugation"]) == 0
    out = capsys.readouterr().out
    assert "trace 16" in out
    assert main(["restrict", "su10_to_su4", "identity"]) == 0
    assert "trace 32" in capsys.readouterr().out
    assert main(["restrict", "so8_to_su3", "sweep"]) == 0
    out = capsys.readouterr().out
    assert "all 6 invariants restrict to:" in out
    assert "trace 6" in out and "3|χ(1,1)|²" in out
    assert main(["restrict", "e6_to_su3", "conjugation"]) == 0
    assert "trace 12" in capsys.readouterr().out
    assert main(["restrict", "bogus", "identity"]) == 1
    assert main(["restrict", "su10_to_su4", "bogus"]) == 1
    assert main(["restrict", "so8_to_su3", "conjugation"]) == 1
    assert main(["restrict", "e6_to_su3", "sweep"]) == 1
    capsys.readouterr()
    # Every pair that succeeds renders its matrix in one "Z = " line;
    # identity and sweep go through the branching table, with no fallback.
    for argv in (["su10_to_su4", "identity"], ["su10_to_su4", "conjugation"],
                 ["so8_to_su3", "identity"], ["so8_to_su3", "sweep"],
                 ["e6_to_su3", "identity"], ["e6_to_su3", "conjugation"]):
        assert main(["restrict", *argv]) == 0, argv
        out = capsys.readouterr()
        assert out.err == "" and out.out.count("\nZ = ") == 1, argv
        if argv[1] != "conjugation":
            assert "|²" in out.out.splitlines()[-1] and "*" not in out.out, argv


def test_cli_enumerate_builds_basis_once(monkeypatch, capsys):
    import modinv.cli
    import modinv.commutant

    calls = []
    real = modinv.commutant.commutant_basis

    def counting(md):
        calls.append(md.name)
        return real(md)

    monkeypatch.setattr(modinv.cli, "commutant_basis", counting)
    monkeypatch.setattr(modinv.commutant, "commutant_basis", counting)
    assert main(["enumerate", "zn:6:1"]) == 0
    assert calls == ["zn:6:1"]


def z2_json(h1):
    return {
        "name": "z2",
        "labels": [{"index": 0, "name": "0", "h": "0"}, {"index": 1, "name": "1", "h": h1}],
        "fusion": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]],
        "conjugation": [0, 1],
    }


def test_cli_malformed_model_files(tmp_path, capsys):
    nolabels = tmp_path / "nolabels.json"
    nolabels.write_text(json.dumps({"fusion": [], "conjugation": []}))
    assert main(["enumerate", str(nolabels)]) == 1
    err = capsys.readouterr().err
    assert err == "error: model has no 'labels' entry\n"

    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"labels": [], "fusion": [], "conjugation": []}))
    with pytest.raises(ValueError, match="no labels"):
        model_from_json(json.loads(empty.read_text()))
    assert main(["model", "validate", str(empty)]) == 2
    assert main(["enumerate", str(empty)]) == 1
    assert main(["classify", str(empty)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 3 and "Traceback" not in err

    data = {"labels": [{"index": 0, "name": "0", "h": "0"}],
            "fusion": [[0, 0, 5, 1]], "conjugation": [0]}
    with pytest.raises(ValueError, match="outside"):
        model_from_json(data)
    outside = tmp_path / "outside.json"
    outside.write_text(json.dumps(data))
    assert main(["model", "validate", str(outside)]) == 2
    assert main(["enumerate", str(outside)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 2 and "Traceback" not in err

    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps(z2_json("1/0")))
    with pytest.raises(ValueError, match="denominator 0"):
        model_from_json(z2_json("1/0"))
    assert main(["model", "validate", str(zero)]) == 2
    assert main(["enumerate", str(zero)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 2 and "Traceback" not in err


@pytest.mark.parametrize("entries, message", [
    ({2: [1, 0, 1]}, "fusion entry [1, 0, 1] does not hold 4 values"),
    ({1: [0, 1, 1, 2 ** 70], 3: [1, 1, 0, 1.5]}, "fusion entry [0, 1, 1, 1180591620717411303424] "
                                                  "has a value beyond 64-bit integers"),
    ({1: [0, 1, 1, 1.5], 3: [1, 1, 0, 2 ** 70]}, "fusion entry [0, 1, 1, 1.5] has a "
                                                  "non-integer value"),
    ({0: [0, 0, 0, 1.0], 2: [1, 0, 2, 1]}, "fusion entry [1, 0, 2, 1] has a label outside 0..1"),
], ids=["short", "beyond-first", "non-integer-first", "label"])
def test_model_file_names_the_first_offending_fusion_entry(tmp_path, capsys, entries, message):
    data = z2_json("1/4")
    for i, entry in entries.items():
        data["fusion"][i] = entry
    with pytest.raises(ValueError, match=re.escape(message)):
        model_from_json(data)
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(data))
    assert main(["model", "validate", str(path)]) == 2
    assert capsys.readouterr().err == f"invalid model: {message}\n"


@pytest.mark.parametrize("field", ["index", "fusion", "conjugation"])
def test_cli_refuses_an_infinite_value_in_a_model_file(tmp_path, capsys, field):
    # json reads Infinity, and int() of it raises OverflowError: one line.
    data = z2_json("1/4")
    if field == "index":
        data["labels"][1]["index"] = math.inf
    elif field == "fusion":
        data["fusion"][3][3] = math.inf
    else:
        data["conjugation"][1] = -math.inf
    with pytest.raises(ValueError, match="malformed model: .*infinity"):
        model_from_json(data)
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(data))
    assert "Infinity" in path.read_text()
    assert main(["model", "validate", str(path)]) == 2
    assert main(["enumerate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 2 and "Traceback" not in err
    assert err.count("malformed model") == 2


@pytest.mark.parametrize("h", ["1e-3", "1e-10000000", "0.25", 0.25, "1/-4", " 1/4",
                               "1_0/4", "inf", "nan", "", "1/4/1"])
def test_model_file_weights_take_only_the_written_form(tmp_path, capsys, h):
    # Only an optional sign, digits, and optionally / and digits: no
    # exponent can ask Fraction for a huge denominator.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="malformed model: weight .* not of the form p or p/q"):
        model_from_json(z2_json(h))
    path = tmp_path / "weight.json"
    path.write_text(json.dumps(z2_json(h)))
    assert main(["model", "validate", str(path)]) == 2
    assert main(["enumerate", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.count("\n") == 2 and "Traceback" not in err


@pytest.mark.parametrize("h", ["1/4", "+1/4", "-3/4", "5/4", "05/20"])
def test_model_file_weights_in_the_written_form_load(h):
    md = model_from_json(z2_json(h))
    assert md.spins.h[1] == Fraction(1, 4)


def test_cli_rejects_weights_breaking_omega_y(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(z2_json("1/4")))
    assert main(["model", "validate", str(good)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(z2_json("1/3")))
    assert main(["model", "validate", str(bad)]) == 2
    assert "Omega-Y" in capsys.readouterr().err
    assert main(["enumerate", str(bad)]) == 1


def test_cli_rejects_non_integral_multiplicity(tmp_path, capsys):
    data = z2_json("1/4")
    data["fusion"][3] = [1, 1, 0, 1.7]
    with pytest.raises(ValueError, match="non-integer"):
        model_from_json(data)
    path = tmp_path / "frac.json"
    path.write_text(json.dumps(data))
    assert main(["model", "validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "non-integer" in err


def test_model_file_checks_only_the_values_that_are_not_int():
    # A value of type int needs no exact check; floats and strings that
    # name integers still get one Fraction each and load the same model.
    data = model_to_json(model_by_name("zn:12:1"))
    data["fusion"][5] = [float(x) for x in data["fusion"][5]]
    data["conjugation"][1] = str(data["conjugation"][1])
    values = ([l["index"] for l in data["labels"]] + [l["h"] for l in data["labels"]]
              + [x for entry in data["fusion"] for x in entry] + data["conjugation"])
    not_int = sum(type(x) is not int for x in values)
    assert not_int == 12 + 4 + 1  # the weights are strings
    import modinv.cli
    with mock.patch.object(modinv.cli, "Fraction", side_effect=Fraction) as calls:
        md = model_from_json(data)
    assert 0 < calls.call_count <= not_int
    assert model_to_json(md.spec) == model_to_json(model_by_name("zn:12:1"))


@pytest.mark.parametrize("index", [[0, 0], [0, 2]], ids=["duplicate", "gap"])
def test_cli_rejects_label_indices_not_a_permutation(tmp_path, capsys, index):
    data = z2_json("1/4")
    for label, i in zip(data["labels"], index):
        label["index"] = i
    with pytest.raises(ValueError, match="not a permutation"):
        model_from_json(data)
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(data))
    assert main(["model", "validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "not a permutation" in err


@pytest.mark.parametrize("field", ["fusion", "conjugation"])
@pytest.mark.parametrize("value", [2 ** 70, 10 ** 30], ids=["2**70", "10**30"])
def test_cli_rejects_values_beyond_int64(tmp_path, capsys, field, value):
    path = tmp_path / "su2_1.json"
    assert main(["model", "show", "su2:1", "--json", str(path)]) == 0
    data = json.loads(path.read_text())
    if field == "fusion":
        data["fusion"][0][3] = value
    else:
        data["conjugation"][1] = value
    with pytest.raises(ValueError, match="beyond 64-bit"):
        model_from_json(data)
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["model", "validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "beyond 64-bit" in err
    assert main(["enumerate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "beyond 64-bit" in err


def test_cli_refuses_oversized_fusion_tensor(capsys):
    # su2:100000 would hold about 10^14 nonzeros: the refusal must come
    # before any large allocation.
    tracemalloc.start()
    try:
        code = main(["enumerate", "su2:100000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot build model 'su2:100000'") and err.count("\n") == 1
    assert peak < 1_000_000


def traced_peak(call):
    """(result of call(), tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["zn:1000000000000:1", "sun_currents:1000000000000:1"])
def test_cli_refuses_huge_cyclic_models_before_any_o_n_work(capsys, name):
    code, peak = traced_peak(lambda: main(["enumerate", name]))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot build model '{name}'") and err.count("\n") == 1
    assert f"{MAX_LABELS}-label limit" in err
    assert peak < 1_000_000


def test_zn_invariant_refuses_huge_n_before_allocating():
    def call():
        with pytest.raises(ValueError, match=f"{MAX_LABELS}-label limit"):
            zn_invariant(10 ** 12, 1, 1)
    assert traced_peak(call)[1] < 1_000_000


def test_model_file_with_a_huge_builtin_name(tmp_path, capsys):
    data = model_to_json(zn_model(3, 2))
    data["name"] = "zn:1000000000000:1"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    code, peak = traced_peak(lambda: main(["model", "validate", str(path)]))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid model: cannot build model") and err.count("\n") == 1
    assert peak < 1_000_000


def test_model_file_axioms_are_checked_within_a_few_copies_of_n(tmp_path, capsys):
    # A 128-label file: N is 16 MiB, and associativity is checked one
    # label slice at a time on the nonzeros.  The two dense m^4 sides of
    # the check would take 4 GiB here (86 MiB already at 48 labels).
    path = tmp_path / "zn128.json"
    path.write_text(json.dumps(model_to_json(zn_model(128, 1))))
    code, peak = traced_peak(lambda: main(["model", "validate", str(path)]))
    assert code == 0
    assert capsys.readouterr().out.startswith("model ok: zn:128:1 (m=128, ")
    assert peak < 64 * 2 ** 20


def loaded_by_the_entry_loop(data):
    """Dense N of a model file as a loop over its fusion entries reads it:
    each entry sets its cell, so the last one wins and a 0 empties it; a
    label out of range is refused at the first such entry."""
    m = len(data["labels"])
    N = np.zeros((m, m, m), dtype=int)
    for l, mu, nu, mult in data["fusion"]:
        if not all(0 <= x < m for x in (l, mu, nu)):
            raise ValueError(f"fusion entry {[l, mu, nu, mult]} has a label outside 0..{m - 1}")
        N[l, mu, nu] = mult
    problems = verify_axioms(ring_from_dense([l["name"] for l in data["labels"]], N))
    if problems:
        raise ValueError("; ".join(problems))
    return N


def outcome(call):
    try:
        return call()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("edit", [
    lambda f: f + [[1, 1, 2, 7], [1, 1, 2, 1]],  # repeated: the last value is kept
    lambda f: f + [[1, 1, 2, 1], [1, 1, 2, 7]],
    lambda f: f + [[2, 2, 2, 0]],                 # a 0 on an empty cell is dropped
    lambda f: f + [[1, 0, 1, 0]],                 # a 0 last empties its cell
    lambda f: f[::-1],                            # entries in any order
    lambda f: f + [[0, 0, 3, 1], [0, 9, 0, 1]],   # the first label out of range is named
    lambda f: f + [[1, 1, 2, -1], [2, 1, 1, 3]],
], ids=["repeat-last-kept", "repeat-last-7", "zero-dropped", "zero-empties",
        "reversed", "out-of-range", "negative-noncommutative"])
def test_model_file_fusion_entries_keep_the_entry_loop_semantics(edit):
    data = model_to_json(zn_model(3, 2))
    data["name"] = "edited"
    data["fusion"] = edit(data["fusion"])
    got = outcome(lambda: dense(model_from_json(data).ring))
    want = outcome(lambda: loaded_by_the_entry_loop(data))
    assert type(got) is type(want)
    assert got == want if isinstance(want, str) else np.array_equal(got, want)


def test_a_non_associative_model_file_is_refused(tmp_path, capsys):
    data = model_to_json(zn_model(5, 2))
    data["fusion"][data["fusion"].index([1, 1, 2, 1])] = [1, 1, 3, 1]  # [1] x [1] = [3]
    message = "associativity fails at [(1, 1, 2, 0), (1, 1, 2, 4), (1, 1, 3, 0)]"
    with pytest.raises(ValueError, match=re.escape(message)):
        model_from_json(data)
    path = tmp_path / "assoc.json"
    path.write_text(json.dumps(data))
    assert main(["model", "validate", str(path)]) == 2
    # [1] x [1] = [3] also breaks Frobenius reciprocity: no label times [1]
    # gives [2] now, while [4] x [2] = [1], so M[1, 2] = 0 and M[2, 1] = 1.
    assert capsys.readouterr() == ("", f"invalid model: {message}; {reciprocity_message(1, 2)}\n")


def readme_commands():
    """The `modinv ...` lines of the README's "Command line" block."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("modinv ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    assert len(commands) == 10
    monkeypatch.chdir(tmp_path)
    for argv in commands:  # in order: 'model validate' reads what 'model show' wrote
        assert main(argv) == 0, argv
        assert "Traceback" not in capsys.readouterr().err, argv


def test_readme_quick_tour_runs():
    # Runs the "Quick tour" block and checks the values its comments state.
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Quick tour", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    scope = {}
    exec(block, scope)
    assert len(scope["invs"]) == 3
    assert scope["rep"].kind == "type II"
    assert scope["rep"].parents == {"plus": 2, "minus": 2}


def test_fusion_tensor_limit_covers_every_builder(tmp_path, capsys):
    m = MAX_LABELS + 1
    for build_spec in (lambda: su2_model(m - 1), lambda: zn_model(m, 2),
                       lambda: tensor_product(su2_model(16), su2_model(16))):
        with pytest.raises(ValueError, match=f"{MAX_LABELS}-label limit"):
            build_spec()
    data = {"name": "big", "fusion": [], "conjugation": list(range(m)),
            "labels": [{"index": i, "name": str(i), "h": "0"} for i in range(m)]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    assert main(["model", "validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{MAX_LABELS}-label limit" in err


def test_cli_refuses_an_inexact_basis(monkeypatch, capsys):
    import modinv.commutant

    monkeypatch.setattr(modinv.commutant, "_rationalize", lambda R: None)
    assert main(["enumerate", "su2:6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    monkeypatch.undo()
    # With no room for the basis residuals, the one bound that certifies
    # the whole list fails.
    monkeypatch.setattr(modinv.commutant, "FINAL_TOL", 0.0)
    with pytest.raises(RuntimeError, match="basis residuals bound"):
        enumerate_invariants(build(su2_model(6)))
    assert main(["enumerate", "su2:6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: basis residuals bound") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_product_model_names(capsys):
    assert main(["enumerate", "su2:4*su2:4"]) == 0
    assert "13 physical invariants" in capsys.readouterr().out
    assert main(["graphs", "su2:4*su2:4"]) == 1
    assert "su2 models only" in capsys.readouterr().err
    assert main(["extend", "zn:6:1*zn:6:1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("zn:6:1*zn:6:1: cyclic current subgroups")
    assert "divisor invariants" not in out and "admissible orders" not in out


def test_cli_long_product_names(capsys):
    # 1,500 factors of a valid one-label model is one valid model, not a
    # RecursionError (exit 2); nine zn:2:1 factors stay one refusal line.
    name = "*".join(["zn:1:0"] * 1500)
    assert main(["model", "show", name]) == 0
    assert capsys.readouterr().out.startswith(f"model {name}: 1 sectors, w = 1.000000\n")
    assert main(["enumerate", "*".join(["zn:2:1"] * 9)]) == 1
    assert capsys.readouterr().err == "error: 512 labels exceed the 256-label limit\n"


def test_cli_enumerates_a_product_beyond_the_product_scan(capsys):
    assert main(["enumerate", "su2:8*su2:8"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("su2:8*su2:8: commutant rank 13 (modular), 13 physical invariants\n")
    assert out.count("invariant ") == 13 and out.count("\n") == 1 + 13 * (1 + 81)


# Names that break the grammar, each with the one message it must keep.
GRAMMAR_EDGES = [
    ("su2:1:2", "unknown model name 'su2:1:2'"),
    ("so8_1:3", "unknown model name 'so8_1:3'"),
    ("zn:7", "unknown model name 'zn:7'"),
    ("su2:0", "cannot build model 'su2:0': level must be a positive integer"),
    ("foo*su2:4", "unknown model name 'foo'"),
    ("su2:x*foo", "cannot build model 'su2:x': invalid literal for int() with base 10: 'x'"),
]


@pytest.mark.parametrize("name, message", [
    ("zn:x:2", "cannot build model 'zn:x:2'"),
    ("sun_currents:3", "unknown model name 'sun_currents:3'"),
    ("zn:7:2", "model data does not match the built-in model 'zn:7:2'"),
    *GRAMMAR_EDGES,
    ("su2:4*su2:4", "model data does not match the built-in model 'su2:4*su2:4'"),
])
def test_model_file_with_a_false_builtin_name(tmp_path, capsys, name, message):
    data = model_to_json(zn_model(3, 2))
    data["name"] = name
    with pytest.raises(ValueError, match=re.escape(message)):
        model_from_json(data)
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(data))
    assert main(["extend", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert main(["model", "validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid model: {message}") and err.count("\n") == 1
    data["name"] = "z3 renamed"
    assert model_from_json(data).name == "z3 renamed"


@pytest.mark.parametrize("name, message", GRAMMAR_EDGES + [
    ("zn:x:2", "cannot build model 'zn:x:2': invalid literal for int() with base 10: 'x'"),
    ("sun_currents:3", "unknown model name 'sun_currents:3'"),
])
def test_cli_model_name_grammar_errors(capsys, name, message):
    for argv in (["enumerate"], ["classify"], ["graphs"], ["extend"], ["model", "show"]):
        assert main([*argv, name]) == 1, argv
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv
    assert main(["model", "validate", name]) == 2
    assert capsys.readouterr() == ("", f"invalid model: {message}\n")


def test_every_command_builds_its_model_once(tmp_path, monkeypatch, capsys):
    import modinv.modular

    real, calls = modinv.modular.build, []

    def counting(spec, *args, **kwargs):
        calls.append(spec.name)
        return real(spec, *args, **kwargs)

    for mod in [m for n, m in sys.modules.items() if n.startswith("modinv")]:
        if getattr(mod, "build", None) is real:
            monkeypatch.setattr(mod, "build", counting)
    path = tmp_path / "su2_4.json"
    assert main(["model", "show", "su2:4", "--json", str(path)]) == 0
    for model in ("su2:4", str(path)):
        for argv in (["model", "validate"], ["model", "show"], ["enumerate"],
                     ["classify"], ["graphs"], ["extend"]):
            calls.clear()
            assert main([*argv, model]) == 0, (argv, model)
            assert calls == ["su2:4"], (argv, model)
    capsys.readouterr()


def test_a_model_file_computes_d_once(tmp_path, monkeypatch, capsys):
    # The axiom check reads the ring's cached d, which build reads again.
    from modinv import fusion

    real, calls = fusion.quantum_dimensions, []

    def counting(ring):
        calls.append(ring.size)
        return real(ring)

    monkeypatch.setattr(fusion, "quantum_dimensions", counting)
    path = tmp_path / "su2_4.json"
    assert main(["model", "show", "su2:4", "--json", str(path)]) == 0
    calls.clear()
    assert main(["model", "validate", str(path)]) == 0
    assert calls == [5]
    capsys.readouterr()


def test_extend_scans_the_current_subgroups_once(monkeypatch, capsys):
    import modinv.cli
    import modinv.extensions

    real, calls = modinv.extensions.rehren_admissible, []

    def counting(spec):
        calls.append(spec.name)
        return real(spec)

    monkeypatch.setattr(modinv.extensions, "rehren_admissible", counting)
    monkeypatch.setattr(modinv.cli, "rehren_admissible", counting)
    assert main(["extend", "sun_currents:12:2"]) == 0
    assert calls == ["sun_currents:12:2"]
    assert "admissible orders: [1, 2, 3, 4, 6, 12]" in capsys.readouterr().out


def test_cli_refuses_a_conjugation_other_than_the_vacuum_slice(tmp_path, capsys):
    data = model_to_json(zn_model(5, 2))
    data["conjugation"] = [0, 1, 2, 3, 4]  # the vacuum slice gives j -> -j
    message = "conjugation [0, 1, 2, 3, 4] is not the vacuum slice's [0, 4, 3, 2, 1]"
    with pytest.raises(ValueError, match=re.escape(message)):
        model_from_json(data)
    path = tmp_path / "conj.json"
    path.write_text(json.dumps(data))
    assert main(["model", "validate", str(path)]) == 2
    assert capsys.readouterr() == ("", f"invalid model: {message}\n")
    assert main(["enumerate", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("option", ["enumerate --json", "model show --json", "graphs --dot"])
def test_cli_unwritable_output_path(tmp_path, capsys, option):
    regular = tmp_path / "regular"
    regular.write_text("")
    target = {"--json": tmp_path / "missing" / "out.json", "--dot": regular / "dots"}
    *command, flag = option.split()
    assert main([*command, "su2:4", flag, str(target[flag])]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: [Errno ") and err.count("\n") == 1, err
    assert str(target[flag]) in err


@pytest.mark.parametrize("before", [None, "kept\n"])
def test_a_later_failure_leaves_the_json_path_as_it_was(tmp_path, capsys, before):
    # The file is opened before the work, to append, and replaced only at
    # the end: an oracle mismatch (exit 2) leaves an old file untouched
    # and a new path empty.
    path = tmp_path / "out.json"
    if before is not None:
        path.write_text(before)
    with mock.patch("modinv.cli.brute_force_enumerate", return_value=[]):
        assert main(["enumerate", "su2:4", "--oracle", "--json", str(path)]) == 2
    assert capsys.readouterr().err == "oracle mismatch: brute force disagrees\n"
    assert path.read_text() == (before or "")


def test_a_model_file_can_be_shown_into_itself(tmp_path, capsys):
    path = tmp_path / "su2_4.json"
    assert main(["model", "show", "su2:4", "--json", str(path)]) == 0
    text = path.read_text()
    assert main(["model", "show", str(path), "--json", str(path)]) == 0
    assert path.read_text() == text
