"""Command line front end: model inspection, enumeration, classification,
graph assignment, extension and restriction reports.

A model, a catalog name or a .json file, is loaded and built once.  Exit
codes: 0 on success, 1 on usage errors (bad arguments, unknown model, an
unwritable output path), 2 when a verification step fails (model validation,
oracle cross-check, a refused commutant basis).  All output is deterministic.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from fractions import Fraction
from itertools import chain
from typing import Dict, List, Optional, Sequence

import numpy as np

from .catalog import (
    BranchingTable,
    branching_catalog,
    model_by_name,
    name_family,
)
from .classify import _int64, classify_list
from .commutant import brute_force_enumerate, commutant_basis, enumerate_invariants
from .extensions import (
    rehren_admissible,
    restrict,
    so8_restriction_sweep,
    sun_divisor_table,
    theta_vector,
    zn_invariant_table,
)
from .fusion import FusionRing, check_size, verify_axioms
from .graphs import Graph, ade_assignment
from .modular import ModelSpec, ModularData, SpinAssignment, build

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2


# ---------------------------------------------------------------------------
# serialization

def _model_payload(spec: ModelSpec) -> Dict[str, object]:
    """model_to_json with the fusion nonzeros as one (nnz, 4) int array."""
    ring = spec.ring
    return {
        "name": spec.name,
        "labels": [
            {"index": i, "name": name, "h": str(spec.spins.h[i])}
            for i, name in enumerate(ring.names)
        ],
        "fusion": np.column_stack(ring.nonzeros),
        "conjugation": [int(x) for x in ring.conj],
    }


def model_to_json(spec: ModelSpec) -> Dict[str, object]:
    """Portable model description: labels with exact weights, the nonzero
    fusion multiplicities [l, mu, nu, N], conjugation permutation."""
    payload = _model_payload(spec)
    payload["fusion"] = payload["fusion"].tolist()
    return payload


def _integers(values: Sequence[object], what: str) -> List[int]:
    """The values as ints; a value that int() would truncate, or that does
    not fit the int64 arrays it goes into, is refused.  A value of type
    int is its own int; only the others go through the exact check."""
    out = [int(x) for x in values]
    if any(type(x) is not int and Fraction(str(x)) != v for x, v in zip(values, out)):
        raise ValueError(f"{what} {list(values)} has a non-integer value")
    if any(not -2 ** 63 <= v < 2 ** 63 for v in out):
        raise ValueError(f"{what} {list(values)} has a value beyond 64-bit integers")
    return out


def _fusion_entries(fusion: Sequence[Sequence[object]]) -> np.ndarray:
    """The fusion entries as one (n, 4) int64 array, read as _integers
    reads each entry.  Values of type int within int64 are taken in one
    conversion; only the entries holding another value go through
    _integers, in order, so the first offending entry raises its message."""
    entries = list(fusion)
    flat = list(chain.from_iterable(entries))
    if set(map(len, entries)) - {4}:
        short = next(e for e in entries if len(e) != 4)
        raise ValueError(f"fusion entry {list(short)} does not hold 4 values")
    try:
        if set(map(type, flat)) <= {int}:
            return np.array(flat, dtype=np.int64).reshape(-1, 4)
    except OverflowError:
        pass
    odd = sorted({i // 4 for i, x in enumerate(flat)
                  if type(x) is not int or not -2 ** 63 <= x < 2 ** 63})
    for i in odd:
        flat[4 * i:4 * i + 4] = _integers(entries[i], "fusion entry")
    return np.array(flat, dtype=np.int64).reshape(-1, 4)


# A weight as model_to_json writes it: an optional sign, digits, and
# optionally / and digits.  No point or exponent, so the size of the
# Fraction is the size of the text.
_WEIGHT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _weight(h: object) -> Fraction:
    text = str(h)
    if not _WEIGHT.fullmatch(text):
        raise ValueError(f"malformed model: weight {text!r} is not of the form p or p/q")
    return Fraction(text)


def model_from_json(data: Dict[str, object]) -> ModularData:
    """Inverse of model_to_json, built: the label indices, the ring axioms
    and the Omega-Y relation (by the one build) are re-verified, the
    conjugation must be the one the vacuum slice gives, and a built-in
    model name must name this very ring and weights.  Malformed
    or inconsistent input raises ValueError."""
    try:
        labels = sorted(data["labels"], key=lambda l: int(l["index"]))
        index = _integers([l["index"] for l in labels], "label index list")
        names = [str(l["name"]) for l in labels]
        h = [_weight(l["h"]) for l in labels]
        fusion = _fusion_entries(data["fusion"])
        conj = _integers(data["conjugation"], "conjugation")
    except KeyError as exc:
        raise ValueError(f"model has no {exc} entry") from None
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed model: {exc}") from None
    except ZeroDivisionError:
        raise ValueError("malformed model: a weight has denominator 0") from None
    m = len(labels)
    if index != list(range(m)):
        raise ValueError(f"label indices {index} are not a permutation of 0..{m - 1}")
    check_size(m)
    outside = np.flatnonzero(((fusion[:, :3] < 0) | (fusion[:, :3] >= m)).any(axis=1))
    if len(outside):
        raise ValueError(f"fusion entry {fusion[outside[0]].tolist()} has a label "
                         f"outside 0..{m - 1}")
    # N_{l mu}^nu is the last value an entry gives it, 0 when none does.
    key = (fusion[:, 0] * m + fusion[:, 1]) * m + fusion[:, 2]
    _, last = np.unique(key[::-1], return_index=True)
    entries = fusion[len(fusion) - 1 - last]
    ring = FusionRing(names, *entries[entries[:, 3] != 0].T)
    if conj != ring.conj.tolist():
        raise ValueError(f"conjugation {conj} is not the vacuum slice's {ring.conj.tolist()}")
    problems = verify_axioms(ring)
    if problems:
        raise ValueError("; ".join(problems))
    md = build(ModelSpec(ring, SpinAssignment(h), name=str(data.get("name", ""))))
    # Commands key tables on a built-in name, so such a name must be the model.
    if name_family(md.name)[0]:
        ref = model_by_name(md.name)
        if not (all(map(np.array_equal, ref.ring.nonzeros, ring.nonzeros))
                and ref.spins.h == md.spins.h):
            raise ValueError(f"model data does not match the built-in model '{md.name}'")
    return md


def matrix_to_json(Z: np.ndarray) -> List[List[int]]:
    """Z as nested lists of ints; a non-integral value is a ValueError."""
    return _int64(Z).tolist()


# An integer array becomes text through a %-template built once for its
# shape: one C-level % call in place of one Python step per cell.

def _fill(a: np.ndarray, template: str) -> str:
    if a.dtype.kind not in "iu":
        raise TypeError(f"only integer arrays are written as text, not {a.dtype}")
    return template % tuple(a.ravel().tolist())


def _json_layout(items: List[str], pad: str, brackets: str = "[]") -> str:
    """Rendered items as json.dumps(indent=2) lays out a list (or a dict)
    whose own line starts with pad."""
    if not items:
        return brackets
    inner = "\n" + pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + pad + brackets[1]


def _json_template(shape: Sequence[int], pad: str) -> str:
    if not shape:
        return "%d"
    return _json_layout([_json_template(shape[1:], pad + "  ")] * shape[0], pad)


def _json_text(value: object, pad: str = "") -> str:
    """The bytes json.dumps(value, indent=2, sort_keys=True) gives, where
    value may hold integer numpy arrays, each written as its nested list."""
    if isinstance(value, np.ndarray):
        return _fill(value, _json_template(value.shape, pad))
    if isinstance(value, dict):
        return _json_layout([f"{json.dumps(k)}: {_json_text(v, pad + '  ')}"
                             for k, v in sorted(value.items())], pad, "{}")
    if isinstance(value, (list, tuple)):
        return _json_layout([_json_text(v, pad + "  ") for v in value], pad)
    return json.dumps(value)


def _write_json(f, payload: Dict[str, object]) -> None:
    """Replace the text of f, the --json file, which a command opens to
    append before any work: an unwritable path fails first, and a failed
    command leaves the file as it was."""
    text = _json_text(payload)
    f.truncate(0)
    f.write(text)
    print(f"wrote {f.name}")


def _matrix_rows(Z: np.ndarray) -> str:
    """The rows of Z, each as two spaces and its %2d cells."""
    rows, cols = Z.shape
    return _fill(Z, "\n".join(["  " + " ".join(["%2d"] * cols)] * rows))


# ---------------------------------------------------------------------------
# rendering

def _chi(name: str) -> str:
    return f"χ{name}"


def _mult(c: int) -> str:
    return f"{c}" if c > 1 else ""


def render_partition_function(
    Z: np.ndarray,
    names: Optional[Sequence[str]] = None,
    branching: Optional[BranchingTable] = None,
) -> str:
    """Character-sum form of a coupling matrix.

    With a branching table the blocks are rendered as |chi+...|^2 with
    multiplicities for repeated rows, in first-seen order; otherwise
    diagonal terms come first (ascending), then off-diagonal terms
    row-major.  A non-integral value of Z is a ValueError.  b^T b = Z is
    checked by one float64 product, exact while every column's sum of
    squares sum_t b_{t lam}^2 is below 2^53; a larger table is refused.
    """
    Z = _int64(Z)
    m = Z.shape[0]
    if names is None:
        names = [str(i) for i in range(m)]

    if branching is not None:
        b = branching.b
        bf = b.astype(float)
        gram = bf.T @ bf
        if not gram.diagonal().max() < 2.0 ** 53:
            raise ValueError("branching table has a column whose sum of squares "
                             "reaches 2^53, beyond an exact check")
        if not np.array_equal(gram, Z):
            raise ValueError("branching table does not reproduce the matrix")
        repeats: Dict[tuple, int] = {}
        for row in map(tuple, b.tolist()):
            repeats[row] = repeats.get(row, 0) + 1
        blocks = np.array(list(repeats), dtype=int)
        t, lam = np.nonzero(blocks)
        inner: List[List[str]] = [[] for _ in repeats]
        for i, l, c in zip(t.tolist(), lam.tolist(), blocks[t, lam].tolist()):
            inner[i].append(f"{_mult(c)}{_chi(names[l])}")
        return " + ".join(f"{_mult(k)}|{' + '.join(chis)}|²"
                          for k, chis in zip(repeats.values(), inner))

    diag = Z.diagonal()
    (lam,) = np.nonzero(diag)
    terms = [f"{_mult(c)}|{_chi(names[l])}|²"
             for l, c in zip(lam.tolist(), diag[lam].tolist())]
    off = Z - np.diag(diag)
    lam, mu = np.nonzero(off)
    terms += [f"{_mult(c)}{_chi(names[l])}{_chi(names[u])}*"
              for l, u, c in zip(lam.tolist(), mu.tolist(), off[lam, mu].tolist())]
    return " + ".join(terms) if terms else "0"


def graph_to_dot(graph: Graph) -> str:
    """DOT text; undirected when the adjacency is symmetric."""
    A = graph.adjacency
    sym = np.array_equal(A, A.T)
    kind, arrow = ("graph", "--") if sym else ("digraph", "->")
    lines = [f"{kind} \"{graph.name or 'G'}\" {{"]
    lines += [f'  n{i} [label="{name}"];' for i, name in enumerate(graph.names)]
    # Each edge i -> j (i <= j when undirected) is one line per unit of A_ij.
    i, j = np.nonzero((np.triu(A) if sym else A) > 0)
    mult = A[i, j]
    lines += [f"  n{a} {arrow} n{b};"
              for a, b in zip(np.repeat(i, mult).tolist(), np.repeat(j, mult).tolist())]
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# helpers

class _UsageError(Exception):
    """A usage error that main() reports as 'error: ...' with exit 1."""


def _load_model(name: str) -> ModularData:
    """The one build of a built-in model name or a .json model file."""
    try:
        if name.endswith(".json"):
            with open(name) as f:
                return model_from_json(json.load(f))
        return build(model_by_name(name))
    except (ValueError, OSError) as exc:
        raise _UsageError(exc) from None


def _fmt_complex(x: complex) -> str:
    return f"{x.real:+.6f}{x.imag:+.6f}i"


# ---------------------------------------------------------------------------
# commands

def cmd_model(args: argparse.Namespace) -> int:
    if args.action == "list":
        print("built-in models:")
        print("  su2:K            su(2) at level K (K >= 1)")
        print("  zn:N:A           Z_N spin model, weight A (see 'extend' for A choices)")
        print("  sun_currents:N:K current sector of su(N)_K")
        print("  so8_1            so(8) level 1")
        print("  so16_1           so(16) level 1")
        print("  A*B              product of two models")
        return EXIT_OK

    if args.action == "validate":
        try:
            md = _load_model(args.name)
        except _UsageError as exc:
            print(f"invalid model: {exc}", file=sys.stderr)
            return EXIT_VERIFY
        print(f"model ok: {md.name or args.name} (m={md.ring.size}, "
              f"nondegenerate={md.nondegenerate})")
        return EXIT_OK

    # show
    with open(args.json, "a") if args.json else contextlib.nullcontext() as f:
        md = _load_model(args.name)
        ring = md.ring
        print(f"model {md.name}: {ring.size} sectors, w = {md.w:.6f}")
        if md.nondegenerate:
            print(f"nondegenerate, c = {md.c:.6f} (mod 8), z = {_fmt_complex(md.z)}")
        else:
            print(f"degenerate: {md.degenerate_reason}")
        print("labels:")
        d = ring.d
        for i, name in enumerate(ring.names):
            print(f"  {i:3d}  {name:>10s}  h={str(md.spins.h[i]):>8s}  d={d[i]:.6f}")
        if md.nondegenerate and ring.size <= 8:
            print("S:")
            for row in md.S:
                print("  [" + "  ".join(_fmt_complex(x) for x in row) + "]")
        if f:
            _write_json(f, _model_payload(md.spec))
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    with open(args.json, "a") if args.json else contextlib.nullcontext() as f:
        md = _load_model(args.model)
        basis = commutant_basis(md)
        invs = enumerate_invariants(md, basis=basis)
        print(f"{md.name}: commutant rank {basis.r} ({basis.kind}), "
              f"{len(invs)} physical invariants")
        for i, Z in enumerate(invs):
            print(f"invariant {i}: trace {int(np.trace(Z))}")
            print(_matrix_rows(Z))
        if args.oracle:
            ref = brute_force_enumerate(md)
            if not (len(ref) == len(invs) and all(map(np.array_equal, ref, invs))):
                print("oracle mismatch: brute force disagrees", file=sys.stderr)
                return EXIT_VERIFY
            print(f"oracle agrees ({len(ref)} invariants)")
        if f:
            _write_json(f, {
                "model": md.name,
                "commutant": {"rank": basis.r, "kind": basis.kind, "exact": basis.exact},
                "invariants": invs,
            })
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    md = _load_model(args.model)
    invs = enumerate_invariants(md)
    print(f"{md.name}: {len(invs)} invariants")
    for i, (Z, rep) in enumerate(zip(invs, classify_list(invs, md))):
        tags = [rep.kind]
        if rep.permutation is not None:
            tags.append("automorphism")
        if rep.heterotic:
            tags.append("heterotic")
        if rep.simple_current_supported:
            tags.append("current-supported")
        parents = rep.parents or {}
        print(f"invariant {i}: {', '.join(tags)}")
        print(f"  trace {rep.counts['trace']}, sum Z^2 {rep.counts['sum_squares']}, "
              f"w+ {rep.indices['w_plus']:.6f}, w- {rep.indices['w_minus']:.6f}")
        print(f"  parents: plus={parents.get('plus')}, minus={parents.get('minus')}")
        print(f"  Z = {render_partition_function(Z, branching=rep.branching)}")
    return EXIT_OK


def cmd_graphs(args: argparse.Namespace) -> int:
    if args.dot:
        os.makedirs(args.dot, exist_ok=True)
    md = _load_model(args.model)
    if name_family(md.name)[0] != "su2":
        print("graph assignment covers su2 models only", file=sys.stderr)
        return EXIT_USAGE
    invs = enumerate_invariants(md)
    for i, Z in enumerate(invs):
        graphs = ade_assignment(md, Z)
        names = ", ".join(g.name for g in graphs) or "(none)"
        print(f"invariant {i} (trace {int(np.trace(Z))}): {names}")
        if args.dot:
            for g in graphs:
                path = os.path.join(args.dot, f"{md.name.replace(':', '_')}_inv{i}_{g.name}.dot")
                with open(path, "w") as f:
                    f.write(graph_to_dot(g) + "\n")
                print(f"  wrote {path}")
    return EXIT_OK


def cmd_extend(args: argparse.Namespace) -> int:
    md = _load_model(args.model)
    family, params = name_family(md.name)
    # sun_divisor_table scans the same model's subgroups for its cross-check.
    tab = sun_divisor_table(*params) if family == "sun_currents" else None
    records = tab["records"] if tab else rehren_admissible(md.spec)
    print(f"{md.name}: cyclic current subgroups")
    for r in records:
        flag = "admissible" if r.admissible else "not admissible"
        print(
            f"  gen {r.generator} order {r.order} h={r.h_generator} [{flag}] "
            f"theta={theta_vector(r).tolist()}"
        )
    if family == "zn":
        print("divisor invariants:")
        for delta, Z in sorted(zn_invariant_table(*params).items()):
            print(f"  Z^({delta}): trace {int(np.trace(Z))}")
    if tab:
        print(f"admissible orders: {tab['orders']}")
        print(f"locality by order: {tab['locality']}")
    return EXIT_OK


def cmd_restrict(args: argparse.Namespace) -> int:
    tables = branching_catalog()
    if args.table not in tables:
        print(
            f"unknown table '{args.table}'; have: {', '.join(sorted(tables))}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    table = tables[args.table]
    if args.invariant == "sweep":
        if args.table != "so8_to_su3":
            print("sweep is defined for so8_to_su3 only", file=sys.stderr)
            return EXIT_USAGE
        res = so8_restriction_sweep()
        Z = res["matrix"]
        print(f"all {res['count']} invariants restrict to:")
    else:
        rows = table.rows
        if args.invariant == "identity":
            Z_ext = np.eye(rows, dtype=int)
        elif args.invariant == "conjugation":
            if args.table == "so8_to_su3":
                print(
                    "conjugation is trivial for so8_to_su3; use identity or sweep",
                    file=sys.stderr,
                )
                return EXIT_USAGE
            Z_ext = np.zeros((rows, rows), dtype=int)
            for t in range(rows):
                Z_ext[t, (-t) % rows] = 1
        else:
            print("invariant must be identity, conjugation or sweep", file=sys.stderr)
            return EXIT_USAGE
        Z = restrict(table, Z_ext)
        print(f"{args.table} / {args.invariant}:")
    print(_matrix_rows(Z))
    print(f"trace {int(np.trace(Z))}, sum {int(Z.sum())}")
    b = table if args.invariant in ("identity", "sweep") else None
    print("Z = " + render_partition_function(Z, names=table.col_names, branching=b))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1, not 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def make_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="modinv", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("model", help="list, show or validate models")
    pm.add_argument("action", choices=["list", "show", "validate"])
    pm.add_argument("name", nargs="?", help="model name or JSON file")
    pm.add_argument("--json", help="write the model as JSON to this path")
    pm.set_defaults(func=cmd_model)

    pe = sub.add_parser("enumerate", help="enumerate physical invariants")
    pe.add_argument("model")
    pe.add_argument("--oracle", action="store_true", help="brute-force cross-check")
    pe.add_argument("--json", help="write results as JSON to this path")
    pe.set_defaults(func=cmd_enumerate)

    pc = sub.add_parser("classify", help="classify enumerated invariants")
    pc.add_argument("model")
    pc.set_defaults(func=cmd_classify)

    pg = sub.add_parser("graphs", help="assign graphs to su2 invariants")
    pg.add_argument("model")
    pg.add_argument("--dot", help="directory for DOT exports")
    pg.set_defaults(func=cmd_graphs)

    px = sub.add_parser("extend", help="admissible current extensions")
    px.add_argument("model")
    px.set_defaults(func=cmd_extend)

    pr = sub.add_parser("restrict", help="restrict an extended invariant")
    pr.add_argument("table")
    pr.add_argument("invariant", help="identity, conjugation or sweep")
    pr.set_defaults(func=cmd_restrict)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "model" and args.action in ("show", "validate") and not args.name:
        print("model show/validate needs a name", file=sys.stderr)
        return EXIT_USAGE
    try:
        return int(args.func(args))
    except (_UsageError, OSError) as exc:  # OSError: an unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
