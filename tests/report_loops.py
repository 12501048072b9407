"""Test-only references for the report layer: the per-label loops that
render_partition_function, matrix_to_json, graph_to_dot, simple_currents,
rehren_admissible, permutation_test and simple_current_test were written
as before they became whole-array operations.  The package must match
them exactly.
`charge_conjugation_from_s` is the per-row loop build once read C from
S^2 with; C now comes from the ring, and must equal it on modular data.

`report_models()` enumerates the 273 catalog models and the large_modular
and dense_search benchmark models once per test process, each name once:
its first 273 entries are the catalog.
"""

import functools

import numpy as np

from modinv import build, enumerate_invariants
from modinv.catalog import catalog_names, model_by_name
from modinv.modular import UNITARITY_TOL
from dense import dense

# The float current test the package used before it read currents exactly
# off N: |d - 1| below this bound.
CURRENT_TOL = 1e-6

# The benchmark models outside the catalog; su2:28 (large_modular) is in it.
WORKLOAD_MODELS = ["zn:96:1", "zn:128:1", "sun_currents:12:2",
                   "sun_currents:8:4", "su2:4*su2:4", "zn:6:1*zn:6:1"]


@functools.lru_cache(maxsize=1)
def report_models():
    """(name, modular data, invariants) of every catalog and workload model."""
    names = catalog_names() + WORKLOAD_MODELS
    assert len(set(names)) == len(names), "report models must be distinct"
    out = []
    for name in names:
        md = build(model_by_name(name))
        out.append((name, md, enumerate_invariants(md)))
    return out


def charge_conjugation_from_s(S):
    """The permutation matrix C = S^2, or None if S^2 is not one."""
    m = S.shape[0]
    S2 = S @ S
    C = np.zeros((m, m), dtype=int)
    for i in range(m):
        row = S2[i]
        j = int(np.argmax(np.abs(row)))
        e = np.zeros(m)
        e[j] = 1.0
        if np.max(np.abs(row - e)) > UNITARITY_TOL:
            return None
        C[i, j] = 1
    if not np.array_equal(C.sum(axis=0), np.ones(m, dtype=int)):
        return None
    return C


def matrix_to_json_loop(Z):
    return [[int(x) for x in row] for row in np.asarray(Z)]


def render_loop(Z, names=None, branching=None):
    Z = np.asarray(Z, dtype=int)
    m = Z.shape[0]
    if names is None:
        names = [str(i) for i in range(m)]
    if branching is not None:
        b = branching.b
        if not np.array_equal(b.T @ b, Z):
            raise ValueError("branching table does not reproduce the matrix")
        terms = []
        seen = []
        for t in range(b.shape[0]):
            if t in seen:
                continue
            dup = [u for u in range(b.shape[0]) if np.array_equal(b[u], b[t])]
            seen.extend(dup)
            inner = []
            for lam in range(m):
                c = int(b[t, lam])
                if c == 0:
                    continue
                inner.append(f"{c if c > 1 else ''}χ{names[lam]}")
            pre = f"{len(dup)}" if len(dup) > 1 else ""
            terms.append(f"{pre}|{' + '.join(inner)}|²")
        return " + ".join(terms)
    terms = []
    for lam in range(m):
        c = int(Z[lam, lam])
        if c:
            pre = f"{c}" if c > 1 else ""
            terms.append(f"{pre}|χ{names[lam]}|²")
    for lam in range(m):
        for mu in range(m):
            if lam == mu:
                continue
            c = int(Z[lam, mu])
            if c:
                pre = f"{c}" if c > 1 else ""
                terms.append(f"{pre}χ{names[lam]}χ{names[mu]}*")
    return " + ".join(terms) if terms else "0"


def dot_loop(graph):
    A = graph.adjacency
    n = A.shape[0]
    sym = np.array_equal(A, A.T)
    kind, arrow = ("graph", "--") if sym else ("digraph", "->")
    lines = [f"{kind} \"{graph.name or 'G'}\" {{"]
    for i in range(n):
        lines.append(f'  n{i} [label="{graph.names[i]}"];')
    for i in range(n):
        for j in range(n):
            if sym and j < i:
                continue
            for _ in range(int(A[i, j])):
                lines.append(f"  n{i} {arrow} n{j};")
    lines.append("}")
    return "\n".join(lines)


def simple_currents_loop(ring):
    """{cyclic subgroup (labels, ascending): smallest generator}, walking
    the powers of each current cell by cell, or the ValueError text."""
    d = ring.d
    elems = [i for i in range(ring.size) if abs(d[i] - 1.0) < CURRENT_TOL]
    pos = {g: k for k, g in enumerate(elems)}
    n = len(elems)
    N = dense(ring)
    for g in elems:
        A = N[g]
        if not (np.all(A.sum(axis=1) == 1) and A.max() == 1):
            return f"simple current {g} does not act as a permutation"
    table = np.full((n, n), -1, dtype=int)
    for i, g in enumerate(elems):
        for j, h in enumerate(elems):
            prod = int(np.nonzero(N[g, h])[0][0])
            if prod not in pos:
                return "simple currents do not close under fusion"
            table[i, j] = pos[prod]
    for g in elems:
        if int(ring.conj[g]) not in pos:
            return "simple currents do not close under conjugation"
    subgroups = {}
    for g in elems:
        cyc = [0]
        x = pos[g]
        while x != 0:
            cyc.append(elems[x])
            x = int(table[x, pos[g]])
        key = tuple(sorted(cyc))
        if key not in subgroups or g < subgroups[key]:
            subgroups[key] = g
    return subgroups


def rehren_admissible_loop(spec):
    """[generator, order, elements, h, admissible, ring size] per cyclic
    current subgroup, by walking the powers of each current."""
    records = []
    for key, gen in simple_currents_loop(spec.ring).items():
        h = spec.spins.h[gen]
        records.append([gen, len(key), list(key), str(h),
                        (len(key) * h).denominator == 1, spec.ring.size])
    records.sort(key=lambda r: (r[1], r[0]))
    return records


def permutation_test_loop(Z, ring, spins=None):
    Z = np.asarray(Z)
    m = Z.shape[0]
    if not (np.all((Z == 0) | (Z == 1)) and np.all(Z.sum(axis=0) == 1)
            and np.all(Z.sum(axis=1) == 1)):
        return None
    theta = np.array([int(np.argmax(Z[i])) for i in range(m)])
    rep = {"theta": theta, "fixes_vacuum": bool(theta[0] == 0)}
    N = dense(ring)
    Np = N[theta][:, theta][:, :, theta]
    rep["fusion_ok"] = bool(np.array_equal(Np, N))
    if spins is not None:
        rep["spin_ok"] = all(spins.h[int(theta[i])] == spins.h[i] for i in range(m))
    rep["consistent"] = bool(
        rep["fixes_vacuum"] and rep["fusion_ok"] and rep.get("spin_ok", True))
    return rep


def simple_current_test_loop(Z, ring):
    d = ring.d
    currents = [i for i in range(ring.size) if abs(d[i] - 1.0) < CURRENT_TOL]
    N = dense(ring)
    reach = np.zeros((ring.size, ring.size), dtype=bool)
    for s in currents:
        reach |= N[s].astype(bool)
    return bool(np.all(reach[np.asarray(Z) != 0]))
