"""Fusion graphs: A-D-E and tadpole catalog, su(2) nimreps, assignment
by exponents, and the tadpole exclusion at odd level.

A nimrep assigns to every label a nonnegative integer matrix so that
the assignment reproduces the fusion rules; for su(2) the whole tower
is generated from the graph adjacency by the Chebyshev recursion.  Its
exponents, how often each character of the fusion ring occurs in it,
follow from the traces of the tower by character orthogonality; a graph
fits an invariant Z when they are the diagonal of Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .catalog import su2_model
from .modular import ModularData

__all__ = [
    "Graph",
    "graph_catalog",
    "su2_nimrep_from_graph",
    "spectrum_match",
    "ade_assignment",
    "TadpoleRecord",
    "tadpole_exclusion",
]

PF_TOL = 1e-6


@dataclass
class Graph:
    """A finite multigraph given by its integer adjacency matrix."""

    adjacency: np.ndarray
    names: List[str]
    name: str = ""

    def __post_init__(self):
        self.adjacency = np.asarray(self.adjacency, dtype=int)
        n = self.adjacency.shape[0]
        if self.adjacency.shape != (n, n) or len(self.names) != n:
            raise ValueError("adjacency/names size mismatch")

    @property
    def size(self) -> int:
        return self.adjacency.shape[0]

    def pf_eigenvalue(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.adjacency.astype(float)))))

    def pf_vector(self) -> np.ndarray:
        """Positive eigenvector of A + A^T for the largest eigenvalue."""
        Asym = (self.adjacency + self.adjacency.T).astype(float) / 2.0
        vals, vecs = np.linalg.eigh(Asym)
        v = vecs[:, -1]
        if v.sum() < 0:
            v = -v
        return v


def graph_catalog(family: str, n: int) -> Graph:
    """Dynkin-type graphs: A_n, D_n (n >= 4), E_6/E_7/E_8, tadpole T_n.

    Each is the path A_n on n vertices plus one family extra: D_n and
    E_n hang the last vertex off vertex n-3 or vertex 2 in place of
    vertex n-2, and T_n puts a loop at the last vertex.  The D series
    starts at D_4 (D_3 coincides with A_3 and is not listed separately).
    """
    family = family.upper()
    if family == "E":
        if n not in (6, 7, 8):
            raise ValueError("E_n needs n in {6, 7, 8}")
    elif family in ("A", "D", "T"):
        least = 4 if family == "D" else 1
        if n < least:
            raise ValueError(f"{family}_n needs n >= {least}")
    else:
        raise ValueError(f"unknown graph family '{family}'")
    A = np.eye(n, k=1, dtype=int) + np.eye(n, k=-1, dtype=int)
    if family in ("D", "E"):
        j = n - 3 if family == "D" else 2
        A[n - 2, n - 1] = A[n - 1, n - 2] = 0
        A[j, n - 1] = A[n - 1, j] = 1
    elif family == "T":
        A[n - 1, n - 1] = 1
    return Graph(A, [str(i) for i in range(n)], name=f"{family}{n}")


def su2_nimrep_from_graph(k: int, graph: Graph) -> Optional[List[np.ndarray]]:
    """Chebyshev tower G_0..G_k over the graph, or None if it fails.

    Requires the Perron-Frobenius eigenvalue to match 2 cos(pi/(k+2)), the
    recursion G_{j+1} = G_1 G_j - G_{j-1} to stay nonnegative and G_{k+1} = 0.
    That is all the su(2)_k fusion rules: the ring is Z[x]/(U_{k+1}) with
    label j = U_j(x), G_j = U_j(A), and G_1 G_k = G_{k-1} is G_{k+1} = 0.
    The tower runs in float64 and is cast to int once: each G_j, j >= 1,
    must also lie below 2^52, so every product of the recursion is exact
    (a sum that reaches 2^53 leaves G_{j+1} >= 2^52 and is refused).
    """
    target = 2.0 * math.cos(math.pi / (k + 2))
    if abs(graph.pf_eigenvalue() - target) > PF_TOL:
        return None
    A = graph.adjacency.astype(float)
    mats = [np.eye(A.shape[0]), A]
    for _ in range(k):
        G = mats[-1]
        if G.min() < 0 or G.max() >= 2.0 ** 52:
            return None
        mats.append(A @ G - mats[-2])
    if np.any(mats.pop()):
        return None
    return list(np.array(mats).astype(int))


def spectrum_match(
    mats: Sequence[np.ndarray], S: np.ndarray, Z: np.ndarray
) -> Tuple[bool, Dict[str, object]]:
    """Does the nimrep mats (mats[lam] = G_lam, one per label) have
    exponents diag Z?  The graph size must equal tr Z, and the character
    rho must occur Z_{rho rho} times.

    Characters are orthogonal (S is unitary), so character rho occurs
    m_rho = S_{0 rho} sum_lam conj(S_{lam rho}) tr G_lam times; that is,
    G_lam has eigenvalue S_{lam rho}/S_{0 rho} with multiplicity m_rho.
    """
    Z = np.asarray(Z)
    n = mats[0].shape[0]
    trace = int(np.trace(Z))
    info: Dict[str, object] = {"size": n, "trace": trace}
    if n != trace:
        info["reason"] = "vertex count differs from tr Z"
        return False, info
    mult = S[0] * (np.einsum("lii->l", np.asarray(mats)) @ S.conj())
    bad = np.flatnonzero(np.abs(mult - np.diagonal(Z)) > PF_TOL)
    if len(bad):
        info["reason"] = f"spectrum mismatch at label {bad[0]}"
        return False, info
    return True, info


def ade_assignment(md: ModularData, Z: np.ndarray) -> List[Graph]:
    """Graphs in the catalog whose nimrep has exponents diag Z.

    Scans A_{k+1}, D_{(k+4)/2} for even k >= 4, the three E graphs at
    their levels, and T_{(k+1)/2} for odd k.
    """
    k = md.ring.size - 1
    if not md.nondegenerate:
        raise ValueError("spectrum assignment needs nondegenerate data")
    cands: List[Graph] = [graph_catalog("A", k + 1)]
    if k % 2 == 0 and k >= 4:
        cands.append(graph_catalog("D", (k + 4) // 2))
    if k == 10:
        cands.append(graph_catalog("E", 6))
    if k == 16:
        cands.append(graph_catalog("E", 7))
    if k == 28:
        cands.append(graph_catalog("E", 8))
    if k % 2 == 1:
        cands.append(graph_catalog("T", (k + 1) // 2))
    out: List[Graph] = []
    for g in cands:
        mats = su2_nimrep_from_graph(k, g)
        if mats is None:
            continue
        ok, _ = spectrum_match(mats, md.S, Z)
        if ok:
            out.append(g)
    return out


@dataclass
class TadpoleRecord:
    """Why the tadpole graph fails as a physical graph at odd level k."""

    k: int
    ell: int
    pf_weights: np.ndarray
    extremal_weight: float
    forces_index_two: bool
    current_weight: Fraction
    current_integral: bool
    excluded: bool


def tadpole_exclusion(k: int) -> TadpoleRecord:
    """T_{(k+1)/2} at odd level k: the extremal vertex has weight
    sqrt(2), demanding an index-2 extension, but 2 h_k is not an
    integer, so no such extension exists and the graph is excluded."""
    if k % 2 == 0:
        raise ValueError("tadpole candidates occur at odd level only")
    ell = (k + 1) // 2
    g = graph_catalog("T", ell)
    v = g.pf_vector()
    spec = su2_model(k)
    w = spec.ring.global_index
    v = v * math.sqrt(w / float(v @ v))
    extremal = float(v[0])
    forces = abs(extremal - math.sqrt(2.0)) < PF_TOL
    hk = spec.spins.h[k]
    integral = (2 * hk).denominator == 1
    return TadpoleRecord(
        k=k,
        ell=ell,
        pf_weights=v,
        extremal_weight=extremal,
        forces_index_two=forces,
        current_weight=hk,
        current_integral=integral,
        excluded=forces and not integral,
    )
