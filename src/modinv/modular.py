"""Modular data attached to a fusion ring with exact conformal weights.

The construction is entirely internal: from the ring and spins h we form
the diagonal phase matrix Omega, the Y-tensor

    Y_{lam mu} = sum_rho (w_lam w_mu / w_rho) N_{lam mu}^rho d_rho,

the Gauss sum z = sum d^2 w, and (when z != 0) the central charge, S and
T.  Spins are stored as exact Fractions so that equality of phases is
decidable; all matrix data is floating point.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .fusion import FusionRing, _spans, check_size

__all__ = [
    "SpinAssignment",
    "ModelSpec",
    "ModularData",
    "statistics_phase",
    "build",
    "is_nondegenerate",
    "verlinde_check",
    "degenerate_sectors",
    "tensor_product",
    "relation_residuals",
]

GAUSS_TOL = 1e-6
UNITARITY_TOL = 1e-9
DEGENERATE_TOL = 1e-6
# Bound on ||Omega Y Omega Y Omega - z Y|| relative to w; every catalog
# model stays below 1e-13 w.
OMEGA_Y_TOL = 1e-9


def _mod1(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


@dataclass(frozen=True)
class SpinAssignment:
    """Exact conformal weights, one Fraction per label, reduced mod 1."""

    h: Tuple[Fraction, ...]

    def __init__(self, h: Sequence[Fraction]):
        object.__setattr__(
            self, "h", tuple(_mod1(Fraction(x)) for x in h)
        )

    def __len__(self) -> int:
        return len(self.h)

    @functools.cached_property
    def classes(self) -> np.ndarray:
        """Class id of each label, equal exactly when the weights are:
        a weight in lowest terms is its numerator and denominator
        (cached, read-only)."""
        first: Dict[Tuple[int, int], int] = {}
        ids = np.array([first.setdefault((x.numerator, x.denominator), len(first))
                        for x in self.h], dtype=np.intp)
        ids.flags.writeable = False
        return ids


def statistics_phase(spins: SpinAssignment, lam: int) -> complex:
    """w_lam = exp(2 pi i h_lam)."""
    h = spins.h[lam]
    return cmath.exp(2j * math.pi * float(h))


@dataclass
class ModelSpec:
    """A fusion ring plus a spin assignment; input to build()."""

    ring: FusionRing
    spins: SpinAssignment
    name: str = ""

    def __post_init__(self):
        if len(self.spins) != self.ring.size:
            raise ValueError("spin assignment length does not match ring size")
        if self.spins.h[0] != 0:
            raise ValueError("vacuum weight must vanish")
        for lam in range(self.ring.size):
            if self.spins.h[lam] != self.spins.h[int(self.ring.conj[lam])]:
                raise ValueError(f"weights not conjugation symmetric at {lam}")


@dataclass
class ModularData:
    """Output of build(): Omega, Y, z, C and (if z != 0) c, S, T.

    Omega, Y and C (the ring's conjugation matrix) are always available.
    S, T, c are None only when the Gauss sum vanishes; otherwise they are
    set, and `nondegenerate` tells whether S is modular (see build).  A
    degenerate model can carry an S that is not, e.g. sun_currents:4:2.
    """

    spec: ModelSpec
    Omega: np.ndarray
    Y: np.ndarray
    z: complex
    c: Optional[float]
    S: Optional[np.ndarray]
    T: Optional[np.ndarray]
    C: np.ndarray
    nondegenerate: bool
    w: float
    degenerate_reason: Optional[str] = None

    @property
    def ring(self) -> FusionRing:
        return self.spec.ring

    @property
    def spins(self) -> SpinAssignment:
        return self.spec.spins

    @property
    def name(self) -> str:
        return self.spec.name

    @functools.cached_property
    def degenerate(self) -> np.ndarray:
        """degenerate_sectors(self) as an index array (cached, read-only)."""
        deg = np.array(degenerate_sectors(self), dtype=np.intp)
        deg.flags.writeable = False
        return deg


def _omega_y_residual(Omega: np.ndarray, Y: np.ndarray, z: complex) -> float:
    """||Omega Y Omega Y Omega - z Y||_F as one product, with om read off
    the diagonal: (om_lam om_mu Y_{lam mu}) @ (Y_{mu nu} om_nu)."""
    om = np.diagonal(Omega)
    return float(np.linalg.norm((np.outer(om, om) * Y) @ (Y * om) - z * Y))


def _nondegeneracy(
    z: complex, w: float, S: Optional[np.ndarray], C: np.ndarray
) -> Tuple[Optional[str], Dict[str, float]]:
    """The one nondegeneracy rule: (reason, residuals), reason None when
    the data is nondegenerate.  S is None exactly when the Gauss sum
    vanishes; otherwise the tests run in order on the residuals gauss =
    | |z|^2 - w |, unitarity = ||S S^dag - 1||_F and s2_c_max = max |S^2 - C|.
    """
    m = C.shape[0]
    resid = {"gauss": abs(abs(z) ** 2 - w), "unitarity": math.inf, "s2_c_max": math.inf}
    if S is None:
        return "vanishing Gauss sum", resid
    resid["unitarity"] = float(np.linalg.norm(S @ S.conj().T - np.eye(m)))
    resid["s2_c_max"] = float(np.max(np.abs(S @ S - C)))
    if not resid["gauss"] < GAUSS_TOL * w:
        return "Gauss sum modulus mismatch", resid
    if not resid["unitarity"] < UNITARITY_TOL * m:
        return "S not unitary", resid
    if resid["s2_c_max"] > UNITARITY_TOL:
        return "S^2 is not the charge conjugation", resid
    return None, resid


def build(spec: ModelSpec) -> ModularData:
    """Assemble the modular data of a spec.

    Weights that break the Omega-Y relation raise ValueError.  C is the
    vacuum slice N[:, :, 0] of the ring: the permutation matrix of its
    conjugation.  The data is nondegenerate when, in this order, the
    Gauss sum z does not vanish, | |z|^2 - w | < GAUSS_TOL w,
    ||S S^dag - 1||_F < UNITARITY_TOL m and max |S^2 - C| <= UNITARITY_TOL,
    with S = Y/|z|; the first test that fails is the degenerate_reason.  A vanishing Gauss sum leaves
    S = T = c = None.
    """
    ring = spec.ring
    m = ring.size
    d = ring.d
    w = ring.global_index
    om = np.array([statistics_phase(spec.spins, lam) for lam in range(m)])
    Omega = np.diag(om)
    # Y_{lam mu} = om_lam om_mu sum_nu N_{lam mu}^nu (d / om)_nu, summed
    # over the nonzeros by (lam, mu): one bincount per real component.
    lam, mu, nu, val = ring.nonzeros
    cell, term = lam * m + mu, val * (d / om)[nu]
    rows = (np.bincount(cell, weights=term.real, minlength=m * m)
            + 1j * np.bincount(cell, weights=term.imag, minlength=m * m))
    Y = np.outer(om, om) * rows.reshape(m, m)
    z = complex(np.sum(d * d * om))
    resid = _omega_y_residual(Omega, Y, z)
    if resid > OMEGA_Y_TOL * w:
        raise ValueError(f"weights inconsistent with the fusion rules "
                         f"(Omega-Y residual {resid:.3g})")

    C = np.eye(m, dtype=int)[ring.conj]
    c = S = T = None
    if abs(z) >= 1e-12 * max(w, 1.0):
        c = (4.0 * cmath.phase(z) / math.pi) % 8.0
        S = Y / abs(z)
        T = cmath.exp(-1j * math.pi * c / 12.0) * Omega
    reason, _ = _nondegeneracy(z, w, S, C)
    return ModularData(
        spec=spec, Omega=Omega, Y=Y, z=z, c=c, S=S, T=T, C=C,
        nondegenerate=reason is None, w=w, degenerate_reason=reason,
    )


def is_nondegenerate(md: ModularData) -> Tuple[bool, Dict[str, float]]:
    """Recompute the nondegeneracy rule of build from md.

    Returns (flag, residuals): flag equals md.nondegenerate for data from
    build; gauss = | |z|^2 - w |, unitarity = ||S S^dag - 1||_F and
    s2_c_max = max |S^2 - C| (the last two inf when S is undefined).
    """
    reason, resid = _nondegeneracy(md.z, md.w, md.S, md.C)
    return reason is None, resid


def verlinde_check(md: ModularData) -> float:
    """Max deviation of sum_r S_{lr} S_{mr} conj(S_{nr}) / S_{0r} from N.

    Only defined for nondegenerate data.  One label l at a time: the
    m x m slice of the sum, less the nonzeros of N[l].
    """
    if not md.nondegenerate:
        raise ValueError("Verlinde check requires nondegenerate modular data")
    S = md.S
    lam, mu, nu, val = md.ring.nonzeros
    start = np.searchsorted(lam, np.arange(len(S) + 1))
    right = (S.conj() / S[0]).T
    worst = 0.0
    for l in range(len(S)):
        rec = (S * S[l]) @ right
        at = slice(start[l], start[l + 1])
        rec[mu[at], nu[at]] -= val[at]
        worst = max(worst, float(np.max(np.abs(rec))))
    return worst


def degenerate_sectors(md: ModularData) -> List[int]:
    """Labels lam with Y_{lam mu} = d_lam d_mu for all mu.

    For nondegenerate data this is just the vacuum; extra labels signal
    a transparent sector.
    """
    d = md.ring.d
    dd = np.outer(d, d)
    dev = np.max(np.abs(md.Y - dd), axis=1)
    return [int(i) for i in np.nonzero(dev < DEGENERATE_TOL)[0]]


def tensor_product(a: ModelSpec, b: ModelSpec) -> ModelSpec:
    """Product spec: labels are pairs (x, y) at x mb + y, N multiplies and
    h adds up.  N_{(i,j)(k,l)}^{(p,q)} = N_{ik}^p N_{jl}^q: the nonzeros
    of row ((i, j), (k, l)) are those of row (i, k) of a times those of
    row (j, l) of b, p before q, so the rows taken in order (i, j, k, l)
    give the product's nonzeros in C order, O(nnz_a nnz_b) with no sort."""
    ra, rb = a.ring, b.ring
    ma, mb = ra.size, rb.size
    check_size(ma * mb)
    names = [f"({x},{y})" for x in ra.names for y in rb.names]
    ring = FusionRing(names, *_product_nonzeros(ra, rb))
    h = [
        a.spins.h[i] + b.spins.h[j]
        for i in range(ma)
        for j in range(mb)
    ]
    name = f"{a.name}*{b.name}" if a.name and b.name else ""
    return ModelSpec(ring, SpinAssignment(h), name=name)


def _product_nonzeros(ra: FusionRing, rb: FusionRing) -> Tuple[np.ndarray, ...]:
    """The nonzeros (lam, mu, nu, val) of the product ring, in C order."""
    ma, mb = ra.size, rb.size
    (la, ka, pa, va), (lb, kb, pb, vb) = ra.nonzeros, rb.nonzeros
    start_a = np.searchsorted(la * ma + ka, np.arange(ma * ma + 1))
    start_b = np.searchsorted(lb * mb + kb, np.arange(mb * mb + 1))
    # Product row (i, j, k, l) reads row i ma + k of a and row j mb + l of b.
    i, j, k, l = np.indices((ma, mb, ma, mb)).reshape(4, -1)
    row_a, row_b = i * ma + k, j * mb + l
    len_a, len_b = np.diff(start_a)[row_a], np.diff(start_b)[row_b]
    run, t = _spans(np.zeros_like(len_a), len_a * len_b)
    x = start_a[row_a][run] + t // len_b[run]
    y = start_b[row_b][run] + t % len_b[run]
    del run, t
    return la[x] * mb + lb[y], ka[x] * mb + kb[y], pa[x] * mb + pb[y], va[x] * vb[y]


def relation_residuals(md: ModularData) -> Dict[str, float]:
    """Frobenius-norm residuals of the defining matrix relations.

    Always reports the Omega-Y relation; the S/T relations, charge
    conjugation and Verlinde deviation are included when the data is
    nondegenerate.
    """
    out: Dict[str, float] = {}
    out["omega_y"] = _omega_y_residual(md.Omega, md.Y, md.z)
    if not md.nondegenerate:
        return out
    S, T, C = md.S, md.T, md.C.astype(float)
    ST = S @ T
    S2 = S @ S
    out["st_cube"] = float(np.linalg.norm(ST @ ST @ ST - S2))
    out["s2_conj"] = float(np.linalg.norm(S2 - C))
    out["ct_commute"] = float(np.linalg.norm(C @ T - T @ C))
    out["tstst"] = float(np.linalg.norm(T @ S @ T @ S @ T - S))
    out["verlinde"] = verlinde_check(md)
    out["s_row_positive"] = float(-min(np.min(S[0].real), 0.0) + np.max(np.abs(S[0].imag)))
    return out
