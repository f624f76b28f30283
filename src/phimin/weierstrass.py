"""Complex representation of weighted-minimal surfaces and a Cauchy solver.

A surface whose mean curvature satisfies ``H = dphi(z) * <N, e3>`` admits,
in a conformal parameter ``zeta = u + i*v``, a description through a single
complex field G: the stereographic image (projected from the south pole) of
the unit normal, so ``|G| < 1`` exactly where the normal leans upward.  For
the two weight families handled here, ``phi(z) = z`` (``k = 1``) and
``phi(z) = alpha*log z`` with ``alpha = 2/(k-1)`` (``k != 0, 1``), the field
satisfies one quasilinear elliptic PDE and the immersion is recovered from G
by explicit path integrals of rational expressions in G and its Wirtinger
derivatives.

The module provides three layers:

* ``gauss_pde_residual``: a finite-difference oracle for the field PDE,
  used as the acceptance certificate for everything downstream;
* ``integrate_representation``: reconstruction of the immersion from a
  sampled field, with conformality, normal-recovery and mean-curvature
  verification baked into the returned mesh metadata;
* ``solve_bjorling``: a Cauchy solver that grows the field off an analytic
  curve with prescribed surface normal, as a truncated power series in the
  transverse variable (coefficients are exact truncated Taylor or Fourier
  series in the curve parameter).

Orientation conventions, fixed once for the whole module:

* ``G = -(N1 + i*N2) / (1 + N3)`` for the unit normal ``N``, equivalently
  ``N = ((-2*Re G, -2*Im G, 1 - |G|^2)) / (1 + |G|^2)``;
* the oriented normal of a reconstructed patch is ``psi_v x psi_u`` for the
  returned parameterization ``psi(u, v)``.

Wirtinger derivatives follow ``d/dzeta = (d/du - i*d/dv)/2`` and its
conjugate, discretized with central differences on uniform grids.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import NumericalError
from .profiles import WeightProfile, make_builtin, make_custom
from .solvers import BOWL_GRAPH, ProfileCurve
from .surfaces import (FLOAT, SurfaceMesh,
                       _interior_derivatives, _interior_gradient,
                       grid_from_table, grid_rows,
                       mean_curvature_residual, read_table, staircase,
                       trapezoid_primitive, uniform_spacing, write_table)

__all__ = [
    "GaussField", "BjorlingData", "gauss_pde_residual",
    "wirtinger_derivatives", "integrate_representation",
    "reconstruction_residuals", "rotational_gauss_field", "solve_bjorling",
    "save_gauss_field", "load_gauss_field", "gauss_field_from_table",
    "bjorling_from_json",
]

TAYLOR = "taylor"
FOURIER = "fourier"

# Interior nodes with |1 - |G|^4| below this are treated as sitting on the
# singular circle |G| = 1 and rejected at construction time.
_UNIT_CIRCLE_TOL = 1e-12
# Representation integrands are refused (rather than clamped) when the
# denominator drops below this anywhere on the grid.
_SINGULAR_LOCUS_TOL = 1e-8
# The largest field PDE residual a Gauss field may have: the bound of
# solve_bjorling's certificate and of verify's check of a field artifact.
FIELD_RESIDUAL_BOUND = 1e-3
# Nodes in one slab of the field checks (gauss_pde_residual,
# reconstruction_residuals), whose temporaries span a slab, not the grid.
# Slabs of 8192 or 32768 nodes were not faster on all the checks at
# 441 x 331.
_BLOCK_NODES = 16384
# Upper bounds on Cauchy data, checked before any series work, whose cost
# grows steeply with the truncation degree and the coefficients per row.
MAX_DEGREE = 32
MAX_TERMS = 64
# The sups reconstruction_residuals returns, in this order.
_RECONSTRUCTION_KEYS = ("conformal_defect", "gauss_map_defect",
                        "null_defect", "pairing_defect", "split_defect_x",
                        "split_defect_y", "gradient_defect")


@dataclass
class GaussField:
    """Sampled complex field G on a rectangle in the conformal plane.

    ``G[i, j]`` is the value at ``(u[i], v[j])``; both grids are uniform.
    ``k_param`` is the weight-family index: 1 for the linear weight,
    otherwise ``dphi(z) = (2/(k_param - 1))/z``.  Interior nodes must stay
    off the circle ``|G| = 1`` where the representation denominators
    ``1 - |G|^4`` vanish (border nodes may touch it; they never enter a
    denominator).
    """

    u: np.ndarray
    v: np.ndarray
    G: np.ndarray
    k_param: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        self.G = np.asarray(self.G, dtype=complex)
        self.hu = uniform_spacing(self.u, "u")
        self.hv = uniform_spacing(self.v, "v")
        if self.G.shape != (len(self.u), len(self.v)):
            raise ValueError("G must have shape (len(u), len(v))")
        if not np.all(np.isfinite(self.G.real) & np.isfinite(self.G.imag)):
            raise ValueError("field contains non-finite values")
        self.k_param = float(self.k_param)
        if self.k_param == 0.0:
            raise ValueError("k = 0 is outside the scope of this "
                             "representation (no weight family attached)")
        den = np.abs(self.denominator()[1:-1, 1:-1])
        bad = den < _UNIT_CIRCLE_TOL
        if np.any(bad):
            if bad.all() and np.ptp(np.abs(self.G)) < 1e-9:
                raise ValueError(
                    "constant field of unit modulus: the data describe a "
                    "vertical plane, which carries no graph-type "
                    "representation")
            raise ValueError(
                f"|G| = 1 at {int(bad.sum())} interior node(s): the "
                "representation denominators 1 - |G|^4 vanish there")

    @property
    def shape(self) -> Tuple[int, int]:
        return self.G.shape

    def denominator(self) -> np.ndarray:
        """The array ``1 - |G|^4`` shared by every representation integrand."""
        return 1.0 - np.abs(self.G) ** 4

    def normals(self) -> np.ndarray:
        """Unit normal field encoded by G, shape ``(nu, nv, 3)``."""
        g2 = np.abs(self.G) ** 2
        w = 1.0 / (1.0 + g2)
        return np.stack([-2.0 * self.G.real * w, -2.0 * self.G.imag * w,
                         (1.0 - g2) * w], axis=-1)


def wirtinger_derivatives(field: GaussField) -> Tuple[np.ndarray, np.ndarray]:
    """(G_zeta, G_zetabar) by central differences, one-sided at the border."""
    gu = np.gradient(field.G, field.hu, axis=0, edge_order=2)
    gv = np.gradient(field.G, field.hv, axis=1, edge_order=2)
    return 0.5 * (gu - 1j * gv), 0.5 * (gu + 1j * gv)


def gauss_pde_residual(field: GaussField) -> float:
    """Sup over the interior nodes of the field equation's defect.

    A field describes a weighted-minimal surface exactly when

        G_{zeta zetabar} + 2 |G|^2/(1-|G|^4) * conj(G) G_zeta G_zetabar
                         + 2 k |G_zetabar|^2/(1-|G|^4) * G = 0.

    Derivatives are second-order central differences, so the residual of a
    smooth exact solution decays like O(h^2).  This is the one oracle the
    reconstruction and the Cauchy solver are both checked against.
    """
    sups = [_block_pde_residual(field.G[a:b], field.hu, field.hv,
                                field.k_param)
            for a, b in _row_blocks(*field.shape)]
    # np.max, not max: a NaN in any block is the maximum, as over the grid
    return float(np.max(sups))


def _block_pde_residual(G: np.ndarray, hu: float, hv: float,
                        k: float) -> float:
    """``gauss_pde_residual`` over the interior nodes of one slab; its
    temporaries die on return, before the next slab is differentiated."""
    c, gu, gv, guu, gvv = _interior_derivatives(G, hu, hv)[:5]
    D = 1.0 - np.abs(c) ** 4
    if np.any(np.abs(D) < _UNIT_CIRCLE_TOL):
        raise NumericalError("|G| = 1 at a stencil node")
    gz = 0.5 * (gu - 1j * gv)
    gzb = 0.5 * (gu + 1j * gv)
    return np.abs(0.25 * (guu + gvv)
                  + 2.0 * np.abs(c) ** 2 / D * np.conj(c) * gz * gzb
                  + 2.0 * k * np.abs(gzb) ** 2 / D * c).max()


def _row_blocks(n: int, m: int):
    """The slabs a:b of an (n, m) grid that the field checks run over:
    their interior rows a + 1 .. b - 2 tile the grid's interior rows
    1 .. n - 2 once, about ``_BLOCK_NODES`` nodes a slab.  A slab has at
    least 3 rows, and its interior stencil is bit for bit that of the
    whole grid: every interior row sees the same neighbours."""
    step = max(1, _BLOCK_NODES // m - 2)
    for lo in range(1, n - 1, step):
        yield lo - 1, min(lo + step, n - 1) + 1


# ---------------------------------------------------------------------------
# reconstruction from a sampled field
# ---------------------------------------------------------------------------

def _locate_base(field: GaussField, base: Optional[complex]) -> Tuple[int, int]:
    if base is None:
        return (len(field.u) - 1) // 2, (len(field.v) - 1) // 2
    base = complex(base)
    ib = int(np.argmin(np.abs(field.u - base.real)))
    jb = int(np.argmin(np.abs(field.v - base.imag)))
    du = abs(field.u[ib] - base.real)
    dv = abs(field.v[jb] - base.imag)
    if du > 0.5 * field.hu + 1e-12 or dv > 0.5 * field.hv + 1e-12:
        raise ValueError(f"base point {base} lies outside the sampled "
                         "rectangle")
    return ib, jb


def _weight_profile_for(k: float, z: np.ndarray) -> Optional[WeightProfile]:
    """Weight profile matching the family index on the height range of z."""
    if k == 1.0:
        return make_builtin("linear", 1.0)
    alpha = 2.0 / (k - 1.0)
    if np.all(z > 0):
        return make_builtin("log", alpha)
    if np.all(z < 0):
        # Mirrored branch of the power-law weight, used when 0 < k < 1
        # places the surface below the singular plane.
        return make_custom(dphi=lambda t: alpha / np.asarray(t, dtype=float),
                           phi=lambda t: alpha * np.log(-np.asarray(t, dtype=float)),
                           ddphi=lambda t: -alpha / np.asarray(t, dtype=float) ** 2,
                           domain=(-math.inf, 0.0))
    return None


def integrate_representation(field: GaussField, base: Optional[complex] = None,
                             *, anchor: Optional[Sequence[float]] = None
                             ) -> SurfaceMesh:
    """Rebuild the immersion whose Gauss image is the sampled field.

    The three coordinate functions are real parts of path integrals of
    rational integrands in G, conj(G)_zeta and 1 - |G|^4, taken from the
    grid node nearest ``base`` (grid center when omitted).  For ``k = 1``
    the integrals give the surface directly; otherwise the height is a pure
    exponential ``(2k/(k-1)) * Gamma`` with
    ``Gamma = exp(4(k-1) Re int conj(G)_zeta G / (1-|G|^4) dzeta)`` and the
    horizontal coordinates pick up the factor ``Gamma`` inside their
    integrands.

    Every integral is evaluated along two staircase routes; their averaged
    value is used and the worst disagreement is stored as
    ``meta["path_disagreement"]`` (it decays like O(h^2) for a true
    solution).  Disagreement beyond ``1e-3 * (1 + sup |psi|)`` raises
    ``NumericalError``, since it means the field does not satisfy the
    integrability PDE.

    ``anchor`` pins the free constants of the representation: for ``k = 1``
    the surface is translated so the base vertex lands on ``anchor``; for
    ``k != 1`` only a positive homothety and a horizontal translation are
    available, so the surface is scaled to match the anchor height (which
    must lie on the same side of z = 0) and then shifted horizontally.
    When ``anchor`` is omitted but the field metadata carries
    ``anchor_point``/``anchor_zeta`` (as fields made by
    ``rotational_gauss_field`` and ``solve_bjorling`` do), those are used
    at their own node.

    The returned mesh stores verification metrics in ``meta``: the sups
    of ``reconstruction_residuals``, ``conformal_defect`` and
    ``gauss_map_defect`` at the top level and the five others as the dict
    ``identity_residuals``, and ``mean_curvature_residual`` (sup of the
    cotangent-formula curvature defect against the matching weight).
    """
    nu, nv = field.shape
    points, disagreement = _immersion(field, base, anchor)
    mesh = SurfaceMesh(vertices=points.reshape(-1, 3),
                       normals=field.normals().reshape(-1, 3),
                       grid=(nu, nv),
                       meta={"path_disagreement": disagreement})
    sups = reconstruction_residuals(mesh, field)
    mesh.meta.update(conformal_defect=sups.pop("conformal_defect"),
                     gauss_map_defect=sups.pop("gauss_map_defect"),
                     identity_residuals=sups)
    prof = _weight_profile_for(field.k_param, points[..., 2])
    if prof is not None:
        res = mean_curvature_residual(mesh, prof)
        mesh.meta["mean_curvature_residual"] = float(np.nanmax(np.abs(res)))
    else:
        mesh.meta["mean_curvature_residual"] = math.nan
    return mesh


def _immersion(field: GaussField, base: Optional[complex],
               anchor: Optional[Sequence[float]]
               ) -> Tuple[np.ndarray, float]:
    """The (nu, nv, 3) points of ``integrate_representation`` and the worst
    disagreement of their routes; the coordinate arrays die on return, once
    stacked."""
    ib, jb, psi, disagreement = _path_integrals(field, base)
    k = field.k_param
    sup_psi = max(float(np.abs(p).max()) for p in psi)
    tol = 1e-3 * (1.0 + sup_psi)
    if disagreement > tol:
        raise NumericalError(
            f"path dependence {disagreement:.3e} exceeds {tol:.3e}: the "
            "field does not satisfy the integrability PDE on this grid")

    # Pin the free constants of the solution family.
    anchor_used = None
    if anchor is not None:
        ax, ay, az = (float(anchor[0]), float(anchor[1]), float(anchor[2]))
        ia, ja = ib, jb
        anchor_used = (ax, ay, az)
    elif "anchor_point" in field.meta and "anchor_zeta" in field.meta:
        ax, ay, az = (float(c) for c in field.meta["anchor_point"])
        ia, ja = _locate_base(field, field.meta["anchor_zeta"])
        anchor_used = (ax, ay, az)
    if anchor_used is not None:
        if k == 1.0:
            for p, a in zip(psi, anchor_used):
                p += a - p[ia, ja]
        else:
            c0 = anchor_used[2] / psi[2][ia, ja]
            if c0 <= 0:
                raise ValueError(
                    "anchor height lies on the wrong side of the singular "
                    "plane z = 0; only positive homotheties preserve the "
                    "weight family")
            psi = [c0 * p for p in psi]
            psi[0] += anchor_used[0] - psi[0][ia, ja]
            psi[1] += anchor_used[1] - psi[1][ia, ja]
    return np.stack(psi, axis=-1), disagreement


def _path_integrals(field: GaussField, base: Optional[complex]
                    ) -> Tuple[int, int, List[np.ndarray], float]:
    """Base node, the three coordinate functions before pinning, and the
    worst disagreement of their two routes; one integrand and its routes
    are alive at a time, and each dies once reduced to its coordinate
    function and its disagreement."""
    G, k = field.G, field.k_param
    hu, hv = field.hu, field.hv

    gz, gzb = wirtinger_derivatives(field)
    scale = 1.0 + np.abs(gz).max()
    del gz
    if np.abs(gzb).max() <= 1e-13 * scale:
        raise ValueError(
            "the field is holomorphic to machine precision, so every "
            "representation integrand vanishes; constant unit-modulus data "
            "describe a vertical plane, other holomorphic data carry no "
            "graph-type reconstruction")

    D = field.denominator()
    near = np.abs(D) < _SINGULAR_LOCUS_TOL
    if np.any(near):
        raise NumericalError(
            f"singular locus: 1 - |G|^4 drops below {_SINGULAR_LOCUS_TOL:g} "
            f"at {int(near.sum())} node(s); the representation integrals "
            "blow up as |G| -> 1")

    ib, jb = _locate_base(field, base)
    gbz = np.conj(gzb, out=gzb)     # derivative of conj(G) along zeta
    # the integrands w1, w2, w3, each formed only when its routes are taken
    integrands = (lambda: gbz * (1.0 - G ** 2) / D,
                  lambda: 1j * gbz * (1.0 + G ** 2) / D,
                  lambda: gbz * G / D)

    def routes(w):
        # only the real part of the integral of w dzeta is path independent:
        # Re(w dzeta) = p du + q dv with p = Re w and q = Re(i w), which is
        # formed as numpy forms it, so that signed zeros keep their bits;
        # w dies here, once p and q hold what the routes read of it
        p, q = w.real.copy(), 0.0 * w.real - w.imag
        del w
        return staircase(p, q, hu, hv, ib, jb)

    psi, gaps = [], []
    if k == 1.0:
        for w, s in zip(integrands, (4.0, 4.0, 8.0)):
            a, b = routes(w())
            a, b = s * a, s * b
            psi.append(0.5 * (a + b))
            gaps.append(float(np.abs(a - b).max()))
            del a, b
    else:
        vertical = 2.0 * k / (k - 1.0)
        r3a, r3b = routes(integrands[2]())
        gap3 = abs(vertical) * float(np.abs(np.exp(4.0 * (k - 1.0) * r3a)
                                            - np.exp(4.0 * (k - 1.0) * r3b)
                                            ).max())
        gamma = np.exp(4.0 * (k - 1.0) * 0.5 * (r3a + r3b))
        del r3a, r3b
        for w in integrands[:2]:
            qa, qb = routes(w() * gamma)
            psi.append(2.0 * k * (qa + qb))
            gaps.append(4.0 * abs(k) * float(np.abs(qa - qb).max()))
            del qa, qb
        psi.append(vertical * gamma)
        gaps.append(gap3)
    return ib, jb, psi, max(gaps)


def reconstruction_residuals(mesh: SurfaceMesh, field: GaussField
                             ) -> Dict[str, float]:
    """Discrete defects of the first-order representation identities.

    Takes a mesh produced by ``integrate_representation`` (which runs this
    check once into its ``meta``) and the field it was built from, and
    returns the sup over the interior nodes of each defect:

    * ``conformal_defect``: max(|E - G|, 2 |F|) / ((E + G)/2), the relative
      anisotropy of the induced metric;
    * ``gauss_map_defect``: G against the stereographic image of the
      discrete normal;
    * ``null_defect``: psi1_z^2 + psi2_z^2 + psi3_z^2 (isotropy of the
      conformal immersion);
    * ``pairing_defect``: psi3_z - G * (psi1_z - i psi2_z);
    * ``split_defect_x`` / ``split_defect_y``: psi1_z and psi2_z against
      their rational expressions in (psi1_z - i psi2_z, G);
    * ``gradient_defect``: 4 G_zetabar - dphi(psi3) * conj(psi1_z - i
      psi2_z) * (1 - |G|^4), the equation that propagates the field.

    All seven vanish at discretization order on an exact reconstruction
    and are invariant under the free constants (translation for k = 1,
    homothety and horizontal translation otherwise).  One pass over the
    row blocks differentiates each slab of the points and of the field
    once.
    """
    points = mesh.vertices.reshape(*field.shape, 3)
    blocks = [_block_residuals(points[a:b], field.G[a:b], field.hu, field.hv,
                               field.k_param)
              for a, b in _row_blocks(*field.shape)]
    # np.max, not max: a NaN in any block is the maximum, as over the grid
    return {key: float(np.max(sups))
            for key, sups in zip(_RECONSTRUCTION_KEYS, zip(*blocks))}


def _block_residuals(points: np.ndarray, G: np.ndarray, hu: float,
                     hv: float, k: float) -> Tuple[float, ...]:
    """The sups of ``reconstruction_residuals``, in the order of
    ``_RECONSTRUCTION_KEYS``, over the interior nodes of one slab of the
    points and of the field.  Each temporary is freed once read, and all
    die on return, before the next slab is differentiated."""
    c, pu, pv = _interior_gradient(points, hu, hv)
    ee = np.einsum("ijk,ijk->ij", pu, pu)
    gg = np.einsum("ijk,ijk->ij", pv, pv)
    ff = np.einsum("ijk,ijk->ij", pu, pv)
    lam2 = 0.5 * (ee + gg)
    conformal = (np.maximum(np.abs(ee - gg), 2.0 * np.abs(ff)) / lam2).max()
    del ee, gg, ff, lam2

    g = G[1:-1, 1:-1]
    nrm = np.cross(pv, pu)
    nrm /= np.linalg.norm(nrm, axis=-1, keepdims=True)
    ok = 1.0 + nrm[..., 2] > 1e-6
    grec = np.where(ok, -(nrm[..., 0] + 1j * nrm[..., 1])
                    / np.where(ok, 1.0 + nrm[..., 2], 1.0), g)
    gauss_map = np.abs(grec - g).max()
    del nrm, ok, grec

    # psi_zeta one coordinate at a time
    p1, p2, p3 = (0.5 * (pu[..., i] - 1j * pv[..., i]) for i in range(3))
    del pu, pv
    fh = p1 - 1j * p2
    _, gu, gv = _interior_gradient(G, hu, hv)
    gzb = 0.5 * (gu + 1j * gv)
    del gu, gv
    z = c[..., 2]
    dphi = np.ones_like(z) if k == 1.0 else (2.0 / (k - 1.0)) / z
    return (conformal, gauss_map,
            np.abs(p1 ** 2 + p2 ** 2 + p3 ** 2).max(),
            np.abs(p3 - g * fh).max(),
            np.abs(p1 - 0.5 * fh * (1.0 - g ** 2)).max(),
            np.abs(p2 - 0.5j * fh * (1.0 + g ** 2)).max(),
            np.abs(4.0 * gzb - dphi * np.conj(fh) * (1.0 - np.abs(g) ** 4))
            .max())


def rotational_gauss_field(curve: ProfileCurve, k_param: float,
                           s_window: Tuple[float, float], *,
                           n_u: int = 161, v_halfwidth: float = 1.0,
                           n_v: int = 121) -> GaussField:
    """Gauss field of a surface of revolution in conformal coordinates.

    ``curve`` must be a bowl-type generating curve (``solve_bowl`` output)
    whose weight matches ``k_param``; the caller owns that pairing, a
    mismatch shows up immediately in ``gauss_pde_residual``.  The conformal
    parameter is ``u = int ds / x`` along the meridian (restricted to the
    arc-length window ``s_window``, which must stay off the axis) and ``v``
    is minus the rotation angle, so the surface point is
    ``(x cos v, -x sin v, z)`` and the field is
    ``tan(theta/2) * exp(-i v)``.

    The returned field carries ``anchor_point``/``anchor_zeta`` metadata at
    the grid center, the surface point there and its conformal parameter.
    """
    if curve.curve_kind != BOWL_GRAPH:
        raise ValueError("rotational fields are built from bowl-type "
                         f"curves, not {curve.curve_kind}")
    if not 0 < v_halfwidth < math.pi:
        raise ValueError("v_halfwidth must lie in (0, pi): one conformal "
                         "strip must stay simply connected")
    keep = curve.x > 1e-12
    s, x, z, th = (a[keep] for a in (curve.s, curve.x, curve.z, curve.theta))
    if len(s) < 4:
        raise ValueError("curve has too few samples off the axis")
    lo, hi = float(s_window[0]), float(s_window[1])
    if not (s[0] <= lo < hi <= s[-1]):
        raise ValueError(f"s_window must be inside [{s[0]:.6g}, {s[-1]:.6g}] "
                         "and increasing")

    rho = trapezoid_primitive(1.0 / x, np.diff(s))
    rho_of_s = CubicSpline(s, rho)
    s_of_rho = CubicSpline(rho, s)
    th_of_s = CubicSpline(s, th)
    x_of_s = CubicSpline(s, x)
    z_of_s = CubicSpline(s, z)

    u = np.linspace(float(rho_of_s(lo)), float(rho_of_s(hi)), n_u)
    v = np.linspace(-v_halfwidth, v_halfwidth, n_v)
    s_u = s_of_rho(u)
    half = np.tan(0.5 * th_of_s(s_u))
    G = half[:, None] * np.exp(-1j * v)[None, :]

    ic, jc = (n_u - 1) // 2, (n_v - 1) // 2
    # read off the whole grid's evaluations: a one-point call may differ
    r = x_of_s(s_u)[ic]
    anchor = np.array([r * np.cos(v)[jc], -r * np.sin(v)[jc], z_of_s(s_u)[ic]])
    return GaussField(u=u, v=v, G=G, k_param=k_param,
                      meta={"anchor_point": anchor,
                            "anchor_zeta": complex(u[ic], v[jc])})


# ---------------------------------------------------------------------------
# truncated series algebra for the Cauchy solver
# ---------------------------------------------------------------------------

class _Series:
    """Truncated series in one real variable with ring operations.

    Two carriers share one interface: ``taylor`` holds coefficients of
    ``(s - center)^j`` up to a fixed length, ``fourier`` holds modes
    ``exp(i m w s)`` for ``m = -M..M``.  Supported: +, -, *, scalar mix-ins,
    d/ds, complex conjugate (of the function, not the coefficients),
    reciprocal, and evaluation.  Products are truncated back to the carrier
    size, which is what makes the Cauchy recursion finite.
    """

    __slots__ = ("kind", "coef", "center", "period")

    def __init__(self, kind: str, coef: np.ndarray, center: float = 0.0,
                 period: float = 0.0):
        self.kind = kind
        self.coef = np.asarray(coef, dtype=complex)
        self.center = center
        self.period = period

    @classmethod
    def taylor(cls, coef: Sequence[complex], center: float,
               length: int) -> "_Series":
        c = np.zeros(length, dtype=complex)
        c[:min(len(coef), length)] = np.asarray(coef,
                                                dtype=complex)[:length]
        return cls(TAYLOR, c, center=center)

    @classmethod
    def fourier(cls, modes: Dict[int, complex], period: float,
                m_max: int) -> "_Series":
        c = np.zeros(2 * m_max + 1, dtype=complex)
        for m, val in modes.items():
            if abs(m) > m_max:
                raise ValueError(f"mode {m} exceeds the carrier size {m_max}")
            c[m_max + m] = val
        return cls(FOURIER, c, period=period)

    @property
    def m_max(self) -> int:
        if self.kind == TAYLOR:
            return len(self.coef) - 1
        return (len(self.coef) - 1) // 2

    def _new(self, coef: np.ndarray) -> "_Series":
        return _Series(self.kind, coef, center=self.center,
                       period=self.period)

    def __add__(self, other):
        if isinstance(other, _Series):
            return self._new(self.coef + other.coef)
        c = self.coef.copy()
        c[0 if self.kind == TAYLOR else self.m_max] += other
        return self._new(c)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (other * -1.0 if isinstance(other, _Series) else -other)

    def __rsub__(self, other):
        return (self * -1.0) + other

    def __mul__(self, other):
        if not isinstance(other, _Series):
            return self._new(self.coef * other)
        full = np.convolve(self.coef, other.coef)
        if self.kind == TAYLOR:
            return self._new(full[:len(self.coef)])
        m = self.m_max
        return self._new(full[m:3 * m + 1])

    __rmul__ = __mul__

    def conj(self) -> "_Series":
        if self.kind == TAYLOR:
            return self._new(np.conj(self.coef))
        return self._new(np.conj(self.coef[::-1]))

    def dds(self) -> "_Series":
        if self.kind == TAYLOR:
            c = np.zeros_like(self.coef)
            c[:-1] = self.coef[1:] * np.arange(1, len(self.coef))
            return self._new(c)
        omega = 2.0 * math.pi / self.period
        modes = np.arange(-self.m_max, self.m_max + 1)
        return self._new(self.coef * (1j * omega * modes))

    def recip(self) -> "_Series":
        """1/self, assuming the function has no zeros where it matters."""
        if self.kind == TAYLOR:
            a = self.coef
            if abs(a[0]) < 1e-300:
                raise ZeroDivisionError("series reciprocal at a zero")
            b = np.zeros_like(a)
            b[0] = 1.0 / a[0]
            for n in range(1, len(a)):
                b[n] = -np.dot(a[1:n + 1], b[n - 1::-1]) / a[0]
            return self._new(b)
        # Fourier: invert pointwise on an oversampled period, then read the
        # central band off the FFT.
        n = 8 * (2 * self.m_max + 1)
        sgrid = np.arange(n) * (self.period / n)
        vals = self.eval(sgrid)
        if np.min(np.abs(vals)) < 1e-12:
            raise ZeroDivisionError("series reciprocal at a zero")
        spec = np.fft.fft(1.0 / vals) / n
        c = np.zeros(2 * self.m_max + 1, dtype=complex)
        for m in range(-self.m_max, self.m_max + 1):
            c[self.m_max + m] = spec[m % n]
        return self._new(c)

    def eval(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if self.kind == TAYLOR:
            return np.polynomial.polynomial.polyval(s - self.center,
                                                    self.coef)
        omega = 2.0 * math.pi / self.period
        modes = np.arange(-self.m_max, self.m_max + 1)
        return np.exp(1j * omega * np.outer(s, modes)) @ self.coef


def _bivariate_mul(a: List[_Series], b: List[_Series],
                   order: int) -> List[_Series]:
    """Product of two v-power series with _Series coefficients, truncated."""
    zero = a[0] * 0.0
    out = []
    for n in range(order + 1):
        acc = zero
        for i in range(n + 1):
            if i < len(a) and (n - i) < len(b):
                acc = acc + a[i] * b[n - i]
        out.append(acc)
    return out


def _bivariate_recip(a: List[_Series], order: int) -> List[_Series]:
    r0 = a[0].recip()
    zero = a[0] * 0.0
    out = [r0]
    for n in range(1, order + 1):
        acc = zero
        for j in range(1, n + 1):
            aj = a[j] if j < len(a) else zero
            acc = acc + aj * out[n - j]
        out.append((acc * -1.0) * r0)
    return out


def _cauchy_march(c0: _Series, c1: _Series, k: float,
                  degree: int) -> List[_Series]:
    """Transverse power-series coefficients of the field off the curve.

    Solving the field PDE for the second v-derivative gives

        G_vv = -G_ss - 8 [ |G|^2 conj(G) G_z G_zb + k |G_zb|^2 G ] / (1-|G|^4)

    and matching v-powers turns that into a two-step recursion for the
    coefficient functions c_n(s) of G = sum c_n v^n.  Each step only ever
    uses coefficients already known: the order-n component of the right
    side involves c_0..c_{n+1}.
    """
    cs = [c0, c1]
    zero = c0 * 0.0
    for n in range(degree - 1):
        order = n
        G = cs + [zero] * (degree + 1 - len(cs))
        Gb = [g.conj() for g in G]
        Gs = [g.dds() for g in G]
        Gv = [(i + 1.0) * G[i + 1] for i in range(len(G) - 1)] + [zero]
        Gz = [0.5 * (Gs[i] - 1j * Gv[i]) for i in range(len(G))]
        Gzb = [0.5 * (Gs[i] + 1j * Gv[i]) for i in range(len(G))]
        Gzb_c = [g.conj() for g in Gzb]
        g2 = _bivariate_mul(G, Gb, order)
        g4 = _bivariate_mul(g2, g2, order)
        den = [1.0 - g4[0]] + [g * -1.0 for g in g4[1:]]
        den_inv = _bivariate_recip(den, order)
        t1 = _bivariate_mul(_bivariate_mul(g2, Gb, order),
                            _bivariate_mul(Gz, Gzb, order), order)
        t2 = _bivariate_mul(_bivariate_mul(Gzb, Gzb_c, order), G, order)
        rhs = _bivariate_mul([t1[i] + k * t2[i] for i in range(order + 1)],
                             den_inv, order)
        c_new = (cs[n].dds().dds() + 8.0 * rhs[n]) \
            * (-1.0 / ((n + 2.0) * (n + 1.0)))
        cs.append(c_new)
    return cs


def _horner_eval(cs: List[_Series], s: np.ndarray,
                 v: np.ndarray) -> np.ndarray:
    vals = np.zeros((len(s), len(v)), dtype=complex)
    for c in reversed(cs):
        vals = vals * v[None, :] + c.eval(s)[:, None]
    return vals


# ---------------------------------------------------------------------------
# Cauchy problem: analytic curve + prescribed normal
# ---------------------------------------------------------------------------

@dataclass
class BjorlingData:
    """Analytic curve and unit normal field, as truncated series.

    ``beta`` and ``normal`` are real coefficient arrays of shape
    ``(3, n_terms)``, one row per space component.  For ``curve_kind =
    "taylor"`` row entries are coefficients of ``(s - center)^j`` and the
    data live on ``|s - center| <= s_halfwidth``; for ``"fourier"`` the
    layout is ``[a0, a1, b1, a2, b2, ...]`` for
    ``a0 + sum a_m cos(m w s) + b_m sin(m w s)`` with ``w = 2 pi / period``.

    Constraints are checked on a dense sample at construction: the normal
    must be unit length, orthogonal to the curve tangent, and stay in the
    upper hemisphere (its stereographic image inside the unit disc).
    """

    curve_kind: str
    beta: np.ndarray
    normal: np.ndarray
    degree: int = 12
    center: float = 0.0
    s_halfwidth: float = 1.0
    period: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.curve_kind not in (TAYLOR, FOURIER):
            raise ValueError(f"unknown curve_kind {self.curve_kind!r}")
        self.beta = np.atleast_2d(np.asarray(self.beta, dtype=float))
        self.normal = np.atleast_2d(np.asarray(self.normal, dtype=float))
        for name, arr in (("beta", self.beta), ("normal", self.normal)):
            if arr.shape[0] != 3 or not 1 <= arr.shape[1] <= MAX_TERMS:
                raise ValueError(f"{name} must have shape (3, n_terms) with "
                                 f"1 <= n_terms <= {MAX_TERMS}, got "
                                 f"{arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite coefficients")
        self.degree = int(self.degree)
        if not 2 <= self.degree <= MAX_DEGREE:
            raise ValueError(f"series degree must lie in 2..{MAX_DEGREE}, "
                             f"got {self.degree}")
        if self.curve_kind == TAYLOR:
            if not self.s_halfwidth > 0:
                raise ValueError("taylor data need s_halfwidth > 0")
        else:
            if not self.period > 0:
                raise ValueError("fourier data need period > 0")
            if self.beta.shape[1] % 2 == 0 or self.normal.shape[1] % 2 == 0:
                raise ValueError("fourier rows must have odd length "
                                 "[a0, a1, b1, ...]")
        b, n = self.series_triples(max(self.beta.shape[1],
                                       self.normal.shape[1]) + 2)
        s = self.sample_grid(257)
        nv = np.stack([c.eval(s) for c in n])
        bp = np.stack([c.dds().eval(s) for c in b])
        if np.abs(nv.imag).max() > 1e-12 or np.abs(bp.imag).max() > 1e-12:
            raise ValueError("coefficient arrays must describe real curves")
        nv, bp = nv.real, bp.real
        unit = np.abs((nv ** 2).sum(axis=0) - 1.0).max()
        if unit > 1e-6:
            raise ValueError(f"normal field is not unit length "
                             f"(sup | |V|^2 - 1 | = {unit:.3e})")
        sp = np.linalg.norm(bp, axis=0).max()
        orth = np.abs((bp * nv).sum(axis=0)).max()
        if orth > 1e-6 * max(1.0, sp):
            raise ValueError("normal field is not orthogonal to the curve "
                             f"tangent (sup <beta', V> = {orth:.3e})")
        if nv[2].min() <= 0:
            raise ValueError("normal field must stay in the open upper "
                             "hemisphere (stereographic image inside the "
                             "unit disc)")

    def sample_grid(self, n: int) -> np.ndarray:
        if self.curve_kind == TAYLOR:
            return np.linspace(self.center - self.s_halfwidth,
                               self.center + self.s_halfwidth, n)
        return np.linspace(0.0, self.period, n)

    def series_triples(self, resolution: int
                       ) -> Tuple[List[_Series], List[_Series]]:
        """(beta, normal) as _Series triples on a carrier of given size."""
        def convert(row: np.ndarray) -> _Series:
            if self.curve_kind == TAYLOR:
                return _Series.taylor(row, self.center, resolution)
            modes: Dict[int, complex] = {0: complex(row[0])}
            for m in range(1, (len(row) + 1) // 2):
                a = row[2 * m - 1]
                bcoef = row[2 * m] if 2 * m < len(row) else 0.0
                modes[m] = 0.5 * (a - 1j * bcoef)
                modes[-m] = 0.5 * (a + 1j * bcoef)
            return _Series.fourier(modes, self.period, resolution)

        return ([convert(r) for r in self.beta],
                [convert(r) for r in self.normal])


def solve_bjorling(data: BjorlingData, k: float, halfwidth: float, *,
                   n_u: int = 201, n_v: int = 201) -> GaussField:
    """Grow the Gauss field off a curve with prescribed surface normal.

    The curve and normal determine the field and its first transverse
    derivative on the line v = 0; the field PDE then fixes every higher
    v-derivative (a Cauchy recursion in truncated series arithmetic, so
    all differentiation is exact).  The series is summed on the strip
    ``|v| <= halfwidth`` and returned as a ``GaussField`` whose metadata
    carries the anchor ``beta(s_center)``, so a subsequent
    ``integrate_representation`` reproduces the surface through the curve.

    ``FIELD_RESIDUAL_BOUND`` bounds the convergence certificate: the PDE
    residual of the evaluated series (``meta["certificate"]``).  A
    certificate above it, or outright growth of the scaled coefficient norms,
    raises ``NumericalError`` (strip too wide for the truncation order).
    Note the certificate is computed on the evaluation grid, so it
    includes an O(h^2) discretization floor in addition to the series
    truncation error.

    The initial value has two algebraically equivalent expressions whose
    pointwise disagreement measures how far the data are from exactly
    null-compatible; it is reported as ``meta["branch_disagreement"]``
    (NaN when one branch degenerates everywhere, as happens for straight
    lines) rather than silently resolved.
    """
    k = float(k)
    if k == 0.0:
        raise ValueError("k = 0 is outside the scope of this solver")
    if not halfwidth > 0:
        raise ValueError("halfwidth must be positive")
    if n_u < 3 or n_v < 3:
        raise ValueError("evaluation grid needs at least 3 nodes per axis")
    resolution = 2 * data.degree + 9 + max(data.beta.shape[1],
                                           data.normal.shape[1])

    b, vfield = data.series_triples(resolution)
    sgrid = data.sample_grid(max(n_u, 129))
    if k != 1.0:
        b3min = b[2].eval(sgrid).real.min()
        if b3min <= 0:
            raise ValueError("the curve must stay at positive height when "
                             f"k != 1 (min beta_3 = {b3min:.3e}); the weight "
                             "is singular on the plane z = 0")

    bp = [c.dds() for c in b]
    cross = [bp[1] * vfield[2] - bp[2] * vfield[1],
             bp[2] * vfield[0] - bp[0] * vfield[2],
             bp[0] * vfield[1] - bp[1] * vfield[0]]
    phi = [0.5 * (bp[i] - 1j * cross[i]) for i in range(3)]
    den = phi[0] - 1j * phi[1]

    phi_v = np.stack([p.eval(sgrid) for p in phi])
    den_v = phi_v[0] - 1j * phi_v[1]
    scale = np.abs(phi_v).max()
    if scale == 0.0:
        raise ValueError("degenerate data: the curve is a single point")
    margin = 1e-8 * scale
    if np.abs(den_v).min() >= margin:
        g0 = phi[2] * den.recip()
        branch = "primary"
    elif np.abs(phi_v[2]).min() >= margin:
        g0 = (phi[0] + 1j * phi[1]) * phi[2].recip() * -1.0
        branch = "alternate"
    else:
        raise ValueError("both initial-value denominators vanish along the "
                         "curve; the data are degenerate")

    both = (np.abs(den_v) >= margin) & (np.abs(phi_v[2]) >= margin)
    if np.any(both):
        ga = phi_v[2][both] / den_v[both]
        gb = -(phi_v[0][both] + 1j * phi_v[1][both]) / phi_v[2][both]
        branch_disagreement = float(np.abs(ga - gb).max())
    else:
        branch_disagreement = math.nan

    g0c = g0.conj()
    d0 = 1.0 - (g0 * g0c) * (g0 * g0c)
    if k == 1.0:
        gzb0 = 0.25 * (d0 * den.conj())
    else:
        gzb0 = (d0 * den.conj() * b[2].recip()) * (0.5 / (k - 1.0))
    c1 = -1j * (2.0 * gzb0 - g0.dds())

    cs = _cauchy_march(g0, c1, k, data.degree)
    tails = np.array([float(np.abs(c.eval(sgrid)).max()) * halfwidth ** n
                      for n, c in enumerate(cs)])
    # A convergent evaluation has its largest scaled term early and a
    # decaying tail; genuine divergence puts the maximum at the end.  Two
    # trailing terms are inspected because symmetric data often alternate
    # between large and small coefficients.  The comparison is on evaluated
    # sup norms, not raw coefficients, because high-order coefficient noise
    # with tiny contribution on the strip is harmless.
    floor = max(float(tails.min()), 1e-300)
    tail_end = float(tails[-2:].max())
    if len(tails) >= 4 and tail_end >= tails.max() * (1.0 - 1e-12) \
            and tail_end > 1e3 * floor:
        raise NumericalError(
            "transverse series diverges on the requested strip (scaled "
            f"tail norm {tail_end:.3e} vs minimum {floor:.3e}); reduce "
            "halfwidth or raise the truncation degree")

    u = data.sample_grid(n_u)
    v = np.linspace(-halfwidth, halfwidth, n_v)
    G = _horner_eval(cs, u, v)

    ic = (n_u - 1) // 2
    anchor = np.array([c.eval(np.array([u[ic]]))[0].real for c in b])
    meta = {"anchor_point": anchor,
            "anchor_zeta": complex(u[ic], 0.0),
            "branch": branch,
            "branch_disagreement": branch_disagreement}
    try:
        fieldout = GaussField(u=u, v=v, G=G, k_param=k, meta=meta)
    except ValueError as exc:
        raise NumericalError(
            f"series field leaves the admissible region: {exc}") from exc

    cert = gauss_pde_residual(fieldout)
    fieldout.meta["certificate"] = cert
    if not math.isfinite(cert) or cert > FIELD_RESIDUAL_BOUND:
        raise NumericalError(
            f"convergence certificate {cert:.3e} exceeds the tolerance "
            f"{FIELD_RESIDUAL_BOUND:.1e}: strip halfwidth {halfwidth:g} is "
            f"too wide for truncation degree {data.degree}")
    return fieldout


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_gauss_field(fieldobj: GaussField, path,
                     comments: Sequence[str] = ()) -> None:
    """Write a field as CSV columns (u, v, Re G, Im G), row-major in u."""
    shape, rows = grid_rows(fieldobj.u, fieldobj.v, fieldobj.G.real,
                            fieldobj.G.imag)
    write_table(path, [*comments, f"k = {FLOAT % float(fieldobj.k_param)}",
                       shape], "u,v,re_g,im_g", rows)


def load_gauss_field(path) -> GaussField:
    """Read a field written by ``save_gauss_field``."""
    return gauss_field_from_table(path, read_table(path))


def gauss_field_from_table(path, table: Tuple[Dict[str, str], str, np.ndarray]
                           ) -> GaussField:
    """Field from the table ``read_table(path)`` read: the ``k`` and
    ``shape`` headers and rows of u, v, Re G, Im G."""
    meta, colnames, raw = table
    if colnames != "u,v,re_g,im_g":
        raise ValueError(f"{path} is not a Gauss field artifact "
                         f"(columns {colnames!r})")
    try:
        k = float(meta["k"])
    except (KeyError, ValueError):
        raise ValueError(f"{path} lacks a valid k header") from None
    u, v, (re_g, im_g) = grid_from_table(path, meta, raw)
    return GaussField(u=u, v=v, G=re_g + 1j * im_g, k_param=k)


def bjorling_from_json(text: str) -> Tuple[BjorlingData, float]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid Cauchy-data document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("Cauchy-data document must be a JSON object")
    for key in ("curve_kind", "k", "beta", "normal"):
        if key not in doc:
            raise ValueError(f"Cauchy-data document lacks the {key!r} entry")
    numbers = {"k": doc["k"], "degree": doc.get("degree", 12),
               "center": doc.get("center", 0.0),
               "s_halfwidth": doc.get("s_halfwidth", 1.0),
               "period": doc.get("period", 0.0)}
    for key, value in numbers.items():
        try:
            if not isinstance(value, (int, float)) or isinstance(value, bool) \
                    or key == "degree" and value % 1:
                raise TypeError
            numbers[key] = float(value)
        except (TypeError, OverflowError):
            kind = "an integer" if key == "degree" else "a number"
            raise ValueError(f"Cauchy-data entry {key!r} must be {kind}, "
                             f"got {value!r}") from None
    try:
        rows = [np.asarray(doc[key], dtype=float)
                for key in ("beta", "normal")]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"Cauchy-data rows must hold numbers ({exc})"
                         ) from None
    k = numbers.pop("k")
    return BjorlingData(doc["curve_kind"], *rows, **numbers), k
