"""Duality between Euclidean weighted-minimal graphs and Lorentzian
spacelike weighted-maximal graphs.

A solution graph determines a convex potential through a prescribed
Hessian.  Reading the potential's gradient as new base coordinates and the
height through the increasing reparametrization with derivative e^phi
produces a graph of the opposite signature, weighted by -phi composed with
the inverse reparametrization.  Mean and Gauss curvature transform by the
conformal factors W^2 e^{-phi} and W^4 e^{-2 phi}; every transform here
verifies those relations numerically and reports the outcome in ``meta``.

On an immersion the same map can be written as the path integral of
e^{phi(height)} (e3 x (dpsi x N) + <psi, e3> e3); only the graph version is
implemented, the integral form serves as a cross-check in the test-suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.interpolate import RectBivariateSpline

from .errors import NumericalError
from .profiles import (WeightProfile, make_builtin, make_custom,
                       _antiderivative, _invert_monotone, _limit)
from .surfaces import (EUCLIDEAN, LORENTZIAN, GraphPatch, fe_residual,
                       lfe_residual, _graph_curvatures,
                       curvature_from_derivatives, staircase)

__all__ = [
    "ThetaPrimitive", "PotentialPatch", "make_theta", "natural_theta",
    "dual_profile", "integrate_potential", "to_lorentz", "from_lorentz",
]


# ---------------------------------------------------------------------------
# height reparametrization
# ---------------------------------------------------------------------------

@dataclass
class ThetaPrimitive:
    """Strictly increasing map with derivative e^phi, plus its inverse.

    ``value`` is the primitive itself; ``inverse_value`` is a closed-form
    inverse when one exists (otherwise the primitive is inverted
    numerically).  ``reach`` is the closed interval where ``value``
    evaluates, the domain unless given: the reach of a quadrature primitive,
    and for the primitive of a dual weight the image of the source
    primitive's reach.  ``image_hint`` is the exact image of the domain,
    known for the primitive of a dual weight (the source domain).  ``base``
    is the height where the primitive vanishes, None for a closed form with
    its canonical additive constant, on which the dual weight depends.
    """

    value: Callable
    derivative: Callable
    domain: Tuple[float, float]
    inverse_value: Optional[Callable] = None
    image_hint: Optional[Tuple[float, float]] = None
    reach: Optional[Tuple[float, float]] = None
    base: Optional[float] = None

    def __post_init__(self):
        if self.reach is None:
            self.reach = self.domain

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        out = np.asarray(self.value(z), dtype=float)
        return out if out.shape else float(out)

    def inverse(self, t):
        t = np.asarray(t, dtype=float)
        if self.inverse_value is not None:
            out = np.asarray(self.inverse_value(t), dtype=float)
            return out if out.shape else float(out)
        return _invert_monotone(self.value, t, self.domain, self.reach,
                                self.derivative, error=NumericalError)

    def image(self, lo: float, hi: float) -> Tuple[float, float]:
        """Open interval the primitive maps (lo, hi) onto, by monotonicity.

        A stored ``image_hint`` answers the whole-domain question directly;
        otherwise each end is the primitive's limit there (``_limit``),
        infinite where the reach stops short of an infinite end."""
        if self.image_hint is not None and (lo, hi) == tuple(self.domain):
            return tuple(self.image_hint)
        return (_limit(self.value, lo, 1.0, self.reach),
                _limit(self.value, hi, -1.0, self.reach))


def make_theta(profile: WeightProfile, base_point: float) -> ThetaPrimitive:
    """Primitive of e^phi pinned to zero at ``base_point``.

    Closed forms for the builtin kinds; the panel primitive otherwise.
    """
    profile.require_inside(base_point, "base point")
    nat = natural_theta(profile, base_point)
    off = float(nat.value(base_point))
    return ThetaPrimitive(
        value=lambda z, _f=nat.value, _o=off: np.asarray(_f(z)) - _o,
        derivative=nat.derivative,
        domain=profile.domain,
        inverse_value=(None if nat.inverse_value is None else
                       lambda t, _g=nat.inverse_value, _o=off: _g(
                           np.asarray(t, dtype=float) + _o)),
        reach=nat.reach, base=base_point,
    )


def natural_theta(profile: WeightProfile, base: Optional[float] = None
                  ) -> ThetaPrimitive:
    """Primitive of e^phi with the canonical additive constant for the
    linear and log kinds (so dual weights take their closed forms); for
    other kinds the panel primitive pinned to zero at ``base``, which they
    therefore require."""
    deriv = lambda z: np.exp(np.asarray(profile.phi(z), dtype=float))
    if profile.kind == "linear":
        m = profile.params["slope"]
        return ThetaPrimitive(
            value=lambda z, m=m: np.exp(m * np.asarray(z, dtype=float)) / m,
            derivative=deriv, domain=profile.domain,
            inverse_value=lambda t, m=m: np.log(
                m * np.asarray(t, dtype=float)) / m,
        )
    if profile.kind == "log":
        a = profile.params["alpha"]
        if a == -1.0:
            return ThetaPrimitive(
                value=lambda z: np.log(np.asarray(z, dtype=float)),
                derivative=deriv, domain=profile.domain,
                inverse_value=lambda t: np.exp(np.asarray(t, dtype=float)),
            )
        q = a + 1.0
        return ThetaPrimitive(
            value=lambda z, q=q: np.asarray(z, dtype=float) ** q / q,
            derivative=deriv, domain=profile.domain,
            inverse_value=lambda t, q=q: (
                q * np.asarray(t, dtype=float)) ** (1.0 / q),
        )
    if base is None:
        raise ValueError(
            f"the {profile.kind} weight has no closed-form primitive of "
            "e^phi; its quadrature primitive needs the base height "
            "(theta_base) where it vanishes")
    value = _antiderivative(deriv, base, profile.domain)
    return ThetaPrimitive(value=value, derivative=deriv,
                          domain=profile.domain, reach=value.reach, base=base)


def _is_natural(profile: WeightProfile, theta: ThetaPrimitive) -> bool:
    """Whether ``theta`` carries the canonical additive constant.

    Any primitive of e^phi induces a valid dual weight, but only the
    natural one lands on the builtin closed forms; an offset shifts the
    dual's argument.
    """
    lo, hi = profile.domain
    probe = 0.5 if not (math.isfinite(lo) and math.isfinite(hi)) else \
        0.5 * (lo + hi)
    if math.isfinite(lo) and probe <= lo:
        probe = lo + 1.0
    nat = natural_theta(profile)
    a, b = float(theta(probe)), float(nat.value(probe))
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def dual_profile(profile: WeightProfile, theta: ThetaPrimitive
                 ) -> Tuple[WeightProfile, ThetaPrimitive]:
    """Transformed weight -phi(theta^{-1}(w)) and the primitive of its
    exponential weight (which is theta^{-1} itself).

    The pair Linear(1) <-> Log(-1) paired with its natural primitive maps
    onto the builtin constructors so the duality is exact in both
    directions; offset primitives fall through to the generic closures.
    """
    lo, hi = theta.image(*profile.domain)
    reach = theta.image(*theta.reach)

    dual_theta = ThetaPrimitive(value=theta.inverse, derivative=None,
                                domain=(lo, hi), inverse_value=theta.__call__,
                                image_hint=tuple(profile.domain), reach=reach)

    if profile.kind == "linear" and profile.params["slope"] == 1.0 \
            and _is_natural(profile, theta):
        dual = make_builtin("log", -1.0)
    elif profile.kind == "log" and profile.params["alpha"] == -1.0 \
            and _is_natural(profile, theta):
        dual = make_builtin("linear", 1.0)
    else:
        def d_phi(w):
            s = theta.inverse(w)
            return -np.asarray(profile.phi(s), dtype=float)

        def d_dphi(w):
            s = theta.inverse(w)
            return (-np.asarray(profile.dphi(s), dtype=float)
                    * np.exp(-np.asarray(profile.phi(s), dtype=float)))

        def d_ddphi(w):
            s = theta.inverse(w)
            p1 = np.asarray(profile.dphi(s), dtype=float)
            p2 = np.asarray(profile.ddphi(s), dtype=float)
            return (p1 ** 2 - p2) * np.exp(
                -2.0 * np.asarray(profile.phi(s), dtype=float))

        dual = make_custom(d_dphi, phi=d_phi, ddphi=d_ddphi,
                           domain=(lo, hi), reach=reach,
                           increasing=not profile.increasing,
                           params={"dual_of": profile.kind,
                                   "source_params": dict(profile.params)})
    dual_theta.derivative = lambda w: np.exp(
        np.asarray(dual.phi(w), dtype=float))
    return dual, dual_theta


# ---------------------------------------------------------------------------
# convex potential
# ---------------------------------------------------------------------------

@dataclass
class PotentialPatch:
    """Gradient of the convex potential on the same grid as the source
    patch.  ``phi_x``/``phi_y`` are normalized to vanish at node [0, 0]."""

    x: np.ndarray
    y: np.ndarray
    phi_x: np.ndarray
    phi_y: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.phi_x = np.asarray(self.phi_x, dtype=float)
        self.phi_y = np.asarray(self.phi_y, dtype=float)
        shape = (len(self.x), len(self.y))
        if self.phi_x.shape != shape or self.phi_y.shape != shape:
            raise ValueError("gradient fields must be (len(x), len(y))")
        hx = self.x[1] - self.x[0]
        hy = self.y[1] - self.y[0]
        mixed = (np.gradient(self.phi_x, hy, axis=1, edge_order=2)
                 - np.gradient(self.phi_y, hx, axis=0, edge_order=2))
        self.meta.setdefault("mixed_partial_defect",
                             float(np.max(np.abs(mixed[1:-1, 1:-1]))))
        hxx = np.gradient(self.phi_x, hx, axis=0, edge_order=2)[1:-1, 1:-1]
        hyy = np.gradient(self.phi_y, hy, axis=1, edge_order=2)[1:-1, 1:-1]
        hxy = np.gradient(self.phi_x, hy, axis=1, edge_order=2)[1:-1, 1:-1]
        det = hxx * hyy - hxy ** 2
        scale = float(np.max(np.abs(hxx)) + np.max(np.abs(hyy))) or 1.0
        if np.any(hxx < -1e-8 * scale) or np.any(det < -1e-8 * scale ** 2):
            raise ValueError("potential gradient is not that of a convex "
                             "function (Hessian not PSD)")


def _hessian_fields(patch: GraphPatch, profile: WeightProfile):
    """Prescribed second derivatives of the potential, per signature."""
    profile.require_inside(patch.u, "patch heights")
    ux, uy = patch.gradients()
    weight = np.exp(np.asarray(profile.phi(patch.u), dtype=float))
    if patch.signature == EUCLIDEAN:
        w = np.sqrt(1.0 + ux ** 2 + uy ** 2)
        hxx = weight * (1.0 + ux ** 2) / w
        hxy = weight * ux * uy / w
        hyy = weight * (1.0 + uy ** 2) / w
    else:
        w2 = 1.0 - ux ** 2 - uy ** 2
        if np.any(w2 <= 0.0):
            raise ValueError("patch is not spacelike up to the border")
        w = np.sqrt(w2)
        hxx = weight * (1.0 - ux ** 2) / w
        hxy = -weight * ux * uy / w
        hyy = weight * (1.0 - uy ** 2) / w
    return hxx, hxy, hyy, ux, uy, w, weight


def integrate_potential(patch: GraphPatch, profile: WeightProfile,
                        tol: Optional[float] = None) -> PotentialPatch:
    """Path-integrate the prescribed Hessian rows into the potential
    gradient, normalized to zero at grid node [0, 0].

    Each gradient component is integrated along x-then-y and along
    y-then-x; the two routes agreeing (up to quadrature error) is exactly
    the integrability of the system, i.e. the patch solving its graph
    equation.  Disagreement beyond ``tol`` raises NumericalError.  The
    default tolerance scales with the grid spacing squared, so refining a
    genuine solution keeps passing while a non-solution keeps failing.
    """
    hxx, hxy, hyy, *_ = _hessian_fields(patch, profile)
    ax, bx = staircase(hxx, hxy, patch.hx, patch.hy)
    ay, by = staircase(hxy, hyy, patch.hx, patch.hy)
    phi_x, phi_y = 0.5 * (ax + bx), 0.5 * (ay + by)
    disagreement = max(float(np.max(np.abs(ax - bx))),
                       float(np.max(np.abs(ay - by))))

    if tol is None:
        hess_scale = max(float(np.max(np.abs(f))) for f in (hxx, hxy, hyy))
        extent = (patch.x[-1] - patch.x[0]) + (patch.y[-1] - patch.y[0])
        tol = 25.0 * (patch.hx ** 2 + patch.hy ** 2) * hess_scale * \
            max(1.0, extent)
    if disagreement > tol:
        raise NumericalError(
            f"potential system is not integrable on this patch "
            f"(path disagreement {disagreement:.3e} > {tol:.3e}); "
            f"the heights do not solve the graph equation")
    return PotentialPatch(x=patch.x, y=patch.y, phi_x=phi_x, phi_y=phi_y,
                          meta={"path_disagreement": disagreement,
                                "tol": tol,
                                "signature": patch.signature})


# ---------------------------------------------------------------------------
# the correspondence, both directions
# ---------------------------------------------------------------------------

def to_lorentz(patch: GraphPatch, profile: WeightProfile,
               tol: Optional[float] = None
               ) -> Tuple[GraphPatch, WeightProfile]:
    """Transform a Euclidean solution patch into the dual spacelike graph.

    Returns the resampled Lorentzian patch and the transformed weight.
    ``meta`` of the result carries the verification report: residual of the
    Lorentzian graph equation, the gradient pairing (dual slope = slope/W),
    and the mean/Gauss curvature relations at matched points.
    """
    if patch.signature != EUCLIDEAN:
        raise ValueError("to_lorentz expects a Euclidean patch")
    return _transform(patch, profile, tol)


def from_lorentz(patch: GraphPatch, profile: WeightProfile,
                 tol: Optional[float] = None
                 ) -> Tuple[GraphPatch, WeightProfile]:
    """Transform a spacelike solution patch back to a Euclidean graph.

    Mirror of :func:`to_lorentz`; if the patch was produced by it, the
    stored primitive hint is reused so the round trip has no free additive
    constant.
    """
    if patch.signature != LORENTZIAN:
        raise ValueError("from_lorentz expects a Lorentzian patch")
    return _transform(patch, profile, tol)


def _transform(patch: GraphPatch, profile: WeightProfile,
               tol: Optional[float]) -> Tuple[GraphPatch, WeightProfile]:
    pot = integrate_potential(patch, profile, tol)
    hxx, hxy, hyy, ux, uy, w, _ = _hessian_fields(patch, profile)

    theta = patch.meta.get("theta_hint")
    if not isinstance(theta, ThetaPrimitive):
        theta = natural_theta(profile, float(np.min(patch.u)))
    dual, dual_theta = dual_profile(profile, theta)

    det = hxx * hyy - hxy ** 2
    if np.any(det <= 0.0) or np.any(hxx <= 0.0):
        raise NumericalError("gradient map folds over (degenerate Hessian); "
                             "the patch reaches the singular locus of the "
                             "correspondence")

    # the free linear polynomial of the potential translates the new base
    # coordinates; a patch produced by the opposite transform remembers
    # where its origin node came from, so round trips land back in the
    # source frame instead of an origin-normalized translate of it
    shift = patch.meta.get("origin_hint", (0.0, 0.0))
    gfx = pot.phi_x + shift[0]
    gfy = pot.phi_y + shift[1]

    # target rectangle inscribed in the image of the gradient map
    margin = 1e-9
    x_lo = float(np.max(gfx[0, :])) + margin
    x_hi = float(np.min(gfx[-1, :])) - margin
    y_lo = float(np.max(gfy[:, 0])) + margin
    y_hi = float(np.min(gfy[:, -1])) - margin
    pad_x = 2e-3 * (x_hi - x_lo)
    pad_y = 2e-3 * (y_hi - y_lo)
    x_lo, x_hi = x_lo + pad_x, x_hi - pad_x
    y_lo, y_hi = y_lo + pad_y, y_hi - pad_y
    if not (x_lo < x_hi and y_lo < y_hi):
        raise NumericalError("image of the gradient map contains no "
                             "rectangle; patch too distorted to resample")
    # target spacing matches the image of a source cell where the map
    # stretches the most: sampling finer than that would difference the
    # interpolation wiggle of the source fields instead of the geometry
    rate_x = float(np.max(hxx))
    rate_y = float(np.max(hyy))
    # the analytic Hessian determinant never vanishes, so true fold-over
    # cannot happen; what does happen near a vertical tangent is that the
    # stretching rate blows up until one source cell covers the whole
    # image and injectivity is lost at grid resolution
    cells_x = (x_hi - x_lo) / (patch.hx * rate_x)
    cells_y = (y_hi - y_lo) / (patch.hy * rate_y)
    if min(cells_x, cells_y) < 6.0:
        raise NumericalError(
            "gradient map folds over at grid resolution (a single source "
            "cell spans the target rectangle); the patch approaches the "
            "singular locus of the correspondence")
    nx = int(np.clip(math.ceil((x_hi - x_lo) / (patch.hx * rate_x)) + 1,
                     9, 4 * len(patch.x)))
    ny = int(np.clip(math.ceil((y_hi - y_lo) / (patch.hy * rate_y)) + 1,
                     9, 4 * len(patch.y)))
    xg = np.linspace(x_lo, x_hi, nx)
    yg = np.linspace(y_lo, y_hi, ny)

    # quintic interpolation: second differences of the resampled heights
    # must not be dominated by interpolation error of the source fields
    kx = min(5, len(patch.x) - 1)
    ky = min(5, len(patch.y) - 1)
    sx = RectBivariateSpline(patch.x, patch.y, gfx, kx=kx, ky=ky)
    sy = RectBivariateSpline(patch.x, patch.y, gfy, kx=kx, ky=ky)
    su = RectBivariateSpline(patch.x, patch.y, patch.u, kx=kx, ky=ky)

    tx, ty = np.meshgrid(xg, yg, indexing="ij")
    tx, ty = tx.ravel(), ty.ravel()

    # initial guess from the monotone mid-line profiles, then full Newton
    jm, im = ny // 2, nx // 2
    px = np.interp(tx, gfx[:, jm], patch.x)
    py = np.interp(ty, gfy[im, :], patch.y)
    scale = max(x_hi - x_lo, y_hi - y_lo, 1.0)
    newton_tol = 1e-11 * scale
    iters = 0
    for iters in range(1, 61):
        fx = sx(px, py, grid=False) - tx
        fy = sy(px, py, grid=False) - ty
        res = max(float(np.max(np.abs(fx))), float(np.max(np.abs(fy))))
        if res < newton_tol:
            break
        jxx = sx(px, py, dx=1, grid=False)
        jxy = sx(px, py, dy=1, grid=False)
        jyx = sy(px, py, dx=1, grid=False)
        jyy = sy(px, py, dy=1, grid=False)
        jdet = jxx * jyy - jxy * jyx
        if np.any(jdet <= 0.0):
            raise NumericalError("gradient map folds over during "
                                 "resampling (Jacobian sign change)")
        px = np.clip(px - (jyy * fx - jxy * fy) / jdet,
                     patch.x[0], patch.x[-1])
        py = np.clip(py - (-jyx * fx + jxx * fy) / jdet,
                     patch.y[0], patch.y[-1])
    else:
        raise NumericalError("resampling after the base-coordinate change "
                             "did not converge")

    u_src = su(px, py, grid=False)
    heights = np.asarray(theta(u_src), dtype=float).reshape(nx, ny)

    sig = LORENTZIAN if patch.signature == EUCLIDEAN else EUCLIDEAN
    try:
        out = GraphPatch(xg, yg, heights, signature=sig)
    except ValueError as err:
        raise NumericalError(
            f"transformed patch rejected ({err}); the source approaches "
            f"the singular locus of the correspondence") from err

    _verify(out, dual, patch, profile, su, px, py, u_src)
    out.meta["theta_hint"] = dual_theta
    out.meta["theta_base"] = theta.base
    out.meta["origin_hint"] = (float(px[0]), float(py[0]))
    out.meta["dual_kind"] = dual.kind
    out.meta["path_disagreement"] = pot.meta["path_disagreement"]
    out.meta["newton_iters"] = iters
    return out, dual


def _verify(out: GraphPatch, dual: WeightProfile, src: GraphPatch,
            profile: WeightProfile, su: RectBivariateSpline,
            px: np.ndarray, py: np.ndarray, u_src: np.ndarray) -> None:
    """Residual + relation diagnostics, written into ``out.meta``.

    The destination side uses the central-difference curvature estimators;
    the source side evaluates the same curvature formulas on spline
    derivatives of the input heights (matched points are off-grid).  Both
    are independent of how the transform produced the patch.
    """
    nx, ny = len(out.x), len(out.y)
    residual = (lfe_residual if out.signature == LORENTZIAN
                else fe_residual)(out, dual)
    out.meta["residual_max"] = float(np.nanmax(np.abs(residual)))

    # slope pairing: dual gradient = source gradient / source area factor
    gx, gy = out.gradients()
    sux = su(px, py, dx=1, grid=False).reshape(nx, ny)
    suy = su(px, py, dy=1, grid=False).reshape(nx, ny)
    if src.signature == EUCLIDEAN:
        w_src = np.sqrt(1.0 + sux ** 2 + suy ** 2)
    else:
        w_src = np.sqrt(np.maximum(1.0 - sux ** 2 - suy ** 2, 1e-300))
    pair = np.hypot(gx - sux / w_src, gy - suy / w_src)[1:-1, 1:-1]
    out.meta["gradient_pairing_max"] = float(np.max(pair))

    # curvature relations at matched points: the factors e^{-phi} W^2 and
    # e^{-2 phi} W^4 are evaluated on the source side
    h_dst, k_dst = _graph_curvatures(out)
    suxx = su(px, py, dx=2, grid=False).reshape(nx, ny)
    suyy = su(px, py, dy=2, grid=False).reshape(nx, ny)
    suxy = su(px, py, dx=1, dy=1, grid=False).reshape(nx, ny)
    h_match, k_match = curvature_from_derivatives(
        src.signature, sux, suy, suxx, suyy, suxy)
    uu = u_src.reshape(nx, ny)
    inside = np.zeros((nx, ny), dtype=bool)
    inside[1:-1, 1:-1] = True
    e_phi = np.exp(-np.asarray(profile.phi(uu), dtype=float))
    hh = h_dst + e_phi * w_src ** 2 * h_match
    kk = k_dst + e_phi ** 2 * w_src ** 4 * k_match
    hh_rel = np.abs(hh) / np.maximum(np.abs(h_dst), 1e-12)
    # the relative statistic excludes near-null regions, where both sides
    # of the relation blow up and the quotient is meaningless
    well = inside.copy()
    if out.signature == LORENTZIAN:
        well &= (1.0 - gx ** 2 - gy ** 2) > 0.15 ** 2
    else:
        well &= w_src ** 2 > 0.15 ** 2
    out.meta["hh_abs_max"] = float(np.max(np.abs(hh[inside])))
    out.meta["hh_rel_max"] = (float(np.max(hh_rel[well]))
                              if np.any(well) else math.nan)
    out.meta["kk_abs_max"] = float(np.max(np.abs(kk[inside])))
