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
from .surfaces import (EUCLIDEAN, LORENTZIAN, GraphPatch, ambient_sign,
                       fe_residual, lfe_residual, _interior_derivatives,
                       _interior_gradient, curvature_from_derivatives,
                       metric_factor, staircase, uniform_spacing)

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

    ``value`` is the primitive itself; ``inverse_value`` its inverse, in
    closed form where one exists, else the numerical inversion of a
    quadrature primitive.  ``reach`` is the closed interval where ``value``
    evaluates, the domain unless given: the reach of a quadrature primitive,
    and for the primitive of a dual weight the image of the source
    primitive's reach.  ``image_hint`` is the exact image of the domain,
    known for the primitive of a dual weight (the source domain).  ``base``
    is the height where the primitive vanishes, None for a closed form with
    its canonical additive constant, on which the dual weight depends; the
    primitive of a dual weight keeps the source primitive's ``base``.
    """

    value: Callable
    domain: Tuple[float, float]
    inverse_value: Callable
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
        out = np.asarray(self.inverse_value(np.asarray(t, dtype=float)),
                         dtype=float)
        return out if out.shape else float(out)

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
    if nat.base is not None:
        return nat  # the panel primitive, already zero at base_point
    off = float(nat.value(base_point))
    return ThetaPrimitive(
        value=lambda z, _f=nat.value, _o=off: np.asarray(_f(z)) - _o,
        domain=profile.domain,
        inverse_value=lambda t, _g=nat.inverse_value, _o=off: _g(
            np.asarray(t, dtype=float) + _o),
        base=base_point,
    )


def natural_theta(profile: WeightProfile, base: Optional[float] = None
                  ) -> ThetaPrimitive:
    """Primitive of e^phi with the canonical additive constant for the
    linear and log kinds (so dual weights take their closed forms); for
    other kinds the panel primitive pinned to zero at ``base``, which they
    therefore require."""
    if profile.kind == "linear":
        m = profile.params["slope"]
        return ThetaPrimitive(
            value=lambda z, m=m: np.exp(m * np.asarray(z, dtype=float)) / m,
            domain=profile.domain,
            inverse_value=lambda t, m=m: np.log(
                m * np.asarray(t, dtype=float)) / m,
        )
    if profile.kind == "log":
        a = profile.params["alpha"]
        if a == -1.0:
            return ThetaPrimitive(
                value=lambda z: np.log(np.asarray(z, dtype=float)),
                domain=profile.domain,
                inverse_value=lambda t: np.exp(np.asarray(t, dtype=float)),
            )
        q = a + 1.0
        return ThetaPrimitive(
            value=lambda z, q=q: np.asarray(z, dtype=float) ** q / q,
            domain=profile.domain,
            inverse_value=lambda t, q=q: (
                q * np.asarray(t, dtype=float)) ** (1.0 / q),
        )
    if base is None:
        raise ValueError(
            f"the {profile.kind} weight has no closed-form primitive of "
            "e^phi; its quadrature primitive needs the base height "
            "(theta_base) where it vanishes")
    deriv = lambda z: np.exp(np.asarray(profile.phi(z), dtype=float))
    value = _antiderivative(deriv, base, profile.domain)
    return ThetaPrimitive(
        value=value, domain=profile.domain,
        inverse_value=lambda t: _invert_monotone(value, t, profile.domain,
                                                 value.reach, deriv),
        reach=value.reach, base=base)


def dual_profile(profile: WeightProfile, theta: ThetaPrimitive
                 ) -> Tuple[WeightProfile, ThetaPrimitive]:
    """Transformed weight -phi(theta^{-1}(w)) and the primitive of its
    exponential weight (which is theta^{-1} itself).

    The pin decides: the pair Linear(1) <-> Log(-1) maps onto the builtin
    constructors only for the canonical primitive (``theta.base`` None), so
    the duality is exact in both directions; a pinned primitive falls
    through to the generic closures.  The dual's primitive records the
    source primitive's ``base``, so a round trip keeps that decision.
    """
    lo, hi = theta.image(*profile.domain)
    # the dual evaluates where theta inverts: on the image of a panel
    # primitive's run, short of the tail limit it holds beyond it
    reach = theta.image(*getattr(theta.value, "run", theta.reach))

    dual_theta = ThetaPrimitive(value=theta.inverse, domain=(lo, hi),
                                inverse_value=theta.__call__,
                                image_hint=tuple(profile.domain), reach=reach,
                                base=theta.base)

    if theta.base is None and profile.kind == "linear" \
            and profile.params["slope"] == 1.0:
        dual = make_builtin("log", -1.0)
    elif theta.base is None and profile.kind == "log" \
            and profile.params["alpha"] == -1.0:
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
                           params={"dual_of": profile.kind,
                                   "source_params": dict(profile.params)})
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
        hx = uniform_spacing(self.x, "x")
        hy = uniform_spacing(self.y, "y")
        _, hxx, hxy = _interior_gradient(self.phi_x, hx, hy)
        hyy = _interior_gradient(self.phi_y, hx, hy)[2]
        det = hxx * hyy - hxy ** 2
        scale = float(np.max(np.abs(hxx)) + np.max(np.abs(hyy))) or 1.0
        if np.any(hxx < -1e-8 * scale) or np.any(det < -1e-8 * scale ** 2):
            raise ValueError("potential gradient is not that of a convex "
                             "function (Hessian not PSD)")


def _hessian_fields(patch: GraphPatch, profile: WeightProfile):
    """Prescribed second derivatives of the potential: e^phi (I + s du du^T)
    / W in the ambient form of sign s."""
    profile.require_inside(patch.u, "patch heights")
    ux, uy = patch.gradients()
    weight = np.exp(np.asarray(profile.phi(patch.u), dtype=float))
    s = ambient_sign(patch.signature)
    # GraphPatch checks the interior slopes only, not the one-sided border
    w2 = metric_factor(s, ux, uy)
    if np.any(w2 <= 0.0):
        raise ValueError("patch is not spacelike up to the border")
    w = np.sqrt(w2)
    hxx = weight * (1.0 + s * ux ** 2) / w
    hxy = s * weight * ux * uy / w
    hyy = weight * (1.0 + s * uy ** 2) / w
    return hxx, hxy, hyy


def integrate_potential(patch: GraphPatch,
                        profile: WeightProfile) -> PotentialPatch:
    """Path-integrate the prescribed Hessian rows into the potential
    gradient, normalized to zero at grid node [0, 0].

    Each gradient component is integrated along x-then-y and along
    y-then-x; the two routes agreeing (up to quadrature error) is exactly
    the integrability of the system, i.e. the patch solving its graph
    equation.  Disagreement beyond ``25 (hx^2 + hy^2) max|Hess| max(1,
    extent)`` raises NumericalError: the bound scales with the grid spacing
    squared, so refining a genuine solution keeps passing while a
    non-solution keeps failing.  A Hessian that degenerates anywhere raises
    too; otherwise the largest stretching rates of the gradient map along x
    and y, the maxima of its diagonal, are recorded as
    ``meta["stretching"]``.
    """
    hxx, hxy, hyy = _hessian_fields(patch, profile)
    ax, bx = staircase(hxx, hxy, patch.hx, patch.hy)
    ay, by = staircase(hxy, hyy, patch.hx, patch.hy)
    phi_x, phi_y = 0.5 * (ax + bx), 0.5 * (ay + by)
    disagreement = max(float(np.max(np.abs(ax - bx))),
                       float(np.max(np.abs(ay - by))))

    hess_scale = max(float(np.max(np.abs(f))) for f in (hxx, hxy, hyy))
    extent = (patch.x[-1] - patch.x[0]) + (patch.y[-1] - patch.y[0])
    tol = 25.0 * (patch.hx ** 2 + patch.hy ** 2) * hess_scale * \
        max(1.0, extent)
    if disagreement > tol:
        raise NumericalError(
            f"potential system is not integrable on this patch "
            f"(path disagreement {disagreement:.3e} > {tol:.3e}); "
            f"the heights do not solve the graph equation")
    pot = PotentialPatch(x=patch.x, y=patch.y, phi_x=phi_x, phi_y=phi_y,
                         meta={"path_disagreement": disagreement})
    det = hxx * hyy - hxy ** 2
    if np.any(det <= 0.0) or np.any(hxx <= 0.0):
        raise NumericalError("gradient map folds over (degenerate Hessian); "
                             "the patch reaches the singular locus of the "
                             "correspondence")
    pot.meta["stretching"] = (float(np.max(hxx)), float(np.max(hyy)))
    return pot


# ---------------------------------------------------------------------------
# tensor-product spline evaluation
# ---------------------------------------------------------------------------

# points per evaluation block: a block's basis rows and knots, about 500 B
# a point for quintics, stay small beside the transform's own arrays (8192
# raised the transform's traced peak above that of FITPACK's evaluation)
_BLOCK = 4096


def _basis(t: np.ndarray, k: int, x: np.ndarray):
    """FITPACK's B-spline values at ``x`` for knots ``t`` of degree ``k``.

    Returns the offset l - k of each point's first coefficient, where
    t[l] <= x < t[l + 1] is the interval of ``fpbisp``'s knot search (the
    last one at the right end and for NaN, after clamping to the ends),
    and the rows of ``fpbspl``'s recursion: the degree-d values in rows
    d(d+1)/2 .. d(d+1)/2 + d, so a derivative's lower degree is a slice.
    """
    n = len(t)
    x = np.where(x < t[k], t[k], x)
    x = np.where(x > t[n - k - 1], t[n - k - 1], x)
    first = np.clip(np.searchsorted(t, x, "right") - 1 - k, 0, n - 2 * k - 2)
    near = np.empty((2 * k, x.size))  # t[l + i] in row k - 1 + i
    for r, row in enumerate(near):
        t[r + 1:].take(first, out=row)
    right, left = near[k:] - x, x - near[:k]
    h = np.empty(((k + 1) * (k + 2) // 2, x.size))
    h[0] = 1.0
    for j in range(1, k + 1):
        prev, row = h[j * (j - 1) // 2:], h[j * (j + 1) // 2:]
        row[0] = 0.0
        for i in range(1, j + 1):
            f = prev[i - 1] / (near[k - 1 + i] - near[k - 1 + i - j])
            row[i - 1] += f * right[i - 1]
            row[i] = f * left[k - 1 + i - j]
    return first, h


class GridSplines:
    """Interpolating tensor-product splines of fields on one grid.

    FITPACK fits them (``RectBivariateSpline``); they are evaluated here
    with the operations of its pointwise evaluation, so every value is
    ``RectBivariateSpline.__call__(..., grid=False)``'s bit for bit:
    ``pardeu``'s derivative coefficients, ``fpbisp``'s knot interval and
    ``fpbspl`` recursion, and ``fpbisp``'s sum of (c * hx[i]) * hy[j],
    i-major from +0.  Fits on one grid share their knots, so one knot
    search and one recursion per axis serve every field and derivative
    order at a point; a pass over the points forms each (field, dx, dy)'s
    coefficients once.  de Boor, "A Practical Guide to Splines" (1978);
    Dierckx, "Curve and Surface Fitting with Splines" (1993).
    """

    def __init__(self, x, y, fields, kx: int, ky: int):
        fits = [RectBivariateSpline(x, y, f, kx=kx, ky=ky).tck
                for f in fields]
        self.knots = fits[0][:2]
        self.degrees = (kx, ky)
        shape = (len(self.knots[0]) - kx - 1, len(self.knots[1]) - ky - 1)
        self._coef = [c.reshape(shape) for _, _, c in fits]

    def _table(self, field: int, dx: int, dy: int):
        """The (dx, dy) derivative's coefficients, flat, and their row
        length: ``pardeu``'s ((c[i+1] - c[i]) * k) / (t[i+1+k] - t[i+p])
        at pass p, along x and then along y."""
        c = self._coef[field]
        for axis, nu in enumerate((dx, dy)):
            t, k = self.knots[axis], self.degrees[axis]
            if nu >= k:
                raise ValueError(f"derivative order {nu} is not below the "
                                 f"spline degree {k}")
            c = np.moveaxis(c, axis, 0)
            for p in range(1, nu + 1):
                m = len(c) - 1
                fac = t[k + 1:k + 1 + m] - t[p:p + m]
                c = ((c[1:] - c[:-1]) * float(k - p + 1)) / fac[:, None]
            c = np.moveaxis(c, 0, axis)
        return np.ascontiguousarray(c).ravel(), c.shape[1]

    def points(self, x: np.ndarray, y: np.ndarray):
        """One pass over the points (x[i], y[i]) in blocks of at most
        ``_BLOCK``: each block's slice and its basis for ``fill``, the two
        axes' bases built as the block is reached."""
        (tx, ty), (kx, ky) = self.knots, self.degrees
        return _blocks(x.size, lambda part: (
            _basis(tx, kx, x[part]), _basis(ty, ky, y[part])))

    def at(self, x: np.ndarray, y: np.ndarray, wanted) -> np.ndarray:
        """Each (field, dx, dy) of ``wanted`` at the points (x[i], y[i]),
        one row per entry."""
        return self._collect(wanted, x.size, self.points(x, y))

    def on_grid(self, gx: np.ndarray, gy: np.ndarray, wanted) -> np.ndarray:
        """As ``at`` on the points (gx[i], gy[j]), x-major; each axis's
        basis is built once and broadcast."""
        (tx, ty), (kx, ky) = self.knots, self.degrees
        (ox, hx), (oy, hy) = _basis(tx, kx, gx), _basis(ty, ky, gy)

        def part_basis(part):
            i, j = np.divmod(np.arange(part.start, part.stop), gy.size)
            return (ox[i], hx[:, i]), (oy[j], hy[:, j])
        n = gx.size * gy.size
        return self._collect(wanted, n, _blocks(n, part_basis))

    def _collect(self, wanted, n: int, blocks) -> np.ndarray:
        out = np.empty((len(wanted), n))
        for part, basis in blocks:
            self.fill(basis, wanted, out[:, part])
            del basis  # before the next block's is built
        return out

    def fill(self, basis, wanted, out: np.ndarray) -> None:
        """Each (field, dx, dy) of ``wanted`` on one block's ``basis``
        from a pass, into the rows of ``out``."""
        (ox, hx), (oy, hy), tables = basis
        kx, ky = self.degrees
        buf = np.empty(ox.size)
        for key, acc in zip(wanted, out):
            if key not in tables:
                tables[key] = self._table(*key)
            flat, row = tables[key]
            first = ox * row + oy
            dgx, dgy = kx - key[1], ky - key[2]
            rx = hx[dgx * (dgx + 1) // 2:][:dgx + 1]
            ry = hy[dgy * (dgy + 1) // 2:][:dgy + 1]
            acc[...] = 0.0
            for i, hxi in enumerate(rx):
                for j, hyj in enumerate(ry):
                    # every index is in range; "clip" only skips the
                    # buffering that the default mode does with ``out``
                    flat[i * row + j:].take(first, out=buf, mode="clip")
                    buf *= hxi
                    buf *= hyj
                    acc += buf


def _blocks(n: int, part_basis):
    """One pass over n points in slices of at most ``_BLOCK``, each with
    ``part_basis(part)`` and the pass's coefficient tables, which ``fill``
    forms on first use and which go with the pass."""
    tables = {}
    for lo in range(0, n, _BLOCK):
        part = slice(lo, min(n, lo + _BLOCK))
        yield part, (*part_basis(part), tables)


# ---------------------------------------------------------------------------
# the correspondence, both directions
# ---------------------------------------------------------------------------

def to_lorentz(patch: GraphPatch, profile: WeightProfile
               ) -> Tuple[GraphPatch, WeightProfile]:
    """Transform a Euclidean solution patch into the dual spacelike graph.

    Returns the resampled Lorentzian patch and the transformed weight.
    ``meta`` of the result carries the verification report: residual of the
    Lorentzian graph equation, the gradient pairing (dual slope = slope/W),
    and the mean/Gauss curvature relations at matched points.
    """
    if patch.signature != EUCLIDEAN:
        raise ValueError("to_lorentz expects a Euclidean patch")
    return _transform(patch, profile)


def from_lorentz(patch: GraphPatch, profile: WeightProfile
                 ) -> Tuple[GraphPatch, WeightProfile]:
    """Transform a spacelike solution patch back to a Euclidean graph.

    Mirror of :func:`to_lorentz`; if the patch was produced by it, the
    stored primitive hint is reused so the round trip has no free additive
    constant.
    """
    if patch.signature != LORENTZIAN:
        raise ValueError("from_lorentz expects a Lorentzian patch")
    return _transform(patch, profile)


# Newton steps on the bilinear interpolant: the mid-line guess of a bowl
# sits up to about seven cells from the root, and four steps reach the
# bilinear root to rounding (moves of 7, 0.5, 4e-3 and 1e-7 cells)
_BILINEAR_STEPS = 4


def _bilinear_inverse(patch: GraphPatch, gfx, gfy, tx, ty, px, py):
    """Newton steps from (px, py) towards the preimage of (tx, ty) under
    the piecewise-bilinear interpolant of the fields ``gfx``, ``gfy`` on
    the patch's grid, each point clipped to the grid's rectangle.  A
    point whose cell's Jacobian is not positive there keeps its iterate,
    for the quintic Newton to judge."""
    x, y = patch.x, patch.y
    ny = len(y)
    fields = gfx.ravel(), gfy.ravel()
    for _ in range(_BILINEAR_STEPS):
        a, b = (px - x[0]) / patch.hx, (py - y[0]) / patch.hy
        i = np.minimum(np.floor(a), len(x) - 2)
        j = np.minimum(np.floor(b), ny - 2)
        a -= i
        b -= j
        k = (i * ny + j).astype(np.intp)
        rows = []
        for f in fields:
            f00, f10, f01, f11 = (f[k], f[k + ny], f[k + 1], f[k + ny + 1])
            ex, ey, twist = f10 - f00, f01 - f00, f11 - f10 - f01 + f00
            rows.append((f00 + a * ex + b * (ey + a * twist),
                         (ex + b * twist) / patch.hx,
                         (ey + a * twist) / patch.hy))
        (fx, jxx, jxy), (fy, jyx, jyy) = rows
        fx -= tx
        fy -= ty
        det = jxx * jyy - jxy * jyx
        det[~(det > 0.0)] = np.inf  # a zero step
        px = np.clip(px - (jyy * fx - jxy * fy) / det, x[0], x[-1])
        py = np.clip(py - (jxx * fy - jyx * fx) / det, y[0], y[-1])
    return px, py


# the resampling Newton's fields: the base change, its Jacobian, and the
# source heights with the derivatives _verify compares against
_VALUES = ((0, 0, 0), (1, 0, 0))
_JACOBIAN = ((0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1))
_HEIGHTS = ((2, 0, 0), (2, 1, 0), (2, 0, 1), (2, 2, 0), (2, 0, 2), (2, 1, 1))
_NEXT = (_JACOBIAN, _HEIGHTS)  # after the values, unconverged or converged


def _residual(f: np.ndarray) -> float:
    """The Newton's stopping measure of the residual rows fx, fy."""
    return max(float(np.max(np.abs(f[0]))), float(np.max(np.abs(f[1]))))


def _transform(patch: GraphPatch, profile: WeightProfile
               ) -> Tuple[GraphPatch, WeightProfile]:
    pot = integrate_potential(patch, profile)

    theta = patch.meta.get("theta_hint")
    if not isinstance(theta, ThetaPrimitive):
        theta = natural_theta(profile, float(np.min(patch.u)))
    dual, dual_theta = dual_profile(profile, theta)
    rate_x, rate_y = pot.meta["stretching"]

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
    # stretches the most (rate_x, rate_y): sampling finer than that would
    # difference the interpolation wiggle of the source fields instead of
    # the geometry
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

    origin, (u_src, *du), iters = _resample(patch, gfx, gfy, xg, yg)
    heights = np.asarray(theta(u_src), dtype=float).reshape(nx, ny)

    sig = LORENTZIAN if patch.signature == EUCLIDEAN else EUCLIDEAN
    try:
        out = GraphPatch(xg, yg, heights, signature=sig)
    except ValueError as err:
        raise NumericalError(
            f"transformed patch rejected ({err}); the source approaches "
            f"the singular locus of the correspondence") from err

    _verify(out, dual, patch, profile, u_src, du)
    out.meta["theta_hint"] = dual_theta
    out.meta["origin_hint"] = origin
    out.meta["path_disagreement"] = pot.meta["path_disagreement"]
    out.meta["newton_iters"] = iters
    return out, dual


def _resample(patch: GraphPatch, gfx, gfy, xg, yg):
    """The first preimage of the target grid xg x yg under the gradient
    map (``gfx``, ``gfy``), the rows of ``_HEIGHTS`` at all of them, and
    the number of quintic evaluations.

    The mid-line guess, brought within O(h^2) of the root by the bilinear
    inverse, starts full Newton on the quintics.  Each iterate makes one
    pass over the blocks of points: a block evaluates the base change on
    its one basis, then its Jacobian on the same basis, or the heights
    where the block has already converged.  The whole-array rule decides,
    and a block that guessed wrong builds its basis again for the fields
    it lacks.
    """
    # quintic interpolation: second differences of the resampled heights
    # must not be dominated by interpolation error of the source fields
    splines = GridSplines(patch.x, patch.y, (gfx, gfy, patch.u),
                          kx=min(5, len(patch.x) - 1),
                          ky=min(5, len(patch.y) - 1))
    nx, ny = len(xg), len(yg)
    tx, ty = np.meshgrid(xg, yg, indexing="ij")
    tx, ty = tx.ravel(), ty.ravel()
    jm, im = len(patch.y) // 2, len(patch.x) // 2
    px = np.repeat(np.interp(xg, gfx[:, jm], patch.x), ny)
    py = np.tile(np.interp(yg, gfy[im, :], patch.y), nx)
    px, py = _bilinear_inverse(patch, gfx, gfy, tx, ty, px, py)

    newton_tol = 1e-11 * max(float(xg[-1] - xg[0]), float(yg[-1] - yg[0]),
                             1.0)
    # a block keeps its Jacobian or its heights in the same columns
    f, more = np.empty((2, tx.size)), np.empty((6, tx.size))
    for iters in range(1, 61):
        guesses = []
        for part, basis in splines.points(px, py):
            block = f[:, part]
            splines.fill(basis, _VALUES, block)
            block[0] -= tx[part]
            block[1] -= ty[part]
            guess = _residual(block) < newton_tol
            guesses.append((part, guess))
            fields = _NEXT[guess]
            splines.fill(basis, fields, more[:len(fields), part])
            del basis  # before the next block's is built
        converged = _residual(f) < newton_tol
        fields = _NEXT[converged]
        for part, guess in guesses:
            if guess != converged:
                more[:len(fields), part] = splines.at(px[part], py[part],
                                                      fields)
        if converged:
            return (float(px[0]), float(py[0])), more, iters
        fx, fy = f
        jxx, jxy, jyx, jyy = more[:4]
        jdet = jxx * jyy - jxy * jyx
        if np.any(jdet <= 0.0):
            raise NumericalError("gradient map folds over during "
                                 "resampling (Jacobian sign change)")
        px = np.clip(px - (jyy * fx - jxy * fy) / jdet,
                     patch.x[0], patch.x[-1])
        py = np.clip(py - (-jyx * fx + jxx * fy) / jdet,
                     patch.y[0], patch.y[-1])
    raise NumericalError("resampling after the base-coordinate change did "
                         "not converge")


def _verify(out: GraphPatch, dual: WeightProfile, src: GraphPatch,
            profile: WeightProfile, u_src: np.ndarray, du) -> None:
    """Residual + relation diagnostics, written into ``out.meta``.

    The destination side uses the central-difference curvature estimators;
    the source side evaluates the same curvature formulas on the spline
    derivatives ``du`` (x, y, xx, yy, xy) of the input heights at the
    matched points, which are off-grid.  Both are independent of how the
    transform produced the patch.  The relations are read on the interior
    nodes, where the destination's stencil is defined.
    """
    nx, ny = len(out.x), len(out.y)
    residual = (lfe_residual if out.signature == LORENTZIAN
                else fe_residual)(out, dual)
    out.meta["residual_max"] = float(np.nanmax(np.abs(residual)))

    # slope pairing: dual gradient = source gradient / source area factor
    _, gx, gy, uxx, uyy, uxy = _interior_derivatives(out.u, out.hx, out.hy)
    sux, suy, suxx, suyy, suxy = (d.reshape(nx, ny)[1:-1, 1:-1] for d in du)
    # the clamp is a no-op on a Euclidean source, whose W^2 >= 1
    w_src = np.sqrt(np.maximum(
        metric_factor(ambient_sign(src.signature), sux, suy), 1e-300))
    pair = np.hypot(gx - sux / w_src, gy - suy / w_src)
    out.meta["gradient_pairing_max"] = float(np.max(pair))

    # curvature relations at matched points: the factors e^{-phi} W^2 and
    # e^{-2 phi} W^4 are evaluated on the source side; the residual above
    # has refused a Lorentzian patch that is not spacelike on the stencil
    h_dst, k_dst = curvature_from_derivatives(out.signature, gx, gy, uxx,
                                              uyy, uxy)
    h_match, k_match = curvature_from_derivatives(
        src.signature, sux, suy, suxx, suyy, suxy)
    uu = u_src.reshape(nx, ny)[1:-1, 1:-1]
    e_phi = np.exp(-np.asarray(profile.phi(uu), dtype=float))
    hh = h_dst + e_phi * w_src ** 2 * h_match
    kk = k_dst + e_phi ** 2 * w_src ** 4 * k_match
    hh_rel = np.abs(hh) / np.maximum(np.abs(h_dst), 1e-12)
    # the relative statistic excludes near-null regions, where both sides
    # of the relation blow up and the quotient is meaningless
    if out.signature == LORENTZIAN:
        well = metric_factor(-1.0, gx, gy) > 0.15 ** 2
    else:
        well = w_src ** 2 > 0.15 ** 2
    out.meta["hh_abs_max"] = float(np.max(np.abs(hh)))
    out.meta["hh_rel_max"] = (float(np.max(hh_rel[well]))
                              if np.any(well) else math.nan)
    out.meta["kk_abs_max"] = float(np.max(np.abs(kk)))
