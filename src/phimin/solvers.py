"""Generating-curve solvers.

All surfaces in this package come from 1-D curves: translation-invariant
profiles (vertical "catenaries" solving u'' = dphi(u)(1+u'^2)), rotational
bowls through the axis, and rotational necks at positive distance from the
axis.  This module integrates those ODEs, evaluates the explicit half-width
integral, checks the conserved quantity exp(phi(u)) cos(theta), and fits the
far-field laws of the rotational graphs.  Its integrals (the half-width, the
catenary cross-check, the radius tail) run on the Gauss-Legendre panels of
``profiles._antiderivative``, whose tail rule decides every improper end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Tuple

import numpy as np
from scipy.integrate import solve_ivp

from .errors import NumericalError
from .profiles import ProfileError, WeightProfile, _antiderivative, curly_g

CATENARY_GRAPH = "catenary_graph"
BOWL_GRAPH = "bowl_graph"
CATENOID_RIGHT = "catenoid_right"
CATENOID_LEFT = "catenoid_left"

_GRAPH_KINDS = (CATENARY_GRAPH, BOWL_GRAPH)
_BLOWUP_SLOPE = 1e8
_LAUNCH = 1e-3  # series launch length at the rotation axis
# candidate segment pairs decided at once by count_self_intersections
_PAIR_BLOCK = 1 << 20


@dataclass
class ProfileCurve:
    """Sampled generating curve.

    ``s`` is arc length for rotational kinds and the abscissa for catenary
    graphs.  ``theta`` is the tangent inclination (for graphs, arctan of the
    slope).  ``meta`` carries solver diagnostics: termination reason, blow-up
    estimates, cross-check discrepancies, milestone parameters.
    """

    s: np.ndarray
    x: np.ndarray
    z: np.ndarray
    theta: np.ndarray
    curve_kind: str
    profile: WeightProfile
    initial_data: dict
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.s)
        if not (len(self.x) == len(self.z) == len(self.theta) == n):
            raise ValueError("curve sample columns have mismatched lengths")
        if self.curve_kind in _GRAPH_KINDS and n > 1:
            if not np.all(np.diff(self.x) > 0):
                raise ValueError(f"{self.curve_kind} requires strictly increasing x")

    @property
    def n_samples(self) -> int:
        return len(self.s)

    def graph(self) -> Tuple[np.ndarray, np.ndarray]:
        """(x, u) arrays for single-valued graph kinds."""
        if self.curve_kind not in _GRAPH_KINDS:
            raise ValueError(f"{self.curve_kind} is not a graph over the x-axis")
        return self.x, self.z


@dataclass
class AsymptoteReport:
    """Result of a half-width computation or a far-field fit.

    ``lambda_u0`` holds the half-width for catenaries and the fitted maximal
    radius for rotational graphs (+inf in the unbounded cases); ``finite``
    reads it.  ``fitted_constants`` collects named reals from whichever fit
    ran; ``residual_decay_rate`` is the log-log slope of the remainder when a
    far-field law was fitted (NaN otherwise).
    """

    lambda_u0: float
    fitted_constants: dict = field(default_factory=dict)
    residual_decay_rate: float = math.nan

    @property
    def finite(self) -> bool:
        return self.lambda_u0 < math.inf


def _event(fn: Callable, direction: int, terminal: bool = True) -> Callable:
    """``fn`` as a ``solve_ivp`` event: a zero crossed in ``direction``
    (either way for 0), stopping the integration when ``terminal``."""
    fn.terminal, fn.direction = terminal, direction
    return fn


# ---------------------------------------------------------------------------
# catenary cylinders
# ---------------------------------------------------------------------------

def solve_catenary(profile: WeightProfile, u0: float, x_max: float,
                   tol: float = 1e-10, n_samples: int = 801) -> ProfileCurve:
    """Solve u'' = dphi(u) (1 + u'^2), u(0)=u0, u'(0)=0, up to |x| = x_max.

    The integration runs in arc length (x' = cos th, u' = sin th,
    th' = dphi(u) cos th), which stays regular even where the graph turns
    vertical, and the result is extended to negative x by evenness.  It
    stops at x_max, at slope blow-up (vertical asymptote; the abscissa is
    recorded in ``meta['lambda_estimate']``), or when u exits the profile
    domain (decreasing profiles falling to the domain floor).  The samples
    are cross-checked against the explicit quadrature for x as a function of
    height; the discrepancy lands in ``meta['quadrature_discrepancy']``.
    """
    profile.require_inside(u0, "initial height")
    if x_max <= 0:
        raise ValueError("x_max must be positive")

    lo, hi = profile.domain
    theta_cap = math.pi / 2 - 1.0 / _BLOWUP_SLOPE

    dphi = _clamped_dphi(profile)

    def rhs(s, y):
        x, u, th = y
        return [math.cos(th), math.sin(th), dphi(u) * math.cos(th)]

    # x_max, the vertical asymptote, and a domain end
    events = [_event(lambda s, y: y[0] - x_max, 1),
              _event(lambda s, y: abs(y[2]) - theta_cap, 1)]
    if math.isfinite(lo):
        events.append(_event(
            lambda s, y: y[1] - (lo + 1e-9 * max(1.0, abs(lo))), -1))
    if math.isfinite(hi):
        events.append(_event(
            lambda s, y: y[1] - (hi - 1e-9 * max(1.0, abs(hi))), 1))

    s_budget = 50.0 * x_max + 20.0
    sol = solve_ivp(rhs, (0.0, s_budget), [0.0, u0, 0.0], method="DOP853",
                    rtol=tol, atol=tol, events=events, dense_output=True)
    if sol.status == -1:
        raise NumericalError(f"catenary integration failed: {sol.message}")

    meta = {"terminated": "s_budget", "tol": tol}
    x_end, u_end, th_end = (float(v) for v in sol.y[:, -1])
    near_edge = any(math.isfinite(edge)
                    and abs(u_end - edge) < 1e-6 * max(1.0, abs(edge))
                    for edge in (lo, hi))
    if sol.status == 1:
        if len(sol.t_events[0]):
            meta["terminated"] = "x_max"
        elif near_edge:
            meta["terminated"] = "domain_exit"
        else:
            meta["terminated"] = "blow_up"
    if meta["terminated"] == "s_budget" and abs(math.tan(th_end)) > 1e3:
        meta["terminated"] = "blow_up"  # converged to the asymptote early
    if meta["terminated"] == "blow_up":
        # horizontal gap still ahead, from the exponential decay of cos(th)
        rate = abs(float(profile.dphi(u_end)))
        meta["lambda_estimate"] = x_end + (math.cos(th_end) / rate
                                           if rate > 1e-30 else 0.0)

    ss = np.linspace(0.0, sol.t[-1], n_samples)
    xs, uu, th_half = sol.sol(ss)

    meta["quadrature_discrepancy"] = _catenary_quadrature_check(
        profile, u0, xs, uu)

    # even extension
    s_full = np.concatenate([-ss[:0:-1], ss])
    x_full = np.concatenate([-xs[:0:-1], xs])
    u_full = np.concatenate([uu[:0:-1], uu])
    theta = np.concatenate([-th_half[:0:-1], th_half])

    return ProfileCurve(s=s_full, x=x_full, z=u_full, theta=theta,
                        curve_kind=CATENARY_GRAPH, profile=profile,
                        initial_data={"u0": u0}, meta=meta)


def _catenary_quadrature_check(profile, u0, xs, uu, n_check: int = 9) -> float:
    """Compare ODE samples with the closed quadrature x(u) = int du/sqrt(e^{2q}-1),
    q = phi(u) - phi(u0), taken along the monotone half-curve: one panel
    primitive (``_abscissa``) serves every sample.  Samples within 1e-14 of
    u0, where the rise is rounding noise, are skipped."""
    idx = np.linspace(1, len(xs) - 1, n_check, dtype=int)
    idx = idx[np.abs(uu[idx] - u0) >= 1e-14]
    if not idx.size:
        return 0.0
    w = np.sqrt(np.abs(uu[idx] - u0))
    q = _rise(profile, u0, 1.0 if profile.increasing else -1.0, w.max())
    return float(np.max(np.abs(_abscissa(q, w.max())(w) - xs[idx])))


def _rise(profile: WeightProfile, u0: float, sgn: float, w_end: float):
    """The catenary's rise q(w) = phi(u) - phi(u0) at height u = u0 + sgn w^2,
    as the panel primitive of 2w sgn dphi(u) on (0, w_end): a difference
    of phi would cancel at small w."""
    return _antiderivative(lambda w: 2.0 * sgn * w * np.asarray(
        profile.dphi(u0 + sgn * w * w), dtype=float), 0.0, (0.0, w_end))


def _abscissa(q, w_end: float):
    """The catenary's abscissa x(w) on (0, w_end), given its rise q: the
    panel primitive of 2w/sqrt(e^{2q} - 1) (for huge q, 2w e^{-q}).  The
    substitution u = u0 +/- w^2 turns the 1/sqrt singularity at u0
    analytic."""
    def slope(w):
        qw = q(w)
        return 2.0 * w * np.where(qw > 350, np.exp(-qw), np.expm1(
            2.0 * np.minimum(qw, 350)) ** -0.5)

    return _antiderivative(slope, 0.0, (0.0, w_end))


def first_integral_drift(curve: ProfileCurve, profile: WeightProfile) -> float:
    """Max deviation of exp(phi(u)) cos(theta) from its initial value.

    This quantity is conserved along exact catenary profiles, so the drift
    measures accumulated integrator error (or sample corruption).
    """
    if curve.n_samples < 2:
        return 0.0
    w = np.exp(np.asarray(profile.phi(curve.z), dtype=float)) * np.cos(curve.theta)
    return float(np.max(np.abs(w - w[0])))


# ---------------------------------------------------------------------------
# half-width integral
# ---------------------------------------------------------------------------

def compute_lambda(profile: WeightProfile, u0: float) -> AsymptoteReport:
    """Half-width of the maximal catenary interval, with a finiteness flag.

    Two independent routes must agree: (a) the improper integral of
    1/sqrt(exp(2(phi(u)-phi(u0))) - 1), on panels in w after the
    square-root substitution u = u0 + w^2 (``_abscissa``), and (b) tail
    integrability of exp(-phi) on panels in the same w.  Both flags come
    from the one tail rule (``profiles._tail``) at an infinite top; a finite
    top is reached.  Disagreement is a numerical error (bad profile).
    """
    if not profile.increasing:
        raise ProfileError("half-width analysis needs a strictly increasing profile")
    profile.require_inside(u0, "initial height")
    top = profile.domain[1]
    w_end = math.sqrt(top - u0)
    q = _rise(profile, u0, 1.0, w_end)

    # tail integrability of exp(-phi); on a finite interval it is bounded
    l1_finite = math.isfinite(top) or math.isfinite(_antiderivative(
        lambda w: 2.0 * w * np.exp(-q(w)), 0.0, (0.0, w_end)).limit)

    if profile.sup_phi < math.inf:
        # bounded weight: the curve never turns vertical
        if l1_finite:
            raise NumericalError(
                "finiteness tests disagree: bounded phi but integrable tail")
        return AsymptoteReport(math.inf,
                               {"u0": u0, "sup_phi": profile.sup_phi})

    half_width = _abscissa(q, w_end).limit
    if math.isfinite(half_width) != l1_finite:
        raise NumericalError(
            "half-width quadrature and exp(-phi) tail test disagree; "
            "check the profile")
    return AsymptoteReport(half_width if l1_finite else math.inf, {"u0": u0})


# ---------------------------------------------------------------------------
# rotational curves
# ---------------------------------------------------------------------------

def _require_rotational_weight(profile: WeightProfile, z_lo: float,
                               z_hi: float, convex: bool) -> None:
    zs = np.linspace(z_lo, min(z_hi, z_lo + 1e6), 129)
    zs = zs[(zs > profile.domain[0]) & (zs < profile.domain[1])]
    if not np.all(np.asarray(profile.dphi(zs)) > 0):
        raise ProfileError("rotational solver needs dphi > 0 on the height range")
    if convex and np.any(np.asarray(profile.ddphi(zs)) < -1e-9):
        raise ProfileError("rotational solver needs a convex weight (ddphi >= 0)")


def _clamped_dphi(profile: WeightProfile):
    """dphi with the height argument clamped to the domain interior.

    Adaptive steppers evaluate the right-hand side at trial points slightly
    beyond a terminal domain event before the event localizes the crossing;
    those samples are discarded, but the weight must still return something
    finite there instead of overflowing.
    """
    lo, hi = profile.domain
    z_lo = lo + 1e-12 * max(1.0, abs(lo)) if math.isfinite(lo) else -math.inf
    z_hi = hi - 1e-12 * max(1.0, abs(hi)) if math.isfinite(hi) else math.inf

    def dphi(z: float) -> float:
        return float(profile.dphi(min(max(z, z_lo), z_hi)))

    return dphi


def _rot_rhs(profile: WeightProfile):
    dphi = _clamped_dphi(profile)

    def rhs(s, y):
        x, z, th = y
        return [math.cos(th), math.sin(th),
                dphi(z) * math.cos(th) - math.sin(th) / x]
    return rhs


def _pick_method(profile: WeightProfile, z0: float, s_max: float) -> str:
    # stiffness scales with dphi far up the curve (z grows at most like s),
    # read no higher than the weight evaluates
    z_probe = min(z0 + s_max, profile.domain[1] - 1e-9, profile.reach[1])
    rate = abs(float(profile.dphi(z_probe)))
    return "LSODA" if rate * s_max > 5e3 else "DOP853"


def solve_bowl(profile: WeightProfile, z0: float, s_max: float,
               tol: float = 1e-10, n_samples: int = 1201) -> ProfileCurve:
    """Rotational curve through the axis: x'=cos th, z'=sin th,
    th' = dphi(z) cos th - sin th / x, with x(0)=0, z(0)=z0, th(0)=0.

    The axis point is a removable singularity; the first step is taken with
    the two-term series th = c1 s + c3 s^3, x = s - c1^2 s^3/6,
    z = z0 + c1 s^2/2 + (c3 - c1^3/6) s^4/4, where c1 = dphi(z0)/2 and
    c3 = c1 (ddphi(z0)/2 - c1^2)/4, valid while s << 1/c1; the ODE takes
    over at s = 1e-3 / max(1, c1).
    """
    profile.require_inside(z0, "axis height")
    if s_max <= _LAUNCH:
        raise ValueError("s_max must exceed the launch length 1e-3")
    # Increasing is a hard requirement (the launch formula and monotone z
    # need it); convexity is not: non-convex weights such as dphi = 1/z have
    # perfectly good bowls near the axis, so convexity is enforced on the
    # output inclination instead, where its failure actually shows up.
    _require_rotational_weight(profile, z0, z0 + s_max, convex=False)

    c1 = float(profile.dphi(z0)) / 2.0
    c3 = c1 * (float(profile.ddphi(z0)) / 2.0 - c1 * c1) / 4.0
    # every coefficient before any evaluation: an overflow of c1 ** 3
    # raises here, before a product of the series warns
    x3, z2, z4 = c1 * c1 / 6.0, c1 / 2.0, (c3 - c1 ** 3 / 6.0) / 4.0

    def series(s):
        s = np.asarray(s, dtype=float)
        th = c1 * s + c3 * s ** 3
        x = s - x3 * s ** 3
        z = z0 + z2 * s ** 2 + z4 * s ** 4
        return x, z, th

    launch = _LAUNCH / max(1.0, c1)
    xl, zl, thl = series(launch)
    lo, hi = profile.domain
    events = []
    if math.isfinite(hi):
        events.append(_event(
            lambda s, y: y[1] - (hi - 1e-12 * max(1.0, abs(hi))), 0))

    method = _pick_method(profile, z0, s_max)
    sol = solve_ivp(_rot_rhs(profile), (launch, s_max),
                    [float(xl), float(zl), float(thl)], method=method,
                    rtol=tol, atol=tol, events=events or None,
                    dense_output=True)
    if sol.status == -1:
        raise NumericalError(f"bowl integration failed: {sol.message}")
    s_end = sol.t[-1]

    # uniform arclength samples; points inside the launch window come from
    # the series.  Uniform spacing keeps the first sample exactly one step
    # from the axis, which is what a revolved mesh needs for the apex fan
    # to behave like a regular polar grid.
    s = np.linspace(0.0, s_end, n_samples)
    head = s < launch
    x = np.empty_like(s)
    z = np.empty_like(s)
    th = np.empty_like(s)
    x[head], z[head], th[head] = series(s[head])
    if np.any(~head):
        x[~head], z[~head], th[~head] = sol.sol(s[~head])

    # strict convexity = strictly growing inclination; checked on the theta
    # samples directly (evaluating th' from the field would multiply the
    # integrator's O(tol) noise in theta by dphi, which can be huge)
    if np.any(np.diff(th) <= -50.0 * tol):
        raise NumericalError("convexity violated along the bowl "
                             "(inclination not increasing); the weight is "
                             "not convex over the traversed heights, or the "
                             "integration tolerance is too loose")
    if np.any(th[1:] <= 0) or np.any(th >= math.pi / 2):
        raise NumericalError("bowl inclination left (0, pi/2)")

    meta = {"tol": tol, "method": method, "theta_prime_0": c1,
            "terminated": "s_max" if sol.status == 0 else "domain_exit"}
    return ProfileCurve(s=s, x=x, z=z, theta=th, curve_kind=BOWL_GRAPH,
                        profile=profile, initial_data={"z0": z0}, meta=meta)


def solve_catenoid(profile: WeightProfile, x0: float, z0: float, s_max: float,
                   tol: float = 1e-10, n_samples: int = 1201
                   ) -> Tuple[ProfileCurve, ProfileCurve]:
    """Rotational neck solution: the curve through (x0, z0) with vertical
    tangent, integrated both ways.

    Returns (right, left).  The right branch restarts at the lowest point
    ("foot") of the curve with inclination 0 and rises away from the axis as
    a convex graph.  The left branch runs from the foot with inclination pi,
    passes the neck (inclination pi/2, exactly distance x0 from the axis),
    reaches its minimal inclination, and rises again; those three milestones
    are recorded in ``meta``.  The combined polyline must be embedded; a
    self-intersection raises NumericalError.
    """
    if x0 <= 0:
        raise ValueError("neck distance x0 must be positive")
    profile.require_inside(z0, "neck height")
    _require_rotational_weight(
        profile, max(z0 - s_max, profile.domain[0] + 1e-12)
        if math.isfinite(profile.domain[0]) else z0 - s_max, z0 + s_max,
        convex=True)
    # only the axis term sin(th)/x <= 1/x0 bends the curve back through the
    # neck; when it turns the tangent by less than tol over s_max, the
    # checks below that would blame the tolerance or the circle name that
    # cause instead
    too_wide = None if s_max / x0 >= tol else (
        f"neck x0={x0:.3e} is too wide to bend within s_max={s_max:g}: the "
        f"axis term turns the tangent by at most s_max/x0 = {s_max / x0:.1e}, "
        f"below the tolerance {tol:.1e}")

    rhs = _rot_rhs(profile)

    # leg A: trace backward from the neck until the tangent turns horizontal
    def back_rhs(t, y):
        dx, dz, dth = rhs(t, y)
        return [-dx, -dz, -dth]

    # the tangent turning horizontal, falling flat (past pi/2 the backward
    # inclination of an increasing weight can only fall; a neck too wide to
    # bend, huge x0, would run on down the whole span), the domain floor
    lo = profile.domain[0]
    events_a = [_event(lambda t, y: y[2] - math.pi, 1),
                _event(lambda t, y: y[2], -1)]
    if math.isfinite(lo):
        events_a.append(_event(
            lambda t, y: y[1] - (lo + 1e-12 * max(1.0, abs(lo))), -1))
    span = 10.0 * (x0 + abs(z0) + 10.0)
    sol_a = solve_ivp(back_rhs, (0.0, span), [x0, z0, math.pi / 2],
                      method="DOP853", rtol=tol, atol=tol, events=events_a,
                      dense_output=True)
    if sol_a.status != 1 or not len(sol_a.t_events[0]):
        raise NumericalError(too_wide or "curve never turned horizontal below "
                             "the neck; profile domain too short or "
                             "tolerance too loose")
    t_foot = float(sol_a.t_events[0][0])
    x_f, z_f, _ = (float(v) for v in sol_a.y_events[0][0])

    method = _pick_method(profile, z0, s_max)

    # right branch: from the foot, same field, inclination 0, convex rise
    sol_r = solve_ivp(rhs, (0.0, s_max), [x_f, z_f, 0.0], method=method,
                      rtol=tol, atol=tol, dense_output=True)
    if sol_r.status == -1:
        raise NumericalError(f"right branch failed: {sol_r.message}")
    s_r = np.linspace(0.0, sol_r.t[-1], n_samples)
    xr, zr, thr = sol_r.sol(s_r)
    right = ProfileCurve(s=s_r, x=xr, z=zr, theta=thr,
                         curve_kind=CATENOID_RIGHT, profile=profile,
                         initial_data={"x0": x0, "z0": z0},
                         meta={"foot": (x_f, z_f), "tol": tol,
                               "method": method})

    # left branch: from the foot with inclination pi, through the neck
    at_neck = _event(lambda t, y: y[2] - math.pi / 2, -1, terminal=False)
    theta_min = _event(lambda t, y: rhs(t, y)[2], 1, terminal=False)
    span_l = t_foot + s_max
    sol_l = solve_ivp(rhs, (0.0, span_l), [x_f, z_f, math.pi],
                      method=method, rtol=tol, atol=tol,
                      events=[at_neck, theta_min], dense_output=True)
    if sol_l.status == -1:
        raise NumericalError(f"left branch failed: {sol_l.message}")
    if not len(sol_l.t_events[0]):
        raise NumericalError("left branch never crossed the neck inclination")
    s0 = float(sol_l.t_events[0][0])
    s1 = next((float(t) for t in sol_l.t_events[1] if t > s0), None)
    if s1 is None:
        raise NumericalError("left branch inclination never turned back up; "
                             "extend s_max")

    s_l = np.linspace(0.0, sol_l.t[-1], n_samples)
    s_l = np.unique(np.concatenate([s_l, [s0, s1]]))
    xl, zl, thl = sol_l.sol(s_l)
    neck_err = abs(float(sol_l.sol(s0)[0]) - x0)
    if neck_err > 1e4 * tol + 1e-9:
        raise NumericalError(too_wide or f"retraced neck misses the starting "
                             f"circle by {neck_err:.3e}")
    left = ProfileCurve(s=s_l, x=xl, z=zl, theta=thl,
                        curve_kind=CATENOID_LEFT, profile=profile,
                        initial_data={"x0": x0, "z0": z0},
                        meta={"foot": (x_f, z_f), "s_neck": s0,
                              "s_theta_min": s1, "neck_error": neck_err,
                              "tol": tol, "method": method})

    pts = np.column_stack([
        np.concatenate([xr[::-1], xl[1:]]),
        np.concatenate([zr[::-1], zl[1:]]),
    ])
    n_cross = count_self_intersections(pts)
    if n_cross:
        raise NumericalError(too_wide or f"catenoid polyline self-intersects "
                             f"{n_cross} times; refine the tolerance")
    right.meta["self_intersections"] = 0
    left.meta["self_intersections"] = 0
    return right, left


def count_self_intersections(points: np.ndarray) -> int:
    """Count proper crossings among consecutive segments of an open polyline.

    Adjacent segments (sharing an endpoint) are skipped.  Uses exact sign
    tests on orientation predicates; collinear overlaps count as crossings.
    Candidate pairs come from a sweep along x: once the segments are
    sorted by their left ends, the ones whose x-range meets segment s
    directly follow s.  Each pair is then decided, with the first index
    the smaller, by a bounding-box test and the predicates, about
    ``_PAIR_BLOCK`` pairs at a time.
    """
    p = np.asarray(points, dtype=float)
    n = len(p) - 1
    if n < 3:
        return 0
    a, b = p[:-1], p[1:]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)

    def orient(p0, p1, q):
        return np.sign((p1[..., 0] - p0[..., 0]) * (q[..., 1] - p0[..., 1])
                       - (p1[..., 1] - p0[..., 1]) * (q[..., 0] - p0[..., 0]))

    order = np.argsort(lo[:, 0], kind="stable")
    # sorted segment s meets the x-ranges of sorted segments s+1 .. end-1
    follow = np.searchsorted(lo[order, 0], hi[order, 0], side="right") \
        - np.arange(1, n + 1)
    step = max(1, _PAIR_BLOCK // n)
    count = 0
    for s0 in range(0, n, step):
        cnt = follow[s0:s0 + step]
        first = np.repeat(np.arange(s0, s0 + len(cnt)), cnt)
        second = first + 1 + np.arange(len(first)) \
            - np.repeat(np.cumsum(cnt) - cnt, cnt)
        i = np.minimum(order[first], order[second])
        j = np.maximum(order[first], order[second])
        keep = (j - i >= 2) & ~((lo[j, 0] > hi[i, 0]) | (hi[j, 0] < lo[i, 0])
                                | (lo[j, 1] > hi[i, 1])
                                | (hi[j, 1] < lo[i, 1]))
        i, j = i[keep], j[keep]
        o1 = orient(a[i], b[i], a[j])
        o2 = orient(a[i], b[i], b[j])
        o3 = orient(a[j], b[j], a[i])
        o4 = orient(a[j], b[j], b[i])
        crossing = (o1 * o2 < 0) & (o3 * o4 < 0)
        degenerate = (o1 == 0) & (o2 == 0) & (o3 == 0) & (o4 == 0)
        count += int(np.sum(crossing | degenerate))
    return count


# ---------------------------------------------------------------------------
# far-field fits
# ---------------------------------------------------------------------------

def fit_asymptotics(curve: ProfileCurve, profile: WeightProfile,
                    r_window: Sequence[float]) -> AsymptoteReport:
    """Fit the far-field law of a rotational graph and classify its radius.

    Two regimes, keyed by the leading coefficient L of dphi at infinity:

    * L = 0 (with dphi -> beta > 0): the reparametrized height
      curly_g(u(r)) behaves like r^2/2 - (1/beta^2) log r + c + O(r^-2);
      the fit reports c and the observed decay exponent of the remainder.
    * L > 0: log(phi(u(r))) is fitted as log C + alpha r^2 with alpha free.

    Independently, the maximal radius is classified: with dphi growing no
    faster than linearly in height the radius is unbounded; super-linear
    growth pins a finite maximal radius, estimated from the tail integral of
    1/dphi (reported in ``lambda_u0``).
    """
    if curve.curve_kind not in (BOWL_GRAPH, CATENOID_RIGHT):
        raise ValueError("far-field fit expects a rotational graph branch")
    if profile.asymptote is None and profile.growth_alpha is None:
        raise ProfileError(
            "profile carries no growth information at infinity; "
            "declare asymptote=(L, b) or growth_alpha")

    r = np.asarray(curve.x, dtype=float)
    u = np.asarray(curve.z, dtype=float)

    omega = _classify_radius(curve, profile)
    consts = {"omega_plus": omega}
    decay = math.nan

    lo, hi = float(r_window[0]), float(r_window[1])
    sel = (r >= lo) & (r <= hi) & (r > 0)
    if lo >= hi:
        raise ValueError("empty fit window")
    L, b = profile.asymptote if profile.asymptote is not None else (None, None)

    if np.count_nonzero(sel) >= 8:
        rs, us = r[sel], u[sel]
        if L is not None and L == 0.0:
            beta = b
            y = np.asarray(curly_g(profile, float(u[0]), us), dtype=float)
            y = y - rs ** 2 / 2.0 + np.log(rs) / beta ** 2
            # least squares for y = c + A r^-2, then remainder slope
            M = np.column_stack([np.ones_like(rs), rs ** -2])
            (c, A), *_ = np.linalg.lstsq(M, y, rcond=None)
            rem = np.abs(y - c)
            good = rem > 1e-14
            if np.count_nonzero(good) >= 8:
                slope, logC = np.polyfit(np.log(rs[good]), np.log(rem[good]), 1)
                decay = float(slope)
            consts.update({"c": float(c), "A": float(A), "beta": float(beta)})
        elif L is not None and L > 0.0:
            w = np.asarray(profile.phi(us), dtype=float)
            pos = w > 0
            if np.count_nonzero(pos) >= 8:
                slope, intercept = np.polyfit(rs[pos] ** 2, np.log(w[pos]), 1)
                consts.update({"alpha": float(slope),
                               "C": float(math.exp(intercept)),
                               "Lambda": float(L)})
    elif np.count_nonzero(sel) > 0 or (lo > r[-1] and omega < math.inf):
        # window beyond the (finite) reach of the curve: radius part only
        pass
    else:
        raise ValueError("fit window lies outside the sampled radius range")

    if profile.growth_alpha is not None:
        consts["predicted_radius_finite"] = 1.0 if profile.growth_alpha > 1 else 0.0
    return AsymptoteReport(lambda_u0=omega, fitted_constants=consts,
                           residual_decay_rate=decay)


def _classify_radius(curve: ProfileCurve, profile: WeightProfile) -> float:
    """Observed maximal radius: from x x' = cos(th) x ~ 1/dphi(z) far out,
    omega^2 = x_end^2 + 2 * int_{z_end}^inf dz/dphi(z) when that tail
    converges (``profiles._tail``); +inf otherwise."""
    x_end, z_end = float(curve.x[-1]), float(curve.z[-1])
    tail = _antiderivative(
        lambda z: 1.0 / np.asarray(profile.dphi(z), dtype=float), z_end,
        (z_end, profile.domain[1])).limit
    return math.sqrt(x_end ** 2 + 2.0 * tail) if math.isfinite(tail) \
        else math.inf
