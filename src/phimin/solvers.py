"""Generating-curve solvers.

All surfaces in this package come from 1-D curves: translation-invariant
profiles (vertical "catenaries" solving u'' = dphi(u)(1+u'^2)), rotational
bowls through the axis, and rotational necks at positive distance from the
axis.  This module integrates those ODEs, evaluates the explicit half-width
integral, checks the conserved quantity exp(phi(u)) cos(theta), and fits the
far-field laws of the rotational graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np
from scipy.integrate import quad, solve_ivp

from .errors import NumericalError
from .profiles import ProfileError, WeightProfile, curly_g

CATENARY_GRAPH = "catenary_graph"
BOWL_GRAPH = "bowl_graph"
CATENOID_RIGHT = "catenoid_right"
CATENOID_LEFT = "catenoid_left"

_GRAPH_KINDS = (CATENARY_GRAPH, BOWL_GRAPH)
_BLOWUP_SLOPE = 1e8
_LAUNCH = 1e-3  # series launch length at the rotation axis


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

    def second_differences(self) -> np.ndarray:
        """Discrete u'' sign probe: divided second differences of z over x."""
        x, z = self.x, self.z
        dzdx = np.diff(z) / np.diff(x)
        return 2.0 * np.diff(dzdx) / (x[2:] - x[:-2])


@dataclass
class AsymptoteReport:
    """Result of a half-width computation or a far-field fit.

    ``lambda_u0`` holds the half-width for catenaries and the fitted maximal
    radius for rotational graphs (+inf in the unbounded cases); ``finite``
    mirrors it.  ``fitted_constants`` collects named reals from whichever fit
    ran; ``residual_decay_rate`` is the log-log slope of the remainder when a
    far-field law was fitted (NaN otherwise).
    """

    lambda_u0: float
    finite: bool
    fitted_constants: dict = field(default_factory=dict)
    residual_decay_rate: float = math.nan

    def __post_init__(self):
        if self.finite != (self.lambda_u0 < math.inf):
            raise ValueError("finite flag inconsistent with lambda_u0")


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

    def at_x_max(s, y):
        return y[0] - x_max
    at_x_max.terminal = True
    at_x_max.direction = 1

    def vertical(s, y):
        return abs(y[2]) - theta_cap
    vertical.terminal = True
    vertical.direction = 1

    events = [at_x_max, vertical]
    if math.isfinite(lo):
        def exit_lo(s, y, _lo=lo):
            return y[1] - (_lo + 1e-9 * max(1.0, abs(_lo)))
        exit_lo.terminal = True
        exit_lo.direction = -1
        events.append(exit_lo)
    if math.isfinite(hi):
        def exit_hi(s, y, _hi=hi):
            return y[1] - (_hi - 1e-9 * max(1.0, abs(_hi)))
        exit_hi.terminal = True
        exit_hi.direction = 1
        events.append(exit_hi)

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
    q = phi(u) - phi(u0), taken along the monotone half-curve."""
    phi0 = float(profile.phi(u0))
    sgn = 1.0 if profile.increasing else -1.0
    worst = 0.0
    idx = np.linspace(1, len(xs) - 1, n_check, dtype=int)
    for i in idx:
        u_i = float(uu[i])
        if abs(u_i - u0) < 1e-14:
            continue
        # substitute u = u0 +/- w^2 to absorb the endpoint singularity
        w_end = math.sqrt(abs(u_i - u0))
        val, _ = quad(lambda w: 2.0 * w * _inv_sqrt_expm1(
            float(profile.phi(u0 + sgn * w * w)) - phi0),
            0.0, w_end, limit=200, epsabs=1e-13, epsrel=1e-12)
        worst = max(worst, abs(val - float(xs[i])))
    return worst


def _inv_sqrt_expm1(q: float) -> float:
    """1/sqrt(e^{2q} - 1), evaluated stably for tiny and huge q."""
    if q <= 0:
        return math.inf
    if q > 350:
        return math.exp(-q)
    return 1.0 / math.sqrt(math.expm1(2.0 * q))


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

def compute_lambda(profile: WeightProfile, u0: float,
                   tol: float = 1e-10) -> AsymptoteReport:
    """Half-width of the maximal catenary interval, with a finiteness flag.

    Two independent routes must agree: (a) direct evaluation of the improper
    integral of 1/sqrt(exp(2(phi(u)-phi(u0))) - 1) with a square-root
    substitution at the lower endpoint and dyadic tail blocks, and (b) tail
    integrability of exp(-phi), tested on dyadic blocks.  Disagreement is a
    numerical error (bad profile or tolerance).
    """
    if not profile.increasing:
        raise ProfileError("half-width analysis needs a strictly increasing profile")
    profile.require_inside(u0, "initial height")
    top = profile.domain[1]
    phi0 = float(profile.phi(u0))

    def decay(u: float) -> float:
        q = float(profile.phi(u)) - phi0
        return math.exp(-q) if q < 700 else 0.0

    # tail integrability of exp(-phi); on a finite interval it is bounded
    l1_finite = math.isfinite(top) or _dyadic_tail(
        decay, u0, top, 1, 1e-14, limit=100, epsabs=1e-14, epsrel=1e-10)[1]

    if profile.sup_phi < math.inf:
        # bounded weight: the curve never turns vertical
        if l1_finite:
            raise NumericalError(
                "finiteness tests disagree: bounded phi but integrable tail")
        return AsymptoteReport(math.inf, False,
                               {"u0": u0, "sup_phi": profile.sup_phi})

    def integrand(u: float) -> float:
        return _inv_sqrt_expm1(float(profile.phi(u)) - phi0)

    # lower endpoint: u = u0 + w^2 turns the 1/sqrt singularity analytic
    head, _ = quad(lambda w: 2.0 * w * integrand(u0 + w * w), 0.0, 1.0,
                   limit=200, epsabs=min(tol, 1e-12), epsrel=1e-12)
    total, finite_by_blocks = _dyadic_tail(
        integrand, u0, top, 1, tol * 1e-2, head=head,
        limit=200, epsabs=min(tol, 1e-12), epsrel=1e-12)

    if finite_by_blocks != l1_finite:
        raise NumericalError(
            "half-width quadrature and exp(-phi) tail test disagree; "
            "refine the tolerance or check the profile")

    if not finite_by_blocks:
        return AsymptoteReport(math.inf, False, {"u0": u0})
    return AsymptoteReport(float(total), True, {"u0": u0})


def _dyadic_tail(f, origin: float, top: float, first: int, small: float,
                 head: float = 0.0, **quad_kw) -> Tuple[float, bool]:
    """Integral of f toward ``top`` in dyadic blocks, with a finiteness flag.

    Block k ends at origin + 2^k, for 64 values of k from ``first`` up; the
    first block starts at ``origin`` (``first`` = 0) or origin + 1
    (``first`` = 1), and blocks stop just short of a finite ``top``.  The
    tail is finite once a block falls below ``small`` or ``top`` is
    reached, divergent once five successive block ratios exceed 0.95, and,
    undecided after 64 blocks, finite exactly when the median of the last
    five ratios is below 0.9.  A finite tail that did not reach ``top``
    gets the geometric remainder of its last ratio when that is below 0.9.
    ``head`` starts the sum.
    """
    total, prev, ratios = head, None, []
    a = origin + (1.0 if first else 0.0)
    for k in range(64):
        b = origin + 2.0 ** (first + k)
        if b >= top:
            b = top - 1e-12 * max(1.0, abs(top))
        block, _ = quad(f, a, b, **quad_kw)
        total += block
        if block < small:
            break
        if prev is not None and prev > 0:
            ratios.append(block / prev)
            if len(ratios) >= 5 and min(ratios[-5:]) > 0.95:
                return total, False
        prev, a = block, b
        if b >= top - 1e-9 * max(1.0, abs(top)):
            return total, True
    else:
        if not (ratios and np.median(ratios[-5:]) < 0.9):
            return total, False
    if ratios and ratios[-1] < 0.9:
        total += block * ratios[-1] / (1.0 - ratios[-1])
    return total, True


# ---------------------------------------------------------------------------
# rotational curves
# ---------------------------------------------------------------------------

def _require_increasing_weight(profile: WeightProfile, z_lo: float,
                               z_hi: float) -> None:
    zs = np.linspace(z_lo, min(z_hi, z_lo + 1e6), 129)
    zs = zs[(zs > profile.domain[0]) & (zs < profile.domain[1])]
    if not np.all(np.asarray(profile.dphi(zs)) > 0):
        raise ProfileError("rotational solver needs dphi > 0 on the height range")


def _require_convex_weight(profile: WeightProfile, z_lo: float, z_hi: float) -> None:
    _require_increasing_weight(profile, z_lo, z_hi)
    zs = np.linspace(z_lo, min(z_hi, z_lo + 1e6), 129)
    zs = zs[(zs > profile.domain[0]) & (zs < profile.domain[1])]
    if np.any(np.asarray(profile.ddphi(zs)) < -1e-9):
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
    # stiffness scales with dphi far up the curve (z grows at most like s)
    try:
        z_probe = min(z0 + s_max, profile.domain[1] - 1e-9) if math.isfinite(profile.domain[1]) else z0 + s_max
        rate = abs(float(profile.dphi(z_probe)))
    except Exception:
        rate = 1.0
    return "LSODA" if rate * s_max > 5e3 else "DOP853"


def solve_bowl(profile: WeightProfile, z0: float, s_max: float,
               tol: float = 1e-10, n_samples: int = 1201) -> ProfileCurve:
    """Rotational curve through the axis: x'=cos th, z'=sin th,
    th' = dphi(z) cos th - sin th / x, with x(0)=0, z(0)=z0, th(0)=0.

    The axis point is a removable singularity; the first step is taken with
    the two-term series th = c1 s + c3 s^3, x = s - c1^2 s^3/6,
    z = z0 + c1 s^2/2 + (c3 - c1^3/6) s^4/4, where c1 = dphi(z0)/2 and
    c3 = c1 (ddphi(z0)/2 - c1^2)/4, then the ODE takes over at s = 1e-3.
    """
    profile.require_inside(z0, "axis height")
    if s_max <= _LAUNCH:
        raise ValueError("s_max must exceed the launch length 1e-3")
    # Increasing is a hard requirement (the launch formula and monotone z
    # need it); convexity is not: non-convex weights such as dphi = 1/z have
    # perfectly good bowls near the axis, so convexity is enforced on the
    # output inclination instead, where its failure actually shows up.
    _require_increasing_weight(profile, z0, z0 + s_max)

    c1 = float(profile.dphi(z0)) / 2.0
    c3 = c1 * (float(profile.ddphi(z0)) / 2.0 - c1 * c1) / 4.0

    def series(s):
        s = np.asarray(s, dtype=float)
        th = c1 * s + c3 * s ** 3
        x = s - (c1 * c1 / 6.0) * s ** 3
        z = z0 + (c1 / 2.0) * s ** 2 + ((c3 - c1 ** 3 / 6.0) / 4.0) * s ** 4
        return x, z, th

    xl, zl, thl = series(_LAUNCH)
    lo, hi = profile.domain
    events = []
    if math.isfinite(hi):
        def exit_hi(s, y, _hi=hi):
            return y[1] - (_hi - 1e-12 * max(1.0, abs(_hi)))
        exit_hi.terminal = True
        events.append(exit_hi)

    method = _pick_method(profile, z0, s_max)
    sol = solve_ivp(_rot_rhs(profile), (_LAUNCH, s_max),
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
    head = s < _LAUNCH
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
    _require_convex_weight(profile, max(z0 - s_max, profile.domain[0] + 1e-12)
                           if math.isfinite(profile.domain[0]) else z0 - s_max,
                           z0 + s_max)

    rhs = _rot_rhs(profile)

    # leg A: trace backward from the neck until the tangent turns horizontal
    def back_rhs(t, y):
        dx, dz, dth = rhs(t, y)
        return [-dx, -dz, -dth]

    def hit_pi(t, y):
        return y[2] - math.pi
    hit_pi.terminal = True
    hit_pi.direction = 1

    def exit_lo(t, y, _lo=profile.domain[0]):
        return y[1] - (_lo + 1e-12 * max(1.0, abs(_lo)))
    exit_lo.terminal = True
    exit_lo.direction = -1

    # past pi/2 the backward inclination of an increasing weight can only
    # fall; a neck too wide to bend (huge x0) falls flat and would run on
    # down the whole span
    def fell_flat(t, y):
        return y[2]
    fell_flat.terminal = True
    fell_flat.direction = -1

    events_a = [hit_pi, fell_flat] + (
        [exit_lo] if math.isfinite(profile.domain[0]) else [])
    span = 10.0 * (x0 + abs(z0) + 10.0)
    sol_a = solve_ivp(back_rhs, (0.0, span), [x0, z0, math.pi / 2],
                      method="DOP853", rtol=tol, atol=tol, events=events_a,
                      dense_output=True)
    if sol_a.status != 1 or not len(sol_a.t_events[0]):
        raise NumericalError("curve never turned horizontal below the neck; "
                             "profile domain too short or tolerance too loose")
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
    s0_rec, s1_rec = [], []

    def at_neck(t, y):
        return y[2] - math.pi / 2
    at_neck.direction = -1

    def theta_min(t, y):
        return rhs(t, y)[2]
    theta_min.direction = 1

    span_l = t_foot + s_max
    sol_l = solve_ivp(rhs, (0.0, span_l), [x_f, z_f, math.pi],
                      method=method, rtol=tol, atol=tol,
                      events=[at_neck, theta_min], dense_output=True)
    if sol_l.status == -1:
        raise NumericalError(f"left branch failed: {sol_l.message}")
    if len(sol_l.t_events[0]):
        s0_rec = [float(sol_l.t_events[0][0])]
    if len(sol_l.t_events[1]):
        s1_rec = [float(t) for t in sol_l.t_events[1]]
    if not s0_rec:
        raise NumericalError("left branch never crossed the neck inclination")
    s0 = s0_rec[0]
    s1 = next((t for t in s1_rec if t > s0), None)
    if s1 is None:
        raise NumericalError("left branch inclination never turned back up; "
                             "extend s_max")

    s_l = np.linspace(0.0, sol_l.t[-1], n_samples)
    s_l = np.unique(np.concatenate([s_l, [s0, s1]]))
    xl, zl, thl = sol_l.sol(s_l)
    neck_err = abs(float(sol_l.sol(s0)[0]) - x0)
    if neck_err > 1e4 * tol + 1e-9:
        raise NumericalError(
            f"retraced neck misses the starting circle by {neck_err:.3e}")
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
        raise NumericalError(
            f"catenoid polyline self-intersects {n_cross} times; "
            "refine the tolerance")
    right.meta["self_intersections"] = 0
    left.meta["self_intersections"] = 0
    return right, left


def count_self_intersections(points: np.ndarray) -> int:
    """Count proper crossings among consecutive segments of an open polyline.

    Adjacent segments (sharing an endpoint) are skipped.  Uses exact sign
    tests on orientation predicates; collinear overlaps count as crossings.
    Quadratic with a bounding-box prefilter, fine for a few thousand points.
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

    count = 0
    for i in range(n - 2):
        js = np.arange(i + 2, n)
        mask = ~((lo[js, 0] > hi[i, 0]) | (hi[js, 0] < lo[i, 0])
                 | (lo[js, 1] > hi[i, 1]) | (hi[js, 1] < lo[i, 1]))
        js = js[mask]
        if not len(js):
            continue
        o1 = orient(a[i], b[i], a[js])
        o2 = orient(a[i], b[i], b[js])
        o3 = orient(a[js], b[js], a[i][None, :])
        o4 = orient(a[js], b[js], b[i][None, :])
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

    omega, omega_finite = _classify_radius(curve, profile)
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
    elif np.count_nonzero(sel) > 0 or (lo > r[-1] and omega_finite):
        # window beyond the (finite) reach of the curve: radius part only
        pass
    else:
        raise ValueError("fit window lies outside the sampled radius range")

    if profile.growth_alpha is not None:
        consts["predicted_radius_finite"] = 1.0 if profile.growth_alpha > 1 else 0.0
    return AsymptoteReport(lambda_u0=omega, finite=omega_finite,
                           fitted_constants=consts,
                           residual_decay_rate=decay)


def _classify_radius(curve: ProfileCurve, profile: WeightProfile
                     ) -> Tuple[float, bool]:
    """Observed maximal radius: from x x' = cos(th) x ~ 1/dphi(z) far out,
    omega^2 = x_end^2 + 2 * int_{z_end}^inf dz/dphi(z) when that tail
    converges; +inf otherwise (dyadic block test)."""
    x_end = float(curve.x[-1])
    tail, finite = _dyadic_tail(lambda zz: 1.0 / float(profile.dphi(zz)),
                                float(curve.z[-1]), profile.domain[1], 0,
                                1e-14, limit=100, epsabs=1e-14, epsrel=1e-10)
    return (math.sqrt(x_end ** 2 + 2.0 * tail), True) if finite \
        else (math.inf, False)
