import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline, RectBivariateSpline
from scipy.special import erfi

from phimin import calabi, make_builtin, make_custom
from phimin.calabi import (
    GridSplines,
    PotentialPatch,
    ThetaPrimitive,
    dual_profile,
    from_lorentz,
    integrate_potential,
    make_theta,
    natural_theta,
    to_lorentz,
)
from phimin.cli import (_patch_sup_difference, profile_from_spec,
                        profile_to_spec)
from phimin.errors import NumericalError
from phimin.profiles import DomainError
from phimin.solvers import solve_bowl
from phimin.surfaces import (
    EUCLIDEAN,
    LORENTZIAN,
    GraphPatch,
    graph_mean_curvature,
    lfe_residual,
    rotational_patch,
)

LIN1 = make_builtin("linear", 1.0)


def reaper_patch(h, half_x=1.2, half_y=1.0):
    x = np.arange(-half_x, half_x + h / 2, h)
    y = np.arange(-half_y, half_y + h / 2, h)
    u = np.tile(-np.log(np.cos(x))[:, None], (1, len(y)))
    return GraphPatch(x, y, u)


def bowl_patch(profile, h, s_max=1.2, fill=0.68):
    curve = solve_bowl(profile, 0.0, s_max)
    height_of_r = CubicSpline(curve.x, curve.z)
    half = fill * curve.x[-1] / math.sqrt(2.0)
    g = np.arange(-half, half + h / 2, h)
    r = np.hypot(g[:, None], g[None, :])
    return GraphPatch(g, g, height_of_r(r))


def convex_custom_weight():
    # phi = z^2/2 + z, strictly increasing and convex on (-1, inf)
    return make_custom(
        lambda z: np.asarray(z, dtype=float) + 1.0,
        phi=lambda z: 0.5 * np.asarray(z, dtype=float) ** 2
        + np.asarray(z, dtype=float),
        ddphi=lambda z: np.ones_like(np.asarray(z, dtype=float)),
        domain=(-1.0, math.inf),
    )


# ---------------------------------------------------------------------------
# height reparametrization
# ---------------------------------------------------------------------------

def test_theta_linear_frozen_value():
    th = make_theta(LIN1, 0.0)
    assert th(0.0) == pytest.approx(0.0, abs=1e-15)
    assert th(1.0) == pytest.approx(math.e - 1.0, rel=1e-13)
    assert th.inverse(math.e - 1.0) == pytest.approx(1.0, rel=1e-13)
    assert th.derivative(0.7) == pytest.approx(math.exp(0.7), rel=1e-13)


def test_theta_log_frozen_value():
    th = make_theta(make_builtin("log", 1.0), 2.0)
    # primitive of e^{log z} = z, pinned at 2: z^2/2 - 2
    assert th(3.0) == pytest.approx(2.5, rel=1e-13)
    assert th.inverse(2.5) == pytest.approx(3.0, rel=1e-13)


def test_theta_base_point_outside_domain():
    with pytest.raises(DomainError):
        make_theta(make_builtin("log", 1.0), -1.0)


def test_theta_quadrature_matches_closed_form():
    # a custom weight identical to Linear(1) exercises the quadrature path
    p = make_custom(
        lambda z: np.ones_like(np.asarray(z, dtype=float)),
        phi=lambda z: np.asarray(z, dtype=float),
        ddphi=lambda z: np.zeros_like(np.asarray(z, dtype=float)),
    )
    assert p.kind != "linear"
    th = make_theta(p, 0.0)
    zs = np.linspace(-1.0, 2.0, 7)
    assert np.allclose(th(zs), np.expm1(zs), rtol=0.0, atol=1e-13)
    # no closed-form inverse here, so this runs the bracketing fallback
    assert th.inverse(math.e - 1.0) == pytest.approx(1.0, abs=1e-10)


def test_theta_image_of_a_custom_weight_matches_erfi():
    # phi = z^2/2 + z, so theta(z) = int_0^z exp(s^2/2 + s) ds
    #   = e^{-1/2} sqrt(pi/2) (erfi((z+1)/sqrt 2) - erfi(1/sqrt 2))
    def closed(z):
        return math.exp(-0.5) * math.sqrt(math.pi / 2.0) * (
            erfi((z + 1.0) / math.sqrt(2.0)) - erfi(1.0 / math.sqrt(2.0)))

    th = make_theta(profile_from_spec("custom dphi=z+1 domain=-1,3"), 0.0)
    lo, hi = th.image(-1.0, 3.0)
    # image() probes open finite ends 1e-9 (relative) inside the domain
    assert lo == pytest.approx(closed(-1.0 + 1e-9), rel=1e-14, abs=0.0)
    assert hi == pytest.approx(closed(3.0 - 3e-9), rel=1e-14, abs=0.0)
    zs = np.linspace(-0.9, 2.9, 9)
    np.testing.assert_allclose(th(zs), [closed(z) for z in zs], rtol=1e-14)
    np.testing.assert_allclose(th.inverse(th(zs)), zs, rtol=0.0, atol=1e-14)
    with pytest.raises(NumericalError):
        th.inverse(2.0 * hi)

    unbounded = make_theta(
        profile_from_spec("custom dphi=z+1 domain=-1,inf"), 0.0)
    lo_inf, hi_inf = unbounded.image(-1.0, math.inf)
    assert lo_inf == lo and hi_inf == math.inf


def test_theta_inverts_up_to_the_end_of_its_reach():
    # theta's reach ends at 32.875; the bracket used to double from 32 to 64
    th = make_theta(profile_from_spec("custom dphi=z+1 domain=-1,inf"), 0.0)
    assert th.reach[1] < 33.0
    assert th.inverse(th(32.5)) == pytest.approx(32.5, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("spec", [
    "custom dphi=z+1 domain=-1,inf", "custom dphi=exp(z)",
    "custom dphi=1+z**2", "custom dphi=exp(-1/z) domain=0.01,inf"])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(base=st.floats(min_value=0.5, max_value=1.5),
       t=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                  max_size=8))
def test_theta_inverts_every_height_of_its_reach(spec, base, t):
    # from two below the base point (where theta is not flat in floating
    # point) up to and including the last height theta evaluates
    th = make_theta(profile_from_spec(spec), base)
    lo = max(th.reach[0] + 1e-6, base - 2.0)
    z = np.append(lo + np.asarray(t) * (th.reach[1] - lo), th.reach[1])
    back = th.inverse(th(z))
    assert np.all(np.abs(back - z) <= 1e-12 * np.maximum(1.0, np.abs(z)))


def test_dual_of_a_converging_theta_starts_at_its_limit():
    # e^phi = e^(z + z^3/3) vanishes below, so theta converges at -inf: the
    # dual weight's domain and reach both start at that limit
    from scipy.integrate import quad
    p = profile_from_spec("custom dphi=1+z**2")
    th = make_theta(p, 0.5)
    dual, _ = dual_profile(p, th)
    assert th.reach[0] == -math.inf
    assert dual.domain[0] == dual.reach[0] == float(th(-700.0))
    limit = -quad(lambda z: math.exp(z + z ** 3 / 3), -math.inf, 0.5,
                  epsabs=0, epsrel=1e-13)[0]
    assert dual.domain[0] == pytest.approx(limit, rel=1e-13)
    with pytest.raises(DomainError):
        dual.require_inside(dual.domain[0] - 1e-3)


def test_theta_inverse_refuses_values_between_the_run_and_the_limit():
    # e^phi = z^-1.2: theta (zero at 2) is 4.33285 where its run stops,
    # 1e12 out, and holds its limit 4.35275 beyond; theta = 4.34 is reached
    # near 9e12, where theta is not represented, so it is out of range.
    # The dual weight evaluates on the image of the run only, and its phi
    # grows without bound toward the limit
    p = make_custom(lambda z: -1.2 / np.asarray(z, dtype=float),
                    phi=lambda z: -1.2 * np.log(np.asarray(z, dtype=float)),
                    domain=(1.0, math.inf), increasing=False)
    th = make_theta(p, 2.0)
    limit = th.image(1.0, math.inf)[1]
    assert limit == pytest.approx(2.0 ** -0.2 / 0.2, rel=1e-12)
    assert th(1e12) < 4.34 < limit
    with pytest.raises(NumericalError, match="outside the attainable range"):
        th.inverse(4.34)
    assert th(th.inverse(4.33)) == pytest.approx(4.33, rel=1e-14)
    dual, _ = dual_profile(p, th)
    assert dual.domain[1] == limit
    assert dual.reach[1] < 4.34 and dual.sup_phi == math.inf


@settings(derandomize=True)
@given(m=st.floats(min_value=0.2, max_value=3.0),
       z=st.floats(min_value=-2.0, max_value=2.0))
def test_theta_inverse_roundtrip_linear(m, z):
    th = make_theta(make_builtin("linear", m), 0.0)
    assert th.inverse(th(z)) == pytest.approx(z, abs=1e-9)


@settings(derandomize=True)
@given(a=st.floats(min_value=0.5, max_value=3.0),
       z=st.floats(min_value=0.5, max_value=4.0))
def test_theta_inverse_roundtrip_log(a, z):
    th = make_theta(make_builtin("log", a), 1.0)
    assert th.inverse(th(z)) == pytest.approx(z, rel=1e-9)


# ---------------------------------------------------------------------------
# transformed weight
# ---------------------------------------------------------------------------

def test_dual_with_offset_primitive_shifts_argument():
    # theta = e^z - 1 is a valid primitive but not the canonical one, so the
    # dual falls through to the generic closures: -phi(log(1 + w))
    th = make_theta(LIN1, 0.0)
    dual, dual_theta = dual_profile(LIN1, th)
    assert dual.kind == "custom"
    assert dual.params["dual_of"] == "linear"
    assert not dual.increasing
    assert float(dual.phi(1.5)) == pytest.approx(-math.log(2.5), rel=1e-12)
    assert dual_theta(th(0.8)) == pytest.approx(0.8, rel=1e-12)
    assert dual_theta.inverse(0.8) == pytest.approx(th(0.8), rel=1e-12)


def test_the_recorded_pin_decides_the_builtin_dual():
    # e^z - 9.4e-14 agrees with the canonical e^z to 1e-12 at any probe
    # height, yet it is pinned: only the canonical primitive (base None)
    # has the builtin dual, and the dual's primitive keeps the pin
    pinned = make_theta(LIN1, -30.0)
    dual, dual_theta = dual_profile(LIN1, pinned)
    assert dual.kind == "custom" and dual.params["dual_of"] == "linear"
    assert dual_theta.base == -30.0
    assert dual_profile(dual, dual_theta)[0].kind == "custom"
    canonical, canonical_theta = dual_profile(LIN1, natural_theta(LIN1))
    assert profile_to_spec(canonical) == profile_to_spec(
        make_builtin("log", -1.0))
    assert canonical_theta.base is None
    back, _ = dual_profile(canonical, canonical_theta)
    assert profile_to_spec(back) == profile_to_spec(LIN1)


def test_custom_dual_does_not_inherit_the_source_spec():
    # the dual keeps the source's parameters nested, so it has no spec
    # string of its own and artifacts label it "dual-of <source spec>"
    source = profile_from_spec("custom dphi=z+1 domain=-1,3")
    dual, _ = dual_profile(source, make_theta(source, 0.0))
    assert dual.params["dual_of"] == "custom"
    assert dual.params["source_params"] == source.params
    assert "dphi" not in dual.params
    with pytest.raises(ValueError):
        profile_to_spec(dual)


def test_dual_derivatives_follow_chain_rule():
    p = make_custom(
        lambda z: np.asarray(z, dtype=float),
        phi=lambda z: 0.5 * np.asarray(z, dtype=float) ** 2,
        ddphi=lambda z: np.ones_like(np.asarray(z, dtype=float)),
        domain=(0.5, 4.0),
    )
    th = make_theta(p, 1.0)
    dual, _ = dual_profile(p, th)
    w = float(th(2.0))
    eps = 1e-5
    fd1 = (float(dual.phi(w + eps)) - float(dual.phi(w - eps))) / (2 * eps)
    assert float(dual.dphi(w)) == pytest.approx(fd1, rel=1e-4)
    fd2 = (float(dual.dphi(w + eps)) - float(dual.dphi(w - eps))) / (2 * eps)
    assert float(dual.ddphi(w)) == pytest.approx(fd2, rel=1e-3)


def test_dual_of_dual_restores_weight():
    p = make_custom(
        lambda z: np.asarray(z, dtype=float),
        phi=lambda z: 0.5 * np.asarray(z, dtype=float) ** 2,
        ddphi=lambda z: np.ones_like(np.asarray(z, dtype=float)),
        domain=(0.5, 4.0),
    )
    th = make_theta(p, 1.0)
    dual, dual_theta = dual_profile(p, th)
    back, _ = dual_profile(dual, dual_theta)
    zs = np.linspace(0.8, 3.5, 9)
    assert np.allclose(back.phi(zs), p.phi(zs), atol=1e-8)


# ---------------------------------------------------------------------------
# convex potential
# ---------------------------------------------------------------------------

def test_potential_patch_rejects_concave_gradient():
    g = np.linspace(0.0, 1.0, 11)
    X, Y = np.meshgrid(g, g, indexing="ij")
    with pytest.raises(ValueError, match="convex"):
        PotentialPatch(x=g, y=g, phi_x=-X, phi_y=-Y)


def test_potential_patch_shape_guard():
    g = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError, match="len"):
        PotentialPatch(x=g, y=g, phi_x=np.zeros((11, 10)),
                       phi_y=np.zeros((11, 11)))


def test_integrated_reaper_gradient_closed_form():
    patch = reaper_patch(0.01)
    pot = integrate_potential(patch, LIN1)
    X = patch.x[:, None]
    want_x = np.tan(X) - math.tan(patch.x[0])
    want_y = patch.y[None, :] - patch.y[0]
    assert np.max(np.abs(pot.phi_x - want_x)) < 2e-3
    assert np.max(np.abs(pot.phi_y - want_y)) < 2e-3
    assert pot.meta["path_disagreement"] < pot.meta["tol"]
    assert pot.meta["signature"] == EUCLIDEAN


def test_integrability_failure_detected():
    # u = x^2 solves no graph equation with this weight; the two
    # integration routes stay apart no matter how fine the grid
    for h in (0.02, 0.01):
        g = np.arange(-1.0, 1.0 + h / 2, h)
        u = np.tile((g ** 2)[:, None], (1, len(g)))
        with pytest.raises(NumericalError, match="not integrable"):
            integrate_potential(GraphPatch(g, g, u), LIN1)


def test_path_disagreement_refines_second_order():
    dis = [integrate_potential(reaper_patch(h), LIN1).meta["path_disagreement"]
           for h in (0.02, 0.01)]
    assert dis[0] / dis[1] > 3.0


# ---------------------------------------------------------------------------
# Euclidean -> Lorentzian
# ---------------------------------------------------------------------------

def test_reaper_dual_closed_form():
    patch = reaper_patch(0.01)
    dst, dual = to_lorentz(patch, LIN1)
    assert dst.signature == LORENTZIAN
    assert dual.kind == "log"
    assert dual.params["alpha"] == -1.0
    # heights e^u = sec x against base coordinate tan x - tan x0
    shift = math.tan(patch.x[0])
    want = np.sqrt(1.0 + (dst.x[:, None] + shift) ** 2)
    assert np.max(np.abs(dst.u - want)) < 2e-3
    assert dst.meta["residual_max"] < 5e-3
    assert dst.meta["gradient_pairing_max"] < 2e-3
    assert dst.meta["hh_rel_max"] < 5e-2
    assert dst.meta["kk_abs_max"] < 1e-6


def test_reaper_dual_has_unit_mean_curvature():
    # the transformed reaper is a cylinder over a unit hyperbola; away from
    # the null directions its mean curvature is 1 everywhere, which at the
    # matched point with W = 1 is exactly the curvature pairing
    dst, _ = to_lorentz(reaper_patch(0.01), LIN1)
    H = graph_mean_curvature(dst)
    gx, gy = dst.gradients()
    ok = np.zeros_like(H, dtype=bool)
    ok[1:-1, 1:-1] = True
    ok &= (1.0 - gx ** 2 - gy ** 2) > 0.09
    assert np.max(np.abs(H[ok] - 1.0)) < 6e-2


def test_dual_residual_refines_second_order():
    med = []
    for h in (0.02, 0.01):
        dst, dual = to_lorentz(reaper_patch(h), LIN1)
        med.append(float(np.nanmedian(np.abs(lfe_residual(dst, dual)))))
    assert med[0] / med[1] > 3.0


def test_bowl_dual_stays_rotational():
    bd, dual = to_lorentz(bowl_patch(LIN1, 0.02), LIN1)
    assert dual.kind == "log"
    assert bd.meta["residual_max"] < 2e-3
    # apex height 0 maps to e^0
    assert abs(float(bd.u.min()) - 1.0) < 1e-3

    # recover the axis from a local quadratic fit, then heights along
    # circles around it must be constant
    i0, j0 = np.unravel_index(np.argmin(bd.u), bd.u.shape)
    sl = np.s_[i0 - 2:i0 + 3, j0 - 2:j0 + 3]
    X, Y = np.meshgrid(bd.x[sl[0]], bd.y[sl[1]], indexing="ij")
    A = np.column_stack([np.ones(X.size), X.ravel(), Y.ravel(),
                         X.ravel() ** 2, X.ravel() * Y.ravel(),
                         Y.ravel() ** 2])
    c = np.linalg.lstsq(A, bd.u[sl].ravel(), rcond=None)[0]
    den = 4.0 * c[3] * c[5] - c[4] ** 2
    cx = (c[4] * c[2] - 2.0 * c[5] * c[1]) / den
    cy = (c[4] * c[1] - 2.0 * c[3] * c[2]) / den
    spline = RectBivariateSpline(bd.x, bd.y, bd.u)
    reach = min(bd.x[-1] - cx, cx - bd.x[0], bd.y[-1] - cy, cy - bd.y[0])
    t = np.linspace(0.0, 2.0 * math.pi, 181)
    for r0 in (0.5 * reach, 0.8 * reach):
        ring = spline(cx + r0 * np.cos(t), cy + r0 * np.sin(t), grid=False)
        assert ring.max() - ring.min() < 1e-5


# ---------------------------------------------------------------------------
# round trips and the way back
# ---------------------------------------------------------------------------

def test_round_trip_restores_reaper():
    h = 0.01
    patch = reaper_patch(h)
    dst, dual = to_lorentz(patch, LIN1)
    back, weight = from_lorentz(dst, dual)
    assert back.signature == EUCLIDEAN
    assert weight.kind == "linear"
    assert weight.params["slope"] == 1.0
    src = RectBivariateSpline(patch.x, patch.y, patch.u)
    err = np.max(np.abs(back.u - src(back.x, back.y)))
    assert err < 10.0 * h
    assert err < 2e-2


def test_round_trip_custom_weight_uses_stored_primitive():
    # for a weight with no closed-form primitive the way back runs on the
    # stored hint, so the round trip carries no additive constant at all
    h = 0.04
    p = convex_custom_weight()
    patch = bowl_patch(p, h, s_max=1.0)
    dst, dual = to_lorentz(patch, p)
    assert dual.kind == "custom"
    back, _ = from_lorentz(dst, dual)
    src = RectBivariateSpline(patch.x, patch.y, patch.u)
    err = np.max(np.abs(back.u - src(back.x, back.y)))
    assert err < 1e-3


def test_way_back_checks_the_weight_in_few_inversions(monkeypatch):
    # the dual of the dual weight is checked for monotonicity in one
    # vectorized call on the samples inside its reach (the theta
    # primitive's, which ends near height 33 of a window up to 50): three
    # inversions, one per dual closure it runs through; the transform
    # itself makes six
    patch = bowl_patch(convex_custom_weight(), 0.04, s_max=1.0)
    dst, dual = to_lorentz(patch, convex_custom_weight())
    calls = []
    inverse = ThetaPrimitive.inverse
    monkeypatch.setattr(ThetaPrimitive, "inverse",
                        lambda self, t: calls.append(t) or inverse(self, t))
    from_lorentz(dst, dual)
    assert len(calls) <= 10


def test_constant_patch_reports_large_residual():
    # a horizontal plane has a symmetric prescribed Hessian, so the path
    # check cannot reject it; the verification report has to tell instead
    g = np.linspace(-0.5, 0.5, 41)
    dst, dual = to_lorentz(GraphPatch(g, g, np.full((41, 41), 0.3)), LIN1)
    assert np.allclose(dst.u, math.exp(0.3), atol=1e-9)
    assert dst.meta["residual_max"] > 0.5


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------

def test_transform_signature_guards():
    g = np.linspace(-0.5, 0.5, 11)
    flat = np.zeros((11, 11))
    with pytest.raises(ValueError, match="Euclidean"):
        to_lorentz(GraphPatch(g, g, flat, signature=LORENTZIAN), LIN1)
    with pytest.raises(ValueError, match="Lorentzian"):
        from_lorentz(GraphPatch(g, g, flat), LIN1)


def test_border_slope_reaching_null_is_rejected():
    # interior stencils stay below slope 1 but the one-sided slope at the
    # border does not, which the Hessian fields must refuse
    h = 0.25
    g = np.arange(5) * h
    steps = np.array([0.9, 0.9, 0.9, 1.09]) * h
    u = 1.0 + np.concatenate([[0.0], np.cumsum(steps)])
    patch = GraphPatch(g, g, np.tile(u[:, None], (1, 5)),
                       signature=LORENTZIAN)
    with pytest.raises(ValueError, match="spacelike"):
        from_lorentz(patch, make_builtin("log", -1.0))


def test_fold_over_near_vertical_tangent():
    # approaching the vertical asymptotes, one source cell is stretched
    # across the whole image and resampling must refuse
    half = math.pi / 2 - 0.02
    x = np.linspace(-half, half, 311)
    y = np.linspace(-0.3, 0.3, 61)
    u = np.tile(-np.log(np.cos(x))[:, None], (1, len(y)))
    with pytest.raises(NumericalError, match="singular locus"):
        to_lorentz(GraphPatch(x, y, u), LIN1)


ORDERS = [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]


def assert_fitpack_bits(x, y, fields, kx, ky, px, py, gx, gy, dx, dy):
    """GridSplines gives RectBivariateSpline's pointwise values bit for
    bit at (px, py) and on the tensor grid gx x gy, and its grid values
    on sorted axes, or refuses the order as FITPACK does."""
    spl = GridSplines(x, y, fields, kx, ky)
    fits = [RectBivariateSpline(x, y, f, kx=kx, ky=ky) for f in fields]
    wanted = [(f, dx, dy) for f in range(len(fields))]
    if dx >= kx or dy >= ky:
        with pytest.raises(ValueError):
            fits[0](px, py, dx=dx, dy=dy, grid=False)
        with pytest.raises(ValueError, match="not below the spline degree"):
            spl.at(px, py, wanted)
        return
    gpx, gpy = np.repeat(gx, len(gy)), np.tile(gy, len(gx))
    sx, sy = np.sort(gx[gx == gx]), np.sort(gy[gy == gy])  # NaN dropped
    for fit, at, on_grid, on_sorted in zip(
            fits, spl.at(px, py, wanted), spl.on_grid(gx, gy, wanted),
            spl.on_grid(sx, sy, wanted)):
        assert at.tobytes() == fit(px, py, dx=dx, dy=dy,
                                   grid=False).tobytes()
        assert on_grid.tobytes() == fit(gpx, gpy, dx=dx, dy=dy,
                                        grid=False).tobytes()
        assert on_sorted.tobytes() == fit(sx, sy, dx=dx, dy=dy).tobytes()


@pytest.mark.parametrize("dx,dy", ORDERS)
def test_quintic_spline_grid_evaluation_is_pointwise_bit_for_bit(dx, dy):
    # the transform evaluates its splines with GridSplines; its values must
    # be FITPACK's pointwise ones exactly, or the duality's bits change:
    # degrees 2..5 with kx != ky, points on the knots, at and beyond both
    # ends (clamped), repeated and NaN, and the tensor grid of the guess
    rng = np.random.default_rng(5)
    for kx, ky, nx, ny in ((5, 5, 41, 37), (2, 5, 3, 9), (5, 2, 12, 3),
                           (3, 4, 17, 5), (4, 3, 6, 23)):
        x = np.linspace(-1.0, 1.3, nx)
        y = np.linspace(-0.7, 0.9, ny)
        fields = [np.sin(2.0 * x)[:, None] * np.cosh(y)[None, :]
                  + 0.01 * rng.normal(size=(nx, ny)),
                  rng.normal(size=(nx, ny))]
        tx, ty = RectBivariateSpline(x, y, fields[0], kx=kx, ky=ky).tck[:2]
        special = np.array([[-1.0, -0.7], [1.3, 0.9], [-1.0, 0.9],
                            [-3.0, 0.1], [7.0, -5.0], [1.3 + 1e-15, 2.0],
                            [np.nan, 0.2], [0.3, np.nan], [0.1, 0.1],
                            [0.1, 0.1]])
        px = np.concatenate([rng.uniform(-1.0, 1.3, 200), tx,
                             rng.uniform(-1.0, 1.3, ty.size), special[:, 0]])
        py = np.concatenate([rng.uniform(-0.7, 0.9, 200),
                             rng.uniform(-0.7, 0.9, tx.size), ty,
                             special[:, 1]])
        # unsorted guess axes with repeats and the ends, beyond them too
        gx = np.concatenate([rng.uniform(-1.2, 1.5, 30), [1.3, -1.0, 0.2,
                                                          0.2]])
        gy = np.concatenate([rng.uniform(-0.8, 1.0, 20), [0.9, 0.9]])
        assert_fitpack_bits(x, y, fields, kx, ky, px, py, gx, gy, dx, dy)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_grid_splines_match_fitpack_on_drawn_grids(data):
    kx, ky = data.draw(st.integers(2, 5)), data.draw(st.integers(2, 5))
    steps = st.floats(min_value=1e-3, max_value=10.0)
    x = np.cumsum(data.draw(st.lists(steps, min_size=kx + 1,
                                     max_size=24)))
    y = np.cumsum(data.draw(st.lists(steps, min_size=ky + 1,
                                     max_size=24))) - 5.0
    values = st.floats(min_value=-1e3, max_value=1e3)
    fields = [np.array(data.draw(st.lists(values, min_size=x.size * y.size,
                                          max_size=x.size * y.size))
                       ).reshape(x.size, y.size)]

    def points(axis, size):
        inside = st.floats(min_value=axis[0] - 1.0, max_value=axis[-1] + 1.0)
        return np.array(data.draw(st.lists(
            inside | st.sampled_from(list(axis) + [math.nan]),
            min_size=size, max_size=size)))
    n = data.draw(st.integers(1, 40))
    px, py = points(x, n), points(y, n)
    gx, gy = points(x, data.draw(st.integers(1, 8))), \
        points(y, data.draw(st.integers(1, 8)))
    for dx, dy in ORDERS:
        assert_fitpack_bits(x, y, fields, kx, ky, px, py, gx, gy, dx, dy)


def bowl_patch_201():
    curve = solve_bowl(LIN1, 0.0, 1.2)
    half = 0.68 * curve.x[-1] / math.sqrt(2.0)
    g = np.linspace(-half, half, 201)
    r = np.hypot(g[:, None], g[None, :])
    return GraphPatch(g, g, CubicSpline(curve.x, curve.z)(r))


def traced_peak(fn, *args):
    """Bytes held at the peak of ``fn(*args)`` beyond those held before,
    as tracemalloc counts them."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def test_transform_peak_memory():
    # splines evaluated over blocks of points, the Hessian fields gone
    # with the potential's integration: about 300 and 330 B a source node,
    # where FITPACK's pointwise calls peaked at 370 and 394
    patch = bowl_patch_201()
    dst, dual = to_lorentz(patch, LIN1)
    assert traced_peak(to_lorentz, patch, LIN1) <= 370 * patch.u.size
    assert traced_peak(from_lorentz, dst, dual) <= 394 * dst.u.size


def test_transform_leaves_spline_evaluation_to_the_package(monkeypatch):
    # FITPACK fits the splines; no value comes from its evaluation
    def refuse(*args, **kwargs):
        raise AssertionError("RectBivariateSpline.__call__ was called")
    patch = bowl_patch(LIN1, 0.04, s_max=1.0)
    monkeypatch.setattr(RectBivariateSpline, "__call__", refuse)
    dst, dual = to_lorentz(patch, LIN1)
    back, _ = from_lorentz(dst, dual)
    assert _patch_sup_difference(back, patch) < 1e-2


# ---------------------------------------------------------------------------
# the Newton start
# ---------------------------------------------------------------------------

def reference_resampling(patch, profile):
    """The transform's target grid and heights by the quintic Newton from
    the mid-line guess, with no bilinear steps, every value from
    FITPACK's pointwise evaluation.  The target rectangle, node counts
    and stopping rule are the transform's."""
    pot = integrate_potential(patch, profile)
    shift = patch.meta.get("origin_hint", (0.0, 0.0))
    gfx, gfy = pot.phi_x + shift[0], pot.phi_y + shift[1]
    theta = patch.meta.get("theta_hint") or natural_theta(
        profile, float(np.min(patch.u)))
    rates = np.array(pot.meta["stretching"])
    lo = np.array([gfx[0].max(), gfy[:, 0].max()]) + 1e-9
    hi = np.array([gfx[-1].min(), gfy[:, -1].min()]) - 1e-9
    pad = 2e-3 * (hi - lo)
    lo, hi = lo + pad, hi - pad
    cells = (hi - lo) / (np.array([patch.hx, patch.hy]) * rates)
    nx, ny = np.clip(np.ceil(cells) + 1, 9,
                     4 * np.array(patch.u.shape)).astype(int)
    xg, yg = np.linspace(lo[0], hi[0], nx), np.linspace(lo[1], hi[1], ny)
    tx, ty = (t.ravel() for t in np.meshgrid(xg, yg, indexing="ij"))
    kx, ky = min(5, len(patch.x) - 1), min(5, len(patch.y) - 1)
    fx, fy, fu = (RectBivariateSpline(patch.x, patch.y, f, kx=kx, ky=ky)
                  for f in (gfx, gfy, patch.u))
    px = np.repeat(np.interp(xg, gfx[:, len(patch.y) // 2], patch.x), ny)
    py = np.tile(np.interp(yg, gfy[len(patch.x) // 2], patch.y), nx)
    tol = 1e-11 * max(hi[0] - lo[0], hi[1] - lo[1], 1.0)
    for _ in range(60):
        rx, ry = fx(px, py, grid=False) - tx, fy(px, py, grid=False) - ty
        if max(np.abs(rx).max(), np.abs(ry).max()) < tol:
            break
        jxx, jxy = fx(px, py, 1, 0, grid=False), fx(px, py, 0, 1, grid=False)
        jyx, jyy = fy(px, py, 1, 0, grid=False), fy(px, py, 0, 1, grid=False)
        det = jxx * jyy - jxy * jyx
        px = np.clip(px - (jyy * rx - jxy * ry) / det, patch.x[0],
                     patch.x[-1])
        py = np.clip(py - (jxx * ry - jyx * rx) / det, patch.y[0],
                     patch.y[-1])
    else:
        raise AssertionError("reference Newton did not converge")
    return xg, yg, theta(fu(px, py, grid=False)).reshape(nx, ny)


def test_mid_line_guess_reads_the_source_grid():
    # a 50x50 target over a 21x21 source: the mid-line guess reads the
    # source's middle row and column, whatever the target's node counts
    patch = rotational_patch(solve_bowl(LIN1, 0.5, 6.0), 1.0, 21, 21)
    pot = integrate_potential(patch, LIN1)
    gfx, gfy = pot.phi_x, pot.phi_y
    lo = np.array([gfx[0].max(), gfy[:, 0].max()])
    hi = np.array([gfx[-1].min(), gfy[:, -1].min()])
    pad = 2e-3 * (hi - lo)
    xg, yg = (np.linspace(a, b, 50) for a, b in zip(lo + pad, hi - pad))
    origin, rows, iters = calabi._resample(patch, gfx, gfy, xg, yg)
    assert iters <= 3
    fx, fy = (RectBivariateSpline(patch.x, patch.y, f, kx=5, ky=5)
              for f in (gfx, gfy))
    assert abs(fx(*origin, grid=False) - xg[0]) < 1e-12
    assert abs(fy(*origin, grid=False) - yg[0]) < 1e-12
    heights = rows[0].reshape(50, 50)
    np.testing.assert_allclose(heights, heights.T, rtol=0, atol=1e-12)


def test_bowl_transforms_take_three_quintic_evaluations():
    # the bilinear inverse starts the quintic Newton within O(h^2) of the
    # root: two evaluations each way here, against four from the mid-line
    # guess alone
    patch = bowl_patch_201()
    dst, dual = to_lorentz(patch, LIN1)
    back, _ = from_lorentz(dst, dual)
    assert dst.meta["newton_iters"] <= 3
    assert back.meta["newton_iters"] <= 3


@pytest.mark.parametrize("make", [lambda: bowl_patch(LIN1, 0.02),
                                  lambda: reaper_patch(0.02)],
                         ids=["bowl", "reaper"])
def test_bilinear_start_lands_on_the_reference_root(make):
    # both directions, the way back with its stored origin and primitive;
    # the heights agree to about 5e-15 here, and by the Newton tolerance
    # (1e-11 of the target's extent) where one side stops a step earlier
    patch = make()
    dst, dual = to_lorentz(patch, LIN1)
    back, _ = from_lorentz(dst, dual)
    for src, profile, out in ((patch, LIN1, dst), (dst, dual, back)):
        xg, yg, heights = reference_resampling(src, profile)
        assert out.x.tobytes() == xg.tobytes()
        assert out.y.tobytes() == yg.tobytes()
        np.testing.assert_allclose(out.u, heights, rtol=0, atol=1e-12)


def test_bilinear_fold_is_left_to_the_quintic_newton(monkeypatch):
    # twenty rows of the potential's x gradient reversed: the bilinear
    # cells of that band have a negative Jacobian, so a point in them
    # keeps its iterate, and the quintic Newton refuses the band as it
    # always has
    integrate, bilinear = calabi.integrate_potential, calabi._bilinear_inverse
    band = []

    def folded(patch, profile):
        pot = integrate(patch, profile)
        i = len(pot.x) // 2
        pot.phi_x[i:i + 20] = pot.phi_x[i:i + 20][::-1].copy()
        assert np.all(np.diff(pot.phi_x, axis=0)[i:i + 19] < 0.0)
        band.append((pot.x[i], pot.x[i + 19]))
        return pot
    starts, evaluations = [], []
    points = GridSplines.points
    monkeypatch.setattr(calabi, "integrate_potential", folded)
    monkeypatch.setattr(calabi, "_bilinear_inverse", lambda *args: (
        starts.append(args) or bilinear(*args)))
    monkeypatch.setattr(GridSplines, "points", lambda self, *args: (
        evaluations.append(args) or points(self, *args)))
    with pytest.raises(NumericalError) as err:
        to_lorentz(reaper_patch(0.02), LIN1)
    assert str(err.value) == ("gradient map folds over during resampling "
                              "(Jacobian sign change)")
    assert evaluations

    patch, gfx, gfy, tx, ty = starts[0][:5]
    rng = np.random.default_rng(3)
    px = rng.uniform(*band[0], tx.size)
    py = rng.uniform(patch.y[0], patch.y[-1], tx.size)
    qx, qy = bilinear(patch, gfx, gfy, tx, ty, px, py)
    assert qx.tobytes() == px.tobytes() and qy.tobytes() == py.tobytes()


# ---------------------------------------------------------------------------
# the work of the resampling Newton
# ---------------------------------------------------------------------------

def test_transform_builds_each_basis_and_table_once(monkeypatch):
    # the 201x201 bowl resamples to 179x179 = 32,041 target nodes, 8 blocks
    # of at most 4096 points, in two quintic evaluations: each is one pass
    # that builds every block's two bases once and forms each coefficient
    # table it uses once; the first evaluates the base change and its
    # Jacobian, the converged one the base change and the heights with
    # their five derivatives, and no Jacobian
    patch = bowl_patch_201()
    bases, fills, tables = [], [], []
    basis, fill, table = calabi._basis, GridSplines.fill, GridSplines._table
    monkeypatch.setattr(calabi, "_basis", lambda *args: (
        bases.append(args[2].size) or basis(*args)))
    monkeypatch.setattr(GridSplines, "fill", lambda self, b, wanted, out: (
        fills.append(tuple(wanted)) or fill(self, b, wanted, out)))
    monkeypatch.setattr(GridSplines, "_table", lambda self, *key: (
        tables.append(key) or table(self, *key)))
    dst, _ = to_lorentz(patch, LIN1)
    assert dst.u.shape == (179, 179) and dst.meta["newton_iters"] == 2
    values = ((0, 0, 0), (1, 0, 0))
    jacobian = ((0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1))
    heights = ((2, 0, 0), (2, 1, 0), (2, 0, 1), (2, 2, 0), (2, 0, 2),
               (2, 1, 1))
    assert len(bases) == 2 * 8 * 2
    assert sum(bases) == 2 * 2 * 32041
    assert fills == [values, jacobian] * 8 + [values, heights] * 8
    assert tables == [*values, *jacobian, *values, *heights]


def test_blocks_that_converge_unevenly_keep_every_bit(monkeypatch):
    # blocks of 64 points converge at different evaluations: a block that
    # evaluated the heights when the whole grid had not converged builds
    # its basis again for the Jacobian, and nothing moves by a bit
    def round_trips():
        out = []
        for patch in (bowl_patch(LIN1, 0.02), reaper_patch(0.02)):
            dst, dual = to_lorentz(patch, LIN1)
            out += [dst, from_lorentz(dst, dual)[0]]
        return out
    reference = round_trips()
    rebuilt = []
    at = GridSplines.at
    monkeypatch.setattr(calabi, "_BLOCK", 64)
    monkeypatch.setattr(GridSplines, "at", lambda self, *args: (
        rebuilt.append(args[2]) or at(self, *args)))
    for want, got in zip(reference, round_trips()):
        for name in ("x", "y", "u"):
            assert getattr(got, name).tobytes() == \
                getattr(want, name).tobytes()
        assert got.meta["newton_iters"] == want.meta["newton_iters"]
    assert rebuilt and all(fields == calabi._JACOBIAN for fields in rebuilt)
