import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline, RectBivariateSpline
from scipy.special import erfi

from phimin import make_builtin, make_custom
from phimin.calabi import (
    PotentialPatch,
    ThetaPrimitive,
    dual_profile,
    from_lorentz,
    integrate_potential,
    make_theta,
    to_lorentz,
)
from phimin.cli import profile_from_spec, profile_to_spec
from phimin.errors import NumericalError
from phimin.profiles import DomainError
from phimin.solvers import solve_bowl
from phimin.surfaces import (
    EUCLIDEAN,
    LORENTZIAN,
    GraphPatch,
    graph_mean_curvature,
    lfe_residual,
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


@given(m=st.floats(min_value=0.2, max_value=3.0),
       z=st.floats(min_value=-2.0, max_value=2.0))
def test_theta_inverse_roundtrip_linear(m, z):
    th = make_theta(make_builtin("linear", m), 0.0)
    assert th.inverse(th(z)) == pytest.approx(z, abs=1e-9)


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
    assert pot.meta["mixed_partial_defect"] < 5e-2
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
    assert dst.meta["dual_kind"] == "log"
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
    # the dual of the dual weight is checked for monotonicity on samples up
    # to height 50, past the theta primitive's reach; the samples that
    # evaluate are found by bisection, not one inversion per sample
    patch = bowl_patch(convex_custom_weight(), 0.04, s_max=1.0)
    dst, dual = to_lorentz(patch, convex_custom_weight())
    calls = []
    inverse = ThetaPrimitive.inverse
    monkeypatch.setattr(ThetaPrimitive, "inverse",
                        lambda self, t: calls.append(t) or inverse(self, t))
    from_lorentz(dst, dual)
    assert len(calls) <= 40


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
