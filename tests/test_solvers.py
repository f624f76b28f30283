import math

import numpy as np
import pytest

from phimin import make_builtin, make_custom, solvers
from phimin.cli import RunConfig, _curve_file, _finish, profile_from_spec
from phimin.errors import NumericalError
from phimin.solvers import (
    ProfileCurve,
    compute_lambda,
    count_self_intersections,
    first_integral_drift,
    fit_asymptotics,
    solve_bowl,
    solve_catenary,
    solve_catenoid,
)

LIN1 = make_builtin("linear", 1.0)


def second_differences(curve):
    """Divided second differences of z over x, a discrete u'' sign probe."""
    x, z = curve.x, curve.z
    return 2.0 * np.diff(np.diff(z) / np.diff(x)) / (x[2:] - x[:-2])


@pytest.fixture(scope="module")
def reaper():
    return solve_catenary(LIN1, 0.0, 1.45, tol=1e-12)


@pytest.fixture(scope="module")
def soliton_bowl():
    return solve_bowl(LIN1, 0.0, 20.0, tol=1e-10)


def test_grim_reaper_closed_form(reaper):
    # u'' = 1 + u'^2 from rest integrates to -log(cos x)
    err = np.max(np.abs(reaper.z + np.log(np.cos(reaper.x))))
    assert err < 1e-10
    unit = solve_catenary(LIN1, 0.0, 1.0, tol=1e-12)
    assert unit.z[-1] == pytest.approx(0.6156264703860141, abs=1e-9)


def test_catenary_even_extension(reaper):
    x, u = reaper.graph()
    mid = len(x) // 2
    assert x[mid] == 0.0
    assert np.allclose(u[:mid], u[:mid:-1])
    assert np.allclose(reaper.theta[:mid], -reaper.theta[:mid:-1])


def test_catenary_quadrature_crosscheck(reaper):
    assert reaper.meta["quadrature_discrepancy"] < 1e-10
    # criterion 3's catenaries, most launched off u0 = 0, where a difference
    # of phi would cancel near the turning height
    for prof, u0, x_max in [(LIN1, 0.0, 1.45),
                            (make_builtin("linear", 2.0), 0.3, 0.6),
                            (make_builtin("log", 2.0), 1.0, 0.8),
                            (make_builtin("series", 1.0, 1.0), 0.5, 0.7)]:
        curve = solve_catenary(prof, u0, x_max, tol=1e-10)
        assert curve.meta["quadrature_discrepancy"] <= 1e-9
    # at an equilibrium (dphi(u0) = 0) the curve stays at u0: every sample
    # is skipped, none compared
    flat = make_custom(lambda z: (np.asarray(z, dtype=float) - 0.3) ** 2)
    line = solve_catenary(flat, 0.3, 1.0, tol=1e-10)
    assert np.all(line.z == 0.3) and line.x.max() > 0.5
    assert line.meta["quadrature_discrepancy"] == 0.0


def test_catenary_blow_up_reports_half_width():
    p = make_builtin("log", 2.0)
    curve = solve_catenary(p, 1.0, 10.0, tol=1e-10)
    assert curve.meta["terminated"] == "blow_up"
    lam = compute_lambda(p, 1.0)
    assert lam.finite
    assert curve.meta["lambda_estimate"] == pytest.approx(lam.lambda_u0, abs=5e-2)
    # convex graph all the way out
    assert np.min(second_differences(curve)) > -1e-6


def test_catenary_decreasing_profile_exits_domain():
    p = make_builtin("log", -1.0)  # decreasing on (0, inf)
    curve = solve_catenary(p, 1.0, 10.0, tol=1e-10)
    assert curve.meta["terminated"] == "domain_exit"
    assert np.min(curve.z) < 0.05  # fell almost to the domain floor


def test_compute_lambda_linear_is_half_pi():
    rep = compute_lambda(LIN1, 0.0)
    assert rep.finite
    assert rep.lambda_u0 == pytest.approx(math.pi / 2, abs=1e-8)
    # translation invariance of the linear weight
    rep2 = compute_lambda(LIN1, 3.7)
    assert rep2.lambda_u0 == pytest.approx(rep.lambda_u0, abs=1e-8)


def test_compute_lambda_matches_closed_forms():
    from scipy.special import ellipk
    # int_1^inf du / sqrt(u^4 - 1) = K(1/2) / sqrt(2), parameter m = 1/2
    quartic = compute_lambda(make_builtin("log", 2.0), 1.0)
    assert abs(quartic.lambda_u0 - ellipk(0.5) / math.sqrt(2.0)) <= 1e-12
    assert abs(compute_lambda(LIN1, 3.7).lambda_u0 - math.pi / 2) <= 1e-12


def test_compute_lambda_skips_the_half_width_of_a_bounded_weight(
        monkeypatch):
    # sup phi = 1/2: the exp(-phi) test alone decides, no half-width is built
    bounded = make_custom(lambda z: np.asarray(z, dtype=float) ** -2.0,
                          domain=(1.0, math.inf))

    def no_abscissa(*args):
        raise AssertionError("half-width built for a bounded weight")
    monkeypatch.setattr(solvers, "_abscissa", no_abscissa)
    rep = compute_lambda(bounded, 2.0)
    assert not rep.finite and rep.lambda_u0 == math.inf


def test_compute_lambda_log_finiteness_split():
    harmonic = compute_lambda(make_builtin("log", 1.0), 1.0)
    assert not harmonic.finite and harmonic.lambda_u0 == math.inf
    quadratic = compute_lambda(make_builtin("log", 2.0), 1.0)
    assert quadratic.finite and quadratic.lambda_u0 < math.inf


def test_drift_zero_on_exact_samples():
    x = np.linspace(-1.2, 1.2, 201)
    u = -np.log(np.cos(x))
    curve = ProfileCurve(s=x, x=x, z=u, theta=np.arctan(np.tan(x)),
                         curve_kind="catenary_graph", profile=LIN1,
                         initial_data={"u0": 0.0})
    assert first_integral_drift(curve, LIN1) < 1e-12


def test_drift_flags_corruption():
    x = np.linspace(-1.2, 1.2, 201)
    u = -np.log(np.cos(x))
    u[57] += 1e-3
    curve = ProfileCurve(s=x, x=x, z=u, theta=np.arctan(np.tan(x)),
                         curve_kind="catenary_graph", profile=LIN1,
                         initial_data={"u0": 0.0})
    assert first_integral_drift(curve, LIN1) > 1e-4


def test_drift_single_sample_is_zero():
    curve = ProfileCurve(s=np.zeros(1), x=np.zeros(1), z=np.zeros(1),
                         theta=np.zeros(1), curve_kind="catenary_graph",
                         profile=LIN1, initial_data={"u0": 0.0})
    assert first_integral_drift(curve, LIN1) == 0.0


def test_drift_small_on_integrated_curves(reaper):
    assert first_integral_drift(reaper, LIN1) < 100 * reaper.meta["tol"]


def test_bowl_launch_slope():
    # th'(0) = dphi(0)/2 = 1/2, recovered from a densely sampled short arc
    short = solve_bowl(LIN1, 0.0, 0.05, tol=1e-11, n_samples=101)
    coef = np.polyfit(short.s, short.theta, 3)
    assert coef[-2] == pytest.approx(0.5, abs=1e-6)
    assert short.meta["theta_prime_0"] == pytest.approx(0.5)


def test_bowl_is_convex_graph(soliton_bowl):
    assert np.all(np.diff(soliton_bowl.x) > 0)
    assert np.min(second_differences(soliton_bowl)) > -1e-8
    th = soliton_bowl.theta
    assert np.all(th[1:] > 0) and np.all(th < math.pi / 2)


def test_bowl_continuity_in_initial_height():
    # Perturbing z0 moves the curve by O(eps) on a compact range.  The
    # weight must not be translation invariant or the difference vanishes.
    quad_weight = make_builtin("series", 1.0, 0.0, domain=(0.0, math.inf))
    base = solve_bowl(quad_weight, 1.0, 2.0, tol=1e-11, n_samples=201)
    diffs = []
    for eps in (1e-3, 1e-4):
        pert = solve_bowl(quad_weight, 1.0 + eps, 2.0, tol=1e-11, n_samples=201)
        diffs.append(np.max(np.abs(pert.z - base.z) + np.abs(pert.x - base.x)))
    ratio = diffs[0] / diffs[1]
    assert 10.0 / 3.0 < ratio < 30.0


def test_bowl_nonconvex_weight_runs_until_inclination_drops():
    # dphi = 1/z is increasing but not convex.  The bowl exists and stays
    # convex for a while (the hanging-roof profile), so a short arc works;
    # a long one crosses the inclination maximum and must be refused.
    roof = solve_bowl(make_builtin("log", 1.0), 1.0, 5.0)
    assert np.all(np.diff(roof.theta)[1:] > 0)
    with pytest.raises(Exception) as e:
        solve_bowl(make_builtin("log", 1.0), 1.0, 14.0)
    assert "convex" in str(e.value)


def test_catenoid_winglike_shape():
    right, left = solve_catenoid(LIN1, 1.0, 0.0, 6.0, tol=1e-10)
    x_f, z_f = right.meta["foot"]
    assert x_f > 1.0 and z_f < 0.0
    # right branch: convex rising graph from the foot
    assert np.all(np.diff(right.x) > 0)
    assert np.all(np.diff(right.z)[5:] > 0)
    # left branch milestones: neck crossing then inclination minimum
    s0, s1 = left.meta["s_neck"], left.meta["s_theta_min"]
    assert 0.0 < s0 < s1
    assert left.meta["neck_error"] < 1e-8
    # inclination falls from pi to its minimum, then rises
    th = left.theta
    i1 = np.searchsorted(left.s, s1)
    assert np.all(np.diff(th[: i1 - 1]) < 0)
    assert np.all(np.diff(th[i1 + 1:]) > 0)


@pytest.mark.parametrize("x0", [0.5, 1.0, 2.0])
def test_catenoid_min_axis_distance(x0):
    right, left = solve_catenoid(LIN1, x0, 0.0, 5.0, tol=1e-10)
    m = min(np.min(right.x), np.min(left.x))
    assert m == pytest.approx(x0, abs=1e-6)
    assert right.meta["self_intersections"] == 0


def test_self_intersection_counter():
    # an X crossing
    cross = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    assert count_self_intersections(cross) == 1
    # a staircase never crosses itself
    stair = np.array([[0, 0], [1, 0], [1, 1], [2, 1], [2, 2], [3, 2]], float)
    assert count_self_intersections(stair) == 0


def reference_count_self_intersections(points):
    """Every segment against all later non-adjacent ones, one at a time."""
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


def catenoid_preset_polyline():
    # the catenoid-exp-weight preset's branches, joined as its report joins
    # them (2,404 points)
    prof = profile_from_spec("custom dphi=exp(-1/z) domain=0.01,inf "
                             "growth_alpha=0 asymptote=0,1")
    right, left = solve_catenoid(prof, 1.0, 2.0, 6.0, tol=1e-10,
                                 n_samples=1201)
    return np.column_stack([np.concatenate([left.x[::-1], right.x]),
                            np.concatenate([left.z[::-1], right.z])])


@pytest.mark.parametrize("block", [1 << 20, 7])
def test_self_intersection_sweep_matches_all_pairs(block, monkeypatch):
    monkeypatch.setattr(solvers, "_PAIR_BLOCK", block)
    rng = np.random.default_rng(3)
    cross = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    stair = np.array([[0, 0], [1, 0], [1, 1], [2, 1], [2, 2], [3, 2]], float)
    walks = [np.cumsum(rng.normal(size=(n, 2)), axis=0)
             for n in (4, 5, 40, 300)]
    # steps on the integer lattice make touching and collinear segments
    walks += [np.cumsum(rng.integers(-1, 2, size=(n, 2)), axis=0).astype(
        float) for n in (6, 50, 400)]
    polylines = [cross, stair, cross[:3], *walks]
    if block > 7:
        polylines.append(catenoid_preset_polyline())
    counts = [count_self_intersections(p) for p in polylines]
    assert counts == [reference_count_self_intersections(p)
                      for p in polylines]
    assert counts[:3] == [1, 0, 0]
    assert max(counts[3:7]) > 0 and max(counts[7:10]) > 0


def test_fit_asymptotics_soliton_constant(soliton_bowl):
    # curly_g(u) - r^2/2 + log r settles to a constant with ~r^-2 remainder
    rep = fit_asymptotics(soliton_bowl, LIN1, (3.0, 6.0))
    assert not rep.finite and rep.lambda_u0 == math.inf
    assert "c" in rep.fitted_constants
    assert -3.2 < rep.residual_decay_rate < -1.0


def test_fit_asymptotics_dichotomy():
    lin_growth = make_builtin("series", 1.0, 0.0, domain=(0.0, math.inf))
    cubic = make_custom(dphi=lambda z: np.asarray(z, float) ** 3,
                        phi=lambda z: np.asarray(z, float) ** 4 / 4.0,
                        ddphi=lambda z: 3.0 * np.asarray(z, float) ** 2,
                        domain=(0.0, math.inf), growth_alpha=3.0)
    b1 = solve_bowl(lin_growth, 1.0, 30.0, tol=1e-9)
    r1 = fit_asymptotics(b1, lin_growth, (1.0, float(b1.x[-1])))
    assert not r1.finite
    assert r1.fitted_constants["predicted_radius_finite"] == 0.0
    assert r1.fitted_constants.get("alpha", 0.0) > 0.0

    b3 = solve_bowl(cubic, 1.0, 30.0, tol=1e-9)
    r3 = fit_asymptotics(b3, cubic, (0.3, float(b3.x[-1])))
    assert r3.finite and r3.lambda_u0 < 2.0
    assert r3.fitted_constants["predicted_radius_finite"] == 1.0
    # the sampled radius is already close to the fitted maximal radius
    assert float(b3.x[-1]) == pytest.approx(r3.lambda_u0, rel=1e-2)


def test_profile_curve_csv_roundtrip(tmp_path, reaper):
    # curves are written by the CLI's curve artifact entry
    _finish(RunConfig("profile", {}, tmp_path),
            [_curve_file(reaper, "curve.csv")], {})
    path = tmp_path / "curve.csv"
    text = path.read_text().splitlines()
    n_head = next(i for i, line in enumerate(text) if not line.startswith("#"))
    assert text[n_head] == "s,x,z,theta"
    back = np.loadtxt(path, delimiter=",", skiprows=n_head + 1)
    assert np.allclose(back[:, 0], reaper.s, atol=0, rtol=0)
    assert np.allclose(back[:, 1], reaper.x, atol=0, rtol=0)
    assert np.allclose(back[:, 2], reaper.z, atol=0, rtol=0)
    assert np.allclose(back[:, 3], reaper.theta, atol=0, rtol=0)
