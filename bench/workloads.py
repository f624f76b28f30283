"""The benchmark's three workloads: what runs, on which inputs, and how the
outputs are checked.

``draws`` turns a seed into the workload's input sizes, ``make_inputs``
writes the input files the benchmark itself prepares (once per run, before
any timing), and ``examples`` lists the examples of one pass.  An example is
one or more phimin commands, or library calls, plus the ``verify`` calls on
the files they wrote; it is timed as a whole.  Its ``check`` runs after the
pass has been timed and compares the outputs with closed forms
(``checks.py``).

Why these workloads:

* ``gallery`` runs the paper's stock examples the way a user does, through
  the CLI with OBJ export, so mesh export and the mesh curvature oracle
  carry most of its time.
* ``duality`` runs round trips across the Euclidean/Lorentzian duality.  It
  writes no mesh, so it bypasses the mesh oracle and the OBJ/PLY writers:
  a change to those must leave it unchanged.
* ``representation`` is the only workload that runs the Gauss-map
  representation, the Cauchy (Bjorling) series, the Gauss-field reader and
  writer, and the PLY and CSV mesh writers.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

import checks

WORKLOADS = ("gallery", "duality", "representation")

# Stock presets and the numbers the checks need from them (the preset
# tables in phimin.cli and the per-command defaults: n_samples 801 for
# catenaries, which are mirrored to 2 * 801 - 1 samples, 41 rulings,
# n_samples 1201 and n_theta 129 for rotational curves).
CATENARY_SAMPLES = 2 * 801 - 1
RULINGS = 41
ROT_SAMPLES = 1201
N_THETA = 129
BOWL_DPHI = {"bowl-exp-weight": lambda z: math.exp(-1.0 / z),
             "bowl-quadratic-weight": lambda z: z * z}
BOWL_Z0 = 1.0
CATENOID_X0 = 1.0
SOLITON_SOURCE_H = 2.4 / 120  # half_x 1.2 on a 121-node axis

# Gallery's library diagnostic: a reaper tilted by pi/4, 401 x 41 vertices.
DIAGNOSTIC_SAMPLES = 201
DIAGNOSTIC_ANGLE = math.pi / 4

# The representation workload's Bjorling circle lies on the bowl that
# ``phimin weierstrass`` builds by default: linear weight, launched at
# z0 = 0.5; the circle sits at arc length 2 from the axis.
CIRCLE_S = 2.0
CIRCLE_BOWL_Z0 = 0.5


def draws(workload: str, seed: int) -> Dict[str, object]:
    """Input sizes drawn from the seed.

    Ranges are narrow (about 1 % per axis) so that the work per pass stays
    nearly the same across seeds, and every size in them was run to check
    that every operation passes.
    """
    rng = random.Random(seed)
    if workload == "duality":
        return {"bowl_grids": [(rng.randint(199, 203), rng.randint(199, 203))
                               for _ in range(2)]}
    if workload == "representation":
        return {"reaper_grid": (rng.randint(437, 445), rng.randint(327, 335)),
                "bowl_grid": (rng.randint(317, 325), rng.randint(237, 245))}
    return {}


# ---------------------------------------------------------------------------
# inputs the benchmark writes itself
# ---------------------------------------------------------------------------

def reaper_field_axes(grid):
    nu, nv = grid
    return np.linspace(-1.0, 1.0, nu), np.linspace(-0.75, 0.75, nv)


def write_reaper_field(path: Path, grid) -> None:
    """Gauss field of the grim reaper: k = 1, G = tanh(u/2), in the CSV
    layout ``phimin weierstrass`` reads (``# k``, ``# shape`` headers)."""
    u, v = reaper_field_axes(grid)
    nu, nv = len(u), len(v)
    g = np.repeat(np.tanh(u / 2.0), nv)
    data = np.column_stack([np.repeat(u, nv), np.tile(v, nu), g,
                            np.zeros_like(g)])
    header = "\n".join(["# artifact = gauss_field",
                        f"# k = {1.0:.16e}",
                        f"# shape = {nu} {nv}",
                        "u,v,re_g,im_g"])
    np.savetxt(path, data, delimiter=",", header=header, comments="",
               fmt="%.16e")


def bowl_circle(z0: float, s_end: float, ds: float = 1e-3):
    """(radius, height, inclination) at arc length ``s_end`` on the bowl of
    the linear weight (dphi = 1) launched from the axis at height z0.

    Classical RK4 on x' = cos t, z' = sin t, t' = cos t - sin t / x from
    the axis series x = s, z = z0 + s^2 / 4, t = s / 2.
    """
    def rhs(y):
        x, _, t = y
        return np.array([math.cos(t), math.sin(t),
                         math.cos(t) - math.sin(t) / x])

    s = ds
    y = np.array([s, z0 + s * s / 4.0, s / 2.0])
    n = int(round((s_end - s) / ds))
    for _ in range(n):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * ds * k1)
        k3 = rhs(y + 0.5 * ds * k2)
        k4 = rhs(y + ds * k3)
        y = y + ds / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return tuple(float(v) for v in y)


def circle_document(r0: float, z0: float, th0: float) -> str:
    """Bjorling data for a horizontal circle with the bowl's normal, in the
    JSON layout ``phimin bjorling`` reads (Fourier rows [a0, a1, b1])."""
    st, ct = math.sin(th0), math.cos(th0)
    doc = {"curve_kind": "fourier", "k": 1.0, "degree": 12,
           "period": 2.0 * math.pi * r0,
           "beta": [[0.0, r0, 0.0], [0.0, 0.0, r0], [z0, 0.0, 0.0]],
           "normal": [[0.0, -st, 0.0], [0.0, 0.0, -st], [ct, 0.0, 0.0]]}
    return json.dumps(doc, indent=2, sort_keys=True)


def make_inputs(workload: str, seed: int, inputs: Path) -> None:
    """Write the input files of one run (identical for every pass)."""
    if workload != "representation":
        return
    d = draws(workload, seed)
    inputs.mkdir(parents=True, exist_ok=True)
    write_reaper_field(inputs / "field.csv", d["reaper_grid"])
    r0, z0, th0 = bowl_circle(CIRCLE_BOWL_Z0, CIRCLE_S)
    (inputs / "circle.json").write_text(circle_document(r0, z0, th0),
                                        encoding="utf-8")


# ---------------------------------------------------------------------------
# examples
# ---------------------------------------------------------------------------

class Example:
    """One timed example: ``run(ops, out)`` does the work, ``check(out)``
    returns the checks on what it wrote (or kept in ``self.kept``)."""

    def __init__(self, name: str, run: Callable, check: Callable):
        self.name = name
        self._run = run
        self._check = check
        self.kept: Dict[str, object] = {}

    def run(self, ops, out: Path) -> None:
        self._run(self, ops, out)

    def check(self, out: Path) -> List[checks.Check]:
        return self._check(self, out)


def _verify_all(ops, out: Path, names, expect: Dict[str, int] = None):
    for name in names:
        path = out / name
        ops.cli("verify", str(path), "--out",
                str(out / f"verify-{path.stem}"),
                expect=(expect or {}).get(name, 0))


def _table(path: Path):
    return checks.read_table(path)[2]


# -- gallery -----------------------------------------------------------------

def _tilt_example(preset: str) -> Example:
    def run(ex, ops, out):
        ops.cli("tilt", "--preset", preset, "--out", str(out))
        _verify_all(ops, out, ["curve.csv"])

    def check(ex, out):
        curve = _table(out / "curve.csv")
        return [checks.reaper_curve(curve),
                checks.sample_count("curve", len(curve), CATENARY_SAMPLES),
                checks.report_at_most(
                    "tilt_residuals", checks.read_report(out / "report.json"),
                    ["residual_tilted", "residual_flat"], 5e-3),
                checks.cylinder_counts("tilted_obj",
                                       checks.obj_counts(out / "tilted.obj"),
                                       len(curve), RULINGS)]
    return Example(preset, run, check)


def _bowl_example(preset: str) -> Example:
    def run(ex, ops, out):
        ops.cli("bowl", "--preset", preset, "--out", str(out))
        _verify_all(ops, out, ["curve.csv"])

    def check(ex, out):
        curve = _table(out / "curve.csv")
        return [checks.launch_slope(curve, BOWL_DPHI[preset](BOWL_Z0)),
                checks.sample_count("curve", len(curve), ROT_SAMPLES),
                checks.revolved_counts("bowl_obj",
                                       checks.obj_counts(out / "bowl.obj"),
                                       len(curve) - 1, N_THETA, apex=True)]
    return Example(preset, run, check)


def _catenoid_example(preset: str) -> Example:
    def run(ex, ops, out):
        ops.cli("catenoid", "--preset", preset, "--out", str(out))
        _verify_all(ops, out, ["curve_left.csv", "curve_right.csv"])

    def check(ex, out):
        right = _table(out / "curve_right.csv")
        left = _table(out / "curve_left.csv")
        return [checks.axis_distance(right, left, CATENOID_X0),
                checks.catenoid_embedded(right, left),
                checks.sample_count("curve_right", len(right), ROT_SAMPLES),
                # the left branch also samples the neck and the point of
                # minimal inclination
                checks.sample_count("curve_left", len(left), ROT_SAMPLES + 2),
                checks.revolved_counts(
                    "right_obj", checks.obj_counts(out / "catenoid_right.obj"),
                    len(right), N_THETA, apex=False),
                checks.revolved_counts(
                    "left_obj", checks.obj_counts(out / "catenoid_left.obj"),
                    len(left), N_THETA, apex=False)]
    return Example(preset, run, check)


def _pair_example(preset: str, soliton: bool) -> Example:
    def run(ex, ops, out):
        ops.cli("calabi-to-l3", "--preset", preset, "--out", str(out))
        _verify_all(ops, out, ["source.csv", "lorentz.csv"])

    def check(ex, out):
        meta, _, lorentz = checks.read_table(out / "lorentz.csv")
        found = [checks.dual_is_log_minus_one(meta)]
        if soliton:
            found.append(checks.hyperbolic_cylinder(lorentz, SOLITON_SOURCE_H))
        return found
    return Example(preset, run, check)


def _diagnostic_example() -> Example:
    def run(ex, ops, out):
        from phimin import profiles, solvers, surfaces
        lin = profiles.make_builtin("linear", 1.0)
        curve = solvers.solve_catenary(lin, 0.0, 1.45,
                                       n_samples=DIAGNOSTIC_SAMPLES)
        mesh = surfaces.tilt_cylinder(curve, DIAGNOSTIC_ANGLE,
                                      y_range=(-2.0, 2.0), ny=RULINGS)
        result = ops.call("second_fundamental_norm",
                          surfaces.second_fundamental_norm, mesh, lin)
        if result is not None:
            ex.kept["s_norm"] = result[0]
            ex.kept["vertices"] = mesh.vertices

    def check(ex, out):
        return [checks.tilted_shape_operator(ex.kept["s_norm"],
                                             ex.kept["vertices"],
                                             DIAGNOSTIC_ANGLE)]
    return Example("second-fundamental-norm", run, check)


def _gallery() -> List[Example]:
    return [_tilt_example("grim-reaper-cylinder"),
            _tilt_example("tilted-grim-reaper"),
            _bowl_example("bowl-exp-weight"),
            _bowl_example("bowl-quadratic-weight"),
            _catenoid_example("catenoid-exp-weight"),
            _pair_example("lorentz-soliton-pair", soliton=True),
            _pair_example("lorentz-winglike-pair", soliton=False),
            _diagnostic_example()]


# -- duality -----------------------------------------------------------------

def _chain_example(name: str, l3_args: List[str],
                   roundtrip_exit: int) -> Example:
    """README example session: calabi-to-l3, calabi-to-r3 on its
    lorentz.csv, then verify of all three patches."""
    def run(ex, ops, out):
        ops.cli("calabi-to-l3", *l3_args, "--out", str(out))
        ops.cli("calabi-to-r3", str(out / "lorentz.csv"),
                "--out", str(out / "back"))
        _verify_all(ops, out, ["source.csv", "lorentz.csv",
                               "back/roundtrip.csv"],
                    expect={"back/roundtrip.csv": roundtrip_exit})

    def check(ex, out):
        _, _, source = checks.read_table(out / "source.csv")
        meta, _, lorentz = checks.read_table(out / "lorentz.csv")
        h = checks.grid_spacing(source)
        found = [checks.dual_is_log_minus_one(meta),
                 checks.roundtrip_sup(
                     checks.read_report(out / "back" / "report.json"), h)]
        if roundtrip_exit:
            found.append(checks.hyperbolic_cylinder(lorentz, h))
        return found
    return Example(name, run, check)


def _custom_roundtrip_example() -> Example:
    """Library round trip for phi = z^2/2 + z on (-1, inf), which has no
    closed-form primitive, on a bowl patch at h = 0.04 (as in the
    custom-weight round-trip test of the test suite)."""
    h = 0.04

    def run(ex, ops, out):
        from scipy.interpolate import CubicSpline
        from phimin import calabi, profiles, solvers, surfaces
        weight = profiles.make_custom(
            lambda z: np.asarray(z, dtype=float) + 1.0,
            phi=lambda z: (0.5 * np.asarray(z, dtype=float) ** 2
                           + np.asarray(z, dtype=float)),
            ddphi=lambda z: np.ones_like(np.asarray(z, dtype=float)),
            domain=(-1.0, math.inf))
        curve = solvers.solve_bowl(weight, 0.0, 1.0)
        height_of_r = CubicSpline(curve.x, curve.z)
        half = 0.68 * curve.x[-1] / math.sqrt(2.0)
        g = np.arange(-half, half + h / 2, h)
        patch = surfaces.GraphPatch(
            g, g, height_of_r(np.hypot(g[:, None], g[None, :])))
        pair = ops.call("to_lorentz", calabi.to_lorentz, patch, weight)
        if pair is None:
            return
        back = ops.call("from_lorentz", calabi.from_lorentz, *pair)
        if back is not None:
            ex.kept.update(source=patch, back=back[0])

    def check(ex, out):
        from scipy.interpolate import RectBivariateSpline
        src, back = ex.kept["source"], ex.kept["back"]
        want = RectBivariateSpline(src.x, src.y, src.u)(back.x, back.y)
        return [checks.heights_close(back.u, want)]
    return Example("custom-weight-roundtrip", run, check)


def _duality(d) -> List[Example]:
    found = [_chain_example("soliton-chain",
                            ["--preset", "lorentz-soliton-pair"],
                            roundtrip_exit=2)]
    for i, (n, m) in enumerate(d["bowl_grids"]):
        found.append(_chain_example(
            f"bowl-chain-{i}",
            ["--preset", "lorentz-winglike-pair", "--grid", f"{n}x{m}"],
            roundtrip_exit=0))
    found.append(_custom_roundtrip_example())
    return found


# -- representation ----------------------------------------------------------

def _representation(d, inputs: Path) -> List[Example]:
    reaper_field = inputs / "field.csv"

    def reaper_run(ex, ops, out):
        ops.cli("weierstrass", str(reaper_field), "--format", "ply",
                "--out", str(out))
        ops.cli("verify", str(reaper_field), "--out", str(out / "verify"))

    def reaper_check(ex, out):
        u, v = reaper_field_axes(d["reaper_grid"])
        return [checks.reaper_reconstruction(
            checks.ply_vertices(out / "surface.ply"), u, v)]

    def bowl_run(ex, ops, out):
        n, m = d["bowl_grid"]
        ops.cli("weierstrass", "--grid", f"{n}x{m}", "--format", "csv",
                "--out", str(out))
        _verify_all(ops, out, ["field.csv"])

    def bowl_check(ex, out):
        # rows run along the meridian, columns around the axis
        return [checks.radius_constancy("bowl_field_surface",
                                        _table(out / "surface.csv"),
                                        d["bowl_grid"], circle_axis=1)]

    def bjorling_run(ex, ops, out):
        ops.cli("bjorling", str(inputs / "circle.json"),
                "--param", "halfwidth=0.1", "--format", "csv",
                "--out", str(out))
        _verify_all(ops, out, ["field.csv"])

    def bjorling_check(ex, out):
        # rows run along the circle (the curve), columns across it
        return [checks.report_at_most(
                    "bjorling_certificate",
                    checks.read_report(out / "report.json"),
                    ["certificate"], 1e-4),
                checks.radius_constancy("bjorling_surface",
                                        _table(out / "surface.csv"),
                                        (201, 201), circle_axis=0)]

    return [Example("reaper-field", reaper_run, reaper_check),
            Example("bowl-field", bowl_run, bowl_check),
            Example("bjorling-circle", bjorling_run, bjorling_check)]


def examples(workload: str, seed: int, inputs: Path) -> List[Example]:
    d = draws(workload, seed)
    if workload == "gallery":
        return _gallery()
    if workload == "duality":
        return _duality(d)
    if workload == "representation":
        return _representation(d, inputs)
    raise ValueError(f"unknown workload {workload!r}")
