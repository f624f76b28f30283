"""Negative controls for the benchmark's own checks.

Run from the root of a checkout:

    python3 bench/controls.py

Every check in ``checks.py`` runs twice: on a real artifact, where it must
pass, and on a copy of that artifact (or its report) perturbed on purpose,
where it must trip.  The exit-code bookkeeping of the passes is controlled
the same way, with ``verify`` on a perturbed curve.  The artifacts come from
phimin commands at reduced sizes, so the controls finish in seconds without
the full workloads.  Exit status 0 means every control behaved.
"""

from __future__ import annotations

import shutil
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path.cwd() / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import read_report, read_table  # noqa: E402
from one_pass import Ops  # noqa: E402

WORK = Path(__file__).resolve().parent / "_work" / "controls"


def rewrite_table(src: Path, dst: Path, change) -> Path:
    """Copy a CSV artifact with its header, after ``change(data)``."""
    head = []
    with open(src, encoding="utf-8") as fh:
        for line in fh:
            head.append(line.rstrip("\n"))
            if not line.startswith("#"):
                break
    data = read_table(src)[2].copy()
    change(data)
    body = [",".join(format(v, ".16e") for v in row) for row in data]
    dst.write_text("\n".join(head + body) + "\n", encoding="utf-8")
    return dst


def rewrite_lines(src: Path, dst: Path, change) -> Path:
    lines = src.read_text(encoding="utf-8").splitlines()
    dst.write_text("\n".join(change(lines)) + "\n", encoding="utf-8")
    return dst


def with_report(src: Path, **fields) -> dict:
    report = dict(read_report(src))
    report.update(fields)
    return report


def drop_last(prefix: str):
    def change(lines):
        last = max(i for i, l in enumerate(lines) if l.startswith(prefix))
        return lines[:last] + lines[last + 1:]
    return change


def add_at(row, col, delta):
    def change(data):
        data[row, col] += delta
    return change


def main() -> int:
    from phimin.cli import main as phimin
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    t0 = time.perf_counter()
    results = []

    def control(real: checks.Check, perturbed: checks.Check, how: str):
        results.append((real, perturbed, how))

    def run(*argv):
        code = phimin(list(argv))
        if code != 0:
            raise RuntimeError(f"phimin {' '.join(argv)} exited {code}")

    def cli_dir(name, *argv):
        out = WORK / name
        run(*argv, "--out", str(out))
        return out

    def bad(path: Path) -> Path:
        return path.with_name("perturbed-" + path.name)

    # -- gallery checks ------------------------------------------------------
    tilt = cli_dir("tilt", "tilt", "--preset", "tilted-grim-reaper",
                   "--param", "n_samples=201", "--param", "n_rulings=5")
    curve = tilt / "curve.csv"
    rows = 2 * 201 - 1
    data = read_table(curve)[2]
    control(checks.reaper_curve(data),
            checks.reaper_curve(read_table(rewrite_table(
                curve, bad(curve), add_at(rows // 3, 2, 1e-6)))[2]),
            "one height + 1e-6")
    control(checks.sample_count("curve", len(data), rows),
            checks.sample_count("curve", len(data) - 1, rows),
            "one row dropped")
    keys = ["residual_tilted", "residual_flat"]
    control(checks.report_at_most("tilt_residuals",
                                  read_report(tilt / "report.json"), keys,
                                  5e-3),
            checks.report_at_most("tilt_residuals",
                                  with_report(tilt / "report.json",
                                              residual_tilted="6e-3"),
                                  keys, 5e-3),
            "report residual set to 6e-3")
    obj = tilt / "tilted.obj"
    control(checks.cylinder_counts("tilted_obj", checks.obj_counts(obj),
                                   rows, 5),
            checks.cylinder_counts("tilted_obj", checks.obj_counts(
                rewrite_lines(obj, bad(obj), drop_last("f "))), rows, 5),
            "last face dropped")

    bowl = cli_dir("bowl", "bowl", "--preset", "bowl-quadratic-weight",
                   "--param", "n_theta=8")
    curve = bowl / "curve.csv"
    data = read_table(curve)[2]
    dphi = workloads.BOWL_DPHI["bowl-quadratic-weight"](workloads.BOWL_Z0)
    control(checks.launch_slope(data, dphi),
            checks.launch_slope(read_table(rewrite_table(
                curve, bad(curve), add_at(1, 3, 1e-4)))[2], dphi),
            "second inclination + 1e-4")
    obj = bowl / "bowl.obj"
    control(checks.revolved_counts("bowl_obj", checks.obj_counts(obj),
                                   len(data) - 1, 8, apex=True),
            checks.revolved_counts("bowl_obj", checks.obj_counts(
                rewrite_lines(obj, bad(obj), drop_last("vn "))),
                len(data) - 1, 8, apex=True),
            "last normal dropped")

    cat = cli_dir("catenoid", "catenoid", "--preset", "catenoid-exp-weight",
                  "--param", "n_theta=8")
    right = read_table(cat / "curve_right.csv")[2]
    left = read_table(cat / "curve_left.csv")[2]
    control(checks.axis_distance(right, left, workloads.CATENOID_X0),
            checks.axis_distance(right + [0, 1e-5, 0, 0],
                                 left + [0, 1e-5, 0, 0],
                                 workloads.CATENOID_X0),
            "radii + 1e-5")
    # the right branch is convex, so chords (9, 29) and (10, 30) cross
    folded = right.copy()
    folded[10:30] = folded[10:30][::-1]
    control(checks.catenoid_embedded(right, left),
            checks.catenoid_embedded(folded, left),
            "samples 10..29 of one branch reversed")

    pair = cli_dir("pair", "calabi-to-l3", "--preset",
                   "lorentz-soliton-pair")
    lorentz = pair / "lorentz.csv"
    meta, _, data = read_table(lorentz)
    h = workloads.SOLITON_SOURCE_H
    control(checks.hyperbolic_cylinder(data, h),
            checks.hyperbolic_cylinder(read_table(rewrite_table(
                lorentz, bad(lorentz), add_at(len(data) // 2, 2, 1e-2)))[2],
                h),
            "one height + 1e-2")
    control(checks.dual_is_log_minus_one(meta),
            checks.dual_is_log_minus_one(
                dict(meta, profile=meta["profile"].replace("-1.", "-2."))),
            "profile header alpha -2")

    # -- duality checks ------------------------------------------------------
    run("calabi-to-r3", str(lorentz), "--out", str(pair / "back"))
    source_h = checks.grid_spacing(read_table(pair / "source.csv")[2])
    report = pair / "back" / "report.json"
    control(checks.roundtrip_sup(read_report(report), source_h),
            checks.roundtrip_sup(with_report(
                report, roundtrip_sup_difference=str(11 * source_h)),
                source_h),
            "report difference set to 11 h")
    from scipy.interpolate import RectBivariateSpline
    from phimin import calabi, profiles, surfaces
    lin = profiles.make_builtin("linear", 1.0)
    g = np.linspace(-0.5, 0.5, 41)
    src = surfaces.GraphPatch(g, g, np.tile(-np.log(np.cos(g))[:, None],
                                            (1, len(g))))
    back, _ = calabi.from_lorentz(*calabi.to_lorentz(src, lin))
    want = RectBivariateSpline(src.x, src.y, src.u)(back.x, back.y)
    control(checks.heights_close(back.u, want),
            checks.heights_close(back.u + 2e-3, want),
            "round-trip heights + 2e-3")

    # -- representation checks ----------------------------------------------
    grid = (41, 31)
    field = WORK / "reaper-field.csv"
    workloads.write_reaper_field(field, grid)
    rep = cli_dir("reaper", "weierstrass", str(field), "--format", "ply")
    verts = checks.ply_vertices(rep / "surface.ply")
    u, v = workloads.reaper_field_axes(grid)
    shifted = verts.copy()
    shifted[len(verts) // 2, 2] += 1.0
    control(checks.reaper_reconstruction(verts, u, v),
            checks.reaper_reconstruction(shifted, u, v),
            "one vertex height + 1 (10 h is 0.5)")

    rot = cli_dir("bowl-field", "weierstrass", "--grid", "81x61",
                  "--format", "csv")
    verts = read_table(rot / "surface.csv")[2]
    moved = verts.copy()
    moved[len(verts) // 2, 0] += 2e-3
    control(checks.radius_constancy("bowl_field", verts, (81, 61), 1),
            checks.radius_constancy("bowl_field", moved, (81, 61), 1),
            "one vertex x + 2e-3")

    circle = WORK / "circle.json"
    circle.write_text(workloads.circle_document(*workloads.bowl_circle(
        workloads.CIRCLE_BOWL_Z0, workloads.CIRCLE_S)), encoding="utf-8")
    bj = cli_dir("bjorling", "bjorling", str(circle), "--param",
                 "halfwidth=0.1", "--grid", "201x41", "--format", "csv")
    report = bj / "report.json"
    control(checks.report_at_most("bjorling_certificate",
                                  read_report(report), ["certificate"], 1e-4),
            checks.report_at_most("bjorling_certificate",
                                  with_report(report, certificate="2e-4"),
                                  ["certificate"], 1e-4),
            "report certificate set to 2e-4")
    verts = read_table(bj / "surface.csv")[2]
    moved = verts.copy()
    moved[len(verts) // 2, 0] += 2e-3
    control(checks.radius_constancy("bjorling", verts, (201, 41), 0),
            checks.radius_constancy("bjorling", moved, (201, 41), 0),
            "one vertex x + 2e-3")

    # -- the shape-operator diagnostic ---------------------------------------
    from phimin import solvers
    mesh = surfaces.tilt_cylinder(
        solvers.solve_catenary(lin, 0.0, 1.45, n_samples=201),
        workloads.DIAGNOSTIC_ANGLE, y_range=(-2.0, 2.0), ny=5)
    s_norm, _ = surfaces.second_fundamental_norm(mesh, lin)
    control(checks.tilted_shape_operator(s_norm, mesh.vertices,
                                         workloads.DIAGNOSTIC_ANGLE),
            checks.tilted_shape_operator(1.02 * s_norm, mesh.vertices,
                                         workloads.DIAGNOSTIC_ANGLE),
            "|S| scaled by 1.02")

    # -- exit codes: a verify that fails where a pass expects 0 -------------
    ops = Ops()
    curve = tilt / "curve.csv"
    ops.cli("verify", str(curve), "--out", str(WORK / "verify-real"))
    real_unexpected = len(ops.unexpected)
    noisy = rewrite_table(curve, WORK / "noisy-curve.csv",
                          add_at(rows // 3, 2, 1e-2))
    ops.cli("verify", str(noisy), "--out", str(WORK / "verify-noisy"))
    control(checks.at_most("unexpected_exit_codes", real_unexpected, 0),
            checks.at_most("unexpected_exit_codes",
                           len(ops.unexpected), 0),
            "verify of a curve with one height + 1e-2")

    shutil.rmtree(WORK, ignore_errors=True)
    behaved = 0
    for real, perturbed, how in results:
        ok = real.ok and not perturbed.ok
        behaved += ok
        print(f"{'OK  ' if ok else 'BAD '} {real.name}: real {real.value:.3e}"
              f" {'passes' if real.ok else 'FAILS'}, perturbed ({how}) "
              f"{perturbed.value:.3e} {'trips' if not perturbed.ok else 'PASSES'}"
              f" (bound {real.bound:.3e})")
    print(f"{behaved}/{len(results)} controls behaved in "
          f"{time.perf_counter() - t0:.1f} s")
    return 0 if behaved == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
