"""Checks of phimin artifacts against closed forms and structural properties.

Every check here reads what the program wrote (CSV, OBJ, PLY, report.json)
with its own parser and compares it with a formula or a property the
construction must have.  None of them compares with a stored copy of an
earlier output, and none calls into phimin, so a fault in the program cannot
hide itself by also breaking the reference.

A check returns a ``Check``: its name, the measured value, the bound, and
whether the value is within the bound.  ``controls.py`` feeds every check a
deliberately perturbed artifact to show that it trips.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np


class Check(NamedTuple):
    name: str
    value: float
    bound: float
    ok: bool


def at_most(name: str, value: float, bound: float) -> Check:
    value = float(value)
    return Check(name, value, float(bound),
                 bool(math.isfinite(value) and value <= bound))


# ---------------------------------------------------------------------------
# readers (independent of phimin's own)
# ---------------------------------------------------------------------------

def read_table(path: Path) -> Tuple[Dict[str, str], List[str], np.ndarray]:
    """Comment header (``# key = value``), column names and data of a CSV."""
    meta: Dict[str, str] = {}
    skip = 0
    columns: List[str] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            skip += 1
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, val = body.split("=", 1)
                    meta[key.strip()] = val.strip()
                continue
            columns = line.strip().split(",")
            break
    data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    return meta, columns, data


def read_report(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))["report"]


def obj_counts(path: Path) -> Dict[str, int]:
    """Number of vertex, normal and face records of an OBJ file."""
    text = b"\n" + Path(path).read_bytes()
    return {key: text.count(b"\n" + key.encode() + b" ")
            for key in ("v", "vn", "f")}


def ply_vertices(path: Path) -> np.ndarray:
    """Vertex rows (x, y, z, nx, ny, nz) of an ASCII PLY file."""
    n_vert, skip = 0, 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            skip += 1
            if line.startswith("element vertex"):
                n_vert = int(line.split()[2])
            if line.strip() == "end_header":
                break
    return np.loadtxt(path, skiprows=skip, max_rows=n_vert, ndmin=2)


def profile_header(meta: Dict[str, str]) -> Tuple[str, Dict[str, float]]:
    """Kind and numeric parameters of a ``profile = ...`` header line."""
    tokens = meta.get("profile", "").split()
    if not tokens:
        return "", {}
    params = {}
    for tok in tokens[1:]:
        key, _, val = tok.partition("=")
        try:
            params[key] = float(val)
        except ValueError:
            pass
    return tokens[0], params


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def reaper_curve(curve: np.ndarray, tol: float = 1e-8) -> Check:
    """Grim reaper profile u = -log cos x (columns s, x, z, theta)."""
    x, z = curve[:, 1], curve[:, 2]
    return at_most("reaper_curve_vs_minus_log_cos",
                   np.max(np.abs(z + np.log(np.cos(x)))), tol)


def launch_slope(curve: np.ndarray, dphi_z0: float,
                 tol: float = 1e-4) -> Check:
    """A bowl leaves the axis with d(theta)/ds = dphi(z0) / 2."""
    s, theta = curve[:, 0], curve[:, 3]
    slope = (theta[1] - theta[0]) / (s[1] - s[0])
    return at_most("bowl_launch_slope_vs_half_dphi",
                   abs(slope - 0.5 * dphi_z0), tol)


def axis_distance(right: np.ndarray, left: np.ndarray, x0: float,
                  tol: float = 1e-6) -> Check:
    """The catenoid's closest approach to the axis is its neck radius."""
    closest = min(right[:, 1].min(), left[:, 1].min())
    return at_most("catenoid_axis_distance_vs_x0", abs(closest - x0), tol)


def crossings(points: np.ndarray, chunk: int = 256) -> int:
    """Proper crossings between non-adjacent segments of a polyline."""
    p, q = points[:-1], points[1:]
    n = len(p)

    def orient(a, b, c):
        return np.sign((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
                       - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))

    total = 0
    for lo in range(0, n, chunk):
        a, b = p[lo:lo + chunk, None, :], q[lo:lo + chunk, None, :]
        c, d = p[None, :, :], q[None, :, :]
        hit = ((orient(a, b, c) * orient(a, b, d) < 0)
               & (orient(c, d, a) * orient(c, d, b) < 0))
        i = np.arange(lo, min(lo + chunk, n))[:, None]
        j = np.arange(n)[None, :]
        total += int(np.count_nonzero(hit & (j > i + 1)))
    return total


def catenoid_embedded(right: np.ndarray, left: np.ndarray) -> Check:
    """Both branches start at the foot; joined they must not cross."""
    pts = np.concatenate([right[::-1, 1:3], left[1:, 1:3]])
    return at_most("catenoid_self_crossings", crossings(pts), 0)


# ---------------------------------------------------------------------------
# graph patches and the duality
# ---------------------------------------------------------------------------

def hyperbolic_cylinder(patch: np.ndarray, h: float) -> Check:
    """The dual of the grim reaper under the linear weight is the
    hyperbolic cylinder u = sqrt(1 + (X - X0)^2); X0 is fitted from
    u^2 - 1 - X^2 = -2 X0 X + X0^2.  Bound: 10 h^2 of the source grid."""
    x, u = patch[:, 0], patch[:, 2]
    design = np.column_stack([x, np.ones_like(x)])
    coef = np.linalg.lstsq(design, u ** 2 - 1.0 - x ** 2, rcond=None)[0]
    x0 = -0.5 * coef[0]
    err = np.max(np.abs(u - np.sqrt(1.0 + (x - x0) ** 2)))
    return at_most("soliton_dual_vs_hyperbolic_cylinder", err, 10.0 * h * h)


def dual_is_log_minus_one(meta: Dict[str, str]) -> Check:
    """The dual of the linear weight phi = z is log with alpha = -1."""
    kind, params = profile_header(meta)
    miss = 0.0 if kind == "log" else math.inf
    miss += abs(params.get("alpha", math.inf) + 1.0)
    return at_most("linear_dual_is_log_alpha_minus_one", miss, 0.0)


def grid_spacing(patch: np.ndarray) -> float:
    """Spacing of the x column of a graph patch table."""
    xs = np.unique(patch[:, 0])
    return float(xs[1] - xs[0])


def roundtrip_sup(report: dict, h: float) -> Check:
    """Acceptance criterion 10: the round trip lands within 10 h."""
    return at_most("roundtrip_sup_difference_vs_10h",
                   float(report["roundtrip_sup_difference"]), 10.0 * h)


def heights_close(got: np.ndarray, want: np.ndarray,
                  tol: float = 1e-3) -> Check:
    """The duality is an involution: back heights equal the source's."""
    return at_most("custom_roundtrip_heights", np.max(np.abs(got - want)),
                   tol)


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------

def _record_miss(counts: Dict[str, int], verts: int, faces: int) -> int:
    return (abs(counts["v"] - verts) + abs(counts["vn"] - verts)
            + abs(counts["f"] - faces))


def revolved_counts(name: str, counts: Dict[str, int], rings: int,
                    n_theta: int, apex: bool) -> Check:
    """Records implied by revolving ``rings`` curve samples through
    ``n_theta`` angles: the rings close up around the axis (two triangles
    per cell, ``n_theta`` cells per row), and an axis sample becomes one
    apex vertex with a fan of ``n_theta`` triangles."""
    verts = rings * n_theta + (1 if apex else 0)
    faces = 2 * n_theta * (rings - 1) + (n_theta if apex else 0)
    return at_most(f"{name}_record_count_mismatch",
                   _record_miss(counts, verts, faces), 0)


def cylinder_counts(name: str, counts: Dict[str, int], rows: int,
                    rulings: int) -> Check:
    """Records implied by extruding ``rows`` curve samples along
    ``rulings`` lines: an open grid with two triangles per cell."""
    verts = rows * rulings
    faces = 2 * (rows - 1) * (rulings - 1)
    return at_most(f"{name}_record_count_mismatch",
                   _record_miss(counts, verts, faces), 0)


def tilted_shape_operator(s_norm: np.ndarray, vertices: np.ndarray,
                          angle: float, tol: float = 0.01) -> Check:
    """The tilt is a homothety of ratio 1/cos(angle) after a rotation, so
    the reaper's curvature cos x becomes cos(angle) cos(cos(angle) X) at
    the image vertex (X, Y, Z).  Compared on interior (finite) vertices."""
    c = math.cos(angle)
    want = c * np.cos(c * vertices[:, 0])
    inside = np.isfinite(s_norm)
    if not inside.any():
        return Check("tilted_shape_operator_rel_error", math.nan, tol, False)
    return at_most("tilted_shape_operator_rel_error",
                   np.max(np.abs(s_norm[inside] / want[inside] - 1.0)), tol)


def reaper_reconstruction(vertices: np.ndarray, u: np.ndarray,
                          v: np.ndarray) -> Check:
    """Representation of the reaper field (k = 1, G = tanh(u/2)) is
    (2 arctan tanh(u/2), -v, log cosh u) up to translation, within 10 h."""
    got = vertices[:, :3].reshape(len(u), len(v), 3)
    want = np.stack(np.broadcast_arrays(
        (2.0 * np.arctan(np.tanh(u / 2.0)))[:, None], -v[None, :],
        np.log(np.cosh(u))[:, None]), axis=-1)
    diff = got - want
    diff -= diff.reshape(-1, 3).mean(axis=0)
    h = max(u[1] - u[0], v[1] - v[0])
    return at_most("reaper_reconstruction_vs_closed_form",
                   np.max(np.abs(diff)), 10.0 * h)


def radius_constancy(name: str, vertices: np.ndarray, shape: Sequence[int],
                     circle_axis: int, tol: float = 1e-3) -> Check:
    """On a surface of revolution about the z-axis the radius is constant
    along each circle of rotation (grid axis ``circle_axis``)."""
    pts = vertices[:, :3].reshape(shape[0], shape[1], 3)
    radius = np.hypot(pts[..., 0], pts[..., 1])
    spread = radius.max(axis=circle_axis) - radius.min(axis=circle_axis)
    return at_most(f"{name}_radius_spread_on_circles", spread.max(), tol)


# ---------------------------------------------------------------------------
# reports and sampling
# ---------------------------------------------------------------------------

def report_at_most(name: str, report: dict, keys: Sequence[str],
                   bound: float) -> Check:
    """Largest of the named report.json fields against a bound."""
    return at_most(name, max(float(report[k]) for k in keys), bound)


def sample_count(name: str, rows: int, expected: int) -> Check:
    """Rows of a curve artifact against the count its sampling implies."""
    return at_most(f"{name}_sample_count_mismatch", abs(rows - expected), 0)
