import io
import math
import tempfile
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from phimin import make_builtin, surfaces
from phimin.calabi import PotentialPatch
from phimin.solvers import ProfileCurve, solve_bowl, solve_catenary, solve_catenoid
from phimin.surfaces import (
    EUCLIDEAN,
    LORENTZIAN,
    GraphPatch,
    SurfaceMesh,
    cylinder_patch,
    extrude_cylinder,
    fe_residual,
    lfe_residual,
    mean_curvature_residual,
    read_table,
    revolve,
    rotational_patch,
    save_obj,
    save_ply,
    second_fundamental_norm,
    staircase,
    tilt_cylinder,
    write_rows,
)
from phimin.weierstrass import GaussField

LIN1 = make_builtin("linear", 1.0)


def reaper_patch(n=121, half=1.0):
    x = np.linspace(-half, half, n)
    y = np.linspace(-half, half, n)
    u = np.repeat(-np.log(np.cos(x))[:, None], n, axis=1)
    return GraphPatch(x, y, u)


def sphere_mesh(radius=1.0, n_s=60, nt=80):
    s = np.linspace(0.35, math.pi - 0.35, n_s)
    curve = ProfileCurve(s=s, x=radius * np.sin(s), z=radius * np.cos(s),
                         theta=-s, curve_kind="catenoid_left", profile=LIN1,
                         initial_data={})
    return revolve(curve, nt)


def round_cylinder_mesh(radius=1.0, n_s=40, nt=60):
    s = np.linspace(0.0, 2.0, n_s)
    curve = ProfileCurve(s=s, x=np.full_like(s, radius), z=s,
                         theta=np.full_like(s, math.pi / 2),
                         curve_kind="catenoid_left", profile=LIN1,
                         initial_data={})
    return revolve(curve, nt)


# -- patches and finite-difference oracles ----------------------------------


def test_fe_residual_on_closed_form():
    res = fe_residual(reaper_patch(n=121), LIN1)
    interior = res[1:-1, 1:-1]
    assert np.nanmax(np.abs(interior)) < 5e-3
    # second-order refinement
    res2 = fe_residual(reaper_patch(n=241), LIN1)
    r = np.nanmax(np.abs(interior)) / np.nanmax(np.abs(res2[1:-1, 1:-1]))
    assert r > 3.0


def test_fe_residual_plane_negative_control():
    n = 41
    x = y = np.linspace(-1, 1, n)
    patch = GraphPatch(x, y, np.repeat(x[:, None], n, axis=1))
    res = fe_residual(patch, LIN1)
    assert np.allclose(res[1:-1, 1:-1], -2.0, atol=1e-9)


def test_fe_residual_solver_patch():
    bowl = solve_bowl(LIN1, 0.0, 6.0, tol=1e-10)
    patch = rotational_patch(bowl, 1.2, 101, 101)
    res = fe_residual(patch, LIN1)
    assert np.nanmax(np.abs(res[1:-1, 1:-1])) < 5e-3


def test_lfe_residual_constant_patch():
    n = 21
    x = y = np.linspace(-1, 1, n)
    patch = GraphPatch(x, y, np.full((n, n), 0.7), signature=LORENTZIAN)
    res = lfe_residual(patch, LIN1)
    assert np.allclose(res[1:-1, 1:-1], 1.0, atol=1e-12)


def test_lfe_rejects_non_spacelike():
    n = 21
    x = y = np.linspace(-1, 1, n)
    u = np.repeat((1.5 * x)[:, None], n, axis=1)  # slope 1.5 > 1
    with pytest.raises(ValueError):
        GraphPatch(x, y, u, signature=LORENTZIAN)
    patch = GraphPatch(x, y, u, signature=EUCLIDEAN)
    patch.signature = LORENTZIAN  # sneak past construction-time validation
    with pytest.raises(ValueError):
        lfe_residual(patch, LIN1)


def _grid_owners(axis):
    n = len(axis)
    g = np.linspace(0.0, 1.0, n)
    # the gradient of the convex potential (x^2 + y^2)/2
    phi_x, phi_y = np.meshgrid(axis, g, indexing="ij")
    return (lambda: GraphPatch(axis, g, np.zeros((n, n))),
            lambda: GaussField(axis, g, np.full((n, n), 0.5 + 0j), 1.0),
            lambda: PotentialPatch(axis, g, phi_x, phi_y))


def test_patch_requires_uniform_grid():
    # one rule for patches, Gauss fields and potentials: strictly
    # increasing, every step within 1e-8 (relative, no absolute term) of
    # the first
    for build in _grid_owners(np.array([0.0, 1.0, 2.0 + 5e-9, 3.0])):
        build()
    for axis in ([0.0, 1e-13, 5e-14, 1.5e-13], [0.0, 1e-13, 3e-13, 4e-13],
                 [0.0, 0.1, 0.3, 0.4], [0.0, -0.1, -0.2, -0.3]):
        for build in _grid_owners(np.array(axis)):
            with pytest.raises(ValueError, match="x grid|u grid"):
                build()


# -- meshes and discrete curvature ------------------------------------------


def test_extruded_reaper_mean_curvature():
    curve = solve_catenary(LIN1, 0.0, 1.2, tol=1e-11, n_samples=241)
    mesh = extrude_cylinder(curve, (-0.5, 0.5), 81)
    res = mean_curvature_residual(mesh, LIN1)
    assert np.nanmax(np.abs(res)) < 2e-3
    # the signed curvature itself is -1/W, bounded away from zero
    h = res + LIN1.dphi(mesh.vertices[:, 2]) * mesh.normals[:, 2]
    assert np.nanmax(h) < -0.25


def test_minimal_strip_mesh():
    curve = solve_catenary(LIN1, 0.0, 0.5, tol=1e-10, n_samples=41)
    mesh = extrude_cylinder(curve, (0.0, 0.1), 2)
    assert len(mesh.faces) == 2 * (curve.n_samples - 1)
    assert mesh.boundary_mask().all()


def test_extrude_rejects_degenerate_range():
    curve = solve_catenary(LIN1, 0.0, 0.5, tol=1e-10, n_samples=41)
    with pytest.raises(ValueError):
        extrude_cylinder(curve, (1.0, 1.0), 5)


def test_revolved_bowl_residual_and_orthogonality():
    bowl = solve_bowl(LIN1, 0.0, 4.0, tol=1e-10, n_samples=301)
    mesh = revolve(bowl, 128)
    res = mean_curvature_residual(mesh, LIN1)
    assert np.nanmax(np.abs(res)) < 5e-3
    # meridians meet parallels orthogonally: <psi_s, psi_t> ~ 0
    rings, nt = mesh.meta["rings"], mesh.meta["nt"]
    V = mesh.vertices[: rings * nt].reshape(rings, nt, 3)
    psi_s = V[2:, :, :] - V[:-2, :, :]
    psi_t = np.roll(V[1:-1], -1, axis=1) - np.roll(V[1:-1], 1, axis=1)
    dot = (psi_s * psi_t).sum(axis=2)
    norm = np.linalg.norm(psi_s, axis=2) * np.linalg.norm(psi_t, axis=2)
    assert np.max(np.abs(dot / norm)) < 1e-10


def test_revolve_coarse_and_negative_radius():
    bowl = solve_bowl(LIN1, 0.0, 1.0, tol=1e-8, n_samples=31)
    mesh = revolve(bowl, 3)
    assert mesh.n_vertices == 30 * 3 + 1  # axis fan vertex
    bad = ProfileCurve(s=np.array([0.0, 1.0]), x=np.array([-0.5, 1.0]),
                       z=np.zeros(2), theta=np.zeros(2),
                       curve_kind="catenoid_left", profile=LIN1,
                       initial_data={})
    with pytest.raises(ValueError):
        revolve(bad, 8)


def test_catenoid_mesh_is_annulus():
    right, left = solve_catenoid(LIN1, 1.0, 0.0, 3.0, tol=1e-9,
                                 n_samples=101)
    mesh = revolve(right, 40)
    edges = np.sort(np.concatenate([mesh.faces[:, [0, 1]],
                                    mesh.faces[:, [1, 2]],
                                    mesh.faces[:, [2, 0]]]), axis=1)
    n_edges = len(np.unique(edges, axis=0))
    chi = mesh.n_vertices - n_edges + len(mesh.faces)
    assert chi == 0


def test_round_cylinder_negative_control():
    mesh = round_cylinder_mesh(radius=1.0)
    res = mean_curvature_residual(mesh, LIN1)
    # |H| = 1/R and the weight term vanishes (horizontal normals)
    assert np.nanmin(np.abs(res)) > 0.5


def test_sphere_second_fundamental_norm():
    mesh = sphere_mesh(radius=2.0)
    s_norm, ratio = second_fundamental_norm(mesh, LIN1)
    good = ~np.isnan(s_norm)
    target = math.sqrt(2.0) / 2.0
    assert np.median(s_norm[good]) == pytest.approx(target, rel=2e-2)
    assert np.nanmax(ratio[good]) > 0


def test_plane_second_fundamental_norm_vanishes():
    n = 25
    x = y = np.linspace(-1, 1, n)
    patch = GraphPatch(x, y, 0.3 * np.repeat(x[:, None], n, axis=1) + 0.1)
    mesh = patch.to_mesh()
    s_norm, _ = second_fundamental_norm(mesh, LIN1)
    assert np.nanmax(s_norm) < 1e-9


def test_sphere_mean_curvature_control():
    mesh = sphere_mesh(radius=1.0)
    h = mean_curvature_residual(mesh, LIN1) \
        + LIN1.dphi(mesh.vertices[:, 2]) * mesh.normals[:, 2]
    # trace convention with outward normals: H = -2/R
    assert np.nanmedian(h) == pytest.approx(-2.0, rel=1e-2)


# -- mesh kernels against per-edge and per-vertex references -----------------


def closed_sphere_mesh(n=400):
    # hull of a Fibonacci lattice: a closed triangulated unit sphere
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    r = np.sqrt(1.0 - z * z)
    t = math.pi * (3.0 - math.sqrt(5.0)) * k
    p = np.column_stack([r * np.cos(t), r * np.sin(t), z])
    return SurfaceMesh(p, ConvexHull(p).simplices, p)


def reference_boundary_mask(mesh):
    edges = np.sort(np.concatenate([mesh.faces[:, [0, 1]],
                                    mesh.faces[:, [1, 2]],
                                    mesh.faces[:, [2, 0]]]), axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    mask = np.zeros(mesh.n_vertices, dtype=bool)
    mask[uniq[counts == 1].ravel()] = True
    return mask


def reference_cotangent_curvature(mesh):
    """The cotangent formula on rows of coordinates, scattered by 2-D
    np.add.at one corner at a time."""
    p, f, n = mesh.vertices, mesh.faces, mesh.n_vertices
    vec = np.zeros((n, 3))
    area = np.zeros(n)
    tri = p[f]
    for corner in range(3):
        i = f[:, corner]
        j = f[:, (corner + 1) % 3]
        k = f[:, (corner + 2) % 3]
        e1 = p[j] - p[i]
        e2 = p[k] - p[i]
        denom = np.linalg.norm(np.cross(e1, e2), axis=1)
        denom = np.where(denom < 1e-300, 1e-300, denom)
        cot = (e1 * e2).sum(axis=1) / denom
        d = p[k] - p[j]
        np.add.at(vec, j, 0.5 * cot[:, None] * d)
        np.add.at(vec, k, -0.5 * cot[:, None] * d)
    e1 = tri[:, 1] - tri[:, 0]
    e2 = tri[:, 2] - tri[:, 0]
    a = 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)
    for corner in range(3):
        np.add.at(area, f[:, corner], a / 3.0)
    area = np.where(area < 1e-300, 1e-300, area)
    return vec / area[:, None]


def reference_second_fundamental_norm(mesh):
    """One np.linalg.lstsq quadric fit per vertex over its two-ring."""
    nbr = [set() for _ in range(mesh.n_vertices)]
    for a, b, c in mesh.faces:
        nbr[a].update((b, c))
        nbr[b].update((a, c))
        nbr[c].update((a, b))
    boundary = reference_boundary_mask(mesh)
    out = np.full(mesh.n_vertices, math.nan)
    for i in np.flatnonzero(~boundary):
        ring = set(nbr[i]).union(*(nbr[j] for j in nbr[i])) - {i}
        if len(ring) < 5:
            continue
        nrm = mesh.normals[i]
        t1 = np.cross(nrm, [1.0, 0.0, 0.0])
        if np.linalg.norm(t1) < 1e-6:
            t1 = np.cross(nrm, [0.0, 1.0, 0.0])
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(nrm, t1)
        d = mesh.vertices[sorted(ring)] - mesh.vertices[i]
        xi, eta, zeta = d @ t1, d @ t2, d @ nrm
        A = np.column_stack([0.5 * xi ** 2, xi * eta, 0.5 * eta ** 2, xi,
                             eta])
        a, b, c, dd, ee = np.linalg.lstsq(A, zeta, rcond=None)[0]
        I = np.array([[1 + dd * dd, dd * ee], [dd * ee, 1 + ee * ee]])
        II = np.array([[a, b], [b, c]]) / math.sqrt(1 + dd * dd + ee * ee)
        S = np.linalg.solve(I, II)
        out[i] = math.sqrt((S * S).sum())
    return out


def three_page_book():
    # edge (0, 1) is shared by three faces; every other edge by one
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1.0, 0.0],
                      [0.5, -1.0, 0.0], [0.5, 0.0, 1.0]])
    normals = np.repeat([[0.0, 0.0, 1.0]], 5, axis=0)
    return SurfaceMesh(verts, np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]]),
                       normals)


def test_boundary_mask_matches_row_unique():
    sphere = closed_sphere_mesh()
    doubled = SurfaceMesh(sphere.vertices,
                          np.concatenate([sphere.faces, sphere.faces[:1]]),
                          sphere.normals)
    strip = extrude_cylinder(solve_catenary(LIN1, 0.0, 0.5, n_samples=41),
                             (0.0, 0.1), 2)
    n = 31
    x = np.linspace(-1, 1, n)
    grid = GraphPatch(x, x[:21], np.outer(x, x[:21]) ** 2).to_mesh()
    bowl = revolve(solve_bowl(LIN1, 0.0, 2.0, n_samples=41), 16)
    assert bowl.meta["has_apex"]
    for mesh in (sphere, doubled, strip, grid, bowl, three_page_book()):
        assert np.array_equal(mesh.boundary_mask(),
                              reference_boundary_mask(mesh))
    assert not sphere.boundary_mask().any()
    # the edges of the doubled face are shared by three faces, not one
    assert not doubled.boundary_mask().any()
    assert strip.boundary_mask().all()
    assert grid.boundary_mask().sum() == 2 * (n + 21) - 4
    assert bowl.boundary_mask().sum() == 16


def degenerate_mesh():
    # face 1 repeats a vertex and face 2 is collinear: both have zero area,
    # so vertex 4 (only on face 2) and vertex 5 (on no face) have zero area
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                      [1.0, 1.0, 0.5], [2.0, 2.0, 1.0], [5.0, 5.0, 5.0]])
    normals = np.repeat([[0.0, 0.0, 1.0]], 6, axis=0)
    return SurfaceMesh(verts, np.array([[0, 1, 2], [1, 1, 2], [0, 3, 4],
                                        [1, 3, 2]]), normals)


@pytest.mark.parametrize("mesh", [
    GraphPatch(np.linspace(-1, 1, 31), np.linspace(-0.7, 0.7, 21),
               np.outer(np.linspace(-1, 1, 31),
                        np.linspace(-0.7, 0.7, 21)) ** 2).to_mesh(),
    revolve(solve_bowl(LIN1, 0.0, 2.0, n_samples=41), 16),
    tilt_cylinder(solve_catenary(LIN1, 0.0, 1.2, n_samples=61), math.pi / 5,
                  (-0.8, 0.8), 21),
    closed_sphere_mesh(),
    degenerate_mesh(),
], ids=["grid", "apex-fan", "tilted-cylinder", "sphere", "degenerate"])
def test_cotangent_curvature_matches_row_scatter(mesh):
    got = surfaces._cotangent_curvature(mesh)
    want = reference_cotangent_curvature(mesh)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def test_degenerate_mesh_hits_both_clamps():
    mesh = degenerate_mesh()
    cross = np.cross(mesh.vertices[mesh.faces[:, 1]]
                     - mesh.vertices[mesh.faces[:, 0]],
                     mesh.vertices[mesh.faces[:, 2]]
                     - mesh.vertices[mesh.faces[:, 0]])
    assert (np.linalg.norm(cross, axis=1) == 0.0).sum() == 2
    assert not np.isin([4, 5], mesh.faces[[0, 1, 3]]).any()
    # without either clamp a division by zero leaves inf or NaN
    assert np.isfinite(surfaces._cotangent_curvature(mesh)).all()


@pytest.mark.parametrize("mesh", [
    closed_sphere_mesh(),
    sphere_mesh(radius=2.0, n_s=20, nt=24),
    tilt_cylinder(solve_catenary(LIN1, 0.0, 1.2, n_samples=61), math.pi / 4,
                  (-0.8, 0.8), 21),
], ids=["closed-sphere", "sphere-band", "tilted-cylinder"])
def test_batched_fit_matches_per_vertex_lstsq(mesh):
    s_norm, _ = second_fundamental_norm(mesh, LIN1)
    want = reference_second_fundamental_norm(mesh)
    assert np.array_equal(np.isnan(s_norm), np.isnan(want))
    good = ~np.isnan(want)
    assert good.sum() > 0.8 * mesh.n_vertices
    assert np.max(np.abs(s_norm[good] - want[good]) / want[good]) < 1e-10


# -- tilted cylinders ---------------------------------------------------------


def test_tilt_zero_is_identity():
    curve = solve_catenary(LIN1, 0.0, 1.0, tol=1e-10, n_samples=101)
    base = extrude_cylinder(curve, (-1.0, 1.0), 100)
    tilted = tilt_cylinder(curve, 0.0, (-1.0, 1.0), 100)
    assert np.allclose(base.vertices, tilted.vertices, atol=1e-14)
    assert np.allclose(base.normals, tilted.normals, atol=1e-14)


def test_tilt_mean_curvature_scaling():
    theta = math.pi / 4
    curve = solve_catenary(LIN1, 0.0, 1.2, tol=1e-11, n_samples=201)
    base = extrude_cylinder(curve, (-0.8, 0.8), 161)
    tilted = tilt_cylinder(curve, theta, (-0.8, 0.8), 161)
    hvec_b = mean_curvature_residual(base, LIN1) \
        + LIN1.dphi(base.vertices[:, 2]) * base.normals[:, 2]
    hvec_t = mean_curvature_residual(tilted, LIN1) \
        + LIN1.dphi(tilted.vertices[:, 2]) * tilted.normals[:, 2]
    good = ~(np.isnan(hvec_b) | np.isnan(hvec_t))
    ratio = hvec_t[good] / hvec_b[good]
    assert np.max(np.abs(ratio - math.cos(theta))) < 0.02 * math.cos(theta)


def test_tilted_reaper_still_solves_equation():
    theta = math.pi / 4
    curve = solve_catenary(LIN1, 0.0, 1.2, tol=1e-11, n_samples=201)
    tilted = tilt_cylinder(curve, theta, (-0.8, 0.8), 161)
    res = mean_curvature_residual(tilted, LIN1)
    assert np.nanmax(np.abs(res)) < 2e-3


def test_tilt_rejects_bad_angle():
    curve = solve_catenary(LIN1, 0.0, 0.5, tol=1e-9, n_samples=41)
    with pytest.raises(ValueError):
        tilt_cylinder(curve, math.pi / 2)


# -- mesh validation and export ----------------------------------------------


def test_mesh_validates_normals():
    verts = np.zeros((3, 3))
    faces = np.array([[0, 1, 2]])
    with pytest.raises(ValueError):
        SurfaceMesh(verts, faces, np.full((3, 3), 0.5))


def test_mesh_validates_lorentz_normals():
    verts = np.zeros((3, 3))
    faces = np.array([[0, 1, 2]])
    n = np.repeat(np.array([[0.6, 0.0, math.sqrt(1.36)]]), 3, axis=0)
    mesh = SurfaceMesh(verts, faces, n, signature=LORENTZIAN)
    assert mesh.signature == LORENTZIAN
    with pytest.raises(ValueError):
        SurfaceMesh(verts, faces, np.repeat([[0.0, 0.0, 1.0]], 3, axis=0),
                    signature="other")


_COEF = st.floats(-10.0, 10.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coef=st.tuples(_COEF, _COEF, _COEF, _COEF, _COEF),
       nx=st.integers(2, 12), ny=st.integers(2, 12),
       hx=st.floats(1e-3, 1.0), hy=st.floats(1e-3, 1.0),
       x0=st.floats(-2.0, 2.0), y0=st.floats(-2.0, 2.0), data=st.data())
def test_staircase_integrates_an_exact_gradient(coef, nx, ny, hx, hy, x0, y0,
                                                 data):
    # f = a x^2 + b x y + c y^2 + d x + e y has a gradient that is linear
    # along every grid line, where the trapezoid rule is exact: both routes
    # are the potential f - f(node) up to rounding
    a, b, c, d, e = coef
    x = x0 + hx * np.arange(nx)
    y = y0 + hy * np.arange(ny)
    X, Y = np.meshgrid(x, y, indexing="ij")
    f = a * X ** 2 + b * X * Y + c * Y ** 2 + d * X + e * Y
    i0 = data.draw(st.integers(0, nx - 1))
    j0 = data.draw(st.integers(0, ny - 1))
    route_a, route_b = staircase(2 * a * X + b * Y + d, b * X + 2 * c * Y + e,
                                 hx, hy, i0, j0)
    want = f - f[i0, j0]
    atol = 1e-13 * (nx + ny) * (1.0 + np.abs(f).max())
    np.testing.assert_allclose(route_a, route_b, rtol=0, atol=atol)
    np.testing.assert_allclose(route_a, want, rtol=0, atol=atol)
    np.testing.assert_allclose(route_b, want, rtol=0, atol=atol)
    assert route_a[i0, j0] == route_b[i0, j0] == 0.0


def test_obj_ply_export(tmp_path):
    curve = solve_catenary(LIN1, 0.0, 0.6, tol=1e-9, n_samples=31)
    mesh = extrude_cylinder(curve, (0.0, 0.5), 11)
    obj = tmp_path / "m.obj"
    ply = tmp_path / "m.ply"
    save_obj(mesh, obj, comments=["config_sha256: abc"])
    save_ply(mesh, ply, comments=["config_sha256: abc"])
    obj_text = obj.read_text()
    assert obj_text.count("\nv ") + obj_text.startswith("v ") \
        == mesh.n_vertices
    assert "# signature: euclidean" in obj_text
    assert "config_sha256: abc" in obj_text
    ply_lines = ply.read_text().splitlines()
    assert ply_lines[0] == "ply"
    assert f"element vertex {mesh.n_vertices}" in ply_lines
    # determinism: a second write is byte-identical
    obj2 = tmp_path / "m2.obj"
    save_obj(mesh, obj2, comments=["config_sha256: abc"])
    assert obj.read_bytes() == obj2.read_bytes()


def test_obj_face_rows_across_digit_groups(tmp_path):
    n = 10002
    verts = np.column_stack([np.arange(n, dtype=float), np.zeros(n),
                             np.zeros(n)])
    normals = np.repeat([[0.0, 0.0, 1.0]], n, axis=0)
    # one-based indices 9999, 10000, 10001 and 10002 meet small ones
    faces = np.array([[9998, 9999, 10000], [10000, 10001, 0], [0, 1, 9998],
                      [5, 9999, 10001], [9, 99, 999]])
    save_obj(SurfaceMesh(verts, faces, normals), tmp_path / "m.obj")
    text = (tmp_path / "m.obj").read_text()
    rows = np.repeat(faces + 1, 2, axis=1).tolist()
    assert text[text.index("\nf ") + 1:] == "".join(
        "f %d//%d %d//%d %d//%d\n" % tuple(row) for row in rows)


def test_cylinder_patch_matches_curve():
    curve = solve_catenary(LIN1, 0.0, 1.3, tol=1e-11, n_samples=401)
    patch = cylinder_patch(curve, 1.0, 0.5, 81, 41)
    assert np.allclose(patch.u[:, 0], -np.log(np.cos(patch.x)), atol=1e-8)
    with pytest.raises(ValueError):
        cylinder_patch(curve, 2.0, 0.5, 11, 11)


# ---------------------------------------------------------------------------
# artifact number text: write_rows against Python's % on the row template
# ---------------------------------------------------------------------------

def _written(rows, **kwargs):
    fh = io.StringIO()
    write_rows(fh, rows, **kwargs)
    return fh.getvalue()


def _percent(rows, sep=",", prefix="", cell="%.16e"):
    rows = np.atleast_2d(rows)
    line = prefix + sep.join([cell] * (rows.shape[1] // cell.count("%")))
    return (line + "\n") * len(rows) % tuple(rows.ravel().tolist())


def _rows_of(values, ncols):
    values = np.asarray(values, dtype=float)
    return np.resize(values, (-(-len(values) // ncols), ncols))


_BITS = st.integers(0, 2 ** 64 - 1).map(
    lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(values=st.lists(_BITS | st.floats() | st.floats(-1e3, 1e3),
                       min_size=1, max_size=60),
       ncols=st.sampled_from([1, 3, 4, 6]),
       sep=st.sampled_from([",", " "]),
       prefix=st.sampled_from(["", "v ", "vn "]))
def test_write_rows_matches_percent_on_drawn_values(values, ncols, sep,
                                                    prefix):
    rows = _rows_of(values, ncols)
    assert _written(rows, sep=sep, prefix=prefix) \
        == _percent(rows, sep=sep, prefix=prefix)


def _longdouble_halves(n=6000):
    """Normal draws whose 17-digit scaling in long double lands exactly on
    one half, with a flag for those whose exact fraction is not one half
    (there long double and exact rounding may disagree)."""
    x = np.abs(np.random.default_rng(7).standard_normal(n))
    d = np.floor(np.log10(x)).astype(int)
    s = x.astype(np.longdouble) * (10.0 ** (16 - d)).astype(np.longdouble)
    low = s < 1e16
    d[low] -= 1
    s[low] = x[low].astype(np.longdouble) * (10.0 ** (16 - d[low])
                                             ).astype(np.longdouble)
    half = np.abs(s - np.rint(s)) == 0.5
    exact = [Fraction(float(v)) * Fraction(10) ** int(16 - k) % 1
             for v, k in zip(x[half], d[half])]
    return x[half], [f != Fraction(1, 2) for f in exact]


def test_write_rows_matches_percent_on_hard_cases():
    powers = [10.0 ** k for k in range(-30, 31)]
    hard = [np.nextafter(p, toward) for p in powers
            for toward in (0.0, math.inf)] + powers
    halves, inexact = _longdouble_halves()
    if np.finfo(np.longdouble).nmant >= 63:
        assert any(inexact)  # long double rounding differs from exact here
    # 18 significant digits ending in 5: exact ties, rounded half to even
    ties = [2.0 ** -25, 3 * 2.0 ** -25, 3 * 2.0 ** -24, 5 * 2.0 ** -24]
    special = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
               5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1e-7]
    # exponents at the +-27 scaling boundary and with three digits
    boundary = [1.2345e-11, 9.999e-12, 1e-11, 1e-12, 1.5e43, 9.99e43,
                1e43, 1e44, 1e-100, 1e100, 1e-300, 1e300, 2.5e-310]
    values = np.array(hard + list(halves) + ties + special + boundary)
    values = np.concatenate([values, -values])
    for ncols in (1, 3, 4, 6):
        rows = _rows_of(values, ncols)
        for sep, prefix in ((",", ""), (" ", "v "), (" ", "vn ")):
            assert _written(rows, sep=sep, prefix=prefix) \
                == _percent(rows, sep=sep, prefix=prefix)
    assert "%.16e" % 1e-7 == "9.9999999999999995e-08"
    assert _written([1e-7]) == "9.9999999999999995e-08\n"


def test_write_rows_matches_percent_across_blocks():
    # more rows than one block, normal data with exact zeros mixed in
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((2 * surfaces._CHUNK_ROWS + 5, 3))
    rows[rng.random(rows.shape) < 0.1] = 0.0
    rows[7, 1] = 1e-30  # one row left to %
    # and magnitudes over every exponent the array code prints
    spread = 10.0 ** rng.uniform(-12, 45, (10000, 3)) * rng.choice([-1, 1],
                                                                  (10000, 3))
    for sep, prefix in ((",", ""), (" ", "v ")):
        for block in (rows, spread):
            assert _written(block, sep=sep, prefix=prefix) \
                == _percent(block, sep=sep, prefix=prefix)


def test_write_rows_matches_percent_on_integers():
    big = np.iinfo(np.int64).max
    ints = np.array([[0, 1, 9], [9999, 10000, 10001], [10 ** 9 - 1, 10 ** 9,
                     10 ** 9 + 7], [123456789012, 2 ** 40, big],
                     [-1, 0, -(10 ** 12)], [5, 0, 0]], dtype=np.int64)
    rng = np.random.default_rng(5)
    drawn = rng.integers(0, 2 ** 62, (500, 3)) // rng.integers(
        1, 10 ** 15, (500, 3))
    for rows in (ints, drawn, ints.astype(np.int32)[[0, 1, 5]]):
        for sep, prefix in ((",", ""), (" ", "3 ")):
            assert _written(rows, sep=sep, prefix=prefix, cell="%d") \
                == _percent(rows, sep=sep, prefix=prefix, cell="%d")
        pairs = np.repeat(rows, 2, axis=1)
        assert _written(pairs, sep=" ", prefix="f ", cell="%d//%d") \
            == _percent(pairs, sep=" ", prefix="f ", cell="%d//%d")


def test_write_rows_repeats_only_a_bitwise_equal_column():
    # 0.0 and -0.0 compare equal but print differently
    rows = np.array([[0.0, -0.0, -0.0], [1.5, 1.5, 1.5]])
    assert _written(rows) == _percent(rows)
    rows[1] = math.nan
    assert _written(rows, sep="//") == _percent(rows, sep="//")
    ints = np.array([[7, 7, 70], [-3, -3, 3], [10 ** 4, 10 ** 4, 9]])
    assert _written(ints, cell="%d") == _percent(ints, cell="%d")


def test_write_rows_without_long_double_scaling(monkeypatch):
    # where long double has fewer than 64 significand bits every float row
    # goes through %; the bytes are the same
    rows = np.array([[0.5, -2.25, 1e-7], [1e-30, 3.0, -0.0],
                     [math.nan, 1.0, 2.0 ** -25], [6.02e23, -1e-3, 7.0]])
    expected = _percent(rows, sep=" ", prefix="v ")
    assert _written(rows, sep=" ", prefix="v ") == expected
    monkeypatch.setattr(surfaces, "_EXACT_SCALING", False)

    def no_array_floats(x, out):
        raise AssertionError("array code ran without the long double gate")
    monkeypatch.setattr(surfaces, "_float_text", no_array_floats)
    assert _written(rows, sep=" ", prefix="v ") == expected
    assert _written(rows[:, :2]) == _percent(rows[:, :2])


# ---------------------------------------------------------------------------
# artifact number text: read_table against np.loadtxt on the same body
# ---------------------------------------------------------------------------

def reference_read_table(path):
    """The reader before array code: header lines from a text handle, then
    np.loadtxt on the rest of it."""
    meta = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            stripped = line.strip()
            if not stripped.startswith("#"):
                colnames = stripped
                break
            body = stripped.lstrip("#").strip()
            if "=" in body:
                key, val = body.split("=", 1)
                meta[key.strip()] = val.strip()
        else:
            raise ValueError(f"{path} holds no data rows")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except Exception as exc:
            raise ValueError(f"{path} is not a readable CSV table: {exc}"
                             ) from exc
    if data.size == 0:
        raise ValueError(f"{path} holds no data rows")
    width = len(colnames.split(","))
    if data.shape[1] != width:
        raise ValueError(f"{path} has rows of {data.shape[1]} values under "
                         f"the {width} columns {colnames!r}")
    return meta, colnames, data


_HEAD = "# artifact = test\n# shape = 1 2\n"


def _read_back(body):
    """read_table of a table with ``body`` (text, or the rows to write with
    write_rows), and np.loadtxt of the same body."""
    if not isinstance(body, str):
        body = _written(body)
    cols = ",".join("c%d" % j for j in range(body.split("\n")[0]
                                             .count(",") + 1))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/table.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(_HEAD + cols + "\n" + body)
        got = read_table(path)
    assert got[0] == {"artifact": "test", "shape": "1 2"}
    assert got[1] == cols
    return got[2], np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)


def _cells_read(monkeypatch):
    """Count the blocks the array reader parses."""
    calls, real = [], surfaces._float_cells

    def counting(buf, ncols):
        calls.append(real(buf, ncols) is not None)
        return real(buf, ncols)
    monkeypatch.setattr(surfaces, "_float_cells", counting)
    return calls


def _no_array_cells(buf, ncols):
    raise AssertionError("array code ran without the long double gate")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(values=st.lists(_BITS | st.floats() | st.floats(-1e3, 1e3),
                       min_size=1, max_size=60),
       ncols=st.sampled_from([1, 3, 4, 6]))
def test_read_table_matches_loadtxt_on_drawn_values(values, ncols):
    rows = _rows_of(values, ncols)
    fh = io.StringIO()
    np.savetxt(fh, rows, fmt="%.16e", delimiter=",")
    for body in (rows, fh.getvalue()):
        got, want = _read_back(body)
        assert got.tobytes() == want.tobytes()
        # where long double has fewer than 64 significand bits every body
        # goes to np.loadtxt; the arrays are the same
        with mock.patch.object(surfaces, "_EXACT_SCALING", False), \
                mock.patch.object(surfaces, "_float_cells", _no_array_cells):
            assert _read_back(body)[0].tobytes() == want.tobytes()


def _longdouble_midpoints(x, n=200000):
    """%.16e cells with exponent ``x`` whose 17-digit integer scaled in long
    double lands exactly halfway between two doubles, with a flag for those
    whose exact value rounds otherwise than that midpoint."""
    q = np.random.default_rng(11 + x).integers(10 ** 16, 10 ** 17, n)
    k = x - 16
    p = surfaces._POW10[abs(k)]
    r = q.astype(np.longdouble) * p if k >= 0 else q.astype(np.longdouble) / p
    v = r.astype(np.float64)
    side = np.nextafter(v, np.where(r > v, math.inf, -math.inf))
    half = 2 * r == v + side.astype(np.longdouble)
    cells = ["%d.%016de%+03d" % (a // 10 ** 16, a % 10 ** 16, x)
             for a in q[half].tolist()]
    return cells, [float(c) != u for c, u in zip(cells, v[half].tolist())]


def test_read_table_matches_loadtxt_on_hard_cases(monkeypatch):
    powers = [10.0 ** k for k in range(-30, 31)]
    hard = [np.nextafter(p, toward) for p in powers
            for toward in (0.0, math.inf)] + powers
    halves, _ = _longdouble_halves()
    ties = [2.0 ** -25, 3 * 2.0 ** -25, 3 * 2.0 ** -24, 5 * 2.0 ** -24]
    special = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
               5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1e-7]
    # the +-27 scaling boundary: exponents -12/-11 and 43/44
    boundary = [1.2345e-11, 9.999e-12, 1e-11, 1e-12, 9.999999999999999e-12,
                1.5e43, 9.99e43, 1e43, 1e44, 9.999999999999999e43,
                1e-100, 1e100, 1e-300, 1e300, 2.5e-310]
    values = np.array(hard + list(halves) + ties + special + boundary)
    values = np.concatenate([values, -values])
    for ncols in (1, 3, 4, 6):
        rows = _rows_of(values, ncols)
        got, want = _read_back(rows)
        assert got.tobytes() == want.tobytes()
    # cells with two-digit exponents only, so the array reader takes them
    a = np.abs(values)
    finite = _rows_of(values[(a == 0) | (a >= 1e-99) & (a < 1e100)], 3)
    calls = _cells_read(monkeypatch)
    got, want = _read_back(finite)
    assert got.tobytes() == want.tobytes() == finite.tobytes()
    assert calls == [True]
    # cells whose long double value is a double midpoint, written by hand
    calls.clear()
    for x in (-7, 0, 5, 30):
        cells, inexact = _longdouble_midpoints(x)
        if np.finfo(np.longdouble).nmant >= 63:
            assert len(cells) > 20 and any(inexact)
        cells = cells + ["-" + c for c in cells]
        got, want = _read_back("".join(f"{c},1.0000000000000000e+00\n"
                                       for c in cells))
        assert got.tobytes() == want.tobytes()
    assert all(calls)


def test_read_table_matches_loadtxt_across_blocks(monkeypatch):
    # rows of mixed widths (signs), so that blocks end inside a row
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((3 * surfaces._CHUNK_ROWS + 7, 4))
    rows[rng.random(rows.shape) < 0.1] = 0.0
    rows[5, 2] = 1e-30  # one cell read by float()
    spread = 10.0 ** rng.uniform(-12, 45, (10000, 3)) * rng.choice([-1, 1],
                                                                  (10000, 3))
    calls = _cells_read(monkeypatch)
    for block in (rows, spread):
        text = _written(block)
        # and without the last newline
        for body in (text, text[:-1]):
            calls.clear()
            got, want = _read_back(body)
            assert got.tobytes() == want.tobytes() == block.tobytes()
            assert len(calls) > 1 and all(calls)


_FAST = "1.0000000000000000e+00,-2.5000000000000000e-01\n" * 3
_TABLES = {
    "crlf": (_HEAD + "a,b\n" + _FAST).replace("\n", "\r\n").encode(),
    "lone cr": (_HEAD + "a,b\n" + _FAST).replace("\n", "\r").encode(),
    "cr in the body": (_HEAD + "a,b\n" + _FAST.replace("\n", "\r", 1)
                       ).encode(),
    "spaces": (_HEAD + "a,b\n" + _FAST.replace(",", ", ")).encode(),
    "faces": (_HEAD + "i,j,k\n" + "1,2,3\n40,50,60\n").encode(),
    "nan and inf": (_HEAD + "a,b\n" + _FAST + "nan,-inf\n").encode(),
    "three-digit exponent": (_HEAD + "a,b\n" + _FAST
                             + "1.0000000000000000e+300,0\n").encode(),
    "upper-case exponent": (_HEAD + "a,b\n" + _FAST.upper()).encode(),
    "no last newline": (_HEAD + "a,b\n" + _FAST[:-1]).encode(),
    "blank last line": (_HEAD + "a,b\n" + _FAST + "\n").encode(),
    "ragged": (_HEAD + "a,b\n" + _FAST
               + "1.0000000000000000e+00\n").encode(),
    "narrow": (_HEAD + "a,b,c\n" + _FAST).encode(),
    "non-numeric": (_HEAD + "a,b\n" + _FAST + "x,1\n").encode(),
    "header only": (_HEAD + "a,b\n").encode(),
    # 10^10 cells by the first row's width and the count of lines
    "many empty cells": (_HEAD + "a,b\n" + "," * 10 ** 5 + "\n" * 10 ** 5
                         ).encode(),
    "no column line": _HEAD.encode(),
    "empty": b"",
    "plus sign": (_HEAD + "a,b\n" + "+" + _FAST).encode(),
    "two short rows": (_HEAD + "a,b\n" + _FAST
                       + "1.0000000000000000e+00\n" * 2).encode(),
    "a long row, then a short one": (_HEAD + "a,b\n" + _FAST + _FAST[:23]
                                     + _FAST[:-1] + "\n" + _FAST[:22] + "\n"
                                     ).encode(),
    "colon among the digits": (_HEAD + "a,b\n" + _FAST.replace(
        "e-01\n", "e-01\n1.00000000000:0000e+00,1e+00\n", 1)).encode(),
    "comma for the point": (_HEAD + "a,b\n" + _FAST.replace(
        "1.", "1,", 1)).encode(),
    "letter for the point": (_HEAD + "a,b\n" + _FAST.replace(
        "1.", "1x", 1)).encode(),
    "comma for the exponent sign": (_HEAD + "a,b\n" + _FAST[:47]
                                    + _FAST[47:].replace("e+", "e,", 1)
                                    ).encode(),
    "point in the exponent": (_HEAD + "a,b\n" + _FAST.replace(
        "e+00", "e+0.")).encode(),
    "bad utf-8 in the header": b"# k = \xff\n" + (_HEAD + "a,b\n"
                                                 + _FAST).encode(),
    "bad utf-8 in the body": (_HEAD + "a,b\n" + _FAST).encode()
    + b"\xfe,1\n",
    "bad utf-8 far in the body": (_HEAD + "a,b\n" + _FAST * 2000).encode()
    + b"1.0000000000000000e+0\xc3,1\n",
}


@pytest.mark.filterwarnings("ignore:loadtxt:UserWarning")
@pytest.mark.parametrize("name", sorted(_TABLES))
def test_read_table_falls_back_as_loadtxt_reads(name, tmp_path):
    path = tmp_path / "table.csv"
    path.write_bytes(_TABLES[name])
    outcomes = []
    for read in (reference_read_table, read_table):
        try:
            meta, cols, data = read(path)
            outcomes.append((meta, cols, data.shape, data.tobytes()))
        except ValueError as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]
