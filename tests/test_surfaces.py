import io
import math
import tempfile
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import cumulative_trapezoid

from phimin import calabi, make_builtin, surfaces
from phimin.calabi import PotentialPatch
from phimin.solvers import ProfileCurve, solve_bowl, solve_catenary, solve_catenoid
from phimin.surfaces import (
    EUCLIDEAN,
    LORENTZIAN,
    GraphPatch,
    SurfaceMesh,
    curvature_from_derivatives,
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
    trapezoid_primitive,
    write_rows,
)
from phimin.weierstrass import GaussField, integrate_representation

from graph_meshes import graph_mesh

LIN1 = make_builtin("linear", 1.0)


def reaper_patch(n=121, half=1.0):
    x = np.linspace(-half, half, n)
    y = np.linspace(-half, half, n)
    u = np.repeat(-np.log(np.cos(x))[:, None], n, axis=1)
    return GraphPatch(x, y, u)


def sphere_mesh(radius=1.0, n_s=60, nt=80, s0=0.35):
    # s0 = 0 starts at the north pole, which becomes the apex
    s = np.linspace(s0, math.pi - 0.35, n_s)
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


# every node drawn on its own (no repeated fill), mostly of moderate size
_NODE = {np.float64: st.floats(-1e3, 1e3) | st.floats(),
         np.complex128: st.complex_numbers(max_magnitude=1e3)
         | st.complex_numbers()}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(u=st.tuples(st.sampled_from(sorted(_NODE, key=str)),
                   st.integers(3, 9), st.integers(3, 9),
                   st.sampled_from([(), (3,)])).flatmap(
           lambda d: hnp.arrays(d[0], d[1:3] + d[3], elements=_NODE[d[0]],
                                fill=st.nothing())),
       hx=st.floats(1e-6, 1e6), hy=st.floats(1e-6, 1e6))
def test_interior_gradient_is_the_interior_of_np_gradient(u, hx, hy):
    # the one interior stencil is, bit for bit, the rows np.gradient keeps
    # between its one-sided border rows, on grids and on stacked points
    with np.errstate(all="ignore"):
        c, ux, uy = surfaces._interior_gradient(u, hx, hy)
        gx = np.gradient(u, hx, axis=0, edge_order=2)[1:-1, 1:-1]
        gy = np.gradient(u, hy, axis=1, edge_order=2)[1:-1, 1:-1]
    assert c.tobytes() == u[1:-1, 1:-1].tobytes()
    assert ux.dtype == uy.dtype == u.dtype
    assert ux.tobytes() == gx.tobytes()
    assert uy.tobytes() == gy.tobytes()


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


def reference_curvature_from_derivatives(signature, ux, uy, uxx, uyy, uxy):
    """The graph curvatures with each signature's formula written apart."""
    det = uxx * uyy - uxy ** 2
    if signature == EUCLIDEAN:
        w2 = 1.0 + ux ** 2 + uy ** 2
        num = (1.0 + uy ** 2) * uxx + (1.0 + ux ** 2) * uyy \
            - 2.0 * ux * uy * uxy
        return -num / w2 ** 1.5, det / w2 ** 2
    w2 = 1.0 - ux ** 2 - uy ** 2
    num = (1.0 - uy ** 2) * uxx + (1.0 - ux ** 2) * uyy \
        + 2.0 * ux * uy * uxy
    return num / w2 ** 1.5, -det / w2 ** 2


def _ulps(value, k):
    """``value`` moved by k units in the last place."""
    for _ in range(abs(k)):
        value = np.nextafter(value, math.copysign(math.inf, k))
    return float(value)


# finite values below 1e100 overflow no product of the formulas: a NaN from
# inf - inf would take its sign bit from a negation in one form and keep it
# under a product by -1.0 in the other (no artifact prints that bit)
_VALUE = st.floats(-1e100, 1e100) | st.sampled_from([0.0, -0.0])
# slope pairs within a few ulps of |grad u| = 1
_NEAR_NULL = st.builds(
    lambda t, i, j, sx, sy: (sx * _ulps(math.cos(t), i),
                             sy * _ulps(math.sin(t), j)),
    st.floats(0.0, math.pi / 2), st.integers(-4, 4), st.integers(-4, 4),
    st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, -1.0]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(slopes=st.lists(st.tuples(_VALUE, _VALUE) | _NEAR_NULL, min_size=1,
                      max_size=20), data=st.data())
def test_curvatures_keep_each_signatures_bits(slopes, data):
    # the formula in s is, bit for bit, the two formulas it replaced
    ux, uy = np.array(slopes).T
    second = data.draw(hnp.arrays(np.float64, (3, len(slopes)),
                                  elements=_VALUE))
    for signature in (EUCLIDEAN, LORENTZIAN):
        with np.errstate(all="ignore"):
            got = curvature_from_derivatives(signature, ux, uy, *second)
            want = reference_curvature_from_derivatives(signature, ux, uy,
                                                        *second)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


@st.composite
def _plane_heights(draw):
    """Unit-grid heights of a plane, its slopes up to 4 or near |grad u|
    = 1, plus a drawn (possibly zero) perturbation."""
    n, m = draw(st.integers(3, 7)), draw(st.integers(3, 7))
    sx, sy = draw(st.tuples(st.floats(-4, 4), st.floats(-4, 4)) | _NEAR_NULL)
    scale = draw(st.sampled_from([0.0, 1e-12, 0.3]))
    noise = draw(hnp.arrays(np.float64, (n, m), elements=st.floats(-1, 1)))
    return (sx * np.arange(n)[:, None] + sy * np.arange(m)[None, :]
            + scale * noise)


def _unit_grid(u):
    return np.arange(u.shape[0], dtype=float), np.arange(u.shape[1],
                                                         dtype=float)


def reference_hessian_fields(patch, profile):
    """The potential's Hessian fields (calabi) with each signature's
    formula written apart."""
    profile.require_inside(patch.u, "patch heights")
    ux, uy = patch.gradients()
    weight = np.exp(np.asarray(profile.phi(patch.u), dtype=float))
    if patch.signature == EUCLIDEAN:
        w = np.sqrt(1.0 + ux ** 2 + uy ** 2)
        return (weight * (1.0 + ux ** 2) / w, weight * ux * uy / w,
                weight * (1.0 + uy ** 2) / w)
    w2 = 1.0 - ux ** 2 - uy ** 2
    if np.any(w2 <= 0.0):
        raise ValueError("patch is not spacelike up to the border")
    w = np.sqrt(w2)
    return (weight * (1.0 - ux ** 2) / w, -weight * ux * uy / w,
            weight * (1.0 - uy ** 2) / w)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(u=_plane_heights(), slope=st.sampled_from([1.0, -3.0]))
def test_hessian_fields_keep_each_signatures_bits(u, slope):
    x, y = _unit_grid(u)
    profile = make_builtin("linear", slope)
    for signature in (EUCLIDEAN, LORENTZIAN):
        try:
            patch = GraphPatch(x, y, u, signature=signature)
        except ValueError:
            continue  # not spacelike inside
        try:
            want = reference_hessian_fields(patch, profile)
        except ValueError:
            with pytest.raises(ValueError, match="up to the border"):
                calabi._hessian_fields(patch, profile)
            continue
        got = calabi._hessian_fields(patch, profile)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


# |grad u|^2 rounds to 1 while 1 - u_x^2 - u_y^2 stays positive: the parent
# refused these slopes at construction, and lfe_residual accepted them
_DISAGREEING = [(0.5950051226484425, 0.8037219071433301),
                (0.9301406485194196, 0.36720345038122065)]


def _stencil(ux, uy):
    """3x3 unit-grid heights whose one interior stencil reads (ux, uy)."""
    u = np.zeros((3, 3))
    u[2, 1], u[1, 2] = 2.0 * ux, 2.0 * uy
    return u


@settings(max_examples=100, deadline=None, derandomize=True)
@given(u=_plane_heights())
@example(u=_stencil(*_DISAGREEING[0]))
@example(u=_stencil(*_DISAGREEING[1]))
def test_lorentzian_patch_is_refused_where_its_residual_refuses(u):
    # one spacelike expression: construction refuses exactly the heights
    # whose Lorentzian residual refuses them on a Euclidean-signed patch
    x, y = _unit_grid(u)
    try:
        GraphPatch(x, y, u, signature=LORENTZIAN)
        refused = False
    except ValueError:
        refused = True
    euclidean = GraphPatch(x, y, u)
    if refused:
        with pytest.raises(ValueError, match="spacelike"):
            lfe_residual(euclidean, LIN1)
    else:
        lfe_residual(euclidean, LIN1)


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
    rings, nt = mesh.grid
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
    mesh = graph_mesh(x, y, 0.3 * np.repeat(x[:, None], n, axis=1) + 0.1)
    s_norm, _ = second_fundamental_norm(mesh, LIN1)
    assert np.nanmax(s_norm) < 1e-9


def test_sphere_mean_curvature_control():
    mesh = sphere_mesh(radius=1.0)
    h = mean_curvature_residual(mesh, LIN1) \
        + LIN1.dphi(mesh.vertices[:, 2]) * mesh.normals[:, 2]
    # trace convention with outward normals: H = -2/R
    assert np.nanmedian(h) == pytest.approx(-2.0, rel=1e-2)


# -- mesh kernels against per-edge and per-vertex references -----------------


def reference_faces(mesh):
    """The face list as the mesh builders wrote it into one array: a
    grid's (v00, v10, v11) for every cell, then its (v00, v11, v01); a
    revolve's quads (a, b, c, d) = (t, t+1, nt+t, nt+t+1) ring by ring as
    (a, b, d), then (a, d, c); then the fan (apex, t+1, t)."""
    n, m = mesh.grid
    if not mesh.periodic:
        v00 = np.add.outer(np.arange(n - 1) * m, np.arange(m - 1)).ravel()
        return np.concatenate([
            np.column_stack([v00, v00 + m, v00 + m + 1]),
            np.column_stack([v00, v00 + m + 1, v00 + 1])])
    idx = np.arange(m)
    nxt = (idx + 1) % m
    ring = np.concatenate([np.column_stack([idx, nxt, nxt + m]),
                           np.column_stack([idx, nxt + m, idx + m])])
    faces = [ring + r * m for r in range(n - 1)]
    if mesh.apex:
        faces.append(np.column_stack([np.full(m, n * m), nxt, idx]))
    return np.concatenate(faces)


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


def reference_two_rings(mesh):
    """The two-ring of every interior vertex, as sets of the face list."""
    nbr = [set() for _ in range(mesh.n_vertices)]
    for a, b, c in mesh.faces:
        nbr[a].update((b, c))
        nbr[b].update((a, c))
        nbr[c].update((a, b))
    return {i: set(nbr[i]).union(*(nbr[j] for j in nbr[i])) - {i}
            for i in np.flatnonzero(~reference_boundary_mask(mesh))}


def reference_second_fundamental_norm(mesh):
    """One np.linalg.lstsq quadric fit per vertex over its two-ring."""
    out = np.full(mesh.n_vertices, math.nan)
    for i, ring in reference_two_rings(mesh).items():
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
        # where lstsq keeps every singular value of A, the fit is solved
        # with A's columns scaled to unit norm, so that a grid of unequal
        # steps leaves it well conditioned; a rank-deficient A keeps
        # lstsq's minimum-norm fit of A itself (scaling would lift a
        # column of rounding noise that the cutoff drops)
        if np.linalg.matrix_rank(A) == 5:
            scale = np.linalg.norm(A, axis=0)
            fit = np.linalg.lstsq(A / scale, zeta, rcond=None)[0] / scale
        else:
            fit = np.linalg.lstsq(A, zeta, rcond=None)[0]
        a, b, c, dd, ee = fit
        I = np.array([[1 + dd * dd, dd * ee], [dd * ee, 1 + ee * ee]])
        II = np.array([[a, b], [b, c]]) / math.sqrt(1 + dd * dd + ee * ee)
        S = np.linalg.solve(I, II)
        out[i] = math.sqrt((S * S).sum())
    return out


def blocks_bowl_mesh():
    # 25,472 faces in 99 rows of cells: three whole blocks of 32 rows
    # (_CHUNK_ROWS faces each) and part of a fourth, so every block edge
    # of the mesh kernels is crossed
    mesh = revolve(solve_bowl(LIN1, 0.0, 2.0, n_samples=101), 128)
    assert 3 * surfaces._CHUNK_ROWS < mesh.n_faces < 4 * surfaces._CHUNK_ROWS
    return mesh


def blocks_grid_mesh():
    # 2,401 x 9 nodes: each kind of triangle in three blocks of rows, the
    # last one partial
    mesh = extrude_cylinder(solve_catenary(LIN1, 0.0, 1.2, n_samples=1201),
                            (-0.5, 0.5), 9)
    assert 2 < mesh.n_faces / 2 / surfaces._CHUNK_ROWS < 3
    return mesh


def degenerate_mesh():
    # a 3 x 4 grid whose corner node (0, 3) coincides with node (0, 2):
    # the one face on node (0, 3) has zero area, and so has the node
    x, y = np.meshgrid([0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0], indexing="ij")
    verts = np.column_stack([x.ravel(), y.ravel(), 0.1 * (x * y).ravel()])
    verts[3] = verts[2]
    return SurfaceMesh(verts, np.repeat([[0.0, 0.0, 1.0]], 12, axis=0),
                       (3, 4))


def representation_mesh():
    # the grim reaper from its Gauss map G = tanh(u / 2)
    u, v = np.linspace(-1.5, 1.5, 41), np.linspace(-1.0, 1.0, 31)
    return integrate_representation(GaussField(
        u=u, v=v, G=np.tanh(u[:, None] / 2.0) + 0.0j * v[None, :],
        k_param=1.0))


# every kind of structure the builders make: grids (a graph, extruded, the
# two-ruling strip, tilted, several row blocks, the representation, one
# with coincident nodes) and periodic grids with an apex (bowls, a sphere
# from its pole, a single ring) and without one (the round cylinder, the
# sphere band)
MESHES = {
    "grid": graph_mesh(np.linspace(-1, 1, 31), np.linspace(-0.7, 0.7, 21),
                       np.outer(np.linspace(-1, 1, 31),
                                np.linspace(-0.7, 0.7, 21)) ** 2),
    "extruded": extrude_cylinder(solve_catenary(LIN1, 0.0, 1.2, n_samples=61),
                                 (-0.5, 0.5), 17),
    "strip": extrude_cylinder(solve_catenary(LIN1, 0.0, 0.5, n_samples=41),
                              (0.0, 0.1), 2),
    "tilted-cylinder": tilt_cylinder(
        solve_catenary(LIN1, 0.0, 1.2, n_samples=61), math.pi / 5,
        (-0.8, 0.8), 21),
    "grid-blocks": blocks_grid_mesh(),
    "representation": representation_mesh(),
    "degenerate": degenerate_mesh(),
    "apex-fan": revolve(solve_bowl(LIN1, 0.0, 2.0, n_samples=41), 16),
    "four-blocks": blocks_bowl_mesh(),
    "sphere": sphere_mesh(n_s=20, nt=20, s0=0.0),
    "one-ring": revolve(solve_bowl(LIN1, 0.0, 0.1, n_samples=2), 5),
    "round-cylinder": round_cylinder_mesh(),
    "sphere-band": sphere_mesh(n_s=20, nt=24),
}


@pytest.mark.parametrize("mesh", MESHES.values(), ids=MESHES)
def test_faces_follow_the_builders_order(mesh):
    want = reference_faces(mesh)
    assert mesh.faces.dtype == np.int64 and mesh.n_faces == len(want)
    assert np.array_equal(mesh.faces, want)
    blocks = list(mesh.face_blocks())
    assert max(map(len, blocks)) <= surfaces._CHUNK_ROWS
    assert np.array_equal(np.concatenate(blocks), want)


def test_boundary_mask_matches_row_unique():
    for mesh in MESHES.values():
        assert np.array_equal(mesh.boundary_mask(),
                              reference_boundary_mask(mesh))
    n, m = MESHES["grid"].grid
    assert MESHES["grid"].boundary_mask().sum() == 2 * (n + m) - 4
    assert MESHES["strip"].boundary_mask().all()
    assert MESHES["apex-fan"].apex
    assert MESHES["apex-fan"].boundary_mask().sum() == 16
    assert MESHES["four-blocks"].boundary_mask().sum() == 128
    assert MESHES["round-cylinder"].boundary_mask().sum() == 2 * 60
    assert MESHES["sphere"].boundary_mask().sum() == 20
    assert MESHES["one-ring"].grid == (1, 5)
    assert MESHES["one-ring"].boundary_mask().sum() == 5


@pytest.mark.parametrize("mesh", MESHES.values(), ids=MESHES)
def test_cotangent_curvature_matches_row_scatter(mesh):
    got = surfaces._cotangent_curvature(mesh)
    want = reference_cotangent_curvature(mesh)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def test_degenerate_mesh_hits_both_clamps():
    mesh = degenerate_mesh()
    f = mesh.faces
    p = mesh.vertices
    cross = np.cross(p[f[:, 1]] - p[f[:, 0]], p[f[:, 2]] - p[f[:, 0]])
    flat = np.linalg.norm(cross, axis=1) == 0.0
    assert flat.sum() == 1
    # vertex 3 lies on the flat face alone, so its area is zero
    assert 3 in f[flat] and 3 not in f[~flat]
    # without either clamp a division by zero leaves inf or NaN
    assert np.isfinite(surfaces._cotangent_curvature(mesh)).all()


@pytest.mark.parametrize("mesh", [
    MESHES["sphere"],
    sphere_mesh(radius=2.0, n_s=20, nt=24),
    tilt_cylinder(solve_catenary(LIN1, 0.0, 1.2, n_samples=61), math.pi / 4,
                  (-0.8, 0.8), 21),
], ids=["polar-sphere", "sphere-band", "tilted-cylinder"])
def test_batched_fit_matches_per_vertex_lstsq(mesh):
    s_norm, _ = second_fundamental_norm(mesh, LIN1)
    want = reference_second_fundamental_norm(mesh)
    assert np.array_equal(np.isnan(s_norm), np.isnan(want))
    good = ~np.isnan(want)
    assert good.sum() > 0.8 * mesh.n_vertices
    assert np.max(np.abs(s_norm[good] - want[good]) / want[good]) < 1e-10


# meshes at the edges of the two-ring stencil: periodic grids whose columns
# dj = +-2 alias others (m = 3, 4), with and without an apex, a grid of
# three rows, the five-ruling tilt of the benchmark's controls, and an
# apex with two rings of nodes below it
STENCIL_EDGES = {
    "band-m3": sphere_mesh(n_s=8, nt=3),
    "band-m4": sphere_mesh(n_s=8, nt=4),
    "polar-m3": sphere_mesh(n_s=8, nt=3, s0=0.0),
    "polar-m4": sphere_mesh(n_s=8, nt=4, s0=0.0),
    "three-rows": graph_mesh(np.linspace(-1, 1, 3), np.linspace(-1, 1, 41),
                             np.outer([1.0, 0.7, 0.2],
                                      np.linspace(-1, 1, 41)) ** 2),
    "tilt-five-rulings": tilt_cylinder(
        solve_catenary(LIN1, 0.0, 1.45, n_samples=201), math.pi / 4,
        (-2.0, 2.0), 5),
    "apex-two-rings": sphere_mesh(n_s=3, nt=8, s0=0.0),
}


@pytest.mark.parametrize("mesh", STENCIL_EDGES.values(), ids=STENCIL_EDGES)
def test_stencil_fit_matches_per_vertex_lstsq_at_its_edges(mesh):
    s_norm, _ = second_fundamental_norm(mesh, LIN1)
    want = reference_second_fundamental_norm(mesh)
    assert np.array_equal(np.isnan(s_norm), np.isnan(want))
    good = ~np.isnan(want)
    assert good.any()
    assert np.max(np.abs(s_norm[good] - want[good]) / want[good]) < 1e-10


@pytest.mark.parametrize("mesh", [*MESHES.values(), *STENCIL_EDGES.values()],
                         ids=[*MESHES, *STENCIL_EDGES])
def test_stencil_rings_are_the_face_lists_rings(mesh):
    want = reference_two_rings(mesh)
    seen = []
    for vs, ring in surfaces._two_rings(mesh):
        assert ring.shape[1] == len(vs)
        for v, members in zip(vs, ring.T):
            members = members[members != v]
            # each member once: a repeated row would weigh twice in the fit
            assert len(set(members)) == len(members)
            assert set(members) == want[v], v
        seen.extend(vs)
    assert sorted(seen) == sorted(want)


def test_rank_deficient_fit_takes_the_svd(monkeypatch):
    # every node row is the same parabola z = y^2 / 2 along y, with normal
    # e3, so eta = 0 on every two-ring: rank 2, the QR's certificate is not
    # finite, and the SVD gives lstsq's minimum-norm fit (|S| = 1/(1+y^2)^1.5)
    n, m = 5, 9
    y = np.linspace(-1.0, 1.0, m)
    row = np.column_stack([np.zeros(m), y, 0.5 * y ** 2])
    mesh = SurfaceMesh(np.tile(row, (n, 1)),
                       np.tile([0.0, 0.0, 1.0], (n * m, 1)), (n, m))
    want = reference_second_fundamental_norm(mesh)
    fits = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, **kw: fits.append(len(a)) or svd(a, **kw))
    s_norm, _ = second_fundamental_norm(mesh, LIN1)
    interior = ~mesh.boundary_mask()
    assert sum(fits) == interior.sum() == (n - 2) * (m - 2)
    assert np.array_equal(np.isnan(s_norm), ~interior)
    assert np.max(np.abs(s_norm[interior] - want[interior])
                  / want[interior]) < 1e-10
    assert s_norm[interior] == pytest.approx(
        (1 + np.tile(y[1:-1], n - 2) ** 2) ** -1.5, rel=1e-12)


def test_non_finite_vertex_still_raises():
    grid = STENCIL_EDGES["three-rows"]
    verts = grid.vertices.copy()
    verts[grid.grid[1] + 7] = math.nan  # node (1, 7), inside the grid
    mesh = SurfaceMesh(verts, grid.normals, grid.grid)
    with pytest.raises(np.linalg.LinAlgError):
        second_fundamental_norm(mesh, LIN1)


def test_shape_operator_derives_no_faces(monkeypatch):
    def refuse(self):
        raise AssertionError("faces derived")
    mesh = MESHES["apex-fan"]
    want = reference_second_fundamental_norm(mesh)
    monkeypatch.setattr(SurfaceMesh, "face_blocks", refuse)
    s_norm, _ = second_fundamental_norm(mesh, LIN1)
    good = ~np.isnan(want)
    assert np.array_equal(np.isnan(s_norm), ~good)
    assert np.max(np.abs(s_norm[good] - want[good]) / want[good]) < 1e-10


def whole_mesh_residual(mesh, profile):
    """mean_curvature_residual from one _cotangent_curvature call on the
    whole mesh."""
    res = (surfaces._cotangent_curvature(mesh) * mesh.normals).sum(axis=1)
    res -= profile.dphi(mesh.vertices[:, 2]) * mesh.normals[:, 2]
    res[mesh.boundary_mask()] = math.nan
    if mesh.apex:
        res[-1] = math.nan
    return res


def window_chunks(mesh):
    """{rows: _CHUNK_ROWS}: the least _CHUNK_ROWS at which the first
    window keeps 1, 2 or 3 node rows, with _WINDOW_ROWS lifted.  A number
    is missing where whole blocks skip it or its window holds the grid."""
    chunks, chunk = {}, 0
    while max(chunks, default=0) < 3:
        chunk += 1
        with mock.patch.multiple(surfaces, _CHUNK_ROWS=chunk, _WINDOW_ROWS=1):
            kept = next(surfaces._row_windows(mesh))[0]
        if kept.stop == mesh.grid[0] * mesh.grid[1]:
            break
        chunks.setdefault(kept.stop // mesh.grid[1], chunk)
    return chunks


# the oracle's windows at their edges: periodic grids with and without an
# apex, three columns, two and three node rows, and tilts
WINDOW_EDGES = {
    "round-cylinder": MESHES["round-cylinder"],
    "apex-fan": MESHES["apex-fan"],
    "sphere": MESHES["sphere"],
    "one-ring": MESHES["one-ring"],
    "band-m3": STENCIL_EDGES["band-m3"],
    "polar-m3": STENCIL_EDGES["polar-m3"],
    "two-rows": SurfaceMesh(
        np.column_stack([np.repeat([0.0, 1.0], 9), np.tile(np.arange(9.0), 2),
                         0.1 * np.tile(np.arange(9.0), 2) ** 2]),
        np.tile([0.0, 0.0, 1.0], (18, 1)), (2, 9)),
    "apex-two-rings": STENCIL_EDGES["apex-two-rings"],
    "grid": MESHES["grid"],
    "three-rows": STENCIL_EDGES["three-rows"],
    "tilt-three-rulings": tilt_cylinder(
        solve_catenary(LIN1, 0.0, 1.2, n_samples=61), math.pi / 5,
        (-0.8, 0.8), 3),
    "tilted-cylinder": MESHES["tilted-cylinder"],
    "tilt-five-rulings": STENCIL_EDGES["tilt-five-rulings"],
}


@pytest.mark.parametrize("mesh", WINDOW_EDGES.values(), ids=WINDOW_EDGES)
def test_windows_keep_the_whole_meshs_bits(mesh):
    want = whole_mesh_residual(mesh, LIN1)
    chunks = window_chunks(mesh)
    # windows of whole blocks keep an odd number of a periodic grid's rows
    lines = {1, 3} if mesh.periodic else {1, 2, 3}
    assert set(chunks) == {k for k in lines if k < mesh.grid[0]}
    for chunk in chunks.values():
        with mock.patch.multiple(surfaces, _CHUNK_ROWS=chunk, _WINDOW_ROWS=1):
            got = mean_curvature_residual(mesh, LIN1)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert got.tobytes() == want.tobytes()
    assert mean_curvature_residual(mesh, LIN1).tobytes() == want.tobytes()


@pytest.mark.parametrize("mesh, rows", [
    (MESHES["grid-blocks"], 1023), (MESHES["four-blocks"], 63),
    (graph_mesh(np.linspace(-1, 1, 21), np.linspace(-1, 1, 9001),
                np.outer(np.linspace(1, 0, 21),
                         np.linspace(-1, 1, 9001)) ** 2), 8),
], ids=["grid-blocks", "four-blocks", "wider-than-a-chunk"])
def test_default_windows_keep_the_whole_meshs_bits(mesh, rows):
    # 2,401 x 9 and 100 x 128 nodes in windows of whole blocks of _corners
    # (1,024 cell rows of each kind; 2 x 32 cell rows of both kinds), and
    # 21 x 9,001 nodes in windows of _WINDOW_ROWS rows
    windows = list(surfaces._row_windows(mesh))
    kept = [(k.stop - k.start) // mesh.grid[1] for k, _, _ in windows]
    assert kept[:-1] == [rows] * (len(kept) - 1) and len(kept) > 1
    if rows > surfaces._WINDOW_ROWS:
        assert all(w.n_faces <= 2 * surfaces._CHUNK_ROWS + w.grid[1] * w.apex
                   for _, w, _ in windows)
    got = mean_curvature_residual(mesh, LIN1)
    assert got.tobytes() == whole_mesh_residual(mesh, LIN1).tobytes()


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
        tilt_cylinder(curve, math.pi / 2, (-1.0, 1.0), 20)
    # a positive angle maps solutions to solutions only for a constant
    # dphi; the identity tilt takes any weight
    curve = solve_catenary(make_builtin("log", 1.0), 1.0, 0.5, tol=1e-9,
                           n_samples=41)
    with pytest.raises(ValueError, match="dphi is constant"):
        tilt_cylinder(curve, math.pi / 4, (-1.0, 1.0), 20)
    tilt_cylinder(curve, 0.0, (-1.0, 1.0), 20)


# -- mesh validation and export ----------------------------------------------


def test_mesh_validates_normals():
    verts = np.zeros((4, 3))
    with pytest.raises(ValueError):
        SurfaceMesh(verts, np.full((4, 3), 0.5), (2, 2))


def test_mesh_validates_its_grid():
    def mesh(nodes, grid, **kw):
        return SurfaceMesh(np.zeros((nodes, 3)),
                           np.repeat([[0.0, 0.0, 1.0]], nodes, axis=0),
                           grid, **kw)
    assert mesh(7, (2, 3), periodic=True, apex=True).n_faces == 9
    assert mesh(4, (1, 3), periodic=True, apex=True).n_faces == 3
    for nodes, grid, kw, match in [
            (5, (2, 2), {}, "5 vertices do not make a 2 x 2 grid"),
            (7, (2, 3), {"periodic": True}, "7 vertices do not"),
            (6, (2, 3), {"periodic": True, "apex": True}, "with an apex"),
            (2, (1, 2), {}, "do not make"),
            (4, (2, 2), {"periodic": True}, "do not make"),
            (5, (2, 2), {"apex": True}, "do not make"),
            (3, (1, 3), {"periodic": True}, "do not make")]:
        with pytest.raises(ValueError, match=match):
            mesh(nodes, grid, **kw)


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


_SAMPLE = st.floats(-1e100, 1e100)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
       complex_values=st.booleans(), axis=st.sampled_from([0, 1, -1]),
       dx=st.floats(1e-6, 1e3), data=st.data())
def test_trapezoid_primitive_is_scipys_bit_for_bit(shape, complex_values,
                                                   axis, dx, data):
    y = data.draw(hnp.arrays(np.float64, shape, elements=_SAMPLE))
    if complex_values:
        y = y + 1j * data.draw(hnp.arrays(np.float64, shape,
                                          elements=_SAMPLE))
    got = trapezoid_primitive(y, dx, axis=axis)
    want = cumulative_trapezoid(y, dx=dx, axis=axis, initial=0)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # a non-uniform abscissa, by its steps
    x = np.cumsum(data.draw(hnp.arrays(np.float64, shape[axis],
                                       elements=st.floats(1e-6, 1e3))))
    steps = np.diff(x).reshape([-1 if k == axis % 2 else 1 for k in (0, 1)])
    got = trapezoid_primitive(y, steps, axis=axis)
    want = cumulative_trapezoid(y, x, axis=axis, initial=0)
    assert got.tobytes() == want.tobytes()


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


def test_ply_vertex_blocks_match_the_whole_mesh(tmp_path):
    # 27,331 vertices, three whole blocks of _CHUNK_ROWS rows and part of
    # a fourth; the flat half repeats its normals, so runs cross the block
    # edges
    x, y = np.linspace(-1.0, 1.0, 181), np.linspace(-1.0, 1.0, 151)
    mesh = graph_mesh(x, y, np.maximum(x, 0.0)[:, None] ** 3 + 0.0 * y)
    assert 3 * surfaces._CHUNK_ROWS < mesh.n_vertices \
        < 4 * surfaces._CHUNK_ROWS
    path = tmp_path / "m.ply"
    save_ply(mesh, path, comments=["config_sha256: abc"])
    text = path.read_text()
    head = text[:text.index("end_header\n") + len("end_header\n")]
    want = io.StringIO()
    write_rows(want, np.hstack([mesh.vertices, mesh.normals]), sep=" ")
    write_rows(want, mesh.faces, sep=" ", prefix="3 ", cell="%d")
    assert text == head + want.getvalue()


def test_obj_face_rows_across_digit_groups(tmp_path):
    n = 10002
    verts = np.column_stack([np.arange(n, dtype=float), np.zeros(n),
                             np.zeros(n)])
    normals = np.repeat([[0.0, 0.0, 1.0]], n, axis=0)
    # a 2 x 5001 grid: one-based indices 9999 to 10002 meet four-digit
    # ones in a row, and the 10,000 faces cross a block edge
    mesh = SurfaceMesh(verts, normals, (2, n // 2))
    faces = mesh.faces
    assert [4999, 10000, 10001] in (faces + 1).tolist()
    save_obj(mesh, tmp_path / "m.obj")
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
    # every integer 0..11999 once: dense enough to be formatted once each
    dense = np.arange(12000).reshape(-1, 3)[rng.permutation(4000)]
    for rows in (ints, drawn, ints.astype(np.int32)[[0, 1, 5]], dense):
        for sep, prefix in ((",", ""), (" ", "3 ")):
            assert _written(rows, sep=sep, prefix=prefix, cell="%d") \
                == _percent(rows, sep=sep, prefix=prefix, cell="%d")
        pairs = np.repeat(rows, 2, axis=1)
        assert _written(pairs, sep=" ", prefix="f ", cell="%d//%d") \
            == _percent(pairs, sep=" ", prefix="f ", cell="%d//%d")


def test_write_rows_refuses_what_array_code_does_not_write():
    # no writer passes such rows; there is no per-row % path to fall back on
    with pytest.raises(ValueError, match="does not fit"):
        _written(np.zeros((2, 3)), cell="%s")
    with pytest.raises(ValueError, match="does not write int64"):
        _written(np.arange(6).reshape(2, 3))
    with pytest.raises(ValueError, match="does not write uint64"):
        _written(np.zeros((2, 3), dtype=np.uint64), cell="%d")


def test_write_rows_repeats_only_a_bitwise_equal_column():
    # 0.0 and -0.0 compare equal but print differently
    rows = np.array([[0.0, -0.0, -0.0], [1.5, 1.5, 1.5]])
    assert _written(rows) == _percent(rows)
    rows[1] = math.nan
    assert _written(rows, sep="//") == _percent(rows, sep="//")
    ints = np.array([[7, 7, 70], [-3, -3, 3], [10 ** 4, 10 ** 4, 9]])
    assert _written(ints, cell="%d") == _percent(ints, cell="%d")


def test_write_rows_without_long_double_scaling(monkeypatch):
    # the writer scales in binary64 alone: where long double has fewer than
    # 64 significand bits (only the reader's gate) float rows still go
    # through array code, with the same bytes
    rows = np.array([[0.5, -2.25, 1e-7], [1e-30, 3.0, -0.0],
                     [math.nan, 1.0, 2.0 ** -25], [6.02e23, -1e-3, 7.0]])
    expected = _percent(rows, sep=" ", prefix="v ")
    assert _written(rows, sep=" ", prefix="v ") == expected
    monkeypatch.setattr(surfaces, "_EXACT_SCALING", False)
    printed = _formatted(monkeypatch)
    assert _written(rows, sep=" ", prefix="v ") == expected
    assert _written(rows[:, :2]) == _percent(rows[:, :2])
    assert sum(printed) == rows.size + rows[:, :2].size


def _formatted(monkeypatch):
    """Count the values the array code formats, call by call."""
    calls, real = [], surfaces._float_text

    def counting(x, out):
        calls.append(len(x))
        return real(x, out)
    monkeypatch.setattr(surfaces, "_float_text", counting)
    return calls


def test_write_rows_formats_each_run_once(monkeypatch):
    chunk = surfaces._CHUNK_ROWS
    n = 2 * chunk + 700
    rows = np.empty((n, 4))
    rows[:, 0] = np.arange(n) // 500 * 0.25 - 3.0  # runs across block edges
    rows[:, 1] = np.where(np.arange(n) // 300 % 2, 0.0, -0.0)
    rows[:, 2] = np.arange(n) * 1.1  # no runs
    rows[:, 3] = [(math.nan, -math.nan, 1e-30, 1e17, 2.5, -2.5)[i % 6]
                  for i in np.arange(n) // 250]
    # a run that starts in one block and ends in the next
    assert rows[chunk - 1, 0] == rows[chunk, 0]
    printed = _formatted(monkeypatch)
    for sep, prefix in ((",", ""), (" ", "v ")):
        printed.clear()
        assert _written(rows, sep=sep, prefix=prefix) \
            == _percent(rows, sep=sep, prefix=prefix)
        # the third column in full, and the run heads of the others
        assert n < sum(printed) < n + n // 50
    assert _written(rows[:1]) == _percent(rows[:1])
    single = np.full((chunk + 3, 1), 1e-30)  # every head left to %
    assert _written(single) == _percent(single)


def test_float_text_prints_every_value_of_exponents_minus_6_to_16():
    halves, _ = _longdouble_halves()
    edges = np.array([1e-6, 1e16, 1e17, 1e-5, 0.1, 1.0])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0),
                            np.nextafter(edges, math.inf)])
    # 18 significant digits ending in 5: exact ties, rounded half to even
    ties = [(2 ** 17 + 1) / 2 ** 17, (2 ** 17 + 3) / 2 ** 17,
            (2 ** 17 + 1) / 2 ** 18, 1e5 + 1 / 4096, 1e5 + 3 / 4096]
    edges = np.concatenate([edges, ties])
    edges = np.concatenate([edges, -edges])
    # fl(1e-6) lies below 1e-6, outside the exponents -6..16
    for values, left_to_percent in (
            (halves, np.zeros(len(halves), dtype=bool)),
            (edges, (np.abs(edges) <= 1e-6) | (np.abs(edges) >= 1e17))):
        out = np.zeros((len(values), surfaces._FLOAT_BYTES), dtype=np.uint8)
        left = surfaces._float_text(values.copy(), out)
        np.testing.assert_array_equal(left, left_to_percent)
        text = [bytes(row).replace(b"\0", b"").decode() for row in out]
        assert [t for t, bad in zip(text, left) if not bad] \
            == ["%.16e" % v for v, bad in zip(values, left) if not bad]
        assert _written(values[:, None]) == _percent(values[:, None])


def test_float_text_leaves_few_bowl_values_to_percent():
    # the gallery's 129 meridians; long double scaling left 0.66 % of these
    # values to %
    mesh = revolve(solve_bowl(LIN1, 0.0, 4.0, tol=1e-10, n_samples=201), 129)
    values = np.concatenate([mesh.vertices.T, mesh.normals.T])
    out = np.empty((values.shape[1], surfaces._FLOAT_BYTES), dtype=np.uint8)
    left = sum(int(surfaces._float_text(col.copy(), out).sum())
               for col in values)
    assert left <= 1e-3 * values.size


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


def test_read_table_reads_blocks_that_end_at_a_line_end(monkeypatch):
    # rows of one width, so that every block ends at the end of a line and
    # the next one starts empty, with and without the file's last newline
    rows = np.random.default_rng(5).uniform(
        1.0, 9.0, (2 * surfaces._CHUNK_ROWS + 3, 3))
    calls = _cells_read(monkeypatch)
    text = _written(rows)
    for body in (text, text[:-1]):
        calls.clear()
        got, want = _read_back(body)
        assert got.tobytes() == want.tobytes() == rows.tobytes()
        assert len(calls) == 3 and all(calls)


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
