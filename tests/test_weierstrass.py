import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline

from phimin import cli, surfaces, weierstrass
from phimin.errors import NumericalError
from phimin.profiles import make_builtin
from phimin.solvers import solve_bowl
from phimin.weierstrass import (
    BjorlingData,
    GaussField,
    bjorling_from_json,
    gauss_field_from_table,
    gauss_pde_residual,
    integrate_representation,
    load_gauss_field,
    reconstruction_residuals,
    rotational_gauss_field,
    save_gauss_field,
    solve_bjorling,
    wirtinger_derivatives,
)

from graph_meshes import graph_mesh

LIN1 = make_builtin("linear", 1.0)


def reaper_field(n_u=161, n_v=121, half_u=1.5, half_v=1.0):
    # G = tanh(u/2) is the grim reaper in the conformal parameter
    # zeta = (arc length) + i*(-y); the surface is (gd u, -v, log cosh u).
    u = np.linspace(-half_u, half_u, n_u)
    v = np.linspace(-half_v, half_v, n_v)
    G = np.tanh(u[:, None] / 2.0) + 0.0j * v[None, :]
    return GaussField(u=u, v=v, G=G, k_param=1.0)


def reaper_points(field):
    u, v = field.u, field.v
    shape = field.shape
    return np.stack(
        [np.broadcast_to(2.0 * np.arctan(np.tanh(u / 2.0))[:, None], shape),
         np.broadcast_to(-v[None, :], shape),
         np.broadcast_to(np.log(np.cosh(u))[:, None], shape)], axis=-1)


@pytest.fixture(scope="module")
def lin1_bowl():
    return solve_bowl(LIN1, 0.0, 3.0)


@pytest.fixture(scope="module")
def log1_roof():
    return solve_bowl(make_builtin("log", 1.0), 1.0, 5.0)


def circle_data(bowl, s_ring=1.5, degree=12):
    """Cauchy data for a horizontal circle of the bowl with its normal."""
    i = int(np.searchsorted(bowl.s, s_ring))
    r0, z0, th0 = bowl.x[i], bowl.z[i], bowl.theta[i]
    st0, ct0 = math.sin(th0), math.cos(th0)
    data = BjorlingData(
        curve_kind="fourier",
        beta=np.array([[0.0, r0, 0.0], [0.0, 0.0, r0], [z0, 0.0, 0.0]]),
        normal=np.array([[0.0, -st0, 0.0], [0.0, 0.0, -st0],
                         [ct0, 0.0, 0.0]]),
        degree=degree, period=2.0 * math.pi * r0)
    return data, i


def meridian_splines(bowl):
    keep = bowl.x > 1e-12
    s, x, z, th = (a[keep] for a in (bowl.s, bowl.x, bowl.z, bowl.theta))
    rho = cumulative_trapezoid(1.0 / x, s, initial=0.0)
    return {"rho_of_s": CubicSpline(s, rho), "s_of_rho": CubicSpline(rho, s),
            "th_of_s": CubicSpline(s, th), "x_of_s": CubicSpline(s, x),
            "z_of_s": CubicSpline(s, z)}


def rotational_points(bowl, field):
    """The surface of revolution of ``bowl`` at the nodes of its rotational
    field: (x cos v, -x sin v, z) at the arc length where rho = u."""
    splines = meridian_splines(bowl)
    s = splines["s_of_rho"](field.u)
    x, z = splines["x_of_s"](s)[:, None], splines["z_of_s"](s)[:, None]
    return np.stack([x * np.cos(field.v), -x * np.sin(field.v),
                     np.broadcast_to(z, field.shape)], axis=-1)


# ---------------------------------------------------------------------------
# field type and PDE residual oracle
# ---------------------------------------------------------------------------

@given(re=st.floats(min_value=-0.6, max_value=0.6),
       im=st.floats(min_value=-0.6, max_value=0.6))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_constant_field_residual_vanishes_and_normals_invert(re, im):
    u = np.linspace(0.0, 1.0, 5)
    G = np.full((5, 5), re + 1j * im)
    f = GaussField(u=u, v=u, G=G, k_param=1.0)
    assert gauss_pde_residual(f) == 0.0
    n = f.normals()
    assert np.abs(np.linalg.norm(n, axis=-1) - 1.0).max() < 1e-12
    back = -(n[..., 0] + 1j * n[..., 1]) / (1.0 + n[..., 2])
    assert np.abs(back - G).max() < 1e-12


def test_field_construction_guards():
    u = np.linspace(0.0, 1.0, 5)
    G = np.zeros((5, 5), dtype=complex)
    with pytest.raises(ValueError, match="uniform"):
        GaussField(u=np.array([0.0, 0.1, 0.5, 0.7, 1.0]), v=u, G=G,
                   k_param=1.0)
    with pytest.raises(ValueError, match="shape"):
        GaussField(u=u, v=u, G=np.zeros((5, 4), dtype=complex), k_param=1.0)
    with pytest.raises(ValueError, match="k = 0"):
        GaussField(u=u, v=u, G=G, k_param=0.0)
    bad = G.copy()
    bad[2, 2] = np.exp(0.4j)  # unit modulus at an interior node
    with pytest.raises(ValueError, match="interior node"):
        GaussField(u=u, v=u, G=bad, k_param=1.0)


def test_constant_unit_modulus_is_a_vertical_plane():
    u = np.linspace(0.0, 1.0, 7)
    with pytest.raises(ValueError, match="vertical plane"):
        GaussField(u=u, v=u, G=np.full((7, 7), np.exp(0.3j)), k_param=1.0)


def test_reaper_field_solves_pde():
    assert gauss_pde_residual(reaper_field()) < 5e-6


def test_rotational_field_residual_refines_second_order(lin1_bowl):
    sup = []
    for n_u, n_v in ((81, 61), (161, 121)):
        f = rotational_gauss_field(lin1_bowl, (0.7, 2.5), n_u=n_u,
                                   v_halfwidth=0.9, n_v=n_v)
        sup.append(gauss_pde_residual(f))
    assert sup[1] < 1e-4
    assert sup[0] / sup[1] > 2.5  # second order would give 4


def test_random_smooth_field_is_detected_as_non_solution():
    u = np.linspace(-1.5, 1.5, 101)
    v = np.linspace(-1.0, 1.0, 81)
    G = 0.3 * np.exp(1j * (np.sin(u[:, None]) + np.cos(2.0 * v[None, :])))
    f = GaussField(u=u, v=v, G=G, k_param=1.0)
    assert gauss_pde_residual(f) > 0.05


# ---------------------------------------------------------------------------
# representation integrals
# ---------------------------------------------------------------------------

def test_reaper_reconstruction_matches_closed_form():
    f = reaper_field()
    mesh = integrate_representation(f, anchor=(0.0, 0.0, 0.0))
    got = mesh.vertices.reshape(*f.shape, 3)
    want = reaper_points(f)
    ib, jb = (f.shape[0] - 1) // 2, (f.shape[1] - 1) // 2
    want = want - want[ib, jb]
    assert np.abs(got - want).max() < 1e-4
    assert mesh.meta["path_disagreement"] < 1e-4
    assert mesh.meta["conformal_defect"] < 5e-3
    assert mesh.meta["gauss_map_defect"] < 1e-3
    assert mesh.meta["mean_curvature_residual"] < 1e-3


def traced_peak(fn, *args):
    """Bytes held at the peak of ``fn(*args)`` beyond those held before,
    as tracemalloc counts them (numpy reports its buffers to it, so the
    figure repeats exactly)."""
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


def test_reconstruction_peak_memory():
    # about 128 B a node, held by the mesh (48, points and normals with no
    # face array) with the one pass of the reconstruction sups (79),
    # against 158 while the path integrals ran their routes on complex
    # arrays, 198 while the mesh stored its faces, 215 while the oracle
    # held its corner weights through the vertex division, 256 while the
    # first-order defects spanned the grid and 790 while every
    # intermediate lived to the end
    f = reaper_field(201, 151)
    assert traced_peak(integrate_representation, f) <= 135 * f.G.size


def test_field_check_peak_memory():
    # one integrand and its routes at a time, and the field checks over
    # row blocks, returning sups: about 99 B a node for the path integrals
    # (158 while both routes ran on complex arrays of which only the real
    # parts were kept), 88 for the PDE residual (102 while a slab's arrays
    # lived through the next slab's stencil) and 79 for the one pass of the
    # seven reconstruction sups; each check's slab temporaries die before
    # the next slab is differentiated
    f = reaper_field(201, 151)
    mesh = integrate_representation(f)
    assert traced_peak(weierstrass._path_integrals, f, None) \
        <= 105 * f.G.size
    assert traced_peak(gauss_pde_residual, f) <= 95 * f.G.size
    assert traced_peak(reconstruction_residuals, mesh, f) <= 85 * f.G.size


def test_read_table_holds_the_matrix_and_one_block(tmp_path):
    # the body is parsed from the open file a block of about _CHUNK_ROWS
    # rows at a time: beside the matrix (with the slack of a row count
    # bounded by 23 bytes a cell) the reader holds one block of bytes and
    # the kernel's temporaries, about 730 B a block row on a field table
    # whatever the file's size, against the whole file beside the matrix
    # (23.6 MB on the 441x331 table, 13.5 MB of it the file's bytes)
    for n_u in (441, 221):
        path = tmp_path / f"field{n_u}.csv"
        save_gauss_field(reaper_field(n_u, 331), path)
        held = []
        peak = traced_peak(lambda: held.append(surfaces.read_table(path)[2]))
        assert held[0].shape == (n_u * 331, 4)
        assert peak - held[0].nbytes * 24 / 23 \
            <= 760 * surfaces._CHUNK_ROWS


def test_grid_faces_peak_memory():
    # the faces derived from the grid one block of about _CHUNK_ROWS
    # faces at a time: about 0.64 MB whatever the mesh, against 7.0 MB
    # (24.5 B a face) for the whole list of a 441x331 grid
    x, y = np.linspace(-1.0, 1.0, 441), np.linspace(-1.0, 1.0, 331)
    mesh = graph_mesh(x, y, np.outer(x, y) ** 2)

    def derive():
        for _ in mesh.face_blocks():
            pass
    assert traced_peak(derive) <= 100 * surfaces._CHUNK_ROWS


def test_weierstrass_command_peak_memory(tmp_path):
    # a field three row blocks tall, end to end through the PLY writer:
    # about 235 B a node, against 277 while the field checks returned
    # whole grids and 340 with the checks over the whole grid and the
    # parsed table pinned by the field's axes
    f = reaper_field(801, 61)
    path = tmp_path / "field.csv"
    save_gauss_field(f, path)
    peak = traced_peak(cli.main, ["weierstrass", str(path), "--format",
                                  "ply", "--out", str(tmp_path / "w")])
    assert peak <= 250 * f.G.size


def test_verify_frees_the_field_file_before_its_oracle(tmp_path, monkeypatch):
    # the parser lets go of the file's bytes (about 92 B a node) and
    # verify of the parsed table (32 B a node) before gauss_pde_residual
    # runs: about 19 B a node is held then, the field's 16 among them,
    # against 144 with both alive
    f = reaper_field(401, 81)
    path = tmp_path / "field.csv"
    save_gauss_field(f, path)
    held = []

    def oracle(field):
        held.append(tracemalloc.get_traced_memory()[0])
        return gauss_pde_residual(field)
    monkeypatch.setattr(cli, "gauss_pde_residual", oracle)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        assert cli.main(["verify", str(path), "--out",
                         str(tmp_path / "v")]) == 0
    finally:
        tracemalloc.stop()
    assert held[0] - entry <= 21 * f.G.size


def test_field_axes_do_not_pin_the_table(tmp_path):
    path = tmp_path / "field.csv"
    save_gauss_field(reaper_field(21, 11), path)
    g = gauss_field_from_table(path, surfaces.read_table(path))
    assert g.u.base is None and g.v.base is None


def test_cotangent_oracle_peak_memory():
    # the kernel over a whole mesh: the corner weights (24 B a face, 48 a
    # node), one buffer of corner terms (8 a face), the vertex sums (24 a
    # node) and areas (8), with the weights and the buffer gone before the
    # sums are divided in place: about 99.8 B a node on this small mesh
    # (96 plus block temporaries), against 119 with the weights, the
    # buffer and a divided copy alive together, 182 with an int64 copy of
    # the faces and whole-mesh terms, and 380 with all nine edge columns
    # held at once
    mesh = integrate_representation(reaper_field(201, 151))
    assert traced_peak(surfaces._cotangent_curvature, mesh) \
        <= 104 * mesh.n_vertices


def test_mean_curvature_residual_peak_memory():
    # the residual (8 B a node), the boundary mask (1) and one window of
    # node rows at a time: about 18 B a node on a 441x331 grid, against
    # 97.0 with the whole mesh's corner weights, terms, vertex sums and
    # areas, 103 while the curvature vectors lived through boundary_mask's
    # edge keys and 119 with the oracle's weights alive through its
    # division
    x, y = np.linspace(-1.0, 1.0, 441), np.linspace(-1.0, 1.0, 331)
    mesh = graph_mesh(x, y, np.outer(x, y) ** 2)
    assert traced_peak(surfaces.mean_curvature_residual, mesh, LIN1) \
        <= 24 * mesh.n_vertices


def test_boundary_mask_peak_memory():
    # the mask alone, read from the grid: about 1.1 B a node, against 63
    # (32 B a face) while an array of edge keys was sorted
    mesh = integrate_representation(reaper_field(201, 151))
    assert traced_peak(mesh.boundary_mask) <= 2 * mesh.n_vertices


def test_save_obj_peak_memory(tmp_path):
    # faces derived and their v//vn columns repeated one block at a time:
    # about 9 B a face on a 441x331 grid, against 72 with them repeated
    # for the whole mesh
    x, y = np.linspace(-1.0, 1.0, 441), np.linspace(-1.0, 1.0, 331)
    mesh = graph_mesh(x, y, np.outer(x, y) ** 2)
    assert traced_peak(surfaces.save_obj, mesh, tmp_path / "m.obj") \
        <= 15 * mesh.n_faces


def test_save_ply_peak_memory(tmp_path):
    # positions beside normals one block of rows at a time: about 38 B a
    # vertex on a 441x331 grid, against 84 with them side by side for the
    # whole mesh
    x, y = np.linspace(-1.0, 1.0, 441), np.linspace(-1.0, 1.0, 331)
    mesh = graph_mesh(x, y, np.outer(x, y) ** 2)
    assert traced_peak(surfaces.save_ply, mesh, tmp_path / "m.ply") \
        <= 45 * mesh.n_vertices


def test_mesh_csv_peak_memory(tmp_path):
    # the mesh CSV takes positions beside normals one block of rows at a
    # time, as save_ply does: about 38 B a vertex on a 441x331 grid,
    # against 83.6 with them side by side for the whole mesh
    x, y = np.linspace(-1.0, 1.0, 441), np.linspace(-1.0, 1.0, 331)
    mesh = graph_mesh(x, y, np.outer(x, y) ** 2)
    (name, _, write), _ = cli._mesh_files("csv", lambda: mesh, "m", [])
    assert traced_peak(write, tmp_path / name, []) <= 45 * mesh.n_vertices


def test_catenoid_command_peak_memory(tmp_path):
    # each revolved branch (1201 x 129 nodes, about 155,000 each) is made
    # by the writer of its OBJ file, so one is alive at a time: about 10.3
    # MB, against 17.8 while both were held until written and 32.6 while
    # each mesh stored its faces (48 B a node)
    peak = traced_peak(cli.main, ["catenoid", "--preset",
                                  "catenoid-exp-weight", "--out",
                                  str(tmp_path / "c")])
    assert peak <= 12e6


def test_catenoid_command_holds_one_branch_mesh(tmp_path):
    # the peak is about 1.4 times the larger branch mesh, against 2.4 while
    # both branches lived until their files were written
    argv = ["catenoid", "--preset", "catenoid-exp-weight"]
    cfg = cli._resolve_config(cli._build_parser("catenoid").parse_args(argv))
    branches = cli.solve_catenoid(cfg["profile"], cfg["x0"], cfg["z0"],
                                  cfg["s_max"], tol=cfg["tol"],
                                  n_samples=cfg["n_samples"])
    larger = max(mesh.vertices.nbytes + mesh.normals.nbytes
                 for mesh in (surfaces.revolve(curve, cfg["n_theta"])
                              for curve in branches))
    peak = traced_peak(cli.main, argv + ["--out", str(tmp_path / "c")])
    assert peak <= 1.6 * larger


def reference_path_integrals(f, ib, jb):
    """The path integrals' coordinate functions and disagreement from the
    node (ib, jb), as written while both staircase routes ran on the
    complex integrand w and on i w, by scipy's cumulative trapezoid, and
    only the real parts were kept."""
    G, k, hu, hv = f.G, f.k_param, f.hu, f.hv
    gbz = np.conj(wirtinger_derivatives(f)[1])
    D = f.denominator()
    w1 = gbz * (1.0 - G ** 2) / D
    w2 = 1j * gbz * (1.0 + G ** 2) / D
    w3 = gbz * G / D

    def routes(w):
        cx = cumulative_trapezoid(w, dx=hu, axis=0, initial=0.0)
        cy = cumulative_trapezoid(1j * w, dx=hv, axis=1, initial=0.0)
        a = (cx[:, jb] - cx[ib, jb])[:, None] + (cy - cy[:, jb][:, None])
        b = (cy[ib, :] - cy[ib, jb])[None, :] + (cx - cx[ib, :][None, :])
        return a.real, b.real

    if k == 1.0:
        parts = [[s * r for r in routes(w)]
                 for w, s in ((w1, 4.0), (w2, 4.0), (w3, 8.0))]
        psi = [0.5 * (a + b) for a, b in parts]
        disagreement = max(float(np.abs(a - b).max()) for a, b in parts)
    else:
        r3a, r3b = routes(w3)
        gamma_a = np.exp(4.0 * (k - 1.0) * r3a)
        gamma_b = np.exp(4.0 * (k - 1.0) * r3b)
        gamma = np.exp(4.0 * (k - 1.0) * 0.5 * (r3a + r3b))
        vertical = 2.0 * k / (k - 1.0)
        q1a, q1b = routes(w1 * gamma)
        q2a, q2b = routes(w2 * gamma)
        psi = [2.0 * k * (q1a + q1b), 2.0 * k * (q2a + q2b),
               vertical * gamma]
        disagreement = max(
            4.0 * abs(k) * float(np.abs(q1a - q1b).max()),
            4.0 * abs(k) * float(np.abs(q2a - q2b).max()),
            abs(vertical) * float(np.abs(gamma_a - gamma_b).max()))
    return psi, disagreement


@settings(max_examples=60, deadline=None, derandomize=True)
@given(nu=st.integers(5, 30), nv=st.integers(5, 30),
       k=st.sampled_from([1.0, 3.0, -0.5]), amp=st.floats(0.05, 0.8),
       slope=st.floats(0.2, 3.0), shift=st.floats(-1.0, 1.0),
       twist=st.sampled_from([0.0, 0.0, 0.6, -1.7]), data=st.data())
def test_path_integrals_match_complex_routes(nu, nv, k, amp, slope, shift,
                                             twist, data):
    # G = amp tanh(slope u) exp(-i twist v): real-valued at twist 0, where
    # Im w is a zero of either sign, so the real parts' signed zeros are
    # exercised as well as the values
    u = np.linspace(-1.0, 1.0, nu) + shift
    v = np.linspace(-0.8, 0.8, nv)
    G = amp * np.tanh(slope * u)[:, None] * np.exp(-1j * twist * v)[None, :]
    f = GaussField(u=u, v=v, G=G, k_param=k)
    ib, jb = data.draw(st.integers(0, nu - 1)), data.draw(
        st.integers(0, nv - 1))
    got_ib, got_jb, psi, disagreement = weierstrass._path_integrals(
        f, complex(u[ib], v[jb]))
    assert (got_ib, got_jb) == (ib, jb)
    want_psi, want_disagreement = reference_path_integrals(f, ib, jb)
    assert [p.tobytes() for p in psi] == [p.tobytes() for p in want_psi]
    assert disagreement == want_disagreement


def whole_grid_checks(f, mesh):
    """The field checks over the whole grid at once, as written before
    they ran over row blocks: the PDE residual and the five identity
    residuals on the grid with a NaN border, the first-order defects, and
    the path integrals' coordinate functions and disagreement."""
    G, k, hu, hv = f.G, f.k_param, f.hu, f.hv
    c, gu, gv, guu, gvv, _ = surfaces._interior_derivatives(G, hu, hv)
    D = 1.0 - np.abs(c) ** 4
    gz, gzb = 0.5 * (gu - 1j * gv), 0.5 * (gu + 1j * gv)
    pde = np.full_like(G, np.nan + 1j * np.nan)
    pde[1:-1, 1:-1] = (0.25 * (guu + gvv)
                       + 2.0 * np.abs(c) ** 2 / D * np.conj(c) * gz * gzb
                       + 2.0 * k * np.abs(gzb) ** 2 / D * c)

    points = mesh.vertices.reshape(*f.shape, 3)
    pu = np.gradient(points, hu, axis=0, edge_order=2)
    pv = np.gradient(points, hv, axis=1, edge_order=2)
    ee = np.einsum("ijk,ijk->ij", pu, pu)[1:-1, 1:-1]
    gg = np.einsum("ijk,ijk->ij", pv, pv)[1:-1, 1:-1]
    ff = np.einsum("ijk,ijk->ij", pu, pv)[1:-1, 1:-1]
    lam2 = 0.5 * (ee + gg)
    nrm = np.cross(pv, pu)[1:-1, 1:-1]
    nrm /= np.linalg.norm(nrm, axis=-1, keepdims=True)
    ok = 1.0 + nrm[..., 2] > 1e-6
    grec = np.where(ok, -(nrm[..., 0] + 1j * nrm[..., 1])
                    / np.where(ok, 1.0 + nrm[..., 2], 1.0), G[1:-1, 1:-1])
    defects = {"conformal_defect": float(
                   (np.maximum(np.abs(ee - gg), 2.0 * np.abs(ff))
                    / lam2).max()),
               "gauss_map_defect": float(np.abs(grec - G[1:-1, 1:-1]).max())}

    psi_z = 0.5 * (pu - 1j * pv)
    p1, p2, p3 = psi_z[..., 0], psi_z[..., 1], psi_z[..., 2]
    fh = p1 - 1j * p2
    gzb = wirtinger_derivatives(f)[1]
    D = 1.0 - np.abs(G) ** 4
    dphi = np.ones_like(points[..., 2]) if k == 1.0 \
        else (2.0 / (k - 1.0)) / points[..., 2]
    identities = {
        "null_defect": p1 ** 2 + p2 ** 2 + p3 ** 2,
        "pairing_defect": p3 - G * fh,
        "split_defect_x": p1 - 0.5 * fh * (1.0 - G ** 2),
        "split_defect_y": p2 - 0.5j * fh * (1.0 + G ** 2),
        "gradient_defect": 4.0 * gzb - dphi * np.conj(fh) * D,
    }
    for arr in identities.values():
        arr[0, :] = arr[-1, :] = np.nan
        arr[:, 0] = arr[:, -1] = np.nan

    psi, disagreement = reference_path_integrals(
        f, (f.shape[0] - 1) // 2, (f.shape[1] - 1) // 2)
    return pde, defects, identities, psi, disagreement


@pytest.mark.parametrize("rows", [3, 4])
@pytest.mark.parametrize("family", ["reaper", "log"])
def test_row_blocks_match_the_whole_grid_bit_for_bit(rows, family,
                                                     log1_roof, monkeypatch):
    # slabs of 3 or 4 rows hold 1 or 2 interior rows; the 39 interior rows
    # of the 41-row grid leave a last slab of 3 rows
    if family == "reaper":
        f = reaper_field(41, 31)
    else:
        f = rotational_gauss_field(log1_roof, (0.7, 4.5), n_u=82,
                                   v_halfwidth=0.9, n_v=41)
    mesh = integrate_representation(f)
    pde, defects, identities, psi, disagreement = whole_grid_checks(f, mesh)
    monkeypatch.setattr(weierstrass, "_BLOCK_NODES", rows * f.shape[1])
    blocks = list(weierstrass._row_blocks(*f.shape))
    # the slab interiors tile rows 1 .. n - 2 exactly once
    assert [i for a, b in blocks for i in range(a + 1, b - 1)] \
        == list(range(1, f.shape[0] - 1))
    assert min(b - a for a, b in blocks) >= 3
    assert len(blocks) == -(-(f.shape[0] - 2) // (rows - 2))

    def sup(arr):
        return np.max(np.abs(arr[1:-1, 1:-1]))

    want = {**defects, **{key: float(sup(arr))
                          for key, arr in identities.items()}}
    assert np.float64(gauss_pde_residual(f)).tobytes() == sup(pde).tobytes()
    got = reconstruction_residuals(mesh, f)
    assert list(got) == list(want)
    for key, value in want.items():
        assert np.float64(got[key]).tobytes() \
            == np.float64(value).tobytes(), key
    _, _, got_psi, got_disagreement = weierstrass._path_integrals(f, None)
    assert [p.tobytes() for p in got_psi] == [p.tobytes() for p in psi]
    assert got_disagreement == disagreement
    # the mesh's meta holds the same seven sups, from the default slabs
    assert {key: mesh.meta[key] for key in defects} == defects
    assert mesh.meta["identity_residuals"] == {key: want[key]
                                               for key in identities}


def test_unit_modulus_in_a_later_block_is_refused(monkeypatch):
    monkeypatch.setattr(weierstrass, "_BLOCK_NODES", 3 * 31)
    f = reaper_field(41, 31)
    f.G[35, 10] = 1.0  # after construction, which refuses such a node
    with pytest.raises(NumericalError, match="stencil node"):
        gauss_pde_residual(f)


def test_reconstruction_error_refines(lin1_bowl):
    errs = []
    for n_u, n_v in ((81, 61), (161, 121)):
        f = reaper_field(n_u=n_u, n_v=n_v)
        mesh = integrate_representation(f, anchor=(0.0, 0.0, 0.0))
        got = mesh.vertices.reshape(*f.shape, 3)
        want = reaper_points(f)
        want = want - want[(n_u - 1) // 2, (n_v - 1) // 2]
        errs.append(np.abs(got - want).max())
    assert errs[0] / errs[1] > 2.5


def test_k1_bowl_reconstruction_through_meta_anchor(lin1_bowl):
    f = rotational_gauss_field(lin1_bowl, (0.7, 2.5), n_u=161,
                               v_halfwidth=0.9, n_v=121)
    mesh = integrate_representation(f)
    got = mesh.vertices.reshape(*f.shape, 3)
    assert np.abs(got - rotational_points(lin1_bowl, f)).max() < 5e-4


def test_hanging_roof_reconstruction_cross_solver(log1_roof):
    # k = 3 means dphi(z) = 1/z, the weight of the Log(1) rotational curve.
    f = rotational_gauss_field(log1_roof, (0.7, 4.5), n_u=201,
                               v_halfwidth=0.9, n_v=161)
    assert gauss_pde_residual(f) < 1e-5
    mesh = integrate_representation(f)
    got = mesh.vertices.reshape(*f.shape, 3)
    assert np.abs(got - rotational_points(log1_roof, f)).max() < 5e-4
    assert mesh.meta["mean_curvature_residual"] < 0.1


def test_log_weight_height_normalization(log1_roof):
    # Without an anchor the height of the base node is exactly 2k/(k-1):
    # the representation fixes the homothety and only that constant.
    src = rotational_gauss_field(log1_roof, (0.7, 4.5), n_u=81,
                                 v_halfwidth=0.7, n_v=61)
    bare = GaussField(u=src.u, v=src.v, G=src.G, k_param=3.0)
    mesh = integrate_representation(bare)
    got = mesh.vertices.reshape(*bare.shape, 3)
    ib, jb = (bare.shape[0] - 1) // 2, (bare.shape[1] - 1) // 2
    assert got[ib, jb, 2] == pytest.approx(3.0, abs=1e-12)


def test_representation_identities_vanish_at_discretization_order():
    # Refinement order is measured two rings off the border, on the
    # whole-grid arrays: the first computed ring differences the one-sided
    # gradient rows and carries a larger constant.
    sups, inner = [], []
    for n_u, n_v in ((81, 61), (161, 121)):
        f = reaper_field(n_u=n_u, n_v=n_v)
        mesh = integrate_representation(f, anchor=(0.0, 0.0, 0.0))
        sups.append(reconstruction_residuals(mesh, f))
        assert set(sups[-1]) == {"conformal_defect", "gauss_map_defect",
                                 "null_defect", "pairing_defect",
                                 "split_defect_x", "split_defect_y",
                                 "gradient_defect"}
        inner.append({k: float(np.abs(a[2:-2, 2:-2]).max())
                      for k, a in whole_grid_checks(f, mesh)[2].items()})
    for key in inner[1]:
        assert sups[1][key] < 5e-4, key
        assert inner[0][key] / inner[1][key] > 3.0, key


def test_path_independence_refines_second_order():
    d = [integrate_representation(reaper_field(n_u=n, n_v=n),
                                  anchor=(0.0, 0.0, 0.0)
                                  ).meta["path_disagreement"]
         for n in (81, 161)]
    assert d[1] < 5e-5
    assert d[0] / d[1] > 3.0


def test_non_solution_field_raises_path_dependence():
    u = np.linspace(-1.5, 1.5, 101)
    v = np.linspace(-1.0, 1.0, 81)
    G = 0.3 * np.exp(1j * (np.sin(u[:, None]) + np.cos(2.0 * v[None, :])))
    f = GaussField(u=u, v=v, G=G, k_param=1.0)
    with pytest.raises(NumericalError, match="path dependence"):
        integrate_representation(f)


def test_holomorphic_field_has_no_reconstruction():
    u = np.linspace(-1.0, 1.0, 41)
    G = 0.1 * (u[:, None] + 1j * u[None, :])
    f = GaussField(u=u, v=u, G=G, k_param=1.0)
    with pytest.raises(ValueError, match="holomorphic"):
        integrate_representation(f)


def test_singular_locus_guard():
    f0 = reaper_field(n_u=81, n_v=21)
    top = np.abs(f0.G).max()
    scale = (1.0 - 2e-9) / top  # push max |G|^4 within 1e-8 of 1
    f = GaussField(u=f0.u, v=f0.v, G=scale * f0.G, k_param=1.0)
    with pytest.raises(NumericalError, match="singular locus"):
        integrate_representation(f)


def test_base_point_selection():
    f = reaper_field(n_u=81, n_v=61)
    m1 = integrate_representation(f, base=complex(f.u[10], f.v[7]))
    m2 = integrate_representation(f)
    # A different base only translates the surface (each pins its own base
    # vertex to the origin), so centered vertex clouds must agree.
    v1 = m1.vertices - m1.vertices.mean(axis=0)
    v2 = m2.vertices - m2.vertices.mean(axis=0)
    assert np.abs(v1 - v2).max() < 1e-4
    with pytest.raises(ValueError, match="outside the sampled rectangle"):
        integrate_representation(f, base=complex(f.u[-1] + 1.0, 0.0))


def test_log_weight_anchor_must_stay_in_halfspace(log1_roof):
    f = rotational_gauss_field(log1_roof, (0.7, 4.5), n_u=81,
                               v_halfwidth=0.7, n_v=61)
    with pytest.raises(ValueError, match="singular plane"):
        integrate_representation(f, anchor=(0.0, 0.0, -2.0))


def test_rotational_field_input_guards(lin1_bowl):
    with pytest.raises(ValueError, match="simply connected"):
        rotational_gauss_field(lin1_bowl, (0.7, 2.5), v_halfwidth=3.5)
    with pytest.raises(ValueError, match="s_window"):
        rotational_gauss_field(lin1_bowl, (0.7, 99.0))
    series_bowl = solve_bowl(make_builtin("series", 1.0, 1.0), 1.0, 3.0)
    with pytest.raises(ValueError, match="linear and log weights"):
        rotational_gauss_field(series_bowl, (0.7, 2.5))


def test_family_index_is_derived_from_the_weight(lin1_bowl, log1_roof):
    # every linear slope has k = 1; alpha log z has k = 1 + 2/alpha, and
    # _weight_profile_for maps k back to that weight
    assert weierstrass._family_index(make_builtin("linear", 2.0)) == 1.0
    for alpha in (1.0, 0.5, 4.0, -1.0):
        k = weierstrass._family_index(make_builtin("log", alpha))
        assert k == pytest.approx(1.0 + 2.0 / alpha, rel=1e-15)
        back = weierstrass._weight_profile_for(k, np.array([1.0, 2.0]))
        assert back.kind == "log"
        assert back.params["alpha"] == pytest.approx(alpha, rel=1e-15)
    for curve, k in ((lin1_bowl, 1.0), (log1_roof, 3.0)):
        assert rotational_gauss_field(curve, (0.7, 2.5), n_u=9,
                                      n_v=9).k_param == k


# ---------------------------------------------------------------------------
# Cauchy problem off a curve
# ---------------------------------------------------------------------------

def test_circle_data_reproduces_bowl(lin1_bowl):
    data, i = circle_data(lin1_bowl)
    f = solve_bjorling(data, 1.0, 0.1, n_u=201, n_v=41)
    assert f.meta["certificate"] < 1e-4
    assert f.meta["branch_disagreement"] < 1e-12

    sp = meridian_splines(lin1_bowl)
    w = 1.0 / lin1_bowl.x[i]
    rho0 = float(sp["rho_of_s"](lin1_bowl.s[i]))
    s_v = sp["s_of_rho"](rho0 + w * f.v)
    g_true = (np.tan(sp["th_of_s"](s_v) / 2.0)[None, :]
              * np.exp(1j * w * f.u)[:, None])
    assert np.abs(f.G - g_true).max() < 1e-6

    mesh = integrate_representation(f)
    got = mesh.vertices.reshape(*f.shape, 3)
    xs, zs = sp["x_of_s"](s_v), sp["z_of_s"](s_v)
    want = np.stack([xs[None, :] * np.cos(w * f.u)[:, None],
                     xs[None, :] * np.sin(w * f.u)[:, None],
                     np.broadcast_to(zs[None, :], f.shape)], axis=-1)
    assert np.abs(got - want).max() < 1e-3


def test_line_data_inherits_translation_symmetry():
    data = BjorlingData(
        curve_kind="taylor",
        beta=np.array([[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]),
        normal=np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]),
        degree=12, center=0.0, s_halfwidth=1.0)
    f = solve_bjorling(data, 1.0, 0.5, n_u=101, n_v=81)
    # The data are invariant under sliding along the line, so the unique
    # solution is too; the profile transverse to the line is the reaper's.
    assert np.abs(np.ptp(f.G, axis=0)).max() < 1e-13
    assert np.abs(f.G - (-1j * np.tanh(f.v / 2.0))[None, :]).max() < 1e-9
    assert math.isnan(f.meta["branch_disagreement"])
    assert f.meta["certificate"] < 1e-6


def test_truncation_orders_agree_on_the_curve(lin1_bowl):
    lo, _ = circle_data(lin1_bowl, degree=8)
    hi, _ = circle_data(lin1_bowl, degree=12)
    f_lo = solve_bjorling(lo, 1.0, 0.05, n_u=101, n_v=21)
    f_hi = solve_bjorling(hi, 1.0, 0.05, n_u=101, n_v=21)
    jc = (f_lo.shape[1] - 1) // 2
    assert np.abs(f_lo.G[:, jc] - f_hi.G[:, jc]).max() < 1e-14
    gap = np.abs(f_lo.G - f_hi.G).max()
    assert 0.0 < gap < 1e-10  # the lower order loses only O(hw^9) terms


def test_data_validation_rejects_bad_normals():
    beta = np.array([[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="orthogonal"):
        BjorlingData(curve_kind="taylor", beta=beta,
                     normal=np.array([[0.6, 0.0], [0.0, 0.0], [0.8, 0.0]]))
    with pytest.raises(ValueError, match="unit length"):
        BjorlingData(curve_kind="taylor", beta=beta,
                     normal=np.array([[0.0, 0.0], [0.0, 0.0], [1.2, 0.0]]))
    with pytest.raises(ValueError, match="upper hemisphere"):
        BjorlingData(curve_kind="taylor", beta=beta,
                     normal=np.array([[0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]))


def test_solver_scope_guards(lin1_bowl):
    data, _ = circle_data(lin1_bowl)
    with pytest.raises(ValueError, match="k = 0"):
        solve_bjorling(data, 0.0, 0.1)
    with pytest.raises(ValueError, match="positive height"):
        grounded = BjorlingData(
            curve_kind="fourier", beta=data.beta * [[1.0], [1.0], [0.0]],
            normal=data.normal, degree=8, period=data.period)
        solve_bjorling(grounded, 3.0, 0.05)


def test_wide_strip_is_reported_as_divergence(lin1_bowl):
    data, _ = circle_data(lin1_bowl)
    with pytest.raises(NumericalError,
                       match="diverges|too wide"):
        solve_bjorling(data, 1.0, 3.5, n_u=101, n_v=41)
    with pytest.raises(NumericalError, match="diverges"):
        solve_bjorling(data, 1.0, 6.0, n_u=101, n_v=41)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_gauss_field_csv_round_trip(tmp_path):
    f = reaper_field(n_u=21, n_v=11)
    path = tmp_path / "field.csv"
    save_gauss_field(f, path)
    g = load_gauss_field(path)
    assert g.k_param == f.k_param
    assert np.array_equal(g.u, f.u) and np.array_equal(g.v, f.v)
    assert np.array_equal(g.G, f.G)


def test_gauss_field_csv_header_required(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("u,v,re_g,im_g\n0,0,0,0\n")
    with pytest.raises(ValueError, match="header"):
        load_gauss_field(path)


def test_bjorling_json_round_trip(lin1_bowl):
    data, _ = circle_data(lin1_bowl)
    doc = json.dumps({"curve_kind": data.curve_kind, "k": 1.0,
                      "degree": data.degree, "period": data.period,
                      "beta": data.beta.tolist(),
                      "normal": data.normal.tolist()})
    back, k = bjorling_from_json(doc)
    assert k == 1.0
    assert back.curve_kind == data.curve_kind
    assert back.degree == data.degree
    assert back.period == data.period
    assert np.array_equal(back.beta, data.beta)
    assert np.array_equal(back.normal, data.normal)
    with pytest.raises(ValueError, match="curve_kind"):
        bjorling_from_json("{\"k\": 1.0, \"beta\": [], \"normal\": []}")
