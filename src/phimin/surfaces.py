"""Surface construction and discrete verification oracles.

Curves become surfaces here (extruded cylinders, rotational surfaces, tilted
cylinders), and surfaces are checked against the governing equations by
discrete means that share no code with the solvers: finite-difference
residuals of the Euclidean and Lorentzian graph equations, a cotangent
mean-curvature estimate on triangle meshes, and a quadric-fitted shape
operator.  Mean curvature uses the trace convention (sum of principal
curvatures), under which the defining identity reads
``H = dphi(z) * <N, e3>`` with the stored per-vertex normals.
"""

from __future__ import annotations

import copy
import io
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, Sequence, Tuple

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline

from .profiles import WeightProfile
from .solvers import CATENARY_GRAPH, ProfileCurve

EUCLIDEAN = "euclidean"
LORENTZIAN = "lorentzian"


def ambient_sign(signature: str) -> float:
    """s of the ambient form dx^2 + dy^2 + s dz^2: 1.0 Euclidean, -1.0
    Lorentzian.  Products with s are exact, so a formula in s keeps bits."""
    if signature not in (EUCLIDEAN, LORENTZIAN):
        raise ValueError(f"unknown signature {signature!r}")
    return 1.0 if signature == EUCLIDEAN else -1.0


def metric_factor(s: float, ux, uy):
    """W^2 of a graph with slopes (ux, uy); spacelike where positive."""
    return 1.0 + s * ux ** 2 + s * uy ** 2


# Corner offsets (row, column) of each kind of triangle in a cell: on a
# grid (v00, v10, v11) and (v00, v11, v01); on a periodic grid, whose
# columns are a revolve's angles, (a, b, d) = (v00, v01, v11) and (a, d, c)
# = (v00, v11, v10), then the apex fan (apex, node (0, j + 1), node (0, j)).
_TRIANGLES = {False: (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1))),
              True: (((0, 0), (0, 1), (1, 1)), ((0, 0), (1, 1), (1, 0)),
                     (None, (0, 1), (0, 0)))}


@dataclass
class SurfaceMesh:
    """Triangulated surface with per-vertex unit normals on an (n, m) node
    grid: node (i, j) is vertex i * m + j, and each cell holds two
    triangles (``_TRIANGLES``).  A ``periodic`` grid closes its rows (the
    seam of ``revolve``), and an ``apex`` is one more vertex, the last,
    fanned to row 0.

    For Lorentzian (spacelike) meshes the normals are unit timelike for the
    bilinear form dx^2 + dy^2 - dz^2, i.e. N1^2 + N2^2 - N3^2 = -1.
    """

    vertices: np.ndarray
    normals: np.ndarray
    grid: Tuple[int, int]
    periodic: bool = False
    apex: bool = False
    signature: str = EUCLIDEAN
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.normals = np.asarray(self.normals, dtype=float)
        n, m = self.grid = tuple(int(k) for k in self.grid)
        if m < 2 + self.periodic or n < 2 - self.apex \
                or self.apex > self.periodic \
                or len(self.vertices) != n * m + self.apex:
            raise ValueError(f"{len(self.vertices)} vertices do not make a "
                             f"{n} x {m} grid of triangles"
                             + " with an apex" * self.apex)
        if self.normals.shape != self.vertices.shape:
            raise ValueError("need one normal per vertex")
        s = ambient_sign(self.signature)
        nrm2 = (self.normals[:, 0] ** 2 + self.normals[:, 1] ** 2
                + s * self.normals[:, 2] ** 2)
        if not np.allclose(nrm2, s, atol=1e-8):
            raise ValueError("normals are not unit for the declared signature")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        n, m = self.grid
        return 2 * (n - 1) * (m - (not self.periodic)) + m * self.apex

    @property
    def faces(self) -> np.ndarray:
        """The (faces, 3) vertex indices, all at once (``face_blocks``)."""
        return np.concatenate(list(self.face_blocks()))

    def face_blocks(self):
        """The faces a block at a time, in order: a grid's first triangles,
        then its second ones; a periodic grid's cells row by row, each
        row's first triangles before its second ones; then the apex fan."""
        pending = []
        for kind, _, corners in _corners(self):
            pending.append(np.stack(np.broadcast_arrays(*corners), axis=-1))
            if not (self.periodic and kind == 0):
                yield np.stack(pending, axis=1).reshape(-1, 3)
                pending = []

    def vertex_blocks(self):
        """Positions beside normals, (rows, 6), ``_CHUNK_ROWS`` vertices at
        a time: no second vertex array spans the mesh."""
        for lo in range(0, self.n_vertices, _CHUNK_ROWS):
            block = slice(lo, lo + _CHUNK_ROWS)
            yield np.hstack([self.vertices[block], self.normals[block]])

    def boundary_mask(self) -> np.ndarray:
        """True for vertices on an edge owned by a single face: the first
        and last node rows (an apex closes the first), and the first and
        last columns unless the grid is periodic."""
        n, m = self.grid
        mask = np.zeros(self.n_vertices, dtype=bool)
        nodes = mask[:n * m].reshape(n, m)
        nodes[0] = not self.apex
        nodes[-1] = True
        if not self.periodic:
            nodes[:, [0, -1]] = True
        return mask


def _corners(mesh: SurfaceMesh, values: np.ndarray = None):
    """(kind, rows, corners) for blocks of about ``_CHUNK_ROWS`` faces, in
    the order of ``face_blocks``: ``values`` (one per vertex along the last
    axis; the vertex indices when None) at the corners of the triangles of
    ``kind`` in the cell rows ``rows``, as slices of the block's node rows
    (on a periodic grid a copy with column 0 repeated after the last)."""
    n, m = mesh.grid
    cols, step = m - (not mesh.periodic), _block_rows(mesh)
    blocks = [slice(lo, min(lo + step, n - 1)) for lo in range(0, n - 1, step)]
    plan = [(rows, (0, 1)) for rows in blocks] if mesh.periodic \
        else [(rows, (kind,)) for kind in (0, 1) for rows in blocks]
    plan += [(slice(0, 1), (2,))] * mesh.apex
    apex = np.full((1, 1), mesh.n_vertices - 1) if values is None \
        else values[..., -1:, None]
    for rows, kinds in plan:
        lo, hi, r = rows.start, min(rows.stop + 1, n), rows.stop - rows.start
        nodes = np.arange(lo * m, hi * m) if values is None \
            else values[..., lo * m:hi * m]
        nodes = nodes.reshape(nodes.shape[:-1] + (-1, m))
        if mesh.periodic:
            nodes = np.concatenate([nodes, nodes[..., :1]], axis=-1)
        for kind in kinds:
            yield kind, rows, [
                apex if at is None
                else nodes[..., at[0]:at[0] + r, at[1]:at[1] + cols]
                for at in _TRIANGLES[mesh.periodic][kind]]


def _block_rows(mesh: SurfaceMesh) -> int:
    """Cell rows in a block of about ``_CHUNK_ROWS`` faces of ``_corners``."""
    return max(1, _CHUNK_ROWS // ((1 + mesh.periodic)
                                  * (mesh.grid[1] - (not mesh.periodic))))


def uniform_spacing(axis, name: str) -> float:
    """Step of a uniform grid axis: 1-D, at least 3 nodes, strictly
    increasing, and every step within 1e-8 (relative) of the first."""
    axis = np.asarray(axis, dtype=float)
    if axis.ndim != 1 or len(axis) < 3:
        raise ValueError(f"{name} grid must be 1-D with at least 3 nodes")
    d = np.diff(axis)
    # steps this close to a positive first step are all positive
    if not (d[0] > 0 and np.allclose(d, d[0], rtol=1e-8, atol=0.0)):
        raise ValueError(f"{name} grid must be uniform and strictly "
                         "increasing")
    return float(d[0])


@dataclass
class GraphPatch:
    """Heights on a uniform rectangular grid: u[i, j] = u(x[i], y[j]),
    with steps ``hx`` and ``hy`` (see ``uniform_spacing``)."""

    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    signature: str = EUCLIDEAN
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        self.hx = uniform_spacing(self.x, "x")
        self.hy = uniform_spacing(self.y, "y")
        if self.u.shape != (len(self.x), len(self.y)):
            raise ValueError("u must have shape (len(x), len(y))")
        s = ambient_sign(self.signature)
        if s < 0.0:
            _, ux, uy = _interior_gradient(self.u, self.hx, self.hy)
            if np.any(metric_factor(s, ux, uy) <= 0.0):
                raise ValueError("Lorentzian patch is not spacelike "
                                 "(|grad u| >= 1 at an interior node)")

    def gradients(self) -> Tuple[np.ndarray, np.ndarray]:
        """Central-difference gradient fields (second order up to the
        border; one-sided stencils there)."""
        ux = np.gradient(self.u, self.hx, axis=0, edge_order=2)
        uy = np.gradient(self.u, self.hy, axis=1, edge_order=2)
        return ux, uy

    def to_mesh(self) -> "SurfaceMesh":
        """Triangulated graph with downward (Euclidean) or future-pointing
        timelike (Lorentzian) unit normals."""
        verts = grid_rows(self.x, self.y, self.u)[1]
        ux, uy = self.gradients()
        gx, gy = ux.ravel(), uy.ravel()
        s = ambient_sign(self.signature)
        w = np.sqrt(metric_factor(s, gx, gy))
        normals = np.column_stack([gx / w, gy / w, -s / w])
        return SurfaceMesh(verts, normals, self.u.shape,
                           signature=self.signature)


def staircase(p: np.ndarray, q: np.ndarray, hx: float, hy: float,
              i0: int = 0, j0: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Both staircase routes of the trapezoid path integral of
    ``p dx + q dy`` from node (i0, j0) of a uniform grid to every node.

    Route A runs along x on the row j0 and then along y; route B along y on
    the column i0 and then along x.  The routes agree up to quadrature
    error exactly where the form is closed."""
    cx = cumulative_trapezoid(p, dx=hx, axis=0, initial=0.0)
    cy = cumulative_trapezoid(q, dx=hy, axis=1, initial=0.0)
    a = (cx[:, j0] - cx[i0, j0])[:, None] + (cy - cy[:, j0][:, None])
    b = (cy[i0, :] - cy[i0, j0])[None, :] + (cx - cx[i0, :][None, :])
    return a, b


# ---------------------------------------------------------------------------
# surface constructions
# ---------------------------------------------------------------------------

def extrude_cylinder(curve: ProfileCurve, y_range: Sequence[float],
                     ny: int) -> SurfaceMesh:
    """Product of a planar graph curve with an interval in the y-direction.

    Vertices (x_i, y_j, u_i); normals are the downward graph normals
    (sin th, 0, -cos th), constant along rulings.
    """
    x, u = curve.graph()
    y0, y1 = float(y_range[0]), float(y_range[1])
    if not y1 > y0:
        raise ValueError("degenerate y range")
    if ny < 2:
        raise ValueError("need at least two samples across the rulings")
    y = np.linspace(y0, y1, ny)
    nx = len(x)
    verts = grid_rows(x, y, np.repeat(u[:, None], ny, axis=1))[1]
    nrm = np.column_stack([np.sin(curve.theta), np.zeros(nx),
                           -np.cos(curve.theta)])
    normals = np.repeat(nrm, ny, axis=0)
    return SurfaceMesh(verts, normals, (nx, ny), meta={"kind": "cylinder"})


def revolve(curve: ProfileCurve, nt: int) -> SurfaceMesh:
    """Surface of revolution (x(s) cos t, x(s) sin t, z(s)) around the z-axis.

    Normals are the rotated curve normals (-sin th cos t, -sin th sin t,
    cos th).  A leading axis sample (x = 0) becomes a single fan vertex with
    normal (0, 0, 1).
    """
    if nt < 3:
        raise ValueError("need at least 3 angular samples")
    x, z, th = curve.x, curve.z, curve.theta
    if np.any(x < -1e-12):
        raise ValueError("negative radius along the generating curve")
    i0 = has_apex = bool(x[0] < 1e-12)
    t = np.linspace(0.0, 2.0 * math.pi, nt, endpoint=False)
    cs = np.column_stack([np.cos(t), np.sin(t)])
    rings = len(x) - i0
    verts = np.empty((rings * nt + has_apex, 3))
    normals = np.empty_like(verts)
    # points and normals turn alike: (r cos t, r sin t, a) per ring
    for out, r, a in ((verts, x[i0:], z[i0:]),
                      (normals, -np.sin(th[i0:]), np.cos(th[i0:]))):
        nodes = out[:rings * nt].reshape(rings, nt, 3)
        nodes[:, :, :2] = r[:, None, None] * cs
        nodes[:, :, 2] = a[:, None]
    if has_apex:
        verts[-1] = (0.0, 0.0, z[0])
        normals[-1] = (0.0, 0.0, 1.0)
    return SurfaceMesh(verts, normals, (rings, nt), periodic=True,
                       apex=has_apex, meta={"kind": "revolved"})


def tilt_cylinder(curve: ProfileCurve, theta: float,
                  y_range: Sequence[float] = (-1.0, 1.0),
                  ny: int = 0) -> SurfaceMesh:
    """Apply psi -> psi + ((1-cos th)/cos th) <psi,e1> e1 + tan(th) e1 x psi
    to an extruded cylinder.  Componentwise that is
    (x, y, z) -> (x/cos th, y - tan(th) z, tan(th) y + z), the homothety of
    ratio 1/cos(theta) composed with the rotation by theta about the x-axis.

    The transformed surface solves the same weighted equation only when
    dphi is constant (the map rescales heights along the rulings
    otherwise), so a positive angle is refused unless dphi takes one value
    along the curve; its normals are the rotated originals and its mean
    curvature is cos(theta) times the original at matched vertices.
    """
    if not 0.0 <= theta < math.pi / 2:
        raise ValueError("tilt angle must lie in [0, pi/2)")
    if curve.curve_kind != CATENARY_GRAPH:
        raise ValueError("tilting is defined for catenary graph curves")
    if theta > 0.0 and not np.ptp(curve.profile.dphi(curve.z)) == 0.0:
        raise ValueError("a tilt maps solutions to solutions only where "
                         "dphi is constant, and dphi varies along the curve")
    if ny <= 0:
        ny = max(2, curve.n_samples // 2)
    base = extrude_cylinder(curve, y_range, ny)
    c, s = math.cos(theta), math.sin(theta)
    t = s / c
    v = base.vertices
    verts = np.column_stack([v[:, 0] / c,
                             v[:, 1] - t * v[:, 2],
                             t * v[:, 1] + v[:, 2]])
    n = base.normals
    normals = np.column_stack([n[:, 0],
                               c * n[:, 1] - s * n[:, 2],
                               s * n[:, 1] + c * n[:, 2]])
    return SurfaceMesh(verts, normals, base.grid,
                       meta={"kind": "tilted_cylinder", "theta": theta})


# ---------------------------------------------------------------------------
# graph-equation residuals (independent finite-difference oracles)
# ---------------------------------------------------------------------------

def _interior_gradient(u: np.ndarray, hx: float, hy: float):
    """Node values and second-order central differences (u_x, u_y) of
    ``u`` on the interior nodes of its grid (the first two axes; a
    trailing axis is carried along).  These are, bit for bit, the interior
    rows of numpy's ``gradient`` with ``edge_order=2``."""
    c = u[1:-1, 1:-1]
    ux = (u[2:, 1:-1] - u[:-2, 1:-1]) / (2 * hx)
    uy = (u[1:-1, 2:] - u[1:-1, :-2]) / (2 * hy)
    return c, ux, uy


def _interior_derivatives(u: np.ndarray, hx: float, hy: float):
    """Node values and second-order central differences (u_x, u_y, u_xx,
    u_yy, u_xy) of ``u`` on the interior nodes of its grid."""
    c, ux, uy = _interior_gradient(u, hx, hy)
    uxx = (u[2:, 1:-1] - 2 * c + u[:-2, 1:-1]) / hx ** 2
    uyy = (u[1:-1, 2:] - 2 * c + u[1:-1, :-2]) / hy ** 2
    uxy = (u[2:, 2:] - u[2:, :-2] - u[:-2, 2:] + u[:-2, :-2]) / (4 * hx * hy)
    return c, ux, uy, uxx, uyy, uxy


def fe_residual(patch: GraphPatch, profile: WeightProfile) -> np.ndarray:
    """Pointwise residual of the Euclidean weighted graph equation
    (1+u_x^2) u_yy + (1+u_y^2) u_xx - 2 u_x u_y u_xy - dphi(u) W^2,
    W^2 = 1 + u_x^2 + u_y^2, by central differences.  NaN on the border.
    """
    return _graph_residual(patch, profile, 1.0)


def lfe_residual(patch: GraphPatch, profile: WeightProfile) -> np.ndarray:
    """Pointwise residual of the Lorentzian (spacelike) graph equation
    (1-u_x^2) u_yy + (1-u_y^2) u_xx + 2 u_x u_y u_xy + dphi(u) W^2,
    W^2 = 1 - u_x^2 - u_y^2 > 0.  NaN on the border.

    Raises when the spacelike condition fails at any interior stencil node.
    """
    return _graph_residual(patch, profile, -1.0)


def _graph_residual(patch: GraphPatch, profile: WeightProfile,
                    s: float) -> np.ndarray:
    """The graph equation's residual for the sign ``s`` of the ambient form
    (1 Euclidean, -1 Lorentzian); multiplying by s = +-1 is exact."""
    c, ux, uy, uxx, uyy, uxy = _interior_derivatives(patch.u, patch.hx,
                                                     patch.hy)
    w2 = metric_factor(s, ux, uy)
    if np.any(w2 <= 0.0):
        raise ValueError("patch is not spacelike on the residual stencil")
    out = np.full_like(patch.u, math.nan)
    out[1:-1, 1:-1] = ((1.0 + s * ux ** 2) * uyy + (1.0 + s * uy ** 2) * uxx
                       - 2.0 * s * ux * uy * uxy
                       - s * np.asarray(profile.dphi(c), dtype=float) * w2)
    return out


def curvature_from_derivatives(signature: str, ux, uy, uxx, uyy, uxy
                               ) -> Tuple[np.ndarray, np.ndarray]:
    """(mean, Gauss) curvature of a graph from its first and second
    derivative fields, however those were estimated.

    Euclidean mean curvature is signed with the downward normal, so
    solutions satisfy H = dphi(u) <N, e3> = -dphi(u)/W; the Lorentzian one
    with the future-pointing normal, so solutions again satisfy
    H = -dphi(u)/W (the Lorentz pairing of that normal with e3 is -1/W).
    Spacelike graphs get the intrinsic Gauss curvature -det(Hess u)/W^4 of
    the induced metric; the caller guarantees spacelike slopes.
    """
    s = ambient_sign(signature)
    det = uxx * uyy - uxy ** 2
    w2 = metric_factor(s, ux, uy)
    num = (1.0 + s * uy ** 2) * uxx + (1.0 + s * ux ** 2) * uyy \
        - 2.0 * s * ux * uy * uxy
    return -s * num / w2 ** 1.5, s * det / w2 ** 2


def _graph_curvatures(patch: GraphPatch) -> Tuple[np.ndarray, np.ndarray]:
    _, ux, uy, uxx, uyy, uxy = _interior_derivatives(patch.u, patch.hx,
                                                     patch.hy)
    h, k = curvature_from_derivatives(patch.signature, ux, uy, uxx, uyy, uxy)
    hh = np.full_like(patch.u, math.nan)
    kk = np.full_like(patch.u, math.nan)
    hh[1:-1, 1:-1] = h
    kk[1:-1, 1:-1] = k
    return hh, kk


def graph_mean_curvature(patch: GraphPatch) -> np.ndarray:
    """Mean curvature of the graph from central differences, NaN on the
    border; see curvature_from_derivatives for the sign conventions."""
    return _graph_curvatures(patch)[0]


def graph_gauss_curvature(patch: GraphPatch) -> np.ndarray:
    """Gauss curvature of the graph from central differences, NaN on the
    border; see curvature_from_derivatives for the sign conventions."""
    return _graph_curvatures(patch)[1]


# ---------------------------------------------------------------------------
# discrete curvature on meshes
# ---------------------------------------------------------------------------

def _cotangent_curvature(mesh: SurfaceMesh) -> np.ndarray:
    """Discrete mean-curvature vector (trace convention) per vertex:
    (1/(2 A_i)) sum_j (cot a_ij + cot b_ij) (p_j - p_i), with barycentric
    vertex areas.  Rows for boundary vertices are unreliable and the caller
    masks them.

    It runs on coordinate columns: corner c of a face with the edges
    E_c = p_{c+1} - p_c (mod 3) spans E_c and -E_{c+2} and weights E_{c+1}.
    The corner weights and terms are formed from slices of the node grid
    over blocks of cell rows (``_corners``); the weights, a third of each
    face area (until the vertex areas are summed) and the terms are the
    only arrays as long as the faces.  Sums keep the order of ``np.cross``
    and ``norm`` on rows, and each vertex sum takes its terms in the order
    of 1-D ``ufunc.at`` over the face list (``_scatter``)."""
    n, m = mesh.grid
    shapes = [(n - 1, m - (not mesh.periodic))] * 2 + [(1, m)] * mesh.apex
    half = [np.empty((3,) + s) for s in shapes]  # minus half the cotangent
    third = [np.empty(s) for s in shapes]  # a third of the face area
    for kind, rows, corners in _corners(mesh, mesh.vertices.T):
        _corner_weights(corners, half[kind][:, rows], third[kind][rows])
    area = np.zeros(mesh.n_vertices)
    for c in range(3):
        _scatter(mesh, area, third, c, np.add)
    del third
    area[area < 1e-300] = 1e-300
    vec = np.zeros((3, mesh.n_vertices))
    t = [np.empty(s) for s in shapes]
    for acc, q in zip(vec, mesh.vertices.T):
        blocks = list(_corners(mesh, q))
        for c in range(3):
            for kind, rows, p in blocks:
                term = t[kind][rows]
                np.subtract(p[(c + 2) % 3], p[(c + 1) % 3], out=term)
                term *= half[kind][c, rows]  # E_{c+1}, weighted
            _scatter(mesh, acc, t, (c + 1) % 3, np.subtract)
            _scatter(mesh, acc, t, (c + 2) % 3, np.add)
    del half, t
    vec /= area
    return vec.T


def _scatter(mesh: SurfaceMesh, acc: np.ndarray, terms: list, corner: int,
             ufunc: np.ufunc) -> None:
    """``acc[v] = ufunc(acc[v], term)`` for the term of each triangle
    (``terms[kind]``, one per cell) at its ``corner`` v, by slices of the
    node grid in the order of ``ufunc.at`` over the face list: a vertex
    takes the triangle of the lower cell row first, then the cell's first
    triangle, and the fan last (the apex, on every fan, by ``ufunc.at``)."""
    n, m = mesh.grid
    nodes = acc[:n * m].reshape(n, m)
    tris = _TRIANGLES[mesh.periodic]
    for kind in sorted((0, 1), key=lambda k: -tris[k][corner][0]) \
            + [2] * mesh.apex:
        t, at = terms[kind], tris[kind][corner]
        if at is None:
            ufunc.at(acc, np.full(t.size, len(acc) - 1), t.ravel())
            continue
        (di, dj), (r, cols) = at, t.shape
        wrap = max(0, dj + cols - m)  # the seam's cells reach column 0
        view = nodes[di:di + r, dj:dj + cols - wrap]
        ufunc(view, t[:, :cols - wrap], out=view)
        if wrap:
            view = nodes[di:di + r, :wrap]
            ufunc(view, t[:, cols - wrap:], out=view)


def _corner_weights(p: list, half: np.ndarray, third: np.ndarray) -> None:
    """Minus half the cotangent at each corner of the triangles whose
    corners have the coordinates ``p[c]`` (3, ...) into ``half`` (3, ...),
    and a third of their areas into ``third``."""
    edge = [p[(c + 1) % 3] - p[c] for c in range(3)]  # E_c by coordinate
    for c in range(3):
        (ax, ay, az), (bx, by, bz) = edge[c], edge[(c + 2) % 3]
        # |E_{c+2} x E_c| is |E_c x -E_{c+2}| bit for bit
        denom = np.sqrt((by * az - bz * ay) ** 2 + (bz * ax - bx * az) ** 2
                        + (bx * ay - by * ax) ** 2)
        if c == 0:
            third[:] = 0.5 * denom / 3.0
        denom[denom < 1e-300] = 1e-300
        half[c] = 0.5 * ((ax * bx + ay * by + az * bz) / denom)


# the fewest node rows a window of the mesh oracle keeps: its two halo rows
# add at most an eighth to the cells it weighs
_WINDOW_ROWS = 8


def mean_curvature_residual(mesh: SurfaceMesh,
                            profile: WeightProfile) -> np.ndarray:
    """Per-vertex residual H - dphi(z) <N, e3> with the discrete cotangent
    mean curvature (trace convention) projected on the stored normals.

    Boundary vertices get NaN; so does a fan apex if the mesh has one.

    The curvature runs over windows of node rows (``_row_windows``), so
    that only the residual spans the mesh.  Every cell of a kept vertex
    lies in its window, and ``_scatter`` adds its terms in the same order
    there, so the result is the whole mesh's bit for bit.
    """
    if mesh.signature != EUCLIDEAN:
        raise ValueError("discrete curvature residual is Euclidean-only")
    res = np.empty(mesh.n_vertices)
    for kept, window, own in _row_windows(mesh):
        nrm = mesh.normals[kept]
        res[kept] = (_cotangent_curvature(window)[own] * nrm).sum(axis=1)
        res[kept] -= np.asarray(profile.dphi(mesh.vertices[kept, 2]),
                                dtype=float) * nrm[:, 2]
    res[mesh.boundary_mask()] = math.nan
    if mesh.apex:
        res[-1] = math.nan  # the fan vertex area is uneven; skip it
    return res


def _row_windows(mesh: SurfaceMesh):
    """(kept, window, own) for windows of node rows [r0, r1) that cover
    the grid: the vertices ``kept`` of those rows, the mesh ``window`` over
    them and one more row on each side within the grid, and the vertices
    ``own`` of the kept rows in the window.  A window keeps as many rows
    as make its cells whole blocks of ``_corners`` (about ``_CHUNK_ROWS``
    nodes: one block of each kind on a grid, two of both kinds on a
    periodic grid), but at least ``_WINDOW_ROWS``, and the last window
    takes a remainder of fewer.  The window's arrays are views of the
    mesh's, but for the window of row 0 on a mesh with an apex, which
    copies its rows to append the apex; no window checks its normals
    again."""
    n, m = mesh.grid
    step = max(_WINDOW_ROWS, (1 + mesh.periodic) * _block_rows(mesh) - 1)
    r0 = 0
    while r0 < n:
        r1 = r0 + step if r0 + step + _WINDOW_ROWS <= n else n
        w0, w1 = max(r0 - 1, 0), min(r1 + 1, n)
        window = copy.copy(mesh)
        window.grid, window.apex = (w1 - w0, m), mesh.apex and w0 == 0
        rows = slice(w0 * m, w1 * m)
        window.vertices, window.normals = (
            np.concatenate([a[rows], a[-1:]]) if window.apex else a[rows]
            for a in (mesh.vertices, mesh.normals))
        yield slice(r0 * m, r1 * m), window, slice((r0 - w0) * m,
                                                   (r1 - w0) * m)
        r0 = r1


# A grid node's one-ring on either triangulation of ``_TRIANGLES``, as
# (row, column) offsets, and its two-ring: the 18 distinct sums of two
# one-ring offsets other than (0, 0).
_RING = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))
_TWO_RING = sorted({(a + c, b + d) for a, b in _RING for c, d in _RING}
                   - {(0, 0)})
_FIT_BLOCK = 2048
_FIT_KAPPA = 1e8


def second_fundamental_norm(mesh: SurfaceMesh, profile: WeightProfile
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-vertex (|S|, |S|/dphi(z)) with |S| the Frobenius norm of the
    shape operator, estimated by quadric fitting over two neighbor rings.

    The two-rings come from the node grid (``_two_rings``), about 2048
    vertices at a time, padded with zero rows.  Each fit is the
    minimum-norm least-squares solution with the cutoff of
    ``np.linalg.lstsq`` (singular values at most eps * max(rows, 5) of the
    largest are dropped).  A Householder QR batched over the block gives
    it wherever the certificate ||R||_F ||R^-1||_F is at most 1e8, far
    below the cutoff's 1 / (eps * max(rows, 5)), so that no singular value
    is dropped; every other vertex, a non-finite one included, is fitted
    by the SVD.  Boundary vertices, and vertices with fewer than five
    two-ring neighbors, get NaN.  This is a diagnostic; no bound is
    asserted.
    """
    p, nrm = mesh.vertices.T.copy(), mesh.normals
    s_norm = np.full(mesh.n_vertices, math.nan)
    for vs, ring in _two_rings(mesh):
        count = (ring != vs).sum(axis=0)
        # tangent frames, then offsets in frame coordinates, (ring, block)
        nv = nrm[vs]
        t1 = np.cross(nv, [1.0, 0.0, 0.0])
        flat = np.linalg.norm(t1, axis=1) < 1e-6
        t1[flat] = np.cross(nv[flat], [0.0, 1.0, 0.0])
        t1 /= np.linalg.norm(t1, axis=1)[:, None]
        t2 = np.cross(nv, t1)
        d = [q[ring] - q[vs] for q in p]
        xi, eta, zeta = (d[0] * f[:, 0] + d[1] * f[:, 1] + d[2] * f[:, 2]
                         for f in (t1, t2, nv))
        a, b, c, dd, ee = _quadric_fit(xi, eta, zeta, count)
        # S = I^-1 II, with the first fundamental form I of the fitted
        # graph at the origin inverted by its adjugate (det I = g)
        g = 1 + dd * dd + ee * ee
        S = [(1 + ee * ee) * a - dd * ee * b, (1 + ee * ee) * b - dd * ee * c,
             (1 + dd * dd) * b - dd * ee * a, (1 + dd * dd) * c - dd * ee * b]
        s_norm[vs] = np.where(count >= 5,
                              np.sqrt(sum(x * x for x in S)) / g ** 1.5,
                              math.nan)
    dphi = np.asarray(profile.dphi(mesh.vertices[:, 2]), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = s_norm / np.abs(dphi)
    return s_norm, ratio


def _two_rings(mesh: SurfaceMesh):
    """Blocks (vs, ring) of the interior vertices ``vs`` and their
    two-rings, ``ring[k]`` the k-th member of each, padded with the vertex
    itself.  A node's two-ring is the ``_TWO_RING`` stencil clipped to the
    grid; a periodic grid wraps its columns, and drops the offsets that
    alias others (dj = +-2 when m <= 4).  An apex meets all of row 0, so
    row 0 adds the apex and all of row 0, row 1 adds the apex, and the
    apex's own two-ring is rows 0 and 1: these rows and the apex make a
    block of their own."""
    n, m = mesh.grid
    off = np.array(_TWO_RING)
    if mesh.periodic:
        off = np.unique(np.column_stack([off[:, 0], off[:, 1] % m]), axis=0)
    first = 1
    if mesh.apex:
        # the interior of rows 0 and 1, then the apex: row 0's stencil
        # members in row 0 give way to the whole row (``fan``)
        first = min(2, n - 1)
        v, ring = _stencil_ring(mesh, np.arange(first), off)
        row0 = v < m
        fan = np.where(row0, np.arange(m)[:, None], v)
        ring = np.concatenate([np.where(row0 & (ring < m), v, ring),
                               np.full((1, len(v)), n * m), fan])
        vs = np.append(v, n * m)
        own = np.arange(min(n, 2) * m)
        block = np.repeat(vs[None], max(len(ring), len(own)), axis=0)
        block[:len(ring), :-1] = ring
        block[:len(own), -1] = own
        yield vs, block
    step = max(1, _FIT_BLOCK // m)
    for lo in range(first, n - 1, step):
        yield _stencil_ring(mesh, np.arange(lo, min(lo + step, n - 1)), off)


def _stencil_ring(mesh: SurfaceMesh, rows: np.ndarray, off: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """The interior nodes v of the node rows ``rows`` and the nodes at the
    offsets ``off`` from each, (offsets, nodes), or v where off the grid."""
    n, m = mesh.grid
    cols = np.arange(m) if mesh.periodic else np.arange(1, m - 1)
    v = rows[:, None] * m + cols
    i = off[:, :1] + rows
    j = off[:, 1:] + cols
    if mesh.periodic:
        j %= m
    inside = ((i >= 0) & (i < n))[:, :, None] & ((j >= 0) & (j < m))[:, None]
    ring = np.where(inside, i[:, :, None] * m + j[:, None], v)
    return v.ravel(), ring.reshape(len(off), -1)


def _quadric_fit(xi: np.ndarray, eta: np.ndarray, zeta: np.ndarray,
                 count: np.ndarray) -> np.ndarray:
    """The coefficients (5, block) of zeta ~ a xi^2/2 + b xi eta + c eta^2/2
    + d xi + e eta over the rows of each column, by Householder QR and back
    substitution vectorized over the block, or by the SVD where the QR's
    certificate ||R||_F ||R^-1||_F is not at most ``_FIT_KAPPA``."""
    a = _design(xi, eta, zeta)
    r = np.zeros((5, 5, a.shape[2]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(5):
            x = a[k, k:]
            norm = np.sqrt(np.einsum("kb,kb->b", x, x))
            alpha = np.where(x[0] > 0, -norm, norm)
            beta = 1.0 / (norm * (norm + np.abs(x[0])))
            x[0] -= alpha  # the reflector, ||x||^2 = 2 / beta
            y = a[k + 1:, k:]
            y -= x * (beta * np.einsum("kb,jkb->jb", x, y))[:, None]
            r[k, k], r[k, k + 1:] = alpha, y[:4 - k, 0]
        # back substitution on [I | Q^T zeta] gives R^-1 and the fit at once
        rhs = np.zeros((5, 6, a.shape[2]))
        rhs[range(5), range(5)] = 1.0
        rhs[:, 5] = a[5, :5]
        for i in range(4, -1, -1):
            rhs[i] -= np.einsum("kb,kjb->jb", r[i, i + 1:], rhs[i + 1:])
            rhs[i] /= r[i, i]
        inv, w = rhs[:, :5], rhs[:, 5]
        kappa = np.sqrt(np.einsum("ijb,ijb->b", r, r)
                        * np.einsum("ijb,ijb->b", inv, inv))
    svd = ~(kappa <= _FIT_KAPPA)
    if svd.any():
        a = _design(xi[:, svd], eta[:, svd], zeta[:, svd]).T
        u, sv, vt = np.linalg.svd(a[..., :5], full_matrices=False)
        cut = np.finfo(float).eps * np.maximum(count[svd], 5) * sv[:, 0]
        z = np.divide(np.einsum("bki,bk->bi", u, a[..., 5]), sv,
                      out=np.zeros_like(sv), where=sv > cut[:, None])
        w[:, svd] = np.einsum("bji,bj->ib", vt, z)
    return w


def _design(xi: np.ndarray, eta: np.ndarray, zeta: np.ndarray
            ) -> np.ndarray:
    """The quadric's five columns and the right-hand side, (6, rows, block)."""
    return np.stack([0.5 * xi ** 2, xi * eta, 0.5 * eta ** 2, xi, eta, zeta])


# ---------------------------------------------------------------------------
# patch builders from curves
# ---------------------------------------------------------------------------

def cylinder_patch(curve: ProfileCurve, x_halfwidth: float, y_halfwidth: float,
                   nx: int, ny: int) -> GraphPatch:
    """Uniform-grid graph u(x, y) = u(x) from a catenary curve (y-invariant)."""
    cx, cu = curve.graph()
    if x_halfwidth > cx[-1] + 1e-12:
        raise ValueError("patch wider than the solved curve")
    spl = CubicSpline(cx, cu)
    x = np.linspace(-x_halfwidth, x_halfwidth, nx)
    y = np.linspace(-y_halfwidth, y_halfwidth, ny)
    u = np.repeat(spl(x)[:, None], ny, axis=1)
    return GraphPatch(x, y, u, signature=EUCLIDEAN,
                      meta={"source": "cylinder_patch"})


def rotational_patch(curve: ProfileCurve, halfwidth: float,
                     nx: int, ny: int) -> GraphPatch:
    """Uniform-grid graph u(x, y) = z(r), r = hypot(x, y), from a rotational
    graph curve (bowl; clamped even slope at the axis)."""
    r, zu = curve.x, curve.z
    if halfwidth * math.sqrt(2.0) > r[-1] + 1e-12:
        raise ValueError("patch corner exceeds the solved radius")
    spl = CubicSpline(r, zu, bc_type=((1, 0.0), "not-a-knot"))
    x = np.linspace(-halfwidth, halfwidth, nx)
    y = np.linspace(-halfwidth, halfwidth, ny)
    R = np.hypot(x[:, None], y[None, :])
    return GraphPatch(x, y, spl(R), signature=EUCLIDEAN,
                      meta={"source": "rotational_patch"})


# ---------------------------------------------------------------------------
# artifact text: every numeric artifact (curve, patch, field and mesh CSV,
# OBJ, PLY) is written by write_header and write_rows in one float format,
# 17 significant digits in lowercase scientific notation
# ---------------------------------------------------------------------------

FLOAT = "%.16e"
_CHUNK_ROWS = 8192

# Array text.  A block of rows becomes a (rows, bytes) uint8 matrix holding
# the text with a NUL wherever a byte is optional (the sign of a %.16e value,
# the leading zeros of a %d value), and the NULs are dropped at the end.
# Digits come from a table of four-digit words viewed as uint32.
#
# A %.16e value x = q * 10^(d-16) with q the 17-digit integer is found in
# binary64 for decimal exponents d in -6..16, where 10^k, k = 16 - d, is
# exact (5^22 < 2^53): p = |x| * 10^k rounds once, and Dekker's two-product
# (Numer. Math. 18, 1971) gives its error e exactly, so that q = p + rint(e)
# for p > 2^53.  A value the array code does not print (non-finite, d
# outside -6..16, q outside [1e16, 1e17), a negative %d) is formatted by %.
_CONVERSION = re.compile(r"(%\.16e|%d)")
_FLOAT_BYTES = 23  # sign, digit, ".", 16 digits, "e", sign, 2 digits
_RUN_SHARE = 2  # runs pay where at most half of a column's rows start one
_P10 = np.array([10 ** k for k in range(23)], dtype=np.float64)
_P10_HI = _P10 * 134217729.0 - (_P10 * 134217729.0 - _P10)
_P10_LO = _P10 - _P10_HI


def _words(*columns) -> np.ndarray:
    """One uint32 word per row of four byte ``columns``."""
    rows = np.stack(np.broadcast_arrays(*columns), axis=1).astype(np.uint8)
    return rows.view(np.uint32).ravel()


_QUAD = (np.arange(10 ** 4, dtype=np.int16)[:, None]
         // np.array([1000, 100, 10, 1], dtype=np.int16) % 10 + 48
         ).astype(np.uint8)
_blank = np.logical_and.accumulate(_QUAD == 48, axis=1)
_blank[:, 3] = False
# word 0: four NULs; word 1 + g: the four-digit group g with its leading
# zeros as NULs (0 keeps its last digit); word 10001 + g: all four digits
_GROUP = np.concatenate([np.zeros(1, dtype=np.uint32),
                         _words(*np.where(_blank, 0, _QUAD).T),
                         _words(*_QUAD.T)])
_DIGITS = _GROUP[10001:]
# the words of a %.16e value: sign, digit, ".", digit by 100 * signbit plus
# the first two digits; three digits and "e" by the last three digits;
# exponent sign and digits by k = 16 - exponent, for exponents -6..16
_HEAD = _words(np.repeat([0, 45], 100), np.tile(_QUAD[:100, 2], 2), 46,
               np.tile(_QUAD[:100, 3], 2))
_LAST3 = _words(*_QUAD[:1000, 1:].T, 101)
_exp = 16 - np.arange(23)
_EXPONENT = _words(np.where(_exp < 0, 45, 43), 48 + abs(_exp) // 10,
                   48 + abs(_exp) % 10, 0)
del _QUAD, _blank, _exp


def _float_text(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``%.16e`` of ``x`` into the byte columns ``out``; returns the
    mask of values left to ``%``."""
    a = np.abs(x)
    zero = a == 0
    ok = (a > 1e-6) & (a < 1e17)  # fl(1e-6) is below 1e-6
    a[~ok] = 1.0
    k = np.clip(16 - np.floor(np.log10(a)).astype(np.int64), 0, 22)
    p, e = _product(a, k)
    # judge p + e itself: the double below 0.1 scales to 1e16 - 0.83, which
    # rounds to p = 1e16 with e < 0; k stays <= 22 as |x| > 1e-6
    below = np.flatnonzero((p < 1e16) | ((p == 1e16) & (e < 0)))
    k[below] += 1
    p[below], e[below] = _product(a[below], k[below])
    # p >= 1e16 is even, so rint's ties to even round p + e as % does
    q = (p.astype(np.int64) + np.rint(e).astype(np.int64)).view(np.uint64)
    ok &= q - 10 ** 16 < 9 * 10 ** 16  # q must have 17 digits
    # zeros print as q = 0, k = 16; the text of values left to % is replaced
    q *= ok
    head, low = _split(q, 10 ** 7)
    top, high = _split(head, 10 ** 8)
    words = np.empty((len(x), 6), dtype=np.uint32)
    words[:, 0] = _HEAD.take(top + np.signbit(x) * np.uint64(100))
    for col, part in enumerate(_split(high, 10 ** 4), 1):
        words[:, col] = _DIGITS.take(part)
    third, last = _split(low, 1000)
    words[:, 3] = _DIGITS.take(third)
    words[:, 4] = _LAST3.take(last)
    words[:, 5] = _EXPONENT.take(k)
    _items(out)[:] = _items(words.view(np.uint8)[:, :_FLOAT_BYTES])
    return ~(ok | zero)


def _split(v: np.ndarray, unit: int):
    """``divmod(v, unit)`` of the uint64 ``v``, at twice its speed."""
    head = v // unit
    return head, v - head * unit


def _product(a: np.ndarray, k: np.ndarray):
    """p = a * 10^k rounded, and its exact error e (Dekker's two-product)."""
    c = a * 134217729.0
    hi = c - (c - a)
    lo = a - hi
    ph, pl = _P10_HI.take(k), _P10_LO.take(k)
    p = a * _P10.take(k)
    return p, lo * pl - (((p - hi * ph) - lo * ph) - hi * pl)


def _int_text(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``%d`` of the non-negative ``v`` right-aligned into the byte
    columns ``out``, leading zeros as NULs; returns the mask of values
    left to ``%``."""
    n = -(-out.shape[1] // 4)
    words = np.empty((len(v), n), dtype=np.uint32)
    for col in range(n):
        head = v // 10 ** (4 * (n - 1 - col))
        # all digits under a nonzero higher group; NULs for a zero group
        # above the last
        shown = 1 if col == n - 1 else head > 0
        words[:, col] = _GROUP[head % 10 ** 4 + 10 ** 4 * (head >= 10 ** 4)
                               + shown]
    out[:] = words.view(np.uint8)[:, 4 * n - out.shape[1]:]
    return v < 0


def _row_plan(line: str, rows: np.ndarray):
    """The template ``line`` as literal pieces and conversions.  Raises
    ValueError where array code does not write ``rows`` with it: a
    conversion other than %.16e and %d, a dtype that does not suit them,
    a literal that is not plain ASCII, or a count of conversions other
    than the columns."""
    pieces = _CONVERSION.split(line)
    literals, cells = pieces[0::2], pieces[1::2]
    dtype = rows.dtype
    if rows.ndim != 2 or len(cells) != rows.shape[1] or not cells or any(
            "%" in lit or not lit.isascii() or "\0" in lit or "\x01" in lit
            for lit in literals):
        raise ValueError(f"row template {line!r} does not fit rows of "
                         f"shape {rows.shape}")
    if FLOAT in cells and not (dtype.kind == "f" and dtype.itemsize <= 8) \
            or "%d" in cells and not (dtype.kind in "iu"
                                      and np.can_cast(dtype, np.int64)):
        raise ValueError(f"row template {line!r} does not write {dtype} "
                         "values")
    return [lit.encode("ascii") for lit in literals], cells


def _block_text(plan, chunk: np.ndarray) -> str:
    """The text of ``chunk`` under the row template's ``plan``: array code,
    and ``%`` for each value it leaves."""
    literals, cells = plan
    values = [chunk[:, j].astype(np.float64 if c == FLOAT else np.int64)
              for j, c in enumerate(cells)]
    ints = [v for c, v in zip(cells, values) if c != FLOAT]
    top = max((v.max() for v in ints), default=-1)
    widths = [_FLOAT_BYTES if c == FLOAT else len(str(top)) for c in cells]
    row, spans = b"", []
    for lit, width in zip(literals, widths + [0]):
        row += lit
        spans.append(slice(len(row), len(row) + width))
        row += bytes(width)
    block = np.empty((len(chunk), len(row)), dtype=np.uint8)
    # the literal pieces of every row, copied as one fixed-width item
    _items(block)[:] = np.void(row)
    bad = np.zeros((len(chunk), len(cells)), dtype=bool)
    # where the %d values span no more integers than there are values (the
    # vertex indices of a block of faces), each integer is formatted once
    lo, table = min((v.min() for v in ints), default=-1), None
    if lo >= 0 and top - lo < len(chunk) * len(ints):
        table = np.empty((top - lo + 1, len(str(top))), dtype=np.uint8)
        _int_text(np.arange(lo, top + 1), table)
    for j, cell in enumerate(cells):
        out = block[:, spans[j]]
        if cell != FLOAT and table is not None:
            _items(out)[:] = _items(table).take(values[j] - lo, axis=0)
            continue
        write = _float_runs if cell == FLOAT else _int_text
        bad[:, j] = write(values[j], out)
        if bad[:, j].any():
            # a value left to % keeps one \x01 byte, which marks its place
            out[bad[:, j]] = 0
            out[bad[:, j], 0] = 1
    text = block.tobytes().replace(b"\0", b"").decode("ascii")
    if not bad.any():
        return text
    pieces, start = [], 0
    for i, j in zip(*np.nonzero(bad)):
        end = text.index("\x01", start)
        pieces += [text[start:end], cells[j] % chunk[i, j].item()]
        start = end + 1
    pieces.append(text[start:])
    return "".join(pieces)


def _float_runs(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``_float_text`` of ``x``, where runs pay with each run of bitwise
    equal values (0.0 and -0.0 differ) formatted once at its head."""
    bits = x.view(np.uint64)
    head = np.insert(bits[1:] != bits[:-1], 0, True)
    n = np.count_nonzero(head)
    if n * _RUN_SHARE > len(x):
        return _float_text(x, out)
    text = np.empty((n, _FLOAT_BYTES), dtype=np.uint8)
    run = np.cumsum(head) - 1
    bad = _float_text(x[head], text)
    _items(out)[:] = _items(text)[run]
    return bad[run]


def _items(columns: np.ndarray) -> np.ndarray:
    """The byte ``columns`` of a block as one fixed-width item per row, so
    that a copy moves whole rows of bytes."""
    return columns.view(np.dtype((np.void, columns.shape[1])))


def write_header(fh, lines: Sequence[str], prefix: str = "# ") -> None:
    """One text line per entry, each behind ``prefix``."""
    fh.write("".join(f"{prefix}{line}\n" for line in lines))


def write_rows(fh, rows, sep: str = ",", prefix: str = "",
               cell: str = FLOAT) -> None:
    """One text line per row of ``rows``: ``prefix``, then the row's cells
    joined by ``sep``, each cell formatted by ``cell`` (which may take
    several consecutive values).  Blocks of rows are written by array code
    with the bytes of ``%`` over the row template; a value the array code
    does not print is formatted by ``%`` itself, and a template or dtype
    it does not write raises ValueError."""
    rows = np.atleast_2d(rows)
    line = prefix + sep.join([cell] * (rows.shape[1] // cell.count("%")))
    line += "\n"
    plan = _row_plan(line, rows)
    for start in range(0, len(rows), _CHUNK_ROWS):
        fh.write(_block_text(plan, rows[start:start + _CHUNK_ROWS]))


def write_table(path, comments: Sequence[str], header: str,
                data: np.ndarray, cell: str = FLOAT) -> None:
    """CSV artifact: ``# key = value`` comment lines, the column line, then
    one row of ``data`` per line; ``data`` may be an iterable of row
    blocks."""
    with open(path, "w", encoding="utf-8") as fh:
        write_header(fh, comments)
        write_header(fh, [header], prefix="")
        for rows in [data] if isinstance(data, np.ndarray) else data:
            write_rows(fh, rows, cell=cell)


def read_table(path) -> Tuple[Dict[str, str], str, np.ndarray]:
    """Header comments (``key = value`` lines), column names and data matrix
    of a CSV artifact, parsed from one open of the file (``open_table``)."""
    meta, colnames, body = open_table(path)
    return meta, colnames, body()


def open_table(path) -> Tuple[Dict[str, str], str,
                              Callable[[], np.ndarray]]:
    """Header comments and column names of a CSV artifact, and the parser
    of its data matrix, so that a caller may refuse a table by its column
    line before the body is parsed.  The file is opened and read once,
    here, and parsed once: the parser lets go of the file's bytes when it
    returns.  Every row must hold one value per name on the column line.

    A body all in the writer's %.16e form is read by array code
    (``_float_body``); any other body by ``np.loadtxt`` on the text a
    universal-newline handle sees."""
    meta: Dict[str, str] = {}
    with open(path, "rb") as fh:
        raw = fh.read()
    text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
    # the byte offset of the next line, where the file holds no \r (so
    # that universal newlines change no byte)
    start = 0
    for line in text:
        start += len(line.encode("utf-8"))
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

    def parse() -> np.ndarray:
        nonlocal raw, text
        data = _float_body(raw, start)
        if data is None:
            try:
                data = np.loadtxt(text, delimiter=",", ndmin=2)
            except Exception as exc:
                raise ValueError(f"{path} is not a readable CSV table: "
                                 f"{exc}") from exc
        # the file's bytes and their reader die here, not with the parser
        raw = text = None
        if data.size == 0:
            raise ValueError(f"{path} holds no data rows")
        width = len(colnames.split(","))
        if data.shape[1] != width:
            raise ValueError(f"{path} has rows of {data.shape[1]} values "
                             f"under the {width} columns {colnames!r}")
        return data
    return meta, colnames, parse


# Reading: a %.16e cell is q * 10^k with q its 17 digits, and 10^k with
# |k| <= 27 is exact in a 64-bit long double significand, so the product (or
# quotient) in long double rounds the exact value once, and rounding that to
# float64 rounds the exact value unless it lies halfway between two doubles.
# Such a cell, and one with |k| > 27, is read by float().
_EXACT_SCALING = np.finfo(np.longdouble).nmant >= 63
_POW10 = np.cumprod(np.full(28, 10, dtype=np.longdouble)) / 10


def _float_body(raw: bytes, start: int):
    """The rows of ``raw[start:]``, read in blocks of about ``_CHUNK_ROWS``
    rows, or None unless every row holds the same number of %.16e cells
    separated by "," and ended by "\n" (the last "\n" may be missing)."""
    if not _EXACT_SCALING or start >= len(raw) or b"\r" in raw:
        return None
    first = (raw.find(b"\n", start) + 1 or len(raw)) - start
    ncols = raw.count(b",", start, start + first) + 1
    nrows = raw.count(b"\n", start) + (raw[-1] != ord("\n"))
    if 23 * nrows * ncols > len(raw) - start + 1:  # 23 bytes a cell
        return None
    out = np.empty(nrows * ncols)
    filled = 0
    while start < len(raw):
        end = raw.rfind(b"\n", start, start + _CHUNK_ROWS * first) + 1 \
            or len(raw)
        # the block with the "\n" before it, which ends the line above
        buf = np.frombuffer(raw, np.uint8, end - start + 1, start - 1)
        if raw[end - 1] != ord("\n"):
            buf = np.append(buf, np.uint8(ord("\n")))
        values = _float_cells(buf, ncols)
        if values is None:
            return None
        out[filled:filled + len(values)] = values
        filled += len(values)
        start = end
    return out.reshape(nrows, ncols)


def _float_cells(buf: np.ndarray, ncols: int):
    """Values of rows of ``ncols`` %.16e cells, or None where ``buf`` (a
    "\n", then the rows) is not in that form."""
    e = np.flatnonzero(buf == ord("e"))  # one per cell
    if len(e) % ncols or not len(e) or e[-1] + 5 != len(buf):
        return None
    # a cell and its separator end 4 bytes after its "e" and hold 23 bytes,
    # 24 with a "-"
    minus = np.diff(e, prepend=-4).view(np.uint64) - 23
    if (minus > 1).any():
        return None
    # 24 bytes from the one before each leading digit, as three words:
    # [sign or separator, digit, ".", 5 digits], [8 digits],
    # [3 digits, "e", exponent sign, 2 digits, separator]
    head, mid, tail = np.ndarray((len(buf) - 23,), "V24", buf, strides=(1,)
                                 )[e - 19].view("<u8").reshape(-1, 3).T
    exp_sign = tail >> 32 & 0xFF
    sep = np.full(len(e), ord(","), dtype=np.uint64)
    sep[ncols - 1::ncols] = ord("\n")
    ok = (head & 0xFF0000 == 0x2E0000) & (tail >> 56 == sep)
    ok &= (exp_sign == ord("+")) | (exp_sign == ord("-"))
    ok &= (head & 0xFF == ord("-")) | (minus == 0)
    # the literal bytes read as "0" for the test of the digits
    for w in (head & 0xFFFFFFFFFF00FF00 | 0x300030, mid,
              tail & 0x00FFFF0000FFFFFF | 0x3000003030000000):
        # every byte is a digit: its high nibble and that of byte + 6 are 3
        ok &= (w & 0xF0F0F0F0F0F0F0F0 | (w + 0x0606060606060606
                                         & 0xF0F0F0F0F0F0F0F0) >> 4
               ) == 0x3333333333333333
    if not ok.all():
        return None
    q = (head >> 8 & 0xF) * 10 ** 16 \
        + _eight_digits(head >> 24 | mid << 40) * 10 ** 8 \
        + _eight_digits(mid >> 24 | tail << 40)
    k = ((tail >> 40 & 0xF) * 10 + (tail >> 48 & 0xF)).view(np.int64)
    k = np.where(exp_sign == ord("-"), -16 - k, k - 16)
    far = np.abs(k) > 27
    k[far] = 0
    ql = q.view(np.int64).astype(np.longdouble)
    r = ql / _POW10[np.maximum(-k, 0)]
    up = np.flatnonzero(k > 0)
    r[up] = ql[up] * _POW10[k[up]]
    v = r.astype(np.float64)
    # r - v is exact, and so is its double where r lies halfway between v
    # and a neighbour: v + 2 (r - v) then lands on that neighbour.  Such a
    # cell goes to float(), since its exact value may round either way
    low = (r - v).astype(np.float64)
    tie = (low != 0) & (v + 2 * low - v == 2 * low)
    v.view(np.uint64)[:] |= minus << 63
    for i in np.flatnonzero(far | tie).tolist():
        v[i] = float(buf[e[i] - 18 - int(minus[i]):e[i] + 4].tobytes())
    return v


def _eight_digits(w: np.ndarray) -> np.ndarray:
    """The numbers written by eight ASCII digits in little-endian words
    (SWAR: pairs, then fours, then all eight)."""
    w = (w & 0x0F0F0F0F0F0F0F0F) * 2561 >> 8
    w = (w & 0x00FF00FF00FF00FF) * 6553601 >> 16
    return (w & 0x0000FFFF0000FFFF) * 42949672960001 >> 32


def grid_rows(x: np.ndarray, y: np.ndarray, *values: np.ndarray
              ) -> Tuple[str, np.ndarray]:
    """The ``shape = n m`` header line and the rows x, y, values... of a
    grid table, row-major over (x, y); each of ``values`` is (n, m)."""
    return (f"shape = {len(x)} {len(y)}",
            np.column_stack([np.repeat(x, len(y)), np.tile(y, len(x)),
                             *(np.reshape(v, -1) for v in values)]))


def grid_from_table(path, meta: Dict[str, str], data: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray, list]:
    """Axes and value grids of a table written from ``grid_rows`` under a
    ``shape = n m`` header: x, y and one (n, m) array per further column.
    The x and y columns must be those ``grid_rows`` makes of the axes, bit
    for bit."""
    try:
        nx, ny = (int(t) for t in meta["shape"].split())
    except (KeyError, ValueError):
        raise ValueError(f"{path} lacks a valid shape header (shape = n m)"
                         ) from None
    if min(nx, ny) < 1 or len(data) != nx * ny:
        raise ValueError(f"{path} holds {len(data)} rows, expected {nx} x "
                         f"{ny} = {nx * ny}")
    # copies: views would keep the whole table alive with the axes
    x, y = data[::ny, 0].copy(), data[:ny, 1].copy()
    grid = grid_rows(x, y)[1]
    off = np.flatnonzero((data[:, :2].view(np.uint64)
                          != grid.view(np.uint64)).any(axis=1))
    if len(off):
        raise ValueError(f"{path} data row {off[0]} (from 0) is not at the "
                         f"grid node {tuple(grid[off[0]].tolist())} of its "
                         "place")
    return (x, y,
            [data[:, j].reshape(nx, ny) for j in range(2, data.shape[1])])


def save_obj(mesh: SurfaceMesh, path, comments: Sequence[str] = ()) -> None:
    """ASCII OBJ with v/vn/f records."""
    with open(path, "w", encoding="utf-8") as fh:
        write_header(fh, [*comments, f"signature: {mesh.signature}"])
        write_rows(fh, mesh.vertices, sep=" ", prefix="v ")
        write_rows(fh, mesh.normals, sep=" ", prefix="vn ")
        # a block of faces at a time: no face array spans the mesh
        for block in mesh.face_blocks():
            write_rows(fh, np.repeat(block + 1, 2, axis=1), sep=" ",
                       prefix="f ", cell="%d//%d")


def save_ply(mesh: SurfaceMesh, path, comments: Sequence[str] = ()) -> None:
    """ASCII PLY with float64 vertex positions and normals."""
    head = ["ply", "format ascii 1.0",
            *(f"comment {c}" for c in comments),
            f"comment signature: {mesh.signature}",
            f"element vertex {mesh.n_vertices}",
            *(f"property double {name}"
              for name in ("x", "y", "z", "nx", "ny", "nz")),
            f"element face {mesh.n_faces}",
            "property list uchar int vertex_indices", "end_header"]
    with open(path, "w", encoding="utf-8") as fh:
        write_header(fh, head, prefix="")
        for block in mesh.vertex_blocks():
            write_rows(fh, block, sep=" ")
        for block in mesh.face_blocks():
            write_rows(fh, block, sep=" ", prefix="3 ", cell="%d")
