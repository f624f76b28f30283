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

import io
import math
import re
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline

from .profiles import WeightProfile
from .solvers import CATENARY_GRAPH, ProfileCurve

EUCLIDEAN = "euclidean"
LORENTZIAN = "lorentzian"


@dataclass
class SurfaceMesh:
    """Triangulated surface with per-vertex unit normals.

    For Lorentzian (spacelike) meshes the normals are unit timelike for the
    bilinear form dx^2 + dy^2 - dz^2, i.e. N1^2 + N2^2 - N3^2 = -1.
    """

    vertices: np.ndarray
    faces: np.ndarray
    normals: np.ndarray
    signature: str = EUCLIDEAN
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.faces = np.asarray(self.faces, dtype=np.int64)
        self.normals = np.asarray(self.normals, dtype=float)
        n = len(self.vertices)
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= n):
            raise ValueError("face indices out of range")
        if self.normals.shape != self.vertices.shape:
            raise ValueError("need one normal per vertex")
        if self.signature not in (EUCLIDEAN, LORENTZIAN):
            raise ValueError(f"unknown signature {self.signature!r}")
        nrm2 = (self.normals ** 2).sum(axis=1) if self.signature == EUCLIDEAN \
            else (self.normals[:, 0] ** 2 + self.normals[:, 1] ** 2
                  - self.normals[:, 2] ** 2)
        target = 1.0 if self.signature == EUCLIDEAN else -1.0
        if not np.allclose(nrm2, target, atol=1e-8):
            raise ValueError("normals are not unit for the declared signature")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def boundary_mask(self) -> np.ndarray:
        """True for vertices on an edge owned by a single face.

        Each edge is counted under one int64 key ``i * n + j`` (i < j)."""
        n = self.n_vertices
        a, b = self.faces, self.faces[:, [1, 2, 0]]
        keys = np.sort(np.minimum(a, b) * n + np.maximum(a, b), axis=None)
        new = np.ones(len(keys) + 1, dtype=bool)  # keys[i] != keys[i - 1]
        np.not_equal(keys[1:], keys[:-1], out=new[1:-1])
        lone = keys[new[:-1] & new[1:]]  # a key equal to neither neighbour
        mask = np.zeros(n, dtype=bool)
        mask[lone // n] = True
        mask[lone % n] = True
        return mask


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
        if self.signature not in (EUCLIDEAN, LORENTZIAN):
            raise ValueError(f"unknown signature {self.signature!r}")
        if self.signature == LORENTZIAN:
            ux, uy = self.gradients()
            speed = ux[1:-1, 1:-1] ** 2 + uy[1:-1, 1:-1] ** 2
            if np.any(speed >= 1.0):
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
        X, Y = np.meshgrid(self.x, self.y, indexing="ij")
        verts = np.column_stack([X.ravel(), Y.ravel(), self.u.ravel()])
        ux, uy = self.gradients()
        gx, gy = ux.ravel(), uy.ravel()
        if self.signature == EUCLIDEAN:
            w = np.sqrt(1.0 + gx ** 2 + gy ** 2)
            normals = np.column_stack([gx / w, gy / w, -1.0 / w])
        else:
            w = np.sqrt(1.0 - gx ** 2 - gy ** 2)
            normals = np.column_stack([gx / w, gy / w, 1.0 / w])
        faces = _grid_faces(len(self.x), len(self.y))
        return SurfaceMesh(verts, faces, normals, signature=self.signature,
                           meta={"grid": (len(self.x), len(self.y))})


def _grid_faces(nx: int, ny: int) -> np.ndarray:
    """Two triangles per cell on an (nx, ny) node grid, row-major indices."""
    i, j = np.meshgrid(np.arange(nx - 1), np.arange(ny - 1), indexing="ij")
    v00 = (i * ny + j).ravel()
    v10 = ((i + 1) * ny + j).ravel()
    v01 = (i * ny + j + 1).ravel()
    v11 = ((i + 1) * ny + j + 1).ravel()
    t1 = np.column_stack([v00, v10, v11])
    t2 = np.column_stack([v00, v11, v01])
    return np.concatenate([t1, t2])


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
    X = np.repeat(x, ny)
    Y = np.tile(y, nx)
    Z = np.repeat(u, ny)
    verts = np.column_stack([X, Y, Z])
    nrm = np.column_stack([np.sin(curve.theta), np.zeros(nx),
                           -np.cos(curve.theta)])
    normals = np.repeat(nrm, ny, axis=0)
    mesh = SurfaceMesh(verts, _grid_faces(nx, ny), normals,
                       meta={"kind": "cylinder", "grid": (nx, ny)})
    return mesh


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
    has_apex = x[0] < 1e-12
    i0 = 1 if has_apex else 0
    t = np.linspace(0.0, 2.0 * math.pi, nt, endpoint=False)
    ct, st = np.cos(t), np.sin(t)

    rings_x = x[i0:]
    rings = len(rings_x)
    verts = np.empty((rings * nt + (1 if has_apex else 0), 3))
    normals = np.empty_like(verts)
    V = verts[: rings * nt].reshape(rings, nt, 3)
    N = normals[: rings * nt].reshape(rings, nt, 3)
    V[:, :, 0] = rings_x[:, None] * ct[None, :]
    V[:, :, 1] = rings_x[:, None] * st[None, :]
    V[:, :, 2] = z[i0:, None]
    sin_th = np.sin(th[i0:])[:, None]
    cos_th = np.cos(th[i0:])[:, None]
    N[:, :, 0] = -sin_th * ct[None, :]
    N[:, :, 1] = -sin_th * st[None, :]
    N[:, :, 2] = np.broadcast_to(cos_th, (rings, nt))

    faces = []
    idx = np.arange(nt)
    nxt = (idx + 1) % nt
    for r in range(rings - 1):
        a = r * nt + idx
        b = r * nt + nxt
        c = (r + 1) * nt + idx
        d = (r + 1) * nt + nxt
        faces.append(np.column_stack([a, b, d]))
        faces.append(np.column_stack([a, d, c]))
    if has_apex:
        apex = rings * nt
        verts[apex] = (0.0, 0.0, z[0])
        normals[apex] = (0.0, 0.0, 1.0)
        faces.append(np.column_stack([np.full(nt, apex), nxt, idx]))
    mesh = SurfaceMesh(verts, np.concatenate(faces), normals,
                       meta={"kind": "revolved", "nt": nt,
                             "has_apex": has_apex, "rings": rings})
    return mesh


def tilt_cylinder(curve: ProfileCurve, theta: float,
                  y_range: Sequence[float] = (-1.0, 1.0),
                  ny: int = 0) -> SurfaceMesh:
    """Apply psi -> psi + ((1-cos th)/cos th) <psi,e1> e1 + tan(th) e1 x psi
    to an extruded cylinder.  Componentwise that is
    (x, y, z) -> (x/cos th, y - tan(th) z, tan(th) y + z), the homothety of
    ratio 1/cos(theta) composed with the rotation by theta about the x-axis.

    The transformed surface solves the same weighted equation when dphi is
    constant (the map rescales heights along the rulings otherwise); its
    normals are the rotated originals and its mean curvature is cos(theta)
    times the original at matched vertices.
    """
    if not 0.0 <= theta < math.pi / 2:
        raise ValueError("tilt angle must lie in [0, pi/2)")
    if curve.curve_kind != CATENARY_GRAPH:
        raise ValueError("tilting is defined for catenary graph curves")
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
    return SurfaceMesh(verts, base.faces.copy(), normals,
                       meta={"kind": "tilted_cylinder", "theta": theta,
                             "grid": base.meta["grid"]})


# ---------------------------------------------------------------------------
# graph-equation residuals (independent finite-difference oracles)
# ---------------------------------------------------------------------------

def _interior_derivatives(u: np.ndarray, hx: float, hy: float):
    """Node values and second-order central differences (u_x, u_y, u_xx,
    u_yy, u_xy) of ``u`` on the interior nodes of its grid."""
    c = u[1:-1, 1:-1]
    ux = (u[2:, 1:-1] - u[:-2, 1:-1]) / (2 * hx)
    uy = (u[1:-1, 2:] - u[1:-1, :-2]) / (2 * hy)
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
    w2 = 1.0 + s * ux ** 2 + s * uy ** 2
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


def _graph_curvatures(patch: GraphPatch) -> Tuple[np.ndarray, np.ndarray]:
    _, ux, uy, uxx, uyy, uxy = _interior_derivatives(patch.u, patch.hx,
                                                     patch.hy)
    if patch.signature == LORENTZIAN and np.any(
            1.0 - ux ** 2 - uy ** 2 <= 0.0):
        raise ValueError("patch is not spacelike on the stencil")
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
    Sums keep the order of ``np.cross`` and ``norm`` on rows, and each
    coordinate is scattered by 1-D ``ufunc.at`` in corner order."""
    f = mesh.faces.T.copy()
    n = mesh.n_vertices
    edge = np.empty((3, 3, f.shape[1]))  # edge[coordinate, c] = E_c
    for q, e in zip(mesh.vertices.T, edge):
        corner = q[f]
        np.subtract(corner[[1, 2, 0]], corner, out=e)
    vec = np.zeros((3, n))
    area = np.zeros(n)
    for c in range(3):
        (ax, ay, az), (bx, by, bz) = edge[:, c], edge[:, (c + 2) % 3]
        # |E_{c+2} x E_c| is |E_c x -E_{c+2}| bit for bit
        denom = np.sqrt((by * az - bz * ay) ** 2 + (bz * ax - bx * az) ** 2
                        + (bx * ay - by * ax) ** 2)
        if c == 0:
            third = 0.5 * denom / 3.0  # a third of the face area
        denom[denom < 1e-300] = 1e-300
        # minus half the cotangent at corner c
        half = 0.5 * ((ax * bx + ay * by + az * bz) / denom)
        for acc, d in zip(vec, edge[:, (c + 1) % 3]):
            t = half * d
            np.subtract.at(acc, f[(c + 1) % 3], t)
            np.add.at(acc, f[(c + 2) % 3], t)
    for corners in f:
        np.add.at(area, corners, third)
    area[area < 1e-300] = 1e-300
    return (vec / area).T


def mean_curvature_residual(mesh: SurfaceMesh,
                            profile: WeightProfile) -> np.ndarray:
    """Per-vertex residual H - dphi(z) <N, e3> with the discrete cotangent
    mean curvature (trace convention) projected on the stored normals.

    Boundary vertices get NaN; so does a fan apex if the mesh has one.
    """
    if mesh.signature != EUCLIDEAN:
        raise ValueError("discrete curvature residual is Euclidean-only")
    hvec = _cotangent_curvature(mesh)
    h = (hvec * mesh.normals).sum(axis=1)
    z = mesh.vertices[:, 2]
    res = h - np.asarray(profile.dphi(z), dtype=float) * mesh.normals[:, 2]
    res[mesh.boundary_mask()] = math.nan
    if mesh.meta.get("has_apex"):
        res[-1] = math.nan  # the fan vertex area is uneven; skip it
    return res


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values by one sort (plain ``np.unique`` on int64
    takes a hash path that is an order of magnitude slower)."""
    keys = np.sort(keys)
    return keys[np.concatenate([[True], keys[1:] != keys[:-1]])]


def _ragged(ptr: np.ndarray, rows: np.ndarray
            ) -> Tuple[np.ndarray, np.ndarray]:
    """Flattened CSR segments ``ptr[r]:ptr[r + 1]`` of ``rows``: each
    position, and the index into ``rows`` it came from."""
    start, count = ptr[rows], ptr[rows + 1] - ptr[rows]
    owner = np.repeat(np.arange(len(rows)), count)
    pos = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - start,
                                             count)
    return owner, pos


def second_fundamental_norm(mesh: SurfaceMesh, profile: WeightProfile
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-vertex (|S|, |S|/dphi(z)) with |S| the Frobenius norm of the
    shape operator, estimated by quadric fitting over two neighbor rings.

    Each fit is the minimum-norm least-squares solution with the cutoff of
    ``np.linalg.lstsq`` (singular values at most eps * max(rows, 5) of the
    largest are dropped), solved for 2048 vertices at a time over two-rings
    padded with zero rows.  Boundary vertices, and vertices with
    fewer than five two-ring neighbors, get NaN.  This is a diagnostic; no
    bound is asserted.
    """
    p, nrm, n = mesh.vertices, mesh.normals, mesh.n_vertices
    # one-ring as CSR: the neighbors of v are nbr[ptr[v]:ptr[v + 1]]
    f0, f1 = mesh.faces.ravel(), np.roll(mesh.faces, -1, axis=1).ravel()
    keys = _distinct(np.concatenate([f0 * n + f1, f1 * n + f0]))
    nbr = keys % n
    ptr = np.concatenate([[0], np.cumsum(np.bincount(keys // n,
                                                     minlength=n))])
    s_norm = np.full(n, math.nan)
    interior = np.flatnonzero(~mesh.boundary_mask())
    for lo in range(0, len(interior), 2048):
        vs = interior[lo:lo + 2048]
        # two-ring: the one-ring and the one-rings of its members
        own1, pos1 = _ragged(ptr, vs)
        own2, pos2 = _ragged(ptr, nbr[pos1])
        ring = _distinct(np.concatenate([own1, own1[own2]]) * n
                         + np.concatenate([nbr[pos1], nbr[pos2]]))
        own, js = np.divmod(ring, n)
        keep = js != vs[own]
        own, js = own[keep], js[keep]
        count = np.bincount(own, minlength=len(vs))
        col = np.arange(len(own)) - np.repeat(np.cumsum(count) - count, count)
        # tangent frames, then offsets in frame coordinates (zero rows pad)
        nv = nrm[vs]
        t1 = np.cross(nv, [1.0, 0.0, 0.0])
        flat = np.linalg.norm(t1, axis=1) < 1e-6
        t1[flat] = np.cross(nv[flat], [0.0, 1.0, 0.0])
        t1 /= np.linalg.norm(t1, axis=1)[:, None]
        t2 = np.cross(nv, t1)
        d = np.zeros((len(vs), max(count.max(), 5), 3))
        d[own, col] = p[js] - p[vs[own]]
        xi = np.einsum("bkc,bc->bk", d, t1)
        eta = np.einsum("bkc,bc->bk", d, t2)
        zeta = np.einsum("bkc,bc->bk", d, nv)
        A = np.stack([0.5 * xi ** 2, xi * eta, 0.5 * eta ** 2, xi, eta],
                     axis=-1)
        u, sv, vt = np.linalg.svd(A, full_matrices=False)
        cut = np.finfo(float).eps * np.maximum(count, 5) * sv[:, 0]
        w = np.divide(np.einsum("bki,bk->bi", u, zeta), sv,
                      out=np.zeros_like(sv), where=sv > cut[:, None])
        a, b, c, dd, ee = np.einsum("bji,bj->ib", vt, w)
        # first fundamental form of the fitted graph at the origin
        I = np.stack([1 + dd * dd, dd * ee, dd * ee, 1 + ee * ee],
                     axis=-1).reshape(-1, 2, 2)
        II = (np.stack([a, b, b, c], axis=-1)
              / np.sqrt(1 + dd * dd + ee * ee)[:, None]).reshape(-1, 2, 2)
        S = np.linalg.solve(I, II)
        s_norm[vs] = np.where(count >= 5, np.sqrt((S * S).sum(axis=(1, 2))),
                              math.nan)
    dphi = np.asarray(profile.dphi(mesh.vertices[:, 2]), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = s_norm / np.abs(dphi)
    return s_norm, ratio


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
# A %.16e value x = q * 10^(d-16) with q the 17-digit integer is found by
# one correctly rounded product (or quotient) s = |x| * 10^(16-d) in long
# double: 10^k with k <= 27 is exact in a 64-bit significand (5^27 < 2^63).
# Below 1e17 < 2^57 the spacing u of long double is at most 2^-7, so s lies
# within u/2 of the exact value; a fraction of s other than exactly 1/2 is
# then at least u away from 1/2 on the same side as the exact fraction, and
# rounding s to the nearest integer gives the correctly rounded q.  A value
# the array code does not print (non-finite, |16-d| > 27, a fraction of
# exactly 1/2, q outside [1e16, 1e17), a negative %d) is formatted by %.
_EXACT_SCALING = np.finfo(np.longdouble).nmant >= 63
_CONVERSION = re.compile(r"(%\.16e|%d)")
_POW10 = np.cumprod(np.full(28, 10, dtype=np.longdouble)) / 10
_FLOAT_BYTES = 23  # sign, digit, ".", 16 digits, "e", sign, 2 digits


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
# exponent sign and digits by exponent + 11 (the array code prints -11..43)
_HEAD = _words(np.repeat([0, 45], 100), np.tile(_QUAD[:100, 2], 2), 46,
               np.tile(_QUAD[:100, 3], 2))
_LAST3 = _words(*_QUAD[:1000, 1:].T, 101)
_exp = np.arange(-11, 44)
_EXPONENT = _words(np.where(_exp < 0, 45, 43), 48 + abs(_exp) // 10,
                   48 + abs(_exp) % 10, 0)
del _QUAD, _blank, _exp


def _float_text(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``%.16e`` of ``x`` into the byte columns ``out``; returns the
    mask of values left to ``%``."""
    a = np.abs(x)
    zero = a == 0
    ok = np.isfinite(a) & ~zero
    a[~ok] = 1.0
    d = np.floor(np.log10(a)).astype(np.int64)
    ok &= (d >= -11) & (d <= 43)
    a[~ok] = 1.0
    al = a.astype(np.longdouble)
    s = _scaled(al, np.where(ok, d, 0))
    # judge s itself: 1e-7 scales to 9999999999999999.55, whose rounded
    # value 1e16 would pass a check on q and print the wrong exponent
    below = np.flatnonzero(s < 1e16)
    d[below] -= 1
    s[below] = _scaled(al[below], d[below])
    t = s + 0.5
    q = t.astype(np.int64)
    # a fraction of s of exactly 1/2 makes t whole; q must have 17 digits
    ok &= (t != q) & ((q - 10 ** 16).view(np.uint64) < 9 * 10 ** 16)
    ok[below] &= d[below] >= -11
    # zeros print as q = 0, d = 0; the text of other values left to % is
    # overwritten, so any in-range q and d do
    q[~ok] = 0
    d[~ok] = 0
    top, rest = np.divmod(q, 10 ** 15)
    high, low = np.divmod(rest, 10 ** 7)
    words = np.empty((len(x), 6), dtype=np.uint32)
    words[:, 0] = _HEAD[np.signbit(x) * 100 + top]
    for col, part in enumerate(np.divmod(high, 10 ** 4), 1):
        words[:, col] = _DIGITS[part]
    third, last = np.divmod(low, 1000)
    words[:, 3] = _DIGITS[third]
    words[:, 4] = _LAST3[last]
    words[:, 5] = _EXPONENT[d + 11]
    out[:] = words.view(np.uint8)[:, :_FLOAT_BYTES]
    return ~(ok | zero)


def _scaled(al: np.ndarray, d: np.ndarray) -> np.ndarray:
    """|x| * 10^(16-d) in one rounding, for exponents d in -12..43."""
    k = 16 - d
    s = al * _POW10[np.clip(k, 0, 27)]
    neg = np.flatnonzero(k < 0)
    s[neg] = al[neg] / _POW10[-k[neg]]
    return s


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
    """The template ``line`` as literal pieces and conversions, or None
    where array code does not write ``rows`` with it: a conversion other
    than %.16e and %d, a dtype that does not suit them, a literal that is
    not plain ASCII, or a count of conversions other than the columns."""
    pieces = _CONVERSION.split(line)
    literals, cells = pieces[0::2], pieces[1::2]
    dtype = rows.dtype
    if rows.ndim != 2 or len(cells) != rows.shape[1] or not cells or any(
            "%" in lit or not lit.isascii() or "\0" in lit or "\x01" in lit
            for lit in literals):
        return None
    if FLOAT in cells and not (_EXACT_SCALING and dtype.kind == "f"
                               and dtype.itemsize <= 8):
        return None
    if "%d" in cells and not (dtype.kind in "iu"
                              and np.can_cast(dtype, np.int64)):
        return None
    return [lit.encode("ascii") for lit in literals], cells


def _block_text(line: str, plan, chunk: np.ndarray) -> str:
    """The text of ``chunk`` under ``line``: array code where ``plan``
    allows, ``%`` for each value it leaves (each row without a plan)."""
    if plan is None:
        return "".join(line % tuple(row)
                       for row in chunk.reshape(len(chunk), -1).tolist())
    literals, cells = plan
    values = [chunk[:, j].astype(np.float64 if c == FLOAT else np.int64)
              for j, c in enumerate(cells)]
    widths = [_FLOAT_BYTES if c == FLOAT else len(str(v.max()))
              for c, v in zip(cells, values)]
    row, spans = b"", []
    for lit, width in zip(literals, widths + [0]):
        row += lit
        spans.append(slice(len(row), len(row) + width))
        row += bytes(width)
    block = np.empty((len(chunk), len(row)), dtype=np.uint8)
    # the literal pieces of every row, copied as one fixed-width item
    _items(block)[:] = np.void(row)
    bad = np.empty((len(chunk), len(cells)), dtype=bool)
    for j, cell in enumerate(cells):
        out = block[:, spans[j]]
        if j and cell == cells[j - 1] and np.array_equal(
                values[j].view(np.uint64), values[j - 1].view(np.uint64)):
            # a column that repeats the one before (an OBJ face's v//vn)
            # repeats its text
            _items(out)[:] = _items(block[:, spans[j - 1]])
            bad[:, j] = bad[:, j - 1]
        else:
            write = _float_text if cell == FLOAT else _int_text
            bad[:, j] = write(values[j], out)
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
    does not print is formatted by ``%`` itself."""
    rows = np.atleast_2d(rows)
    line = prefix + sep.join([cell] * (rows.shape[1] // cell.count("%")))
    line += "\n"
    plan = _row_plan(line, rows)
    for start in range(0, len(rows), _CHUNK_ROWS):
        fh.write(_block_text(line, plan, rows[start:start + _CHUNK_ROWS]))


def write_table(path, comments: Sequence[str], header: str,
                data: np.ndarray, cell: str = FLOAT) -> None:
    """CSV artifact: ``# key = value`` comment lines, the column line, then
    one row of ``data`` per line."""
    with open(path, "w", encoding="utf-8") as fh:
        write_header(fh, comments)
        write_header(fh, [header], prefix="")
        write_rows(fh, data, cell=cell)


def read_table(path) -> Tuple[Dict[str, str], str, np.ndarray]:
    """Header comments (``key = value`` lines), column names and data matrix
    of a CSV artifact, parsed from one open of the file.  Every row must
    hold one value per name on the column line.

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
    data = _float_body(raw, start)
    if data is None:
        try:
            data = np.loadtxt(text, delimiter=",", ndmin=2)
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


# Reading is the writer's argument in reverse: a %.16e cell is q * 10^k with
# q its 17 digits, so where |k| <= 27 the product (or quotient) in long
# double is the exact value rounded once, and rounding that to float64
# rounds the exact value unless it lies exactly halfway between two
# doubles.  Such a cell, and one with |k| > 27, is read by float().
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
    x, y = data[::ny, 0], data[:ny, 1]
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
        write_rows(fh, np.repeat(mesh.faces + 1, 2, axis=1), sep=" ",
                   prefix="f ", cell="%d//%d")


def save_ply(mesh: SurfaceMesh, path, comments: Sequence[str] = ()) -> None:
    """ASCII PLY with float64 vertex positions and normals."""
    head = ["ply", "format ascii 1.0",
            *(f"comment {c}" for c in comments),
            f"comment signature: {mesh.signature}",
            f"element vertex {mesh.n_vertices}",
            *(f"property double {name}"
              for name in ("x", "y", "z", "nx", "ny", "nz")),
            f"element face {len(mesh.faces)}",
            "property list uchar int vertex_indices", "end_header"]
    with open(path, "w", encoding="utf-8") as fh:
        write_header(fh, head, prefix="")
        write_rows(fh, np.hstack([mesh.vertices, mesh.normals]), sep=" ")
        write_rows(fh, mesh.faces, sep=" ", prefix="3 ", cell="%d")
