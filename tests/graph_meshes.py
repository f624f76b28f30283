"""Triangulated Euclidean graphs for the mesh tests."""

import numpy as np

from phimin.surfaces import GraphPatch, SurfaceMesh, grid_rows


def graph_mesh(x, y, u) -> SurfaceMesh:
    """The graph of the heights ``u`` over the grid ``x`` by ``y``, with
    downward unit normals from the patch's central-difference slopes."""
    patch = GraphPatch(x, y, u)
    ux, uy = (g.ravel() for g in patch.gradients())
    w = np.sqrt(1.0 + ux ** 2 + uy ** 2)
    return SurfaceMesh(grid_rows(patch.x, patch.y, patch.u)[1],
                       np.column_stack([ux / w, uy / w, -1.0 / w]),
                       patch.u.shape)
