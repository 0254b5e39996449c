"""Uniform triangulations of the unit square.

Only structured meshes are needed here: a uniform n x n grid of cells,
each cell split along its bottom-left to top-right diagonal, plus
uniform midpoint refinement. All topology (edges, incidences, outward
normals) is derived from the (vertices, elements) pair, so refined
meshes go through the same derivation as freshly built ones.

Edges carry a global orientation, from the lower vertex id to the
higher one. Every edge degree of freedom and every jump coefficient in
the rest of the package refers to that parametrization, which is what
lets the two elements sharing an interior edge agree on edge data.
"""

import numpy as np

from ._checks import index, integer

__all__ = ["Mesh", "build_uniform", "refine", "edge_param"]


class Mesh:
    """Triangular mesh with full edge topology.

    Attributes
    ----------
    vertices : (V, 2) float array
        Vertex coordinates in the closed unit square.
    elements : (T, 3) int array
        Vertex ids per element, counterclockwise.
    edges : (E, 2) int array
        Vertex id pairs, lower id first (the global edge orientation).
    edge_length : (E,) float array
    edge_is_boundary : (E,) bool array
    edge_elements : (E, 2) int array
        Ids of the incident elements; boundary edges have -1 in the
        second slot.
    elem_edges : (T, 3) int array
        Global edge id of local edge i, where local edge i of element
        (v0, v1, v2) connects vertex i to vertex (i+1) mod 3.
    elem_h : (T,) float array
        Element diameters (longest edge).
    elem_area : (T,) float array
    elem_normals : (T, 3, 2) float array
        Unit outward normal per local edge.
    n : int or None
        Subdivision parameter when the mesh came from build_uniform
        (possibly through refine), else None.
    h : float
        Maximum element diameter.
    """

    def __init__(self, vertices, elements, n=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.elements = np.asarray(elements, dtype=int)
        self.n = n
        self._build_topology()

    def _build_topology(self):
        verts = self.vertices
        elems = self.elements
        num_elems = elems.shape[0]

        # Signed areas double-check the ccw convention.
        p0 = verts[elems[:, 0]]
        p1 = verts[elems[:, 1]]
        p2 = verts[elems[:, 2]]
        cross = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (
            p1[:, 1] - p0[:, 1]
        ) * (p2[:, 0] - p0[:, 0])
        if np.any(cross <= 0):
            raise ValueError("elements must be counterclockwise with positive area")
        self.elem_area = 0.5 * cross

        # Collect edges as sorted vertex pairs and dedupe.
        local = np.stack(
            [elems[:, [0, 1]], elems[:, [1, 2]], elems[:, [2, 0]]], axis=1
        )  # (T, 3, 2)
        pairs = np.sort(local.reshape(-1, 2), axis=1)
        # lo * V + hi orders the pairs lexicographically, as rows would.
        nv = verts.shape[0]
        keys, inverse = np.unique(pairs[:, 0] * nv + pairs[:, 1], return_inverse=True)
        edges = np.stack([keys // nv, keys % nv], axis=1)
        self.edges = edges
        self.elem_edges = inverse.reshape(num_elems, 3)

        num_edges = edges.shape[0]
        self.edge_length = np.linalg.norm(
            verts[edges[:, 1]] - verts[edges[:, 0]], axis=1
        )

        # Incident elements per edge in ascending element order: a stable
        # sort of the (element, local edge) incidences by edge id.
        flat = self.elem_edges.ravel()
        count = np.bincount(flat, minlength=num_edges)
        if np.any(count > 2):
            e = int(np.argmax(count > 2))
            raise ValueError(f"edge {e} belongs to more than two elements")
        elem_of = np.argsort(flat, kind="stable") // 3
        first = np.cumsum(count) - count
        edge_elements = np.full((num_edges, 2), -1, dtype=int)
        edge_elements[:, 0] = elem_of[first]
        shared = count == 2
        edge_elements[shared, 1] = elem_of[first[shared] + 1]
        self.edge_elements = edge_elements
        self.edge_is_boundary = count == 1

        edge_vecs = verts[elems[:, [1, 2, 0]]] - verts[elems[:, [0, 1, 2]]]  # (T,3,2)
        lengths = np.linalg.norm(edge_vecs, axis=2)
        self.elem_h = lengths.max(axis=1)
        # Rotating the ccw-ordered edge vector by -90 degrees points outward.
        normals = np.stack([edge_vecs[:, :, 1], -edge_vecs[:, :, 0]], axis=2)
        self.elem_normals = normals / lengths[:, :, None]

        self.elem_centroid = (p0 + p1 + p2) / 3.0
        self.h = float(self.elem_h.max())

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_elements(self):
        return self.elements.shape[0]

    @property
    def num_edges(self):
        return self.edges.shape[0]

    def interior_edges(self):
        """Ids of interior edges, ascending."""
        return np.nonzero(~self.edge_is_boundary)[0]

    def boundary_edges(self):
        """Ids of boundary edges, ascending."""
        return np.nonzero(self.edge_is_boundary)[0]

    def __repr__(self):
        return (
            f"Mesh({self.num_vertices} vertices, {self.num_elements} elements, "
            f"{self.num_edges} edges, h={self.h:.4g})"
        )


def build_uniform(n):
    """Uniform triangulation of the unit square.

    The square is cut into an n x n grid of cells and each cell is
    split along the diagonal running from its bottom-left to its
    top-right corner, giving 2n^2 congruent right triangles with
    h = sqrt(2)/n.

    Parameters
    ----------
    n : int
        Cells per side, at least 1.

    Returns
    -------
    Mesh
    """
    n = integer("n", n, low=1)

    side = np.linspace(0.0, 1.0, n + 1)
    xs, ys = np.meshgrid(side, side)
    vertices = np.column_stack([xs.ravel(), ys.ravel()])

    # Cells row by row; cell (i, j) has corners a, b = a+1 (right),
    # c = b+n+1 (up-right), d = a+n+1 (up) and children (a,b,c), (a,c,d).
    ii, jj = np.meshgrid(np.arange(n), np.arange(n))
    a = (jj * (n + 1) + ii).ravel()
    b, c, d = a + 1, a + n + 2, a + n + 1
    elements = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    return Mesh(vertices, elements, n=n)


def refine(mesh):
    """Uniform midpoint refinement.

    Each triangle is replaced by the four congruent children obtained
    by connecting its edge midpoints. Parent vertices keep their ids;
    midpoints are appended in edge-id order.
    """
    verts = mesh.vertices
    edges = mesh.edges
    midpoints = 0.5 * (verts[edges[:, 0]] + verts[edges[:, 1]])
    new_vertices = np.vstack([verts, midpoints])
    offset = mesh.num_vertices

    # Columns v0, v1, v2, m01, m12, m20; children (v0, m01, m20),
    # (m01, v1, m12), (m20, m12, v2), (m01, m12, m20) per parent.
    corners = np.hstack([mesh.elements, offset + mesh.elem_edges])
    children = [[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]]
    new_elements = corners[:, children].reshape(-1, 3)
    new_n = 2 * mesh.n if mesh.n is not None else None
    return Mesh(new_vertices, new_elements, n=new_n)


def edge_param(mesh, edge_id):
    """Affine parametrization of an edge.

    Returns a callable mapping t in [0, 1] to points on the edge, with
    t=0 at the lower-id endpoint and t=1 at the higher-id endpoint.
    Accepts scalar or array t.
    """
    lo, hi = mesh.edges[index("edge_id", edge_id, mesh.num_edges)]
    p_lo = mesh.vertices[lo]
    p_hi = mesh.vertices[hi]

    def param(t):
        t = np.asarray(t, dtype=float)
        return p_lo + np.multiply.outer(t, p_hi - p_lo)

    return param
