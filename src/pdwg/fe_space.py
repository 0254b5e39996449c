"""Discrete spaces for the weak Galerkin scheme.

A weak function v = {v0, vb, vg} keeps three kinds of data: a P_k
polynomial per element (v0), a P_k polynomial per interior edge (vb,
boundary values are eliminated), and a [P_{k-1}]^2 polynomial per edge
(vg, one block per component). The test space W_h is P_l per element
with l in {k-2, k-1}.

Every DOF, unknown or boundary datum, has a column in one space: the N
unknowns take columns 0..N-1 and the boundary vb data g takes columns
N..N+NB-1. An operator is assembled once over all N + NB columns and
split at N into its part on the unknowns and its boundary coupling (A
and Cb, B and Bb), and a weak function's data is the one vector
concatenate([coeffs, g]) over those columns. DofLayout.assemble is the
one builder that does both: it takes each row's (column, value)
entries and returns the two canonical CSR matrices. DofLayout.local_views
splits an element-local array into its v0, vb and vg parts.

The builder stores every entry it is given, zeros included.
assemble_B marks its exact zeros absent first. assemble_A passes every entry
of its element blocks, exact zeros included (for l <= 1 the v0 columns
of A are all zero), so A's pattern is the element-block pattern, which
SuperLU orders with less fill. On const, k=2, n=8 dropping A's 3,072
stored zeros (of 10,080) leaves the p=1 run at the same 13,650 steps
but raises the L+U of its matrix K0 from 133,848 to 146,837.

Element polynomials use scaled monomials ((x-x_T)/h_T)^a((y-y_T)/h_T)^b
centered at the centroid, so local mass matrices are uniformly
conditioned across refinement levels. Both element spaces order them by
poly_exponents, so W_h's basis is exactly the leading mw = dim P_l
functions of V_h's. A derivative of a scaled monomial is an integer
multiple of a lower-degree one divided by a power of h, so derivatives
are exact coefficient maps (derivative_map) and only values are
tabulated at quadrature points. Edge polynomials are plain monomials
t^m in the global edge parameter t in [0, 1] (see mesh.py for the
orientation convention). Jump polynomials along edges are handled
through exact composition: the trace of a scaled monomial along an
affine edge parametrization is again a polynomial in t, and we carry
its coefficients rather than sampled values wherever exactness matters.
"""

from dataclasses import dataclass
from math import comb, perm

import numpy as np
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss

from ._checks import index, integer, vector

__all__ = [
    "SpaceConfig",
    "DofLayout",
    "WeakFunction",
    "Discretization",
    "make_layout",
    "triangle_rule",
    "edge_rule",
    "poly_exponents",
    "derivative_map",
    "project_Qh",
    "project_Wh",
    "project_boundary",
    "eval_v0",
]


@dataclass(frozen=True)
class SpaceConfig:
    """Polynomial degrees of the discretization.

    k is the degree of v0 and vb (k >= 2, gradients vg use degree k-1);
    l is the degree of the test space W_h and must be k-2 or k-1. The
    default, l=None, means l = k-1, the configuration used for all the
    convergence studies.
    """

    k: int = 2
    l: int = None

    def __post_init__(self):
        integer("k", self.k, low=2)
        if self.l is None:
            object.__setattr__(self, "l", self.k - 1)
        integer("l", self.l)
        if self.l not in (self.k - 2, self.k - 1):
            raise ValueError(f"l must be k-2 or k-1, got l={self.l} with k={self.k}")


def poly_exponents(degree):
    """Monomial exponent pairs of P_degree in graded order.

    Order: (0,0), (1,0), (0,1), (2,0), (1,1), (0,2), ...
    """
    degree = integer("degree", degree, low=0)
    return np.array(
        [(d - j, j) for d in range(degree + 1) for j in range(d + 1)], dtype=int
    )


def _dim(degree):
    return (degree + 1) * (degree + 2) // 2


# ---------------------------------------------------------------------------
# quadrature


def triangle_rule(degree):
    """Conical-product Gauss rule on the reference triangle.

    Reference triangle (0,0), (1,0), (0,1). Exact for polynomials of
    total degree <= degree (the rule built from m points per direction
    is exact to degree 2m-1). Weights sum to the reference area 1/2.

    Returns
    -------
    points : (q, 2) array
    weights : (q,) array
    """
    m = (integer("degree", degree, low=0) + 2) // 2
    # Gauss-Jacobi with weight (1-s) on [-1,1] handles the (1-u) Jacobian.
    sj, wj = _gauss_jacobi_10(m)
    sg, wg = leggauss(m)
    u = 0.5 * (sj + 1.0)
    v = 0.5 * (sg + 1.0)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    x = uu
    y = vv * (1.0 - uu)
    w = np.multiply.outer(wj, wg) / 8.0
    return np.column_stack([x.ravel(), y.ravel()]), w.ravel()


def edge_rule(npoints):
    """Gauss-Legendre rule on [0, 1]; exact to degree 2*npoints - 1."""
    s, w = leggauss(integer("npoints", npoints, low=1))
    return 0.5 * (s + 1.0), 0.5 * w


def _gauss_jacobi_10(m):
    """m-point Gauss rule for the weight 1 - s on [-1, 1], ascending nodes.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of
    the Jacobi polynomials P^(1,0), with diagonal -1/((2j+1)(2j+3)) and
    off-diagonal sqrt(j(j+1))/(2j+1), and the weights are the weight's
    total mass 2 times the squared first component of each eigenvector.
    """
    j = np.arange(m)
    jm = np.diag(-1.0 / ((2 * j + 1) * (2 * j + 3)))
    j = j[1:]
    off = np.sqrt(j * (j + 1.0)) / (2 * j + 1)
    jm += np.diag(off, 1) + np.diag(off, -1)
    s, v = np.linalg.eigh(jm)
    return s, 2.0 * v[0] ** 2


# ---------------------------------------------------------------------------
# scaled monomial bases


def _power_table(xi, max_exp):
    """xi**a for a = 0..max_exp along a new last axis."""
    out = np.ones(xi.shape + (max_exp + 1,))
    for a in range(1, max_exp + 1):
        out[..., a] = out[..., a - 1] * xi
    return out


def eval_basis(exps, pts, center, h, deriv=(0, 0)):
    """Evaluate scaled monomials (or a derivative) at points.

    Parameters
    ----------
    exps : (nb, 2) int array of exponent pairs
    pts : (..., 2) array of physical points
    center, h : element centroid (..., 2) and diameter (...) defining the
        scaling; both broadcast against pts, so one call can evaluate
        every element of a mesh at once
    deriv : (dx_order, dy_order)

    Returns
    -------
    (..., nb) array
    """
    pts = np.asarray(pts, dtype=float)
    center = np.asarray(center, dtype=float)
    xi = (pts[..., 0] - center[..., 0]) / h
    eta = (pts[..., 1] - center[..., 1]) / h
    max_exp = int(exps.max()) if len(exps) else 0
    px = _power_table(xi, max_exp)
    py = _power_table(eta, max_exp)
    dx, dy = deriv
    out = np.zeros(xi.shape + (len(exps),))
    for idx, (a, b) in enumerate(exps):
        if a < dx or b < dy:
            continue
        coeff = 1.0
        for r in range(dx):
            coeff *= (a - r) / h
        for r in range(dy):
            coeff *= (b - r) / h
        out[..., idx] = coeff * px[..., a - dx] * py[..., b - dy]
    return out


def derivative_map(degree, deriv, h):
    """Exact derivative of P_degree in the scaled-monomial basis.

    Returns D of shape np.shape(h) + (nb, nb), nb = dim P_degree, with
    d^deriv (sum_n c_n m_n) = sum_n (D c)_n m_n on an element of diameter
    h: d_x^dx d_y^dy m_(a,b) = a!/(a-dx)! b!/(b-dy)! h^-(dx+dy) m_(a-dx,b-dy).
    The integer factors are exact; only the h scaling rounds.
    """
    exps = poly_exponents(degree)
    dx, dy = deriv
    column = {(a, b): n for n, (a, b) in enumerate(exps.tolist())}
    D = np.zeros((len(exps), len(exps)))
    for n, (a, b) in enumerate(exps.tolist()):
        if a >= dx and b >= dy:
            D[column[a - dx, b - dy], n] = perm(a, dx) * perm(b, dy)
    return D / np.asarray(h, dtype=float)[..., None, None] ** (dx + dy)


def _linear_power_coeffs(c0, c1, kmax):
    """Coefficient rows of (c0 + c1*t)**a in t, for a = 0..kmax.

    c0 and c1 are arrays of equal shape; the table gets two trailing axes.
    """
    table = np.zeros(np.shape(c0) + (kmax + 1, kmax + 1))
    table[..., 0, 0] = 1.0
    for a in range(1, kmax + 1):
        for m in range(a + 1):
            table[..., a, m] = comb(a, m) * c0 ** (a - m) * c1**m
    return table


def _convolve(x, y):
    """Polynomial product of coefficient vectors along the last axis."""
    n = y.shape[-1]
    out = np.zeros(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]) + (x.shape[-1] + n - 1,))
    for i in range(x.shape[-1]):
        out[..., i : i + n] += x[..., i, None] * y
    return out


def _trace_values(exps, px, py, degree):
    """Trace coefficients of a scaled-monomial basis along affine edges.

    px, py hold the powers of the x and y scaled coordinates along each
    edge (see _linear_power_coeffs). Returns the (..., degree+1, nb)
    table whose column n holds the t-coefficients of basis function n.
    """
    val = np.zeros(px.shape[:-2] + (degree + 1, len(exps)))
    for idx, (a, b) in enumerate(exps):
        val[..., : a + b + 1, idx] = _convolve(px[..., a, : a + 1], py[..., b, : b + 1])
    return val


# ---------------------------------------------------------------------------
# DOF layout


class DofLayout:
    """Index map from weak-function data to the one column space.

    Unknown sections in order: all v0 blocks (element-major), vb blocks
    for interior edges (edge-id order), vg component 1 for all edges,
    then vg component 2; they fill columns 0..N-1. The vb blocks of
    boundary edges (edge-id order) follow in columns N..N+NB-1, with
    NB = (k+1) * #boundary edges; column N + i is entry i of the
    boundary-data vector, indexed by boundary_vb_slice.
    """

    def __init__(self, mesh, cfg):
        self.mesh = mesh
        self.cfg = cfg
        k = cfg.k
        self.nv0 = _dim(k)
        self.nvb = k + 1
        self.nvg = k
        self.mw = _dim(cfg.l)

        interior = mesh.interior_edges()
        boundary = mesh.boundary_edges()
        self.N1 = mesh.num_elements * self.nv0
        self.N2 = len(interior) * self.nvb
        self.N3 = mesh.num_edges * self.nvg  # per gradient component
        self.N = self.N1 + self.N2 + 2 * self.N3
        self.M = mesh.num_elements * self.mw
        self.NB = len(boundary) * self.nvb

        # Whole-mesh column arrays: vb_cols (E, nvb), vg_cols (2, E, nvg).
        T = mesh.num_elements
        self.vb_cols = np.empty((mesh.num_edges, self.nvb), dtype=int)
        self.vb_cols[interior] = self.N1 + np.arange(self.N2).reshape(-1, self.nvb)
        self.vb_cols[boundary] = self.N + np.arange(self.NB).reshape(-1, self.nvb)
        self.vg_cols = (
            self.N1
            + self.N2
            + np.arange(2)[:, None, None] * self.N3
            + np.arange(mesh.num_edges)[:, None] * self.nvg
            + np.arange(self.nvg)
        )
        # Element-local DOF order (T, nloc): the v0 block, vb per local
        # edge, vg component 1 per local edge, then vg component 2.
        ee = mesh.elem_edges
        sections = [
            np.arange(self.N1).reshape(T, self.nv0),
            self.vb_cols[ee].reshape(T, -1),
            self.vg_cols[:, ee].transpose(1, 0, 2, 3).reshape(T, -1),
        ]
        self.elem_cols = np.concatenate(sections, axis=1)
        self._section_ends = np.cumsum([c.shape[1] for c in sections])[:-1]

    def local_views(self, loc):
        """Views (v0, vb, vg) of a (..., nloc) array in elem_cols order.

        v0 is (..., nv0), vb is (..., 3, nvb) by local edge and vg is
        (..., 2, 3, nvg) by component and local edge. For a C-contiguous
        loc all three share its memory, so writing to them fills loc.
        """
        v0, vb, vg = np.split(loc, self._section_ends, axis=-1)
        lead = loc.shape[:-1]
        return v0, vb.reshape(lead + (3, self.nvb)), vg.reshape(lead + (2, 3, self.nvg))

    def assemble(self, cols, vals):
        """The operator with the given rows of entries, split at N into (X, Xb).

        cols and vals broadcast to one (..., width) shape whose leading
        indices, in C order, number the rows: row r holds the entries
        vals[r, i] in the columns cols[r, i] of the N + NB columns, and a
        negative column marks an absent entry. X holds the unknowns'
        columns and Xb the boundary data's, both canonical CSR (sorted
        indices, duplicates summed) with int32 indices. Every present
        entry is stored, zeros included (module docstring).
        """
        cols, vals = np.broadcast_arrays(cols, vals)
        nrows = vals.size // vals.shape[-1]
        pair = []
        for lo, hi in ((0, self.N), (self.N, self.N + self.NB)):
            keep = (lo <= cols) & (cols < hi)
            indptr = np.zeros(nrows + 1, dtype=np.int32)
            np.cumsum(keep.reshape(nrows, -1).sum(axis=1), out=indptr[1:])
            indices = (cols[keep] - lo).astype(np.int32)
            X = sp.csr_matrix((vals[keep], indices, indptr), shape=(nrows, hi - lo))
            X.sum_duplicates()
            pair.append(X)
        return tuple(pair)

    def v0_slice(self, t):
        t = index("t", t, len(self.elem_cols))
        return slice(t * self.nv0, (t + 1) * self.nv0)

    def vb_slice(self, e):
        """Slice of the vb block of interior edge e; None on the boundary."""
        start = self.vb_cols[index("e", e, len(self.vb_cols)), 0]
        return None if start >= self.N else slice(start, start + self.nvb)

    def vg_slice(self, e, j):
        """Slice of gradient component j (0 or 1) on edge e."""
        start = self.vg_cols[index("j", j, 2), index("e", e, len(self.vb_cols)), 0]
        return slice(start, start + self.nvg)

    def boundary_vb_slice(self, e):
        """Slice into the boundary-data vector for boundary edge e."""
        start = self.vb_cols[index("e", e, len(self.vb_cols)), 0] - self.N
        if start < 0:
            raise ValueError(f"edge {e} is not a boundary edge")
        return slice(start, start + self.nvb)


def make_layout(mesh, cfg):
    return DofLayout(mesh, cfg)


@dataclass
class WeakFunction:
    """Coefficient vector of a weak function over a layout.

    boundary is the optional vb data on boundary edges (length
    layout.NB). None means homogeneous boundary values, the V_h^0
    convention; projections of functions with nonzero trace carry their
    boundary data here so the lifted problems can use it.
    """

    layout: DofLayout
    coeffs: np.ndarray
    boundary: np.ndarray = None

    def __post_init__(self):
        self.coeffs = vector("coeffs", self.coeffs, (self.layout.N,))
        if self.boundary is not None:
            self.boundary = vector("boundary", self.boundary, (self.layout.NB,))

    def boundary_or_zero(self):
        if self.boundary is None:
            return np.zeros(self.layout.NB)
        return self.boundary

    def local_dofs(self):
        """(T, nloc) element-local DOF vectors in the order of layout.elem_cols.

        Boundary vb slots read the boundary data, or zero when it is absent.
        """
        return np.concatenate([self.coeffs, self.boundary_or_zero()])[self.layout.elem_cols]


# ---------------------------------------------------------------------------
# assembled caches


class Discretization:
    """Mesh + spaces + every per-element table assembly needs.

    Precomputes quadrature points, basis values at those points, local
    mass matrices with inverses, and the exact t-polynomial coefficients
    of basis traces along each (element, local edge) incidence. No
    derivative is tabulated at quadrature points: consumers map
    coefficients through derivative_map and use the value table.
    Everything here is immutable after construction and shared by
    assembly, stabilizer, solver and error computations. The W_h tables
    are views of leading slices of the V_h tables (module docstring),
    except mass_w_inv: a block's inverse is not a block of the inverse.
    """

    def __init__(self, mesh, cfg):
        self.mesh = mesh
        self.cfg = cfg
        self.layout = DofLayout(mesh, cfg)
        k, mw = cfg.k, self.layout.mw

        degree = max(2 * k + 2, 10)
        tri_pts, tri_w = triangle_rule(degree)
        self.edge_pts, self.edge_w = edge_rule((degree + 1 + 1) // 2)

        p0 = mesh.vertices[mesh.elements[:, 0]]
        e1 = mesh.vertices[mesh.elements[:, 1]] - p0
        e2 = mesh.vertices[mesh.elements[:, 2]] - p0
        # physical quadrature points and weights, all elements at once
        self.quad_pts = (
            p0[:, None, :]
            + tri_pts[None, :, 0, None] * e1[:, None, :]
            + tri_pts[None, :, 1, None] * e2[:, None, :]
        )
        self.quad_w = np.outer(2.0 * mesh.elem_area, tri_w)

        center, h = mesh.elem_centroid[:, None, :], mesh.elem_h[:, None]
        self.basis_v = eval_basis(poly_exponents(k), self.quad_pts, center, h)
        self.basis_w = self.basis_v[..., :mw]

        self.mass_v = np.swapaxes(self.basis_v * self.quad_w[..., None], 1, 2) @ self.basis_v
        self.mass_w = self.mass_v[:, :mw, :mw]
        self.mass_v_inv = np.linalg.inv(self.mass_v)
        self.mass_w_inv = np.linalg.inv(self.mass_w)

        # Hilbert-type Gram of t^m on [0,1]; edge mass = h_e * this. Its
        # leading k x k block is the Gram of the degree k-1 gradients.
        idx = np.arange(k + 1)
        self.edge_gram = 1.0 / (idx[:, None] + idx[None, :] + 1.0)

        # Vandermonde of t^m at edge quadrature nodes, both degrees.
        self.tmat = np.power.outer(self.edge_pts, np.arange(k + 1))  # (qe, k+1)

        self._build_traces()

    def _build_traces(self):
        """Exact trace coefficients per (element, local edge) incidence.

        trace_val[t][le] is a (k+1, nv0) matrix sending v0 coefficients
        to the t-polynomial coefficients of v0 along the edge, in the
        global edge parametrization. trace_grad[t][le][j] does the same
        for the j-th component of grad v0 (degree k-1, rows padded to
        k+1 with a zero top coefficient). trace_w_val / trace_w_grad, the
        test-space analogues, are views of their leading l+1 rows and mw
        columns: a degree <= l monomial's trace has no term above t^l.
        """
        mesh, k, l = self.mesh, self.cfg.k, self.cfg.l
        ends = mesh.vertices[mesh.edges[mesh.elem_edges]]  # (T, 3, lo/hi, 2)
        h = mesh.elem_h[:, None, None]
        xi0 = (ends[:, :, 0] - mesh.elem_centroid[:, None, :]) / h
        xid = (ends[:, :, 1] - ends[:, :, 0]) / h
        px, py = (_linear_power_coeffs(xi0[..., j], xid[..., j], k) for j in range(2))
        self.trace_val = _trace_values(poly_exponents(k), px, py, k)
        # the trace of d_j v0 is the trace of its derivative's coefficients
        grad_maps = [derivative_map(k, d, mesh.elem_h[:, None]) for d in ((1, 0), (0, 1))]
        self.trace_grad = np.stack([self.trace_val @ D for D in grad_maps], axis=2)
        self.trace_w_val = self.trace_val[..., : l + 1, : self.layout.mw]
        self.trace_w_grad = self.trace_grad[..., : l + 1, : self.layout.mw]


# ---------------------------------------------------------------------------
# projections and evaluation


def project_Qh(u, grad_u, disc):
    """L2 projection of a smooth function into the weak space.

    Q0 projects u onto P_k per element, Q_b projects the trace onto P_k
    per interior edge, and the gradient is projected onto [P_{k-1}]^2
    per edge. Boundary-edge trace projections are attached as the
    boundary field of the returned WeakFunction.

    Parameters
    ----------
    u : callable taking an (..., 2) point array
    grad_u : callable returning (..., 2) gradients
    disc : Discretization
    """
    layout = disc.layout
    k = disc.cfg.k
    out = np.zeros(layout.N + layout.NB)

    uq = u(disc.quad_pts)
    rhs = np.einsum("tq,tq,tqi->ti", disc.quad_w, uq, disc.basis_v)
    v0 = np.einsum("tij,tj->ti", disc.mass_v_inv, rhs)
    out[: layout.N1] = v0.ravel()

    pts = _edge_points(disc, np.arange(disc.mesh.num_edges))
    out[layout.vb_cols] = _edge_projection(disc, u(pts), k)
    out[layout.vg_cols] = _edge_projection(disc, np.moveaxis(grad_u(pts), -1, 0), k - 1)
    return WeakFunction(layout, out[: layout.N], boundary=out[layout.N :])


def _edge_points(disc, edges):
    """(len(edges), qe, 2) edge quadrature points in the global parametrization."""
    ends = disc.mesh.vertices[disc.mesh.edges[edges]]
    return ends[:, None, 0] + disc.edge_pts[:, None] * (ends[:, 1] - ends[:, 0])[:, None]


def _edge_projection(disc, vals, degree):
    """L2 projection onto P_degree of values (..., qe) at the edge quadrature points.

    Returns the t-monomial coefficients, shape (..., degree+1).
    """
    tm = disc.tmat[:, : degree + 1]
    gram_inv = np.linalg.inv(disc.edge_gram[: degree + 1, : degree + 1])
    return ((disc.edge_w * vals) @ tm) @ gram_inv.T


def project_Wh(g, disc):
    """Elementwise L2 projection onto P_l; returns (T, mw) coefficients."""
    return _project_Wh_values(disc, g(disc.quad_pts))


def _project_Wh_values(disc, vals):
    """project_Wh of a function given by its (T, q) volume quadrature values."""
    rhs = np.einsum("tq,tq,tqi->ti", disc.quad_w, vals, disc.basis_w)
    return np.einsum("tij,tj->ti", disc.mass_w_inv, rhs)


def project_boundary(u, disc):
    """Q_b of the trace of u on boundary edges only (length NB vector)."""
    layout = disc.layout
    boundary = disc.mesh.boundary_edges()
    bnd = np.zeros(layout.NB)
    bnd[layout.vb_cols[boundary] - layout.N] = _edge_projection(
        disc, u(_edge_points(disc, boundary)), disc.cfg.k
    )
    return bnd


def eval_v0(v, element, pts, deriv=(0, 0)):
    """Evaluate the v0 polynomial (or a derivative) of one element.

    pts may be a single point or an array of points; works for any
    derivative order via the deriv pair, e.g. (1, 0) for d/dx and
    (2, 0) for the xx second derivative.
    """
    layout = v.layout
    mesh = layout.mesh
    element = index("element", element, mesh.num_elements)
    exps = poly_exponents(layout.cfg.k)
    table = eval_basis(
        exps, pts, mesh.elem_centroid[element], mesh.elem_h[element], deriv=deriv
    )
    return table @ v.coeffs[layout.v0_slice(element)]
