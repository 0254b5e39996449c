"""Weak second derivatives and the elementwise-PDE constraint system.

The weak second derivative of v = {v0, vb, vg} on an element T is the
P_l polynomial D_ij defined by duality,

    (D_ij, psi)_T = (v0, d2_ji psi)_T - <vb n_i, d_j psi>_bd
                    + <vg_i, psi n_j>_bd   for all psi in P_l(T),

and the constraint A v = f expresses (sum_ij a_ij D_ij, psi_m)_T =
(f, psi_m)_T for every test basis function psi_m. Boundary vb data is
eliminated from the unknown vector: the constraint is assembled over
the unknowns and the boundary columns of the layout at once and split
at N by DofLayout.assemble, so its boundary coupling is a separate
matrix Cb and inhomogeneous boundary values enter the right side as
f - Cb g.

Edge integrals here are exact: both factors are polynomials in the edge
parameter, so each pairing reduces to a Hilbert-type Gram product of
coefficient vectors. The volume term (v0, d2_ji psi)_T is exact too:
d2_ji psi is psi's coefficients mapped by fe_space.derivative_map, so
the term is that map's transpose times the local mass matrix.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._checks import index
from .fe_space import derivative_map

__all__ = [
    "CoefficientField",
    "ConstraintSystem",
    "check_ellipticity",
    "local_dof_columns",
    "gather_local",
    "weak_hessian_apply",
    "assemble_A",
    "apply_Lw",
]


@dataclass
class CoefficientField:
    """Coefficients and data of one problem instance.

    a maps an (..., 2) point array to (..., 2, 2) symmetric matrices;
    f maps points to source values. The exact fields are optional and
    only used by manufactured-solution error reporting.
    """

    a: callable
    f: callable
    u: callable = None
    grad_u: callable = None
    hess_u: callable = None


def check_ellipticity(field, pts):
    """Sample a(x): verify symmetry and return (min, max) eigenvalue.

    Raises ValueError if any sampled matrix has a non-finite entry, is
    non-symmetric or is not positive definite.
    """
    A = np.asarray(field.a(np.asarray(pts, dtype=float)))
    if not np.isfinite(A).all():
        raise ValueError("coefficient matrix is not finite at some sample point")
    if not np.allclose(A, np.swapaxes(A, -1, -2), rtol=0, atol=1e-12):
        raise ValueError("coefficient matrix is not symmetric")
    # closed-form eigenvalues mid -+ rad of [[a, b], [b, d]], reading the
    # lower triangle as eigvalsh does
    a, b, d = A[..., 0, 0], A[..., 1, 0], A[..., 1, 1]
    mid = 0.5 * (a + d)
    rad = np.hypot(0.5 * (a - d), b)
    lo, hi = (mid - rad).min(), (mid + rad).max()
    if lo <= 0:
        raise ValueError(f"coefficient matrix not positive definite (min eig {lo:g})")
    return lo, hi


def local_dof_columns(disc, t):
    """Global/boundary column indices of element t's local DOF vector.

    Local order: v0 block, then vb per local edge, then vg component 1
    per local edge, then vg component 2. Returns (glob, bnd): integer
    arrays of length nloc where exactly one of glob[i], bnd[i] is >= 0
    and the other is -1; glob indexes the unknowns and bnd the separate
    boundary-data vector.
    """
    t = index("t", t, disc.mesh.num_elements)
    cols, N = disc.layout.elem_cols[t], disc.layout.N
    inner = cols < N
    return np.where(inner, cols, -1), np.where(inner, -1, cols - N)


def gather_local(disc, t, v):
    """Local DOF sub-vector of a WeakFunction on element t."""
    return v.local_dofs()[index("t", t, disc.mesh.num_elements)]


def _weak_hessian_maps(disc, i, j):
    """(T, mw, nloc) P_l coefficient maps of the (i,j) weak second derivative.

    Element t's slice C gives D_ij = sum_m (C v_loc)_m psi_m for the
    local DOF order of local_dof_columns.
    """
    layout = disc.layout
    mesh = disc.mesh
    l, mw = disc.cfg.l, layout.mw
    R = np.zeros((mesh.num_elements, mw, layout.elem_cols.shape[1]))
    R_v0, R_vb, R_vg = layout.local_views(R)

    # (v0, d2_ji psi_m)_T = (D^T mass_v)_mn with D the exact P_l derivative
    # map; it vanishes for l <= 1
    if l >= 2:
        D = derivative_map(l, (2 - i - j, i + j), mesh.elem_h)
        R_v0[...] = np.swapaxes(D, -1, -2) @ disc.mass_v[:, :mw]
    he = mesh.edge_length[mesh.elem_edges]
    nrm = mesh.elem_normals

    def edge_blocks(scale, gram, trace):
        # (T, mw, 3, ncols) blocks scale * (gram @ trace)^T by local edge;
        # matmul rounds each block exactly as a per-element product would
        blocks = scale[..., None, None] * np.swapaxes(gram @ trace, -1, -2)
        return blocks.transpose(0, 2, 1, 3)

    # -<vb n_i, d_j psi>
    R_vb[...] = edge_blocks(
        -nrm[..., i] * he, disc.edge_gram[: layout.nvb, : l + 1], disc.trace_w_grad[:, :, j]
    )
    # +<vg_i, psi n_j>
    R_vg[:, :, i] = edge_blocks(
        nrm[..., j] * he, disc.edge_gram[: layout.nvg, : l + 1], disc.trace_w_val
    )
    return disc.mass_w_inv @ R


def weak_hessian_apply(disc, v, i, j):
    """(T, mw) coefficients of the (i,j) weak second derivative of v."""
    return np.einsum("tmn,tn->tm", _weak_hessian_maps(disc, i, j), v.local_dofs())


@dataclass
class ConstraintSystem:
    """A v = f with boundary coupling split out.

    A is M x N over the unknowns, Cb is M x NB over boundary vb data;
    the constraint with boundary data g reads A v = fvec - Cb g.
    v0_blocks = (T, nv0) says that the first T * nv0 columns are the
    element-interior v0 DOFs, element-major, nv0 per element (DofLayout);
    solve_p2 condenses them out of its augmented block.
    """

    A: sp.csr_matrix
    Cb: sp.csr_matrix
    fvec: np.ndarray
    v0_blocks: tuple


def assemble_A(disc, field):
    """Assemble the constraint matrix, boundary coupling and load vector.

    Row block m of element t tests sum_ij a_ij D_ij against psi_m; a_ij
    is sampled at volume quadrature points, so variable and piecewise
    coefficients are handled without pre-projection.
    """
    layout = disc.layout

    aq = np.asarray(field.a(disc.quad_pts))  # (T, q, 2, 2)
    fq = np.asarray(field.f(disc.quad_pts))
    fvec = np.einsum("tq,tq,tqm->tm", disc.quad_w, fq, disc.basis_w).ravel()

    local = 0.0
    for i in range(2):
        for j in range(2):
            # (a_ij D_ij, psi_m) with D_ij expanded in the W basis
            weighted = disc.basis_w * (disc.quad_w * aq[:, :, i, j])[..., None]
            W_a = np.swapaxes(weighted, 1, 2) @ disc.basis_w
            local = local + W_a @ _weak_hessian_maps(disc, i, j)

    # every entry of the element blocks, zeros included (fe_space docstring)
    A, Cb = layout.assemble(layout.elem_cols[:, None, :], local)
    v0_blocks = (disc.mesh.num_elements, layout.nv0)
    return ConstraintSystem(A=A, Cb=Cb, fvec=fvec, v0_blocks=v0_blocks)


def apply_Lw(disc, field, v, system=None):
    """Per-element P_l coefficients of the projected operator action.

    Returns the (T, mw) coefficient array of the W_h function whose
    moments against every test basis function match the assembled
    constraint rows, i.e. the L2 projection of sum_ij a_ij D_ij(v).
    """
    if system is None:
        system = assemble_A(disc, field)
    rhs = system.A @ v.coeffs
    if v.boundary is not None:
        rhs = rhs + system.Cb @ v.boundary
    rhs = rhs.reshape(disc.mesh.num_elements, disc.layout.mw)
    return np.einsum("tij,tj->ti", disc.mass_w_inv, rhs)
