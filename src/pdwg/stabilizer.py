"""Jump matrices and the L^p stabilizer.

The stabilizer integrates the mismatches v0 - vb and grad v0 - vg over
every element boundary,

    s(v) = (1/p) sum_T int_bd ( h_T^{1-2p} |v0-vb|^p
                              + h_T^{1-p} |grad v0 - vg|^p ) ds,

with the sup-over-elements form for p = infinity. Restricted to one
(element, local edge) incidence, each mismatch is a polynomial in the
edge parameter, and B stacks the scaled coefficient vectors of those
polynomials: one (k+1)-row block per incidence pair, first all value
jumps, then the two gradient-jump sections. The scaling

    c = h_e * h_T^{1-2p} * (coefficients of (v0-vb) in t)

(and h_T^{1-p} for gradient blocks) makes phi(Bv) = s(v) an exact
identity for p = 1, where phi sums int_0^1 |poly| over blocks. For
p = 1 the vector mismatch |grad v0 - vg| is measured componentwise
(the norm under which that identity holds); p = 2 uses the Euclidean
norm, and p = infinity takes the componentwise maximum, exactly: a
jump's maximum on an edge lies at an end or at a real root of its
derivative.

The p=2 stabilizer matrix is not assembled on its own: it is derived
from the p=2 jump matrix as B' W B, with W block diagonal holding the
edge Gram matrix divided by each block's scaling (see assemble_S2).
eval_s works from the trace tables directly, so it stays an
independent check of that matrix.

Every integral of |poly| is computed exactly: real roots inside (0,1)
split the interval into sign-constant pieces, and the antiderivative is
summed piecewise. Quadrature would lose many digits at the kinks. The
roots come from _real_roots, the package's one real-root finder, which
prox.project_omega0 uses as well.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._checks import block_vector, index, integer

__all__ = [
    "BMatrix",
    "assemble_B",
    "assemble_S2",
    "block_slice",
    "integral_abs_poly",
    "eval_phi",
    "eval_s",
    "eval_s_tilde",
]


@dataclass
class BMatrix:
    """Stacked jump-coefficient matrix for one value of p.

    The full jump vector of a weak function with boundary data g is
    B @ v + Bb @ g. Rows come in three equal sections (value jump,
    d/dx jump, d/dy jump); each section holds one (k+1)-row block per
    (element, local edge) incidence pair, element-major. scale holds
    the scaling of each block (module docstring), in row order.
    """

    B: sp.csr_matrix
    Bb: sp.csr_matrix
    scale: np.ndarray
    block_size: int
    num_pairs: int

    @property
    def num_rows(self):
        return 3 * self.block_size * self.num_pairs


def block_slice(bmat, kind, pair):
    """Rows of one jump block: kind 0 = value, 1/2 = gradient components."""
    bs = bmat.block_size
    kind, pair = index("kind", kind, 3), index("pair", pair, bmat.num_pairs)
    start = (kind * bmat.num_pairs + pair) * bs
    return slice(start, start + bs)


def _jump_weights(disc, p):
    """Scalings (w_val, w_grad), each (T, 3), of the value and gradient jump blocks."""
    mesh = disc.mesh
    he = mesh.edge_length[mesh.elem_edges]
    hT = mesh.elem_h[:, None]
    return he * hT ** (1 - 2 * p), he * hT ** (1 - p)


def assemble_B(disc, p):
    """Build the jump matrix pair (B, Bb) for p in {1, 2}."""
    if integer("p", p) not in (1, 2):
        raise ValueError(f"unsupported p={p} for jump assembly")
    layout = disc.layout
    bs = layout.nvb
    T = disc.mesh.num_elements
    num_pairs = 3 * T
    w_val, w_grad = _jump_weights(disc, p)
    scale = np.stack([w_val, w_grad, w_grad])  # (3 sections, T, 3)
    w = scale[..., None]

    # rows by (section, element, local edge, coefficient), each with its
    # v0 entries and then one vb or vg entry; column -1 marks an absent
    # entry, as at the top coefficient of a gradient jump (vg has degree k-1)
    nv0 = layout.nv0
    vals = np.empty((3, T, 3, bs, nv0 + 1))
    vals[0, ..., :nv0] = w[0, ..., None] * disc.trace_val
    vals[1:, ..., :nv0] = w[1:, ..., None] * np.moveaxis(disc.trace_grad, 2, 0)
    vals[..., nv0] = -w
    v0_cols, vb_cols, vg_cols = layout.local_views(layout.elem_cols)
    cols = np.full(vals.shape, -1)
    cols[..., :nv0] = v0_cols[:, None, None]
    cols[0, ..., nv0] = vb_cols
    cols[1:, ..., : layout.nvg, nv0] = vg_cols.transpose(1, 0, 2, 3)
    cols[vals == 0] = -1  # B stores no exact zero
    B, Bb = layout.assemble(cols, vals)
    return BMatrix(B=B, Bb=Bb, scale=scale.ravel(), block_size=bs, num_pairs=num_pairs)


def assemble_S2(disc):
    """Matrix of the p=2 stabilizer bilinear form (no 1/2 factor).

    Returns (Suu, Sub) so that the quadratic energy of a weak function
    with interior coefficients u and boundary data g is
    u' Suu u + 2 u' Sub g up to a constant in g; the gradient of the
    p=2 stabilizer at u is then Suu u + Sub g. The boundary-boundary
    block is dropped since it never enters the Euler-Lagrange system.

    The form is derived from the p=2 jump matrices: Suu = B' W B and
    Sub = B' W Bb, where W is block diagonal with edge_gram / w for a
    jump block scaled by w (bmat.scale; w^2 / w gives back h_e/h_T^3
    and h_e/h_T).
    W is applied as D'D with D = blockdiag(L' / sqrt(w)) and
    edge_gram = L L', so Suu = (DB)'(DB) is exactly symmetric. Both
    matrices are returned in canonical form (sorted indices, no
    duplicates), so no caller's products or abs() reorder them.
    """
    bmat = assemble_B(disc, 2)
    w = bmat.scale
    L = np.linalg.cholesky(disc.edge_gram)
    nblocks = len(w)
    D = sp.bsr_matrix(
        (L.T / np.sqrt(w)[:, None, None], np.arange(nblocks), np.arange(nblocks + 1)),
        shape=(bmat.num_rows, bmat.num_rows),
    ).tocsr()
    C = D @ bmat.B
    Ct = C.T.tocsr()
    Suu, Sub = Ct @ C, Ct @ (D @ bmat.Bb)
    Suu.sum_duplicates()
    Sub.sum_duplicates()
    return Suu, Sub


# ---------------------------------------------------------------------------
# real roots, exact integrals and maxima of |polynomial|


def integral_abs_poly(coeffs):
    """Exact integral of |c0 + c1 t + ...| over [0, 1]; the one-block
    case of _abs_integrals."""
    return float(_abs_integrals(np.asarray(coeffs, dtype=float)))


def eval_phi(q, k):
    """phi(q) = sum over (k+1)-blocks of the exact integral of |poly|."""
    q, bs = block_vector(q, k)
    return float(sum(_abs_integrals(q.reshape(-1, bs))))


def _abs_integrals(blocks):
    """Exact integral of |c0 + c1 t + ...| over [0, 1] for every
    coefficient vector along the last axis.

    The real roots inside (0, 1) (_real_roots) split the interval into
    pieces of constant sign, where the integral is |F(b) - F(a)| with F
    the antiderivative. Candidates are taken generously: splitting at a
    non-root is harmless, missing a sign change is not. F is evaluated
    on each block scaled as _real_roots scaled it, so it stays in range
    on any finite block; an integral beyond the float range is inf.
    """
    if blocks.shape[-1] == 1:
        return np.abs(blocks[..., 0])
    c = blocks.reshape(-1, blocks.shape[-1])
    x, e = _real_roots(c)
    pts = np.sort(_with_ends(x), axis=1)
    fv = pts * _horner((np.ldexp(c, -e) / np.arange(1.0, c.shape[1] + 1))[:, ::-1], pts)
    total = np.abs(np.diff(fv, axis=1)).sum(axis=1)
    with np.errstate(over="ignore"):
        return np.ldexp(total, e[:, 0]).reshape(blocks.shape[:-1])


def _max_abs(blocks):
    """Exact maximum of |c0 + c1 t + ...| over [0, 1] for every
    coefficient vector along the last axis: it is taken at an end or at
    a real root of the derivative inside."""
    c = blocks.reshape(-1, blocks.shape[-1])
    pts = _with_ends(_real_roots(c[:, 1:] * np.arange(1, c.shape[1]))[0])
    return np.abs(_horner(c[:, ::-1], pts)).max(axis=1).reshape(blocks.shape[:-1])


def _with_ends(x):
    """Per row, 0 and 1 followed by the candidates x; one outside
    (0, 1), or NaN, lands on an end, where it adds nothing."""
    ends = np.zeros((len(x), 2))
    ends[:, 1] = 1.0
    return np.concatenate([ends, np.fmin(np.fmax(x, 0.0), 1.0)], axis=1)


def _horner(desc, x):
    """Each row of desc (highest degree first) at the points in the same row of x."""
    y = np.repeat(desc[:, :1], x.shape[1], axis=1)
    for col in desc.T[1:, :, None]:
        y *= x
        y += col
    return y


def _real_roots(c):
    """Real roots of c0 + c1 t + ... for every row of c (any finite
    values): (x, e), x with one column fewer than c, and e the power of
    two each row was scaled by, (m, 1).

    Rows are batched by the span lo..hi of their terms above 2^-1000 of
    the row's largest; a smaller term moves no root a caller can see,
    and dividing by it would overflow the companion matrix. Per row the
    slots hold the near-real eigenvalues of the companion matrix of
    c_lo + ... + c_hi t^(hi-lo) (imaginary part at most 1e-6 of
    max(1, |real part|)), each polished by two Newton steps on
    c_0 + ... + c_hi t^hi, then lo zeros for the vanishing low-order
    terms; NaN fills the rest. Each row is first scaled by 2^-e, to a
    largest term in [0.5, 1): that moves no root and no bit of x, but
    keeps the coefficients of the polish in range.
    """
    size = np.abs(c)
    amax = size.max(axis=1, keepdims=True)
    big = size > 2.0**-1000 * amax
    e = np.frexp(amax)[1]
    c = np.ldexp(c, -e)
    out = np.full((len(c), c.shape[1] - 1), np.nan)
    live = big.any(axis=1)
    lo = big.argmax(axis=1)
    hi = c.shape[1] - 1 - big[:, ::-1].argmax(axis=1)
    for span_lo, span_hi in set(zip(lo[live].tolist(), hi[live].tolist())):
        rows = np.flatnonzero(live & (lo == span_lo) & (hi == span_hi))
        deg = span_hi - span_lo
        if span_lo:
            out[rows, deg:span_hi] = 0.0
        if deg == 0:
            continue
        desc = c[rows, span_hi::-1]
        # companion matrices of the reduced polynomials, as numpy's roots builds them
        comp = np.zeros((len(rows), deg, deg))
        comp[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
        comp[:, 0, :] = -desc[:, 1 : deg + 1] / desc[:, :1]
        r = np.linalg.eigvals(comp)
        real = np.abs(r.imag) <= 1e-6 * np.maximum(1.0, np.abs(r.real))
        x, active = r.real, real
        dpoly = desc[:, :-1] * np.arange(span_hi, 0, -1)
        # far out, the terms of a polynomial overflow even at its root:
        # such a candidate comes out non-finite, outside any interval
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(2):
                dp = _horner(dpoly, x)
                active = active & (dp != 0.0)
                x = x - np.divide(_horner(desc, x), dp, out=np.zeros_like(x), where=active)
        out[rows, :deg] = np.where(real, x, np.nan)
    return out, e


# ---------------------------------------------------------------------------
# stabilizer evaluation


def _jump_coeffs(disc, v):
    """Raw t-coefficients of the jumps on every (element, local edge) pair.

    Returns v0-vb as (T, 3, k+1) and grad v0 - vg as (T, 3, 2, k+1).
    """
    v0, vb, vg = v.layout.local_views(v.local_dofs())
    jv = np.einsum("tlrn,tn->tlr", disc.trace_val, v0)
    jv -= vb
    jg = np.einsum("tljrn,tn->tljr", disc.trace_grad, v0)
    jg[..., : v.layout.nvg] -= vg.transpose(0, 2, 1, 3)
    return jv, jg


def eval_s(disc, v, p):
    """Evaluate the stabilizer for p in {1, 2, inf}."""
    if p != np.inf and integer("p", p) not in (1, 2):
        raise ValueError(f"unsupported p={p}")
    mesh = disc.mesh
    he = mesh.edge_length[mesh.elem_edges]
    hT = mesh.elem_h[:, None]
    jv, jg = _jump_coeffs(disc, v)
    if p == 1:
        iv, ig = _abs_integrals(jv), _abs_integrals(jg)
        return float(np.sum(he / hT * iv + he * ig.sum(axis=-1)))
    if p == 2:
        gram = disc.edge_gram
        qv = np.einsum("tlr,rs,tls->tl", jv, gram, jv)
        qg = np.einsum("tljr,rs,tljs->tl", jg, gram, jg)
        return 0.5 * float(np.sum(he / hT**3 * qv + he / hT * qg))
    mval = _max_abs(jv).max(axis=1)
    mgrad = _max_abs(jg).max(axis=(1, 2))
    return float((mval / mesh.elem_h**2 + mgrad / mesh.elem_h).max())


def eval_s_tilde(disc, v, p):
    """s(v)^(1/p) for finite p; s(v) itself for p = inf."""
    s = eval_s(disc, v, p)
    if p == np.inf:
        return s
    return s ** (1.0 / p)
