"""Solvers: fixed-point proximity iteration (p=1) and direct saddle solve (p=2).

The p=1 scheme minimizes phi(Bu) subject to Au = f through the
fixed-point equations

    A^T x + alpha B^T y = 0,
    y = (I - prox_{(1/alpha)phi})(Bu + y),
    Au = f,

iterated as S v^{n+1} = b^n with v = (y, u, x),

    S = [[I, -B, 0], [0, alpha B^T B, A^T], [0, A, 0]],

b1 = y - P, b2 = alpha B^T P + A^T x, b3 = f and P = prox(Bu + y). The
paper's second parameter β, weighting A^T x, is fixed at 1: it only
rescales the multiplier (x_β = x_1 / β).

Row 2 of S and y' = b1 + Bu' give A^T x' + alpha B^T y' = b2 + alpha
B^T b1 = A^T x + alpha B^T y: the step conserves the first equation's
residual vector, which is zero at the zero start. So A^T x = -alpha B^T y
on every iterate and b2 = -alpha B^T b1, which is how the step builds
it. The iteration reads only (y, u); x is an output of each solve, and
r1 = |A^T x + alpha B^T y| measures only that solve's roundoff.

S is block upper-triangular: the symmetric KKT block
K0 = [[alpha B^T B, A^T], [A, 0]] gives (u, x) from (b2, b3), then
y = b1 + Bu. K0 alone is factorized, once per run, and S itself is
never built.

A p=1 step is therefore the K0 solve, the products [B; A]u and B^T b1,
and a few flat array passes. The prox (prox_phi_weighted_l1)
soft-thresholds coefficient j of every block by 1/(alpha (j+1)), with
the thresholds tiled once to the length of the jump vector. solve_p1
carries (y, u, x, [B; A]u) as plain arrays, adds c to the Bu rows in
place, and writes b2 into one (u, x) right-hand side whose tail holds b3
for the whole run; it calls the same private helpers (_step_rhs,
_solve_step, _sup_gaps) as make_bn, fixed_point_step and residual_2_90,
so those public functions replay its iterates and residuals bit for bit.

One p=1 problem is one SMatrix: assemble_S checks and lifts the
boundary data, builds the prox and factorizes K0 once, and solve_p1 and
the public step functions (make_bn, fixed_point_step, residual_2_90,
polish_face) all read the problem from it, so a replay cannot pair a K0
factorized at one alpha with a prox or a lifting of another problem.

The prox is piecewise linear, so the clip pattern sign(P) names a face
of the p=1 linear program: Z, the rows with P == 0, and on the others
the sign of the clip, where Bu + c + y - P is +-threshold. The pattern
settles long before the residuals pass residual_tol (const, n=3: at
step 652 of 47,996), and on a settled face the fixed point solves
linear equations. So solve_p1 tries a face polish (polish_face, _polish)
on a pattern that has held still for _POLISH_SHORT_WINDOW checked
iterates, if it has not been tried before and no attempt started in the
last _POLISH_SPACING steps, and again once it has held still for
_POLISH_WINDOW checked iterates, if it was not tried at that window
before. A polish moves u to the nearest point of
{Au = fp, B_Z u = -c_Z}; y takes the clipped value off Z, and (x, y_Z)
moves to the nearest point of {A^T x + alpha B^T y = 0}. Each nearest
point solves a quasi-definite KKT matrix (_project). The
candidate replaces the iterate only if its r1, r2 and r3, computed by
the loop's own helpers, are all at most residual_tol; otherwise the
loop goes on from the plain iterate. So converged still means that the
residuals passed, and a run is replayed bit for bit by plain steps up
to Diagnostics.polished_at followed by polish_face. It also means that
the short window only adds attempts to the plain trajectory: every
attempt the long window alone would make is still made, and no run
stops later than it would with the long window alone. The p=1 minimiser
is not unique: the polished point is an exact minimiser, not the limit
the plain iteration would have reached, and the error norms of a study
depend on which minimiser is returned.

For p=2 the constrained minimization is one symmetric indefinite solve,
K (u; lambda) = (0; f) with K = [[S2, A^T], [A, 0]] and S2 the
quadratic stabilizer's matrix. Its solution is also the saddle point of
the augmented Lagrangian, which adds gamma-weighted |Au - f|^2, so
solve_p2 solves with the SPD block H = S2 + A^T W A (_solve_augmented)
and refines the original system in float64: a residual (r_u, r_lambda),
taken from the blocks, gives the correction du = H^-1 (r_u + A^T W
r_lambda), dlambda = W (A du - r_lambda). Each element's v0 couples only
to that element's own unknowns, so the v0-v0 part of H is block
diagonal, and H is condensed to its skeleton unknowns (vb, vg) before
it is factorized (_condensed), element by element: each v0 block gets
dense Cholesky factors, the elements' Schur complements are summed in
float64 on the structural pattern of H_c and rounded once, and SuperLU
factorizes only H_c (disc, k=3, n=32: 6.96M L+U nonzeros, against
9.64M for H and 18.1M for K). H_c is factorized in float32; a solution
that fails dsgesv's bound ||z|| ||K|| eps sqrt(n), or a float32 H_c
that cannot be factorized, falls back to the same route with H_c in
float64 and a larger gamma (_AUGMENT_GAMMA), and solve_p2 warns if that
solution fails the bound too. Neither K nor H is ever built. The p=1 K0 and the polish matrices
are saddle matrices, stacked from their blocks by sp.bmat as CSC with
sorted indices; every matrix here is factorized with the same
symmetric SuperLU options (_factor_symmetric), and every refined
solve, p=2 and polish, follows one rule (_refine): apply the next
correction while it is at most half the previous one, for at most 30
solves.

Boundary vb data g shifts the jump vector by c = Bb g and the
constraint right side by -Cb g in both paths. Shifting the prox
argument by c (and subtracting c back) turns the homogeneous algorithm
into the lifted one. The p=1 problem is always the lifted one: no
boundary data means g = 0, which gives c = 0 and fp = f, so the
iteration formulas below carry c on every run.
"""

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from ._checks import integer, positive_finite, vector
from .prox import prox_phi_weighted_l1

# Face polish (module docstring): a clip pattern is tried when it has
# held still for _POLISH_SHORT_WINDOW checked iterates, at most once per
# _POLISH_SPACING steps, and again at _POLISH_WINDOW; each projection
# regularizes its KKT matrix by _POLISH_DELTA. Measured on const, alpha =
# 16: the short window certifies n=3 at step 478 (528 with a window of
# 100, 852 with _POLISH_WINDOW alone) and n=8 at 13,650 (18,802 alone).
# A polish costs about 90 plain steps at n=3 and 140 at n=16, so the
# spacing keeps rejected short tries under about 15 % of the loop's time
# (n=16: 72 tries, about 7 %); a spacing of 2,500 gave n=8 17,149 steps.
# The _POLISH_WINDOW tries are the ones it made alone, so no run stops
# later than with it alone.
_POLISH_WINDOW = 200
_POLISH_SHORT_WINDOW = 50
_POLISH_SPACING = 1000
_POLISH_DELTA = 1e-12
# Every refined saddle solve takes at most _REFINE_MAX_SOLVES solves with
# its factors, as LAPACK's dsgesv does (_refine).
_REFINE_MAX_SOLVES = 30
# Weight gamma of the augmented term of the p=2 correction, per precision
# of H (_augmented_weights). float32, on the H_c that _condensed sums in
# float64 and rounds once: over disc, k=3, n=8, 16, 32, var, k=2, n=16,
# 32, var, k=3, n=4, 8 and const, k=3, n=8, 16 the refinement took 104
# solves in all with gamma = 300, against 105 with 250, 108 with 400,
# 115 with 500, 138 with 100 (slower contraction) and 176 with 1000 (a
# less accurate float32 H_c; 30 solves at disc, n=32). float64, on 15
# levels that fall back (const, var and disc with k = 4 to 6, n = 1 to
# 8): with gamma = 100 the correction soon stops halving and 9 of them
# fail dsgesv's bound (const, k=4, n=2: residual 1.8e-4 after 3 solves),
# 1e4 passes all in 5-11 solves and 1e6 in 5-7 (measured before H_c was
# rounded once; 1e6 now takes 4-7 on the 22 levels with n <= 4 that
# fall back).
_AUGMENT_GAMMA = {np.float32: 300.0, np.float64: 1e6}
# _condensed adds the element terms of H_c this many elements at a time
# (_add_cliques): on disc, k=3, n=32 chunks of 16 to 128 took the same
# time, and larger chunks were slower and held more memory.
_CONDENSE_CHUNK = 32

__all__ = [
    "SolverConfig",
    "SaddleState",
    "SMatrix",
    "make_prox",
    "assemble_S",
    "make_bn",
    "fixed_point_step",
    "residual_2_90",
    "polish_face",
    "solve_p1",
    "solve_p2",
    "Diagnostics",
]


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the p=1 fixed-point iteration (solve_p1).

    alpha is the proximity parameter and residual_tol the bound on r2
    and r3 that counts as converged; both must be real numbers strictly
    between 0 and inf. max_iters is a positive integer and prox_method
    a name make_prox knows ("wl1"). A bad value raises ValueError
    naming the field when the config is built, and the config is frozen,
    so a checked field cannot be changed afterwards.
    """

    alpha: float = 1.0
    residual_tol: float = 1e-8
    max_iters: int = 200000
    prox_method: str = "wl1"

    def __post_init__(self):
        positive_finite("alpha", self.alpha)
        positive_finite("residual_tol", self.residual_tol)
        integer("max_iters", self.max_iters, low=1)
        make_prox(self.prox_method, 2, self.alpha)  # the one holder of the method names


@dataclass
class SaddleState:
    y: np.ndarray
    u: np.ndarray
    x: np.ndarray
    iteration: int = 0

    def flat(self):
        return np.concatenate([self.y, self.u, self.x])


@dataclass
class SMatrix:
    """One p=1 problem, built once by assemble_S (module docstring).

    A is the constraint matrix and B the jump matrix, BT = B^T in CSR
    form, and BA = [B; A] in CSR form gives y = b1 + Bu and the
    constraint residual from u. fp = f - Cb g is the constraint right
    side and c = Bb g the jump offset of the boundary data g, always a
    float array of length nB (zeros for g = 0, the default). prox is
    make_prox's closure at alpha, and lu factorizes the (u, x) block K0
    of the iteration matrix S; S itself is never built.
    """

    A: sp.csr_matrix
    B: sp.csr_matrix
    BT: sp.csr_matrix
    BA: sp.csr_matrix
    fp: np.ndarray
    c: np.ndarray
    alpha: float
    prox: object
    lu: object


@dataclass
class Diagnostics:
    """How a solve_p1 run ended.

    stop_reason is "residual" (converged, also through an accepted face
    polish), "max_iters" or "nonfinite". iterations is the step of the
    returned iterate: the last one on a converged run, the best one
    seen (smallest max(r2, r3)) otherwise. residual_history holds one
    (r2, r3) row per checked step, so len(residual_history) - 1 is the
    last step checked. r1, r2 and r3 belong to the returned iterate.
    """

    converged: bool = False
    stop_reason: str = ""
    iterations: int = 0
    r1: float = np.inf
    r2: float = np.inf
    r3: float = np.inf
    wall_time: float = 0.0
    residual_history: np.ndarray = None  # (r2, r3) of every checked iterate
    polish_attempts: int = 0
    polished_at: int = None  # step whose iterate an accepted polish replaced


def make_prox(method, k, alpha):
    """Blockwise prox of (1/alpha)*phi as a callable on stacked vectors.

    The spaces have k >= 2, where only the weighted-l1 surrogate is
    usable; the closed-form k <= 1 proxes and the numerical oracle in
    prox.py are reference functions, not solver options.
    """
    if method != "wl1":
        raise ValueError(f"unknown prox method {method!r}; the only one is 'wl1'")
    return lambda q: prox_phi_weighted_l1(q, alpha, k)


def _augmented_weights(S2, A, dtype):
    """The weights w = gamma / diag(A diag(S2)^-1 A^T) of the augmented
    block H = S2 + A^T diag(w) A in precision dtype (_solve_augmented),
    gamma = _AUGMENT_GAMMA[dtype].

    diag(A diag(S2)^-1 A^T) is the diagonal of the Schur complement
    A S2^-1 A^T with S2 replaced by its diagonal, so w scales every
    constraint row to about gamma times its own stiffness. A column
    whose S2 diagonal is zero adds nothing to the sums, and a row whose
    sum is zero (a zero row of A) gets the weight 0, so no weight is
    inf or NaN.
    """
    d = S2.diagonal()
    dinv = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0)
    s = sp.csr_matrix((A.data**2, A.indices, A.indptr), shape=A.shape) @ dinv
    return np.divide(_AUGMENT_GAMMA[dtype], s, out=np.zeros_like(s), where=s > 0)


def _check_v0_blocks(blocks, N):
    """Raise ValueError unless blocks = (T, nv0) names T >= 1 element
    blocks of nv0 >= 1 leading v0 columns that leave skeleton columns
    among the N unknowns (ConstraintSystem.v0_blocks)."""
    if not (isinstance(blocks, tuple) and len(blocks) == 2):
        raise ValueError(f"v0_blocks must be a pair (T, nv0), got {blocks!r}")
    T, nv0 = (integer("v0_blocks", b, low=1) for b in blocks)
    if T * nv0 >= N:
        raise ValueError(f"v0_blocks must be (T, nv0) with T * nv0 < N = {N}, got {blocks!r}")


def _sample(X, rows, cols):
    """The entries X[rows, cols] of the sparse matrix X as a dense float64
    array of the broadcast shape of rows and cols (0 where X stores none)."""
    rows, cols = np.broadcast_arrays(rows, cols)
    return np.asarray(X[rows.ravel(), cols.ravel()], dtype=np.float64).reshape(rows.shape)


def _clique_pattern(sk, Ns):
    """The structural pattern of a sum of element cliques on Ns unknowns.

    Row t of sk (T, nsk) holds the unknowns of element t's clique, with
    Ns in a slot that holds no unknown. Returns (indptr, indices, pos):
    the pattern of the union of the cliques sk[t] x sk[t] as canonical
    CSR with int32 arrays, and pos (T, nsk, nsk), the index into the
    pattern's data of entry (sk[t, a], sk[t, b]). An entry whose row or
    column is no unknown gets some index in range; the values summed
    there must be zero.

    Row i of the pattern is the union of the cliques of the elements
    that hold i, so rows held by the same elements (the unknowns of one
    edge) share their columns: the union and each clique column's rank
    in it are formed once per such element set.
    """
    T, nsk = sk.shape
    flat = sk.ravel()
    slot = np.argsort(flat, kind="stable").astype(np.int32)
    rows = flat[slot]
    real = slot[: np.searchsorted(rows, Ns)]
    rows = rows[: len(real)]
    place = np.zeros(T * nsk, dtype=np.int32)  # a slot's place among its row's elements
    place[real] = np.arange(len(real)) - np.searchsorted(rows, rows)
    elems = np.full((Ns, place.max() + 1), T)  # the elements of each row, padded with T
    elems[rows, place[real]] = real // nsk
    key = np.ravel_multi_index(elems.T, (T + 1,) * elems.shape[1])
    _, first_row, group = np.unique(key, return_index=True, return_inverse=True)
    union = np.vstack([sk, np.full(nsk, Ns, dtype=sk.dtype)])[elems[first_row]]
    union = union.reshape(len(first_row), -1)
    order = np.argsort(union, axis=1, kind="stable")
    union = np.take_along_axis(union, order, axis=1)
    new = union < Ns
    new[:, 1:] &= union[:, 1:] != union[:, :-1]
    rank = np.empty(order.shape, dtype=np.int32)
    np.put_along_axis(rank, order, np.cumsum(new, axis=1) - 1, axis=1)
    length = new.sum(axis=1, dtype=np.int32)
    indptr = np.zeros(Ns + 1, dtype=np.int32)
    np.cumsum(length[group], out=indptr[1:])
    shift = (np.cumsum(length) - length)[group] - indptr[:-1]  # from a row to its union
    indices = union[new][np.arange(indptr[-1], dtype=np.int32) + np.repeat(shift, length[group])]
    del union, new, shift
    row = np.append(group * elems.shape[1], 0).astype(np.int32)[flat] + place
    pos = rank.reshape(-1, nsk)[row]
    pos += np.append(indptr[:-1], 0)[flat, None]
    return indptr, indices, pos.reshape(T, nsk, nsk)


def _condensed(S2, A, w, blocks, elem_cols, failure, dtype):
    """The augmented block H = S2 + A^T diag(w) A with its element-interior
    v0 unknowns eliminated exactly (static condensation), element by
    element.

    blocks = (T, nv0): the first N1 = T nv0 unknowns are v0,
    element-major, and elem_cols (T, nloc) holds each element's columns,
    its v0 block first (ConstraintSystem). S2 and A are canonical CSR.
    Element t's M / T rows of A and its v0 rows of S2 have entries only
    in its own columns, so its v0 rows of H come from them alone: with
    G_t = diag(sqrt(w_t)) A_t (float64), H_t0 = S2_t0 + G_t0^T G_t,
    H_t00 = L_t L_t^T (batched Cholesky) and C_t = L_t^-1 H_t0s. Its
    share of the skeleton Schur complement is
    E_t = G_ts^T G_ts - C_t^T C_t, and

        H_c = S2_ss + sum_t E_t

    is summed in float64, in element chunks, on its structural pattern
    (_clique_pattern: every entry of every element's skeleton clique is
    stored, zeros included, so SuperLU orders a pattern that does not
    depend on roundoff), and rounded to dtype once. S2_ss comes first and
    then the elements in order, each E_t mirrored from its upper
    triangle, so entry (i, j) sums the same numbers in the same order as
    entry (j, i): H_c is exactly symmetric (S2 is), and its CSR arrays
    are its CSC arrays. A skeleton column of an element that is boundary
    data (>= N) is a zero column of G_ts and C_t.

    v0_blocks that are not the elements' v0 blocks, or an entry of A's
    element rows or of S2's v0 rows or skeleton block outside the
    elements' columns, raise ValueError; a v0 block that is not positive
    definite raises RuntimeError(failure), all before anything is
    factorized.

    Returns (H_c as canonical CSC, L^-1 as (T, nv0, nv0), C as
    (T, nv0, nsk), sk): sk (T, nsk) numbers each element's skeleton
    columns among the N - N1 skeleton unknowns, with N - N1 where the
    column is boundary data.
    """
    T, nv0 = blocks
    (M, N), N1, cols = A.shape, T * nv0, elem_cols
    if cols.shape[0] != T or not np.array_equal(cols[:, :nv0], np.arange(N1).reshape(T, nv0)):
        raise _not_elementwise(blocks)
    unknown = cols < N
    inside = np.where(unknown, cols, 0)
    mw = M // T
    A_t = _sample(A, np.arange(T * mw).reshape(T, mw, 1), inside[:, None]) * unknown[:, None]
    S2_t0 = _sample(S2, np.arange(N1).reshape(T, nv0, 1), inside[:, None]) * unknown[:, None]
    if (
        mw * T != M
        or np.count_nonzero(A_t) != np.count_nonzero(A.data)
        or np.count_nonzero(S2_t0) != np.count_nonzero(S2.data[: S2.indptr[N1]])
    ):
        raise _not_elementwise(blocks)
    G = A_t * np.sqrt(w).reshape(T, mw, 1)
    del A_t
    H0 = S2_t0 + np.swapaxes(G[:, :, :nv0], 1, 2) @ G
    del S2_t0
    try:
        L_inv = np.linalg.inv(np.linalg.cholesky(H0[:, :, :nv0]))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(failure) from exc
    C = L_inv @ H0[:, :, nv0:]
    Gs = G[:, :, nv0:].copy()
    del H0, G
    Ns = N - N1
    sk = np.where(unknown[:, nv0:], cols[:, nv0:] - N1, Ns).astype(np.int32)
    indptr, indices, pos = _clique_pattern(sk, Ns)
    S2_ss, nnz = S2[N1:, N1:].tocoo(), len(indices)
    lookup = sp.csr_matrix((np.arange(1, nnz + 1, dtype=np.int32), indices, indptr), (Ns, Ns))
    at = np.asarray(lookup[S2_ss.row, S2_ss.col]).ravel() - 1  # -1 outside the pattern
    del lookup
    found = at >= 0
    if np.any(S2_ss.data[~found]):
        raise _not_elementwise(blocks)
    data = np.zeros(nnz)
    data[at[found]] = S2_ss.data[found]
    del S2_ss, at, found
    _add_cliques(data, pos, Gs, C)
    del Gs, pos
    Hc = sp.csr_matrix((data.astype(dtype), indices, indptr), shape=(Ns, Ns))
    return Hc.T, L_inv, C, sk


def _canonical(X):
    """X as CSR with sorted indices and no duplicates; X itself if it is
    one already."""
    X = X.tocsr()
    if not X.has_canonical_format:
        X = X.copy()
        X.sum_duplicates()
    return X


def _not_elementwise(blocks):
    return ValueError(
        f"the v0-v0 part of the augmented block is not block diagonal with "
        f"v0_blocks = {blocks!r}, or S2 or A has entries outside the element "
        f"columns (ConstraintSystem.elem_cols)"
    )


def _add_cliques(data, pos, Gs, C):
    """Add each element's E_t = G_ts^T G_ts - C_t^T C_t, mirrored from its
    upper triangle, at its clique's positions pos (_clique_pattern) of
    data, in element order, _CONDENSE_CHUNK elements at a time."""
    nsk = pos.shape[1]
    a, b = np.indices((nsk, nsk))
    upper = (np.minimum(a, b) * nsk + np.maximum(a, b)).ravel()
    for lo in range(0, len(pos), _CONDENSE_CHUNK):
        part = slice(lo, lo + _CONDENSE_CHUNK)
        g, c = Gs[part], C[part]
        E = np.swapaxes(np.concatenate([g, c], 1), 1, 2) @ np.concatenate([g, -c], 1)
        np.add.at(data, pos[part].ravel(), E.reshape(len(E), -1)[:, upper].ravel())


def _factor_symmetric(K, failure):
    """SuperLU factors of the symmetric or saddle matrix K in K's own
    precision: the p=2 condensed augmented block H_c (_condensed) or a
    p=1 saddle matrix (assemble_S, _project).

    SuperLU runs in symmetric mode: minimum degree ordering on the
    pattern of K + K^T (MMD_AT_PLUS_A), applied to rows and columns
    alike, and a diagonal pivot threshold of 0, so a pivot leaves the
    diagonal only where the diagonal entry is exactly zero. H is SPD,
    and the zero block of a saddle matrix fills in before its pivots
    are reached, so on the built-in cases every pivot stays on the
    diagonal. A positive threshold would let a pivot leave the diagonal
    wherever the diagonal entry is small against its column, which
    undoes the ordering: on the p=2 saddle matrix K of var, k=2, n=24
    that moved 235 pivots and grew the factors from 3.2M to 5.2M L+U
    nonzeros.

    A singular K raises RuntimeError with the message failure.
    """
    try:
        return splu(
            K,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise RuntimeError(failure) from exc


def _kkt_norm(H, A):
    """||K||_inf of K = [[H, A^T], [A, 0]] from the blocks: the row sums
    of |H| + |A^T| on the u rows and of |A| on the lambda rows."""
    absA = abs(A)
    u_rows = abs(H) @ np.ones(H.shape[1]) + absA.T @ np.ones(A.shape[0])
    return max(u_rows.max(), (absA @ np.ones(A.shape[1])).max())


def _dsgesv_bound(z, knorm):
    """LAPACK dsgesv's acceptance bound ||z|| ||K|| eps sqrt(n), sup-norms."""
    return np.abs(z).max() * knorm * np.finfo(np.float64).eps * math.sqrt(len(z))


def _saddle_residual(H, A, rhs, D=None):
    """rhs - K z in float64 for K = [[H, A^T], [A, D]], taken from the
    blocks: (rhs_u - H u - A^T lam, rhs_lam - A u - D lam)."""
    N, AT = H.shape[0], A.T

    def residual(z):
        u, lam = z[:N], z[N:]
        r_lam = rhs[N:] - A @ u
        if D is not None:
            r_lam -= D @ lam
        return np.concatenate([rhs[:N] - H @ u - AT @ lam, r_lam])

    return residual


def _solve_augmented(S2, system, rhs, failure, dtype):
    """Solve the p=2 saddle system K z = rhs, K = [[S2, A^T], [A, 0]],
    from factors of the augmented block H = S2 + A^T W A, condensed to
    its skeleton unknowns, in precision dtype, refined in float64
    (_refine).

    W = diag(w) (_augmented_weights). Adding A^T W (A u - rhs_lam) to
    the first block row leaves the solution unchanged, and H is SPD
    exactly when ker S2 and ker A meet only in 0, the condition under
    which the p=2 solution is unique. For a residual r = (r_u, r_lam)
    the correction solves [[S2, A^T], [A, -W^-1]] (du, dlam) = r:

        du = H^-1 (r_u + A^T W r_lam),  dlam = W (A du - r_lam),

    which differs from K only by -W^-1 in the multiplier block, so the
    refinement converges like the augmented Lagrangian (Uzawa)
    iteration: its error contracts by a factor that falls as gamma
    grows, until the rounding of the factors, which grows with gamma,
    limits it (float32, disc, k=3, n=16, 32: 0.05-0.15 per solve).

    Only the skeleton Schur complement H_c of H is factorized
    (_condensed, from ConstraintSystem.v0_blocks and elem_cols): H^-1 b
    is y = L^-1 b_0, x_s = H_c^-1 (b_s - C^T y), x_0 = L^-T (y - C x_s),
    with the v0 blocks' Cholesky factors L and C = L^-1 H_0s applied in
    float64 from _condensed's element arrays: batched products with each
    L_t^-1 and C_t, C^T y scattered onto the skeleton unknowns by
    np.bincount and x_s gathered back by sk. On disc, k=3, n=32 H_c has
    6.96M L+U nonzeros against 9.64M for H. The residual comes from the
    blocks (_saddle_residual). A zero weight means a zero row of A, so K
    is singular: it raises
    RuntimeError(failure) before anything is factorized, as a singular
    H does. The factors are freed when this call returns.

    Returns (z, sup-norm of its residual).
    """
    S2, A = _canonical(S2), _canonical(system.A)
    w = _augmented_weights(S2, A, dtype)
    if not w.all():
        raise RuntimeError(failure)
    blocks = system.v0_blocks
    Hc, L_inv, C, sk = _condensed(S2, A, w, blocks, system.elem_cols, failure, dtype)
    lu = _factor_symmetric(Hc, failure)
    del Hc
    T, nv0 = blocks
    N, N1, AT = S2.shape[0], T * nv0, A.T
    Ns, sk_flat, Ct, L_invT = N - N1, sk.ravel(), np.swapaxes(C, 1, 2), np.swapaxes(L_inv, 1, 2)

    def correction(r):
        r_u, r_lam = r[:N], r[N:]
        b = r_u + AT @ (w * r_lam)
        y = L_inv @ b[:N1].reshape(T, nv0, 1)
        Cty = np.bincount(sk_flat, (Ct @ y).ravel(), minlength=Ns + 1)[:Ns]
        xs = lu.solve((b[N1:] - Cty).astype(dtype, copy=False))
        xs = np.append(xs.astype(np.float64, copy=False), 0.0)
        x0 = L_invT @ (y - C @ xs[sk][:, :, None])
        du = np.concatenate([x0.ravel(), xs[:Ns]])
        return np.concatenate([du, w * (A @ du - r_lam)])

    return _refine(_saddle_residual(S2, A, rhs), rhs, correction)


def _refine(residual, rhs, solve):
    """Iterative refinement of K z = rhs from an approximate solve.

    residual(z) gives rhs - K z in float64, and solve(r) a float64
    correction: the augmented correction (_solve_augmented) or a solve
    with float64 factors of a polish matrix (_project). z = solve(rhs),
    then z += dz with dz = solve(residual(z)) while the sup-norm of dz is
    at most half that of the correction before it (the dx test of
    LAPACK's xGERFSX), for at most _REFINE_MAX_SOLVES solves in all; the
    first correction is always applied. The correction, not the
    residual, decides: the residual reaches its roundoff floor some
    solves before z stops moving (disc, k=3, n=16: it stops halving at
    the 11th float32 solve, with u 9.6e-13 relative from the float64
    solution; the correction halves until the 13th, 3.1e-13), and past
    it the least residual picks an iterate at random. Whether z is
    accepted is the caller's test (solve_p2).

    Returns (z, sup-norm of its residual): the last iterate applied.
    """
    z = solve(rhs)
    r = residual(z)
    step = np.inf
    for _ in range(_REFINE_MAX_SOLVES - 1):
        dz = solve(r)
        dz_norm = np.abs(dz).max()
        if not dz_norm <= 0.5 * step:
            break
        z, step = z + dz, dz_norm
        r = residual(z)
    return z, np.abs(r).max()


def assemble_S(system, bmat, cfg, g=None):
    """The p=1 problem (SMatrix) of the constraint system (A, Cb, fvec),
    the p=1 jump matrices bmat and the SolverConfig cfg.

    g is the boundary vb data: one finite value per column of
    system.Cb, checked first; None means g = 0, which takes the same
    check and lifting. Lifts g to fp = f - Cb g and c = Bb g, builds the
    prox of cfg.prox_method at cfg.alpha for the block size of bmat, and
    factorizes K0 = [[alpha B^T B, A^T], [A, 0]]; a singular K0 raises
    RuntimeError.
    """
    g = np.zeros(system.Cb.shape[1]) if g is None else g
    _check_boundary_data(system, g)
    fp, c = system.fvec - system.Cb @ g, bmat.Bb @ g
    A, B, alpha = system.A, bmat.B, cfg.alpha
    K0 = sp.bmat([[alpha * (B.T @ B), A.T], [A, None]], format="csc")
    K0.sort_indices()
    lu = _factor_symmetric(K0, "factorization of K0 failed; A may be rank-deficient")
    prox = make_prox(cfg.prox_method, bmat.block_size - 1, alpha)
    BA = sp.vstack([B, A], format="csr")
    return SMatrix(A=A, B=B, BT=B.T.tocsr(), BA=BA, fp=fp, c=c, alpha=alpha, prox=prox, lu=lu)


def make_bn(state, smat):
    """Right-hand side b^n of the linear step S v^{n+1} = b^n.

    The jump vector is Ju = Bu + smat.c and the prox acts on Ju + y.
    x is not read: b2 = -alpha B^T b1 (module docstring).
    """
    Ju = smat.B @ state.u + smat.c
    rhs = np.concatenate([np.empty(smat.B.shape[1]), smat.fp])
    b1 = _step_rhs(smat, state.y, smat.prox(Ju + state.y), rhs)
    return np.concatenate([b1, rhs])


# The private helpers below are the one copy of the step: solve_p1's loop
# and the public make_bn, fixed_point_step and residual_2_90 all call
# them, so the public step functions replay the solver bit for bit.


def _step_rhs(smat, y, P, rhs):
    """b1 = y - P + c of b^n, from P = prox(Bu + c + y).

    b2 = -alpha B^T b1 is written into the head of rhs, the (u, x)
    right-hand side (b2, b3), whose tail b3 the caller has filled.
    Returns b1.
    """
    b1 = y - P
    b1 += smat.c
    np.multiply(smat.BT @ b1, -smat.alpha, out=rhs[: smat.BT.shape[0]])
    return b1


def _solve_step(smat, rhs, b1):
    """Next iterate (y, u, x, [B; A]u) from the (u, x) right-hand side rhs
    and b1: K0 (u, x) = rhs, then y = b1 + Bu."""
    nB, N = smat.B.shape
    ux = smat.lu.solve(rhs)
    u = ux[:N]
    BAu = smat.BA @ u
    return b1 + BAu[:nB], u, ux[N:], BAu


def _sup_gaps(P, Ju, Au, fvec, out):
    """Sup-norm residuals r2 = max |P - Ju| and r3 = max |Au - fvec| of
    the second and third fixed-point equations, as floats.

    out is scratch of length len(P) + len(fvec): both differences go
    into it, so one abs pass and one reduceat give both maxima.
    """
    nB = len(P)
    np.subtract(P, Ju, out=out[:nB])
    np.subtract(Au, fvec, out=out[nB:])
    return np.maximum.reduceat(np.abs(out, out=out), (0, nB)).tolist()


def fixed_point_step(state, smat, bn):
    """One iteration: solve S v^{n+1} = b^n and split the blocks.

    S is block upper-triangular: (u, x) solves K0 (u, x) = (b2, b3)
    with the factorization from assemble_S, then y = b1 + Bu.
    """
    nB = smat.B.shape[0]
    y, u, x, _ = _solve_step(smat, bn[nB:], bn[:nB])
    return SaddleState(y=y, u=u, x=x, iteration=state.iteration + 1)


def _first_residual(state, smat):
    """Sup-norm residual r1 of the first fixed-point equation."""
    return np.abs(smat.A.T @ state.x + smat.alpha * (smat.BT @ state.y)).max()


def residual_2_90(state, smat):
    """Sup-norm residuals (r1, r2, r3) of the three fixed-point equations."""
    Ju = smat.B @ state.u + smat.c
    P = smat.prox(Ju + state.y)
    r2, r3 = _sup_gaps(P, Ju, smat.A @ state.u, smat.fp, np.empty(smat.BA.shape[0]))
    return _first_residual(state, smat), r2, r3


def polish_face(state, smat):
    """Face polish of an iterate: the candidate that solve_p1 tries when
    the clip pattern of prox(Bu + c + y) has held still (module docstring).

    Returns (candidate, (r1, r2, r3)), the candidate as a SaddleState
    with state's iteration number and its sup-norm residuals; solve_p1
    accepts it only if all three are at most residual_tol. Called with
    the run's problem (assemble_S of solve_p1's arguments) on the plain
    iterate that solve_p1 replaced (Diagnostics.polished_at), it returns
    that solver's final iterate bit for bit. A projection whose
    matrix SuperLU cannot factorize raises RuntimeError.
    """
    Ju = smat.B @ state.u + smat.c
    return _polish(smat, state, Ju, smat.prox(Ju + state.y))


def _polish(smat, state, Ju, P):
    """Candidate and its (r1, r2, r3) on the face named by P = prox(Ju + y).

    Z are the rows with P == 0. On the others Ju + y - P is the clipped
    value, +-threshold, which the candidate's y takes there. Primal: u
    moves to the nearest point of {Au = fp, B_Z u = -c_Z}. Dual: (x, y_Z)
    moves to the nearest point of {A^T x + alpha B_Z^T y_Z = -alpha
    B_Zc^T y_Zc}. residual_2_90 gives the residuals, from the same
    helpers as the loop's.
    """
    A, B, alpha = smat.A, smat.B, smat.alpha
    Z = P == 0
    off = ~Z
    BZ, M = B[Z], len(state.x)
    y = Ju + state.y - P
    u = _project(sp.vstack([A, BZ]), np.concatenate([smat.fp, -smat.c[Z]]), state.u)
    w = _project(
        sp.vstack([A, alpha * BZ]).T,
        -alpha * (B[off].T @ y[off]),
        np.concatenate([state.x, state.y[Z]]),
    )
    y[Z] = w[M:]
    cand = SaddleState(y=y, u=u, x=w[:M], iteration=state.iteration)
    return cand, residual_2_90(cand, smat)


def _project(C, r, w):
    """Nearest point to w on {C w' = r}, w + C^T (C C^T + delta I)^{-1} (r - C w).

    C may have dependent rows, so the correction solves the quasi-definite
    [[I, C^T], [C, -delta I]], which is never singular, from its float64
    factors refined by _refine.
    """
    n = C.shape[1]
    rhs = np.concatenate([np.zeros(n), r - C @ w])
    I, D = sp.identity(n), -_POLISH_DELTA * sp.identity(C.shape[0])
    K = sp.bmat([[I, C.T], [C, D]], format="csc")
    K.sort_indices()
    lu = _factor_symmetric(K, "face polish projection is singular")
    return w + _refine(_saddle_residual(I, C, rhs, D), rhs, lu.solve)[0][:n]


def _check_boundary_data(system, g):
    """Raise ValueError unless g holds one finite value per boundary vb DOF."""
    if not np.isfinite(vector("g", g, (system.Cb.shape[1],))).all():
        raise ValueError("g must be finite")


def solve_p1(system, bmat, k, cfg, g=None):
    """Run the fixed-point proximity iteration for the p=1 scheme.

    system is the assembled constraint (A, Cb, fvec), bmat the jump
    matrices for p=1 with block size k + 1, g the boundary vb data
    (None means g = 0); assemble_S checks g and builds the problem
    (SMatrix). The first fixed-point equation holds by construction
    (module docstring), so the loop checks the other two: it stops with
    converged=True only when r2 and r3 are at most cfg.residual_tol
    (stop_reason "residual"), or when a face polish passes all three
    (module docstring; Diagnostics.polish_attempts counts the tries and
    Diagnostics.polished_at names the step whose iterate the accepted
    one replaced). r1 is computed once, on the returned iterate, into
    Diagnostics.r1. Hitting max_iters returns the best iterate seen (by
    the larger of r2 and r3) with converged=False, and so does a
    residual that is not finite (stop_reason "nonfinite"). Only (r2, r3)
    of each iterate are kept (Diagnostics.residual_history).

    Returns (u_coeffs, state, diagnostics).
    """
    try:
        match = integer("k", k) == bmat.block_size - 1
    except ValueError:
        match = False
    if not match:
        raise ValueError(f"k={k!r} does not match the jump matrix's k={bmat.block_size - 1}")
    smat = assemble_S(system, bmat, cfg, g)
    fp, c, prox = smat.fp, smat.c, smat.prox
    nB, N = smat.B.shape
    # the iterate (y, u, x, [B; A]u) as plain arrays; each step allocates
    # new ones, so the best iterate is kept by reference
    y, u, x = np.zeros(nB), np.zeros(N), np.zeros(smat.A.shape[0])
    BAu = np.zeros(smat.BA.shape[0])
    rhs = np.empty(N + len(fp))  # (b2, b3): b3 = fp for the whole run
    rhs[N:] = fp
    gaps = np.empty(nB + len(fp))  # scratch for _sup_gaps

    t0 = time.perf_counter()
    hist = np.empty((256, 2))  # one row per checked iterate, doubled when full
    best = (math.inf, 0, y, u, x)
    reason = "max_iters"
    tol = cfg.residual_tol
    # clip pattern sign(P) as bytes, the step it last changed at, the
    # window each pattern was last tried at, the step of the last try
    pattern, changed_at, tried = None, 0, {}
    attempts, polished_at, last_try = 0, None, -_POLISH_SPACING

    for it in range(cfg.max_iters):
        Ju = BAu[:nB]
        Ju += c  # in place: y has been taken from this step's fresh [B; A]u
        P = prox(Ju + y)
        r2, r3 = _sup_gaps(P, Ju, BAu[nB:], fp, gaps)
        if it == len(hist):
            hist = np.concatenate([hist, np.empty_like(hist)])
        hist[it] = r2, r3
        if not math.isfinite(r2 + r3):
            reason = "nonfinite"
            break
        worst = max(r2, r3)
        if worst < best[0]:
            best = (worst, it, y, u, x)
        if worst <= tol:
            reason = "residual"
            break
        key = np.sign(P).tobytes()
        still = it - changed_at
        if key != pattern:
            pattern, changed_at = key, it
        elif (still == _POLISH_WINDOW and tried.get(key) != _POLISH_WINDOW) or (
            still == _POLISH_SHORT_WINDOW
            and key not in tried
            and it - last_try >= _POLISH_SPACING
        ):
            tried[key], last_try = still, it
            attempts += 1
            try:
                cand, r = _polish(smat, SaddleState(y=y, u=u, x=x, iteration=it), Ju, P)
            except RuntimeError:  # a singular projection rejects the candidate
                cand = None
            if cand is not None and all(v <= tol for v in r):
                y, u, x = cand.y, cand.u, cand.x
                hist[it] = r[1:]
                reason, polished_at = "residual", it
                break
        b1 = _step_rhs(smat, y, P, rhs)
        y, u, x, BAu = _solve_step(smat, rhs, b1)

    count = it + 1
    converged = reason == "residual"
    if not converged:
        _, it, y, u, x = best
    state = SaddleState(y=y, u=u, x=x, iteration=it)

    diag = Diagnostics(
        converged=converged,
        stop_reason=reason,
        iterations=it,
        r1=_first_residual(state, smat),
        wall_time=time.perf_counter() - t0,
        residual_history=hist[:count].copy(),
        polish_attempts=attempts,
        polished_at=polished_at,
    )
    diag.r2, diag.r3 = hist[it]
    return u, state, diag


def solve_p2(system, s2uu, s2ub=None, g=None):
    """Direct solve of the p=2 Euler-Lagrange saddle system.

    K = [[S2, A^T], [A, 0]]. _solve_augmented condenses the augmented
    block H = S2 + A^T W A to its skeleton unknowns, with the v0 layout
    that system.v0_blocks names (checked first: a layout that does not fit
    raises ValueError before anything is factorized), factorizes the
    Schur complement H_c in float32, summed in float64 from S2 and A and
    rounded once, and refines the
    solution of K with the float64 residual taken from S2 and A
    (_refine); the result is accepted if its residual passes dsgesv's
    test ||z|| ||K|| eps sqrt(n), with ||K|| from the blocks
    (_kkt_norm). Otherwise, or if the float32 factorization of H_c
    fails, those factors are freed and the same route runs with H_c in
    float64 and gamma = 1e6 (_AUGMENT_GAMMA). Neither K nor H is ever
    factorized. The benchmark levels (var, k=2, n=16, 32; disc, k=3,
    n=8 to 32) and every const, var and disc level measured with k=3 are
    accepted in float32, after 9 to 14 solves; every level with k = 4
    to 6 and n <= 4 but const and disc, k=4, n=1 (accepted in float32
    after 16 and 14 solves) falls back after 3 float32 solves, and the
    float64 route meets the bound in 4 to 7 solves (const, k=5, n=1,
    cond(K) 3.1e9: 6.1e-15). A float64 solution whose residual still fails
    dsgesv's test is returned with a RuntimeWarning that names the
    residual and the bound; so is the answer to inconsistent
    constraints (equal rows of A with different right sides), where K
    is singular but H is not.

    Refining past dsgesv's stop matters because the error norms of a
    study are differences of near-equal numbers and move with the
    roundoff of the solve. On disc, k=3, n=32, with H_c accumulated in
    float32 and gamma = 100, refining only until the residual stopped
    halving (13 solves) left u 2.2e-11 relative from a float64 solve of
    K and e_L 1.2e-6 relative from the benchmark's reference value,
    outside its gate; refining on while the correction halved (20
    solves) gave 8.7e-13 and 4.8e-7. On the singly rounded H_c with
    gamma = 300 the two rules take 11 and 14 solves and give 9.6e-13 and
    3.8e-7, and 4.4e-13 and 4.1e-7.

    Optional boundary vb data g (one finite value per column of system.Cb)
    needs s2ub, its coupling block of S2; both are checked before the
    factorization.

    Returns (u_coeffs, lam, residual) where residual is the sup-norm of
    the full linear system at the returned solution.
    """
    if g is not None:
        _check_boundary_data(system, g)
        if s2ub is None:
            raise ValueError("s2ub is required with boundary data g")
    A, blocks = system.A, system.v0_blocks
    N = A.shape[1]
    _check_v0_blocks(blocks, N)
    rhs = np.concatenate([np.zeros(N), system.fvec])
    if g is not None:
        rhs[:N] -= s2ub @ g
        rhs[N:] -= system.Cb @ g
    failure = "saddle system is singular; the mesh may be too coarse"
    try:
        z, residual = _solve_augmented(s2uu, system, rhs, failure, np.float32)
    except RuntimeError:
        z = None
    knorm = _kkt_norm(s2uu, A)
    if z is None or not residual <= _dsgesv_bound(z, knorm):
        z, residual = _solve_augmented(s2uu, system, rhs, failure, np.float64)
        bound = _dsgesv_bound(z, knorm)
        if not residual <= bound:
            warnings.warn(
                f"p=2 saddle residual {residual:.3g} is above dsgesv's bound "
                f"||z|| ||K|| eps sqrt(n) = {bound:.3g}; K may be too "
                "ill-conditioned for the refined float64 solve",
                RuntimeWarning,
                stacklevel=2,
            )
    return z[:N], z[N:], residual
