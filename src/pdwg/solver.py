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
carries (y, u, x, [B; A]u) as plain arrays and writes b2 into one (u, x)
right-hand side whose tail holds b3 for the whole run; it calls the same
private helpers (_jumps, _step_rhs, _solve_step, _sup_gaps) as make_bn,
fixed_point_step and residual_2_90, so those public functions replay
its iterates and residuals bit for bit.

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
it is factorized (_condensed): the v0 blocks get dense Cholesky
factors, and SuperLU factorizes only the Schur complement H_c (disc,
k=3, n=32: 6.96M L+U nonzeros, against 9.64M for H and 18.1M for K).
H_c is factorized in float32; a solution that fails dsgesv's bound
||z|| ||K|| eps sqrt(n), or a float32 H_c that cannot be factorized,
falls back to the same route with H_c in float64 and a larger gamma
(_AUGMENT_GAMMA), and solve_p2 warns if that solution fails the bound
too. Neither K nor H is ever built. The p=1 K0 and the polish matrices
are saddle matrices, stacked from their blocks by sp.bmat as CSC with
sorted indices; every matrix here is factorized with the same
symmetric SuperLU options (_factor_symmetric), and every refined
solve, p=2 and polish, follows one rule (_refine): apply the next
correction while it is at most half the previous one, for at most 30
solves.

Boundary vb data g shifts the jump vector by c = Bb g and the
constraint right side by -Cb g in both paths. Shifting the prox
argument by c (and subtracting c back) turns the homogeneous algorithm
into the lifted one, so the iteration formulas below carry c and reduce
to the plain scheme when g is absent.
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
# of H (_augmented_weights). float32: on disc, k=3, n=32 the refined u
# came within 1e-12 relative of the float64 solve's by about the 16th
# solve with gamma = 100, but was still 7e-8 away after 24 solves with
# gamma = 10 (slower contraction) and 1e-11 with gamma = 1000 (a less
# accurate float32 H). float64, on 15 levels that fall back (const, var
# and disc with k = 4 to 6, n = 1 to 8): with gamma = 100 the correction
# soon stops halving and 9 of them fail dsgesv's bound (const, k=4, n=2:
# residual 1.8e-4 after 3 solves), 1e4 passes all in 5-11 solves and 1e6
# in 5-7.
_AUGMENT_GAMMA = {np.float32: 100.0, np.float64: 1e6}

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
    side and c = Bb g the jump offset of the boundary data g (c is None
    without it). prox is make_prox's closure at alpha, and lu factorizes
    the (u, x) block K0 of the iteration matrix S; S itself is never
    built.
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


def _condensed(S2, A, w, blocks, failure, dtype):
    """The augmented block H = S2 + A^T diag(w) A with its element-interior
    v0 unknowns eliminated exactly (static condensation).

    blocks = (T, nv0): the first N1 = T nv0 unknowns are v0, element-major,
    and each element's v0 couples to no other element's, so the v0-v0 part
    H00 of H is block diagonal. With G = diag(sqrt(w)) A (float64) the v0
    rows of H are H0 = S2[:N1] + G[:, :N1]^T G; H00 = L L^T (batched
    Cholesky of its (T, nv0, nv0) diagonal blocks) and C = L^-1 H0[:, N1:].
    The skeleton Schur complement

        H_c = H_ss - C^T C = [G_s^T, C^T, I] [G_s; -C; S2_ss]

    is one sparse product in precision dtype, so no float64 H_c is built
    for a float32 one. Entry (i, j) sums the same products in the same
    order as entry (j, i), and S2 is symmetric, so H_c is exactly
    symmetric and its CSR arrays are its CSC arrays. G, H0 and the
    product's inputs are freed before this returns.

    A v0-v0 entry outside the diagonal blocks raises ValueError, and a
    block that is not positive definite RuntimeError(failure), both
    before anything is factorized.

    Returns (H_c as canonical CSC, L^-1 as (T, nv0, nv0), C as CSR).
    """
    T, nv0 = blocks
    N1 = T * nv0
    sqrt_w = np.repeat(np.sqrt(w), np.diff(A.indptr))
    G = sp.csr_matrix((A.data * sqrt_w, A.indices, A.indptr), shape=A.shape)
    del sqrt_w
    H0 = S2[:N1] + G[:, :N1].T.tocsr() @ G
    v00 = H0[:, :N1].tocoo()
    t, i = np.divmod(v00.row, nv0)
    t_col, j = np.divmod(v00.col, nv0)
    inside = t == t_col
    if np.any(v00.data[~inside]):
        raise ValueError(
            f"the v0-v0 part of the augmented block is not block diagonal with "
            f"v0_blocks = {blocks!r}"
        )
    H00 = np.zeros((T, nv0, nv0))
    H00[t[inside], i[inside], j[inside]] = v00.data[inside]
    del v00, t, i, t_col, j, inside
    try:
        L_inv = np.linalg.inv(np.linalg.cholesky(H00))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(failure) from exc
    L_inv_diag = sp.bsr_matrix((L_inv, np.arange(T), np.arange(T + 1)), shape=(N1, N1))
    C = (L_inv_diag @ H0[:, N1:]).tocsr()
    del H00, H0, L_inv_diag
    Gs = G[:, N1:].astype(dtype)
    del G
    Cd = C.astype(dtype)
    S2s = S2[N1:, N1:].astype(dtype)
    eye = sp.identity(S2s.shape[0], dtype=dtype, format="csr")
    left = sp.hstack([Gs.T.tocsr(), Cd.T.tocsr(), eye], format="csr")
    right = sp.vstack([Gs, -Cd, S2s], format="csr")
    del Gs, Cd, S2s, eye  # only the two factors and H_c are held by the product
    Hc = left @ right
    del left, right
    Hc.sort_indices()
    return Hc.T, L_inv, C


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


def _solve_augmented(S2, A, blocks, rhs, failure, dtype):
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
    limits it (float32, disc, k=3, n=16, 32: 0.15-0.3 per solve).

    Only the skeleton Schur complement H_c of H is factorized
    (_condensed, blocks = ConstraintSystem.v0_blocks): H^-1 b is
    y = L^-1 b_0, x_s = H_c^-1 (b_s - C^T y), x_0 = L^-T (y - C x_s),
    with the v0 blocks' Cholesky factors L and C = L^-1 H_0s applied in
    float64. On disc, k=3, n=32 H_c has 6.96M L+U nonzeros against
    9.64M for H. The residual comes from the blocks (_saddle_residual).
    A zero weight means a zero row of A, so K is singular: it raises
    RuntimeError(failure) before anything is factorized, as a singular
    H does. The factors are freed when this call returns.

    Returns (z, sup-norm of its residual).
    """
    S2, A = S2.tocsr(), A.tocsr()
    w = _augmented_weights(S2, A, dtype)
    if not w.all():
        raise RuntimeError(failure)
    Hc, L_inv, C = _condensed(S2, A, w, blocks, failure, dtype)
    lu = _factor_symmetric(Hc, failure)
    del Hc
    T, nv0 = blocks
    N, N1, AT, CT, L_invT = S2.shape[0], T * nv0, A.T, C.T, np.swapaxes(L_inv, 1, 2)

    def correction(r):
        r_u, r_lam = r[:N], r[N:]
        b = r_u + AT @ (w * r_lam)
        y = (L_inv @ b[:N1].reshape(T, nv0, 1)).ravel()
        xs = lu.solve((b[N1:] - CT @ y).astype(dtype, copy=False))
        xs = xs.astype(np.float64, copy=False)
        x0 = (L_invT @ (y - C @ xs).reshape(T, nv0, 1)).ravel()
        du = np.concatenate([x0, xs])
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
    residual, decides: the residual reaches its roundoff floor several
    solves before z stops moving (disc, k=3, n=16: 2e-14 at the 13th
    float32 solve, with u still 1.4e-11 relative from the float64
    solution), and past it the least residual picks an iterate at
    random. Whether z is accepted is the caller's test (solve_p2).

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

    g is the optional boundary vb data: one finite value per column of
    system.Cb, checked first. Lifts it to fp = f - Cb g and c = Bb g,
    builds the prox of cfg.prox_method at cfg.alpha for the block size
    of bmat, and factorizes K0 = [[alpha B^T B, A^T], [A, 0]]; a
    singular K0 raises RuntimeError.
    """
    fp, c = system.fvec, None
    if g is not None:
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

    With boundary data the effective jump vector is Bu + c and the prox
    acts on Bu + c + y (smat.c). x is not read: b2 = -alpha B^T b1
    (module docstring).
    """
    nB, N = smat.B.shape
    Ju = _jumps(smat.B @ state.u, smat.c)
    P = smat.prox(Ju + state.y)
    bn = np.empty(nB + N + len(smat.fp))
    bn[nB + N :] = smat.fp
    bn[:nB] = _step_rhs(state.y, P, smat.c, smat.BT, smat.alpha, bn[nB:])
    return bn


# The private helpers below are the one copy of the step: solve_p1's loop
# and the public make_bn, fixed_point_step and residual_2_90 all call
# them, so the public step functions replay the solver bit for bit.


def _jumps(Bu, c):
    """Jumps Ju = Bu + c of an iterate; Bu itself when c is absent."""
    return Bu if c is None else Bu + c


def _step_rhs(y, P, c, BT, alpha, rhs):
    """b1 = y - P + c of b^n, from P = prox(Bu + c + y).

    b2 = -alpha B^T b1 is written into the head of rhs, the (u, x)
    right-hand side (b2, b3), whose tail b3 the caller has filled.
    Returns b1.
    """
    b1 = y - P
    if c is not None:
        b1 += c
    np.multiply(BT @ b1, -alpha, out=rhs[: BT.shape[0]])
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
    Ju = _jumps(smat.B @ state.u, smat.c)
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
    Ju = _jumps(smat.B @ state.u, smat.c)
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
    A, B, alpha, c = smat.A, smat.B, smat.alpha, smat.c
    Z = P == 0
    off = ~Z
    BZ, M = B[Z], len(state.x)
    y = Ju + state.y - P
    cZ = np.zeros(BZ.shape[0]) if c is None else -c[Z]
    u = _project(sp.vstack([A, BZ]), np.concatenate([smat.fp, cZ]), state.u)
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
    matrices for p=1 with block size k + 1, g the optional boundary vb
    data; assemble_S checks g and builds the problem (SMatrix). The first
    fixed-point equation holds by construction (module docstring), so
    the loop checks the other two: it stops with converged=True only
    when r2 and r3 are at most cfg.residual_tol (stop_reason
    "residual"), or when a face polish passes all three (module
    docstring; Diagnostics.polish_attempts counts the tries and
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
    BT, fp, c, alpha, prox = smat.BT, smat.fp, smat.c, smat.alpha, smat.prox
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
        Ju = _jumps(BAu[:nB], c)
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
        b1 = _step_rhs(y, P, c, BT, alpha, rhs)
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
    Schur complement H_c in float32, built from S2 and A, and refines the
    solution of K with the float64 residual taken from S2 and A
    (_refine); the result is accepted if its residual passes dsgesv's
    test ||z|| ||K|| eps sqrt(n), with ||K|| from the blocks
    (_kkt_norm). Otherwise, or if the float32 factorization of H_c
    fails, those factors are freed and the same route runs with H_c in
    float64 and gamma = 1e6 (_AUGMENT_GAMMA). Neither K nor H is ever
    factorized. The benchmark levels (var, k=2, n=16, 32; disc, k=3,
    n=8 to 32) and every const, var and disc level measured with k=3 are
    accepted in float32, after 10 to 20 solves; every level with k = 4
    to 6 and n <= 4 but disc, k=4, n=1 (accepted in float32 after 21
    solves) falls back after 3 or 4 float32 solves, and the float64
    route meets the bound in 5 to 9 solves (const, k=5, n=1, cond(K)
    3.1e9: 7.1e-15). A float64 solution whose residual still fails
    dsgesv's test is returned with a RuntimeWarning that names the
    residual and the bound; so is the answer to inconsistent
    constraints (equal rows of A with different right sides), where K
    is singular but H is not.

    Refining past dsgesv's stop matters because the error norms of a
    study are differences of near-equal numbers and move with the
    roundoff of the solve. On disc, k=3, n=32, refining the float32
    route only until its residual stops halving (13 solves) leaves u
    2.2e-11 relative from a float64 solve of K and e_L 1.2e-6 relative
    from the benchmark's reference value, outside its gate; refining on
    while the correction halves (20 solves) gives 8.7e-13 and 4.8e-7.

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
        z, residual = _solve_augmented(s2uu, A, blocks, rhs, failure, np.float32)
    except RuntimeError:
        z = None
    knorm = _kkt_norm(s2uu, A)
    if z is None or not residual <= _dsgesv_bound(z, knorm):
        z, residual = _solve_augmented(s2uu, A, blocks, rhs, failure, np.float64)
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
