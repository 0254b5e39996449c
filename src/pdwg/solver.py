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
y = b1 + Bu. K0 alone is factorized, once per run; S is built only so
that callers can check a step against it.

For p=2 the constrained minimization is one symmetric indefinite solve,
[[S2, A^T], [A, 0]] (u; lambda) = (0; f), with S2 the quadratic
stabilizer's matrix. Both saddle matrices share A and are factorized
the same way, by _factor_kkt; only H differs.

Boundary vb data g shifts the jump vector by c = Bb g and the
constraint right side by -Cb g in both paths. Shifting the prox
argument by c (and subtracting c back) turns the homogeneous algorithm
into the lifted one, so the iteration formulas below carry c and reduce
to the plain scheme when g is absent.
"""

import time
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .prox import prox_phi_weighted_l1

__all__ = [
    "SolverConfig",
    "SaddleState",
    "SMatrix",
    "make_prox",
    "assemble_S",
    "make_bn",
    "fixed_point_step",
    "residual_2_90",
    "solve_p1",
    "solve_p2",
    "Diagnostics",
]


@dataclass
class SolverConfig:
    alpha: float = 1.0
    residual_tol: float = 1e-8
    max_iters: int = 200000
    prox_method: str = "wl1"

    def __post_init__(self):
        for name in ("alpha", "residual_tol"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not isinstance(self.max_iters, Integral) or self.max_iters < 1:
            raise ValueError(
                f"max_iters must be an integer of at least 1, got {self.max_iters!r}"
            )
        if self.prox_method != "wl1":
            raise ValueError(
                f"unknown prox method {self.prox_method!r}; the only one is 'wl1'"
            )


@dataclass
class SaddleState:
    y: np.ndarray
    u: np.ndarray
    x: np.ndarray
    iteration: int = 0
    # [B; A] u, kept by fixed_point_step: its B rows give the next jumps
    # and the y substitution, its A rows the constraint residual
    BAu: np.ndarray = field(default=None, repr=False, compare=False)

    def flat(self):
        return np.concatenate([self.y, self.u, self.x])


@dataclass
class SMatrix:
    """The iteration matrix S and the factorization that solves with it.

    S is the full (y, u, x) matrix. lu factorizes its (u, x) block K0
    only (see _factor_kkt), and BA = [B; A] in CSR form gives
    y = b1 + Bu and the constraint residual from u.
    """

    S: sp.csc_matrix
    lu: object
    nB: int
    N: int
    BA: sp.csr_matrix


@dataclass
class Diagnostics:
    converged: bool = False
    stop_reason: str = ""
    iterations: int = 0
    r1: float = np.inf
    r2: float = np.inf
    r3: float = np.inf
    wall_time: float = 0.0
    residual_history: np.ndarray = None  # (r2, r3) of every checked iterate


def make_prox(method, k, alpha):
    """Blockwise prox of (1/alpha)*phi as a callable on stacked vectors.

    The spaces have k >= 2, where only the weighted-l1 surrogate is
    usable; the closed-form k <= 1 proxes and the numerical oracle in
    prox.py are reference functions, not solver options.
    """
    if method != "wl1":
        raise ValueError(f"unknown prox method {method!r}; the only one is 'wl1'")
    return lambda q: prox_phi_weighted_l1(q, alpha, k)


def _factor_kkt(H, A, failure):
    """Build and factorize the symmetric saddle matrix K = [[H, A^T], [A, 0]].

    Both schemes solve with such a K: p=2 with H = S2, every p=1 step
    with H = alpha B^T B. SuperLU runs in
    symmetric mode: minimum degree ordering on the pattern of K + K^T
    (MMD_AT_PLUS_A), applied to rows and columns alike, and a diagonal
    pivot threshold of 0, so a pivot leaves the diagonal only where the
    diagonal entry is exactly zero. The zero block of K fills in before
    its pivots are reached, so on the built-in cases every pivot stays
    on the diagonal. A positive threshold would let a pivot leave the
    diagonal wherever the diagonal entry is small against its column,
    which undoes the ordering: on the p=2 K of var, k=2, n=24 that moves
    235 pivots and grows the factors from 3.2M to 5.2M L+U nonzeros.

    Returns (K, lu) with K in CSC form. A singular K raises RuntimeError
    with the message failure.
    """
    K = sp.bmat([[H, A.T], [A, None]], format="csc")
    try:
        lu = splu(
            K,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise RuntimeError(failure) from exc
    return K, lu


def assemble_S(A, B, alpha):
    """Build S and factorize its (u, x) block K0 (one time per config)."""
    if not 0 < alpha < np.inf:
        raise ValueError("alpha must be positive and finite")
    nB, N = B.shape
    K0, lu = _factor_kkt(
        alpha * (B.T @ B), A, "factorization of S failed; A may be rank-deficient"
    )
    top = sp.hstack([-B, sp.csr_matrix((nB, A.shape[0]))])
    S = sp.bmat([[sp.eye(nB), top], [None, K0]], format="csc")
    return SMatrix(S=S, lu=lu, nB=nB, N=N, BA=sp.vstack([B, A], format="csr"))


def make_bn(state, B, fvec, alpha, prox, c=None):
    """Right-hand side b^n of the linear step S v^{n+1} = b^n.

    c is the constant jump offset from boundary data (zero when absent):
    the effective jump vector is Bu + c and the prox acts on Bu + c + y.
    x is not read: b2 = -alpha B^T b1 (module docstring).
    """
    _, P = _prox_point(B @ state.u, state.y, prox, c)
    return _step_rhs(state, P, B.T, alpha, fvec, c)


def _prox_point(Bu, y, prox, c):
    """Jumps Ju = Bu + c of the current iterate and P = prox(Ju + y)."""
    Ju = Bu if c is None else Bu + c
    return Ju, prox(Ju + y)


def _step_rhs(state, P, BT, alpha, fvec, c=None):
    """b^n from the prox P = prox(Bu + c + y) of the current iterate;
    its third block is the constraint's right side fvec.

    The one copy of the step shared by make_bn and solve_p1, so the
    public step functions replay the solver's iteration bit for bit.
    """
    b1 = state.y - P
    if c is not None:
        b1 = b1 + c
    return np.concatenate([b1, -alpha * (BT @ b1), fvec])


def fixed_point_step(state, smat, bn):
    """One iteration: solve S v^{n+1} = b^n and split the blocks.

    S is block upper-triangular: (u, x) solves K0 (u, x) = (b2, b3)
    with the factorization from assemble_S, then y = b1 + Bu. The new
    state keeps [B; A] u for the next step.
    """
    nB, N = smat.nB, smat.N
    ux = smat.lu.solve(bn[nB:])
    u = ux[:N]
    BAu = smat.BA @ u
    return SaddleState(
        y=bn[:nB] + BAu[:nB],
        u=u,
        x=ux[N:],
        iteration=state.iteration + 1,
        BAu=BAu,
    )


def _residuals(Ju, P, Au, fvec):
    """Sup-norm residuals r2, r3 of the second and third fixed-point
    equations, from the jumps Ju = Bu + c, P = prox(Ju + y) and Au."""
    return np.abs(P - Ju).max(), np.abs(Au - fvec).max()


def _first_residual(state, A, B, alpha):
    """Sup-norm residual r1 of the first fixed-point equation."""
    return np.abs(A.T @ state.x + alpha * (B.T @ state.y)).max()


def residual_2_90(state, A, B, fvec, alpha, prox, c=None):
    """Sup-norm residuals of the three fixed-point equations."""
    Ju, P = _prox_point(B @ state.u, state.y, prox, c)
    r2, r3 = _residuals(Ju, P, A @ state.u, fvec)
    return _first_residual(state, A, B, alpha), r2, r3


def _check_boundary_data(system, g):
    """Raise ValueError unless g holds one value per boundary vb DOF."""
    NB = system.Cb.shape[1]
    if np.shape(g) != (NB,):
        raise ValueError(
            f"g must have shape ({NB},), one value per boundary vb DOF; "
            f"got shape {np.shape(g)}"
        )


def solve_p1(system, bmat, k, cfg, g=None):
    """Run the fixed-point proximity iteration for the p=1 scheme.

    system is the assembled constraint (A, Cb, fvec), bmat the jump
    matrices for p=1, g the optional boundary vb data: one value per
    column of system.Cb, checked before S is factorized. The first
    fixed-point equation holds by construction (module docstring), so
    the loop checks the other two: it stops with converged=True only
    when r2 and r3 are at most cfg.residual_tol (stop_reason
    "residual"). r1 is computed once, on the returned iterate, into
    Diagnostics.r1. Hitting max_iters returns the best iterate seen (by
    the larger of r2 and r3) with converged=False, and so does a
    residual that is not finite (stop_reason "nonfinite"). Only (r2, r3)
    of each iterate are kept (Diagnostics.residual_history).

    Returns (u_coeffs, state, diagnostics).
    """
    if k != bmat.block_size - 1:
        raise ValueError(f"k={k} does not match the jump matrix's k={bmat.block_size - 1}")
    if g is not None:
        _check_boundary_data(system, g)
    A, fvec, B = system.A, system.fvec, bmat.B
    prox = make_prox(cfg.prox_method, k, cfg.alpha)
    alpha = cfg.alpha

    c = None if g is None else bmat.Bb @ g
    fp = fvec if g is None else fvec - system.Cb @ g

    smat = assemble_S(A, B, alpha)
    nB = smat.nB
    state = SaddleState(
        y=np.zeros(nB),
        u=np.zeros(B.shape[1]),
        x=np.zeros(A.shape[0]),
        BAu=np.zeros(smat.BA.shape[0]),
    )

    t0 = time.perf_counter()
    hist = np.empty((256, 2))  # one row per checked iterate, doubled when full
    count = 0
    best = (np.inf, state)
    reason = "max_iters"

    BT = B.T.tocsr()

    for _ in range(cfg.max_iters):
        Ju, P = _prox_point(state.BAu[:nB], state.y, prox, c)
        r2, r3 = _residuals(Ju, P, state.BAu[nB:], fp)
        if count == len(hist):
            hist = np.concatenate([hist, np.empty_like(hist)])
        hist[count] = r2, r3
        count += 1
        if not np.isfinite(r2 + r3):
            reason = "nonfinite"
            break
        worst = max(r2, r3)
        if worst < best[0]:
            best = (worst, state)
        if worst <= cfg.residual_tol:
            reason = "residual"
            break
        state = fixed_point_step(state, smat, _step_rhs(state, P, BT, alpha, fp, c))

    converged = reason == "residual"
    if not converged:
        state = best[1]

    diag = Diagnostics(
        converged=converged,
        stop_reason=reason,
        iterations=state.iteration,
        r1=_first_residual(state, A, B, alpha),
        wall_time=time.perf_counter() - t0,
        residual_history=hist[:count].copy(),
    )
    diag.r2, diag.r3 = hist[state.iteration]
    return state.u, state, diag


def solve_p2(system, s2uu, s2ub=None, g=None):
    """Direct solve of the p=2 Euler-Lagrange saddle system.

    K = [[S2, A^T], [A, 0]] is factorized by _factor_kkt. One step of
    iterative refinement with the same factors follows, because the
    error norms of a study are differences of near-equal numbers and
    move with the roundoff of the solve: on disc, k=3, n=32, e_L from
    this factorization and from one with minimum degree ordering on
    K^T K and partial pivoting differ by about 1.9e-6 relative
    unrefined, and agree to about 2e-8 refined.

    Optional boundary vb data g (one value per column of system.Cb)
    needs s2ub, its coupling block of S2; both are checked before the
    factorization.

    Returns (u_coeffs, lam, residual) where residual is the sup-norm of
    the full linear system at the refined solution.
    """
    if g is not None:
        _check_boundary_data(system, g)
        if s2ub is None:
            raise ValueError("s2ub is required with boundary data g")
    A, fvec = system.A, system.fvec
    N = A.shape[1]
    M = A.shape[0]
    rhs = np.zeros(N + M)
    rhs[N:] = fvec
    if g is not None:
        rhs[:N] -= s2ub @ g
        rhs[N:] -= system.Cb @ g
    K, lu = _factor_kkt(
        s2uu, A, "saddle system is singular; the mesh may be too coarse"
    )
    z = lu.solve(rhs)
    z += lu.solve(rhs - K @ z)
    residual = np.abs(K @ z - rhs).max()
    return z[:N], z[N:], residual
