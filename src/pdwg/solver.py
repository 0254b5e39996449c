"""Solvers: fixed-point proximity iteration (p=1) and direct saddle solve (p=2).

The p=1 scheme minimizes phi(Bu) subject to Au = f through the
fixed-point equations

    beta A^T x + alpha B^T y = 0,
    y = (I - prox_{(1/alpha)phi})(Bu + y),
    Au = f,

iterated as S v^{n+1} = b^n with v = (y, u, x),

    S = [[I, -B, 0], [0, alpha B^T B, beta A^T], [0, beta A, 0]],

and b^n assembled from the prox of the current jumps. S is block
upper-triangular, so each step is solved in two stages: the symmetric
KKT block

    K0 = [[alpha B^T B, beta A^T], [beta A, 0]]

gives (u, x) from (b2, b3), and substitution gives y = b1 + Bu. K0 never
changes, so it alone is factorized, once, and reused for every
iteration: sparse LU in SuperLU's symmetric mode, with minimum degree
ordering on K0 + K0^T and a diagonal pivot threshold of 1e-3. Its
factors hold about half the nonzeros of a COLAMD-ordered LU of S. S
itself is built only so that callers can check a step against it.

For p=2 the stabilizer is quadratic and the constrained minimization is
one symmetric indefinite solve: [[S2, A^T], [A, 0]] (u; lambda) = (0; f)
with S2 the stabilizer's second-derivative matrix.

Inhomogeneous boundary values enter both paths the same way: boundary
vb data g shifts the jump vector by c = Bb g and the constraint right
side by -Cb g. Shifting the prox argument by c (and subtracting c back)
turns the homogeneous algorithm into the lifted one, so the iteration
formulas below carry c explicitly but reduce to the plain scheme when
g is absent.
"""

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .fe_space import WeakFunction
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
    beta: float = 1.0
    tol: float = 1e-10
    residual_tol: float = 1e-8
    max_iters: int = 200000
    prox_method: str = "wl1"

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if self.tol <= 0 or self.residual_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
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

    S is the full (y, u, x) matrix. lu is the symmetric-mode SuperLU
    factorization of its (u, x) block K0 only (minimum degree on
    K0 + K0^T, diagonal pivot threshold 1e-3; see assemble_S), and
    BA = [B; A] in CSR form gives y = b1 + Bu and the constraint
    residual from u.
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
    residual_history: np.ndarray = None


def make_prox(method, k, alpha):
    """Blockwise prox of (1/alpha)*phi as a callable on stacked vectors.

    The spaces have k >= 2, where only the weighted-l1 surrogate is
    usable; the closed-form k <= 1 proxes and the numerical oracle in
    prox.py are reference functions, not solver options.
    """
    if method != "wl1":
        raise ValueError(f"unknown prox method {method!r}; the only one is 'wl1'")
    return lambda q: prox_phi_weighted_l1(q, alpha, k)


def assemble_S(A, B, alpha, beta):
    """Build S and factorize its (u, x) block K0 (one time per config).

    K0 = [[alpha B^T B, beta A^T], [beta A, 0]] is symmetric, so SuperLU
    runs in symmetric mode: minimum degree on K0 + K0^T (MMD_AT_PLUS_A)
    and a diagonal pivot threshold of 1e-3, so a diagonal pivot is kept
    unless it is below 1e-3 of its column's largest entry. The zero
    (x, x) block fills in before it is reached: on const, k=2, n=1..8
    every pivot is diagonal. At n=3 the factors hold 10,890 nonzeros,
    against 20,634 for S under the default COLAMD ordering.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    nB, N = B.shape
    BtB = alpha * (B.T @ B)
    K0 = sp.bmat([[BtB, beta * A.T], [beta * A, None]], format="csc")
    S = sp.bmat(
        [
            [sp.eye(nB), -B, None],
            [None, BtB, beta * A.T],
            [None, beta * A, None],
        ],
        format="csc",
    )
    try:
        lu = splu(
            K0,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=1e-3,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise RuntimeError(
            "factorization of S failed; A may be rank-deficient"
        ) from exc
    return SMatrix(S=S, lu=lu, nB=nB, N=N, BA=sp.vstack([B, A], format="csr"))


def make_bn(state, A, B, fvec, alpha, beta, prox, c=None):
    """Right-hand side b^n of the linear step S v^{n+1} = b^n.

    c is the constant jump offset from boundary data (zero when absent):
    the effective jump vector is Bu + c and the prox acts on Bu + c + y.
    """
    Bu = B @ state.u
    if c is not None:
        Bu = Bu + c
    P = prox(Bu + state.y)
    return _step_rhs(state, P, A.T @ state.x, B.T, alpha, beta, beta * fvec, c)


def _step_rhs(state, P, ATx, BT, alpha, beta, b3, c=None):
    """b^n from the prox P = prox(Bu + c + y) and ATx = A^T x of the
    current iterate.

    The one copy of the step shared by make_bn and solve_p1, so the
    public step functions replay the solver's iteration bit for bit.
    """
    b1 = state.y - P
    if c is not None:
        b1 = b1 + c
        P = P - c
    b2 = alpha * (BT @ P) + beta * ATx
    return np.concatenate([b1, b2, b3])


def fixed_point_step(state, smat, bn):
    """One iteration: solve S v^{n+1} = b^n and split the blocks.

    S is block upper-triangular: (u, x) solves K0 (u, x) = (b2, b3)
    with the symmetric-mode factorization from assemble_S, then
    y = b1 + Bu. The new state keeps [B; A] u for the next step.
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


def _residuals(y, Ju, P, ATx, Au, BT, fvec, alpha, beta):
    """Sup-norm residuals of the three fixed-point equations, given the
    jumps Ju = Bu + c, their prox P = prox(Ju + y), ATx = A^T x and Au."""
    r1 = np.abs(beta * ATx + alpha * (BT @ y)).max()
    r2 = np.abs(P - Ju).max()
    r3 = np.abs(Au - fvec).max()
    return r1, r2, r3


def _relative_step(old, new):
    """|new - old| / (1 + |old|) over the stacked (y, u, x), blockwise."""
    d2 = n2 = 0.0
    for a, b in ((old.y, new.y), (old.u, new.u), (old.x, new.x)):
        d = b - a
        d2 += np.dot(d, d)
        n2 += np.dot(a, a)
    return np.sqrt(d2) / (1.0 + np.sqrt(n2))


def residual_2_90(state, A, B, fvec, alpha, beta, prox, c=None):
    """Sup-norm residuals of the three fixed-point equations."""
    Ju = B @ state.u
    if c is not None:
        Ju = Ju + c
    P = prox(Ju + state.y)
    return _residuals(
        state.y, Ju, P, A.T @ state.x, A @ state.u, B.T, fvec, alpha, beta
    )


def solve_p1(system, bmat, k, cfg, g=None):
    """Run the fixed-point proximity iteration for the p=1 scheme.

    system is the assembled constraint (A, Cb, fvec), bmat the jump
    matrices for p=1, g the optional boundary vb data. Stops when the
    fixed-point residual or the relative step drops below its
    tolerance (stop_reason "residual" or "step"); hitting max_iters
    returns the best iterate seen (by worst-case residual) with
    converged=False, and so does a residual that is not finite
    (stop_reason "nonfinite"). Only the residuals of each iterate are
    kept (Diagnostics.residual_history).

    Returns (u_coeffs, state, diagnostics).
    """
    A, fvec = system.A, system.fvec
    B = bmat.B
    prox = make_prox(cfg.prox_method, k, cfg.alpha)
    alpha, beta = cfg.alpha, cfg.beta

    if g is not None:
        c = bmat.Bb @ g
        fp = fvec - system.Cb @ g
    else:
        c = None
        fp = fvec

    smat = assemble_S(A, B, alpha, beta)
    nB = smat.nB
    state = SaddleState(
        y=np.zeros(nB),
        u=np.zeros(B.shape[1]),
        x=np.zeros(A.shape[0]),
        BAu=np.zeros(smat.BA.shape[0]),
    )

    t0 = time.perf_counter()
    # one row per checked iterate; pages past the last row are never touched
    hist = np.empty((cfg.max_iters, 3))
    count = 0
    best = (np.inf, state)
    converged = False
    reason = "max_iters"
    prev_step = np.inf

    AT = A.T.tocsr()
    BT = B.T.tocsr()
    b3 = beta * fp

    for _ in range(cfg.max_iters):
        Ju = state.BAu[:nB]
        if c is not None:
            Ju = Ju + c
        P = prox(Ju + state.y)
        ATx = AT @ state.x
        r1, r2, r3 = _residuals(
            state.y, Ju, P, ATx, state.BAu[nB:], BT, fp, alpha, beta
        )
        hist[count] = r1, r2, r3
        count += 1
        if not np.isfinite(r1 + r2 + r3):
            reason = "nonfinite"
            break
        worst = max(r1, r2, r3)
        if worst < best[0]:
            best = (worst, state)
        if worst <= cfg.residual_tol:
            converged = True
            reason = "residual"
            break
        if prev_step <= cfg.tol:
            converged = True
            reason = "step"
            break

        new = fixed_point_step(state, smat, _step_rhs(state, P, ATx, BT, alpha, beta, b3, c))
        prev_step = _relative_step(state, new)
        state = new

    if not converged:
        state = best[1]

    diag = Diagnostics(
        converged=converged,
        stop_reason=reason,
        iterations=state.iteration,
        wall_time=time.perf_counter() - t0,
        residual_history=hist[:count].copy(),
    )
    diag.r1, diag.r2, diag.r3 = hist[min(state.iteration, count - 1)]
    return state.u, state, diag


def solve_p2(system, s2uu, s2ub=None, g=None):
    """Direct solve of the p=2 Euler-Lagrange saddle system.

    K = [[S2, A^T], [A, 0]] is factorized by sparse LU with SuperLU's
    MMD_ATA column ordering (minimum degree on K^T K), which fills the
    factors far less than the default COLAMD on these systems. One step
    of iterative refinement with the same factors follows: without it
    the error norms of a k=3 study move by about 2e-6 relative between
    the two orderings, with it by about 2e-7.

    Returns (u_coeffs, lam, residual) where residual is the sup-norm of
    the full linear system at the refined solution.
    """
    A, fvec = system.A, system.fvec
    N = A.shape[1]
    M = A.shape[0]
    K = sp.bmat([[s2uu, A.T], [A, None]], format="csc")
    rhs = np.zeros(N + M)
    rhs[N:] = fvec
    if g is not None:
        rhs[:N] -= s2ub @ g
        rhs[N:] -= system.Cb @ g
    try:
        lu = splu(K, permc_spec="MMD_ATA")
    except RuntimeError as exc:
        raise RuntimeError(
            "saddle system is singular; the mesh may be too coarse"
        ) from exc
    z = lu.solve(rhs)
    z += lu.solve(rhs - K @ z)
    residual = np.abs(K @ z - rhs).max()
    return z[:N], z[N:], residual
