"""Manufactured-solution test problems, error norms, and convergence studies.

Each built-in problem prescribes the exact solution and coefficient
matrix; the load f is synthesized pointwise from the exact Hessian so
the discrete solution can be compared against u directly. Errors are
measured in L^p, the W^{1,p} seminorm, and the discrete W^{2,p} norm
s_tilde(e_h) + ||Q_h L e_0||_{0,p} with e_h = Q_h u - u_h.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from ._checks import exponent, integer, vector
from .fe_space import Discretization, SpaceConfig, WeakFunction, project_Qh
from .fe_space import _project_Wh_values, derivative_map
from .mesh import build_uniform
from .solver import SolverConfig, solve_p1, solve_p2
from .stabilizer import assemble_B, assemble_S2, eval_s_tilde
from .weak_assembly import CoefficientField, assemble_A, check_ellipticity

__all__ = [
    "ProblemCase",
    "ErrorReport",
    "ConvergenceTable",
    "builtin_case",
    "error_lp",
    "error_w1p",
    "error_w2ph",
    "rates",
    "check_study",
    "run_study",
]


@dataclass
class ProblemCase:
    name: str
    field: CoefficientField
    description: str = ""


@dataclass
class ErrorReport:
    n: int
    h: float
    e_L: float
    e_W1: float
    e_W2: float
    iterations: int
    residuals: tuple
    converged: bool = True
    wall_time: float = 0.0


@dataclass
class ConvergenceTable:
    case: str
    p: float
    k: int
    reports: list = field(default_factory=list)

    def column(self, name):
        return [getattr(r, name) for r in self.reports]

    def rate_columns(self):
        n = self.column("n")
        return {
            name: rates(self.column(name), n) for name in ("e_L", "e_W1", "e_W2")
        }


def _sym(p, xx, xy, yy):
    """(..., 2, 2) symmetric matrices [[xx, xy], [xy, yy]] at the points p;
    each entry is an array over p's leading axes or a scalar."""
    out = np.empty(p.shape[:-1] + (2, 2))
    out[..., 0, 0] = xx
    out[..., 0, 1] = xy
    out[..., 1, 0] = xy
    out[..., 1, 1] = yy
    return out


def _sinsin():
    pi = np.pi

    def u(p):
        return np.sin(pi * p[..., 0]) * np.sin(pi * p[..., 1])

    def grad_u(p):
        x, y = p[..., 0], p[..., 1]
        return pi * np.stack(
            [np.cos(pi * x) * np.sin(pi * y), np.sin(pi * x) * np.cos(pi * y)],
            axis=-1,
        )

    def hess_u(p):
        x, y = p[..., 0], p[..., 1]
        d = -(pi**2) * np.sin(pi * x) * np.sin(pi * y)
        return _sym(p, d, pi**2 * np.cos(pi * x) * np.cos(pi * y), d)

    return u, grad_u, hess_u


def _synth_f(a, hess_u):
    def f(p):
        return np.einsum("...ij,...ij->...", a(p), hess_u(p))

    return f


def _case(name, a, solution, description):
    """ProblemCase with coefficient a, exact (u, grad_u, hess_u) and the
    load f = a : hess_u synthesized from them."""
    u, grad_u, hess_u = solution
    field = CoefficientField(a=a, f=_synth_f(a, hess_u), u=u, grad_u=grad_u, hess_u=hess_u)
    return ProblemCase(name, field, description)


def builtin_case(name):
    """Problem definitions: const | var | disc coefficient examples."""
    if name == "const":
        def a(p):
            return _sym(p, 1.0, 1.0, 6.0)

        return _case(name, a, _sinsin(), "constant coefficients, smooth solution")
    if name == "var":
        def a(p):
            x, y = p[..., 0], p[..., 1]
            return _sym(p, 1.0 + x, 0.5 * x * y, 1.0 + y)

        return _case(name, a, _sinsin(), "variable coefficients, smooth solution")
    if name == "disc":
        # u = g(x) g(y) with g(t) = t (1 - e^{1-t})
        def g(t):
            return t * (1.0 - np.exp(1.0 - t))

        def dg(t):
            return 1.0 - np.exp(1.0 - t) + t * np.exp(1.0 - t)

        def ddg(t):
            return (2.0 - t) * np.exp(1.0 - t)

        def u(p):
            return g(p[..., 0]) * g(p[..., 1])

        def grad_u(p):
            x, y = p[..., 0], p[..., 1]
            return np.stack([dg(x) * g(y), g(x) * dg(y)], axis=-1)

        def hess_u(p):
            x, y = p[..., 0], p[..., 1]
            return _sym(p, ddg(x) * g(y), dg(x) * dg(y), g(x) * ddg(y))

        def a(p):
            x, y = p[..., 0], p[..., 1]
            return _sym(p, 2.0, np.sign(x - 0.5) * np.sign(y - 0.5), 2.0)

        return _case(
            name,
            a,
            (u, grad_u, hess_u),
            "checkerboard off-diagonal coefficients, smooth solution",
        )
    raise ValueError(f"unknown problem case {name!r}")


# ---------------------------------------------------------------------------
# error norms


def _elementwise_lp(disc, vals, p):
    """L^p norm from per-element quadrature values of the integrand."""
    if p == np.inf:
        return np.abs(vals).max()
    total = np.sum(disc.quad_w * np.abs(vals) ** p)
    return total ** (1.0 / p)


def error_lp(disc, u_h, case, p):
    """||u - u_0||_{0,p} by elementwise quadrature."""
    exponent("p", p)
    exact = case.field.u(disc.quad_pts)
    approx = np.einsum("tqn,tn->tq", disc.basis_v, _v0_blocks(disc, u_h))
    return _elementwise_lp(disc, exact - approx, p)


def error_w1p(disc, u_h, case, p):
    """L^p norm of the pointwise Euclidean length of grad u - grad u_0."""
    exponent("p", p)
    exact = case.field.grad_u(disc.quad_pts)
    v0 = _v0_blocks(disc, u_h)
    approx = np.stack([_v0_derivative(disc, v0, d) for d in ((1, 0), (0, 1))], axis=-1)
    mag = np.linalg.norm(exact - approx, axis=-1)
    return _elementwise_lp(disc, mag, p)


def error_w2ph(disc, u_h, case, p):
    """Discrete W^{2,p} error: s_tilde(e_h) + ||Q_h L e_0||_{0,p}, e_h = Q_h u - u_h."""
    exponent("p", p)
    qh = project_Qh(case.field.u, case.field.grad_u, disc)
    e = WeakFunction(
        disc.layout,
        qh.coeffs - u_h.coeffs,
        boundary=qh.boundary_or_zero() - u_h.boundary_or_zero(),
    )
    st = eval_s_tilde(disc, e, p)

    e0 = _v0_blocks(disc, e)
    xx, xy, yy = (_v0_derivative(disc, e0, d) for d in ((2, 0), (1, 1), (0, 2)))
    hess = _sym(disc.quad_pts, xx, xy, yy)
    le0 = np.einsum("tqij,tqij->tq", case.field.a(disc.quad_pts), hess)
    proj = np.einsum("tqm,tm->tq", disc.basis_w, _project_Wh_values(disc, le0))
    return st + _elementwise_lp(disc, proj, p)


def _v0_blocks(disc, u_h):
    layout = disc.layout
    return u_h.coeffs[: layout.N1].reshape(disc.mesh.num_elements, layout.nv0)


def _v0_derivative(disc, v0, deriv):
    """(T, q) values at the quadrature points of the deriv derivative of the
    (T, nv0) v0 blocks: the coefficients are differentiated exactly first."""
    D = derivative_map(disc.cfg.k, deriv, disc.mesh.elem_h)
    return (disc.basis_v @ (D @ v0[..., None]))[..., 0]


def rates(errors, n):
    """Rates log2(e_i / e_{i+1}) / log2(n_{i+1} / n_i) of errors on meshes
    of sizes n. Needs positive finite errors, one positive integer size
    per error and no two consecutive sizes equal."""
    e = np.asarray(errors, dtype=float)
    n = vector("n", [integer("n", m, low=1) for m in n], e.shape)
    if not np.all((0 < e) & (e < np.inf)):
        raise ValueError("rates need positive finite errors")
    if np.any(n[1:] == n[:-1]):
        raise ValueError("rates need no two consecutive mesh sizes equal")
    return list(np.log2(e[:-1] / e[1:]) / np.log2(n[1:] / n[:-1]))


# ---------------------------------------------------------------------------
# study driver


def check_study(problem, p, n_list):
    """Raise ValueError unless run_study can solve problem at p on every level of n_list."""
    try:
        known = integer("p", p) in (1, 2)
    except ValueError:
        known = False
    if not known:
        raise ValueError(f"no solver for p={p!r}; use 1 or 2")
    for n in n_list:
        if integer("n", n, low=1) % 2 and problem == "disc":
            raise ValueError(
                f"the disc case needs even n so mesh lines track the "
                f"coefficient jumps; got n={n}"
            )
    if len(set(n_list)) < len(n_list):
        raise ValueError(f"mesh sizes n must not repeat, got {tuple(n_list)}")


def run_study(case, p, n_list, k=2, l=None, cfg=None):
    """Solve the case over a list of mesh sizes and report errors.

    p=2 uses the direct saddle solve, p=1 the fixed-point iteration
    (cfg carries its parameters). Non-convergence at a level is
    recorded in that level's report rather than raised, so callers get
    the partial table either way. Arguments that break check_study
    raise ValueError before any level is built, a coefficient that is
    not finite and symmetric positive definite at some quadrature point
    before anything is assembled, and a non-finite load before the solve.

    Each report's wall_time covers the same stages for both p: the
    stabilizer or jump assembly, the factorization and the solve (or
    the whole fixed-point iteration).
    """
    check_study(case.name, p, n_list)
    if cfg is None:
        cfg = SolverConfig()
    table = ConvergenceTable(case=case.name, p=p, k=k)
    for n in n_list:
        table.reports.append(_study_level(case, p, n, k, l, cfg))
    return table


def _study_level(case, p, n, k, l, cfg):
    """One level of run_study, as its ErrorReport.

    The level's mesh, tables, matrices and solution are locals here, so
    they are freed before the next level is built.
    """
    mesh = build_uniform(n)
    disc = Discretization(mesh, SpaceConfig(k=k, l=l))
    check_ellipticity(case.field, disc.quad_pts)
    system = assemble_A(disc, case.field)
    if not np.isfinite(system.fvec).all():
        raise ValueError("load vector is not finite; f must be finite on the domain")
    t0 = time.perf_counter()
    if p == 2:
        suu, sub = assemble_S2(disc)
        coeffs, lam, res = solve_p2(system, suu, sub)
        iters, residuals, converged = 1, (res,), True
    else:
        bmat = assemble_B(disc, 1)
        coeffs, state, diag = solve_p1(system, bmat, k, cfg)
        iters = diag.iterations
        residuals = (diag.r1, diag.r2, diag.r3)
        converged = diag.converged
    wall = time.perf_counter() - t0
    u_h = WeakFunction(disc.layout, coeffs)
    return ErrorReport(
        n=n,
        h=mesh.h,
        e_L=error_lp(disc, u_h, case, p),
        e_W1=error_w1p(disc, u_h, case, p),
        e_W2=error_w2ph(disc, u_h, case, p),
        iterations=iters,
        residuals=residuals,
        converged=converged,
        wall_time=wall,
    )
