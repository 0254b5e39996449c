"""Acceptance suite: one test per acceptance criterion, each ending in a
single PASS line with the measured numbers (or failing its assert).

One sub-check, test_04_discontinuous_w2h_rate_window, is known to fail
as stated and is kept red on purpose rather than weakened; see its note.
"""

import numpy as np
import pytest
import scipy.linalg

from pdwg.analysis import builtin_case, error_lp, error_w1p, error_w2ph, run_study
from pdwg.fe_space import (
    Discretization,
    SpaceConfig,
    WeakFunction,
    project_Qh,
    project_Wh,
    project_boundary,
)
from pdwg.mesh import build_uniform
from pdwg.prox import (
    integral_abs_linear,
    prox_phi_k1,
    prox_phi_oracle,
    prox_phi_weighted_l1,
    soft_threshold,
)
from pdwg.solver import (
    SaddleState,
    SolverConfig,
    assemble_S,
    fixed_point_step,
    make_bn,
    make_prox,
    solve_p1,
    solve_p2,
)
from pdwg.stabilizer import assemble_B, assemble_S2, eval_phi, eval_s
from pdwg.weak_assembly import CoefficientField, assemble_A, weak_hessian_apply


def poly_field():
    def a(p):
        out = np.zeros(p.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0
        out[..., 0, 1] = 1.0
        out[..., 1, 0] = 1.0
        out[..., 1, 1] = 6.0
        return out

    return CoefficientField(
        a=a,
        f=lambda p: np.full(p.shape[:-1], 14.0),
        u=lambda p: p[..., 0] ** 2 + p[..., 1] ** 2,
        grad_u=lambda p: 2.0 * p,
    )


@pytest.fixture(scope="module")
def p2_tables():
    return {
        name: run_study(builtin_case(name), 2, [8, 16, 32])
        for name in ("const", "var", "disc")
    }


# alpha=16 keeps the same fixed-point limit (the iteration converges for
# any positive alpha, beta and the limit does not depend on them) while
# reaching the residual tolerance well inside the iteration cap.
P1_CFG = SolverConfig(alpha=16.0, prox_method="wl1")


@pytest.fixture(scope="module")
def p1_study():
    """Fixed-point runs for the p=1 study, shared across criterion 5."""
    case = builtin_case("const")
    out = {}
    for n in (4, 8):
        disc = Discretization(build_uniform(n), SpaceConfig(k=2))
        system = assemble_A(disc, case.field)
        bmat = assemble_B(disc, 1)
        u, state, diag = solve_p1(system, bmat, 2, P1_CFG)
        out[n] = (disc, case, u, state, diag)
    return out


def in_window(rates_arr, lo, hi):
    return all(lo <= r <= hi for r in rates_arr)


def test_01_polynomial_exactness_both_solvers():
    field = poly_field()
    worst = {"p1": 0.0, "p2": 0.0, "s": 0.0}
    for n in (1, 2, 4):
        disc = Discretization(build_uniform(n), SpaceConfig(k=2))
        system = assemble_A(disc, field)
        g = project_boundary(field.u, disc)
        qh = project_Qh(field.u, field.grad_u, disc)

        bmat = assemble_B(disc, 1)
        u1, _, diag = solve_p1(
            system, bmat, 2, SolverConfig(prox_method="wl1"), g=g
        )
        assert diag.converged
        err1 = np.abs(u1 - qh.coeffs).max()
        assert err1 <= 1e-6
        s1 = eval_s(disc, WeakFunction(disc.layout, u1, boundary=g), 1)
        assert s1 <= 1e-8

        suu, sub = assemble_S2(disc)
        u2, _, _ = solve_p2(system, suu, sub, g=g)
        err2 = np.abs(u2 - qh.coeffs).max()
        assert err2 <= 1e-9
        s2 = eval_s(disc, WeakFunction(disc.layout, u2, boundary=g), 2)
        assert s2 <= 1e-8

        worst["p1"] = max(worst["p1"], err1)
        worst["p2"] = max(worst["p2"], err2)
        worst["s"] = max(worst["s"], s1, s2)
    print(
        f"PASS 1 polynomial exactness: p1 {worst['p1']:.2e} <= 1e-6, "
        f"p2 {worst['p2']:.2e} <= 1e-9, stabilizer {worst['s']:.2e} <= 1e-8"
    )


def test_02_const_coefficients_p2_rates(p2_tables):
    table = p2_tables["const"]
    rc = table.rate_columns()
    assert in_window(rc["e_L"], 2.7, 3.6)
    assert in_window(rc["e_W1"], 1.8, 2.6)
    assert in_window(rc["e_W2"], 0.7, 1.2)
    e32 = table.reports[-1].e_L
    assert 1.59e-5 / 3 <= e32 <= 1.59e-5 * 3
    print(
        f"PASS 2 const p=2: L2 rates {np.round(rc['e_L'], 2)}, "
        f"W1 {np.round(rc['e_W1'], 2)}, W2h {np.round(rc['e_W2'], 2)}, "
        f"L2(n=32) {e32:.3e} within 3x of 1.59e-05"
    )


def test_03_variable_coefficients_p2_rates(p2_tables):
    rc = p2_tables["var"].rate_columns()
    assert in_window(rc["e_L"], 2.7, 3.6)
    assert in_window(rc["e_W1"], 1.8, 2.6)
    assert in_window(rc["e_W2"], 0.7, 1.2)
    print(
        f"PASS 3 var p=2: L2 rates {np.round(rc['e_L'], 2)}, "
        f"W1 {np.round(rc['e_W1'], 2)}, W2h {np.round(rc['e_W2'], 2)}"
    )


def test_04_discontinuous_coefficients_p2_rates(p2_tables):
    rc = p2_tables["disc"].rate_columns()
    assert in_window(rc["e_L"], 2.3, 2.8)
    assert in_window(rc["e_W1"], 1.9, 2.2)
    print(
        f"PASS 4 disc p=2: L2 rates {np.round(rc['e_L'], 2)} in [2.3,2.8], "
        f"W1 {np.round(rc['e_W1'], 2)} in [1.9,2.2]"
    )


def test_04_discontinuous_w2h_rate_window(p2_tables):
    """Expected-red: the W2h rate window for the disc case.

    The error norm here measures e_h = (projection of u) - u_h, whose
    second-derivative part superconverges at these coarse levels; the
    blended rates land near 1.26 and 1.19, above the stated [0.7, 1.1]
    window. The stabilizer part alone shows 0.86 and 0.94, matching the
    expected first-order behavior. Kept red rather than widening the
    window or changing the measured quantity.
    """
    rc = p2_tables["disc"].rate_columns()
    assert in_window(rc["e_W2"], 0.7, 1.1), (
        f"W2h rates {np.round(rc['e_W2'], 3)} outside [0.7, 1.1]"
    )
    print(f"PASS 4b disc W2h rates {np.round(rc['e_W2'], 2)} in [0.7,1.1]")


@pytest.mark.slow
def test_05_fixed_point_p1_study(p1_study):
    errors = {}
    for n, (disc, case, u, _, diag) in p1_study.items():
        assert diag.converged, f"n={n} did not converge in {diag.iterations} iters"
        u_h = WeakFunction(disc.layout, u)
        errors[n] = error_w1p(disc, u_h, case, 1)
        # the linear constraint must hold from the first iterate on
        r3 = diag.residual_history[1:, 2]
        assert r3.max() <= 1e-8
    rate = np.log2(errors[4] / errors[8])
    assert 2.0 <= rate <= 2.9
    print(
        f"PASS 5 p=1 study: converged n=4,8 "
        f"({p1_study[4][4].iterations}, {p1_study[8][4].iterations} iters), "
        f"W11 rate {rate:.2f} in [2.0,2.9], constraint residual <= 1e-8"
    )


@pytest.mark.slow
def test_05_summed_increment_energy_bound(p1_study):
    """The per-iteration energy inequality behind the convergence proof.

    With (y*, u*) the limit of the n=4 run, for every n >= 1
        |y^{n+1} - y*|^2 + |Bu^{n+1} - Bu*|^2
          + sum_{i=1..n} (|Bu^i - Bu^{i+1}|^2 + |y^{i+1} - y^i|^2)
          <= |y^1 - y*|^2 + |Bu^1 - Bu*|^2.
    The iteration is ADMM on min phi(P) subject to P = Bu, Au = f, and
    this is its standard Lyapunov inequality, which needs the iterate to
    satisfy the constraint. Iterate 0 (u = 0) does not satisfy Au = f,
    so the bound counts from iterate 1, the first one that does.

    Diagnostics holds no errors against the limit, so the run is
    replayed from the zero state through the public step functions,
    accumulating the terms on the fly; the replay must end on the
    solver's own final iterate.
    """
    disc, case, _, limit, diag = p1_study[4]
    assert diag.converged, f"n=4 did not converge in {diag.iterations} iters"
    system = assemble_A(disc, case.field)
    B = assemble_B(disc, 1).B
    alpha, beta = P1_CFG.alpha, P1_CFG.beta
    smat = assemble_S(system.A, B, alpha, beta)
    prox = make_prox(P1_CFG.prox_method, 2, alpha)
    y_star, Bu_star = limit.y, B @ limit.u

    state = SaddleState(
        y=np.zeros(B.shape[0]), u=np.zeros(B.shape[1]), x=np.zeros(system.A.shape[0])
    )
    Bu = B @ state.u
    err = np.empty(diag.iterations + 1)  # err[n] = |y^n - y*|^2 + |Bu^n - Bu*|^2
    inc = np.empty(diag.iterations)  # inc[n] = |Bu^n - Bu^{n+1}|^2 + |y^{n+1} - y^n|^2
    err[0] = np.sum((state.y - y_star) ** 2) + np.sum((Bu - Bu_star) ** 2)
    for n in range(diag.iterations):
        bn = make_bn(state, system.A, B, system.fvec, alpha, beta, prox)
        new = fixed_point_step(state, smat, bn)
        Bu_new = B @ new.u
        inc[n] = np.sum((Bu - Bu_new) ** 2) + np.sum((new.y - state.y) ** 2)
        err[n + 1] = np.sum((new.y - y_star) ** 2) + np.sum((Bu_new - Bu_star) ** 2)
        state, Bu = new, Bu_new
    replay_gap = max(
        np.abs(state.u - limit.u).max(), np.abs(state.y - limit.y).max()
    )
    assert replay_gap <= 1e-12, f"replay departs from solve_p1 by {replay_gap:.3e}"

    lhs = err[2:] + np.cumsum(inc[1:])
    rhs = err[1]
    worst = (lhs - rhs).max()
    assert np.all(lhs <= rhs + 1e-12), (
        f"energy bound violated by {worst:.3e} (rhs = {rhs:.3e})"
    )
    print(
        f"PASS 5b energy inequality holds at every iteration n >= 1 "
        f"({diag.iterations} iters, margin {-worst:.3e}, rhs = {rhs:.3e}, "
        f"replay gap {replay_gap:.1e})"
    )


@pytest.mark.slow
def test_06_prox_correctness():
    rng = np.random.default_rng(42)
    worst_k1 = 0.0
    for _ in range(200):
        v = 3.0 * rng.standard_normal(2)
        alpha = float(rng.uniform(0.3, 3.0))
        gap = np.abs(prox_phi_k1(v, alpha) - prox_phi_oracle(v, alpha, 1)).max()
        worst_k1 = max(worst_k1, gap)
    assert worst_k1 <= 1e-6

    worst_k0 = 0.0
    for _ in range(200):
        v = 3.0 * rng.standard_normal(1)
        alpha = float(rng.uniform(0.3, 3.0))
        gap = np.abs(
            soft_threshold(v, 1.0 / alpha) - prox_phi_oracle(v, alpha, 0)
        ).max()
        worst_k0 = max(worst_k0, gap)
    assert worst_k0 <= 1e-8

    assert integral_abs_linear(1, 1) == 1.5
    assert integral_abs_linear(-1, 2) == 0.5
    assert integral_abs_linear(-2, 1) == 1.5

    x, w = np.polynomial.legendre.leggauss(64)
    t, wt = 0.5 * (x + 1), 0.5 * w

    def gauss64(a, b):
        cuts = [0.0, 1.0]
        if b != 0 and 0 < -a / b < 1:
            cuts = [0.0, -a / b, 1.0]
        return sum(
            (hi - lo) * np.sum(wt * np.abs(a + b * (lo + (hi - lo) * t)))
            for lo, hi in zip(cuts[:-1], cuts[1:])
        )

    worst_q = 0.0
    for _ in range(1000):
        a, b = rng.standard_normal(2) * 3
        worst_q = max(worst_q, abs(integral_abs_linear(a, b) - gauss64(a, b)))
    assert worst_q <= 1e-10
    print(
        f"PASS 6 prox correctness: k1 oracle gap {worst_k1:.2e} <= 1e-6, "
        f"k0 gap {worst_k0:.2e} <= 1e-8, reference integrals exact, "
        f"quadrature gap {worst_q:.2e} <= 1e-10"
    )


def test_07_structural_invariants():
    rng = np.random.default_rng(3)

    # weak Hessian of the projection equals the projected Hessian
    u = lambda p: p[..., 0] ** 3 + p[..., 0] * p[..., 1] ** 2
    grad = lambda p: np.stack(
        [3 * p[..., 0] ** 2 + p[..., 1] ** 2, 2 * p[..., 0] * p[..., 1]],
        axis=-1,
    )
    hess = {
        (0, 0): lambda p: 6 * p[..., 0],
        (0, 1): lambda p: 2 * p[..., 1],
        (1, 0): lambda p: 2 * p[..., 1],
        (1, 1): lambda p: 2 * p[..., 0],
    }
    disc = Discretization(build_uniform(2), SpaceConfig(k=2))
    qh = project_Qh(u, grad, disc)
    gap_qq = max(
        np.abs(weak_hessian_apply(disc, qh, i, j) - project_Wh(dij, disc)).max()
        for (i, j), dij in hess.items()
    )
    assert gap_qq <= 1e-9

    # the jump functional evaluated through B matches the stabilizer
    gap_phi = 0.0
    for n in (1, 2, 4):
        disc_n = Discretization(build_uniform(n), SpaceConfig(k=2))
        bmat = assemble_B(disc_n, 1)
        for _ in range(100):
            v = rng.normal(size=disc_n.layout.N)
            phi = eval_phi(bmat.B @ v, 2)
            s = eval_s(disc_n, WeakFunction(disc_n.layout, v), 1)
            gap_phi = max(gap_phi, abs(phi - s) / max(1.0, abs(s)))
    assert gap_phi <= 1e-9

    # constraint matrix has full row rank
    field = builtin_case("const").field
    for n in (1, 2):
        disc_n = Discretization(build_uniform(n), SpaceConfig(k=2))
        sv = np.linalg.svd(assemble_A(disc_n, field).A.toarray(), compute_uv=False)
        assert sv.min() > 1e-10 * sv.max()

    # the fixed-point matrix factorizes with nonzero pivots
    disc1 = Discretization(build_uniform(1), SpaceConfig(k=2))
    system = assemble_A(disc1, field)
    bmat = assemble_B(disc1, 1)
    for alpha in (0.5, 1.0, 2.0):
        for beta in (0.5, 1.0, 2.0):
            smat = assemble_S(system.A, bmat.B, alpha, beta)
            piv = np.abs(smat.lu.U.diagonal())
            assert piv.min() > 1e-12 * (1.0 + piv.max())

    # every prox operator is firmly nonexpansive on samples; the
    # numerical oracle only satisfies the inequality up to its own
    # accuracy, so it gets a looser margin than the closed forms
    proxes = [
        (lambda q: soft_threshold(q, 0.7), 1, 50, 1e-10),
        (lambda q: prox_phi_k1(q, 1.3), 2, 50, 1e-10),
        (lambda q: prox_phi_weighted_l1(q, 1.0, 2), 3, 50, 1e-10),
        (lambda q: prox_phi_oracle(q, 1.0, 1), 2, 8, 1e-6),
    ]
    gap_firm = -np.inf
    for op, m, samples, margin in proxes:
        for _ in range(samples):
            x = 3.0 * rng.normal(size=m)
            z = 3.0 * rng.normal(size=m)
            px, pz = op(x), op(z)
            gap = np.sum((px - pz) ** 2) - np.dot(x - z, px - pz)
            assert gap <= margin
            gap_firm = max(gap_firm, gap - margin)
    print(
        f"PASS 7 structural invariants: hessian-projection gap {gap_qq:.1e}, "
        f"phi-vs-stabilizer gap {gap_phi:.1e}, A full rank, S factorizes, "
        f"firm nonexpansiveness slack {-gap_firm:.1e}"
    )


def test_08_optimality_sampling():
    case = builtin_case("const")
    disc = Discretization(build_uniform(2), SpaceConfig(k=2))
    system = assemble_A(disc, case.field)
    bmat = assemble_B(disc, 1)
    u, _, diag = solve_p1(system, bmat, 2, SolverConfig(prox_method="wl1"))
    assert diag.converged

    kernel = scipy.linalg.null_space(system.A.toarray())
    rng = np.random.default_rng(11)
    base = eval_phi(bmat.B @ u, 2)
    worst = np.inf
    for _ in range(20):
        z = kernel @ rng.normal(size=kernel.shape[1])
        z /= np.linalg.norm(z)
        for eps in (-1e-2, -1e-3, 1e-3, 1e-2):
            trial = eval_phi(bmat.B @ (u + eps * z), 2)
            worst = min(worst, trial - base)
            assert trial >= base - 1e-8
    print(
        f"PASS 8 optimality sampling: min perturbation gain {worst:.3e} "
        f">= -1e-8 over 20 kernel directions"
    )
