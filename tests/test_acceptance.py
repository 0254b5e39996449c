"""Acceptance suite: one test per acceptance criterion, each ending in a
single PASS line with the measured numbers (or failing its assert).

One sub-check, test_04_discontinuous_w2h_rate_window, is known to fail
as stated and is kept red on purpose rather than weakened; see its note.
"""

import numpy as np
import pytest
import scipy.linalg

from pdwg.analysis import builtin_case, error_w1p, run_study
from pdwg.cli import main
from pdwg.fe_space import (
    Discretization,
    SpaceConfig,
    WeakFunction,
    project_Qh,
    project_boundary,
)
from pdwg.mesh import build_uniform
from pdwg.prox import prox_phi_k1, prox_phi_oracle, soft_threshold
from pdwg.solver import SolverConfig, assemble_S, solve_p1, solve_p2
from pdwg.stabilizer import assemble_B, assemble_S2, eval_phi, eval_s
from pdwg.weak_assembly import assemble_A

from conftest import poly_field, replay_p1


@pytest.fixture(scope="module")
def p2_tables():
    return {
        name: run_study(builtin_case(name), 2, [8, 16, 32])
        for name in ("const", "var", "disc")
    }


# alpha=16 keeps the same fixed-point limit (the iteration converges for
# any positive alpha and the limit does not depend on it) while
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
        r3 = diag.residual_history[1:, 1]
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

    The polished point solve_p1 returns is an exact fixed point, so it
    serves as (y*, u*). Diagnostics holds no errors against it, so the
    run is replayed from the zero state through the public step functions
    up to Diagnostics.polished_at, accumulating the terms on the fly; the
    replay's (r2, r3) rows and its polish_face must equal the solver's
    bit for bit.
    """
    disc, case, _, limit, diag = p1_study[4]
    assert diag.converged, f"n=4 did not converge in {diag.iterations} iters"
    assert diag.polished_at == diag.iterations
    system = assemble_A(disc, case.field)
    bmat = assemble_B(disc, 1)
    B = bmat.B
    y_star, Bu_star = limit.y, B @ limit.u
    err = []  # err[n] = |y^n - y*|^2 + |Bu^n - Bu*|^2
    inc = []  # inc[n] = |Bu^n - Bu^{n+1}|^2 + |y^{n+1} - y^n|^2
    prev = None

    def visit(state):
        nonlocal prev
        Bu = B @ state.u
        err.append(np.sum((state.y - y_star) ** 2) + np.sum((Bu - Bu_star) ** 2))
        if prev is not None:
            inc.append(np.sum((prev[0] - Bu) ** 2) + np.sum((state.y - prev[1]) ** 2))
        prev = Bu, state.y

    final, rows = replay_p1(assemble_S(system, bmat, P1_CFG), diag, visit)
    assert np.array_equal(rows, diag.residual_history)
    for name in "uyx":
        assert np.array_equal(getattr(final, name), getattr(limit, name)), name
    err, inc = np.array(err), np.array(inc)

    lhs = err[2:] + np.cumsum(inc[1:])
    rhs = err[1]
    worst = (lhs - rhs).max()
    assert np.all(lhs <= rhs + 1e-12), (
        f"energy bound violated by {worst:.3e} (rhs = {rhs:.3e})"
    )
    print(
        f"PASS 5b energy inequality holds at every iteration n >= 1 "
        f"({diag.iterations} iters, polished at {diag.polished_at}, "
        f"margin {-worst:.3e}, rhs = {rhs:.3e}, replay bit for bit)"
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
    print(
        f"PASS 6 prox correctness: k1 oracle gap {worst_k1:.2e} <= 1e-6, "
        f"k0 gap {worst_k0:.2e} <= 1e-8"
    )


VERIFY_CHECKS = (
    "weak-hessian-commutativity",
    "weak-hessian-commutativity-k3",
    "phi-equals-stabilizer-p1",
    "A-full-row-rank-n1",
    "A-full-row-rank-n2",
    "S-factorization-grid",
    "p1-step-replay-n1",
    "p2-mixed-refine-n2",
    "firmly-nonexpansive-soft-threshold",
    "firmly-nonexpansive-prox-k1",
    "firmly-nonexpansive-prox-wl1-k2",
    "firmly-nonexpansive-prox-oracle-k1",
)


def test_07_structural_invariants(capsys):
    """`pdwg verify` owns the structural checks; tests/test_stabilizer.py
    and tests/test_prox.py repeat the phi and prox ones at more sizes."""
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"PASS {name}" for name in VERIFY_CHECKS]
    print(f"PASS 7 structural invariants: pdwg verify passed {len(lines)} checks")


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
