import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.sparse.linalg import splu

import pdwg.solver
from pdwg.analysis import builtin_case
from pdwg.fe_space import (
    Discretization,
    SpaceConfig,
    WeakFunction,
    project_Qh,
    project_boundary,
)
from pdwg.mesh import build_uniform
from pdwg.prox import prox_phi_weighted_l1
from pdwg.solver import (
    SaddleState,
    SolverConfig,
    assemble_S,
    fixed_point_step,
    make_bn,
    make_prox,
    residual_2_90,
    solve_p1,
    solve_p2,
)
from pdwg.stabilizer import assemble_B, assemble_S2, eval_s
from pdwg.weak_assembly import ConstraintSystem, assemble_A

from conftest import poly_field


def setup(n, field, p=1):
    disc = Discretization(build_uniform(n), SpaceConfig(k=2))
    system = assemble_A(disc, field)
    bmat = assemble_B(disc, p)
    return disc, system, bmat


def test_solver_config_validation():
    for kw in (
        {"alpha": 0.0},
        {"alpha": np.nan},
        {"alpha": np.inf},
        {"residual_tol": -1e-8},
        {"residual_tol": np.nan},
        {"residual_tol": np.inf},
        {"max_iters": 0},
        {"max_iters": 2.5},
        {"prox_method": "newton"},
        {"prox_method": "exact"},
        {"prox_method": "oracle"},
    ):
        with pytest.raises(ValueError):
            SolverConfig(**kw)
    # the relative-step stopping rule is gone: converged means residual_tol
    with pytest.raises(TypeError):
        SolverConfig(tol=1e-6)
    # beta only rescaled the multiplier x, so it is fixed at 1
    with pytest.raises(TypeError):
        SolverConfig(beta=1.0)
    # assemble_S applies the same rule to alpha rather than blaming A
    _, system, bmat = setup(1, builtin_case("const").field)
    for alpha in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            assemble_S(system.A, bmat.B, alpha)


def test_default_config_runs():
    _, system, bmat = setup(1, builtin_case("const").field)
    _, _, diag = solve_p1(system, bmat, 2, SolverConfig(max_iters=5))
    assert diag.stop_reason == "max_iters"
    assert len(diag.residual_history) == 5


def test_p1_rejects_k_that_does_not_match_the_jump_matrix():
    # the prox blocks by k+1, B by its block size; a mismatch would
    # minimise the wrong phi
    _, system, bmat = setup(1, builtin_case("const").field)
    for k in (1, 3):
        with pytest.raises(ValueError, match="does not match the jump matrix"):
            solve_p1(system, bmat, k, SolverConfig(max_iters=5))


def test_p1_history_grows_with_the_run_not_with_max_iters():
    # a huge but valid max_iters allocates nothing up front, and the
    # history holds exactly one row per checked iterate
    _, system, bmat = setup(1, builtin_case("const").field)
    _, _, diag = solve_p1(system, bmat, 2, SolverConfig(max_iters=10**12))
    assert diag.converged
    assert len(diag.residual_history) == diag.iterations + 1


def test_p1_stops_on_nonfinite_residual():
    _, system, bmat = setup(1, builtin_case("const").field)
    fvec = system.fvec.copy()
    fvec[0] = np.nan
    bad = ConstraintSystem(A=system.A, Cb=system.Cb, fvec=fvec)
    _, state, diag = solve_p1(bad, bmat, 2, SolverConfig())
    assert diag.stop_reason == "nonfinite"
    assert not diag.converged
    assert len(diag.residual_history) <= 2
    assert np.all(np.isfinite(state.u))


def test_make_prox_selectors():
    rng = np.random.default_rng(3)
    q2 = rng.normal(size=9)
    assert np.allclose(
        make_prox("wl1", 2, 2.0)(q2), prox_phi_weighted_l1(q2, 2.0, 2)
    )
    # the closed-form k <= 1 proxes and the oracle are not solver options
    for method, k in (("exact", 0), ("exact", 1), ("exact", 2), ("oracle", 1)):
        with pytest.raises(ValueError, match="wl1"):
            make_prox(method, k, 1.0)


def test_S_dimension_and_block_scaling():
    _, system, bmat = setup(1, poly_field())
    A, B = system.A, bmat.B
    nB, N = B.shape
    M = A.shape[0]
    assert (nB, N, M) == (54, 35, 6)
    s1 = assemble_S(A, B, 1.0).S.toarray()
    s2 = assemble_S(A, B, 2.0).S.toarray()
    assert s1.shape == (95, 95)
    # identity block and -B are alpha-independent
    assert np.allclose(s2[:nB, :nB], np.eye(nB))
    assert np.allclose(s2[:nB, nB : nB + N], -B.toarray())
    # doubling alpha doubles the alpha B^T B block, not the A blocks
    assert np.allclose(s2[nB : nB + N, nB : nB + N], 2 * s1[nB : nB + N, nB : nB + N])
    assert np.allclose(s2[nB + N :, nB : nB + N], A.toarray())
    assert np.allclose(s2[nB : nB + N, nB + N :], A.T.toarray())


def test_S_factorization_no_zero_pivots():
    _, system, bmat = setup(1, poly_field())
    rng = np.random.default_rng(11)
    for alpha in (0.5, 1.0, 2.0):
        smat = assemble_S(system.A, bmat.B, alpha)
        piv = np.abs(smat.lu.U.diagonal())
        assert piv.min() > 1e-12 * (1.0 + piv.max())
        b = rng.normal(size=smat.S.shape[0])
        state = SaddleState(
            y=np.zeros(bmat.B.shape[0]),
            u=np.zeros(bmat.B.shape[1]),
            x=np.zeros(system.A.shape[0]),
        )
        z = fixed_point_step(state, smat, b).flat()
        assert np.abs(smat.S @ z - b).max() <= 1e-10 * np.abs(b).max()


@pytest.mark.parametrize("alpha", [0.5, 16.0])
def test_fixed_point_step_matches_dense_solve(alpha):
    # the step solves only the (u, x) block and substitutes for y; the
    # dense solve of the full S checks both stages and their coupling
    field = builtin_case("const").field
    disc, system, bmat = setup(2, field)
    A, B = system.A, bmat.B
    smat = assemble_S(A, B, alpha)
    S = smat.S.toarray()
    rng = np.random.default_rng(17)
    state = SaddleState(
        y=rng.normal(size=B.shape[0]),
        u=rng.normal(size=B.shape[1]),
        x=rng.normal(size=A.shape[0]),
    )
    # a nonzero boundary trace gives a nonzero jump offset c = Bb g
    g = project_boundary(lambda p: 1.0 + p[..., 0] * np.exp(p[..., 1]), disc)
    c = bmat.Bb @ g
    assert np.abs(c).max() > 0.1
    prox = make_prox("wl1", 2, alpha)
    fp = system.fvec - system.Cb @ g
    for bn in (
        rng.normal(size=S.shape[0]),
        make_bn(state, B, fp, alpha, prox, c=c),
    ):
        z = np.linalg.solve(S, bn)
        new = fixed_point_step(state, smat, bn)
        assert new.iteration == state.iteration + 1
        assert np.abs(new.flat() - z).max() <= 1e-10 * np.abs(z).max()


def test_assemble_S_singular_raises():
    B = sp.eye(3, 4, format="csr")
    A = sp.csr_matrix((2, 4))
    with pytest.raises(RuntimeError):
        assemble_S(A, B, 1.0)


def test_b0_is_zero_zero_beta_f():
    _, system, bmat = setup(1, poly_field())
    A, B, f = system.A, bmat.B, system.fvec
    state = SaddleState(
        y=np.zeros(B.shape[0]), u=np.zeros(B.shape[1]), x=np.zeros(A.shape[0])
    )
    prox = make_prox("wl1", 2, 1.0)
    b = make_bn(state, B, f, 1.0, prox)
    nB, N = B.shape
    assert np.allclose(b[: nB + N], 0.0)
    assert np.allclose(b[nB + N :], f)


def test_third_subvector_always_beta_f():
    _, system, bmat = setup(1, poly_field())
    A, B, f = system.A, bmat.B, system.fvec
    rng = np.random.default_rng(5)
    prox = make_prox("wl1", 2, 2.0)
    for _ in range(3):
        state = SaddleState(
            y=rng.normal(size=B.shape[0]),
            u=rng.normal(size=B.shape[1]),
            x=rng.normal(size=A.shape[0]),
        )
        b = make_bn(state, B, f, 2.0, prox)
        assert np.allclose(b[B.shape[0] + B.shape[1] :], f)


def test_manual_iteration_matches_step_helper():
    _, system, bmat = setup(1, poly_field())
    A, B, f = system.A, bmat.B, system.fvec
    prox = make_prox("wl1", 2, 1.0)
    smat = assemble_S(A, B, 1.0)
    state = SaddleState(
        y=np.zeros(B.shape[0]), u=np.zeros(B.shape[1]), x=np.zeros(A.shape[0])
    )
    for expected_iter in (1, 2, 3):
        b = make_bn(state, B, f, 1.0, prox)
        state = fixed_point_step(state, smat, b)
        assert state.iteration == expected_iter
        assert np.abs(smat.S @ state.flat() - b).max() <= 1e-11 * (1 + np.abs(b).max())


def test_constraint_and_first_equation_hold_from_iteration_one():
    field = builtin_case("const").field
    _, system, bmat = setup(2, field)
    cfg = SolverConfig(alpha=2.0, prox_method="wl1", max_iters=60)
    _, _, diag = solve_p1(system, bmat, 2, cfg)
    hist = diag.residual_history  # (r2, r3) per iterate
    fscale = 1.0 + np.abs(system.fvec).max()
    assert np.all(hist[1:, 1] <= 1e-9 * fscale)
    assert hist[1, 1] <= 1e-10 * fscale
    # the loop does not check r1, so the same 60 steps are replayed
    A, B, f = system.A, bmat.B, system.fvec
    smat = assemble_S(A, B, cfg.alpha)
    prox = make_prox(cfg.prox_method, 2, cfg.alpha)
    state = SaddleState(
        y=np.zeros(B.shape[0]), u=np.zeros(B.shape[1]), x=np.zeros(A.shape[0])
    )
    for _ in range(cfg.max_iters):
        state = fixed_point_step(state, smat, make_bn(state, B, f, cfg.alpha, prox))
        assert residual_2_90(state, A, B, f, cfg.alpha, prox)[0] <= 1e-11


@pytest.mark.parametrize("case,k", [("const", 2), ("disc", 3)])
def test_p1_first_equation_holds_by_construction(case, k):
    # the step builds b2 = -alpha B^T b1, so A^T x + alpha B^T y = 0 holds
    # to the roundoff of one solve instead of accumulating over the run
    disc = Discretization(build_uniform(2), SpaceConfig(k=k))
    system = assemble_A(disc, builtin_case(case).field)
    bmat = assemble_B(disc, 1)
    cfg = SolverConfig(alpha=16.0)
    _, state, diag = solve_p1(system, bmat, k, cfg)
    assert diag.stop_reason == "residual"
    prox = make_prox(cfg.prox_method, k, cfg.alpha)
    r1, _, _ = residual_2_90(state, system.A, bmat.B, system.fvec, cfg.alpha, prox)
    assert r1 <= 1e-11


def test_p1_polynomial_exactness_with_boundary_lifting():
    field = poly_field()
    disc, system, bmat = setup(1, field)
    g = project_boundary(field.u, disc)
    cfg = SolverConfig(prox_method="wl1")
    u, state, diag = solve_p1(system, bmat, 2, cfg, g=g)
    assert diag.converged
    qh = project_Qh(field.u, field.grad_u, disc)
    assert np.abs(u - qh.coeffs).max() <= 1e-6
    u_h = WeakFunction(disc.layout, u, boundary=g)
    assert eval_s(disc, u_h, 1) <= 1e-8
    fp = system.fvec - system.Cb @ g
    assert np.abs(system.A @ u - fp).max() <= 1e-9 * (1 + np.abs(fp).max())


def test_p1_limit_independent_of_alpha():
    field = builtin_case("const").field
    _, system, bmat = setup(1, field)
    u1, _, d1 = solve_p1(system, bmat, 2, SolverConfig(prox_method="wl1"))
    u2, _, d2 = solve_p1(
        system, bmat, 2, SolverConfig(alpha=2.0, prox_method="wl1")
    )
    assert d1.converged and d2.converged
    assert np.abs(u1 - u2).max() <= 1e-5


def test_p1_vanishing_increments_and_bounded_energy():
    # solve_p1 keeps no per-iteration energies or increments, so the run
    # is replayed through the public step functions
    field = builtin_case("const").field
    _, system, bmat = setup(1, field)
    cfg = SolverConfig()
    _, limit, diag = solve_p1(system, bmat, 2, cfg)
    assert diag.converged
    A, B, f = system.A, bmat.B, system.fvec
    smat = assemble_S(A, B, cfg.alpha)
    prox = make_prox(cfg.prox_method, 2, cfg.alpha)
    state = SaddleState(
        y=np.zeros(B.shape[0]), u=np.zeros(B.shape[1]), x=np.zeros(A.shape[0])
    )
    Bu = B @ state.u
    total = np.empty(diag.iterations + 1)  # |y^n|^2 + |Bu^n|^2
    steps = np.empty(diag.iterations)  # |v^{n+1} - v^n| / (1 + |v^n|)
    total[0] = state.y @ state.y + Bu @ Bu
    for n in range(diag.iterations):
        new = fixed_point_step(
            state, smat, make_bn(state, B, f, cfg.alpha, prox)
        )
        Bu_new = B @ new.u
        inc = np.sum((Bu_new - Bu) ** 2) + np.sum((new.y - state.y) ** 2)
        total[n + 1] = new.y @ new.y + Bu_new @ Bu_new
        steps[n] = np.linalg.norm(new.flat() - state.flat()) / (
            1.0 + np.linalg.norm(state.flat())
        )
        state, Bu = new, Bu_new
    gap = max(np.abs(state.u - limit.u).max(), np.abs(state.y - limit.y).max())
    assert gap <= 1e-12
    assert inc <= 1e-15
    assert total.max() <= 4.0 * (total[-1] + 1e-12)
    # the step criterion decays overall: late steps far below early ones
    assert steps[-1] <= 1e-3 * steps[: max(len(steps) // 10, 1)].mean()


@pytest.mark.parametrize("n", [1, 2])
def test_p1_objective_matches_lp_optimum(n):
    # with the separable wl1 surrogate the p=1 problem is an LP:
    # minimise w's subject to -s <= Bu <= s and Au = f, solved by HiGHS
    # independently of the iteration; minimisers need not be unique, so
    # only the objective values are compared
    field = builtin_case("const").field
    _, system, bmat = setup(n, field)
    A, B, f = system.A, bmat.B, system.fvec
    u, _, diag = solve_p1(system, bmat, 2, SolverConfig(alpha=16.0))
    assert diag.converged
    w = np.tile(1.0 / np.arange(1, 4), B.shape[0] // 3)
    obj = w @ np.abs(B @ u)

    nB, N = B.shape
    eye = sp.eye(nB)
    lp = linprog(
        np.concatenate([np.zeros(N), w]),
        A_ub=sp.bmat([[B, -eye], [-B, -eye]], format="csr"),
        b_ub=np.zeros(2 * nB),
        A_eq=sp.hstack([A, sp.csr_matrix((A.shape[0], nB))], format="csr"),
        b_eq=f,
        bounds=[(None, None)] * N + [(0, None)] * nB,
        method="highs",
    )
    assert lp.status == 0, lp.message
    assert abs(obj - lp.fun) <= 1e-6 * lp.fun


def test_p1_nonconvergence_flag_returns_best_iterate():
    field = builtin_case("const").field
    _, system, bmat = setup(1, field)
    cfg = SolverConfig(prox_method="wl1", max_iters=10)
    _, state, diag = solve_p1(system, bmat, 2, cfg)
    assert not diag.converged
    assert diag.stop_reason == "max_iters"
    worst = diag.residual_history.max(axis=1)
    assert np.isclose(max(diag.r1, diag.r2, diag.r3), worst.min())
    assert state.iteration == int(worst.argmin())


@pytest.mark.parametrize(
    "n, boundary", [(1, False), (2, True)], ids=["homogeneous", "boundary-data"]
)
def test_residual_2_90_matches_diagnostics(n, boundary):
    field = builtin_case("const").field
    disc, system, bmat = setup(n, field)
    cfg = SolverConfig(prox_method="wl1")
    g = project_boundary(poly_field().u, disc) if boundary else None
    u, state, diag = solve_p1(system, bmat, 2, cfg, g)
    prox = make_prox("wl1", 2, cfg.alpha)
    c, fp = None, system.fvec
    if boundary:
        c, fp = bmat.Bb @ g, system.fvec - system.Cb @ g
    r1, r2, r3 = residual_2_90(state, system.A, bmat.B, fp, cfg.alpha, prox, c=c)
    assert np.allclose((r1, r2, r3), (diag.r1, diag.r2, diag.r3), rtol=1e-12, atol=0)
    assert max(r1, r2, r3) <= cfg.residual_tol


def test_solve_p2_polynomial_exact_and_multiplier_vanishes():
    field = poly_field()
    for n in (1, 2):
        disc, system, _ = setup(n, field, p=2)
        suu, sub = assemble_S2(disc)
        g = project_boundary(field.u, disc)
        u, lam, res = solve_p2(system, suu, sub, g=g)
        qh = project_Qh(field.u, field.grad_u, disc)
        assert np.abs(u - qh.coeffs).max() <= 1e-9
        assert np.abs(lam).max() <= 1e-9
        assert res <= 1e-10


@pytest.mark.parametrize("case, k", [("disc", 3), ("var", 2)])
def test_solve_p2_matches_dense_solve(case, k):
    # the settings of the two p=2 benchmark workloads
    field = builtin_case(case).field
    disc = Discretization(build_uniform(2), SpaceConfig(k=k))
    system = assemble_A(disc, field)
    suu, sub = assemble_S2(disc)
    # the built-in solutions vanish on the boundary; a nonzero trace
    # also exercises the Sub and Cb shifts of the right side
    g = project_boundary(lambda p: 1.0 + p[..., 0] * np.exp(p[..., 1]), disc)
    assert np.abs(g).max() > 0.5
    u, lam, res = solve_p2(system, suu, sub, g=g)

    A = system.A
    K = sp.bmat([[suu, A.T], [A, None]], format="csc")
    rhs = np.concatenate([-(sub @ g), system.fvec - system.Cb @ g])
    z = np.linalg.solve(K.toarray(), rhs)
    N = A.shape[1]
    assert np.abs(u - z[:N]).max() <= 1e-10 * np.abs(z[:N]).max()
    assert np.abs(lam - z[N:]).max() <= 1e-10 * np.abs(z[N:]).max()
    assert res == np.abs(K @ np.concatenate([u, lam]) - rhs).max()


@pytest.mark.parametrize("case, k", [("const", 2), ("disc", 3)])
def test_kkt_factorizations_pivot_on_the_diagonal(case, k, monkeypatch):
    # both saddle factorizations keep the symmetric ordering: a pivot
    # off the diagonal would show as perm_r != perm_c
    field = builtin_case(case).field
    disc = Discretization(build_uniform(2), SpaceConfig(k=k))
    system = assemble_A(disc, field)
    p1 = assemble_S(system.A, assemble_B(disc, 1).B, 16.0).lu
    factors = []

    def recording_splu(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(pdwg.solver, "splu", recording_splu)
    solve_p2(system, assemble_S2(disc)[0])
    assert len(factors) == 1
    for lu in (p1, factors[0]):
        assert np.array_equal(lu.perm_r, lu.perm_c)


def test_solve_p2_singular_saddle_raises():
    field = poly_field()
    disc, system, _ = setup(1, field, p=2)
    suu, sub = assemble_S2(disc)
    A = system.A.tolil()
    A[0, :] = 0.0  # a zero constraint row makes K rank-deficient
    bad = ConstraintSystem(A=A.tocsr(), Cb=system.Cb, fvec=system.fvec)
    with pytest.raises(RuntimeError, match="saddle system is singular"):
        solve_p2(bad, suu, sub, g=project_boundary(field.u, disc))


def test_solvers_reject_bad_boundary_data_before_factorizing(monkeypatch):
    # g comes from the caller: a wrong shape, or g without its S2 block,
    # must be named before any work, not fail inside numpy
    disc, system, bmat = setup(1, poly_field())
    suu, sub = assemble_S2(disc)
    NB = system.Cb.shape[1]

    def no_splu(*args, **kwargs):
        raise AssertionError("factorized before checking g")

    monkeypatch.setattr(pdwg.solver, "splu", no_splu)
    for g in (np.zeros(NB - 1), np.zeros(NB + 1), np.zeros((NB, 1))):
        with pytest.raises(ValueError, match=rf"g must have shape \({NB},\)"):
            solve_p1(system, bmat, 2, SolverConfig(), g=g)
        with pytest.raises(ValueError, match=rf"g must have shape \({NB},\)"):
            solve_p2(system, suu, sub, g=g)
    with pytest.raises(ValueError, match="s2ub is required"):
        solve_p2(system, suu, g=np.zeros(NB))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", [1, 3])
def test_s2_matrix_matches_stabilizer_quadratic_form(n, k):
    # eval_s works from the trace tables, not from B2 or S2
    disc = Discretization(build_uniform(n), SpaceConfig(k=k))
    suu, sub = assemble_S2(disc)
    assert (suu != suu.T).nnz == 0
    rng = np.random.default_rng(7)
    v = rng.normal(size=disc.layout.N)
    vf = WeakFunction(disc.layout, v)
    assert np.isclose(v @ (suu @ v), 2.0 * eval_s(disc, vf, 2), rtol=1e-10)
    # with boundary data the cross term is carried by Sub
    g = rng.normal(size=disc.layout.NB)
    w = rng.normal(size=disc.layout.N)
    Fu = 2.0 * eval_s(disc, WeakFunction(disc.layout, v, boundary=g), 2)
    Fuw = 2.0 * eval_s(disc, WeakFunction(disc.layout, v + w, boundary=g), 2)
    expected = w @ (suu @ w) + 2.0 * w @ (suu @ v + sub @ g)
    assert np.isclose(Fuw - Fu, expected, rtol=1e-9)


def test_solve_p2_saddle_point_inequalities():
    field = builtin_case("const").field
    disc, system, _ = setup(2, field, p=2)
    suu, _ = assemble_S2(disc)
    u, lam, _ = solve_p2(system, suu)
    A, f = system.A, system.fvec

    def lagrangian(v, sig):
        return 0.5 * v @ (suu @ v) + sig @ (A @ v - f)

    ju = lagrangian(u, lam)
    rng = np.random.default_rng(13)
    for _ in range(20):
        sig = lam + rng.normal(size=lam.shape)
        assert lagrangian(u, sig) <= ju + 1e-9
        v = u + 1e-2 * rng.normal(size=u.shape)
        assert ju <= lagrangian(v, lam) + 1e-9
