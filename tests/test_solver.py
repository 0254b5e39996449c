import dataclasses
import math
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.sparse.linalg import splu

import pdwg.solver
from pdwg.analysis import builtin_case, run_study
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
    polish_face,
    residual_2_90,
    solve_p1,
    solve_p2,
)
from pdwg.stabilizer import assemble_B, assemble_S2, eval_s
from pdwg.weak_assembly import assemble_A

from conftest import plain_iterates, poly_field, replay_p1, zero_state


def setup(n, field, p=1):
    disc = Discretization(build_uniform(n), SpaceConfig(k=2))
    system = assemble_A(disc, field)
    bmat = assemble_B(disc, p)
    return disc, system, bmat


def paper_S(A, B, alpha):
    """The paper's iteration matrix S = [[I, -B, 0], [0, alpha B^T B, A^T],
    [0, A, 0]], dense, built here from A and B alone as the reference that
    a step v^{n+1} = S^-1 b^n is checked against."""
    A, B = A.toarray(), B.toarray()
    (nB, N), M = B.shape, A.shape[0]
    return np.block([
        [np.eye(nB), -B, np.zeros((nB, M))],
        [np.zeros((N, nB)), alpha * (B.T @ B), A.T],
        [np.zeros((M, nB)), A, np.zeros((M, M))],
    ])


def test_solver_config_validation():
    for kw in (
        {"alpha": 0.0},
        {"alpha": np.nan},
        {"alpha": np.inf},
        {"alpha": True},
        {"residual_tol": -1e-8},
        {"residual_tol": np.nan},
        {"residual_tol": np.inf},
        {"residual_tol": True},
        {"max_iters": 0},
        {"max_iters": 2.5},
        {"max_iters": True},
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


def test_solver_config_is_frozen():
    # the checks run when the config is built, so no field may change
    # afterwards: max_iters = 0 would leave solve_p1 without a step, and
    # residual_tol = nan would run silently to max_iters
    cfg = SolverConfig()
    bad = {"alpha": 0.0, "residual_tol": np.nan, "max_iters": 0, "prox_method": "exact"}
    assert set(bad) == {f.name for f in dataclasses.fields(SolverConfig)}
    for name, value in bad.items():
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
    assert cfg == SolverConfig()


def test_default_config_runs():
    _, system, bmat = setup(1, builtin_case("const").field)
    _, _, diag = solve_p1(system, bmat, 2, SolverConfig(max_iters=5))
    assert diag.stop_reason == "max_iters"
    assert len(diag.residual_history) == 5


def test_p1_rejects_k_that_does_not_match_the_jump_matrix():
    # the prox blocks by k+1, B by its block size; a mismatch would
    # minimise the wrong phi
    _, system, bmat = setup(1, builtin_case("const").field)
    for k in (1, 3, 2.0):
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
    bad = dataclasses.replace(system, fvec=fvec)
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


def test_S_factorization_no_zero_pivots():
    _, system, bmat = setup(1, poly_field())
    rng = np.random.default_rng(11)
    for alpha in (0.5, 1.0, 2.0):
        smat = assemble_S(system, bmat, SolverConfig(alpha=alpha))
        piv = np.abs(smat.lu.U.diagonal())
        assert piv.min() > 1e-12 * (1.0 + piv.max())
        S = paper_S(system.A, bmat.B, alpha)
        b = rng.normal(size=S.shape[0])
        z = fixed_point_step(zero_state(smat), smat, b).flat()
        assert np.abs(S @ z - b).max() <= 1e-10 * np.abs(b).max()


@pytest.mark.parametrize("alpha", [0.5, 16.0])
def test_fixed_point_step_matches_dense_solve(alpha):
    # the step solves only the (u, x) block and substitutes for y; the
    # dense solve of the full S checks both stages and their coupling
    field = builtin_case("const").field
    disc, system, bmat = setup(2, field)
    A, B = system.A, bmat.B
    S = paper_S(A, B, alpha)
    rng = np.random.default_rng(17)
    state = SaddleState(
        y=rng.normal(size=B.shape[0]),
        u=rng.normal(size=B.shape[1]),
        x=rng.normal(size=A.shape[0]),
    )
    # a nonzero boundary trace gives a nonzero jump offset c = Bb g
    g = project_boundary(lambda p: 1.0 + p[..., 0] * np.exp(p[..., 1]), disc)
    smat = assemble_S(system, bmat, SolverConfig(alpha=alpha), g)
    assert np.abs(smat.c).max() > 0.1
    for bn in (rng.normal(size=S.shape[0]), make_bn(state, smat)):
        z = np.linalg.solve(S, bn)
        new = fixed_point_step(state, smat, bn)
        assert new.iteration == state.iteration + 1
        assert np.abs(new.flat() - z).max() <= 1e-10 * np.abs(z).max()


def test_assemble_S_singular_raises():
    _, system, bmat = setup(1, poly_field())
    zero_A = dataclasses.replace(system, A=sp.csr_matrix(system.A.shape))
    with pytest.raises(RuntimeError, match="factorization of K0 failed"):
        assemble_S(zero_A, bmat, SolverConfig())


def test_assemble_S_without_boundary_data_lifts_g_zero():
    # no boundary data is g = 0: the jump offset is a float zero vector,
    # never None, and the constraint right side is f itself
    _, system, bmat = setup(1, poly_field())
    smat = assemble_S(system, bmat, SolverConfig())
    assert isinstance(smat.c, np.ndarray) and smat.c.dtype == np.float64
    assert smat.c.shape == (bmat.B.shape[0],) and not smat.c.any()
    assert np.array_equal(smat.fp, system.fvec)


@pytest.mark.parametrize("case, n, k", [("const", 2, 2), ("const", 3, 2), ("disc", 2, 3)])
def test_p1_without_boundary_data_is_the_run_with_g_zero(case, n, k):
    disc = Discretization(build_uniform(n), SpaceConfig(k=k))
    system = assemble_A(disc, builtin_case(case).field)
    bmat = assemble_B(disc, 1)
    cfg = SolverConfig(alpha=16.0)
    u0, s0, d0 = solve_p1(system, bmat, k, cfg)
    u1, s1, d1 = solve_p1(system, bmat, k, cfg, np.zeros(system.Cb.shape[1]))
    assert d0.converged and (d0.iterations, d0.polished_at) == (d1.iterations, d1.polished_at)
    pairs = [(u0, u1), (s0.y, s1.y), (s0.x, s1.x), (d0.residual_history, d1.residual_history)]
    for a, b in pairs:  # bit for bit, signed zeros included
        assert a.tobytes() == b.tobytes()


def test_b0_is_zero_zero_beta_f():
    _, system, bmat = setup(1, poly_field())
    B, f = bmat.B, system.fvec
    smat = assemble_S(system, bmat, SolverConfig())
    b = make_bn(zero_state(smat), smat)
    nB, N = B.shape
    assert np.allclose(b[: nB + N], 0.0)
    assert np.allclose(b[nB + N :], f)


def test_third_subvector_always_beta_f():
    _, system, bmat = setup(1, poly_field())
    A, B, f = system.A, bmat.B, system.fvec
    rng = np.random.default_rng(5)
    smat = assemble_S(system, bmat, SolverConfig(alpha=2.0))
    for _ in range(3):
        state = SaddleState(
            y=rng.normal(size=B.shape[0]),
            u=rng.normal(size=B.shape[1]),
            x=rng.normal(size=A.shape[0]),
        )
        b = make_bn(state, smat)
        assert np.allclose(b[B.shape[0] + B.shape[1] :], f)


def test_manual_iteration_matches_step_helper():
    _, system, bmat = setup(1, poly_field())
    smat = assemble_S(system, bmat, SolverConfig())
    S = paper_S(system.A, bmat.B, 1.0)
    state = zero_state(smat)
    for expected_iter in (1, 2, 3):
        b = make_bn(state, smat)
        state = fixed_point_step(state, smat, b)
        assert state.iteration == expected_iter
        assert np.abs(S @ state.flat() - b).max() <= 1e-11 * (1 + np.abs(b).max())


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
    smat = assemble_S(system, bmat, cfg)
    state = zero_state(smat)
    for _ in range(cfg.max_iters):
        state = fixed_point_step(state, smat, make_bn(state, smat))
        assert residual_2_90(state, smat)[0] <= 1e-11


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
    r1, _, _ = residual_2_90(state, assemble_S(system, bmat, cfg))
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


def test_p1_calls_prox_once_per_checked_iterate(monkeypatch):
    # the loop reaches the prox through make_prox and the module-level
    # name, so a wrapper on pdwg.solver sees every call
    calls = []

    def counting(q, alpha, k):
        calls.append(q.shape)
        return prox_phi_weighted_l1(q, alpha, k)

    monkeypatch.setattr(pdwg.solver, "prox_phi_weighted_l1", counting)
    _, system, bmat = setup(1, builtin_case("const").field)
    _, _, diag = solve_p1(system, bmat, 2, SolverConfig(alpha=16.0))
    assert diag.stop_reason == "residual"
    # one call per checked iterate, and one per polish candidate
    assert diag.polish_attempts >= 1
    assert len(calls) == diag.iterations + 1 + diag.polish_attempts
    assert len(diag.residual_history) == diag.iterations + 1
    assert set(calls) == {(bmat.B.shape[0],)}


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
    # solve_p1 keeps no per-iteration energies or increments and ends on a
    # polished point, so the plain scheme runs through the public step
    # functions to its own residual stop
    field = builtin_case("const").field
    _, system, bmat = setup(1, field)
    cfg = SolverConfig()
    smat = assemble_S(system, bmat, cfg)
    B = bmat.B
    total = []  # |y^n|^2 + |Bu^n|^2
    steps = []  # |v^{n+1} - v^n| / (1 + |v^n|)
    prev = None
    for state, (r2, r3) in plain_iterates(smat):
        Bu = B @ state.u
        total.append(state.y @ state.y + Bu @ Bu)
        if prev is not None:
            inc = np.sum((Bu - prev[1]) ** 2) + np.sum((state.y - prev[0].y) ** 2)
            steps.append(
                np.linalg.norm(state.flat() - prev[0].flat())
                / (1.0 + np.linalg.norm(prev[0].flat()))
            )
        if max(r2, r3) <= cfg.residual_tol:
            break
        prev = state, Bu
    assert inc <= 1e-15
    assert max(total) <= 4.0 * (total[-1] + 1e-12)
    # the step criterion decays overall: late steps far below early ones
    assert steps[-1] <= 1e-3 * np.mean(steps[: max(len(steps) // 10, 1)])

    # solve_p1 stops no later than the plain scheme, on a polish of one of
    # its iterates, bit for bit
    _, limit, diag = solve_p1(system, bmat, 2, cfg)
    assert diag.converged
    assert diag.iterations <= state.iteration
    final, rows = replay_p1(smat, diag)
    assert np.array_equal(rows, diag.residual_history)
    for name in "uyx":
        assert np.array_equal(getattr(final, name), getattr(limit, name)), name


@pytest.mark.parametrize("n", [1, 2, 3])
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


def test_p1_polish_accepts_after_a_rejected_attempt():
    # on const n=2 the clip pattern first holds still for 50 checked
    # iterates at step 386 and for 200 at step 536; at both the dual
    # projection is inconsistent and the candidate fails on r1, and the
    # loop goes on from the plain iterate. The next pattern is certified
    # after 50 still iterates, at step 3468
    _, system, bmat = setup(2, builtin_case("const").field)
    cfg = SolverConfig(alpha=16.0)
    _, limit, diag = solve_p1(system, bmat, 2, cfg)
    assert diag.converged
    assert (diag.polish_attempts, diag.polished_at, diag.iterations) == (3, 3468, 3468)
    smat = assemble_S(system, bmat, cfg)
    signs, rejected = {}, {}

    def visit(state):
        if 335 <= state.iteration <= 536 or 3417 <= state.iteration:
            signs[state.iteration] = np.sign(smat.prox(smat.B @ state.u + state.y)).tobytes()
        if state.iteration in (386, 536):
            rejected[state.iteration] = polish_face(state, smat)

    final, rows = replay_p1(smat, diag, visit)
    assert signs[335] != signs[336]
    assert {signs[n] for n in range(336, 537)} == {signs[536]}
    assert signs[3417] != signs[3418]
    assert {signs[n] for n in range(3418, 3469)} == {signs[3468]}
    for step, (candidate, (r1, r2, r3)) in rejected.items():
        assert candidate.iteration == step
        assert r1 > cfg.residual_tol  # 4.0e-6
    # the plain prefix and the accepted polish replay bit for bit
    assert np.array_equal(rows, diag.residual_history)
    for name in "uyx":
        assert np.array_equal(getattr(final, name), getattr(limit, name)), name
    assert max(residual_2_90(limit, smat)) <= cfg.residual_tol


@pytest.mark.parametrize("case, k", [("const", 2), ("var", 2), ("disc", 3)])
def test_p1_short_polish_trigger_never_ends_a_run_later(case, k, monkeypatch):
    # a rejected candidate leaves the plain iterate untouched, so the
    # short trigger (50 still iterates, one attempt per 1,000 steps) only
    # adds attempts to the plain trajectory, and every pattern it tries
    # still gets its attempt at the 200-iterate window
    disc = Discretization(build_uniform(2), SpaceConfig(k=k))
    system = assemble_A(disc, builtin_case(case).field)
    bmat = assemble_B(disc, 1)
    cfg = SolverConfig(alpha=16.0)
    polish = pdwg.solver._polish
    tries = {}  # step of each attempt -> the candidate's (r1, r2, r3)

    def record(smat, state, *args):
        cand, r = polish(smat, state, *args)
        tries[state.iteration] = r
        return cand, r

    monkeypatch.setattr(pdwg.solver, "_polish", record)
    _, _, short = solve_p1(system, bmat, k, cfg)
    short_tries, tries = tries, {}
    # a short window longer than the run: only the 200-iterate trigger
    monkeypatch.setattr(pdwg.solver, "_POLISH_SHORT_WINDOW", cfg.max_iters)
    _, _, long = solve_p1(system, bmat, k, cfg)
    assert short.converged and long.converged
    assert short.iterations <= long.iterations
    plain = short.iterations + (short.polished_at is None)
    assert np.array_equal(
        short.residual_history[:plain], long.residual_history[:plain]
    )
    # every attempt of the long trigger alone is made, with the same result
    assert {
        step: r for step, r in tries.items() if step <= short.iterations
    }.items() <= short_tries.items()
    assert short.polish_attempts == len(short_tries)
    assert short.polish_attempts <= long.polish_attempts + math.ceil(
        short.iterations / 1000
    )


def test_p1_singular_polish_projection_rejects_the_candidate(monkeypatch):
    # a projection SuperLU cannot factorize rejects the candidate as a
    # failed residual test does: the loop goes on from the plain iterate,
    # so the run is the plain scheme's, bit for bit
    _, system, bmat = setup(1, builtin_case("const").field)
    cfg = SolverConfig(alpha=16.0)
    factor = pdwg.solver._factor_symmetric

    def singular_polish(K, failure):
        if failure.startswith("face polish projection"):
            raise RuntimeError(failure)
        return factor(K, failure)

    monkeypatch.setattr(pdwg.solver, "_factor_symmetric", singular_polish)
    _, state, diag = solve_p1(system, bmat, 2, cfg)
    assert diag.converged
    assert diag.polished_at is None and diag.polish_attempts > 0
    final, rows = replay_p1(assemble_S(system, bmat, cfg), diag)
    assert np.array_equal(rows, diag.residual_history)
    for name in "uyx":
        assert np.array_equal(getattr(final, name), getattr(state, name)), name


@pytest.mark.slow
@pytest.mark.parametrize(
    "case, k, steps", [("const", 2, 9441), ("var", 2, 7471), ("disc", 3, 15062)]
)
def test_p1_n4_converges_within_the_long_trigger_step_counts(case, k, steps):
    # steps: the certified step at n=4 when only the 200-iterate window
    # triggered the polish
    disc = Discretization(build_uniform(4), SpaceConfig(k=k))
    system = assemble_A(disc, builtin_case(case).field)
    bmat = assemble_B(disc, 1)
    _, _, diag = solve_p1(system, bmat, k, SolverConfig(alpha=16.0))
    assert diag.converged
    assert diag.iterations <= steps


@pytest.mark.parametrize(
    "case, k, boundary",
    [("disc", 3, False), ("var", 2, False), ("const", 2, True)],
    ids=["disc-k3", "var", "const-boundary-data"],
)
def test_p1_polished_result_is_certified_and_replays(case, k, boundary):
    # an accepted polish meets the tolerance by the solver's own residuals,
    # recomputed here from the returned state, and plain steps followed by
    # polish_face reproduce it bit for bit, with boundary data too
    disc = Discretization(build_uniform(2), SpaceConfig(k=k))
    system = assemble_A(disc, builtin_case(case).field)
    bmat = assemble_B(disc, 1)
    g = project_boundary(poly_field().u, disc) if boundary else None
    cfg = SolverConfig(alpha=1.0 if boundary else 16.0)
    _, state, diag = solve_p1(system, bmat, k, cfg, g=g)
    assert diag.converged and diag.stop_reason == "residual"
    assert diag.polished_at == diag.iterations == state.iteration
    smat = assemble_S(system, bmat, cfg, g)
    r = residual_2_90(state, smat)
    assert r == (diag.r1, diag.r2, diag.r3)
    assert max(r) <= cfg.residual_tol
    final, rows = replay_p1(smat, diag)
    assert np.array_equal(rows, diag.residual_history)
    for name in "uyx":
        assert np.array_equal(getattr(final, name), getattr(state, name)), name


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
    r1, r2, r3 = residual_2_90(state, assemble_S(system, bmat, cfg, g))
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
    _assert_blockwise_residual(res, K, rhs, suu, A, u, lam)


def _assert_blockwise_residual(res, K, rhs, suu, A, u, lam):
    # the float32 route returns the sup-norm of its blockwise float64
    # residual, (rhs_u - S2 u - A^T lam, rhs_lam - A u), bit for bit; the
    # assembled K gives the same residual up to its summation order,
    # within dsgesv's bound ||z|| ||K|| eps sqrt(n)
    N = A.shape[1]
    r = np.concatenate([rhs[:N] - suu @ u - A.T @ lam, rhs[N:] - A @ u])
    assert res == np.abs(r).max()
    z = np.concatenate([u, lam])
    eps = np.finfo(np.float64).eps
    bound = np.abs(z).max() * abs(K).sum(axis=1).max() * eps * np.sqrt(len(z))
    assert res <= bound
    assert np.abs(K @ z - rhs).max() <= bound


@pytest.mark.parametrize("case, k", [("const", 2), ("disc", 3), ("const", 4)])
def test_kkt_factorizations_pivot_on_the_diagonal(case, k, monkeypatch):
    # every factorization keeps the symmetric ordering: a pivot off the
    # diagonal would show as perm_r != perm_c. The p=1 step matrix K0,
    # the two projections of a face polish, tried on the iterate a
    # 500-step run returns, and the p=2 augmented block; const, k=4
    # refuses the float32 route through that block and factorizes it
    # again in float64
    field = builtin_case(case).field
    disc = Discretization(build_uniform(2), SpaceConfig(k=k))
    system = assemble_A(disc, field)
    bmat = assemble_B(disc, 1)
    cfg = SolverConfig(alpha=16.0, max_iters=500)
    _, state, _ = solve_p1(system, bmat, k, cfg)
    smat = assemble_S(system, bmat, cfg)
    factors = []

    def recording_splu(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(pdwg.solver, "splu", recording_splu)
    polish_face(state, smat)
    solve_p2(system, assemble_S2(disc)[0])
    p1 = smat.lu
    for lu in (p1, *factors):
        assert np.array_equal(lu.perm_r, lu.perm_c)
    # p=1 and its polish keep float64 factors; p=2 factorizes its
    # augmented block in float32 and refines, and falls back to float64
    # factors of that block only where the float32 route fails
    polish, p2 = factors[:2], factors[2:]
    assert [lu.U.dtype for lu in (p1, *polish)] == [np.float64] * 3
    want = [np.float32, np.float64] if k == 4 else [np.float32]
    assert [lu.U.dtype for lu in p2] == want


def _p2_saddle(case, k, n=2):
    """The p=2 saddle matrix K and right side of case at n, and the
    blocks solve_p2 takes, (system, S2)."""
    disc = Discretization(build_uniform(n), SpaceConfig(k=k))
    system = assemble_A(disc, builtin_case(case).field)
    suu = assemble_S2(disc)[0]
    A = system.A
    K = sp.bmat([[suu, A.T], [A, None]], format="csc")
    return K, np.concatenate([np.zeros(A.shape[1]), system.fvec]), system, suu


class Stalled:
    """Factors whose solves after the first make no progress."""

    def __init__(self, lu):
        self.lu, self.solves = lu, 0

    def solve(self, b):
        self.solves += 1
        return self.lu.solve(b) if self.solves == 1 else np.zeros_like(b)


@pytest.mark.parametrize("case, k", [("var", 2), ("disc", 3)])
def test_solve_p2_refined_float32_solve_meets_dsgesv_bound(case, k, monkeypatch):
    # one float32 factorization, of the augmented block, no float64
    # fallback, and the returned residual within ||z|| ||K|| eps sqrt(n),
    # LAPACK dsgesv's test
    K, rhs, system, suu = _p2_saddle(case, k)
    factors = []

    def recording_splu(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(pdwg.solver, "splu", recording_splu)
    u, lam, res = solve_p2(system, suu)
    assert len(factors) == 1
    lu = factors[0]
    assert lu.L.dtype == lu.U.dtype == np.float32
    assert np.array_equal(lu.perm_r, lu.perm_c)
    _assert_blockwise_residual(res, K, rhs, suu, system.A, u, lam)


@pytest.mark.parametrize("failure", ["singular", "stalled"])
def test_solve_p2_falls_back_to_float64_factors(failure, monkeypatch):
    # a float32 factorization of the condensed augmented block that
    # fails, or whose refinement stalls, is freed before the block is
    # condensed and factorized again in float64, with gamma = 1e6; the
    # result is then the float64 route's bit for bit: its first solve,
    # then each next correction applied while it is at most half the one
    # before, at most 30 solves, with the residual taken from the blocks
    # and the v0 unknowns eliminated and recovered element by element
    _, rhs, system, suu = _p2_saddle("disc", 3)
    A, N = system.A, system.A.shape[1]
    T, nv0 = system.v0_blocks
    N1 = T * nv0
    Ns = N - N1
    # assemble_S2 returns S2 in canonical form, so this sort changes
    # nothing, and solve_p2's products with S2 take the replay's order
    assert suu.has_canonical_format
    suu.sort_indices()
    w = pdwg.solver._augmented_weights(suu, A, np.float64)
    w32 = pdwg.solver._augmented_weights(suu, A, np.float32)
    assert np.allclose(w, 1e6 / 300 * w32, rtol=1e-15, atol=0)
    Hc, L_inv, C, sk = pdwg.solver._condensed(
        suu, A, w, (T, nv0), system.elem_cols, "singular", np.float64
    )
    lu64 = splu(
        Hc,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )

    def residual(z):
        return np.concatenate([rhs[:N] - suu @ z[:N] - A.T @ z[N:], rhs[N:] - A @ z[:N]])

    def correction(r):
        b = r[:N] + A.T @ (w * r[N:])
        y = L_inv @ b[:N1].reshape(T, nv0, 1)
        Cty = np.bincount(sk.ravel(), (np.swapaxes(C, 1, 2) @ y).ravel(), minlength=Ns + 1)
        xs = np.append(lu64.solve(b[N1:] - Cty[:Ns]), 0.0)
        x0 = np.swapaxes(L_inv, 1, 2) @ (y - C @ xs[sk][:, :, None])
        du = np.concatenate([x0.ravel(), xs[:Ns]])
        return np.concatenate([du, w * (A @ du - r[N:])])

    want = correction(rhs)
    r = residual(want)
    step, solves = np.inf, 1
    while solves < 30:
        dz = correction(r)
        solves += 1
        if not np.abs(dz).max() <= 0.5 * step:
            break
        want, step = want + dz, np.abs(dz).max()
        r = residual(want)
    assert 2 < solves <= 7

    shapes, float32_factors = [], []

    def patched_splu(A, **kwargs):
        shapes.append((A.dtype, A.shape))
        if A.dtype == np.float32:
            if failure == "singular":
                raise RuntimeError("Factor is exactly singular")
            lu = Stalled(splu(A, **kwargs))
            float32_factors.append(weakref.ref(lu))
            return lu
        assert all(ref() is None for ref in float32_factors)
        return splu(A, **kwargs)

    monkeypatch.setattr(pdwg.solver, "splu", patched_splu)
    u, lam, res = solve_p2(system, suu)
    assert shapes == [(np.float32, (N - N1, N - N1)), (np.float64, (N - N1, N - N1))]
    assert len(float32_factors) == (failure == "stalled")
    assert np.array_equal(np.concatenate([u, lam]), want)
    assert res == np.abs(r).max()


@pytest.mark.parametrize("k, n, bound", [(4, 2, 1e-13), (5, 1, 1e-8)])
def test_solve_p2_float64_route_refines_ill_conditioned_k(k, n, bound, monkeypatch):
    # the float64 route, forced here by a float32 factorization of the
    # augmented block that fails (cond(K) 6.4e6 and 3.1e9). One
    # refinement step of a float64 solve of K left residuals of 8.8e-8
    # and 1.5e-2; the float64 augmented block with gamma = 1e6 meets
    # dsgesv's bound in 5 solves on both (5.0e-15 and 2.7e-14, against
    # 1.3e-12 and 1.6e-11), so neither level warns. Its residual comes
    # from the blocks, as on the float32 route, bit for bit.
    K, rhs, system, suu = _p2_saddle("const", k, n)

    def float64_only_splu(A, **kwargs):
        if A.dtype == np.float32:
            raise RuntimeError("Factor is exactly singular")
        return splu(A, **kwargs)

    monkeypatch.setattr(pdwg.solver, "splu", float64_only_splu)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, lam, res = solve_p2(system, suu)
    _assert_blockwise_residual(res, K, rhs, suu, system.A, u, lam)
    assert res <= bound


@pytest.mark.parametrize("n", [1, 2])
def test_solve_p2_float64_route_warns_above_dsgesv_bound(n, monkeypatch):
    # const, k=5, with factors whose solves after the first make no
    # progress (Stalled): the float64 solution keeps its first solve's
    # residual, above ||z|| ||K|| eps sqrt(n); the warning names both
    K, rhs, system, suu = _p2_saddle("const", 5, n)
    monkeypatch.setattr(pdwg.solver, "splu", lambda A, **kw: Stalled(splu(A, **kw)))
    with pytest.warns(RuntimeWarning, match="above dsgesv's bound") as caught:
        u, lam, res = solve_p2(system, suu)
    named = re.search(r"residual (\S+) is above .* = (\S+);", str(caught[0].message))
    z = np.concatenate([u, lam])
    eps = np.finfo(np.float64).eps
    bound = np.abs(z).max() * abs(K).sum(axis=1).max() * eps * np.sqrt(len(z))
    assert named.group(1) == f"{res:.3g}"
    assert float(named.group(2)) == pytest.approx(bound, rel=1e-2)
    assert res > bound


@pytest.mark.parametrize(
    "case, k, n",
    [
        pytest.param("var", 2, 2, id="var-2"),
        pytest.param("disc", 3, 2, id="disc-3"),
        pytest.param("const", 4, 2, id="const-4"),
        pytest.param("const", 5, 1, id="const-5-n1"),
        pytest.param("const", 5, 2, id="const-5-n2"),
        pytest.param("var", 5, 1, id="var-5-n1"),
        pytest.param("const", 6, 1, id="const-6-n1"),
    ],
)
def test_solve_p2_within_dsgesv_bound_raises_no_warning(case, k, n):
    # var k=2 and disc k=3 pass on the float32 route, k=4 to 6 on the
    # float64 route (cond(K) up to 3.1e9 at const, k=5, n=1)
    _, _, system, suu = _p2_saddle(case, k, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve_p2(system, suu)


@pytest.mark.parametrize("case, k, n", [("const", 4, 2), ("const", 5, 1)])
def test_solve_p2_float64_route_factorizes_the_augmented_block(case, k, n, monkeypatch):
    # the levels that refuse the float32 route factorize the augmented
    # block condensed to its N - T nv0 skeleton unknowns twice, in
    # float32 and in float64, and never the (N + M) x (N + M) saddle
    # matrix K. The float32 route gives up once its correction stops
    # halving (const, k=4, n=2: 9 solves; a rule that refines on while
    # the residual is above dsgesv's bound spends all 30 there)
    _, _, system, suu = _p2_saddle(case, k, n)
    T, nv0 = system.v0_blocks
    N, factors = system.A.shape[1] - T * nv0, []

    def counting_splu(A, **kwargs):
        factors.append([A.dtype, A.shape, 0])
        lu, entry = splu(A, **kwargs), factors[-1]

        class Counting:
            def solve(self, b):
                entry[2] += 1
                return lu.solve(b)

        return Counting()

    monkeypatch.setattr(pdwg.solver, "splu", counting_splu)
    solve_p2(system, suu)
    assert [(dtype, shape) for dtype, shape, _ in factors] == [
        (np.float32, (N, N)),
        (np.float64, (N, N)),
    ]
    assert factors[0][2] <= 10 and factors[1][2] <= 7


@pytest.mark.parametrize("case, k", [("disc", 3), ("const", 2)])
def test_solve_p2_warns_on_inconsistent_rank_deficient_constraints(case, k):
    # two equal rows of A with different right sides: K is singular and
    # the system has no solution, but H = S2 + A^T W A stays SPD. Both
    # routes fail dsgesv's bound, so the answer comes with the warning
    # and the sup-norm of its own residual (a float64 LU of K gave disc
    # ||z|| about 1e29 and a residual of 2.1e13, within that bound, and
    # failed on const)
    _, _, system, suu = _p2_saddle(case, k)
    A = system.A.tolil()
    A[0, :] = A[1, :]
    A = A.tocsr()
    f = system.fvec
    assert f[0] != f[1]
    bad = dataclasses.replace(system, A=A)
    with pytest.warns(RuntimeWarning, match="above dsgesv's bound"):
        u, lam, res = solve_p2(bad, suu)
    r = np.concatenate([-(suu @ u) - A.T @ lam, f - A @ u])
    assert res == np.abs(r).max()
    assert np.isfinite(res) and res > 1e-3


@pytest.mark.parametrize("case, k", [("var", 2), ("disc", 3)])
def test_condensed_block_is_symmetric_schur_complement_of_s2_plus_atwa(case, k):
    # solve_p2 factorizes the skeleton Schur complement H_c of
    # H = S2 + A^T diag(w) A, summed in float64 element by element and
    # rounded to float32 once: exactly symmetric, canonical CSC, and
    # each entry within one float32 rounding (2^-24 of itself) of the
    # Schur complement of a dense float64 H, up to float64 roundoff
    # (1e-14 of H_ss's largest entry), also for k=2, where S2 has entries
    # outside A^T A's pattern (A does not see v0). Measured: at most
    # 3.9e-8 (var) and 1.6e-8 (disc) of H_ss's largest entry, and
    # 3e-18 beyond one rounding; the float32 product that accumulated
    # H_c before went 1.9e-7 and 9.4e-8 beyond it, and a float32 sum of
    # the float64 element terms 1.6e-9 and 2.1e-10. The float64 fallback
    # builds it the same way in float64, with 1e6 / 300 times the weights
    _, _, system, suu = _p2_saddle(case, k)
    A = system.A
    T, nv0 = system.v0_blocks
    N1 = T * nv0
    Ns = A.shape[1] - N1
    outside = (abs(suu) > 0).astype(int) - (abs(A.T @ A) > 0).astype(int)
    assert (outside > 0).nnz > 0 if k == 2 else (outside > 0).nnz == 0
    if k == 2:
        assert abs(A[:, :N1]).max() == 0
    for dtype, rounding in ((np.float32, 2.0**-24), (np.float64, 0.0)):
        w = pdwg.solver._augmented_weights(suu, A, dtype)
        assert np.isfinite(w).all() and (w > 0).all()
        Hc, L_inv, C, sk = pdwg.solver._condensed(
            suu, A, w, (T, nv0), system.elem_cols, "singular", dtype
        )
        assert Hc.format == "csc" and Hc.dtype == dtype and Hc.has_canonical_format
        assert (Hc != Hc.T).nnz == 0
        H = (suu + A.T @ sp.diags(w) @ A).toarray()
        H00, H0s, Hss = H[:N1, :N1], H[:N1, N1:], H[N1:, N1:]
        want = Hss - H0s.T @ np.linalg.solve(H00, H0s)
        error = abs(Hc.toarray() - want)
        assert np.all(error <= rounding * abs(want) + 1e-14 * abs(Hss).max())
        # L^-1 holds the inverse Cholesky factors of H's diagonal v0
        # blocks, and C_t = L_t^-1 H_0s on element t's skeleton columns
        # sk[t], with a zero column where the element sees boundary data
        L_inv = sp.block_diag(L_inv).toarray()
        assert abs(L_inv @ H00 @ L_inv.T - np.eye(N1)).max() <= 1e-10
        boundary = np.broadcast_to((sk == Ns)[:, None, :], C.shape)
        assert boundary.any() and not C[boundary].any()
        C_full = np.zeros((N1, Ns + 1))
        C_full[np.arange(N1).reshape(T, nv0, 1), sk[:, None, :]] = C
        assert abs(L_inv @ H0s - C_full[:, :Ns]).max() <= 1e-13 * abs(C).max()


def test_condensed_block_stores_its_structural_pattern(monkeypatch):
    # H_c stores every entry of every element's skeleton clique, zeros
    # included, so SuperLU orders a pattern that does not depend on the
    # values: const and var (k=2, n=4) share the mesh, and they share the
    # stored pattern and the ordering, although entries of const's H_c
    # cancel to exact zeros and none of var's do. A build that drops
    # such entries gives the two different patterns, and SuperLU another
    # ordering and fill
    factored = []

    def recording_splu(K, **kwargs):
        lu = splu(K, **kwargs)
        factored.append((K.indptr, K.indices, np.count_nonzero(K.data == 0), lu.perm_c))
        return lu

    monkeypatch.setattr(pdwg.solver, "splu", recording_splu)
    for case in ("const", "var"):
        _, _, system, suu = _p2_saddle(case, 2, 4)
        solve_p2(system, suu)
    (p1, i1, zeros1, perm1), (p2, i2, zeros2, perm2) = factored
    assert zeros1 > 0 and zeros2 == 0
    assert np.array_equal(p1, p2) and np.array_equal(i1, i2)
    assert np.array_equal(perm1, perm2)


@pytest.mark.parametrize(
    "case, k, n, solves", [("disc", 3, 4, 12), ("disc", 3, 8, 12), ("var", 2, 8, 9)]
)
def test_float32_refinement_takes_few_solves(case, k, n, solves, monkeypatch):
    # one float32 factorization of the singly rounded H_c per level, and
    # at most the refinement solves measured with gamma = 300 (the float32
    # H_c accumulated in float32, with gamma = 100, took 18, 18 and 11)
    factors = []

    def counting_splu(K, **kwargs):
        lu, entry = splu(K, **kwargs), [K.dtype, 0]
        factors.append(entry)

        class Counting:
            def solve(self, b):
                entry[1] += 1
                return lu.solve(b)

        return Counting()

    monkeypatch.setattr(pdwg.solver, "splu", counting_splu)
    _, _, system, suu = _p2_saddle(case, k, n)
    solve_p2(system, suu)
    assert len(factors) == 1 and factors[0][0] == np.float32
    assert factors[0][1] <= solves


def test_solve_p2_rejects_a_v0_layout_that_does_not_fit(monkeypatch):
    # solve_p2 condenses the leading T nv0 unknowns, named by
    # ConstraintSystem.v0_blocks, out of its augmented block. A layout
    # that is not two positive integers, leaves no skeleton unknowns, or
    # whose blocks cut through the v0-v0 part of H raises ValueError
    # before anything is factorized
    _, _, system, suu = _p2_saddle("disc", 3)
    T, nv0 = system.v0_blocks
    N = system.A.shape[1]

    def no_splu(*args, **kwargs):
        raise AssertionError("factorized with a bad v0 layout")

    monkeypatch.setattr(pdwg.solver, "splu", no_splu)
    for blocks in ((1, N), (N, 1), (0, nv0), (T, 0), (T, float(nv0)), (True, nv0), [T, nv0], (T,)):
        with pytest.raises(ValueError, match="v0_blocks must be"):
            solve_p2(dataclasses.replace(system, v0_blocks=blocks), suu)
    with pytest.raises(ValueError, match="not block diagonal"):
        solve_p2(dataclasses.replace(system, v0_blocks=(2 * T, nv0 // 2)), suu)


def _outside_the_elements(system, suu, where):
    """system and S2 with one entry added outside the element columns:
    in S2's v0-v0 part across two elements, in S2's skeleton block, or
    in A's first row."""
    cols, N = system.elem_cols, system.A.shape[1]
    T, nv0 = system.v0_blocks
    i = next(c for c in cols[0, nv0:] if c < N)  # a skeleton unknown of element 0
    near = np.unique(cols[(cols == i).any(axis=1)])
    j = np.setdiff1d(np.arange(T * nv0, N), near)[0]  # one no element of i holds
    S2, A = suu.tolil(), system.A.tolil()
    if where == "S2 v0":
        S2[0, nv0] = S2[nv0, 0] = 1.0
    elif where == "S2 skeleton":
        S2[i, j] = S2[j, i] = 1.0
    else:
        A[0, j] = 1.0
    return dataclasses.replace(system, A=A.tocsr()), S2.tocsr()


@pytest.mark.parametrize("where", ["S2 v0", "S2 skeleton", "A"])
def test_solve_p2_rejects_entries_outside_the_element_columns(where, monkeypatch):
    # each element is condensed from its own rows of A and of S2 alone,
    # so an entry that couples it outside its columns (elem_cols) would
    # be lost: it raises ValueError before anything is factorized
    _, _, system, suu = _p2_saddle("disc", 3)

    def no_splu(*args, **kwargs):
        raise AssertionError("factorized an entry outside the element columns")

    monkeypatch.setattr(pdwg.solver, "splu", no_splu)
    bad, S2 = _outside_the_elements(system, suu, where)
    with pytest.raises(ValueError, match="not block diagonal .* outside the element columns"):
        solve_p2(bad, S2)


def test_solve_p2_builds_no_float64_copy_of_k():
    # the float32 route sums the condensed augmented block in float64,
    # element chunk by element chunk, into its preallocated pattern and
    # rounds it once: it peaks at 22.2 bytes per stored entry of K, in
    # that sum (the float32 product it replaced peaked at 19.8). One
    # float64 COO of every element entry peaked at 52 and a float64
    # sparse product at 27.1; before condensation, the builds
    # (S2 + A^T W A).astype(float32) and a float32 product G^T G plus a
    # float32 S2 of the uncondensed H peaked at 54 and 37
    disc = Discretization(build_uniform(8), SpaceConfig(k=3))
    system = assemble_A(disc, builtin_case("disc").field)
    suu = assemble_S2(disc)[0]
    nnz = suu.nnz + 2 * system.A.nnz
    tracemalloc.start()
    try:
        solve_p2(system, suu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * nnz


@pytest.mark.parametrize(
    "case, k, levels",
    [
        pytest.param("var", 2, [8], id="var-2"),
        pytest.param("disc", 3, [8], id="disc-3"),
        pytest.param("var", 3, [2, 4], id="var-3"),
    ],
)
def test_run_study_p2_factorizes_once_per_level_in_float32(
    case, k, levels, monkeypatch
):
    # var k=3 refused the float32 KKT route at n >= 2 and paid a second,
    # float64 factorization; the augmented block meets dsgesv's bound there
    dtypes = []

    def recording_splu(K, **kwargs):
        dtypes.append(K.dtype)
        return splu(K, **kwargs)

    monkeypatch.setattr(pdwg.solver, "splu", recording_splu)
    run_study(builtin_case(case), 2, levels, k=k)
    assert dtypes == [np.float32] * len(levels)


def test_solve_p2_leaves_its_inputs_unchanged():
    # assemble_S2 returns S2 in canonical form, so the abs() that takes
    # ||K|| from the blocks no longer sorts the caller's S2 in place
    disc = Discretization(build_uniform(2), SpaceConfig(k=3))
    system = assemble_A(disc, builtin_case("disc").field)
    suu, sub = assemble_S2(disc)
    g = project_boundary(lambda p: 1.0 + p[..., 0], disc)
    before = {
        (name, part): getattr(M, part).copy()
        for name, M in (("S2", suu), ("A", system.A))
        for part in ("data", "indices", "indptr")
    }
    solve_p2(system, suu, sub, g=g)
    for (name, part), arr in before.items():
        M = suu if name == "S2" else system.A
        assert np.array_equal(getattr(M, part), arr), (name, part)


def test_solve_p2_refines_past_the_residual_floor(monkeypatch):
    # on disc, k=3, n=16 the residual of the augmented refinement stops
    # halving at the 11th solve, with u 9.6e-13 relative from the float64
    # solution; refining on while the correction halves (13 solves) returns u
    # within 3.1e-13 of a float64 LU solve of K refined twice
    K, rhs, system, suu = _p2_saddle("disc", 3, 16)
    dtypes = []

    def recording_splu(K, **kwargs):
        dtypes.append(K.dtype)
        return splu(K, **kwargs)

    monkeypatch.setattr(pdwg.solver, "splu", recording_splu)
    u = solve_p2(system, suu)[0]
    assert dtypes == [np.float32]
    lu = splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0)
    z64 = lu.solve(rhs)
    for _ in range(2):
        z64 += lu.solve(rhs - K @ z64)
    u64 = z64[: len(u)]
    assert np.abs(u - u64).max() <= 2e-12 * np.abs(u64).max()


def test_solve_p2_singular_saddle_raises():
    field = poly_field()
    disc, system, _ = setup(1, field, p=2)
    suu, sub = assemble_S2(disc)
    A = system.A.tolil()
    A[0, :] = 0.0  # a zero constraint row makes K rank-deficient
    bad = dataclasses.replace(system, A=A.tocsr())
    # the zero row gets the weight 0 in the augmented block, not inf or
    # NaN: no RuntimeWarning comes before the float64 fallback raises
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeError, match="saddle system is singular"):
            solve_p2(bad, suu, sub, g=project_boundary(field.u, disc))


def test_solve_p2_raises_on_a_v0_block_that_is_not_positive_definite(monkeypatch):
    # an indefinite v0 block of the augmented block fails its batched
    # Cholesky factorization (_condensed), in float32 and again in the
    # float64 fallback, before SuperLU runs
    disc = Discretization(build_uniform(1), SpaceConfig(k=2))
    system = assemble_A(disc, builtin_case("const").field)
    suu = assemble_S2(disc)[0].tolil()
    suu[0, 1] = suu[1, 0] = 10 * max(suu[0, 0], suu[1, 1])

    def no_splu(*args, **kwargs):
        raise AssertionError("factorized with an indefinite v0 block")

    monkeypatch.setattr(pdwg.solver, "splu", no_splu)
    with pytest.raises(RuntimeError, match="saddle system is singular") as info:
        solve_p2(system, suu.tocsr())
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_augmented_weights_stay_finite():
    # a zero row of A and a zero diagonal entry of S2 give finite,
    # non-negative weights without a numpy RuntimeWarning; the zero row
    # gets the weight 0
    _, _, system, suu = _p2_saddle("disc", 3)
    A = system.A.tolil()
    A[0, :] = 0.0
    S2 = suu.tolil()
    j = system.A[1].indices[0]  # a column the second constraint row sees
    S2[j, j] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        w = pdwg.solver._augmented_weights(S2.tocsr(), A.tocsr(), np.float32)
    assert np.isfinite(w).all() and (w >= 0).all()
    assert w[0] == 0.0 and (w[1:] > 0).all()


def test_solvers_reject_bad_boundary_data_before_factorizing(monkeypatch):
    # g comes from the caller: a wrong shape, a non-finite value, or g
    # without its S2 block, must be named before any work, not fail inside
    # numpy or come back as a NaN solution
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
    for bad in (np.nan, np.inf, -np.inf):
        g = np.zeros(NB)
        g[NB // 2] = bad
        with pytest.raises(ValueError, match="g must be finite"):
            solve_p1(system, bmat, 2, SolverConfig(), g=g)
        with pytest.raises(ValueError, match="g must be finite"):
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
