import dataclasses

import numpy as np
import pytest

from pdwg import analysis
from pdwg.analysis import (
    ProblemCase,
    builtin_case,
    error_lp,
    error_w1p,
    error_w2ph,
    rates,
    run_study,
)
from pdwg.fe_space import Discretization, SpaceConfig, WeakFunction, project_Qh
from pdwg.mesh import build_uniform
from pdwg.solver import SolverConfig
from pdwg.weak_assembly import CoefficientField

from conftest import poly_field


def poly_case():
    def hess(p):
        out = np.zeros(p.shape[:-1] + (2, 2))
        out[..., 0, 0] = 2.0
        out[..., 1, 1] = 2.0
        return out

    return ProblemCase("poly", dataclasses.replace(poly_field(), hess_u=hess))


def test_builtin_names():
    for name in ("const", "var", "disc"):
        case = builtin_case(name)
        assert case.name == name
    with pytest.raises(ValueError):
        builtin_case("bogus")


def test_const_load_value_at_center():
    case = builtin_case("const")
    center = np.array([0.5, 0.5])
    assert np.isclose(case.field.f(center), -7.0 * np.pi**2, rtol=1e-13)


def test_disc_coefficient_checkerboard_sign():
    case = builtin_case("disc")
    a = case.field.a(np.array([0.25, 0.75]))
    assert a[0, 1] == -1.0
    a = case.field.a(np.array([0.75, 0.75]))
    assert a[0, 1] == 1.0


def test_var_coefficient_spd_at_center():
    case = builtin_case("var")
    a = case.field.a(np.array([0.5, 0.5]))
    assert np.allclose(a, [[1.5, 0.125], [0.125, 1.5]])
    assert np.all(np.linalg.eigvalsh(a) > 0)


def test_exact_solutions_vanish_on_boundary():
    t = np.linspace(0.0, 1.0, 17)
    zero = np.zeros_like(t)
    for name in ("const", "var", "disc"):
        u = builtin_case(name).field.u
        for edge in (
            np.stack([t, zero], axis=-1),
            np.stack([t, zero + 1.0], axis=-1),
            np.stack([zero, t], axis=-1),
            np.stack([zero + 1.0, t], axis=-1),
        ):
            assert np.abs(u(edge)).max() <= 1e-14


def test_gradients_and_hessians_consistent_with_u():
    rng = np.random.default_rng(2)
    pts = 0.1 + 0.8 * rng.random((12, 2))
    h = 1e-6
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    for name in ("const", "var", "disc"):
        field = builtin_case(name).field
        fd_grad = np.stack(
            [
                (field.u(pts + ex) - field.u(pts - ex)) / (2 * h),
                (field.u(pts + ey) - field.u(pts - ey)) / (2 * h),
            ],
            axis=-1,
        )
        assert np.abs(fd_grad - field.grad_u(pts)).max() <= 1e-7
        fd_hess_col0 = (field.grad_u(pts + ex) - field.grad_u(pts - ex)) / (2 * h)
        fd_hess_col1 = (field.grad_u(pts + ey) - field.grad_u(pts - ey)) / (2 * h)
        hess = field.hess_u(pts)
        assert np.abs(fd_hess_col0 - hess[..., 0]).max() <= 1e-6
        assert np.abs(fd_hess_col1 - hess[..., 1]).max() <= 1e-6


def test_polynomial_embedding_has_tiny_errors():
    case = poly_case()
    disc = Discretization(build_uniform(2), SpaceConfig(k=2))
    u_h = project_Qh(case.field.u, case.field.grad_u, disc)
    for p in (1, 2, np.inf):
        assert error_lp(disc, u_h, case, p) <= 1e-11
        assert error_w1p(disc, u_h, case, p) <= 1e-11
        assert error_w2ph(disc, u_h, case, p) <= 1e-11


def test_zero_solution_reproduces_exact_norms():
    case = builtin_case("const")
    disc = Discretization(build_uniform(8), SpaceConfig(k=2))
    zero = WeakFunction(disc.layout, np.zeros(disc.layout.N))
    # ||sin pi x sin pi y||_{0,2} = 1/2, |u|_{1,2} = pi/sqrt(2)
    assert np.isclose(error_lp(disc, zero, case, 2), 0.5, atol=1e-9)
    assert np.isclose(error_w1p(disc, zero, case, 2), np.pi / np.sqrt(2), atol=1e-8)


def test_w2ph_is_one_homogeneous_for_p1():
    case = builtin_case("const")
    disc = Discretization(build_uniform(2), SpaceConfig(k=2))
    qh = project_Qh(case.field.u, case.field.grad_u, disc)
    rng = np.random.default_rng(9)
    u_h = WeakFunction(disc.layout, qh.coeffs + 0.1 * rng.normal(size=disc.layout.N))
    doubled = WeakFunction(
        disc.layout,
        2.0 * u_h.coeffs - qh.coeffs,
        boundary=-qh.boundary_or_zero(),
    )
    e1 = error_w2ph(disc, u_h, case, 1)
    e2 = error_w2ph(disc, doubled, case, 1)
    assert np.isclose(e2, 2.0 * e1, rtol=1e-10)


def test_rates_values_and_validation():
    assert np.allclose(rates([1e-2, 2.5e-3]), [2.0])
    assert np.allclose(rates([8e-3, 1e-3]), [3.0])
    with pytest.raises(ValueError):
        rates([1e-2, 0.0])


def test_run_study_p2_errors_decrease():
    table = run_study(builtin_case("const"), 2, [4, 8])
    assert [r.n for r in table.reports] == [4, 8]
    for name in ("e_L", "e_W1", "e_W2"):
        col = table.column(name)
        assert col[0] > col[1] > 0
    assert all(r.converged for r in table.reports)
    rc = table.rate_columns()
    assert rc["e_L"][0] > 2.5


def test_run_study_p1_smoke():
    table = run_study(
        builtin_case("const"), 1, [2], cfg=SolverConfig(prox_method="wl1")
    )
    rep = table.reports[0]
    assert rep.converged
    assert rep.iterations > 10
    assert rep.e_L < 0.5


def test_run_study_rejects_non_elliptic_field_before_solving(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("assembled or solved a non-elliptic problem")

    for name in ("assemble_A", "solve_p1", "solve_p2"):
        monkeypatch.setattr(analysis, name, never)
    indefinite = CoefficientField(
        a=lambda p: np.broadcast_to(np.array([[1.0, 3.0], [3.0, 1.0]]), p.shape[:-1] + (2, 2)),
        f=lambda p: np.zeros(p.shape[:-1]),
    )
    for p in (1, 2):
        with pytest.raises(ValueError, match="positive definite"):
            run_study(ProblemCase("indefinite", indefinite), p, [2])


def test_run_study_rejects_non_finite_load_before_solving(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("solved a problem with a non-finite load")

    for name in ("solve_p1", "solve_p2"):
        monkeypatch.setattr(analysis, name, never)
    const = builtin_case("const").field
    loads = (
        lambda p: np.full(p.shape[:-1], np.inf),
        lambda p: np.where(p[..., 0] < 0.5, np.nan, 0.0),
    )
    for f in loads:
        case = ProblemCase("nonfinite", CoefficientField(a=const.a, f=f))
        for p in (1, 2):
            with pytest.raises(ValueError, match="not finite"):
                run_study(case, p, [2])


def test_run_study_rejects_odd_disc_and_bad_p(monkeypatch):
    with pytest.raises(ValueError):
        run_study(builtin_case("disc"), 2, [3])
    # an odd level anywhere in the list fails before any level is solved
    calls = []
    monkeypatch.setattr(analysis, "build_uniform", lambda n: calls.append(n))
    with pytest.raises(ValueError, match="even n"):
        run_study(builtin_case("disc"), 2, [2, 3])
    # so do a level below 1 and a fractional one
    for n_list in ([8, 0], [2, 2.5]):
        with pytest.raises(ValueError, match="positive integers"):
            run_study(builtin_case("const"), 2, n_list)
    assert calls == []
    with pytest.raises(ValueError):
        run_study(builtin_case("const"), 3, [4])
