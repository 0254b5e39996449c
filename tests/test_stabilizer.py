import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from pdwg.fe_space import Discretization, SpaceConfig, WeakFunction, eval_v0, project_Qh
from pdwg.mesh import build_uniform
from pdwg.stabilizer import (
    _abs_integrals,
    assemble_B,
    block_slice,
    eval_phi,
    eval_s,
    eval_s_tilde,
    integral_abs_poly,
)


def gauss_abs(f, n=20):
    """Bracket sign changes by sampling, then n-point Gauss per piece."""
    grid = np.linspace(0.0, 1.0, 513)
    vals = np.array([f(t) for t in grid])
    cuts = {0.0, 1.0}
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            cuts.add(grid[i])
        elif vals[i] * vals[i + 1] < 0:
            cuts.add(brentq(f, grid[i], grid[i + 1]))
    cuts = sorted(cuts)
    x, w = np.polynomial.legendre.leggauss(n)
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        t = 0.5 * (b - a) * x + 0.5 * (a + b)
        total += 0.5 * (b - a) * np.sum(w * np.abs([f(ti) for ti in t]))
    return total


def random_weak(layout, rng, with_boundary=False):
    bnd = rng.standard_normal(layout.NB) if with_boundary else None
    return WeakFunction(layout, rng.standard_normal(layout.N), boundary=bnd)


def s_p1_oracle(disc, v):
    """Direct quadrature of the p=1 stabilizer from point evaluations.

    Independent of the trace-coefficient machinery: v0 and its
    derivatives are evaluated at physical points on each edge.
    """
    mesh = disc.mesh
    layout = v.layout
    total = 0.0
    for t in range(mesh.num_elements):
        hT = mesh.elem_h[t]
        for le in range(3):
            e = mesh.elem_edges[t, le]
            lo, hi = mesh.edges[e]
            he = mesh.edge_length[e]

            def at(s):
                return mesh.vertices[lo] + s * (mesh.vertices[hi] - mesh.vertices[lo])

            sl = layout.vb_slice(e)
            if sl is None:
                vb = (
                    v.boundary[layout.boundary_vb_slice(e)]
                    if v.boundary is not None
                    else np.zeros(layout.nvb)
                )
            else:
                vb = v.coeffs[sl]
            total += he / hT * gauss_abs(
                lambda s: eval_v0(v, t, at(s)) - np.polyval(vb[::-1], s)
            )
            for j, d in ((0, (1, 0)), (1, (0, 1))):
                vg = v.coeffs[layout.vg_slice(e, j)]
                total += he * gauss_abs(
                    lambda s: eval_v0(v, t, at(s), deriv=d) - np.polyval(vg[::-1], s)
                )
    return total


def test_B_shape():
    for n, rows in ((1, 54), (2, 216)):
        disc = Discretization(build_uniform(n), SpaceConfig(k=2))
        bmat = assemble_B(disc, 1)
        assert bmat.num_rows == rows
        assert bmat.B.shape == (rows, disc.layout.N)
        assert bmat.Bb.shape == (rows, disc.layout.NB)
        assert bmat.num_pairs == 3 * disc.mesh.num_elements


def test_constant_element_value_jumps():
    disc = Discretization(build_uniform(2), SpaceConfig(k=2))
    layout = disc.layout
    mesh = disc.mesh
    coeffs = np.zeros(layout.N)
    coeffs[layout.v0_slice(0).start] = 1.0  # v0 = 1 on element 0
    bmat = assemble_B(disc, 1)
    q = bmat.B @ coeffs
    hT = mesh.elem_h[0]
    for le in range(3):
        he = mesh.edge_length[mesh.elem_edges[0, le]]
        block = q[block_slice(bmat, 0, 3 * 0 + le)]
        assert block == pytest.approx([he / hT, 0.0, 0.0], abs=1e-14)
    # gradient sections and all other elements' blocks vanish
    section = bmat.block_size * bmat.num_pairs
    assert np.abs(q[section:]).max() == 0.0
    assert np.abs(q[3 * bmat.block_size : section]).max() == 0.0


def test_embedding_has_no_jumps():
    disc = Discretization(build_uniform(2), SpaceConfig(k=2))

    def u(p):
        return 1.0 + 2.0 * p[..., 0] - p[..., 1] + p[..., 0] * p[..., 1]

    def grad_u(p):
        return np.stack([2.0 + p[..., 1], -1.0 + p[..., 0]], axis=-1)

    v = project_Qh(u, grad_u, disc)
    for p in (1, 2):
        bmat = assemble_B(disc, p)
        full = bmat.B @ v.coeffs + bmat.Bb @ v.boundary
        assert np.abs(full).max() < 1e-12
    assert eval_s(disc, v, 1) < 1e-12
    assert eval_s(disc, v, 2) < 1e-24  # quadratic in the jumps
    assert eval_s(disc, v, np.inf) < 1e-11


def test_phi_reference_blocks():
    assert eval_phi(np.array([1.0, 1.0]), 1) == pytest.approx(1.5, abs=1e-14)
    assert eval_phi(np.array([-1.0, 2.0]), 1) == pytest.approx(0.5, abs=1e-14)
    assert eval_phi(np.array([0.0, 0.0, 1.0]), 2) == pytest.approx(1 / 3, abs=1e-14)


def test_phi_block_additivity_and_validation():
    q = np.array([1.0, 1.0, -1.0, 2.0])
    assert eval_phi(q, 1) == pytest.approx(2.0, abs=1e-14)
    with pytest.raises(ValueError):
        eval_phi(np.ones(5), 1)


def test_phi_positive_homogeneity():
    rng = np.random.default_rng(11)
    q = rng.standard_normal(30)
    base = eval_phi(q, 2)
    for alpha in (0.0, 0.25, 1.0, 7.5):
        assert eval_phi(alpha * q, 2) == pytest.approx(alpha * base, rel=1e-12, abs=1e-13)


def test_integral_abs_poly_against_gauss_oracle():
    rng = np.random.default_rng(23)
    for _ in range(200):
        c = rng.standard_normal(3)
        exact = integral_abs_poly(c)
        oracle = gauss_abs(lambda t: np.polyval(c[::-1], t))
        assert exact == pytest.approx(oracle, rel=1e-10, abs=1e-12)
    # repeated root (touches zero without sign change)
    assert integral_abs_poly(np.array([0.25, -1.0, 1.0])) == pytest.approx(
        1 / 3 - 1 / 2 + 1 / 4, abs=1e-12
    )
    assert integral_abs_poly(np.zeros(3)) == 0.0


def test_integral_abs_poly_negligible_top_terms():
    # dividing by a top coefficient this small against the block's
    # largest overflows the companion matrix (LinAlgError), and its share
    # of the integral is far below rounding
    assert integral_abs_poly((1.0, 5e-324)) == 1.0
    assert integral_abs_poly((1e10, 1e-300)) == 1e10
    assert eval_phi([1.0, 0.0, 1e-320], 2) == 1.0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4))
def test_integral_abs_poly_accepts_any_finite_coefficients(c):
    # |sum c_j t^j| <= sum |c_j| t^j, whose integral is sum |c_j| / (j+1);
    # the two sums round in a different order, hence the few ulps
    val = integral_abs_poly(c)
    bound = sum(abs(x) / (j + 1) for j, x in enumerate(c))
    assert 0 <= val <= bound + 8 * math.ulp(bound)


def integral_abs_poly_per_block(coeffs):
    """The per-block algorithm that _abs_integrals batches: np.roots,
    two Newton steps per near-real root, np.unique split points."""
    c = np.asarray(coeffs, dtype=float)
    nz = np.nonzero(c)[0]
    if len(nz) == 0:
        return 0.0
    c = c[: nz[-1] + 1]
    if len(c) == 1:
        return abs(c[0])
    desc = c[::-1]
    pts = [0.0, 1.0]
    for r in np.roots(desc):
        if abs(r.imag) > 1e-6 * max(1.0, abs(r.real)):
            continue
        x = r.real
        for _ in range(2):
            dp = np.polyval(np.polyder(desc), x)
            if dp == 0.0:
                break
            x -= np.polyval(desc, x) / dp
        if 0.0 < x < 1.0:
            pts.append(x)
    pts = np.unique(pts)
    anti = np.concatenate([[0.0], c / (np.arange(len(c)) + 1.0)])[::-1]
    fv = np.polyval(anti, pts)
    return float(np.abs(np.diff(fv)).sum())


@pytest.mark.parametrize("bs", [1, 2, 3, 4])
def test_abs_integrals_match_per_block_algorithm(bs):
    rng = np.random.default_rng(31 + bs)
    blocks = rng.standard_normal((600, bs))
    blocks[rng.random(blocks.shape) < 0.25] = 0.0  # leading, inner, trailing zeros
    blocks[:20] = 0.0
    if bs >= 3:
        r = rng.random(100)
        blocks[20:120] = 0.0  # double root (t - r)^2 inside (0, 1)
        blocks[20:120, :3] = np.column_stack([r * r, -2 * r, np.ones_like(r)])
        blocks[120:170] = 0.0  # t (1 - t): roots at 0 and 1
        blocks[120:170, 1:3] = [1.0, -1.0]
    blocks[170:270, 0] = 0.0  # root at 0
    if bs >= 2:
        blocks[270:370, 0] = -blocks[270:370, 1:].sum(axis=1)  # root at 1
    want = np.array([integral_abs_poly_per_block(b) for b in blocks])
    got = _abs_integrals(blocks.reshape(6, 100, bs))
    assert got.shape == (6, 100)
    got = got.reshape(-1)
    assert np.all(got[want == 0.0] == 0.0)
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
    assert [integral_abs_poly(b) for b in blocks[::50]] == list(got[::50])


def test_phi_of_Bv_equals_s_p1():
    rng = np.random.default_rng(42)
    for n in (1, 2, 4):
        disc = Discretization(build_uniform(n), SpaceConfig(k=2))
        bmat = assemble_B(disc, 1)
        for _ in range(100):
            v = random_weak(disc.layout, rng)
            lhs = eval_phi(bmat.B @ v.coeffs, disc.cfg.k)
            rhs = eval_s(disc, v, 1)
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_s_p1_against_point_evaluation_oracle():
    rng = np.random.default_rng(7)
    disc = Discretization(build_uniform(1), SpaceConfig(k=2))
    for with_bnd in (False, True):
        v = random_weak(disc.layout, rng, with_boundary=with_bnd)
        assert eval_s(disc, v, 1) == pytest.approx(s_p1_oracle(disc, v), rel=1e-9)


def test_boundary_data_enters_jumps():
    disc = Discretization(build_uniform(1), SpaceConfig(k=2))
    layout = disc.layout
    g = np.ones(layout.NB)
    v = WeakFunction(layout, np.zeros(layout.N), boundary=g)
    bmat = assemble_B(disc, 1)
    full = bmat.B @ v.coeffs + bmat.Bb @ g
    assert np.abs(full).max() > 0.1
    assert eval_s(disc, v, 1) > 0.1
    # and phi over the full jump vector still matches s
    assert eval_phi(full, 2) == pytest.approx(eval_s(disc, v, 1), rel=1e-12)


def test_s_p2_quadratic_scaling():
    rng = np.random.default_rng(3)
    disc = Discretization(build_uniform(2), SpaceConfig(k=2))
    v = random_weak(disc.layout, rng)
    v2 = WeakFunction(disc.layout, 2.0 * v.coeffs)
    assert eval_s(disc, v2, 2) == pytest.approx(4.0 * eval_s(disc, v, 2), rel=1e-12)


def test_s_inf_linear_scaling():
    rng = np.random.default_rng(4)
    disc = Discretization(build_uniform(2), SpaceConfig(k=2))
    v = random_weak(disc.layout, rng)
    v2 = WeakFunction(disc.layout, 2.0 * v.coeffs)
    assert eval_s(disc, v2, np.inf) == pytest.approx(
        2.0 * eval_s(disc, v, np.inf), rel=1e-12
    )


def test_s_p1_triangle_inequality():
    rng = np.random.default_rng(9)
    disc = Discretization(build_uniform(1), SpaceConfig(k=2))
    for _ in range(20):
        u = random_weak(disc.layout, rng)
        v = random_weak(disc.layout, rng)
        d = WeakFunction(disc.layout, u.coeffs - v.coeffs)
        lhs = abs(eval_s(disc, u, 1) - eval_s(disc, v, 1))
        assert lhs <= eval_s(disc, d, 1) + 1e-12


def test_s_tilde():
    rng = np.random.default_rng(5)
    disc = Discretization(build_uniform(1), SpaceConfig(k=2))
    v = random_weak(disc.layout, rng)
    assert eval_s_tilde(disc, v, 1) == pytest.approx(eval_s(disc, v, 1), rel=1e-14)
    assert eval_s_tilde(disc, v, 2) ** 2 == pytest.approx(eval_s(disc, v, 2), rel=1e-12)
    assert eval_s_tilde(disc, v, np.inf) == eval_s(disc, v, np.inf)
    # scale v so that s = 16 at p = 2; the tilde form is then 4
    c = 4.0 / np.sqrt(eval_s(disc, v, 2))
    v16 = WeakFunction(disc.layout, c * v.coeffs)
    assert eval_s_tilde(disc, v16, 2) == pytest.approx(4.0, rel=1e-12)


def test_unsupported_p():
    disc = Discretization(build_uniform(1), SpaceConfig(k=2))
    with pytest.raises(ValueError):
        assemble_B(disc, 3)
    v = WeakFunction(disc.layout, np.zeros(disc.layout.N))
    with pytest.raises(ValueError):
        eval_s(disc, v, 3)
