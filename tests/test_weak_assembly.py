import numpy as np
import pytest

from pdwg.fe_space import (
    Discretization,
    SpaceConfig,
    WeakFunction,
    eval_basis,
    poly_exponents,
    project_Qh,
    project_Wh,
)
from pdwg.mesh import Mesh, build_uniform
from pdwg.weak_assembly import (
    CoefficientField,
    apply_Lw,
    assemble_A,
    check_ellipticity,
    gather_local,
    local_dof_columns,
    weak_hessian_apply,
)

from conftest import poly_field


def test_check_ellipticity():
    pts = np.random.default_rng(0).random((40, 2))
    lo, hi = check_ellipticity(poly_field(), pts)
    assert 0 < lo < hi
    bad = CoefficientField(
        a=lambda p: np.broadcast_to(
            np.array([[1.0, 2.0], [0.0, 1.0]]), p.shape[:-1] + (2, 2)
        ),
        f=lambda p: np.zeros(p.shape[:-1]),
    )
    with pytest.raises(ValueError):
        check_ellipticity(bad, pts)
    # the symmetry tolerance is absolute: a 5e-6 mismatch is not roundoff
    near = CoefficientField(
        a=lambda p: np.broadcast_to(
            np.array([[2.0, 1.0], [1.000005, 2.0]]), p.shape[:-1] + (2, 2)
        ),
        f=lambda p: np.zeros(p.shape[:-1]),
    )
    with pytest.raises(ValueError, match="not symmetric"):
        check_ellipticity(near, pts)
    indef = CoefficientField(
        a=lambda p: np.broadcast_to(
            np.array([[1.0, 3.0], [3.0, 1.0]]), p.shape[:-1] + (2, 2)
        ),
        f=lambda p: np.zeros(p.shape[:-1]),
    )
    with pytest.raises(ValueError):
        check_ellipticity(indef, pts)
    # non-finite entries are named as such: inf would pass the eigenvalue
    # test and NaN would fail the symmetry one
    for bad_value in (np.inf, np.nan):
        nonfinite = CoefficientField(
            a=lambda p, v=bad_value: np.broadcast_to(
                np.array([[1.0, 0.0], [0.0, v]]), p.shape[:-1] + (2, 2)
            ),
            f=lambda p: np.zeros(p.shape[:-1]),
        )
        with pytest.raises(ValueError, match="not finite"):
            check_ellipticity(nonfinite, pts)
    # the closed form agrees with eigvalsh on random SPD fields
    rng = np.random.default_rng(1)
    for _ in range(20):
        theta = rng.uniform(0.0, np.pi, 40)
        rot = np.stack(
            [np.cos(theta), -np.sin(theta), np.sin(theta), np.cos(theta)], axis=-1
        ).reshape(-1, 2, 2)
        mats = rot * rng.uniform(0.1, 10.0, (40, 1, 2)) @ np.swapaxes(rot, -1, -2)
        mats = 0.5 * (mats + np.swapaxes(mats, -1, -2))
        spd = CoefficientField(a=lambda p, m=mats: m, f=lambda p: np.zeros(p.shape[:-1]))
        lo, hi = check_ellipticity(spd, pts)
        eigs = np.linalg.eigvalsh(mats)
        assert np.isclose(lo, eigs.min(), rtol=1e-12, atol=0)
        assert np.isclose(hi, eigs.max(), rtol=1e-12, atol=0)


def test_local_columns_cover_local_dofs():
    disc = Discretization(build_uniform(2), SpaceConfig(k=2))
    glob, bnd = local_dof_columns(disc, 0)
    assert len(glob) == 6 + 3 * 3 + 6 * 2
    assert np.all((glob >= 0) ^ (bnd >= 0))


def test_weak_hessian_of_polynomial_embedding():
    # v0 = x^2 with matching traces: the xx weak derivative is the
    # constant 2, and the xy / yy ones vanish
    disc = Discretization(build_uniform(2), SpaceConfig(k=2))
    v = project_Qh(lambda p: p[..., 0] ** 2, lambda p: np.stack(
        [2.0 * p[..., 0], np.zeros(p.shape[:-1])], axis=-1), disc)
    h00 = weak_hessian_apply(disc, v, 0, 0)
    assert np.allclose(h00[:, 0], 2.0, atol=5e-12)
    assert np.allclose(h00[:, 1:], 0.0, atol=5e-12)
    for i, j in ((0, 1), (1, 0), (1, 1)):
        assert np.allclose(weak_hessian_apply(disc, v, i, j), 0.0, atol=5e-12)


def test_weak_hessian_boundary_moments_reference_triangle():
    # v0 = 0, vb = 0, vg = (1, 0) on the boundary of the reference
    # triangle: solving mass * c = <1, psi n_j> by hand at l = 1 gives
    # d2_{11,w} v = 24x + 12y - 12 and d2_{12,w} v = 12x + 24y - 12.
    mesh = Mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]])
    )
    disc = Discretization(mesh, SpaceConfig(k=2))
    layout = disc.layout
    coeffs = np.zeros(layout.N)
    for e in range(mesh.num_edges):
        coeffs[layout.vg_slice(e, 0)][...] = 0.0
        sl = layout.vg_slice(e, 0)
        coeffs[sl.start] = 1.0
    v = WeakFunction(layout, coeffs)

    root2 = np.sqrt(2.0)
    h00 = weak_hessian_apply(disc, v, 0, 0)[0]
    assert h00 == pytest.approx([0.0, 24 * root2, 12 * root2], abs=1e-12)
    h01 = weak_hessian_apply(disc, v, 0, 1)[0]
    assert h01 == pytest.approx([0.0, 12 * root2, 24 * root2], abs=1e-12)
    # component 2 of vg is zero, so i=1 derivatives see only zeros
    assert np.allclose(weak_hessian_apply(disc, v, 1, 0), 0.0, atol=1e-13)
    assert np.allclose(weak_hessian_apply(disc, v, 1, 1), 0.0, atol=1e-13)


def test_constraint_consistency_on_polynomial():
    field = poly_field()
    for n in (1, 2):
        disc = Discretization(build_uniform(n), SpaceConfig(k=2))
        system = assemble_A(disc, field)
        v = project_Qh(field.u, field.grad_u, disc)
        residual = system.A @ v.coeffs + system.Cb @ v.boundary - system.fvec
        assert np.abs(residual).max() < 1e-10


def test_zero_maps_to_zero():
    disc = Discretization(build_uniform(1), SpaceConfig(k=2))
    system = assemble_A(disc, poly_field())
    assert np.abs(system.A @ np.zeros(disc.layout.N)).max() == 0.0


@pytest.mark.parametrize("n,M", [(1, 6), (2, 24)])
def test_full_row_rank(n, M):
    disc = Discretization(build_uniform(n), SpaceConfig(k=2))
    system = assemble_A(disc, poly_field())
    assert system.A.shape == (M, disc.layout.N)
    dense = system.A.toarray()
    dense /= np.linalg.norm(dense, axis=1, keepdims=True)
    sv = np.linalg.svd(dense, compute_uv=False)
    assert sv.min() > 1e-10


def test_apply_Lw_matches_assembled_rows():
    rng = np.random.default_rng(3)
    disc = Discretization(build_uniform(2), SpaceConfig(k=2))
    field = poly_field()
    system = assemble_A(disc, field)
    for _ in range(10):
        v = WeakFunction(disc.layout, rng.standard_normal(disc.layout.N))
        coeffs = apply_Lw(disc, field, v, system=system)
        moments = np.einsum("tij,tj->ti", disc.mass_w, coeffs).ravel()
        assert np.allclose(moments, system.A @ v.coeffs, atol=1e-12)


def test_apply_Lw_polynomial_is_constant_14():
    disc = Discretization(build_uniform(2), SpaceConfig(k=2))
    field = poly_field()
    v = project_Qh(field.u, field.grad_u, disc)
    coeffs = apply_Lw(disc, field, v)
    assert np.allclose(coeffs[:, 0], 14.0, atol=1e-10)
    assert np.allclose(coeffs[:, 1:], 0.0, atol=1e-10)


def test_locality_of_edge_perturbation():
    disc = Discretization(build_uniform(2), SpaceConfig(k=2))
    field = poly_field()
    system = assemble_A(disc, field)
    layout = disc.layout
    mesh = disc.mesh
    e = mesh.interior_edges()[0]
    incident = set(mesh.edge_elements[e])

    base = WeakFunction(layout, np.zeros(layout.N))
    pert = np.zeros(layout.N)
    pert[layout.vg_slice(e, 1)] = 1.0
    changed = apply_Lw(disc, field, WeakFunction(layout, pert), system=system)
    unchanged = apply_Lw(disc, field, base, system=system)
    diff = np.abs(changed - unchanged).max(axis=1)
    touched = set(np.nonzero(diff > 1e-14)[0].tolist())
    assert touched <= incident
    assert touched

    # same fact at the matrix level: those columns only hit incident rows
    for j in range(2):
        sl = layout.vg_slice(e, j)
        sub = system.A[:, sl.start : sl.stop].tocoo()
        for r in sub.row:
            assert r // layout.mw in incident


def hess_poly(p):
    x, y = p[..., 0], p[..., 1]
    out = np.empty(p.shape[:-1] + (2, 2))
    out[..., 0, 0] = 6 * x + 2 * y
    out[..., 0, 1] = 2 * x + 2 * y
    out[..., 1, 0] = out[..., 0, 1]
    out[..., 1, 1] = 2 * x - 6 * y
    return out


def test_commutativity_polynomial():
    # weak Hessian of the projection == projection of the Hessian,
    # exactly when every integrand sits inside the quadrature degree; at
    # k=3 the (v0, d2 psi) block is nonzero, and cond(mass_v) ~ 1e6
    # amplifies the roundoff
    def u(p):
        x, y = p[..., 0], p[..., 1]
        return x**3 + x**2 * y - y**3 + x * y**2

    def grad_u(p):
        x, y = p[..., 0], p[..., 1]
        return np.stack(
            [3 * x**2 + 2 * x * y + y**2, x**2 - 3 * y**2 + 2 * x * y], axis=-1
        )

    for k, bound in ((2, 1e-11), (3, 1e-8)):
        disc = Discretization(build_uniform(2), SpaceConfig(k=k))
        v = project_Qh(u, grad_u, disc)
        for i in range(2):
            for j in range(2):
                got = weak_hessian_apply(disc, v, i, j)
                want = project_Wh(lambda p: hess_poly(p)[..., i, j], disc)
                assert np.abs(got - want).max() < bound, (k, i, j)


@pytest.mark.parametrize("k,l", [(3, 2), (4, 3), (4, 2)])
def test_weak_hessian_v0_block_matches_quadrature(k, l):
    # the (v0, d2_ji psi)_T block comes from the exact derivative map;
    # pin it against volume quadrature of eval_basis Hessians per element
    rng = np.random.default_rng(7)
    disc = Discretization(build_uniform(2), SpaceConfig(k=k, l=l))
    layout, mesh = disc.layout, disc.mesh
    coeffs = np.zeros(layout.N)
    coeffs[: layout.N1] = rng.standard_normal(layout.N1)
    v = WeakFunction(layout, coeffs)
    v0 = coeffs[: layout.N1].reshape(mesh.num_elements, layout.nv0)
    for i in range(2):
        for j in range(2):
            moments = np.empty((mesh.num_elements, layout.mw))
            for t in range(mesh.num_elements):
                d2psi = eval_basis(
                    poly_exponents(l),
                    disc.quad_pts[t],
                    mesh.elem_centroid[t],
                    mesh.elem_h[t],
                    deriv=(2 - i - j, i + j),
                )
                moments[t] = np.einsum(
                    "q,qm,qn,n->m", disc.quad_w[t], d2psi, disc.basis_v[t], v0[t]
                )
            want = np.einsum("tij,tj->ti", disc.mass_w_inv, moments)
            got = weak_hessian_apply(disc, v, i, j)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_commutativity_smooth_function():
    disc = Discretization(build_uniform(8), SpaceConfig(k=2))
    pi = np.pi

    def u(p):
        return np.sin(pi * p[..., 0]) * np.sin(pi * p[..., 1])

    def grad_u(p):
        return np.stack(
            [
                pi * np.cos(pi * p[..., 0]) * np.sin(pi * p[..., 1]),
                pi * np.sin(pi * p[..., 0]) * np.cos(pi * p[..., 1]),
            ],
            axis=-1,
        )

    def hess(p, i, j):
        x, y = p[..., 0], p[..., 1]
        if i == j:
            return -pi * pi * np.sin(pi * x) * np.sin(pi * y)
        return pi * pi * np.cos(pi * x) * np.cos(pi * y)

    v = project_Qh(u, grad_u, disc)
    for i in range(2):
        for j in range(2):
            got = weak_hessian_apply(disc, v, i, j)
            want = project_Wh(lambda p: hess(p, i, j), disc)
            d = got - want
            err = np.sqrt(np.einsum("ti,tij,tj->", d, disc.mass_w, d))
            assert err < 1e-9


def test_gather_local_roundtrip():
    # boundary vb slots read the boundary data, or 0 when it is absent
    rng = np.random.default_rng(5)
    disc = Discretization(build_uniform(2), SpaceConfig(k=2))
    layout = disc.layout
    coeffs = rng.standard_normal(layout.N)
    for g in (rng.standard_normal(layout.NB), None):
        v = WeakFunction(layout, coeffs, boundary=g)
        for t in range(disc.mesh.num_elements):
            glob, bnd = local_dof_columns(disc, t)
            assert np.all((glob >= 0) ^ (bnd >= 0))
            local = gather_local(disc, t, v)
            for c in range(len(glob)):
                if glob[c] >= 0:
                    want = v.coeffs[glob[c]]
                else:
                    want = 0.0 if g is None else g[bnd[c]]
                assert local[c] == want
