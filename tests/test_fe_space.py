from math import factorial

import numpy as np
import pytest
import scipy.sparse as sp

from pdwg.analysis import builtin_case
from pdwg.fe_space import (
    Discretization,
    SpaceConfig,
    WeakFunction,
    derivative_map,
    edge_rule,
    eval_basis,
    eval_v0,
    make_layout,
    poly_exponents,
    project_boundary,
    project_Qh,
    project_Wh,
    triangle_rule,
)
from pdwg.mesh import build_uniform, refine
from pdwg.stabilizer import assemble_B
from pdwg.weak_assembly import _weak_hessian_maps, assemble_A


def ref_triangle_moment(a, b):
    # exact integral of x^a y^b over the reference triangle
    return factorial(a) * factorial(b) / factorial(a + b + 2)


def test_space_config_defaults_and_validation():
    cfg = SpaceConfig(k=2)
    assert cfg.l == 1
    assert SpaceConfig(k=3, l=1).l == 1
    assert SpaceConfig(k=2, l=None).l == 1
    with pytest.raises(ValueError):
        SpaceConfig(k=2, l=-1)
    with pytest.raises(ValueError):
        SpaceConfig(k=1)
    with pytest.raises(ValueError):
        SpaceConfig(k=2, l=2)
    with pytest.raises(ValueError):
        SpaceConfig(k=4, l=1)
    # float degrees are refused here, not left to fail inside Discretization
    with pytest.raises(ValueError, match="k must be an integer"):
        SpaceConfig(k=2.5)
    with pytest.raises(ValueError, match="l must be an integer"):
        SpaceConfig(k=3, l=1.0)
    # bool is an Integral subclass, not a degree
    with pytest.raises(ValueError, match="k must be an integer"):
        SpaceConfig(k=True)
    with pytest.raises(ValueError, match="l must be an integer"):
        SpaceConfig(k=2, l=True)
    assert SpaceConfig(k=np.int64(3), l=np.int64(1)).l == 1


def test_poly_exponents_graded_order():
    exps = poly_exponents(2)
    assert exps.tolist() == [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]
    assert len(poly_exponents(3)) == 10


def test_triangle_rule_exactness():
    degree = 10
    pts, w = triangle_rule(degree)
    assert w.sum() == pytest.approx(0.5, abs=1e-15)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            val = np.sum(w * pts[:, 0] ** a * pts[:, 1] ** b)
            assert val == pytest.approx(ref_triangle_moment(a, b), rel=1e-13)


def test_edge_rule_exactness():
    pts, w = edge_rule(6)
    for m in range(12):
        assert np.sum(w * pts**m) == pytest.approx(1.0 / (m + 1), rel=1e-13)


def test_gauss_rules_match_scipy_special():
    # the rules are built with numpy; scipy.special's give the same nodes,
    # weights and point order
    from scipy.special import roots_jacobi, roots_legendre

    for m in range(1, 11):
        s, w = roots_legendre(m)
        pts, wts = edge_rule(m)
        assert np.abs(pts - 0.5 * (s + 1.0)).max() <= 1e-14
        assert np.abs(wts - 0.5 * w).max() <= 1e-14
        sj, wj = roots_jacobi(m, 1, 0)
        u, v = np.meshgrid(0.5 * (sj + 1.0), 0.5 * (s + 1.0), indexing="ij")
        pts, wts = triangle_rule(2 * m - 2)
        assert len(wts) == m * m
        assert np.abs(pts[:, 0] - u.ravel()).max() <= 1e-14
        assert np.abs(pts[:, 1] - (v * (1.0 - u)).ravel()).max() <= 1e-14
        assert np.abs(wts - np.multiply.outer(wj, w).ravel() / 8.0).max() <= 1e-14


def test_eval_basis_values_and_derivatives():
    exps = poly_exponents(2)
    center = np.array([0.3, 0.4])
    h = 0.5
    p = np.array([0.45, 0.65])
    xi, eta = (p - center) / h
    vals = eval_basis(exps, p, center, h)
    assert vals == pytest.approx([1, xi, eta, xi**2, xi * eta, eta**2])
    dx = eval_basis(exps, p, center, h, deriv=(1, 0))
    assert dx == pytest.approx([0, 1 / h, 0, 2 * xi / h, eta / h, 0])
    dxy = eval_basis(exps, p, center, h, deriv=(1, 1))
    assert dxy == pytest.approx([0, 0, 0, 0, 1 / h**2, 0])
    dxx = eval_basis(exps, p, center, h, deriv=(2, 0))
    assert dxx == pytest.approx([0, 0, 0, 2 / h**2, 0, 0])


@pytest.mark.parametrize(
    "n,k,N,M",
    [(1, 2, 35, 6), (2, 2, 136, 24), (8, 2, 2128, 384)],
)
def test_layout_sizes(n, k, N, M):
    layout = make_layout(build_uniform(n), SpaceConfig(k=k))
    assert layout.N == N
    assert layout.M == M


def test_layout_slices_partition():
    mesh = build_uniform(2)
    layout = make_layout(mesh, SpaceConfig(k=2))
    hit = np.zeros(layout.N, dtype=int)
    for t in range(mesh.num_elements):
        hit[layout.v0_slice(t)] += 1
    for e in mesh.interior_edges():
        hit[layout.vb_slice(e)] += 1
    for e in range(mesh.num_edges):
        for j in range(2):
            hit[layout.vg_slice(e, j)] += 1
    assert np.all(hit == 1)
    for e in mesh.boundary_edges():
        assert layout.vb_slice(e) is None
    hitb = np.zeros(layout.NB, dtype=int)
    for e in mesh.boundary_edges():
        hitb[layout.boundary_vb_slice(e)] += 1
    assert np.all(hitb == 1)


def test_layout_index_arrays_match_slices():
    mesh = build_uniform(2)
    layout = make_layout(mesh, SpaceConfig(k=2))
    span = lambda sl: np.arange(sl.start, sl.stop)  # noqa: E731
    # one column space: unknowns in 0..N-1, boundary vb data in N..N+NB-1
    for e in range(mesh.num_edges):
        if mesh.edge_is_boundary[e]:
            assert layout.vb_slice(e) is None
            want = layout.N + span(layout.boundary_vb_slice(e))
        else:
            want = span(layout.vb_slice(e))
            with pytest.raises(ValueError, match="not a boundary edge"):
                layout.boundary_vb_slice(e)
        assert np.array_equal(layout.vb_cols[e], want)
        for j in range(2):
            assert np.array_equal(layout.vg_cols[j, e], span(layout.vg_slice(e, j)))
    for t in range(mesh.num_elements):
        cols = layout.elem_cols[t]
        assert np.array_equal(cols[: layout.nv0], span(layout.v0_slice(t)))
        edges = mesh.elem_edges[t]
        vb = slice(layout.nv0, layout.nv0 + 3 * layout.nvb)
        assert np.array_equal(cols[vb], layout.vb_cols[edges].ravel())
        assert np.all(cols[: layout.nv0] < layout.N) and np.all(cols[vb.stop :] < layout.N)
        vg = np.concatenate([span(layout.vg_slice(e, j)) for j in range(2) for e in edges])
        assert np.array_equal(cols[vb.stop :], vg)


def test_local_views_split_elem_cols_in_place():
    mesh = build_uniform(2)
    layout = make_layout(mesh, SpaceConfig(k=3))
    v0, vb, vg = layout.local_views(layout.elem_cols)
    assert np.array_equal(v0, np.arange(layout.N1).reshape(-1, layout.nv0))
    assert np.array_equal(vb, layout.vb_cols[mesh.elem_edges])
    assert np.array_equal(vg, layout.vg_cols[:, mesh.elem_edges].transpose(1, 0, 2, 3))
    R = np.zeros((mesh.num_elements, 4) + layout.elem_cols.shape[1:])
    views = layout.local_views(R)
    assert [v.shape for v in views] == [
        (mesh.num_elements, 4, layout.nv0),
        (mesh.num_elements, 4, 3, layout.nvb),
        (mesh.num_elements, 4, 2, 3, layout.nvg),
    ]
    for i, view in enumerate(views):
        view[...] = i + 1
    assert sorted(np.unique(R)) == [1, 2, 3]  # the views cover R and write to it


def test_weak_function_validation():
    layout = make_layout(build_uniform(1), SpaceConfig(k=2))
    with pytest.raises(ValueError):
        WeakFunction(layout, np.zeros(layout.N + 1))
    v = WeakFunction(layout, np.zeros(layout.N))
    assert v.boundary is None
    assert np.all(v.boundary_or_zero() == 0)


def test_trace_coefficients_match_point_evaluation():
    rng = np.random.default_rng(7)
    disc = Discretization(build_uniform(2), SpaceConfig(k=2))
    mesh = disc.mesh
    ts = np.linspace(0.0, 1.0, 9)
    tm = np.power.outer(ts, np.arange(disc.cfg.k + 1))
    for t in (0, 3, 5):
        coeffs = rng.standard_normal(disc.layout.nv0)
        for le in range(3):
            e = mesh.elem_edges[t, le]
            lo, hi = mesh.edges[e]
            pts = mesh.vertices[lo] + np.multiply.outer(
                ts, mesh.vertices[hi] - mesh.vertices[lo]
            )
            direct = eval_basis(
                poly_exponents(2), pts, mesh.elem_centroid[t], mesh.elem_h[t]
            ) @ coeffs
            via_trace = tm @ (disc.trace_val[t, le] @ coeffs)
            assert np.allclose(via_trace, direct, atol=1e-13)
            for j, d in ((0, (1, 0)), (1, (0, 1))):
                direct = eval_basis(
                    poly_exponents(2),
                    pts,
                    mesh.elem_centroid[t],
                    mesh.elem_h[t],
                    deriv=d,
                ) @ coeffs
                via_trace = tm @ (disc.trace_grad[t, le, j] @ coeffs)
                assert np.allclose(via_trace, direct, atol=1e-12)


@pytest.mark.parametrize("l", [1, 2])
def test_discretization_tables_match_per_element_evaluation(l):
    # the whole-mesh tables against eval_basis called one element at a
    # time; the W_h tables from the P_l basis itself, not from V_h's.
    # Derivatives are the value table times the exact derivative map.
    k = 3
    disc = Discretization(build_uniform(3), SpaceConfig(k=k, l=l))
    mesh = disc.mesh
    ts = np.linspace(0.0, 1.0, 7)
    derivs = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    spaces = (
        (k, disc.basis_v, disc.mass_v, disc.trace_val, disc.trace_grad),
        (l, disc.basis_w, disc.mass_w, disc.trace_w_val, disc.trace_w_grad),
    )
    for degree, basis, mass, trace_val, trace_grad in spaces:
        exps = poly_exponents(degree)
        tm = np.power.outer(ts, np.arange(degree + 1))
        assert trace_val.shape[-2:] == trace_grad.shape[-2:] == (degree + 1, len(exps))
        for t in range(mesh.num_elements):
            c, h = mesh.elem_centroid[t], mesh.elem_h[t]
            pts = disc.quad_pts[t]
            vals = eval_basis(exps, pts, c, h)
            assert np.array_equal(basis[t], vals)
            gram = np.einsum("q,qi,qj->ij", disc.quad_w[t], vals, vals)
            assert np.allclose(mass[t], gram, rtol=0, atol=1e-15 * mesh.elem_area[t])
            for d in derivs:
                want = eval_basis(exps, pts, c, h, deriv=d)
                got = basis[t] @ derivative_map(degree, d, h)
                assert np.allclose(got, want, rtol=0, atol=1e-13 / h ** sum(d))
            for le in range(3):
                lo, hi = mesh.edges[mesh.elem_edges[t, le]]
                epts = mesh.vertices[lo] + np.multiply.outer(
                    ts, mesh.vertices[hi] - mesh.vertices[lo]
                )
                want = eval_basis(exps, epts, c, h)
                assert np.allclose(tm @ trace_val[t, le], want, rtol=0, atol=1e-13)
                for j, d in ((0, (1, 0)), (1, (0, 1))):
                    want = eval_basis(exps, epts, c, h, deriv=d)
                    got = tm @ trace_grad[t, le, j]
                    assert np.allclose(got, want, rtol=0, atol=1e-12 / h)


def test_w_tables_are_views_of_the_v_tables():
    disc = Discretization(build_uniform(2), SpaceConfig(k=3, l=1))
    for w_table, v_table in (
        (disc.basis_w, disc.basis_v),
        (disc.mass_w, disc.mass_v),
        (disc.trace_w_val, disc.trace_val),
        (disc.trace_w_grad, disc.trace_grad),
    ):
        assert np.shares_memory(w_table, v_table)
    for name in (
        "exps_w", "tri_pts_ref", "tri_w_ref", "basis_v_grad", "basis_v_hess", "basis_w_hess"
    ):
        assert not hasattr(disc, name)


def test_trace_gradient_top_coefficient_is_zero():
    disc = Discretization(build_uniform(1), SpaceConfig(k=2))
    assert np.all(disc.trace_grad[:, :, :, -1, :] == 0)


def test_projection_reproduces_polynomials():
    # degree-k functions are reproduced exactly in every component
    disc = Discretization(build_uniform(2), SpaceConfig(k=2))

    def u(p):
        return 1.0 + 2.0 * p[..., 0] - p[..., 1] + p[..., 0] * p[..., 1]

    def grad_u(p):
        return np.stack(
            [2.0 + p[..., 1], -1.0 + p[..., 0]], axis=-1
        )

    v = project_Qh(u, grad_u, disc)
    mesh = disc.mesh
    for t in range(mesh.num_elements):
        pts = disc.quad_pts[t]
        assert np.allclose(eval_v0(v, t, pts), u(pts), atol=1e-12)
        assert np.allclose(eval_v0(v, t, pts, deriv=(1, 0)), grad_u(pts)[:, 0], atol=1e-11)
    # vb blocks agree with the trace of u, vg with its gradient
    ts = disc.edge_pts
    for e in range(mesh.num_edges):
        lo, hi = mesh.edges[e]
        pts = mesh.vertices[lo] + np.multiply.outer(
            ts, mesh.vertices[hi] - mesh.vertices[lo]
        )
        sl = v.layout.vb_slice(e)
        if sl is None:
            coeffs = v.boundary[v.layout.boundary_vb_slice(e)]
        else:
            coeffs = v.coeffs[sl]
        assert np.allclose(disc.tmat @ coeffs, u(pts), atol=1e-12)
        for j in range(2):
            coeffs = v.coeffs[v.layout.vg_slice(e, j)]
            assert np.allclose(
                disc.tmat[:, : disc.cfg.k] @ coeffs, grad_u(pts)[:, j], atol=1e-12
            )


def test_projection_accuracy_smooth_function():
    disc = Discretization(build_uniform(4), SpaceConfig(k=2))

    def u(p):
        return np.sin(np.pi * p[..., 0]) * np.sin(np.pi * p[..., 1])

    def grad_u(p):
        return np.stack(
            [
                np.pi * np.cos(np.pi * p[..., 0]) * np.sin(np.pi * p[..., 1]),
                np.pi * np.sin(np.pi * p[..., 0]) * np.cos(np.pi * p[..., 1]),
            ],
            axis=-1,
        )

    errs = []
    for n in (4, 8):
        d = disc if n == 4 else Discretization(build_uniform(8), SpaceConfig(k=2))
        v = project_Qh(u, grad_u, d)
        err = 0.0
        for t in range(d.mesh.num_elements):
            pts = d.quad_pts[t]
            err = max(err, np.abs(eval_v0(v, t, pts) - u(pts)).max())
        errs.append(err)
    assert errs[0] < 5e-2
    # k = 2 projection converges at third order in h
    assert errs[0] / errs[1] > 6.0
    # homogeneous trace: boundary data of this u is numerically zero
    v = project_Qh(u, grad_u, disc)
    assert np.abs(v.boundary).max() < 1e-14


def test_project_boundary_matches_projection_field():
    disc = Discretization(build_uniform(2), SpaceConfig(k=2))

    def u(p):
        return p[..., 0] ** 2 + p[..., 1] ** 2

    def grad_u(p):
        return 2.0 * p

    v = project_Qh(u, grad_u, disc)
    bnd = project_boundary(u, disc)
    assert np.allclose(bnd, v.boundary, atol=1e-13)
    assert np.abs(bnd).max() > 0.1


def test_project_Wh_reproduces_P1():
    disc = Discretization(build_uniform(2), SpaceConfig(k=2))

    def g(p):
        return 3.0 - p[..., 0] + 0.5 * p[..., 1]

    coeffs = project_Wh(g, disc)
    vals = np.einsum("tqi,ti->tq", disc.basis_w, coeffs)
    assert np.allclose(vals, g(disc.quad_pts), atol=1e-13)


def test_eval_v0_bad_element():
    layout = make_layout(build_uniform(1), SpaceConfig(k=2))
    v = WeakFunction(layout, np.zeros(layout.N))
    with pytest.raises(IndexError):
        eval_v0(v, 99, np.array([0.5, 0.5]))


def test_mass_matrices_spd():
    disc = Discretization(build_uniform(1), SpaceConfig(k=2))
    for M in (disc.mass_v, disc.mass_w):
        for t in range(disc.mesh.num_elements):
            assert np.allclose(M[t], M[t].T, atol=1e-15)
            assert np.linalg.eigvalsh(M[t]).min() > 0


def _csr_pair(nrows, layout, rows, cols, vals):
    """Reference split at N: the unknowns' and the boundary data's entries
    assembled as two separate COO matrices."""
    inner = cols < layout.N
    X = sp.coo_matrix((vals[inner], (rows[inner], cols[inner])), shape=(nrows, layout.N))
    Xb = sp.coo_matrix(
        (vals[~inner], (rows[~inner], cols[~inner] - layout.N)), shape=(nrows, layout.NB)
    )
    return X.tocsr(), Xb.tocsr()


def _A_blocks(disc, field):
    """(T, mw, nloc) element blocks of the constraint, as assemble_A forms them."""
    aq = np.asarray(field.a(disc.quad_pts))
    local = 0.0
    for i in range(2):
        for j in range(2):
            weighted = disc.basis_w * (disc.quad_w * aq[:, :, i, j])[..., None]
            W_a = np.swapaxes(weighted, 1, 2) @ disc.basis_w
            local = local + W_a @ _weak_hessian_maps(disc, i, j)
    return local


def _B_entries(disc, bmat):
    """(rows, cols, vals) of the jump matrix, one (element, local edge) pair at a time."""
    layout, mesh = disc.layout, disc.mesh
    bs, T = layout.nvb, mesh.num_elements
    scale = bmat.scale.reshape(3, T, 3)
    r = np.arange(bs)
    out = []
    for t in range(T):
        v0 = layout.elem_cols[t, : layout.nv0]
        for le, e in enumerate(mesh.elem_edges[t]):
            rows = (3 * t + le) * bs + r
            out.append((rows[:, None], v0, scale[0, t, le] * disc.trace_val[t, le]))
            out.append((rows, layout.vb_cols[e], -scale[0, t, le]))
            for j in range(2):
                rows_j = rows + (1 + j) * 3 * T * bs
                w = scale[1 + j, t, le]
                out.append((rows_j[:, None], v0, w * disc.trace_grad[t, le, j]))
                out.append((rows_j[: layout.nvg], layout.vg_cols[j, e], -w))
    flat = [np.broadcast_arrays(*e) for e in out]
    return (np.concatenate([f[i].ravel() for f in flat]) for i in range(3))


_MESHES = {f"n{n}": (lambda n=n: build_uniform(n)) for n in (1, 2, 3)}
_MESHES["refined2"] = lambda: refine(build_uniform(2))


@pytest.mark.parametrize("mesh", _MESHES)
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("case", ["const", "var", "disc"])
def test_assembled_operators_are_canonical_and_match_coo_reference(case, k, mesh):
    disc = Discretization(_MESHES[mesh](), SpaceConfig(k=k))
    layout = disc.layout
    T, nloc = layout.elem_cols.shape
    field = builtin_case(case).field
    system = assemble_A(disc, field)
    # A keeps every entry of its element blocks, zeros included
    assert system.A.nnz + system.Cb.nnz == T * layout.mw * nloc
    rows, cols = np.broadcast_arrays(
        np.arange(layout.M).reshape(T, layout.mw, 1), layout.elem_cols[:, None, :]
    )
    local = _A_blocks(disc, field)
    want = {"A": _csr_pair(layout.M, layout, rows.ravel(), cols.ravel(), local.ravel())}
    got = {"A": (system.A, system.Cb)}
    for p in (1, 2):
        bmat = assemble_B(disc, p)
        got[f"B{p}"] = (bmat.B, bmat.Bb)
        r, c, v = _B_entries(disc, bmat)
        keep = v != 0
        want[f"B{p}"] = _csr_pair(bmat.num_rows, layout, r[keep], c[keep], v[keep])
        assert np.all(bmat.B.data != 0) and np.all(bmat.Bb.data != 0)
    for name, pair in got.items():
        for X, ref in zip(pair, want[name]):
            assert X.format == "csr" and X.has_canonical_format
            assert X.indices.dtype == X.indptr.dtype == np.int32
            assert X.shape == ref.shape
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(X, part), getattr(ref, part)), (name, part)
