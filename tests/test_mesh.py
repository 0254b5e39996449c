import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdwg.mesh import Mesh, build_uniform, edge_param, refine


def test_unit_square_n1_counts():
    mesh = build_uniform(1)
    assert mesh.num_elements == 2
    assert mesh.num_vertices == 4
    assert mesh.num_edges == 5


def test_unit_square_n2_counts():
    mesh = build_uniform(2)
    assert mesh.num_elements == 8
    assert mesh.num_vertices == 9
    assert mesh.num_edges == 16


def test_mesh_size_n4():
    mesh = build_uniform(4)
    assert mesh.h == pytest.approx(np.sqrt(2.0) / 4)
    assert np.allclose(mesh.elem_h, np.sqrt(2.0) / 4)


def test_counts_formula():
    for n in (1, 2, 3, 5, 8):
        mesh = build_uniform(n)
        assert mesh.num_elements == 2 * n * n
        assert mesh.num_vertices == (n + 1) ** 2
        assert mesh.num_edges == 3 * n * n + 2 * n
        # Euler characteristic of a disk
        assert mesh.num_vertices - mesh.num_edges + mesh.num_elements == 1


def test_ccw_orientation_required():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        Mesh(verts, np.array([[0, 2, 1]]))


def test_edge_in_three_elements_rejected():
    # three positively oriented triangles on the edge (0, 1)
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
    with pytest.raises(ValueError, match="more than two elements"):
        Mesh(verts, np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]]))


def test_build_uniform_rejects_bad_n():
    with pytest.raises(ValueError):
        build_uniform(0)
    # a float or bool n is refused, not truncated or read as 1
    for n in (2.7, 2.0, True):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            build_uniform(n)
    assert build_uniform(np.int64(2)).n == 2


def test_total_area():
    for n in (1, 3, 4):
        mesh = build_uniform(n)
        assert mesh.elem_area.sum() == pytest.approx(1.0, abs=1e-14)


def test_outward_normals_are_unit_and_outward():
    mesh = build_uniform(2)
    for t in range(mesh.num_elements):
        c = mesh.elem_centroid[t]
        for le in range(3):
            nrm = mesh.elem_normals[t, le]
            assert np.linalg.norm(nrm) == pytest.approx(1.0)
            e = mesh.elem_edges[t, le]
            lo, hi = mesh.edges[e]
            mid = 0.5 * (mesh.vertices[lo] + mesh.vertices[hi])
            # midpoint + small step along the normal leaves the element
            assert np.dot(mid - c, nrm) > 0


def test_divergence_identity():
    # sum of (edge length * outward normal) vanishes on every element
    mesh = build_uniform(3)
    for t in range(mesh.num_elements):
        lengths = mesh.edge_length[mesh.elem_edges[t]]
        total = (lengths[:, None] * mesh.elem_normals[t]).sum(axis=0)
        assert np.allclose(total, 0.0, atol=1e-14)


def test_interior_edges_have_opposite_normals():
    mesh = build_uniform(2)
    for e in mesh.interior_edges():
        t1, t2 = mesh.edge_elements[e]
        assert t1 >= 0 and t2 >= 0
        le1 = list(mesh.elem_edges[t1]).index(e)
        le2 = list(mesh.elem_edges[t2]).index(e)
        assert np.allclose(
            mesh.elem_normals[t1, le1], -mesh.elem_normals[t2, le2], atol=1e-14
        )


def test_boundary_edges_on_square_boundary():
    mesh = build_uniform(3)
    bdry = mesh.boundary_edges()
    assert len(bdry) == 4 * 3
    for e in bdry:
        for v in mesh.edges[e]:
            x, y = mesh.vertices[v]
            assert min(x, y, 1 - x, 1 - y) == pytest.approx(0.0, abs=1e-15)
        assert mesh.edge_elements[e, 1] == -1


def test_edge_orientation_lower_id_first():
    mesh = build_uniform(4)
    assert np.all(mesh.edges[:, 0] < mesh.edges[:, 1])


def test_edge_param_endpoints_and_speed():
    mesh = build_uniform(2)
    for e in (0, mesh.num_edges // 2, mesh.num_edges - 1):
        gamma = edge_param(mesh, e)
        lo, hi = mesh.edges[e]
        assert np.allclose(gamma(0.0), mesh.vertices[lo])
        assert np.allclose(gamma(1.0), mesh.vertices[hi])
        mid = gamma(0.5)
        assert np.allclose(mid, 0.5 * (mesh.vertices[lo] + mesh.vertices[hi]))
        # |gamma'| is the edge length
        d = (np.asarray(gamma(1.0)) - np.asarray(gamma(0.0)))
        assert np.linalg.norm(d) == pytest.approx(mesh.edge_length[e])


def test_refine_n1_gives_n2_counts():
    fine = refine(build_uniform(1))
    assert fine.num_elements == 8
    assert fine.num_vertices == 9
    assert fine.num_edges == 16
    assert fine.n == 2


def test_refine_matches_uniform_geometry():
    # refinement of the n-grid covers the same points as the 2n-grid
    fine = refine(build_uniform(2))
    direct = build_uniform(4)
    assert fine.num_elements == direct.num_elements
    assert fine.num_edges == direct.num_edges
    got = set(map(tuple, np.round(fine.vertices, 12)))
    want = set(map(tuple, np.round(direct.vertices, 12)))
    assert got == want
    assert fine.elem_area.sum() == pytest.approx(1.0, abs=1e-14)


def _incident_elements(mesh):
    edge_elements = np.full((mesh.num_edges, 2), -1)
    count = np.zeros(mesh.num_edges, dtype=int)
    for t in range(mesh.num_elements):
        for e in mesh.elem_edges[t]:
            edge_elements[e, count[e]] = t
            count[e] += 1
    return edge_elements


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_build_and_refine_match_per_cell_construction(n):
    mesh = build_uniform(n)
    elements = []
    for j in range(n):
        for i in range(n):
            a, d = j * (n + 1) + i, (j + 1) * (n + 1) + i
            elements += [(a, a + 1, d + 1), (a, d + 1, d)]
    assert np.array_equal(mesh.elements, elements)
    assert np.array_equal(mesh.edge_elements, _incident_elements(mesh))

    fine = refine(mesh)
    m = mesh.num_vertices + mesh.elem_edges
    children = []
    for (v0, v1, v2), (m01, m12, m20) in zip(mesh.elements, m):
        children += [(v0, m01, m20), (m01, v1, m12), (m20, m12, v2), (m01, m12, m20)]
    assert np.array_equal(fine.elements, children)
    assert np.array_equal(fine.edge_elements, _incident_elements(fine))


def test_refine_halves_h():
    mesh = build_uniform(2)
    fine = refine(mesh)
    assert fine.h == pytest.approx(mesh.h / 2)


@settings(deadline=None, max_examples=10)
@given(n=st.integers(min_value=1, max_value=6))
def test_uniform_mesh_invariants(n):
    mesh = build_uniform(n)
    assert mesh.elem_area.sum() == pytest.approx(1.0, abs=1e-13)
    # every interior edge is shared by exactly two elements
    counts = np.zeros(mesh.num_edges, dtype=int)
    for t in range(mesh.num_elements):
        for e in mesh.elem_edges[t]:
            counts[e] += 1
    assert np.all(counts[mesh.interior_edges()] == 2)
    assert np.all(counts[mesh.boundary_edges()] == 1)
    assert np.all(mesh.elem_h <= mesh.h + 1e-15)
