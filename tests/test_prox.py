import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdwg.prox import (
    _wl1_thresholds,
    integral_abs_linear,
    project_omega0,
    prox_indicator,
    prox_phi_k1,
    prox_phi_oracle,
    prox_phi_weighted_l1,
    soft_threshold,
)

# projection of (0, 5) onto Omega0, frozen from a dense x-sweep of the
# upper arc at 1e-6 resolution plus golden-section refinement; that
# oracle localizes the minimizer only to ~sqrt(eps) because the squared
# distance is quadratically flat there, hence the 5e-7 comparisons
GOLDEN_05 = np.array([0.6934160849389, 0.4765015757564])
GOLDEN_TOL = 5e-7


def upper(x, c=1.0):
    return c / 4 + x / 2 - x * x / (4 * c)


def lower(x, c=1.0):
    return -upper(-x, c)


def gauss64_abs_linear(a, b):
    """64-point Gauss of |a+bs|, split at the kink when inside (0,1)."""
    x, w = np.polynomial.legendre.leggauss(64)
    t, wt = 0.5 * (x + 1), 0.5 * w
    cuts = [0.0, 1.0]
    if b != 0 and 0 < -a / b < 1:
        cuts = [0.0, -a / b, 1.0]
    return sum(
        (hi - lo) * np.sum(wt * np.abs(a + b * (lo + (hi - lo) * t)))
        for lo, hi in zip(cuts[:-1], cuts[1:])
    )


def sample_omega0(rng, c, n):
    """Random points of c*Omega0 by rejection between the arcs."""
    # the region fills 1/6 of its bounding box, so oversample generously
    xs = rng.uniform(-c, c, size=30 * n)
    ys = rng.uniform(-c, c, size=30 * n)
    keep = (ys >= lower(xs, c)) & (ys <= upper(xs, c))
    pts = np.column_stack([xs[keep], ys[keep]])[:n]
    assert len(pts) == n
    return pts


def test_integral_abs_linear_reference_values():
    assert integral_abs_linear(1, 1) == pytest.approx(1.5, abs=0)
    assert integral_abs_linear(-1, 2) == pytest.approx(0.5, abs=0)
    assert integral_abs_linear(-2, 1) == pytest.approx(1.5, abs=0)
    assert integral_abs_linear(0, 0) == 0.0
    # sign-symmetric: |a+bs| = |-a-bs|
    assert integral_abs_linear(0.3, -0.7) == pytest.approx(
        integral_abs_linear(-0.3, 0.7), abs=1e-15
    )


def test_integral_abs_linear_against_quadrature():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        a, b = rng.standard_normal(2) * 3
        assert integral_abs_linear(a, b) == pytest.approx(
            gauss64_abs_linear(a, b), abs=1e-10
        )


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(-1e3, 1e3, allow_nan=False),
    b=st.floats(-1e3, 1e3, allow_nan=False),
)
def test_integral_abs_linear_bounds(a, b):
    val = integral_abs_linear(a, b)
    assert val >= 0
    # |a+bs| is between max(0, |a|-|b|) and |a|+|b|
    assert val <= abs(a) + abs(b) + 1e-9
    assert val >= max(abs(a) - abs(b), 0.0) - 1e-9


def test_soft_threshold():
    assert soft_threshold(1.0, 0.5) == pytest.approx(0.5)
    assert soft_threshold(-0.2, 0.5) == 0.0
    assert soft_threshold(0.0, 0.5) == 0.0
    q = np.array([2.0, -3.0, 0.1])
    assert soft_threshold(q, 1.0) == pytest.approx([1.0, -2.0, 0.0])
    with pytest.raises(ValueError):
        soft_threshold(q, 0.0)


def test_project_omega0_inside_points():
    assert project_omega0((0.0, 0.0), 1.0) == pytest.approx([0.0, 0.0])
    # boundary point stays put
    assert project_omega0((1.0, 0.5), 1.0) == pytest.approx([1.0, 0.5])
    rng = np.random.default_rng(1)
    for p in sample_omega0(rng, 0.7, 20):
        assert project_omega0(p, 0.7) == pytest.approx(p)


def test_project_omega0_reference_points():
    assert project_omega0((1.0, 1.0), 1.0) == pytest.approx([1.0, 0.5], abs=1e-12)
    got = project_omega0((0.0, 5.0), 1.0)
    assert got == pytest.approx(GOLDEN_05, abs=GOLDEN_TOL)
    # the foot point is a true stationary point of the squared distance
    # along the arc, and lies on the arc itself
    assert got[1] == pytest.approx(upper(got[0]), abs=1e-13)
    d_dist = (got[0] - 0.0) + (got[1] - 5.0) * (1 - got[0]) / 2
    assert abs(d_dist) < 1e-12
    # point symmetry of the set carries over to the projection
    assert project_omega0((0.0, -5.0), 1.0) == pytest.approx(
        -GOLDEN_05, abs=GOLDEN_TOL
    )


def test_project_omega0_foot_point_at_zero():
    # the upper-arc cubic of (-0.875, 2) has the constant term
    # b0/2 - px = 0 exactly, and x = 0 is its only real root: a root
    # finder that divides out t must still report t = 0
    assert list(project_omega0((-0.875, 2.0), 1.0)) == [0.0, 0.25]


def test_project_omega0_projects_each_row():
    rng = np.random.default_rng(12)
    pts = 2.0 * rng.standard_normal((60, 2))
    pts[:10] *= 0.1  # some inside
    got = project_omega0(pts, 0.7)
    assert got.shape == pts.shape
    assert np.array_equal(got, [project_omega0(p, 0.7) for p in pts])
    assert project_omega0(pts.reshape(3, 20, 2), 0.7).shape == (3, 20, 2)


def test_project_omega0_membership_and_kkt():
    rng = np.random.default_rng(2)
    zs = sample_omega0(rng, 1.0, 50)
    for _ in range(200):
        p = rng.standard_normal(2) * 3
        q = project_omega0(p, 1.0)
        # membership within tolerance
        assert abs(q[0]) <= 1 + 1e-10
        assert lower(q[0]) - 1e-10 <= q[1] <= upper(q[0]) + 1e-10
        # normal-cone inequality against sampled members
        r = p - q
        assert np.max(zs @ r - q @ r) <= 1e-10


def test_project_omega0_scaling():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = rng.standard_normal(2) * 2
        c = rng.uniform(0.2, 3.0)
        big = project_omega0(c * p, c)
        small = project_omega0(p, 1.0)
        assert big == pytest.approx(c * small, abs=1e-9)
    with pytest.raises(ValueError):
        project_omega0((0.0, 0.0), 0.0)


def test_prox_phi_k1_reference_blocks():
    assert prox_phi_k1(np.zeros(2), 1.0) == pytest.approx([0.0, 0.0])
    assert prox_phi_k1(np.array([1.0, 1.0]), 1.0) == pytest.approx([0.0, 0.5])
    got = prox_phi_k1(np.array([0.0, 5.0]), 1.0)
    assert got == pytest.approx(np.array([0.0, 5.0]) - GOLDEN_05, abs=GOLDEN_TOL)


def test_prox_phi_k1_moreau_identity():
    rng = np.random.default_rng(4)
    for alpha in (0.5, 1.0, 2.0):
        v = rng.standard_normal(20)
        pv = prox_phi_k1(v, alpha)
        proj = np.concatenate(
            [project_omega0(b, 1.0 / alpha) for b in v.reshape(-1, 2)]
        )
        assert np.abs(pv + proj - v).max() < 1e-14


def test_prox_phi_weighted_l1():
    v = np.array([2.0, 0.0, 0.0])
    assert prox_phi_weighted_l1(v, 1.0, 2) == pytest.approx([1.0, 0.0, 0.0])
    v = np.array([0.0, 0.0, 0.1])
    assert prox_phi_weighted_l1(v, 1.0, 2) == pytest.approx([0.0, 0.0, 0.0])
    # k = 0 reduces to plain soft thresholding
    rng = np.random.default_rng(7)
    q = rng.standard_normal(12)
    assert prox_phi_weighted_l1(q, 2.0, 0) == pytest.approx(
        soft_threshold(q, 0.5), abs=0
    )
    # stacked blocks shrink columnwise
    q = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    got = prox_phi_weighted_l1(q, 1.0, 2)
    assert got == pytest.approx([0.0, 0.5, 2 / 3, 0.0, -0.5, -2 / 3])
    with pytest.raises(ValueError):
        prox_phi_weighted_l1(np.ones(4), 1.0, 2)


@pytest.mark.parametrize("alpha", [0.5, 16.0])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_prox_phi_weighted_l1_flat_thresholds(k, alpha):
    # the thresholds are tiled to the vector's length; the values must be
    # those of the per-block broadcast, bit for bit
    bs = k + 1
    tau = 1.0 / (alpha * np.arange(1, bs + 1))
    rng = np.random.default_rng(13 + k)
    # 486 is the jump-vector length at n=3, k=2; 484 for block size 4
    for length in (bs, 3 * bs, 486 - 486 % bs):
        v = rng.standard_normal(length) * 2.0 / alpha
        v[: min(bs, length)] = tau[: min(bs, length)]  # exactly on a threshold
        blocks = v.reshape(-1, bs)
        want = (blocks - np.minimum(np.maximum(blocks, -tau), tau)).reshape(-1)
        got = prox_phi_weighted_l1(v, alpha, k)
        assert got.shape == v.shape
        assert got.tobytes() == want.tobytes()
        # a 2-D input keeps its shape and is blocked in C order
        for v2 in (v.reshape(-1, bs), v.reshape(1, -1)):
            got2 = prox_phi_weighted_l1(v2, alpha, k)
            assert got2.shape == v2.shape
            assert got2.tobytes() == want.tobytes()
    if bs > 1:  # every length is a multiple of 1
        with pytest.raises(ValueError, match="not a multiple of block size"):
            prox_phi_weighted_l1(np.ones(2 * bs + 1), alpha, k)


def test_wl1_thresholds_are_cached_read_only():
    lo, hi = _wl1_thresholds(16.0, 3, 486)
    assert _wl1_thresholds(16.0, 3, 486) == (lo, hi)
    assert lo.shape == hi.shape == (486,)
    assert np.array_equal(lo, -hi)
    for arr in (lo, hi):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0, True])
@pytest.mark.parametrize(
    "prox",
    [
        lambda a: soft_threshold(np.ones(3), a),
        lambda a: prox_phi_k1(np.ones(2), a),
        lambda a: prox_phi_weighted_l1(np.ones(3), a, 2),
        lambda a: prox_phi_oracle(np.ones(2), a, 1),
    ],
    ids=["soft_threshold", "prox_phi_k1", "prox_phi_weighted_l1", "prox_phi_oracle"],
)
def test_prox_rejects_non_finite_or_non_positive_parameter(prox, value):
    with pytest.raises(ValueError, match="must be positive and finite"):
        prox(value)


def test_prox_oracle_zero_block():
    assert prox_phi_oracle(np.zeros(2), 1.0, 1) == pytest.approx([0.0, 0.0], abs=1e-9)
    with pytest.raises(ValueError):
        prox_phi_oracle(np.zeros(5), 1.0, 4)


def test_prox_indicator():
    fvec = np.array([1.0, 2.0, 3.0])
    assert prox_indicator(np.zeros(3), fvec) == pytest.approx(fvec)
    assert prox_indicator(fvec, fvec) == pytest.approx(fvec)
    assert prox_indicator(np.random.default_rng(8).random(3), fvec) == pytest.approx(
        fvec
    )
    with pytest.raises(ValueError):
        prox_indicator(np.zeros(4), fvec)


def firmly_nonexpansive(P, dim, rng, n=100, tol=1e-12):
    for _ in range(n):
        x = rng.standard_normal(dim) * 3
        y = rng.standard_normal(dim) * 3
        px, py = P(x), P(y)
        lhs = np.sum((px - py) ** 2)
        rhs = np.dot(x - y, px - py)
        if lhs > rhs + tol:
            return False
    return True


def test_firm_nonexpansiveness_all_proxes():
    rng = np.random.default_rng(9)
    assert firmly_nonexpansive(lambda q: soft_threshold(q, 0.7), 6, rng)
    assert firmly_nonexpansive(lambda q: prox_phi_k1(q, 1.3), 6, rng)
    assert firmly_nonexpansive(lambda q: prox_phi_weighted_l1(q, 0.8, 2), 6, rng)
    assert firmly_nonexpansive(lambda q: project_omega0(q, 1.0), 2, rng)
    f = np.array([1.0, -2.0, 0.5])
    assert firmly_nonexpansive(lambda q: prox_indicator(q, f), 3, rng)
    assert firmly_nonexpansive(lambda q: prox_phi_weighted_l1(q, 1.0, 2), 6, rng)
    # the numerical oracle meets the inequality only to its own accuracy
    assert firmly_nonexpansive(
        lambda q: prox_phi_oracle(q, 1.0, 1), 2, rng, n=8, tol=1e-6
    )
