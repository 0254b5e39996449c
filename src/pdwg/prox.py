"""Proximity operators for the fixed-point iteration.

phi acts blockwise on jump-coefficient blocks, so its prox splits into
independent small problems, one per block of size k+1:

* k = 0: the integral of |c| is |c|, so the prox is plain
  soft-thresholding.
* k = 1: Moreau's identity gives prox_{(1/a)phi}(v) = v - P(v) with P
  the Euclidean projection onto (1/a)*Omega0, where Omega0 is the
  region between two parabolic arcs that equals the subdifferential of
  the block integral at 0. The projection keeps a point inside;
  otherwise it takes the nearest of the two corner points and the foot
  points on both arcs, the real roots of one cubic per arc. The cubics
  of all blocks go to one batched call of stabilizer._real_roots.
* k >= 2: no closed form is known. The production operator shrinks the
  j-th coefficient by 1/(a*j), the exact prox of the separable
  surrogate sum_j |q_j|/j that brackets the block integral.

The block integral itself is stabilizer.integral_abs_poly, the one
implementation of int_0^1 |poly|, built on the same root finder;
integral_abs_linear is its degree-1 case. The spaces always have
k >= 2, so prox_phi_weighted_l1 is the only operator the solver uses.
The closed-form k <= 1 proxes and a derivative-free numerical prox
(Nelder-Mead plus pattern-search polish on the true objective) are
reference functions for tests and `pdwg verify`, not solver options.
"""

from functools import lru_cache

import numpy as np

from ._checks import block_vector, integer, positive_finite, vector
from .stabilizer import _real_roots, integral_abs_poly

__all__ = [
    "integral_abs_linear",
    "soft_threshold",
    "project_omega0",
    "prox_phi_k1",
    "prox_phi_weighted_l1",
    "prox_phi_oracle",
    "prox_indicator",
]


def integral_abs_linear(a, b):
    """Exact integral of |a + b*s| over [0, 1]: the degree-1 case of
    integral_abs_poly, the block integral of phi for k = 1."""
    return integral_abs_poly((a, b))


def soft_threshold(q, tau):
    """Componentwise shrinkage: sign(q) * max(|q| - tau, 0)."""
    positive_finite("threshold", tau)
    q = np.asarray(q, dtype=float)
    return np.sign(q) * np.maximum(np.abs(q) - tau, 0.0)


def _upper_arc(x, c):
    # y on the upper parabola of c*Omega0
    return c / 4 + x / 2 - x * x / (4 * c)


def project_omega0(point, c):
    """Euclidean projection onto c*Omega0 of a point, or of each point
    along the last axis of an array.

    Omega0 = {(x,y): (1+x)^2/4 - 1/2 <= y <= 1/2 - (1-x)^2/4}, the
    region between two parabolic arcs meeting at (+-1, +-1/2). Interior
    points are returned unchanged; otherwise the nearest of the two
    corners and the arc foot points wins. A foot point on the upper arc
    is a real root x in [-c, c] of the cubic d/dx [(x-px)^2 +
    (U(x)-py)^2] = 0; the lower arc is the upper one reflected through
    the origin, so its foot points come from the reflected point. The
    cubics of every exterior point and its reflection go to one batched
    root finder (stabilizer._real_roots).
    """
    positive_finite("c", c)
    # a copy, as the projections are written into it
    pts = vector("point", point, np.shape(point)[:-1] + (2,)).copy()
    out = pts.reshape(-1, 2)
    px, py = out[:, 0], out[:, 1]
    outside = ~((np.abs(px) <= c) & (-_upper_arc(-px, c) <= py) & (py <= _upper_arc(px, c)))
    px, py = px[outside], py[outside]
    # upper-arc cubics of the points, then of their reflections
    sx, sy = np.concatenate([px, -px]), np.concatenate([py, -py])
    b0 = c / 4 - sy
    cubic = np.zeros((len(sx), 4))
    cubic[:, 0] = b0 / 2 - sx
    cubic[:, 1] = 1.25 - b0 / (2 * c)
    cubic[:, 2:] = -3.0 / (8 * c), 1.0 / (8 * c * c)
    x = _real_roots(cubic)[0]
    x[~((-c <= x) & (x <= c))] = np.nan
    xu, xl = np.split(x, 2)
    # candidates: the two corners, the upper and then the lower foot points
    one = np.ones_like(px)
    cx = np.column_stack([c * one, -c * one, xu, -xl])
    cy = np.column_stack([c / 2 * one, -c / 2 * one, _upper_arc(xu, c), -_upper_arc(xl, c)])
    best = np.nanargmin((cx - px[:, None]) ** 2 + (cy - py[:, None]) ** 2, axis=1)[:, None]
    out[outside] = np.hstack([np.take_along_axis(cx, best, 1), np.take_along_axis(cy, best, 1)])
    return pts


def prox_phi_k1(v, alpha):
    """Exact blockwise prox of (1/alpha)*phi for k = 1 (2-blocks), all
    blocks at once: v - P(v) with P the projection onto (1/alpha)*Omega0."""
    positive_finite("alpha", alpha)
    v, _ = block_vector(v, 1)
    return v - project_omega0(v.reshape(-1, 2), 1.0 / float(alpha)).reshape(v.shape)


def prox_phi_weighted_l1(v, alpha, k):
    """Blockwise prox of the separable surrogate sum_j |q_j| / j.

    Coefficient j of each (k+1)-block is shrunk by 1/(alpha*j); for
    k = 0 this is exactly soft_threshold(v, 1/alpha). The shrinkage is
    written as v - clip(v, -tau, tau), which gives the same values as
    sign(v) * max(|v| - tau, 0) with fewer passes over v. tau is tiled
    to the length of v, so each pass is one flat loop rather than one
    (k+1)-element loop per block.
    """
    positive_finite("alpha", alpha)
    v, bs = block_vector(v, k)
    lo, hi = _wl1_thresholds(alpha, bs, v.size)
    if v.ndim != 1:
        lo, hi = lo.reshape(v.shape), hi.reshape(v.shape)
    return v - np.minimum(np.maximum(v, lo), hi)


@lru_cache(maxsize=16)
def _wl1_thresholds(alpha, bs, size):
    # the fixed-point iteration calls the prox with the same (alpha, k)
    # and length tens of thousands of times; build the thresholds once
    hi = np.tile(1.0 / (alpha * np.arange(1, bs + 1)), size // bs)
    lo = -hi
    hi.flags.writeable = lo.flags.writeable = False
    return lo, hi


# all nonzero sign patterns, a positively spanning direction set robust
# to kinks that axis-only pattern search can stall on
def _directions(d):
    grids = np.meshgrid(*([np.array([-1.0, 0.0, 1.0])] * d), indexing="ij")
    dirs = np.stack([g.ravel() for g in grids], axis=1)
    dirs = dirs[np.any(dirs != 0, axis=1)]
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def _fd_grad(f, w, h=1e-5):
    # h trades truncation against rounding: rounding is eps*|f|/(2h),
    # truncation h^2*|f'''|/6. The third derivative vanishes for k=0
    # and only grows near root coalescence, where the polish stage is
    # rejected anyway, so the larger step buys precision where it counts
    g = np.empty_like(w)
    for j in range(len(w)):
        e = np.zeros_like(w)
        e[j] = h
        g[j] = (f(w + e) - f(w - e)) / (2 * h)
    return g


# pattern-search evaluations prox_phi_oracle may spend before it gives up
_ORACLE_CAP = 200000


def prox_phi_oracle(v, alpha, k):
    """Numerical prox of one block by direct minimization (test oracle).

    Minimizes 0.5*|w - v|^2 + (1/alpha)*int_0^1 |poly_w| with
    Nelder-Mead, then a pattern-search polish over all sign directions
    with geometrically shrinking steps, then gradient-norm descent with
    a central-difference gradient. Value-only search localizes minima
    at kinks to machine precision but only to ~sqrt(eps) where the
    objective is smooth and flat; the gradient stage covers the smooth
    case and is accepted only if it drives the sampled gradient under
    the finite-difference noise floor (minima at kinks fail that test
    and keep the pattern result). Raises RuntimeError if the pattern
    search spends _ORACLE_CAP evaluations before its step shrinks below
    1e-11.
    """
    # imported here, not at module level: nothing else in the package
    # needs scipy.optimize, and importing it would add about 0.14 s and
    # 13 MB to every `import pdwg` (2-core Xeon VM)
    from scipy.optimize import minimize

    positive_finite("alpha", alpha)
    bs = integer("k", k, low=0) + 1
    v = vector("v", v, (bs,))
    if bs > 4:
        raise ValueError("oracle supports block sizes up to 4")

    def f(w):
        return 0.5 * np.sum((w - v) ** 2) + integral_abs_poly(w) / alpha

    best = None
    for start in (np.zeros(bs), v.copy(), prox_phi_weighted_l1(v, alpha, k)):
        res = minimize(
            f, start, method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 5000},
        )
        if best is None or res.fun < best[1]:
            best = (res.x, res.fun)

    w, fw = best[0].copy(), best[1]
    dirs = _directions(bs)
    step = 1e-2
    evals = 0
    while step > 1e-11:
        improved = False
        for d in dirs:
            evals += 1
            if evals > _ORACLE_CAP:
                raise RuntimeError("prox oracle failed to converge")
            trial = w + step * d
            ft = f(trial)
            if ft < fw - 1e-17:
                w, fw = trial, ft
                improved = True
        if not improved:
            step *= 0.5

    # the overall Hessian is >= identity, so -0.7*grad steps contract
    # on smooth pieces; near kinks the sampled gradient stays O(1) and
    # the stage is rejected
    wg = w.copy()
    g = np.linalg.norm(_fd_grad(f, wg))
    for _ in range(80):
        if g < 5e-9:
            break
        cand = wg - 0.7 * _fd_grad(f, wg)
        gc = np.linalg.norm(_fd_grad(f, cand))
        if gc >= g:
            break
        wg, g = cand, gc
    if g < 5e-9:
        w = wg
    return w


def prox_indicator(x, fvec):
    """Prox of the indicator of {f}: the constant map onto fvec."""
    fvec = np.array(fvec, dtype=float)
    vector("x", x, fvec.shape)
    return fvec
