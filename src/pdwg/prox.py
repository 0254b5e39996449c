"""Proximity operators for the fixed-point iteration.

phi acts blockwise on jump-coefficient blocks, so its prox splits into
independent small problems, one per block of size k+1:

* k = 0: the integral of |c| is |c|, so the prox is plain
  soft-thresholding.
* k = 1: Moreau's identity gives prox_{(1/a)phi}(v) = v - P(v) with P
  the Euclidean projection onto (1/a)*Omega0, where Omega0 is the
  region between two parabolic arcs that equals the subdifferential of
  the block integral at 0. The projection is computed by exhaustive
  candidate enumeration: the point itself if inside, otherwise the
  foot points on both arcs (real roots of a cubic) and the two corner
  points.
* k >= 2: no closed form is known. The production operator shrinks the
  j-th coefficient by 1/(a*j), the exact prox of the separable
  surrogate sum_j |q_j|/j that brackets the block integral.

The spaces always have k >= 2, so prox_phi_weighted_l1 is the only
operator the solver uses. The closed-form k <= 1 proxes and a
derivative-free numerical prox (Nelder-Mead plus pattern-search polish
on the true objective) are reference functions for tests and
`pdwg verify`, not solver options.
"""

from functools import lru_cache

import numpy as np
from scipy.optimize import minimize

from .stabilizer import integral_abs_poly

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
    """Exact integral of |a + b*s| over [0, 1], by sign cases.

    Same-sign a, b give |a| + |b|/2; otherwise the line crosses zero
    and the crossing point may or may not fall inside (0, 1).
    """
    if a * b >= 0:
        return abs(a) + abs(b) / 2
    if b > 0:
        if a + b <= 0:
            return -a - b / 2
        return a + b / 2 + a * a / b
    if a + b >= 0:
        return a + b / 2
    return -a - b / 2 - a * a / b


def soft_threshold(q, tau):
    """Componentwise shrinkage: sign(q) * max(|q| - tau, 0)."""
    if tau <= 0:
        raise ValueError(f"threshold must be positive, got {tau}")
    q = np.asarray(q, dtype=float)
    return np.sign(q) * np.maximum(np.abs(q) - tau, 0.0)


def _upper_arc(x, c):
    # y on the upper parabola of c*Omega0
    return c / 4 + x / 2 - x * x / (4 * c)


def _upper_foot_candidates(px, py, c):
    """Real stationary x of the squared distance to the upper arc."""
    # d/dx [ (x-px)^2 + (U(x)-py)^2 ] = 0 expands to this cubic
    b0 = c / 4 - py
    poly = [
        1.0 / (8 * c * c),
        -3.0 / (8 * c),
        1.25 - b0 / (2 * c),
        b0 / 2 - px,
    ]
    out = []
    dpoly = np.polyder(poly)
    for r in np.roots(poly):
        if abs(r.imag) > 1e-8 * max(1.0, abs(r.real)):
            continue
        x = r.real
        for _ in range(2):
            d = np.polyval(dpoly, x)
            if d == 0.0:
                break
            x -= np.polyval(poly, x) / d
        if -c <= x <= c:
            out.append(x)
    return out


def project_omega0(point, c):
    """Euclidean projection onto c*Omega0.

    Omega0 = {(x,y): (1+x)^2/4 - 1/2 <= y <= 1/2 - (1-x)^2/4}, the
    region between two parabolic arcs meeting at (+-1, +-1/2). Interior
    points are returned unchanged; otherwise the nearest of all arc
    foot points and the two corners wins. The lower arc is the upper
    one reflected through the origin, so its candidates come from
    projecting the reflected point.
    """
    if c <= 0:
        raise ValueError(f"scale must be positive, got {c}")
    px, py = float(point[0]), float(point[1])
    if abs(px) <= c and -_upper_arc(-px, c) <= py <= _upper_arc(px, c):
        return np.array([px, py])

    cands = [(c, c / 2), (-c, -c / 2)]
    for x in _upper_foot_candidates(px, py, c):
        cands.append((x, _upper_arc(x, c)))
    for x in _upper_foot_candidates(-px, -py, c):
        cands.append((-x, -_upper_arc(x, c)))
    cands = np.array(cands)
    d2 = (cands[:, 0] - px) ** 2 + (cands[:, 1] - py) ** 2
    return cands[np.argmin(d2)]


def prox_phi_k1(v, alpha):
    """Exact blockwise prox of (1/alpha)*phi for k = 1 (2-blocks)."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    v = np.asarray(v, dtype=float)
    if v.size % 2:
        raise ValueError("k=1 prox expects an even-length stacked vector")
    blocks = v.reshape(-1, 2)
    out = np.empty_like(blocks)
    c = 1.0 / alpha
    for i, b in enumerate(blocks):
        out[i] = b - project_omega0(b, c)
    return out.reshape(v.shape)


def prox_phi_weighted_l1(v, alpha, k):
    """Blockwise prox of the separable surrogate sum_j |q_j| / j.

    Coefficient j of each (k+1)-block is shrunk by 1/(alpha*j); for
    k = 0 this is exactly soft_threshold(v, 1/alpha). The shrinkage is
    written as v - clip(v, -tau, tau), which gives the same values as
    sign(v) * max(|v| - tau, 0) with fewer passes over v.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    v = np.asarray(v, dtype=float)
    bs = k + 1
    if v.size % bs:
        raise ValueError(f"length {v.size} is not a multiple of block size {bs}")
    lo, hi = _wl1_thresholds(alpha, bs)
    blocks = v.reshape(-1, bs)
    out = blocks - np.minimum(np.maximum(blocks, lo), hi)
    return out.reshape(v.shape)


@lru_cache(maxsize=16)
def _wl1_thresholds(alpha, bs):
    # the fixed-point iteration calls the prox with the same (alpha, k)
    # tens of thousands of times; build the thresholds once
    hi = 1.0 / (alpha * np.arange(1, bs + 1))
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


def prox_phi_oracle(v, alpha, k, cap=200000):
    """Numerical prox of one block by direct minimization (test oracle).

    Minimizes 0.5*|w - v|^2 + (1/alpha)*int_0^1 |poly_w| with
    Nelder-Mead, then a pattern-search polish over all sign directions
    with geometrically shrinking steps, then gradient-norm descent with
    a central-difference gradient. Value-only search localizes minima
    at kinks to machine precision but only to ~sqrt(eps) where the
    objective is smooth and flat; the gradient stage covers the smooth
    case and is accepted only if it drives the sampled gradient under
    the finite-difference noise floor (minima at kinks fail that test
    and keep the pattern result). Raises RuntimeError if the evaluation
    cap is hit before the pattern step shrinks below 1e-11.
    """
    v = np.asarray(v, dtype=float)
    bs = k + 1
    if v.shape != (bs,):
        raise ValueError(f"expected one block of size {bs}")
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
            if evals > cap:
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
    x = np.asarray(x)
    fvec = np.asarray(fvec, dtype=float)
    if x.shape != fvec.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {fvec.shape}")
    return fvec.copy()
