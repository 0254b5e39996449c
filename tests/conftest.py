"""Shared test data."""

import numpy as np

from pdwg.solver import (
    SaddleState,
    assemble_S,
    fixed_point_step,
    make_bn,
    make_prox,
    polish_face,
    residual_2_90,
)
from pdwg.weak_assembly import CoefficientField


def poly_field():
    """Constant a = [[1, 1], [1, 6]] and exact u = x^2 + y^2, so
    f = a11*2 + a22*2 = 14; u lies in the k = 2 spaces."""

    def a(p):
        out = np.zeros(p.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0
        out[..., 0, 1] = 1.0
        out[..., 1, 0] = 1.0
        out[..., 1, 1] = 6.0
        return out

    return CoefficientField(
        a=a,
        f=lambda p: np.full(p.shape[:-1], 14.0),
        u=lambda p: p[..., 0] ** 2 + p[..., 1] ** 2,
        grad_u=lambda p: 2.0 * p,
    )


def plain_iterates(system, bmat, cfg, g=None):
    """The plain p=1 iterates from the zero state, with their (r2, r3),
    through the public step functions; endless, the caller stops. g is
    the optional boundary vb data, as in solve_p1."""
    A, B = system.A, bmat.B
    c, f = _lifting(system, bmat, g)
    k = bmat.block_size - 1
    smat = assemble_S(A, B, cfg.alpha)
    prox = make_prox(cfg.prox_method, k, cfg.alpha)
    state = SaddleState(
        y=np.zeros(B.shape[0]), u=np.zeros(B.shape[1]), x=np.zeros(A.shape[0])
    )
    while True:
        yield state, residual_2_90(state, A, B, f, cfg.alpha, prox, c=c)[1:]
        state = fixed_point_step(
            state, smat, make_bn(state, B, f, cfg.alpha, prox, c=c)
        )


def replay_p1(system, bmat, cfg, diag, visit=None, g=None):
    """Replay a solve_p1 run: plain steps up to its last step
    diag.iterations, each plain iterate passed to visit, then polish_face
    if it polished there. Returns the final state and the (r2, r3) rows,
    to compare bit for bit with the solver's state and
    diag.residual_history."""
    rows = []
    for state, row in plain_iterates(system, bmat, cfg, g):
        if visit is not None:
            visit(state)
        rows.append(row)
        if state.iteration == diag.iterations:
            break
    if diag.polished_at is not None:
        c, f = _lifting(system, bmat, g)
        prox = make_prox(cfg.prox_method, bmat.block_size - 1, cfg.alpha)
        state, (_, r2, r3) = polish_face(
            state, system.A, bmat.B, f, cfg.alpha, prox, c=c
        )
        rows[-1] = (r2, r3)
    return state, np.array(rows)


def _lifting(system, bmat, g):
    """Jump offset c and constraint right side of boundary data g."""
    if g is None:
        return None, system.fvec
    return bmat.Bb @ g, system.fvec - system.Cb @ g
