"""Shared test data."""

import numpy as np

from pdwg.solver import SaddleState, fixed_point_step, make_bn, polish_face, residual_2_90
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


def zero_state(smat):
    """The zero (y, u, x) of the p=1 problem smat, where solve_p1 starts."""
    (nB, N), M = smat.B.shape, smat.A.shape[0]
    return SaddleState(y=np.zeros(nB), u=np.zeros(N), x=np.zeros(M))


def plain_iterates(smat):
    """The plain p=1 iterates of the problem smat (assemble_S) from the
    zero state, with their (r2, r3), through the public step functions;
    endless, the caller stops."""
    state = zero_state(smat)
    while True:
        yield state, residual_2_90(state, smat)[1:]
        state = fixed_point_step(state, smat, make_bn(state, smat))


def replay_p1(smat, diag, visit=None):
    """Replay a solve_p1 run of the problem smat (assemble_S of the same
    system, jump matrices, config and boundary data): plain steps up to
    its last step diag.iterations, each plain iterate passed to visit,
    then polish_face if it polished there. Returns the final state and
    the (r2, r3) rows, to compare bit for bit with the solver's state and
    diag.residual_history."""
    rows = []
    for state, row in plain_iterates(smat):
        if visit is not None:
            visit(state)
        rows.append(row)
        if state.iteration == diag.iterations:
            break
    if diag.polished_at is not None:
        state, (_, r2, r3) = polish_face(state, smat)
        rows[-1] = (r2, r3)
    return state, np.array(rows)
