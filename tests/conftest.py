"""Shared test data."""

import numpy as np

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
