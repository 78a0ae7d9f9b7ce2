"""Smooth complex-valued fields with analytic derivatives.

A field is a plain function, its jet: psi(x) takes complex points x (a point's
N coordinates on the last axis, leading axes indexing points) and returns the
value, the N first and N second partials and, where the field has one, the
tau-derivative, all from one evaluation.  Jet arrays have shape (field axes,
point axes[, N]): a field has no field axes, and a jet of several fields
(transform.eigen_residuals_P_lambda) stacks them in front.  Finite differences
appear only as test oracles.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DomainError

__all__ = ["Jet", "plane_wave"]

Vec = np.ndarray


class Jet(NamedTuple):
    """Fields at points: value, partials d/dx_i and d^2/dx_i^2 and the tau-derivative
    at fixed x (None where the field has none), shaped (field axes, point axes[, N])
    with the coordinates last; one field at one point gives a complex value."""

    value: complex
    d1: Vec
    d2: Vec
    dtau: Optional[complex] = None


Field = Callable[[Vec], Jet]     # the annotation for a field: x -> Jet


def _check_coordinates(x, n: int):
    """DomainError unless the points x hold the n coordinates of a field on their last axis."""
    if np.shape(x)[-1:] != (n,):
        raise DomainError(f"a field of {n} coordinates got points of shape {np.shape(x)}")


def plane_wave(k) -> Field:
    """exp(i k . x), tau-independent: a free eCS eigenfunction (E = k.k/2 at g = 0, 1)."""
    k = np.asarray(k, dtype=complex)

    def jet(x):
        _check_coordinates(x, k.size)
        v = np.exp(1j * np.dot(x, k))
        return Jet(v, 1j * k * v[..., None], -(k ** 2) * v[..., None], 0.0)

    return jet
