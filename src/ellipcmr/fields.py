"""Smooth complex-valued fields with analytic derivatives.

A field is a plain function, its jet: psi(x) takes the N coordinates of a
point on the last axis of a complex array and returns the value, the N first
and N second partials and, where the field has one, the tau-derivative, all
from one evaluation.  A jet may carry leading batch axes (several fields at
one point), with the coordinates on the last axis of d1 and d2.  Operators
read one jet per point.  Finite differences appear only as test oracles.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

__all__ = ["Jet", "plane_wave"]

Vec = np.ndarray


class Jet(NamedTuple):
    """A field at one point: value, partials d/dx_i and d^2/dx_i^2 (coordinates
    on the last axis; leading axes batch fields) and the tau-derivative at fixed x
    (None where the field has none)."""

    value: complex
    d1: Vec
    d2: Vec
    dtau: Optional[complex] = None


Field = Callable[[Vec], Jet]     # the annotation for a field: x -> Jet


def plane_wave(k) -> Field:
    """exp(i k . x), tau-independent: a free eCS eigenfunction (E = k.k/2 at g = 0, 1)."""
    k = np.asarray(k, dtype=complex)

    def jet(x):
        v = complex(np.exp(1j * np.dot(k, x)))
        return Jet(v, 1j * k * v, -(k ** 2) * v, 0.0)

    return jet
