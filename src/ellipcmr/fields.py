"""Smooth complex-valued fields with analytic derivatives.

A field is one callable, its jet: at a point x of N coordinates it returns the
value, the N first and N second partials and, where the field has one, the
tau-derivative, all from one evaluation.  Operators read one jet per point.
Finite differences appear only as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConvergenceError

__all__ = ["Jet", "SmoothField", "plane_wave"]

Vec = np.ndarray


class Jet(NamedTuple):
    """A field at one point: value, partials d/dx_i and d^2/dx_i^2 (length-N
    arrays) and the tau-derivative at fixed x (None where the field has none)."""

    value: complex
    d1: Vec
    d2: Vec
    dtau: Optional[complex] = None


@dataclass(frozen=True)
class SmoothField:
    """Complex field psi(x) of N coordinates; jet(x) takes x as a complex array."""

    jet: Callable[[Vec], Jet]

    def __call__(self, x) -> complex:
        return self.jet(np.asarray(x, dtype=complex)).value

    def tau_jet(self, x) -> Jet:
        """jet(x) for an operator that needs d/dtau; ConvergenceError where dtau is None."""
        j = self.jet(np.asarray(x, dtype=complex))
        if j.dtau is None:
            raise ConvergenceError("field has no analytic tau-derivative")
        return j


def plane_wave(k) -> SmoothField:
    """exp(i k . x), tau-independent: a free eCS eigenfunction (E = k.k/2 at g = 0, 1)."""
    k = np.asarray(k, dtype=complex)

    def jet(x):
        v = complex(np.exp(1j * np.dot(k, x)))
        return Jet(v, 1j * k * v, -(k ** 2) * v, 0.0)

    return SmoothField(jet)
