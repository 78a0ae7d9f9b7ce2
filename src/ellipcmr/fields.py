"""Smooth complex-valued fields with analytic derivatives.

Operators consume SmoothField objects: a value callable with analytic
first/second coordinate partials and an optional analytic tau-derivative.
Finite differences appear only as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError

__all__ = ["SmoothField"]

Vec = np.ndarray


@dataclass
class SmoothField:
    """Complex field psi(x) of N coordinates.

    value      : x (ndarray) -> complex
    d1, d2     : analytic partials, called as d(x, i)
    dtau       : optional analytic tau-derivative at fixed x
    """

    value: Callable[[Vec], complex]
    d1: Callable[[Vec, int], complex]
    d2: Callable[[Vec, int], complex]
    dtau: Optional[Callable[[Vec], complex]] = None

    def __call__(self, x) -> complex:
        return self.value(np.asarray(x, dtype=complex))

    def first(self, x, i: int) -> complex:
        return self.d1(np.asarray(x, dtype=complex), i)

    def second(self, x, i: int) -> complex:
        return self.d2(np.asarray(x, dtype=complex), i)

    def tau_derivative(self, x) -> complex:
        if self.dtau is None:
            raise ConvergenceError("field has no analytic tau-derivative")
        return self.dtau(np.asarray(x, dtype=complex))


def plane_wave(k) -> SmoothField:
    """exp(i k . x) with analytic derivatives (test helper)."""
    k = np.asarray(k, dtype=complex)

    def val(x):
        return complex(np.exp(1j * np.dot(k, x)))

    return SmoothField(
        value=val,
        d1=lambda x, i: 1j * k[i] * val(x),
        d2=lambda x, i: -(k[i] ** 2) * val(x),
        dtau=lambda x: 0.0,
    )
