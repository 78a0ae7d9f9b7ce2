"""Smooth complex-valued fields with analytic or finite-difference derivatives.

Operators consume SmoothField objects: a value callable plus optional analytic
first/second coordinate partials and an optional analytic tau-derivative.
When a partial is missing, a 4th-order central difference is substituted and
its Richardson consistency is checked (two step sizes must agree).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError

__all__ = ["SmoothField", "fd_second", "fd_first"]

Vec = np.ndarray


def _shift(x: Vec, i: int, h: complex) -> Vec:
    y = np.array(x, dtype=complex)
    y[i] += h
    return y


def fd_first(f: Callable[[Vec], complex], x: Vec, i: int, h: float) -> complex:
    """4th-order central first difference in coordinate i."""
    return (-f(_shift(x, i, 2 * h)) + 8 * f(_shift(x, i, h))
            - 8 * f(_shift(x, i, -h)) + f(_shift(x, i, 2 * -h))) / (12 * h)


def fd_second(f: Callable[[Vec], complex], x: Vec, i: int, h: float) -> complex:
    """4th-order central second difference in coordinate i."""
    return (-f(_shift(x, i, 2 * h)) + 16 * f(_shift(x, i, h)) - 30 * f(x)
            + 16 * f(_shift(x, i, -h)) - f(_shift(x, i, 2 * -h))) / (12 * h * h)


@dataclass
class SmoothField:
    """Complex field psi(x) of N coordinates.

    value      : x (ndarray) -> complex
    d1, d2     : optional analytic partials, called as d(x, i)
    dtau       : optional analytic tau-derivative at fixed x
    fd_step    : step for the finite-difference fallback; the fallback checks
                 that halving the step moves the result by at most
                 10 fd_consistency (Richardson consistency)
    """

    value: Callable[[Vec], complex]
    d1: Optional[Callable[[Vec, int], complex]] = None
    d2: Optional[Callable[[Vec, int], complex]] = None
    dtau: Optional[Callable[[Vec], complex]] = None
    fd_step: float = 1e-2
    fd_consistency: float = 1e-6

    def __call__(self, x) -> complex:
        return self.value(np.asarray(x, dtype=complex))

    def first(self, x, i: int) -> complex:
        x = np.asarray(x, dtype=complex)
        if self.d1 is not None:
            return self.d1(x, i)
        return self._fd(fd_first, x, i)

    def second(self, x, i: int) -> complex:
        x = np.asarray(x, dtype=complex)
        if self.d2 is not None:
            return self.d2(x, i)
        return self._fd(fd_second, x, i)

    def _fd(self, stencil, x, i: int) -> complex:
        a = stencil(self.value, x, i, self.fd_step)
        b = stencil(self.value, x, i, self.fd_step / 2)
        if abs(a - b) > 10 * self.fd_consistency * max(1.0, abs(b)):
            raise ConvergenceError(
                f"finite-difference inconsistency at coordinate {i}: |delta| = {abs(a - b):.3e}")
        return b

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
