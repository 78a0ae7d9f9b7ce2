"""Kernel functions K_{N,M} and their generalized kernel identity residual.

K_{N,M}(x, y; g) = prod_{i<j} vt1(x_i-x_j)^g prod_{i<j} vt1(y_i-y_j)^g
                   / prod_{i,j} vt1(x_i-y_j)^g

obeys ((i pi g (N-M)/2 ell^2) d_tau + H_N(x) - H_M(y) - C_{N,M}) K = 0 with a
constant C_{N,M} proportional to N-M.  The residual below is assembled from
log-derivatives only (zeta1, wp1 and the tau log-derivative), so it is
branch-free for any real g even where K itself would need a branch choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import DEFAULT_POLICY, EllipticDomain, TruncationPolicy
from .errors import DomainError
from .gamma import ground_state_psi0
from .theta import theta1_logderiv, theta1_power, theta1_tau_logderiv, wp1

__all__ = ["KernelSpec", "kernel_K", "kernel_identity_residual"]


@dataclass(frozen=True)
class KernelSpec:
    """Pair sizes (N, M) and coupling g; kappa = (N - M) g is derived."""

    N: int
    M: int
    g: float

    def __post_init__(self):
        if self.N < 0 or self.M < 0 or self.N + self.M == 0:
            raise DomainError("need N, M >= 0 with N + M > 0")

    @property
    def kappa(self) -> float:
        return (self.N - self.M) * self.g


def kernel_K(spec: KernelSpec, x, y, dom: EllipticDomain,
             pol: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Evaluate the theta-quotient kernel; fractional g needs the branch domain."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if len(x) != spec.N or len(y) != spec.M:
        raise DomainError("coordinate counts must match the KernelSpec")
    g = spec.g
    out = ground_state_psi0(x, g, dom, pol) * ground_state_psi0(y, g, dom, pol)
    for i in range(spec.N):
        for j in range(spec.M):
            out /= theta1_power(x[i] - y[j], g, dom, pol)
    return complex(out)


def kernel_identity_residual(spec: KernelSpec, x, y, dom: EllipticDomain,
                             pol: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """R = ((i pi kappa/2 ell^2) d_tau + H_N(x) - H_M(y)) K / K, kappa = (N-M)g.

    R equals the identity constant C_{N,M} (zero for N = M) whenever the kernel
    identity holds; constancy over configurations is the testable content.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if len(x) != spec.N or len(y) != spec.M:
        raise DomainError("coordinate counts must match the KernelSpec")
    g = spec.g

    def zeta(u):
        return theta1_logderiv(u, dom, pol)

    def wp(u):
        return wp1(u, dom, pol)

    def h_part(u, v):
        """H(u) K / K for the family u against the opposite family v."""
        total = 0.0 + 0.0j
        for i in range(len(u)):
            li = g * (sum(zeta(u[i] - u[j]) for j in range(len(u)) if j != i)
                      - sum(zeta(u[i] - v[j]) for j in range(len(v))))
            lii = g * (-sum(wp(u[i] - u[j]) for j in range(len(u)) if j != i)
                       + sum(wp(u[i] - v[j]) for j in range(len(v))))
            total += -0.5 * (li * li + lii)
        pot = sum(wp(u[i] - u[j]) for i in range(len(u)) for j in range(i + 1, len(u)))
        return total + g * (g - 1.0) * pot

    def tlog(u):
        return theta1_tau_logderiv(u, dom, pol)

    # d_tau ln K = g * (signed sum of per-pair tau log-derivatives)
    dtau_log = g * (sum(tlog(x[i] - x[j]) for i in range(spec.N) for j in range(i + 1, spec.N))
                    + sum(tlog(y[i] - y[j]) for i in range(spec.M) for j in range(i + 1, spec.M))
                    - sum(tlog(x[i] - y[j]) for i in range(spec.N) for j in range(spec.M)))
    tau_term = (1j * math.pi * spec.kappa / (2.0 * dom.ell ** 2)) * dtau_log
    return tau_term + h_part(x, y) - h_part(y, x)
