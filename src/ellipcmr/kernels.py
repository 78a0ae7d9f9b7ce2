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

from .domain import EllipticDomain
from .errors import DomainError
from .gamma import ground_state_psi0
from .theta import (_scalar_or_array, pair_values, theta1_jet, theta1_power,
                    theta1_tau_logderiv)

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


def kernel_K(spec: KernelSpec, x, y, dom: EllipticDomain):
    """Evaluate the theta-quotient kernel; fractional g needs the branch domain.

    x has shape (N, ...) and y shape (M, ...); their trailing grid axes
    broadcast, so a whole grid takes one call.  One point gives a complex scalar.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if len(x) != spec.N or len(y) != spec.M:
        raise DomainError("coordinate counts must match the KernelSpec")
    g = spec.g
    # x_i - y_j on the last two axes, after the broadcast grid axes
    cross = np.moveaxis(x, 0, -1)[..., :, None] - np.moveaxis(y, 0, -1)[..., None, :]
    den = np.prod(theta1_power(cross, g, dom), axis=(-2, -1))
    return _scalar_or_array(ground_state_psi0(x, g, dom) * ground_state_psi0(y, g, dom) / den)


def kernel_identity_residual(spec: KernelSpec, x, y, dom: EllipticDomain) -> complex:
    """R = ((i pi kappa/2 ell^2) d_tau + H_N(x) - H_M(y)) K / K, kappa = (N-M)g.

    R equals the identity constant C_{N,M} (zero for N = M) whenever the kernel
    identity holds; constancy over configurations is the testable content.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if len(x) != spec.N or len(y) != spec.M:
        raise DomainError("coordinate counts must match the KernelSpec")
    g = spec.g
    kw = dict(dom=dom)
    # x-y cross matrices of zeta1 and d = (ln vt1)'' = -wp1; the y-x ones follow
    # from parity (zeta1 odd, d even)
    _, zeta_xy, d_xy = pair_values(theta1_jet, x, y, **kw)

    def h_part(u, zeta_uv, d_uv):
        """H(u) K / K for the family u against the opposite family v."""
        _, zeta_uu, d_uu = pair_values(theta1_jet, u, parity=(-1, -1, 1), **kw)
        li = g * (zeta_uu.sum(axis=1) - zeta_uv.sum(axis=1))
        lii = g * (d_uu.sum(axis=1) - d_uv.sum(axis=1))
        return -0.5 * np.sum(li * li + lii) - g * (g - 1.0) * 0.5 * d_uu.sum()

    # d_tau ln K = g * (signed sum of per-pair tau log-derivatives)
    dtau_log = g * (pair_values(theta1_tau_logderiv, x, **kw).sum()
                    + pair_values(theta1_tau_logderiv, y, **kw).sum()
                    - pair_values(theta1_tau_logderiv, x, y, **kw).sum())
    tau_term = (1j * math.pi * spec.kappa / (2.0 * dom.ell ** 2)) * dtau_log
    return tau_term + h_part(x, zeta_xy, d_xy) - h_part(y, -zeta_xy.T, d_xy.T)
