"""Kernel functions K_{N,M} and their generalized kernel identity residual.

K_{N,M}(x, y; g) = prod_{i<j} vt1(x_i-x_j)^g prod_{i<j} vt1(y_i-y_j)^g
                   / prod_{i,j} vt1(x_i-y_j)^g

obeys ((i pi g (N-M)/2 ell^2) d_tau + H_N(x) - H_M(y) - C_{N,M}) K = 0 with a
constant C_{N,M} proportional to N-M.  H_N(x) - H_M(y) is the mass Hamiltonian
of operators with masses +1 on x and -1 on y, and K the source with the same
signs; the residual applies it to the jet of K/K, built from log-derivatives
only (zeta1, (ln vt1)'' and the tau log-derivative), with the potential from
the wp1 series.  So it is branch-free for any real g even where K itself would
need a branch choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import EllipticDomain, _check_integers
from .errors import DomainError
from .gamma import ground_state_psi0
from .operators import _particles, _source_jet, _tau_hamiltonian
from .theta import _scalar_or_array, pair_values, theta1_power

__all__ = ["KernelSpec", "kernel_K", "kernel_identity_residual"]


@dataclass(frozen=True)
class KernelSpec:
    """Pair sizes (N, M) and coupling g; kappa = (N - M) g is derived."""

    N: int
    M: int
    g: float

    def __post_init__(self):
        _check_integers(0, N=self.N, M=self.M)
        if self.N + self.M == 0:
            raise DomainError("need N + M > 0")

    @property
    def kappa(self) -> float:
        return (self.N - self.M) * self.g


def kernel_K(spec: KernelSpec, x, y, dom: EllipticDomain):
    """Evaluate the theta-quotient kernel; fractional g needs the branch domain.

    x holds N and y holds M coordinates on the last axis; their leading point
    axes broadcast, so a whole grid takes one call.  One point gives a complex scalar.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape[-1] != spec.N or y.shape[-1] != spec.M:
        raise DomainError("coordinate counts must match the KernelSpec")
    g = spec.g
    den = np.prod(pair_values(theta1_power, x, y, g=g, dom=dom), axis=(-2, -1))
    return _scalar_or_array(ground_state_psi0(x, g, dom) * ground_state_psi0(y, g, dom) / den)


def kernel_identity_residual(spec: KernelSpec, x, y, dom: EllipticDomain):
    """R = ((i pi kappa/2 ell^2) d_tau + H_N(x) - H_M(y)) K / K, kappa = (N-M)g.

    R equals the identity constant C_{N,M} (zero for N = M) whenever the kernel
    identity holds; constancy over configurations (one R per point) is the testable content.
    """
    u, sizes = _particles(x, y)
    if sizes != [spec.N, spec.M]:
        raise DomainError("coordinate counts must match the KernelSpec")
    # masses s = +1 on x and -1 on y: the source is K and the Hamiltonian H_N(x) - H_M(y)
    s = np.repeat([1.0, -1.0], sizes)
    _, j = _source_jet(u, s, spec.g, dom)
    return _tau_hamiltonian(j, u, s, spec.kappa, spec.g, dom)
