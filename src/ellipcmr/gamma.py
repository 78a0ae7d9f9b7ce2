"""Elliptic Gamma function and the scalar-product weights.

Gamma(z; p, q) = prod_{n,m>=0} (1 - p^{n+1} q^{m+1}/z) / (1 - p^n q^m z)
satisfies the shift identity Gamma(qz; p, q) = theta(z; p) Gamma(z; p, q) and
the reflection Gamma(pq/z; p, q) Gamma(z; p, q) = 1.
"""

from __future__ import annotations

import numpy as np

from .domain import DEFAULT_POLICY, EllipticDomain, RuijsenaarsParams
from .errors import PoleError
from .theta import pair_values, theta_q, theta1_power

__all__ = ["elliptic_gamma", "weight_W", "weight_Wrel"]

_POLE_EPS = 1e-13


def elliptic_gamma(z: complex, par: RuijsenaarsParams) -> complex:
    """Truncated double product for Gamma(z; p, q)."""
    z = complex(z)
    if z == 0:
        raise PoleError("zero argument z")
    p, q = par.p, par.q
    scale = abs(z) + 1.0 / abs(z)
    # certified cutoffs per axis; the joint tail is dominated by the single-axis ones
    np_ = DEFAULT_POLICY.n_terms(p, scale) if p > 0 else 0
    nq_ = DEFAULT_POLICY.n_terms(q, scale) if q > 0 else 0
    out = 1.0 + 0.0j
    pn = 1.0
    for n in range(np_ + 1):
        qm = 1.0
        for m in range(nq_ + 1):
            den = 1.0 - pn * qm * z
            if abs(den) < _POLE_EPS:
                raise PoleError(f"Gamma pole at z = p^-{n} q^-{m}")
            out *= (1.0 - pn * p * qm * q / z) / den
            qm *= q
        pn *= p
    return out


def weight_W(z, g: float, p: float) -> float:
    """Scalar-product weight W(z) = ( prod_{i != j} theta(z_i/z_j; p) )^g.

    z must be unimodular with pairwise distinct entries; the product is real
    and non-negative there (conjugate factors pair up), so the imaginary
    roundoff is checked against 1e-12 and discarded.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(np.abs(z) - 1.0) > 1e-9):
        raise PoleError("weight_W requires |z_i| = 1")
    n = len(z)
    base = 1.0 + 0.0j
    for i in range(n):
        for j in range(i + 1, n):
            w = z[i] / z[j]
            if abs(w - 1.0) < _POLE_EPS:
                raise PoleError("coincident arguments z_i = z_j")
            base *= theta_q(w, p) * theta_q(1.0 / w, p)
    if abs(base.imag) > 1e-12 * max(1.0, abs(base)):
        raise PoleError(f"weight not real on the torus: Im = {base.imag}")
    if base.real < 0.0:
        raise PoleError(f"weight not non-negative on the torus: {base.real}")
    return float(base.real) ** g


def weight_Wrel(z, par: RuijsenaarsParams) -> float:
    """Relativistic weight prod_{i != j} Gamma(t z_i/z_j)/Gamma(z_i/z_j)."""
    z = np.asarray(z, dtype=complex)
    n = len(z)
    out = 1.0 + 0.0j
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            w = z[i] / z[j]
            out *= elliptic_gamma(par.t * w, par) / elliptic_gamma(w, par)
    if abs(out.imag) > 1e-10 * max(1.0, abs(out)):
        raise PoleError(f"relativistic weight not real on the torus: Im = {out.imag}")
    return float(out.real)


def ground_state_psi0(x, g: float, dom: EllipticDomain) -> complex:
    """psi0(x) = prod_{i<j} vt1(x_i - x_j)^g; needs x_i - x_j in the branch domain."""
    return complex(np.prod(pair_values(theta1_power, x, g=g, dom=dom)))
