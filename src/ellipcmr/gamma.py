"""Elliptic Gamma function and the scalar-product weights.

Gamma(z; p, q) = prod_{n,m>=0} (1 - p^{n+1} q^{m+1}/z) / (1 - p^n q^m z)
satisfies the shift identity Gamma(qz; p, q) = theta(z; p) Gamma(z; p, q) and
the reflection Gamma(pq/z; p, q) Gamma(z; p, q) = 1.
"""

from __future__ import annotations

import numpy as np

from .domain import DEFAULT_POLICY, EllipticDomain, RuijsenaarsParams
from .errors import PoleError
from .theta import (_pair_index, _scalar_or_array, _scale_for, pair_values, theta_q,
                    theta1_power)

__all__ = ["elliptic_gamma", "weight_W", "weight_Wrel"]

_POLE_EPS = 1e-13


def elliptic_gamma(z, par: RuijsenaarsParams):
    """Truncated double product for Gamma(z; p, q), per entry of an array z."""
    z = np.asarray(z, dtype=complex)
    p, q = par.p, par.q
    # cutoffs per axis at the largest |z| + 1/|z|; they dominate the joint tail
    scale = _scale_for(z)
    np_ = DEFAULT_POLICY.n_terms(p, scale)
    nq_ = DEFAULT_POLICY.n_terms(q, scale)
    out = np.ones_like(z)
    pn = 1.0
    for n in range(np_ + 1):
        qm = 1.0
        for m in range(nq_ + 1):
            den = 1.0 - pn * qm * z
            if np.any(np.abs(den) < _POLE_EPS):
                raise PoleError(f"Gamma pole at z = p^-{n} q^-{m}")
            out = out * ((1.0 - pn * p * qm * q / z) / den)
            qm *= q
        pn *= p
    return _scalar_or_array(out)


def weight_W(z, g: float, p: float):
    """Scalar-product weight W(z) = ( prod_{i != j} theta(z_i/z_j; p) )^g.

    z has shape (N, ...): N coordinates per point of the trailing grid axes.
    z must be unimodular with pairwise distinct entries; the product is real
    and non-negative there (conjugate factors pair up), so the imaginary
    roundoff is checked against 1e-12 and discarded.  One point gives a float.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(np.abs(z) - 1.0) > 1e-9):
        raise PoleError("weight_W requires |z_i| = 1")
    j, k = _pair_index(len(z))
    w = z[j] / z[k]
    if np.any(np.abs(w - 1.0) < _POLE_EPS):
        raise PoleError("coincident arguments z_i = z_j")
    base = np.prod(theta_q(w, p) * theta_q(1.0 / w, p), axis=0)
    if np.any(np.abs(base.imag) > 1e-12 * np.maximum(1.0, np.abs(base))):
        raise PoleError(f"weight not real on the torus: Im = {np.max(np.abs(base.imag))}")
    if np.any(base.real < 0.0):
        raise PoleError(f"weight not non-negative on the torus: {np.min(base.real)}")
    out = base.real ** g
    return out if out.shape else float(out)


def weight_Wrel(z, par: RuijsenaarsParams) -> float:
    """Relativistic weight prod_{i != j} Gamma(t z_i/z_j)/Gamma(z_i/z_j)."""
    z = np.asarray(z, dtype=complex)
    # the ratios z_i/z_j, i != j, in row-major order
    w = (z[:, None] / z[None, :])[~np.eye(len(z), dtype=bool)]
    out = complex(np.prod(elliptic_gamma(par.t * w, par) / elliptic_gamma(w, par)))
    if abs(out.imag) > 1e-10 * max(1.0, abs(out)):
        raise PoleError(f"relativistic weight not real on the torus: Im = {out.imag}")
    return float(out.real)


def ground_state_psi0(x, g: float, dom: EllipticDomain):
    """psi0(x) = prod_{i<j} vt1(x_i - x_j)^g; needs x_i - x_j in the branch domain.

    x has shape (N, ...); the product runs over axis 0, so a grid of points
    takes one call and one point gives a complex scalar.
    """
    return _scalar_or_array(np.prod(pair_values(theta1_power, x, g=g, dom=dom), axis=0))
