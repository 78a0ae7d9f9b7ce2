"""Elliptic Gamma function and the scalar-product weights.

Gamma(z; p, q) = prod_{n,m>=0} (1 - p^{n+1} q^{m+1}/z) / (1 - p^n q^m z)
satisfies the shift identity Gamma(qz; p, q) = theta(z; p) Gamma(z; p, q) and
the reflection Gamma(pq/z; p, q) Gamma(z; p, q) = 1.
"""

from __future__ import annotations

import numpy as np

from .domain import EllipticDomain, RuijsenaarsParams
from .errors import PoleError
from .theta import (_nome_ladder, _pair_index, _scalar_or_array, _scale_for, pair_values,
                    theta_q, theta1_power)

__all__ = ["elliptic_gamma", "weight_W", "weight_Wrel"]

_POLE_EPS = 1e-13


def elliptic_gamma(z, par: RuijsenaarsParams):
    """Truncated double product for Gamma(z; p, q), per entry of an array z: one product
    over theta's q-ladder (theta._nome_ladder, level 0 in front) per level of its p-ladder.
    The tail bound covers truncation only; the product rounds otherwise than a log-sum
    (up to about 1e-12 relative at p = q = 0.9)."""
    z = np.asarray(z, dtype=complex)
    _scale_for(z)                       # PoleError at z = 0, at any nome
    p, q = par.p, par.q
    qm = np.concatenate((np.ones((1,) + (1,) * z.ndim), _nome_ladder(q, z)[1]))
    out = np.ones_like(z)
    for n, pn in enumerate([1.0, *_nome_ladder(p, z)[1].ravel().tolist()]):
        den = 1.0 - pn * qm * z
        pole = np.abs(den) < _POLE_EPS
        if np.any(pole):
            raise PoleError(f"Gamma pole at z = p^-{n} q^-{np.argwhere(pole)[0, 0]}")
        out = out * np.prod((1.0 - pn * p * qm * q / z) / den, axis=0)
    return _scalar_or_array(out)


def _torus_ratios(z):
    """The ratios w = z_j/z_k, j < k, of points z on the torus (N coordinates on the
    last axis, leading axes index points); PoleError unless every |z_i| = 1 and
    the entries of each point are distinct."""
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(np.abs(z) - 1.0) > 1e-9):
        raise PoleError("the weights require |z_i| = 1")
    j, k = _pair_index(z.shape[-1])
    w = z[..., j] / z[..., k]
    if np.any(np.abs(w - 1.0) < _POLE_EPS):
        raise PoleError("coincident arguments z_i = z_j")
    return w


def weight_W(z, g: float, p: float):
    """Scalar-product weight W(z) = ( prod_{i != j} theta(z_i/z_j; p) )^g.

    z holds N coordinates on its last axis; leading axes index points.
    z must be unimodular with pairwise distinct entries; the product is real
    and non-negative there (conjugate factors pair up), so the imaginary
    roundoff is checked against 1e-12 and discarded.  One point gives a float.
    """
    w = _torus_ratios(z)
    base = np.prod(theta_q(w, p) * theta_q(1.0 / w, p), axis=-1)
    if np.any(np.abs(base.imag) > 1e-12 * np.maximum(1.0, np.abs(base))):
        raise PoleError(f"weight not real on the torus: Im = {np.max(np.abs(base.imag))}")
    if np.any(base.real < 0.0):
        raise PoleError(f"weight not non-negative on the torus: {np.min(base.real)}")
    out = base.real ** g
    return out if out.shape else float(out)


def weight_Wrel(z, par: RuijsenaarsParams):
    """Relativistic weight prod_{i != j} Gamma(t z_i/z_j)/Gamma(z_i/z_j) with z as for
    weight_W: real on the torus, checked per point to 1e-10.  One point gives a float."""
    w = _torus_ratios(z)
    w = np.concatenate([w, 1.0 / w], axis=-1)     # i != j: the pairs j < k both ways
    out = np.prod(elliptic_gamma(par.t * w, par) / elliptic_gamma(w, par), axis=-1)
    if np.any(np.abs(out.imag) > 1e-10 * np.maximum(1.0, np.abs(out))):
        raise PoleError(f"relativistic weight not real on the torus: Im = {np.max(np.abs(out.imag))}")
    return out.real if out.shape else float(out.real)


def ground_state_psi0(x, g: float, dom: EllipticDomain):
    """psi0(x) = prod_{i<j} vt1(x_i - x_j)^g; needs x_i - x_j in the branch domain.

    x holds N coordinates on its last axis and leading axes index points, so a
    grid of points takes one call and one point gives a complex scalar.
    """
    return _scalar_or_array(np.prod(pair_values(theta1_power, x, g=g, dom=dom), axis=-1))
