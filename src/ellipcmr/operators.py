"""CMR differential/difference operators and residuals of their equations.

All Hamiltonians are taken with hbar = m = 1: the N-body operator is

    H_N(x; g) = -1/2 sum_i d^2/dx_i^2 + g(g-1) sum_{i<j} wp1(x_i - x_j),

its non-stationary deformation adds (i pi kappa / 2 ell^2) d/dtau, and the
deformed/generalized variants follow the same unit convention.  Derivatives of
the supplied fields are analytic whenever the field carries them; finite
differences are a checked fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domain import EllipticDomain, RuijsenaarsParams
from .errors import DomainError, PoleError
from .fields import SmoothField
from .gamma import ground_state_psi0
from .theta import pair_values, theta1_jet, theta1_tau_logderiv, theta_q, wp1

__all__ = [
    "CouplingSet", "half_period_shifts", "apply_ecs", "nonstationary_residual",
    "fit_nonstationary_E", "lame_residual", "heun_residual",
    "apply_deformed_ecs", "apply_generalized_ecs", "apply_ruijsenaars_D",
    "ground_state_field",
]


@dataclass(frozen=True)
class CouplingSet:
    """eCS coupling g and the four Inozemtsev couplings g0..g3."""

    g: float = 0.0
    g0: float = 0.0
    g1: float = 0.0
    g2: float = 0.0
    g3: float = 0.0

    @property
    def gamma(self) -> float:
        return self.g * (self.g - 1.0)

    @property
    def gnu(self):
        return (self.g0, self.g1, self.g2, self.g3)


def _gamma_of(c) -> float:
    if isinstance(c, CouplingSet):
        return c.gamma
    g = float(c)
    return g * (g - 1.0)


def half_period_shifts(dom: EllipticDomain):
    """(omega0, omega1, omega2, omega3) = (0, ell, i delta, -ell - i delta)."""
    return (0.0, dom.ell, 1j * dom.delta, -dom.ell - 1j * dom.delta)


def _pairwise_potential(xs, dom):
    return pair_values(wp1, xs, dom=dom).sum()


def apply_ecs(psi: SmoothField, x: Sequence[complex], c, dom: EllipticDomain) -> complex:
    """(H_N psi)(x) for the eCS operator with coupling c (float g or CouplingSet)."""
    x = np.asarray(x, dtype=complex)
    kin = -0.5 * sum(psi.second(x, i) for i in range(len(x)))
    return kin + _gamma_of(c) * _pairwise_potential(x, dom) * psi(x)


def nonstationary_residual(psi: SmoothField, kappa: complex, E: complex,
                           x: Sequence[complex], c, dom: EllipticDomain) -> complex:
    """((i pi kappa / 2 ell^2) d_tau + H_N - E) psi at x; needs analytic d_tau."""
    x = np.asarray(x, dtype=complex)
    tau_term = (1j * math.pi * kappa / (2.0 * dom.ell ** 2)) * psi.tau_derivative(x)
    return tau_term + apply_ecs(psi, x, c, dom) - E * psi(x)


def fit_nonstationary_E(psi: SmoothField, kappa: complex, x_ref, c,
                        dom: EllipticDomain) -> complex:
    """Generalized eigenvalue fixed by a vanishing residual at one reference point."""
    x_ref = np.asarray(x_ref, dtype=complex)
    tau_term = (1j * math.pi * kappa / (2.0 * dom.ell ** 2)) * psi.tau_derivative(x_ref)
    return (tau_term + apply_ecs(psi, x_ref, c, dom)) / psi(x_ref)


def lame_residual(psi: SmoothField, E: complex, x: complex, g: float,
                  dom: EllipticDomain) -> complex:
    """Residual of (-d^2/dx^2 + g(g-1) wp1(x) - E) psi."""
    xv = np.asarray([x], dtype=complex)
    pot = g * (g - 1.0) * wp1(x, dom)
    return -psi.second(xv, 0) + (pot - E) * psi(xv)


def heun_residual(psi: SmoothField, E: complex, x: complex, c: CouplingSet,
                  dom: EllipticDomain) -> complex:
    """Residual of the BC_1 equation with potential sum_nu g_nu(g_nu-1) wp1(x+omega_nu)."""
    xv = np.asarray([x], dtype=complex)
    pot = 0.0 + 0.0j
    for gnu, om in zip(c.gnu, half_period_shifts(dom)):
        if gnu != 0.0:
            pot += gnu * (gnu - 1.0) * wp1(x + om, dom)
    return -psi.second(xv, 0) + (pot - E) * psi(xv)


def _cross_potential(us, vs, dom, shift=0.0):
    return pair_values(wp1, us, np.asarray(vs) - shift, dom=dom).sum()


def _deformed_block(psi: SmoothField, full, iA, iB, g: float, dom):
    """Kinetic and potential parts of H_{N,M} on the coordinates full[iA], full[iB]."""
    kin = -0.5 * sum(psi.second(full, i) for i in iA)
    kin += 0.5 * g * sum(psi.second(full, i) for i in iB)
    ua, ub = full[iA], full[iB]
    pot = g * (g - 1.0) * _pairwise_potential(ua, dom)
    if len(ub) > 1:
        pot -= (1.0 / g - 1.0) * _pairwise_potential(ub, dom)
    if len(ua) and len(ub):
        pot += (1.0 - g) * _cross_potential(ua, ub, dom)
    return kin, pot


def apply_deformed_ecs(psi: SmoothField, x: Sequence[complex], xt: Sequence[complex],
                       g: float, dom: EllipticDomain) -> complex:
    """(H_{N,M} psi)(x, xt): two particle families with couplings g and 1/g.

    psi is a field of N+M coordinates ordered (x_1..x_N, xt_1..xt_M).
    """
    x = np.asarray(x, dtype=complex)
    xt = np.asarray(xt, dtype=complex)
    if len(xt) > 0 and g == 0.0:
        raise DomainError("deformed operator needs g != 0 when M > 0")
    full = np.concatenate([x, xt])
    n = len(x)
    kin, pot = _deformed_block(psi, full, range(n), range(n, len(full)), g, dom)
    return kin + pot * psi(full)


def apply_generalized_ecs(psi: SmoothField, x, xt, y, yt, g: float,
                          dom: EllipticDomain) -> complex:
    """Four-family operator built from two deformed blocks and shifted couplings.

    H = H_{N1,M1}(x, xt) + H_{N2,M2}(y, yt) + V(x, y; g) - g V(xt, yt; 1/g)
        - (1/g) V(x, yt; g) - (1/g) V(xt, y; g),
    with V(u, v; c) = c(c-1) sum wp1(u_i - v_j + i delta).  psi is a field of
    all N1+M1+N2+M2 coordinates in the order (x, xt, y, yt).
    """
    x, xt = np.asarray(x, dtype=complex), np.asarray(xt, dtype=complex)
    y, yt = np.asarray(y, dtype=complex), np.asarray(yt, dtype=complex)
    full = np.concatenate([x, xt, y, yt])
    sizes = [len(x), len(xt), len(y), len(yt)]
    offs = np.concatenate([[0], np.cumsum(sizes)])
    if (len(xt) > 0 or len(yt) > 0) and g == 0.0:
        raise DomainError("generalized operator needs g != 0 when tilde families are present")

    idx = [list(range(offs[k], offs[k + 1])) for k in range(4)]
    kin1, pot1 = _deformed_block(psi, full, idx[0], idx[1], g, dom)
    kin2, pot2 = _deformed_block(psi, full, idx[2], idx[3], g, dom)
    shift = 1j * dom.delta

    def V(us, vs, c):
        if len(us) == 0 or len(vs) == 0:
            return 0.0
        return c * (c - 1.0) * _cross_potential(us, vs, dom, shift=shift)

    pot = pot1 + pot2 + V(x, y, g)
    if g != 0.0:
        pot += -g * V(xt, yt, 1.0 / g) - (1.0 / g) * V(x, yt, g) - (1.0 / g) * V(xt, y, g)
    return kin1 + kin2 + pot * psi(full)


def apply_ruijsenaars_D(f, z: Sequence[complex], par: RuijsenaarsParams,
                        sign: int = +1) -> complex:
    """Macdonald-Ruijsenaars difference operator applied exactly (no derivatives).

    D f(z) = sum_i prod_{j != i} theta(t z_j/z_i; p)/theta(z_j/z_i; p) f(.., q z_i, ..);
    sign = -1 uses (q^-1, t^-1).  Coefficient zeros of theta(z_j/z_i; p) raise.
    """
    z = np.asarray(z, dtype=complex)
    if sign not in (+1, -1):
        raise DomainError("sign must be +1 or -1")
    q = par.q if sign > 0 else 1.0 / par.q
    t = par.t if sign > 0 else 1.0 / par.t
    total = 0.0 + 0.0j
    for i in range(len(z)):
        coef = 1.0 + 0.0j
        for j in range(len(z)):
            if j == i:
                continue
            w = z[j] / z[i]
            den = theta_q(w, par.p)
            if abs(den) < 1e-13:
                raise PoleError("coefficient pole: theta(z_j/z_i; p) = 0")
            coef *= theta_q(t * w, par.p) / den
        zs = np.array(z, dtype=complex)
        zs[i] *= q
        total += coef * f(zs)
    return total


def ground_state_field(g: float, dom: EllipticDomain) -> SmoothField:
    """psi0(x) = prod_{i<j} vt1(x_i - x_j)^g as an N-coordinate field, N = len(x)."""
    memo = {}

    def at(x, sums=True):
        # keep psi0 of the last x, and its pair sums once a derivative asks for them
        x = np.asarray(x, dtype=complex)
        if memo.get("x") != x.tobytes():
            memo.clear()
            memo["x"] = x.tobytes()
        if sums and "li" not in memo:
            _, Z, D = pair_values(theta1_jet, x, dom=dom, parity=(-1, -1, 1))
            memo["li"] = g * Z.sum(axis=1)      # Z = zeta1, D = (ln vt1)'' = -wp1
            memo["lii"] = g * D.sum(axis=1)
        if "psi0" not in memo:
            memo["psi0"] = ground_state_psi0(x, g, dom)
        return memo

    def val(x):
        return at(x, sums=False)["psi0"]

    def d1(x, i):
        m = at(x)
        return m["li"][i] * m["psi0"]

    def d2(x, i):
        m = at(x)
        return (m["li"][i] * m["li"][i] + m["lii"][i]) * m["psi0"]

    def dtau(x):
        return g * pair_values(theta1_tau_logderiv, x, dom=dom).sum() * val(x)

    return SmoothField(value=val, d1=d1, d2=d2, dtau=dtau)
