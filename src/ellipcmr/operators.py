"""CMR differential/difference operators and residuals of their equations.

Every Hamiltonian (hbar = 1) is one operator on particles u_i with masses m_i,

    H = -1/2 sum_i d^2/du_i^2 / m_i + sum_{i<k} c_ik wp1(u_i - u_k [+ i delta]),
    c_ik = g (g m_i m_k - 1)(m_i + m_k) / 2,

with + i delta on the pairs across the two sides of the generalized operator.
m = 1 gives the eCS operator H_N (c = g(g-1)); a deformed partner has m = -1/g
(c = (g-1)/g among partners, 1-g against eCS particles), and the kernel
identity takes m = +1 on x and -1 on y, so that H = H_N(x) - H_M(y).  The
non-stationary deformation adds (i pi kappa / 2 ell^2) d/dtau.  A field is its
jet function psi(x) -> fields.Jet; each operator calls it once on all its points
(fields.Jet has the shape rule) and returns one value per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import EllipticDomain, RuijsenaarsParams
from .errors import ConvergenceError, DomainError, PoleError
from .fields import Field, Jet
from .theta import _pair_index, _power, _scalar_or_array, pair_values, theta1_jet, theta_q, wp1

__all__ = [
    "CouplingSet", "half_period_shifts", "apply_ecs", "nonstationary_residual",
    "fit_nonstationary_E", "lame_residual", "heun_residual",
    "apply_deformed_ecs", "apply_generalized_ecs", "apply_ruijsenaars_D",
    "ground_state_field",
]


@dataclass(frozen=True)
class CouplingSet:
    """The four Inozemtsev couplings g0..g3 of the BC_1 (Heun) operator."""

    g0: float = 0.0
    g1: float = 0.0
    g2: float = 0.0
    g3: float = 0.0

    @property
    def gnu(self):
        return (self.g0, self.g1, self.g2, self.g3)


def half_period_shifts(dom: EllipticDomain):
    """(omega0, omega1, omega2, omega3) = (0, ell, i delta, -ell - i delta); needs p > 0."""
    if dom.p == 0.0:
        raise DomainError("half periods i delta and -ell - i delta are infinite at p = 0")
    return (0.0, dom.ell, 1j * dom.delta, -dom.ell - 1j * dom.delta)


def _hamiltonian(j: Jet, u, m, g: float, dom: EllipticDomain, side=None):
    """(H psi)(u) from psi's jet j at the points u for masses m; pairs with unequal
    side labels shift by i delta.  One wp1 call over all pairs of all points, summed
    per distinct c_ik, so equal masses give c * (sum of wp1) exactly.  One value per
    field and point: the kinetic term sums the jet's last axis.
    """
    jj, kk = _pair_index(u.shape[-1])
    c = 0.5 * g * (g * m[jj] * m[kk] - 1.0) * (m[jj] + m[kk])
    d = np.take(u, jj, axis=-1) - np.take(u, kk, axis=-1)     # C-ordered, as pair_values
    if side is not None:
        d[..., side[jj] != side[kk]] += 1j * dom.delta
    w = wp1(d, dom)
    pot = sum(ck * np.compress(c == ck, w, -1).sum(-1) for ck in dict.fromkeys(c.tolist()))
    return -0.5 * (j.d2 / m).sum(axis=-1) + pot * j.value


def _tau_hamiltonian(j: Jet, u, m, kappa: complex, g: float, dom: EllipticDomain):
    """(((i pi kappa / 2 ell^2) d_tau + H) psi)(u) from psi's jet j for masses m."""
    return (1j * math.pi * kappa / (2.0 * dom.ell ** 2)) * j.dtau + _hamiltonian(j, u, m, g, dom)


def _particles(*families):
    """All families' coordinates joined on the last axis (point axes broadcast), and their sizes."""
    fams = [np.asarray(f, dtype=complex) for f in families]
    lead = np.broadcast_shapes(*(f.shape[:-1] for f in fams))
    u = np.concatenate([np.broadcast_to(f, lead + f.shape[-1:]) for f in fams], axis=-1)
    return u, [f.shape[-1] for f in fams]


def apply_ecs(psi: Field, x, g: float, dom: EllipticDomain):
    """(H_N psi)(x) for the eCS operator with coupling g, one value per point.

    psi(x) is called once on the complex points x (fields.Jet has the shape rule);
    its jet may also batch several fields over leading axes, and then one value per
    field and point is returned from one wp1 call.
    """
    x = np.asarray(x, dtype=complex)
    return _hamiltonian(psi(x), x, np.ones(x.shape[-1]), g, dom)


def _nonstationary_lhs(psi: Field, kappa: complex, x, g: float, dom: EllipticDomain):
    """(((i pi kappa / 2 ell^2) d_tau + H_N) psi, psi) at the points x from one jet;
    ConvergenceError where the jet has no tau-derivative."""
    x = np.asarray(x, dtype=complex)
    j = psi(x)
    if j.dtau is None:
        raise ConvergenceError("field has no analytic tau-derivative")
    return _tau_hamiltonian(j, x, np.ones(x.shape[-1]), kappa, g, dom), j.value


def nonstationary_residual(psi: Field, kappa: complex, E: complex, x, g: float,
                           dom: EllipticDomain):
    """((i pi kappa / 2 ell^2) d_tau + H_N - E) psi at x; needs analytic d_tau."""
    lhs, value = _nonstationary_lhs(psi, kappa, x, g, dom)
    return lhs - E * value


def fit_nonstationary_E(psi: Field, kappa: complex, x_ref, g: float, dom: EllipticDomain):
    """Generalized eigenvalue fixed by a vanishing residual at x_ref: one per point."""
    lhs, value = _nonstationary_lhs(psi, kappa, x_ref, g, dom)
    return lhs / value


def lame_residual(psi: Field, E: complex, x, g: float, dom: EllipticDomain):
    """Residual of (-d^2/dx^2 + g(g-1) wp1(x) - E) psi: the BC_1 equation with g0 = g."""
    return heun_residual(psi, E, x, CouplingSet(g0=g), dom)


def heun_residual(psi: Field, E: complex, x, c: CouplingSet, dom: EllipticDomain):
    """BC_1 residual with potential sum_nu g_nu(g_nu-1) wp1(x+omega_nu); g2, g3 need p > 0.
    x is a coordinate or an array of them, one residual each; psi gets x[..., None]."""
    if (c.g2 or c.g3) and dom.p == 0.0:
        raise DomainError("couplings g2, g3 shift by i delta, which is infinite at p = 0")
    xv = np.asarray(x, dtype=complex)[..., None]
    om = np.array(half_period_shifts(dom) if dom.p > 0.0 else (0.0, dom.ell))
    gnu = np.array(c.gnu[:len(om)])
    on = gnu != 0.0      # a zero coupling takes no wp1 value, so its shift meets no pole
    pot = (gnu[on] * (gnu[on] - 1.0) * wp1(xv + om[on], dom)).sum(axis=-1)
    j = psi(xv)
    return -j.d2[..., 0] + (pot - E) * j.value


def _masses(g: float, sizes):
    """Masses 1 (eCS) and -1/g (deformed) of alternating families of sizes[k] particles;
    callers reject deformed particles at g = 0, so no -1/g is formed there.
    """
    return np.repeat([1.0, -1.0 / g if g else 0.0] * (len(sizes) // 2), sizes)


def apply_deformed_ecs(psi: Field, x, xt, g: float, dom: EllipticDomain):
    """(H_{N,M} psi)(x, xt): N particles of mass 1 and M of mass -1/g,

    H_{N,M} = -1/2 sum d^2/dx_i^2 + (g/2) sum d^2/dxt_j^2 + g(g-1) sum_{i<k} wp1(x_i - x_k)
              + (1 - 1/g) sum_{j<l} wp1(xt_j - xt_l) + (1 - g) sum_{i,j} wp1(x_i - xt_j).

    psi is a field of N+M coordinates ordered (x_1..x_N, xt_1..xt_M).
    """
    full, sizes = _particles(x, xt)
    if sizes[1] > 0 and g == 0.0:
        raise DomainError("deformed operator needs g != 0 when M > 0")
    return _hamiltonian(psi(full), full, _masses(g, sizes), g, dom)


def apply_generalized_ecs(psi: Field, x, xt, y, yt, g: float, dom: EllipticDomain):
    """Four-family operator: masses (1, -1/g, 1, -1/g) on (x, xt, y, yt), sides (x, xt), (y, yt).

    H = H_{N1,M1}(x, xt) + H_{N2,M2}(y, yt) + V(x, y; g) - g V(xt, yt; 1/g)
        - (1/g) V(x, yt; g) - (1/g) V(xt, y; g),
    with V(u, v; c) = c(c-1) sum wp1(u_i - v_j + i delta): the mass Hamiltonian with
    every pair across the sides shifted by i delta.  psi is a field of all
    N1+M1+N2+M2 coordinates in the order (x, xt, y, yt).  Two nonempty sides
    need p > 0.
    """
    full, sizes = _particles(x, xt, y, yt)
    if (sizes[1] > 0 or sizes[3] > 0) and g == 0.0:
        raise DomainError("generalized operator needs g != 0 when tilde families are present")
    if sizes[0] + sizes[1] and sizes[2] + sizes[3] and dom.p == 0.0:
        raise DomainError("cross families shift by i delta, which is infinite at p = 0")
    return _hamiltonian(psi(full), full, _masses(g, sizes), g, dom,
                        side=np.repeat([0, 0, 1, 1], sizes))


def apply_ruijsenaars_D(f, z, par: RuijsenaarsParams, sign: int = +1):
    """Macdonald-Ruijsenaars difference operator applied exactly (no derivatives).

    D f(z) = sum_i prod_{j != i} theta(t z_j/z_i; p)/theta(z_j/z_i; p) f(.., q z_i, ..);
    sign = -1 uses (q^-1, t^-1).  Coefficient zeros of theta(z_j/z_i; p) raise.
    z holds N coordinates on its last axis and leading axes index points.  f is
    called once, on the (..., N, N) points whose row i is z with z_i -> q z_i, and
    returns one value per point; D returns one value per point of z.
    """
    z = np.asarray(z, dtype=complex)
    if sign not in (+1, -1):
        raise DomainError("sign must be +1 or -1")
    if sign < 0 and (par.q == 0.0 or par.t == 0.0):
        raise DomainError("sign = -1 needs q != 0 and t != 0")
    q = par.q if sign > 0 else 1.0 / par.q
    t = par.t if sign > 0 else 1.0 / par.t
    # coefficient factors theta(t w)/theta(w), w = z_j/z_i, row i, column j != i
    n = z.shape[-1]
    eye = np.eye(n, dtype=bool)
    w = (z[..., None, :] / z[..., :, None])[..., ~eye]
    den = theta_q(w, par.p)
    if np.any(np.abs(den) < 1e-13):
        raise PoleError("coefficient pole: theta(z_j/z_i; p) = 0")
    coef = (theta_q(t * w, par.p) / den).reshape(w.shape[:-1] + (n, n - 1)).prod(axis=-1)
    return _scalar_or_array((coef * f(z[..., None, :] * np.where(eye, q, 1.0))).sum(axis=-1))


def _source_jet(u, s, g: float, dom: EllipticDomain):
    """Pair values vt1(u_i - u_k), i < k, and the jet of F/F at the points u for the
    source F = prod_{i<k} vt1(u_i - u_k)^(g s_i s_k), s_i = +-1: Jet(1, d ln F,
    (d ln F)^2 + d^2 ln F, d_tau ln F).  s = 1 gives psi0, s = (+1 on x, -1 on y) K.
    """
    vt, Z, D, T = pair_values(theta1_jet, u, dom=dom, parity=(-1, -1, 1, 1), _tau=True)
    jj, kk = _pair_index(u.shape[-1])
    flip = np.not_equal.outer(s, s)     # pairs with exponent -g; negation is exact
    li = g * np.where(flip, -Z, Z).sum(axis=-1)      # Z = zeta1, D = (ln vt1)'' = -wp1
    lii = g * np.where(flip, -D, D).sum(axis=-1)
    # T = d/dtau ln vt1 and vt1 itself: their pairs in C order, so each point's sum and
    # product round as one point's
    ltau = g * np.ascontiguousarray(np.where(flip, -T, T)[..., jj, kk]).sum(axis=-1)
    return np.ascontiguousarray(vt[..., jj, kk]), Jet(1.0, li, li * li + lii, ltau)


def ground_state_field(g: float, dom: EllipticDomain) -> Field:
    """psi0(x) = prod_{i<j} vt1(x_i - x_j)^g as an N-coordinate field, N = len(x).

    Its jet is _source_jet's with s = 1, times psi0, which the pair values of vt1
    give by theta1_power's power rule.
    """
    def jet(x):
        vt, j = _source_jet(x, np.ones(x.shape[-1]), g, dom)
        psi0 = np.prod(_power(vt, g), axis=-1)
        # np.multiply, not *: one point's dtau takes numpy's array loop, as a batch's does
        return Jet(psi0, j.d1 * psi0[..., None], j.d2 * psi0[..., None], np.multiply(j.dtau, psi0))

    return jet
