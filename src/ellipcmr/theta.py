"""Theta function, Weierstrass-type kernels, and their analytic derivatives.

Everything is built from the truncated products

    theta(z; p)  = (1 - z) prod_{n>=1} (1 - p^n z)(1 - p^n / z)
    vt1(x)       = 2 sin(pi x / 2 ell) prod_{n>=1} (1 - p^n z)(1 - p^n / z),
                   z = exp(i pi x / ell),

so that vt1(x) = i z^{-1/2} theta(z; p).  Log-derivatives in x and in tau are
differentiated term by term; finite differences appear only in test oracles.
tau-derivatives use d/dtau = 2 pi i p d/dp, valid since p = e^{2 pi i tau}.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, repeat
from operator import mul

import numpy as np

from .domain import DEFAULT_POLICY, EllipticDomain
from .errors import BranchError, DomainError, PoleError

__all__ = [
    "theta_q", "log_theta_q", "theta1", "theta1_logderiv", "theta1_dlog2", "theta1_jet",
    "theta1_dtau", "theta1_tau_logderiv", "theta1_power", "wp1",
    "wp1_fourier_coeffs", "WpFourierCoeffs", "heat_constant_c0",
    "eta1_over_omega1", "heat_residual", "pair_values",
]


def _scale_for(z) -> float:
    az = np.abs(np.asarray(z))
    if np.any(az == 0.0):
        raise PoleError("zero argument z")
    return float(np.max(az + 1.0 / az, initial=2.0))


def _nome_ladder(p: float, z):
    """Iterator over (n, p^n) for the n = 1..N that DEFAULT_POLICY certifies at |z| + 1/|z|.

    p^n is the running product p, p*p, ..., not p**n, so every series keeps its rounding.
    """
    nt = DEFAULT_POLICY.n_terms(p, _scale_for(z))
    return zip(range(1, nt + 1), accumulate(repeat(p, nt), mul))


def _scalar_or_array(out):
    return out if out.shape else complex(out)


def theta_q(z, p: float):
    """Truncated product (1-z) prod (1 - p^n z)(1 - p^n / z); p in [0, 1)."""
    z = np.asarray(z, dtype=complex)
    out = 1.0 - z
    for _, pn in _nome_ladder(p, z):
        out = out * (1.0 - pn * z) * (1.0 - pn / z)
    return _scalar_or_array(out)


def log_theta_q(z, p: float):
    """log theta(z; p) as a sum of principal logs of the product factors.

    Smooth and single-valued on the annulus p < |z| < 1 (each factor then has
    positive real part except possibly 1 - z, which stays in the unit disk).
    This is the branch used for theta^g on quadrature contours.
    """
    z = np.asarray(z, dtype=complex)
    out = np.log(1.0 - z)
    for _, pn in _nome_ladder(p, z):
        out = out + np.log(1.0 - pn * z) + np.log(1.0 - pn / z)
    return _scalar_or_array(out)


def theta1(x, dom: EllipticDomain):
    """Odd theta function vt1(x) = 2 sin(pi x/2 ell) prod (1-p^n z)(1-p^n/z)."""
    x = np.asarray(x, dtype=complex)
    z = np.exp(1j * math.pi * x / dom.ell)
    out = 2.0 * np.sin(math.pi * x / (2.0 * dom.ell))
    for _, pn in _nome_ladder(dom.p, z):
        out = out * (1.0 - pn * z) * (1.0 - pn / z)
    return _scalar_or_array(out)


def _ladder(z, p: float, head):
    """(head prod_n (1-w)(1-v), s1, s2) over the certified nome ladder, w = p^n z, v = p^n/z:

    s1 = sum_n [ w/(1-w) - v/(1-v) ],   s2 = sum_n [ w/(1-w)^2 + v/(1-v)^2 ].
    """
    s1 = np.zeros_like(z)
    s2 = np.zeros_like(z)
    for _, pn in _nome_ladder(p, z):
        w, v = pn * z, pn / z
        a, b = 1.0 - w, 1.0 - v
        head = head * a * b
        wa, vb = w / a, v / b
        s1 += wa - vb
        s2 += wa / a + vb / b
    return head, s1, s2


def theta1_jet(x, dom: EllipticDomain):
    """(vt1, zeta1, (ln vt1)'') at x from one pass over the nome ladder.

    vt1 is formed exactly as theta1 forms it, and with s1, s2 of _ladder at z,
    zeta1(x)      = (pi/2 ell) cot(pi x/2 ell) - (i pi/ell) s1,
    (ln vt1)''(x) = -(pi/2 ell)^2 / sin^2(pi x/2 ell) + (pi/ell)^2 s2,
    which equals -wp1(x) but stays independent of wp1's cosine series.
    """
    x = np.asarray(x, dtype=complex)
    c = math.pi / dom.ell
    z = np.exp(1j * math.pi * x / dom.ell)
    arg = math.pi * x / (2.0 * dom.ell)
    s = np.sin(arg)
    if np.any(np.abs(s) < 1e-300):
        raise PoleError("x on the period lattice")
    vt, s1, s2 = _ladder(z, dom.p, 2.0 * s)
    zeta = (0.5 * c) * np.cos(arg) / s - (1j * c) * s1
    dlog2 = c * c * s2 - (0.5 * c) ** 2 / s ** 2
    return _scalar_or_array(vt), _scalar_or_array(zeta), _scalar_or_array(dlog2)


def theta1_logderiv(x, dom: EllipticDomain):
    """zeta1(x) = vt1'(x)/vt1(x), the second output of theta1_jet."""
    return theta1_jet(x, dom)[1]


def theta1_dlog2(x, dom: EllipticDomain):
    """Second log-derivative (ln vt1)''(x) = -wp1(x), the third output of theta1_jet."""
    return theta1_jet(x, dom)[2]


def _wdlog_jet(w, p: float):
    """(w d/dw log theta(w; p), (w d/dw)^2 log theta(w; p)) from one pass over the ladder."""
    w = np.asarray(w, dtype=complex)
    _, s1, s2 = _ladder(w, p, 1.0)
    a = 1.0 - w
    return -w / a - s1, -w / a ** 2 - s2


def _tau_dlog_theta(w, p: float):
    """d/dtau log theta(w; p) = d/dtau ln vt1(x) at w = e^{i pi x/ell}, term-wise."""
    out = np.zeros_like(w)
    for n, pn in _nome_ladder(p, w):
        u, v = pn * w, pn / w
        out = out - n * (u / (1.0 - u) + v / (1.0 - v))
    return 2j * math.pi * out


def theta1_tau_logderiv(x, dom: EllipticDomain):
    """d/dtau ln vt1(x) via d/dtau = 2 pi i p d/dp applied to each factor."""
    z = np.exp(1j * math.pi * np.asarray(x, dtype=complex) / dom.ell)
    return _scalar_or_array(_tau_dlog_theta(z, dom.p))


def theta1_dtau(x, dom: EllipticDomain):
    """d/dtau vt1(x), analytic (no finite differences)."""
    return theta1(x, dom) * theta1_tau_logderiv(x, dom)


def theta1_power(x, g: float, dom: EllipticDomain):
    """vt1(x)^g with the principal branch on the Re vt1 > 0 domain.

    Integer g is exact for any x.  Otherwise the base must have positive real
    part (real x in (0, 2 ell) mod 2 ell gives vt1 > 0); elsewhere the branch
    is ambiguous and a BranchError is raised.
    """
    v = theta1(x, dom)
    if g == int(round(g)):
        return v ** int(round(g))
    if np.any(np.real(np.asarray(v)) <= 0.0):
        raise BranchError("vt1(x)^g outside principal-branch domain (Re vt1 <= 0)")
    return np.exp(g * np.log(v))


def wp1(x, dom: EllipticDomain):
    """Weierstrass-type function with constant shifted so wp1 = -(ln vt1)''.

    Series form: (pi/2 ell)^2 / sin^2(pi x/2 ell)
                 - 2 (pi/ell)^2 sum_m m p^m/(1-p^m) cos(m pi x/ell).
    The cosine series converges for |Im x| < 2 delta, so the argument is first
    reduced by the imaginary period 2 i delta; the truncation policy then
    certifies the tail with the grown ratio p * max(|z|, 1/|z|).
    """
    x = np.asarray(x, dtype=complex)
    if dom.p > 0.0:
        shift = np.round(np.imag(x) / (2.0 * dom.delta))
        x = x - 2j * dom.delta * shift
    c = math.pi / dom.ell
    s = np.sin(0.5 * c * x)
    if np.any(np.abs(s) < 1e-300):
        raise PoleError("wp1 pole: x on the period lattice")
    out = (0.5 * c) ** 2 / s ** 2
    if dom.p > 0.0:
        z = np.exp(1j * c * x)
        zmax = float(np.max(np.maximum(np.abs(z), 1.0 / np.abs(z)), initial=1.0))
        nt = DEFAULT_POLICY.n_terms(dom.p * zmax, 2.0 / max(1e-300, 1.0 - dom.p))
        pm = 1.0
        for m in range(1, nt + 1):
            pm *= dom.p
            out = out - 2.0 * c ** 2 * m * pm / (1.0 - pm) * np.cos(m * c * x)
    return out if out.shape else complex(out)


@lru_cache(maxsize=None)
def _pair_index(n: int):
    """Row and column indices of the n(n-1)/2 pairs j < k, in row-major order.

    Cached, so they are read-only: every caller shares them.
    """
    j, k = np.triu_indices(n, 1)
    j.flags.writeable = k.flags.writeable = False
    return j, k


def pair_values(fn, a, b=None, *, parity: int | tuple = 0, **kw):
    """fn(differences, **kw) on the pair differences of a, in one vectorised call.

    With b: the (len(a), len(b)) matrix of fn(a_i - b_j).  Without b: fn(a_j - a_k)
    over the pairs j < k in row-major order or, for parity -1 (odd fn) or +1
    (even fn), the n x n matrix with zero diagonal whose lower triangle is filled
    from those values.  For an fn that returns a tuple (theta1_jet), parity has
    one entry per output and the matrices come stacked along a first axis.  The
    call takes its truncation order at the largest |z| + 1/|z| over all pairs,
    so every entry keeps a certified tail bound.
    """
    a = np.asarray(a, dtype=complex)
    if b is not None:
        return fn(np.subtract.outer(a, np.asarray(b, dtype=complex)), **kw)
    j, k = _pair_index(len(a))
    vals = fn(a[j] - a[k], **kw)
    if not parity:
        return vals
    vals = np.asarray(vals)
    out = np.zeros(vals.shape[:-1] + (len(a), len(a)), dtype=complex)
    out[..., j, k] = vals
    out[..., k, j] = np.asarray(parity)[..., None] * vals
    return out


class WpFourierCoeffs:
    """Coefficients of z^{+-m} in the |z|-annulus expansion of wp1.

    wp1(x) = -(pi/ell)^2 sum_{m>=1} m ( z^m + sum_{nu>=1} p^{m nu} (z^m + z^-m) )
    for p < |z| < 1.  Per m, the z^m coefficient is the p-polynomial
    -(pi/ell)^2 m (1 + p^m + p^{2m} + ...), and the z^-m coefficient is the
    same without the leading 1; p-powers are kept symbolic up to order k_max.
    """

    def __init__(self, dom: EllipticDomain, m_max: int, k_max: int):
        self.ell = dom.ell
        self.p = dom.p
        self.m_max = int(m_max)
        self.k_max = int(k_max)
        c = -((math.pi / dom.ell) ** 2)
        # plus[m][k], minus[m][k]: coefficient of z^{+-m} p^k, m = 1..m_max
        self.plus = np.zeros((m_max + 1, k_max + 1))
        self.minus = np.zeros((m_max + 1, k_max + 1))
        for m in range(1, m_max + 1):
            self.plus[m, 0] = c * m
            for nu in range(1, k_max // m + 1):
                self.plus[m, nu * m] = c * m
                self.minus[m, nu * m] = c * m

    def coefficient(self, m: int, p: float | None = None):
        """Numeric z^m coefficient (m may be negative) from the p-power table."""
        p = self.p if p is None else p
        table = self.plus if m > 0 else self.minus
        powers = p ** np.arange(self.k_max + 1)
        return float(table[abs(m)] @ powers)

    def reconstruct(self, x, p: float | None = None):
        """Sum the expansion at z = exp(i pi x/ell) from the tabulated powers.

        The p-independent part sum_m m z^m only converges for |z| < 1, so it is
        resummed as z/(1-z)^2; every p-dependent coefficient is summed as the
        finite p-polynomial stored in the table.
        """
        p = self.p if p is None else p
        z = np.exp(1j * math.pi * np.asarray(x, dtype=complex) / self.ell)
        c = -((math.pi / self.ell) ** 2)
        total = c * z / (1.0 - z) ** 2
        for m in range(1, self.m_max + 1):
            cp = self.coefficient(m, p) - c * m   # p-dependent part of z^m
            total = total + cp * z ** m + self.coefficient(-m, p) * z ** (-m)
        return total


def wp1_fourier_coeffs(dom: EllipticDomain, m_max: int = 32,
                       k_max: int | None = None) -> WpFourierCoeffs:
    """Expansion coefficients of wp1 used by the nome-series solver."""
    if m_max < 1:
        raise DomainError(f"m_max must be >= 1, got {m_max}")
    if k_max is None:
        k_max = max(m_max, DEFAULT_POLICY.n_terms(dom.p, 1.0) if dom.p > 0 else m_max)
    return WpFourierCoeffs(dom, m_max, k_max)


def eta1_over_omega1(dom: EllipticDomain) -> float:
    """(pi/ell)^2 (1/12 - sum_n p^n/(1-p^n)^2)."""
    c = (math.pi / dom.ell) ** 2
    total = 1.0 / 12.0
    if dom.p > 0.0:
        nt = DEFAULT_POLICY.n_terms(dom.p, 1.0 / (1.0 - dom.p) ** 2)
        pn = 1.0
        for _ in range(nt):
            pn *= dom.p
            total -= pn / (1.0 - pn) ** 2
    return c * total


def heat_constant_c0(dom: EllipticDomain) -> float:
    """c0 = (pi/ell)^2 (1/4 - 2 sum_n n p^n/(1-p^n)).

    Cross-identity: c0 = 2 eta1/omega1 + (pi/ell)^2/12 through an independent
    series (checked in the test suite).
    """
    c = (math.pi / dom.ell) ** 2
    total = 0.25
    if dom.p > 0.0:
        nt = DEFAULT_POLICY.n_terms(dom.p, 1.0 / (1.0 - dom.p))
        pn = 1.0
        for n in range(1, nt + 1):
            pn *= dom.p
            total -= 2.0 * n * pn / (1.0 - pn)
    return c * total


def heat_residual(x, dom: EllipticDomain):
    """Relative residual of (i pi/ell^2 d_tau - d_x^2 - c0) vt1 at x."""
    _, zeta, dlog2 = theta1_jet(x, dom)
    tlog = theta1_tau_logderiv(x, dom)
    c0 = heat_constant_c0(dom)
    # vt1'' / vt1 = zeta1^2 + zeta1'
    return (1j * math.pi / dom.ell ** 2) * tlog - (zeta ** 2 + dlog2) - c0
