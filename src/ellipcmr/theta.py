"""Theta function, Weierstrass-type kernels, and their analytic derivatives.

Everything is built from the truncated products

    theta(z; p)  = (1 - z) prod_{n>=1} (1 - p^n z)(1 - p^n / z)
    vt1(x)       = 2 sin(pi x / 2 ell) prod_{n>=1} (1 - p^n z)(1 - p^n / z),
                   z = exp(i pi x / ell),

so that vt1(x) = i z^{-1/2} theta(z; p).  Log-derivatives in x and in tau are
differentiated term by term; finite differences appear only in test oracles.
tau-derivatives use d/dtau = 2 pi i p d/dp, valid since p = e^{2 pi i tau}.
log theta (log_theta_q) is the sum of the factors' principal logs, taken as one
log per block of consecutive factors whose bounds asin|w| on |Arg(1 - w)| sum
below pi.

A walk over the nome ladder forms all its levels' terms at once, stacked on a first
axis, when levels x points fit _STACK, and goes level by level otherwise; _fold
reduces in level order, so either way each result is the per-level loop's bit for bit.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from operator import add, mul, sub
from typing import NamedTuple

import numpy as np

from .domain import DEFAULT_POLICY, EllipticDomain, _check_integers
from .errors import BranchError, DomainError, PoleError

__all__ = [
    "theta_q", "log_theta_q", "theta1", "theta1_logderiv", "theta1_dlog2", "theta1_jet",
    "theta1_dtau", "theta1_tau_logderiv", "theta1_power", "wp1",
    "wp1_fourier_coeffs", "WpFourierCoeffs", "heat_constant_c0",
    "eta1_over_omega1", "heat_residual", "pair_values",
]


def _scale_for(z) -> float:
    az = np.abs(np.asarray(z))
    if (az == 0.0).any():
        raise PoleError("zero argument z")
    return float((az + 1.0 / az).max(initial=2.0))


def _nome_ladder(p: float, z, nt: int | None = None):
    """(n, p^n) for the n = 1..N that DEFAULT_POLICY certifies at |z| + 1/|z|, or N = nt,
    as arrays with z.ndim unit axes after the level axis, so they broadcast against z.

    p^n is the running product p, p*p, ..., not p**n, so every series keeps its rounding.
    At p = 0 there are no terms, and no p^n / z is formed, so z = 0 is allowed there.
    A non-finite z raises DomainError at every p: no truncation order certifies it.
    """
    if not np.isfinite(z).all():
        raise DomainError("non-finite argument z")
    if nt is None:
        nt = 0 if p == 0.0 else DEFAULT_POLICY.n_terms(p, _scale_for(z))
    axes = (nt,) + (1,) * np.ndim(z)
    return np.arange(1, nt + 1).reshape(axes), np.multiply.accumulate(np.full(nt, p)).reshape(axes)


# a walk of levels x points up to _STACK stacks its levels (faster on small arrays only);
# a larger one goes level by level, so its working set stays one level
_STACK = 4096
_REDUCE = {add: np.add, mul: np.multiply, sub: np.subtract}


def _blocks(p: float, z, nt: int | None = None):
    """_nome_ladder's levels as one stacked block if levels x z.size fits _STACK, else one
    (int, float) pair per level, as a per-level loop has them."""
    n, pn = _nome_ladder(p, z, nt)
    if len(n) * np.size(z) <= _STACK:
        return [(n, pn)]
    return zip(n.ravel().tolist(), pn.ravel().tolist())


def _fold(op, acc, *terms):
    """acc op terms[0][k] op terms[1][k] ... over the levels k of a block, rounded as the
    per-level loop: operator calls for one level (terms of acc's ndim), else one reduce
    over the stacked levels, which runs the loop's elementwise calls when the points hold
    two entries or more (one entry is folded as two copies: a one-column reduce rounds
    otherwise), and accumulate on 0-d input, which rounds as the numpy scalars did."""
    if terms[0].ndim == acc.ndim:
        return reduce(op, terms, acc)
    k, shape = len(terms), terms[0].shape[1:]
    stack = np.empty((1 + k * len(terms[0]),) + shape, terms[0].dtype)
    stack[0] = acc
    for j, t in enumerate(terms):
        stack[1 + j::k] = t
    ufunc = _REDUCE[op]
    if not shape:
        return ufunc.accumulate(stack)[-1]
    if stack.size == len(stack):
        return ufunc.reduce(np.concatenate((stack, stack), axis=-1), axis=0)[..., :1]
    return ufunc.reduce(stack, axis=0)


def _scalar_or_array(out):
    return out if out.shape else complex(out)


def _product(z, p: float, head):
    """head prod_n (1 - p^n z)(1 - p^n / z) over the certified nome ladder."""
    for _, pn in _blocks(p, z):
        head = _fold(mul, head, 1.0 - pn * z, 1.0 - pn / z)
    return _scalar_or_array(head)


def theta_q(z, p: float):
    """Truncated product (1-z) prod (1 - p^n z)(1 - p^n / z); p in [0, 1)."""
    z = np.asarray(z, dtype=complex)
    return _product(z, p, 1.0 - z)


def _arg_bound(w_abs: float) -> float:
    """Bound on |Arg(1 - w)| over |w| <= w_abs: asin(w_abs) below 1, else pi."""
    return math.asin(w_abs) if w_abs < 1.0 else math.pi


# a block of factors takes one log while their Arg bounds sum below this; the
# margin under pi covers the rounding of |w| near 1, where asin has slope infinity
_BLOCK_ARG = 3.0


def log_theta_q(z, p: float):
    """log theta(z; p), equal to the sum of the principal logs of the product factors.

    The factors 1 - w (w = z, p^n z, p^n / z) are multiplied in blocks, and each
    block takes one principal log.  |Arg(1 - w)| <= asin|w| for |w| < 1, so the
    principal log of a block whose Arg bounds sum below pi is the sum of its
    factors' principal logs.  |w| is bounded over the whole array (p^n max|z|,
    p^n / min|z|), and a factor with |w| >= 1 counts as pi, so it gets its own log.
    The result is therefore the summed-log branch: smooth and single-valued on the
    annulus p < |z| < 1 (each factor then has positive real part except possibly
    1 - z, which stays in the unit disk), the branch used for theta^g on
    quadrature contours.  At p = 0 it is np.log(1 - z).
    """
    z = np.asarray(z, dtype=complex)
    az = np.abs(z)
    zmax, zmin = float(np.max(az, initial=0.0)), float(np.min(az, initial=np.inf))

    def blocks():
        block, bound = 1.0 - z, _arg_bound(zmax)
        for pn in _nome_ladder(p, z)[1].ravel().tolist():
            for w_abs, factor in ((pn * zmax, 1.0 - pn * z), (pn / zmin, 1.0 - pn / z)):
                b = _arg_bound(w_abs)
                if bound + b < _BLOCK_ARG:
                    block, bound = block * factor, bound + b
                else:
                    yield block
                    block, bound = factor, b
        yield block

    return _scalar_or_array(reduce(add, map(np.log, blocks())))


def _x_z(x, dom: EllipticDomain, reduce: bool = False):
    """(x, z = exp(i pi x/ell)) with x as a complex array; a non-finite x raises
    DomainError before any arithmetic on it.

    With reduce, x is first moved by whole imaginary periods 2 i delta to
    |Im x| <= delta, and at p = 0 (no such period, and no ladder) z is None.
    """
    x = np.asarray(x, dtype=complex)
    if not np.isfinite(x).all():
        raise DomainError("non-finite argument x")
    if reduce:
        if dom.p == 0.0:
            return x, None
        x = x - 2j * dom.delta * np.round(np.imag(x) / (2.0 * dom.delta))
    return x, np.exp(1j * math.pi * x / dom.ell)


def theta1(x, dom: EllipticDomain):
    """Odd theta function vt1(x) = 2 sin(pi x/2 ell) prod (1-p^n z)(1-p^n/z)."""
    x, z = _x_z(x, dom)
    return _product(z, dom.p, 2.0 * np.sin(math.pi * x / (2.0 * dom.ell)))


def _ladder(z, p: float, head, tau: bool = False):
    """(head prod_n (1-w)(1-v), s1, s2, st) over the certified nome ladder, w = p^n z,
    v = p^n/z, with st = d/dtau log theta(z; p) if tau is set and None otherwise:

    s1 = sum_n [ w/(1-w) - v/(1-v) ],   s2 = sum_n [ w/(1-w)^2 + v/(1-v)^2 ],
    st = -2 pi i sum_n n [ w/(1-w) + v/(1-v) ].
    """
    s1 = s2 = st = np.zeros_like(z)
    for n, pn in _blocks(p, z):
        w, v = pn * z, pn / z
        a, b = 1.0 - w, 1.0 - v
        wa, vb = w / a, v / b
        head = _fold(mul, head, a, b)
        s1 = _fold(add, s1, wa - vb)
        s2 = _fold(add, s2, wa / a + vb / b)
        if tau:
            st = _fold(sub, st, n * (wa + vb))
    return head, s1, s2, (2j * math.pi * st if tau else None)


def theta1_jet(x, dom: EllipticDomain, *, _tau: bool = False):
    """(vt1, zeta1, (ln vt1)'') at x from one pass over the nome ladder.

    vt1 is formed exactly as theta1 forms it, and with s1, s2 of _ladder at z,
    zeta1(x)      = (pi/2 ell) cot(pi x/2 ell) - (i pi/ell) s1,
    (ln vt1)''(x) = -(pi/2 ell)^2 / sin^2(pi x/2 ell) + (pi/ell)^2 s2,
    which equals -wp1(x) but stays independent of wp1's cosine series.  _tau appends
    d/dtau ln vt1(x) from the same walk (theta1_tau_logderiv's bits).
    """
    x, z = _x_z(x, dom)
    c = math.pi / dom.ell
    arg = math.pi * x / (2.0 * dom.ell)
    s = np.sin(arg)
    if (np.abs(s) < 1e-300).any():
        raise PoleError("x on the period lattice")
    vt, s1, s2, st = _ladder(z, dom.p, 2.0 * s, _tau)
    zeta = (0.5 * c) * np.cos(arg) / s - (1j * c) * s1
    dlog2 = c * c * s2 - (0.5 * c) ** 2 / s ** 2
    out = _scalar_or_array(vt), _scalar_or_array(zeta), _scalar_or_array(dlog2)
    return out + (_scalar_or_array(st),) if _tau else out


def theta1_logderiv(x, dom: EllipticDomain):
    """zeta1(x) = vt1'(x)/vt1(x), the second output of theta1_jet."""
    return theta1_jet(x, dom)[1]


def theta1_dlog2(x, dom: EllipticDomain):
    """Second log-derivative (ln vt1)''(x) = -wp1(x), the third output of theta1_jet."""
    return theta1_jet(x, dom)[2]


def _wdlog_jet(w, p: float, tau: bool = False):
    """(w d/dw log theta(w; p), (w d/dw)^2 log theta(w; p)) from one pass over the ladder,
    and with tau d/dtau log theta(w; p), which is d/dtau ln vt1(x) at w = e^{i pi x/ell}."""
    w = np.asarray(w, dtype=complex)
    a = 1.0 - w
    _, s1, s2, st = _ladder(w, p, a, tau)
    return (-w / a - s1, -w / a ** 2 - s2) + ((st,) if tau else ())


def theta1_tau_logderiv(x, dom: EllipticDomain):
    """d/dtau ln vt1(x) via d/dtau = 2 pi i p d/dp applied to each factor: _ladder's tau
    series, whose product (head z) is not read; unlike theta1_jet, no pole at x = 0."""
    z = _x_z(x, dom)[1]
    return _scalar_or_array(_ladder(z, dom.p, z, True)[3])


def theta1_dtau(x, dom: EllipticDomain):
    """d/dtau vt1(x), analytic, from one walk whose product is theta1's bit for bit."""
    x, z = _x_z(x, dom)
    vt, _, _, st = _ladder(z, dom.p, 2.0 * np.sin(math.pi * x / (2.0 * dom.ell)), True)
    return _scalar_or_array(vt) * _scalar_or_array(st)


def theta1_power(x, g: float, dom: EllipticDomain):
    """vt1(x)^g with the principal branch on the Re vt1 > 0 domain.

    Integer g is exact for any x.  Otherwise the base must have positive real
    part (real x in (0, 2 ell) mod 2 ell gives vt1 > 0); elsewhere the branch
    is ambiguous and a BranchError is raised.
    """
    return _power(theta1(x, dom), g)


def _power(v, g: float):
    """v^g for values v of vt1 by theta1_power's rule (BranchError off its domain,
    DomainError for a non-finite g)."""
    if not math.isfinite(g):
        raise DomainError(f"exponent g = {g} is not finite")
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
    x, z = _x_z(x, dom, reduce=True)
    c = math.pi / dom.ell
    s = np.sin(0.5 * c * x)
    if (np.abs(s) < 1e-300).any():
        raise PoleError("wp1 pole: x on the period lattice")
    out = (0.5 * c) ** 2 / s ** 2
    if dom.p > 0.0:
        zmax = float(np.maximum(np.abs(z), 1.0 / np.abs(z)).max(initial=1.0))
        nt = DEFAULT_POLICY.n_terms(dom.p * zmax, 2.0 / max(1e-300, 1.0 - dom.p))
        for m, pm in _blocks(dom.p, z, nt):
            out = _fold(sub, out, 2.0 * c ** 2 * m * pm / (1.0 - pm) * np.cos(m * c * x))
    return _scalar_or_array(out)


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

    The coordinates sit on the last axis of a (and b); leading axes index points.
    With b: the matrices fn(a[..., i] - b[..., j]) on the last two axes.  Without b:
    fn(a[..., j] - a[..., k]) over the pairs j < k in row-major order on the last
    axis or, for parity -1 (odd fn) or +1 (even fn), the n x n matrices with zero
    diagonal whose lower triangle is filled from those values.  For an fn that
    returns a tuple (theta1_jet), parity has one entry per output and the results
    come stacked along a first axis.  The call takes its truncation order at the
    largest |z| + 1/|z| over all pairs, so every entry keeps a certified tail bound.
    """
    a = np.asarray(a, dtype=complex)
    if b is not None:
        return fn(a[..., :, None] - np.asarray(b, dtype=complex)[..., None, :], **kw)
    j, k = _pair_index(a.shape[-1])
    # np.take keeps the point axes C-ordered, so per-point sums round as one point's
    vals = fn(np.take(a, j, axis=-1) - np.take(a, k, axis=-1), **kw)
    if not parity:
        return vals
    vals = np.asarray(vals)
    sign = np.reshape(parity, np.shape(parity) + (1,) * (vals.ndim - np.ndim(parity)))
    out = np.zeros(vals.shape[:-1] + a.shape[-1:] * 2, dtype=complex)
    out[..., j, k] = vals
    out[..., k, j] = sign * vals
    return out


class WpFourierCoeffs(NamedTuple):
    """Coefficients of z^{+-m} p^k in the |z|-annulus expansion of wp1, as the tables
    plus[m, k] and minus[m, k], m = 0..m_max (row 0 is zero), k = 0..k_max.

    wp1(x) = -(pi/ell)^2 sum_{m>=1} m ( z^m + sum_{nu>=1} p^{m nu} (z^m + z^-m) )
    for p < |z| < 1, so plus[m, 0] = -(pi/ell)^2 m, plus[m, m nu] = minus[m, m nu] =
    the same for nu >= 1, and every other entry is 0.
    """

    plus: np.ndarray
    minus: np.ndarray


def wp1_fourier_coeffs(dom: EllipticDomain, m_max: int = 32,
                       k_max: int | None = None) -> WpFourierCoeffs:
    """Expansion coefficients of wp1 used by the nome-series solver."""
    _check_integers(1, m_max=m_max)
    if k_max is None:
        k_max = max(m_max, DEFAULT_POLICY.n_terms(dom.p, 1.0) if dom.p > 0 else m_max)
    _check_integers(0, k_max=k_max)
    c = -((math.pi / dom.ell) ** 2)
    plus = np.zeros((m_max + 1, k_max + 1))
    minus = np.zeros((m_max + 1, k_max + 1))
    for m in range(1, m_max + 1):
        plus[m, 0] = c * m
        plus[m, m::m] = minus[m, m::m] = c * m
    return WpFourierCoeffs(plus, minus)


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
    _, zeta, dlog2, tlog = theta1_jet(x, dom, _tau=True)
    c0 = heat_constant_c0(dom)
    # vt1'' / vt1 = zeta1^2 + zeta1'
    return (1j * math.pi / dom.ell ** 2) * tlog - (zeta ** 2 + dlog2) - c0
