"""Nome-series eigenfunctions of the two-variable eCS equation.

With z_j = e^{i pi x_j / ell}, u = z_1/z_2 and dimensionless eigenvalue
Eps = (ell/pi)^2 E, the (non-stationary) equation reads L f = 0 with

    L = -kappa p d_p + 1/2 (z_1 d_1)^2 + 1/2 (z_2 d_2)^2 - Eps - gamma * Phat,
    Phat = sum_{m>=1} m ( u^m + sum_{nu>=1} p^{m nu} (u^m + u^-m) ),

acting on f = z_1^{s_1} z_2^{s_2} sum_{k, n >= -k} a_{n,k} u^n p^k.  Setting the
coefficient of every basis function to zero gives the triangular recursion

    (Eps^(n) - Eps_0 - k kappa) a_{n,k} = sum_{k'=1..k} Eps_{k'} a_{n,k-k'}
        + gamma sum_{m=1..n+k} m a_{n-m,k}
        + gamma sum_{nu=1..k} sum_{m=1..k/nu} m (a_{n-m,k-nu m} + a_{n+m,k-nu m})

with Eps^(n) - Eps_0 = n(n + s_1 - s_2).  Variant I fixes the gauge by
a_{0,k} = 0 (k >= 1), which turns the n = 0 rows into equations for Eps_k;
Variant II keeps kappa != 0 and fixes Eps_k = 0 (k >= 1) instead, determining
the constant part C = 1 + sum a_{0,k} p^k.

Entries are exact finite rational expressions in (s, gamma, kappa): there is
no upward coupling inside a fixed k, so filling k levels in ascending n order
closes.  Level k is filled up to n = n_cap + 2(K - k) + k so every reported
entry (n <= n_cap + k) is exact.  Exact mode, the external cross-check for
rational s and gamma at kappa = 0, keeps each row as int numerators over one
denominator, sums the sources from the rows above in ints and runs the
same-row recursion in ints over one running denominator (fraction-free, as in
Bareiss elimination), then makes one Fraction per entry.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .domain import EllipticDomain, _check_integers
from .errors import DomainError, ResonanceError
from .theta import wp1_fourier_coeffs

__all__ = [
    "PSeriesTable", "solve_variant_I", "solve_variant_II", "apply_L_series",
    "LaurentPSeries", "eigenvalue_from_gauge", "pseries_log", "pseries_inv",
]

_RES_GUARD = 1e-10
# imaginary kappa ladder 2^-4 i .. 2^-10 i of eigenvalue_from_gauge
_GAUGE_KAPPAS = tuple(1j * 2.0 ** (-j) for j in range(4, 11))


@dataclass(frozen=True)
class PSeriesTable:
    """Solved coefficient table a_{n,k} and eigenvalue series Eps_0..Eps_K."""

    K: int
    s: tuple
    gamma: complex
    kappa: complex
    n_cap: int
    variant: str
    a: dict
    eps: tuple
    exact: bool = False

    def coefficient(self, n: int, k: int):
        return self.a.get((n, k), 0.0)

    def constant_part(self):
        """C = 1 + sum_{k>=1} a_{0,k} p^k as a coefficient array."""
        return np.array([self.coefficient(0, k) for k in range(self.K + 1)], dtype=complex)

    def normalized_coefficients(self) -> dict:
        """Coefficients of f / C: the gauge-invariant normal form (constant part 1)."""
        cinv = pseries_inv(self.constant_part())
        out = {}
        for k in range(self.K + 1):
            for n in range(-k, self.n_cap + k + 1):
                v = sum(self.coefficient(n, k - j) * cinv[j] for j in range(k + 1))
                out[(n, k)] = v
        return out

    def to_dict(self) -> dict:
        """JSON-ready dict; an exact value with no float raises DomainError naming it."""
        def num(v, name, kind=complex):
            try:
                return kind(v)
            except OverflowError:
                raise DomainError(f"{name} is too large for a float: the table has "
                                  "no JSON form") from None

        def pair(v, name):
            v = num(v, name)
            return [v.real, v.imag]

        entries = [[n, k, *pair(self.a[(n, k)], f"a_({n},{k})")] for n, k in sorted(self.a)]
        eps = [pair(e, f"Eps_{k}") for k, e in enumerate(self.eps)]
        d = {
            "schema": 1,
            "variant": self.variant,
            "K": self.K,
            "n_cap": self.n_cap,
            "s": [num(v, f"s_{i}", float) for i, v in enumerate(self.s, 1)],
            "gamma": pair(self.gamma, "gamma"),
            "kappa": pair(self.kappa, "kappa"),
            "entries": entries,
            "eps": eps,
        }
        if self.exact:
            d["s_exact"] = [str(Fraction(self.s[0])), str(Fraction(self.s[1]))]
            d["gamma_exact"] = str(Fraction(self.gamma))
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PSeriesTable":
        a = {(int(n), int(k)): complex(re, im) for n, k, re, im in d["entries"]}
        eps = tuple(complex(re, im) for re, im in d["eps"])
        return cls(K=int(d["K"]), s=tuple(d["s"]),
                   gamma=complex(d["gamma"][0], d["gamma"][1]),
                   kappa=complex(d["kappa"][0], d["kappa"][1]),
                   n_cap=int(d["n_cap"]), variant=d["variant"], a=a, eps=eps)


def _fill_window(K: int, n_cap: int, k):
    """First and last n filled in row k: -k .. n_cap + 2(K - k) + k."""
    return -k, n_cap + 2 * (K - k) + k


def _exact_sources(rows, dens, eps, gamma, k, lo, hi):
    """Row k's sources from the rows above (a_{n,r} = rows[r, n + 2K] / dens[r]), summed in ints.

    Returns (S, P): the source at column lo + j is S[j] / P.
    """
    gn, gd = gamma.numerator, gamma.denominator
    # row k - d: Eps_d a_n + gamma sum_{m|d} m (a_{n-m} + a_{n+m}) over Eps_d's denominator
    # times gd dens[k - d]; Eps_k a_{n,0} is left to the same-row loop
    ed = [1] + [e.denominator for e in eps[1:k]] + [1]
    den = math.lcm(*(ed[d] * gd * dens[k - d] for d in range(1, k + 1)))
    num = np.zeros(hi - lo, dtype=object)
    for d in range(1, k + 1):
        above = rows[k - d]
        nu = sum(m * (above[lo - m:hi - m] + above[lo + m:hi + m])
                 for m in range(1, d + 1) if d % m == 0)
        c = den // (ed[d] * gd * dens[k - d])
        num += c * gn * ed[d] * nu
        if d < k and eps[d] != 0:
            num += c * gd * eps[d].numerator * above[lo:hi]
    return num.tolist(), den


def _exact_row(rows, dens, eps, gamma, delta, k, n_lo, lo, hi):
    """Fill row k of an exact table (kappa = 0, Variant I) in ints; return its entries.

    With gamma = gn/gd and s1 - s2 = dn/dd, the running sums acc = A/Q and
    conv = C/Q share one denominator Q, which starts at the sources' P and takes
    the factor gd n(n dd + dn) of each solved entry; scale = gd Q/P keeps the
    sources on it.  rhs = R/(gd Q) with R = S scale + E a_{n,0} dens[0] + gn C,
    where E = gd Q Eps_k / dens[0] once the gauge entry n = 0 has given Eps_k.
    Each entry becomes one Fraction; rows[k] and dens[k] get the row over the
    lcm of its denominators.
    """
    gn, gd = gamma.numerator, gamma.denominator
    dn, dd = delta.numerator, delta.denominator
    src, Q = _exact_sources(rows, dens, eps, gamma, k, lo, hi)
    a0 = rows[0, lo:hi].tolist()        # a_{n,0} dens[0], zero below n = 0 and in row 0
    scale, A, C, E = gd, 0, 0, 0
    vals = []
    for j, n in enumerate(range(n_lo, n_lo + hi - lo)):
        R = src[j] * scale + E * a0[j] + gn * C
        num = 0                         # the entry is num/Q
        if n == 0 and k == 0:
            num = Q
        elif n == 0:
            # gauge a_{0,k} = 0: the row determines Eps_k; from here on its source
            # Eps_k a_{n,0} is E a0[j] over gd Q, with Q made a multiple of dens[0]
            eps.append(Fraction(-R, gd * Q))
            g = math.gcd(dens[0], R)
            t = dens[0] // g
            Q, A, C, scale, E = Q * t, A * t, C * t, scale * t, -R // g
        elif (dnum := n * (n * dd + dn)) == 0:     # divisor n(n + s1 - s2) = dnum/dd
            if R != 0:    # any nonzero source is unresolvable, whatever the size of gamma
                raise ResonanceError(f"unresolvable resonance at (n,k)=({n},{k}): "
                                     "zero divisor with a nonzero exact source")
        else:
            f = gd * dnum
            Q, A, C, scale, E = Q * f, A * f, C * f, scale * f, E * f
            num = R * dd
        A += num
        C += A
        vals.append(Fraction(num, Q))
    dens.append(math.lcm(*(v.denominator for v in vals)))
    rows[k, lo:hi] = [v.numerator * (dens[k] // v.denominator) for v in vals]
    return vals


def _solve(s, gamma, kappa, K, n_cap, variant, exact):
    _check_integers(0, K=K, n_cap=n_cap)
    s1, s2 = s
    if exact:
        try:
            s1, s2, gamma = Fraction(s1), Fraction(s2), Fraction(gamma)
        except (TypeError, ValueError, OverflowError):
            raise DomainError(f"exact mode needs rational s, gamma; got {s!r}, {gamma!r}") from None
        if kappa != 0:
            raise DomainError("exact mode supports kappa = 0 only")
        kappa = Fraction(0)
    else:
        if not all(cmath.isfinite(complex(v)) for v in (s1, s2, gamma, kappa)):
            raise DomainError("s, gamma and kappa must be finite")
        gamma, kappa = complex(gamma), complex(kappa)
    delta = s1 - s2

    if variant == "II" and kappa == 0:
        raise DomainError("Variant II needs kappa != 0")

    # Row k holds a_{n,k} (exact: its int numerator over dens[k]) at column n + 2K over its fill
    # window; the zero columns on either side keep every shift n -+ m (m <= K) inside the array.
    off = 2 * K
    rows = np.zeros((K + 1, n_cap + 5 * K + 1), dtype=object if exact else complex)
    a, dens = {}, []
    eps = [(s1 * s1 + s2 * s2) / 2]
    zero, one = 0.0 + 0.0j, 1.0 + 0.0j
    running_scale = 1.0

    for k in range(K + 1):
        n_lo, n_hi = _fill_window(K, n_cap, k)
        lo, hi = n_lo + off, n_hi + off + 1
        if exact:
            vals = _exact_row(rows, dens, eps, gamma, delta, k, n_lo, lo, hi)
            a.update(zip(((n, k) for n in range(n_lo, n_hi + 1)), vals))
            continue
        # sources from the rows above, for the whole row at once
        pre = np.full(hi - lo, zero, dtype=rows.dtype)
        for kp in range(1, k):
            if eps[kp] != 0:
                pre += eps[kp] * rows[k - kp, lo:hi]
        nu_sum = np.full(hi - lo, zero, dtype=rows.dtype)
        for d in range(1, k + 1):         # d = nu m: row k - d, every m | d
            above = rows[k - d]
            for m in range(1, d + 1):
                if d % m == 0:
                    nu_sum += m * (above[lo - m:hi - m] + above[lo + m:hi + m])
        pre = (pre + gamma * nu_sum).tolist()

        # same row: conv = sum_m m a_{n-m,k} from two running sums (acc += a_n,
        # conv += acc), Kahan-compensated so the rounding of a long row does not
        # pile up in its later entries
        vals = []
        acc = conv = acc_c = conv_c = zero
        for j, n in enumerate(range(n_lo, n_hi + 1)):
            if n == 0 and k == 0:
                v = one
            else:
                rhs = pre[j]
                if n > 0 and k >= 1 and eps[k] != 0:
                    rhs += eps[k] * a0[n]
                rhs += gamma * conv
                div = n * (n + delta) - k * kappa
                if n == 0 and k >= 1 and variant == "I":
                    # row determines Eps_k (divisor is -k kappa, zero in the
                    # stationary case); gauge a_{0,k} = 0
                    eps.append(-rhs)
                    v = zero
                elif n == 0 and k >= 1 and variant == "II":
                    eps.append(zero)
                    v = rhs / div
                elif abs(div) < _RES_GUARD:
                    if variant == "II" and k >= 1:
                        raise ResonanceError(f"small divisor at (n,k)=({n},{k}) for kappa={kappa}")
                    src = abs(rhs)
                    if src > 1e-9 * max(1.0, running_scale) * max(1.0, abs(gamma)):
                        raise ResonanceError(f"unresolvable resonance at (n,k)=({n},{k}): "
                                             f"divisor {complex(div):.2e} with source {src:.2e}")
                    v = zero     # resolvable: source vanishes identically
                else:
                    v = rhs / div
                running_scale = max(running_scale, abs(v))
            vals.append(v)
            y = v - acc_c
            t = acc + y
            acc_c, acc = (t - acc) - y, t
            y = acc - conv_c
            t = conv + y
            conv_c, conv = (t - conv) - y, t
        rows[k, lo:hi] = vals
        if k == 0:
            a0 = vals                # a_{n,0} at index n
        a.update(zip(((n, k) for n in range(n_lo, n_hi + 1)), vals))

    return PSeriesTable(K=K, s=(s1, s2), gamma=gamma, kappa=kappa, n_cap=n_cap,
                        variant=variant, a=a, eps=tuple(eps), exact=exact)


def solve_variant_I(s, gamma, K: int, n_cap: int = 16, kappa: complex = 0.0,
                    exact: bool = False) -> PSeriesTable:
    """Gauge a_{0,k} = 0 (k >= 1); the n = 0 rows determine Eps_k.

    Integer s_1 - s_2 hits zero divisors at n = -(s_1 - s_2); these are
    resolvable exactly when the source term vanishes (it does at the physical
    points s = (lambda_1 + g/2, lambda_2 - g/2), where the coefficient is set
    to zero), otherwise a ResonanceError is raised.
    """
    return _solve(s, gamma, kappa, K, n_cap, "I", exact)


def solve_variant_II(s, gamma, kappa, K: int, n_cap: int = 16,
                     exact: bool = False) -> PSeriesTable:
    """Gauge Eps_k = 0 (k >= 1) at kappa != 0; n = 0 rows determine a_{0,k}.

    kappa must keep every filled divisor n(n + s_1 - s_2) - k kappa (k >= 1)
    away from zero (an imaginary part suffices); the first violation raises
    ResonanceError, whatever its source.
    """
    return _solve(s, gamma, kappa, K, n_cap, "II", exact)


class LaurentPSeries:
    """Truncated double series sum c_{n,k} u^n p^k (result of apply_L_series)."""

    def __init__(self, data: dict, K: int):
        self.data = data
        self.K = K

    def coefficient(self, n: int, k: int):
        return self.data.get((n, k), 0.0)

    def max_abs(self) -> float:
        return max((abs(v) for v in self.data.values()), default=0.0)


def apply_L_series(table: PSeriesTable) -> LaurentPSeries:
    """Apply L to the stored series exactly in the truncated ring.

    Independent route: the p-expansion coefficients of the potential come from
    the two tables of wp1_fourier_coeffs (rescaled to the dimensionless Phat), each
    operator piece acts by series arithmetic (the potential by one array slice per
    nonzero table entry), and the residual coefficients are collected on the window
    k <= K, -k <= n <= n_cap (where the truncation is exact).  For a correctly solved
    table every entry vanishes.  L is dimensionless, so the coefficients are taken
    at the fixed domain ell = pi, p = 0.
    """
    K, n_cap = table.K, table.n_cap
    s1, s2 = complex(table.s[0]), complex(table.s[1])
    gamma, kappa = complex(table.gamma), complex(table.kappa)
    m_max = n_cap + 3 * K + 1
    fc = wp1_fourier_coeffs(EllipticDomain.from_nome(math.pi, 0.0), m_max=m_max, k_max=K)
    # Phat = -(ell/pi)^2 * wp1-coefficients, at ell = pi; [m, k] -> coeff of u^m p^k
    phat_plus, phat_minus = -fc.plus, -fc.minus

    eps = np.array([complex(e) for e in table.eps])
    # dense copy of the table over the reach of every shift below,
    # n = n_lo .. n_cap + m_max; other entries are never read
    n_lo = -K - m_max
    dense = np.zeros((K + 1, n_cap + m_max - n_lo + 1), dtype=complex)
    for (n, k), v in table.a.items():
        if 0 <= k <= K and n_lo <= n <= n_cap + m_max:
            dense[k, n - n_lo] = complex(v)

    def f(shift, k_top):
        """Rows 0..k_top - 1 of the table at n + shift, n = -K .. n_cap."""
        c = shift - K - n_lo
        return dense[:k_top, c:c + n_cap + K + 1]

    # residual at every (n, k), n = -K .. n_cap; rows keep only n >= -k
    # Euler and p d_p parts (diagonal)
    e_n = np.array([0.5 * (n + s1) ** 2 + 0.5 * (s2 - n) ** 2 for n in range(-K, n_cap + 1)])
    res = (e_n - kappa * np.arange(K + 1)[:, None]) * f(0, K + 1)
    # -Eps * f as a p-product
    for kp in range(K + 1):
        res[kp:] -= eps[kp] * f(0, K + 1 - kp)
    # -gamma * Phat * f over the nonzero table entries, kp outer and m ascending
    for kp, m in np.argwhere(((phat_plus != 0.0) | (phat_minus != 0.0)).T).tolist():
        for coef, shift in ((phat_plus[m, kp], -m), (phat_minus[m, kp], m)):
            if coef != 0.0:
                res[kp:] -= gamma * coef * f(shift, K + 1 - kp)
    out = {}
    for k, row in enumerate(res.tolist()):
        out.update(((n, k), row[n + K]) for n in range(-k, n_cap + 1))
    return LaurentPSeries(out, K)


def pseries_inv(c):
    """Multiplicative inverse of a p-series with c[0] != 0."""
    c = np.asarray(c, dtype=complex)
    if c[0] == 0:
        raise DomainError("series has no inverse: zero constant term")
    out = np.zeros_like(c)
    out[0] = 1.0 / c[0]
    for k in range(1, len(c)):
        out[k] = -sum(c[j] * out[k - j] for j in range(1, k + 1)) / c[0]
    return out


def pseries_log(c):
    """log of a p-series with c[0] = 1, via L' C = C' term matching."""
    c = np.asarray(c, dtype=complex)
    if abs(c[0] - 1.0) > 1e-12:
        raise DomainError("log series needs constant term 1")
    out = np.zeros_like(c)
    for k in range(1, len(c)):
        out[k] = c[k] - sum(j * out[j] * c[k - j] for j in range(1, k)) / k
    return out


def gauge_eps_series(tableII: PSeriesTable):
    """Eps_k of the a_{0,k} = 0 gauge at the same kappa: kappa * k * [log C]_k.

    Exact at every kappa (not just the limit); follows from transferring the
    gauge factor C through the -kappa p d_p term.
    """
    logc = pseries_log(tableII.constant_part())
    kap = complex(tableII.kappa)
    out = np.array([kap * k * logc[k] for k in range(tableII.K + 1)])
    out[0] = complex(tableII.eps[0])
    return out


def _neville(xs, ys):
    table = [list(ys)]
    for lev in range(1, len(xs)):
        row = []
        for i in range(len(xs) - lev):
            num = -xs[i + lev] * table[lev - 1][i] + xs[i] * table[lev - 1][i + 1]
            row.append(num / (xs[i] - xs[i + lev]))
        table.append(row)
    return table[-1][0]


def eigenvalue_from_gauge(s, gamma, K: int, n_cap: int = 16):
    """Variant-I eigenvalue series recovered from Variant-II constant parts.

    Evaluates kappa * k * [log C^{II}]_k on a shrinking ladder of imaginary
    kappa values and extrapolates kappa -> 0 by Neville's scheme.  The ladder
    stops at 2^-10: the Variant-II coefficients grow like kappa^{-k}, so
    smaller kappa trades truncation error for roundoff.
    """
    xs = [abs(k) for k in _GAUGE_KAPPAS]
    series = []
    for kap in _GAUGE_KAPPAS:
        t2 = solve_variant_II(s, gamma, kap, K, n_cap)
        series.append(gauge_eps_series(t2))
    out = np.zeros(K + 1, dtype=complex)
    out[0] = series[0][0]
    for k in range(1, K + 1):
        out[k] = _neville(xs, [ser[k] for ser in series])
    return out
