"""Contour-quadrature kernel transforms and elliptic Jack-type eigenfunctions.

Circle contours use the equispaced trapezoid rule, spectrally accurate for
analytic periodic integrands; node counts are powers of two so a node-doubling
delta certifies every reported value.  theta powers on contours are taken with
the factor-wise principal logarithm of theta, single-valued on p < |w| < 1;
all contours are chosen so every theta argument stays in that annulus, and the
total winding of the assembled integrand is monitored.

The two-variable eigenfunction integral is

    P_lam(z) = (z1 z2)^{lam2} . mean_{|xi| = R} xi^{lam1 - lam2}
               / ( theta(z1/xi; p)^g theta(z2/xi; p)^g ),   1 < R < 1/p,

which at p = 0, g = 1 reduces by residue calculus to the Schur polynomial
s_lam(z1, z2); the double-contour building block is

    F_lam(z) = mean_{|xi1| = R1} mean_{|xi2| = R2} xi1^{lam1} xi2^{lam2}
               theta(xi1/xi2; p)^g / prod_{i,j} theta(z_i/xi_j; p)^g,

with 1 < R1 < R2 < 1/p (at p = 0, g = 1 this is the Jacobi-Trudi determinant
h_{lam1} h_{lam2} - h_{lam1+1} h_{lam2-1}).  On equispaced nodes the cross
factor theta(xi1_a/xi2_b)^g depends on a - b only: it is a circulant matrix
fixed by one row of theta values, and the double mean is a circular
convolution done by FFT, O(N log N) per moment instead of N^2 theta values.
Values are reported raw: no normalization is fixed, only proportionality to
reference polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .domain import EllipticDomain
from .errors import ConvergenceError, DomainError, SeamError, WindowError
from .kernels import KernelSpec, kernel_K
from .pseries import PSeriesTable
from .theta import _tau_dlog_theta, _wdlog_jet, log_theta_q

__all__ = [
    "Partition2", "ContourConfig", "ContourResult", "n2_single_contour_P",
    "contour_F_lambda", "assemble_P_lambda", "eigen_residuals_P_lambda",
    "single_contour_psi_field", "kernel_transform",
]

# relative mismatch allowed between the endpoint values of a closed line contour
_SEAM_TOL = 1e-10


@dataclass(frozen=True)
class Partition2:
    """Two-row partition (lam1 >= lam2); lam2 < 0 is reachable by translation."""

    lam1: int
    lam2: int

    def __post_init__(self):
        if self.lam1 < self.lam2:
            raise DomainError("need lam1 >= lam2")


@dataclass(frozen=True)
class ContourConfig:
    """Circle radii (None = window defaults) and per-circle node count."""

    R1: Optional[float] = None
    R2: Optional[float] = None
    nodes: int = 256

    def __post_init__(self):
        if self.nodes < 64 or (self.nodes & (self.nodes - 1)) != 0:
            raise DomainError("nodes must be a power of two >= 64")

    def radii(self, p: float):
        """Defaults sit at the geometric thirds of the window (1, 1/p)."""
        top = 1.0 / p if p > 0 else 16.0
        r1 = self.R1 if self.R1 is not None else top ** (1.0 / 3.0)
        r2 = self.R2 if self.R2 is not None else top ** (2.0 / 3.0)
        if not (1.0 < r1 < r2 < top):
            raise WindowError(f"radii must satisfy 1 < R1 < R2 < 1/p, got ({r1}, {r2})")
        return r1, r2

    def single_radius(self, p: float) -> float:
        top = 1.0 / p if p > 0 else 4.0
        r = self.R1 if self.R1 is not None else math.sqrt(top)
        if not (1.0 < r < top):
            raise WindowError(f"radius must satisfy 1 < R < 1/p, got {r}")
        return r


class ContourResult(NamedTuple):
    value: complex
    node_delta: float


def _nodes(radius: float, count: int):
    return radius * np.exp(2j * math.pi * np.arange(count) / count)


def _check_winding(values, what: str):
    """Total argument change of the theta-power factor must vanish on a loop.

    Integer monomial powers wind harmlessly and are excluded by the callers;
    a nonzero total (or a jump between nodes) signals a crossed branch cut,
    i.e. a contour outside the zero-free annulus.
    """
    v = np.asarray(values).ravel()
    steps = np.angle(np.roll(v, -1) / v)
    total = float(np.sum(steps))
    if abs(total) > math.pi or np.max(np.abs(steps)) > 0.5 * math.pi:
        raise WindowError(f"{what}: theta-power factor winds by {total / (2 * math.pi):.2f} turns")


def _node_doubled(value_at: Callable, nodes: int) -> ContourResult:
    """value_at(2 nodes) certified by its distance from value_at(nodes)."""
    a = value_at(nodes)
    b = value_at(2 * nodes)
    return ContourResult(value=complex(b), node_delta=abs(b - a))


def _single_integrand(lam_diff: int, lam2: int, z, xi, g: float, p: float):
    """Prefactor (z1 z2)^lam2 and integrand xi^lam_diff / prod_j theta(z_j/xi)^g."""
    theta_part = np.exp(-g * (log_theta_q(z[0] / xi, p) + log_theta_q(z[1] / xi, p)))
    _check_winding(theta_part, "single contour")
    return (z[0] * z[1]) ** lam2, xi ** lam_diff * theta_part


def n2_single_contour_P(lam_diff: int, lam2: int, z, g: float, p: float,
                        cfg: ContourConfig = ContourConfig()) -> ContourResult:
    """Single-contour P for N = 2: lam = (lam2 + lam_diff, lam2), lam_diff >= 0.

    The contour |xi| = R must satisfy p < |z_j|/R < 1; psi0 * P solves the
    kappa = g non-stationary equation (certified in the test suite).
    """
    if lam_diff < 0:
        raise DomainError("need lam1 - lam2 >= 0")
    z = np.asarray(z, dtype=complex)
    r = cfg.single_radius(p)
    for zj in z:
        if not (p < abs(zj) / r < 1.0):
            raise WindowError(f"|z|/R = {abs(zj) / r} outside (p, 1)")

    def P(count):
        pref, integrand = _single_integrand(lam_diff, lam2, z, _nodes(r, count), g, p)
        return complex(pref * np.mean(integrand))

    return _node_doubled(P, cfg.nodes)


def _f_moments(mu_pairs, z, g: float, p: float, r1: float, r2: float,
               count: int, derivs: bool = False):
    """F_mu (and optional z-Euler moments) for a list of (mu1, mu2) pairs.

    F = mean_a mean_b xi1^mu1 xi2^mu2 M_ab with M_ab = c_{a-b} u_a v_b, where
    u_a = prod_i theta(z_i/xi1a)^-g, v_b = prod_i theta(z_i/xi2b)^-g and
    c_k = theta((r1/r2) w^k)^g, w = e^{2 pi i/count}: xi1a/xi2b depends on
    a - b only, so the cross factor is circulant and one row of theta values
    defines it.  Every contraction M @ y / count is then the circular
    convolution u * ifft(fft(c) fft(v y)) / count, taken for all pairs at
    once along the last axis.
    """
    xi1 = _nodes(r1, count)
    xi2 = _nodes(r2, count)
    u = np.exp(-g * (log_theta_q(z[0] / xi1, p) + log_theta_q(z[1] / xi1, p)))
    v = np.exp(-g * (log_theta_q(z[0] / xi2, p) + log_theta_q(z[1] / xi2, p)))
    c = np.exp(g * log_theta_q(_nodes(r1 / r2, count), p))
    # the theta-power factor of the integrand along each contour: M[:, 0] and M[0, :]
    _check_winding(c * u * v[0], "F contour 1")
    _check_winding(np.roll(c[::-1], 1) * u[0] * v, "F contour 2")
    _check_winding(u, "F z-legs on contour 1")
    _check_winding(v, "F z-legs on contour 2")
    # np.fft by attribute: numpy loads it lazily, so importing ellipcmr stays cheap
    c_hat = np.fft.fft(c)

    def conv(y):
        return u * np.fft.ifft(c_hat * np.fft.fft(v * y)) / count

    m1, m2 = np.array(mu_pairs).T
    w1 = xi1 ** m1[:, None]
    w2 = xi2 ** m2[:, None]
    col = conv(w2)
    out = {"F": np.mean(w1 * col, axis=-1)}
    if derivs:
        # al = z_i dlog of the xi1-leg, be of the xi2-leg; al2, be2 second order
        for i, k1, k2 in ((0, "D1", "D11"), (1, "D2", "D22")):
            al, al2 = (-g * d for d in _wdlog_jet(z[i] / xi1, p))
            be, be2 = (-g * d for d in _wdlog_jet(z[i] / xi2, p))
            colb = conv(w2 * be)
            colb2 = conv(w2 * (be ** 2 + be2))
            out[k1] = np.mean(w1 * (al * col + colb), axis=-1)
            out[k2] = np.mean(w1 * ((al ** 2 + al2) * col + 2.0 * al * colb + colb2), axis=-1)
    return out


def contour_F_lambda(lam1: int, lam2: int, z, g: float, p: float,
                     cfg: ContourConfig = ContourConfig()) -> ContourResult:
    """Double-contour F_lam with its node-doubling certificate."""
    z = np.asarray(z, dtype=complex)
    r1, r2 = cfg.radii(p)
    return _node_doubled(
        lambda count: _f_moments([(lam1, lam2)], z, g, p, r1, r2, count)["F"][0],
        cfg.nodes)


def _check_table(lam: Partition2, table: PSeriesTable, g: float):
    s_want = (lam.lam1 + g / 2.0, lam.lam2 - g / 2.0)
    if (abs(complex(table.s[0]) - s_want[0]) > 1e-12
            or abs(complex(table.s[1]) - s_want[1]) > 1e-12):
        raise DomainError(f"table solved at s={table.s}, but lam={lam} needs s={s_want}")


def _assembly_weights(lam: Partition2, table: PSeriesTable, p: float, K: int):
    """Per-n weights sum_k a_{n,k} p^k and the (mu1, mu2) pair list."""
    ns = range(-K, table.n_cap + 1)
    pairs, weights = [], []
    for n in ns:
        w = sum(complex(table.coefficient(n, k)) * p ** k for k in range(K + 1))
        pairs.append((lam.lam1 + n, lam.lam2 - n))
        weights.append(w)
    return pairs, np.array(weights)


def assemble_P_lambda(lam: Partition2, table: PSeriesTable, z, g: float, p: float,
                      cfg: ContourConfig = ContourConfig(),
                      K: Optional[int] = None) -> ContourResult:
    """P_lam(z) = sum_{k <= K} sum_n a_{n,k} F_{lam1+n, lam2-n}(z) p^k.

    The table must be a Variant-I solve at s = (lam1 + g/2, lam2 - g/2); K
    defaults to the table's truncation order.
    """
    _check_table(lam, table, g)
    K = table.K if K is None else K
    if K > table.K:
        raise DomainError(f"K={K} exceeds table order {table.K}")
    z = np.asarray(z, dtype=complex)
    r1, r2 = cfg.radii(p)
    pairs, weights = _assembly_weights(lam, table, p, K)
    return _node_doubled(
        lambda count: _f_moments(pairs, z, g, p, r1, r2, count)["F"] @ weights,
        cfg.nodes)


def eigen_residuals_P_lambda(lam: Partition2, table: PSeriesTable, x, g: float,
                             dom: EllipticDomain, cfg: ContourConfig = ContourConfig(),
                             Ks: Optional[Sequence[int]] = None):
    """|H_2 psi - E psi| / |psi| for psi = psi0 P_lam at real x, per order K.

    All derivatives are analytic: psi0 contributes zeta1/wp1 log-derivatives
    and P contributes Euler moments differentiated under the integral; E is
    (pi/ell)^2 times the truncated eigenvalue series of the table.  The
    contour moments are computed once and shared across the requested orders.
    """
    from .theta import theta1_jet

    _check_table(lam, table, g)
    Ks = list(Ks) if Ks is not None else [table.K]
    if max(Ks) > table.K:
        raise DomainError(f"K={max(Ks)} exceeds table order {table.K}")
    x = np.asarray(x, dtype=float)
    p = dom.p
    z = np.exp(1j * math.pi * x / dom.ell)
    r1, r2 = cfg.radii(p)
    pairs, _ = _assembly_weights(lam, table, p, table.K)
    mom = _f_moments(pairs, z, g, p, r1, r2, cfg.nodes, derivs=True)

    u = x[0] - x[1]
    _, zl, dl = theta1_jet(u, dom)
    wp = -dl                                   # wp1 = -(ln vt1)''
    ipl = 1j * math.pi / dom.ell
    out = []
    for K in Ks:
        # a_{n,k} = 0 for n < -k, so order K drops the first table.K - K pairs
        _, weights = _assembly_weights(lam, table, p, K)
        m = {key: val[table.K - K:] for key, val in mom.items()}
        P = m["F"] @ weights
        if abs(P) == 0.0:
            raise ConvergenceError("assembled P vanished at this point")
        d = {key: (m[key] @ weights) / P for key in ("D1", "D11", "D2", "D22")}
        h = 0.0 + 0.0j
        for i, (first, second) in enumerate((("D1", "D11"), ("D2", "D22"))):
            li = g * zl * (1.0 if i == 0 else -1.0)      # d_i ln psi0
            psi_ii = (li * li - g * wp) + 2.0 * li * ipl * d[first] + ipl ** 2 * d[second]
            h += -0.5 * psi_ii
        h += g * (g - 1.0) * wp
        E = (math.pi / dom.ell) ** 2 * sum(complex(table.eps[k]) * p ** k
                                           for k in range(K + 1))
        out.append(abs(h - E))
    return np.array(out)


def single_contour_psi_field(lam_diff: int, lam2: int, g: float, dom: EllipticDomain,
                             cfg: ContourConfig = ContourConfig()):
    """psi(x) = psi0(x) P_lam(z(x)) as a SmoothField with analytic derivatives.

    psi0 = vt1(x1-x2)^g; x-derivatives of P are Euler moments differentiated
    under the integral and the tau-derivative follows from the p-dependence of
    the contour theta factors, so operators.nonstationary_residual can certify
    the kappa = g equation directly.
    """
    from .fields import SmoothField
    from .theta import theta1_jet, theta1_logderiv, theta1_power, theta1_tau_logderiv

    p = dom.p
    r = cfg.single_radius(p)
    xi = _nodes(r, cfg.nodes)
    sigma = (1.0, -1.0)

    memo = {}

    def moments(x):
        # value and derivatives at one x share these moments: keep the last x
        x = np.asarray(x, dtype=complex)
        key = x.tobytes()
        if key in memo:
            return memo[key]
        z = np.exp(1j * math.pi * x / dom.ell)
        pref, base = _single_integrand(lam_diff, lam2, z, xi, g, p)
        P = pref * np.mean(base)
        d = {}
        for i in range(2):
            e1, e2 = _wdlog_jet(z[i] / xi, p)
            al = lam2 - g * e1                    # z_i-Euler weight
            al2 = -g * e2
            d[("e1", i)] = pref * np.mean(base * al)
            d[("e2", i)] = pref * np.mean(base * (al * al + al2))
        tau_w = -g * (_tau_dlog_theta(z[0] / xi, p) + _tau_dlog_theta(z[1] / xi, p))
        d["tau"] = pref * np.mean(base * tau_w)
        memo.clear()
        memo[key] = P, d
        return P, d

    def val(x):
        P, _ = moments(x)
        return complex(theta1_power(x[0] - x[1], g, dom) * P)

    def d1(x, i):
        P, d = moments(x)
        psi0 = theta1_power(x[0] - x[1], g, dom)
        li = sigma[i] * g * theta1_logderiv(x[0] - x[1], dom)
        return complex(psi0 * (li * P + (1j * math.pi / dom.ell) * d[("e1", i)]))

    def d2(x, i):
        P, d = moments(x)
        u = x[0] - x[1]
        psi0 = theta1_power(u, g, dom)
        _, zl, dl = theta1_jet(u, dom)
        li = sigma[i] * g * zl
        lii = g * dl                              # -g wp1
        ipl = 1j * math.pi / dom.ell
        return complex(psi0 * ((li * li + lii) * P
                               + 2.0 * li * ipl * d[("e1", i)]
                               + ipl ** 2 * d[("e2", i)]))

    def dtau(x):
        P, d = moments(x)
        u = x[0] - x[1]
        psi0 = theta1_power(u, g, dom)
        return complex(psi0 * (g * theta1_tau_logderiv(u, dom) * P + d["tau"]))

    return SmoothField(value=val, d1=d1, d2=d2, dtau=dtau)


def kernel_transform(spec: KernelSpec, source: Callable, x, dom: EllipticDomain,
                     nodes: int = 256) -> ContourResult:
    """Generic transform int K_{N,M}(x, y) source(y) dy over line contours.

    Each y_j runs over the straight line from -ell - i eps_j to +ell - i eps_j,
    eps_j = delta (j + 1) / (4 (M + 1)) (or (j + 1)/4 at p = 0); closure
    requires the integrand to be 2 ell periodic in every y_j, which is checked
    at the seam (mismatch raises SeamError; e.g. non-integer plane-wave labels).
    Trapezoid product rule on the (M, n, ..., n) grid, held in memory and
    evaluated in one call; source gets that array and reads y_j as y[j].  A
    node-doubling delta is attached.
    """
    x = np.asarray(x, dtype=complex)
    M = spec.M
    epsilons = (0.25 * dom.delta * np.arange(1, M + 1) / (M + 1) if not math.isinf(dom.delta)
                else 0.25 * np.arange(1, M + 1))
    base = -1j * epsilons

    def integrand(y):
        return kernel_K(spec, x, y, dom) * source(y)

    # seam check at all 2M resolved endpoints in one call: y_j moved to -ell and +ell
    shift = dom.ell * np.eye(M)
    a, b = integrand(base[:, None, None] + np.stack([-shift, shift], axis=1))
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    bad = np.abs(a - b) > _SEAM_TOL * scale
    if bad.any():
        j = int(np.argmax(bad))
        raise SeamError(
            f"contour not closed in y_{j}: seam mismatch {abs(a[j] - b[j]) / scale[j]:.2e}")

    def run(count):
        s_grid = -dom.ell + 2.0 * dom.ell * np.arange(count) / count
        y = np.array(np.meshgrid(*(s_grid + e for e in base), indexing="ij"), dtype=complex)
        return complex(np.mean(integrand(y)) * (2.0 * dom.ell) ** M)

    return _node_doubled(run, nodes)
