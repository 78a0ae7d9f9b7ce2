"""Contour-quadrature kernel transforms and elliptic Jack-type eigenfunctions.

Circle contours use the equispaced trapezoid rule, spectrally accurate for
analytic periodic integrands; node counts are powers of two so a node-doubling
delta certifies every reported value.  The grids nest: a node-doubled value
evaluates its integrand once on 2N nodes and takes the N-node rule from the
even-index nodes, which are the N-node grid bit for bit; the winding checks
run on both node sets.  theta powers on contours are taken with the factor-wise
principal logarithm of theta, single-valued on p < |w| < 1; all contours are
chosen so every theta argument stays in that annulus, and the total winding of
the assembled integrand is monitored.

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

from .domain import EllipticDomain, _check_integers
from .errors import ConvergenceError, DomainError, SeamError, WindowError
from .fields import Field, Jet, _check_coordinates
from .kernels import KernelSpec, kernel_K
from .operators import apply_ecs, ground_state_field
from .pseries import PSeriesTable
from .theta import _wdlog_jet, _x_z, log_theta_q

__all__ = [
    "Partition2", "ContourConfig", "ContourResult", "n2_single_contour_P",
    "contour_F_lambda", "assemble_P_lambda", "eigen_residuals_P_lambda",
    "single_contour_psi_field", "kernel_transform",
]

# relative mismatch allowed between the endpoint values of a closed line contour
_SEAM_TOL = 1e-10


def _one_point(a, dtype=complex):
    """a as an array of dtype holding the two coordinates of one point; DomainError for
    any other shape or for entries that dtype does not hold (complex ones for float)."""
    a = np.asarray(a)
    if a.shape != (2,) or not np.can_cast(a.dtype, dtype, "same_kind"):
        raise DomainError(f"need the two coordinates of one point as {np.dtype(dtype)}, "
                          f"got {a.dtype} of shape {a.shape}")
    return a.astype(dtype)


@dataclass(frozen=True)
class Partition2:
    """Two-row partition, integers lam1 >= lam2 >= 0.

    The contour formula gives no eigenfunction for lam2 < 0: every xi2^{lam2}
    moment vanishes at p = 0.  Such lam are reached through (z1 z2)^k P_{lam + (k, k)}.
    """

    lam1: int
    lam2: int

    def __post_init__(self):
        _check_integers(lam1=self.lam1, lam2=self.lam2)
        if self.lam1 < self.lam2:
            raise DomainError("need lam1 >= lam2")
        if self.lam2 < 0:
            raise DomainError("need lam2 >= 0; reach lam2 < 0 as (z1 z2)^k P_{lam + (k, k)}")


@dataclass(frozen=True)
class ContourConfig:
    """Circle radii (None = window defaults) and per-circle node count."""

    R1: Optional[float] = None
    R2: Optional[float] = None
    nodes: int = 256

    def __post_init__(self):
        _check_integers(nodes=self.nodes)
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
    """Total argument change of the theta-power factor must vanish on each loop.

    A loop runs along the last axis, leading axes index loops, and the message names
    the largest total.  Integer monomial powers wind harmlessly and are excluded by
    the callers; a nonzero total (or a jump between nodes) signals a crossed branch
    cut, i.e. a contour outside the zero-free annulus.
    """
    steps = np.angle(np.roll(values, -1, axis=-1) / values)
    worst = float(max(np.sum(steps, axis=-1).ravel(), key=abs))
    if abs(worst) > math.pi or np.max(np.abs(steps)) > 0.5 * math.pi:
        raise WindowError(f"{what}: theta-power factor winds by {worst / (2 * math.pi):.2f} turns")


def _node_doubled(value_at: Callable) -> ContourResult:
    """value_at(1) on 2N nodes, certified by its distance from value_at(2) on N nodes.

    The caller evaluates its integrand once on 2N nodes, and value_at(s) sums the
    [::s] view: the even-index nodes are the N-node rule's nodes bit for bit,
    since 2 pi (2k)/(2N) and 2 pi k/N round alike.
    """
    a = value_at(2)
    b = value_at(1)
    return ContourResult(value=complex(b), node_delta=abs(b - a))


def _leg(z, xi, g: float, p: float):
    """The ratios z_i/xi (coordinates on axis -2, nodes last) and the leg
    prod_i theta(z_i/xi; p)^-g, nodes last, at the points z (coordinates last)."""
    zx = z[..., :, None] / xi
    return zx, np.exp(-g * log_theta_q(zx, p).sum(axis=-2))


def _check_window(z, r: float, p: float, what: str):
    """WindowError unless p < |z_i|/r < 1 for every coordinate: the ratios z_i/xi on
    the circle |xi| = r, named what, must lie in theta's zero-free annulus."""
    ratio = np.abs(z) / r
    if not np.all((p < ratio) & (ratio < 1.0)):
        raise WindowError(f"{what}: |z|/R = {ratio} outside (p, 1)")


def _check_single_labels(lam_diff, lam2):
    """DomainError unless lam = (lam2 + lam_diff, lam2) has integer labels and lam_diff >= 0."""
    _check_integers(lam_diff=lam_diff, lam2=lam2)
    if lam_diff < 0:
        raise DomainError("need lam1 - lam2 >= 0")


def _single_leg(z, xi, lam_diff: int, lam2: int, g: float, p: float):
    """_leg's ratios and leg at the points z, the prefactor (z1 z2)^lam2 and xi^lam_diff * leg."""
    zx, leg = _leg(z, xi, g, p)
    return zx, leg, (z[..., 0] * z[..., 1]) ** lam2, xi ** lam_diff * leg


def n2_single_contour_P(lam_diff: int, lam2: int, z, g: float, p: float,
                        cfg: ContourConfig = ContourConfig()) -> ContourResult:
    """Single-contour P for N = 2: lam = (lam2 + lam_diff, lam2), lam_diff >= 0.

    The contour |xi| = R must satisfy p < |z_j|/R < 1; psi0 * P solves the
    kappa = g non-stationary equation (certified in the test suite).
    """
    _check_single_labels(lam_diff, lam2)
    z = _one_point(z)
    r = cfg.single_radius(p)
    _check_window(z, r, p, "single contour")
    xi = _nodes(r, 2 * cfg.nodes)
    _, leg, pref, base = _single_leg(z, xi, lam_diff, lam2, g, p)
    _check_winding(leg[::2], "single contour")
    _check_winding(leg, "single contour")
    return _node_doubled(lambda s: complex(pref * np.mean(base[::s])))


class _FLegs(NamedTuple):
    """The theta factors of F on one node set: circle nodes xi1, xi2, the ratios
    z_i/xi (zx1, zx2; coordinates on axis -2), the legs u, v and the circulant row c."""

    xi1: np.ndarray
    xi2: np.ndarray
    zx1: np.ndarray
    zx2: np.ndarray
    u: np.ndarray
    v: np.ndarray
    c: np.ndarray

    def every(self, s: int) -> "_FLegs":
        """The factors on every s-th node: those of the count/s-node rule."""
        return _FLegs(*(a[..., ::s] for a in self))


def _f_legs(z, g: float, p: float, r1: float, r2: float, count: int) -> _FLegs:
    """u_a = prod_i theta(z_i/xi1a)^-g, v_b = prod_i theta(z_i/xi2b)^-g and
    c_k = theta((r1/r2) w^k)^g, w = e^{2 pi i/count}, on count nodes per circle.

    Each leg walks the nome ladder once (_leg), after the window check of its circle.
    """
    _check_window(z, r1, p, "F contour 1")
    _check_window(z, r2, p, "F contour 2")
    xi1 = _nodes(r1, count)
    xi2 = _nodes(r2, count)
    (zx1, u), (zx2, v) = _leg(z, xi1, g, p), _leg(z, xi2, g, p)
    c = np.exp(g * log_theta_q(_nodes(r1 / r2, count), p))
    return _FLegs(xi1, xi2, zx1, zx2, u, v, c)


def _f_moments(mu_pairs, legs: _FLegs, g: float, p: float, derivs: bool = False):
    """The moments of F_mu for a list of (mu1, mu2) pairs by z-Euler order: (F,), or
    with derivs (F, E1, E2), where Ek[i] is the order-k z_i-Euler moment (coordinates
    on axis 0, one C-contiguous row of pairs each).

    F = mean_a mean_b xi1^mu1 xi2^mu2 M_ab with M_ab = c_{a-b} u_a v_b (see
    _f_legs): xi1a/xi2b depends on a - b only, so the cross factor is circulant
    and one row of theta values defines it.  Every contraction M @ y / count is
    then the circular convolution u * ifft(fft(c) fft(v y)) / count, taken for
    all pairs and coordinates at once along the last axis.
    """
    xi1, xi2, zx1, zx2, u, v, c = legs
    count = len(xi1)
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
    F = np.mean(w1 * col, axis=-1)
    if not derivs:
        return (F,)
    # z_i-Euler weights of the xi1-leg (al, al2) and the xi2-leg (be, be2): [i, pair, node]
    al, al2 = (-g * d[:, None, :] for d in _wdlog_jet(zx1, p))
    be, be2 = (-g * d[:, None, :] for d in _wdlog_jet(zx2, p))
    colb = conv(w2 * be)
    colb2 = conv(w2 * (be ** 2 + be2))
    return (F, np.mean(w1 * (al * col + colb), axis=-1),
            np.mean(w1 * ((al ** 2 + al2) * col + 2.0 * al * colb + colb2), axis=-1))


def contour_F_lambda(lam1: int, lam2: int, z, g: float, p: float,
                     cfg: ContourConfig = ContourConfig()) -> ContourResult:
    """Double-contour F_lam, integer lam1 and lam2, with its node-doubling certificate."""
    _check_integers(lam1=lam1, lam2=lam2)
    z = _one_point(z)
    r1, r2 = cfg.radii(p)
    legs = _f_legs(z, g, p, r1, r2, 2 * cfg.nodes)
    return _node_doubled(lambda s: _f_moments([(lam1, lam2)], legs.every(s), g, p)[0][0])


def _check_table(lam: Partition2, table: PSeriesTable, g: float, Ks) -> list:
    """Ks as a list, once the table fits lam and g and each order is an integer in [0, table.K]."""
    s_want = (lam.lam1 + g / 2.0, lam.lam2 - g / 2.0)
    if (abs(complex(table.s[0]) - s_want[0]) > 1e-12
            or abs(complex(table.s[1]) - s_want[1]) > 1e-12):
        raise DomainError(f"table solved at s={table.s}, but lam={lam} needs s={s_want}")
    Ks = list(Ks)
    _check_integers(0, **{f"K[{i}]": K for i, K in enumerate(Ks)})
    if not Ks or max(Ks) > table.K:
        raise DomainError(f"need one or more integer orders in [0, {table.K}], got {Ks}")
    return Ks


def _assembly_weights(lam: Partition2, table: PSeriesTable, p: float):
    """(mu1, mu2) pairs for n = -table.K .. n_cap and the weights of every order:

    column K is sum_{k <= K} a_{n,k} p^k, a running sum, exactly 0 for n < -K.
    """
    ns = range(-table.K, table.n_cap + 1)
    terms = [[complex(table.coefficient(n, k)) * p ** k for k in range(table.K + 1)]
             for n in ns]
    return [(lam.lam1 + n, lam.lam2 - n) for n in ns], np.cumsum(terms, axis=1)


def assemble_P_lambda(lam: Partition2, table: PSeriesTable, z, g: float, p: float,
                      cfg: ContourConfig = ContourConfig(),
                      K: Optional[int] = None) -> ContourResult:
    """P_lam(z) = sum_{k <= K} sum_n a_{n,k} F_{lam1+n, lam2-n}(z) p^k.

    The table must be a Variant-I solve at s = (lam1 + g/2, lam2 - g/2); K
    defaults to the table's truncation order.
    """
    K, = _check_table(lam, table, g, [table.K if K is None else K])
    z = _one_point(z)
    r1, r2 = cfg.radii(p)
    pairs, weights = _assembly_weights(lam, table, p)
    # order K starts at n = -K; contiguous weights round as a table solved at K does
    pairs, weights = pairs[table.K - K:], np.ascontiguousarray(weights[table.K - K:, K])
    legs = _f_legs(z, g, p, r1, r2, 2 * cfg.nodes)
    return _node_doubled(lambda s: _f_moments(pairs, legs.every(s), g, p)[0] @ weights)


def _psi0_times(j0: Jet, P, dP, dP2) -> Jet:
    """The x-jet of psi0 P by the product rule on psi0's jet j0, from P and its
    first and second partials dP, dP2, shaped as fields.Jet says.  P may carry
    field axes in front of j0's point axes: the jet then batches over them."""
    Pc, v0 = np.asarray(P)[..., None], np.asarray(j0.value)[..., None]
    return Jet(j0.value * P, j0.d1 * Pc + v0 * dP, j0.d2 * Pc + 2.0 * j0.d1 * dP + v0 * dP2)


def eigen_residuals_P_lambda(lam: Partition2, table: PSeriesTable, x, g: float,
                             dom: EllipticDomain, cfg: ContourConfig = ContourConfig(),
                             Ks: Optional[Sequence[int]] = None):
    """|H_2 psi - E psi| / |psi| for psi = psi0 P_lam at real x, per order K.

    H_2 is operators.apply_ecs on psi0 P (psi0 is operators.ground_state_field, P's
    x-derivatives are Euler moments); E is (pi/ell)^2 times the truncated eigenvalue
    series.  First x2 moves by whole periods 2 ell and x1, x2 are ordered, so that
    x1 - x2 lies in [0, ell], where vt1 > 0: P is symmetric and 2 ell-periodic in x_i,
    and vt1^g only gains a constant factor.  One contraction and one jet of psi0
    serve every order, and one apply_ecs call takes the jet batched over the orders.
    """
    Ks = _check_table(lam, table, g, [table.K] if Ks is None else Ks)
    x = _one_point(x, float)
    x2 = x[1] + 2.0 * dom.ell * np.round((x[0] - x[1]) / (2.0 * dom.ell))
    x = np.array(sorted((x[0], x2), reverse=True))
    p = dom.p
    z = _x_z(x, dom)[1]
    r1, r2 = cfg.radii(p)
    pairs, weights = _assembly_weights(lam, table, p)
    mom = _f_moments(pairs, _f_legs(z, g, p, r1, r2, cfg.nodes), g, p, derivs=True)
    ipl = 1j * math.pi / dom.ell
    # column K of each contraction is the order-K moment; rows of dP, dP2 are orders.
    # Each coordinate's row contracts as a stacked (1, pairs) matrix, which rounds as
    # the F row does; a (2, pairs) matrix product takes another BLAS path.
    P = (mom[0] @ weights)[Ks]
    dP, dP2 = (ipl ** k * (mom[k][:, None] @ weights)[:, 0].T[Ks] for k in (1, 2))
    if np.any(P == 0.0):
        raise ConvergenceError("assembled P vanished at this point")
    E = (math.pi / dom.ell) ** 2 * np.cumsum([complex(e) * p ** k
                                              for k, e in enumerate(table.eps)])
    j = _psi0_times(ground_state_field(g, dom)(x.astype(complex)), P, dP, dP2)
    return np.abs(apply_ecs(lambda _: j, x, g, dom) / j.value - E[Ks])


def single_contour_psi_field(lam_diff: int, lam2: int, g: float, dom: EllipticDomain,
                             cfg: ContourConfig = ContourConfig()) -> Field:
    """psi(x) = psi0(x) P_lam(z(x)) as a field (its jet function) with analytic derivatives.

    psi0 = vt1(x1-x2)^g is operators.ground_state_field, and psi follows by the
    product rule; x-derivatives of P are Euler moments differentiated under the
    integral and the tau-derivative follows from the p-dependence of the
    contour theta factors, so operators.nonstationary_residual can certify the
    kappa = g equation directly.
    """
    _check_single_labels(lam_diff, lam2)
    psi0 = ground_state_field(g, dom)
    p = dom.p
    r = cfg.single_radius(p)
    xi = _nodes(r, cfg.nodes)
    ipl = 1j * math.pi / dom.ell

    def jet(x):
        _check_coordinates(x, 2)
        z = _x_z(x, dom)[1]
        _check_window(z, r, p, "single contour")
        zx, leg, pref, base = _single_leg(z, xi, lam_diff, lam2, g, p)
        _check_winding(leg, "single contour")
        e1, e2, et = _wdlog_jet(zx, p, True)
        al = lam2 - g * e1                        # z_i-Euler weights, one row per i
        P = pref * np.mean(base, axis=-1)
        dP = ipl * pref[..., None] * np.mean(base[..., None, :] * al, axis=-1)
        dP2 = ipl ** 2 * pref[..., None] * np.mean(base[..., None, :] * (al * al - g * e2), axis=-1)
        P_tau = pref * np.mean(base * (-g * et.sum(axis=-2)), axis=-1)
        j0 = psi0(x)
        return _psi0_times(j0, P, dP, dP2)._replace(dtau=j0.dtau * P + j0.value * P_tau)

    return jet


def kernel_transform(spec: KernelSpec, source: Callable, x, dom: EllipticDomain,
                     nodes: int = 256) -> ContourResult:
    """Generic transform int K_{N,M}(x, y) source(y) dy over line contours.

    Each y_j runs over the straight line from -ell - i eps_j to +ell - i eps_j,
    eps_j = delta (j + 1) / (4 (M + 1)) (or (j + 1)/4 at p = 0); closure
    requires the integrand to be 2 ell periodic in every y_j, which is checked
    at the seam (mismatch raises SeamError; e.g. non-integer plane-wave labels).
    Trapezoid product rule on the (n, ..., n, M) grid, held in memory and
    evaluated in one call; source gets that array and reads y_j as y[..., j].  A
    node-doubling delta is attached.
    """
    _check_integers(1, nodes=nodes)
    x = np.asarray(x, dtype=complex)
    M = spec.M
    epsilons = (0.25 * dom.delta * np.arange(1, M + 1) / (M + 1) if not math.isinf(dom.delta)
                else 0.25 * np.arange(1, M + 1))
    base = -1j * epsilons

    def integrand(y):
        return kernel_K(spec, x, y, dom) * source(y)

    # seam check at all 2M resolved endpoints in one call: y_j moved to -ell and +ell
    shift = dom.ell * np.eye(M)
    a, b = integrand(base + np.stack([-shift, shift]))
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    bad = np.abs(a - b) > _SEAM_TOL * scale
    if bad.any():
        j = int(np.argmax(bad))
        raise SeamError(
            f"contour not closed in y_{j}: seam mismatch {abs(a[j] - b[j]) / scale[j]:.2e}")

    count = 2 * nodes
    s_grid = -dom.ell + 2.0 * dom.ell * np.arange(count) / count
    # M = 0 is one point with no coordinates
    y = np.stack(np.meshgrid(*(s_grid + e for e in base), indexing="ij"), axis=-1) if M else base
    vals = np.asarray(integrand(y))      # M = 0: one point, a complex scalar
    # a contiguous copy of the view sums in the order a fresh grid of its size does
    return _node_doubled(
        lambda s: complex(np.mean(np.ascontiguousarray(vals[(slice(None, None, s),) * M]))
                          * (2.0 * dom.ell) ** M))
