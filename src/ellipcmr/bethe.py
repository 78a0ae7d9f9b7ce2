"""Hermite's Bethe-ansatz solutions of the Lame equation at n = -g in Z>=1.

The ansatz psi(x) = e^{xi x} prod_j vt1(x - t_j)/vt1(x) solves

    (-d^2/dx^2 + n(n+1) wp1(x)) psi = E psi

whenever the roots satisfy, for j = 1..n,

    sum_{k != j} ( zeta1(t_j - t_k) - zeta1(t_j) + zeta1(t_k) ) = 0,

with xi = sum_j zeta1(t_j).  The n residuals sum to zero identically (zeta1 is
odd), so the solution set is a curve; Newton steps use the least-squares
pseudo-inverse, and predictor-corrector continuation in the nome seeds the
iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .domain import EllipticDomain, _check_integers
from .errors import BranchError, ConvergenceError, DomainError, EllipcmrError, PoleError
from .fields import Field, Jet, _check_coordinates
from .theta import _pair_index, pair_values, theta1, theta1_jet, theta1_logderiv

__all__ = [
    "BetheState", "bethe_residuals", "bethe_jacobian", "solve_bethe",
    "hermite_psi", "hermite_psi_field", "bloch_multipliers",
    "energy_from_roots", "saddle_G_value", "saddle_G_gradient",
]

# Newton tolerance at dom.p, and at the intermediate nomes of the continuation
_TOL = 1e-12
_PATH_TOL = 1e-6
_MAX_ITER = 50         # Newton iterations per corrector
_HOMOTOPY_STEP = 4.0   # nome ratio between continuation steps


@dataclass(frozen=True)
class BetheState:
    """Converged Bethe data with its certificates."""

    n: int
    roots: tuple
    xi: complex
    energy: complex
    bethe_residual: float
    ode_residual: float
    xi_residual: float
    energy_spread: float
    energy_constant: complex
    wronskian: float

    @property
    def degenerate(self) -> bool:
        """Doubly-periodic eigenvalue: psi(x) and psi(-x) proportional."""
        return self.wronskian <= 1e-8


def _at_x_and_roots(fn, x, roots, dom):
    """(fn(x), fn(x - t_j)) from one call, t_j last; a tuple-valued fn comes stacked first."""
    v = np.asarray(fn(np.asarray(x, dtype=complex)[..., None] - np.append(0.0, roots), dom))
    return v[..., 0], v[..., 1:]


def _raise_on_poles(V):
    """V, or PoleError if a root or a pair difference has |vt1| < 1e-12.

    V is vt1 on the pair differences of the roots and the origin (last point),
    so its last column holds vt1(t_j).
    """
    bad = np.abs(V) < 1e-12
    np.fill_diagonal(bad, False)
    if not bad.any():
        return V
    # name what a j < k scan meets first: root t_j, then the pairs (j, k > j), then
    # row j + 1; |V| is symmetric, so the first bad row has no bad entry left of j
    j = np.argmax(bad.any(axis=1))
    if bad[j, -1]:
        raise PoleError(f"root t_{j} on the period lattice")
    raise PoleError(f"coincident roots t_{j}, t_{np.argmax(bad[j, :-1])}")


def _check_roots(t, dom):
    """vt1 on the pairs of (t, 0), pair_values' parity -1 matrix, once no entry is a pole."""
    return _raise_on_poles(pair_values(theta1, np.append(t, 0.0), dom=dom, parity=-1))


def _bethe_system(t, dom):
    """(residuals, Jacobian) at roots t from one theta1_jet call on the roots and the origin.

    The kernels are taken at the roots moved by multiples of 2 i delta into
    |Im t| <= delta, so no product is evaluated far outside the strip.  The
    system does not change under that move: zeta1 drops by i pi/ell per period,
    which cancels in zeta1(t_j - t_k) - zeta1(t_j) + zeta1(t_k), and wp1 is periodic.
    The Jacobian is d residual_j / d t_i with zeta1' = (ln vt1)'' = -wp1.
    """
    t = np.asarray(t, dtype=complex)
    n = len(t)
    if dom.p > 0.0:
        t = t - 2j * dom.delta * np.round(t.imag / (2.0 * dom.delta))
    try:
        V, Z, D = pair_values(theta1_jet, np.append(t, 0.0), dom=dom, parity=(-1, -1, 1))
    except PoleError:
        _check_roots(t, dom)      # names the offending root or pair
        raise
    _raise_on_poles(V)
    Z, zt = Z[:-1, :-1], Z[:-1, -1]
    W, wp_t = -D[:-1, :-1], -D[:-1, -1]
    # sum_{k != j} (Z_jk - zt_j + zt_k); the diagonal of Z is zero
    r = Z.sum(axis=1) - n * zt + zt.sum()
    J = W - wp_t                     # J_ji = wp1(t_j - t_i) - wp1(t_i), i != j
    np.fill_diagonal(J, (n - 1) * wp_t - W.sum(axis=1))
    return r, J


def bethe_residuals(t, dom: EllipticDomain):
    """The n left-hand sides of the Bethe system at roots t."""
    return _bethe_system(t, dom)[0]


def bethe_jacobian(t, dom: EllipticDomain):
    """Analytic Jacobian d residual_j / d t_i (zeta1' = -wp1)."""
    return _bethe_system(t, dom)[1]


def default_seed(n: int, dom: EllipticDomain):
    """The exact p = 0 roots t_j = ell + i (2 ell/pi) artanh(x_j), x_j the zeros of P_n.

    At p = 0 the Bethe system is Stieltjes' electrostatic problem for the zeros
    of the Legendre polynomial P_n; the imaginary parts fall in decreasing order.
    """
    x = np.polynomial.legendre.leggauss(n)[0][::-1]
    return dom.ell + 1j * (2.0 * dom.ell / math.pi) * np.arctanh(x)


def _newton(t0, dom, tol):
    """Damped least-squares Newton to max |r| < tol; returns (t, r, J) at the last iterate."""
    t = np.array(t0, dtype=complex)
    r, J = _bethe_system(t, dom)
    for _ in range(_MAX_ITER):
        if np.max(np.abs(r)) < tol:
            return t, r, J
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        lam, nxt = 1.0, None
        for _ in range(25):
            try:
                tn = t + lam * step
                rn, Jn = _bethe_system(tn, dom)
                if np.max(np.abs(rn)) < np.max(np.abs(r)):
                    nxt = (tn, rn, Jn)
                    break
            except EllipcmrError:
                pass
            lam /= 2.0
        if nxt is None:
            break
        t, r, J = nxt
    res = float(np.max(np.abs(r)))
    # the residuals, and so their rounding floor, scale like pi/ell: below ell = 1 a
    # stall is measured against tol / ell, which keeps every ell >= 1 on tol itself
    if res >= tol * max(1.0, 1.0 / dom.ell):
        raise ConvergenceError(f"Bethe Newton stalled at residual {res:.3e}")
    return t, r, J


def _polish(t, r, J, dom):
    """Up to two full Newton steps past the tolerance, each kept only if it lowers max |r|.

    Returns (t, max |r|)."""
    for _ in range(2):
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        try:
            rn, Jn = _bethe_system(t + step, dom)
        except EllipcmrError:
            break
        if np.max(np.abs(rn)) >= np.max(np.abs(r)):
            break
        t, r, J = t + step, rn, Jn
    return t, float(np.max(np.abs(r)))


def solve_bethe(n: int, dom: EllipticDomain,
                seed: Optional[Sequence[complex]] = None) -> BetheState:
    """Solve the Bethe system and certify the resulting eigenfunction.

    Without a seed, the system is first solved at a small nome (the
    trigonometric seed is exact at p = 0) and the nome is continued to dom.p in
    steps of nome ratio 4 (the last one shorter) by predictor-corrector steps: a
    secant predictor in log p, then Newton to the path tolerance at intermediate
    nomes and to _TOL at dom.p; a failed correction is retried from the previous
    roots.  A seed of n finite complex numbers, and the guess ell (0.31 + 0.07 i) at
    n = 1, where the system is empty, take the one step dom.p.  The final roots get up
    to two polishing Newton steps.  One branch is returned per seed; no
    completeness claim is made.
    """
    _check_integers(1, n=n)
    if seed is not None:
        t, steps = np.asarray(seed), [dom.p]
        if (t.shape != (n,) or not np.can_cast(t.dtype, complex, "same_kind")
                or not np.isfinite(t).all()):
            raise DomainError(f"need a seed of shape ({n},) of finite complex numbers, "
                              f"got {seed!r}")
        t = t.astype(complex)
    elif n == 1:
        t, steps = np.array([dom.ell * (0.31 + 0.07j)]), [dom.p]
    else:
        # the seed fits inside the strip at a nome below 0.5 exp(-2 pi max |Im t| / ell)
        t = default_seed(n, dom)
        steps = [min(dom.p, 0.5 * math.exp(-2.0 * math.pi * np.max(np.abs(t.imag)) / dom.ell))]
        while steps[-1] < dom.p:
            steps.append(min(steps[-1] * _HOMOTOPY_STEP, dom.p))
    for k, pk in enumerate(steps):
        last = k == len(steps) - 1
        dk = dom if last else EllipticDomain.from_nome(dom.ell, pk)
        tol_k = _TOL if last else _PATH_TOL
        guess = t
        if k >= 2:   # secant through the last two converged nomes, in log p
            h = math.log(pk / steps[k - 1]) / math.log(steps[k - 1] / steps[k - 2])
            guess = t + h * (t - t_prev)
        try:
            sol = _newton(guess, dk, tol_k)
        except EllipcmrError:
            if guess is t:
                raise
            sol = _newton(t, dk, tol_k)
        t_prev, t = t, sol[0]
    t, res = _polish(*sol, dom)
    return _certify(t, dom, res)


def _hermite_value(x, xi, at_x, at_roots):
    """e^{xi x} prod_j vt1(x - t_j) / vt1(x)^n from vt1 at x and at x - t_j."""
    den = at_x ** at_roots.shape[-1]
    if np.any(np.abs(den) < 1e-300):
        raise PoleError("x on the period lattice")
    return np.exp(xi * x) * np.prod(at_roots, axis=-1) / den


def hermite_psi(x, roots, xi: complex, dom: EllipticDomain):
    """psi(x) = e^{xi x} prod_j vt1(x - t_j) / vt1(x)^n."""
    x = np.asarray(x, dtype=complex)
    return _hermite_value(x, xi, *_at_x_and_roots(theta1, x, roots, dom))


def _log_derivs(jets, xi):
    """psi'/psi, psi''/psi and wp1(x) from theta1_jet at x and at x - t_j (_at_x_and_roots):

    psi'/psi = xi + sum_j zeta1(x - t_j) - n zeta1(x)
    psi''/psi = (psi'/psi)^2 - sum_j wp1(x - t_j) + n wp1(x).
    """
    (_, zeta_x, d_x), (_, zeta_r, d_r) = jets
    n = zeta_r.shape[-1]
    ld = xi + zeta_r.sum(axis=-1) - n * zeta_x
    return ld, ld * ld + d_r.sum(axis=-1) - n * d_x, -d_x     # wp1 = -(ln vt1)''


def hermite_psi_field(roots, xi: complex, dom: EllipticDomain,
                      reflect: bool = False) -> Field:
    """One-coordinate field psi(+-x); its jet takes the value and _log_derivs from one
    theta1_jet pass, whose vt1 is theta1's bit for bit."""
    roots = np.asarray(roots, dtype=complex)
    s = -1.0 if reflect else 1.0

    def jet(xv):
        _check_coordinates(xv, 1)
        x = s * xv[..., 0]
        at_x, at_roots = _at_x_and_roots(theta1_jet, x, roots, dom)
        value = _hermite_value(x, xi, at_x[0], at_roots[0])     # the vt1 rows
        ld, ld2, _ = _log_derivs((at_x, at_roots), xi)
        return Jet(value, (s * ld * value)[..., None], (ld2 * value)[..., None])

    return jet


def bloch_multipliers(roots, xi: complex, dom: EllipticDomain):
    """(B_ell, B_delta) for psi: shifts by 2 ell and 2 i delta.

    B_ell = e^{2 ell xi} (the vt1 sign flips cancel between numerator and
    denominator); B_delta = e^{2 i delta xi} e^{i pi sum_j t_j / ell}.
    """
    roots = np.asarray(roots, dtype=complex)
    b_ell = np.exp(2.0 * dom.ell * xi)
    b_delta = np.exp(2j * dom.delta * xi) * np.exp(1j * math.pi * np.sum(roots) / dom.ell)
    return b_ell, b_delta


def _energy_grid(roots, dom):
    """Ten deterministic probe points off the lattice and away from the roots.

    A row of 41 candidates that holds fewer than ten good points is followed by
    the same row shifted by 0.0173 ell.
    """
    pts = []
    step = 0.0
    while len(pts) < 10:
        x = dom.ell * (0.083 + 0.0947 * np.arange(41) + step) + 0.11j * dom.ell
        at_x, at_roots = _at_x_and_roots(theta1, x, roots, dom)
        pts.extend(x[(np.abs(at_x) > 1e-6) & ~np.any(np.abs(at_roots) < 1e-6, axis=-1)])
        step += 0.0173
    return np.array(pts[:10])


def energy_from_roots(roots, xi: complex, dom: EllipticDomain):
    """E from the operator quotient, certified x-independent over 10 points.

    E(x) = (-psi'' + n(n+1) wp1(x) psi)/psi = -psi''/psi + n(n+1) wp1(x), taken at
    all points from one call per kernel; returns (E, spread).
    """
    roots = np.asarray(roots, dtype=complex)
    n = len(roots)
    _, second, wp_x = _log_derivs(_at_x_and_roots(theta1_jet, _energy_grid(roots, dom),
                                                  roots, dom), xi)
    vals = -second + n * (n + 1.0) * wp_x    # g = -n, so g(g-1) = n(n+1)
    E = vals[0]
    return E, float(np.max(np.abs(vals - E)))


def _certify(t, dom, bethe_res) -> BetheState:
    n = len(t)
    # xi = sum_j zeta1(t_j) and the sum of wp1(t_j) = -(ln vt1)''(t_j) from one jet
    _, zeta_t, dlog2_t = theta1_jet(t, dom)
    xi = zeta_t.sum()
    E, spread = energy_from_roots(t, xi, dom)
    # the root-independent shift in the closed-form energy report
    const = E - (2.0 * n - 1.0) * dlog2_t.sum()

    # one _log_derivs call on the five ODE points and x0, -x0:
    # (-psi'' + n(n+1) wp1 psi - E psi) / psi = -psi''/psi + n(n+1) wp1 - E
    x0 = dom.ell * (0.29 + 0.13j)
    pts = np.append(dom.ell * (0.21 + 0.12 * np.arange(5)) + 0.09j * dom.ell, [x0, -x0])
    ld, second, wp_x = _log_derivs(_at_x_and_roots(theta1_jet, pts, t, dom), xi)
    ode = np.max(np.abs(-second[:5] + n * (n + 1.0) * wp_x[:5] - E))

    # Bloch-ratio certificate for xi: psi(x + 2 ell)/psi(x) = e^{2 ell xi}
    psi = hermite_psi(np.array([x0 + 2 * dom.ell, x0]), t, xi, dom)
    bloch = np.exp(2.0 * dom.ell * xi)
    xi_res = abs(psi[0] / psi[1] - bloch) / abs(bloch)

    # W(psi(x), psi(-x)) / (psi(x) psi(-x)) = -(L(x0) + L(-x0)) with L = psi'/psi,
    # finite where psi itself overflows
    return BetheState(
        n=n, roots=tuple(np.asarray(t, dtype=complex)), xi=complex(xi), energy=complex(E),
        bethe_residual=bethe_res, ode_residual=float(ode), xi_residual=float(xi_res),
        energy_spread=spread, energy_constant=complex(const),
        wronskian=float(abs(ld[5] + ld[6])))


def saddle_G_value(t, xi: complex, dom: EllipticDomain) -> complex:
    """G(t) = sum_j (xi t_j - n ln vt1(t_j)) + sum_{j<k} ln vt1(t_j - t_k).

    Principal logarithms; every vt1 value must have positive real part, else
    the branch is ambiguous and a BranchError is raised (the gradient below is
    branch-free and always available).
    """
    t = np.asarray(t, dtype=complex)
    V = _check_roots(t, dom)
    v, vp = V[:-1, -1], V[_pair_index(len(t))]
    if np.any(v.real <= 0.0):
        raise BranchError("ln vt1(t_j) outside principal-branch domain")
    if np.any(vp.real <= 0.0):
        raise BranchError("ln vt1(t_j - t_k) outside principal-branch domain")
    return complex(np.sum(xi * t - len(t) * np.log(v)) + np.sum(np.log(vp)))


def saddle_G_gradient(t, xi: complex, dom: EllipticDomain):
    """dG/dt_j = xi - n zeta1(t_j) + sum_{k != j} zeta1(t_j - t_k), which is the Bethe
    residual plus xi - sum_k zeta1(t_k)."""
    t = np.asarray(t, dtype=complex)
    return bethe_residuals(t, dom) + (xi - theta1_logderiv(t, dom).sum())
