"""The vectorised pair sums and grid kernels against loops written out here.

Every n-body quantity sums a kernel over pair differences; the library takes
each kernel once on all differences (theta.pair_values), and each grid of
points in one call.  The loops below are the plain double sums, one scalar
kernel call per pair, and one kernel call per grid point.
"""

import itertools
import math

import numpy as np
import pytest

from ellipcmr.bethe import bethe_jacobian, bethe_residuals, saddle_G_gradient
from ellipcmr.domain import EllipticDomain, RuijsenaarsParams
from ellipcmr.errors import PoleError
from ellipcmr.gamma import elliptic_gamma, ground_state_psi0, weight_W
from ellipcmr.kernels import KernelSpec, kernel_identity_residual, kernel_K
from ellipcmr.transform import kernel_transform
from ellipcmr.theta import (pair_values, theta1, theta1_logderiv, theta1_power,
                            theta1_tau_logderiv, wp1)

DOM = EllipticDomain.from_nome(2.0, 0.1)
REL = 1e-13


def random_points(rng, n, dom=DOM):
    """n points in the strip: real parts in (0.05, 1.95) ell, |Im| <= 0.3 ell."""
    return dom.ell * (rng.uniform(0.05, 1.95, n) + 1j * rng.uniform(-0.3, 0.3, n))


def draws():
    rng = np.random.default_rng(606)
    return [(n, random_points(rng, n)) for n in range(1, 9) for _ in range(3)]


def close(got, want, terms=()):
    """Agreement relative to the largest of |want| and the summed kernel values."""
    got, want = np.asarray(got), np.asarray(want)
    scale = max(np.max(np.abs(want), initial=0.0), np.max(np.abs(terms), initial=0.0))
    return np.max(np.abs(got - want), initial=0.0) <= REL * max(scale, 1e-300)


def kernel_terms(fn, t, dom):
    """fn at every root and every pair difference: the terms the loops sum."""
    n = len(t)
    return [fn(t[j], dom) for j in range(n)] + [fn(t[j] - t[k], dom)
                                                for j in range(n) for k in range(n) if j != k]


def loop_residuals(t, dom):
    zt = [theta1_logderiv(tj, dom) for tj in t]
    return [sum(theta1_logderiv(t[j] - t[k], dom) - zt[j] + zt[k]
                for k in range(len(t)) if k != j) for j in range(len(t))]


def loop_jacobian(t, dom):
    n = len(t)
    J = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for i in range(n):
            if i == j:
                J[j, j] = sum(wp1(t[j], dom) - wp1(t[j] - t[k], dom) for k in range(n) if k != j)
            else:
                J[j, i] = wp1(t[j] - t[i], dom) - wp1(t[i], dom)
    return J


def loop_gradient(t, xi, dom):
    n = len(t)
    return [xi - n * theta1_logderiv(t[j], dom)
            + sum(theta1_logderiv(t[j] - t[k], dom) for k in range(n) if k != j)
            for j in range(n)]


def loop_psi0(x, g, dom):
    out = 1.0 + 0.0j
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            out *= theta1_power(x[i] - x[j], g, dom)
    return out


def loop_identity_residual(spec, x, y, dom):
    g = spec.g

    def zeta(u):
        return theta1_logderiv(u, dom)

    def wp(u):
        return wp1(u, dom)

    def h_part(u, v):
        total = 0.0 + 0.0j
        for i in range(len(u)):
            li = g * (sum(zeta(u[i] - u[j]) for j in range(len(u)) if j != i)
                      - sum(zeta(u[i] - vj) for vj in v))
            lii = g * (-sum(wp(u[i] - u[j]) for j in range(len(u)) if j != i)
                       + sum(wp(u[i] - vj) for vj in v))
            total += -0.5 * (li * li + lii)
        pot = sum(wp(u[i] - u[j]) for i in range(len(u)) for j in range(i + 1, len(u)))
        return total + g * (g - 1.0) * pot

    def tlog(u):
        return theta1_tau_logderiv(u, dom)

    dtau = g * (sum(tlog(x[i] - x[j]) for i in range(len(x)) for j in range(i + 1, len(x)))
                + sum(tlog(y[i] - y[j]) for i in range(len(y)) for j in range(i + 1, len(y)))
                - sum(tlog(xi - yj) for xi in x for yj in y))
    return [(1j * math.pi * spec.kappa / (2.0 * dom.ell ** 2)) * dtau, h_part(x, y), -h_part(y, x)]


class TestPairValues:
    def test_parity_fill_and_cross(self):
        a = random_points(np.random.default_rng(1), 5)
        b = random_points(np.random.default_rng(2), 3)
        W = pair_values(wp1, a, dom=DOM, parity=1)
        Z = pair_values(theta1_logderiv, a, dom=DOM, parity=-1)
        for j in range(5):
            assert W[j, j] == 0.0 and Z[j, j] == 0.0
            for k in range(5):
                if k != j:
                    assert close(W[j, k], wp1(a[j] - a[k], DOM))
                    assert close(Z[j, k], theta1_logderiv(a[j] - a[k], DOM))
        C = pair_values(theta1, a, b, dom=DOM)
        assert C.shape == (5, 3)
        assert close(C, [[theta1(ai - bj, DOM) for bj in b] for ai in a])
        upper = pair_values(theta1, a, dom=DOM)
        assert close(upper, [theta1(a[j] - a[k], DOM) for j in range(5) for k in range(j + 1, 5)])

    @pytest.mark.parametrize("n", [0, 1])
    def test_no_pairs(self, n):
        a = np.full(n, 0.3 + 0.1j)
        assert pair_values(wp1, a, dom=DOM).shape == (0,)
        assert np.all(pair_values(wp1, a, dom=DOM, parity=1) == 0.0)
        assert pair_values(wp1, a, np.array([]), dom=DOM).shape == (n, 0)


class TestAgainstLoops:
    def test_bethe_residuals(self):
        for n, t in draws():
            terms = kernel_terms(theta1_logderiv, t, DOM)
            assert close(bethe_residuals(t, DOM), loop_residuals(t, DOM), terms), n

    def test_bethe_jacobian(self):
        for n, t in draws():
            terms = kernel_terms(wp1, t, DOM)
            assert close(bethe_jacobian(t, DOM), loop_jacobian(t, DOM), terms), n

    def test_saddle_gradient(self):
        for n, t in draws():
            xi = 0.3 - 0.2j * n
            terms = kernel_terms(theta1_logderiv, t, DOM)
            assert close(saddle_G_gradient(t, xi, DOM), loop_gradient(t, xi, DOM), terms), n

    def test_ground_state_psi0(self):
        rng = np.random.default_rng(607)
        for n in range(1, 9):
            x = random_points(rng, n)
            assert close(ground_state_psi0(x, 2.0, DOM), loop_psi0(x, 2.0, DOM)), n
            # fractional g needs Re vt1 > 0: real, descending points in (0, 2 ell)
            xr = np.sort(rng.uniform(0.05, 1.95, n))[::-1] * DOM.ell
            assert close(ground_state_psi0(xr, 1.5, DOM), loop_psi0(xr, 1.5, DOM)), n

    def test_kernel_identity_residual(self):
        rng = np.random.default_rng(608)
        for n in range(1, 9):
            spec = KernelSpec(n, n % 3, 1.7)
            x, y = random_points(rng, spec.N), random_points(rng, spec.M)
            got = kernel_identity_residual(spec, x, y, DOM)
            # R vanishes for N = M, so compare on the scale of its three parts
            parts = loop_identity_residual(spec, x, y, DOM)
            assert abs(got - sum(parts)) <= REL * sum(abs(v) for v in parts), n

    def test_jacobian_matches_fd_n5(self):
        t = random_points(np.random.default_rng(609), 5)
        J = bethe_jacobian(t, DOM)
        h = 1e-6
        for i in range(5):
            tp, tm = t.copy(), t.copy()
            tp[i] += h
            tm[i] -= h
            col = (bethe_residuals(tp, DOM) - bethe_residuals(tm, DOM)) / (2 * h)
            assert np.max(np.abs(col - J[:, i])) <= 1e-6 * max(1.0, np.max(np.abs(J)))


def line_axes(spec, count, dom):
    """The kernel_transform contour: count nodes on [-ell, ell) - i eps_j per axis y_j."""
    s = -dom.ell + 2.0 * dom.ell * np.arange(count) / count
    return [s - 0.25j * dom.delta * (j + 1) / (spec.M + 1) for j in range(spec.M)]


def loop_integrand(spec, source, x, count, dom):
    """K(x, y) source(y) on the tensor grid, one kernel_K call per point, in grid order."""
    vals = [kernel_K(spec, x, np.array(y), dom) * source(np.array(y))
            for y in itertools.product(*line_axes(spec, count, dom))]
    return np.reshape(vals, (count,) * spec.M)


class TestGridKernels:
    @pytest.mark.parametrize("N, M", [(2, 2), (3, 2)])
    def test_kernel_transform_against_the_point_loop(self, N, M):
        spec = KernelSpec(N, M, 2.0)
        x = DOM.ell * np.array([0.4, 0.05, -0.25])[:N]
        k = math.pi / DOM.ell              # integer labels close the contour

        def source(y):
            return np.exp(1j * k * (y[0] - 2.0 * y[1]))

        coarse, fine = (loop_integrand(spec, source, x, c, DOM) for c in (16, 32))
        y = np.array(np.meshgrid(*line_axes(spec, 32, DOM), indexing="ij"))
        grid = kernel_K(spec, x, y, DOM) * source(y)
        assert np.all(np.abs(grid - fine) <= 1e-14 * np.abs(fine))
        vol = (2.0 * DOM.ell) ** M
        a, b = vol * np.mean(coarse), vol * np.mean(fine)
        got = kernel_transform(spec, source, x, DOM, nodes=16)
        tol = 1e-13 * vol * np.mean(np.abs(fine))
        assert abs(got.value - b) <= tol
        assert abs(got.node_delta - abs(b - a)) <= tol

    def test_elliptic_gamma_per_entry(self):
        par = RuijsenaarsParams(p=0.1, q=0.3, t=0.5)
        rng = np.random.default_rng(610)
        z = rng.uniform(0.6, 1.6, (3, 4)) * np.exp(1j * rng.uniform(0.2, 6.0, (3, 4)))
        got = elliptic_gamma(z, par)
        want = np.vectorize(lambda v: elliptic_gamma(v, par))(z)
        assert got.shape == z.shape
        assert np.all(np.abs(got - want) <= REL * np.abs(want))

    def test_weight_W_per_entry(self):
        rng = np.random.default_rng(611)
        z = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, (3, 2, 5)))
        got = weight_W(z, 1.3, DOM.p)
        assert got.shape == (2, 5)
        for a, b in itertools.product(range(2), range(5)):
            want = weight_W(z[:, a, b], 1.3, DOM.p)
            assert isinstance(want, float)
            assert abs(got[a, b] - want) <= REL * want


def scan_first_offender(t, dom):
    """What the j < k scan names first: root t_j before the pairs (j, k > j)."""
    for j in range(len(t)):
        if abs(theta1(t[j], dom)) < 1e-12:
            return f"root t_{j} on the period lattice"
        for k in range(j + 1, len(t)):
            if abs(theta1(t[j] - t[k], dom)) < 1e-12:
                return f"coincident roots t_{j}, t_{k}"
    return None


class TestPoleMessages:
    @pytest.mark.parametrize("t", [
        [0.4, 4.0, 0.9],                  # lattice root t_1 (4 = 2 ell)
        [0.4 + 0.1j, 0.9, 0.4 + 0.1j],    # coincident t_0, t_2
        [0.4, 0.4, 0.0],                  # pair (0, 1) is met before root t_2
        [0.0, 0.0, 0.7],                  # root t_0 is met before pair (0, 1)
        [0.5, 0.9, 0.9, 4.0],             # pair (1, 2) before root t_3
        [0.5, 4.0, 0.9, 0.9],             # root t_1 before pair (2, 3)
    ])
    def test_same_indices_as_scan(self, t):
        want = scan_first_offender(np.asarray(t, dtype=complex), DOM)
        with pytest.raises(PoleError) as exc:
            bethe_residuals(t, DOM)
        assert str(exc.value) == want
