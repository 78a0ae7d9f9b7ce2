import math

import numpy as np
import pytest

from ellipcmr.domain import EllipticDomain
from ellipcmr.errors import BranchError, DomainError, PoleError
from ellipcmr.theta import (_wdlog_jet, heat_constant_c0, heat_residual, eta1_over_omega1,
                            log_theta_q, theta1, theta1_dlog2, theta1_dtau,
                            theta1_jet, theta1_logderiv, theta1_power, theta1_tau_logderiv,
                            theta_q, wp1, wp1_fourier_coeffs)

from oracles import (fd_derivative, lattice_sum_wp1, periodized_sinh_sum, theta_euler,
                     theta_euler2)


class TestThetaQ:
    def test_p_zero_is_linear(self):
        z = 0.3 + 0.4j
        assert theta_q(z, 0.0) == 1.0 - z

    def test_vanishes_at_one(self):
        assert theta_q(1.0, 0.17) == 0.0

    def test_functional_equation(self):
        # theta(p z; p) = -theta(z; p)/z, both sides from the truncated product
        z, p = 0.7 + 0.1j, 0.1
        lhs = theta_q(p * z, p)
        rhs = -theta_q(z, p) / z
        assert abs(lhs - rhs) <= 1e-14 * abs(rhs)

    def test_zero_argument_rejected(self):
        with pytest.raises(PoleError):
            theta_q(0.0, 0.1)


class TestTheta1:
    def test_zero_at_origin(self):
        dom = EllipticDomain.from_nome(2.0, 0.1)
        assert theta1(0.0, dom) == 0.0

    def test_antiperiodicity_2ell(self, dom):
        # vt1(x + 2 ell) = -vt1(x): the sin factor flips, the product is z-periodic
        x = 0.3 * dom.ell + 0.1j * dom.delta
        t = theta1(x, dom)
        assert abs(theta1(x + 2 * dom.ell, dom) + t) <= 1e-12 * abs(t)

    def test_quasi_periodicity_2idelta(self, dom):
        x = 0.3 * dom.ell + 0.1j * dom.delta
        mult = -math.exp(math.pi * dom.delta / dom.ell) * np.exp(-1j * math.pi * x / dom.ell)
        lhs = theta1(x + 2j * dom.delta, dom)
        assert abs(lhs - mult * theta1(x, dom)) <= 1e-12 * abs(lhs)

    @pytest.mark.parametrize("p", [0.0, 0.05, 0.2])
    def test_quasi_periodicity_sweep(self, p):
        dom = EllipticDomain.from_nome(2.0, p)
        cap = dom.ell if math.isinf(dom.delta) else min(dom.delta, dom.ell)
        for j in range(6):
            x = dom.ell * (0.11 + 0.13 * j) + 1j * cap * (0.04 + 0.03 * j)
            t = theta1(x, dom)
            assert abs(theta1(x + 2 * dom.ell, dom) + t) <= 1e-9 * abs(t)
            if p > 0:
                mult = -math.exp(math.pi * dom.delta / dom.ell) * np.exp(-1j * math.pi * x / dom.ell)
                assert abs(theta1(x + 2j * dom.delta, dom) - mult * t) <= 1e-9 * abs(mult * t)

    def test_product_relation_to_theta_q(self, dom):
        x = 0.41 * dom.ell + 0.21j
        z = np.exp(1j * math.pi * x / dom.ell)
        rel = 1j * z ** (-0.5) * theta_q(z, dom.p)
        assert abs(theta1(x, dom) - rel) <= 1e-13 * abs(rel)

    def test_determinism(self, dom):
        x = 0.37 * dom.ell + 0.05j
        assert theta1(x, dom) == theta1(x, dom)


class TestLogDerivatives:
    def test_zeta1_odd(self, dom):
        x = 0.4 * dom.ell
        assert abs(theta1_logderiv(x, dom) + theta1_logderiv(-x, dom)) <= 1e-14

    def test_zeta1_finite_difference_oracle(self, dom):
        x = 0.25 * dom.ell
        fd = fd_derivative(lambda u: np.log(theta1(u, dom)), x, h=1e-4)
        assert abs(theta1_logderiv(x, dom) - fd) <= 1e-8

    def test_zeta1_periodicity(self, dom):
        x = 0.31 * dom.ell + 0.07j
        a = theta1_logderiv(x, dom)
        assert abs(theta1_logderiv(x + 2 * dom.ell, dom) - a) <= 1e-12 * abs(a)

    def test_zeta1_pole_on_lattice(self, dom):
        with pytest.raises(PoleError):
            theta1_logderiv(0.0, dom)


class TestTheta1Jet:
    """The one-pass (vt1, zeta1, (ln vt1)'') against theta1, the factor sums and wp1."""

    @staticmethod
    def edge_points(dom, rng):
        # real parts over two periods, |Im x| up to 1.98 delta: pair differences of
        # roots inside |Im t| <= delta reach the edge 2 delta of the series' strip
        height = dom.delta if dom.p > 0.0 else dom.ell
        return (dom.ell * rng.uniform(-2.0, 2.0, 120)
                + 1j * height * rng.uniform(-1.98, 1.98, 120))

    @pytest.mark.parametrize("ell,p", [(1.3, 0.01), (2.0, 0.1), (2.0, 0.19), (3.7, 0.4),
                                       (2.0, 0.0)])
    def test_matches_the_separate_kernels(self, ell, p):
        dom = EllipticDomain.from_nome(ell, p)
        x = self.edge_points(dom, np.random.default_rng([31, int(1000 * p)]))
        vt, zeta, dlog2 = theta1_jet(x, dom)
        assert np.array_equal(vt, theta1(x, dom))        # bit-identical
        # vt1 = i z^{-1/2} theta(z; p), so zeta1 = (i pi/ell)(-1/2 + z d/dz log theta)
        z = np.exp(1j * math.pi * x / ell)
        ref_z = 1j * (math.pi / ell) * (-0.5 + theta_euler(z, p))
        assert np.all(np.abs(zeta - ref_z) <= 1e-12 * np.abs(ref_z))
        assert np.array_equal(theta1_logderiv(x, dom), zeta)
        ref_w = wp1(x, dom)
        assert np.all(np.abs(-dlog2 - ref_w) <= 1e-12 * np.abs(ref_w))
        assert np.array_equal(theta1_dlog2(x, dom), dlog2)

    @pytest.mark.parametrize("ell,p", [(1.3, 0.01), (2.0, 0.19), (3.7, 0.4), (2.0, 0.0)])
    def test_w_form_matches_the_factor_sums(self, ell, p):
        dom = EllipticDomain.from_nome(ell, p)
        w = np.exp(1j * math.pi * self.edge_points(dom, np.random.default_rng([37, int(1000 * p)]))
                   / ell)
        e1, e2 = _wdlog_jet(w, p)
        for got, want in ((e1, theta_euler(w, p)), (e2, theta_euler2(w, p))):
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    def test_scalar_input(self, dom):
        x = 0.37 * dom.ell + 0.2j
        out = theta1_jet(x, dom)
        assert all(isinstance(v, complex) for v in out)
        assert out[0] == theta1(x, dom)

    @pytest.mark.parametrize("p", [0.0, 0.1])
    def test_empty_input(self, p):
        dom = EllipticDomain.from_nome(2.0, p)
        for out in theta1_jet(np.array([], dtype=complex), dom):
            assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_pole_on_lattice(self, dom):
        with pytest.raises(PoleError):
            theta1_jet(np.array([0.3, 0.0]), dom)


class TestWp1:
    def test_double_periodicity(self, dom):
        x = 0.3 * dom.ell + 0.2j
        w = wp1(x, dom)
        assert abs(wp1(x + 2 * dom.ell, dom) - w) <= 1e-10 * abs(w)
        assert abs(wp1(x + 2j * dom.delta, dom) - w) <= 1e-10 * abs(w)
        # strip-interior comparison: both sides summed without reduction
        y = 0.3 * dom.ell + 1.1j * dom.delta
        assert abs(wp1(y - 2j * dom.delta, dom) - wp1(y, dom)) <= 1e-10 * abs(wp1(y, dom))

    def test_trigonometric_limit(self, dom_trig):
        x = 0.7
        c = math.pi / (2 * dom_trig.ell)
        assert wp1(x, dom_trig) == c ** 2 / math.sin(c * x) ** 2

    def test_second_log_derivative_link(self, dom):
        # wp1 = -(ln vt1)'' on a 20-point grid, analytic second derivative
        for j in range(20):
            x = dom.ell * (0.05 + 0.045 * j)
            assert abs(wp1(x, dom) + theta1_dlog2(x, dom)) <= 1e-8

    def test_lattice_sum_definition(self, dom):
        x = 0.43 * dom.ell + 0.1j
        assert abs(wp1(x, dom) - lattice_sum_wp1(x, dom)) <= 1e-10

    def test_limit_error_halves(self):
        # error against the trig form is O(p): p -> p/2 when delta grows by (ell/2pi) ln 2
        ell, x = 2.0, 0.61
        c = math.pi / (2 * ell)
        trig = c ** 2 / math.sin(c * x) ** 2
        d1 = EllipticDomain.from_nome(ell, 1e-3)
        d2 = EllipticDomain.from_half_periods(ell, d1.delta + ell * math.log(2) / (2 * math.pi))
        e1 = abs(wp1(x, d1) - trig)
        e2 = abs(wp1(x, d2) - trig)
        assert abs(e2 / e1 - 0.5) < 0.01

    def test_periodized_sinh_constant_shift(self, dom):
        # Remark-type check: the sinh periodization equals wp1 up to a constant
        d1 = periodized_sinh_sum(0.31 * dom.ell, dom) - wp1(0.31 * dom.ell, dom)
        d2 = periodized_sinh_sum(0.67 * dom.ell, dom) - wp1(0.67 * dom.ell, dom)
        assert abs(d1 - d2) <= 1e-8

    def test_pole_at_lattice(self, dom):
        with pytest.raises(PoleError):
            wp1(0.0, dom)


class TestWpFourier:
    def test_p_zero_coefficients(self, dom_small_p):
        fc = wp1_fourier_coeffs(dom_small_p, m_max=8)
        c = (math.pi / dom_small_p.ell) ** 2
        for m in range(1, 9):
            assert abs(fc.coefficient(m, p=0.0) + c * m) <= 1e-15 * c * m
            assert fc.coefficient(-m, p=0.0) == 0.0

    def test_reconstruction_matches_wp1(self, dom_small_p):
        fc = wp1_fourier_coeffs(dom_small_p, m_max=40)
        x = 0.3 * dom_small_p.ell
        assert abs(fc.reconstruct(x) - wp1(x, dom_small_p)) <= 1e-10

    @pytest.mark.parametrize("m_max", [0, -3])
    def test_order_below_one_rejected(self, dom_small_p, m_max):
        with pytest.raises(DomainError, match="m_max"):
            wp1_fourier_coeffs(dom_small_p, m_max=m_max)

    def test_plus_minus_symmetry(self, dom_small_p):
        # coefficients of z^m and z^-m agree at every order p^{m nu}, nu >= 1
        fc = wp1_fourier_coeffs(dom_small_p, m_max=10, k_max=20)
        for m in range(1, 11):
            for k in range(1, 21):
                assert fc.plus[m, k] == fc.minus[m, k]


class TestHeat:
    def test_c0_p_zero(self, dom_trig):
        assert heat_constant_c0(dom_trig) == (math.pi / dom_trig.ell) ** 2 / 4

    def test_c0_eta1_identity(self, dom):
        # c0 = 2 eta1/omega1 + (pi/ell)^2/12 through two independent series
        lhs = heat_constant_c0(dom)
        rhs = 2 * eta1_over_omega1(dom) + (math.pi / dom.ell) ** 2 / 12
        assert abs(lhs - rhs) <= 1e-12

    def test_heat_residual(self, dom):
        assert abs(heat_residual(0.37 * dom.ell, dom)) <= 1e-8

    def test_dtau_vanishes_at_p_zero(self, dom_trig):
        assert theta1_dtau(0.5, dom_trig) == 0.0

    def test_dtau_finite_difference_oracle(self, dom):
        # d/dtau = (ell/i) d/ddelta at fixed ell
        x = 0.3 * dom.ell + 0.1j
        h = 1e-5
        up = EllipticDomain.from_half_periods(dom.ell, dom.delta + h)
        dn = EllipticDomain.from_half_periods(dom.ell, dom.delta - h)
        fd = (theta1(x, up) - theta1(x, dn)) / (2 * h) * (dom.ell / 1j)
        assert abs(theta1_dtau(x, dom) - fd) <= 1e-6


class TestTheta1Power:
    def test_integer_exponent_everywhere(self, dom):
        x = 0.3 * dom.ell + 0.4j
        assert theta1_power(x, 3, dom) == theta1(x, dom) ** 3

    def test_positive_domain(self, dom):
        x = 0.62 * dom.ell
        v = theta1_power(x, 1.7, dom)
        assert abs(v - theta1(x, dom) ** 1.7) <= 1e-13 * abs(v)

    def test_branch_error_outside(self, dom):
        # vt1 < 0 for x in (-2 ell, 0)
        with pytest.raises(BranchError):
            theta1_power(-0.5 * dom.ell, 1.7, dom)


class TestEmptyInput:
    @pytest.mark.parametrize("p", [0.0, 0.1])
    def test_every_kernel_returns_empty(self, p):
        dom = EllipticDomain.from_nome(2.0, p)
        e = np.array([], dtype=complex)
        calls = [lambda: theta_q(e, p), lambda: log_theta_q(e, p),
                 lambda: theta1(e, dom), lambda: theta1_logderiv(e, dom),
                 lambda: theta1_dlog2(e, dom), lambda: theta1_dtau(e, dom),
                 lambda: theta1_tau_logderiv(e, dom), lambda: theta1_power(e, 2, dom),
                 lambda: theta1_power(e, 1.5, dom), lambda: wp1(e, dom),
                 lambda: heat_residual(e, dom)]
        for call in calls:
            out = call()
            assert isinstance(out, np.ndarray) and out.shape == (0,)
