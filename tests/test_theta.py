import hashlib
import math

import numpy as np
import pytest

from ellipcmr import theta
from ellipcmr.domain import EllipticDomain
from ellipcmr.errors import BranchError, DomainError, PoleError
from ellipcmr.theta import (_wdlog_jet, heat_constant_c0, heat_residual, eta1_over_omega1,
                            log_theta_q, theta1, theta1_dlog2, theta1_dtau,
                            theta1_jet, theta1_logderiv, theta1_power, theta1_tau_logderiv,
                            theta_q, wp1, wp1_fourier_coeffs)

from oracles import (fd_derivative, lattice_sum_wp1, periodized_sinh_sum, theta_euler,
                     theta_euler2, theta_factors)


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

    def test_zero_argument_at_p_zero(self):
        # no p^n / z factor exists at p = 0, so theta(0; 0) = 1 and its log is 0
        assert theta_q(0.0, 0.0) == 1.0
        assert log_theta_q(0.0, 0.0) == 0.0
        # a raw invalid nome still fails in the truncation rule, not as the p = 0 case
        for bad in (math.nan, -0.1):
            with pytest.raises(DomainError):
                theta_q(0.5, bad)
            with pytest.raises(DomainError):
                log_theta_q(0.5, bad)


def summed_principal_logs(z, p):
    """sum over the factors 1 - y of theta(z; p) of log(1 - y), with the factor count.

    The ladder runs until p^n max(|z|, 1/|z|) < 1e-18, past the library's truncation.
    """
    scale = float(np.max(np.maximum(np.abs(z), 1.0 / np.abs(z))))
    terms = math.ceil(math.log(1e-18 / scale) / math.log(p)) if p > 0 else 1
    factors = theta_factors(z, p, terms)
    return sum(np.log(1.0 - y) for y, _ in factors), len(factors)


def polar(rng, r):
    return r * np.exp(1j * rng.uniform(-math.pi, math.pi, np.shape(r)))


class TestLogThetaQ:
    """One principal log per block of factors equals the per-factor summed logs."""

    @pytest.mark.parametrize("p", [0.0, 0.02, 0.12, 0.5, 0.9])
    @pytest.mark.parametrize("where", ["annulus", "inside", "outside"])
    def test_matches_summed_principal_logs(self, p, where):
        rng = np.random.default_rng(1700)
        lo = max(p, 0.05)
        r = {"annulus": rng.uniform(lo, 1.0, 32),          # p < |z| < 1
             "inside": rng.uniform(0.3 * lo, lo, 32),      # |z| < p: 1 - p/z leaves the disk
             "outside": rng.uniform(1.0, 2.5, 32)}[where]  # |z| > 1: 1 - z leaves the disk
        z = polar(rng, r)
        want, n_factors = summed_principal_logs(z, p)
        got = log_theta_q(z, p)
        # a few ulp of an order-one log per factor of the oracle's own sum
        assert np.max(np.abs(got - want)) <= 1e-15 * n_factors
        t = theta_q(z, p)
        assert np.max(np.abs(np.exp(got) - t) / np.abs(t)) <= 1e-13

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.9])
    def test_single_points_near_the_positive_axis(self, p):
        # alone in its array, a point fixes every bound; near the positive axis a
        # factor 1 - w with |w| > 1 has Arg near +-pi, and its neighbours push the
        # sum of Args past pi unless that factor keeps a log of its own
        for r in (0.35 * p, 0.7 * p, 1.8, 2.6):
            for theta_ in (0.003, 0.03, 0.3, -0.003, -0.03, -0.3):
                z = r * np.exp(1j * theta_)
                want, n_factors = summed_principal_logs(np.array([z]), p)
                got = log_theta_q(z, p)
                assert isinstance(got, complex)
                assert abs(got - want[0]) <= 1e-15 * n_factors, (r, theta_)

    def test_near_the_inner_rim_takes_several_blocks(self, monkeypatch):
        # at p = 0.9 and |z| just above p, the factors 1 - p^n/z have |w| near 1 and
        # their Arg bounds add to more than pi within the first few rungs
        rng = np.random.default_rng(1701)
        z = polar(rng, np.full(64, 0.9 * 1.001))
        logs = []
        real_log = np.log

        def counting_log(x):
            logs.append(np.shape(x))
            return real_log(x)

        monkeypatch.setattr(theta.np, "log", counting_log)
        got = log_theta_q(z, 0.9)
        monkeypatch.undo()
        assert len(logs) > 1
        want, n_factors = summed_principal_logs(z, 0.9)
        assert np.max(np.abs(got - want)) <= 1e-15 * n_factors

    def test_p_zero_is_the_plain_log(self):
        rng = np.random.default_rng(1702)
        z = np.concatenate([polar(rng, rng.uniform(0.1, 2.0, 16)), [0.5, -3.0, 2.0 + 0j]])
        assert log_theta_q(z, 0.0).tobytes() == np.log(1.0 - z).tobytes()
        assert log_theta_q(0.3 + 0.4j, 0.0) == np.log(0.7 - 0.4j)


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
            assert abs(fc.plus[m, 0] + c * m) <= 1e-15 * c * m
            assert fc.minus[m, 0] == 0.0

    def test_reconstruction_matches_wp1(self, dom_small_p):
        # the tables summed here, at a z formed here: the p-free part sum_m m z^m
        # converges only for |z| < 1, so it is resummed as z/(1 - z)^2
        fc = wp1_fourier_coeffs(dom_small_p, m_max=40)
        ell, p = dom_small_p.ell, dom_small_p.p
        x = 0.3 * ell
        z = np.exp(1j * math.pi * x / ell)
        c = -((math.pi / ell) ** 2)
        m = np.arange(len(fc.plus))
        powers = p ** np.arange(fc.plus.shape[1])
        total = (c * z / (1.0 - z) ** 2
                 + np.sum((fc.plus @ powers - c * m) * z ** m + (fc.minus @ powers) * z ** -m))
        assert abs(total - wp1(x, dom_small_p)) <= 1e-10

    # frozen sha256 of plus.tobytes() + minus.tobytes(); (pi, 0.0) at (61, 12) is
    # apply_L_series' call at K = 12, n_cap = 24
    FROZEN = [
        ((2.0, 0.05), 8, None, (9, 12),
         "2fe83ec4692d5fa2ddaa063c8cd90d68504768f12b8d7357f376e9583a28fab1"),
        ((2.0, 0.1), 10, 20, (11, 21),
         "f3b799e05581ef204c5682993879f4797d478f3f52adf564c24aecf0aae917a5"),
        ((2.0, 0.5), 3, None, (4, 55),
         "ef626476ded5486f44cb61ec83c46dcb0bc0e1202202309cc918df8d1cae9670"),
        ((1.3, 0.0), 6, None, (7, 7),
         "b0a414ce3565f3779fe4f248787461235c9b8f9b755aabd06bea896bd9db2ef9"),
        ((math.pi, 0.0), 61, 12, (62, 13),
         "f0cfcab1b21dd98347c3e42f79ec3c56dfac3afecddb37a9519db694cd6ebf88"),
        ((math.pi, 0.0), 29, 6, (30, 7),
         "56ca9c0ea918ee0c69b38571fe06165636a7e94a0f621db70fea1a3333afa145"),
    ]

    @pytest.mark.parametrize("nome, m_max, k_max, shape, digest", FROZEN,
                             ids=[f"{n[0]:.4g}-{n[1]}-{m}-{k}" for n, m, k, _, _ in FROZEN])
    def test_tables_frozen(self, nome, m_max, k_max, shape, digest):
        fc = wp1_fourier_coeffs(EllipticDomain.from_nome(*nome), m_max=m_max, k_max=k_max)
        assert fc._fields == ("plus", "minus")
        assert fc.plus.shape == fc.minus.shape == shape
        assert fc.plus.dtype == fc.minus.dtype == np.float64
        assert hashlib.sha256(fc.plus.tobytes() + fc.minus.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("m_max", [0, -3])
    def test_order_below_one_rejected(self, dom_small_p, m_max):
        with pytest.raises(DomainError, match="m_max"):
            wp1_fourier_coeffs(dom_small_p, m_max=m_max)

    @pytest.mark.parametrize("kw", [{"m_max": 2.5}, {"m_max": 8, "k_max": -1},
                                    {"m_max": 8, "k_max": 4.0}])
    def test_orders_must_be_integers(self, dom_small_p, kw):
        # before, m_max=2.5 raised TypeError and k_max=-1 IndexError
        with pytest.raises(DomainError, match="need integers"):
            wp1_fourier_coeffs(dom_small_p, **kw)

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

    def test_heat_residual_walks_the_ladder_once(self, dom, monkeypatch):
        # the jet and the tau log-derivative come from one walk; heat_constant_c0 has its
        # own scalar loop, the independent series, and walks no block of the ladder
        walks = []
        counted = theta._blocks
        monkeypatch.setattr(theta, "_blocks", lambda *a: walks.append(a) or counted(*a))
        heat_residual(dom.ell * np.array([0.37, 0.8, 1.3]), dom)
        assert len(walks) == 1

    def test_tau_logderiv_finite_at_the_origin(self, dom):
        # theta1_jet has a pole at x = 0; the tau walk has none, and vt1(0) = 0
        assert math.isfinite(abs(theta1_tau_logderiv(0.0, dom)))
        assert theta1_dtau(0.0, dom) == 0.0

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


class TestNonFiniteInput:
    """A non-finite argument fails at every nome, a z in the nome ladder and an x where
    z = exp(i pi x/ell) is formed: before, n_terms certified 0 terms at the scale NaN,
    and theta_q(nan, 0.1) returned NaN."""

    @pytest.mark.parametrize("p", [0.0, 0.1])
    def test_every_ladder_kernel_rejects_it(self, p):
        dom = EllipticDomain.from_nome(2.0, p)
        a = np.array([0.5, math.nan])
        z = np.array([0.5, complex(0.3, math.inf)])
        for call in (lambda: theta_q(math.nan, p), lambda: theta_q(a, p), lambda: theta_q(z, p),
                     lambda: log_theta_q(z, p), lambda: theta1(math.nan, dom),
                     lambda: theta1_jet(a, dom), lambda: theta1_tau_logderiv(a, dom),
                     lambda: wp1(a, dom)):
            with pytest.raises(DomainError, match="non-finite"):
                call()

    @pytest.mark.parametrize("p", [0.0, 0.1])
    @pytest.mark.parametrize("x", [complex(0.3, math.inf), complex(0.3, -math.inf),
                                   complex(math.inf, 0.2), complex(-math.inf, 0.2)])
    def test_infinite_x_rejected_before_any_arithmetic(self, p, x):
        # before, exp(i pi x/ell) (in wp1 the period shift or the sine) warned on x
        # before any DomainError, which fails with warnings as errors
        dom = EllipticDomain.from_nome(2.0, p)
        for fn in (theta1, theta1_jet, theta1_tau_logderiv, wp1):
            for arg in (x, np.array([0.5, x])):
                with pytest.raises(DomainError, match="non-finite argument x"):
                    fn(arg, dom)

    @pytest.mark.parametrize("g", [math.nan, math.inf])
    def test_non_finite_exponent_rejected(self, dom, g):
        # before, g = NaN raised a bare ValueError in the integer test of the power rule
        with pytest.raises(DomainError, match="not finite"):
            theta1_power(0.62 * dom.ell, g, dom)


class TestStackedWalks:
    """Each ladder walk gives the same bytes with all its levels in one stack as level by
    level (the per-level loop), so the _STACK cap changes only the time."""

    @staticmethod
    def points(shape, p):
        rng = np.random.default_rng([43, len(shape), int(1e4 * p)])
        dom = EllipticDomain.from_nome(1.7, p)
        height = dom.delta if p > 0.0 else dom.ell
        x = np.asarray(dom.ell * rng.uniform(-2.0, 2.0, shape)
                       + 1j * height * rng.uniform(-0.9, 0.9, shape))
        return x, np.exp(1j * math.pi * x / dom.ell)

    @classmethod
    def walks(cls, shape, p):
        dom = EllipticDomain.from_nome(1.7, p)
        x, w = cls.points(shape, p)
        return [theta1(x, dom), theta_q(w, p), *theta1_jet(x, dom, _tau=True),
                theta1_tau_logderiv(x, dom), wp1(x, dom), *_wdlog_jet(w, p, True)]

    @pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 4), (2, 300), (0,)], ids=str)
    @pytest.mark.parametrize("p", [0.0, 1e-3, 0.05, 0.19, 0.5, 0.8])
    def test_stacked_equals_level_by_level(self, shape, p, monkeypatch):
        monkeypatch.setattr(theta, "_STACK", 0)
        level = self.walks(shape, p)
        monkeypatch.setattr(theta, "_STACK", 2 ** 62)
        stacked = self.walks(shape, p)
        for a, b in zip(level, stacked):
            assert type(a) is type(b)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    @pytest.mark.parametrize("shape", [(), (7,), (2, 300)], ids=str)
    @pytest.mark.parametrize("p", [0.0, 0.19])
    def test_tau_series_changes_no_other_output(self, shape, p):
        # the walk with its tau series on gives the switch-off outputs bit for bit,
        # and its tau series is theta1_tau_logderiv's
        x, w = self.points(shape, p)
        dom = EllipticDomain.from_nome(1.7, p)
        off, on = theta1_jet(x, dom), theta1_jet(x, dom, _tau=True)
        woff, won = _wdlog_jet(w, p), _wdlog_jet(w, p, True)
        assert (len(off), len(on), len(woff), len(won)) == (3, 4, 2, 3)
        for a, b in zip(off + woff + (theta1_tau_logderiv(x, dom),), on[:3] + won[:2] + on[3:]):
            assert type(a) is type(b)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_cap_counts_levels_times_points(self, monkeypatch):
        z = np.exp(1j * np.linspace(0.1, 3.0, 7))
        levels = len(theta._nome_ladder(0.19, z)[0])
        monkeypatch.setattr(theta, "_STACK", levels * z.size)
        assert len(list(theta._blocks(0.19, z))) == 1
        monkeypatch.setattr(theta, "_STACK", levels * z.size - 1)
        assert len(list(theta._blocks(0.19, z))) == levels
