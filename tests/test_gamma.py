import numpy as np
import pytest

from ellipcmr.domain import RuijsenaarsParams
from ellipcmr.errors import BranchError, DomainError, PoleError
from ellipcmr.gamma import elliptic_gamma, ground_state_psi0, weight_W, weight_Wrel
from ellipcmr.theta import theta_q
from oracles import elliptic_gamma_logsum


class TestEllipticGamma:
    def test_shift_identity(self):
        par = RuijsenaarsParams(p=0.1, q=0.1, t=0.3)
        z = 0.8
        lhs = elliptic_gamma(par.q * z, par)
        rhs = theta_q(z, par.p) * elliptic_gamma(z, par)
        assert abs(lhs - rhs) <= 1e-13 * abs(rhs)

    def test_p_zero_single_product(self):
        par = RuijsenaarsParams(p=0.0, q=0.2, t=0.3)
        z = 0.5 + 0.1j
        direct = 1.0 + 0.0j
        qm = 1.0
        for _ in range(200):
            direct /= (1.0 - qm * z)
            qm *= par.q
        assert abs(elliptic_gamma(z, par) - direct) <= 1e-13 * abs(direct)

    def test_reflection(self):
        par = RuijsenaarsParams(p=0.1, q=0.1, t=0.3)
        z = 0.6 + 0.2j
        prod = elliptic_gamma(par.p * par.q / z, par) * elliptic_gamma(z, par)
        assert abs(prod - 1.0) <= 1e-13

    # the product rounds like a log-sum over about (n_p + 1)(n_q + 1) factors
    HIGHER_NOMES = [(0.5, 2e-13), (0.9, 1e-11)]

    @pytest.mark.parametrize("pq, tol", HIGHER_NOMES, ids=["0.5", "0.9"])
    def test_shift_identity_at_higher_nomes(self, pq, tol):
        par = RuijsenaarsParams(p=pq, q=pq, t=0.3)
        for z in (0.8, 0.6 + 0.2j, 0.9 * np.exp(1.3j)):
            lhs = elliptic_gamma(par.q * z, par)
            rhs = theta_q(z, par.p) * elliptic_gamma(z, par)
            assert abs(lhs - rhs) <= tol * abs(rhs), z

    @pytest.mark.parametrize("pq, tol", HIGHER_NOMES, ids=["0.5", "0.9"])
    def test_reflection_at_higher_nomes(self, pq, tol):
        par = RuijsenaarsParams(p=pq, q=pq, t=0.3)
        for z in (0.8, 0.6 + 0.2j, 0.9 * np.exp(1.3j)):
            prod = elliptic_gamma(par.p * par.q / z, par) * elliptic_gamma(z, par)
            assert abs(prod - 1.0) <= tol, z

    @pytest.mark.parametrize("p, q, tol", [(0.1, 0.1, 1e-13), (0.5, 0.5, 1e-13),
                                           (0.01, 0.9, 1e-13), (0.9, 0.01, 1e-13),
                                           (0.9, 0.9, 5e-12)])
    def test_matches_the_log_sum_oracle(self, p, q, tol):
        rng = np.random.default_rng(2501)
        z = rng.uniform(0.6, 1.4, 8) * np.exp(1j * rng.uniform(0.5, 2 * np.pi - 0.5, 8))
        got = elliptic_gamma(z, RuijsenaarsParams(p=p, q=q, t=0.3))
        ref = np.array([elliptic_gamma_logsum(zz, p, q) for zz in z])
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= tol

    def test_pole_names_its_level(self):
        par = RuijsenaarsParams(p=0.1, q=0.2, t=0.3)
        with pytest.raises(PoleError, match=r"p\^-1 q\^-1"):
            elliptic_gamma(1.0 / (par.p * par.q), par)

    @pytest.mark.parametrize("z", [np.nan, [0.5, complex(np.inf, 0.0)]], ids=["nan", "inf"])
    def test_non_finite_argument_rejected(self, z):
        # before, elliptic_gamma(nan, par) returned NaN: no truncation order was needed
        with pytest.raises(DomainError, match="non-finite"):
            elliptic_gamma(z, RuijsenaarsParams(p=0.1, q=0.2, t=0.3))

    def test_pole_rejected(self):
        par = RuijsenaarsParams(p=0.1, q=0.2, t=0.3)
        with pytest.raises(PoleError):
            elliptic_gamma(1.0, par)       # denominator factor n = m = 0
        with pytest.raises(PoleError):
            elliptic_gamma(0.0, par)


class TestWeights:
    def test_trig_two_point_closed_form(self):
        z = np.exp(1j * np.array([0.7, 2.1]))
        w = weight_W(z, 1.0, 0.0)
        expect = (2 - z[0] / z[1] - z[1] / z[0]).real
        assert abs(w - expect) <= 1e-14 * abs(expect)
        assert w >= 0.0

    def test_nonnegative_on_torus(self, dom):
        for j in range(8):
            z = np.exp(1j * np.array([0.3 + 0.4 * j, 2.0 - 0.3 * j]))
            assert weight_W(z, 1.3, dom.p) >= 0.0

    def test_matches_ground_state_square(self, dom):
        x = np.array([0.9, 0.2, -0.8])   # real ordered
        z = np.exp(1j * np.pi * x / dom.ell)
        g = 1.3
        w = weight_W(z, g, dom.p)
        psi0 = ground_state_psi0(x, g, dom)
        assert abs(w - abs(psi0) ** 2) <= 1e-10 * abs(w)

    def test_ground_state_at_coincident_points(self, dom):
        # vt1(0) = 0: an integer power gives 0, a non-integer one has no principal branch
        x = np.array([0.3, 0.3, 0.9])
        assert ground_state_psi0(x, 2.0, dom) == 0
        with pytest.raises(BranchError):
            ground_state_psi0(x, 1.3, dom)

    def test_coincident_arguments_rejected(self, dom):
        with pytest.raises(PoleError):
            weight_W(np.array([1.0 + 0j, 1.0 + 0j]), 1.0, dom.p)

    def test_unimodularity_required(self, dom):
        with pytest.raises(PoleError):
            weight_W(np.array([1.2 + 0j, 1.0 + 0j]), 1.0, dom.p)

    def test_relativistic_weight_t_one(self):
        par = RuijsenaarsParams(p=0.1, q=0.2, t=1.0)
        z = np.exp(1j * np.array([0.4, 1.5]))
        assert weight_Wrel(z, par) == 1.0

    def test_relativistic_weight_per_point(self):
        # a (2, 2) batch once gave one float, 0.00328, for these two points
        par = RuijsenaarsParams(p=0.1, q=0.2, t=0.4)
        w = weight_Wrel(np.exp(1j * np.array([[0.3, 1.0], [0.2, 1.4]])), par)
        assert w.shape == (2,)
        assert np.allclose(w, [0.56114437, 1.24844428], rtol=0, atol=1e-8)

    def test_relativistic_weight_batch_equals_per_point_calls(self):
        par = RuijsenaarsParams(p=0.05, q=0.2, t=0.4)
        z = np.exp(1j * np.array([[0.4, 1.5, -2.0], [0.1, 2.2, -1.1], [0.9, -0.3, 2.7]]))
        w = weight_Wrel(z, par)
        assert w.shape == (3,)
        for k in range(3):
            one = weight_Wrel(z[k], par)
            assert isinstance(one, float) and abs(w[k] - one) <= 1e-14 * one

    def test_relativistic_weight_grid_batch_equals_per_point_calls(self):
        par = RuijsenaarsParams(p=0.1, q=0.3, t=0.6)
        z = np.exp(1j * np.linspace(-3.0, 3.0, 16).reshape(2, 2, 4))
        w = weight_Wrel(z, par)
        assert w.shape == (2, 2)
        for a in range(2):
            for b in range(2):
                one = weight_Wrel(z[a, b], par)
                assert isinstance(one, float) and abs(w[a, b] - one) <= 1e-14 * abs(one)

    @pytest.mark.parametrize("z", [
        [2.0, 1.0],
        np.exp(1j * np.array([0.4, 0.4, 1.5])),
        [np.exp(1j * np.array([0.4, 1.5])), [1.0, 1.1j]],
    ], ids=["off-torus", "coincident", "batch-one-off"])
    def test_relativistic_weight_needs_the_torus(self, z):
        # the checks of weight_W: before, [2, 1] gave the weight -1.378
        par = RuijsenaarsParams(p=0.1, q=0.2, t=0.4)
        with pytest.raises(PoleError):
            weight_Wrel(np.asarray(z), par)
        with pytest.raises(PoleError):
            weight_W(np.asarray(z), 1.0, par.p)

    def test_relativistic_weight_real(self):
        par = RuijsenaarsParams(p=0.05, q=0.2, t=0.4)
        z = np.exp(1j * np.array([0.4, 1.5]))
        w = weight_Wrel(z, par)
        assert isinstance(w, float) and w > 0.0
