import math

import numpy as np
import pytest

from ellipcmr.domain import EllipticDomain
from ellipcmr.errors import DomainError, PoleError, SeamError, WindowError
from ellipcmr.gamma import ground_state_psi0
from ellipcmr.kernels import KernelSpec, kernel_K, kernel_identity_residual
from ellipcmr.operators import fit_nonstationary_E, nonstationary_residual
from ellipcmr.pseries import solve_variant_I
from ellipcmr import transform
from ellipcmr.theta import theta1_power
from ellipcmr.transform import (ContourConfig, Partition2, _f_legs, _f_moments,
                                assemble_P_lambda, contour_F_lambda,
                                eigen_residuals_P_lambda, kernel_transform,
                                n2_single_contour_P, single_contour_psi_field)

from oracles import schur_2, theta_euler, theta_euler2, theta_factors

Z = np.exp(1j * np.array([0.4, 1.9]))


def table_for(lam, g, K=4):
    return solve_variant_I((lam.lam1 + g / 2.0, lam.lam2 - g / 2.0),
                           g * (g - 1.0), K)


class TestSingleContour:
    def test_free_fermion_residue_oracle(self):
        # p = 0, g = 1: residue calculus gives the Schur polynomials
        for lam in ((1, 0), (2, 0), (1, 1)):
            r = n2_single_contour_P(lam[0] - lam[1], lam[1], Z, 1.0, 0.0)
            assert abs(r.value - schur_2(lam, Z)) <= 1e-13

    def test_g_two_residue_oracle(self):
        # frozen values from double-pole residue calculus
        z1, z2 = Z
        expected = {(1, 0): 2 * (z1 + z2),
                    (2, 0): 3 * z1 ** 2 + 4 * z1 * z2 + 3 * z2 ** 2,
                    (1, 1): z1 * z2}
        for lam, val in expected.items():
            r = n2_single_contour_P(lam[0] - lam[1], lam[1], Z, 2.0, 0.0)
            assert abs(r.value - val) <= 1e-13 * max(1.0, abs(val))

    def test_node_doubling_certificate(self):
        r = n2_single_contour_P(1, 0, Z, 1.0, 0.05, ContourConfig(nodes=256))
        assert r.node_delta <= 1e-12

    def test_radius_independence(self):
        a = n2_single_contour_P(1, 0, Z, 1.3, 0.05, ContourConfig(R1=2.0))
        b = n2_single_contour_P(1, 0, Z, 1.3, 0.05, ContourConfig(R1=3.5))
        assert abs(a.value - b.value) <= 1e-10

    def test_window_violation(self):
        with pytest.raises(WindowError):
            n2_single_contour_P(1, 0, Z, 1.0, 0.05, ContourConfig(R1=30.0))
        with pytest.raises(WindowError):
            n2_single_contour_P(1, 0, Z, 1.0, 0.05, ContourConfig(R1=0.5))

    def test_negative_diff_rejected(self, dom_small_p):
        with pytest.raises(DomainError):
            n2_single_contour_P(-1, 0, Z, 1.0, 0.05)
        with pytest.raises(DomainError):
            single_contour_psi_field(-1, 0, 1.0, dom_small_p)

    def test_nonstationary_equation_kappa_g(self, dom_small_p, dom_trig):
        # psi = psi0 P solves the kappa = g equation (via the operators module);
        # at p = 0 the tau series has no terms
        for dom in (dom_small_p, dom_trig):
            for g in (1.0, 2.0):
                psi = single_contour_psi_field(1, 0, g, dom)
                E = fit_nonstationary_E(psi, g, [0.8, 0.1], g, dom)
                pts = [[1.2, 0.3], [0.6, -0.5], [1.7, 0.9]]
                worst = max(abs(nonstationary_residual(psi, g, E, x, g, dom))
                            / abs(psi(np.array(x, dtype=complex)).value) for x in pts)
                assert worst <= 1e-8

    def test_field_rejects_a_non_finite_point(self, dom_small_p):
        # z = exp(i pi x/ell) comes from theta's one x -> z map, which checks x first
        psi = single_contour_psi_field(1, 0, 2.0, dom_small_p)
        for x in ([0.8, math.nan], [math.inf, 0.1]):
            with pytest.raises(DomainError, match="non-finite argument x"):
                psi(np.array(x))

    def test_field_builds_moments_once_per_point(self, dom_small_p, monkeypatch):
        # value, partials and tau-derivative of psi0 P share one set of contour moments,
        # from one _wdlog_jet walk that carries the tau series
        calls = []
        counted = transform._wdlog_jet
        monkeypatch.setattr(transform, "_wdlog_jet",
                            lambda *a: calls.append(a[2:]) or counted(*a))
        psi = single_contour_psi_field(1, 0, 2.0, dom_small_p)
        nonstationary_residual(psi, 2.0, 1.0, [0.8, 0.1], 2.0, dom_small_p)
        assert calls == [(True,)]


class TestDoubleContour:
    def test_jacobi_trudi_at_free_fermion_point(self):
        def h(m):
            if m < 0:
                return 0.0
            return sum(Z[0] ** a * Z[1] ** (m - a) for a in range(m + 1))

        for lam in ((1, 0), (2, 0), (1, 1), (3, 1)):
            r = contour_F_lambda(lam[0], lam[1], Z, 1.0, 0.0)
            expect = h(lam[0]) * h(lam[1]) - h(lam[0] + 1) * h(lam[1] - 1)
            assert abs(r.value - expect) <= 1e-12 * max(1.0, abs(expect))

    def test_node_doubling(self):
        r = contour_F_lambda(1, 0, Z, 1.0, 0.05, ContourConfig(nodes=256))
        assert r.node_delta <= 1e-12

    def test_radii_invariance(self):
        a = contour_F_lambda(1, 0, Z, 1.4, 0.05, ContourConfig(R1=2.0, R2=6.0))
        b = contour_F_lambda(1, 0, Z, 1.4, 0.05, ContourConfig(R1=3.0, R2=9.0))
        assert abs(a.value - b.value) <= 1e-10

    def test_z_exchange_symmetry(self):
        zs = np.array([Z[1], Z[0]])
        a = contour_F_lambda(2, 1, Z, 1.4, 0.05)
        b = contour_F_lambda(2, 1, zs, 1.4, 0.05)
        assert abs(a.value - b.value) <= 1e-10

    def test_radii_window_enforced(self):
        with pytest.raises(WindowError):
            contour_F_lambda(1, 0, Z, 1.0, 0.05, ContourConfig(R1=6.0, R2=2.0))
        with pytest.raises(WindowError):
            contour_F_lambda(1, 0, Z, 1.0, 0.2, ContourConfig(R1=2.0, R2=6.0))

    def test_winding_checks(self, monkeypatch):
        # |z1| = 2.5 > R1 puts z1/xi1 outside the annulus (p, 1); |z1| = 0.2 < p R2
        # puts z1/xi2 inside |w| < p, which only the contour-2 factor sees.  The window
        # check would reject both first, so it is switched off here.
        monkeypatch.setattr(transform, "_check_window", lambda *a: None)
        cfg = ContourConfig(R1=2.0, R2=6.0, nodes=64)
        for z1, which in ((2.5, "F contour 1"), (0.2, "F contour 2")):
            with pytest.raises(WindowError, match=which):
                contour_F_lambda(1, 0, [z1, 1.0], 1.4, 0.05, cfg)

    @pytest.mark.parametrize("g", [1.0, 2.0, 3.0])
    def test_window_checked_on_both_circles(self, g):
        # no radii fit z = (5, 0.2) at p = 0.1 (the window needs p R2 < |z_i| < R1),
        # and the two windings cancel: before, F came back with node_delta 1.2e-8,
        # 3.1e-6 and 3.7e-4 at g = 1, 2, 3
        with pytest.raises(WindowError, match="F contour 1"):
            contour_F_lambda(1, 0, [5.0, 0.2], g, 0.1)
        with pytest.raises(WindowError, match="F contour 2"):
            contour_F_lambda(1, 0, [1.0, 0.3], g, 0.1)

    def test_node_count_validation(self):
        with pytest.raises(DomainError):
            ContourConfig(nodes=100)
        with pytest.raises(DomainError):
            ContourConfig(nodes=32)
        with pytest.raises(DomainError):
            ContourConfig(nodes=128.0)


class TestInputChecks:
    """The N = 2 contour functions take the two coordinates of one point and integer labels."""

    @pytest.mark.parametrize("x", [[0.3, -0.2, 0.5], [[0.3, -0.2], [0.1, 0.4]], 0.3, []],
                             ids=["three", "batch", "scalar", "empty"])
    def test_one_point_of_two_coordinates(self, x, dom_small_p):
        lam, g, p = Partition2(1, 0), 2.0, dom_small_p.p
        table = table_for(lam, g, K=2)
        z = np.exp(1j * np.array(x))
        for call in (lambda: n2_single_contour_P(1, 0, z, g, p),
                     lambda: contour_F_lambda(1, 0, z, g, p),
                     lambda: assemble_P_lambda(lam, table, z, g, p),
                     lambda: eigen_residuals_P_lambda(lam, table, x, g, dom_small_p)):
            with pytest.raises(DomainError, match="two coordinates of one point"):
                call()

    def test_assembly_checks_the_window(self):
        # before, assemble_P_lambda returned a value at this z as well
        lam, g = Partition2(1, 0), 2.0
        with pytest.raises(WindowError, match="F contour 1"):
            assemble_P_lambda(lam, table_for(lam, g, K=2), [5.0, 0.2], g, 0.1)

    def test_eigen_residuals_need_real_x(self, dom_small_p):
        # before, the imaginary part was dropped with a ComplexWarning
        lam, g = Partition2(1, 0), 2.0
        with pytest.raises(DomainError, match="two coordinates of one point"):
            eigen_residuals_P_lambda(lam, table_for(lam, g, K=2), [0.7 + 0.1j, 0.1], g,
                                     dom_small_p)

    def test_single_contour_field_checks_the_window(self, dom_small_p):
        # |z| = (5, 0.2) against R = sqrt(20): z_1/xi lies outside |w| < 1 and z_2/xi
        # inside |w| < p, and the two windings cancel: before, psi gave -260.6-94.6j
        a = 2.0 / math.pi * math.log(5.0)
        psi = single_contour_psi_field(1, 0, 2.0, dom_small_p)
        with pytest.raises(WindowError, match="single contour"):
            psi(np.array([0.8 - 1j * a, 0.1 + 1j * a]))

    @pytest.mark.parametrize("make", [
        lambda: Partition2(1.5, 0),
        lambda: Partition2(2, 0.5),
        lambda: Partition2(1.0, 0),
        lambda: n2_single_contour_P(1.5, 0, Z, 1.0, 0.05),
        lambda: n2_single_contour_P(1, 0.5, Z, 1.0, 0.05),
        lambda: contour_F_lambda(1.5, 0, Z, 1.0, 0.05),
        lambda: contour_F_lambda(1, 0.5, Z, 1.0, 0.05),
        lambda: single_contour_psi_field(1.5, 0, 2.0, EllipticDomain.from_nome(2.0, 0.05)),
        lambda: single_contour_psi_field(1, 0.5, 2.0, EllipticDomain.from_nome(2.0, 0.05)),
    ], ids=["P2-lam1", "P2-lam2", "P2-float", "single-diff", "single-lam2", "F-lam1", "F-lam2",
            "psi-diff", "psi-lam2"])
    def test_labels_must_be_integers(self, make):
        with pytest.raises(DomainError, match="need integers"):
            make()

    def test_numpy_integers_accepted(self):
        a = contour_F_lambda(np.int64(2), np.int32(1), Z, 1.4, 0.05, ContourConfig(nodes=64))
        b = contour_F_lambda(2, 1, Z, 1.4, 0.05, ContourConfig(nodes=np.int64(64)))
        assert a == b and Partition2(np.int64(2), 1) == Partition2(2, 1)


def dense_log_theta(w, p):
    return sum(np.log(1.0 - y) for y, _ in theta_factors(w, p))


def dense_cross_matrix(z, g, p, r1, r2, count):
    """Nodes xi1 (column), xi2 (row) and the count x count theta-power factor
    M_ab = theta(xi1a/xi2b)^g / prod_i theta(z_i/xi1a)^g theta(z_i/xi2b)^g."""
    xi1 = r1 * np.exp(2j * math.pi * np.arange(count) / count)[:, None]
    xi2 = r2 * np.exp(2j * math.pi * np.arange(count) / count)[None, :]
    M = np.exp(g * dense_log_theta(xi1 / xi2, p)
               - g * sum(dense_log_theta(zi / xi1, p) + dense_log_theta(zi / xi2, p)
                         for zi in z))
    return xi1, xi2, M


def dense_moments(pairs, z, g, p, r1, r2, count):
    """F and z-Euler moments as the plain count x count double sum, by Euler order:
    (F, E1, E2) with Ek[i] the order-k z_i moment of every pair."""

    xi1, xi2, M = dense_cross_matrix(z, g, p, r1, r2, count)
    e1 = [-g * (theta_euler(zi / xi1, p) + theta_euler(zi / xi2, p)) for zi in z]
    e2 = [-g * (theta_euler2(zi / xi1, p) + theta_euler2(zi / xi2, p)) for zi in z]
    F, E1, E2 = [], [[] for _ in z], [[] for _ in z]
    for m1, m2 in pairs:
        W = xi1 ** m1 * xi2 ** m2 * M
        F.append(np.mean(W))
        for i in range(len(z)):
            E1[i].append(np.mean(W * e1[i]))
            E2[i].append(np.mean(W * (e1[i] ** 2 + e2[i])))
    return np.array(F), np.array(E1), np.array(E2)


class TestCirculantMoments:
    def test_matches_dense_double_sum(self):
        g, p, count = 1.4, 0.1, 64
        r1, r2 = ContourConfig().radii(p)
        pairs = [(-2, 3), (-1, 2), (0, 1), (1, 0), (2, -1), (3, -2), (1, 1), (4, 0)]
        got = _f_moments(pairs, _f_legs(Z, g, p, r1, r2, count), g, p, derivs=True)
        want = dense_moments(pairs, Z, g, p, r1, r2, count)
        assert len(got) == len(want) == 3
        for k, (a, b) in enumerate(zip(got, want)):
            assert a.shape == b.shape, k
            # one bound per coordinate row, scaled by that row's own moments
            err = np.max(np.abs(a - b), axis=-1)
            assert np.all(err <= 1e-12 * np.max(np.abs(b), axis=-1)), k

    def test_winding_checks_inspect_the_cross_matrix_edges(self, monkeypatch):
        # 'F contour 1' walks xi1 at xi2 = r2: column 0 of M; 'F contour 2' walks
        # xi2 at xi1 = r1: row 0 of M
        seen = {}
        monkeypatch.setattr(transform, "_check_winding",
                            lambda values, what: seen.setdefault(what, np.asarray(values)))
        g, p, count = 1.4, 0.1, 64
        r1, r2 = ContourConfig().radii(p)
        _f_moments([(0, 0)], _f_legs(Z, g, p, r1, r2, count), g, p)
        M = dense_cross_matrix(Z, g, p, r1, r2, count)[2]
        for what, edge in (("F contour 1", M[:, 0]), ("F contour 2", M[0, :])):
            assert seen[what].shape == (count,)
            assert np.max(np.abs(seen[what] - edge)) <= 1e-12 * np.max(np.abs(edge)), what


class TestAssembly:
    def test_mismatched_table_rejected(self):
        lam = Partition2(1, 0)
        bad = solve_variant_I((0.3, -0.2), 2.0, K=3)
        with pytest.raises(DomainError):
            assemble_P_lambda(lam, bad, Z, 2.0, 0.05)

    def test_truncation_mismatch_rejected(self):
        lam = Partition2(1, 0)
        t = table_for(lam, 2.0, K=3)
        with pytest.raises(DomainError):
            assemble_P_lambda(lam, t, Z, 2.0, 0.05, K=5)

    def test_orders_validated(self, dom_small_p):
        # every order is an integer in [0, table.K], and Ks is not empty
        lam = Partition2(1, 0)
        t = table_for(lam, 2.0, K=3)
        for K in (-1, 4, 1.0):
            with pytest.raises(DomainError):
                assemble_P_lambda(lam, t, Z, 2.0, 0.05, K=K)
        for Ks in ([], [-1], [0, 4], [2.0]):
            with pytest.raises(DomainError):
                eigen_residuals_P_lambda(lam, t, np.array([0.7, 0.1]), 2.0, dom_small_p, Ks=Ks)

    def test_order_K_of_a_larger_table_is_the_table_solved_at_K(self):
        # a_{n,k} for k <= K does not depend on the table's order, so neither does P
        g, p, lam = 2.0, 0.12, Partition2(3, 1)
        big = table_for(lam, g, K=6)
        for K in range(7):
            assert (assemble_P_lambda(lam, big, Z, g, p, K=K)
                    == assemble_P_lambda(lam, table_for(lam, g, K=K), Z, g, p))

    def test_each_order_is_its_own_residual(self, dom_small_p):
        g, lam = 1.5, Partition2(2, 0)
        t = table_for(lam, g, K=6)
        x = np.array([0.7, 0.1])
        every = eigen_residuals_P_lambda(lam, t, x, g, dom_small_p, Ks=range(7))
        for K in range(7):
            assert eigen_residuals_P_lambda(lam, t, x, g, dom_small_p, Ks=[K])[0] == every[K]

    def test_every_order_in_one_hamiltonian_call(self, dom_small_p, monkeypatch):
        # all requested orders share one jet and one apply_ecs call: one wp1 walk
        import ellipcmr.operators as operators
        calls = []
        counted = operators.wp1
        monkeypatch.setattr(operators, "wp1", lambda *a, **kw: calls.append(1) or counted(*a, **kw))
        g, lam, K = 1.5, Partition2(3, 1), 6
        t = table_for(lam, g, K=K)
        x = np.array([0.7, 0.1])
        every = eigen_residuals_P_lambda(lam, t, x, g, dom_small_p, Ks=range(K + 1))
        assert len(calls) == 1
        for k in range(K + 1):
            calls.clear()
            single = eigen_residuals_P_lambda(lam, t, x, g, dom_small_p, Ks=[k])
            assert len(calls) == 1
            assert abs(single[0] - every[k]) <= 1e-13

    def test_eigen_residual_invariant_under_swap_and_period(self):
        # psi0 = vt1(x1 - x2)^g at g = 1.5 needs vt1 > 0; the residual is the same
        # at x, at x swapped and at x2 + 2 ell, and x1 = x2 is the pole of psi0
        g, lam = 1.5, Partition2(1, 0)
        t = table_for(lam, g, K=4)
        for p in (0.0, 0.02, 0.1, 0.17):
            dom = EllipticDomain.from_nome(math.pi, p)
            res = [eigen_residuals_P_lambda(lam, t, np.array(x), g, dom, Ks=range(5))
                   for x in ([0.7, 0.1], [0.1, 0.7], [0.7, 0.1 + 2.0 * dom.ell])]
            assert np.max(np.abs(np.array(res) - res[0])) <= 1e-12 * (math.pi / dom.ell) ** 2, p
            with pytest.raises(PoleError):
                eigen_residuals_P_lambda(lam, t, np.array([0.7, 0.7]), g, dom)

    def test_translation_property(self):
        # P_{lam + (1,1)} proportional to z1 z2 P_lam; the constant is
        # lam-dependent because P is reported raw (no normalization fixed),
        # so the testable content is z-independence of the ratio
        g, p = 2.0, 0.05
        lam = Partition2(1, 0)
        lam_up = Partition2(2, 1)
        K = 4
        ta, tb = table_for(lam, g, K), table_for(lam_up, g, K)
        ratios = []
        for z in (Z, np.exp(1j * np.array([2.1, 0.7])), np.exp(1j * np.array([0.9, 2.8]))):
            a = assemble_P_lambda(lam, ta, z, g, p)
            b = assemble_P_lambda(lam_up, tb, z, g, p)
            ratios.append(b.value / (z[0] * z[1] * a.value))
        # ratio constant up to the series truncation O(p^{K+1})
        assert max(abs(r - ratios[0]) for r in ratios) <= 10 * p ** (K + 1) * abs(ratios[0])

    def test_eigen_residual_scaling(self, dom_small_p):
        # residual drops by ~p per added order: log-slope within 20% of ln p
        dom = dom_small_p
        g = 2.0
        lam = Partition2(1, 0)
        t = table_for(lam, g, K=4)
        x = np.array([0.7, 0.1])
        res = eigen_residuals_P_lambda(lam, t, x, g, dom, Ks=range(5))
        slope = (math.log(res[-1]) - math.log(res[0])) / 4
        assert abs(slope / math.log(dom.p) - 1.0) <= 0.2

    def test_free_fermion_exact(self, dom_small_p):
        # g = 1: the assembled eigenfunction is exact at every order
        lam = Partition2(1, 0)
        t = table_for(lam, 1.0, K=3)
        res = eigen_residuals_P_lambda(lam, t, np.array([0.7, 0.1]), 1.0,
                                       dom_small_p, Ks=range(4))
        assert np.max(res) <= 1e-12


class TestKernelMethodConsistency:
    def test_identity_constant_is_the_energy_offset(self, dom_small_p):
        # the transform of a plane wave e^{iky} through K_{2,1} solves the
        # kappa = g equation with E = k^2/2 + C_{2,1}: the identity constant,
        # the contour construction, and the operator module must all agree
        dom = dom_small_p
        g, mu = 2.0, 1
        phi = single_contour_psi_field(mu, int(g / 2), g, dom)
        E_phi = fit_nonstationary_E(phi, g, [0.8, 0.1], g, dom)
        k = math.pi * (mu + g) / dom.ell
        c21 = kernel_identity_residual(KernelSpec(2, 1, g), np.array([0.9, 0.1]),
                                       np.array([0.4]), dom)
        assert abs(E_phi - (k * k / 2 + c21)) <= 1e-10


class TestKernelTransform:
    def test_plane_wave_reproduces_single_contour(self, dom_small_p):
        # mu = ell k/pi - g: transform = const * psi0 * (z1 z2)^{g/2} * P_(mu,0)
        dom = dom_small_p
        g, mu = 2, 1
        k = math.pi * (mu + g) / dom.ell
        spec = KernelSpec(2, 1, g)
        src = lambda y: np.exp(1j * k * y[..., 0])

        def ratio(xv):
            xv = np.asarray(xv)
            z = np.exp(1j * math.pi * xv / dom.ell)
            tv = kernel_transform(spec, src, xv, dom, nodes=256)
            pv = n2_single_contour_P(mu, 0, z, g, dom.p)
            psi0 = theta1_power(xv[0] - xv[1], g, dom)
            return tv.value / (psi0 * (z[0] * z[1]) ** (g / 2) * pv.value)

        r1, r2 = ratio([0.8, 0.1]), ratio([1.4, -0.3])
        assert abs(r1 - r2) <= 1e-10 * abs(r1)
        assert abs(r1 - 2 * dom.ell) <= 1e-10 * abs(r1)   # the dropped constant

    def test_non_integer_label_seam_error(self, dom_small_p):
        dom = dom_small_p
        g = 2
        bad_k = math.pi * (2.5 - g) / dom.ell
        with pytest.raises(SeamError):
            kernel_transform(KernelSpec(2, 1, g), lambda y: np.exp(1j * bad_k * y[..., 0]),
                             np.array([0.8, 0.1]), dom, nodes=64)

    def test_no_contour_at_m_zero(self, dom_small_p):
        # M = 0 integrates over nothing: K_{2,0}(x) = psi0(x) times the source at y = ()
        x = np.array([0.8, 0.1])
        src = lambda y: np.exp(1j * y.sum(axis=-1))
        r = kernel_transform(KernelSpec(2, 0, 2.0), src, x, dom_small_p, nodes=64)
        assert r.value == ground_state_psi0(x, 2.0, dom_small_p) and r.node_delta == 0.0

    @pytest.mark.parametrize("nodes", [2.5, 64.0, 0, -8])
    def test_node_count_must_be_a_positive_integer(self, dom_small_p, nodes):
        # before, nodes=2.5 gave node_delta 2.22 and nodes=0 warned "Mean of empty slice"
        with pytest.raises(DomainError, match="need integers"):
            kernel_transform(KernelSpec(2, 1, 2.0), lambda y: np.ones(np.shape(y)[:-1]),
                             np.array([0.8, 0.1]), dom_small_p, nodes=nodes)

    @pytest.mark.parametrize("N, M", [(1.5, 1), (2, 1.0), (-1, 2)])
    def test_kernel_spec_sizes_must_be_integers(self, N, M):
        # before, KernelSpec(1.5, 1, g) was accepted and failed only at evaluation
        with pytest.raises(DomainError, match="need integers"):
            KernelSpec(N, M, 2.0)

    def test_constant_source_at_m_zero(self, dom_small_p):
        # a source that returns a Python number: K(x) is a Python complex at M = 0
        spec, x = KernelSpec(2, 0, 2.0), np.array([0.8, 0.1])
        r = kernel_transform(spec, lambda y: 3.0, x, dom_small_p, nodes=64)
        assert r.value == kernel_K(spec, x, np.zeros(0), dom_small_p) * 3.0
        assert r.node_delta == 0.0

    def test_g_zero_fourier_structure(self, dom_small_p):
        dom = dom_small_p
        spec = KernelSpec(2, 1, 0)
        x = np.array([0.8, 0.1])
        r0 = kernel_transform(spec, lambda y: np.exp(0j * y[..., 0]), x, dom, nodes=64)
        assert abs(r0.value - 2 * dom.ell) <= 1e-12
        k2 = 2 * math.pi / dom.ell
        r2 = kernel_transform(spec, lambda y: np.exp(1j * k2 * y[..., 0]), x, dom, nodes=64)
        assert abs(r2.value) <= 1e-12


def nested_cases():
    """name -> value(nodes): each node-doubled public result, at a small fixed input."""
    lam, g, p = Partition2(3, 1), 2.0, 0.12
    table = table_for(lam, g, K=4)
    dom = EllipticDomain.from_nome(2.0, 0.1)
    x = dom.ell * np.array([0.3, -0.1])
    k = math.pi / dom.ell                 # integer labels close the line contours
    return {
        "contour_F_lambda": lambda n: contour_F_lambda(3, 1, Z, 1.4, p, ContourConfig(nodes=n)),
        "assemble_P_lambda": lambda n: assemble_P_lambda(lam, table, Z, g, p,
                                                         ContourConfig(nodes=n)),
        "n2_single_contour_P": lambda n: n2_single_contour_P(2, 1, Z, 1.3, 0.05,
                                                             ContourConfig(nodes=n)),
        # n // 8 nodes per axis of an M = 2 grid keeps its arrays as small as the circles'
        "kernel_transform": lambda n: kernel_transform(
            KernelSpec(2, 2, 2.0), lambda y: np.exp(1j * k * (y[..., 0] - 2.0 * y[..., 1])), x, dom,
            nodes=n // 8),
    }


class TestNestedDoubling:
    """One evaluation on 2N nodes gives both rules: the N-node one from its [::2] view.

    Inputs stay small: numpy evaluates some expressions on arrays of 256 KiB and more
    in place, which can round an elementwise product differently, so on large grids
    the view and a fresh N-node evaluation agree to rounding only.
    """

    @pytest.mark.parametrize("name", list(nested_cases()))
    def test_coarse_value_is_a_fresh_coarse_evaluation(self, name, monkeypatch):
        value = nested_cases()[name]
        coarse = []
        real = transform._node_doubled

        def spy(value_at):
            coarse.append(value_at(2))
            return real(value_at)

        monkeypatch.setattr(transform, "_node_doubled", spy)
        fresh = value(64).value       # its finer rule is the coarser rule of value(128)
        r = value(128)
        assert coarse[-1] == fresh
        assert r.node_delta == abs(r.value - fresh)

    def test_winding_checked_on_both_node_sets(self, monkeypatch):
        seen = set()
        real = transform._check_winding

        def spy(values, what):
            seen.add((what, np.size(values)))
            real(values, what)

        monkeypatch.setattr(transform, "_check_winding", spy)
        f_checks = ("F contour 1", "F contour 2", "F z-legs on contour 1", "F z-legs on contour 2")
        cases = nested_cases()
        for name, whats in (("contour_F_lambda", f_checks), ("assemble_P_lambda", f_checks),
                            ("n2_single_contour_P", ("single contour",))):
            seen.clear()
            cases[name](64)
            assert seen == {(what, n) for what in whats for n in (64, 128)}, name
