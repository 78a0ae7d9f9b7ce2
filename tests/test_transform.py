import math

import numpy as np
import pytest

from ellipcmr.errors import DomainError, SeamError, WindowError
from ellipcmr.kernels import KernelSpec, kernel_identity_residual
from ellipcmr.operators import fit_nonstationary_E, nonstationary_residual
from ellipcmr.pseries import solve_variant_I
from ellipcmr import transform
from ellipcmr.theta import theta1_power
from ellipcmr.transform import (ContourConfig, Partition2, _f_moments,
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

    def test_negative_diff_rejected(self):
        with pytest.raises(DomainError):
            n2_single_contour_P(-1, 0, Z, 1.0, 0.05)

    def test_nonstationary_equation_kappa_g(self, dom_small_p, dom_trig):
        # psi = psi0 P solves the kappa = g equation (via the operators module);
        # at p = 0 the tau series has no terms
        for dom in (dom_small_p, dom_trig):
            for g in (1.0, 2.0):
                psi = single_contour_psi_field(1, 0, g, dom)
                E = fit_nonstationary_E(psi, g, [0.8, 0.1], g, dom)
                pts = [[1.2, 0.3], [0.6, -0.5], [1.7, 0.9]]
                worst = max(abs(nonstationary_residual(psi, g, E, x, g, dom))
                            / abs(psi(np.array(x, dtype=complex))) for x in pts)
                assert worst <= 1e-8


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

    def test_winding_checks(self):
        # |z1| = 2.5 > R1 puts z1/xi1 outside the annulus (p, 1); |z1| = 0.2 < p R2
        # puts z1/xi2 inside |w| < p, which only the contour-2 factor sees
        cfg = ContourConfig(R1=2.0, R2=6.0, nodes=64)
        for z1, which in ((2.5, "F contour 1"), (0.2, "F contour 2")):
            with pytest.raises(WindowError, match=which):
                contour_F_lambda(1, 0, [z1, 1.0], 1.4, 0.05, cfg)

    def test_node_count_validation(self):
        with pytest.raises(DomainError):
            ContourConfig(nodes=100)
        with pytest.raises(DomainError):
            ContourConfig(nodes=32)


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
    """F and z-Euler moments as the plain count x count double sum."""

    xi1, xi2, M = dense_cross_matrix(z, g, p, r1, r2, count)
    e1 = [-g * (theta_euler(zi / xi1, p) + theta_euler(zi / xi2, p)) for zi in z]
    e2 = [-g * (theta_euler2(zi / xi1, p) + theta_euler2(zi / xi2, p)) for zi in z]
    out = {"F": [], "D1": [], "D11": [], "D2": [], "D22": []}
    for m1, m2 in pairs:
        W = xi1 ** m1 * xi2 ** m2 * M
        out["F"].append(np.mean(W))
        for i, k1, k2 in ((0, "D1", "D11"), (1, "D2", "D22")):
            out[k1].append(np.mean(W * e1[i]))
            out[k2].append(np.mean(W * (e1[i] ** 2 + e2[i])))
    return {key: np.array(val) for key, val in out.items()}


class TestCirculantMoments:
    def test_matches_dense_double_sum(self):
        g, p, count = 1.4, 0.1, 64
        r1, r2 = ContourConfig().radii(p)
        pairs = [(-2, 3), (-1, 2), (0, 1), (1, 0), (2, -1), (3, -2), (1, 1), (4, 0)]
        got = _f_moments(pairs, Z, g, p, r1, r2, count, derivs=True)
        want = dense_moments(pairs, Z, g, p, r1, r2, count)
        for key in ("F", "D1", "D11", "D2", "D22"):
            err = np.max(np.abs(got[key] - want[key]))
            assert err <= 1e-12 * np.max(np.abs(want[key])), key

    def test_winding_checks_inspect_the_cross_matrix_edges(self, monkeypatch):
        # 'F contour 1' walks xi1 at xi2 = r2: column 0 of M; 'F contour 2' walks
        # xi2 at xi1 = r1: row 0 of M
        seen = {}
        monkeypatch.setattr(transform, "_check_winding",
                            lambda values, what: seen.setdefault(what, np.asarray(values)))
        g, p, count = 1.4, 0.1, 64
        r1, r2 = ContourConfig().radii(p)
        _f_moments([(0, 0)], Z, g, p, r1, r2, count)
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
        src = lambda y: np.exp(1j * k * y[0])

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
            kernel_transform(KernelSpec(2, 1, g), lambda y: np.exp(1j * bad_k * y[0]),
                             np.array([0.8, 0.1]), dom, nodes=64)

    def test_g_zero_fourier_structure(self, dom_small_p):
        dom = dom_small_p
        spec = KernelSpec(2, 1, 0)
        x = np.array([0.8, 0.1])
        r0 = kernel_transform(spec, lambda y: np.exp(0j * y[0]), x, dom, nodes=64)
        assert abs(r0.value - 2 * dom.ell) <= 1e-12
        k2 = 2 * math.pi / dom.ell
        r2 = kernel_transform(spec, lambda y: np.exp(1j * k2 * y[0]), x, dom, nodes=64)
        assert abs(r2.value) <= 1e-12
