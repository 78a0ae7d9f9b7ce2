import math

import numpy as np
import pytest

from ellipcmr.bethe import hermite_psi_field, solve_bethe
from ellipcmr.domain import EllipticDomain, RuijsenaarsParams
from ellipcmr.errors import BranchError, ConvergenceError, PoleError
from ellipcmr.fields import SmoothField, plane_wave
from ellipcmr.kernels import KernelSpec, kernel_identity_residual, kernel_K
from ellipcmr.operators import (CouplingSet, apply_deformed_ecs, apply_ecs,
                                apply_generalized_ecs, apply_ruijsenaars_D,
                                fit_nonstationary_E, ground_state_field,
                                half_period_shifts, heun_residual,
                                lame_residual, nonstationary_residual)
from ellipcmr.theta import heat_constant_c0, theta1_power, wp1


def relative_ns_residual(field, kappa, E, x, g, dom):
    x = np.asarray(x, dtype=complex)
    return abs(nonstationary_residual(field, kappa, E, x, g, dom)) / abs(field(x))


class TestApplyEcs:
    def test_free_plane_wave(self, dom):
        k = np.array([0.7, -0.3])
        pw = plane_wave(k)
        x = np.array([0.4, 1.1])
        val = apply_ecs(pw, x, 1.0, dom)       # g = 1 -> gamma = 0
        assert abs(val - 0.5 * (k @ k) * pw(x)) <= 1e-13

    def test_free_case_g_zero(self, dom):
        pw = plane_wave([0.5, 0.5, -0.2])
        x = np.array([0.4, 1.1, -0.6])
        val = apply_ecs(pw, x, 0.0, dom)
        assert abs(val - 0.5 * 0.54 * pw(x)) <= 1e-13

    def test_permutation_symmetry(self, dom):
        k = np.array([0.7, -0.3, 0.2])
        pw = plane_wave(k)
        perm = [2, 0, 1]
        pw_perm = plane_wave(k[perm])
        x = np.array([0.4, 1.1, -0.5])
        a = apply_ecs(pw, x, 1.6, dom)
        b = apply_ecs(pw_perm, x[perm], 1.6, dom)
        assert abs(a - b) <= 1e-12 * abs(a)

    def test_hermite_solution_two_body(self, dom_small_p):
        # psi(x1, x2) = hermite(x1 - x2) solves H_2 psi = E psi at g = -1
        dom = dom_small_p
        st = solve_bethe(1, dom)
        f1 = hermite_psi_field(st.roots, st.xi, dom)

        def rel(x):
            return np.array([x[0] - x[1]])

        psi = SmoothField(value=lambda x: f1(rel(x)),
                          d1=lambda x, i: (1 if i == 0 else -1) * f1.first(rel(x), 0),
                          d2=lambda x, i: f1.second(rel(x), 0))
        x = np.array([0.8, 0.1])
        resid = apply_ecs(psi, x, -1.0, dom) - st.energy * psi(x)
        assert abs(resid) / abs(psi(x)) <= 1e-8

    def test_trig_ground_state_eigenvalue(self, dom_trig):
        # p = 0, g = 2: psi0 is the exact ground state, E = (pi/ell)^2 eps0
        g = 2.0
        psi0 = ground_state_field(g, dom_trig)
        x = np.array([1.1, 0.2])
        eps0 = 0.5 * ((g / 2) ** 2 + (g / 2) ** 2)
        E = (math.pi / dom_trig.ell) ** 2 * eps0
        resid = apply_ecs(psi0, x, g, dom_trig) - E * psi0(x)
        assert abs(resid) / abs(psi0(x)) <= 1e-10

    def test_coincident_coordinates_rejected(self, dom):
        pw = plane_wave([0.3, 0.1])
        with pytest.raises(PoleError):
            apply_ecs(pw, np.array([0.4, 0.4]), 1.6, dom)

    def test_fd_fallback_consistency(self, dom):
        # no analytic derivatives: 4th-order FD with the Richardson check
        g = 1.3
        analytic = ground_state_field(g, dom)
        fd_field = SmoothField(value=analytic.value, fd_step=5e-3)
        x = np.array([0.9, 0.1])
        a = apply_ecs(analytic, x, g, dom)
        b = apply_ecs(fd_field, x, g, dom)
        assert abs(a - b) <= 1e-7 * abs(a)

    def test_fd_inconsistency_detected(self, dom):
        rough = SmoothField(value=lambda x: abs(x[0].real - 0.4) ** 1.5,
                            fd_step=1e-2, fd_consistency=1e-10)
        with pytest.raises(ConvergenceError):
            rough.second(np.array([0.4 + 1e-8, 0.1]), 0)


class TestNonstationary:
    def test_theta_power_solves_kappa_2g(self, dom):
        g = 1.7
        f = ground_state_field(g, dom)
        E = fit_nonstationary_E(f, 2 * g, [0.45 * dom.ell, 0.05 * dom.ell], g, dom)
        assert abs(E - g * g * heat_constant_c0(dom)) <= 1e-10
        pts = [(dom.ell * (0.1 + 0.08 * j), dom.ell * 0.01 * j) for j in range(10)]
        worst = max(relative_ns_residual(f, 2 * g, E, [a, b], g, dom) for a, b in pts)
        assert worst <= 1e-8

    def test_ground_state_solves_kappa_ng(self, dom):
        for n in (2, 3):
            g = 1.3
            psi0 = ground_state_field(g, dom)
            xref = np.array([0.9, 0.25, -0.4])[:n]
            E = fit_nonstationary_E(psi0, n * g, xref, g, dom)
            pts = [xref + 0.11 * j for j in range(1, 6)]
            worst = max(relative_ns_residual(psi0, n * g, E, x, g, dom) for x in pts)
            assert worst <= 1e-8

    def test_ground_state_field_builds_pair_sums_once_per_point(self, dom, monkeypatch):
        import ellipcmr.operators as operators
        kernels = []
        counted = operators.pair_values
        monkeypatch.setattr(operators, "pair_values",
                            lambda fn, *a, **kw: kernels.append(fn) or counted(fn, *a, **kw))
        f = ground_state_field(1.3, dom)
        x = np.array([1.2, 0.9, 0.25, -0.4])
        f(x)
        assert kernels == []                    # a value alone needs no pair sums
        apply_ecs(f, x + 0.01, 1.3, dom)
        # the field's zeta1 and (ln vt1)'' sums from one jet for all four coordinates,
        # then the potential
        assert kernels == [operators.theta1_jet, wp1]

    def test_ground_state_field_at_coincident_points(self, dom):
        x = np.array([0.3, 0.3, 0.9])
        assert ground_state_field(2.0, dom)(x) == 0
        with pytest.raises(BranchError):
            ground_state_field(1.3, dom)(x)
        for g in (2.0, 1.3):
            f = ground_state_field(g, dom)
            with pytest.raises(PoleError):
                f.d1(x, 0)
            with pytest.raises(PoleError):
                f.d2(x, 1)

    def test_gauge_symmetry(self, dom):
        # psi -> C(tau) psi shifts E by (i pi kappa / 2 ell^2) dC/dtau / C
        g = 1.7
        kappa = 2 * g
        f = ground_state_field(g, dom)
        E = fit_nonstationary_E(f, kappa, [0.45 * dom.ell, 0.05 * dom.ell], g, dom)
        C = 1.0 + dom.tau ** 2
        dC = 2.0 * dom.tau
        scaled = SmoothField(value=lambda x: C * f(x),
                             d1=lambda x, i: C * f.d1(x, i),
                             d2=lambda x, i: C * f.d2(x, i),
                             dtau=lambda x: C * f.dtau(x) + dC * f(x))
        E2 = E + 1j * math.pi * kappa / (2 * dom.ell ** 2) * dC / C
        pts = [(dom.ell * (0.2 + 0.1 * j), -0.03 * dom.ell * j) for j in range(5)]
        worst = max(relative_ns_residual(scaled, kappa, E2, [a, b], g, dom) for a, b in pts)
        assert worst <= 1e-8

    def test_translation_covariance(self, dom):
        # e^{i q (x1+x2)} psi stays a solution with E shifted by q^2 (zero-momentum psi)
        g = 1.4
        kappa = 2 * g
        f = ground_state_field(g, dom)
        E = fit_nonstationary_E(f, kappa, [0.45 * dom.ell, 0.05 * dom.ell], g, dom)
        q = 0.37

        def phase(x):
            return np.exp(1j * q * (x[0] + x[1]))

        boosted = SmoothField(
            value=lambda x: phase(x) * f(x),
            d1=lambda x, i: phase(x) * (f.d1(x, i) + 1j * q * f(x)),
            d2=lambda x, i: phase(x) * (f.d2(x, i) + 2j * q * f.d1(x, i) - q * q * f(x)),
            dtau=lambda x: phase(x) * f.dtau(x))
        E2 = E + q * q
        pts = [(dom.ell * (0.2 + 0.1 * j), -0.02 * dom.ell * j) for j in range(5)]
        worst = max(relative_ns_residual(boosted, kappa, E2, [a, b], g, dom) for a, b in pts)
        assert worst <= 1e-8


class TestLame:
    def test_free_case(self, dom):
        k = 0.9
        pw = plane_wave([k])
        assert abs(lame_residual(pw, k * k, 0.7, 0.0, dom)) <= 1e-13

    def test_hermite_solution(self, dom_small_p):
        st = solve_bethe(1, dom_small_p)
        f = hermite_psi_field(st.roots, st.xi, dom_small_p)
        x = 0.62 * dom_small_p.ell
        r = lame_residual(f, st.energy, x, -1.0, dom_small_p)
        assert abs(r) / abs(f(np.array([x]))) <= 1e-8

    def test_shifted_potential_real(self, dom):
        # wp1(x + i delta) is real for real x
        for x in (0.3, 0.9, 1.7):
            assert abs(wp1(x + 1j * dom.delta, dom).imag) <= 1e-12


class TestHeun:
    def test_reduces_to_lame(self, dom):
        g = 1.6
        f = ground_state_field(g, dom)
        psi = SmoothField(value=lambda x: f(np.array([x[0], 0.0])),
                          d1=lambda x, i: f.d1(np.array([x[0], 0.0]), 0),
                          d2=lambda x, i: f.d2(np.array([x[0], 0.0]), 0))
        E = 1.234
        x = 0.43 * dom.ell
        a = heun_residual(psi, E, x, CouplingSet(g0=g), dom)
        b = lame_residual(psi, E, x, g, dom)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_all_equal_couplings_scaling(self, dom_small_p):
        # Heun(g,g,g,g) at (x, 4E) on psi(2x) matches the Lame solution
        dom = dom_small_p
        st = solve_bethe(1, dom)
        f = hermite_psi_field(st.roots, st.xi, dom)

        def half(x):
            return np.array([2.0 * x[0]])

        psi = SmoothField(value=lambda x: f(half(x)),
                          d1=lambda x, i: 2.0 * f.first(half(x), 0),
                          d2=lambda x, i: 4.0 * f.second(half(x), 0))
        g = -1.0
        x = 0.26 * dom.ell
        r = heun_residual(psi, 4.0 * st.energy, x, CouplingSet(g0=g, g1=g, g2=g, g3=g), dom)
        assert abs(r) / abs(psi(np.array([x]))) <= 1e-8

    def test_poschl_teller_limit(self):
        # ell = pi, p -> 0: potential becomes the trigonometric two-term well
        dom = EllipticDomain.from_nome(math.pi, 1e-12)
        g0, g1 = 1.7, 2.3

        def phi(u):
            return np.sin(u) ** g0 * np.cos(u) ** g1

        psi = SmoothField(value=lambda x: complex(phi(x[0] / 2)), fd_step=1e-3)
        E_pt = (g0 + g1) ** 2
        x = 0.9
        r = heun_residual(psi, E_pt / 4.0, x, CouplingSet(g0=g0, g1=g1), dom)
        assert abs(r) / abs(psi(np.array([x]))) <= 1e-7

    def test_half_period_shifts(self, dom):
        om = half_period_shifts(dom)
        assert om[0] == 0.0 and om[1] == dom.ell
        assert om[2] == 1j * dom.delta and om[3] == -dom.ell - 1j * dom.delta


class TestDeformed:
    def test_m_zero_reduces(self, dom):
        pw = plane_wave([0.3, -0.6])
        x = [0.4, 1.0]
        assert apply_deformed_ecs(pw, x, [], 1.6, dom) == apply_ecs(pw, x, 1.6, dom)

    def test_n_zero_dual_block(self, dom):
        # H_{0,M}(., xt; g) = -g H_M(xt; 1/g)
        g = 1.6
        pw = plane_wave([0.3, -0.6])
        xt = [0.4, 1.0]
        a = apply_deformed_ecs(pw, [], xt, g, dom)
        b = -g * apply_ecs(pw, xt, 1.0 / g, dom)
        assert abs(a - b) <= 1e-12 * abs(a)

    def test_duality_one_one(self, dom):
        g = 1.6
        psi = plane_wave([0.5, 0.2])
        psi_sw = SmoothField(value=lambda u: psi(u[::-1]),
                             d1=lambda u, i: psi.d1(u[::-1], 1 - i),
                             d2=lambda u, i: psi.d2(u[::-1], 1 - i))
        a = apply_deformed_ecs(psi, [0.4], [1.1], g, dom)
        b = apply_deformed_ecs(psi_sw, [1.1], [0.4], 1.0 / g, dom)
        assert abs(a + g * b) <= 1e-12


class TestGeneralized:
    def test_single_family_reduces(self, dom):
        pw = plane_wave([0.3, -0.6])
        x = [0.4, 1.0]
        a = apply_generalized_ecs(pw, x, [], [], [], 1.6, dom)
        assert a == apply_ecs(pw, x, 1.6, dom)

    def test_calogero_trick_identity(self, dom):
        # (N1, 0, N2, 0) equals the eCS operator after x_{N1+j} = y_j - i delta
        g = 1.5
        k = np.array([0.4, -0.2, 0.9])
        psi = plane_wave(k)
        xx = np.array([0.5, 1.4])
        yy = np.array([-0.3])

        def sub(u):
            v = np.array(u, dtype=complex)
            v[2] -= 1j * dom.delta
            return v

        psi_sub = SmoothField(value=lambda u: psi(sub(u)),
                              d1=lambda u, i: psi.d1(sub(u), i),
                              d2=lambda u, i: psi.d2(sub(u), i))
        lhs = apply_generalized_ecs(psi_sub, xx, [], yy, [], g, dom)
        rhs = apply_ecs(psi, np.concatenate([xx, yy - 1j * dom.delta]), g, dom)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_empty_cross_term(self, dom):
        # V_{N1,N2} with N2 = 0 contributes nothing
        pw = plane_wave([0.3, -0.6])
        a = apply_generalized_ecs(pw, [0.4, 1.0], [], [], [], 1.6, dom)
        b = apply_deformed_ecs(pw, [0.4, 1.0], [], 1.6, dom)
        assert a == b


class TestRuijsenaarsD:
    def test_constant_function(self):
        par = RuijsenaarsParams(p=0.0, q=0.31, t=0.47)
        z = np.exp(1j * np.array([0.3, 1.7]))
        val = apply_ruijsenaars_D(lambda zz: 1.0, z, par)
        assert abs(val - (1 + par.t)) <= 1e-14

    def test_power_sum_eigenfunction(self):
        par = RuijsenaarsParams(p=0.0, q=0.31, t=0.47)
        z = np.exp(1j * np.array([0.3, 1.7]))
        e1 = lambda zz: zz[0] + zz[1]
        val = apply_ruijsenaars_D(e1, z, par)
        assert abs(val - (par.q + par.t) * e1(z)) <= 1e-13

    def test_shift_exactness(self):
        # T_q then T_{1/q} returns the original argument exactly (q a power of 2)
        par = RuijsenaarsParams(p=0.0, q=0.5, t=1.0)
        z = np.array([np.exp(0.4j)])
        seen = []
        apply_ruijsenaars_D(
            lambda zz: apply_ruijsenaars_D(lambda ww: seen.append(ww[0]) or 1.0,
                                           zz, par, sign=-1),
            z, par, sign=+1)
        assert seen[0] == z[0]

    def test_commutation_smoke(self):
        # [D(q,t), D(1/q,1/t)] on symmetric Laurent polynomials of degree <= 2
        par = RuijsenaarsParams(p=0.0, q=0.37, t=0.53)
        z = np.exp(1j * np.array([0.4, 1.9]))
        basis = [lambda zz: 1.0,
                 lambda zz: zz[0] + zz[1],
                 lambda zz: zz[0] * zz[1],
                 lambda zz: 1 / zz[0] + 1 / zz[1],
                 lambda zz: zz[0] ** 2 + zz[1] ** 2]
        for f in basis:
            ab = apply_ruijsenaars_D(
                lambda zz: apply_ruijsenaars_D(f, zz, par, sign=-1), z, par, sign=+1)
            ba = apply_ruijsenaars_D(
                lambda zz: apply_ruijsenaars_D(f, zz, par, sign=+1), z, par, sign=-1)
            assert abs(ab - ba) <= 1e-10

    def test_coefficient_pole(self):
        par = RuijsenaarsParams(p=0.0, q=0.31, t=0.47)
        with pytest.raises(PoleError):
            apply_ruijsenaars_D(lambda zz: 1.0, np.array([1.0 + 0j, 1.0 + 0j]), par)


class TestKernelIdentity:
    def test_equal_pair_vanishes(self, dom):
        spec = KernelSpec(2, 2, 1.4)
        r = kernel_identity_residual(spec, np.array([0.9, 0.1]),
                                     np.array([0.55, -0.62]), dom)
        assert abs(r) <= 1e-8

    def test_two_one_constant(self, dom):
        spec = KernelSpec(2, 1, 1.4)
        vals = [kernel_identity_residual(
            spec, np.array([0.9 + 0.03 * j, 0.1 - 0.05 * j]),
            np.array([0.4 + 0.07 * j]), dom) for j in range(5)]
        assert max(abs(v - vals[0]) for v in vals) <= 1e-8

    def test_two_zero_matches_ground_state_constant(self, dom):
        # (N, 0): R equals g^2 c0, the generalized eigenvalue of psi0 at kappa = 2g
        g = 1.7
        spec = KernelSpec(2, 0, g)
        r = kernel_identity_residual(spec, np.array([0.9, 0.1]), np.array([]), dom)
        assert abs(r - g * g * heat_constant_c0(dom)) <= 1e-10

    def test_kernel_K_one_one(self, dom):
        g = 1.5
        x, y = np.array([0.9]), np.array([0.3])
        v = kernel_K(KernelSpec(1, 1, g), x, y, dom)
        assert abs(v - theta1_power(x[0] - y[0], -g, dom)) <= 1e-13 * abs(v)

    def test_kernel_K_g_zero(self, dom):
        v = kernel_K(KernelSpec(2, 1, 0.0), np.array([0.9, 0.1]), np.array([0.4]), dom)
        assert v == 1.0
