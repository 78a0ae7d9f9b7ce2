import math

import numpy as np
import pytest

from ellipcmr import bethe
from ellipcmr.bethe import (bethe_jacobian, bethe_residuals,
                            bloch_multipliers, default_seed, energy_from_roots,
                            hermite_psi, hermite_psi_field, saddle_G_gradient,
                            saddle_G_value, solve_bethe)
from ellipcmr.domain import EllipticDomain
from ellipcmr.errors import BranchError, ConvergenceError, DomainError, PoleError
from ellipcmr.operators import lame_residual
from ellipcmr.theta import theta1_logderiv, wp1

from oracles import fd_derivative


class TestResiduals:
    def test_n_one_no_condition(self, dom):
        # every t is a Bethe root for n = 1: the sum is empty
        assert bethe_residuals([0.31 * dom.ell + 0.07j * dom.delta], dom)[0] == 0.0

    def test_residuals_sum_to_zero(self, dom):
        t = np.array([0.3 + 0.2j, 0.9 - 0.4j, 1.4 + 0.1j]) * dom.ell / 2
        r = bethe_residuals(t, dom)
        assert abs(np.sum(r)) <= 1e-12 * max(1.0, np.max(np.abs(r)))

    def test_symmetric_pair_grouping(self, dom):
        # t2 = -t1: residual_1 = zeta1(2 t1) - 2 zeta1(t1), grouped independently
        t1 = 0.37 * dom.ell + 0.21j
        r = bethe_residuals([t1, -t1], dom)
        direct = theta1_logderiv(2 * t1, dom) - 2 * theta1_logderiv(t1, dom)
        assert abs(r[0] - direct) <= 1e-12 * max(1.0, abs(direct))

    def test_coincident_roots_rejected(self, dom):
        with pytest.raises(PoleError):
            bethe_residuals([0.4, 0.4], dom)

    def test_lattice_roots_rejected(self, dom):
        with pytest.raises(PoleError):
            bethe_residuals([2 * dom.ell, 0.4], dom)


class TestSolver:
    def test_n_one_takes_no_newton_step(self, dom_small_p):
        # the system is empty at n = 1: Newton and the polish keep the guess, residual 0.0
        st = solve_bethe(1, dom_small_p)
        assert st.roots == (dom_small_p.ell * (0.31 + 0.07j),)
        assert st.bethe_residual == 0.0 and st.ode_residual <= 1e-8

    @pytest.mark.parametrize("n, seed", [(3, [0.4 + 0.1j, 1.3 - 0.2j]),
                                         (1, [0.4 + 0.1j, 1.3 - 0.2j]),
                                         (2, [[0.4 + 0.1j], [1.3 - 0.2j]])],
                             ids=["two-at-n3", "two-at-n1", "2d"])
    def test_seed_shape_must_be_n(self, dom_small_p, n, seed):
        with pytest.raises(DomainError, match="seed of shape"):
            solve_bethe(n, dom_small_p, seed=seed)

    @pytest.mark.parametrize("seed", [["a", "b"], [math.nan, 1.0], [1.0, complex(0, math.inf)]],
                             ids=["strings", "nan", "inf"])
    def test_seed_must_be_finite_complex_numbers(self, dom_small_p, seed):
        # before, strings raised ValueError and a NaN ended in LinAlgError after warnings
        with pytest.raises(DomainError, match=r"seed .*got \["):
            solve_bethe(2, dom_small_p, seed=seed)

    def test_n_one_certificates(self, dom_small_p):
        dom = dom_small_p
        t = 0.31 * dom.ell + 0.07j * dom.delta
        st = solve_bethe(1, dom, seed=[t])
        assert st.roots[0] == t
        assert abs(st.xi - theta1_logderiv(t, dom)) <= 1e-10
        assert st.ode_residual <= 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_converged_certificates(self, dom_small_p, n):
        st = solve_bethe(n, dom_small_p)
        assert st.bethe_residual <= 1e-10
        assert st.ode_residual <= 1e-8
        assert st.xi_residual <= 1e-10
        assert st.energy_spread <= 1e-8

    @pytest.mark.parametrize("n", [2.0, 0, -1])
    def test_n_must_be_a_positive_integer(self, dom, n):
        with pytest.raises(DomainError):
            solve_bethe(n, dom)

    def test_trigonometric_case(self, dom_trig):
        st = solve_bethe(2, dom_trig)
        assert st.bethe_residual <= 1e-10 and st.ode_residual <= 1e-8

    @pytest.mark.parametrize("ell", [math.pi, 2.0])
    def test_seed_solves_the_trigonometric_system(self, ell):
        # Legendre zeros mapped by artanh: the exact p = 0 roots for every n
        dom = EllipticDomain.from_nome(ell, 0.0)
        for n in range(2, 21):
            assert np.max(np.abs(bethe_residuals(default_seed(n, dom), dom))) <= 1e-13, n

    def test_saddle_gradient_at_solution(self, dom_small_p):
        st = solve_bethe(2, dom_small_p)
        grad = saddle_G_gradient(st.roots, st.xi, dom_small_p)
        assert np.max(np.abs(grad)) <= 1e-9

    def test_jacobian_matches_fd(self, dom):
        t = np.array([0.35 + 0.2j, 0.9 - 0.3j]) * dom.ell / 2
        J = bethe_jacobian(t, dom)
        h = 1e-6
        for i in range(2):
            tp, tm = t.copy(), t.copy()
            tp[i] += h
            tm[i] -= h
            col = (bethe_residuals(tp, dom) - bethe_residuals(tm, dom)) / (2 * h)
            assert np.max(np.abs(col - J[:, i])) <= 1e-6


class TestHermitePsi:
    def test_bloch_ratio_x_independent(self, dom_small_p):
        st = solve_bethe(2, dom_small_p)
        ratios = []
        for j in range(5):
            x = dom_small_p.ell * (0.23 + 0.11 * j) + 0.17j
            ratios.append(hermite_psi(x + 2 * dom_small_p.ell, st.roots, st.xi, dom_small_p)
                          / hermite_psi(x, st.roots, st.xi, dom_small_p))
        assert max(abs(r - ratios[0]) for r in ratios) <= 1e-9 * abs(ratios[0])

    def test_origin_is_a_pole(self, dom_small_p):
        st = solve_bethe(2, dom_small_p)
        with pytest.raises(PoleError, match="period lattice"):
            hermite_psi(0.0, st.roots, st.xi, dom_small_p)

    def test_bloch_multipliers(self, dom_small_p):
        st = solve_bethe(2, dom_small_p)
        b_ell, b_delta = bloch_multipliers(st.roots, st.xi, dom_small_p)
        x = 0.4 + 0.2j
        num = hermite_psi(x + 2j * dom_small_p.delta, st.roots, st.xi, dom_small_p)
        den = hermite_psi(x, st.roots, st.xi, dom_small_p)
        assert abs(num / den - b_delta) <= 1e-10 * abs(b_delta)
        num2 = hermite_psi(x + 2 * dom_small_p.ell, st.roots, st.xi, dom_small_p)
        assert abs(num2 / den - b_ell) <= 1e-10 * abs(b_ell)

    def test_reflected_solution_same_energy(self, dom_small_p):
        st = solve_bethe(2, dom_small_p)
        fm = hermite_psi_field(st.roots, st.xi, dom_small_p, reflect=True)
        x = 0.57 * dom_small_p.ell
        r = lame_residual(fm, st.energy, x, -2.0, dom_small_p)
        assert abs(r) / abs(fm(np.array([x], dtype=complex)).value) <= 1e-8

    def test_single_zero_at_root(self, dom_small_p):
        t = 0.43 * dom_small_p.ell
        st = solve_bethe(1, dom_small_p, seed=[t])
        assert abs(hermite_psi(t, st.roots, st.xi, dom_small_p)) <= 1e-12
        # no other zero on a real sweep (away from t and the lattice)
        for x in np.linspace(0.05, 1.95, 30) * dom_small_p.ell:
            if abs(x - t) > 0.05 * dom_small_p.ell:
                assert abs(hermite_psi(x, st.roots, st.xi, dom_small_p)) > 1e-6

    def test_analytic_derivatives_match_fd(self, dom_small_p):
        # the zeta1/wp1-assembled derivatives against plain central differences
        st = solve_bethe(2, dom_small_p)
        f = hermite_psi_field(st.roots, st.xi, dom_small_p)
        x = np.array([0.53 * dom_small_p.ell])
        h = 1e-4

        def v(u):
            return hermite_psi(u, st.roots, st.xi, dom_small_p)

        fd1 = (v(x[0] + h) - v(x[0] - h)) / (2 * h)
        fd2 = (v(x[0] + h) - 2 * v(x[0]) + v(x[0] - h)) / h ** 2
        j = f(x.astype(complex))
        assert abs(j.d1[0] - fd1) <= 1e-6 * abs(fd1)
        assert abs(j.d2[0] - fd2) <= 1e-5 * abs(fd2)

    def test_root_permutation_stable(self, dom_small_p):
        st = solve_bethe(3, dom_small_p)
        x = 0.41 * dom_small_p.ell + 0.13j
        a = hermite_psi(x, st.roots, st.xi, dom_small_p)
        b = hermite_psi(x, st.roots[::-1], st.xi, dom_small_p)
        assert abs(a - b) <= 1e-12 * abs(a)


class TestEnergy:
    def test_x_independence(self, dom_small_p):
        st = solve_bethe(2, dom_small_p)
        assert st.energy_spread <= 1e-8

    def test_constant_agrees_between_branches(self, dom_small_p):
        # two distinct solutions on the Bethe curve report the same additive constant
        dom = dom_small_p
        st = solve_bethe(2, dom)
        # second branch: pin t1 elsewhere and re-solve the single free root
        t1 = st.roots[0] + 0.21 * dom.ell
        t2 = st.roots[1]
        for _ in range(60):
            r = bethe_residuals([t1, t2], dom)[0]
            if abs(r) < 1e-13:
                break
            J = bethe_jacobian([t1, t2], dom)[0, 1]
            t2 = t2 - r / J
        assert abs(bethe_residuals([t1, t2], dom)[0]) <= 1e-10
        xi2 = theta1_logderiv(t1, dom) + theta1_logderiv(t2, dom)
        E2, _ = energy_from_roots([t1, t2], xi2, dom)
        const2 = E2 + 3.0 * wp1(np.array([t1, t2]), dom).sum()     # (2n - 1) = 3
        assert abs(complex(t1) - complex(st.roots[0])) > 0.1   # genuinely distinct
        assert abs(const2 - st.energy_constant) <= 1e-8

    def test_n_one_family_constant(self, dom_small_p):
        dom = dom_small_p
        vals = []
        for c in (0.2 + 0.05j, 0.45 - 0.1j, 0.65 + 0.02j):
            st = solve_bethe(1, dom, seed=[c * dom.ell])
            vals.append(st.energy + wp1(st.roots[0], dom))
        assert max(abs(v - vals[0]) for v in vals) <= 1e-8

    def test_n_one_trigonometric_limit(self):
        # E(p) has a finite p -> 0 limit: successive nome halvings converge
        t = 0.4 * 2.0
        es = []
        for p in (4e-3, 2e-3, 1e-3, 5e-4):
            dom = EllipticDomain.from_nome(2.0, p)
            st = solve_bethe(1, dom, seed=[t])
            es.append(st.energy)
        d1 = abs(es[1] - es[0])
        d2 = abs(es[2] - es[1])
        d3 = abs(es[3] - es[2])
        assert d2 < 0.6 * d1 and d3 < 0.6 * d2


class TestSaddle:
    def test_gradient_matches_fd(self, dom):
        # descending real parts keep every vt1 factor inside the branch domain
        t = np.array([0.8 * dom.ell - 0.07j, 0.45 * dom.ell + 0.1j])
        xi = 0.3 + 0.1j
        grad = saddle_G_gradient(t, xi, dom)
        for j in range(2):
            def gj(u):
                tt = t.copy()
                tt[j] = u
                return saddle_G_value(tt, xi, dom)
            fd = fd_derivative(gj, t[j], h=1e-5)
            assert abs(fd - grad[j]) <= 1e-7

    def test_gradient_sum_reproduces_xi_condition(self, dom):
        # sum_j dG/dt_j = n (xi - sum zeta1(t_j)): vanishes at the residue value of xi
        t = np.array([0.35 * dom.ell + 0.1j, 0.7 * dom.ell - 0.2j, 1.2 * dom.ell + 0.05j])
        xi = sum(theta1_logderiv(tj, dom) for tj in t)
        grad = saddle_G_gradient(t, xi, dom)
        assert abs(np.sum(grad)) <= 1e-12 * max(1.0, np.max(np.abs(grad)))

    def test_value_off_the_principal_branch_rejected(self, dom):
        # real vt1 is negative on (-2 ell, 0): at a root there, or at a pair difference there
        for t, what in (([-0.5 * dom.ell, 0.4 * dom.ell], "vt1\\(t_j\\)"),
                        ([0.3 * dom.ell, 0.8 * dom.ell], "vt1\\(t_j - t_k\\)")):
            with pytest.raises(BranchError, match=f"ln {what} outside principal-branch"):
                saddle_G_value(np.array(t), 0.3, dom)

    def test_degenerate_branch_reported(self, dom_small_p):
        # the symmetric default branch at n = 2 is doubly periodic: Wronskian ~ 0
        st = solve_bethe(2, dom_small_p)
        assert st.degenerate
        st1 = solve_bethe(1, dom_small_p)
        assert not st1.degenerate


def per_point_ode_residual(state, dom):
    """The ODE certificate point by point: lame_residual on the Hermite field over |psi|."""
    f = hermite_psi_field(state.roots, state.xi, dom)
    points = [dom.ell * (0.21 + 0.12 * j) + 0.09j * dom.ell for j in range(5)]
    return max(abs(lame_residual(f, state.energy, x, -float(state.n), dom))
               / abs(f(np.array([x], dtype=complex)).value) for x in points)


def fully_converged_path(n, dom):
    """The nome continuation with every step Newton-converged to the default tol.

    An independent oracle for the solver's path: it starts where the trigonometric
    seed fits, as the solver does, but grows the nome by a deliberately finer ratio
    of 1.5 per step (the solver takes 4), with no predictor: each step is a seeded
    solve_bethe call started from the previous roots.
    """
    t = default_seed(n, dom)
    steps = [min(dom.p, 0.5 * math.exp(-2.0 * math.pi * np.max(np.abs(t.imag)) / dom.ell))]
    while steps[-1] < dom.p:
        steps.append(min(steps[-1] * 1.5, dom.p))
    for pk in steps:
        state = solve_bethe(n, EllipticDomain.from_nome(dom.ell, pk), seed=t)
        t = state.roots
    return state


class TestContinuation:
    DOMAINS = [(1.7, 0.12), (3.3, 0.19), (2.0, 0.05), (1.3, 0.5), (2.0, 0.7)]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_energy_equals_the_fully_converged_path(self, n):
        for ell, p in self.DOMAINS:
            dom = EllipticDomain.from_nome(ell, p)
            got = solve_bethe(n, dom)
            want = fully_converged_path(n, dom)
            assert abs(got.energy - want.energy) <= 1e-10 * abs(want.energy), (ell, p)
            assert got.bethe_residual <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_batched_ode_certificate_equals_the_per_point_route(self, n):
        for ell, p in self.DOMAINS:
            dom = EllipticDomain.from_nome(ell, p)
            state = solve_bethe(n, dom)
            assert abs(state.ode_residual - per_point_ode_residual(state, dom)) <= 1e-11

    @pytest.mark.parametrize("n, p, ell", [(5, 0.85, 0.5), (6, 0.85, 1.3), (8, 0.7, 0.5)])
    def test_certifies_at_high_nome(self, n, p, ell):
        # longer nome steps lose these, each in a stalled final Newton: a ratio of 10
        # loses (6, 0.85, 1.3), 100 also (5, 0.85, 0.5), a direct jump also (8, 0.7, 0.5)
        state = solve_bethe(n, EllipticDomain.from_nome(ell, p))
        assert state.bethe_residual <= 1e-10 and state.xi_residual <= 1e-10
        assert state.ode_residual <= 1e-8 and state.energy_spread <= 1e-8

    def test_callers_tol_applies_at_the_final_nome(self, dom, monkeypatch):
        # intermediate nomes stop at the path tolerance; an unreachable tolerance must
        # still make the final correction fail
        monkeypatch.setattr(bethe, "_TOL", 1e-30)
        with pytest.raises(ConvergenceError):
            solve_bethe(3, dom)

    def test_residuals_do_not_change_when_a_root_moves_by_a_period(self, dom):
        t = np.array([0.35 + 0.2j, 0.9 - 0.3j, 1.4 + 0.1j]) * dom.ell / 2
        moved = t + 2j * dom.delta * np.array([3, -2, 0])
        r = bethe_residuals(t, dom)
        assert np.max(np.abs(bethe_residuals(moved, dom) - r)) <= 1e-12
        assert np.max(np.abs(bethe_jacobian(moved, dom) - bethe_jacobian(t, dom))) <= 1e-12
