import math

import numpy as np
import pytest

from ellipcmr.bethe import hermite_psi_field, solve_bethe
from ellipcmr.domain import EllipticDomain, RuijsenaarsParams
from ellipcmr.errors import ConvergenceError, DomainError, PoleError
from ellipcmr.fields import Jet, plane_wave
from ellipcmr.kernels import KernelSpec, kernel_identity_residual, kernel_K
from ellipcmr.operators import (CouplingSet, apply_deformed_ecs, apply_ecs,
                                apply_generalized_ecs, apply_ruijsenaars_D,
                                fit_nonstationary_E, ground_state_field,
                                half_period_shifts, heun_residual,
                                lame_residual, nonstationary_residual)
from ellipcmr.theta import heat_constant_c0, theta1_power, theta_q, wp1
from ellipcmr.transform import single_contour_psi_field
from oracles import fd_derivative, fd_second_derivative, lattice_sum_wp1


def relative_ns_residual(field, kappa, E, x, g, dom):
    x = np.asarray(x, dtype=complex)
    return abs(nonstationary_residual(field, kappa, E, x, g, dom)) / abs(field(x).value)


class TestApplyEcs:
    def test_free_plane_wave(self, dom):
        k = np.array([0.7, -0.3])
        pw = plane_wave(k)
        x = np.array([0.4, 1.1])
        val = apply_ecs(pw, x, 1.0, dom)       # g = 1 -> gamma = 0
        assert abs(val - 0.5 * (k @ k) * pw(x).value) <= 1e-13

    def test_free_case_g_zero(self, dom):
        pw = plane_wave([0.5, 0.5, -0.2])
        x = np.array([0.4, 1.1, -0.6])
        val = apply_ecs(pw, x, 0.0, dom)
        assert abs(val - 0.5 * 0.54 * pw(x).value) <= 1e-13

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

        def psi(x):
            j = f1(np.array([x[0] - x[1]]))
            return Jet(j.value, np.array([1.0, -1.0]) * j.d1[0], np.full(2, j.d2[0]))

        x = np.array([0.8, 0.1], dtype=complex)
        resid = apply_ecs(psi, x, -1.0, dom) - st.energy * psi(x).value
        assert abs(resid) / abs(psi(x).value) <= 1e-8

    def test_trig_ground_state_eigenvalue(self, dom_trig):
        # p = 0, g = 2: psi0 is the exact ground state, E = (pi/ell)^2 eps0
        g = 2.0
        psi0 = ground_state_field(g, dom_trig)
        x = np.array([1.1, 0.2], dtype=complex)
        eps0 = 0.5 * ((g / 2) ** 2 + (g / 2) ** 2)
        E = (math.pi / dom_trig.ell) ** 2 * eps0
        resid = apply_ecs(psi0, x, g, dom_trig) - E * psi0(x).value
        assert abs(resid) / abs(psi0(x).value) <= 1e-10

    def test_jet_batched_over_leading_axes(self, dom):
        # fields at one point stacked on leading axes (2, 3), coordinates last:
        # one call gives each field's value of the per-jet call
        x = np.array([1.1, 0.4, -0.5], dtype=complex)     # x_i > x_k: vt1 > 0 for psi0
        fields = [plane_wave([0.7, -0.3, 0.2 * b]) for b in range(5)]
        fields.append(ground_state_field(1.6, dom))
        jets = [f(x) for f in fields]
        batched = Jet(np.array([j.value for j in jets]).reshape(2, 3),
                      np.array([j.d1 for j in jets]).reshape(2, 3, 3),
                      np.array([j.d2 for j in jets]).reshape(2, 3, 3))
        got = apply_ecs(lambda _: batched, x, 1.6, dom)
        assert got.shape == (2, 3)
        want = np.array([apply_ecs(f, x, 1.6, dom) for f in fields]).reshape(2, 3)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15

    def test_coincident_coordinates_rejected(self, dom):
        pw = plane_wave([0.3, 0.1])
        with pytest.raises(PoleError):
            apply_ecs(pw, np.array([0.4, 0.4]), 1.6, dom)


# every library field as make(dom) -> its jet function, with a point to test it at
FD_ELL, FD_DELTA = 2.3, 0.9
FD_FIELDS = {
    "plane_wave": (lambda dom: plane_wave([0.7, -0.4, 0.5]), [0.4, 1.1, -0.5]),
    "ground_state_field": (lambda dom: ground_state_field(1.3, dom), [0.9, 0.1, -0.5]),
    "hermite_psi_field": (
        lambda dom: hermite_psi_field(*_bethe_pair(dom), dom), [0.53 * FD_ELL]),
    "hermite_psi_field_reflected": (
        lambda dom: hermite_psi_field(*_bethe_pair(dom), dom, reflect=True), [0.53 * FD_ELL]),
    "single_contour_psi_field": (
        lambda dom: single_contour_psi_field(1, 0, 2.0, dom), [0.8, 0.1]),
}


def _bethe_pair(dom):
    st = solve_bethe(2, dom)
    return st.roots, st.xi


class TestFieldJets:
    """A field's jet against finite differences of its values, in x and in tau."""

    @pytest.mark.parametrize("name", FD_FIELDS)
    def test_partials_match_finite_differences(self, name):
        make, x = FD_FIELDS[name]
        f = make(EllipticDomain.from_half_periods(FD_ELL, FD_DELTA))
        x = np.asarray(x, dtype=complex)
        j = f(x)
        assert j.value == f(x).value
        for i in range(len(x)):
            def along(u):
                y = x.copy()
                y[i] = u
                return f(y).value

            assert abs(j.d1[i] - fd_derivative(along, x[i])) <= 1e-9 * abs(j.d1[i])
            assert abs(j.d2[i] - fd_second_derivative(along, x[i])) <= 1e-7 * abs(j.d2[i])

    # Hermite's solution has no tau-derivative (its roots are solved per domain)
    @pytest.mark.parametrize("name", [n for n in FD_FIELDS if not n.startswith("hermite")])
    def test_tau_derivative_matches_finite_differences(self, name):
        # tau = i delta / ell, so d/dtau = (ell / i) d/d delta at fixed x
        make, x = FD_FIELDS[name]
        x = np.asarray(x, dtype=complex)
        j = make(EllipticDomain.from_half_periods(FD_ELL, FD_DELTA))(x)
        fd = fd_derivative(lambda d: make(EllipticDomain.from_half_periods(FD_ELL, d))(x).value,
                           FD_DELTA) * FD_ELL / 1j
        assert abs(j.dtau - fd) <= 1e-8 * abs(j.dtau)

    def test_no_tau_derivative_raises(self, dom_small_p):
        st = solve_bethe(1, dom_small_p)
        f = hermite_psi_field(st.roots, st.xi, dom_small_p)
        assert f(np.array([0.62 + 0j])).dtau is None
        with pytest.raises(ConvergenceError):
            nonstationary_residual(f, 1.0, 0.0, [0.62], -1.0, dom_small_p)


def _spy_walks(monkeypatch):
    """Record, by name, each call of the theta kernels the operators walk the ladder with.

    theta1 is patched in ellipcmr.theta, so theta1_power and ground_state_psi0 show too.
    """
    import ellipcmr.operators as operators
    import ellipcmr.theta as theta
    calls = []
    for mod, name in ((operators, "theta1_jet"), (operators, "wp1"), (theta, "theta1")):
        fn = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, _fn=fn, _name=name, **kw:
                            calls.append(_name) or _fn(*a, **kw))
    return calls


def batch_points(n, dom, seed):
    """A (2, 3) batch of real points of n coordinates, each point's coordinates
    descending in (0.05, 1.95) ell, so vt1 > 0 on every pair."""
    rng = np.random.default_rng(seed)
    return dom.ell * -np.sort(-rng.uniform(0.05, 1.95, (2, 3, n)), axis=-1) + 0j


def batch_cases(dom):
    """name -> (call, points): every field (call returns a Jet) and every operator,
    with the (2, 3) batches of points it takes; call on the batch or on one point."""
    g = 1.3
    st = solve_bethe(2, dom)
    psi0 = ground_state_field(g, dom)
    herm = hermite_psi_field(st.roots, st.xi, dom)
    pw = plane_wave([0.3, -0.6, 0.2, 0.5, -0.1])
    u, x1 = batch_points(5, dom, 1), batch_points(1, dom, 2)[..., 0]
    x, y = u[..., :3], u[..., 3:]
    par = RuijsenaarsParams(p=dom.p, q=0.31, t=0.47)
    f = lambda zz: zz[..., 0] + 2.0 * zz[..., 1] * zz[..., 2] + 1.0 / zz[..., 0]
    z = np.exp(1j * math.pi * x / dom.ell)
    return {
        "plane_wave": (pw, (u,)),
        "ground_state_field": (psi0, (x,)),
        "hermite_psi_field": (herm, (x1[..., None],)),
        "hermite_psi_field_reflected": (
            hermite_psi_field(st.roots, st.xi, dom, reflect=True), (x1[..., None],)),
        "single_contour_psi_field": (single_contour_psi_field(1, 0, 2.0, dom), (y,)),
        "apply_ecs": (lambda x: apply_ecs(psi0, x, g, dom), (x,)),
        "nonstationary_residual": (lambda x: nonstationary_residual(psi0, 2 * g, 0.5, x, g, dom),
                                   (x,)),
        "fit_nonstationary_E": (lambda x: fit_nonstationary_E(psi0, 2 * g, x, g, dom), (x,)),
        "apply_deformed_ecs": (lambda x, y: apply_deformed_ecs(pw, x, y, g, dom), (x, y)),
        "apply_generalized_ecs": (
            lambda u: apply_generalized_ecs(pw, u[..., :2], u[..., 2:3], u[..., 3:4], u[..., 4:],
                                            g, dom), (u,)),
        "apply_generalized_ecs_no_tilde": (
            lambda x, y: apply_generalized_ecs(pw, x, [], y, [], g, dom), (x, y)),
        "heun_residual": (lambda x1: heun_residual(plane_wave([0.9]), 0.4, x1,
                                                   CouplingSet(1.5, 0.7, 1.2, -0.4), dom), (x1,)),
        # E off the eigenvalue, so the residual does not vanish
        "lame_residual": (lambda x1: lame_residual(herm, st.energy + 1.0, x1, -2.0, dom), (x1,)),
        "kernel_identity_residual": (
            lambda x, y: kernel_identity_residual(KernelSpec(3, 2, 1.4), x, y, dom), (x, y)),
        "apply_ruijsenaars_D": (lambda z: apply_ruijsenaars_D(f, z, par), (z,)),
        "apply_ruijsenaars_D_inverse": (lambda z: apply_ruijsenaars_D(f, z, par, sign=-1), (z,)),
    }


BATCH_CASES = batch_cases(EllipticDomain.from_nome(2.0, 0.1))


class TestFieldCoordinates:
    """A field checks that its points carry its number of coordinates."""

    def test_wrong_coordinate_count_rejected(self, dom_small_p):
        dom = dom_small_p
        st = solve_bethe(2, dom)
        # before: the Hermite field read x_1 only (apply_ecs gave 24.9+6.6j), the
        # contour field returned a value, and plane_wave raised a bare ValueError
        for psi, x in ((hermite_psi_field(st.roots, st.xi, dom), [0.3, 0.7]),
                       (single_contour_psi_field(1, 0, 2.0, dom), [0.8, 0.1, 0.4]),
                       (plane_wave([0.5, 0.2]), [0.8, 0.1, 0.4])):
            with pytest.raises(DomainError, match="coordinates"):
                apply_ecs(psi, x, 2.0, dom)

    def test_non_finite_coupling_rejected(self, dom):
        # before, g = NaN raised a bare ValueError in the power rule
        x = np.array([0.9, 0.1, -0.5])
        with pytest.raises(DomainError, match="not finite"):
            ground_state_field(math.nan, dom)(x)
        with pytest.raises(DomainError, match="not finite"):
            kernel_K(KernelSpec(2, 1, math.nan), x[:2], x[2:], dom)


class TestPointBatches:
    """One call on a (2, 3) batch of points gives each point's value of the one-point call."""

    @pytest.mark.parametrize("name", BATCH_CASES)
    def test_batch_equals_per_point_calls(self, name):
        call, pts = BATCH_CASES[name]
        got = call(*pts)
        for i in np.ndindex(2, 3):
            want = call(*(a[i] for a in pts))
            parts = zip(got, want) if isinstance(got, Jet) else [(got, want)]
            for a, b in parts:
                if b is not None:
                    a = np.broadcast_to(a, (2, 3) + np.shape(b))[i]
                    assert np.all(np.abs(a - b) <= 1e-13 * np.abs(b)), (name, i)

    @pytest.mark.parametrize("n", [2, 3, 6])
    @pytest.mark.parametrize("g", [1.3, 2.0])
    def test_ground_state_batch_keeps_per_point_bits(self, dom, n, g):
        # psi0's pair values are multiplied in C order and its dtau in numpy's array
        # loop, so a batch's value, d1, d2 and dtau are each point's call bit for bit
        psi0 = ground_state_field(g, dom)
        x = batch_points(n, dom, 71)
        got = psi0(x)
        for i in np.ndindex(2, 3):
            for name, a, b in zip(Jet._fields, got, psi0(x[i])):
                assert np.asarray(a)[i].tobytes() == np.asarray(b).tobytes(), (name, i)


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
        calls = _spy_walks(monkeypatch)
        f = ground_state_field(1.3, dom)
        x = np.array([1.2, 0.9, 0.25, -0.4])
        nonstationary_residual(f, 4 * 1.3, 0.5, x, 1.3, dom)
        # one jet walk: zeta1, (ln vt1)'', vt1 and d/dtau ln vt1 for all four coordinates;
        # psi0 comes from that vt1, with no theta1 (theta1_power) walk; then the potential
        assert calls == ["theta1_jet", "wp1"]

    def test_ground_state_field_at_coincident_points(self, dom):
        # the jet's zeta1 has a pole at x_i = x_j, so even the value raises there
        # (tests/test_gamma.py checks psi0 itself at such points)
        x = np.array([0.3, 0.3, 0.9])
        for g in (2.0, 1.3):
            f = ground_state_field(g, dom)
            with pytest.raises(PoleError):
                f(x)
            with pytest.raises(PoleError):
                f(x.astype(complex))

    def test_gauge_symmetry(self, dom):
        # psi -> C(tau) psi shifts E by (i pi kappa / 2 ell^2) dC/dtau / C
        g = 1.7
        kappa = 2 * g
        f = ground_state_field(g, dom)
        E = fit_nonstationary_E(f, kappa, [0.45 * dom.ell, 0.05 * dom.ell], g, dom)
        C = 1.0 + dom.tau ** 2
        dC = 2.0 * dom.tau

        def scaled(x):
            j = f(x)
            return Jet(C * j.value, C * j.d1, C * j.d2, C * j.dtau + dC * j.value)

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

        def boosted(x):
            j = f(x)
            phase = np.exp(1j * q * (x[0] + x[1]))
            return Jet(phase * j.value, phase * (j.d1 + 1j * q * j.value),
                       phase * (j.d2 + 2j * q * j.d1 - q * q * j.value), phase * j.dtau)

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
        assert abs(r) / abs(f(np.array([x], dtype=complex)).value) <= 1e-8

    def test_shifted_potential_real(self, dom):
        # wp1(x + i delta) is real for real x
        for x in (0.3, 0.9, 1.7):
            assert abs(wp1(x + 1j * dom.delta, dom).imag) <= 1e-12


class TestHeun:
    def test_reduces_to_lame(self, dom):
        g = 1.6
        f = ground_state_field(g, dom)

        def psi(x):
            j = f(np.array([x[0], 0.0]))
            return Jet(j.value, j.d1[:1], j.d2[:1])

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

        def psi(x):
            j = f(2.0 * x)
            return Jet(j.value, 2.0 * j.d1, 4.0 * j.d2)

        g = -1.0
        x = 0.26 * dom.ell
        r = heun_residual(psi, 4.0 * st.energy, x, CouplingSet(g0=g, g1=g, g2=g, g3=g), dom)
        assert abs(r) / abs(psi(np.array([x], dtype=complex)).value) <= 1e-8

    def test_poschl_teller_limit(self):
        # ell = pi, p -> 0: potential becomes the trigonometric two-term well
        dom = EllipticDomain.from_nome(math.pi, 1e-12)
        g0, g1 = 1.7, 2.3

        def phi(u):
            return np.sin(u) ** g0 * np.cos(u) ** g1

        def dlog(u):      # d/dx ln phi(x/2) and its x-derivative, u = x/2
            return (0.5 * (g0 / np.tan(u) - g1 * np.tan(u)),
                    -0.25 * (g0 / np.sin(u) ** 2 + g1 / np.cos(u) ** 2))

        def psi(x):
            v = complex(phi(x[0] / 2))
            l1, l2 = dlog(x[0] / 2)
            return Jet(v, np.array([l1 * v]), np.array([(l1 * l1 + l2) * v]))

        E_pt = (g0 + g1) ** 2
        x = 0.9
        r = heun_residual(psi, E_pt / 4.0, x, CouplingSet(g0=g0, g1=g1), dom)
        assert abs(r) / abs(psi(np.array([x], dtype=complex)).value) <= 1e-7

    def test_shifted_couplings_rejected_at_p0(self):
        # g2 and g3 shift by i delta, infinite at p = 0; g0 and g1 do not
        dom = EllipticDomain.from_nome(math.pi, 0.0)
        pw = plane_wave([0.3])
        for c in (CouplingSet(g2=1.5), CouplingSet(g3=1.5)):
            with pytest.raises(DomainError):
                heun_residual(pw, 1.0, 0.4, c, dom)
        r = heun_residual(pw, 1.0, 0.4, CouplingSet(g0=1.5, g1=0.7), dom)
        assert abs(r - lame_residual(pw, 1.0, 0.4, 1.5, dom)
                   - 0.7 * (0.7 - 1.0) * wp1(0.4 + math.pi, dom) * pw([0.4]).value) <= 1e-12

    def test_half_period_shifts(self, dom):
        om = half_period_shifts(dom)
        assert om[0] == 0.0 and om[1] == dom.ell
        assert om[2] == 1j * dom.delta and om[3] == -dom.ell - 1j * dom.delta
        # delta is infinite at p = 0: no nan+infj entries
        with pytest.raises(DomainError):
            half_period_shifts(EllipticDomain.from_nome(dom.ell, 0.0))


def _wp1_sum(dom, u, v=None, shift=0.0):
    """sum wp1 over the pairs i < k of u, or over all (u_i, v_j) at u_i - v_j + shift."""
    if v is None:
        return sum(lattice_sum_wp1(u[i] - u[k], dom)
                   for i in range(len(u)) for k in range(i + 1, len(u)))
    return sum(lattice_sum_wp1(a - b + shift, dom) for a in u for b in v)


def _deformed_oracle(j, x, xt, offset, g, dom):
    """H_{N,M}(x, xt) psi per the docstring; the jet's partials of (x, xt) start at offset."""
    d2 = j.d2[offset:offset + len(x) + len(xt)]
    kin = -0.5 * d2[:len(x)].sum() + 0.5 * g * d2[len(x):].sum()
    pot = (g * (g - 1.0) * _wp1_sum(dom, x) + (1.0 - 1.0 / g) * _wp1_sum(dom, xt)
           + (1.0 - g) * _wp1_sum(dom, x, xt))
    return kin + pot * j.value


ORACLE_P = [0.02, 0.1, 0.19]


class TestDeformed:
    @pytest.mark.parametrize("p", ORACLE_P)
    def test_both_families_match_oracle(self, p):
        dom = EllipticDomain.from_nome(2.0, p)
        g = 1.6
        x, xt = np.array([0.4, 1.3]), np.array([-0.5, 0.9, 2.6])
        pw = plane_wave([0.3, -0.6, 0.2, 0.5, -0.1])
        a = apply_deformed_ecs(pw, x, xt, g, dom)
        b = _deformed_oracle(pw(np.concatenate([x, xt]).astype(complex)), x, xt, 0, g, dom)
        assert abs(a - b) <= 1e-9 * abs(b)

    def test_g_zero_without_partners(self, dom):
        # g = 0 is valid when no deformed partner (mass -1/g) is present
        pw = plane_wave([0.3, -0.6])
        x = [0.4, 1.0]
        assert apply_deformed_ecs(pw, x, [], 0.0, dom) == apply_ecs(pw, x, 0.0, dom)

    def test_g_zero_with_partners_rejected(self, dom):
        # a deformed partner has mass -1/g
        with pytest.raises(DomainError, match="g != 0 when M > 0"):
            apply_deformed_ecs(plane_wave([0.3, -0.6]), [0.4], [1.0], 0.0, dom)

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

        def swapped(u):
            j = psi(u[::-1])
            return j._replace(d1=j.d1[::-1], d2=j.d2[::-1])

        a = apply_deformed_ecs(psi, [0.4], [1.1], g, dom)
        b = apply_deformed_ecs(swapped, [1.1], [0.4], 1.0 / g, dom)
        assert abs(a + g * b) <= 1e-12


class TestGeneralized:
    def test_g_zero_with_tilde_family_rejected(self, dom):
        pw = plane_wave([0.3, -0.6, 0.2])
        for xt, yt in (([0.9], []), ([], [0.9])):
            with pytest.raises(DomainError, match="g != 0 when tilde families"):
                apply_generalized_ecs(pw, [0.4], xt, [1.3], yt, 0.0, dom)

    @pytest.mark.parametrize("p", ORACLE_P)
    def test_four_families_match_oracle(self, p):
        # H_{N1,M1}(x, xt) + H_{N2,M2}(y, yt) + V(x, y; g) - g V(xt, yt; 1/g)
        # - (1/g) V(x, yt; g) - (1/g) V(xt, y; g), V(u, v; c) = c(c-1) sum wp1(u - v + i delta)
        dom = EllipticDomain.from_nome(2.0, p)
        g = 1.6
        x, xt = np.array([0.4, 1.3]), np.array([-0.5])
        y, yt = np.array([0.9]), np.array([2.6, -1.1])
        pw = plane_wave([0.3, -0.6, 0.2, 0.5, -0.1, 0.7])
        j = pw(np.concatenate([x, xt, y, yt]).astype(complex))

        def V(u, v, c):
            return c * (c - 1.0) * _wp1_sum(dom, u, v, shift=1j * dom.delta)

        b = (_deformed_oracle(j, x, xt, 0, g, dom) + _deformed_oracle(j, y, yt, 3, g, dom)
             + (V(x, y, g) - g * V(xt, yt, 1.0 / g) - V(x, yt, g) / g - V(xt, y, g) / g)
             * j.value)
        a = apply_generalized_ecs(pw, x, xt, y, yt, g, dom)
        assert abs(a - b) <= 1e-9 * abs(b)

    def test_g_zero_without_tilde_families(self, dom):
        # at g = 0 every coefficient vanishes: the free operator on x and y
        k = np.array([0.4, -0.2, 0.9])
        pw = plane_wave(k)
        u = np.array([0.5, 1.4, -0.3])
        a = apply_generalized_ecs(pw, u[:2], [], u[2:], [], 0.0, dom)
        assert abs(a - 0.5 * (k @ k) * pw(u).value) <= 1e-13

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

        lhs = apply_generalized_ecs(lambda u: psi(sub(u)), xx, [], yy, [], g, dom)
        rhs = apply_ecs(psi, np.concatenate([xx, yy - 1j * dom.delta]), g, dom)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_cross_families_rejected_at_p0(self, dom_trig):
        # the cross terms shift by i delta, infinite at p = 0; one side alone stays valid
        pw = plane_wave([0.1, 0.2, 0.3])
        with pytest.raises(DomainError):
            apply_generalized_ecs(pw, [0.1, 0.5], [], [0.2], [], 1.5,
                                  EllipticDomain.from_nome(math.pi, 0.0))
        a = apply_generalized_ecs(pw, [], [], [0.1, 0.5, 0.2], [], 1.5, dom_trig)
        assert a == apply_ecs(pw, [0.1, 0.5, 0.2], 1.5, dom_trig)

    def test_empty_cross_term(self, dom):
        # V_{N1,N2} with N2 = 0 contributes nothing
        pw = plane_wave([0.3, -0.6])
        a = apply_generalized_ecs(pw, [0.4, 1.0], [], [], [], 1.6, dom)
        b = apply_deformed_ecs(pw, [0.4, 1.0], [], 1.6, dom)
        assert a == b


class TestRuijsenaarsD:
    def test_sign_zero_rejected(self):
        par = RuijsenaarsParams(p=0.1, q=0.31, t=0.47)
        with pytest.raises(DomainError, match="sign must be"):
            apply_ruijsenaars_D(lambda zz: 1.0, np.exp(1j * np.array([0.3, 1.7])), par, sign=0)

    def test_constant_function(self):
        par = RuijsenaarsParams(p=0.0, q=0.31, t=0.47)
        z = np.exp(1j * np.array([0.3, 1.7]))
        val = apply_ruijsenaars_D(lambda zz: 1.0, z, par)
        assert abs(val - (1 + par.t)) <= 1e-14

    def test_power_sum_eigenfunction(self):
        par = RuijsenaarsParams(p=0.0, q=0.31, t=0.47)
        z = np.exp(1j * np.array([0.3, 1.7]))
        e1 = lambda zz: zz[..., 0] + zz[..., 1]
        val = apply_ruijsenaars_D(e1, z, par)
        assert abs(val - (par.q + par.t) * e1(z)) <= 1e-13

    def test_shift_exactness(self):
        # T_q then T_{1/q} returns the original argument exactly (q a power of 2)
        par = RuijsenaarsParams(p=0.0, q=0.5, t=1.0)
        z = np.array([np.exp(0.4j)])
        seen = []
        apply_ruijsenaars_D(
            lambda zz: apply_ruijsenaars_D(lambda ww: seen.append(ww[..., 0]) or 1.0,
                                           zz, par, sign=-1),
            z, par, sign=+1)
        assert seen[0] == z[0]

    def test_commutation_smoke(self):
        # [D(q,t), D(1/q,1/t)] on symmetric Laurent polynomials of degree <= 2
        par = RuijsenaarsParams(p=0.0, q=0.37, t=0.53)
        z = np.exp(1j * np.array([0.4, 1.9]))
        basis = [lambda zz: 1.0,
                 lambda zz: zz[..., 0] + zz[..., 1],
                 lambda zz: zz[..., 0] * zz[..., 1],
                 lambda zz: 1 / zz[..., 0] + 1 / zz[..., 1],
                 lambda zz: zz[..., 0] ** 2 + zz[..., 1] ** 2]
        for f in basis:
            ab = apply_ruijsenaars_D(
                lambda zz: apply_ruijsenaars_D(f, zz, par, sign=-1), z, par, sign=+1)
            ba = apply_ruijsenaars_D(
                lambda zz: apply_ruijsenaars_D(f, zz, par, sign=+1), z, par, sign=-1)
            assert abs(ab - ba) <= 1e-10

    def test_positive_nome_matches_pair_loop(self):
        par = RuijsenaarsParams(p=0.12, q=0.31, t=0.47)
        z = np.exp(1j * np.array([0.3, 1.7, -2.2, 0.9]))
        f = lambda zz: zz[..., 0] + 2.0 * zz[..., 1] * zz[..., 2] + 1.0 / zz[..., 3]
        for sign, q, t in ((+1, par.q, par.t), (-1, 1.0 / par.q, 1.0 / par.t)):
            expect = 0.0
            for i in range(len(z)):
                coef = 1.0
                for jj in range(len(z)):
                    if jj != i:
                        coef *= theta_q(t * z[jj] / z[i], par.p) / theta_q(z[jj] / z[i], par.p)
                zs = z.copy()
                zs[i] *= q
                expect += coef * f(zs)
            got = apply_ruijsenaars_D(f, z, par, sign=sign)
            assert abs(got - expect) <= 1e-12 * abs(expect)

    def test_t_zero_at_p_zero(self):
        # theta(t w; 0) = 1 at t = 0: D f = sum_i prod_{j != i} (1 - z_j/z_i)^-1 f(.., q z_i, ..)
        par = RuijsenaarsParams(p=0.0, q=0.31, t=0.0)
        z = np.exp(1j * np.array([0.3, 1.7, -2.2]))
        f = lambda zz: zz[..., 0] + 2.0 * zz[..., 1] * zz[..., 2] + 1.0 / zz[..., 0]
        expect = 0.0
        for i in range(len(z)):
            zs = z.copy()
            zs[i] *= par.q
            expect += f(zs) / np.prod([1.0 - z[j] / z[i] for j in range(len(z)) if j != i])
        assert abs(apply_ruijsenaars_D(f, z, par) - expect) <= 1e-13 * abs(expect)
        assert abs(apply_ruijsenaars_D(lambda zz: 1.0, z[:2], par) - 1.0) <= 1e-14

    def test_one_call_of_f_per_level(self):
        # D calls f once on the (N, N) shifted points; D(D f) calls f once on (N, N, N)
        par = RuijsenaarsParams(p=0.12, q=0.31, t=0.47)
        z = np.exp(1j * np.array([0.3, 1.7, -2.2]))
        seen = []

        def spy(name, f):
            return lambda zz: seen.append((name, zz.shape)) or f(zz)

        f = spy("f", lambda zz: zz[..., 0] * zz[..., 1] + zz[..., 2])
        apply_ruijsenaars_D(f, z, par)
        assert seen == [("f", (3, 3))]
        seen.clear()
        apply_ruijsenaars_D(spy("Df", lambda zz: apply_ruijsenaars_D(f, zz, par, sign=-1)),
                            z, par)
        assert seen == [("Df", (3, 3)), ("f", (3, 3, 3))]

    def test_coefficient_pole(self):
        par = RuijsenaarsParams(p=0.0, q=0.31, t=0.47)
        with pytest.raises(PoleError):
            apply_ruijsenaars_D(lambda zz: 1.0, np.array([1.0 + 0j, 1.0 + 0j]), par)
        # the inverse operator (1/q, 1/t) is undefined at the valid boundary q = 0 or t = 0
        z = np.exp(1j * np.array([0.3, 1.7]))
        for bad in (RuijsenaarsParams(p=0.0, q=0.0, t=0.47),
                    RuijsenaarsParams(p=0.0, q=0.31, t=0.0)):
            with pytest.raises(DomainError):
                apply_ruijsenaars_D(lambda zz: 1.0, z, bad, sign=-1)


class TestKernelIdentity:
    def test_equal_pair_vanishes(self, dom):
        spec = KernelSpec(2, 2, 1.4)
        r = kernel_identity_residual(spec, np.array([0.9, 0.1]),
                                     np.array([0.55, -0.62]), dom)
        assert abs(r) <= 1e-8

    def test_one_walk_per_kernel(self, dom, monkeypatch):
        # one theta1_jet pass, tau series included, over all pairs of (x, y), then
        # one wp1 call for the potential: two truncation orders in all
        from ellipcmr.domain import TruncationPolicy
        calls = _spy_walks(monkeypatch)
        orders = []
        counted = TruncationPolicy.n_terms
        monkeypatch.setattr(TruncationPolicy, "n_terms",
                            lambda self, *a: orders.append(a) or counted(self, *a))
        kernel_identity_residual(KernelSpec(2, 1, 1.4), np.array([0.9, 0.1]),
                                 np.array([0.4]), dom)
        assert calls == ["theta1_jet", "wp1"]
        assert len(orders) == 2

    def test_empty_spec_rejected(self):
        with pytest.raises(DomainError, match="N \\+ M > 0"):
            KernelSpec(0, 0, 1.4)

    @pytest.mark.parametrize("x, y", [([0.9, 0.1, 0.3], [0.4]), ([0.9, 0.1], [0.4, 0.2]),
                                      ([0.9], [0.4])])
    def test_coordinate_counts_must_match_the_spec(self, dom, x, y):
        spec = KernelSpec(2, 1, 1.4)
        for fn in (kernel_K, kernel_identity_residual):
            with pytest.raises(DomainError, match="coordinate counts must match"):
                fn(spec, np.array(x), np.array(y), dom)

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
