"""Acceptance suite: every capability certified at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s / in the captured
output).  These are the exit criteria of the library: elliptic-kernel
identities, trigonometric limits, Bethe certification, the nome-series
recursion, kernel identities, contour quadrature certificates, and the
trigonometric reference oracles.
"""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from ellipcmr.bethe import saddle_G_gradient, solve_bethe
from ellipcmr.domain import EllipticDomain, RuijsenaarsParams
from ellipcmr.fields import plane_wave
from ellipcmr.kernels import KernelSpec, kernel_identity_residual
from ellipcmr.operators import (apply_deformed_ecs, apply_ecs,
                                apply_generalized_ecs, apply_ruijsenaars_D,
                                fit_nonstationary_E, ground_state_field,
                                nonstationary_residual)
from ellipcmr.pseries import (apply_L_series, eigenvalue_from_gauge,
                              solve_variant_I, solve_variant_II)
from ellipcmr.theta import (heat_constant_c0, heat_residual, eta1_over_omega1,
                            theta1, theta1_dlog2, wp1)
from ellipcmr.transform import (ContourConfig, Partition2, assemble_P_lambda,
                                contour_F_lambda, eigen_residuals_P_lambda,
                                n2_single_contour_P)

from oracles import (first_order_eps_rs, jack_2_gram_schmidt, periodized_sinh_sum,
                     proportionality_residual)

ELL = 2.0


def report(num, name, value, tol, passed=None):
    passed = (value <= tol) if passed is None else passed
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if passed else 'FAIL'} "
          f"max residual {value:.3e} (tol {tol:.1e})")
    return passed


class TestCriterion1:
    def test_elliptic_kernel_identities(self):
        worst = 0.0
        for p in (0.0, 0.05, 0.2):
            dom = EllipticDomain.from_nome(ELL, p)
            cap = dom.ell if math.isinf(dom.delta) else min(dom.delta, dom.ell)
            for j in range(20):
                x = dom.ell * (0.05 + 0.045 * j) + 1j * cap * 0.03 * (j % 4)
                t = theta1(x, dom)
                # quasi-periodicity: vt1(x + 2 ell) = -vt1(x) and the 2 i delta law
                worst = max(worst, abs(theta1(x + 2 * dom.ell, dom) + t) / abs(t))
                if p > 0:
                    mult = -math.exp(math.pi * dom.delta / dom.ell) \
                        * np.exp(-1j * math.pi * x / dom.ell)
                    worst = max(worst, abs(theta1(x + 2j * dom.delta, dom) - mult * t)
                                / abs(mult * t))
                # wp1 = -(ln vt1)''
                xx = dom.ell * (0.05 + 0.045 * j)
                worst = max(worst, abs(wp1(xx, dom) + theta1_dlog2(xx, dom)))
                # heat equation residual (relative to vt1)
                worst = max(worst, abs(heat_residual(xx, dom)))
            # c0 cross-identity
            worst = max(worst, abs(heat_constant_c0(dom)
                                   - 2 * eta1_over_omega1(dom)
                                   - (math.pi / dom.ell) ** 2 / 12))
        assert report(1, "elliptic-kernel identities", worst, 1e-8)


class TestCriterion2:
    def test_trigonometric_limits(self):
        ell = math.pi
        worst_ratio = 0.0   # error / (5 p)
        for p in (0.02, 0.05, 0.1):
            dom = EllipticDomain.from_nome(ell, p)
            trig = EllipticDomain.from_nome(ell, 0.0)
            for x in (0.4, 0.9, 1.6, 2.3):
                err = abs(wp1(x, dom) - wp1(x, trig))
                worst_ratio = max(worst_ratio, err / (5 * p))
            for (x, y) in ((0.4, 1.1), (0.8, 2.0)):
                ratio = theta1(x, dom) / theta1(y, dom)
                trig_ratio = math.sin(math.pi * x / (2 * ell)) / math.sin(math.pi * y / (2 * ell))
                worst_ratio = max(worst_ratio, abs(ratio - trig_ratio) / (5 * p))
        ok1 = worst_ratio <= 1.0

        dom = EllipticDomain.from_nome(ELL, 0.1)
        d1 = periodized_sinh_sum(0.31 * ELL, dom) - wp1(0.31 * ELL, dom)
        d2 = periodized_sinh_sum(0.67 * ELL, dom) - wp1(0.67 * ELL, dom)
        const_err = abs(d1 - d2)
        ok2 = const_err <= 1e-8
        assert report(2, "trigonometric limits", max(worst_ratio, const_err / 1e-8),
                      1.0, passed=ok1 and ok2)


class TestCriterion3:
    def test_bethe_certification(self):
        worst = 0.0
        for p in (0.02, 0.05):
            dom = EllipticDomain.from_nome(ELL, p)
            for n in (1, 2, 3):
                st = solve_bethe(n, dom)
                worst = max(worst,
                            st.bethe_residual / 1e-10,
                            st.ode_residual / 1e-8,
                            st.xi_residual / 1e-10,
                            st.energy_spread / 1e-8,
                            np.max(np.abs(saddle_G_gradient(st.roots, st.xi, dom))) / 1e-9)
        assert report(3, "Bethe certification", worst, 1.0)


S4 = (0.3, -0.2)
GAMMA4 = 2.0


class TestCriterion4:
    def test_recursion_residuals_and_transfer(self):
        t1 = solve_variant_I(S4, GAMMA4, K=6)
        t2 = solve_variant_II(S4, GAMMA4, 0.7j, K=6)
        worst = 0.0
        for t in (t1, t2):
            scale = max(abs(complex(v)) for v in t.a.values())
            worst = max(worst, apply_L_series(t).max_abs() / scale / 1e-10)
        # a_{1,0} closed form
        worst = max(worst, abs(t1.coefficient(1, 0) - GAMMA4 / (1 + S4[0] - S4[1])) / 1e-12)
        # gauge transfer at fixed kappa
        t1k = solve_variant_I(S4, GAMMA4, K=6, kappa=0.7j)
        nc = t2.normalized_coefficients()
        transfer = max(abs(nc[(n, k)] - t1k.coefficient(n, k))
                       for (n, k) in nc if n <= t1k.n_cap)
        worst = max(worst, transfer / 1e-10)
        # kappa -> 0 extrapolation against Variant I
        est = eigenvalue_from_gauge(S4, GAMMA4, K=6)
        for k in range(1, 5):
            rel = abs(est[k] - t1.eps[k]) / max(1.0, abs(t1.eps[k]))
            worst = max(worst, rel / 1e-6)
        assert report(4, "nome-series recursion", worst, 1.0)

    def test_first_order_eigenvalue_identity_as_stated(self):
        # Rows (1,0), (-1,1) and (0,1) of the recursion give, with d = s1 - s2,
        #     eps_1 = -gamma (a_{1,0} + a_{-1,1}) = 2 gamma^2 / (d^2 - 1).
        # Checked here by that closed form, by exact rational arithmetic, and at
        # physical points of non-integer g by first-order perturbation theory
        # (oracles.first_order_eps_rs; eps_1 is even in d, so the torus state,
        # whose series has d -> -d, has the same shift).  The stated form eps_1 = gamma a_{1,0}
        # holds only at d = 3; elsewhere its gap is asserted to be the closed one.
        t1 = solve_variant_I(S4, GAMMA4, K=2)
        d = S4[0] - S4[1]
        eps1, a10 = t1.eps[1], t1.coefficient(1, 0)
        closed = 2 * GAMMA4 ** 2 / (d * d - 1)
        row01 = -GAMMA4 * (a10 + t1.coefficient(-1, 1))
        worst = max(abs(eps1 - closed), abs(eps1 - row01)) / abs(closed) / 1e-12
        gap = -GAMMA4 ** 2 * (2 / (1 + d) + 1 / (1 - d))
        worst = max(worst, abs(eps1 - GAMMA4 * a10 - gap) / abs(gap) / 1e-12)
        # exact rationals
        te = solve_variant_I((Fraction(3, 10), Fraction(-1, 5)), Fraction(2), K=2, exact=True)
        worst = max(worst, 0.0 if te.eps[1] == Fraction(-32, 3) else math.inf)
        # the two forms agree at d = 3
        t3 = solve_variant_I((2.0, -1.0), 2.0, K=2)
        worst = max(worst, abs(t3.eps[1] - 2.0 * t3.coefficient(1, 0)) / 1e-12)
        # first-order perturbation theory at s = (lam1 + g/2, lam2 - g/2)
        for lam in ((0, 0), (1, 0)):
            for g in (1.5, 2.5):
                t = solve_variant_I((lam[0] + g / 2, lam[1] - g / 2), g * (g - 1), K=2)
                ref = first_order_eps_rs(lam, g)
                worst = max(worst, abs(t.eps[1] - ref) / abs(ref) / 1e-10)
        assert report(4, "first-order eigenvalue identity as stated", worst, 1.0)


class TestCriterion5:
    def test_kernel_identities(self):
        dom = EllipticDomain.from_nome(ELL, 0.1)
        worst = 0.0
        # (2,2) vanishes
        r22 = kernel_identity_residual(KernelSpec(2, 2, 1.4), np.array([0.9, 0.1]),
                                       np.array([0.55, -0.62]), dom)
        worst = max(worst, abs(r22) / 1e-8)
        # (2,1) constant over 5 configurations
        vals = [kernel_identity_residual(
            KernelSpec(2, 1, 1.4), np.array([0.9 + 0.04 * j, 0.1 - 0.06 * j]),
            np.array([0.4 + 0.09 * j]), dom) for j in range(5)]
        worst = max(worst, max(abs(v - vals[0]) for v in vals) / 1e-8)
        # (N,0): psi0 solves the kappa = N g equation
        for n in (2, 3):
            g = 1.3
            psi0 = ground_state_field(g, dom)
            xref = np.array([0.9, 0.25, -0.4])[:n]
            E = fit_nonstationary_E(psi0, n * g, xref, g, dom)
            for j in range(1, 6):
                x = xref + 0.11 * j
                res = abs(nonstationary_residual(psi0, n * g, E, x, g, dom)) / abs(
                    psi0(x.astype(complex)).value)
                worst = max(worst, res / 1e-8)
        # deformed duality
        g = 1.6
        psi = plane_wave([0.5, 0.2])

        def swapped(u):
            j = psi(u[::-1])
            return j._replace(d1=j.d1[::-1], d2=j.d2[::-1])

        dual = abs(apply_deformed_ecs(psi, [0.4], [1.1], g, dom)
                   + g * apply_deformed_ecs(swapped, [1.1], [0.4], 1.0 / g, dom))
        worst = max(worst, dual / 1e-10)
        # Calogero-trick equality
        k = np.array([0.4, -0.2, 0.9])
        psi3 = plane_wave(k)
        xx, yy = np.array([0.5, 1.4]), np.array([-0.3])

        def sub(u):
            v = np.array(u, dtype=complex)
            v[2] -= 1j * dom.delta
            return v

        trick = abs(apply_generalized_ecs(lambda u: psi3(sub(u)), xx, [], yy, [], 1.5, dom)
                    - apply_ecs(psi3, np.concatenate([xx, yy - 1j * dom.delta]), 1.5, dom))
        worst = max(worst, trick / 1e-10)
        assert report(5, "kernel identities", worst, 1.0)


class TestCriterion6:
    def test_contour_certificates_and_order_scaling(self):
        p = 0.05
        dom = EllipticDomain.from_nome(ELL, p)
        z = np.exp(1j * np.array([0.4, 1.9]))
        worst = 0.0
        # node-doubling deltas at 256 nodes
        r1 = n2_single_contour_P(1, 0, z, 1.0, p, ContourConfig(nodes=256))
        r2 = contour_F_lambda(1, 0, z, 1.0, p, ContourConfig(nodes=256))
        worst = max(worst, r1.node_delta / 1e-12, r2.node_delta / 1e-12)
        # radii invariance
        a = contour_F_lambda(1, 0, z, 1.4, p, ContourConfig(R1=2.0, R2=6.0))
        b = contour_F_lambda(1, 0, z, 1.4, p, ContourConfig(R1=3.0, R2=9.0))
        worst = max(worst, abs(a.value - b.value) / 1e-10)
        # eigen-residual decreases by a factor ~ p per added order: least-squares
        # log-slope over the orders above machine floor (g = 1 is exactly
        # solvable, so every order sits on the floor and is exempt)
        kmax = 9
        for g in (1.0, 2.0):
            for lam_pair in ((1, 0), (2, 0), (1, 1)):
                lam = Partition2(*lam_pair)
                table = solve_variant_I((lam.lam1 + g / 2, lam.lam2 - g / 2),
                                        g * (g - 1.0), K=kmax)
                res = eigen_residuals_P_lambda(lam, table, np.array([0.7, 0.1]),
                                               g, dom, Ks=range(kmax + 1))
                pts = [(K, math.log(r)) for K, r in zip(range(kmax + 1), res)
                       if r > 1e-13]
                if len(pts) >= 3:
                    ks = np.array([a for a, _ in pts], dtype=float)
                    vs = np.array([b for _, b in pts])
                    slope = np.polyfit(ks, vs, 1)[0]
                    worst = max(worst, abs(slope / math.log(p) - 1.0) / 0.2)
        assert report(6, "contour certificates and order scaling", worst, 1.0)


class TestCriterion7:
    def test_trigonometric_oracles(self):
        worst = 0.0
        zs = [np.exp(1j * np.array([a, b]))
              for a, b in ((0.4, 1.9), (2.1, 0.7), (0.9, 2.8), (1.5, 0.2), (2.6, 1.1))]
        for g in (1.0, 2.0):
            jack = jack_2_gram_schmidt(g)
            for lam_pair in ((1, 0), (2, 0), (1, 1)):
                lam = Partition2(*lam_pair)
                table = solve_variant_I((lam.lam1 + g / 2, lam.lam2 - g / 2),
                                        g * (g - 1.0), K=2)
                vals = [assemble_P_lambda(lam, table, z, g, 0.0).value for z in zs]
                ref = [jack[lam_pair]((z[0], z[1])) for z in zs]
                resid, _ = proportionality_residual(vals, ref)
                worst = max(worst, resid / 1e-8)
        # difference operator spectrum on the Macdonald basis at p = 0
        par = RuijsenaarsParams(p=0.0, q=0.31, t=0.47)
        z = np.exp(1j * np.array([0.3, 1.7]))
        d0 = abs(apply_ruijsenaars_D(lambda zz: 1.0, z, par) - (1 + par.t))
        e1 = lambda zz: zz[..., 0] + zz[..., 1]
        d1 = abs(apply_ruijsenaars_D(e1, z, par) - (par.q + par.t) * e1(z))
        worst = max(worst, d0 / 1e-10, d1 / 1e-10)
        assert report(7, "trigonometric oracles", worst, 1.0)


class TestCriterion8:
    def test_out_of_scope_statements_documented(self):
        # full-scale claims are documented as out of scope, not reproduced:
        # series convergence for all (s, gamma), eigenfunction completeness /
        # orthogonality, constructions beyond two variables
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text().lower()
        needed = ("convergence", "completeness", "orthogonality", "out of scope")
        missing = [w for w in needed if w not in text]
        report(8, "out-of-scope statements documented", float(len(missing)), 0.0,
               passed=not missing)
        assert not missing
