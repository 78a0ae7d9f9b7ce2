import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from ellipcmr.domain import EllipticDomain
from ellipcmr.errors import DomainError, ResonanceError
from ellipcmr.pseries import (PSeriesTable, apply_L_series, eigenvalue_from_gauge,
                              gauge_eps_series, pseries_inv, pseries_log,
                              solve_variant_I, solve_variant_II)
from ellipcmr.theta import wp1_fourier_coeffs

S = (0.3, -0.2)
GAMMA = 2.0


def rel_L_residual(table):
    res = apply_L_series(table)
    scale = max(abs(complex(v)) for v in table.a.values())
    return res.max_abs() / scale


def single_entry_table(n0, k0, K=4, n_cap=8, s=S, gamma=GAMMA, kappa=0.0):
    """Hand-filled table with one unit coefficient (oracle input)."""
    return PSeriesTable(K=K, s=s, gamma=gamma, kappa=kappa, n_cap=n_cap,
                        variant="I", a={(n0, k0): 1.0}, eps=tuple([0.0] * (K + 1)))


def reference_solve(s, gamma, kappa, K, n_cap, variant, exact=False):
    """The recursion of the module docstring, entry by entry over a dict.

    Sums run in the docstring's order (Eps terms, the same row, then nu and
    m); rows are filled up to n = n_cap + 2(K - k) + k.  Returns (a, eps).
    """
    s1, s2 = s
    delta = s1 - s2
    if exact:
        s1, s2, delta = Fraction(s1), Fraction(s2), Fraction(s1) - Fraction(s2)
        gamma, kappa = Fraction(gamma), Fraction(kappa)
        zero, one = Fraction(0), Fraction(1)
    else:
        gamma, kappa = complex(gamma), complex(kappa)
        zero, one = 0.0 + 0.0j, 1.0 + 0.0j
    a = {(0, 0): one}
    eps = {0: (s1 * s1 + s2 * s2) / 2}
    running_scale = 1.0
    for k in range(K + 1):
        for n in range(-k, n_cap + 2 * (K - k) + k + 1):
            if (n, k) == (0, 0):
                continue
            rhs = zero
            for kp in range(1, k + 1):
                if kp in eps and eps[kp] != 0:
                    prev = a.get((n, k - kp))
                    if prev is not None and prev != 0:
                        rhs += eps[kp] * prev
            for m in range(1, n + k + 1):
                prev = a.get((n - m, k))
                if prev is not None and prev != 0:
                    rhs += gamma * m * prev
            for nu in range(1, k + 1):
                for m in range(1, k // nu + 1):
                    rhs += gamma * m * (a.get((n - m, k - nu * m), zero)
                                        + a.get((n + m, k - nu * m), zero))
            div = n * (n + delta) - k * kappa
            if n == 0 and k >= 1 and variant == "I":
                eps[k] = -rhs
                a[(0, k)] = zero
            elif n == 0 and k >= 1 and variant == "II":
                eps[k] = zero
                a[(0, k)] = rhs / div
            elif (exact and div == 0) or (not exact and abs(div) < 1e-10):
                bound = (0 if exact else
                         1e-9 * max(1.0, running_scale) * max(1.0, abs(complex(gamma))))
                if abs(rhs) > bound:
                    raise ResonanceError(f"unresolvable resonance at (n,k)=({n},{k})")
                a[(n, k)] = zero
            else:
                a[(n, k)] = rhs / div
            if not exact:
                running_scale = max(running_scale, abs(a[(n, k)]))
    return a, tuple(eps[k] for k in range(K + 1))


def dense_solve(s, gamma, kappa, K, n_cap, variant, exact=False):
    if variant == "I":
        return solve_variant_I(s, gamma, K, n_cap=n_cap, kappa=kappa, exact=exact)
    return solve_variant_II(s, gamma, kappa, K, n_cap=n_cap, exact=exact)


def resonance_at(call):
    """The (n, k) named by the ResonanceError that call raises, or None."""
    try:
        call()
    except ResonanceError as err:
        return re.search(r"\(n,k\)=\((-?\d+),(-?\d+)\)", str(err)).groups()
    return None


def seeded_draws():
    """(s, gamma, kappa, K, n_cap, variant): complex gamma and kappa on every grid point."""
    rng = np.random.default_rng(20240806)
    out = []
    for K in (0, 1, 6, 12):
        for n_cap in (0, 16, 24):
            for variant in ("I", "II"):
                s = (float(rng.uniform(-1.5, 2.5)), float(rng.uniform(-1.5, 1.5)))
                gamma = complex(rng.uniform(0.25, 3.0), rng.uniform(-0.5, 0.5))
                kappa = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.25, 1.0))
                if variant == "I" and rng.uniform() < 0.5:
                    kappa = 0.0
                out.append((s, gamma, kappa, K, n_cap, variant))
    # physical point: s1 - s2 = 3, resonant entries (-3, k >= 3) set to zero
    out += [((2.0, -1.0), 2.0, 0.0, K, n_cap, "I") for K in (6, 12) for n_cap in (0, 16)]
    return out


class TestDenseRecursion:
    def test_float_tables_match_the_dict_recursion(self):
        for s, gamma, kappa, K, n_cap, variant in seeded_draws():
            t = dense_solve(s, gamma, kappa, K, n_cap, variant)
            a, eps = reference_solve(s, gamma, kappa, K, n_cap, variant)
            assert list(t.a) == list(a)
            scale = max(abs(v) for v in a.values())
            assert max(abs(t.a[nk] - v) for nk, v in a.items()) <= 1e-13 * scale
            eps_scale = max(abs(e) for e in eps)
            assert max(abs(x - y) for x, y in zip(t.eps, eps)) <= 1e-13 * eps_scale
            assert [type(x) for x in t.eps] == [type(y) for y in eps]

    def test_exact_tables_equal_the_dict_recursion(self):
        rng = np.random.default_rng(20240807)
        cases = [((Fraction(2), Fraction(-1)), Fraction(2), 6, 16)]
        for K in (0, 1, 6, 12):
            for n_cap in (0, 16, 24):
                s = (Fraction(int(rng.integers(-48, 80)), 32), Fraction(int(rng.integers(-48, 48)), 32))
                cases.append((s, Fraction(int(rng.integers(8, 96)), 32), K, n_cap))
        # non-dyadic inputs: denominators 3 and 7 in s and gamma
        for K, n_cap in ((6, 16), (12, 24)):
            s = (Fraction(int(rng.integers(-9, 15)), 7), Fraction(int(rng.integers(-6, 6)), 3))
            cases.append((s, Fraction(int(rng.integers(1, 21)), 21), K, n_cap))
        # the sign, zero and growth paths of the int recursion: gamma = 0, a negative gamma,
        # a gamma with 100-bit numerator and denominator, and a physical point with
        # denominator-256 s and s1 - s2 = 3, whose zero divisors (-3, k >= 3) fall mid-row
        s = (Fraction(77, 256), Fraction(-51, 256))
        cases += [(s, Fraction(0), 6, 16), (s, Fraction(-75, 64), 12, 16),
                  (s, Fraction(10**30 + 1, 3**20), 6, 16),
                  ((Fraction(589, 256), Fraction(-179, 256)), Fraction(2), 12, 16)]
        for s, gamma, K, n_cap in cases:
            t = solve_variant_I(s, gamma, K, n_cap=n_cap, exact=True)
            a, eps = reference_solve(s, gamma, 0, K, n_cap, "I", exact=True)
            assert t.a == a and list(t.a) == list(a)
            assert all(type(t.a[nk]) is type(v) for nk, v in a.items())
            assert t.eps == eps and all(type(x) is type(y) for x, y in zip(t.eps, eps))

    def test_resonance_raised_at_the_same_entry(self):
        rng = np.random.default_rng(20240808)
        cases = [((1.0, 0.0), 2.0, 3, 16)]
        for d in (1, 2, 4):
            s1 = float(rng.uniform(-1.0, 1.0))
            cases.append(((s1, s1 - d), complex(rng.uniform(0.5, 3.0), 0.3), 6, 8))
            cases.append(((s1 + d, s1), float(rng.uniform(0.5, 3.0)), 6, 0))
        for s, gamma, K, n_cap in cases:
            where = resonance_at(lambda: solve_variant_I(s, gamma, K, n_cap=n_cap))
            assert where is not None
            assert where == resonance_at(lambda: reference_solve(s, gamma, 0.0, K, n_cap, "I"))

    def test_exact_resonance_raised_at_the_same_entry(self):
        # integer s1 - s2 away from a physical point: a nonzero source meets a zero divisor;
        # at gamma = 10^10 too, where a float threshold scaled by |gamma| let it through,
        # and at 10^400, whose source has no float
        for s, gamma, K, n_cap in [((Fraction(1), Fraction(0)), Fraction(2), 3, 16),
                                   ((Fraction(1), Fraction(0)), Fraction(10**10), 3, 4),
                                   ((Fraction(1), Fraction(0)), Fraction(10**400), 3, 4),
                                   ((Fraction(5, 3), Fraction(-4, 3)), Fraction(3, 7), 6, 8)]:
            where = resonance_at(lambda: solve_variant_I(s, gamma, K, n_cap=n_cap, exact=True))
            assert where is not None
            assert where == resonance_at(lambda: reference_solve(s, gamma, 0, K, n_cap, "I",
                                                                 exact=True))


def _spy_fraction_arithmetic(monkeypatch):
    """Record, by name, each call of Fraction's arithmetic dunders, as _spy_walks in
    test_operators records the theta kernel calls."""
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__"):
        fn = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda *a, _fn=fn, _name=name:
                            calls.append(_name) or _fn(*a))
    return calls


class TestVariantIIPrecheck:
    def test_unfilled_entries_are_not_checked(self):
        # kappa = 5 zeroes the divisor of (2, 1), outside row 1's fill window at n_cap = 0
        t = solve_variant_II(S, GAMMA, 5.0, K=1, n_cap=0)
        near = solve_variant_II(S, GAMMA, 5.0 + 1e-6, K=1, n_cap=0)
        assert set(t.a) == set(near.a) and (2, 1) not in t.a
        assert max(abs(t.a[nk] - near.a[nk]) for nk in t.a) <= 1e-5
        assert rel_L_residual(t) <= 1e-10

    def test_filled_entries_are_checked(self):
        assert resonance_at(lambda: solve_variant_II(S, GAMMA, 5.0, K=1, n_cap=1)) == ("2", "1")
        assert resonance_at(lambda: solve_variant_II(S, GAMMA, 5.0, K=2, n_cap=0)) == ("2", "1")


def reference_apply_L(table, dom=None):
    """The oracle entry by entry: residual and the summed magnitude of its terms."""
    K, n_cap = table.K, table.n_cap
    s1, s2 = complex(table.s[0]), complex(table.s[1])
    gamma, kappa = complex(table.gamma), complex(table.kappa)
    dom = dom or EllipticDomain.from_nome(math.pi, 0.0)
    m_max = n_cap + 3 * K + 1
    fc = wp1_fourier_coeffs(dom, m_max=m_max, k_max=K)
    scale = -((dom.ell / math.pi) ** 2)
    plus, minus = scale * fc.plus, scale * fc.minus
    coef = lambda n, k: complex(table.coefficient(n, k))
    out, size = {}, 0.0
    for k in range(K + 1):
        for n in range(-k, n_cap + 1):
            terms = [(0.5 * (n + s1) ** 2 + 0.5 * (s2 - n) ** 2 - kappa * k) * coef(n, k)]
            terms += [-complex(table.eps[kp]) * coef(n, k - kp) for kp in range(k + 1)]
            for kp in range(k + 1):
                for m in range(1, m_max + 1):
                    if plus[m, kp] != 0.0:
                        terms.append(-gamma * plus[m, kp] * coef(n - m, k - kp))
                    if minus[m, kp] != 0.0:
                        terms.append(-gamma * minus[m, kp] * coef(n + m, k - kp))
            out[(n, k)] = sum(terms)
            size = max(size, sum(abs(x) for x in terms))
    return out, size


class TestDenseOracle:
    def check(self, table, dom=None):
        # L is dimensionless: the oracle at any domain matches apply_L_series
        res = apply_L_series(table)
        want, size = reference_apply_L(table, dom)
        assert list(res.data) == list(want)
        assert max(abs(res.data[nk] - v) for nk, v in want.items()) <= 1e-13 * max(size, 1e-300)

    def test_solved_tables(self):
        for s, gamma, kappa, K, n_cap, variant in seeded_draws()[::3]:
            self.check(dense_solve(s, gamma, kappa, K, n_cap, variant))
        self.check(solve_variant_I(S, GAMMA, K=4), EllipticDomain.from_nome(2.0, 0.1))
        self.check(solve_variant_I((Fraction(3, 10), Fraction(-1, 5)), Fraction(2), 4, exact=True))

    def test_hand_filled_tables_off_support(self):
        # K = 4, n_cap = 8, m_max = 21: entries below n = -k, at both ends of the
        # dense copy n = -K - m_max .. n_cap + m_max, beyond it, and at k outside 0..K
        for n0, k0 in [(-3, 0), (-7, 2), (-25, 4), (29, 0), (30, 0), (-26, 4), (2, 5), (-1, -1)]:
            self.check(single_entry_table(n0, k0))
        rng = np.random.default_rng(20240809)
        keys = zip(rng.integers(-20, 30, 40).tolist(), rng.integers(0, 5, 40).tolist())
        a = {nk: complex(*rng.normal(size=2)) for nk in keys}
        self.check(PSeriesTable(K=4, s=S, gamma=1.5 - 0.5j, kappa=0.3j, n_cap=8, variant="I",
                                a=a, eps=tuple(rng.normal(size=5).tolist())))


class TestApplyLOracle:
    def test_single_basis_function(self):
        # L f_{n0,k0} = (Eps^(n0) - Eps - k0 kappa) f_{n0,k0}
        #               - gamma sum_m m (f_{n0+m,k0} + sum_nu (f_{n0+m,k0+nu m} + f_{n0-m,k0+nu m}))
        n0, k0, kappa = 1, 1, 0.25
        t = single_entry_table(n0, k0, kappa=kappa)
        res = apply_L_series(t)
        s1, s2 = S

        def en(n):
            return 0.5 * (n + s1) ** 2 + 0.5 * (s2 - n) ** 2

        assert abs(res.coefficient(n0, k0) - (en(n0) - k0 * kappa)) <= 1e-14
        # within-order raising coupling
        for m in (1, 2, 3):
            assert abs(res.coefficient(n0 + m, k0) + GAMMA * m) <= 1e-14
        # nome-raising couplings
        for nu in (1, 2):
            assert abs(res.coefficient(n0 + 1, k0 + nu) + GAMMA * 1) <= 1e-14
            assert abs(res.coefficient(n0 - 1, k0 + nu) + GAMMA * 1) <= 1e-14
        assert abs(res.coefficient(n0 + 2, k0 + 2) + GAMMA * 2) <= 1e-14
        # nothing below the diagonal in the triangular order
        assert res.coefficient(n0 - 1, k0) == 0.0
        assert res.coefficient(n0, k0 - 1) == 0.0

    def test_hand_filled_two_entries(self):
        # superposition: residual is linear in the table entries
        ta = single_entry_table(0, 0)
        tb = single_entry_table(1, 0)
        tc = PSeriesTable(K=4, s=S, gamma=GAMMA, kappa=0.0, n_cap=8, variant="I",
                          a={(0, 0): 1.0, (1, 0): 0.5}, eps=tuple([0.0] * 5))
        ra, rb, rc = apply_L_series(ta), apply_L_series(tb), apply_L_series(tc)
        for nk in rc.data:
            assert abs(rc.data[nk] - (ra.data[nk] + 0.5 * rb.data[nk])) <= 1e-13


class TestVariantI:
    def test_normalization_and_support(self):
        t = solve_variant_I(S, GAMMA, K=6)
        assert t.coefficient(0, 0) == 1.0
        for (n, k) in t.a:
            assert n >= -k          # acond1 support
        for k in range(1, 7):
            assert t.coefficient(0, k) == 0.0   # acond2 gauge

    def test_first_coefficient(self):
        t = solve_variant_I(S, GAMMA, K=2)
        assert abs(t.coefficient(1, 0) - GAMMA / (1 + S[0] - S[1])) <= 1e-12

    def test_eps0(self):
        t = solve_variant_I(S, GAMMA, K=2)
        assert abs(t.eps[0] - 0.5 * (S[0] ** 2 + S[1] ** 2)) <= 1e-15

    def test_eps1_first_order_identity(self):
        # the (0,1) row gives Eps_1 = -gamma (a_{1,0} + a_{-1,1})
        t = solve_variant_I(S, GAMMA, K=2)
        expect = -GAMMA * (t.coefficient(1, 0) + t.coefficient(-1, 1))
        assert abs(t.eps[1] - expect) <= 1e-12
        assert abs(t.coefficient(-1, 1) - GAMMA / (1 - S[0] + S[1])) <= 1e-12

    def test_gamma_zero_trivial(self):
        t = solve_variant_I(S, 0.0, K=4)
        assert all(v == 0.0 for nk, v in t.a.items() if nk != (0, 0))
        assert all(e == 0.0 for e in t.eps[1:])

    def test_L_residual(self):
        assert rel_L_residual(solve_variant_I(S, GAMMA, K=6)) <= 1e-10

    def test_resolvable_resonance_at_physical_point(self):
        # s = (lam1 + g/2, lam2 - g/2) with g = 2, lam = (1,0): Delta = 3
        t = solve_variant_I((2.0, -1.0), 2.0, K=6)
        assert rel_L_residual(t) <= 1e-10
        assert all(t.coefficient(-3, k) == 0.0 for k in range(3, 7))

    def test_unresolvable_resonance_rejected(self):
        with pytest.raises(ResonanceError):
            solve_variant_I((1.0, 0.0), 2.0, K=3)

    def test_n_cap_doubling_stable(self):
        a = solve_variant_I(S, GAMMA, K=5, n_cap=16)
        b = solve_variant_I(S, GAMMA, K=5, n_cap=32)
        worst = max(abs(b.coefficient(n, k) - a.coefficient(n, k))
                    for (n, k) in a.a if n <= 16)
        assert worst <= 1e-12


class TestVariantII:
    def test_eps_fixed_to_trigonometric(self):
        t = solve_variant_II(S, GAMMA, 0.7j, K=6)
        assert all(e == 0.0 for e in t.eps[1:])
        assert abs(t.eps[0] - 0.5 * (S[0] ** 2 + S[1] ** 2)) <= 1e-15

    def test_L_residual(self):
        assert rel_L_residual(solve_variant_II(S, GAMMA, 0.7j, K=6)) <= 1e-10

    def test_gamma_zero_constant_part(self):
        t = solve_variant_II(S, 0.0, 0.7j, K=4)
        assert np.allclose(t.constant_part(), [1, 0, 0, 0, 0])

    def test_kappa_zero_rejected(self):
        with pytest.raises(DomainError):
            solve_variant_II(S, GAMMA, 0.0, K=3)

    def test_small_divisor_rejected(self):
        # real kappa = 1 + s1 - s2 makes the (1,1) divisor vanish
        with pytest.raises(ResonanceError):
            solve_variant_II(S, GAMMA, 1.0 + S[0] - S[1], K=3)


class TestGauge:
    def test_transfer_at_fixed_kappa(self):
        # f^{I}(kappa) = f^{II}(kappa)/C^{II} coefficient-wise
        kap = 0.7j
        t1 = solve_variant_I(S, GAMMA, K=6, kappa=kap)
        t2 = solve_variant_II(S, GAMMA, kap, K=6)
        nc = t2.normalized_coefficients()
        worst = max(abs(nc[(n, k)] - t1.coefficient(n, k))
                    for (n, k) in nc if n <= t1.n_cap)
        assert worst <= 1e-10

    def test_transfer_coefficients_converge_as_kappa_shrinks(self):
        # f^{II}/C^{II} tends to the stationary Variant-I series along
        # kappa = i 10^-j, every truncated order converging (the ladder stops
        # before the kappa^-k roundoff amplification takes over)
        t0 = solve_variant_I(S, GAMMA, K=4)
        devs = []
        for j in (1, 2, 3):
            nc = solve_variant_II(S, GAMMA, 1j * 10.0 ** (-j), K=4).normalized_coefficients()
            devs.append([max(abs(nc[(n, k)] - t0.coefficient(n, k))
                             / (1.0 + abs(t0.coefficient(n, k)))
                             for n in range(-k, t0.n_cap + 1))
                         for k in range(5)])
        for k in range(1, 5):
            assert devs[0][k] > devs[1][k] > devs[2][k]
            assert devs[2][k] <= 0.15 * devs[0][k]

    def test_eps_series_exact_at_kappa(self):
        kap = 0.05j
        t1 = solve_variant_I(S, GAMMA, K=6, kappa=kap)
        est = gauge_eps_series(solve_variant_II(S, GAMMA, kap, K=6))
        worst = max(abs(est[k] - t1.eps[k]) / max(1.0, abs(t1.eps[k]))
                    for k in range(1, 7))
        assert worst <= 1e-12

    def test_extrapolation_matches_variant_I(self):
        t1 = solve_variant_I(S, GAMMA, K=6)
        est = eigenvalue_from_gauge(S, GAMMA, K=6)
        for k in range(1, 5):
            rel = abs(est[k] - t1.eps[k]) / max(1.0, abs(t1.eps[k]))
            assert rel <= 1e-6

    def test_gamma_zero_correction_vanishes(self):
        est = eigenvalue_from_gauge(S, 0.0, K=4)
        assert all(abs(est[k]) <= 1e-14 for k in range(1, 5))


class TestExactMode:
    def test_matches_float(self):
        te = solve_variant_I((Fraction(3, 10), Fraction(-1, 5)), Fraction(2), K=5, exact=True)
        tf = solve_variant_I(S, GAMMA, K=5)
        worst = max(abs(complex(te.coefficient(n, k)) - tf.coefficient(n, k))
                    / (1.0 + abs(tf.coefficient(n, k))) for (n, k) in tf.a)
        assert worst <= 1e-12

    def test_nonzero_kappa_rejected(self):
        with pytest.raises(DomainError, match="kappa = 0 only"):
            solve_variant_I((Fraction(3, 10), Fraction(-1, 5)), Fraction(2), K=3, exact=True,
                            kappa=0.5)

    def test_physical_point_rational_eigenvalues(self):
        t = solve_variant_I((Fraction(2), Fraction(-1)), Fraction(2), K=6, exact=True)
        assert t.eps == (Fraction(5, 2), Fraction(1), Fraction(17, 4), Fraction(-13, 8),
                         Fraction(373, 64), Fraction(93, 128), Fraction(-611, 512))

    @pytest.mark.parametrize("s, gamma", [((1, 0), 1 + 1j), ((1, 0), "x"), ((0.5j, 0), 2),
                                          ((1, 0), float("nan")), ((float("inf"), 0), 2)])
    def test_non_rational_input_rejected(self, s, gamma):
        with pytest.raises(DomainError, match="rational"):
            solve_variant_I(s, gamma, 2, exact=True)

    @pytest.mark.parametrize("K, n_cap", [(2.5, 4), (2, 4.0), (-1, 4), (2, None)])
    def test_non_integer_orders_rejected(self, K, n_cap):
        for call in (lambda: solve_variant_I(S, GAMMA, K, n_cap=n_cap),
                     lambda: solve_variant_I((Fraction(1, 3), 0), Fraction(2), K, n_cap=n_cap,
                                             exact=True),
                     lambda: solve_variant_II(S, GAMMA, 0.5j, K, n_cap=n_cap)):
            with pytest.raises(DomainError, match="integers"):
                call()

    def test_rows_solved_without_fraction_arithmetic(self, monkeypatch):
        # the same-row recursion runs in ints and each entry becomes one Fraction, so the
        # Fraction arithmetic of a solve is a few setup operations, the same at every n_cap
        # (the entry-by-entry Fraction loop made 6715 calls here)
        calls = _spy_fraction_arithmetic(monkeypatch)
        counts = []
        for n_cap in (24, 0):
            calls.clear()
            solve_variant_I((Fraction(77, 256), Fraction(-51, 256)), Fraction(75, 64), 12,
                            n_cap=n_cap, exact=True)
            counts.append(len(calls))
        assert counts[0] <= 2 * (12 + 1)
        assert counts[0] == counts[1]

    def test_exact_strings_exported(self):
        t = solve_variant_I((Fraction(3, 10), Fraction(-1, 5)), Fraction(2), K=3, exact=True)
        d = t.to_dict()
        assert d["s_exact"] == ["3/10", "-1/5"] and d["gamma_exact"] == "2"


class TestSerialization:
    def test_round_trip(self):
        t = solve_variant_I(S, GAMMA, K=5)
        d = json.loads(json.dumps(t.to_dict()))
        t2 = PSeriesTable.from_dict(d)
        assert t2.a == {k: complex(v) for k, v in t.a.items()}
        assert all(complex(a) == complex(b) for a, b in zip(t2.eps, t.eps))

    @pytest.mark.parametrize("s, gamma, K, name", [
        ((Fraction(3, 10), Fraction(-1, 5)), Fraction(10**400), 3, r"a_\(-3,3\)"),
        ((Fraction(10**200), Fraction(0)), Fraction(1), 0, "Eps_0"),
        ((Fraction(3, 10), Fraction(-1, 5)), Fraction(10**400), 0, "gamma")])
    def test_exact_value_without_a_float_named(self, s, gamma, K, name):
        # before, complex() of the first such value raised a bare OverflowError
        t = solve_variant_I(s, gamma, K, n_cap=0 if K == 0 else 16, exact=True)
        with pytest.raises(DomainError, match=name + " is too large for a float"):
            t.to_dict()

    def test_exact_table_in_range_serialises_as_before(self):
        t = solve_variant_I((Fraction(3, 10), Fraction(-1, 5)), Fraction(2), K=3, exact=True)
        expected = {"schema": 1, "variant": "I", "K": 3, "n_cap": 16, "s": [0.3, -0.2],
                    "gamma": [2.0, 0.0], "kappa": [0.0, 0.0],
                    "entries": [[n, k, complex(v).real, complex(v).imag]
                                for (n, k), v in sorted(t.a.items())],
                    "eps": [[complex(e).real, complex(e).imag] for e in t.eps],
                    "s_exact": ["3/10", "-1/5"], "gamma_exact": "2"}
        assert json.dumps(t.to_dict()) == json.dumps(expected)

    def test_schema_marker(self):
        assert solve_variant_I(S, GAMMA, K=2).to_dict()["schema"] == 1


class TestSeriesHelpers:
    def test_inv(self):
        c = np.array([2.0, 0.5, -0.25], dtype=complex)
        ci = pseries_inv(c)
        conv = [sum(c[j] * ci[k - j] for j in range(k + 1)) for k in range(3)]
        assert np.allclose(conv, [1, 0, 0])

    def test_inv_needs_a_constant_term(self):
        with pytest.raises(DomainError, match="zero constant term"):
            pseries_inv([0, 1])

    def test_log_needs_constant_term_one(self):
        with pytest.raises(DomainError, match="constant term 1"):
            pseries_log([2, 0])

    def test_log_exp_consistency(self):
        c = np.array([1.0, 0.3, -0.12, 0.07], dtype=complex)
        lg = pseries_log(c)
        # exponentiate back by the same triangular rule
        e = np.zeros_like(c)
        e[0] = 1.0
        for k in range(1, 4):
            e[k] = sum(j * lg[j] * e[k - j] for j in range(1, k + 1)) / k
        assert np.allclose(e, c)
