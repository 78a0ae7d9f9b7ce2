"""Independent oracles used by the test suite.

Everything here deliberately avoids the library's analytic-derivative and
series code paths: finite differences with Richardson extrapolation, direct
lattice sums, torus quadrature, and Gram-Schmidt construction of the
reference polynomials.
"""

import math

import numpy as np


def fd_derivative(f, x, h=1e-4):
    """First derivative by central difference plus one Richardson level."""
    d1 = (f(x + h) - f(x - h)) / (2 * h)
    d2 = (f(x + h / 2) - f(x - h / 2)) / h
    return (4 * d2 - d1) / 3


def fd_second_derivative(f, x, h=1e-3):
    d1 = (f(x + h) - 2 * f(x) + f(x - h)) / h ** 2
    d2 = (f(x + h / 2) - 2 * f(x) + f(x - h / 2)) / (h / 2) ** 2
    return (4 * d2 - d1) / 3


def lattice_sum_wp1(x, dom, n_max=40):
    """Direct defining sum: sum_n (pi/2 ell)^2 / sin^2(pi (x - 2 n i delta)/2 ell)."""
    c = np.pi / (2 * dom.ell)
    total = 0.0 + 0.0j
    for n in range(-n_max, n_max + 1):
        total += c ** 2 / np.sin(c * (x - 2j * n * dom.delta)) ** 2
    return total


def theta_factors(w, p, terms=40):
    """(y, s) for the factors 1 - y of theta(w; p), y in {w, p^n w, p^n/w}, n <= terms.

    With w d/dw y = s y (s = +1, +1, -1), a factor contributes -s y/(1-y) to
    w d/dw log theta and -y/(1-y)^2 to (w d/dw)^2 log theta.
    """
    pn = [p ** n for n in range(1, terms + 1)]
    return [(w, 1.0)] + [(a * w, 1.0) for a in pn] + [(a / w, -1.0) for a in pn]


def theta_euler(w, p):
    """w d/dw log theta(w; p) as the plain sum over theta_factors."""
    return sum(-s * y / (1.0 - y) for y, s in theta_factors(w, p))


def theta_euler2(w, p):
    """(w d/dw)^2 log theta(w; p) as the plain sum over theta_factors."""
    return sum(-y / (1.0 - y) ** 2 for y, _ in theta_factors(w, p))


def periodized_sinh_sum(x, dom, n_max=60):
    """sum_n (pi/2 delta)^2 / sinh^2(pi (x - 2 n ell)/2 delta)."""
    c = np.pi / (2 * dom.delta)
    total = 0.0 + 0.0j
    for n in range(-n_max, n_max + 1):
        arg = c * (x - 2 * n * dom.ell)
        if abs(arg.real) > 350.0:
            continue                      # term underflows to zero
        total += c ** 2 / np.sinh(arg) ** 2
    return total


def schur_2(lam, z):
    """Schur polynomial for two variables via the bialternant ratio."""
    z1, z2 = z
    l1, l2 = lam
    num = z1 ** (l1 + 1) * z2 ** l2 - z1 ** l2 * z2 ** (l1 + 1)
    return num / (z1 - z2)


def monomial_2(mu, z):
    """Monomial symmetric function m_mu for two variables."""
    z1, z2 = z
    a, b = mu
    if a == b:
        return z1 ** a * z2 ** b
    return z1 ** a * z2 ** b + z1 ** b * z2 ** a


def jack_2_gram_schmidt(g, nodes=64):
    """Jack polynomials P^(1/g)_lam, N = 2, |lam| <= 2, by Gram-Schmidt.

    Inner product <P, Q> = mean over the torus of W(z) P(z) Q(1/z) with the
    trigonometric weight W = ((1-z1/z2)(1-z2/z1))^g = |1 - z1/z2|^(2g),
    computed by the trapezoid rule (exact for integer g).  Returns
    {lam: callable}.
    """
    th = 2 * np.pi * np.arange(nodes) / nodes
    t1, t2 = np.meshgrid(th, th, indexing="ij")
    z1, z2 = np.exp(1j * t1), np.exp(1j * t2)
    w = np.abs(1 - z1 / z2) ** (2 * g)

    def inner(pf, qf):
        vals = pf((z1, z2)) * qf((1 / z1, 1 / z2)) * w
        return complex(vals.mean())

    def as_fn(coeffs):
        # coeffs: {mu: c}
        def fn(z):
            return sum(c * monomial_2(mu, z) for mu, c in coeffs.items())
        return fn

    out = {}
    out[(1, 0)] = as_fn({(1, 0): 1.0})          # nothing below it at degree 1
    out[(1, 1)] = as_fn({(1, 1): 1.0})          # bottom of degree 2
    p11 = out[(1, 1)]
    m20 = as_fn({(2, 0): 1.0})
    c = -inner(m20, p11) / inner(p11, p11)
    out[(2, 0)] = as_fn({(2, 0): 1.0, (1, 1): c})
    return out


def first_order_eps_rs(lam, g, nodes=4096):
    """First-order Rayleigh-Schroedinger shift Eps_1 of a trigonometric N = 2 state.

    The p^1 part of the eCS potential is -gamma (u + 1/u), u = z1/z2, gamma =
    g(g-1); the unperturbed state is |1-u|^g P(u) with P the two-variable Jack
    polynomial of lam in u (Gegenbauer coefficients).  So

        Eps_1 = -gamma <P|(u + 1/u)|P>_W / <P|P>_W,   W = |1-u|^(2g),

    a 1-D trapezoid sum over |u| = 1.  W ~ |theta|^(2g) at u = 1, so the error
    falls like nodes^-(2g+1): raise nodes for small g.
    """
    m = lam[0] - lam[1]
    u = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    poch = [math.prod(g + i for i in range(j)) for j in range(m + 1)]
    p_u = sum(poch[j] * poch[m - j] / (math.factorial(j) * math.factorial(m - j)) * u ** j
              for j in range(m + 1))
    w = np.abs(1 - u) ** (2 * g) * np.abs(p_u) ** 2
    return -g * (g - 1) * float(np.sum(w * 2 * u.real) / np.sum(w))


def proportionality_residual(values_a, values_b):
    """max |a - c b| / max |b| with c the least-squares proportionality fit."""
    a = np.asarray(values_a, dtype=complex)
    b = np.asarray(values_b, dtype=complex)
    c = np.vdot(b, a) / np.vdot(b, b)
    return float(np.max(np.abs(a - c * b)) / np.max(np.abs(b))), complex(c)
