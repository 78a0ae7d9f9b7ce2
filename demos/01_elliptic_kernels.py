"""Elliptic kernels: theta functions, wp1, and their certified identities.

Run:  python demos/01_elliptic_kernels.py
"""

import math

import numpy as np

from ellipcmr import (EllipticDomain, heat_constant_c0, heat_residual, theta1,
                      theta1_dlog2, theta1_dtau, theta_q, wp1,
                      wp1_fourier_coeffs)

dom = EllipticDomain.from_nome(ell=2.0, p=0.1)
print(f"domain: ell = {dom.ell}, delta = {dom.delta:.6f}, p = {dom.p}, tau = {dom.tau}")

# The two theta normalizations and their exact relation vt1 = i z^(-1/2) theta(z; p)
x = 0.37 * dom.ell + 0.05j
z = np.exp(1j * math.pi * x / dom.ell)
print(f"\nvt1({x}) = {theta1(x, dom):.12g}")
print(f"i z^-1/2 theta(z;p)  = {1j * z ** -0.5 * theta_q(z, dom.p):.12g}")

# Quasi-periodicity: antiperiodic under 2 ell, multiplier under 2 i delta
t = theta1(x, dom)
mult = -math.exp(math.pi * dom.delta / dom.ell) * np.exp(-1j * math.pi * x / dom.ell)
print(f"\nvt1(x + 2 ell) + vt1(x)            = {abs(theta1(x + 2 * dom.ell, dom) + t):.2e}")
print(f"vt1(x + 2 i delta) - mult * vt1(x) = {abs(theta1(x + 2j * dom.delta, dom) - mult * t):.2e}")

# wp1 is minus the second log-derivative of vt1 (two independent series)
print(f"\nwp1(x) + (ln vt1)''(x) = {abs(wp1(x, dom) + theta1_dlog2(x, dom)):.2e}")

# Heat equation (i pi / ell^2 d_tau - d_x^2 - c0) vt1 = 0 with the exact c0 series
print(f"heat-equation residual  = {abs(heat_residual(0.37 * dom.ell, dom)):.2e}")
print(f"c0 = {heat_constant_c0(dom):.12g};   d/dtau vt1 at x: {theta1_dtau(x, dom):.6g}")

# Fourier-type expansion of wp1 in z = e^{i pi x/ell}: plus[m, k] and minus[m, k] are
# the coefficients of z^m p^k and z^-m p^k.  Summed here; the p-free part sum_m m z^m
# converges only for |z| < 1, so it is resummed as z/(1 - z)^2
fc = wp1_fourier_coeffs(dom, m_max=32)
x0 = 0.3 * dom.ell
z0 = np.exp(1j * math.pi * x0 / dom.ell)
c = -((math.pi / dom.ell) ** 2)
m = np.arange(len(fc.plus))
powers = dom.p ** np.arange(fc.plus.shape[1])
wp_table = c * z0 / (1 - z0) ** 2 + np.sum((fc.plus @ powers - c * m) * z0 ** m
                                           + (fc.minus @ powers) * z0 ** -m)
print(f"\nwp1 from the coefficient table: {wp_table:.12g}")
print(f"wp1 from the cosine series:     {wp1(x0, dom):.12g}")

# Trigonometric degeneration: p = 0 collapses everything to sin-based forms
trig = EllipticDomain.from_nome(2.0, 0.0)
c = math.pi / (2 * trig.ell)
print(f"\np=0: wp1(0.7) = {wp1(0.7, trig):.12g} vs (pi/2ell)^2/sin^2 = "
      f"{c * c / math.sin(c * 0.7) ** 2:.12g}")
