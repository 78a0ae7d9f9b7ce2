"""Contour-quadrature kernel transforms and elliptic Jack-type functions.

Run:  python demos/04_kernel_transforms.py
"""

import numpy as np

from ellipcmr import EllipticDomain, fit_nonstationary_E, nonstationary_residual
from ellipcmr.pseries import solve_variant_I
from ellipcmr.transform import (ContourConfig, Partition2, assemble_P_lambda,
                                contour_F_lambda, eigen_residuals_P_lambda,
                                n2_single_contour_P, single_contour_psi_field)

z = np.exp(1j * np.array([0.4, 1.9]))

# At p = 0, g = 1 the single-contour integral is a Schur polynomial
print("single-contour P at p = 0, g = 1 (residue calculus gives Schur):")
for lam in ((1, 0), (2, 0), (1, 1)):
    r = n2_single_contour_P(lam[0] - lam[1], lam[1], z, 1.0, 0.0)
    print(f"   lam={lam}: {r.value:.10g}   node-doubling delta {r.node_delta:.1e}")
print(f"   s_(1,0) = z1 + z2 = {z[0] + z[1]:.10g}")

# psi0 * P solves the kappa = g non-stationary equation at p > 0
dom = EllipticDomain.from_nome(2.0, 0.05)
g = 2.0
psi = single_contour_psi_field(1, 0, g, dom)
E = fit_nonstationary_E(psi, g, [0.8, 0.1], g, dom)
x = np.array([[1.2, 0.3], [0.6, -0.5]], dtype=complex)     # two points, one per row
worst = np.max(np.abs(nonstationary_residual(psi, g, E, x, g, dom)) / np.abs(psi(x).value))
print(f"\nkappa = g non-stationary residual of psi0 * P: {worst:.2e}  (E = {E:.8g})")

# Double-contour building block and the assembled eigenfunction
r = contour_F_lambda(1, 0, z, g, dom.p, ContourConfig(nodes=256))
print(f"\nF_(1,0) at p = {dom.p}: {r.value:.10g}  delta {r.node_delta:.1e}")

lam = Partition2(1, 0)
table = solve_variant_I((lam.lam1 + g / 2, lam.lam2 - g / 2), g * (g - 1), K=6)
P = assemble_P_lambda(lam, table, z, g, dom.p)
print(f"assembled P_(1,0) at p = {dom.p}, g = {g}: {P.value:.10g}  delta {P.node_delta:.1e}")

# One truncation order buys one factor of p in the eigen-residual
res = eigen_residuals_P_lambda(lam, table, np.array([0.7, 0.1]), g, dom, Ks=range(7))
print("\neigen-residual |H psi - E psi|/|psi| per truncation order:")
for K, rv in zip(range(7), res):
    print(f"   K={K}: {rv:.3e}")
print(f"   (each order should gain roughly a factor p = {dom.p})")
