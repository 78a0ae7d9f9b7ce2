"""Operator zoo: kernel identities, deformed duality, Calogero's trick, and
the relativistic difference operator.

Run:  python demos/05_operators_and_identities.py
"""

import numpy as np

from ellipcmr import (EllipticDomain, KernelSpec, RuijsenaarsParams,
                      apply_deformed_ecs, apply_ecs, apply_generalized_ecs,
                      apply_ruijsenaars_D, fit_nonstationary_E, ground_state_field,
                      heat_constant_c0, kernel_identity_residual)
from ellipcmr.fields import plane_wave

dom = EllipticDomain.from_nome(ell=2.0, p=0.1)
g = 1.4

# Generalized kernel identity: the residual is the constant C_{N,M} ~ (N - M)
print("kernel-identity residual R (constant, proportional to N - M):")
j = np.arange(3)[:, None]      # three configurations, one per row, in one call
for (N, M) in ((2, 2), (2, 1), (2, 0), (3, 1)):
    vals = kernel_identity_residual(KernelSpec(N, M, g), np.array([0.9, 0.1, -0.7])[:N] + 0.04 * j,
                                    np.array([0.55, -0.62, 1.2])[:M] + 0.06 * j, dom)
    spread = np.max(np.abs(vals - vals[0]))
    print(f"   (N,M)=({N},{M}): R = {vals[0]:.8g}   spread over configs {spread:.1e}")

# (N,0) ties to the ground-state factor solving the kappa = N g equation
psi0 = ground_state_field(g, dom)
E = fit_nonstationary_E(psi0, 2 * g, [0.9, 0.1], g, dom)
print(f"\npsi0 generalized eigenvalue (N=2, kappa=2g): {E:.8g} = g^2 c0 = "
      f"{g * g * heat_constant_c0(dom):.8g}")

# Deformed model: swapping families swaps g <-> 1/g; a field is its jet function
psi = plane_wave([0.5, 0.2])


def swapped(u):
    """The jet of psi(u2, u1): value at the swapped point, partials swapped back."""
    j = psi(u[::-1])
    return j._replace(d1=j.d1[::-1], d2=j.d2[::-1])


a = apply_deformed_ecs(psi, [0.4], [1.1], g, dom)
b = apply_deformed_ecs(swapped, [1.1], [0.4], 1 / g, dom)
print(f"\ndeformed duality H(g) + g H(1/g): {abs(a + g * b):.2e}")

# Calogero's trick: shifting a family by i delta is the generalized model
k = np.array([0.4, -0.2, 0.9])
psi3 = plane_wave(k)
xx, yy = np.array([0.5, 1.4]), np.array([-0.3])
sub = lambda u: np.concatenate([u[:2], [u[2] - 1j * dom.delta]])
lhs = apply_generalized_ecs(lambda u: psi3(sub(u)), xx, [], yy, [], 1.5, dom)
rhs = apply_ecs(psi3, np.concatenate([xx, yy - 1j * dom.delta]), 1.5, dom)
print(f"Calogero-trick evaluation match: {abs(lhs - rhs):.2e}")

# Relativistic difference operator at p = 0: Macdonald spectrum
par = RuijsenaarsParams(p=0.0, q=0.31, t=0.47)
z = np.exp(1j * np.array([0.3, 1.7]))
d0 = apply_ruijsenaars_D(lambda zz: 1.0, z, par)
e1 = lambda zz: zz[..., 0] + zz[..., 1]
d1 = apply_ruijsenaars_D(e1, z, par) / e1(z)
print(f"\nD at p=0 on the Macdonald basis: D 1 = {d0:.6g} (1 + t = {1 + par.t}),"
      f"  D e1/e1 = {d1:.6g} (q + t = {par.q + par.t})")
