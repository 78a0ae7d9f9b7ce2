"""Command-line front end: evaluation grids, solvers, verification suites.

Each subcommand returns its payload and `main` writes it.  Output is
deterministic: fixed node counts and summation orders, JSON keys sorted and
numbers in their shortest round-trip form, CSV numbers with 17 significant
digits.  A value outside the float range is a DomainError: exit 2 and nothing
written.  Exit code 0 means every requested certificate passed its tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .bethe import solve_bethe
from .domain import EllipticDomain, RuijsenaarsParams
from .errors import DomainError, EllipcmrError
from .gamma import elliptic_gamma, weight_W
from .kernels import KernelSpec, kernel_identity_residual
from .operators import (apply_deformed_ecs, apply_ecs, fit_nonstationary_E,
                        ground_state_field, nonstationary_residual)
from .fields import SmoothField, plane_wave
from .pseries import apply_L_series, solve_variant_I, solve_variant_II
from .theta import (heat_residual, theta1, theta1_logderiv, theta_q, wp1)
from .transform import ContourConfig, Partition2, assemble_P_lambda

SCHEMA = 1
DEFAULT_TOL = 1e-8
QUAD_TOL = 1e-10


def _domain(args) -> EllipticDomain:
    if args.p is not None:
        return EllipticDomain.from_nome(args.ell, args.p)
    return EllipticDomain.from_half_periods(args.ell, args.delta)


# ---------------------------------------------------------------- eval

# each takes (x, z = exp(i pi x/ell), dom, args)
_EVAL_FNS = {
    "theta1": lambda x, z, dom, args: theta1(x, dom),
    "zeta1": lambda x, z, dom, args: theta1_logderiv(x, dom),
    "wp1": lambda x, z, dom, args: wp1(x, dom),
    "theta": lambda x, z, dom, args: theta_q(z, dom.p),
    "gamma": lambda x, z, dom, args: elliptic_gamma(
        z, RuijsenaarsParams(p=dom.p, q=args.q, t=args.t)),
    # two-point torus slice (z, 1)
    "W": lambda x, z, dom, args: weight_W(np.stack([z, np.ones_like(z)]), args.g, dom.p) + 0j,
}


def cmd_eval(args) -> dict | tuple:
    dom = _domain(args)
    if math.pi * abs(args.x_imag) / dom.ell > math.log(sys.float_info.max):
        raise DomainError(f"--x-imag {args.x_imag}: exp(pi |x_imag|/ell) overflows")
    n = args.grid
    x = args.x_min + (np.arange(n) + 0.5) * (args.x_max - args.x_min) / n + 1j * args.x_imag
    f = _EVAL_FNS[args.fn](x, np.exp(1j * math.pi * x / dom.ell), dom, args)
    rows = np.column_stack([x.real, x.imag, f.real, f.imag]).tolist()
    if args.format == "csv":
        return ("x_re", "x_im", "f_re", "f_im"), rows
    return {"schema": SCHEMA, "fn": args.fn, "ell": dom.ell, "p": dom.p, "rows": rows}


# ---------------------------------------------------------------- verify

def _suite_heat(dom):
    xs = dom.ell * (0.05 + 0.045 * np.arange(20))
    return float(np.max(np.abs(heat_residual(xs, dom))))


def _suite_qper(dom):
    cap = min(dom.delta, dom.ell) if not math.isinf(dom.delta) else dom.ell
    j = np.arange(8)
    x = dom.ell * (0.11 + 0.1 * j) + 1j * cap * (0.05 + 0.02 * j)
    t = theta1(x, dom)
    worst = np.abs(theta1(x + 2 * dom.ell, dom) + t) / np.abs(t)
    if not math.isinf(dom.delta):
        mult = -math.exp(math.pi * dom.delta / dom.ell) * np.exp(-1j * math.pi * x / dom.ell)
        worst = np.maximum(worst, np.abs(theta1(x + 2j * dom.delta, dom) - mult * t)
                           / np.abs(mult * t))
    return float(np.max(worst))


def _suite_kernel_identity(dom, N, M, g):
    spec = KernelSpec(N, M, g)
    configs = [(np.array([0.9, 0.1, -0.7, 1.3])[:N] + 0.03 * j,
                np.array([0.55, -0.62, 1.1, -1.0])[:M] + 0.05 * j) for j in range(5)]
    vals = [kernel_identity_residual(spec, xc * dom.ell / 2, yc * dom.ell / 2, dom)
            for xc, yc in configs]
    if N == M:
        return max(abs(v) for v in vals)
    return max(abs(v - vals[0]) for v in vals)


def _suite_duality(dom, g):
    psi = plane_wave([0.5, 0.2])
    psi_sw = SmoothField(value=lambda u: psi(u[::-1]),
                         d1=lambda u, i: psi.d1(u[::-1], 1 - i),
                         d2=lambda u, i: psi.d2(u[::-1], 1 - i))
    a = apply_deformed_ecs(psi, [0.4 * dom.ell], [0.55 * dom.ell], g, dom)
    b = apply_deformed_ecs(psi_sw, [0.55 * dom.ell], [0.4 * dom.ell], 1.0 / g, dom)
    return abs(a + g * b)


def _suite_calogero(dom, g):
    from .operators import apply_generalized_ecs
    if dom.p == 0.0:
        raise DomainError("calogero-trick shifts by i delta, which is infinite at p = 0")
    k = np.array([0.4, -0.2, 0.9])
    psi = plane_wave(k)
    xx = np.array([0.25 * dom.ell, 0.7 * dom.ell])
    yy = np.array([-0.15 * dom.ell])

    def sub(u):
        v = np.array(u, dtype=complex)
        v[2] -= 1j * dom.delta
        return v

    psi_sub = SmoothField(value=lambda u: psi(sub(u)),
                          d1=lambda u, i: psi.d1(sub(u), i),
                          d2=lambda u, i: psi.d2(sub(u), i))
    lhs = apply_generalized_ecs(psi_sub, xx, [], yy, [], g, dom)
    rhs = apply_ecs(psi, np.concatenate([xx, yy - 1j * dom.delta]), g, dom)
    return abs(lhs - rhs)


def _suite_nonstationary_theta(dom, g):
    f = ground_state_field(g, dom)
    E = fit_nonstationary_E(f, 2 * g, [0.45 * dom.ell, 0.05 * dom.ell], g, dom)
    pts = [(dom.ell * (0.1 + 0.08 * j), dom.ell * (0.02 + 0.004 * j)) for j in range(10)]
    return max(abs(nonstationary_residual(f, 2 * g, E, [a, b], g, dom))
               / abs(f(np.array([a, b]))) for a, b in pts)


_SUITES = {
    "heat": lambda dom, args: _suite_heat(dom),
    "quasi-periodicity": lambda dom, args: _suite_qper(dom),
    "kernel-identity": lambda dom, args: _suite_kernel_identity(dom, args.N, args.M, args.g),
    "duality": lambda dom, args: _suite_duality(dom, args.g),
    "calogero-trick": lambda dom, args: _suite_calogero(dom, args.g),
    "nonstationary-theta-power": lambda dom, args: _suite_nonstationary_theta(dom, args.g),
}


def cmd_verify(args) -> dict:
    resid = float(_SUITES[args.suite](_domain(args), args))
    return {"schema": SCHEMA, "suite": args.suite, "max_residual": resid, "tol": args.tol,
            "pass": resid <= args.tol}


# ---------------------------------------------------------------- bethe

def cmd_bethe(args) -> dict:
    dom = _domain(args)
    state = solve_bethe(args.n, dom)
    certs = {
        "bethe_residual": (state.bethe_residual, 1e-10),
        "ode_residual": (state.ode_residual, DEFAULT_TOL),
        "xi_residual": (state.xi_residual, 1e-10),
        "energy_spread": (state.energy_spread, DEFAULT_TOL),
    }
    return {
        "schema": SCHEMA, "n": state.n, "ell": dom.ell, "p": dom.p,
        "roots": [[t.real, t.imag] for t in state.roots],
        "xi": [state.xi.real, state.xi.imag],
        "energy": [state.energy.real, state.energy.imag],
        "energy_constant": [state.energy_constant.real, state.energy_constant.imag],
        "wronskian": state.wronskian,
        "degenerate": bool(state.degenerate),
        "certificates": {k: {"value": float(v), "tol": lim, "pass": bool(v <= lim)}
                         for k, (v, lim) in certs.items()},
        "pass": all(v <= lim for v, lim in certs.values()),
    }


# ---------------------------------------------------------------- perturb

def cmd_perturb(args) -> dict:
    if args.variant == "I":
        table = solve_variant_I(args.s, args.gamma, args.K, n_cap=args.n_cap)
    else:
        kappa = complex(*args.kappa)
        table = solve_variant_II(args.s, args.gamma, kappa, args.K, n_cap=args.n_cap)
    # apply_L_series sums in Python complex arithmetic, where an inf ends in OverflowError
    if not np.all(np.isfinite([*table.a.values(), *table.eps])):
        raise DomainError("the nome series leaves the float range for these s and gamma")
    scale = max(abs(complex(v)) for v in table.a.values())
    rel = apply_L_series(table).max_abs() / scale
    return {**table.to_dict(), "l_residual_relative": rel, "pass": bool(rel <= 1e-10)}


# ---------------------------------------------------------------- transform

def _one_transform(lam_pair, args, dom):
    lam = Partition2(*lam_pair)
    g = args.g
    table = solve_variant_I((lam.lam1 + g / 2.0, lam.lam2 - g / 2.0),
                            g * (g - 1.0), args.K, n_cap=args.n_cap)
    x = np.array([0.31 * dom.ell, -0.27 * dom.ell])
    z = np.exp(1j * math.pi * x / dom.ell)
    cfg = ContourConfig(nodes=args.nodes)
    r = assemble_P_lambda(lam, table, z, g, dom.p, cfg)
    return {
        "lambda": [lam.lam1, lam.lam2],
        "z": [[v.real, v.imag] for v in z],
        "p": dom.p, "g": g,
        "value_re": r.value.real, "value_im": r.value.imag,
        "node_delta": r.node_delta,
    }


def cmd_transform(args) -> dict:
    dom = _domain(args)
    results = [_one_transform(lp, args, dom) for lp in args.lam]
    payload = {"schema": SCHEMA, "results": results,
               "pass": all(r["node_delta"] <= QUAD_TOL for r in results)}
    if len(results) == 1:
        payload.update(results[0])
    return payload


# ---------------------------------------------------------------- parser

def _positive(cast):
    """Option type: a cast value in (0, inf); nan is rejected too."""
    def parse(text: str):
        v = cast(text)
        if not 0 < v < math.inf:
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
        return v

    parse.__name__ = cast.__name__                # argparse names the type in its errors
    return parse


def _pair(cast):
    """Option type: 'a,b' as a tuple of two cast values."""
    def parse(text: str) -> tuple:
        parts = text.split(",")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(f"expected two comma-separated values, got {text!r}")
        return tuple(cast(v) for v in parts)

    parse.__name__ = f"{cast.__name__} pair"     # argparse names the type in its errors
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ellipcmr",
                                 description="elliptic CMR special functions toolkit")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_domain(p):
        p.add_argument("--ell", type=float, default=math.pi)
        nome = p.add_mutually_exclusive_group(required=True)
        nome.add_argument("--p", type=float)
        nome.add_argument("--delta", type=float)
        p.add_argument("--output", default=None)

    pe = sub.add_parser("eval", help="grid evaluation of the elliptic kernels")
    add_domain(pe)
    pe.add_argument("--format", choices=("json", "csv"), default="json")
    pe.add_argument("--fn", choices=_EVAL_FNS, required=True)
    pe.add_argument("--grid", type=_positive(int), default=32)
    pe.add_argument("--x-min", type=float, default=0.0)
    pe.add_argument("--x-max", type=float, default=None)
    pe.add_argument("--x-imag", type=float, default=0.0)
    pe.add_argument("--g", type=float, default=1.0)
    pe.add_argument("--q", type=float, default=0.1)
    pe.add_argument("--t", type=float, default=0.3)
    pe.set_defaults(func=cmd_eval)

    pv = sub.add_parser("verify", help="run a named identity suite")
    add_domain(pv)
    pv.add_argument("--suite", choices=_SUITES, required=True)
    pv.add_argument("--tol", type=_positive(float), default=DEFAULT_TOL)
    pv.add_argument("--g", type=float, default=1.4)
    pv.add_argument("--N", type=int, default=2)
    pv.add_argument("--M", type=int, default=2)
    pv.set_defaults(func=cmd_verify)

    pb = sub.add_parser("bethe", help="solve the Bethe system and certify")
    add_domain(pb)
    pb.add_argument("--n", type=int, required=True)
    pb.set_defaults(func=cmd_bethe)

    pp = sub.add_parser("perturb", help="solve the nome-series recursion")
    pp.add_argument("--output", default=None)
    pp.add_argument("--s", type=_pair(float), required=True, help="s1,s2")
    pp.add_argument("--gamma", type=float, required=True)
    pp.add_argument("--K", type=int, default=6)
    pp.add_argument("--n-cap", type=int, default=16)
    pp.add_argument("--variant", choices=("I", "II"), default="I")
    pp.add_argument("--kappa", type=_pair(float), default=(0.0, 0.5), help="re,im (Variant II)")
    pp.set_defaults(func=cmd_perturb)

    pt = sub.add_parser("transform", help="assemble P_lambda by contour quadrature")
    add_domain(pt)
    pt.add_argument("--lambda", dest="lam", type=_pair(int), nargs="+", required=True,
                    help="one or more pairs lam1,lam2")
    pt.add_argument("--g", type=float, default=1.0)
    pt.add_argument("--K", type=int, default=6)
    pt.add_argument("--n-cap", type=int, default=16)
    pt.add_argument("--nodes", type=int, default=256)
    pt.set_defaults(func=cmd_transform)
    return ap


# real options that must be finite; --delta inf is valid (p = 0), and perturb's
# --s, --gamma and --kappa are checked by the solver
_FINITE = ("ell", "g", "q", "t", "x_min", "x_max", "x_imag")


def _check_finite(args) -> None:
    for name in _FINITE:
        v = getattr(args, name, None)
        if v is not None and not math.isfinite(v):
            raise DomainError(f"--{name.replace('_', '-')} must be finite, got {v}")


def _render(payload) -> str:
    """A dict as strict JSON, or (header, rows) as CSV; a non-finite value is a DomainError."""
    if isinstance(payload, dict):
        try:
            return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
        except ValueError:
            raise DomainError("a result leaves the float range") from None
    header, rows = payload
    if not np.all(np.isfinite(rows)):
        raise DomainError("a result leaves the float range")
    return "\n".join([",".join(header)] + [",".join(f"{v:.17g}" for v in row) for row in rows])


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "x_max", None) is None and args.command == "eval":
        args.x_max = args.ell
    try:
        _check_finite(args)
        # a value that leaves the float range is reported as a DomainError, not as a warning
        with np.errstate(all="ignore"):
            payload = args.func(args)
        text = _render(payload)
    except EllipcmrError as exc:
        sys.stderr.write(f"error [{exc.code}]: {exc}\n")
        return 2
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    # eval has no certificates and always exits 0
    return 0 if isinstance(payload, tuple) or payload.get("pass", True) else 1


if __name__ == "__main__":
    sys.exit(main())
