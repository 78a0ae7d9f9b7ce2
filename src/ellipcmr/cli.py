"""Command-line front end: evaluation grids, solvers, verification suites.

Output is deterministic: fixed node counts and summation orders, numbers
printed with 17 significant digits, JSON keys sorted.  Exit code 0 means every
requested certificate passed its tolerance.
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


def _fmt(x: float) -> float:
    # %.17g round-trips doubles exactly; keep as float for json
    return float(f"{x:.17g}")


def _write(text: str, args) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _dump(obj, args) -> None:
    _write(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False), args)


def _dump_csv(rows, header, args) -> None:
    lines = [",".join(header)] + [",".join(f"{v:.17g}" for v in row) for row in rows]
    _write("\n".join(lines), args)


def _domain(args) -> EllipticDomain:
    if args.p is not None:
        return EllipticDomain.from_nome(args.ell, args.p)
    return EllipticDomain.from_half_periods(args.ell, args.delta)


# ---------------------------------------------------------------- eval

_EVAL_FNS = ("theta1", "zeta1", "wp1", "theta", "gamma", "W")


def cmd_eval(args) -> int:
    dom = _domain(args)
    if math.pi * abs(args.x_imag) / dom.ell > math.log(sys.float_info.max):
        raise DomainError(f"--x-imag {args.x_imag}: exp(pi |x_imag|/ell) overflows")
    n = args.grid
    # a value that leaves the float range is reported as a DomainError, not as a warning
    with np.errstate(all="ignore"):
        x = args.x_min + (np.arange(n) + 0.5) * (args.x_max - args.x_min) / n + 1j * args.x_imag
        z = np.exp(1j * math.pi * x / dom.ell)
        if args.fn == "theta1":
            f = theta1(x, dom)
        elif args.fn == "zeta1":
            f = theta1_logderiv(x, dom)
        elif args.fn == "wp1":
            f = wp1(x, dom)
        elif args.fn == "theta":
            f = theta_q(z, dom.p)
        elif args.fn == "gamma":
            f = elliptic_gamma(z, RuijsenaarsParams(p=dom.p, q=args.q, t=args.t))
        else:  # W, two-point torus slice (z, 1)
            f = weight_W(np.stack([z, np.ones_like(z)]), args.g, dom.p) + 0j
    if not np.all(np.isfinite(f)):
        raise DomainError(f"{args.fn} leaves the float range on this grid")
    rows = np.column_stack([x.real, x.imag, f.real, f.imag]).tolist()
    if args.format == "csv":
        _dump_csv(rows, ("x_re", "x_im", "f_re", "f_im"), args)
    else:
        _dump({"schema": SCHEMA, "fn": args.fn, "ell": _fmt(dom.ell), "p": _fmt(dom.p),
               "rows": [[_fmt(v) for v in row] for row in rows]}, args)
    return 0


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


_SUITES = ("heat", "quasi-periodicity", "kernel-identity", "duality",
           "calogero-trick", "nonstationary-theta-power")


def cmd_verify(args) -> int:
    dom = _domain(args)
    tol = args.tol
    if args.suite == "heat":
        resid = _suite_heat(dom)
    elif args.suite == "quasi-periodicity":
        resid = _suite_qper(dom)
    elif args.suite == "kernel-identity":
        resid = _suite_kernel_identity(dom, args.N, args.M, args.g)
    elif args.suite == "duality":
        resid = _suite_duality(dom, args.g)
    elif args.suite == "calogero-trick":
        resid = _suite_calogero(dom, args.g)
    else:
        resid = _suite_nonstationary_theta(dom, args.g)
    ok = resid <= tol
    _dump({"schema": SCHEMA, "suite": args.suite, "max_residual": _fmt(float(resid)),
           "tol": _fmt(tol), "pass": bool(ok)}, args)
    return 0 if ok else 1


# ---------------------------------------------------------------- bethe

def cmd_bethe(args) -> int:
    dom = _domain(args)
    state = solve_bethe(args.n, dom)
    certs = {
        "bethe_residual": (state.bethe_residual, 1e-10),
        "ode_residual": (state.ode_residual, DEFAULT_TOL),
        "xi_residual": (state.xi_residual, 1e-10),
        "energy_spread": (state.energy_spread, DEFAULT_TOL),
    }
    ok = all(v <= lim for v, lim in certs.values())
    _dump({
        "schema": SCHEMA, "n": state.n, "ell": _fmt(dom.ell), "p": _fmt(dom.p),
        "roots": [[_fmt(t.real), _fmt(t.imag)] for t in state.roots],
        "xi": [_fmt(state.xi.real), _fmt(state.xi.imag)],
        "energy": [_fmt(state.energy.real), _fmt(state.energy.imag)],
        "energy_constant": [_fmt(state.energy_constant.real), _fmt(state.energy_constant.imag)],
        "wronskian": _fmt(state.wronskian),
        "degenerate": bool(state.degenerate),
        "certificates": {k: {"value": _fmt(float(v)), "tol": _fmt(lim), "pass": bool(v <= lim)}
                         for k, (v, lim) in certs.items()},
        "pass": bool(ok),
    }, args)
    return 0 if ok else 1


# ---------------------------------------------------------------- perturb

def cmd_perturb(args) -> int:
    if args.variant == "I":
        table = solve_variant_I(args.s, args.gamma, args.K, n_cap=args.n_cap)
    else:
        kappa = complex(*args.kappa)
        table = solve_variant_II(args.s, args.gamma, kappa, args.K, n_cap=args.n_cap)
    res = apply_L_series(table)
    scale = max(abs(complex(v)) for v in table.a.values())
    rel = res.max_abs() / scale
    out = table.to_dict()
    out["l_residual_relative"] = _fmt(rel)
    out["pass"] = bool(rel <= 1e-10)
    _dump(out, args)
    return 0 if out["pass"] else 1


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
        "z": [[_fmt(v.real), _fmt(v.imag)] for v in z],
        "p": _fmt(dom.p), "g": _fmt(g),
        "value_re": _fmt(r.value.real), "value_im": _fmt(r.value.imag),
        "node_delta": _fmt(r.node_delta),
    }


def cmd_transform(args) -> int:
    dom = _domain(args)
    results = [_one_transform(lp, args, dom) for lp in args.lam]
    ok = all(r["node_delta"] <= QUAD_TOL for r in results)
    payload = {"schema": SCHEMA, "results": results, "pass": bool(ok)}
    if len(results) == 1:
        payload.update(results[0])
    _dump(payload, args)
    return 0 if ok else 1


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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "x_max", None) is None and args.command == "eval":
        args.x_max = args.ell
    try:
        _check_finite(args)
        return args.func(args)
    except EllipcmrError as exc:
        sys.stderr.write(f"error [{exc.code}]: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
