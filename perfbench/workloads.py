"""Seeded workloads for the ellipcmr benchmark.

Every op enters through the public API: CLI subcommands run in-process via
``ellipcmr.cli.main(argv)`` with stdout captured, and functions no subcommand
exposes are called directly.  An op is split into a timed ``call`` and an
untimed ``finish`` that parses the raw result into an ``Outcome``; an
independent ``check`` runs after the op's first run and compares against
values the benchmark computes itself.

Each kind draws its ops from its own seeded stream.  Its first block has one
op per slot; slot j puts p in the j-th of equal strata of [0, 0.2], ell is
stratified over [1, 4] independently of p, and the block holds one draw at
p = 0 exactly and one at the CLI default ell = pi (``--ell`` omitted).  A
failed op is replaced by a fresh draw for the same slot, until every slot has
a certified op or the kind reaches its draw limit.  No draw is filtered:
domains the library wrongly rejects (the tau-equality defect) stay in and
count as failures, and a fix shows as fewer attempts per kind while the
certified ops still cover the same p strata.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

# Library functions are looked up on their modules at call time, so a tracer
# that rebinds them there sees the benchmark's direct calls too.
from ellipcmr import cli, pseries, theta, transform
from ellipcmr import ContourConfig, EllipticDomain, Partition2

PARTITIONS = ((1, 0), (2, 0), (1, 1), (3, 0), (2, 1), (4, 0), (3, 1), (2, 2))
PERTURB_TOL = 1e-10        # tolerance cmd_perturb applies to l_residual_relative
EIGEN_EXACT_TOL = cli.DEFAULT_TOL   # eigen residual where P is exact (g = 1 or p = 0)
SCHUR_TOL = 1e-12          # relative to max(1, |s_lam|)
DLOG2_TOL = 1e-10          # theta1_dlog2 vs -wp1, relative to max(1, |wp1|)
EXACT_TOL = 1e-12          # float vs Fraction table, relative to the table scale

# Certified ops wanted per kind (its number of slots), and the most ops a kind
# may draw.  Sized so one pass fits in a 30 s run on two cores
# while the tau-equality defect rejects most bethe draws at n >= 4.  A kind
# holds one problem size, so its median sits inside one cluster of times.
CONTOUR_KINDS = {64: (32, 64), 128: (16, 32), 256: (8, 16)}
BETHE_KINDS = {2: (12, 48), 3: (12, 48), 4: (10, 60), 5: (8, 80), 6: (8, 100)}
ONE_POINT_KIND = (30, 60)           # each verify suite and eval function
EVAL_FNS = ("theta1", "zeta1", "wp1", "gamma", "W")
SERIES_K = (6, 10, 12)
SERIES_N_CAP = (16, 24)
SERIES_KIND = (30, 30)              # per (K, n_cap): Variant I and II alternate
EXACT_KIND = (10, 10)               # per K, at the smaller n_cap


@dataclass
class Outcome:
    output: bytes                       # every byte the op produced (digest input)
    error: Optional[str] = None         # failure code; None when the op succeeded
    certs: list = field(default_factory=list)   # (name, value, tol) reported by the library
    data: object = None                 # parsed result for the independent checks


@dataclass
class Op:
    kind: str
    label: str
    call: Callable[[], object]
    finish: Callable[[object], Outcome]
    check: Optional[Callable[[Outcome], Optional[str]]] = None
    slot: int = 0


class Kind:
    """Ops of one kind, one slot per wanted certified op, from the kind's own stream.

    The first block draws one op per slot, in random order; a slot fixes the
    op's p stratum and, where a kind alternates them, its g, K or variant.  A
    failed op is replaced by a fresh draw for its slot until every slot has a
    certified op or ``limit`` ops have been drawn, so a defect that rejects
    most draws costs attempts, not samples.  Without failures exactly
    ``target`` ops run.
    """

    def __init__(self, target: int, limit: int, block, seed_key: str):
        self.target, self.limit = target, limit
        self._block = block            # block(rng, m, slots, first) -> one op per slot
        self._rng = random.Random(seed_key)
        slots = list(range(target))
        self._rng.shuffle(slots)
        self._queue = self._draw(slots, True)
        self.drawn = 0

    def _draw(self, slots: list, first: bool) -> list:
        ops = self._block(self._rng, self.target, slots, first)
        for j, op in zip(slots, ops):
            op.slot = j
        return ops

    def active(self) -> bool:
        return bool(self._queue) and self.drawn < self.limit

    def next_op(self) -> Op:
        self.drawn += 1
        return self._queue.pop(0)

    def settle(self, op: Op, certified: bool) -> None:
        """Queue a fresh draw for the slot of an op that failed."""
        if not certified:
            self._queue += self._draw([op.slot], False)


def error_code(exc: BaseException) -> str:
    code = getattr(exc, "code", None)
    return code if isinstance(code, str) else f"raise-{type(exc).__name__}"


# ------------------------------------------------------------------ draws

def strata(rng: random.Random, m: int, lo: float, hi: float, which: list) -> list:
    """One uniform draw in each listed stratum of m equal strata of [lo, hi)."""
    return [lo + (hi - lo) * (j + rng.random()) / m for j in which]


def unpaired(rng: random.Random, m: int, lo: float, hi: float, count: int) -> list:
    """Draws stratified over a whole block (count = m) but not tied to the slots;
    a single redraw (count = 1) is uniform over [lo, hi)."""
    return strata(rng, m, lo, hi, rng.sample(range(m), count))


def domain_draws(rng: random.Random, m: int, slots: list, first: bool) -> list:
    """(ell, p) per slot, p in the slot's stratum; ell None means the CLI default pi.

    The first block of a kind holds p = 0 (slot 0) and the default ell (slot 1).
    """
    ells = unpaired(rng, m, 1.0, 4.0, len(slots))
    ps = strata(rng, m, 0.0, 0.2, slots)
    if first:
        ps[slots.index(0)] = 0.0
        ells[slots.index(1)] = None
    return list(zip(ells, ps))


def domain_args(ell, p) -> list:
    return (["--ell", repr(ell)] if ell is not None else []) + ["--p", repr(p)]


def dyadic(x: float) -> float:
    """Round to a multiple of 1/256: exact as a float, a decimal and a Fraction."""
    return round(x * 256) / 256


# ------------------------------------------------------------------ CLI ops

def run_cli(argv: list):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def cli_outcome(raw, certs_of: Callable[[dict], list]) -> Outcome:
    rc, out, err = raw
    oc = Outcome(output=f"rc={rc}\n".encode() + out.encode() + err.encode())
    if rc == 2 and err.startswith("error ["):
        oc.error = err[len("error ["):err.index("]")]
        return oc
    if rc not in (0, 1):
        oc.error = f"exit-{rc}"
        return oc
    oc.data = json.loads(out)
    oc.certs = certs_of(oc.data)
    if rc == 1 or any(not (v <= tol) for _, v, tol in oc.certs):
        oc.error = "cert"
    return oc


def cli_op(kind: str, argv: list, certs_of, check=None) -> Op:
    return Op(kind=kind, label=" ".join(argv), call=lambda: run_cli(argv),
              finish=lambda raw: cli_outcome(raw, certs_of), check=check)


# ------------------------------------------------------------------ contour

def schur_2(lam, z) -> complex:
    """h_{lam1} h_{lam2} - h_{lam1+1} h_{lam2-1} in two variables."""
    def h(k):
        return sum(z[0] ** i * z[1] ** (k - i) for i in range(k + 1)) if k >= 0 else 0.0
    return h(lam[0]) * h(lam[1]) - h(lam[0] + 1) * h(lam[1] - 1)


def contour_op(nodes: int, lam, g: float, K: int, ell, p: float) -> Op:
    """CLI transform plus the eigen-equation residuals of the same P_lam."""
    argv = (["transform", "--lambda", f"{lam[0]},{lam[1]}", "--g", repr(g),
             "--K", str(K), "--nodes", str(nodes)] + domain_args(ell, p))
    ell_v = math.pi if ell is None else ell

    def call():
        raw = run_cli(argv)
        if raw[0] != 0:
            return raw, None
        part = Partition2(*lam)
        table = pseries.solve_variant_I((part.lam1 + g / 2.0, part.lam2 - g / 2.0),
                                        g * (g - 1.0), K)
        x = np.array([0.31 * ell_v, -0.27 * ell_v])
        dom = EllipticDomain.from_nome(ell_v, p)
        res = transform.eigen_residuals_P_lambda(part, table, x, g, dom,
                                                 ContourConfig(nodes=nodes), Ks=range(K + 1))
        return raw, res

    def finish(raw):
        cli_raw, res = raw
        oc = cli_outcome(cli_raw, lambda d: [("node_delta", r["node_delta"], cli.QUAD_TOL)
                                            for r in d["results"]])
        if res is not None:
            oc.output += res.tobytes()
            oc.data = (oc.data, res)
        return oc

    def check(oc):
        d, res = oc.data
        if (g == 1.0 or p == 0.0) and not np.max(res) <= EIGEN_EXACT_TOL:
            return f"eigen residual {np.max(res):.2e} where P is exact"
        if g == 1.0 and p == 0.0:
            z = [complex(*zz) for zz in d["z"]]
            want = schur_2(lam, z)
            got = complex(d["value_re"], d["value_im"])
            if abs(got - want) > SCHUR_TOL * max(1.0, abs(want)):
                return f"P_lam {got} != Schur {want}"
        return None

    return Op(kind=f"nodes={nodes}", label=" ".join(argv), call=call, finish=finish,
              check=check)


def contour_block(nodes: int):
    def block(rng, m, slots, first):
        ops = []
        for j, (ell, p) in zip(slots, domain_draws(rng, m, slots, first)):
            # g and K follow the slot, so every kind has the same mix; slot 0
            # of the first block is p = 0, g = 1, where the Schur check applies
            g, K = (1.0, 2.0)[j % 2], (4, 6)[j // 2 % 2]
            ops.append(contour_op(nodes, rng.choice(PARTITIONS), g, K, ell, p))
        return ops
    return block


def contour(key: str) -> list:
    return [Kind(t, lim, contour_block(n), f"{key}:{n}")
            for n, (t, lim) in CONTOUR_KINDS.items()]


# ------------------------------------------------------------------ scalar

def bethe_certs(d):
    return [(k, c["value"], c["tol"]) for k, c in sorted(d["certificates"].items())]


def verify_certs(d):
    return [("max_residual", d["max_residual"], d["tol"])]


def wp1_check(ell, p):
    ell_v = math.pi if ell is None else ell

    def check(oc):
        dom = EllipticDomain.from_nome(ell_v, p)
        for x_re, x_im, f_re, f_im in oc.data["rows"]:
            wp = complex(f_re, f_im)
            d2 = complex(theta.theta1_dlog2(complex(x_re, x_im), dom))
            if abs(d2 + wp) > DLOG2_TOL * max(1.0, abs(wp)):
                return f"theta1_dlog2 {d2} != -wp1 {-wp} at x={x_re}+{x_im}j"
        return None
    return check


def bethe_block(n: int):
    def block(rng, m, slots, first):
        return [cli_op(f"bethe n={n}", ["bethe", "--n", str(n)] + domain_args(ell, p),
                       bethe_certs) for ell, p in domain_draws(rng, m, slots, first)]
    return block


def verify_block(suite: str):
    def block(rng, m, slots, first):
        return [cli_op(f"verify {suite}", ["verify", "--suite", suite] + domain_args(ell, p),
                       verify_certs) for ell, p in domain_draws(rng, m, slots, first)]
    return block


def eval_block(fn: str):
    def block(rng, m, slots, first):
        ops = []
        imags = unpaired(rng, m, 0.0, 0.2, len(slots))
        for (ell, p), im in zip(domain_draws(rng, m, slots, first), imags):
            # W needs unimodular z, so its grid stays on the real line
            x_imag = 0.0 if fn == "W" else im * (math.pi if ell is None else ell)
            argv = ["eval", "--fn", fn, "--x-imag", repr(x_imag)] + domain_args(ell, p)
            ops.append(cli_op(f"eval {fn}", argv, lambda d: [],
                              wp1_check(ell, p) if fn == "wp1" else None))
        return ops
    return block


def scalar(key: str) -> list:
    kinds = [Kind(t, lim, bethe_block(n), f"{key}:bethe{n}")
             for n, (t, lim) in BETHE_KINDS.items()]
    kinds += [Kind(*ONE_POINT_KIND, verify_block(s), f"{key}:{s}")
              for s in cli._SUITES]
    kinds += [Kind(*ONE_POINT_KIND, eval_block(fn), f"{key}:{fn}")
              for fn in EVAL_FNS]
    return kinds


# ------------------------------------------------------------------ series

def series_draw(rng: random.Random):
    """Dyadic (s1, s2, gamma, kappa_im) with s1 - s2 at least 1/8 from an integer."""
    while True:
        s1, s2 = dyadic(rng.uniform(-1.5, 2.5)), dyadic(rng.uniform(-1.5, 1.5))
        frac = (s1 - s2) % 1.0
        if 0.125 <= frac <= 0.875:
            return s1, s2, dyadic(rng.uniform(0.25, 3.0)), dyadic(rng.uniform(0.25, 1.0))


def table_bytes(table) -> bytes:
    rows = [[n, k, str(table.a[(n, k)])] for n, k in sorted(table.a)]
    return json.dumps({"entries": rows, "eps": [str(e) for e in table.eps]}).encode()


def exact_op(K: int, n_cap: int, s, gamma: float) -> Op:
    """Exact Fraction solve, checked against the float solve of the same draw."""
    args = ((Fraction(s[0]), Fraction(s[1])), Fraction(gamma), K)

    def finish(table):
        return Outcome(output=table_bytes(table), data=table)

    def check(oc):
        flt = pseries.solve_variant_I(s, gamma, K, n_cap=n_cap)
        exact = oc.data
        if set(flt.a) != set(exact.a):
            return "float and exact tables fill different entries"
        scale = max(abs(float(v)) for v in exact.a.values())
        worst = max(abs(complex(flt.a[key]) - float(v)) for key, v in exact.a.items())
        eps_scale = max(abs(float(e)) for e in exact.eps)
        eps_worst = max(abs(complex(f) - float(e)) for f, e in zip(flt.eps, exact.eps))
        if worst > EXACT_TOL * scale or eps_worst > EXACT_TOL * eps_scale:
            return f"float table off the exact one by {worst / scale:.2e} (rel)"
        return None

    return Op(kind=f"exact K={K}", label=f"solve_variant_I exact K={K} n_cap={n_cap} s={s} gamma={gamma}",
              call=lambda: pseries.solve_variant_I(*args, n_cap=n_cap, exact=True),
              finish=finish, check=check)


def perturb_block(K: int, n_cap: int):
    def block(rng, m, slots, first):
        ops = []
        for j in slots:
            variant = ("I", "II")[j % 2]
            s1, s2, gamma, kappa_im = series_draw(rng)
            argv = ["perturb", f"--s={s1!r},{s2!r}", f"--gamma={gamma!r}",
                    "--K", str(K), "--n-cap", str(n_cap), "--variant", variant]
            if variant == "II":
                argv.append(f"--kappa=0.0,{kappa_im!r}")
            ops.append(cli_op(f"K={K} n_cap={n_cap}", argv, lambda d: [
                ("l_residual_relative", d["l_residual_relative"], PERTURB_TOL)]))
        return ops
    return block


def exact_block(K: int):
    def block(rng, m, slots, first):
        return [exact_op(K, SERIES_N_CAP[0], (s1, s2), gamma)
                for s1, s2, gamma, _ in (series_draw(rng) for _ in slots)]
    return block


def series(key: str) -> list:
    kinds = [Kind(*SERIES_KIND, perturb_block(K, n_cap), f"{key}:K{K}:{n_cap}")
             for K in SERIES_K for n_cap in SERIES_N_CAP]
    return kinds + [Kind(*EXACT_KIND, exact_block(K), f"{key}:exact{K}") for K in SERIES_K]


WORKLOADS = {"contour": contour, "scalar": scalar, "series": series}


def kinds(name: str, seed: int) -> list:
    """The workload's kinds; each draws its ops from its own seeded stream."""
    return WORKLOADS[name](f"{name}:{seed}")
