"""Seeded sweep over random valid domains (ell, p).

Every valid domain must be accepted, and the identity suites and the Bethe
solver must certify on it; a single hand-picked domain can miss a whole class
of rejections (tau was once re-checked with exact float equality, which
refused about one domain in eleven).
"""

import cmath
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from ellipcmr.bethe import hermite_psi_field, solve_bethe
from ellipcmr.cli import main
from ellipcmr.domain import EllipticDomain

SEED = 20240805


def draws(count, salt):
    """count pairs (ell, p), ell in [1, 4), p in [0.01, 0.2): the benchmark's range."""
    rng = np.random.default_rng([SEED, salt])
    return [(float(ell), float(p)) for ell, p in
            zip(rng.uniform(1.0, 4.0, count), rng.uniform(0.01, 0.2, count))]


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    assert code == 0, f"{' '.join(argv)} exited {code}: {out.out}{out.err}"


def test_domain_constructors_accept_every_valid_input():
    rng = np.random.default_rng([SEED, 0])
    for ell, p in zip(rng.uniform(0.1, 10.0, 500), rng.uniform(1e-6, 0.9, 500)):
        dom = EllipticDomain.from_nome(ell, p)
        assert abs(cmath.exp(2j * math.pi * dom.tau) - p) <= 1e-12 * p
        again = EllipticDomain.from_half_periods(ell, dom.delta)
        assert abs(again.p - p) <= 1e-12 * p
        assert again.tau == dom.tau


@pytest.mark.parametrize("suite", ["quasi-periodicity", "heat"])
def test_verify_suites_on_random_domains(suite, capsys):
    for ell, p in draws(4, salt=1):
        run_cli(["verify", "--suite", suite, "--ell", repr(ell), "--p", repr(p)], capsys)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_bethe_certifies_on_a_random_domain(n, capsys):
    (ell, p), = draws(1, salt=10 + n)
    run_cli(["bethe", "--n", str(n), "--ell", repr(ell), "--p", repr(p)], capsys)


def test_bethe_n4_at_default_ell(capsys):
    # the documented example; its nome homotopy builds intermediate domains
    run_cli(["bethe", "--n", "4", "--p", "0.05"], capsys)


@pytest.mark.parametrize("n", range(9, 15))
def test_bethe_certifies_at_larger_n(n):
    # RuntimeWarnings are errors in the suite, so an overflow anywhere on the
    # continuation path fails here too; p = 0 solves the seed's own system
    for ell in (math.pi, 2.0):
        for p in (0.0, 0.05, 0.12, 0.19, 0.25):
            st = solve_bethe(n, EllipticDomain.from_nome(ell, p))
            assert st.bethe_residual <= 1e-10 and st.xi_residual <= 1e-10, (ell, p)
            assert st.ode_residual <= 1e-8 and st.energy_spread <= 1e-8, (ell, p)


def solve_bethe_warnings_as_errors(n, dom):
    # cli.main ignores numpy floating-point warnings while a subcommand runs, so
    # the library solve is repeated here with every RuntimeWarning an error
    with warnings.catch_warnings(), np.errstate(divide="warn", over="warn", invalid="warn"):
        warnings.simplefilter("error")
        return solve_bethe(n, dom)


def test_bethe_n11_runs_clean_with_warnings_as_errors():
    st = solve_bethe_warnings_as_errors(11, EllipticDomain.from_nome(math.pi, 0.12))
    assert st.bethe_residual <= 1e-10 and st.ode_residual <= 1e-8
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "ellipcmr", "bethe",
                           "--n", "11", "--ell", repr(math.pi), "--p", "0.12"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["pass"] is True


def old_wronskian(state, dom):
    """|W(psi(x), psi(-x))| / |psi(x) psi(-x)| at x0 from the field values."""
    f = hermite_psi_field(state.roots, state.xi, dom)
    fm = hermite_psi_field(state.roots, state.xi, dom, reflect=True)
    xv = np.array([dom.ell * (0.29 + 0.13j)])
    jf, jm = f(xv), fm(xv)
    wron = jf.value * jm.d1[0] - jf.d1[0] * jm.value
    return abs(wron) / max(abs(jf.value * jm.value), 1e-300)


def test_bethe_wronskian_matches_the_field_form():
    for n in range(2, 7):
        (ell, p), = draws(1, salt=10 + n)
        dom = EllipticDomain.from_nome(ell, p)
        state = solve_bethe(n, dom)
        old = old_wronskian(state, dom)
        assert math.isfinite(old)
        assert abs(state.wronskian - old) <= 1e-12 * max(1.0, old)


def test_bethe_json_stays_strict_when_psi_overflows(capsys):
    # Newton leaves a root far outside the strip, so psi(x0) overflows
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    with np.errstate(all="ignore"):
        code = main(["bethe", "--n", "12", "--p", "0.19"])
    assert code == 0
    out = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert math.isfinite(out["wronskian"])


def test_bethe_n12_runs_clean_with_warnings_as_errors():
    # Newton's trial roots leave the strip by many periods; the Bethe system is
    # evaluated at their images in |Im t| <= delta, so no product overflows
    st = solve_bethe_warnings_as_errors(12, EllipticDomain.from_nome(math.pi, 0.19))
    assert abs(st.energy - (-421.36950987654)) <= 1e-9
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "ellipcmr", "bethe",
                           "--n", "12", "--p", "0.19"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    out = json.loads(proc.stdout)
    assert abs(complex(*out["energy"]) - (-421.36950987654)) <= 1e-9
