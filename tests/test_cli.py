import json
import math
import subprocess
import sys

import numpy as np
import pytest

from ellipcmr.cli import build_parser, main


def run_cli(args, tmp_path=None):
    """Invoke the CLI in-process, capturing the output file or stdout."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


class TestEval:
    def test_wp1_trig_closed_form(self):
        code, out = run_cli(["eval", "--fn", "wp1", "--p", "0", "--ell", "3.14159",
                             "--grid", "8", "--format", "json"])
        assert code == 0
        d = json.loads(out)
        ell = 3.14159
        for x_re, x_im, f_re, f_im in d["rows"]:
            c = math.pi / (2 * ell)
            expect = c * c / math.sin(c * x_re) ** 2
            assert abs(f_re - expect) <= 1e-12 * expect
            assert f_im == 0.0

    def test_delta_flag_equivalent_to_nome(self):
        import math as m
        delta = -2.0 * m.log(0.1) / (2 * m.pi)   # ell = 2 => p = 0.1
        _, by_p = run_cli(["eval", "--fn", "theta1", "--ell", "2", "--p", "0.1",
                           "--grid", "4"])
        _, by_delta = run_cli(["eval", "--fn", "theta1", "--ell", "2", "--delta",
                               f"{delta:.17g}", "--grid", "4"])
        # exp/log round-trip costs one ulp in p, so rows agree to ~1e-15, not bitwise
        for ra, rb in zip(json.loads(by_p)["rows"], json.loads(by_delta)["rows"]):
            assert all(abs(a - b) <= 1e-13 * max(1.0, abs(a)) for a, b in zip(ra, rb))

    def test_theta_grid_row_count(self):
        code, out = run_cli(["eval", "--fn", "theta", "--p", "0.1", "--grid", "32"])
        assert code == 0
        d = json.loads(out)
        assert d["schema"] == 1
        assert len(d["rows"]) == 32
        assert all(len(r) == 4 for r in d["rows"])

    @pytest.mark.parametrize("fn", ["theta1", "zeta1", "wp1", "theta", "gamma", "W"])
    def test_every_function_evaluates(self, fn):
        code, out = run_cli(["eval", "--fn", fn, "--p", "0.1", "--grid", "6"])
        d = json.loads(out)
        assert code == 0 and len(d["rows"]) == 6
        assert all(all(isinstance(v, (int, float)) for v in r) for r in d["rows"])

    def test_csv_header(self, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _ = run_cli(["eval", "--fn", "theta1", "--p", "0.1", "--grid", "4",
                           "--format", "csv", "--output", str(out_path)])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "x_re,x_im,f_re,f_im"
        assert len(lines) == 5

    def test_json_round_trip_bit_exact(self):
        args = ["eval", "--fn", "wp1", "--p", "0.1", "--grid", "16"]
        _, out1 = run_cli(args)
        _, out2 = run_cli(args)
        assert out1 == out2           # byte-identical reruns
        d = json.loads(out1)
        # re-serialize the parsed values: 17g formatting round-trips doubles
        assert json.dumps(json.loads(out1), sort_keys=True, indent=2) + "\n" == out1
        from ellipcmr.domain import EllipticDomain
        from ellipcmr.theta import wp1
        dom = EllipticDomain.from_nome(math.pi, 0.1)
        for x_re, x_im, f_re, f_im in d["rows"]:
            assert complex(f_re, f_im) == complex(wp1(x_re + 1j * x_im, dom))


class TestVerify:
    @pytest.mark.parametrize("suite", ["heat", "quasi-periodicity", "kernel-identity",
                                       "duality", "calogero-trick",
                                       "nonstationary-theta-power"])
    def test_suites_pass(self, suite):
        code, out = run_cli(["verify", "--suite", suite, "--p", "0.1"])
        d = json.loads(out)
        assert code == 0 and d["pass"] is True
        assert d["max_residual"] <= d["tol"]

    def test_kernel_identity_2_1(self):
        code, out = run_cli(["verify", "--suite", "kernel-identity", "--p", "0.1",
                             "--N", "2", "--M", "1"])
        assert code == 0 and json.loads(out)["pass"] is True

    def test_calogero_trick_at_g_zero(self):
        # g = 0 without tilde families is valid: no -1/g mass is formed
        code, out = run_cli(["verify", "--suite", "calogero-trick", "--g", "0", "--p", "0.1"])
        assert code == 0 and json.loads(out)["pass"] is True

    @pytest.mark.parametrize("argv", [
        ["--suite", "kernel-identity"],
        ["--suite", "kernel-identity", "--N", "3", "--M", "1"],
        ["--suite", "nonstationary-theta-power"],
    ])
    def test_batched_suite_makes_one_potential_call(self, argv, monkeypatch):
        # every configuration of the suite in one library call: one wp1 call in all
        import ellipcmr.operators as operators
        calls = []
        wp1 = operators.wp1
        monkeypatch.setattr(operators, "wp1", lambda *a, **kw: calls.append(a) or wp1(*a, **kw))
        code, out = run_cli(["verify", "--p", "0.1"] + argv)
        assert code == 0 and json.loads(out)["pass"] is True
        assert len(calls) == 1

    def test_unknown_suite_no_partial_output(self, tmp_path):
        out_path = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus", "--p", "0.1", "--output", str(out_path)])
        assert exc.value.code != 0
        assert not out_path.exists()


class TestTypedErrors:
    @pytest.mark.parametrize("argv", [
        # the suite shifts by i delta, infinite at p = 0
        ["verify", "--suite", "calogero-trick", "--ell", "1.8978743565450806", "--p", "0.0"],
        ["perturb", "--s", "0.3,-0.2", "--gamma", "2", "--K", "-1"],
        ["perturb", "--s", "0.3,-0.2", "--gamma", "2", "--K", "2", "--n-cap", "-1"],
        ["perturb", "--s", "nan,0", "--gamma", "2", "--K", "3"],
        ["perturb", "--s", "0.3,-0.2", "--gamma", "inf", "--K", "3"],
        ["perturb", "--s", "0.3,-0.2", "--gamma", "2", "--K", "3", "--variant", "II",
         "--kappa", "nan,1"],
        # non-finite real options; --delta inf is valid (p = 0)
        ["eval", "--fn", "W", "--p", "0.1", "--grid", "2", "--g", "nan"],
        ["eval", "--fn", "gamma", "--p", "0.1", "--grid", "2", "--q", "inf"],
        ["eval", "--fn", "gamma", "--p", "0.1", "--grid", "2", "--t", "nan"],
        ["eval", "--fn", "theta1", "--p", "0.1", "--grid", "2", "--x-min", "nan"],
        ["eval", "--fn", "theta1", "--p", "0.1", "--grid", "2", "--x-max=-inf"],
        ["eval", "--fn", "theta1", "--p", "0.1", "--grid", "2", "--x-imag", "inf"],
        ["eval", "--fn", "theta1", "--p", "0", "--grid", "2", "--ell", "inf"],
        ["verify", "--suite", "kernel-identity", "--p", "0.1", "--g", "nan"],
        ["bethe", "--n", "2", "--delta", "inf", "--ell", "inf"],
        ["transform", "--lambda", "1,0", "--p", "0.05", "--g", "inf"],
        # finite ell whose ell^2 or (pi/ell)^2 leaves the float range
        ["verify", "--suite", "heat", "--ell", "1e-300", "--p", "0.1"],
        ["verify", "--suite", "kernel-identity", "--ell", "1e300", "--p", "0.1"],
        # exp(pi |x_imag|/ell) overflows; values leave the float range on the grid
        ["eval", "--fn", "theta1", "--p", "0", "--x-imag", "1e308", "--grid", "2"],
        ["eval", "--fn", "gamma", "--p", "0.1", "--x-imag", "300", "--grid", "2"],
        ["eval", "--fn", "theta", "--p", "0.1", "--x-imag", "250", "--grid", "2"],
        # the nome series leaves the float range: the nu-sum, or Eps_0 = (s1^2 + s2^2)/2
        ["perturb", "--s=0.3,0", "--gamma=1e300", "--K", "4"],
        ["perturb", "--s=1e300,0", "--gamma=1", "--K", "2"],
        # a payload value leaves the float range
        ["verify", "--suite", "duality", "--p", "0.1", "--g", "1e-320"],
        ["verify", "--suite", "nonstationary-theta-power", "--p", "0.1", "--g", "1e300"],
        ["transform", "--lambda", "1,0", "--p", "1e-300", "--g", "1"],
        # exp(-2 pi delta/ell) divides by ell
        ["eval", "--fn", "theta", "--grid", "2", "--ell", "0", "--delta", "0.5"],
        # lam2 < 0: every xi2^{lam2} moment vanishes at p = 0, so P would be 0
        ["transform", "--lambda", "2,-1", "--g", "1", "--p", "0", "--K", "4", "--nodes", "64"],
    ])
    def test_domain_error_exit_2_no_output(self, argv, capsys):
        code, out = run_cli(argv)
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error [domain]")

    def test_csv_values_out_of_float_range(self, capsys):
        # the CSV renderer checks the rows as the JSON renderer checks the payload
        code, out = run_cli(["eval", "--fn", "theta", "--p", "0.1", "--x-imag", "250",
                             "--grid", "2", "--format", "csv"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "error [domain]: a result leaves the float range\n"

    @pytest.mark.parametrize("argv", [
        ["eval", "--fn", "theta1", "--p", "0.999"],
        ["verify", "--suite", "heat", "--p", "0.999"],
        ["bethe", "--n", "2", "--p", "0.999"],
        ["transform", "--lambda", "1,0", "--p", "0.999"],
        # |z| = e^{40 pi/ell} grows the certified tail past the term cap
        ["eval", "--fn", "theta1", "--p", "0.9", "--x-imag", "40"],
    ])
    def test_tail_bound_exit_2_no_output(self, argv, capsys):
        code, out = run_cli(argv)
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error [tail-bound]")

    @pytest.mark.parametrize("argv", [
        ["eval", "--fn", "wp1", "--p", "0.1", "--delta", "0.5"],
        ["eval", "--fn", "wp1"],
        ["bethe", "--n", "2", "--delta", "0.5", "--p", "0.1"],
        ["eval", "--fn", "wp1", "--p", "0.1", "--grid", "0"],
        ["eval", "--fn", "wp1", "--p", "0.1", "--grid", "-3"],
        ["transform", "--lambda", "1", "--p", "0.05"],
        ["transform", "--lambda", "1,0", "2", "--p", "0.05"],
        ["perturb", "--s", "0.3", "--gamma", "2"],
        ["perturb", "--s", "0.3,-0.2", "--gamma", "2", "--variant", "II", "--kappa", "1,2,3"],
        ["verify", "--suite", "heat", "--p", "0.1", "--tol", "nan"],
        ["verify", "--suite", "heat", "--p", "0.1", "--tol", "inf"],
        ["verify", "--suite", "heat", "--p", "0.1", "--tol", "0"],
        ["verify", "--suite", "heat", "--p", "0.1", "--tol=-1e-8"],
    ])
    def test_usage_error_exit_2_no_output(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "error: argument" in captured.err or "is required" in captured.err


    @pytest.mark.parametrize("argv, message", [
        (["eval", "--fn", "wp1", "--p", "0.1", "--grid", "abc"], "invalid int value: 'abc'"),
        (["verify", "--suite", "heat", "--p", "0.1", "--tol", "x"], "invalid float value: 'x'"),
        (["perturb", "--s", "a,b", "--gamma", "2"], "invalid float pair value: 'a,b'"),
        (["transform", "--lambda", "1,x", "--p", "0.05"], "invalid int pair value: '1,x'"),
    ])
    def test_usage_error_names_the_option_type(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == "" and message in captured.err

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "heat", "--p", "0.1", "--format", "csv"],
        ["bethe", "--n", "2", "--p", "0.05", "--format", "csv"],
        ["perturb", "--s", "0.3,-0.2", "--gamma", "2", "--format", "json"],
        ["transform", "--lambda", "1,0", "--p", "0.05", "--format", "csv"],
    ])
    def test_format_is_eval_only(self, argv, capsys):
        # only eval writes csv; elsewhere --format would be accepted and ignored
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "unrecognized arguments: --format" in captured.err

    @pytest.mark.parametrize("option", [["--p", "0.1"], ["--delta", "0.5"], ["--ell", "2"]])
    def test_perturb_takes_no_domain(self, option, capsys):
        # perturb solves in the nome-series ring: a nome or period would be ignored
        with pytest.raises(SystemExit) as exc:
            main(["perturb", "--s", "0.3,-0.2", "--gamma", "2"] + option)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "unrecognized arguments" in captured.err


# option -> (valid values, boundary and invalid values) for the argv sweep; sizes stay
# small (grid <= 8, n <= 3, K <= 4, 64 nodes) so that the sweep runs in about a second
SWEEP_SEED = 20241018
REAL = (["0.3", "1", "1.7"], ["0", "-0.5", "1e-320", "1e300", "nan", "inf", "-inf"])
SWEEP_DOMAIN = {
    "--ell": (["3.141592653589793", "2", "1.3"],
              ["0", "-1", "1e-4", "1e4", "1e-300", "1e300", "nan", "inf"]),
    "--p": (["0.05", "0.1", "0.2"],
            ["0", "1e-300", "0.9", "0.999", "0.999999", "1", "-0.1", "nan", "inf"]),
    "--delta": (["0.5", "2"], ["inf", "0", "-1", "1e-300", "nan"]),
}
SWEEP_OPTIONS = {
    "eval": {"--fn": (["theta1", "zeta1", "wp1", "theta", "gamma", "W"], []),
             "--grid": (["1", "4", "8"], ["0", "-1"]), "--format": (["json", "csv"], []),
             "--x-min": (["0", "0.3"], REAL[1]), "--x-imag": (["0", "0.2"], REAL[1] + ["250"]),
             "--g": REAL, "--q": (["0.1", "0.5"], REAL[1]), "--t": (["0.3", "1"], REAL[1])},
    "verify": {"--suite": (["heat", "quasi-periodicity", "kernel-identity", "duality",
                            "calogero-trick", "nonstationary-theta-power"], []),
               "--tol": (["1e-8", "1e-6"], ["1e-300", "1e300", "0", "nan"]), "--g": REAL,
               "--N": (["1", "2"], ["0", "-1", "3", "5"]), "--M": (["1", "2"], ["0", "-1", "3", "5"])},
    "bethe": {"--n": (["1", "2", "3"], ["0", "-1"])},
    "perturb": {"--s": (["0.3,-0.2", "2,-1"], ["1,0", "0,0", "1e300,0", "nan,0", "0,inf"]),
                "--gamma": REAL, "--K": (["0", "2", "4"], ["-1"]), "--n-cap": (["0", "3"], ["-1"]),
                "--variant": (["I", "II"], []),
                "--kappa": (["0,0.5", "1,0.5"], ["0,0", "1,0", "nan,1", "0,1e300"])},
    "transform": {"--lambda": (["1,0", "2,1", "0,0"], ["0,1", "-1,0", "2,-1"]), "--g": REAL,
                  "--K": (["0", "2", "4"], ["-1"]), "--n-cap": (["0", "3"], ["-1"]),
                  "--nodes": (["64"], ["100", "0", "-64"])},
}


def sweep_argvs(rounds):
    """rounds argvs per subcommand; each option leaves its valid values one time in five."""
    rng = np.random.default_rng(SWEEP_SEED)

    def draw(valid, other):
        return str(rng.choice(other if other and rng.random() < 0.2 else valid))

    argvs = []
    for _ in range(rounds):
        for command, options in SWEEP_OPTIONS.items():
            argv = [command] + [f"{opt}={draw(*pools)}" for opt, pools in options.items()]
            if command != "perturb":                  # perturb takes no domain
                if rng.random() < 0.5:
                    argv.append(f"--ell={draw(*SWEEP_DOMAIN['--ell'])}")
                nome = "--p" if rng.random() < 0.8 else "--delta"
                argv.append(f"{nome}={draw(*SWEEP_DOMAIN[nome])}")
            argvs.append(argv)
    return argvs


class TestArgvSweep:
    @pytest.mark.filterwarnings("error")
    def test_every_argv_is_accepted_or_rejected_cleanly(self, capsys):
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        codes = set()
        for argv in sweep_argvs(40):
            try:
                code = main(argv)
            except SystemExit as exc:           # argparse usage error
                code = exc.code
            out, err = capsys.readouterr()
            codes.add(code)
            assert code in (0, 1, 2), argv
            if code == 2:
                assert out == "" and (err.startswith("error [") or "error: " in err), argv
            elif argv[0] == "eval" and "--format=csv" in argv:
                header, *rows = out.splitlines()
                assert header == "x_re,x_im,f_re,f_im", argv
                assert all(math.isfinite(float(v)) for r in rows for v in r.split(",")), argv
            else:
                json.loads(out, parse_constant=reject)
        assert codes == {0, 1, 2}


class TestArtifacts:
    def test_bethe_small_ell_converges(self):
        # the Bethe residuals scale like pi/ell: at ell = 1e-4 their rounding floor
        # (about 1e-11) lies above the default Newton tolerance 1e-12
        code, out = run_cli(["bethe", "--n", "3", "--ell", "1e-4", "--p", "0.1"])
        certs = json.loads(out)["certificates"]
        assert certs["bethe_residual"]["value"] <= 1e-10
        assert certs["bethe_residual"]["pass"] and certs["xi_residual"]["pass"]
        # ode_residual and energy_spread are absolute, on energies of size (pi/ell)^2
        # ~ 1e9: they sit at the rounding floor, above their absolute tol 1e-8
        scale = (math.pi / 1e-4) ** 2
        assert certs["ode_residual"]["value"] <= 1e-12 * scale
        assert certs["energy_spread"]["value"] <= 1e-12 * scale
        assert code == 1

    def test_bethe_certificates(self, tmp_path):
        out_path = tmp_path / "bethe.json"
        code, _ = run_cli(["bethe", "--n", "2", "--p", "0.05", "--output", str(out_path)])
        assert code == 0
        d = json.loads(out_path.read_text())
        for name in ("bethe_residual", "ode_residual", "xi_residual", "energy_spread"):
            assert d["certificates"][name]["pass"] is True
        assert len(d["roots"]) == 2 and d["pass"] is True

    def test_perturb_support_invariant_on_reload(self, tmp_path):
        out_path = tmp_path / "table.json"
        code, _ = run_cli(["perturb", "--s", "0.3,-0.2", "--gamma", "2", "--K", "6",
                           "--variant", "I", "--output", str(out_path)])
        assert code == 0
        d = json.loads(out_path.read_text())
        assert d["pass"] is True and d["schema"] == 1
        for n, k, re, im in d["entries"]:
            assert n >= -k
        from ellipcmr.pseries import PSeriesTable, apply_L_series
        t = PSeriesTable.from_dict(d)
        scale = max(abs(complex(v)) for v in t.a.values())
        assert apply_L_series(t).max_abs() / scale <= 1e-10

    def test_transform_node_delta(self):
        code, out = run_cli(["transform", "--lambda", "1,0", "--p", "0.05", "--g", "1"])
        assert code == 0
        d = json.loads(out)
        assert d["node_delta"] <= 1e-10
        assert d["lambda"] == [1, 0] and d["pass"] is True

    def test_transform_multi_lambda(self):
        code, out = run_cli(["transform", "--lambda", "1,0", "1,1", "--p", "0.05",
                             "--g", "1", "--K", "3"])
        assert code == 0
        d = json.loads(out)
        assert [r["lambda"] for r in d["results"]] == [[1, 0], [1, 1]]

    def test_determinism_across_runs(self):
        args = ["bethe", "--n", "2", "--p", "0.05"]
        _, a = run_cli(args)
        _, b = run_cli(args)
        assert a == b


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "ellipcmr", "verify",
                               "--suite", "heat", "--p", "0.1"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["pass"] is True

    def test_domain_flag_validation(self):
        with pytest.raises(SystemExit):
            main(["eval", "--fn", "wp1", "--grid", "4"])      # neither --p nor --delta
        with pytest.raises(SystemExit):
            main(["eval", "--fn", "wp1", "--p", "0.1", "--delta", "0.5", "--grid", "4"])

    # one argv per outcome: certificate passed, usage error, DomainError, --version, bethe
    PARSER_SEQUENCE = [
        ["verify", "--suite", "heat", "--p", "0.1"],
        ["verify", "--suite", "bogus", "--p", "0.1"],
        ["verify", "--suite", "calogero-trick", "--p", "0"],
        ["--version"],
        ["bethe", "--n", "2", "--p", "0.05"],
    ]

    def test_one_parser_writes_what_fresh_processes_write(self, capsys, monkeypatch):
        # main reuses one parser per process; every call of a sequence must write the
        # bytes and exit code of a fresh interpreter given the same argv
        monkeypatch.setenv("COLUMNS", "80")     # argparse wraps its usage text to the terminal
        parser = build_parser()
        for argv in self.PARSER_SEQUENCE:
            try:
                code = main(argv)
            except SystemExit as exc:           # usage error or --version
                code = exc.code
            out, err = capsys.readouterr()
            proc = subprocess.run([sys.executable, "-m", "ellipcmr", *argv],
                                  capture_output=True, text=True)
            assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
        assert build_parser() is parser
