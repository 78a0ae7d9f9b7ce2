"""Certified time-to-solution benchmark for ellipcmr.

    python3 perfbench/run.py --workload {contour,scalar,series} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the library is imported from ./src.  One
process, one closed-loop client: each op starts when the previous one has
returned, and ELLIPCMR_THREADS is removed from the environment so the
transform pool has one worker.

Workloads (see workloads.py for the draws):
  contour  CLI ``transform`` plus ``eigen_residuals_P_lambda``; kinds are node
           counts 64/128/256.  theta and transform on node-by-node arrays do
           almost all the work; bethe and the series oracle are absent.
  scalar   CLI ``bethe`` (one kind per n = 2..6), all six ``verify`` suites and
           ``eval`` grids: thousands of one-point kernel calls, no contour and
           no recursion.
  series   CLI ``perturb`` (Variant I and II, kinds K = 6/10/12) plus exact
           ``Fraction`` solves: the recursion fill and its L-series oracle.

An op fails if it raises, exits nonzero, reports a certificate over its
tolerance, or misses one of the benchmark's own checks; failed ops are left
out of every timing.  A run is one pass that realizes the reference problem
set: each kind draws seeded ops until it has its target of certified ones.
The work is fixed by the seed, not by the clock, so sample counts and tail
percentiles do not change when the code gets faster; the pass is sized to
take about --seconds, and an overrun is reported on stderr.  A kind that ends
without a certified op makes the run incorrect.

--trace 0 prints the end-to-end metrics.  --trace 1 replays the set once
untraced and once traced, prints the per-layer metrics and the tracing
overhead of the traced replay over the untraced one, and requires both
replays to reproduce the first pass byte for byte.  The last line of stdout
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter, defaultdict

SETUP_REPEATS = 11
OUT_DIR = ".perfbench_out"
LAYERS = ("cli", "domain", "theta", "gamma", "fields", "operators", "kernels",
          "bethe", "pseries", "transform", "bench")
GATED = ("setup_s", "solve_s", "solve_tail_s", "certified_frac", "peak_rss_mb",
         "cert_margin_log10")
SETUP_CODE = ("import time; t0 = time.perf_counter(); import ellipcmr.cli as c; "
              "c.build_parser(); print(repr(time.perf_counter() - t0))")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("contour", "scalar", "series"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ------------------------------------------------------------------ environment

def git_commit(root: str) -> str:
    """HEAD of a git checkout at root, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(root, ".git", ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cache_sizes() -> dict:
    """Cache sizes of CPU 0 by level and type, as the kernel reports them."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            fields = {}
            for name in ("level", "type", "size"):
                with open(os.path.join(base, entry, name)) as fh:
                    fields[name] = fh.read().strip()
            out[f"L{fields['level']} {fields['type']}"] = fields["size"]
    except OSError:
        return {"unknown": None}
    return out


def environment(args, root: str, threads_env) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unavailable"
    thread_vars = {k: v for k, v in os.environ.items()
                   if "THREAD" in k or k.startswith(("OMP_", "MKL_", "OPENBLAS_", "BLIS_"))}
    thread_vars["ELLIPCMR_THREADS (removed for the run)"] = threads_env
    return {"nproc": os.cpu_count(), "cpu": cpu_model(), "caches": cache_sizes(),
            "python": sys.version.split()[0], "numpy": np.__version__, "blas": blas,
            "thread_env": thread_vars, "git_commit": git_commit(root),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


# ------------------------------------------------------------------ set-up

class Setup:
    """Cold import of ellipcmr plus building the CLI parser, in fresh processes.

    SETUP_REPEATS samples are taken between ops, one falling due every
    seconds / SETUP_REPEATS, so their median sees the machine over the whole
    run, not over the few seconds before it; samples still missing when the
    pass ends are taken then.  A first, unreported run fills the bytecode cache.
    """

    def __init__(self, src: str, seconds: float):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.interval = seconds / SETUP_REPEATS
        self.times = []
        self._sample()
        self.start = time.perf_counter()

    def _sample(self) -> float:
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=self.env,
                              capture_output=True, text=True, timeout=120, check=True)
        return float(done.stdout.strip().splitlines()[-1])

    def tick(self) -> None:
        due = (time.perf_counter() - self.start) >= len(self.times) * self.interval
        if due and len(self.times) < SETUP_REPEATS:
            self.times.append(self._sample())

    def finish(self) -> list:
        while len(self.times) < SETUP_REPEATS:
            self.times.append(self._sample())
        return self.times


# ------------------------------------------------------------------ passes

class Record:
    """The realized reference set with its first-pass outcomes and times."""

    def __init__(self):
        self.ops = []                            # in run order
        self.outcomes = []
        self.digests = []
        self.first_times = []
        self.mismatch = {}                       # op index -> check message
        self.nondeterministic = set()            # op indices a replay changed

    def certified(self, i) -> bool:
        return self.failure(i) is None

    def failure(self, i):
        """Why op i failed: nondeterministic, an error code, cert or check; None if certified."""
        if i in self.nondeterministic:
            return "nondeterministic"
        if self.outcomes[i].error is not None:
            return self.outcomes[i].error
        return "check" if i in self.mismatch else None

    def failed(self) -> int:
        return sum(not self.certified(i) for i in range(len(self.ops)))


def run_op(op, tracer=None):
    """Time one op; a raised exception is the op's outcome, not a crash.

    Warnings are recorded per op, as a fresh CLI process would show them (once
    per source line), and join the op's output without their file paths.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        if tracer:
            root = tracer.begin(tracer.intern("bench.op"), "bench")
            tracer.recording = True
        t0 = time.perf_counter()
        try:
            raw = op.call()
        except Exception as exc:
            raw = exc
        dt = time.perf_counter() - t0
        if tracer:
            tracer.recording = False
            tracer.end(root)
    if isinstance(raw, Exception):
        from workloads import Outcome, error_code

        code = error_code(raw)
        oc = Outcome(output=f"{code}: {raw}".encode(), error=code)
    else:
        oc = op.finish(raw)
    oc.output += "".join(f"{w.category.__name__}: {w.message}\n" for w in caught).encode()
    return dt, oc


def first_pass(rec: Record, kinds, between=None) -> None:
    """Draw and run ops round-robin over the kinds until each is satisfied."""
    while any(k.active() for k in kinds):
        for kind in kinds:
            if not kind.active():
                continue
            op = kind.next_op()
            dt, oc = run_op(op)
            i = len(rec.ops)
            rec.ops.append(op)
            rec.outcomes.append(oc)
            rec.digests.append(hashlib.sha256(oc.output).hexdigest())
            rec.first_times.append(dt)
            if oc.error is None and op.check is not None:
                msg = op.check(oc)
                if msg is not None:
                    rec.mismatch[i] = msg
            kind.settle(op, rec.certified(i))
            if between:
                between()


def replay(rec: Record, tracer=None) -> list:
    """Run the realized set again; outputs must repeat byte for byte."""
    times = []
    for i, op in enumerate(rec.ops):
        dt, oc = run_op(op, tracer)
        times.append(dt)
        if hashlib.sha256(oc.output).hexdigest() != rec.digests[i]:
            rec.nondeterministic.add(i)
    return times


def workload_digest(rec: Record) -> str:
    h = hashlib.sha256()
    for i, d in enumerate(rec.digests):
        h.update(f"{i}\t{rec.ops[i].kind}\t{d}\n".encode())
    return h.hexdigest()


# ------------------------------------------------------------------ metrics

def tail(values):
    """Highest nearest-rank percentile with at least ten samples beyond it.

    With fewer than 20 samples no percentile above the median has ten samples
    beyond it, and the median is reported.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return 50.0, statistics.median(xs)
    return 100.0 * (n - 10) / n, xs[n - 11]


def kind_table(rec: Record):
    kinds = dict.fromkeys(op.kind for op in rec.ops)      # in the workload's kind order
    rows = []
    for kind in kinds:
        idx = [i for i, op in enumerate(rec.ops) if op.kind == kind]
        fails = Counter(rec.failure(i) for i in idx if not rec.certified(i))
        samples = [rec.first_times[i] for i in idx if rec.certified(i)]
        row = {"kind": kind, "attempts": len(idx),
               "pass_s": sum(rec.first_times[i] for i in idx),
               "certified": len(samples), "failures": dict(sorted(fails.items()))}
        if samples:
            row["median_s"] = statistics.median(samples)
            row["tail_pct"], row["tail_s"] = tail(samples)
        rows.append(row)
    return rows


def cert_margins(rec: Record):
    """Certificate headroom in digits, log10(tol / value), over certified ops.

    Returns the gated figure (for each certificate name the median headroom
    over the ops that report it, then the lowest of these medians, with its
    name) and the single worst certificate.  The single worst hangs on the one
    extreme draw a seed happens to make (a Newton residual anywhere below its
    stopping tolerance, a node_delta at the top of the p range), so it is
    reported but too unsteady across seeds to gate on.
    """
    by_name = defaultdict(list)
    worst = (math.inf, "none")
    for i, oc in enumerate(rec.outcomes):
        if not rec.certified(i):
            continue
        for name, value, tol in oc.certs:
            margin = math.log10(tol / value) if value > 0 else math.inf
            by_name[name].append(margin)
            worst = min(worst, (margin, f"{rec.ops[i].kind} {name}={value:.3g} tol={tol:.0e}"))
    medians = {name: statistics.median(v) for name, v in by_name.items()}
    name = min(medians, key=medians.get)
    return medians[name], name, worst


def print_table(rows):
    print(f"{'kind':<34}{'attempts':>9}{'pass_s':>8}{'certified':>10}"
          f"{'median_s':>11}{'tail':>6}{'tail_s':>11}  failures")
    for r in rows:
        fails = " ".join(f"{k}={v}" for k, v in r["failures"].items()) or "-"
        med = f"{r['median_s']:.5f}" if "median_s" in r else "n/a"
        tl = f"p{r['tail_pct']:.0f}" if "tail_pct" in r else "-"
        ts = f"{r['tail_s']:.5f}" if "tail_s" in r else "n/a"
        print(f"{r['kind']:<34}{r['attempts']:>9}{r['pass_s']:>8.2f}{r['certified']:>10}"
              f"{med:>11}{tl:>6}{ts:>11}  {fails}")


def metric_line(name, value, unit, note=""):
    print(f"{name:<24} {value:>14.6g} {unit:<15}{note}")


def metric_units(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_frac", "ratio"), ("_ratio", "ratio"),
                         ("_bytes", "bytes_computed")):
        if name.endswith(suffix):
            return unit
    return "count"


def traced_metrics(rec: Record, package, spans_path: str) -> dict:
    """Replay the realized set untraced, then traced; per-layer metrics and overhead.

    Both replays run warm, after the first pass, so the overhead compares like
    with like.
    """
    from tracer import Tracer

    untraced = sum(replay(rec))
    tracer = Tracer()
    tracer.install(package)
    try:
        traced = sum(replay(rec, tracer))
    finally:
        tracer.uninstall()
    lm = tracer.layer_metrics(LAYERS)
    lm["trace.overhead_frac"] = (traced - untraced) / untraced
    tracer.dump(spans_path)
    print(f"\nper-layer metrics (traced replay of {len(rec.ops)} ops; untraced replay "
          f"{untraced:.4f} s, traced {traced:.4f} s; spans in {spans_path})")
    for name in sorted(lm):
        metric_line(name, lm[name], metric_units(name))
    self_sum = sum(lm[f"{lay}.self_s"] for lay in LAYERS)
    print(f"layer self times sum to {self_sum:.6f} s; traced op time {lm['trace.ops_s']:.6f} s")
    return {name: {"value": v, "unit": metric_units(name)} for name, v in lm.items()}


def end_to_end_metrics(rec: Record, rows, setup) -> dict:
    timed = [r for r in rows if "median_s" in r]
    solve_s = sum(r["median_s"] for r in timed)
    failed = rec.failed()
    fail_frac = failed / len(rec.ops)
    margin, margin_name, worst = cert_margins(rec)
    values = {
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} cold imports + parser builds "
                    "spread over the run"),
        "solve_s": (solve_s, "s", f"sum over {len(timed)} of {len(rows)} kinds of the median; "
                                  f"throughput {1.0 / solve_s:.4g} sets/s"),
        "solve_tail_s": (sum(r["tail_s"] for r in timed), "s",
                         "sum over kinds at the tail percentile in the table (the median "
                         "for kinds under 20 certified ops)"),
        "fail_frac": (fail_frac, "ratio", f"{failed} of {len(rec.ops)} ops"),
        "certified_frac": (1.0 - fail_frac, "ratio", "1 - fail_frac (gated)"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "peak resident set of the benchmark process"),
        "cert_margin_log10": (margin, "digits", f"lowest per-certificate median: {margin_name}"),
        "cert_margin_min_log10": (worst[0], "digits", f"single worst op: {worst[1]}"),
    }
    print()
    for name, (value, unit, note) in values.items():
        metric_line(name, value, unit, note)
    return {name: {"value": values[name][0], "unit": values[name][1]} for name in GATED}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ellipcmr", "__init__.py")):
        sys.stderr.write("perfbench: no ellipcmr sources under ./src; run from the repo root\n")
        return 2
    threads_env = os.environ.pop("ELLIPCMR_THREADS", None)

    sys.path.insert(0, src)
    import ellipcmr
    import workloads

    env = environment(args, root, threads_env)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    rec = Record()
    setup = None if args.trace else Setup(src, args.seconds)
    start = time.perf_counter()
    first_pass(rec, workloads.kinds(args.workload, args.seed), setup and setup.tick)
    pass_s = time.perf_counter() - start
    if pass_s > args.seconds:
        sys.stderr.write(f"perfbench: the pass took {pass_s:.1f} s, over --seconds {args.seconds:g}\n")
    if args.trace:
        metrics = traced_metrics(rec, ellipcmr, stem + "-spans.npz")
    else:
        setup = setup.finish()

    rows = kind_table(rec)
    print(f"\nper-kind results (one pass of {pass_s:.2f} s with any set-up samples; times "
          f"are first-pass wall times of certified ops)")
    print_table(rows)
    for i, msg in sorted(rec.mismatch.items()):
        print(f"check failed: {rec.ops[i].label}: {msg}")
    uncertified = [r["kind"] for r in rows if r["certified"] == 0]
    for kind in uncertified:
        print(f"no certified op: {kind}")
    digest = workload_digest(rec)
    print(f"output digest sha256:{digest} ({len(rec.ops)} ops, seed {args.seed})")
    for i in sorted(rec.nondeterministic):
        print(f"nondeterministic: {rec.ops[i].label}: output changed on repeat")
    if not args.trace:
        metrics = end_to_end_metrics(rec, rows, setup)

    with open(stem + ".json", "w") as fh:
        json.dump({"env": env, "kinds": rows, "digest": digest, "pass_s": pass_s,
                   "setup_runs_s": setup or [], "metrics": metrics,
                   "ops": [{"kind": op.kind, "label": op.label, "failure": rec.failure(i),
                            "check": rec.mismatch.get(i), "first_s": t, "certs": oc.certs}
                           for i, (op, oc, t) in enumerate(zip(rec.ops, rec.outcomes,
                                                               rec.first_times))]},
                  fh, indent=1)
    correct = not rec.mismatch and not rec.nondeterministic and not uncertified
    print(json.dumps({"correct": correct, "attempted": len(rec.ops), "failed": rec.failed(),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
