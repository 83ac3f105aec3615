"""Rounds, passes and metrics of one benchmark run; driven by run.py."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import bcdcert.cli as cli
import cases
import checks
import tracing
from bcdcert.solver import solve
from bcdcert.traceio import read_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_ROUNDS = 3
SETUP_PROBES = 7
IMPORT_PROBES = 5
CHILD_TIMEOUT_S = 120.0


class Tally:
    """Operations attempted and failed; ``wrong`` marks output that passed as success but is not."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = False
        self.errors: list[str] = []

    def op(self, label: str, error: str | None, wrong: bool = False) -> bool:
        self.attempted += 1
        if error is None:
            return True
        self.failed += 1
        self.wrong = self.wrong or wrong
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {error}")
        return False

    def bench_fault(self, message: str) -> None:
        """A check of the benchmark's own (proxy transparency, count repeat) failed."""
        self.wrong = True
        if len(self.errors) < 20:
            self.errors.append(message)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, out_base: Path):
    """Run ``python -m bcdcert.cli argv``; (exit code, wall s, peak RSS MB, stdout)."""
    out, err = out_base.with_suffix(".out"), out_base.with_suffix(".err")
    with open(out, "w") as fo, open(err, "w") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "bcdcert.cli", *argv],
                                stdout=fo, stderr=fe, cwd=ROOT, env=child_env())
        # wait4 gives this child's own rusage; poll so a hung child cannot hang the run.
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - t0 > CHILD_TIMEOUT_S:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.0005)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, out.read_text()


def probe(args):
    """Spawn perfbench/probe.py with args; (its first stdout line, seconds until it came)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), *args], stdout=subprocess.PIPE,
                            cwd=ROOT, env=child_env(), text=True)
    line = proc.stdout.readline().strip()
    ready = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait(timeout=CHILD_TIMEOUT_S) != 0 or not line:
        raise RuntimeError(f"probe {args} failed")
    return line, ready


def probes(args, n):
    """n timed probes after one untimed one, which fills the byte-code and page caches."""
    probe(args)
    return [probe(args) for _ in range(n)]


def timed_solve(case, obj=None):
    """(result or None, seconds, error string or None)."""
    t0 = time.perf_counter()
    try:
        res = solve(case.obj if obj is None else obj, case.start, case.cfg)
    except Exception as exc:  # the benchmark keeps going; the failure is counted
        return None, time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
    return res, time.perf_counter() - t0, None


class Bench:
    def __init__(self, workload, seed, tiny, work: Path, tally: Tally):
        self.w = cases.build(workload, seed, tiny)
        self.tally = tally
        self.work = work
        self.run_ini = work / "run.ini"
        self.check_ini = work / "check.ini"
        self.run_ini.write_text(self.w.leg.run_ini)
        self.check_ini.write_text(self.w.leg.check_ini)
        self.keys = None  # proxied histories, the reference every other pass must equal
        self.replay_result = None
        self.trace_digest = None

    # -- in-process solves -------------------------------------------------------

    def counting_pass(self):
        """Every solve through a counting proxy: exact oracle calls, and the reference histories."""
        counts = dict.fromkeys(tracing.ORACLE_KINDS, 0)
        keys = []
        cases_ = list(self.w.solves)
        if self.w.leg.replay not in cases_:
            cases_.append(self.w.leg.replay)
        for case in cases_:
            proxy = tracing.OracleProxy(case.obj)
            res, _, err = timed_solve(case, proxy)
            ok = self.tally.op(case.label, *self.verdict(case, res, err))
            if case is self.w.leg.replay:
                self.replay_result = res if ok else None
            if case in self.w.solves:
                keys.append(checks.history_key(res) if ok else None)
                for kind in counts:
                    counts[kind] += proxy.counts[kind]
        self.keys = keys
        return counts

    def plain_pass(self):
        """Every solve on the bare objective; returns the total solve() wall time."""
        total = 0.0
        for i, case in enumerate(self.w.solves):
            res, dt, err = timed_solve(case)
            total += dt
            if self.tally.op(case.label, *self.verdict(case, res, err)):
                self.same_as_reference(i, res, "bare objective")
        return total

    @staticmethod
    def verdict(case, res, err):
        """(error, wrong): wrong when the run claimed a certificate its output does not bear out."""
        if err is not None:
            return err, False
        refusal = checks.refusal(case, res)
        if refusal is not None:
            return refusal, False
        err = checks.solve_error(case, res)
        return err, err is not None

    def same_as_reference(self, i, res, how):
        if self.keys[i] is not None and checks.history_key(res) != self.keys[i]:
            self.tally.bench_fault(f"{self.w.solves[i].label}: history through the proxy differs from the {how}")

    # -- CLI leg -----------------------------------------------------------------

    def check_trace(self, trace: Path):
        """First time: read_trace equals the replayed history bitwise. Later: same bytes."""
        digest = hashlib.sha256(trace.read_bytes()).hexdigest()
        if self.trace_digest is None:
            if self.replay_result is None:
                return "no certified replay to compare the trace with"
            err = checks.trace_matches(read_trace(str(trace)), self.replay_result.history)
            if err:
                return err
            self.trace_digest = digest
            return None
        return None if digest == self.trace_digest else "trace differs from the first round's"

    def run_outcome(self, code, prefix: Path):
        """(error, rows) for a finished `run`: exit 0, certified summary, verified trace."""
        if code != 0:
            return f"exit code {code}", None
        try:
            summary = json.loads(prefix.with_suffix(".summary.json").read_text())
        except (OSError, ValueError) as exc:
            return f"unreadable summary: {exc}", None
        if summary.get("certified") is not True:
            return "summary not certified", None
        if summary.get("stop_reason") not in self.w.leg.replay.expect_stop:
            return f"stopped with {summary.get('stop_reason')}", None
        return self.check_trace(prefix.with_suffix(".trace.csv")), summary

    @staticmethod
    def report_error(code, stdout, rows):
        if code != 0:
            return f"exit code {code}"
        if f"rows: {rows}" not in stdout.splitlines():
            return f"report does not state the {rows} rows the run wrote"
        return None

    @staticmethod
    def check_error(code, stdout):
        if code != 0:
            return f"exit code {code}"
        try:
            payload = json.loads(stdout[stdout.index("{"):])
        except ValueError:
            return "no JSON payload on standard output"
        return None if payload.get("passed") is True else "oracle checks did not pass"

    def leg_round(self):
        """The three CLI invocations as child processes; their timings, or None on failure."""
        prefix = self.work / "leg"
        t = {}
        code, t["run_s"], rss_run, _ = run_child(
            ["run", "--config", str(self.run_ini), "--out", str(prefix), "--quiet"], self.work / "run")
        fail, summary = self.run_outcome(code, prefix)
        ok = self.tally.op("cli run", fail, wrong=code == 0)
        t["time_to_cert_s"] = float(summary["wall_time"]) if summary else 0.0
        code, t["report_s"], rss_report, out = run_child(
            ["report", str(prefix.with_suffix(".trace.csv"))], self.work / "report")
        rows = summary["T"] if summary else None
        ok = self.tally.op("cli report", self.report_error(code, out, rows), wrong=code == 0) and ok
        code, t["check_s"], _, out = run_child(
            ["check", "--config", str(self.check_ini), "--points", str(self.w.leg.check_points), "--quiet"],
            self.work / "check")
        ok = self.tally.op("cli check", self.check_error(code, out), wrong=code == 0) and ok
        t["peak_rss_mb"] = max(rss_run, rss_report)
        return t if ok else None

    def leg_in_process(self):
        """The same three invocations through cli.main. Returns the run's rows and trace path."""
        prefix = self.work / "inproc"
        code, _ = _cli_main(["run", "--config", str(self.run_ini), "--out", str(prefix), "--quiet"])
        fail, summary = self.run_outcome(code, prefix)
        self.tally.op("cli.main run", fail, wrong=code == 0)
        rows = summary["T"] if summary else 0
        code, out = _cli_main(["report", str(prefix.with_suffix(".trace.csv"))])
        self.tally.op("cli.main report", self.report_error(code, out, rows), wrong=code == 0)
        code, out = _cli_main(["check", "--config", str(self.check_ini), "--points",
                               str(self.w.leg.check_points), "--quiet"])
        self.tally.op("cli.main check", self.check_error(code, out), wrong=code == 0)
        return rows, prefix.with_suffix(".trace.csv")

    # -- traced pass -----------------------------------------------------------------

    def traced_pass(self, ref_counts):
        """Solves and CLI leg under every wrapper; per-layer metrics of this pass."""
        tracer = tracing.Tracer()
        proxies, results = [], []
        with tracing.installed(tracer) as absent:
            lo = len(tracer)
            for i, case in enumerate(self.w.solves):
                proxy = tracing.OracleProxy(case.obj, tracer, distinct=True)
                with tracer.span("solver.solve"):
                    res, _, err = timed_solve(case, proxy)
                if self.tally.op(case.label, *self.verdict(case, res, err)):
                    self.same_as_reference(i, res, "traced run")
                    proxies.append(proxy)
                    results.append(res)
            solves_seg = (lo, len(tracer))
            as_vector_solves = tracer.counters.get("problem.as_vector", 0)
            lo = len(tracer)
            rows, trace = self.leg_in_process()
            cli_seg = (lo, len(tracer))
        counts = {k: sum(p.counts[k] for p in proxies) for k in tracing.ORACLE_KINDS}
        if len(results) == len(self.w.solves) and counts != ref_counts:
            self.tally.bench_fault(f"traced oracle counts {counts} differ from the counting pass {ref_counts}")
        table = tracing.SpanTable(tracer)
        m = layer_metrics(table, solves_seg, cli_seg, proxies, results, as_vector_solves, rows, trace)
        return m, tracer, absent


def _cli_main(argv):
    """(exit code, standard output) of an in-process cli.main call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _per(a, b):
    return a / b if b else 0.0


def layer_metrics(table, S, L, proxies, results, as_vector_solves, rows, trace: Path):
    iters = sum(r.iterations for r in results)
    m = {"solver.iterations": iters}
    calls = 0
    for kind in tracing.ORACLE_KINDS:
        n = sum(p.counts[kind] for p in proxies)
        calls += n
        m[f"problems.{kind}_per_iter"] = _per(n, iters)
    m["problems.distinct_call_ratio"] = _per(sum(p.distinct() for p in proxies), calls)
    oracle_spans = ["problems." + k for k in tracing.ORACLE_KINDS]
    m["problems.oracle_s"] = table.total(oracle_spans, *S)
    m["problems.lipschitz_x_us"] = 1e6 * _per(table.total(["problems.lipschitz_x"]),
                                              table.count(["problems.lipschitz_x"]))
    m["problem.as_vector_per_iter"] = _per(as_vector_solves, iters)
    xs = ["strategies." + n for n in tracing.X_STRATEGIES]
    m["strategies.x_update_self_us"] = 1e6 * _per(table.self_total(xs, *S), table.count(xs, *S))
    sy = ["strategies.stationary_y"]
    m["strategies.stationary_y_self_us"] = 1e6 * _per(table.self_total(sy, *S), table.count(sy, *S))
    m["certificate.fold_us_per_iter"] = 1e6 * _per(
        table.total(["certificate.check_step", "certificate.accumulate"], *S), iters)
    bt = ["strategies.backtracking_gradient_x"]
    steps = table.count(bt, *S)
    trials = table.children_of(bt, ["problems.value"], *S) - steps
    m["strategies.backtrack_accept_ratio"] = _per(steps, trials)
    m["solver.self_us_per_iter"] = 1e6 * _per(table.self_total(["solver.solve"], *S), iters)
    recs = [rec for r in results for rec in r.history]
    m["certificate.f_up_steps"] = sum(rec.f_after_x > rec.f_before for rec in recs)
    m["certificate.tol_only_steps"] = sum(
        rec.f_before - rec.f_after_x < rec.gx_norm_sq / (2.0 * rec.e_t) for rec in recs)
    runs = table.within("cli.run", *L)
    run_seg = runs[0] if runs else (0, 0)
    m["cli.run_solve_s"] = table.total(["solver.solve"], *run_seg)
    m["cli.run_write_s"] = table.total(["traceio.write_trace", "traceio.write_json"], *run_seg)
    m["traceio.write_us_per_row"] = 1e6 * _per(table.total(["traceio.write_trace"], *run_seg), rows)
    m["traceio.read_us_per_row"] = 1e6 * _per(table.total(["traceio.read_trace"], *L), rows)
    m["traceio.verify_us_per_row"] = 1e6 * _per(table.total(["traceio.verify_trace"], *L), rows)
    m["traceio.bytes_per_row"] = _per(trace.stat().st_size if trace.exists() else 0, rows)
    m["numerics.fd_check_s"] = table.total(["numerics.fd_check_gradients"], *L)
    m["numerics.lipschitz_probe_s"] = table.total(["numerics.probe_lipschitz_x"], *L)
    m["bench.traced_solve_s"] = table.total(["solver.solve"], *S)
    return m


def med(values):
    return statistics.median(values) if values else 0.0


def run_untraced(bench: Bench, seconds: float, tiny: bool):
    tally = bench.tally
    setups = []
    for line, ready_s in probes(["setup", bench.w.name, str(bench.w.seed)] + (["--tiny"] if tiny else []),
                                2 if tiny else SETUP_PROBES):
        if line != "ready":
            raise RuntimeError(f"setup probe printed {line!r}")
        setups.append(ready_s)
    counts = bench.counting_pass()
    samples = {k: [] for k in ("time_to_cert_s", "run_s", "report_s", "check_s", "peak_rss_mb")}
    t0 = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
        solve_s = bench.plain_pass() if bench.w.timed_solves else None
        leg = bench.leg_round()
        rounds += 1
        if leg is None:
            continue
        if solve_s is not None:
            leg["time_to_cert_s"] = solve_s
        for k in samples:
            samples[k].append(leg[k])
    metrics = {
        "setup_s": (med(setups), "s"),
        "time_to_cert_s": (med(samples["time_to_cert_s"]), "s"),
        "oracle_calls": (sum(counts.values()), "count"),
        "run_s": (med(samples["run_s"]), "s"),
        "report_s": (med(samples["report_s"]), "s"),
        "check_s": (med(samples["check_s"]), "s"),
        "peak_rss_mb": (med(samples["peak_rss_mb"]), "MB"),
    }
    return metrics, {"rounds": rounds, "samples": {k: [round(v, 4) for v in vs] for k, vs in samples.items()}}


PER_LAYER_UNITS = {
    **{f"problems.{k}_per_iter": "calls/iter" for k in
       ("value", "grad_x", "grad_y", "exact_min_x", "exact_min_y", "lipschitz_x")},
    "problems.distinct_call_ratio": "ratio",
    "problems.oracle_s": "s",
    "problems.lipschitz_x_us": "us",
    "problem.as_vector_per_iter": "calls/iter",
    "strategies.x_update_self_us": "us",
    "strategies.stationary_y_self_us": "us",
    "certificate.fold_us_per_iter": "us",
    "strategies.backtrack_accept_ratio": "ratio",
    "solver.iterations": "count",
    "solver.us_per_iter": "us",
    "solver.self_us_per_iter": "us",
    "certificate.f_up_steps": "count",
    "certificate.tol_only_steps": "count",
    "traceio.write_us_per_row": "us",
    "traceio.read_us_per_row": "us",
    "traceio.verify_us_per_row": "us",
    "traceio.bytes_per_row": "B/row",
    "numerics.fd_check_s": "s",
    "numerics.lipschitz_probe_s": "s",
    "cli.import_s": "s",
    "cli.run_solve_s": "s",
    "cli.run_write_s": "s",
    "bench.trace_overhead": "ratio",
}


def run_traced(bench: Bench, seconds: float, tiny: bool):
    imports = [float(line) for line, _ in probes(["import"], 1 if tiny else IMPORT_PROBES)]
    ref = bench.counting_pass()
    plain, passes = [], []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        plain.append(bench.plain_pass())
        m, tracer, absent = bench.traced_pass(ref)
        passes.append(m)
    spans = bench.work / "spans.npz"
    tracer.save(str(spans), {"absent": absent})
    last = passes[-1]
    iters = last["solver.iterations"]
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name == "cli.import_s":
            value = med(imports)
        elif name == "solver.us_per_iter":
            value = 1e6 * _per(med(plain), iters)
        elif name == "bench.trace_overhead":
            value = _per(med([p["bench.traced_solve_s"] for p in passes]), med(plain))
        elif unit in ("s", "us"):
            value = med([p[name] for p in passes])
        else:
            value = last[name]
        metrics[name] = (value, unit)
    return metrics, {"passes": len(passes), "spans": len(tracer), "span_file": str(spans.relative_to(ROOT)),
                     "absent": absent}


def environment():
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "nproc": len(os.sched_getaffinity(0))}
