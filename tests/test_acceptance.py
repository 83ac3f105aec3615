"""Acceptance battery: one test per advertised guarantee of the library.

Every test prints a single `criterion N ... PASS/FAIL` line (visible with
pytest -rA or -s) and enforces both the stated tolerance and the stated
runtime budget. The first failure message names the offending run.
"""

import json
import math
import textwrap
import time

import numpy as np
import pytest

from bcdcert.audit import check_tol_for, fit_slope
from bcdcert.cli import main as cli_main
from bcdcert.numerics import fd_check_gradients, probe_lipschitz_x
from bcdcert.problem import BlockPoint, evaluate
from bcdcert.problems import (
    ProblemSpec,
    TightQuadratic,
    joint_solve_oracle,
    make_problem,
    random_start,
)
from bcdcert.solver import SolverConfig, StopReason, solve
from bcdcert.strategies import (
    BacktrackParams,
    backtracking_gradient_x,
    exact_min_x,
    fixed_step_gradient_x,
)
from bcdcert.traceio import History, read_trace, write_trace
from bcdcert.cli import cmd_report

from conftest import APPLICABLE, zoo_problem, zoo_start

STARTS_PER_COMBO = 50


def announce(num: int, label: str, failures: list, t0: float, budget: float):
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} "
          f"[{elapsed:.2f}s / budget {budget:.0f}s]")
    assert not failures, failures[:5]
    assert elapsed < budget, f"budget {budget}s exceeded: {elapsed:.2f}s"


@pytest.fixture(scope="module")
def zoo_runs(tmp_path_factory):
    """All bundled families x applicable strategies x 50 seeded starts.

    Each run's trace is written to disk so the report path is exercised on
    the same data. Solve time is recorded for the runtime budget.
    """
    root = tmp_path_factory.mktemp("acceptance")
    runs = []
    t0 = time.perf_counter()
    for family, strategies in APPLICABLE.items():
        for strategy in strategies:
            for i in range(STARTS_PER_COMBO):
                obj = zoo_problem(family, seed=i)
                start = zoo_start(obj, seed=1000 + i)
                res = solve(obj, start, SolverConfig(x_strategy=strategy))
                path = str(root / f"{family}.{strategy}.{i}.trace.csv")
                write_trace(path, res.history)
                runs.append((family, strategy, i, res, path))
    return runs, time.perf_counter() - t0


def test_criterion_1_tightness_equality():
    t0 = time.perf_counter()
    failures = []
    obj = TightQuadratic(4.0, [1.0], [4.0])
    res = solve(obj, BlockPoint([1.0], []), SolverConfig(x_strategy="fixed_step"))
    first = res.history[0]
    decrease = first.f_before - first.f_after_x
    expected = first.gx_norm_sq / (2.0 * 4.0)
    if abs(decrease - 2.0) > 1e-12 * 2.0:
        failures.append(f"first decrease {decrease!r} != 2.0")
    if abs(decrease - expected) > 1e-12 * expected:
        failures.append(f"decrease {decrease!r} != bound {expected!r}")
    if first.e_t != 4.0:
        failures.append(f"e_t {first.e_t!r} != 4.0")
    announce(1, "sufficient-decrease bound is tight", failures, t0, budget=1.0)


def test_criterion_2_every_step_certified(zoo_runs):
    runs, solve_time = zoo_runs
    t0 = time.perf_counter() - solve_time  # charge the fixture to this budget
    failures = []
    assert len(runs) == sum(len(s) for s in APPLICABLE.values()) * STARTS_PER_COMBO
    for family, strategy, i, res, _ in runs:
        tag = f"{family}/{strategy}/seed {i}"
        if res.stop_reason is StopReason.ERROR:
            failures.append(f"{tag}: solver error {res.error}")
            continue
        if res.check_tol != 1e-10 * max(1.0, abs(res.certificate.f0)):
            failures.append(f"{tag}: unexpected check_tol {res.check_tol!r}")
        if not res.certificate.all_steps_ok:
            failures.append(f"{tag}: a step failed its decrease check")
        if not all(rec.suff_ok for rec in res.history):
            failures.append(f"{tag}: suff_ok flag cleared in history")
        if not res.certificate.passed():
            failures.append(f"{tag}: certificate did not pass")
    announce(2, "sufficient decrease at every step, full zoo", failures, t0, budget=60.0)


def test_criterion_3_telescope_at_every_prefix(zoo_runs):
    runs, _ = zoo_runs
    t0 = time.perf_counter()
    failures = []
    for family, strategy, i, res, path in runs:
        tag = f"{family}/{strategy}/seed {i}"
        if cmd_report(path, quiet=True) != 0:
            failures.append(f"{tag}: cmd_report rejected a fresh trace")
            continue
        rows = read_trace(path)
        if not rows:
            continue
        f0 = rows[0].record.f_before
        tol = res.check_tol
        cum = 0.0
        for row in rows:
            cum += row.record.gx_norm_sq / (2.0 * row.record.e_t)
            if cum > f0 - row.record.f_after_y + tol:
                failures.append(f"{tag}: telescope broken at prefix {row.record.t + 1}")
                break
    announce(3, "telescoped decrease bound at every prefix", failures, t0, budget=60.0)


def test_criterion_4_rate_bound_and_slope(zoo_runs):
    runs, _ = zoo_runs
    t0 = time.perf_counter()
    failures = []
    for family, strategy, i, res, path in runs:
        tag = f"{family}/{strategy}/seed {i}"
        rows = read_trace(path)
        if not rows:
            continue
        f0 = rows[0].record.f_before
        tol = res.check_tol
        e_max, min_sq = 0.0, math.inf
        for T, row in enumerate(rows, start=1):
            e_max = max(e_max, row.record.e_t)
            min_sq = min(min_sq, row.record.gx_norm_sq)
            bound = 2.0 * e_max * (f0 - row.record.f_after_y) / T
            if min_sq > bound + tol:
                failures.append(f"{tag}: rate bound broken at prefix {T}")
                break

    # a history with ||gx||^2 = 1/(t+1) must fit a -1/2 log-log slope
    rows = [(float(400 - t), 400.0 - t - 0.5, float(400 - t - 1), 1.0 / (t + 1.0), 0.0, 1.0)
            for t in range(400)]
    slope = fit_slope(History.from_rows(rows).gx_norm_sq)
    if abs(slope - (-0.5)) > 1e-6:
        failures.append(f"synthetic slope {slope!r} not within 1e-6 of -0.5")
    announce(4, "min-gradient rate bound and -1/2 slope", failures, t0, budget=10.0)


def test_criterion_5_oracle_hypotheses_hold():
    t0 = time.perf_counter()
    failures = []
    for family in APPLICABLE:
        probe_seeds = range(10)
        for s in probe_seeds:
            obj = zoo_problem(family, seed=s)
            p = random_start(obj, seed=500 + s)
            declared = obj.lipschitz_x(p.y)
            if declared is not None:
                probe = probe_lipschitz_x(obj, p.y, (-2.0, 2.0), samples=100, seed=s)
                if probe > declared * (1.0 + 1e-6):
                    failures.append(
                        f"{family}/seed {s}: probe {probe!r} exceeds declared {declared!r}"
                    )
        obj = zoo_problem(family, seed=0)
        for s in range(20):
            p = random_start(obj, seed=900 + s)
            rep = fd_check_gradients(obj, p)
            if rep.max_rel_err > 1e-6:
                failures.append(
                    f"{family}/point {s}: fd mismatch {rep.max_rel_err!r} "
                    f"at {rep.worst_index}"
                )
    announce(5, "Lipschitz probe and gradient checks", failures, t0, budget=30.0)


def test_criterion_6_exact_min_dominates_fixed_step():
    t0 = time.perf_counter()
    failures = []
    for s in range(20):
        obj = make_problem(ProblemSpec("coupled_quadratic", seed=s, params={"n_x": 5, "n_y": 4}))
        p = random_start(obj, seed=700 + s)
        f_p, gx, _ = evaluate(obj, p)
        tol = check_tol_for(f_p)
        x_exact = exact_min_x(obj, p, f_p, gx, float(gx @ gx), tol).point.x
        x_fixed = fixed_step_gradient_x(obj, p, f_p, gx, float(gx @ gx), tol).point.x
        d_exact = f_p - float(obj.value(p.with_x(x_exact)))
        d_fixed = f_p - float(obj.value(p.with_x(x_fixed)))
        if d_exact < d_fixed - 1e-12:
            failures.append(f"seed {s}: exact {d_exact!r} < fixed {d_fixed!r}")
    announce(6, "exact minimization dominates the fixed step", failures, t0, budget=5.0)


def test_criterion_7_backtracking_constants():
    t0 = time.perf_counter()
    failures = []

    # hand-derived doubling chain: estimates 1 and 2 rejected, 4 accepted
    obj = TightQuadratic(4.0, [1.0], [4.0])
    p = BlockPoint([3.0], [])
    f_p, gx, _ = evaluate(obj, p)
    res = backtracking_gradient_x(
        obj, p, f_p, gx, float(gx @ gx), check_tol_for(f_p), BacktrackParams(l_init=1.0, growth=2.0)
    )
    if res.e_t != 4.0:
        failures.append(f"doubling chain accepted e_t {res.e_t!r}, expected exactly 4.0")
    if abs(res.point.x[0]) > 1e-15:
        failures.append(f"doubling chain step landed at {res.point.x!r}, expected [0.0]")

    # on random quadratics the accepted estimate never reaches 2x the true L
    for s in range(10):
        obj = make_problem(ProblemSpec("coupled_quadratic", seed=s, params={"n_x": 6, "n_y": 4}))
        true_l = float(np.linalg.eigvalsh(obj.A)[-1])
        res = solve(obj, random_start(obj, seed=s), SolverConfig(x_strategy="backtracking"))
        if res.stop_reason is StopReason.ERROR:
            failures.append(f"seed {s}: solver error {res.error}")
            continue
        worst = max(rec.e_t for rec in res.history)
        if worst >= 2.0 * true_l:
            failures.append(f"seed {s}: e_t {worst!r} >= 2L with L {true_l!r}")
    announce(7, "backtracking constants stay below 2L", failures, t0, budget=5.0)


def test_criterion_8_bcd_matches_direct_solve():
    t0 = time.perf_counter()
    failures = []
    for s in range(10):
        obj = make_problem(ProblemSpec("coupled_quadratic", seed=s, params={"n_x": 8, "n_y": 8}))
        res = solve(
            obj,
            random_start(obj, seed=300 + s),
            SolverConfig(x_strategy="exact_min", grad_tol=1e-9),
        )
        direct = joint_solve_oracle(obj)
        dist = math.hypot(
            float(np.linalg.norm(res.final.x - direct.x)),
            float(np.linalg.norm(res.final.y - direct.y)),
        )
        if dist > 1e-8:
            failures.append(f"seed {s}: distance {dist!r} from the direct solution")
        if res.stop_reason is not StopReason.GRAD_TOL:
            failures.append(f"seed {s}: stopped on {res.stop_reason.value}")
    announce(8, "alternating solve matches one-shot solve", failures, t0, budget=10.0)


def test_criterion_9_cli_round_trip(tmp_path, capsys):
    t0 = time.perf_counter()
    failures = []
    cfg = tmp_path / "run.ini"
    cfg.write_text(textwrap.dedent(
        """
        [problem]
        family = coupled_quadratic
        n_x = 4
        n_y = 3
        seed = 5
        """
    ))
    out = str(tmp_path / "run")
    trace = out + ".trace.csv"
    if cli_main(["run", "--config", str(cfg), "--out", out, "--quiet"]) != 0:
        failures.append("fresh run did not exit 0")
    if cli_main(["report", trace]) != 0:
        failures.append("report on the fresh trace did not exit 0")

    lines = open(trace).read().splitlines()
    cells = lines[3].split(",")
    cells[3] = repr(float(cells[3]) + 1e-9)  # f_after_y, chained by the next row
    lines[3] = ",".join(cells)
    doctored = tmp_path / "doctored.trace.csv"
    doctored.write_text("\n".join(lines) + "\n")
    if cli_main(["report", str(doctored)]) != 2:
        failures.append("report accepted a mutated cell")

    lie = tmp_path / "lie.ini"
    lie.write_text(cfg.read_text() + "lipschitz_override = 0.001\n")
    out2 = str(tmp_path / "lie")
    if cli_main(["run", "--config", str(lie), "--out", out2, "--quiet"]) != 2:
        failures.append("understated Lipschitz run did not exit 2")
    else:
        summary = json.load(open(out2 + ".summary.json"))
        if summary["error"]["type"] != "SufficientDecreaseViolated":
            failures.append(f"unexpected error type {summary['error']!r}")
    capsys.readouterr()  # swallow the report/run chatter; the verdict line follows
    announce(9, "CLI detects tampering and false declarations", failures, t0, budget=5.0)
