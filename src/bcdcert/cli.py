"""Command-line front end: run experiments, check oracles, audit traces.

Subcommands:

- ``run``    solve a configured problem, write <prefix>.trace.csv and
             <prefix>.summary.json (plus a baseline trace when configured)
- ``check``  finite-difference, minimizer-consistency, and Lipschitz-probe
             oracle checks for a configured problem (``numerics.run_oracle_checks``)
- ``report`` re-read a trace CSV, refold the certificate, verify the
             telescoped and rate bounds at every prefix, fit the decay slope;
             all with the standard-library checker ``bcdcert.audit``

Exit codes: 0 success and certified, 1 operational error (bad config,
missing oracle, solver breakdown), 2 certificate or verification failure.

Only ``run`` and ``check`` import the solver side (and with it numpy), so
``report`` starts fast and needs no numpy.

Config files are INI-style with sections [problem], [solver], [output] and
optionally [baseline]; unknown sections or keys are errors, not warnings.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import io
import json
import math
import os
import re
import sys
from typing import TYPE_CHECKING

from . import audit
from .errors import (
    BcdcertError,
    ConfigError,
    DegenerateFit,
    InsufficientHistory,
    SchemaMismatch,
    SufficientDecreaseViolated,
    TamperDetected,
)

if TYPE_CHECKING:
    from .problem import BlockPoint
    from .problems import ProblemSpec
    from .solver import SolverConfig

_SECTIONS = ("problem", "solver", "output", "baseline")

# [solver] key -> kind: start_* land on RunConfig, backtrack_<field> on SolverConfig.backtrack,
# the rest on the SolverConfig field of that name; a key left out keeps the dataclass default.
_SOLVER_KEYS = {
    "start_x": "vector",
    "start_y": "vector",
    "backtrack_l_init": "float",
    "backtrack_growth": "float",
    "backtrack_max_rejects": "int",
    "x_strategy": "str",
    "y_tol": "float",
    "grad_tol": "float",
    "max_iters": "int",
    "seed": "int",
}

# Errors that mean the certificate itself failed, as opposed to the run
# being unable to proceed; they map to exit 2 instead of 1.
_CERT_ERRORS = (SufficientDecreaseViolated, TamperDetected)


def _parse_vector(text: str) -> list[float]:
    toks = [tok for tok in re.split(r"[,\s]+", text.strip()) if tok]
    if not toks:
        raise ValueError("empty vector")
    return [float(tok) for tok in toks]


def _convert(kind: str, raw: str):
    if kind == "float":
        return float(raw)
    if kind == "int":
        return int(raw)
    if kind == "vector":
        return _parse_vector(raw)
    return raw


def _take(section: dict, name: str, key: str, kind: str, default=None):
    if key not in section:
        return default
    raw = section.pop(key)
    try:
        return _convert(kind, raw)
    except ValueError:
        raise ConfigError(f"[{name}] {key}: cannot parse {raw!r} as {kind}") from None


@dataclasses.dataclass
class RunConfig:
    """A fully parsed config file; every field already validated."""

    spec: ProblemSpec
    lipschitz_override: float | None
    solver: SolverConfig
    start_x: list[float] | None
    start_y: list[float] | None
    out_prefix: str
    baseline_step: float | None
    baseline_iters: int


def parse_config(path: str) -> RunConfig:
    from .problems import _FAMILIES, FAMILY_NAMES, ProblemSpec
    from .solver import SolverConfig, _baseline_config
    from .strategies import BacktrackParams

    cp = configparser.ConfigParser(interpolation=None)
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    for sec in cp.sections():
        if sec not in _SECTIONS:
            raise ConfigError(f"unknown section [{sec}]")
    if not cp.has_section("problem"):
        raise ConfigError("missing required section [problem]")

    prob = dict(cp.items("problem"))
    family = prob.pop("family", None)
    if family is None:
        raise ConfigError("[problem] family is required")
    if family not in FAMILY_NAMES:
        raise ConfigError(
            f"[problem] family {family!r} unknown; choose from {', '.join(FAMILY_NAMES)}"
        )
    prob_seed = _take(prob, "problem", "seed", "int", 0)
    if prob_seed < 0:
        raise ConfigError("[problem] seed must be non-negative")
    override = _take(prob, "problem", "lipschitz_override", "float")
    params = {key: _take(prob, "problem", key, kind)
              for key, kind in _FAMILIES[family][1].items() if kind is not None and key in prob}
    if prob:
        raise ConfigError(f"[problem] unknown keys for {family}: {', '.join(sorted(prob))}")
    spec = ProblemSpec(family=family, seed=prob_seed, params=params)

    sol = dict(cp.items("solver")) if cp.has_section("solver") else {}
    for key in sol:
        if key not in _SOLVER_KEYS:
            raise ConfigError(f"[solver] unknown key {key!r}")
    given = {key: _take(sol, "solver", key, kind)
             for key, kind in _SOLVER_KEYS.items() if key in sol}
    start_x, start_y = given.pop("start_x", None), given.pop("start_y", None)
    backtrack = {
        key.removeprefix("backtrack_"): given.pop(key)
        for key in list(given) if key.startswith("backtrack_")
    }
    try:
        # each BacktrackParams error starts with its field name; the key is backtrack_<field>
        backtrack_params = BacktrackParams(**backtrack)
    except ValueError as exc:
        raise ConfigError(f"[solver] backtrack_{exc}") from None
    try:
        scfg = SolverConfig(backtrack=backtrack_params, **given)
    except ValueError as exc:
        raise ConfigError(f"[solver] {exc}") from None

    out = dict(cp.items("output")) if cp.has_section("output") else {}
    prefix = out.pop("prefix", "run")
    if out:
        raise ConfigError(f"[output] unknown keys: {', '.join(sorted(out))}")

    baseline_step = None
    baseline_iters = 1000
    if cp.has_section("baseline"):
        base = dict(cp.items("baseline"))
        baseline_step = _take(base, "baseline", "step", "float")
        baseline_iters = _take(base, "baseline", "max_iters", "int", 1000)
        if base:
            raise ConfigError(f"[baseline] unknown keys: {', '.join(sorted(base))}")
        if baseline_step is None:
            raise ConfigError("[baseline] step is required when the section is present")
        try:
            _baseline_config(baseline_step, baseline_iters)
        except ValueError as exc:
            raise ConfigError(f"[baseline] {exc}") from None

    return RunConfig(
        spec=spec,
        lipschitz_override=override,
        solver=scfg,
        start_x=start_x,
        start_y=start_y,
        out_prefix=prefix,
        baseline_step=baseline_step,
        baseline_iters=baseline_iters,
    )


def _build_objective(cfg: RunConfig):
    from .problems import LipschitzOverride, make_problem

    obj = make_problem(cfg.spec)
    if cfg.lipschitz_override is not None:
        obj = LipschitzOverride(obj, cfg.lipschitz_override)
    return obj


def _resolve_start(obj, cfg: RunConfig) -> BlockPoint:
    from .problem import BlockPoint
    from .problems import random_start

    if cfg.start_x is None and cfg.start_y is None:
        return random_start(obj, cfg.solver.seed)
    x = cfg.start_x
    y = cfg.start_y
    if x is None and obj.n_x > 0:
        raise ConfigError("[solver] start_x required when start_y is set")
    if y is None:
        if obj.n_y > 0:
            raise ConfigError("[solver] start_y required when start_x is set")
        y = []
    return BlockPoint(x if x is not None else [], y)


def _num(v):
    """Floats for JSON: None stands in for undefined (inf/nan) aggregates."""
    if v is None:
        return None
    v = float(v)
    return v if math.isfinite(v) else None


def _e_growth_flag(history) -> bool:
    """True when e_t grew strictly monotonically over a run of 10+ steps."""
    es = history.e_t
    return len(es) >= 10 and bool((es[1:] > es[:-1]).all())


def _error_payload(err: BcdcertError | None):
    if err is None:
        return None
    return {"type": type(err).__name__, "message": str(err)}


def _summarize(cfg: RunConfig, result) -> dict:
    cert = result.certificate
    summary = {
        "family": cfg.spec.family,
        "x_strategy": cfg.solver.x_strategy,
        "problem_seed": cfg.spec.seed,
        "solver_seed": cfg.solver.seed,
        "f0": _num(cert.f0),
        "f_final": _num(cert.f_final),
        "T": cert.num_steps,
        "e_min": _num(cert.e_min),
        "e_max": _num(cert.e_max),
        "min_grad_sq": _num(cert.min_grad_sq),
        "rate_bound": _num(cert.rate_bound),
        "telescope_ok": cert.telescope_ok,
        "rate_bound_ok": cert.rate_bound_ok,
        "all_steps_ok": cert.all_steps_ok,
        "vacuous_steps": cert.vacuous_steps,
        "grad_floor": _num(cert.grad_floor),
        "certified": cert.passed(),
        "max_gy_residual": _num(cert.max_gy_residual),
        "init_y_residual": _num(result.init_y_residual),
        "stop_reason": result.stop_reason.value,
        "wall_time": _num(result.wall_time),
        "check_tol": _num(result.check_tol),
        "y_tol": _num(result.y_tol),
        "e_growth_flag": _e_growth_flag(result.history),
        "error": _error_payload(result.error),
    }
    return summary


# Overflow or NaN inside an oracle's numpy arithmetic is caught where the
# number enters the solver (a non-finite answer raises), so numpy's
# RuntimeWarning would only be noise ahead of the clean "error:" line. One
# guard around each solver-side command: entering np.errstate costs
# microseconds, too much to pay on every oracle call.
def _numpy_quiet(command):
    @functools.wraps(command)
    def quiet(*args, **kwargs):
        import numpy as np

        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return command(*args, **kwargs)

    return quiet


@_numpy_quiet
def cmd_run(cfg: RunConfig, quiet: bool = False) -> int:
    from .solver import StopReason, solve, solve_gd_baseline
    from .traceio import write_json, write_trace

    try:
        obj = _build_objective(cfg)
        start = _resolve_start(obj, cfg)
    except BcdcertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _CERT_ERRORS) else 1

    result = solve(obj, start, cfg.solver)
    summary = _summarize(cfg, result)

    lower = obj.lower_bound()
    summary["gap_to_lower_bound"] = (
        _num(result.certificate.f_final - lower) if lower is not None else None
    )

    trace_path = cfg.out_prefix + ".trace.csv"
    summary_path = cfg.out_prefix + ".summary.json"
    try:
        write_trace(trace_path, result.history)
        trace_files = [trace_path]

        if cfg.baseline_step is not None:
            base = solve_gd_baseline(obj, start, cfg.baseline_step, cfg.baseline_iters)
            base_path = cfg.out_prefix + ".baseline.trace.csv"
            write_trace(base_path, base.history)
            trace_files.append(base_path)
            summary["baseline"] = {
                "step": cfg.baseline_step,
                "f0": _num(base.certificate.f0),
                "f_final": _num(base.certificate.f_final),
                "T": base.certificate.num_steps,
                "certified": base.certificate.passed(),
                "stop_reason": base.stop_reason.value,
                "error": _error_payload(base.error),
            }

        summary["trace_files"] = trace_files
        write_json(summary_path, summary)
    except OSError as exc:
        print(f"error: cannot write output {cfg.out_prefix!r}: {exc.strerror or exc}", file=sys.stderr)
        return 1

    if result.stop_reason is StopReason.ERROR:
        print(f"error: {result.error}", file=sys.stderr)
        code = 2 if isinstance(result.error, _CERT_ERRORS) else 1
    else:
        code = 0 if result.certificate.passed() else 2
    if not quiet:
        cert = result.certificate
        print(
            f"{cfg.spec.family} [{cfg.solver.x_strategy}] "
            f"T={cert.num_steps} f: {cert.f0:.6g} -> {cert.f_final:.6g} "
            f"certified={cert.passed()} stop={result.stop_reason.value} "
            f"-> {summary_path}"
        )
    return code


@_numpy_quiet
def cmd_check(cfg: RunConfig, points: int, quiet: bool = False) -> int:
    from .numerics import run_oracle_checks

    try:
        obj = _build_objective(cfg)
        passed, payload = run_oracle_checks(obj, points=points, seed=cfg.solver.seed)
    except (BcdcertError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload["family"] = cfg.spec.family
    if not quiet:
        for chk in payload["checks"]:
            status = chk["status"]
            tag = "ok" if status == "ok" else ("--" if status.startswith("skipped") else "FAIL")
            detail = ", ".join(
                f"{k}={v}" for k, v in chk.items() if k not in ("name", "status")
            )
            print(f"[{tag:>4}] {chk['name']}: {status}" + (f" ({detail})" if detail else ""))
    print(json.dumps(payload, indent=1, sort_keys=True))
    return 0 if passed else 2


def cmd_report(trace_path: str, quiet: bool = False) -> int:
    try:
        flags, values = audit.read_table(trace_path)
        columns = audit.table_columns(values)
        cert = audit.verify(flags, columns)
    except (OSError, SchemaMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TamperDetected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not quiet:
        try:
            slope = f"{audit.fit_slope(columns['gx_norm_sq']):.4f}"
        except InsufficientHistory:
            slope = "insufficient history"
        except DegenerateFit as exc:
            slope = str(exc)
        print(f"rows: {cert.num_steps}")
        print(f"all steps certified: {cert.all_steps_ok}")
        print(f"telescope bound at every prefix: {cert.telescope_ok}")
        print(f"rate bound at every prefix: {cert.rate_bound_ok}")
        print(f"min-grad decay slope: {slope}")
        if cert.num_steps:
            print(f"min_grad_sq: {cert.min_grad_sq!r} <= rate_bound: {cert.rate_bound!r}")
            print(f"vacuous steps (required decrease <= tolerance): {cert.vacuous_steps}")
            print(f"gradient floor sqrt(2 e_max tol): {cert.grad_floor!r}")
    return 0 if cert.passed() else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bcdcert",
        description="Two-block coordinate descent with a runtime convergence certificate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve a configured problem and write trace + summary")
    p_run.add_argument("--config", required=True, help="INI config path")
    p_run.add_argument("--seed", type=int, default=None, help="override problem and solver seeds")
    p_run.add_argument("--out", default=None, help="override output prefix")
    p_run.add_argument("--quiet", action="store_true")

    p_check = sub.add_parser("check", help="run oracle cross-checks for a configured problem")
    p_check.add_argument("--config", required=True, help="INI config path ([problem] section)")
    p_check.add_argument("--points", type=int, default=20)
    p_check.add_argument("--seed", type=int, default=None,
                         help="override problem and check-point seeds")
    p_check.add_argument("--quiet", action="store_true")

    p_rep = sub.add_parser("report", help="refold and audit a trace CSV")
    p_rep.add_argument("trace", help="path to a .trace.csv file")
    p_rep.add_argument("--quiet", action="store_true")

    args = parser.parse_args(argv)
    # A command's standard output is held until it has its exit code, so a
    # reader that leaves early (`bcdcert report ... | head -1`) cannot cut
    # the command short: a run still writes its trace and summary.
    stdout, sys.stdout = sys.stdout, io.StringIO()
    try:
        return _command(args)
    finally:
        said, sys.stdout = sys.stdout.getvalue(), stdout
        try:
            stdout.write(said)
            stdout.flush()
        except BrokenPipeError:
            # What the reader did not read goes to devnull, which also takes
            # the interpreter's last flush, so nothing reaches stderr; the
            # exit code is the command's verdict.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout.fileno())
            os.close(devnull)


def _command(args) -> int:
    """Run the parsed command line's subcommand; its exit code."""
    if args.command == "report":
        return cmd_report(args.trace, quiet=args.quiet)

    try:
        if args.seed is not None and args.seed < 0:
            # exit 1 like any config error; argparse's own exit 2 means a failed certificate here
            raise ConfigError("--seed must be non-negative")
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.seed is not None:
        cfg = dataclasses.replace(
            cfg,
            spec=dataclasses.replace(cfg.spec, seed=args.seed),
            solver=dataclasses.replace(cfg.solver, seed=args.seed),
        )
    if args.command == "check":
        return cmd_check(cfg, points=args.points, quiet=args.quiet)

    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_prefix=args.out)
    return cmd_run(cfg, quiet=args.quiet)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
