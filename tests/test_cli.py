import json
import math
import operator
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from bcdcert import cli, numerics
from bcdcert.cli import (
    RunConfig,
    _resolve_start,
    main,
    parse_config,
)
from bcdcert.certificate import IterationRecord
from bcdcert.errors import ConfigError, DimensionMismatch, MissingExactMinimizer, NonFiniteValue
from bcdcert.numerics import run_oracle_checks
from bcdcert.problem import BlockPoint
from bcdcert.problems import _FAMILIES, FAMILY_NAMES, CoupledQuadratic, make_problem
from bcdcert.solver import SolverConfig
from bcdcert.traceio import read_trace, write_json

from conftest import BreaksAtCall, zoo_problem


def write_cfg(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


TIGHT = """
    [problem]
    family = tight_quadratic
    l = 4.0
    anchor = 1.0
    g = 4.0

    [solver]
    start_x = 2.0
"""

COUPLED = """
    [problem]
    family = coupled_quadratic
    n_x = 4
    n_y = 3
    seed = 11
"""


# --- config parsing ----------------------------------------------------------


def test_parse_full_config(tmp_path):
    path = write_cfg(
        tmp_path,
        """
        [problem]
        family = coupled_quadratic
        n_x = 3
        n_y = 2
        seed = 7
        lipschitz_override = 9.5

        [solver]
        x_strategy = backtracking
        grad_tol = 1e-8
        y_tol = 1e-11
        max_iters = 250
        seed = 3
        start_x = 1.0, -2.0, 0.5
        start_y = 0 0
        backtrack_l_init = 0.5
        backtrack_growth = 3.0
        backtrack_max_rejects = 40

        [output]
        prefix = out/experiment

        [baseline]
        step = 0.05
        max_iters = 300
        """,
    )
    cfg = parse_config(path)
    assert isinstance(cfg, RunConfig)
    assert cfg.spec.family == "coupled_quadratic"
    assert cfg.spec.seed == 7
    assert cfg.spec.params == {"n_x": 3, "n_y": 2}
    assert cfg.lipschitz_override == 9.5
    assert cfg.solver.x_strategy == "backtracking"
    assert cfg.solver.grad_tol == 1e-8
    assert cfg.solver.y_tol == 1e-11
    assert cfg.solver.max_iters == 250
    assert cfg.solver.seed == 3
    assert cfg.solver.backtrack.l_init == 0.5
    assert cfg.solver.backtrack.growth == 3.0
    assert cfg.solver.backtrack.max_rejects == 40
    assert cfg.start_x == [1.0, -2.0, 0.5]
    assert cfg.start_y == [0.0, 0.0]
    assert cfg.out_prefix == "out/experiment"
    assert cfg.baseline_step == 0.05
    assert cfg.baseline_iters == 300


def test_parse_minimal_defaults(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, COUPLED))
    assert cfg.solver.x_strategy == "fixed_step"
    assert cfg.solver.grad_tol == 1e-9
    assert cfg.solver.max_iters == 1000
    assert cfg.solver.seed == 0
    assert cfg.solver.y_tol is None
    assert cfg.start_x is None and cfg.start_y is None
    assert cfg.out_prefix == "run"
    assert cfg.baseline_step is None
    assert cfg.lipschitz_override is None


def test_a_config_without_a_solver_section_gets_the_dataclass_defaults(tmp_path):
    assert parse_config(write_cfg(tmp_path, COUPLED)).solver == SolverConfig()


SOLVER_KEY_FIELDS = [
    ("x_strategy", "exact_min", "solver.x_strategy", "exact_min"),
    ("grad_tol", "1e-7", "solver.grad_tol", 1e-7),
    ("y_tol", "1e-11", "solver.y_tol", 1e-11),
    ("max_iters", "7", "solver.max_iters", 7),
    ("seed", "4", "solver.seed", 4),
    ("start_x", "1 2 3 4", "start_x", [1.0, 2.0, 3.0, 4.0]),
    ("start_y", "5 6 7", "start_y", [5.0, 6.0, 7.0]),
    ("backtrack_l_init", "0.25", "solver.backtrack.l_init", 0.25),
    ("backtrack_growth", "3", "solver.backtrack.growth", 3.0),
    ("backtrack_max_rejects", "9", "solver.backtrack.max_rejects", 9),
]


@pytest.mark.parametrize("key,raw,field,value", SOLVER_KEY_FIELDS, ids=[k for k, *_ in SOLVER_KEY_FIELDS])
def test_each_solver_key_lands_on_its_field(tmp_path, key, raw, field, value):
    assert {k for k, *_ in SOLVER_KEY_FIELDS} == set(cli._SOLVER_KEYS)
    cfg = parse_config(write_cfg(tmp_path, COUPLED + f"[solver]\n{key} = {raw}\n"))
    got = operator.attrgetter(field)(cfg)
    assert got == value and type(got) is type(value)


# a value of each [problem] config kind: as written, and as parsed
KIND_VALUES = {"int": ("2", 2), "float": ("2.0", 2.0), "vector": ("1.0, -2.0", [1.0, -2.0])}


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_every_family_key_with_a_kind_reaches_the_spec(tmp_path, family):
    kinds = {key: kind for key, kind in _FAMILIES[family][1].items() if kind is not None}
    lines = "".join(f"{key} = {KIND_VALUES[kind][0]}\n" for key, kind in kinds.items())
    cfg = parse_config(write_cfg(tmp_path, f"[problem]\nfamily = {family}\n{lines}"))
    expected = {key: KIND_VALUES[kind][1] for key, kind in kinds.items()}
    assert cfg.spec.params == expected
    assert {k: type(v) for k, v in cfg.spec.params.items()} == {k: type(v) for k, v in expected.items()}
    make_problem(cfg.spec)


LIBRARY_ONLY_KEYS = [(family, key) for family in FAMILY_NAMES
                     for key, kind in _FAMILIES[family][1].items() if kind is None]


@pytest.mark.parametrize("family,key", LIBRARY_ONLY_KEYS)
def test_a_library_only_key_is_refused_in_a_config(tmp_path, capsys, family, key):
    # configparser lowercases keys: an `A` arrives as `a`, still not a config key
    cfg = write_cfg(tmp_path, f"[problem]\nfamily = {family}\n{key} = 1\n")
    assert run_cli(["check", "--config", cfg]) == 1
    assert capsys.readouterr().err == f"config error: [problem] unknown keys for {family}: {key.lower()}\n"


BAD_CONFIGS = [
    ("[extra]\nk = 1\n\n[problem]\nfamily = two_block_rosenbrock\n", "unknown section"),
    ("[solver]\nmax_iters = 5\n", "missing required section"),
    ("[problem]\nseed = 1\n", "family is required"),
    ("[problem]\nfamily = cubic\n", "unknown"),
    ("[problem]\nfamily = coupled_quadratic\nscale = 2.0\n", "unknown keys"),
    ("[problem]\nfamily = coupled_quadratic\nn_x = three\n", "cannot parse"),
    (COUPLED + "[solver]\nstepsize = 0.1\n", "unknown key"),
    (COUPLED + "[solver]\nmax_iters = 1.5\n", "cannot parse"),
    (COUPLED + "[solver]\nmax_iters = 0\n", "max_iters"),
    (COUPLED + "[solver]\nx_strategy = newton\n", "x_strategy"),
    (COUPLED + "[solver]\nstart_x =\n", "cannot parse"),
    (COUPLED + "[output]\nformat = csv\n", "unknown keys: format"),
    (COUPLED + "[solver]\ncheck_tol = 1e-9\n", "unknown key 'check_tol'"),
    (COUPLED + "[output]\ncolor = red\n", "unknown keys"),
    (COUPLED + "[baseline]\nmax_iters = 10\n", "step is required"),
    (COUPLED + "[baseline]\nstep = 0.1\nwarmup = 3\n", "unknown keys"),
]


@pytest.mark.parametrize("text,fragment", BAD_CONFIGS)
def test_parse_rejects_bad_configs(tmp_path, text, fragment):
    path = write_cfg(tmp_path, text)
    with pytest.raises(ConfigError, match=fragment):
        parse_config(path)


def test_parse_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(str(tmp_path / "nope.ini"))


def test_parse_vector_separators(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, COUPLED + "[solver]\nstart_x = 1,2 3,  4\n"))
    assert cfg.start_x == [1.0, 2.0, 3.0, 4.0]


# --- start resolution --------------------------------------------------------


def test_resolve_start_defaults_to_seeded_random(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, COUPLED))
    obj = make_problem(cfg.spec)
    p = _resolve_start(obj, cfg)
    q = _resolve_start(obj, cfg)
    assert np.array_equal(p.x, q.x) and np.array_equal(p.y, q.y)
    assert p.x.size == 4 and p.y.size == 3


def test_resolve_start_requires_both_blocks(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, COUPLED + "[solver]\nstart_x = 1 1 1 1\n"))
    obj = make_problem(cfg.spec)
    with pytest.raises(ConfigError, match="start_y required"):
        _resolve_start(obj, cfg)


def test_resolve_start_empty_y_block_needs_no_start_y(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, TIGHT))
    obj = make_problem(cfg.spec)
    p = _resolve_start(obj, cfg)
    assert p.x.tolist() == [2.0] and p.y.size == 0


# --- run command -------------------------------------------------------------


def run_cli(args):
    return main(list(args))


def test_run_writes_trace_and_summary(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TIGHT)
    out = str(tmp_path / "demo")
    assert run_cli(["run", "--config", cfg, "--out", out]) == 0
    assert (tmp_path / "demo.trace.csv").exists()
    summary = json.load(open(tmp_path / "demo.summary.json"))
    assert summary["family"] == "tight_quadratic"
    assert summary["certified"] is True
    assert summary["stop_reason"] == "grad_tol_met"
    assert summary["error"] is None
    assert summary["trace_files"] == [out + ".trace.csv"]
    for key in ("f0", "f_final", "T", "e_max", "rate_bound", "min_grad_sq",
                "telescope_ok", "all_steps_ok", "wall_time", "check_tol",
                "gap_to_lower_bound", "e_growth_flag"):
        assert key in summary
    line = capsys.readouterr().out.strip()
    assert "tight_quadratic" in line and "certified=True" in line


def test_run_into_a_missing_directory_is_an_operational_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TIGHT)
    assert run_cli(["run", "--config", cfg, "--out", str(tmp_path / "missing" / "demo")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write output")
    assert "No such file or directory" in err[0]
    assert not (tmp_path / "missing").exists()


def test_run_quiet_silences_stdout(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TIGHT)
    out = str(tmp_path / "q")
    assert run_cli(["run", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_run_seed_override_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, COUPLED)
    a, b, c = (str(tmp_path / name) for name in "abc")
    for out, seed in ((a, "7"), (b, "7"), (c, "8")):
        assert run_cli(["run", "--config", cfg, "--out", out, "--seed", seed, "--quiet"]) == 0
    read = lambda p: open(p + ".trace.csv").read()
    assert read(a) == read(b)
    assert read(a) != read(c)
    # the seed override reaches both the instance draw and the start draw
    sa = json.load(open(a + ".summary.json"))
    assert sa["problem_seed"] == 7 and sa["solver_seed"] == 7


def test_run_without_needed_oracle_is_operational_error(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        """
        [problem]
        family = two_block_rosenbrock

        [solver]
        x_strategy = fixed_step
        start_x = -1.5
        start_y = 2.0
        """,
    )
    out = str(tmp_path / "ros")
    assert run_cli(["run", "--config", cfg, "--out", out]) == 1
    summary = json.load(open(out + ".summary.json"))
    assert summary["error"]["type"] == "MissingLipschitzOracle"
    assert summary["stop_reason"] == "error"
    assert summary["certified"] is False
    assert "error:" in capsys.readouterr().err


def test_run_with_understated_curvature_fails_certification(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        COUPLED + "lipschitz_override = 0.001\n\n[solver]\nx_strategy = fixed_step\n",
    )
    out = str(tmp_path / "lie")
    assert run_cli(["run", "--config", cfg, "--out", out]) == 2
    summary = json.load(open(out + ".summary.json"))
    assert summary["error"]["type"] == "SufficientDecreaseViolated"
    assert "decrease" in capsys.readouterr().err


def test_run_with_baseline_section(tmp_path, capsys):
    cfg = write_cfg(tmp_path, COUPLED + "[baseline]\nstep = 0.01\nmax_iters = 50\n")
    out = str(tmp_path / "base")
    assert run_cli(["run", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert (tmp_path / "base.baseline.trace.csv").exists()
    summary = json.load(open(out + ".summary.json"))
    assert summary["baseline"]["step"] == 0.01
    assert summary["baseline"]["T"] == 50
    assert summary["baseline"]["certified"] is True
    assert (out + ".baseline.trace.csv") in summary["trace_files"]
    # a safe-step baseline trace passes report's file-only audit
    capsys.readouterr()
    assert run_cli(["report", out + ".baseline.trace.csv"]) == 0
    report = capsys.readouterr().out
    assert "rows: 50" in report
    assert "telescope bound at every prefix: True" in report


@pytest.mark.parametrize("line,message", [
    ("step = -0.5", "step must be finite and positive"),
    ("step = 0", "step must be finite and positive"),
    ("step = nan", "step must be finite and positive"),
    ("step = inf", "step must be finite and positive"),
    ("step = 0.01\nmax_iters = 0", "max_iters must be at least 1"),
])
def test_a_bad_baseline_value_is_a_config_error(tmp_path, capsys, line, message):
    # once a traceback from solve_gd_baseline, after the main trace was
    # written and before summary.json was
    cfg = write_cfg(tmp_path, COUPLED + "[baseline]\n" + line + "\n")
    assert run_cli(["run", "--config", cfg, "--out", str(tmp_path / "bad")]) == 1
    assert capsys.readouterr().err == f"config error: [baseline] {message}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.ini"]


def test_run_baseline_divergence_is_recorded_not_fatal(tmp_path):
    cfg = write_cfg(tmp_path, COUPLED + "[baseline]\nstep = 100.0\n")
    out = str(tmp_path / "blow")
    with np.errstate(over="ignore", invalid="ignore"):
        assert run_cli(["run", "--config", cfg, "--out", out, "--quiet"]) == 0
    summary = json.load(open(out + ".summary.json"))
    # the first step raises f: the baseline stops at that failed decrease
    assert summary["baseline"]["error"]["type"] == "SufficientDecreaseViolated"
    assert summary["baseline"]["stop_reason"] == "error"
    assert summary["baseline"]["certified"] is False
    assert summary["certified"] is True


def _reject_constant(name):
    raise ValueError(f"summary holds the non-JSON constant {name}")


def test_run_summary_is_strict_json_when_the_start_value_is_not_finite(tmp_path):
    # f(1e200, 0) overflows, so f0 and f_final are undefined: they must come
    # out as null, not as a bare NaN that JSON parsers reject
    cfg = write_cfg(
        tmp_path,
        """
        [problem]
        family = two_block_rosenbrock

        [solver]
        x_strategy = backtracking
        start_x = 1e200
        start_y = 0.0
        """,
    )
    out = str(tmp_path / "huge")
    with np.errstate(over="ignore"):
        assert run_cli(["run", "--config", cfg, "--out", out, "--quiet"]) == 1
    summary = json.loads(
        Path(out + ".summary.json").read_text(), parse_constant=_reject_constant
    )
    assert summary["error"]["type"] == "NonFiniteValue"
    assert summary["f0"] is None and summary["f_final"] is None
    assert summary["T"] == 0


def test_write_json_refuses_non_finite_numbers(tmp_path):
    path = tmp_path / "bad.json"
    with pytest.raises(ValueError):
        write_json(str(path), {"f0": math.nan})
    assert list(tmp_path.iterdir()) == []


def cli_process(*args):
    """A real Python process running ``args``, with src/ and tests/ importable."""
    tests_dir = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tests_dir.parent / "src"), str(tests_dir)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_run_baseline_whose_start_value_is_not_finite_writes_a_summary(tmp_path):
    # the certified run fails cleanly at the start; the baseline must too,
    # instead of dying with a traceback before summary.json is written
    cfg = write_cfg(
        tmp_path,
        """
        [problem]
        family = two_block_rosenbrock

        [solver]
        x_strategy = backtracking
        start_x = 1e200
        start_y = 0.0

        [baseline]
        step = 0.01
        """,
    )
    out = str(tmp_path / "huge")
    proc = cli_process("-W", "ignore::RuntimeWarning", "-m", "bcdcert.cli",
                       "run", "--config", cfg, "--out", out, "--quiet")
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    summary = json.loads(
        Path(out + ".summary.json").read_text(), parse_constant=_reject_constant
    )
    base = summary["baseline"]
    assert base["error"]["type"] == "NonFiniteValue"
    assert base["stop_reason"] == "error"
    assert base["f0"] is None and base["T"] == 0
    assert read_trace(out + ".baseline.trace.csv") == []


def test_run_and_report_build_no_records(tmp_path, monkeypatch):
    # run and report work on columns; records are built only for a caller
    # that reads rows
    built = []

    class Counted(IterationRecord):
        def __post_init__(self):
            built.append(self.t)
            super().__post_init__()

    monkeypatch.setattr("bcdcert.certificate.IterationRecord", Counted)
    monkeypatch.setattr("bcdcert.traceio.IterationRecord", Counted)
    cfg = write_cfg(tmp_path, COUPLED)
    out = str(tmp_path / "cols")
    assert run_cli(["run", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert run_cli(["report", out + ".trace.csv", "--quiet"]) == 0
    assert built == []
    rows = read_trace(out + ".trace.csv")
    assert len(rows) > 0 and built == []
    assert [row.record.t for row in rows] == built == list(range(len(rows)))


def test_run_prints_no_numpy_warning_ahead_of_the_error_line(tmp_path):
    # f overflows at the start; the run fails cleanly with NonFiniteValue
    cfg = write_cfg(
        tmp_path,
        """
        [problem]
        family = two_block_rosenbrock

        [solver]
        x_strategy = backtracking
        start_x = 1e200
        start_y = 0.0
        """,
    )
    out = str(tmp_path / "huge")
    proc = cli_process("-m", "bcdcert.cli", "run", "--config", cfg, "--out", out, "--quiet")
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert json.load(open(out + ".summary.json"))["error"]["type"] == "NonFiniteValue"


def test_run_survives_an_oracle_that_breaks_mid_run(tmp_path):
    # a real `bcdcert run` process whose objective's third grad_x is NaN:
    # operational exit code, summary and partial trace written, no traceback
    cfg = write_cfg(tmp_path, COUPLED)
    out = str(tmp_path / "broken")
    script = textwrap.dedent(
        """
        import sys
        import bcdcert.cli as cli
        from conftest import BreaksAtCall

        make = cli.make_problem
        cli.make_problem = lambda spec: BreaksAtCall(make(spec), "grad_x", 3, False)
        sys.argv = ["bcdcert"] + sys.argv[1:]
        cli.entry()
        """
    )
    proc = cli_process("-c", script, "run", "--config", cfg, "--out", out)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    summary = json.load(open(out + ".summary.json"))
    assert summary["stop_reason"] == "error"
    assert summary["error"]["type"] == "NonFiniteValue"
    assert summary["certified"] is False
    assert summary["T"] == 2
    assert len(read_trace(out + ".trace.csv")) == 2


def test_run_baseline_whose_record_overflows_writes_a_summary(tmp_path):
    # the baseline's joint gradient norm squared overflows at its start, so
    # its first required decrease is inf: the run ends on that failed test,
    # not on a bare ValueError
    cfg = write_cfg(
        tmp_path,
        """
        [problem]
        family = tight_quadratic
        l = 4
        anchor = 1
        g = 1e200

        [solver]
        start_x = 1.0

        [baseline]
        step = 1e-300
        max_iters = 3
        """,
    )
    out = str(tmp_path / "overflow")
    proc = cli_process("-m", "bcdcert.cli", "run", "--config", cfg, "--out", out, "--quiet")
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    base = json.loads(Path(out + ".summary.json").read_text())["baseline"]
    assert base["stop_reason"] == "error" and base["T"] == 0
    assert base["error"]["type"] == "SufficientDecreaseViolated"
    assert base["error"]["message"].startswith("decrease 0 < required inf with declared L=1e+300")


def test_run_config_error_exit(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[problem]\nfamily = nope\n")
    assert run_cli(["run", "--config", cfg]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize(
    "line,message",
    [
        ("backtrack_l_init = -1", "backtrack_l_init must be positive"),
        ("backtrack_growth = 1", "backtrack_growth must exceed 1"),
        ("backtrack_max_rejects = 0", "backtrack_max_rejects must be at least 1"),
    ],
)
def test_bad_backtrack_values_are_config_errors(tmp_path, capsys, command, line, message):
    # these once escaped parse_config as a ValueError traceback
    cfg = write_cfg(tmp_path, COUPLED + f"[solver]\n{line}\n")
    assert run_cli([command, "--config", cfg]) == 1
    assert capsys.readouterr().err == f"config error: [solver] {message}\n"


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize(
    "extra,flags,message",
    [
        ("seed = -2\n", [], "[problem] seed must be non-negative"),
        ("[solver]\nseed = -2\n", [], "[solver] seed must be non-negative"),
        ("", ["--seed", "-1"], "--seed must be non-negative"),
    ],
    ids=["problem", "solver", "flag"],
)
def test_a_negative_seed_is_a_config_error(tmp_path, capsys, command, extra, flags, message):
    # numpy's "expected non-negative integer" once ended run in a traceback
    cfg = write_cfg(tmp_path, "[problem]\nfamily = coupled_quadratic\n" + extra)
    out = ["--out", str(tmp_path / "neg")] if command == "run" else []
    assert run_cli([command, "--config", cfg, *flags, *out]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


# --- report command ----------------------------------------------------------


def fresh_trace(tmp_path, extra="", out_name="rep"):
    cfg = write_cfg(tmp_path, COUPLED + extra, name=f"{out_name}.ini")
    out = str(tmp_path / out_name)
    assert run_cli(["run", "--config", cfg, "--out", out, "--quiet"]) == 0
    return out + ".trace.csv"


def test_report_fresh_trace(tmp_path, capsys):
    trace = fresh_trace(tmp_path)
    assert run_cli(["report", trace]) == 0
    out = capsys.readouterr().out
    assert "rows:" in out
    assert "telescope bound at every prefix: True" in out
    assert "rate bound at every prefix: True" in out


def test_report_detects_edited_cell(tmp_path, capsys):
    trace = fresh_trace(tmp_path)
    lines = open(trace).read().splitlines()
    cells = lines[4].split(",")
    cells[3] = repr(float(cells[3]) - 1e-9)  # f_after_y mid-trace
    lines[4] = ",".join(cells)
    bad = str(tmp_path / "edited.trace.csv")
    open(bad, "w").write("\n".join(lines) + "\n")
    assert run_cli(["report", bad]) == 2
    assert "row" in capsys.readouterr().err


def test_report_bad_schema(tmp_path, capsys):
    trace = fresh_trace(tmp_path)
    bad = str(tmp_path / "short.trace.csv")
    lines = open(trace).read().splitlines()
    lines[1] = lines[1].rsplit(",", 2)[0]
    open(bad, "w").write("\n".join(lines) + "\n")
    assert run_cli(["report", bad]) == 1
    assert "error:" in capsys.readouterr().err


def test_report_missing_file(tmp_path, capsys):
    assert run_cli(["report", str(tmp_path / "missing.trace.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_report_short_history_notes_it(tmp_path, capsys):
    trace = fresh_trace(tmp_path, extra="[solver]\nmax_iters = 1\n", out_name="onerow")
    assert run_cli(["report", trace]) == 0
    assert "insufficient history" in capsys.readouterr().out


ROSENBROCK_SEED_1 = """
    [problem]
    family = two_block_rosenbrock
    scale = 2.0

    [solver]
    x_strategy = backtracking
    grad_tol = 1e-12
    seed = 1
"""


def test_run_and_report_state_the_vacuous_steps_and_the_gradient_floor(tmp_path, capsys):
    # Pinned: 282 of the 412 steps of this run require a decrease of at most
    # check_tol = 1e-10, and its floor sqrt(2 * e_max * check_tol) =
    # sqrt(2 * 32 * 1e-10) lies far above the grad_tol it meets.
    cfg = write_cfg(tmp_path, ROSENBROCK_SEED_1)
    out = str(tmp_path / "vac")
    assert run_cli(["run", "--config", cfg, "--out", out, "--quiet"]) == 0
    summary = json.load(open(out + ".summary.json"))
    assert (summary["T"], summary["vacuous_steps"], summary["stop_reason"]) == (412, 282, "grad_tol_met")
    assert (summary["e_max"], summary["check_tol"]) == (32.0, 1e-10)
    assert summary["grad_floor"] == math.sqrt(2.0 * 32.0 * 1e-10) == 8e-05
    assert run_cli(["report", out + ".trace.csv"]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "vacuous steps (required decrease <= tolerance): 282",
        "gradient floor sqrt(2 e_max tol): 8e-05",
    ]


MF_6X5 = """
    [problem]
    family = matrix_factorization
    m = 6
    n = 5
    r = 2
    seed = 3

    [solver]
    x_strategy = backtracking
"""


def test_report_refolds_an_honest_trace_with_the_runs_tolerance(tmp_path, capsys):
    # Row 80 of this run is certified at the run's tolerance but not at
    # 1e-16. report can only refold with the tolerance the trace implies, so
    # no config may set another one.
    cfg = write_cfg(tmp_path, MF_6X5 + "    check_tol = 1e-16\n", name="tol.ini")
    assert run_cli(["run", "--config", cfg, "--out", str(tmp_path / "tol"), "--quiet"]) == 1
    assert "check_tol" in capsys.readouterr().err

    out = str(tmp_path / "mf")
    cfg = write_cfg(tmp_path, MF_6X5, name="mf.ini")
    assert run_cli(["run", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert len(read_trace(out + ".trace.csv")) > 80
    assert run_cli(["report", out + ".trace.csv", "--quiet"]) == 0


def test_run_and_report_agree_when_two_e_max_overflows(tmp_path, capsys):
    # every step certifies but f never drops, and 2 e_max overflows: the rate
    # bound is 0 (not inf * 0 = NaN), so both refuse the rate claim alike
    cfg = write_cfg(
        tmp_path,
        """
        [problem]
        family = coupled_quadratic
        n_x = 4
        n_y = 3

        [solver]
        x_strategy = backtracking
        backtrack_l_init = 1e308
        max_iters = 5
        """,
    )
    out = str(tmp_path / "flat")
    assert run_cli(["run", "--config", cfg, "--out", out, "--quiet"]) == 2
    summary = json.load(open(out + ".summary.json"))
    assert summary["all_steps_ok"] is True and summary["rate_bound_ok"] is False
    assert summary["rate_bound"] == 0.0
    assert run_cli(["report", out + ".trace.csv"]) == 2
    assert "rate bound at every prefix: False" in capsys.readouterr().out


def test_report_accepts_an_honest_trace_with_an_infinite_rate_bound(tmp_path, capsys):
    # a certified run whose declared constant is 1e308 writes inf into
    # rate_bound_prefix; the refold reaches the same inf, so the file is sound
    cfg = write_cfg(
        tmp_path,
        """
        [problem]
        family = coupled_quadratic
        n_x = 4
        n_y = 3
        lipschitz_override = 1e308

        [solver]
        x_strategy = exact_min
        max_iters = 5
        """,
    )
    out = str(tmp_path / "huge_l")
    assert run_cli(["run", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert json.load(open(out + ".summary.json"))["certified"] is True
    assert np.isinf(read_trace(out + ".trace.csv").rate_bound_prefix).all()
    assert run_cli(["report", out + ".trace.csv"]) == 0
    assert "rate bound at every prefix: True" in capsys.readouterr().out


# --- check command -----------------------------------------------------------


def test_check_passes_on_consistent_oracles(tmp_path, capsys):
    cfg = write_cfg(tmp_path, COUPLED)
    assert run_cli(["check", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "fd_gradients" in out and "lipschitz_probe" in out
    payload = json.loads(out[out.index("{"):])
    assert payload["passed"] is True
    names = [c["name"] for c in payload["checks"]]
    assert names == ["fd_gradients", "exact_min_y", "exact_min_x", "lipschitz_probe"]


def test_check_flags_understated_curvature(tmp_path, capsys):
    cfg = write_cfg(tmp_path, COUPLED + "lipschitz_override = 0.001\n")
    assert run_cli(["check", "--config", cfg]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and "lipschitz_probe" in out


def test_check_skips_empty_y_block(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TIGHT)
    assert run_cli(["check", "--config", cfg]) == 0
    # one line per check, in check order, its payload keys in order
    assert capsys.readouterr().out.splitlines()[:4] == [
        "[  ok] fd_gradients: ok (max_rel_err=2.0466360410493966e-11, worst_coordinate=['x', 0], points=20)",
        "[  --] exact_min_y: skipped (empty block)",
        "[  ok] exact_min_x: ok (max_rel_residual=0.0)",
        "[  ok] lipschitz_probe: ok (max_probe_over_declared=1.0)",
    ]


def test_check_skips_missing_oracles(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[problem]\nfamily = two_block_rosenbrock\n")
    assert run_cli(["check", "--config", cfg]) == 0
    assert "skipped (no oracle)" in capsys.readouterr().out


def test_check_quiet_still_prints_json(tmp_path, capsys):
    cfg = write_cfg(tmp_path, COUPLED)
    assert run_cli(["check", "--config", cfg, "--quiet"]) == 0
    out = capsys.readouterr().out
    assert out.lstrip().startswith("{")
    assert json.loads(out)["passed"] is True


def test_check_seed_overrides_the_problem_seed_too(tmp_path, capsys):
    # `check --seed N` checks the instance `run --seed N` solves, at check
    # points drawn from N, not the config's instance at new points
    def check(problem_seed, *extra, solver=""):
        text = f"[problem]\nfamily = coupled_quadratic\nseed = {problem_seed}\n{solver}"
        cfg = write_cfg(tmp_path, text)
        assert run_cli(["check", "--config", cfg, "--points", "2", "--quiet", *extra]) == 0
        return capsys.readouterr().out

    seeded = check(3, "--seed", "5")
    assert seeded == check(5, "--seed", "5")
    assert seeded == check(5, solver="[solver]\nseed = 5\n")
    assert seeded != check(3, solver="[solver]\nseed = 5\n")


def test_oracle_checks_have_one_home():
    assert cli.run_oracle_checks is numerics.run_oracle_checks


def test_check_asks_each_oracle_only_for_answers_it_uses(tmp_path, capsys, monkeypatch):
    # 8 points: 5 minimizer probes per block and 3 Lipschitz probes; the
    # first answer of each oracle also tells whether it exists
    calls = dict.fromkeys(("exact_min_y", "exact_min_x", "lipschitz_x"), 0)

    def counting(spec):
        obj = make_problem(spec)
        for kind in calls:
            def counted(arg, kind=kind, oracle=getattr(obj, kind)):
                calls[kind] += 1
                return oracle(arg)
            setattr(obj, kind, counted)
        return obj

    monkeypatch.setattr("bcdcert.cli.make_problem", counting)
    cfg = write_cfg(tmp_path, COUPLED)
    assert run_cli(["check", "--config", cfg, "--points", "8", "--quiet"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert calls == {"exact_min_y": 5, "exact_min_x": 5, "lipschitz_x": 3}


def test_check_rejects_zero_points(tmp_path, capsys):
    cfg = write_cfg(tmp_path, COUPLED)
    assert run_cli(["check", "--config", cfg, "--points", "0"]) == 1
    assert capsys.readouterr().err == "error: points must be at least 1\n"
    with pytest.raises(ValueError):
        run_oracle_checks(zoo_problem("coupled_quadratic"), points=0)


@pytest.mark.parametrize(
    "kind,fail_at,wrong_size,error",
    [
        ("grad_x", 1, False, NonFiniteValue),
        ("grad_y", 1, True, DimensionMismatch),
        ("lipschitz_x", 1, False, NonFiniteValue),  # the answer that shows it exists is checked too
        ("lipschitz_x", 2, False, NonFiniteValue),
    ],
)
def test_oracle_checks_refuse_a_broken_oracle(
    tmp_path, capsys, monkeypatch, kind, fail_at, wrong_size, error
):
    # these once passed (NaN compares false against every threshold) or
    # crashed with an IndexError
    def broken(spec):
        return BreaksAtCall(make_problem(spec), kind, fail_at, wrong_size)

    cfg = write_cfg(tmp_path, COUPLED)
    with pytest.raises(error):
        run_oracle_checks(broken(parse_config(cfg).spec), points=3, seed=0)
    monkeypatch.setattr("bcdcert.cli.make_problem", broken)
    assert run_cli(["check", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_oracle_checks_name_a_broken_gradient_coordinate():
    base = zoo_problem("coupled_quadratic", seed=2)

    class Corrupted(CoupledQuadratic):
        def grad_x(self, p):
            g = super().grad_x(p)
            g[2] += 0.5
            return g

    bad = Corrupted(base.A, base.B, base.C, base.a, base.c)
    passed, payload = run_oracle_checks(bad, points=5, seed=0)
    assert not passed
    fd = payload["checks"][0]
    assert fd["name"] == "fd_gradients" and fd["status"] == "fail"
    assert fd["worst_coordinate"] == ["x", 2]


def declines_after_its_first_answer(obj, kind, decline):
    """``obj`` whose ``kind`` oracle answers once, then declines by ``decline()``."""
    oracle, calls = getattr(obj, kind), []

    def answer(arg):
        calls.append(arg)
        return oracle(arg) if len(calls) == 1 else decline()

    setattr(obj, kind, answer)
    return obj


def _raise_missing():
    raise MissingExactMinimizer("declined")


@pytest.mark.parametrize("decline", [lambda: None, _raise_missing], ids=["none", "raises"])
def test_oracle_checks_leave_out_a_point_where_exact_min_y_declines(decline):
    # a None here once raised NonFiniteValue ("y contains NaN/Inf entries")
    obj = declines_after_its_first_answer(zoo_problem("coupled_quadratic"), "exact_min_y", decline)
    passed, payload = run_oracle_checks(obj, points=5, seed=0)
    assert passed
    check = payload["checks"][1]
    assert check["name"] == "exact_min_y" and check["status"] == "ok"
    assert check["max_rel_residual"] <= 1e-10


def test_oracle_checks_leave_out_a_point_where_lipschitz_x_declines():
    # once a DimensionMismatch ("lipschitz_x has shape ()")
    obj = declines_after_its_first_answer(zoo_problem("coupled_quadratic"), "lipschitz_x", lambda: None)
    passed, payload = run_oracle_checks(obj, points=5, seed=0)
    assert passed
    check = payload["checks"][-1]
    assert check["name"] == "lipschitz_probe" and check["status"] == "ok"
    assert check["max_probe_over_declared"] <= 1.0 + 1e-6


def test_check_skips_exact_min_x_of_a_singular_quadratic_and_probes_lipschitz(
    tmp_path, capsys, monkeypatch
):
    # A is PSD but singular: exact_min_x raises MissingExactMinimizer, which
    # once aborted the whole check with exit 1
    singular = CoupledQuadratic([[2.0, 0.0], [0.0, 0.0]], [[1.0], [0.5]], [[3.0]], [1.0, -1.0], [0.5])
    monkeypatch.setattr("bcdcert.cli.make_problem", lambda spec: singular)
    cfg = write_cfg(tmp_path, COUPLED)
    assert run_cli(["check", "--config", cfg, "--quiet"]) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["exact_min_y"]["status"] == "ok"
    assert checks["exact_min_x"]["status"] == "skipped (no oracle)"
    assert checks["lipschitz_probe"]["status"] == "ok"
