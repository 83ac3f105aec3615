"""The package root: what ``import bcdcert`` offers and what the README shows."""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import bcdcert

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_the_root_exports_these_names():
    assert bcdcert.__all__ == [
        "BacktrackParams", "BcdcertError", "BlockPoint", "Certificate", "History", "IterationRecord",
        "Objective", "ProblemSpec", "RunResult", "SolverConfig", "StopReason", "XUpdateResult",
        "backtracking_gradient_x", "exact_min_x", "fixed_step_gradient_x", "make_problem",
        "random_start", "read_trace", "solve", "solve_gd_baseline", "stationary_y",
        "verify_trace", "write_trace",
    ]


def test_every_exported_name_resolves():
    assert len(set(bcdcert.__all__)) == len(bcdcert.__all__)
    missing = [name for name in bcdcert.__all__ if not hasattr(bcdcert, name)]
    assert missing == []


def test_every_exported_name_is_in_the_readme():
    # the root offers what the README documents, and nothing more
    readme = README.read_text()
    undocumented = [name for name in bcdcert.__all__ if not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert undocumented == []


def test_readme_library_snippet_runs():
    section = README.read_text().split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, "README.md", "exec"), {})
    passed, rate_bound, min_grad_sq = out.getvalue().split()
    assert passed == "True"
    assert float(min_grad_sq) <= float(rate_bound)


def test_library_modules_load_neither_the_cli_nor_argparse():
    # the oracle checks and the solver are library code: importing them must
    # not pull in the command line
    code = (
        "import sys, bcdcert.numerics, bcdcert.solver; "
        "print([m for m in ('bcdcert.cli', 'argparse') if m in sys.modules])"
    )
    path = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
