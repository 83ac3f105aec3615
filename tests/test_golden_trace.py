"""A committed trace that ``run`` must reproduce byte for byte and ``report`` must verify.

``data/rosenbrock500.ini`` is a 500-iteration backtracking run on the
scale-100 two-block Rosenbrock function, and ``data/rosenbrock500.trace.csv``
is the trace ``bcdcert run`` wrote for it. Any change to the solver's
arithmetic, the fold or the float formatting shows up here as a byte
difference, on every Python and numpy version the tests run on.
"""

from pathlib import Path

from bcdcert.cli import main
from bcdcert.traceio import read_trace

DATA = Path(__file__).resolve().parent / "data"
CONFIG = DATA / "rosenbrock500.ini"
GOLDEN = DATA / "rosenbrock500.trace.csv"


def test_run_writes_the_golden_trace_byte_for_byte(tmp_path):
    out = tmp_path / "ros"
    assert main(["run", "--config", str(CONFIG), "--out", str(out), "--quiet"]) == 0
    assert (tmp_path / "ros.trace.csv").read_bytes() == GOLDEN.read_bytes()


def test_report_verifies_the_golden_trace(capsys):
    assert main(["report", str(GOLDEN)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == [
        "rows: 500",
        "all steps certified: True",
        "telescope bound at every prefix: True",
        "rate bound at every prefix: True",
    ]
    assert len(read_trace(str(GOLDEN))) == 500
