"""The trace checker, ``bcdcert.audit``, against the reference fold, and the trace layer without numpy.

``report`` and ``verify_trace`` decide with ``audit.refold``, the one
certificate fold, which ``solve()`` uses too. These tests hold it to
``test_fold.reference_fold`` as the checker feeds it: columns of the
standard library's ``array('d')``, or strided views of the one parsed
buffer, as ``read_trace`` holds them. On generated histories and on the
traces of every ``tests/data`` config, suff_ok, cum_sum and
rate_bound_prefix agree bit for bit (the sign of a zero counts), and so
does every ``Certificate`` field. The whole trace layer (``from_rows``,
iteration, ``write_trace``, ``read_trace``, ``verify_trace`` and
``report``) must run with numpy absent and give what it gives with numpy
present.
"""

import dataclasses
import math
import os
import subprocess
import sys
import textwrap
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcdcert import audit
from bcdcert.audit import RAW_FIELDS, Certificate
from bcdcert.cli import main
from bcdcert.errors import SchemaMismatch
from bcdcert.traceio import History, read_trace, verify_trace, write_trace

from test_fold import assert_matches_reference, bits, chained_rows, raw_rows, reference_fold

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
GOLDEN = DATA / "rosenbrock500.trace.csv"


def assert_same_certificate(got, want):
    for field in dataclasses.fields(Certificate):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert type(a) is type(b), field.name
        if isinstance(b, float):
            assert bits([a]) == bits([b]), field.name
        else:
            assert a == b, field.name


def assert_refold_matches_reference(rows):
    """``refold`` of ``rows`` as array('d') columns is the reference fold's, bit for bit; its certificate."""
    columns = [array("d", column) for column in zip(*rows)]
    return assert_matches_reference(audit.refold(*columns), rows)[1]


# 0.0, -0.0 and repeated values, so that minima and maxima tie; with f0 <= 1
# the tolerance is 1e-10, which g_sq = 1e-10 and e = 0.5 put on the vacuous
# bound, and with no drop on the rate bound
tied_rows = st.lists(
    st.tuples(
        st.sampled_from([1.0, 0.5]),
        st.sampled_from([0.5, 0.25]),
        st.sampled_from([0.25, 0.5]),
        st.sampled_from([0.0, -0.0, 1e-10, 0.25, 1.0]),
        st.sampled_from([0.0, -0.0, 1e-9]),
        st.sampled_from([0.5, 1.0, 2.0, 1e308]),
    ),
    min_size=1,
    max_size=30,
)


@settings(deadline=None, max_examples=200)
@given(chained_rows())
def test_refold_matches_the_reference_on_steps_at_the_tolerance(rows):
    assert_refold_matches_reference(rows)


@settings(deadline=None, max_examples=200)
@given(raw_rows)
def test_refold_matches_the_reference_on_any_valid_rows(rows):
    # unchained and extreme: cum_sum and rate_bound_prefix overflow to inf
    assert_refold_matches_reference(rows)


@settings(deadline=None, max_examples=200)
@given(tied_rows)
@example([(0.5, 0.5, 0.5, 1e-10, 0.0, 0.5)])  # required decrease and rate bound both tie with tol
def test_refold_matches_the_reference_on_tied_and_signed_zero_values(rows):
    assert_refold_matches_reference(rows)


@pytest.mark.parametrize("f0", [3.5, math.nan])
def test_refold_of_nothing_is_the_fresh_certificate(f0):
    suff_ok, cum_sum, bound, cert = audit.refold([], [], [], [], [], [], f0)
    assert len(suff_ok) == len(cum_sum) == len(bound) == 0
    assert_same_certificate(cert, Certificate.fresh(f0))


@settings(deadline=None, max_examples=50)
@given(chained_rows())
def test_an_honest_trace_verifies_to_the_reference_certificate(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("audit") / "t.trace.csv"
    write_trace(str(path), History.from_rows(rows))
    assert_same_certificate(verify_trace(read_trace(str(path))), Certificate(**reference_fold(rows)[3]))


@pytest.fixture(scope="module")
def data_traces(tmp_path_factory):
    """Every trace the tests/data configs write (a baseline run's too), and the golden trace."""
    out = tmp_path_factory.mktemp("data")
    traces = [GOLDEN]
    for config in sorted(DATA.glob("*.ini")):
        assert main(["run", "--config", str(config), "--out", str(out / config.stem), "--quiet"]) == 0
        traces += sorted(out.glob(config.stem + ".*trace.csv"))
    assert len(traces) == 8
    return traces


def test_refold_matches_the_reference_on_every_data_trace(data_traces):
    for path in data_traces:
        trace = read_trace(str(path))
        cert = assert_refold_matches_reference(list(zip(*(getattr(trace, name) for name in RAW_FIELDS))))
        assert cert.passed()
        assert_same_certificate(verify_trace(trace), cert)


# --- the trace layer and report without numpy ---------------------------------


def python(*args):
    path = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def test_report_never_imports_numpy():
    # -X importtime lists every module the interpreter imports on stderr
    proc = python("-X", "importtime", "-m", "bcdcert.cli", "report", str(GOLDEN))
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
    assert "bcdcert.audit" in imported
    assert [name for name in imported if name.split(".")[0] == "numpy"] == []


def test_report_with_numpy_blocked_prints_the_same(data_traces):
    blocked = (
        "import sys; sys.modules['numpy'] = None; from bcdcert.cli import main; "
        "sys.exit(main(sys.argv[1:]))"
    )
    for path in data_traces:
        plain = python("-m", "bcdcert.cli", "report", str(path))
        without = python("-c", blocked, "report", str(path))
        assert plain.returncode == without.returncode == 0, without.stderr
        assert without.stdout == plain.stdout and without.stderr == ""


def test_importing_the_trace_layer_loads_no_numpy():
    code = "import sys, bcdcert.traceio; print([m for m in sys.modules if m.split('.')[0] == 'numpy'])"
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# Builds, walks, writes, reads and verifies a History, and rewrites a parsed
# trace, in a process where importing numpy fails.
TRACE_LAYER_WITHOUT_NUMPY = textwrap.dedent("""
    import sys
    sys.modules["numpy"] = None
    from bcdcert.traceio import History, read_trace, verify_trace, write_trace

    rows, golden, chain_out, golden_out = eval(sys.argv[1]), *sys.argv[2:]
    history = History.from_rows(rows)
    records = list(history)
    assert records == [history[t] for t in range(len(rows))] and history == records
    assert [r.t for r in records] == list(range(len(rows))) and all(r.suff_ok is True for r in records)
    write_trace(chain_out, history)
    trace = read_trace(chain_out)
    assert [row.record for row in trace] == records
    cert = verify_trace(trace)
    assert cert == verify_trace(history)
    write_trace(golden_out, read_trace(golden))
    print(cert.passed(), cert.num_steps, verify_trace(read_trace(golden_out)).passed())
""")


def test_the_trace_layer_runs_with_numpy_blocked(tmp_path):
    rows = [(0.25, 0.125, 0.0625, 0.25, 0.0, 1.0), (0.0625, 0.03125, 0.015625, 0.0625, 0.0, 1.0)]
    chain, rewritten = tmp_path / "chain.trace.csv", tmp_path / "golden.trace.csv"
    proc = python("-c", TRACE_LAYER_WITHOUT_NUMPY, repr(rows), str(GOLDEN), str(chain), str(rewritten))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True 2 True\n" and proc.stderr == ""
    # the same bytes as with numpy present
    assert rewritten.read_bytes() == GOLDEN.read_bytes()
    write_trace(str(tmp_path / "here.trace.csv"), History.from_rows(rows))
    assert chain.read_bytes() == (tmp_path / "here.trace.csv").read_bytes()


def test_report_refuses_a_trace_that_is_not_utf8(tmp_path, capsys):
    # the text reader's UnicodeDecodeError once ended report in a traceback
    bad = tmp_path / "bad.csv"
    bad.write_bytes(GOLDEN.read_bytes().replace(b"\n0,", b"\n\xff\xfe0,", 1))
    with pytest.raises(SchemaMismatch, match=r"^row 0: not UTF-8 text"):
        read_trace(str(bad))
    assert main(["report", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: row 0: not UTF-8 text")
    blocked = python("-c", "import sys; sys.modules['numpy'] = None; from bcdcert.cli import main; "
                     "sys.exit(main(sys.argv[1:]))", "report", str(bad))
    assert blocked.returncode == 1 and blocked.stderr.startswith("error: row 0: not UTF-8 text")
