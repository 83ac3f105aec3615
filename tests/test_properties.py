"""Property tests: trace round trip, no escaping errors, tamper audit.

Each property draws a bundled family with one of its applicable strategies,
an instance seed and a run length, so the examples cover every x-strategy,
both y-paths and runs that stop at the roundoff floor.
"""

import dataclasses
import os
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bcdcert.audit import check_tol_for
from bcdcert.errors import BcdcertError, TamperDetected
from bcdcert.solver import SolverConfig, StopReason, solve
from bcdcert.traceio import read_trace, verify_trace, write_trace

from conftest import ALL_COMBOS, BreaksAtCall, zoo_problem, zoo_start

SETTINGS = settings(max_examples=20, deadline=None)

runs = st.fixed_dictionaries(
    {
        "combo": st.sampled_from(ALL_COMBOS),
        "seed": st.integers(0, 10_000),
        "grad_tol": st.sampled_from([1e-9, 1e-300]),
        "max_iters": st.integers(2, 120),
    }
)


def run(draw, wrap=None):
    """Solve the drawn run, on the objective as ``wrap(objective)`` if given."""
    family, strategy = draw["combo"]
    seed = draw["seed"]
    base = zoo_problem(family, seed=seed)
    obj = base if wrap is None else wrap(base)
    cfg = SolverConfig(x_strategy=strategy, grad_tol=draw["grad_tol"], max_iters=draw["max_iters"])
    return solve(obj, zoo_start(base, seed), cfg)


def written(history):
    fd, path = tempfile.mkstemp(suffix=".trace.csv")
    os.close(fd)
    write_trace(path, history)
    return path


@SETTINGS
@given(runs)
def test_written_history_verifies_as_the_run_certified(draw):
    res = run(draw)
    path = written(res.history)
    try:
        rows = read_trace(path)
    finally:
        os.unlink(path)
    cert = verify_trace(rows)  # an honest trace never raises TamperDetected
    assert check_tol_for(cert.f0) == res.check_tol
    assert [row.record.suff_ok for row in rows] == [rec.suff_ok for rec in res.history]
    # the audit reaches the run's own certificate; only the run knows it stopped on an error
    assert cert == dataclasses.replace(res.certificate, invalidated=False)


@SETTINGS
@given(
    runs,
    st.sampled_from(BreaksAtCall.KINDS),
    st.integers(1, 60),
    st.booleans(),
)
def test_a_breaking_oracle_never_escapes_solve(draw, kind, fail_at, wrong_size):
    res = run(draw, wrap=lambda base: BreaksAtCall(base, kind, fail_at, wrong_size))
    if res.stop_reason is StopReason.ERROR:
        assert isinstance(res.error, BcdcertError)
        assert not res.certificate.passed()
    # whatever happened, the partial history is an honest trace
    path = written(res.history)
    try:
        verify_trace(read_trace(path))
    finally:
        os.unlink(path)


# suff_ok, cum_sum and rate_bound_prefix are derived; f_before (after the
# first row) and f_after_y (before the last) are chained to a neighbour.
DERIVED = (7, 8, 9)


@SETTINGS
@given(runs, st.data())
def test_editing_a_derived_or_chained_cell_is_detected(draw, data):
    res = run(draw)
    n = len(res.history)
    assume(n >= 2)
    row = data.draw(st.integers(0, n - 1), label="row")
    cols = list(DERIVED) + ([1] if row > 0 else []) + ([3] if row < n - 1 else [])
    col = data.draw(st.sampled_from(cols), label="col")

    path = written(res.history)
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
        cells = lines[1 + row].split(",")
        if col == 7:
            cells[col] = "0" if cells[col] == "1" else "1"
        else:
            old = float(cells[col])
            new = data.draw(
                st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != old),
                label="new value",
            )
            cells[col] = repr(new)
        lines[1 + row] = ",".join(cells)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        rows = read_trace(path)
    finally:
        os.unlink(path)
    with pytest.raises(TamperDetected):
        verify_trace(rows)
