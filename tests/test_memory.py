"""Traced memory of the row paths on a 100 000-row run.

Walking, writing, reading and verifying a long History must not hold a
Python float per cell: each path's traced peak stays within a few MB of the
arrays it cannot avoid (none for iteration, the fold's derived columns for
``verify_trace``, the parsed table for ``read_trace``). ``write_trace``
derives nothing: it renders the nine columns the History carries, one
block of lines at a time, so its peak is pinned absolutely (WRITE_PEAK),
below the DERIVED_BYTES a refold of the History would allocate. The
History is built through ``History.from_rows``, outside every traced call.
"""

import tracemalloc

import numpy as np
import pytest

from bcdcert.audit import RAW_FIELDS
from bcdcert.traceio import History, read_trace, verify_trace, write_trace

N = 100_000
SLACK = 3e6  # bytes
WRITE_PEAK = 1.5e6  # bytes
# the fold's derived columns: a suff_ok byte and two float64 (cum_sum, rate_bound_prefix) per row
DERIVED_BYTES = N * (1 + 2 * 8)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def consume(rows):
    for _ in rows:
        pass


@pytest.fixture(scope="module")
def history():
    rng = np.random.default_rng(3)
    f = np.cumsum(rng.random(N + 1))[::-1]
    rows = np.column_stack((f[:-1], f[:-1] - 0.5 * rng.random(N), f[1:], rng.random(N), rng.random(N),
                            1.0 + rng.random(N)))
    return History.from_rows(rows)


def test_iterating_holds_one_block(history):
    assert traced_peak(lambda: next(iter(history))) < SLACK
    assert traced_peak(consume, history) < SLACK


def test_write_trace_holds_one_block_of_lines(history, tmp_path):
    assert traced_peak(write_trace, str(tmp_path / "long.trace.csv"), history) < WRITE_PEAK


def test_verify_trace_holds_no_more_than_its_derived_columns(history, tmp_path):
    path = str(tmp_path / "long.trace.csv")
    write_trace(path, history)  # untraced
    trace = read_trace(path)
    assert traced_peak(verify_trace, trace) < DERIVED_BYTES + SLACK


def test_read_trace_holds_no_more_than_its_table(history, tmp_path):
    path = str(tmp_path / "long.trace.csv")
    write_trace(path, history)  # untraced
    table_bytes = N * (len(RAW_FIELDS) + 2) * 8
    assert traced_peak(read_trace, path) < table_bytes + SLACK
