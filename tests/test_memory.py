"""Traced memory of the row paths on a 100 000-row run.

Walking, writing and reading a long History must not hold a Python float
per cell: each path's traced peak stays within a few MB of the arrays it
cannot avoid (none for iteration, ``fold``'s for ``write_trace``, the
parsed table for ``read_trace``).
"""

import tracemalloc

import numpy as np
import pytest

from bcdcert.certificate import RAW_FIELDS, History, fold
from bcdcert.traceio import read_trace, write_trace

N = 100_000
SLACK = 3e6  # bytes


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
    return History(f[:-1], f[:-1] - 0.5 * rng.random(N), f[1:], rng.random(N), rng.random(N),
                   1.0 + rng.random(N), rng.random(N) < 0.5)


def test_iterating_holds_one_block(history):
    assert traced_peak(lambda: next(iter(history))) < SLACK
    assert traced_peak(consume, history) < SLACK


def test_write_trace_holds_no_more_than_the_fold(history, tmp_path):
    fold_peak = traced_peak(fold, history)
    assert traced_peak(write_trace, str(tmp_path / "long.trace.csv"), history) < fold_peak + SLACK


def test_read_trace_holds_no_more_than_its_table(history, tmp_path):
    path = str(tmp_path / "long.trace.csv")
    write_trace(path, history)  # untraced
    table_bytes = N * (len(RAW_FIELDS) + 2) * 8
    assert traced_peak(read_trace, path) < table_bytes + SLACK
