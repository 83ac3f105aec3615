"""A History's columns and the rows read from them: iteration, trace writing and reading, equality.

A History built from rows holds ``array('d')`` raw columns and the fold's
own buffers; a parsed one holds strided views of the one buffer the file
was parsed into. These runs are a few thousand rows of varied magnitude, so
every path meets -0.0, subnormals, huge values and overflowed sums.
"""

import math
from array import array

import numpy as np
import pytest

from bcdcert.audit import RAW_FIELDS
from bcdcert.traceio import TRACE_HEADER, History, IterationRecord, Trace, read_trace, write_trace

from test_fold import fold_history

N = 2051


def long_history(n=N, seed=0):
    """n valid rows of varied magnitude, with -0.0, subnormals and huge values mixed in.

    Built through ``History.from_rows``, so it carries the fold's derived
    columns; tiny e_t make some required decreases overflow, so those hold
    inf as well.
    """
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-300, 300, size=(len(RAW_FIELDS), n))
    cols = rng.standard_normal((len(RAW_FIELDS), n)) * scale
    cols[3:] = np.abs(cols[3:])  # gx_norm_sq, gy_residual, e_t
    cols[3, ::97] = -0.0
    cols[4, ::89] = 5e-324
    cols[5] = np.where(cols[5] > 0, cols[5], 1.0)
    return History.from_rows(cols.T)


@pytest.fixture(scope="module")
def history():
    return long_history()


@pytest.fixture(scope="module")
def written(history, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("columns") / "long.trace.csv")
    write_trace(path, history)
    return path


def test_iteration_equals_indexing(history):
    rows = list(history)
    assert len(rows) == N
    assert all(row == history[t] for t, row in enumerate(rows))
    assert [row.t for row in rows] == list(range(N))


def test_trace_iteration_equals_indexing(written):
    trace = read_trace(written)
    rows = list(trace)
    assert len(rows) == N
    assert all(row == trace[t] for t, row in enumerate(rows))


def test_write_trace_matches_a_row_by_row_rendering(history, written):
    # the history's own derived columns, as write_trace writes them
    assert 0 < sum(history.suff_ok) < N
    lines = [TRACE_HEADER]
    for t in range(N):
        rec = history[t]
        cells = [str(t)] + [repr(getattr(rec, name)) for name in RAW_FIELDS]
        cells += ["1" if rec.suff_ok else "0"]
        cells += [repr(history.cum_sum[t]), repr(history.rate_bound_prefix[t])]
        lines.append(",".join(cells))
    with open(written, "rb") as fh:
        assert fh.read() == ("\n".join(lines) + "\n").encode()


def test_read_trace_columns_are_bitwise_the_written_ones(history, written):
    suff_ok, cum_sum, rate_bound, _ = fold_history(history)
    trace = read_trace(written)
    assert len(trace) == N
    for name in RAW_FIELDS:
        assert getattr(trace, name).tobytes() == getattr(history, name).tobytes(), name
    assert trace.cum_sum.tobytes() == cum_sum.tobytes()
    assert trace.rate_bound_prefix.tobytes() == rate_bound.tobytes()
    assert list(trace.suff_ok) == list(suff_ok)


def test_read_trace_columns_share_one_buffer(written):
    trace = read_trace(written)
    base = trace.f_before.obj
    assert isinstance(base, array) and len(base) == 8 * N
    for name in Trace._fields:
        if name != "suff_ok":
            assert getattr(trace, name).obj is base, name
    # np.asarray views a column without a copy
    assert np.shares_memory(np.asarray(trace.e_t), np.frombuffer(base))


def test_column_types(history, written):
    for name in RAW_FIELDS + ("cum_sum", "rate_bound_prefix"):
        assert type(getattr(history, name)) is array and getattr(history, name).typecode == "d", name
    assert type(history.suff_ok) is bytearray and set(history.suff_ok) == {0, 1}
    assert type(read_trace(written).suff_ok) is bytearray
    assert np.shares_memory(np.asarray(history.e_t), np.frombuffer(history.e_t))


def test_equality(history, written):
    same = History(*(getattr(history, name)[:] for name in History.__slots__))
    assert history == same
    assert history == list(same)
    assert history != History(*(getattr(history, name)[:-1] for name in History.__slots__))
    last = same.e_t[:]
    last[-1] = math.nextafter(last[-1], math.inf)
    changed = History(*(last if name == "e_t" else getattr(same, name) for name in History.__slots__))
    assert history != changed
    # a TraceRow never equals an IterationRecord, as in a list comparison
    assert read_trace(written) != history
    empty = History(*([] for _ in History.__slots__))
    assert empty == [] and history != []


def test_equality_stops_at_the_first_differing_row(history, monkeypatch):
    built = []

    class Counted(IterationRecord):
        def __post_init__(self):
            built.append(self.t)
            super().__post_init__()

    monkeypatch.setattr("bcdcert.traceio.IterationRecord", Counted)
    first = history.f_before[:]
    first[0] = math.nextafter(first[0], math.inf)
    other = History(*(first if name == "f_before" else getattr(history, name) for name in History.__slots__))
    assert history != other
    assert built == [0, 0]
