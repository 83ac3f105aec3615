"""Row views across block boundaries: iteration, trace writing and reading, equality.

A History is walked ``_BLOCK`` rows at a time (``certificate.row_blocks``);
these runs are two blocks and three rows long, so every path crosses two
block boundaries and ends in a short block.
"""

import numpy as np
import pytest

from bcdcert.audit import RAW_FIELDS
from bcdcert.certificate import _BLOCK, History, IterationRecord
from bcdcert.traceio import TRACE_HEADER, Trace, read_trace, write_trace

from test_fold import fold_history

N = 2 * _BLOCK + 3


def long_history(n=N, seed=0):
    """n valid rows of varied magnitude, with -0.0, subnormals and huge values mixed in.

    Tiny e_t make some required decreases overflow, so the derived columns
    hold inf as well.
    """
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-300, 300, size=(len(RAW_FIELDS), n))
    cols = rng.standard_normal((len(RAW_FIELDS), n)) * scale
    cols[3:] = np.abs(cols[3:])  # gx_norm_sq, gy_residual, e_t
    cols[3, ::97] = -0.0
    cols[4, ::89] = 5e-324
    cols[5] = np.where(cols[5] > 0, cols[5], 1.0)
    return History(*cols, suff_ok=rng.random(n) < 0.5)


@pytest.fixture(scope="module")
def history():
    return long_history()


@pytest.fixture(scope="module")
def written(history, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("blocks") / "long.trace.csv")
    write_trace(path, history)
    return path


def test_iteration_equals_indexing_across_blocks(history):
    rows = list(history)
    assert len(rows) == N
    assert all(row == history[t] for t, row in enumerate(rows))
    assert [row.t for row in rows] == list(range(N))


def test_trace_iteration_equals_indexing_across_blocks(written):
    trace = read_trace(written)
    rows = list(trace)
    assert len(rows) == N
    assert all(row == trace[t] for t, row in enumerate(rows))


def test_write_trace_matches_a_row_by_row_rendering(history, written):
    suff_ok, cum_sum, rate_bound, _ = fold_history(history)
    lines = [TRACE_HEADER]
    for t in range(N):
        rec = history[t]
        cells = [str(t)] + [repr(getattr(rec, name)) for name in RAW_FIELDS]
        cells += ["1" if suff_ok[t] else "0", repr(cum_sum[t]), repr(rate_bound[t])]
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
    assert trace.suff_ok.tolist() == list(suff_ok)


def test_read_trace_columns_share_one_buffer(written):
    trace = read_trace(written)
    base = trace.f_before.base
    assert not trace.f_before.flags.owndata and base is not None
    for name in Trace._fields:
        if name != "suff_ok":
            assert getattr(trace, name).base is base, name


def test_equality_across_blocks(history, written):
    same = History(*(getattr(history, name).copy() for name in History._fields))
    assert history == same
    assert history == list(same)
    assert history != History(*(getattr(history, name)[:-1] for name in History._fields))
    last = same.e_t.copy()
    last[-1] = np.nextafter(last[-1], np.inf)
    changed = History(*(last if name == "e_t" else getattr(same, name) for name in History._fields))
    assert history != changed
    # a TraceRow never equals an IterationRecord, as in a list comparison
    assert read_trace(written) != history
    empty = History(*([] for _ in History._fields))
    assert empty == [] and history != []


def test_equality_stops_at_the_first_differing_row(history, monkeypatch):
    built = []

    class Counted(IterationRecord):
        def __post_init__(self):
            built.append(self.t)
            super().__post_init__()

    monkeypatch.setattr("bcdcert.certificate.IterationRecord", Counted)
    first = history.f_before.copy()
    first[0] = np.nextafter(first[0], np.inf)
    other = History(*(first if name == "f_before" else getattr(history, name) for name in History._fields))
    assert history != other
    assert built == [0, 0]
