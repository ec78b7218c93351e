import math
import os
import sys

import pytest
from hypothesis import given, settings, strategies as st

import ypfa.sweeps
from ypfa import InputError, SweepGrid
from ypfa.sweeps import map_ordered, write_csv


def test_grid_validation():
    with pytest.raises(InputError):
        SweepGrid(min=1.0, max=2.0, points=0)
    with pytest.raises(InputError):
        SweepGrid(min=2.0, max=1.0, points=5)
    with pytest.raises(InputError):
        SweepGrid(min=0.0, max=1.0, points=5)
    SweepGrid(min=1.0, max=1.0, points=1)  # single point ignores max


@pytest.mark.parametrize("lo, hi, points", [
    (1e-9, math.inf, 5),
    (math.nan, 1.0, 5),
    (1.0, math.nan, 5),
    (math.nan, math.nan, 1),
    (math.inf, math.inf, 1),
    (1e-300, 1e10, 5),                   # max/min overflows
    (3.0, sys.float_info.max, 5),        # max/min is finite, min * (max/min) is not
])
def test_grid_refuses_bounds_it_cannot_represent(lo, hi, points):
    with pytest.raises(InputError) as refused:
        SweepGrid(min=lo, max=hi, points=points)
    assert f"[{lo}, {hi}]" in str(refused.value)


def test_grid_values():
    log = SweepGrid(min=1e-9, max=1e-3, points=7).values()
    assert len(log) == 7
    assert log[0] == 1e-9 and log[-1] == 1e-3
    ratios = [b / a for a, b in zip(log, log[1:])]
    assert all(r == pytest.approx(ratios[0], rel=1e-12, abs=0.0) for r in ratios)

    assert SweepGrid(min=3.0, max=9.0, points=1).values() == [3.0]


_positive = st.floats(min_value=5e-324, max_value=sys.float_info.max)


@settings(max_examples=300, deadline=None)
@given(lo=_positive, hi=_positive, points=st.integers(2, 40))
def test_accepted_grid_values_are_finite_and_within_the_bounds(lo, hi, points):
    try:
        grid = SweepGrid(min=lo, max=hi, points=points)
    except InputError:
        assert not (lo < hi and math.isfinite(lo * (hi / lo)))
        return
    values = grid.values()
    assert len(values) == points and values[0] == lo
    ceiling = math.nextafter(math.nextafter(hi, math.inf), math.inf)  # max + 2 ulp
    assert all(0.0 < value <= ceiling and math.isfinite(value) for value in values), values


def test_format_number(tmp_path):
    path = tmp_path / "numbers.csv"
    values = (1.5e-7, math.inf, -math.inf, math.nan, 2.0 / 3.0)
    assert write_csv(str(path), ("x", "label"), [(x, "s") for x in values]) == 5
    lines = path.read_bytes().decode("utf-8").split("\n")
    assert lines[0] == "x,label" and lines[-1] == ""
    cells = [line.split(",") for line in lines[1:-1]]
    assert [label for _, label in cells] == ["s"] * 5
    written = [x for x, _ in cells]
    assert written[:4] == ["1.50000000000e-07", "inf", "-inf", "nan"]
    # 12 significant digits survive the round trip
    assert float(written[4]) == pytest.approx(2.0 / 3.0, rel=1e-11, abs=0.0)


def _reference_csv(header, rows) -> bytes:
    """The per-cell formatting write_csv used before its one-format-per-row
    form, kept as the byte reference."""
    lines = [",".join(header)] + [
        ",".join([cell if isinstance(cell, str) else f"{cell:.11e}" for cell in row])
        for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("header, rows", [
    (("x", "label"), [(1.5e-7, "a"), (2.0 / 3.0, ""), (-1e300, "b c;d")]),
    (("x",), [(math.nan,), (math.inf,), (-math.inf,), (-0.0,), (0.0,)]),
    (("tiny", "huge"), [(5e-324, 1.7976931348623157e308), (-5e-324, -1.7976931348623157e308)]),
    (("n", "flag", "x"), [(3, True, 0.5), (-12345678901234, False, 1e-5), (0, True, 7)]),
    (("a", "b", "kind"), [[1.0, 2.0, "direct"], [3.0, math.nan, "series_small_u"]]),
    (("a", "b"), []),
    (("a", "b"), [(1.0, 2.0), [3.0, 4.0], (5, 6.0)]),
])
def test_write_csv_matches_per_cell_formatting(tmp_path, header, rows):
    path = tmp_path / "out.csv"
    assert write_csv(str(path), header, rows) == len(rows)
    assert path.read_bytes() == _reference_csv(header, rows)


@pytest.mark.parametrize("rows", [
    [(1.0, "a"), (2.0, 3.0)],     # a str column meets a number
    [(1.0, "a"), (2.0, None)],
    [(1.0, 2.0), (3.0, "b")],     # a numeric column meets a str
    [(1.0, 2.0), ("c", 4.0)],
    [(1.0, "a")] * ypfa.sweeps.CSV_BATCH_ROWS + [(2.0, 3.0)],   # past the first batch
])
def test_write_csv_column_changing_kind_is_refused_or_unchanged(tmp_path, rows):
    """A column whose kind changes partway through the file gives the old
    bytes or raises; it never writes a cell differently."""
    path = tmp_path / "mixed.csv"
    try:
        write_csv(str(path), ("x", "y"), rows)
    except (TypeError, ValueError):
        return
    assert path.read_bytes() == _reference_csv(("x", "y"), rows)


@pytest.mark.parametrize("rows, widths", [
    ([(1.0,), (2.0, 3.0)], (2, 1)),                                     # a longer row
    ([(1.0, "a"), (2.0,)], (1, 2)),                                     # a shorter row
    ([(1.0,)] * ypfa.sweeps.CSV_BATCH_ROWS + [(2.0, 3.0)], (2, 1)),     # past the first batch
])
@pytest.mark.parametrize("old", [None, b"an older file\n"])
def test_write_csv_refuses_a_row_of_another_width(tmp_path, rows, widths, old):
    # str.format ignores cells its template does not name: without the width
    # check the longer row was written with its last cell dropped
    path = tmp_path / "out.csv"
    if old is not None:
        path.write_bytes(old)
    with pytest.raises(ValueError, match="a row has %d cells, the first row %d" % widths):
        write_csv(str(path), ("x",), rows)
    assert os.listdir(tmp_path) == ["out.csv"] * (old is not None)
    if old is not None:
        assert path.read_bytes() == old


def test_write_csv_streams_any_iterable(tmp_path):
    rows = [(float(i), "r") for i in range(2 * ypfa.sweeps.CSV_BATCH_ROWS + 3)]
    path = tmp_path / "out.csv"
    assert write_csv(str(path), ("x", "label"), iter(rows)) == len(rows)
    assert path.read_bytes() == _reference_csv(("x", "label"), rows)


@pytest.mark.parametrize("old", [None, b"an older file\n"])
def test_write_csv_failing_rows_leave_the_path_as_it_was(tmp_path, old):
    def rows():
        yield from ((float(i),) for i in range(2 * ypfa.sweeps.CSV_BATCH_ROWS))
        raise RuntimeError("a task failed")

    path = tmp_path / "out.csv"
    if old is not None:
        path.write_bytes(old)
    with pytest.raises(RuntimeError, match="a task failed"):
        write_csv(str(path), ("x",), rows())
    assert os.listdir(tmp_path) == ["out.csv"] * (old is not None)
    if old is not None:
        assert path.read_bytes() == old


def test_map_ordered_preserves_order():
    items = list(range(24))
    assert list(map_ordered(_square, items, workers=1)) == [i * i for i in items]
    assert list(map_ordered(_square, items, workers=3)) == [i * i for i in items]


def test_map_ordered_preserves_order_across_pool_chunks():
    # more items than two workers take in one chunk each, so results come
    # back from several chunks and must still be yielded in input order
    items = list(range(4 * 2 * ypfa.sweeps.POOL_CHUNK_MAX + 7))
    assert len(items) // (2 * 4) >= ypfa.sweeps.POOL_CHUNK_MAX
    assert list(map_ordered(_square, items, workers=2)) == [i * i for i in items]


class _Deferred:
    """A future whose result() makes its call at that moment."""

    def __init__(self, pool, fn, args):
        self.pool, self.fn, self.args = pool, fn, args

    def result(self):
        self.pool.outstanding.remove(self)
        return self.fn(*self.args)

    def cancel(self):
        self.pool.outstanding.remove(self)
        self.pool.cancelled += 1
        return True


class _DeferredPool:
    """A ProcessPoolExecutor stand-in that runs each submitted call in
    process, when its future's result() is asked for, and records the
    futures submitted but not yet taken or cancelled."""

    outstanding: list
    submitted = cancelled = most_outstanding = 0

    def __enter__(self):
        self.outstanding = []
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = _Deferred(self, fn, args)
        self.outstanding.append(future)
        self.submitted += 1
        self.most_outstanding = max(self.most_outstanding, len(self.outstanding))
        return future


@pytest.mark.parametrize("workers", [1, 2])
def test_map_ordered_calls_func_only_as_it_is_consumed(monkeypatch, workers):
    # neither a pool nor func starts before the first next()
    events = []

    class InProcessPool(_DeferredPool):
        """Stands in for ProcessPoolExecutor: records its start, runs calls in process."""

        def __init__(self, max_workers):
            events.append("pool")

    def recording(x):
        events.append(x)
        return x * x

    monkeypatch.setattr(ypfa.sweeps, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    results = map_ordered(recording, [1, 2, 3], workers)
    assert events == []
    assert next(results) == 1
    assert events == ["pool"] * (workers > 1) + [1]
    assert list(results) == [4, 9]


def _square(x):
    return x * x


def test_map_ordered_keeps_a_bounded_window_of_chunks(monkeypatch):
    # a pool sent every chunk at once holds every finished chunk's results
    # in the parent; at most the window may wait, and closing the iterator
    # cancels the waiting chunks and sends no more
    pools = []

    class WindowPool(_DeferredPool):
        def __init__(self, max_workers):
            pools.append(self)

    monkeypatch.setattr(ypfa.sweeps, "ProcessPoolExecutor", WindowPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    window = ypfa.sweeps.POOL_CHUNKS_PER_WORKER * 2
    items = list(range(20 * 2 * 4 * ypfa.sweeps.POOL_CHUNK_MAX + 5))
    assert list(map_ordered(_square, items, workers=2)) == [i * i for i in items]
    assert pools[0].submitted > 10 * window
    assert pools[0].most_outstanding == window
    assert pools[0].outstanding == []

    results = map_ordered(_square, items, workers=2)
    assert next(results) == 0
    assert pools[1].submitted == window
    results.close()
    assert pools[1].outstanding == []
    assert pools[1].cancelled == window - 1
    assert pools[1].submitted == window


@pytest.mark.parametrize("workers", [0, -1])
def test_map_ordered_rejects_a_count_below_one(workers):
    with pytest.raises(InputError, match=f"got {workers}"):
        map_ordered(_square, [1, 2, 3], workers)


@pytest.mark.parametrize("has_affinity", [True, False])
def test_map_ordered_caps_the_pool_at_the_cpus_and_items(monkeypatch, has_affinity):
    # the executor starts every process at the first submit, so a pool as
    # large as the request would fork a million processes here; the fake
    # starts none, on a process given four CPUs (os.cpu_count where the
    # platform has no sched_getaffinity)
    sizes = []

    class RecordingPool(_DeferredPool):
        """Stands in for ProcessPoolExecutor: records max_workers, runs calls in process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

    monkeypatch.setattr(ypfa.sweeps, "ProcessPoolExecutor", RecordingPool)
    if has_affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert list(map_ordered(_square, [1, 2, 3, 4, 5], 10 ** 6)) == [1, 4, 9, 16, 25]
    assert list(map_ordered(_square, [1, 2, 3], 10 ** 6)) == [1, 4, 9]
    assert sizes == [4, 3]
