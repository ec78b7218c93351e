"""Grids, chunked worker-pool evaluation and deterministic CSV emission.

Grids are log-spaced; their bounds must be finite with a representable top
point. CSV format: UTF-8, mandatory header, LF line endings, scientific notation
with 12 significant digits (NUMBER_FORMAT), locale-independent. A sweep maps
chunks of its grid points (map_chunks), in grid order, in process at one
worker or in a process pool that starts no more processes than there are
chunks or usable CPUs; the pool's modules, among them multiprocessing, load
at the first pooled map, so a one-worker run never imports them. A chunk
task formats its own rows (format_rows: one printf-style template per row,
which also refuses a row of another width or cell kind) and returns a
Chunk: the finished text, its row count, its template and its manifest
tallies. write_csv writes the chunks' text as they come back, checks that
every chunk took the first one's template and sums the tallies, so the
parent neither holds nor formats rows, and the output bytes do not depend
on the worker count or the chunk size. A pool is sent a new chunk only as
the CSV takes an earlier one's, so at any worker count the parent holds at
most POOL_CHUNKS_PER_WORKER chunks per worker. A CSV appears at its path
only once every row is written; replacing, which does that, writes the
CLI's manifests too.
"""

from __future__ import annotations

import math
import os
from collections import Counter, deque
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .core import InputError

#: The one number format spec of every CSV cell: ".11e", 12 significant
#: digits; a row template writes a number cell as "%" + NUMBER_FORMAT. Key
#: cells that repeat across rows are formatted once with it and passed to
#: format_rows as str cells.
NUMBER_FORMAT = ".11e"

#: The most items (grid points or rows) in one chunk. A finished chunk's
#: text waits in the parent until the CSV reaches it, so larger chunks cost
#: memory; much smaller ones cost time in task and pickling round trips.
POOL_CHUNK_MAX = 256

#: Chunks per worker the pool holds at once, queued, running or finished but
#: not yet taken by the CSV; the next chunk is sent only as one is taken.
POOL_CHUNKS_PER_WORKER = 2


@dataclass(frozen=True)
class SweepGrid:
    """Deterministic log-spaced 1D grid min * (max/min)^(i/(points-1)); one point is [min].

    A grid with a point that would not be finite and > 0 is an InputError
    naming both bounds. spacing is not settable: it records "log" in manifests.
    """

    min: float
    max: float
    points: int
    spacing: str = field(default="log", init=False)

    def __post_init__(self):
        if self.points < 1:
            raise InputError(f"grid needs at least one point, got {self.points}")
        bounds = f"[{self.min}, {self.max}]"
        if self.points > 1 and not self.min < self.max:
            raise InputError(f"grid needs min < max, got {bounds}")
        if not self.min > 0.0:
            raise InputError(f"log grid needs min > 0, got {bounds}")
        top = self.min * (self.max / self.min) if self.points > 1 else self.min
        if not math.isfinite(top):
            raise InputError(f"grid {bounds} is not representable: its top point is {top}")

    def values(self) -> list[float]:
        if self.points == 1:
            return [self.min]
        n = self.points - 1
        ratio = self.max / self.min
        return [self.min * ratio ** (i / n) for i in range(self.points)]


def _worker_count(workers: int, tasks: int) -> int:
    """The processes a map of tasks uses: workers, capped at the usable CPUs
    and the task count; a count below 1 is an InputError."""
    if workers < 1:
        raise InputError(f"worker count must be >= 1, got {workers}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(workers, cpus or 1, tasks)


def map_ordered(func: Callable, items: Sequence, workers: int) -> Iterator:
    """An iterator of func(item) over items, in input order at any worker count.

    The worker count is checked at the call; func runs only as the iterator
    is consumed. One worker maps in process. A pool gets no more processes
    than there are items or usable CPUs, starts all of them at the first
    next(), sends each item as one task, at most POOL_CHUNKS_PER_WORKER
    tasks per worker at a time, and stays open until the iterator is
    exhausted or closed; closing it cancels the tasks not yet started. An
    item is the pool's unit of work, so cheap items should come in chunks
    (map_chunks).
    """
    workers = _worker_count(workers, len(items))
    if workers <= 1:
        return map(func, items)
    return _pooled(func, items, workers)


def map_chunks(func: Callable, items: Sequence, workers: int) -> Iterator:
    """An iterator of func(chunk) over consecutive chunks of items, in order.

    A chunk holds at most POOL_CHUNK_MAX items, and items are cut into about
    four chunks per process the map uses, so that a pool's processes share
    the work; the chunks are mapped by map_ordered, in process at one
    worker and through the pool above it.
    """
    count = max(1, _worker_count(workers, len(items)))
    size = min(POOL_CHUNK_MAX, max(1, len(items) // (4 * count)))
    return map_ordered(func, [items[start:start + size]
                              for start in range(0, len(items), size)], workers)


def ProcessPoolExecutor(max_workers: int):
    """A concurrent.futures.ProcessPoolExecutor, imported at the first call."""
    from concurrent.futures import ProcessPoolExecutor as executor
    return executor(max_workers=max_workers)


def _pooled(func: Callable, items: Sequence, workers: int) -> Iterator:
    with ProcessPoolExecutor(max_workers=workers) as pool:
        submit = partial(pool.submit, func)
        pending = iter(items)
        window = deque(map(submit, islice(pending, POOL_CHUNKS_PER_WORKER * workers)))
        try:
            while window:
                yield window.popleft().result()
                window.extend(map(submit, islice(pending, 1)))
        finally:
            for future in window:
                future.cancel()


@contextmanager
def replacing(path: str) -> Iterator:
    """A text handle (UTF-8, LF) on a temporary file beside path, which
    replaces path once the block completes; on any exception the temporary
    file is removed and path is left as it was."""
    temp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temp, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(temp)
        raise


class Chunk(NamedTuple):
    """Consecutive CSV rows as finished text (format_rows makes one)."""

    text: str
    rows: int
    template: str           # the row template of every row; "" when there are none
    tally: Counter | None   # manifest counts over these rows, summed by write_csv


def _kind(spec: str) -> str:
    return "str" if spec == "%s" else "number"


def _kind_error(template: str, first: str) -> Exception:
    """The refusal of rows formatted by template in a file whose first row
    took first: a ValueError naming both widths, or a TypeError naming the
    first column whose kind differs."""
    specs, first_specs = template[:-1].split(","), first[:-1].split(",")
    if len(specs) != len(first_specs):
        return ValueError(f"a row has {len(specs)} cells, the first row {len(first_specs)}")
    column = next(j for j, (a, b) in enumerate(zip(specs, first_specs)) if a != b)
    return TypeError(f"column {column + 1} holds a {_kind(specs[column])} cell, "
                     f"the first row a {_kind(first_specs[column])}")


def format_rows(rows: Sequence[Sequence], tally: Counter | None = None) -> Chunk:
    """rows (sequences of numbers or strings) as one Chunk of CSV lines.

    Every row is written by one printf-style template built from the cell
    kinds of the first row: "%s" for a str cell, "%" + NUMBER_FORMAT for a
    number (nan and inf as Python spells them). A row of another width than
    the first is a ValueError naming both; a str column that holds another
    kind of cell, or a number column that holds a non-number (refused by
    "%" itself), is a TypeError. tally rides along for write_csv to sum.
    """
    if not rows:
        return Chunk("", 0, "", tally)
    first = rows[0]
    specs = ["%s" if isinstance(cell, str) else "%" + NUMBER_FORMAT for cell in first]
    template = ",".join(specs) + "\n"
    width = len(first)
    if set(map(len, rows)) != {width}:
        other = next(len(row) for row in rows if len(row) != width)
        raise ValueError(f"a row has {other} cells, the first row {width}")
    for column, spec in enumerate(specs):
        if spec == "%s":
            try:
                "".join(map(itemgetter(column), rows))  # refuses a non-str cell
            except TypeError:
                raise TypeError(f"column {column + 1} holds a non-str cell, "
                                "the first row a str") from None
    return Chunk("".join(map(template.__mod__, map(tuple, rows))), len(rows), template, tally)


def write_csv(path: str, header: Sequence[str], chunks: Iterable[Chunk],
              tally: Counter | None = None) -> int:
    """Write the header, then each chunk's text, as CSV; returns the row count.

    chunks may be any iterable, consumed one chunk at a time, so memory does
    not grow with the row count. Every chunk must have been formatted by the
    template of the first chunk with rows: another width is a ValueError
    naming both, another cell kind a TypeError. Each chunk's tally is added
    into tally. The text goes through replacing(path), so path is replaced
    only once every chunk is written, and left as it was on any exception.
    """
    first = ""
    count = 0
    with replacing(path) as handle:
        handle.write(",".join(header) + "\n")
        for chunk in chunks:
            if chunk.rows:
                first = first or chunk.template
                if chunk.template != first:
                    raise _kind_error(chunk.template, first)
            handle.write(chunk.text)
            count += chunk.rows
            if tally is not None and chunk.tally:
                tally.update(chunk.tally)
    return count
