"""Grids, worker-pool evaluation and deterministic CSV emission.

Grids are log-spaced; their bounds must be finite with a representable top
point. CSV format: UTF-8, mandatory header, LF line endings, scientific notation
with 12 significant digits (NUMBER_FORMAT), locale-independent. Sweep tasks
run in grid order, optionally in a process pool that starts no more
processes than there are tasks or usable CPUs. The pool's modules, among them
multiprocessing, load at the first pooled map: a one-worker run never imports
them. The eta sweeps compute their rows one lambda at a time (a task returns
every row of its lambda), the other sweeps one row per task. Results come back
lazily and in grid order, so rows stream from the tasks into the CSV without
the whole sweep being held in memory, and the output bytes do not depend on
the worker count. A pool is sent a new chunk of tasks only as the CSV takes
an earlier one's results, so at any worker count the parent holds at most
POOL_CHUNKS_PER_WORKER chunks per worker. A CSV appears at its path only once
every row is written; replacing, which does that, writes the CLI's manifests too.
"""

from __future__ import annotations

import math
import os
from collections import deque
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from functools import partial
from itertools import islice, starmap
from typing import Callable, Iterable, Iterator, Sequence

from .core import InputError

#: The one number format spec of every CSV cell: ".11e", 12 significant
#: digits. Key cells that repeat across rows are formatted once with it and
#: passed to write_csv as str cells.
NUMBER_FORMAT = ".11e"

#: The most items the pool sends a worker at once. A finished chunk's
#: results wait in the parent until the CSV reaches them, so larger chunks
#: cost memory; much smaller ones cost time in pickling round trips.
POOL_CHUNK_MAX = 256

#: Chunks per worker the pool holds at once, queued, running or finished but
#: not yet taken by the CSV; the next chunk is sent only as one is taken.
POOL_CHUNKS_PER_WORKER = 2

#: Rows write_csv takes from its iterable and writes at a time.
CSV_BATCH_ROWS = 1024


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


def map_ordered(func: Callable, items: Sequence, workers: int) -> Iterator:
    """An iterator of func(item) over items, in input order at any worker count.

    The worker count is checked at the call; func runs only as the iterator
    is consumed. One worker maps in process. A pool gets no more processes
    than there are items or usable CPUs, starts all of them at the first
    next(), sends them chunks of at most POOL_CHUNK_MAX items, at most
    POOL_CHUNKS_PER_WORKER chunks per worker at a time, and stays open until
    the iterator is exhausted or closed; closing it cancels the chunks not
    yet started.
    """
    if workers < 1:
        raise InputError(f"worker count must be >= 1, got {workers}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, cpus or 1, len(items))
    if workers <= 1:
        return map(func, items)
    return _pooled(func, items, workers)


def ProcessPoolExecutor(max_workers: int):
    """A concurrent.futures.ProcessPoolExecutor, imported at the first call."""
    from concurrent.futures import ProcessPoolExecutor as executor
    return executor(max_workers=max_workers)


def _map_chunk(func: Callable, chunk: Sequence) -> list:
    return list(map(func, chunk))


def _pooled(func: Callable, items: Sequence, workers: int) -> Iterator:
    size = min(POOL_CHUNK_MAX, max(1, len(items) // (workers * 4)))
    chunks = (items[start:start + size] for start in range(0, len(items), size))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        submit = partial(pool.submit, _map_chunk, func)
        window = deque(map(submit, islice(chunks, POOL_CHUNKS_PER_WORKER * workers)))
        try:
            while window:
                yield from window.popleft().result()
                window.extend(map(submit, islice(chunks, 1)))
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


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> int:
    """Write rows (numbers or strings) as CSV; returns the row count.

    Numbers are written as NUMBER_FORMAT (nan and inf as Python spells them) and
    str cells verbatim, by one str.format per row on a template built once
    from the cell kinds of the first row; the template's specs refuse a later
    cell of another kind (ValueError, or TypeError for None), and a row of
    another width than the first is a ValueError naming both. rows may be any
    iterable: it is consumed CSV_BATCH_ROWS rows at a time, so memory does not
    grow with the row count. The rows go through replacing(path), so path is
    replaced only once every row is written, and left as it was on any exception.
    """
    rows = iter(rows)
    batch = list(islice(rows, CSV_BATCH_ROWS))
    first = batch[0] if batch else ()
    width = len(first)
    line = ",".join("{:s}" if isinstance(cell, str) else "{:" + NUMBER_FORMAT + "}"
                    for cell in first) + "\n"
    count = 0
    with replacing(path) as handle:
        handle.write(",".join(header) + "\n")
        while batch:
            if set(map(len, batch)) != {width}:
                other = next(len(row) for row in batch if len(row) != width)
                raise ValueError(f"a row has {other} cells, the first row {width}")
            handle.writelines(starmap(line.format, batch))
            count += len(batch)
            batch = list(islice(rows, CSV_BATCH_ROWS))
    return count
