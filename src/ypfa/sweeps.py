"""Grids, worker-pool evaluation and deterministic CSV emission.

Grids are log-spaced; their bounds must be finite with a representable top
point. CSV format: UTF-8, mandatory header, LF line endings, scientific notation
with 12 significant digits (NUMBER_FORMAT), locale-independent. Sweep tasks
run in grid order, optionally in a process pool that starts no more
processes than there are tasks or usable CPUs. The eta sweeps compute their
rows one lambda at a time (a task returns every row of its lambda), the
other sweeps one row per task. The rows are always assembled in grid order,
so the output bytes do not depend on the worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Sequence

from .core import InputError

#: The one number format of every CSV cell: "%.11e", 12 significant digits.
#: Key cells that repeat across rows are formatted once with it and passed
#: to write_csv as str cells.
NUMBER_FORMAT = "%.11e"


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


def map_ordered(func: Callable, items: Sequence, workers: int) -> list:
    """Apply func to items, preserving input order regardless of workers.

    The pool gets no more processes than there are items or usable CPUs:
    it starts all of them at the first submit.
    """
    if workers < 1:
        raise InputError(f"worker count must be >= 1, got {workers}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, cpus or 1, len(items))
    if workers <= 1:
        return [func(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(items) // (workers * 4))
        return list(pool.map(func, items, chunksize=chunk))


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> int:
    """Write rows (numbers or strings) as CSV; returns the row count.

    Numbers are written as NUMBER_FORMAT (nan and inf as Python spells them) and
    str cells verbatim, by one % per row on a format built once from the cell
    kinds of the first row; a column whose kind changes later is a TypeError.
    The rows stream to writelines through a lazy map, so no second copy of
    the whole file is held in memory.
    """
    kinds = ["%s" if isinstance(cell, str) else NUMBER_FORMAT for cell in rows[0]] if rows else []
    if any(kind == "%s" and set(map(type, map(itemgetter(column), rows))) != {str}
           for column, kind in enumerate(kinds)):
        raise TypeError("a str column of the CSV holds cells of other kinds")
    line = ",".join(kinds) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(map(line.__mod__, map(tuple, rows)))
    return len(rows)
