"""Spans and counts around the public functions of each ypfa module.

The program is not changed: the tracer replaces each traced function on
every ypfa module that binds it (cli, limits and verify import functions by
name, so patching only the defining module would miss those calls) and puts
the originals back on ``uninstall``. Spans are kept in memory as
``[name, start, end, parent index]`` and aggregated per pass.

core, config and numerics get no spans: their functions run below a
microsecond inside the traced layers, and a wrapper would cost more than
they do. Work done in pool children would be traced there and lost; the
benchmark runs sweeps at one worker, so every call is traced in process.
"""

from __future__ import annotations

import collections
import functools
import os
import statistics
import sys
from time import perf_counter

#: (module, function) pairs that get a span; metrics are
#: ``<module>.<function>.calls`` and ``<module>.<function>.s``.
SPANNED = [
    ("cli", "main"),
    ("sweeps", "map_ordered"), ("sweeps", "write_csv"),
    ("yukawa", "eta"), ("yukawa", "sphere_slab_force_exact"),
    ("yukawa", "sphere_slab_force_pfa"), ("yukawa", "slab_slab_pressure"),
    ("layered", "eta_delta"), ("layered", "layered_epfa_force"),
    ("layered", "layered_pfa_force"), ("layered", "layered_epfa_energy"),
    ("layered", "layered_slab_potential"),
    ("disk", "disk_gravity_force"), ("disk", "disk_power_force"),
    ("disk", "disk_yukawa_force"), ("disk", "disk_yukawa_potential"),
    ("limits", "alpha_limit"), ("limits", "limit_shift"),
]

#: verify check families; each gets ``verify.<check>.s`` and
#: ``oracle.evals.<check>``.
CHECKS = [
    "check_slab_slab_pressure", "check_sphere_slab_exact",
    "check_layered_stack_potential", "check_layered_epfa_energy",
    "check_layered_pfa_assembly", "check_disk_gravity", "check_disk_power",
    "check_disk_yukawa", "check_slicing_equivalence", "check_two_spheres",
]

COUNTS = [
    "sweeps.map_ordered.items", "sweeps.map_ordered.pooled_calls",
    "sweeps.write_csv.rows", "sweeps.write_csv.bytes",
    "oracle.integrate_adaptive.calls", "oracle.subdivisions", "oracle.evals",
] + [f"oracle.evals.{name}" for name in CHECKS]


def metric_units() -> dict[str, str]:
    """Every per-layer metric one traced pass yields, with its unit, in
    report order. Metrics in "s" are times; all others repeat exactly."""
    units = {"cli.main.s": "s", "cli.self_s": "s"}
    for module, func in SPANNED[1:]:
        units[f"{module}.{func}.calls"] = "count"
        units[f"{module}.{func}.s"] = "s"
    units["limits.ResidualBound.from_csv.s"] = "s"
    units.update((f"verify.{name}.s", "s") for name in CHECKS)
    units["verify.worst_rel_err_over_tol"] = "ratio"
    units.update((name, "bytes" if name.endswith(".bytes") else "count") for name in COUNTS)
    units["oracle.err_budget_p50"] = "ratio"
    units["oracle.converged_ratio"] = "ratio"
    return units


class Tracer:
    """Collects spans and counts while installed; ``take()`` ends a pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.err_budgets: list[float] = []
        self.converged = 0
        self.worst_over_tol = 0.0
        self.missing: list[str] = []
        self._open: list[int] = []
        self._check: str | None = None
        self._restore: list[tuple] = []

    # ------------------------------------------------------------ wrappers

    def _spanned(self, name, fn):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
        return wrapper

    def _map_ordered(self, fn):
        spanned = self._spanned("sweeps.map_ordered", fn)

        @functools.wraps(fn)
        def wrapper(func, items, *args, **kwargs):
            self.counts["sweeps.map_ordered.items"] += len(items)
            return spanned(func, items, *args, **kwargs)
        return wrapper

    def _write_csv(self, fn):
        spanned = self._spanned("sweeps.write_csv", fn)

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            rows = spanned(path, *args, **kwargs)
            self.counts["sweeps.write_csv.rows"] += rows
            self.counts["sweeps.write_csv.bytes"] += os.path.getsize(path)
            return rows
        return wrapper

    def _pool(self, cls):
        def make(*args, **kwargs):
            self.counts["sweeps.map_ordered.pooled_calls"] += 1
            return cls(*args, **kwargs)
        return make

    def _check_family(self, name, fn):
        spanned = self._spanned(f"verify.{name}", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._check = name
            try:
                results = spanned(*args, **kwargs)
            finally:
                self._check = None
            for r in results if isinstance(results, list) else [results]:
                if r.sense == "within" and r.tolerance > 0.0:
                    self.worst_over_tol = max(self.worst_over_tol,
                                              r.worst_rel_err / r.tolerance)
            return results
        return wrapper

    def _integrate(self, fn):
        counts, budgets = self.counts, self.err_budgets

        @functools.wraps(fn)
        def wrapper(f, lo, hi, spec, *args, **kwargs):
            evals = 0

            def counted(x):
                nonlocal evals
                evals += 1
                return f(x)
            value, err, subdivisions, converged = fn(counted, lo, hi, spec, *args, **kwargs)
            counts["oracle.integrate_adaptive.calls"] += 1
            counts["oracle.subdivisions"] += subdivisions
            counts["oracle.evals"] += evals
            if self._check is not None:
                counts[f"oracle.evals.{self._check}"] += evals
            budgets.append(err / max(spec.rel_tol * abs(value), spec.abs_tol))
            self.converged += bool(converged)
            return value, err, subdivisions, converged
        return wrapper

    # ------------------------------------------------------------ install

    def _replace(self, module: str, name: str, make) -> None:
        """Swap ypfa.<module>.<name> for make(original) on every ypfa module
        that binds the same object."""
        home = sys.modules.get(f"ypfa.{module}")
        original = getattr(home, name, None)
        if original is None:
            self.missing.append(f"{module}.{name}")
            return
        replacement = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ypfa" or mod_name.startswith("ypfa.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        import ypfa.cli  # noqa: F401  (loads every module that binds a target)
        special = {"map_ordered": self._map_ordered, "write_csv": self._write_csv}
        for module, func in SPANNED:
            make = special.get(func) or functools.partial(self._spanned, f"{module}.{func}")
            self._replace(module, func, make)
        self._replace("sweeps", "ProcessPoolExecutor", self._pool)
        for name in CHECKS:
            self._replace("verify", name, functools.partial(self._check_family, name))
        self._replace("oracle", "integrate_adaptive", self._integrate)
        bound = sys.modules["ypfa.limits"].ResidualBound
        original = bound.__dict__["from_csv"]
        self._restore.append((bound, "from_csv", original))
        bound.from_csv = classmethod(
            self._spanned("limits.ResidualBound.from_csv", original.__func__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------ results

    def take(self) -> tuple[dict[str, float], list[list]]:
        """Metrics of the pass traced since the last call, and its spans."""
        spans = self.spans[:]
        calls: collections.Counter = collections.Counter()
        busy: collections.Counter = collections.Counter()
        children = [0.0] * len(spans)
        for name, start, end, parent in spans:
            calls[name] += 1
            busy[name] += end - start
            if parent >= 0:
                children[parent] += end - start
        metrics: dict[str, float] = {
            "cli.main.s": busy["cli.main"],
            "cli.self_s": sum(end - start - children[i]
                              for i, (name, start, end, _p) in enumerate(spans)
                              if name == "cli.main"),
        }
        for module, func in SPANNED[1:]:
            metrics[f"{module}.{func}.calls"] = calls[f"{module}.{func}"]
            metrics[f"{module}.{func}.s"] = busy[f"{module}.{func}"]
        metrics["limits.ResidualBound.from_csv.s"] = busy["limits.ResidualBound.from_csv"]
        for name in CHECKS:
            metrics[f"verify.{name}.s"] = busy[f"verify.{name}"]
        metrics["verify.worst_rel_err_over_tol"] = self.worst_over_tol
        metrics.update((name, self.counts[name]) for name in COUNTS)
        integrations = self.counts["oracle.integrate_adaptive.calls"]
        metrics["oracle.err_budget_p50"] = (statistics.median(self.err_budgets)
                                            if self.err_budgets else 0.0)
        metrics["oracle.converged_ratio"] = (self.converged / integrations
                                             if integrations else 0.0)
        # the wrappers hold these containers, so they are emptied in place
        self.spans.clear()
        self.counts.clear()
        self.err_budgets.clear()
        self.converged = 0
        self.worst_over_tol = 0.0
        return metrics, spans
