"""Command-line front end: figure-grade sweeps, oracle verification, limits.

Subcommands and their flags; all but oracle-verify also take --config FILE
---------------------------------------------------------------------------
eta-sweep           exact/PFA force ratio over a lambda grid (per R, per d2)
                    --output --preset --workers --lambda-min/max/points --d2
eta-layered-sweep   the same for coated sphere/slab stacks; adds --plotted-radius
xi-power-sweep      finite-disk near/far force ratio for power-law forces
                    --output --preset --workers --mode
xi-yukawa-sweep     log of the finite-disk near/far Yukawa force ratio
                    --output --preset --workers
oracle-verify       closed forms vs adaptive-quadrature oracle, exit 2 on drift
                    --output (optional) --quick
limits              alpha exclusion bounds from a residual CSV
                    --output --residuals --method --geometry --lambda-min/max/points --d2

Settings resolve as: preset defaults, then --config file, then flags. Each
preset belongs to one sweep subcommand; naming it under another is an error.
Exit codes: 0 success, 1 bad input or I/O, 2 numerical verification failure.
Outputs are CSV (12 significant digits, LF) plus a JSON manifest that is
byte-identical for identical inputs apart from its timestamp field. A sweep
computes and formats its rows in chunks of grid points, in process or in
--workers processes, and writes each chunk's text as it comes back in grid
order: the bytes do not depend on the worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import Counter
from dataclasses import asdict
from functools import partial
from operator import itemgetter
from typing import Callable, Iterable

from . import __version__
from .config import parse_config_file, parse_quantity
from .core import (G_DEFAULT, INFINITE, METHODS, Disk, InputError, Layer, LayeredSlab,
                   LayeredSphere, PoleProximityError, YukawaParams)
from .disk import XiInputs, xi_power, xi_yukawa
from .layered import LayeredConfig, eta_delta_at, virtual_plate
from .limits import ResidualBound, exclusion_curve
from .sweeps import (NUMBER_FORMAT, Chunk, SweepGrid, format_rows, map_chunks, replacing,
                     write_csv)
from .verify import format_report, run_suite, suite_passed
from .yukawa import SphereSlabConfig, check_d2, check_radius, eta_at

_UM = 1e-6
_NM = 1e-9

_DEFAULTS: dict[str, float | list[float]] = {
    "constants.G": G_DEFAULT,
    "gap": 100 * _NM,
    "sphere.radius": 150 * _UM,
    "sphere.density": 4100.0,
    "sphere.core_radius": 150 * _UM,
    "sphere.core_density": 4100.0,
    "sphere.inner_coat.thickness": 10 * _NM,
    "sphere.inner_coat.density": 7140.0,
    "sphere.outer_coat.thickness": 180 * _NM,
    "sphere.outer_coat.density": 19280.0,
    "slab.thickness": 3.5 * _UM,
    "slab.density": 2330.0,
    "slab.base.thickness": 3.5 * _UM,
    "slab.base.density": 2330.0,
    "slab.middle.thickness": 10 * _NM,
    "slab.middle.density": 7140.0,
    "slab.top.thickness": 210 * _NM,
    "slab.top.density": 19280.0,
    "pfa.d2": INFINITE,
    "disk.thickness": 3.5 * _UM,
    "disk.density": 2330.0,
}

_PRESETS: dict[str, dict] = {
    "fig2-left": {"command": "eta-sweep",
                  "sweep.radii": [50 * _UM, 100 * _UM, 150 * _UM],
                  "sweep.d2_values": [INFINITE]},
    "fig2-right": {"command": "eta-sweep",
                   "sweep.radii": [150 * _UM],
                   "sweep.d2_values": [1 * _UM, 10 * _UM, 100 * _UM, 1e-3]},
    "fig3-left": {"command": "eta-layered-sweep",
                  "sweep.radii": [50 * _UM, 100 * _UM, 150 * _UM],
                  "sweep.d2_values": [100.0]},
    "fig3-right": {"command": "eta-layered-sweep",
                   "sweep.radii": [150 * _UM],
                   "sweep.d2_values": [1 * _UM, 10 * _UM, 100 * _UM, 1e-3]},
    "fig4-left": {"command": "xi-power-sweep", "mode": "rd",
                  "sweep.exponents": [1.0, 2.0, 3.0, 4.0],
                  "rd_grid_factors": (0.1, 100.0, 200)},
    "fig4-right": {"command": "xi-power-sweep", "mode": "n",
                   "sweep.exponents": [0.25 * i for i in range(1, 17)],
                   "sweep.rd_factors": [1.0, 2.0, 10.0, 100.0]},
    "fig5": {"command": "xi-yukawa-sweep",
             "sweep.lambdas": [100 * _UM, 500 * _UM, 1000 * _UM],
             "rd_grid_factors": (1.0, 100.0, 200)},
}

#: every key a config file may set: the defaults and the presets' own settings
_KNOWN_KEYS = set(_DEFAULTS).union(*_PRESETS.values()) - {"command"}
#: the known keys whose value is a word, not a quantity
_WORD_KEYS = {"mode"}


class _Settings(dict):
    """Resolved settings that remember every key looked up with get."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read: set[str] = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _settings(args, preset: str | None = None) -> _Settings:
    settings = _Settings(_DEFAULTS)
    if preset is not None:
        if preset not in _PRESETS:
            raise InputError(f"unknown preset {preset!r}; known: {sorted(_PRESETS)}")
        if _PRESETS[preset]["command"] != args.command:
            raise InputError(f"preset {preset!r} belongs to "
                             f"{_PRESETS[preset]['command']}, not {args.command}")
        settings.update(_PRESETS[preset])
    if args.config is not None:
        parsed = parse_config_file(args.config, _WORD_KEYS)
        unknown = sorted(parsed.keys() - _KNOWN_KEYS)
        if unknown:
            raise InputError(f"{args.config}: unknown setting {', '.join(map(repr, unknown))}")
        settings.update(parsed)
    return settings


def _scalar(settings: dict, key: str) -> float:
    value = settings.get(key)
    if value is None:
        raise InputError(f"missing setting {key!r}")
    if isinstance(value, list):
        raise InputError(f"setting {key!r} must be a single value")
    return value


def _vector(settings: dict, key: str, fallback: str | None = None) -> list[float]:
    """A list setting (a lone value is one element), else [fallback's value]."""
    if fallback is not None and key not in settings:
        return [_scalar(settings, fallback)]
    value = settings.get(key)
    if value is None:
        raise InputError(f"missing setting {key!r}")
    return value if isinstance(value, list) else [value]


def _rd_grid(settings: dict, radius: float, default: tuple) -> SweepGrid:
    """Disk radii as (min factor, max factor, points) times the sphere radius."""
    value = settings.get("rd_grid_factors", default)
    if not (isinstance(value, (list, tuple)) and len(value) == 3
            and float(value[2]).is_integer()):
        raise InputError("setting 'rd_grid_factors' must be "
                         "'min factor, max factor, integer points'")
    lo, hi, points = value
    return SweepGrid(min=lo * radius, max=hi * radius, points=int(points))


def _lambda_grid(args) -> SweepGrid:
    return SweepGrid(min=parse_quantity(args.lambda_min), max=parse_quantity(args.lambda_max),
                     points=args.lambda_points)


def _d2_values(args, settings: dict) -> list[float]:
    if args.d2:
        return [parse_quantity(args.d2)]
    return _vector(settings, "sweep.d2_values", "pfa.d2")


def _layer(settings: dict, key: str) -> Layer:
    return Layer(_scalar(settings, key + ".thickness"), _scalar(settings, key + ".density"))


def _sphere_factory(settings: dict, plotted_radius: str):
    """The coated-sphere factory keyed on the plotted radius."""
    inner, outer = _layer(settings, "sphere.inner_coat"), _layer(settings, "sphere.outer_coat")

    def sphere_for(radius: float) -> LayeredSphere:
        core = radius
        if plotted_radius == "outer":
            core = radius - inner.thickness - outer.thickness
            if core <= 0.0:
                raise InputError("outer-radius interpretation leaves no core")
        return LayeredSphere(core_radius=core,
                             core_density=_scalar(settings, "sphere.core_density"),
                             inner_coat=inner, outer_coat=outer)

    return sphere_for


def _xi_geometry(settings: dict, rd: float) -> XiInputs:
    return XiInputs(a=_scalar(settings, "gap"),
                    sphere_radius=_scalar(settings, "sphere.radius"),
                    disk=Disk(radius=rd, thickness=_scalar(settings, "disk.thickness"),
                              density=_scalar(settings, "disk.density")))


def _emit(args, settings: _Settings, header, chunks: Iterable[Chunk], grid: dict,
          counters: Callable[[Counter], dict] | None = None) -> int:
    """Write the CSV, then its manifest (byte-stable apart from the timestamp).

    chunks may stream: counters, if given, maps the sum of their tallies to
    the manifest's counters once every chunk is written. config_si lists the
    numeric settings the run read. The manifest replaces its path only once
    written; if it cannot be, the run's CSV is removed.
    """
    tally = Counter()
    written = write_csv(args.output, header, chunks, tally)
    payload = {
        "subcommand": args.command,
        "tool_version": __version__,
        "config_si": {key: ([repr(float(v)) for v in value] if isinstance(value, (list, tuple))
                            else repr(value))
                      for key, value in sorted(settings.items())
                      if key in settings.read and not isinstance(value, str)},
        "grid": grid,
        "rows": written,
        "counters": counters(tally) if counters else {},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    try:
        with replacing(args.output + ".manifest.json") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except BaseException:
        os.remove(args.output)
        raise
    return 0


# ---------------------------------------------------------------- chunk workers
# Each maps one chunk of a sweep's grid points to a Chunk of its finished
# CSV rows and their manifest tallies; they stay at module level so that a
# pool can pickle them with the arguments functools.partial binds.

def _chunk_eta(keys, ratios_at, bodies, plates, tally_key, lams) -> Chunk:
    """Every row of each lambda: the sweep's (R, D2) key cells, ratios_at,
    bodies and plates bound; tally_key, if any, picks each row's tally."""
    rows = []
    for lam in lams:
        lam_cell = format(lam, NUMBER_FORMAT)
        rows += [(lam_cell, r_cell, d2_cell, *values)
                 for (r_cell, d2_cell), values in zip(keys, ratios_at(lam, bodies, plates))]
    return format_rows(rows, tally_key and Counter(map(tally_key, rows)))


def _row_xi_power(task):
    """Key columns then xi; nan where the exponent is too close to a pole."""
    *keys, inputs, n = task
    try:
        return (*keys, xi_power(inputs, n))
    except PoleProximityError:
        return (*keys, math.nan)


def _chunk_xi_power(tasks) -> Chunk:
    rows = list(map(_row_xi_power, tasks))
    near_pole = sum(map(math.isnan, map(itemgetter(-1), rows)))
    return format_rows(rows, Counter(rows_near_pole=near_pole))


def _chunk_xi_yukawa(tasks) -> Chunk:
    return format_rows([(rd, lam, xi_yukawa(inputs, YukawaParams(1.0, lam)))
                        for rd, lam, inputs in tasks])


# ---------------------------------------------------------------- commands

def _eta_chunks(args, settings: _Settings, radius_key: str, body_for: Callable,
                plate_for: Callable, ratios_at: Callable,
                tally_key: Callable | None = None) -> tuple[Iterable[Chunk], dict]:
    """An eta sweep's streamed chunks and its manifest grid.

    body_for(radius) and plate_for(first body, d2) build the bodies and plates
    once, in the order the first lambda's rows meet them; ratios_at(lam, bodies,
    plates) gives one lambda's values in row order; tally_key(row), if given,
    is counted into the tallies.
    """
    radii = _vector(settings, "sweep.radii", radius_key)
    d2_values = _d2_values(args, settings)
    grid = _lambda_grid(args)
    bodies = [body_for(radii[0])]
    plates = [plate_for(bodies[0], d2) for d2 in d2_values]
    bodies += map(body_for, radii[1:])
    keys = [(format(radius, NUMBER_FORMAT), format(d2, NUMBER_FORMAT))
            for radius in radii for d2 in d2_values]
    task = partial(_chunk_eta, keys, ratios_at, bodies, plates, tally_key)
    return (map_chunks(task, grid.values(), args.workers),
            {"lambda": asdict(grid), "radii": radii, "d2_values": [repr(v) for v in d2_values]})


def cmd_eta_sweep(args) -> int:
    settings = _settings(args, args.preset)
    chunks, grid = _eta_chunks(args, settings, "sphere.radius", check_radius,
                               lambda _first, d2: check_d2(d2), eta_at, itemgetter(-1))
    return _emit(args, settings, ("lambda_m", "R_m", "D2_m", "eta", "regime"), chunks, grid,
                 lambda regimes: {"regimes": dict(regimes)})


def cmd_eta_layered_sweep(args) -> int:
    settings = _settings(args, args.preset)
    chunks, grid = _eta_chunks(args, settings, "sphere.core_radius",
                               _sphere_factory(settings, args.plotted_radius), virtual_plate,
                               eta_delta_at)
    return _emit(args, settings, ("lambda_m", "R_m", "D2_m", "eta_delta", "eta", "ratio"),
                 chunks, {**grid, "plotted_radius": args.plotted_radius})


def cmd_xi_power_sweep(args) -> int:
    settings = _settings(args, args.preset)
    mode = args.mode or settings.get("mode", "rd")
    radius = _scalar(settings, "sphere.radius")
    exponents = _vector(settings, "sweep.exponents")
    if mode == "rd":
        rd_grid = _rd_grid(settings, radius, (0.1, 100.0, 200))
        tasks = [(rd, n, _xi_geometry(settings, rd), n)
                 for rd in rd_grid.values() for n in exponents]
        header, grid = ("Rd_m", "N", "xi"), {"rd": asdict(rd_grid), "exponents": exponents}
    elif mode == "n":
        rd_factors = _vector(settings, "sweep.rd_factors")
        tasks = [(n, factor * radius, _xi_geometry(settings, factor * radius), n)
                 for n in exponents for factor in rd_factors]
        header, grid = ("N", "Rd_m", "xi"), {"n": exponents, "rd_factors": rd_factors}
    else:
        raise InputError(f"mode must be 'rd' or 'n', got {mode!r}")
    return _emit(args, settings, header, map_chunks(_chunk_xi_power, tasks, args.workers), grid,
                 lambda tally: {"rows_near_pole": tally["rows_near_pole"]})


def cmd_xi_yukawa_sweep(args) -> int:
    settings = _settings(args, args.preset)
    lambdas = _vector(settings, "sweep.lambdas")
    rd_grid = _rd_grid(settings, _scalar(settings, "sphere.radius"), (1.0, 100.0, 200))
    tasks = [(rd, lam, _xi_geometry(settings, rd))
             for rd in rd_grid.values() for lam in lambdas]
    return _emit(args, settings, ("Rd_m", "lambda_m", "ln_xi"),
                 map_chunks(_chunk_xi_yukawa, tasks, args.workers),
                 {"rd": asdict(rd_grid), "lambdas": lambdas})


def cmd_oracle_verify(args) -> int:
    results = run_suite(quick=args.quick)
    report = format_report(results)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(report + "\n")
    print(report)
    if not suite_passed(results):
        failing = ", ".join(r.name for r in results if not r.passed)
        print(f"FAILED checks: {failing}", file=sys.stderr)
        return 2
    return 0


def cmd_limits(args) -> int:
    settings = _settings(args)
    bounds = ResidualBound.from_csv(args.residuals)
    g = _scalar(settings, "constants.G")
    d2 = parse_quantity(args.d2) if args.d2 else _scalar(settings, "pfa.d2")
    if args.geometry == "layered":
        sphere_for = _sphere_factory(settings, "core")
        slab = LayeredSlab(base=_layer(settings, "slab.base"),
                           middle=_layer(settings, "slab.middle"), top=_layer(settings, "slab.top"))
        geometry = LayeredConfig(separation=bounds.entries[0][0],
                                 sphere=sphere_for(_scalar(settings, "sphere.core_radius")),
                                 slab=slab, d2=d2)
    else:
        geometry = SphereSlabConfig(separation=bounds.entries[0][0],
                                    sphere_radius=_scalar(settings, "sphere.radius"),
                                    sphere_density=_scalar(settings, "sphere.density"),
                                    slab_thickness=_scalar(settings, "slab.thickness"),
                                    slab_density=_scalar(settings, "slab.density"), d2=d2)
    grid = _lambda_grid(args)
    width = 5 if args.method == "epfa" else 4  # only epfa rows carry shift_vs_pfa
    header = ("lambda_m", "alpha_bound", "best_separation_m", "method", "shift_vs_pfa")[:width]
    rows = [point[:width] for point in exclusion_curve(grid, bounds, geometry, args.method, g)]
    return _emit(args, settings, header, [format_rows(rows)],
                 {"lambda": asdict(grid), "method": args.method, "geometry": args.geometry})


# ---------------------------------------------------------------- parser

def _add_io(sub):
    sub.add_argument("--config", help="key = value config file")
    sub.add_argument("--output", required=True, help="CSV output path")


def _add_sweep(sub):
    _add_io(sub)
    sub.add_argument("--preset", help="figure preset of this subcommand")
    sub.add_argument("--workers", type=int, default=1, help="worker processes (default: 1)")


def _add_lambda(sub):
    sub.add_argument("--lambda-min", default="1 nm", help="grid lower bound (default: 1 nm)")
    sub.add_argument("--lambda-max", default="1 mm", help="grid upper bound (default: 1 mm)")
    sub.add_argument("--lambda-points", type=int, default=200,
                     help="log-spaced grid points (default: 200)")
    sub.add_argument("--d2", help="virtual plate thickness, e.g. '10 um' or 'inf'")


def _command(commands, name: str, func, help_text: str, *flag_groups):
    sub = commands.add_parser(name, help=help_text)
    for add_flags in flag_groups:
        add_flags(sub)
    sub.set_defaults(func=func)
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ypfa", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)
    _command(commands, "eta-sweep", cmd_eta_sweep, "exact/PFA ratio sweep",
             _add_sweep, _add_lambda)
    sub = _command(commands, "eta-layered-sweep", cmd_eta_layered_sweep,
                   "layered exact/PFA ratio sweep", _add_sweep, _add_lambda)
    sub.add_argument("--plotted-radius", choices=("core", "outer"), default="core",
                     help="whether sweep radii mean the core or the coated radius")
    sub = _command(commands, "xi-power-sweep", cmd_xi_power_sweep,
                   "finite-disk power-law ratio sweep", _add_sweep)
    sub.add_argument("--mode", choices=("rd", "n"), default=None,
                     help="sweep the disk radius or the exponent")
    _command(commands, "xi-yukawa-sweep", cmd_xi_yukawa_sweep,
             "finite-disk Yukawa ratio sweep", _add_sweep)

    sub = _command(commands, "oracle-verify", cmd_oracle_verify,
                   "closed forms vs quadrature oracle")
    sub.add_argument("--output", help="also write the report here")
    sub.add_argument("--quick", action="store_true",
                     help="one configuration per check family")
    sub = _command(commands, "limits", cmd_limits, "alpha-lambda exclusion bounds",
                   _add_io, _add_lambda)
    sub.add_argument("--residuals", required=True,
                     help="CSV with header separation_m,residual_N")
    sub.add_argument("--method", choices=METHODS, default="epfa")
    sub.add_argument("--geometry", choices=("homogeneous", "layered"),
                     default="homogeneous")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
