"""Command-line front end: figure-grade sweeps, oracle verification, limits.

Subcommands
-----------
eta-sweep           exact/PFA force ratio over a lambda grid (per R, per d2)
eta-layered-sweep   the same for coated sphere/slab stacks
xi-power-sweep      finite-disk near/far force ratio for power-law forces
xi-yukawa-sweep     log of the finite-disk near/far Yukawa force ratio
oracle-verify       closed forms vs adaptive-quadrature oracle, exit 2 on drift
limits              alpha exclusion bounds from a residual CSV

Settings resolve as: preset defaults, then --config file, then flags.
Exit codes: 0 success, 1 bad input or I/O, 2 numerical verification failure.
Outputs are CSV (12 significant digits, LF) plus a JSON manifest that is
byte-identical for identical inputs apart from its timestamp field.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import __version__
from .config import format_si, parse_config_file, parse_quantity
from .core import (INFINITE, Disk, InputError, Layer, LayeredSlab, LayeredSphere,
                   PhysicalConstants, PoleProximityError, YukawaParams)
from .disk import XiInputs, xi_power, xi_yukawa
from .layered import LayeredConfig, eta_delta
from .limits import PFA_RELIABLE_LAMBDA_MAX, ResidualBound, alpha_limit, limit_shift
from .sweeps import SweepGrid, map_ordered, resolve_workers, write_csv
from .verify import format_report, run_suite, suite_passed
from .yukawa import SphereSlabConfig, eta

_UM = 1e-6
_NM = 1e-9

_DEFAULTS: dict[str, float | list[float]] = {
    "constants.G": PhysicalConstants().G,
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
    "disk.radius": 300 * _UM,
    "disk.thickness": 3.5 * _UM,
    "disk.density": 2330.0,
}

_LAMBDA_GRID_DEFAULT = (1 * _NM, 1e-3, 200)

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
                   "n_grid": [0.25 * i for i in range(1, 17)],
                   "sweep.rd_factors": [1.0, 2.0, 10.0, 100.0]},
    "fig5": {"command": "xi-yukawa-sweep",
             "sweep.lambdas": [100 * _UM, 500 * _UM, 1000 * _UM],
             "rd_grid_factors": (1.0, 100.0, 200)},
}


def _merge_settings(preset: str | None, config_path: str | None) -> dict:
    settings = dict(_DEFAULTS)
    if preset is not None:
        if preset not in _PRESETS:
            raise InputError(f"unknown preset {preset!r}; known: {sorted(_PRESETS)}")
        settings.update(_PRESETS[preset])
    if config_path is not None:
        settings.update(parse_config_file(config_path))
    return settings


def _scalar(settings: dict, key: str) -> float:
    value = settings.get(key)
    if value is None:
        raise InputError(f"missing setting {key!r}")
    if isinstance(value, list):
        raise InputError(f"setting {key!r} must be a single value")
    return value


def _vector(settings: dict, key: str) -> list[float]:
    value = settings.get(key)
    if value is None:
        raise InputError(f"missing setting {key!r}")
    if not isinstance(value, list):
        value = [value]
    if not value:
        raise InputError(f"setting {key!r} must not be empty")
    return value


def _lambda_grid(args) -> SweepGrid:
    lo = parse_quantity(args.lambda_min) if args.lambda_min else _LAMBDA_GRID_DEFAULT[0]
    hi = parse_quantity(args.lambda_max) if args.lambda_max else _LAMBDA_GRID_DEFAULT[1]
    points = args.lambda_points if args.lambda_points else _LAMBDA_GRID_DEFAULT[2]
    return SweepGrid(min=lo, max=hi, points=points, spacing="log")


def _layered_geometry(settings: dict, plotted_radius: str):
    """Returns (sphere factory keyed on the plotted radius, slab stack)."""
    inner = Layer(_scalar(settings, "sphere.inner_coat.thickness"),
                  _scalar(settings, "sphere.inner_coat.density"))
    outer = Layer(_scalar(settings, "sphere.outer_coat.thickness"),
                  _scalar(settings, "sphere.outer_coat.density"))

    def sphere_for(radius: float) -> LayeredSphere:
        core = radius
        if plotted_radius == "outer":
            core = radius - inner.thickness - outer.thickness
            if core <= 0.0:
                raise InputError("outer-radius interpretation leaves no core")
        return LayeredSphere(core_radius=core,
                             core_density=_scalar(settings, "sphere.core_density"),
                             inner_coat=inner, outer_coat=outer)

    slab = LayeredSlab(base=Layer(_scalar(settings, "slab.base.thickness"),
                                  _scalar(settings, "slab.base.density")),
                       middle=Layer(_scalar(settings, "slab.middle.thickness"),
                                    _scalar(settings, "slab.middle.density")),
                       top=Layer(_scalar(settings, "slab.top.thickness"),
                                 _scalar(settings, "slab.top.density")))
    return sphere_for, slab


def _manifest(path: str, subcommand: str, settings: dict, grid_desc: dict,
              rows: int, counters: dict) -> None:
    payload = {
        "subcommand": subcommand,
        "tool_version": __version__,
        "config_si": {key: ([format_si(v) for v in value] if isinstance(value, list)
                            else format_si(value))
                      for key, value in sorted(settings.items())
                      if not isinstance(value, (tuple, str))},
        "grid": grid_desc,
        "rows": rows,
        "counters": counters,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with open(path + ".manifest.json", "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------- workers

def _eval_eta(task):
    lam, radius, d2 = task
    result = eta(radius, d2, lam)
    return result.eta, result.regime


def _eval_eta_layered(task):
    cfg, lam = task
    result = eta_delta(cfg, YukawaParams(1.0, lam))
    return result.eta_delta, result.eta_homogeneous, result.ratio


def _eval_xi_power(task):
    inputs, n = task
    try:
        return xi_power(inputs, n), ""
    except PoleProximityError:
        return math.nan, "near_pole"


def _eval_xi_yukawa(task):
    inputs, lam = task
    return xi_yukawa(inputs, YukawaParams(1.0, lam)).ln_value


# ---------------------------------------------------------------- commands

def cmd_eta_sweep(args) -> int:
    settings = _merge_settings(args.preset, args.config)
    radii = _vector(settings, "sweep.radii") if "sweep.radii" in settings \
        else [_scalar(settings, "sphere.radius")]
    d2_values = _vector(settings, "sweep.d2_values") if "sweep.d2_values" in settings \
        else [_scalar(settings, "pfa.d2")]
    if args.d2:
        d2_values = [parse_quantity(args.d2)]
    grid = _lambda_grid(args)
    tasks = [(lam, radius, d2)
             for lam in grid.values() for radius in radii for d2 in d2_values]
    workers = resolve_workers(args.workers)
    results = map_ordered(_eval_eta, tasks, workers)
    rows = [(lam, radius, d2, value, regime)
            for (lam, radius, d2), (value, regime) in zip(tasks, results)]
    count = write_csv(args.output, ("lambda_m", "R_m", "D2_m", "eta", "regime"), rows)
    regimes: dict[str, int] = {}
    for *_xs, regime in rows:
        regimes[regime] = regimes.get(regime, 0) + 1
    _manifest(args.output, "eta-sweep", settings,
              {"lambda": grid.__dict__, "radii": radii, "d2_values":
               [format_si(v) for v in d2_values]},
              count, {"regimes": regimes})
    return 0


def cmd_eta_layered_sweep(args) -> int:
    settings = _merge_settings(args.preset, args.config)
    sphere_for, slab = _layered_geometry(settings, args.plotted_radius)
    radii = _vector(settings, "sweep.radii") if "sweep.radii" in settings \
        else [_scalar(settings, "sphere.core_radius")]
    d2_values = _vector(settings, "sweep.d2_values") if "sweep.d2_values" in settings \
        else [_scalar(settings, "pfa.d2")]
    if args.d2:
        d2_values = [parse_quantity(args.d2)]
    gap = _scalar(settings, "gap")
    grid = _lambda_grid(args)
    tasks = []
    meta = []
    for lam in grid.values():
        for radius in radii:
            for d2 in d2_values:
                cfg = LayeredConfig(separation=gap, sphere=sphere_for(radius),
                                    slab=slab, d2=d2)
                tasks.append((cfg, lam))
                meta.append((lam, radius, d2))
    workers = resolve_workers(args.workers)
    results = map_ordered(_eval_eta_layered, tasks, workers)
    rows = [(lam, radius, d2, delta, hom, ratio)
            for (lam, radius, d2), (delta, hom, ratio) in zip(meta, results)]
    count = write_csv(args.output,
                      ("lambda_m", "R_m", "D2_m", "eta_delta", "eta", "ratio"), rows)
    _manifest(args.output, "eta-layered-sweep", settings,
              {"lambda": grid.__dict__, "radii": radii,
               "d2_values": [format_si(v) for v in d2_values],
               "plotted_radius": args.plotted_radius},
              count, {})
    return 0


def _xi_geometry(settings: dict, rd: float) -> XiInputs:
    return XiInputs(a=_scalar(settings, "gap"),
                    sphere_radius=_scalar(settings, "sphere.radius"),
                    disk=Disk(radius=rd, thickness=_scalar(settings, "disk.thickness"),
                              density=_scalar(settings, "disk.density")))


def cmd_xi_power_sweep(args) -> int:
    settings = _merge_settings(args.preset, args.config)
    mode = args.mode or settings.get("mode", "rd")
    radius = _scalar(settings, "sphere.radius")
    tasks, meta = [], []
    if mode == "rd":
        exponents = _vector(settings, "sweep.exponents")
        if any(n <= 0 for n in exponents):
            raise InputError("power-law exponents must be > 0")
        lo, hi, points = settings.get("rd_grid_factors", (0.1, 100.0, 200))
        rd_grid = SweepGrid(min=lo * radius, max=hi * radius, points=int(points))
        for rd in rd_grid.values():
            for n in exponents:
                tasks.append((_xi_geometry(settings, rd), n))
                meta.append((rd, n))
        header = ("Rd_m", "N", "xi")
        grid_desc = {"rd": rd_grid.__dict__, "exponents": exponents}
    elif mode == "n":
        n_values = settings.get("n_grid")
        if n_values is None:
            n_values = _vector(settings, "sweep.exponents")
        if any(n <= 0 for n in n_values):
            raise InputError("power-law exponents must be > 0")
        rd_factors = _vector(settings, "sweep.rd_factors")
        for n in n_values:
            for factor in rd_factors:
                tasks.append((_xi_geometry(settings, factor * radius), n))
                meta.append((n, factor * radius))
        header = ("N", "Rd_m", "xi")
        grid_desc = {"n": n_values, "rd_factors": rd_factors}
    else:
        raise InputError(f"mode must be 'rd' or 'n', got {mode!r}")
    workers = resolve_workers(args.workers)
    results = map_ordered(_eval_xi_power, tasks, workers)
    rows = [(m0, m1, value) for (m0, m1), (value, _flag) in zip(meta, results)]
    count = write_csv(args.output, header, rows)
    near_pole = sum(1 for _v, flag in results if flag == "near_pole")
    _manifest(args.output, "xi-power-sweep", settings, grid_desc, count,
              {"rows_near_pole": near_pole})
    return 0


def cmd_xi_yukawa_sweep(args) -> int:
    settings = _merge_settings(args.preset, args.config)
    lambdas = _vector(settings, "sweep.lambdas")
    radius = _scalar(settings, "sphere.radius")
    lo, hi, points = settings.get("rd_grid_factors", (1.0, 100.0, 200))
    rd_grid = SweepGrid(min=lo * radius, max=hi * radius, points=int(points))
    tasks, meta = [], []
    for rd in rd_grid.values():
        for lam in lambdas:
            tasks.append((_xi_geometry(settings, rd), lam))
            meta.append((rd, lam))
    workers = resolve_workers(args.workers)
    results = map_ordered(_eval_xi_yukawa, tasks, workers)
    rows = [(rd, lam, ln_xi) for (rd, lam), ln_xi in zip(meta, results)]
    count = write_csv(args.output, ("Rd_m", "lambda_m", "ln_xi"), rows)
    _manifest(args.output, "xi-yukawa-sweep", settings,
              {"rd": rd_grid.__dict__, "lambdas": lambdas}, count, {})
    return 0


def cmd_oracle_verify(args) -> int:
    settings = _merge_settings(None, args.config)
    constants = PhysicalConstants(G=_scalar(settings, "constants.G"))
    results = run_suite(constants, quick=args.quick, tolerance_override=args.tolerance)
    report = format_report(results)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(report + "\n")
    print(report)
    if not suite_passed(results):
        failing = [r.name for r in results if not r.passed]
        print(f"FAILED checks: {', '.join(failing)}", file=sys.stderr)
        return 2
    return 0


def cmd_limits(args) -> int:
    settings = _merge_settings(args.preset, args.config)
    bounds = ResidualBound.from_csv(args.residuals)
    constants = PhysicalConstants(G=_scalar(settings, "constants.G"))
    d2 = parse_quantity(args.d2) if args.d2 else _scalar(settings, "pfa.d2")
    if args.geometry == "layered":
        sphere_for, slab = _layered_geometry(settings, "core")
        geometry = LayeredConfig(separation=bounds.entries[0][0],
                                 sphere=sphere_for(_scalar(settings, "sphere.core_radius")),
                                 slab=slab, d2=d2)
    else:
        geometry = SphereSlabConfig(separation=bounds.entries[0][0],
                                    sphere_radius=_scalar(settings, "sphere.radius"),
                                    sphere_density=_scalar(settings, "sphere.density"),
                                    slab_thickness=_scalar(settings, "slab.thickness"),
                                    slab_density=_scalar(settings, "slab.density"))
    grid = _lambda_grid(args)
    header = ["lambda_m", "alpha_bound", "best_separation_m", "method"]
    if args.method == "epfa":
        header.append("shift_vs_pfa")
    rows = []
    unreliable = 0
    for lam in grid.values():
        point = alpha_limit(lam, bounds, geometry, args.method, constants, d2)
        row = [point.lam, point.alpha_bound, point.best_separation, args.method]
        if args.method == "epfa":
            row.append(limit_shift(lam, geometry, d2, constants))
        if lam > PFA_RELIABLE_LAMBDA_MAX:
            unreliable += 1
        rows.append(row)
    count = write_csv(args.output, header, rows)
    _manifest(args.output, "limits", settings,
              {"lambda": grid.__dict__, "method": args.method, "geometry": args.geometry},
              count, {"rows_above_pfa_reliable_lambda": unreliable,
                      "pfa_reliable_lambda_max_m": format_si(PFA_RELIABLE_LAMBDA_MAX)})
    return 0


# ---------------------------------------------------------------- parser

def _add_common(sub):
    sub.add_argument("--config", help="key = value config file")
    sub.add_argument("--output", required=True, help="CSV output path")
    sub.add_argument("--preset", help="figure preset name")
    sub.add_argument("--workers", type=int, default=None,
                     help="worker processes (default: $YPFA_WORKERS or 1)")
    sub.add_argument("--lambda-min", help="grid lower bound, e.g. '1 nm'")
    sub.add_argument("--lambda-max", help="grid upper bound, e.g. '1 mm'")
    sub.add_argument("--lambda-points", type=int, help="grid point count")
    sub.add_argument("--d2", help="virtual plate thickness, e.g. '10 um' or 'inf'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ypfa", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("eta-sweep", help="exact/PFA ratio sweep")
    _add_common(sub)
    sub.set_defaults(func=cmd_eta_sweep)

    sub = commands.add_parser("eta-layered-sweep", help="layered exact/PFA ratio sweep")
    _add_common(sub)
    sub.add_argument("--plotted-radius", choices=("core", "outer"), default="core",
                     help="whether sweep radii mean the core or the coated radius")
    sub.set_defaults(func=cmd_eta_layered_sweep)

    sub = commands.add_parser("xi-power-sweep", help="finite-disk power-law ratio sweep")
    _add_common(sub)
    sub.add_argument("--mode", choices=("rd", "n"), default=None,
                     help="sweep the disk radius or the exponent")
    sub.set_defaults(func=cmd_xi_power_sweep)

    sub = commands.add_parser("xi-yukawa-sweep", help="finite-disk Yukawa ratio sweep")
    _add_common(sub)
    sub.set_defaults(func=cmd_xi_yukawa_sweep)

    sub = commands.add_parser("oracle-verify", help="closed forms vs quadrature oracle")
    sub.add_argument("--config", help="key = value config file")
    sub.add_argument("--output", help="also write the report here")
    sub.add_argument("--tolerance", type=float, default=None,
                     help="override the per-check tolerances")
    sub.add_argument("--quick", action="store_true",
                     help="one configuration per check family")
    sub.set_defaults(func=cmd_oracle_verify)

    sub = commands.add_parser("limits", help="alpha-lambda exclusion bounds")
    _add_common(sub)
    sub.add_argument("--residuals", required=True,
                     help="CSV with header separation_m,residual_N")
    sub.add_argument("--method", choices=("pfa", "epfa"), default="epfa")
    sub.add_argument("--geometry", choices=("homogeneous", "layered"),
                     default="homogeneous")
    sub.set_defaults(func=cmd_limits)
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
