"""The benchmark's workloads: seeded inputs, job lists and output checks.

A job is one ``ypfa.cli.main(argv)`` call plus a check of what it wrote.
A check returns a list of problems; any problem, a non-zero exit or an
exception makes the job count as failed. See README.md for why each
workload exists and which layers it exercises.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import resource
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

ETA_HEADER = "lambda_m,R_m,D2_m,eta,regime"
LAYERED_HEADER = "lambda_m,R_m,D2_m,eta_delta,eta,ratio"

#: (preset, subcommand, CSV header, rows = product of the preset's grid axes)
PRESETS = [
    ("fig2-left", "eta-sweep", ETA_HEADER, 200 * 3 * 1),
    ("fig2-right", "eta-sweep", ETA_HEADER, 200 * 1 * 4),
    ("fig3-left", "eta-layered-sweep", LAYERED_HEADER, 200 * 3 * 1),
    ("fig3-right", "eta-layered-sweep", LAYERED_HEADER, 200 * 1 * 4),
    ("fig4-left", "xi-power-sweep", "Rd_m,N,xi", 200 * 4),
    ("fig4-right", "xi-power-sweep", "N,Rd_m,xi", 16 * 4),
    ("fig5", "xi-yukawa-sweep", "Rd_m,lambda_m,ln_xi", 200 * 3),
]

DENSE_ETA_POINTS = 20_000      # x 3 radii of fig2-left = 60,000 rows
DENSE_LAYERED_POINTS = 2_000   # x 3 radii of fig3-left = 6,000 rows
ORACLE_ROWS = 5
ORACLE_REL_TOL = 1e-9

LIMITS_POINTS = 2_000
LIMITS_JOBS = [("epfa", "homogeneous"), ("pfa", "homogeneous"), ("epfa", "layered")]
SHIFT_REL_TOL = 1e-10
#: every lambda point costs one force evaluation per residual row, so the
#: row count is fixed to keep the cost of a pass the same for every seed
RESIDUAL_ROWS = 9

VERIFY_RESULTS = 14


@dataclass
class Job:
    name: str
    argv: list[str]
    check: Callable[[str], list[str]]  # captured stdout -> problems
    group: str = ""  # the part of a combined workload the job belongs to


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    seed_applies: bool
    #: corrupts one output the way a defect would and returns the problems
    #: the job's check then reports; an empty list means the check missed it
    corrupt: Callable[[], list[str]]
    inputs: dict[str, str] = field(default_factory=dict)  # input -> sha256


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_job(job: Job) -> tuple[float, float, list[str]]:
    """Run one job in process; returns (wall s, CPU s, problems).

    Only the ypfa.cli.main call is timed. CPU time includes pool children,
    which are reaped before main returns.
    """
    import ypfa.cli

    stdout = io.StringIO()
    cpu = _cpu_seconds()
    start = perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            code = ypfa.cli.main(job.argv)
    except (Exception, SystemExit) as exc:  # a crash is a failed job, not a dead run
        return perf_counter() - start, _cpu_seconds() - cpu, [f"raised {exc!r}"]
    wall, cpu = perf_counter() - start, _cpu_seconds() - cpu
    problems = [] if code == 0 else [f"exit code {code}"]
    try:
        problems += job.check(stdout.getvalue())
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"output unreadable: {exc!r}")
    return wall, cpu, problems


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** rng.random()


def alter_digit(path: str, line_no: int, column: int) -> None:
    """Change the 8th significant digit of one CSV cell: a 1e-7 relative
    change, well above every tolerance a check applies."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    cells = lines[line_no].split(",")
    cell = cells[column]
    digits = [i for i, ch in enumerate(cell.split("e")[0]) if ch.isdigit()]
    pos = digits[7]
    cells[column] = cell[:pos] + str((int(cell[pos]) + 1) % 10) + cell[pos + 1:]
    lines[line_no] = ",".join(cells)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines))


# ---------------------------------------------------------------- verify

def _check_verify(stdout: str) -> list[str]:
    problems = []
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) != VERIFY_RESULTS:
        problems.append(f"{len(lines)} check results, expected {VERIFY_RESULTS}")
    problems += [line for line in lines if not line.startswith(("PASS", "INFO"))]
    return problems


def verify_workload(seed: int, tmp: str) -> Workload:
    """The full oracle-verify suite; it has no inputs, so the seed is unused."""
    import ypfa.verify

    def corrupt():
        # one closed form off by 1e-3 must fail its family, as a real drift would
        original = ypfa.verify.disk_gravity_force
        ypfa.verify.disk_gravity_force = lambda *a, **k: 1.001 * original(*a, **k)
        try:
            return run_job(Job("verify-quick", ["oracle-verify", "--quick"], _check_verify))[2]
        finally:
            ypfa.verify.disk_gravity_force = original

    return Workload("verify", [Job("oracle-verify", ["oracle-verify"], _check_verify)],
                    seed_applies=False, corrupt=corrupt)


# ---------------------------------------------------------------- figures

def _read_manifest(path: str) -> dict:
    with open(path + ".manifest.json", encoding="utf-8") as handle:
        return json.load(handle)


def _check_csv(path: str, header: str, rows: int, *, sha256: str | None = None,
               expected: dict[int, float] | None = None, column: int = 3) -> list[str]:
    """Header, row count, nan rows against the manifest, and optionally the
    exact bytes and some rows' values (row index -> expected value)."""
    problems = []
    digest = hashlib.sha256()
    count = nan_rows = 0
    seen: dict[int, float] = {}
    with open(path, "rb") as handle:
        first = handle.readline()
        digest.update(first)
        if first.decode().rstrip("\n") != header:
            problems.append(f"header {first!r}, expected {header!r}")
        for line in handle:
            digest.update(line)
            if b"nan" in line:
                nan_rows += 1
            if expected and count in expected:
                seen[count] = float(line.split(b",")[column])
            count += 1
    if count != rows:
        problems.append(f"{count} rows, expected {rows}")
    manifest = _read_manifest(path)
    if manifest.get("rows") != count:
        problems.append(f"manifest counts {manifest.get('rows')} rows, file has {count}")
    near_pole = manifest.get("counters", {}).get("rows_near_pole", 0)
    if nan_rows != near_pole:
        problems.append(f"{nan_rows} rows hold nan, manifest counts {near_pole} near a pole")
    if sha256 is not None and digest.hexdigest() != sha256:
        problems.append("bytes differ from the pooled reference")
    for index, value in (expected or {}).items():
        got = seen.get(index, math.nan)
        if not abs(got - value) <= ORACLE_REL_TOL * abs(value):
            problems.append(f"row {index}: {got!r} vs oracle {value!r}")
    return problems


def oracle_eta(lam: float, radius: float, d2: float) -> float:
    """eta from the quadrature oracle alone: exact sphere/half-space force
    over 2 pi R times the parallel-plate energy lam * P(d2)."""
    from ypfa.core import INFINITE, YukawaParams
    from ypfa.oracle import QuadratureSpec, oracle_slab_slab_pressure, oracle_sphere_slab_yukawa
    from ypfa.yukawa import SphereSlabConfig

    spec = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-300)
    p = YukawaParams(1.0, lam)
    cfg = SphereSlabConfig(separation=lam, sphere_radius=radius, sphere_density=1.0,
                           slab_thickness=INFINITE, slab_density=1.0)
    energy = oracle_sphere_slab_yukawa(cfg, p, q=spec)
    pressure = oracle_slab_slab_pressure(lam, INFINITE, 1.0, d2, 1.0, p, q=spec)
    if not (energy.converged and pressure.converged):
        raise RuntimeError(f"oracle did not converge at lambda={lam!r} R={radius!r}")
    return (energy.value / lam) / (2.0 * math.pi * radius * lam * pressure.value)


def figures_workload(seed: int, tmp: str) -> Workload:
    """Seven presets plus a dense eta-sweep and a dense layered sweep whose
    lambda bounds the seed draws within x[0.5, 2] of 1 nm and 1 mm."""
    rng = random.Random(seed)
    jobs = []
    for preset, command, header, rows in PRESETS:
        out = os.path.join(tmp, f"{preset}.csv")
        jobs.append(Job(preset, [command, "--preset", preset, "--output", out],
                        lambda _stdout, out=out, header=header, rows=rows:
                        _check_csv(out, header, rows)))
    dense = {}
    for name, command, preset, points in [
            ("dense-eta", "eta-sweep", "fig2-left", DENSE_ETA_POINTS),
            ("dense-layered", "eta-layered-sweep", "fig3-left", DENSE_LAYERED_POINTS)]:
        lo = _log_uniform(rng, 0.5e-9, 2e-9)
        hi = _log_uniform(rng, 0.5e-3, 2e-3)
        dense[name] = [command, "--preset", preset, "--lambda-min", repr(lo),
                       "--lambda-max", repr(hi), "--lambda-points", str(points)]
    inputs = {name: _sha256_text(" ".join(argv)) for name, argv in dense.items()}

    # untimed reference of the 60k-row sweep through the process pool (the
    # timed passes run one worker, so equal bytes show determinism across
    # worker counts), and the oracle for a few seeded rows of it
    ref = os.path.join(tmp, "dense-eta-reference.csv")
    pool = str(min(2, len(os.sched_getaffinity(0))))
    ref_job = Job("dense-eta-reference",
                  dense["dense-eta"] + ["--workers", pool, "--output", ref],
                  lambda _stdout: [])
    problems = run_job(ref_job)[2]
    if problems:
        raise RuntimeError(f"reference sweep failed: {problems}")
    ref_sha = sha256_file(ref)
    picks = set(rng.sample(range(DENSE_ETA_POINTS * 3), ORACLE_ROWS))
    oracle = {}
    with open(ref, encoding="utf-8") as handle:
        next(handle)
        for index, line in enumerate(handle):
            if index in picks:
                lam, radius, d2 = (float(x) for x in line.split(",")[:3])
                oracle[index] = oracle_eta(lam, radius, d2)

    eta_out = os.path.join(tmp, "dense-eta.csv")
    jobs.append(Job("dense-eta", dense["dense-eta"] + ["--output", eta_out],
                    lambda _stdout: _check_csv(eta_out, ETA_HEADER, DENSE_ETA_POINTS * 3,
                                                sha256=ref_sha, expected=oracle)))
    layered_out = os.path.join(tmp, "dense-layered.csv")
    jobs.append(Job("dense-layered", dense["dense-layered"] + ["--output", layered_out],
                    lambda _stdout: _check_csv(layered_out, LAYERED_HEADER,
                                                DENSE_LAYERED_POINTS * 3)))
    bad_row = 1 + rng.randrange(DENSE_ETA_POINTS * 3)

    def corrupt():
        alter_digit(eta_out, bad_row, 3)
        return jobs[-2].check("")

    return Workload("figures", jobs, seed_applies=True, inputs=inputs, corrupt=corrupt)


# ---------------------------------------------------------------- limits

def write_residuals(rng: random.Random, path: str) -> None:
    """RESIDUAL_ROWS strictly increasing separations, log-uniform in
    [50 nm, 1 um], the smallest at or below 100 nm so that no lambda of the
    grid is degenerate; residuals fall off as 1/sqrt(a) with a seeded factor
    in x[0.7, 1.4]."""
    count = RESIDUAL_ROWS
    while True:
        separations = [_log_uniform(rng, 50e-9, 100e-9)]
        separations += [_log_uniform(rng, 50e-9, 1e-6) for _ in range(count - 1)]
        cells = sorted((f"{a:.6e}" for a in separations), key=float)
        if len(set(cells)) == count:
            break
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("separation_m,residual_N\n")
        for cell in cells:
            residual = 3e-16 * math.sqrt(1e-7 / float(cell)) * 2.0 ** rng.uniform(-0.5, 0.5)
            handle.write(f"{cell},{residual:.6e}\n")


def _read_limits(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _check_limits(path: str, method: str, geometry: str,
                  epfa_path: str | None = None) -> list[str]:
    header, rows = _read_limits(path)
    expected = ["lambda_m", "alpha_bound", "best_separation_m", "method"]
    if method == "epfa":
        expected.append("shift_vs_pfa")
    if header != expected:
        return [f"header {header}, expected {expected}"]
    problems = []
    if len(rows) != LIMITS_POINTS:
        problems.append(f"{len(rows)} rows, expected {LIMITS_POINTS}")
    for row in rows:
        alpha = float(row[1])
        if not (math.isfinite(alpha) and alpha > 0.0):
            problems.append(f"alpha_bound {row[1]} at lambda {row[0]}")
        if geometry == "homogeneous" and method == "epfa" and not float(row[4]) >= 1.0:
            problems.append(f"shift_vs_pfa {row[4]} < 1 at lambda {row[0]}")
    if epfa_path is not None:
        _h, epfa_rows = _read_limits(epfa_path)
        if [r[0] for r in epfa_rows] != [r[0] for r in rows]:
            problems.append("lambda grids of the epfa and pfa jobs differ")
        else:
            for e, p in zip(epfa_rows, rows):
                ratio, shift = float(e[1]) / float(p[1]), float(e[4])
                if not abs(ratio - shift) <= SHIFT_REL_TOL * shift:
                    problems.append(f"alpha_epfa/alpha_pfa {ratio!r} vs shift {shift!r} "
                                    f"at lambda {e[0]}")
    return problems[:5]


def limits_workload(seed: int, tmp: str) -> Workload:
    """Homogeneous epfa and pfa, then layered epfa, over 2,000 lambda points
    against a residual file drawn from the seed."""
    rng = random.Random(seed)
    residuals = os.path.join(tmp, "residuals.csv")
    write_residuals(rng, residuals)
    outputs = {}
    jobs = []
    for method, geometry in LIMITS_JOBS:
        out = os.path.join(tmp, f"limits-{method}-{geometry}.csv")
        outputs[method, geometry] = out
        epfa = outputs[("epfa", "homogeneous")] if (method, geometry) == ("pfa", "homogeneous") \
            else None
        jobs.append(Job(f"{method}-{geometry}",
                        ["limits", "--residuals", residuals, "--lambda-points",
                         str(LIMITS_POINTS), "--method", method, "--geometry", geometry,
                         "--output", out],
                        lambda _stdout, out=out, m=method, g=geometry, e=epfa:
                        _check_limits(out, m, g, e)))
    bad_row = 1 + rng.randrange(LIMITS_POINTS)

    def corrupt():
        alter_digit(outputs[("epfa", "homogeneous")], bad_row, 1)
        return jobs[1].check("")

    return Workload("limits", jobs, seed_applies=True,
                    inputs={"residuals.csv": sha256_file(residuals)}, corrupt=corrupt)


# ---------------------------------------------------------------- closed-forms

def closed_forms_workload(seed: int, tmp: str) -> Workload:
    """The figures jobs, then the limits jobs, in one pass.

    They run as one workload so that each run can measure for twice as long:
    with three workloads the run-to-run spread of pass_s on a 2-vCPU VM
    reached the 0.25 bound. The two parts stay apart in the record (pass
    time per group) and in the traced layers.
    """
    parts = [figures_workload(seed, tmp), limits_workload(seed, tmp)]
    for part in parts:
        for job in part.jobs:
            job.group = part.name

    def corrupt():
        caught = [part.corrupt() for part in parts]
        return [problem for problems in caught for problem in problems] if all(caught) else []

    return Workload("closed-forms", [job for part in parts for job in part.jobs],
                    seed_applies=True, corrupt=corrupt,
                    inputs={name: sha for part in parts for name, sha in part.inputs.items()})


WORKLOADS = {"verify": verify_workload, "closed-forms": closed_forms_workload}
