import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st
from test_sweeps import _reference_csv

import ypfa.sweeps
import ypfa.verify
from ypfa import (INFINITE, Layer, LayeredConfig, LayeredSlab, LayeredSphere, SweepGrid,
                  YukawaParams, eta, eta_delta)
from ypfa.cli import main

RESIDUALS = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                         "synthetic_residuals.csv")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def run(*argv):
    return main(list(argv))


def run_python(code, *argv):
    """code in a fresh interpreter that imports ypfa from src, so a hang
    fails on the timeout instead of hanging the suite."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv],
                          env=env, capture_output=True, text=True, timeout=60)


def run_subprocess(*argv):
    """The CLI in a fresh interpreter."""
    return run_python("import sys; from ypfa.cli import main; sys.exit(main(sys.argv[1:]))",
                      *argv)


def test_eta_sweep_single_point(tmp_path):
    out = tmp_path / "eta.csv"
    cfg = tmp_path / "cfg"
    cfg.write_text("sweep.radii = 150 um\nsweep.d2_values = inf\n")
    assert run("eta-sweep", "--config", str(cfg), "--output", str(out),
               "--lambda-min", "150 um", "--lambda-points", "1") == 0
    lines = read(out).splitlines()
    assert lines[0] == "lambda_m,R_m,D2_m,eta,regime"
    fields = lines[1].split(",")
    assert float(fields[3]) == pytest.approx(2 * math.exp(-2.0), rel=1e-11, abs=0.0)
    assert fields[2] == "inf"
    assert fields[4] == "direct"
    manifest = json.loads(read(str(out) + ".manifest.json"))
    assert manifest["subcommand"] == "eta-sweep"
    assert manifest["rows"] == 1
    assert manifest["counters"]["regimes"] == {"direct": 1}


def test_eta_sweep_underflowing_series_terminates(tmp_path):
    # u = 2R/lambda ~ 3e-174: the Phi series' first term underflows to 0.
    # Run in a subprocess so a regression to the endless loop fails on the
    # timeout instead of hanging the suite.
    out = tmp_path / "x.csv"
    done = run_subprocess("eta-sweep", "--lambda-min", "1e170", "--lambda-max", "1e171",
                          "--lambda-points", "2", "--output", str(out))
    assert done.returncode == 0, done.stderr
    rows = read(out).splitlines()[1:]
    assert len(rows) == 2
    assert all(float(row.split(",")[3]) == 0.0 for row in rows)


def test_eta_sweep_d2_flag_overrides(tmp_path):
    out = tmp_path / "d2.csv"
    cfg = tmp_path / "cfg"
    cfg.write_text("sweep.radii = 150 um\nsweep.d2_values = inf\n")
    assert run("eta-sweep", "--config", str(cfg), "--output", str(out),
               "--d2", "1 um", "--lambda-min", "1 um", "--lambda-points", "1") == 0
    row = read(out).splitlines()[1].split(",")
    assert float(row[2]) == 1e-6
    assert float(row[3]) > 1.0  # thin virtual plate pushes the ratio above 1


def test_eta_sweep_fig2_left_values(tmp_path):
    out = tmp_path / "fig2.csv"
    assert run("eta-sweep", "--preset", "fig2-left", "--output", str(out),
               "--lambda-points", "25") == 0
    rows = [line.split(",") for line in read(out).splitlines()[1:]]
    assert len(rows) == 25 * 3
    etas = [float(r[3]) for r in rows]
    assert all(0.0 < value < 1.0 for value in etas)
    at_1nm_150um = [r for r in rows
                    if float(r[0]) == 1e-9 and float(r[1]) == 150e-6]
    assert float(at_1nm_150um[0][3]) >= 0.99999


def test_eta_sweep_empty_radius_list_fails(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("sweep.radii =\n")
    assert run("eta-sweep", "--config", str(cfg),
               "--output", str(tmp_path / "x.csv")) == 1


def test_eta_sweep_unwritable_output():
    assert run("eta-sweep", "--preset", "fig2-left", "--lambda-points", "2",
               "--output", "/nonexistent-dir/x.csv") == 1


@pytest.mark.parametrize("command, preset, extra, config", [
    pytest.param("eta-sweep", "fig2-left", ("--lambda-points", "40"), None, id="fig2-left"),
    pytest.param("eta-sweep", "fig2-right", (), None, id="fig2-right"),
    pytest.param("eta-layered-sweep", "fig3-left", (), None, id="fig3-left"),
    pytest.param("eta-layered-sweep", "fig3-right", (), None, id="fig3-right"),
    pytest.param("xi-power-sweep", "fig4-left", (), None, id="fig4-left"),
    pytest.param("xi-power-sweep", "fig4-right", (), None, id="fig4-right"),
    pytest.param("xi-yukawa-sweep", "fig5", (), None, id="fig5"),
    # 400 of the 600 rows are within POLE_GUARD of N = 1: the streamed
    # rows_near_pole tally must not depend on the worker count
    pytest.param("xi-power-sweep", "fig4-left", (), "sweep.exponents = 1.0000001, 2, 0.9999995\n",
                 id="fig4-left-near-pole"),
])
def test_determinism_across_worker_counts(tmp_path, command, preset, extra, config):
    if config is not None:
        (tmp_path / "cfg").write_text(config)
        extra = ("--config", str(tmp_path / "cfg"))
    bodies, manifests = [], []
    for workers in (1, 4, 8):
        out = tmp_path / f"w{workers}.csv"
        assert run(command, "--preset", preset, "--output", str(out), *extra,
                   "--workers", str(workers)) == 0
        bodies.append(read(out))
        manifests.append(json.loads(read(f"{out}.manifest.json")))
        del manifests[-1]["timestamp"]
    assert bodies[0] == bodies[1] == bodies[2]
    assert manifests[0] == manifests[1] == manifests[2]
    if config is not None:
        assert manifests[0]["counters"] == {"rows_near_pole": 400}


@pytest.mark.parametrize("command, preset, extra, config, counters", [
    # 600 lambda up to 10 m: rows of both regimes
    pytest.param("eta-sweep", "fig2-left", ("--lambda-points", "600", "--lambda-max", "10 m"),
                 None, {"regimes": {"direct": 1486, "series_small_u": 314}}, id="eta-sweep"),
    pytest.param("xi-power-sweep", "fig4-left", (), "sweep.exponents = 1.0000001, 2, 0.9999995\n",
                 {"rows_near_pole": 400}, id="fig4-left-near-pole"),
])
def test_output_does_not_depend_on_the_chunk_size(tmp_path, monkeypatch, command, preset, extra,
                                                  config, counters):
    # each chunk task formats its rows and tallies its counters; the file
    # and its manifest must come out the same however the grid is cut
    if config is not None:
        (tmp_path / "cfg").write_text(config)
        extra = ("--config", str(tmp_path / "cfg"))
    outputs = set()
    for chunk_max in (1, 7, ypfa.sweeps.POOL_CHUNK_MAX):
        monkeypatch.setattr(ypfa.sweeps, "POOL_CHUNK_MAX", chunk_max)
        for workers in ("1", "2"):
            out = tmp_path / f"c{chunk_max}-w{workers}.csv"
            assert run(command, "--preset", preset, "--output", str(out), *extra,
                       "--workers", workers) == 0
            manifest = json.loads(read(f"{out}.manifest.json"))
            assert manifest["counters"] == counters
            del manifest["timestamp"]
            outputs.add((read(out), json.dumps(manifest, sort_keys=True)))
    assert len(outputs) == 1


_POOL_FREE_RUNS = """
import sys
from ypfa.cli import build_parser, main
eta, residuals, limits = sys.argv[1:]
build_parser()
assert main(["eta-sweep", "--lambda-points", "3", "--output", eta]) == 0
assert main(["limits", "--residuals", residuals, "--lambda-points", "3",
             "--output", limits]) == 0
assert main(["oracle-verify", "--quick"]) == 0
print(sorted({"concurrent.futures.process", "multiprocessing"} & set(sys.modules)))
import concurrent.futures, ypfa.sweeps
pool = ypfa.sweeps.ProcessPoolExecutor(max_workers=1)  # starts no process before a submit
print(type(pool) is concurrent.futures.ProcessPoolExecutor)
pool.shutdown()
"""


def test_one_worker_runs_never_import_the_pool(tmp_path):
    # the pool's modules load at the first pooled map: a fresh process that
    # parses every subcommand and makes one-worker runs of three of them
    # never imports them, and the sweeps seam still builds the real pool
    done = run_python(_POOL_FREE_RUNS, str(tmp_path / "eta.csv"), RESIDUALS,
                      str(tmp_path / "limits.csv"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["[]", "True"]


def _quantities(values) -> str:
    return ", ".join("inf" if value == INFINITE else f"{value!r} m" for value in values)


_radii = st.floats(min_value=-5.0, max_value=-2.0).map(lambda e: 10.0 ** e)
_thin = st.floats(min_value=-9.0, max_value=-6.0).map(lambda e: 10.0 ** e)


@settings(max_examples=30, deadline=None)
@given(lam_min=st.floats(min_value=-12.0, max_value=2.0).map(lambda e: 10.0 ** e),
       decades=st.floats(min_value=0.1, max_value=6.0), points=st.integers(1, 9),
       radii=st.lists(_radii, min_size=1, max_size=3),
       d2_values=st.lists(st.one_of(st.just(INFINITE), _thin, _radii), min_size=1, max_size=3),
       coats=st.one_of(st.just((0.0, 0.0)), st.tuples(st.just(0.0), _thin),
                       st.tuples(_thin, _thin)),
       plotted_radius=st.sampled_from(["core", "outer"]))
def test_eta_sweep_rows_equal_the_single_point_functions(lam_min, decades, points, radii,
                                                         d2_values, coats, plotted_radius):
    # each lambda's rows come from per-lambda factors; every row must equal
    # eta or eta_delta at its own point, bit for bit as per-cell formatting
    # wrote it before the key cells were formatted once per sweep
    lam_max = lam_min * 10.0 ** decades
    lams = SweepGrid(min=lam_min, max=lam_max, points=points).values()
    inner, outer = Layer(coats[0], 7140.0), Layer(coats[1], 19280.0)
    flags = ["--lambda-min", f"{lam_min!r} m", "--lambda-max", f"{lam_max!r} m",
             "--lambda-points", str(points)]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg")
        with open(cfg, "w", encoding="utf-8") as handle:
            handle.write(f"sweep.radii = {_quantities(radii)}\n"
                         f"sweep.d2_values = {_quantities(d2_values)}\n"
                         f"sphere.inner_coat.thickness = {coats[0]!r} m\n"
                         f"sphere.outer_coat.thickness = {coats[1]!r} m\n")
        homogeneous, layered = os.path.join(tmp, "eta.csv"), os.path.join(tmp, "layered.csv")
        assert run("eta-sweep", "--config", cfg, "--output", homogeneous, *flags) == 0
        assert run("eta-layered-sweep", "--config", cfg, "--plotted-radius", plotted_radius,
                   "--output", layered, *flags) == 0
        with open(homogeneous, "rb") as handle:
            got_homogeneous = handle.read()
        with open(layered, "rb") as handle:
            got_layered = handle.read()

    rows = []
    for lam in lams:
        for radius in radii:
            for d2 in d2_values:
                result = eta(radius, d2, lam)
                rows.append((lam, radius, d2, result.eta, result.regime))
    assert got_homogeneous == _reference_csv(("lambda_m", "R_m", "D2_m", "eta", "regime"), rows)

    slab = LayeredSlab(Layer(3.5e-6, 2330.0))  # eta_delta does not depend on the slab
    rows = []
    for lam in lams:
        for radius in radii:
            core = radius if plotted_radius == "core" else radius - coats[0] - coats[1]
            sphere = LayeredSphere(core, 4100.0, inner, outer)
            for d2 in d2_values:
                result = eta_delta(LayeredConfig(100e-9, sphere, slab, d2), YukawaParams(1.0, lam))
                rows.append((lam, radius, d2, result.eta_delta, result.eta_homogeneous,
                             result.ratio))
    assert got_layered == _reference_csv(
        ("lambda_m", "R_m", "D2_m", "eta_delta", "eta", "ratio"), rows)


@pytest.mark.parametrize("command", ["eta-sweep", "eta-layered-sweep"])
def test_first_error_in_grid_order_at_any_worker_count(tmp_path, capsys, command):
    # the middle lambda is the first whose plate factor for d2 = 1e-300 m is
    # subnormal, at the second D2 of its first radius; the last one fails too
    cfg = tmp_path / "cfg"
    cfg.write_text("sweep.radii = 50 um, 150 um\nsweep.d2_values = 1 mm, 1e-300 m\n")
    errors = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.csv"
        assert run(command, "--config", str(cfg), "--lambda-min", "1 m", "--lambda-max",
                   "1e16 m", "--lambda-points", "3", "--workers", workers,
                   "--output", str(out)) == 1
        errors.append(capsys.readouterr().err)
        assert not out.exists()
    assert errors[0] == errors[1]
    assert "eta is undefined at lambda = 1e+08 m: the plate factor" in errors[0]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("old", [None, b"an older file\n"])
def test_sweep_failing_mid_stream_leaves_no_output(tmp_path, capsys, workers, old):
    # the config of test_first_error_in_grid_order_at_any_worker_count on a
    # 1,000-point grid: chunks stream until lambda ~ 4.5e7 m, past the
    # first chunk, then the sweep fails
    cfg = tmp_path / "cfg"
    cfg.write_text("sweep.radii = 50 um, 150 um\nsweep.d2_values = 1 mm, 1e-300 m\n")
    out = tmp_path / "out.csv"
    if old is not None:
        out.write_bytes(old)
    assert run("eta-sweep", "--config", str(cfg), "--lambda-min", "1 m", "--lambda-max",
               "1e16 m", "--lambda-points", "1000", "--workers", workers,
               "--output", str(out)) == 1
    assert "eta is undefined at lambda = " in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["cfg"] + ["out.csv"] * (old is not None)
    if old is not None:
        assert out.read_bytes() == old


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_failing_mid_chunk_leaves_no_output(tmp_path, capsys, monkeypatch, workers):
    # the sweep of test_sweep_failing_mid_stream_leaves_no_output cut into
    # chunks of 7 lambda: 68 chunks are written before the one whose third
    # lambda fails
    monkeypatch.setattr(ypfa.sweeps, "POOL_CHUNK_MAX", 7)
    cfg = tmp_path / "cfg"
    cfg.write_text("sweep.radii = 50 um, 150 um\nsweep.d2_values = 1 mm, 1e-300 m\n")
    out = tmp_path / "out.csv"
    out.write_bytes(b"an older file\n")
    assert run("eta-sweep", "--config", str(cfg), "--lambda-min", "1 m", "--lambda-max",
               "1e16 m", "--lambda-points", "1000", "--workers", workers,
               "--output", str(out)) == 1
    assert "eta is undefined at lambda = 4.52539e+07 m" in capsys.readouterr().err
    grid = SweepGrid(min=1.0, max=1e16, points=1000).values()
    assert [f"{lam:g}" for lam in grid].index("4.52539e+07") == 68 * 7 + 2
    assert sorted(os.listdir(tmp_path)) == ["cfg", "out.csv"]
    assert out.read_bytes() == b"an older file\n"


def test_unwritable_manifest_leaves_no_csv(tmp_path, capsys):
    # a directory at the manifest's path: the CSV was left without its manifest
    out = tmp_path / "out.csv"
    (tmp_path / "out.csv.manifest.json").mkdir()
    assert run("eta-sweep", "--preset", "fig2-left", "--output", str(out)) == 1
    assert "I/O error: [Errno 21] Is a directory" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["out.csv.manifest.json"]
    assert os.listdir(tmp_path / "out.csv.manifest.json") == []


def test_eta_sweep_memory_does_not_grow_with_the_rows(tmp_path):
    # 60,000 rows held at once take about 9.6 MiB; streamed, far less
    out = tmp_path / "dense.csv"
    tracemalloc.start()
    try:
        assert run("eta-sweep", "--preset", "fig2-left", "--lambda-points", "20000",
                   "--workers", "1", "--output", str(out)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(read(str(out) + ".manifest.json"))["rows"] == 60000
    assert peak < 4 * 2 ** 20, peak


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.mark.skipif(_usable_cpus() < 2, reason="a pool needs 2 usable CPUs")
def test_eta_sweep_memory_through_the_pool_stays_near_one_worker(tmp_path):
    # a pool sent every chunk at once piles finished rows in the parent:
    # 120,000 rows once peaked about 5 MiB above the one-worker sweep
    import concurrent.futures.process  # noqa: F401  (the pool's imports stay out of the peaks)

    peaks = {}
    for workers in ("1", "2"):
        out = tmp_path / f"dense-{workers}.csv"
        tracemalloc.start()
        try:
            assert run("eta-sweep", "--preset", "fig2-left", "--lambda-points", "40000",
                       "--workers", workers, "--output", str(out)) == 0
            peaks[workers] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["2"] - peaks["1"] < 1.5 * 2 ** 20, peaks


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_worker_count_below_one_fails(tmp_path, workers):
    out = tmp_path / "x.csv"
    done = run_subprocess("eta-sweep", "--lambda-points", "3", "--workers", workers,
                          "--output", str(out))
    assert done.returncode == 1, done.stderr
    assert f"got {workers}" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()


def test_eta_layered_sweep_short_range_row(tmp_path):
    out = tmp_path / "fig3.csv"
    cfg = tmp_path / "cfg"
    cfg.write_text("sweep.radii = 151.3 um\nsweep.d2_values = 100 m\n")
    assert run("eta-layered-sweep", "--config", str(cfg), "--output", str(out),
               "--lambda-min", "0.1 nm", "--lambda-points", "1") == 0
    row = read(out).splitlines()[1].split(",")
    assert float(row[3]) == pytest.approx(1.00126, abs=1e-4)


def test_eta_layered_sweep_long_range_rows_match_mpmath(tmp_path):
    # lam >> R: the coated-sphere shell terms once cancelled here, printing a
    # negative eta_delta for R = 100 um; these cells are 80-digit mpmath values
    # rounded to the printed 12 digits
    out = tmp_path / "long.csv"
    assert run("eta-layered-sweep", "--preset", "fig3-left", "--lambda-min", "1 m",
               "--lambda-max", "10000 m", "--lambda-points", "3", "--output", str(out)) == 0
    rows = [line.split(",") for line in read(out).splitlines()[-3:]]
    assert [(row[0], row[1], row[3], row[5]) for row in rows] == [
        ("1.00000000000e+04", "5.00000000000e-05", "1.76217293083e-15", "1.04408470243e+00"),
        ("1.00000000000e+04", "1.00000000000e-04", "6.87403228959e-15", "1.02207888225e+00"),
        ("1.00000000000e+04", "1.50000000000e-04", "1.53359194397e-14", "1.01472739803e+00"),
    ]


def test_eta_layered_sweep_zeroed_coatings_gives_unit_ratio(tmp_path):
    out = tmp_path / "bare.csv"
    cfg = tmp_path / "cfg"
    cfg.write_text("\n".join([
        "sphere.inner_coat.thickness = 0 m",
        "sphere.outer_coat.thickness = 0 m",
        "sweep.radii = 150 um",
        "sweep.d2_values = inf",
    ]) + "\n")
    assert run("eta-layered-sweep", "--config", str(cfg), "--output", str(out),
               "--lambda-points", "5") == 0
    for line in read(out).splitlines()[1:]:
        assert line.split(",")[5] == "1.00000000000e+00"


def test_eta_layered_outer_radius_interpretation(tmp_path):
    out = tmp_path / "outer.csv"
    cfg = tmp_path / "cfg"
    cfg.write_text("sweep.radii = 150 um\nsweep.d2_values = inf\n")
    assert run("eta-layered-sweep", "--config", str(cfg), "--output", str(out),
               "--plotted-radius", "outer", "--lambda-min", "0.1 nm",
               "--lambda-points", "1") == 0
    row = read(out).splitlines()[1].split(",")
    # core = 150 um - 190 nm, so the short-range limit is 190 nm over that
    want = 1.0 + 190e-9 / (150e-6 - 190e-9)
    assert float(row[3]) == pytest.approx(want, rel=1e-6, abs=0.0)


def test_xi_power_sweep_flags_near_pole_rows(tmp_path):
    out = tmp_path / "xi.csv"
    cfg = tmp_path / "cfg"
    cfg.write_text("sweep.exponents = 1, 1.0000001, 2\nsweep.rd_factors = 2\n")
    assert run("xi-power-sweep", "--config", str(cfg), "--mode", "n",
               "--output", str(out)) == 0
    lines = read(out).splitlines()
    assert lines[0] == "N,Rd_m,xi"
    cells = {line.split(",")[0]: line.split(",")[2] for line in lines[1:]}
    assert cells["1.00000010000e+00"] == "nan"
    assert cells["1.00000000000e+00"] != "nan"
    manifest = json.loads(read(str(out) + ".manifest.json"))
    assert manifest["counters"]["rows_near_pole"] == 1


def test_xi_power_sweep_rejects_negative_exponent(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("sweep.exponents = -1, 2\nsweep.rd_factors = 2\n")
    assert run("xi-power-sweep", "--config", str(cfg), "--mode", "n",
               "--output", str(tmp_path / "x.csv")) == 1


def test_xi_power_sweep_fig4_right_poles_hit_exactly(tmp_path):
    out = tmp_path / "fig4r.csv"
    assert run("xi-power-sweep", "--preset", "fig4-right", "--output", str(out)) == 0
    lines = read(out).splitlines()[1:]
    assert len(lines) == 16 * 4
    assert all(line.split(",")[2] != "nan" for line in lines)
    manifest = json.loads(read(str(out) + ".manifest.json"))
    assert manifest["counters"]["rows_near_pole"] == 0


def test_xi_power_sweep_fig4_left_shape(tmp_path):
    out = tmp_path / "fig4l.csv"
    assert run("xi-power-sweep", "--preset", "fig4-left", "--output", str(out)) == 0
    lines = read(out).splitlines()
    assert lines[0] == "Rd_m,N,xi"
    assert len(lines) - 1 == 200 * 4
    # every value is reproducible from the library call with the row inputs
    from ypfa import Disk, XiInputs, xi_power
    sample = lines[1 + 37 * 4 + 2].split(",")
    rd, n, value = float(sample[0]), float(sample[1]), float(sample[2])
    inputs = XiInputs(a=100e-9, sphere_radius=150e-6,
                      disk=Disk(radius=rd, thickness=3.5e-6, density=2330.0))
    assert xi_power(inputs, n) == pytest.approx(value, rel=1e-11, abs=0.0)


def test_xi_yukawa_sweep_short_range_rows_are_3000(tmp_path):
    out = tmp_path / "fig5.csv"
    cfg = tmp_path / "cfg"
    cfg.write_text("sweep.lambdas = 0.1 um\n")
    assert run("xi-yukawa-sweep", "--config", str(cfg), "--output", str(out)) == 0
    lines = read(out).splitlines()[1:]
    assert len(lines) == 200
    assert all(line.split(",")[2] == "3.00000000000e+03" for line in lines)


THICK_DISK = "disk.thickness = inf\n"


def test_xi_yukawa_sweep_thick_disk_is_finite(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text(THICK_DISK + "sweep.lambdas = 10 um\nrd_grid_factors = 1, 2, 2\n")
    out = tmp_path / "xi.csv"
    assert run("xi-yukawa-sweep", "--config", str(cfg), "--output", str(out)) == 0
    cells = [line.split(",")[2] for line in read(out).splitlines()[1:]]
    assert len(cells) == 2
    assert all(math.isfinite(float(cell)) for cell in cells), cells


def test_xi_power_sweep_thick_disk(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text(THICK_DISK)
    out = tmp_path / "xi.csv"
    # fig4-right's exponents from 0.25: the force diverges for n <= 1
    done = run_subprocess("xi-power-sweep", "--preset", "fig4-right", "--config", str(cfg),
                          "--output", str(out))
    assert done.returncode == 1, done.stderr
    assert "diverges for n = 0.25" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()
    cfg.write_text(THICK_DISK + "sweep.exponents = 1.5, 2, 2.5, 3, 4\n")
    assert run("xi-power-sweep", "--preset", "fig4-right", "--config", str(cfg),
               "--output", str(out)) == 0
    cells = [line.split(",")[2] for line in read(out).splitlines()[1:]]
    assert len(cells) == 5 * 4
    assert all(math.isfinite(float(cell)) for cell in cells), cells
    manifest = json.loads(read(str(out) + ".manifest.json"))
    assert manifest["counters"]["rows_near_pole"] == 0


def test_eta_layered_sweep_long_range_without_normal_ratio(tmp_path):
    out = tmp_path / "far.csv"
    assert run("eta-layered-sweep", "--lambda-max", "1e110 m", "--lambda-points", "3",
               "--output", str(out)) == 0
    assert read(out).splitlines()[-1].split(",")[3] == "1.52594951648e-228"
    done = run_subprocess("eta-layered-sweep", "--lambda-max", "1e200 m", "--lambda-points", "3",
                          "--output", str(out))
    assert done.returncode == 1, done.stderr
    assert "lambda = 1e+200 m" in done.stderr
    assert "Traceback" not in done.stderr


def test_xi_yukawa_sweep_empty_lambda_list(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("sweep.lambdas =\n")
    assert run("xi-yukawa-sweep", "--config", str(cfg),
               "--output", str(tmp_path / "x.csv")) == 1


def test_limits_identity_between_methods(tmp_path):
    out_pfa = tmp_path / "pfa.csv"
    out_epfa = tmp_path / "epfa.csv"
    for method, out in (("pfa", out_pfa), ("epfa", out_epfa)):
        assert run("limits", "--residuals", RESIDUALS, "--method", method,
                   "--output", str(out), "--lambda-min", "10 nm",
                   "--lambda-max", "10 um", "--lambda-points", "8") == 0
    rows_pfa = [line.split(",") for line in read(out_pfa).splitlines()[1:]]
    rows_epfa = [line.split(",") for line in read(out_epfa).splitlines()[1:]]
    from ypfa import INFINITE, eta
    for pfa_row, epfa_row in zip(rows_pfa, rows_epfa):
        lam = float(pfa_row[0])
        ratio = float(epfa_row[1]) / float(pfa_row[1])
        assert ratio == pytest.approx(1.0 / eta(150e-6, INFINITE, lam).eta, rel=1e-10, abs=0.0)
        assert float(epfa_row[4]) == pytest.approx(ratio, rel=1e-10, abs=0.0)
    manifest = json.loads(read(str(out_epfa) + ".manifest.json"))
    assert manifest["counters"] == {}


def test_limits_bounds_grow_like_exp_a_over_lambda(tmp_path):
    out = tmp_path / "lim.csv"
    assert run("limits", "--residuals", RESIDUALS, "--method", "epfa",
               "--output", str(out), "--lambda-min", "10 nm",
               "--lambda-max", "10 um", "--lambda-points", "12") == 0
    rows = [line.split(",") for line in read(out).splitlines()[1:]]
    bounds = [float(r[1]) for r in rows]
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_limits_layered_geometry(tmp_path):
    out = tmp_path / "layered.csv"
    assert run("limits", "--residuals", RESIDUALS, "--geometry", "layered",
               "--method", "epfa", "--output", str(out), "--lambda-min", "1 nm",
               "--lambda-max", "1 um", "--lambda-points", "4") == 0
    rows = [line.split(",") for line in read(out).splitlines()[1:]]
    # short range: the coated sphere's exact force exceeds the mapped one,
    # so the exact analysis claims slightly stronger limits (shift < 1)
    assert float(rows[0][4]) == pytest.approx(1 / 1.00126, abs=1e-4)
    manifest = json.loads(read(str(out) + ".manifest.json"))
    assert manifest["grid"]["geometry"] == "layered"


def test_oracle_verify_writes_report_file(tmp_path):
    report = tmp_path / "report.txt"
    assert run("oracle-verify", "--quick", "--output", str(report)) == 0
    text = read(report)
    assert "slab_slab_pressure" in text and "FAIL" not in text


def test_limits_malformed_residuals(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("separation_m,residual_N\n1e-7,oops\n")
    assert run("limits", "--residuals", str(bad),
               "--output", str(tmp_path / "x.csv")) == 1
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run("limits", "--residuals", str(empty),
               "--output", str(tmp_path / "x.csv")) == 1
    nan_row = tmp_path / "nan.csv"
    nan_row.write_text("separation_m,residual_N\n1e-7,5e-16\n2e-7,nan\n")
    assert run("limits", "--residuals", str(nan_row),
               "--output", str(tmp_path / "x.csv")) == 1


@pytest.mark.parametrize("flag, text", [
    ("--residuals", read(RESIDUALS)),
    ("--config", "sphere.radius = 100 um\ngap = 150 nm\n"),
])
def test_limits_accepts_a_byte_order_mark(tmp_path, flag, text):
    # spreadsheet exports often start with one; it was read as part of the header
    outputs = []
    for name, mark in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        given = tmp_path / f"{name}.txt"
        given.write_bytes(mark + text.encode("utf-8"))
        out = tmp_path / f"{name}.csv"
        assert run("limits", "--residuals", RESIDUALS, flag, str(given),
                   "--lambda-points", "20", "--output", str(out)) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("flag", ["--residuals", "--config"])
def test_limits_non_utf8_input_is_an_input_error(tmp_path, flag):
    # a byte that does not decode as UTF-8 used to end in a traceback
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"separation_m,residual_N\n1e-7,5e-16 # \xff\n")
    # a repeated --residuals takes the last value
    done = run_subprocess("limits", "--residuals", RESIDUALS, flag, str(bad),
                          "--output", str(tmp_path / "x.csv"))
    assert done.returncode == 1, done.stderr
    assert str(bad) in done.stderr
    assert "Traceback" not in done.stderr


def test_oracle_verify_quick_passes(capsys):
    assert run("oracle-verify", "--quick") == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "slicing_equivalence" in out


def test_oracle_verify_corrupted_constant_fails(capsys, monkeypatch):
    # a closed form off by 1e-3, as a real drift would be, must fail its family
    original = ypfa.verify.sphere_slab_force_exact
    monkeypatch.setattr(ypfa.verify, "sphere_slab_force_exact",
                        lambda *args, **kwargs: 1.001 * original(*args, **kwargs))
    assert run("oracle-verify", "--quick") == 2
    captured = capsys.readouterr()
    assert "sphere_slab_force_exact" in captured.err


@pytest.mark.parametrize("argv,quantity", [
    (["limits", "--residuals", RESIDUALS], "G must be finite"),
], ids=["limits"])
def test_infinite_gravitational_constant_fails(tmp_path, argv, quantity):
    # unchecked, G = inf makes limits write alpha_bound = 0 on every row
    cfg = tmp_path / "cfg"
    cfg.write_text("constants.G = inf\n")
    out = tmp_path / "out.csv"
    done = run_subprocess(*argv, "--config", str(cfg), "--output", str(out))
    assert done.returncode == 1, done.stderr
    assert quantity in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()


@pytest.mark.parametrize("g", ["0", "-1", "nan", "inf", "1e299"])
def test_out_of_range_gravitational_constant_fails(tmp_path, g):
    # limits applies G as the unit coupling G / G_DEFAULT, which must be
    # finite and > 0: from G = 1.2e298 up G / G_DEFAULT overflows
    cfg = tmp_path / "cfg"
    cfg.write_text(f"constants.G = {g}\n")
    out = tmp_path / "out.csv"
    done = run_subprocess("limits", "--residuals", RESIDUALS, "--config", str(cfg),
                          "--output", str(out))
    assert done.returncode == 1, done.stderr
    assert "G must be finite, > 0 and below 1.2e+298" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()


def test_unknown_preset(tmp_path):
    assert run("eta-sweep", "--preset", "fig99", "--output",
               str(tmp_path / "x.csv")) == 1


def test_config_overrides_preset(tmp_path):
    out = tmp_path / "one.csv"
    cfg = tmp_path / "cfg"
    cfg.write_text("sweep.radii = 150 um\n")  # preset would give three radii
    assert run("eta-sweep", "--preset", "fig2-left", "--config", str(cfg),
               "--output", str(out), "--lambda-points", "2") == 0
    assert len(read(out).splitlines()) == 1 + 2


def test_config_file_sets_the_mode(tmp_path, capsys):
    # mode is a word, not a quantity: a config file sets it as --mode does
    axes = "sweep.exponents = 1.5, 2.5\nsweep.rd_factors = 2, 10\n"
    by_config, by_flag = tmp_path / "config.csv", tmp_path / "flag.csv"
    (tmp_path / "mode.cfg").write_text("mode = n\n" + axes)
    (tmp_path / "axes.cfg").write_text(axes)
    assert run("xi-power-sweep", "--config", str(tmp_path / "mode.cfg"),
               "--output", str(by_config)) == 0
    assert run("xi-power-sweep", "--config", str(tmp_path / "axes.cfg"), "--mode", "n",
               "--output", str(by_flag)) == 0
    assert read(by_config) == read(by_flag)
    assert read(by_config).startswith("N,Rd_m,xi\n")
    (tmp_path / "bad.cfg").write_text("mode = x\n" + axes)
    assert run("xi-power-sweep", "--config", str(tmp_path / "bad.cfg"),
               "--output", str(tmp_path / "bad.csv")) == 1
    assert "mode must be 'rd' or 'n', got 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["eta-sweep", "--lambda-points", "3"],
                                  ["limits", "--residuals", RESIDUALS]])
def test_unknown_config_key_fails(tmp_path, capsys, argv):
    # a misspelt key used to leave its setting at the default, unnoticed
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("sphere.radiuss = 1 um\n")
    out = tmp_path / "out.csv"
    assert run(*argv, "--config", str(cfg), "--output", str(out)) == 1
    err = capsys.readouterr().err
    assert str(cfg) in err and "'sphere.radiuss'" in err
    assert not out.exists()


@pytest.mark.parametrize("command, preset", [("xi-power-sweep", "fig4-left"),
                                             ("xi-yukawa-sweep", "fig5")])
def test_disk_radius_is_an_unknown_setting(tmp_path, capsys, command, preset):
    # both xi sweeps take their disk radii from rd_grid_factors or
    # sweep.rd_factors; a disk.radius setting used to be accepted and ignored
    cfg = tmp_path / "cfg"
    cfg.write_text("disk.radius = 1 mm\n")
    out = tmp_path / "out.csv"
    assert run(command, "--preset", preset, "--config", str(cfg), "--output", str(out)) == 1
    assert "unknown setting 'disk.radius'" in capsys.readouterr().err
    assert not out.exists()


def test_unread_settings_leave_the_manifest_unchanged(tmp_path):
    # config_si lists the settings the run read; eta-layered-sweep reads
    # neither the gap nor the slab, so setting them changes no output byte
    cfg = tmp_path / "no-slab.cfg"
    cfg.write_text("gap = 0 m\nslab.base.thickness = 0 m\n")
    outs = []
    for name, extra in (("default.csv", []), ("no-slab.csv", ["--config", str(cfg)])):
        out = tmp_path / name
        assert run("eta-layered-sweep", "--preset", "fig3-left", "--lambda-points", "5",
                   *extra, "--output", str(out)) == 0
        manifest = json.loads(read(str(out) + ".manifest.json"))
        manifest.pop("timestamp")
        outs.append((out.read_bytes(), manifest))
    assert outs[0] == outs[1]
    assert "gap" not in outs[0][1]["config_si"]


def test_manifests_identical_apart_from_timestamp(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert run("eta-sweep", "--preset", "fig2-left", "--output", str(out),
                   "--lambda-points", "3") == 0
        outs.append(json.loads(read(str(out) + ".manifest.json")))
    outs[0].pop("timestamp")
    outs[1].pop("timestamp")
    assert outs[0] == outs[1]


LAMBDA_GRID = {"min": 1e-9, "max": 1e-3, "points": 200, "spacing": "log"}
LIMITS_COUNTERS: dict = {}


_DISK_KEYS = {"disk.density", "disk.thickness", "gap", "sphere.radius"}
_COATED_SPHERE_KEYS = {"sphere.core_density", "sphere.inner_coat.density",
                       "sphere.inner_coat.thickness", "sphere.outer_coat.density",
                       "sphere.outer_coat.thickness"}
_ETA_SWEEP_KEYS = {"sweep.d2_values", "sweep.radii"}
#: the config_si keys of each run below, by the run's last argument: exactly
#: the settings it reads
CONFIG_SI_KEYS = {
    "fig2-left": _ETA_SWEEP_KEYS,
    "fig2-right": _ETA_SWEEP_KEYS,
    "fig3-left": _COATED_SPHERE_KEYS | _ETA_SWEEP_KEYS,
    "fig3-right": _COATED_SPHERE_KEYS | _ETA_SWEEP_KEYS,
    "fig4-left": _DISK_KEYS | {"rd_grid_factors", "sweep.exponents"},
    "fig4-right": _DISK_KEYS | {"sweep.exponents", "sweep.rd_factors"},
    "fig5": _DISK_KEYS | {"rd_grid_factors", "sweep.lambdas"},
    "homogeneous": {"constants.G", "pfa.d2", "slab.density", "slab.thickness",
                    "sphere.density", "sphere.radius"},
    "layered": {"constants.G", "pfa.d2", "sphere.core_radius"} | _COATED_SPHERE_KEYS
               | {f"slab.{layer}.{quantity}" for layer in ("base", "middle", "top")
                  for quantity in ("thickness", "density")},
}


@pytest.mark.parametrize("argv, subcommand, grid, counters, rows", [
    (["eta-sweep", "--preset", "fig2-left"], "eta-sweep",
     {"lambda", "radii", "d2_values"}, {"regimes": {"direct": 600}}, 600),
    (["eta-sweep", "--preset", "fig2-right"], "eta-sweep",
     {"lambda", "radii", "d2_values"}, {"regimes": {"direct": 800}}, 800),
    (["eta-layered-sweep", "--preset", "fig3-left"], "eta-layered-sweep",
     {"lambda", "radii", "d2_values", "plotted_radius"}, {}, 600),
    (["eta-layered-sweep", "--preset", "fig3-right"], "eta-layered-sweep",
     {"lambda", "radii", "d2_values", "plotted_radius"}, {}, 800),
    (["xi-power-sweep", "--preset", "fig4-left"], "xi-power-sweep",
     {"rd", "exponents"}, {"rows_near_pole": 0}, 800),
    (["xi-power-sweep", "--preset", "fig4-right"], "xi-power-sweep",
     {"n", "rd_factors"}, {"rows_near_pole": 0}, 64),
    (["xi-yukawa-sweep", "--preset", "fig5"], "xi-yukawa-sweep",
     {"rd", "lambdas"}, {}, 600),
    (["limits", "--residuals", RESIDUALS, "--geometry", "homogeneous"], "limits",
     {"lambda", "method", "geometry"}, LIMITS_COUNTERS, 200),
    (["limits", "--residuals", RESIDUALS, "--geometry", "layered"], "limits",
     {"lambda", "method", "geometry"}, LIMITS_COUNTERS, 200),
])
def test_manifest_shape(tmp_path, argv, subcommand, grid, counters, rows):
    out = tmp_path / "out.csv"
    assert run(*argv, "--output", str(out)) == 0
    manifest = json.loads(read(str(out) + ".manifest.json"))
    assert sorted(manifest) == ["config_si", "counters", "grid", "rows", "subcommand",
                                "timestamp", "tool_version"]
    assert manifest["subcommand"] == subcommand
    assert set(manifest["grid"]) == grid
    assert manifest["counters"] == counters
    assert manifest["rows"] == rows == len(read(out).splitlines()) - 1
    assert set(manifest["config_si"]) == CONFIG_SI_KEYS[argv[-1]]
    if "lambda" in grid:
        assert manifest["grid"]["lambda"] == LAMBDA_GRID


@pytest.mark.parametrize("command, preset", [("xi-power-sweep", "fig4-left"),
                                             ("xi-yukawa-sweep", "fig5")])
@pytest.mark.parametrize("factors", ["1, 10", "1", "1, 10, 2.7", "1, 10, inf"])
def test_malformed_rd_grid_factors_named(tmp_path, capsys, command, preset, factors):
    # a 2-item or scalar value used to end in a traceback, a fractional point
    # count in a silently truncated grid
    cfg = tmp_path / "cfg"
    cfg.write_text(f"rd_grid_factors = {factors}\n")
    out = tmp_path / "x.csv"
    assert run(command, "--preset", preset, "--config", str(cfg), "--output", str(out)) == 1
    assert "rd_grid_factors" in capsys.readouterr().err
    assert not out.exists()


def test_scalar_exponent_is_a_one_point_axis(tmp_path):
    # a lone value is a one-element list, as for every other list setting
    out = tmp_path / "n.csv"
    cfg = tmp_path / "cfg"
    cfg.write_text("sweep.exponents = 2\n")
    assert run("xi-power-sweep", "--preset", "fig4-right", "--config", str(cfg),
               "--output", str(out)) == 0
    rows = [line.split(",") for line in read(out).splitlines()[1:]]
    assert [float(row[0]) for row in rows] == [2.0] * 4
    assert json.loads(read(str(out) + ".manifest.json"))["grid"]["n"] == [2.0]


def test_fig4_right_sweeps_the_configured_exponents(tmp_path):
    # the preset used to set its exponents under a key of their own that won
    # over sweep.exponents, while the manifest recorded the ignored values
    out = tmp_path / "n.csv"
    cfg = tmp_path / "cfg"
    cfg.write_text("sweep.exponents = 1.5, 2\n")
    assert run("xi-power-sweep", "--preset", "fig4-right", "--config", str(cfg),
               "--output", str(out)) == 0
    assert len(read(out).splitlines()) == 1 + 2 * 4
    manifest = json.loads(read(str(out) + ".manifest.json"))
    assert manifest["grid"]["n"] == [1.5, 2.0]
    assert manifest["config_si"]["sweep.exponents"] == ["1.5", "2.0"]


def test_fig4_right_in_rd_mode(tmp_path):
    out = tmp_path / "rd.csv"
    assert run("xi-power-sweep", "--preset", "fig4-right", "--mode", "rd",
               "--output", str(out)) == 0
    assert len(read(out).splitlines()) == 1 + 16 * 200


def test_n_grid_is_an_unknown_setting(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("n_grid = 2\n")
    out = tmp_path / "n.csv"
    assert run("xi-power-sweep", "--preset", "fig4-right", "--config", str(cfg),
               "--output", str(out)) == 1
    assert "unknown setting 'n_grid'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("exponents, fragment", [("-1, 2", "got -1.0"), ("0, 2", "got 0.0"),
                                                 ("nan, 2", "got nan")])
def test_nonpositive_exponent_fails_naming_it(tmp_path, exponents, fragment, workers):
    cfg = tmp_path / "cfg"
    cfg.write_text(f"sweep.exponents = {exponents}\nsweep.rd_factors = 2, 10\n")
    out = tmp_path / "n.csv"
    done = run_subprocess("xi-power-sweep", "--mode", "n", "--config", str(cfg),
                          "--workers", workers, "--output", str(out))
    assert done.returncode == 1, done.stderr
    assert fragment in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()


def test_negative_infinity_recorded_in_the_manifest(tmp_path):
    # eta-sweep never reads slab.thickness, so its -inf is not recorded; every
    # setting a subcommand reads refuses values <= 0, so no recorded one is
    # -inf. Manifest numbers are repr: the read pfa.d2 is "inf".
    cfg = tmp_path / "cfg"
    cfg.write_text("slab.thickness = -inf\n")
    out = tmp_path / "eta.csv"
    assert run("eta-sweep", "--config", str(cfg), "--lambda-points", "3",
               "--output", str(out)) == 0
    config_si = json.loads(read(str(out) + ".manifest.json"))["config_si"]
    assert "slab.thickness" not in config_si
    assert config_si["pfa.d2"] == "inf"


@pytest.mark.parametrize("command, preset, factors", [
    ("xi-power-sweep", "fig4-left", "0.1, 100, 200"),
    ("xi-yukawa-sweep", "fig5", "1, 100, 200"),
])
def test_preset_rd_grid_factors_recorded_as_a_config_file_records_them(tmp_path, command,
                                                                       preset, factors):
    cfg = tmp_path / "cfg"
    cfg.write_text(f"rd_grid_factors = {factors}\n")
    manifests = []
    for name, extra in (("preset.csv", []), ("config.csv", ["--config", str(cfg)])):
        out = tmp_path / name
        assert run(command, "--preset", preset, *extra, "--output", str(out)) == 0
        manifest = json.loads(read(str(out) + ".manifest.json"))
        manifest.pop("timestamp")
        manifests.append(manifest)
    assert manifests[0] == manifests[1]
    assert manifests[0]["config_si"]["rd_grid_factors"] == [
        repr(float(value)) for value in factors.split(", ")]


def test_preset_of_another_subcommand_fails(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run("eta-sweep", "--preset", "fig5", "--output", str(out)) == 1
    err = capsys.readouterr().err
    assert "fig5" in err and "xi-yukawa-sweep" in err
    assert not out.exists()


def test_zero_lambda_points_fails(tmp_path):
    assert run("eta-sweep", "--lambda-points", "0", "--output", str(tmp_path / "x.csv")) == 1


@pytest.mark.parametrize("argv", [
    [command, flag, value]
    for command in ("xi-power-sweep", "xi-yukawa-sweep")
    for flag, value in (("--lambda-min", "1 nm"), ("--lambda-max", "1 mm"),
                        ("--lambda-points", "3"), ("--d2", "1 um"))
] + [["limits", "--residuals", RESIDUALS, "--workers", "2"],
     ["limits", "--residuals", RESIDUALS, "--preset", "fig2-left"],
     # oracle-verify answers to its own per-family gates, and G scales both
     # sides of every check, so it reads neither a tolerance nor a config
     ["oracle-verify", "--tolerance", "0.5"],
     ["oracle-verify", "--config", RESIDUALS]])
def test_flags_a_subcommand_does_not_read_are_rejected(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--output", str(tmp_path / "x.csv"))
    assert exc.value.code == 2


@pytest.mark.parametrize("d2", ["0", "-1 um", "nan"])
@pytest.mark.parametrize("argv", [
    ["eta-sweep"],
    ["eta-layered-sweep"],
    ["limits", "--residuals", RESIDUALS],
    ["limits", "--residuals", RESIDUALS, "--method", "pfa"],
    ["limits", "--residuals", RESIDUALS, "--geometry", "layered"],
])
def test_nonpositive_or_nan_d2_fails(tmp_path, capsys, argv, d2):
    out = tmp_path / "out.csv"
    assert run(*argv, "--d2", d2, "--lambda-points", "3", "--output", str(out)) == 1
    assert "d2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,setting,quantity", [
    (["eta-layered-sweep"], "sphere.outer_coat.thickness = inf", "outer radius"),
    (["eta-layered-sweep"], "sphere.core_density = nan", "core density"),
    (["xi-power-sweep", "--preset", "fig4-right"], "disk.density = nan", "disk density"),
    (["limits", "--residuals", RESIDUALS, "--geometry", "layered"], "slab.top.density = nan",
     "layer density"),
], ids=["outer-coat-inf", "core-density-nan", "disk-density-nan", "slab-top-density-nan"])
def test_nan_or_infinite_geometry_fails(tmp_path, capsys, argv, setting, quantity):
    cfg = tmp_path / "cfg"
    cfg.write_text(setting + "\n")
    out = tmp_path / "out.csv"
    assert run(*argv, "--config", str(cfg), "--output", str(out)) == 1
    assert quantity in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,settings,cause", [
    (["limits", "--residuals", RESIDUALS], ["sphere.density = nan"], "sphere density"),
    (["limits", "--residuals", RESIDUALS], ["slab.density = -5"], "slab density"),
    (["eta-layered-sweep", "--preset", "fig3-left", "--lambda-points", "2"],
     ["sphere.core_density = 0", "sphere.inner_coat.density = 0",
      "sphere.outer_coat.density = 0"], "eta_delta is undefined"),
    (["eta-layered-sweep", "--preset", "fig3-left", "--lambda-points", "2"],
     ["sphere.inner_coat.density = 0", "sphere.outer_coat.density = 0",
      "sphere.outer_coat.thickness = 1 mm"], "eta_delta is undefined"),
], ids=["sphere-density-nan", "slab-density-negative", "massless-sphere", "massless-thick-coat"])
def test_bad_density_or_massless_sphere_side_fails(tmp_path, capsys, argv, settings, cause):
    cfg = tmp_path / "cfg"
    cfg.write_text("\n".join(settings) + "\n")
    out = tmp_path / "out.csv"
    assert run(*argv, "--config", str(cfg), "--output", str(out)) == 1
    assert cause in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["eta-sweep", "--lambda-points", "3"],
    ["eta-sweep", "--lambda-points", "3", "--lambda-max", "10 m"],
    ["eta-layered-sweep", "--lambda-points", "3", "--lambda-max", "10 m"],
    ["limits", "--residuals", RESIDUALS, "--lambda-max", "10 m"],
    ["limits", "--residuals", RESIDUALS],
    ["limits", "--residuals", RESIDUALS, "--method", "pfa"],
], ids=["eta-inf", "eta-zero-division", "layered-zero-division", "limits-zero-division",
        "limits-zero-shift", "limits-pfa-zero-force"])
def test_subnormal_d2_fails_without_traceback(tmp_path, argv):
    # d2/lambda is subnormal or 0, so the virtual plate factor leaves no eta
    out = tmp_path / "out.csv"
    result = run_subprocess(*argv, "--d2", "5e-324 m", "--output", str(out))
    assert result.returncode == 1, result.stderr
    assert "d2" in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("geometry,lambda_max,power", [
    ("homogeneous", "1e110 m", "lambda^3"),
    ("layered", "1e80 m", "lambda^4"),
])
def test_limits_lambda_beyond_the_force_domain_fails(tmp_path, geometry, lambda_max, power):
    out = tmp_path / "out.csv"
    result = run_subprocess("limits", "--residuals", RESIDUALS, "--geometry", geometry,
                            "--lambda-max", lambda_max, "--lambda-points", "3",
                            "--output", str(out))
    assert result.returncode == 1, result.stderr
    assert "domain" in result.stderr and power + " overflows" in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists()


def test_limits_pfa_is_not_bound_by_the_epfa_lambda_domain(tmp_path):
    # the layered pfa law scales as lambda^3 and stays finite where the epfa
    # law's lambda^4 overflows; a pfa run builds only its own law
    argv = ["limits", "--residuals", RESIDUALS, "--geometry", "layered",
            "--lambda-min", "1e78 m", "--lambda-max", "1e80 m", "--lambda-points", "3"]
    out = tmp_path / "pfa.csv"
    result = run_subprocess(*argv, "--method", "pfa", "--output", str(out))
    assert result.returncode == 0, result.stderr
    bounds = [float(line.split(",")[1]) for line in read(out).splitlines()[1:]]
    assert len(bounds) == 3 and all(0.0 < bound < math.inf for bound in bounds)
    refused = run_subprocess(*argv, "--method", "epfa", "--output", str(tmp_path / "epfa.csv"))
    assert refused.returncode == 1, refused.stderr
    assert "lambda^4 overflows above about 1.16e+77 m" in refused.stderr
    assert "Traceback" not in refused.stderr


@pytest.mark.parametrize("lambda_min,lambda_max,bounds", [
    ("1 nm", "inf", "[1e-09, inf]"),
    ("1e-300 m", "1e10 m", "[1e-300, 10000000000.0]"),  # max/min overflows
], ids=["max-inf", "ratio-overflow"])
@pytest.mark.parametrize("argv", [
    ["eta-sweep"],
    ["eta-layered-sweep"],
    ["limits", "--residuals", RESIDUALS, "--method", "pfa"],
    ["limits", "--residuals", RESIDUALS, "--method", "epfa"],
], ids=["eta", "layered", "limits-pfa", "limits-epfa"])
def test_unrepresentable_lambda_grid_fails_naming_both_bounds(tmp_path, capsys, argv,
                                                              lambda_min, lambda_max, bounds):
    out = tmp_path / "out.csv"
    assert run(*argv, "--lambda-min", lambda_min, "--lambda-max", lambda_max,
               "--output", str(out)) == 1
    assert f"grid {bounds} is not representable" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, preset", [("xi-power-sweep", "fig4-left"),
                                             ("xi-yukawa-sweep", "fig5")])
def test_infinite_rd_grid_factor_fails(tmp_path, capsys, command, preset):
    # before the grid refused it, two identical inf rows were written per key
    cfg = tmp_path / "cfg"
    cfg.write_text("rd_grid_factors = 1, inf, 3\n")
    out = tmp_path / "out.csv"
    assert run(command, "--preset", preset, "--config", str(cfg), "--output", str(out)) == 1
    assert "grid [0.00015, inf] is not representable" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,setting", [
    (["eta-sweep"], "sweep.radii = 5e-324 m"),
    (["eta-layered-sweep"], "sweep.radii = 5e-324 m\nsphere.inner_coat.thickness = 0 m\n"
                            "sphere.outer_coat.thickness = 0 m"),
    (["limits", "--residuals", RESIDUALS], "sphere.radius = 5e-324 m"),
], ids=["eta", "layered-bare", "limits-epfa"])
def test_underflowing_2r_over_lambda_names_r_and_lambda(tmp_path, argv, setting):
    cfg = tmp_path / "cfg"
    cfg.write_text(setting + "\n")
    out = tmp_path / "out.csv"
    result = run_subprocess(*argv, "--config", str(cfg), "--lambda-min", "10 m",
                            "--lambda-max", "20 m", "--lambda-points", "3", "--output", str(out))
    assert result.returncode == 1, result.stderr
    assert "R = 4.94066e-324 m, lambda = 10 m" in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("setting", ["gap = 0 m", "slab.base.thickness = 0 m"])
def test_eta_layered_sweep_reads_no_gap_or_slab_setting(tmp_path, capsys, setting):
    # eta_delta depends on the sphere, d2 and lambda only
    default, changed = tmp_path / "default.csv", tmp_path / "changed.csv"
    cfg = tmp_path / "cfg"
    cfg.write_text(setting + "\n")
    argv = ["eta-layered-sweep", "--preset", "fig3-right", "--lambda-points", "20"]
    assert run(*argv, "--output", str(default)) == 0
    assert run(*argv, "--config", str(cfg), "--output", str(changed)) == 0
    assert changed.read_bytes() == default.read_bytes()
    if setting.startswith("slab."):  # limits still builds the slab its force laws use
        assert run("limits", "--residuals", RESIDUALS, "--geometry", "layered", "--config",
                   str(cfg), "--output", str(tmp_path / "limits.csv")) == 1
        assert "slab base thickness must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("command, preset, message", [
    ("xi-yukawa-sweep", "fig5", "the Yukawa bracket underflows to 0.0 at height z = 1e+308 m"),
    ("xi-power-sweep", "fig4-left", "the power-law force underflows to -0.0 at height "
                                    "z = 1e+308 m"),
])
def test_xi_sweep_far_above_the_disk_names_the_underflow(tmp_path, command, preset, message):
    # fig5 ended in a math domain error traceback from log(0), fig4-left in
    # a message blaming the disk's density
    cfg = tmp_path / "cfg"
    cfg.write_text("gap = 1e308 m\n")
    out = tmp_path / "out.csv"
    result = run_subprocess(command, "--preset", preset, "--config", str(cfg),
                            "--output", str(out))
    assert result.returncode == 1, result.stderr
    assert message in result.stderr
    assert "density" not in result.stderr
    assert "Traceback" not in result.stderr
    assert os.listdir(tmp_path) == ["cfg"]


@pytest.mark.parametrize("setting, message", [
    ("gap = 1e-320 m", "the power-law force at height z = 1e-320 m is out of range: "
                       "R_d = 1.5e-05 m over z overflows"),
    ("disk.density = inf", "the power-law force is -inf, not finite, at height "
                           "z = 1.0000000000000001e-07 m"),
])
def test_xi_power_sweep_refuses_a_subnormal_gap_and_an_infinite_density(tmp_path, setting, message):
    # the subnormal gap ended in a ZeroDivisionError traceback; the infinite
    # density exited 0 with every row nan, each counted as near a pole
    cfg = tmp_path / "cfg"
    cfg.write_text(setting + "\n")
    result = run_subprocess("xi-power-sweep", "--preset", "fig4-left", "--config", str(cfg),
                            "--output", str(tmp_path / "out.csv"))
    assert result.returncode == 1, result.stderr
    assert message in result.stderr
    assert "Traceback" not in result.stderr
    assert os.listdir(tmp_path) == ["cfg"]


def test_limits_overflowing_unit_alpha_force_is_refused(tmp_path):
    # at lambda = 1e98 m and 1e102 m every unit-alpha force overflows to inf,
    # and residual / inf used to write an alpha bound of 0
    cfg = tmp_path / "cfg"
    cfg.write_text("sphere.density = 1e12\nslab.density = 1e12\n")
    out = tmp_path / "out.csv"
    result = run_subprocess("limits", "--residuals", RESIDUALS, "--config", str(cfg),
                            "--lambda-min", "1e90 m", "--lambda-max", "1e102 m",
                            "--lambda-points", "4", "--output", str(out))
    assert result.returncode == 1, result.stderr
    assert "at lambda = 1e+98 m" in result.stderr and "overflow" in result.stderr
    assert "Traceback" not in result.stderr
    assert os.listdir(tmp_path) == ["cfg"]
