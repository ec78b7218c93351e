import math

import pytest

from ypfa import InputError, SweepGrid
from ypfa.sweeps import map_ordered, resolve_workers, write_csv


def test_grid_validation():
    with pytest.raises(InputError):
        SweepGrid(min=1.0, max=2.0, points=0)
    with pytest.raises(InputError):
        SweepGrid(min=2.0, max=1.0, points=5)
    with pytest.raises(InputError):
        SweepGrid(min=0.0, max=1.0, points=5, spacing="log")
    with pytest.raises(InputError):
        SweepGrid(min=1.0, max=2.0, points=5, spacing="cubic")
    SweepGrid(min=1.0, max=1.0, points=1)  # single point ignores max


def test_grid_values():
    log = SweepGrid(min=1e-9, max=1e-3, points=7).values()
    assert len(log) == 7
    assert log[0] == 1e-9 and log[-1] == 1e-3
    ratios = [b / a for a, b in zip(log, log[1:])]
    assert all(r == pytest.approx(ratios[0], rel=1e-12) for r in ratios)

    linear = SweepGrid(min=0.0, max=1.0, points=5, spacing="linear").values()
    assert linear == [0.0, 0.25, 0.5, 0.75, 1.0]

    assert SweepGrid(min=3.0, max=9.0, points=1).values() == [3.0]


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
    assert float(written[4]) == pytest.approx(2.0 / 3.0, rel=1e-11)


def test_resolve_workers(monkeypatch):
    monkeypatch.delenv("YPFA_WORKERS", raising=False)
    assert resolve_workers(None) == 1
    assert resolve_workers(4) == 4
    monkeypatch.setenv("YPFA_WORKERS", "6")
    assert resolve_workers(None) == 6
    assert resolve_workers(2) == 2  # explicit flag wins
    monkeypatch.setenv("YPFA_WORKERS", "zero")
    with pytest.raises(InputError):
        resolve_workers(None)
    with pytest.raises(InputError):
        resolve_workers(0)


def test_map_ordered_preserves_order():
    items = list(range(24))
    assert map_ordered(_square, items, workers=1) == [i * i for i in items]
    assert map_ordered(_square, items, workers=3) == [i * i for i in items]


def _square(x):
    return x * x
