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
    assert all(r == pytest.approx(ratios[0], rel=1e-12, abs=0.0) for r in ratios)

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
])
def test_write_csv_column_changing_kind_is_refused_or_unchanged(tmp_path, rows):
    """A column whose kind changes partway through the file gives the old
    bytes or raises; it never writes a cell differently."""
    path = tmp_path / "mixed.csv"
    try:
        write_csv(str(path), ("x", "y"), rows)
    except TypeError:
        return
    assert path.read_bytes() == _reference_csv(("x", "y"), rows)


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
