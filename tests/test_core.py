import math

import pytest
from hypothesis import given, strategies as st

from ypfa import (INFINITE, Disk, InputError, Layer, LayeredSlab, LayeredSphere, PowerLawParams,
                  ResidualBound, SphereSlabConfig, YukawaParams, alpha_limit)
from ypfa.config import parse_config_text, parse_quantity


SPHERE_SLAB = SphereSlabConfig(separation=1e-7, sphere_radius=1e-4, sphere_density=1.0,
                               slab_thickness=1e-6, slab_density=1.0)
BOUND = ResidualBound(entries=((1e-7, 1e-16),))


def test_type_invariants():
    with pytest.raises(InputError):
        YukawaParams(alpha=1.0, lam=0.0)
    with pytest.raises(InputError):
        Layer(thickness=-1e-9, density=1000.0)
    with pytest.raises(InputError):
        LayeredSphere(core_radius=0.0, core_density=1.0)
    with pytest.raises(InputError):
        Disk(radius=1e-6, thickness=0.0, density=1.0)
    with pytest.raises(InputError):
        PowerLawParams(k=1.0, n=0.0)
    # alpha may be any real, including negative and zero
    YukawaParams(alpha=-3.0, lam=1e-9)


@pytest.mark.parametrize("kind,kwargs,quantity", [
    (Layer, dict(thickness=math.nan, density=1000.0), "layer thickness"),
    (Layer, dict(thickness=1e-9, density=math.nan), "layer density"),
    (LayeredSphere, dict(core_radius=math.nan, core_density=1.0), "core radius"),
    (LayeredSphere, dict(core_radius=INFINITE, core_density=1.0), "outer radius"),
    (LayeredSphere, dict(core_radius=1e-6, core_density=math.nan), "core density"),
    (LayeredSphere, dict(core_radius=1e-6, core_density=1.0, inner_coat=Layer(INFINITE, 1.0)),
     "outer radius"),
    (LayeredSphere, dict(core_radius=1e-6, core_density=1.0, outer_coat=Layer(INFINITE, 1.0)),
     "outer radius"),
    (Disk, dict(radius=1e-6, thickness=1e-6, density=math.nan), "disk density"),
    # G is a constant; the one place a different G enters is limits
    (alpha_limit, dict(lam=1e-7, bounds=BOUND, geometry=SPHERE_SLAB, method="epfa",
                       g=INFINITE), "G must be finite"),
    (alpha_limit, dict(lam=1e-7, bounds=BOUND, geometry=SPHERE_SLAB, method="epfa",
                       g=math.nan), "G must be finite"),
    (SphereSlabConfig, dict(separation=1e-7, sphere_radius=1e-4, sphere_density=math.nan,
                            slab_thickness=1e-6, slab_density=1.0), "sphere density"),
    (SphereSlabConfig, dict(separation=1e-7, sphere_radius=1e-4, sphere_density=1.0,
                            slab_thickness=1e-6, slab_density=-5.0), "slab density"),
], ids=["layer-thickness-nan", "layer-density-nan", "core-radius-nan", "core-radius-inf",
        "core-density-nan", "inner-coat-inf", "outer-coat-inf", "disk-density-nan",
        "G-inf", "G-nan", "sphere-density-nan", "slab-density-negative"])
def test_nan_and_infinite_geometry_rejected(kind, kwargs, quantity):
    with pytest.raises(InputError, match=quantity):
        kind(**kwargs)


def test_slab_layers_may_be_infinitely_thick():
    slab = LayeredSlab(base=Layer(INFINITE, 2330.0), top=Layer(INFINITE, 1.0))
    assert slab.top.thickness == INFINITE


def test_layered_sphere_outer_radius():
    sphere = LayeredSphere(core_radius=150e-6, core_density=4100.0,
                           inner_coat=Layer(10e-9, 7140.0),
                           outer_coat=Layer(180e-9, 19280.0))
    assert sphere.outer_radius == pytest.approx(150e-6 + 190e-9, rel=1e-15, abs=0.0)


def test_lam_power_is_the_plain_power_until_it_overflows():
    for n, finite, too_large in ((3, 5e102, 6e102), (4, 1e77, 1.2e77)):
        for lam in (1e-10, 1.0, finite):
            assert YukawaParams(1.0, lam).lam_power(n) == lam ** n
        with pytest.raises(InputError, match=rf"domain: lambda\^{n} overflows above about"):
            YukawaParams(1.0, too_large).lam_power(n)


def test_infinite_thickness_is_exact():
    # the whole point of using IEEE inf: no rounding in (1 - e^(-D/lam))
    assert math.exp(-INFINITE) == 0.0
    assert -math.expm1(-INFINITE / 1e-9) == 1.0


# ------------------------------------------------------------------- config

def test_parse_quantity_units():
    assert parse_quantity("150 um") == 150e-6
    assert parse_quantity("100 nm") == pytest.approx(1e-7, rel=1e-15, abs=0.0)
    assert parse_quantity("1 mm") == 1e-3
    assert parse_quantity("0.2 m") == 0.2
    assert parse_quantity("19.28 g/cm3") == 19280.0
    assert parse_quantity("2330 kg/m3") == 2330.0
    assert parse_quantity("inf") == INFINITE
    assert parse_quantity("42") == 42.0


def test_parse_quantity_densities():
    assert parse_quantity("19.28 g/cm3") == 19280.0
    assert parse_quantity("0 g/cm3") == 0.0
    assert parse_quantity("2.33 g/cm3") == 2330.0
    assert parse_quantity("2330.0 kg/m3") == 2330.0


def test_parse_quantity_rejects_bad_density():
    with pytest.raises(InputError, match="density must be >= 0"):
        parse_quantity("-1 g/cm3")
    with pytest.raises(InputError, match="unknown unit"):
        parse_quantity("1 stone/firkin")


def test_parse_quantity_rejects_garbage():
    for bad in ("12 parsec", "one mm", "1 2 3", ""):
        with pytest.raises(InputError):
            parse_quantity(bad)


def test_parse_config_text_basics():
    text = """
    # comment line
    sphere.core_radius = 150 um   # trailing comment
    slab.top.density = 19.28 g/cm3
    pfa.d2 = inf
    sweep.radii = 50 um, 100 um, 150 um
    """
    parsed = parse_config_text(text)
    assert parsed["sphere.core_radius"] == 150e-6
    assert parsed["slab.top.density"] == 19280.0
    assert parsed["pfa.d2"] == INFINITE
    assert parsed["sweep.radii"] == pytest.approx([50e-6, 100e-6, 150e-6], rel=1e-15, abs=0.0)


@pytest.mark.parametrize("text,fragment", [
    ("just words", "expected"),
    ("a = 1\na = 2", "duplicate"),
    ("= 3", "empty key"),
    ("x = 1 furlong", "unknown unit"),
])
def test_parse_config_text_errors_name_the_line(text, fragment):
    with pytest.raises(InputError) as err:
        parse_config_text(text, source="cfg")
    assert "cfg:" in str(err.value)
    assert fragment in str(err.value)


@given(st.floats(allow_nan=False))
def test_config_roundtrip_keeps_15_digits(value):
    # manifests write numbers with repr: every float, -inf included, parses back
    parsed = parse_config_text(f"x = {value!r}")
    assert parsed["x"] == value  # repr round-trips floats exactly
