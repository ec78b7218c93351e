import pytest

from ypfa import (INFINITE, Disk, Layer, LayeredConfig, LayeredSlab, LayeredSphere,
                  SphereSlabConfig)


@pytest.fixture
def homogeneous_cfg():
    return SphereSlabConfig(separation=100e-9, sphere_radius=150e-6,
                            sphere_density=4100.0, slab_thickness=3.5e-6,
                            slab_density=2330.0, d2=INFINITE)


@pytest.fixture
def coated_stack():
    """Slab stack used throughout: base + two thin denser coatings."""
    return LayeredSlab(base=Layer(3.5e-6, 2330.0), middle=Layer(10e-9, 7140.0),
                       top=Layer(210e-9, 19280.0))


@pytest.fixture
def coated_sphere():
    return LayeredSphere(core_radius=151.3e-6, core_density=4100.0,
                         inner_coat=Layer(10e-9, 7140.0),
                         outer_coat=Layer(180e-9, 19280.0))


@pytest.fixture
def layered_cfg(coated_sphere, coated_stack):
    return LayeredConfig(separation=100e-9, sphere=coated_sphere, slab=coated_stack,
                         d2=100.0)


@pytest.fixture
def reference_disk():
    return Disk(radius=300e-6, thickness=3.5e-6, density=2330.0)
