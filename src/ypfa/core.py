"""Shared physical constants, units and geometry/material value types.

Conventions used throughout the package:

- all lengths are metres, densities kg/m^3, masses kg, forces newtons;
- attractive forces are negative;
- G is the constant G_DEFAULT: every force is alpha G times a G-free factor,
  so limits bounds alpha relative to another G through alpha alone;
- an infinitely thick layer is represented by IEEE +inf (``INFINITE``), so
  factors of the form (1 - e^(-D/lambda)) evaluate to exactly 1.0 with no
  rounding.

Every type here is an immutable (frozen) dataclass and can be shared freely
between worker processes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

#: Distinguished "infinitely thick" value. exp(-INFINITE / x) == 0.0 exactly
#: for any finite x > 0, which is why this is +inf and not a large number.
INFINITE: float = math.inf

#: CODATA 2018 gravitational constant, m^3 kg^-1 s^-2.
G_DEFAULT: float = 6.67430e-11


class InputError(ValueError):
    """Invalid physical input (non-positive length, bad unit, bad config)."""


class DegenerateInputError(InputError):
    """Inputs that make the requested quantity undefined (e.g. all-zero forces)."""


def read_text(path: str) -> str:
    """The UTF-8 text of a file, without a leading byte-order mark.

    A byte that does not decode is an InputError naming path and the byte's
    offset in the file (utf-8-sig would count it from after the mark).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


class PoleProximityError(InputError):
    """Power-law exponent too close to the integrable pole at N = 1.

    The N != 1 closed form suffers 0/0 cancellation there; callers must use
    the exact special-case value N = 1.0 instead. N = 3 is a regular point.
    """


@dataclass(frozen=True)
class YukawaParams:
    """Yukawa coupling relative to gravity: strength alpha, range lam (m).

    alpha may be any real (limits constrain |alpha|); lam must be > 0.
    """

    alpha: float
    lam: float

    def __post_init__(self):
        if not self.lam > 0.0:
            raise InputError(f"Yukawa range must be > 0, got {self.lam}")

    def lam_power(self, n: int) -> float:
        """lam**n for a force prefactor, refused with the lam domain where it overflows."""
        try:
            return self.lam ** n
        except OverflowError:
            bound = sys.float_info.max ** (1.0 / n)
            raise InputError(f"lambda = {self.lam:g} m is outside this force's domain: "
                             f"lambda^{n} overflows above about {bound:.3g} m") from None


@dataclass(frozen=True)
class Layer:
    """One homogeneous coating: thickness (m) and density (kg/m^3).

    thickness == 0 means the layer is absent, INFINITE a half-space.
    """

    thickness: float
    density: float

    def __post_init__(self):
        if not self.thickness >= 0.0:
            raise InputError(f"layer thickness must be >= 0, got {self.thickness}")
        if not self.density >= 0.0:
            raise InputError(f"layer density must be >= 0, got {self.density}")


#: Absent layer, used when a body has fewer than two coatings.
NO_LAYER = Layer(0.0, 0.0)


@dataclass(frozen=True)
class LayeredSlab:
    """Slab made of a base plus up to two coatings, listed bottom-up.

    ``top`` is the layer facing the sphere.
    """

    base: Layer
    middle: Layer = NO_LAYER
    top: Layer = NO_LAYER

    def __post_init__(self):
        if not self.base.thickness > 0.0:
            raise InputError("slab base thickness must be > 0")


@dataclass(frozen=True)
class LayeredSphere:
    """Sphere with a homogeneous core and up to two concentric coatings."""

    core_radius: float
    core_density: float
    inner_coat: Layer = NO_LAYER
    outer_coat: Layer = NO_LAYER

    def __post_init__(self):
        if not self.core_radius > 0.0:
            raise InputError(f"core radius must be > 0, got {self.core_radius}")
        if not self.outer_radius < INFINITE:
            raise InputError("sphere outer radius (core radius + coat thicknesses) must be "
                             f"finite, got {self.outer_radius}")
        if not self.core_density >= 0.0:
            raise InputError(f"core density must be >= 0, got {self.core_density}")

    @property
    def outer_radius(self) -> float:
        return self.core_radius + self.inner_coat.thickness + self.outer_coat.thickness


@dataclass(frozen=True)
class Disk:
    """Finite disk: radius (may be INFINITE), thickness, density.

    The quadrature oracle requires a finite radius; closed forms accept
    INFINITE where the limit is well defined.
    """

    radius: float
    thickness: float
    density: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise InputError(f"disk radius must be > 0, got {self.radius}")
        if not self.thickness > 0.0:
            raise InputError(f"disk thickness must be > 0, got {self.thickness}")
        if not self.density >= 0.0:
            raise InputError(f"disk density must be >= 0, got {self.density}")


@dataclass(frozen=True)
class PowerLawParams:
    """Power-law point force F = -K rho1 m2 / r^n.

    The units of the coupling ``k`` depend on the exponent ``n``. Evaluation
    takes a dedicated closed form at exactly n = 1 and one form for every
    other n.
    """

    k: float
    n: float

    def __post_init__(self):
        if not self.n > 0.0:
            raise InputError(f"power-law exponent must be > 0, got {self.n}")


#: The force models of a geometry's law(method, p) and of limits: the
#: parallel-plate mapping, and the exact (surface-element) force.
METHODS = ("pfa", "epfa")


def check_method(method: str) -> None:
    """Refuse a method outside METHODS: the one check, and message, for every caller."""
    if method not in METHODS:
        raise InputError(f"method must be 'pfa' or 'epfa', got {method!r}")


@dataclass(frozen=True)
class SeparationLaw:
    """A force or energy prefactor(lam) * e^(-a/lam) as a function of the gap a.

    Any body facing a laterally infinite slab feels a Yukawa force of this
    shape, so everything but the exponential can be evaluated once per lam.
    ``slab`` is the slab side's thickness or stack factor and ``curvature``
    the body side's: Phi(2R/lam) or the shell sum for the exact force, the
    virtual plate's factor for the PFA. ``law(a)`` computes
    head * e^(-a/lam) * slab * curvature / over, multiplied left to right,
    which reproduces the one-line product form of each closed form bit for
    bit. The gap is not validated here.
    """

    head: float
    lam: float
    slab: float
    curvature: float
    over: float = 1.0

    def __call__(self, a: float) -> float:
        return self.head * math.exp(-a / self.lam) * self.slab * self.curvature / self.over
