"""Line-oriented config files: ``key = value`` pairs with unit suffixes.

Format:

    # comment
    sphere.core_radius = 150 um
    slab.top.density   = 19.28 g/cm3
    pfa.d2             = inf
    sweep.radii        = 50 um, 100 um, 150 um

Keys are dotted, values are a number plus an optional unit. Lengths accept
nm/um/mm/m, densities g/cm3 or kg/m3; plain numbers are dimensionless.
Numbers are whatever ``float`` parses, so ``inf`` (any case, with or without
a unit) means an infinitely thick layer / infinite radius. Comma-separated
values parse to lists. Everything is converted to SI on parse; the in-memory
model carries no unit suffixes, and ``repr`` of a parsed value round-trips to
the same float. The caller may name keys whose value is a word (such as
``mode = n``); those keep their text.
"""

from __future__ import annotations

from typing import Collection

from .core import InputError, read_text

_LENGTH_UNITS = {"nm": 1e-9, "um": 1e-6, "mm": 1e-3, "m": 1.0}
_DENSITY_UNITS = {"g/cm3": 1000.0, "kg/m3": 1.0}


def parse_quantity(text: str) -> float:
    """Parse one scalar: a float() number with an optional length/density unit."""
    text = text.strip()
    parts = text.split()
    if len(parts) == 1:
        try:
            return float(parts[0])
        except ValueError:
            raise InputError(f"cannot parse value {text!r}") from None
    if len(parts) == 2:
        number, unit = parts
        try:
            base = float(number)
        except ValueError:
            raise InputError(f"cannot parse number in {text!r}") from None
        if unit in _LENGTH_UNITS:
            return base * _LENGTH_UNITS[unit]
        if unit in _DENSITY_UNITS:
            if base < 0.0:
                raise InputError(f"density must be >= 0, got {text!r}")
            return base * _DENSITY_UNITS[unit]
        raise InputError(f"unknown unit {unit!r} in {text!r}")
    raise InputError(f"cannot parse value {text!r}")


def parse_value(text: str) -> float | list[float]:
    """Parse a config value; comma-separated quantities become a list."""
    if "," in text:
        return [parse_quantity(part) for part in text.split(",")]
    return parse_quantity(text)


def parse_config_text(text: str, source: str = "<config>", words: Collection[str] = ()
                      ) -> dict[str, float | list[float] | str]:
    """Parse config text into a flat {dotted_key: SI value} dict.

    A key in ``words`` keeps its value as stripped text. Raises InputError
    naming the offending line on any malformed entry.
    """
    result: dict[str, float | list[float] | str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise InputError(f"{source}:{lineno}: empty key")
        if key in result:
            raise InputError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            result[key] = value.strip() if key in words else parse_value(value)
        except InputError as exc:
            raise InputError(f"{source}:{lineno}: {exc}") from None
    return result


def parse_config_file(path: str, words: Collection[str] = ()
                      ) -> dict[str, float | list[float] | str]:
    return parse_config_text(read_text(path), source=path, words=words)

