"""Unit parsing for design files. Internally everything is SI: m, W, K."""

import math
import re

from .errors import DesignError

_LENGTH_SCALE = {"m": 1.0, "mm": 1e-3, "um": 1e-6}

_NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_LENGTH_RE = re.compile(rf"^({_NUM})\s*(m|mm|um)$")
_TEMP_RE = re.compile(rf"^({_NUM})\s*(K|C)$")


def parse_float(text: str) -> float:
    """A finite float; float() alone also accepts 'nan', 'inf' and overflow."""
    try:
        value = float(text)
    except ValueError:
        raise DesignError(f"bad number {text!r}") from None
    if not math.isfinite(value):
        raise DesignError(f"non-finite number {text!r}")
    return value


def parse_length(text: str) -> float:
    """'10um', '1.5 mm', '0.002m' -> meters."""
    m = _LENGTH_RE.match(text.strip())
    if not m:
        raise DesignError(f"bad length {text!r} (expected e.g. '10um', '1.5mm', '0.002m')")
    return parse_float(m.group(1)) * _LENGTH_SCALE[m.group(2)]


def parse_temperature(text: str) -> float:
    """'25C' or '298.15K' -> kelvin."""
    m = _TEMP_RE.match(text.strip())
    if not m:
        raise DesignError(f"bad temperature {text!r} (expected e.g. '25C' or '300K')")
    value = parse_float(m.group(1))
    return value + 273.15 if m.group(2) == "C" else value


def format_length(meters: float) -> str:
    # repr round-trips exactly through parse_length, which keeps emitted
    # design files bit-stable
    return f"{meters!r}m"


def format_temperature(kelvin: float) -> str:
    return f"{kelvin!r}K"
