"""Unit parsing for design files. Every length is a whole number of
nanometres, read exactly from its decimal text, so '100um', '0.1mm' and
'0.0001m' are the one value 100000; everything else is SI (W, K)."""

import math
import re
from decimal import ROUND_HALF_EVEN, Decimal, InvalidOperation

from .errors import DesignError

MAX_LENGTH_NM = 2**53   # so that every length is also exact as a float

# the power of ten that turns each unit into nanometres
_NM_EXPONENT = {"m": 9, "mm": 6, "um": 3}

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


def parse_length(text: str) -> int:
    """'10um', '1.5 mm', '0.002m' -> whole nanometres, read exactly from the
    decimal digits (finer digits round half to even); a magnitude above
    MAX_LENGTH_NM is a DesignError."""
    m = _LENGTH_RE.match(text.strip())
    if not m:
        raise DesignError(f"bad length {text!r} (expected e.g. '10um', '1.5mm', '0.002m')")
    try:
        sign, digits, exponent = Decimal(m.group(1)).as_tuple()
        nm = Decimal((sign, digits, exponent + _NM_EXPONENT[m.group(2)]))
        if nm.copy_abs() <= MAX_LENGTH_NM:
            return int(nm.to_integral_value(ROUND_HALF_EVEN))
    except InvalidOperation:   # an exponent past what Decimal holds
        pass
    raise DesignError(f"length {text!r} is out of range: at most {MAX_LENGTH_NM} nm (2**53)")


def parse_temperature(text: str) -> float:
    """'25C' or '298.15K' -> kelvin."""
    m = _TEMP_RE.match(text.strip())
    if not m:
        raise DesignError(f"bad temperature {text!r} (expected e.g. '25C' or '300K')")
    value = parse_float(m.group(1))
    return value + 273.15 if m.group(2) == "C" else value


def format_length(nm: int) -> str:
    """The shortest exact spelling of nm nanometres that parse_length reads
    back: whole millimetres in mm, anything else in um ('2mm', '1300um',
    '0.5um'). A value that is not an int, which only a design built in code
    can hold, is written as its repr in nm, for a message."""
    if not isinstance(nm, int):
        return f"{nm!r}nm"
    if nm % 1_000_000 == 0:
        return f"{nm // 1_000_000}mm"
    whole, part = divmod(abs(nm), 1000)
    return f"{'-' * (nm < 0)}{f'{whole}.{part:03d}'.rstrip('0').rstrip('.')}um"


def metres(nm, dims: int = 1):
    """nm (nm^dims) in float metres (m^dims), correctly rounded."""
    return nm / 10 ** (9 * dims)


def format_temperature(kelvin: float) -> str:
    return f"{kelvin!r}K"
