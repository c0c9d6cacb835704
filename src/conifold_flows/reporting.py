"""Deterministic serialization for reports and data files.

Reports must be byte-identical across repeat runs with the same inputs, so
every float goes through one formatting choke point (17 significant digits,
enough to round-trip IEEE doubles), complex values are written as 'a+bi'
strings, exact rationals as 'p/q', and JSON objects are dumped with sorted
keys and a fixed separator/indent convention.
"""
from __future__ import annotations

import cmath
import json
import re
from fractions import Fraction

from .errors import DomainError

__all__ = [
    "fmt_float",
    "fmt_complex",
    "fmt_value",
    "parse_complex",
    "dump_json",
    "write_json",
    "write_csv",
]


def fmt_float(x: float) -> str:
    if x != x:
        return "nan"
    return f"{float(x):.17g}"


def fmt_complex(z: complex) -> str:
    z = complex(z)
    re_s = fmt_float(z.real)
    im = z.imag
    sign = "-" if (im < 0 or (im == 0 and str(im)[0] == "-")) else "+"
    return f"{re_s}{sign}{fmt_float(abs(im))}i"


def fmt_value(v):
    """Recursive conversion to JSON-safe, deterministic primitives."""
    if isinstance(v, bool) or v is None:
        return v
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, int):
        return v
    if isinstance(v, float):
        return fmt_float(v)
    if isinstance(v, complex):
        return fmt_complex(v)
    if isinstance(v, str):
        return v
    if isinstance(v, dict):
        return {str(k): fmt_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [fmt_value(x) for x in v]
    # mpmath and numpy scalars funnel through complex/float
    try:
        c = complex(v)
    except TypeError:
        raise DomainError(f"cannot serialize value of type {type(v).__name__}")
    if c.imag == 0:
        return fmt_float(c.real)
    return fmt_complex(c)


_COMPLEX_CHARS = re.compile(r"[0-9.eE+\-ij]*")


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' (or 'a', or 'bi'; i or j) with Python's complex(), whose
    float parsing is correctly rounded, so the same string always produces
    the same double.  Other characters, and values that are not finite,
    raise DomainError."""
    s = text.strip().replace(" ", "")
    if s == "-i":
        return -1j
    try:
        if not _COMPLEX_CHARS.fullmatch(s):
            raise ValueError
        value = complex(s.replace("i", "j"))
    except ValueError:
        raise DomainError(f"cannot parse complex number {text!r}") from None
    if not cmath.isfinite(value):
        raise DomainError(f"complex number {text!r} is not finite")
    return value


def dump_json(payload: dict) -> str:
    return json.dumps(fmt_value(payload), indent=2, sort_keys=True,
                      ensure_ascii=True) + "\n"


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_json(payload))


def write_csv(path: str, header: list[str], rows) -> None:
    """Rows of already-formatted strings or numbers (numbers are formatted
    through fmt_float)."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [c if isinstance(c, str) else
                     (str(c) if isinstance(c, int) else fmt_float(c))
                     for c in row]
            fh.write(",".join(cells) + "\n")
