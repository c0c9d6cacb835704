"""Deterministic serialization for reports and data files.

Reports must be byte-identical across repeat runs with the same inputs, so
every float goes through one formatting choke point (17 significant digits,
enough to round-trip IEEE doubles), complex values are written as 'a+bi'
strings, exact rationals as 'p/q', and JSON objects are dumped with sorted
keys and a fixed separator/indent convention.
"""
from __future__ import annotations

import json
import re
from decimal import Decimal
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


_COMPLEX_RE = re.compile(
    r"^\s*(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?"
    r"(?:(?P<im>[+-](?:\d+\.?\d*|\.\d+)?(?:[eE][+-]?\d+)?)[ij])?\s*$")


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' (or 'a', or 'bi') with decimal-exact intermediate
    parsing, so the same string always produces the same double."""
    s = text.strip().replace(" ", "")
    if s in ("i", "+i"):
        return 1j
    if s == "-i":
        return -1j
    # lone imaginary like '2i' / '-0.5i'
    if s.endswith(("i", "j")) and not _COMPLEX_RE.match(s):
        body = s[:-1]
        try:
            return complex(0.0, float(Decimal(body)))
        except Exception:
            raise DomainError(f"cannot parse complex number {text!r}")
    m = _COMPLEX_RE.match(s)
    if not m or (m.group("re") is None and m.group("im") is None):
        raise DomainError(f"cannot parse complex number {text!r}")
    re_part = m.group("re")
    im_part = m.group("im")
    re_val = float(Decimal(re_part)) if re_part else 0.0
    if im_part is None:
        im_val = 0.0
    elif im_part in ("+", "-"):
        im_val = 1.0 if im_part == "+" else -1.0
    else:
        im_val = float(Decimal(im_part))
    return complex(re_val, im_val)


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
