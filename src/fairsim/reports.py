"""Deterministic serialization of reports: a line-oriented `key = value`
document format with dotted key paths, a plain-text rendering, and CSV plot
series. Floats render with 12 significant digits, and an exact ``Fraction``
as its correctly rounded float: ``format_value`` is the one place where an
exact value is rounded. The undefined marker renders as ``undefined``."""

from __future__ import annotations

import math
from fractions import Fraction


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "undefined"
        if value == 0.0:
            return "0"
        return f"{value:.12g}"
    if isinstance(value, Fraction):  # after float: an ABC check, slow for the many series floats
        return format_value(float(value))
    return str(value)


def flatten(mapping: dict, prefix: str = "") -> dict[str, object]:
    """Flatten nested dicts into dotted key paths, preserving order."""
    flat: dict[str, object] = {}
    for key, value in mapping.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            flat.update(flatten(value, path))
        else:
            flat[path] = value
    return flat


def render_doc(mapping: dict) -> str:
    """One `key = value` line per entry, nested dicts joined with dots."""
    lines = [f"{key} = {format_value(value)}" for key, value in flatten(mapping).items()]
    return "\n".join(lines) + "\n"


def render_text(title: str, mapping: dict) -> str:
    flat = flatten(mapping)
    width = max((len(k) for k in flat), default=0)
    lines = [title, "-" * len(title)]
    lines += [f"{key.ljust(width)}  {format_value(value)}" for key, value in flat.items()]
    return "\n".join(lines) + "\n"


def write_series_csv(path, points) -> None:
    """Write one plot series as an x,y CSV file."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("x,y\n")
        fh.writelines(f"{format_value(float(x))},{format_value(float(y))}\n" for x, y in points)
