"""Reading and writing method coefficient files (format "msrk/1").

A method file is a versioned key-value text document.  Scalars are
plain tokens; matrices and vectors are row-major nested JSON arrays.
Floats are written with 17 significant digits so files round-trip to
the bit.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .methods import MSRKMethod, _coefficient_shapes

__all__ = ["MethodFileError", "read_method", "write_method", "dumps_method", "loads_method"]

FORMAT_TAG = "msrk/1"

_SCALAR_INT = ("s", "k", "claimed_order")
_ARRAYS = tuple(_coefficient_shapes(1, 1))  # in the order a file lists them


class MethodFileError(ValueError):
    """Raised on malformed method files; carries line and field context."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        ctx = []
        if line is not None:
            ctx.append(f"line {line}")
        if field is not None:
            ctx.append(f"field {field!r}")
        super().__init__(f"{message}" + (f" ({', '.join(ctx)})" if ctx else ""))
        self.line = line
        self.field = field


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_nested(a: np.ndarray) -> str:
    if a.ndim == 1:
        return "[" + ", ".join(_fmt(v) for v in a) + "]"
    return "[" + ", ".join(_fmt_nested(row) for row in a) + "]"


def dumps_method(method: MSRKMethod) -> str:
    """The file text of a method, whose coefficients are finite since it was
    built; MethodFileError when the name has a line break or surrounding whitespace."""
    name = method.name
    if name != name.strip() or "".join(name.splitlines()) != name:
        raise MethodFileError(f"{name!r} has a line break or surrounding whitespace",
                              field="name")
    lines = [
        f"format = {FORMAT_TAG}",
        f"name = {method.name}",
        f"s = {method.s}",
        f"k = {method.k}",
        f"claimed_order = {method.claimed_order}",
    ]
    for key in _ARRAYS:
        lines.append(f"{key} = {_fmt_nested(getattr(method, key))}")
    return "\n".join(lines) + "\n"


def loads_method(text: str) -> MSRKMethod:
    fields: dict[str, str] = {}
    lineno: dict[str, int] = {}
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise MethodFileError("expected 'key = value'", line=n)
        key, _, value = line.partition("=")
        key = key.strip()
        if key in fields:
            raise MethodFileError(f"repeated key (first on line {lineno[key]})", line=n, field=key)
        fields[key] = value.strip()
        lineno[key] = n

    if fields.get("format") != FORMAT_TAG:
        raise MethodFileError(
            f"unsupported format {fields.get('format')!r}, expected {FORMAT_TAG!r}",
            line=lineno.get("format"), field="format",
        )

    for key in _SCALAR_INT + _ARRAYS:
        if key not in fields:
            raise MethodFileError("missing field", field=key)

    ints = {}
    for key in _SCALAR_INT:
        try:
            ints[key] = int(fields[key])
        except ValueError:
            raise MethodFileError("not an integer", line=lineno[key], field=key) from None

    arrays = {}
    for key in _ARRAYS:
        try:
            arrays[key] = np.array(json.loads(fields[key]), dtype=float)
        except (ValueError, TypeError, RecursionError, OverflowError):
            raise MethodFileError("not a numeric array", line=lineno[key], field=key) from None

    # sizes here, so that a wrong one names its line; MSRKMethod takes any
    # layout of the right size, a one-step method's empty Ahat and bhat too
    s, k = ints["s"], ints["k"]
    if s >= 1 and k >= 1:
        for key, shape in _coefficient_shapes(s, k).items():
            if arrays[key].size != math.prod(shape):
                raise MethodFileError(
                    f"{arrays[key].size} entries, but s = {s} and k = {k} need shape {shape}",
                    line=lineno[key], field=key,
                )
    try:
        return MSRKMethod(s=s, k=k, **arrays, name=fields.get("name", "unnamed"),
                          claimed_order=ints["claimed_order"])
    except ValueError as exc:
        raise MethodFileError(str(exc)) from None


def write_method(method: MSRKMethod, path) -> None:
    Path(path).write_text(dumps_method(method))


def read_method(path) -> MSRKMethod:
    return loads_method(Path(path).read_text())
