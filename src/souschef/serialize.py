"""JSON encoding of feature values, and the reader and shape checker of
every JSON input file.

Rationals are written as exact strings ("35/2"), never floats, so that
round-tripping preserves equality and files are byte-stable across runs.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from .errors import InputError
from .features import Compound, Num, Struct, Sym, Text, ValueSet, Var


def fv_to_json(value):
    if isinstance(value, Sym):
        return {"sym": value.name}
    if isinstance(value, Var):
        return {"var": value.name}
    if isinstance(value, Text):
        return {"text": value.text}
    if isinstance(value, Num):
        out = {"num": str(value.value)}
        if value.unit is not None:
            out["unit"] = value.unit
        return out
    if isinstance(value, ValueSet):
        return {"set": [fv_to_json(m) for m in value.members]}
    if isinstance(value, Struct):
        return {"struct": {k: fv_to_json(v) for k, v in value.fields}}
    if isinstance(value, Compound):
        out = {"call": value.name, "args": [fv_to_json(a) for a in value.args]}
        if value.kwargs:
            out["kwargs"] = {k: fv_to_json(v) for k, v in value.kwargs}
        return out
    raise InputError(f"not a serializable feature value: {value!r}")


#: Each key of an encoded feature value and the JSON type it holds.
_TAG_TYPES = {"sym": str, "var": str, "text": str, "num": str, "unit": str,
              "set": list, "struct": dict, "call": str, "args": list,
              "kwargs": dict}


def fv_from_json(data):
    if not isinstance(data, dict) or not all(
            isinstance(v, _TAG_TYPES.get(k, object)) for k, v in data.items()):
        raise InputError(f"malformed feature value: {data!r}")
    if "sym" in data:
        return Sym(data["sym"])
    if "var" in data:
        return Var(data["var"])
    if "text" in data:
        return Text(data["text"])
    if "num" in data:
        try:
            return Num(Fraction(data["num"]), data.get("unit"))
        except (ValueError, ZeroDivisionError):
            raise InputError(f"malformed feature value: {data!r}") from None
    if "set" in data:
        return ValueSet(tuple(fv_from_json(m) for m in data["set"]))
    if "struct" in data:
        return Struct([(k, fv_from_json(v)) for k, v in data["struct"].items()])
    if "call" in data:
        kwargs = tuple((k, fv_from_json(v))
                       for k, v in data.get("kwargs", {}).items())
        return Compound(data["call"],
                        tuple(fv_from_json(a) for a in data.get("args", [])),
                        kwargs)
    raise InputError(f"malformed feature value: {data!r}")


# ---------------------------------------------------------------------------
# Input files

#: The number types of a shape; a bool is never a number (see check_shape).
NUMBER = (int, float, Fraction)

_TYPE_NAMES = {str: "a string", bool: "true or false", int: "an integer",
               list: "a list", dict: "an object"}


def read_json(path: Path | str, what: str):
    """The JSON value in the file; InputError naming `what` if not JSON."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:
        raise InputError(f"{what} is not valid JSON: {exc}") from None


def check_shape(value, shape, where: str):
    """`value` if it fits `shape`, else InputError naming `where` and the
    path of the first field that does not (file order, then shape order).

    A shape is a type or a tuple of types (a bool is never a number, nor
    is NaN or an infinity); a one-element list, a list of that shape; or a
    dict from key to shape, where a key ending in "?" is optional, "*"
    covers every key not named, and any other key fails.
    """
    _check(value, shape, "", where)
    return value


def _check(value, shape, path: str, where: str) -> None:
    types = ((type(shape),) if isinstance(shape, (list, dict))
             else shape if isinstance(shape, tuple) else (shape,))
    if (bool not in types if isinstance(value, bool)
            else not isinstance(value, types)
            or isinstance(value, float) and not math.isfinite(value)):
        names = dict.fromkeys("a number" if float in types and t in NUMBER
                              else _TYPE_NAMES[t] for t in types)
        at = f": '{path}'" if path else ""
        raise InputError(f"{where}{at} must be {' or '.join(names)}, "
                         f"got {value!r}")
    if isinstance(shape, list):
        for i, item in enumerate(value):
            _check(item, shape[0], f"{path}[{i}]", where)
    elif isinstance(shape, dict):
        prefix = f"{path}." if path else ""
        for key, item in value.items():
            sub = shape.get(key)
            if sub is None or key.endswith("?"):
                sub = shape.get(key + "?", shape.get("*"))
            if sub is None:
                raise InputError(f"{where}: '{prefix}{key}' is not allowed")
            _check(item, sub, prefix + key, where)
        for key in shape:
            if key not in value and not key.endswith(("?", "*")):
                raise InputError(f"{where}: '{prefix}{key}' is missing")
