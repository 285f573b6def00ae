"""JSON input files, read strictly, and deterministic JSON emission.

Input files are decoded by ``read_json`` and read through ``JsonObject``,
which refuses unknown or missing keys and values of the wrong JSON type.
Identical reports are byte-identical: keys are sorted, integers print
unformatted, floats at 17 significant digits.  numpy integers, floats and
arrays print like their Python values, yet this module does not import
numpy: scene commands load no numpy at all.
"""

from __future__ import annotations

import json
import math
import numbers

from .errors import InputError

_KINDS = {
    int: "an integer",
    float: "a finite number",
    str: "a string",
    list: "an array",
    dict: "an object",
    numbers.Real: "a real number",
    numbers.Complex: "a complex number",
}


def read_json(path, what: str):
    """Decoded contents of the JSON file at ``path``, a ``what`` file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {what} file: {exc}") from exc


def typed(value, kind, what: str):
    """``value`` if it is a JSON value of ``kind``, a key of ``_KINDS``, or for
    ``numbers.Real`` and ``numbers.Complex`` a number of that kind.  The one integer
    rule: any ``numbers.Integral`` but a bool, returned as an int; a bool is no number."""
    if kind is int:
        if type(value) is int:
            return value
        ok = type(value) is not bool and isinstance(value, numbers.Integral)
        value = int(value) if ok else value
    elif kind is float:
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        ok = number and (isinstance(value, int) or math.isfinite(value))
    else:
        ok = isinstance(value, kind) and not isinstance(value, bool)
    if not ok:
        raise InputError(f"{what} must be {_KINDS[kind]}, got {value!r}")
    return value


def read_seed(value) -> int:
    """A random seed: an integer, read by ``typed``, and nonnegative, as
    numpy's generators require.  The germ oracles seed numpy with it and
    ``audit_scene`` the standard library's ``random.Random``."""
    seed = typed(value, int, "seed")
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    return seed


def read_multiplicity(value) -> int:
    """A cover multiplicity k >= 1, read by ``typed``."""
    k = typed(value, int, "cover multiplicity")
    if k < 1:
        raise InputError(f"cover multiplicity must be a positive integer, got {k!r}")
    return k


class JsonObject:
    """One object of an input file with typed access to its fields;
    ``where`` names it in errors, ``what`` where it is not an object."""

    def __init__(self, data, allowed, where: str, what: str):
        if not isinstance(data, dict):
            raise InputError(f"{what} must contain a JSON object")
        for key in data:
            if key not in allowed:
                raise InputError(f"unknown key {key!r} in {where}")
        self.data = data
        self.where = where

    def field(self, key: str, kind, default):
        """The value at ``key`` checked by ``typed``, or ``default`` if absent."""
        if key not in self.data:
            return default
        return typed(self.data[key], kind, f"{key!r} in {self.where}")

    def required(self, key: str, kind):
        """The value at ``key`` checked by ``typed``; the key must be present."""
        if key not in self.data:
            raise InputError(f"missing key {key!r} in {self.where}")
        return self.field(key, kind, None)


def _is_array(value) -> bool:
    """An array of one or more dimensions, told by the numpy array interface
    it exports; a numpy scalar exports one of shape ()."""
    return bool(getattr(value, "__array_interface__", {}).get("shape"))


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        body = ", ".join(f"{json.dumps(str(k))}: {_fmt(v)}" for k, v in items)
        return "{" + body + "}"
    # numpy registers its integer and float scalars here, but not np.bool_;
    # a Fraction is Real too, and stays refused as an exact non-integer
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real) and not isinstance(value, numbers.Rational):
        x = float(value)
        if not math.isfinite(x):
            raise InputError(f"non-finite float {x} in report")
        return format(x, ".17g")
    if isinstance(value, (list, tuple)) or _is_array(value):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    raise InputError(f"cannot serialize {type(value).__name__} deterministically")


def canonical_dumps(obj) -> str:
    return _fmt(obj) + "\n"
