"""How configuration values are kept, and the range rules of their fields.

The one holding rule: configuration is frozen dataclasses whose vectors are
float64 arrays that nothing can write, whose collections are tuples and
whose mappings are read-only.  A value is checked once, when it is built,
and `dataclasses.replace` makes a changed copy.  A field states its rule,
and a vector its shape, with `ruled`; `check` first makes each shaped
field such an array (`freeze`, `read_only`), then applies the rules.

A rule is FINITE, POSITIVE or NON_NEGATIVE, and each requires finite values.
It holds for a number, every entry of an array or every value of a mapping;
a None field is unset.  The scenario reader holds each number it reads to
the rule of the field it fills (`field_rules`), so a file and a Python build
refuse the same values.  A class with shaped fields compares by value
through `compared_by_bytes`.
"""

import sys
from collections.abc import Mapping
from dataclasses import MISSING, field, fields
from functools import cache

import numpy as np

FINITE, POSITIVE, NON_NEGATIVE = "finite", "positive", "non-negative"
_MAX = sys.float_info.max  # NaN, inf and an integer such as 10**400 lie outside
_HOLDS = {
    FINITE: lambda v: -_MAX <= v <= _MAX,
    POSITIVE: lambda v: 0 < v <= _MAX,
    NON_NEGATIVE: lambda v: 0 <= v <= _MAX,
}


def ruled(rule: str | None, default=MISSING, shape: int | None = None, **kwargs):
    """A dataclass field whose value must hold to `rule` (None: no rule).
    With `shape`, a count of entries (-1: any count), `check` holds the
    value as a read-only float64 array of that many entries."""
    return field(default=default, metadata={"rule": rule, "shape": shape}, **kwargs)


@cache
def field_rules(cls) -> dict:
    """{field name: rule} of a dataclass; empty for any other callable."""
    found = getattr(cls, "__dataclass_fields__", {}).values()
    return {f.name: f.metadata["rule"] for f in found if f.metadata.get("rule")}


@cache
def _shapes(cls) -> tuple:
    """(field name, shape) of each field of the dataclass `cls` with a shape."""
    found = cls.__dataclass_fields__.values()
    return tuple((f.name, f.metadata["shape"]) for f in found if f.metadata.get("shape"))


def read_only(value, shape: int = -1, name: str = "value") -> np.ndarray:
    """`value` as a flat float64 array of its own, over immutable bytes so
    that nothing can write it, with `shape` entries (-1: any count)."""
    array = np.frombuffer(np.asarray(value, dtype=float).tobytes())
    if array.size != shape != -1:
        raise ValueError(f"{name} must have {shape} entries, got {value}")
    return array


def freeze(obj):
    """Replace each set, shaped field of the dataclass `obj` by its `read_only` array."""
    for name, shape in _shapes(type(obj)):
        if (value := getattr(obj, name)) is not None:
            object.__setattr__(obj, name, read_only(value, shape, name))


def complaint(rule: str, value) -> str | None:
    """'must be <rule>, got <value>' if `value` breaks `rule`, else None; a
    value that is not finite breaks FINITE first."""
    if isinstance(value, np.ndarray):
        values = value.ravel().tolist()
    elif isinstance(value, (int, float)):
        if _HOLDS[rule](value):
            return None
        values = (value,)
    elif value is None:
        return None
    else:
        values = value.values() if isinstance(value, Mapping) else np.ravel(value).tolist()
    if all(map(_HOLDS[rule], values)):
        return None
    what = rule if all(map(_HOLDS[FINITE], values)) else FINITE
    return f"must be {what}, got {value}"


def problems(obj) -> list:
    """'<field> must be <rule>, got <value>' for each field of the dataclass
    `obj` that breaks its rule."""
    rules = field_rules(type(obj)).items()
    return [f"{n} {c}" for n, r in rules if (c := complaint(r, getattr(obj, n)))]


def check(obj, error=ValueError):
    """Freeze the shaped fields of the dataclass `obj`, then raise `error`
    naming every field that breaks its rule."""
    freeze(obj)
    if found := problems(obj):
        raise error("; ".join(found))


@cache
def _compared(cls) -> tuple:
    """(field name, has a shape) of each compared field of the dataclass `cls`."""
    return tuple((f.name, bool(f.metadata.get("shape"))) for f in fields(cls) if f.compare)


def _key(obj) -> tuple:
    """The compared fields of the dataclass `obj`, each shaped one that is
    set as the bytes of its array."""
    key = []
    for name, shaped in _compared(type(obj)):
        value = getattr(obj, name)
        key.append(value.tobytes() if shaped and value is not None else value)
    return tuple(key)


def _equal(a, b):
    if b.__class__ is not a.__class__:
        return NotImplemented
    return _key(a) == _key(b)


def _hash(obj) -> int:
    return hash(_key(obj))


def compared_by_bytes(cls):
    """Decorate a frozen dataclass (outside `@dataclass`) so that `==`
    compares its compared fields, each shaped field's array by its bytes
    (so 0.0 and -0.0 differ), and `hash` hashes the same values; a value
    that holds a read-only mapping stays unhashable."""
    cls.__eq__ = _equal
    cls.__hash__ = _hash
    return cls
