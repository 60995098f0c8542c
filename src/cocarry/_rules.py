"""Range rules of parameter fields, each stated once, on the field it constrains.

A rule is FINITE, POSITIVE or NON_NEGATIVE, and each requires finite values.
It holds for a number, every entry of an array or every value of a dict; a
None field is unset.  A dataclass states a field's rule with `ruled` and
applies its rules in __post_init__ with `check`.  The scenario reader holds
each number it reads to the rule of the field it fills (`field_rules`), so a
file and a Python build refuse the same values.
"""

import sys
from dataclasses import MISSING, field
from functools import cache

import numpy as np

FINITE, POSITIVE, NON_NEGATIVE = "finite", "positive", "non-negative"
_MAX = sys.float_info.max  # NaN, inf and an integer such as 10**400 lie outside
_HOLDS = {
    FINITE: lambda v: -_MAX <= v <= _MAX,
    POSITIVE: lambda v: 0 < v <= _MAX,
    NON_NEGATIVE: lambda v: 0 <= v <= _MAX,
}


def ruled(rule: str, default=MISSING, **kwargs):
    """A dataclass field whose value must hold to `rule`."""
    return field(default=default, metadata={"rule": rule}, **kwargs)


@cache
def field_rules(cls) -> dict:
    """{field name: rule} of a dataclass; empty for any other callable."""
    found = getattr(cls, "__dataclass_fields__", {}).values()
    return {f.name: f.metadata["rule"] for f in found if "rule" in f.metadata}


def complaint(rule: str, value) -> str | None:
    """'must be <rule>, got <value>' if `value` breaks `rule`, else None; a
    value that is not finite breaks FINITE first."""
    if isinstance(value, (int, float)):
        if _HOLDS[rule](value):
            return None
        values = (value,)
    elif value is None:
        return None
    elif isinstance(value, np.ndarray):
        values = value.ravel().tolist()
    else:
        values = value.values() if isinstance(value, dict) else np.ravel(value).tolist()
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
    """Raise `error` naming every field of the dataclass `obj` that breaks its rule."""
    if found := problems(obj):
        raise error("; ".join(found))
