"""Scenario configuration: one schema that both validates and builds.

A scenario file is a YAML document mirroring ScenarioConfig.  Each key is
declared once (end of module) with its type or shape and the argument it
fills.  A number read must hold to the range rule of the dataclass field it
fills, stated on that field (`_rules`); the class applies the same rule when
built from Python.  An absent or null key leaves the dataclass default; an
undeclared key is an error.  One pass collects every problem, including what
the built objects' own checks raise, or returns the ScenarioConfig.
"""

import importlib.resources
import math
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple

import numpy as np
import yaml

from ._rules import FINITE, NON_NEGATIVE, POSITIVE, check, complaint, field_rules, ruled
from ._rules import compared_by_bytes
from .aci import AciParams, AdmittanceParams, Mode
from .geometry import Pose
from .human import (
    NOISE_CHANNELS,
    HandYaw,
    Hold,
    HumanParams,
    MotionScript,
    TorsoYaw,
    Translate,
)
from .kinematics import ArmJoint, KinematicModel, default_model
from .objects import ObjectModel, presets
from .wbc import WbcError, WbcParams


# libyaml's safe parser where PyYAML was built with it, else the pure-Python one.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    """Raised for unparseable or invalid scenario configuration."""


@compared_by_bytes
@dataclass(frozen=True)
class Waypoint:
    offset: np.ndarray = ruled(FINITE, shape=3)
    tolerance: float = ruled(POSITIVE, 0.02)

    def __post_init__(self):
        check(self)


@compared_by_bytes
@dataclass(kw_only=True, frozen=True)
class ScenarioConfig:
    """Everything a run needs; field names match the YAML schema."""

    name: str = "scenario"
    model: KinematicModel
    q0: np.ndarray | None = ruled(FINITE, None, shape=-1)  # None: every joint at zero
    mode: Mode = Mode.ACI
    wbc: WbcParams
    admittance: AdmittanceParams
    aci: AciParams
    human: HumanParams
    object_model: ObjectModel
    script: MotionScript
    hand0: np.ndarray = ruled(FINITE, shape=3)
    torso0: np.ndarray = ruled(FINITE, shape=3)
    torso_yaw0: float = ruled(FINITE, 0.0)
    hand_yaw0: float | None = ruled(FINITE, None)
    waypoints: tuple = ()
    intervals: tuple = ruled(FINITE, ())  # (start, end) pairs
    waypoint_speed: float = ruled(POSITIVE, 0.05)
    dt: float = ruled(POSITIVE, 1e-3)
    duration: float = ruled(POSITIVE, 10.0)
    seed: int = ruled(NON_NEGATIVE, 0)
    trace_path: str | None = None
    metrics_path: str | None = None

    def __post_init__(self):
        if self.q0 is None:
            object.__setattr__(self, "q0", np.zeros(self.model.n_joints))
        object.__setattr__(self, "waypoints", tuple(self.waypoints))
        object.__setattr__(self, "intervals", tuple(map(tuple, self.intervals)))
        check(self)
        if len(self.q0) != self.model.n_joints:
            raise ValueError(f"q0 must have {self.model.n_joints} entries, got {self.q0}")
        for i, (lo, hi) in enumerate(self.intervals):
            if problem := _interval_problem(lo, hi, self.duration):
                raise ValueError(f"intervals[{i}] {problem}")
        # The human starts where its script does, the rest of the run here.
        yaw = self.torso_yaw0 if self.hand_yaw0 is None else self.hand_yaw0
        start = {"hand0": self.hand0, "torso_yaw0": self.torso_yaw0, "hand_yaw0": yaw}
        for name, here in start.items():
            scripted = getattr(self.script, name)
            if np.asarray(here, dtype=float).tolist() != np.asarray(scripted).tolist():
                raise ValueError(f"script starts at {name} {scripted}, not at {here}")


def scenario_path(name: str) -> str:
    """Filesystem path of a packaged scenario file (without the .yaml suffix)."""
    return str(importlib.resources.files("cocarry") / "scenarios" / f"{name}.yaml")


def load_scenario(path: str, overrides: dict | None = None) -> ScenarioConfig:
    """Parse and validate a scenario file; overrides patch top-level keys."""
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
    except FileNotFoundError:
        raise ConfigError(f"scenario file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    if overrides:
        raw = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
    config, errors = _read(raw)
    if errors:
        raise ConfigError(
            f"invalid scenario {path}:\n" + "\n".join(f"  - {e}" for e in errors)
        )
    return config


def validate_config(raw: dict) -> list:
    """Collect human-readable diagnostics; empty list means the config is good."""
    return _read(raw)[1]


def _read(raw: dict) -> tuple:
    """The one pass: (ScenarioConfig, []) or (None, every problem found)."""
    top = {}
    try:
        rules = field_rules(ScenarioConfig)
        return ScenarioConfig(**_fields(raw, "", _SCENARIO, top, top, rules)), []
    except _Invalid as exc:
        return None, list(exc.args)


class _Invalid(Exception):
    """Problems under one key, one message each (none: reported elsewhere)."""


class _Key(NamedTuple):
    """How a key's value is read, the argument it fills (default: the key)
    and what an absent key reads as (None: nothing, the default stays).  A
    bare reader declares a key with neither."""

    read: Callable  # (value, path, top) -> value; raises _Invalid
    to: str | None = None
    absent: object = None


REQUIRED = object()  # as `absent`: a missing key is an error


def _fields(raw, path: str, keys: dict, top: dict, out: dict, rules: dict) -> dict:
    """Read a mapping of declared keys into `out` as {argument: value}, each
    number held to `rules` of its argument; `top` holds the top-level
    arguments read so far (a key may need one)."""
    if not isinstance(raw, dict):
        raise _Invalid(f"field '{path}' must be a mapping, got {raw!r}")
    errors = [f"unknown field '{_sub(path, k)}'" for k in raw if k not in keys]
    for key, decl in keys.items():
        read, to, absent = decl if isinstance(decl, _Key) else (decl, None, None)
        val = absent if raw.get(key) is None else raw[key]
        if val is REQUIRED:
            errors.append(f"missing required field '{_sub(path, key)}'")
        elif val is not None:
            try:
                value = read(val, _sub(path, key), top)
                rule = rules.get(to or key)
                if rule and not isinstance(val, dict) and complaint(rule, value):
                    _hold(rule, val, _sub(path, key))  # a mapping's block held its own
                out[to or key] = value
            except _Invalid as exc:
                errors.extend(exc.args)
    if errors:
        raise _Invalid(*errors)
    return out


def _hold(rule: str, val, path: str):
    """Refuse the first number of `val` (one, or a list, as written) that
    breaks `rule`, naming its path."""
    for i, v in enumerate(val) if isinstance(val, list) else [(None, val)]:
        if found := complaint(rule, v):
            raise _Invalid(f"field '{path if i is None else _sub(path, i)}' {found}")


def _sub(path: str, key) -> str:
    """The path of `key` under `path`: a.b, or a[i] for an entry of a list."""
    return f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}".lstrip(".")


def _build(path: str, make: Callable, *args, **kwargs):
    """Construct one object; a problem its own checks raise names the key."""
    try:
        return make(*args, **kwargs)
    except (ValueError, TypeError, WbcError) as exc:
        raise _Invalid(f"{path}: {exc}") from None


def _block(make: Callable, keys: dict, rules: dict | None = None) -> Callable:
    """A mapping of declared keys, built into make(**arguments); `rules`
    defaults to the field rules of `make`."""
    rules = field_rules(make) if rules is None else rules
    def read(val, path, top):
        return _build(path, make, **_fields(val, path, keys, top, {}, rules))
    return read


def _list(read_entry: Callable) -> Callable:
    """A list, read as the mapping from each index to its entry."""
    def read(val, path, top):
        if not isinstance(val, list):
            raise _Invalid(f"field '{path}' must be a list, got {val!r}")
        keys = dict.fromkeys(range(len(val)), _Key(read_entry, absent=REQUIRED))
        return list(_fields(dict(enumerate(val)), path, keys, top, {}, {}).values())
    return read


def _number(whole=False) -> Callable:
    def read(val, path, top):
        kinds = int if whole else (int, float)
        if not isinstance(val, kinds) or isinstance(val, bool):
            what = "an integer" if whole else "a number"
            raise _Invalid(f"field '{path}' must be {what}, got {val!r}")
        if whole:
            return val
        try:
            return float(val)
        except OverflowError:  # an integer beyond every float, e.g. 10**400
            return math.inf if val > 0 else -math.inf
    return read


def _vector(size) -> Callable:
    """A list of numbers; `size` is a count or "joints" (the model's)."""
    entry = _number()
    def read(val, path, top):
        n = size
        if size == "joints":
            if "model" not in top:
                raise _Invalid()  # reported under 'model'
            n = top["model"].n_joints
        if not isinstance(val, list) or len(val) != n:
            raise _Invalid(f"field '{path}' must be a {n}-vector, got {val!r}")
        return np.array([entry(v, _sub(path, i), top) for i, v in enumerate(val)])
    return read


def _string(what: str = "", options: dict | None = None) -> Callable:
    """A string; with `options`, one of their names, read as its value."""
    def read(val, path, top):
        if not isinstance(val, str):
            raise _Invalid(f"field '{path}' must be a string, got {val!r}")
        if options is None:
            return val
        if val not in options:
            raise _Invalid(f"unknown {what} {val!r}; expected one of {sorted(options)}")
        return options[val]
    return read


def _object(val, path, top):
    if isinstance(val, str):  # a preset name alone
        val = {"preset": val}
    if not isinstance(val, dict):
        raise _Invalid(f"field '{path}' must be a preset name or a mapping")
    kwargs = _fields(val, path, _OBJECT, top, {}, field_rules(ObjectModel))
    # Over a preset, or over ObjectModel's defaults.
    return _build(path, replace, kwargs.pop("base", None) or ObjectModel(), **kwargs)


def _model(arm=None, **kwargs) -> KinematicModel:
    """The block's own arm and tool offset, or else the default arm and tool."""
    if arm is None and "ee_offset" in kwargs:
        raise ValueError("ee_offset needs the arm it ends")
    return default_model(**kwargs) if arm is None else KinematicModel(arm, **kwargs)


def _wbc(val, path, top):
    kwargs = _fields(val, path, _WBC, top, {}, _WBC_RULES)
    if "model" not in top:
        raise _Invalid()  # reported under 'model'
    kwargs.setdefault("q_def", top.get("q0"))
    return _build(path, WbcParams.defaults, top["model"], **kwargs)


def _segment(val, path, top):
    kinds = [k for k in _SEGMENTS if isinstance(val, dict) and val.get(k) is not None]
    if len(kinds) != 1:
        one_of = "/".join(_SEGMENTS)
        raise _Invalid(f"{path} must be a mapping with exactly one of {one_of}")
    return _block(*_SEGMENTS[kinds[0]])(val, path, top)


def _script(val, path, top):
    segments = _list(_segment)(val, path, top)
    if not segments:
        raise _Invalid(f"field '{path}' must be a non-empty list of segments")
    if "hand0" not in top:
        raise _Invalid()  # reported under 'hand0'
    start = {k: top[k] for k in ("torso_yaw0", "hand_yaw0") if k in top}
    return _build(path, MotionScript, segments, top["hand0"], **start)


def _interval_problem(lo: float, hi: float, duration: float) -> str:
    """What is wrong with the reporting interval [lo, hi), or ''."""
    if not 0.0 <= lo < hi:  # a NaN bound fails too
        return "must satisfy 0 <= start < end"
    return "" if hi <= duration else "ends after the configured duration"


def _interval(val, path, top):
    lo, hi = _vector(2)(val, path, top).tolist()
    _hold(field_rules(ScenarioConfig)["intervals"], val, path)  # before their order
    if problem := _interval_problem(lo, hi, top.get("duration", math.inf)):
        raise _Invalid(f"{path} {problem}")
    return (lo, hi)


# -- the schema: one declaration per YAML key -------------------------------

_POSE = {"xyz": _vector(3), "rpy": _vector(3)}
# xyz fills the offset's position, so it holds to that field's rule.
_POSE_RULES = {"xyz": field_rules(Pose)["position"]}

_JOINT = _block(
    lambda axis, **xyz_rpy: ArmJoint(axis, Pose.from_xyz_rpy(**xyz_rpy)),
    {"axis": _Key(_vector(3), absent=REQUIRED), **_POSE},
    _POSE_RULES,
)

_MODEL = {
    "arm": _list(_JOINT),
    "ee_offset": _block(Pose.from_xyz_rpy, _POSE, _POSE_RULES),
    "w_threshold": _number(),
    "k_max": _number(),
}

_WBC = {
    "q_def": _vector("joints"),
    "base_lin_limit": _number(),
    "base_ang_limit": _number(),
    "arm_limit": _number(),
    "k_gain": _vector(6),
    "w_task": _vector(6),
    "posture_gain": _number(),
}
# The limit scalars fill entries of qdot_limits, so they hold to its rule.
_WBC_RULES = field_rules(WbcParams) | dict.fromkeys(
    ("base_lin_limit", "base_ang_limit", "arm_limit"), field_rules(WbcParams)["qdot_limits"]
)

_ADMITTANCE = {"mass": _vector(3), "damping": _vector(3)}

_ACI = {f.name: _number() for f in fields(AciParams)}  # each field a number key

_NOISE = {  # standard deviation of each measured channel
    channel: _number() for channel in NOISE_CHANNELS
}

_HUMAN = {
    "mass": _Key(_number(), "hand_mass"),
    "stiffness": _Key(_number(), "hand_stiffness"),
    "damping": _Key(_number(), "hand_damping"),
    "velocity_deadband": _number(),
    "yaw_filter_cutoff": _number(),
    # Each channel's std fills an entry of `noise`, so it holds to its rule.
    "noise": _block(dict, _NOISE, dict.fromkeys(_NOISE, field_rules(HumanParams)["noise"])),
}

_OBJECT = {
    "preset": _Key(_string("object preset", presets()), "base"),
    "axial_stiffness_tension": _number(),
    "axial_stiffness_compression": _number(),
    "lateral_stiffness": _number(),
    "damping": _number(),
    "slack_length": _number(),
    "label": _string(),
}

# A segment's kind is the key that holds its main value.
_DURATION = _Key(_number(), "duration", REQUIRED)
_TIMED = {"duration": _DURATION}
_SEGMENTS = {
    "hold": (Hold, {"hold": _DURATION}),
    "translate": (Translate, {"translate": _Key(_vector(3), "offset"), **_TIMED}),
    "torso_yaw": (TorsoYaw, {"torso_yaw": _Key(_number(), "target"), **_TIMED}),
    "hand_yaw": (HandYaw, {"hand_yaw": _Key(_number(), "target"), **_TIMED}),
}

_WAYPOINT = {
    "offset": _Key(_vector(3), absent=REQUIRED),
    "tolerance": _number(),
}

# In reading order: `model` before the joint vectors, `duration` before
# `intervals`, the start pose before `script`.  An absent parameter block
# reads as an empty one, which builds its dataclass defaults.
_SCENARIO = {
    "name": _string(),
    "mode": _string("mode", {m.value: m for m in Mode}),
    "duration": _DURATION,
    "dt": _number(),
    "seed": _number(whole=True),
    "model": _Key(_block(_model, _MODEL, field_rules(KinematicModel)), absent={}),
    "q0": _vector("joints"),
    "wbc": _Key(_wbc, absent={}),
    "admittance": _Key(_block(AdmittanceParams, _ADMITTANCE), absent={}),
    "aci": _Key(_block(AciParams, _ACI), absent={}),
    "human": _Key(_block(HumanParams, _HUMAN), absent={}),
    "object": _Key(_object, "object_model", REQUIRED),
    "hand0": _Key(_vector(3), absent=REQUIRED),
    "torso0": _Key(_vector(3), absent=REQUIRED),
    "torso_yaw0": _number(),
    "hand_yaw0": _number(),
    "script": _Key(_script, absent=REQUIRED),
    "waypoints": _list(_block(Waypoint, _WAYPOINT)),
    "waypoint_speed": _number(),
    "intervals": _list(_interval),
    "trace_path": _string(),
    "metrics_path": _string(),
}
