"""Scenario parsing, validation aggregation, and overrides."""

import enum
import importlib.resources
import math
import operator
import re
import struct
from collections.abc import Mapping
from dataclasses import FrozenInstanceError, is_dataclass, replace

import numpy as np
import pytest
import yaml

from cocarry import scenario
from cocarry._rules import FINITE, field_rules
from cocarry.aci import AciParams, AdmittanceParams, Mode
from cocarry.geometry import Pose
from cocarry.human import HumanParams, MotionScript
from cocarry.kinematics import ArmJoint, KinematicModel, chain_state, default_model
from cocarry.objects import ObjectModel, presets
from cocarry.scenario import (
    ConfigError,
    ScenarioConfig,
    Waypoint,
    load_scenario,
    scenario_path,
    validate_config,
)
from cocarry.sim import Simulation
from cocarry.wbc import WbcError, WbcParams

GOOD = {
    "name": "t",
    "duration": 2.0,
    "mode": "aci",
    "object": "rigid_rod",
    "hand0": [1.5, 0.2, 0.95],
    "torso0": [1.9, 0.2, 0.95],
    "script": [{"hold": 0.5}, {"translate": [0.2, 0, 0], "duration": 1.0}],
    "waypoints": [{"offset": [0.2, 0, 0], "tolerance": 0.03}],
    "intervals": [[0.5, 1.5]],
}


def write(tmp_path, raw, name="scen.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def test_good_config_builds(tmp_path):
    cfg = load_scenario(write(tmp_path, GOOD))
    assert isinstance(cfg, ScenarioConfig)
    assert cfg.mode is Mode.ACI
    assert cfg.object_model.label == "rigid_rod"
    assert cfg.model.n_joints == 9
    assert cfg.script.duration == pytest.approx(1.5)
    assert len(cfg.waypoints) == 1
    assert cfg.waypoints[0].tolerance == 0.03
    assert cfg.intervals == ((0.5, 1.5),)
    assert cfg.dt == 1e-3 and cfg.seed == 0


def test_validation_passes_good_config():
    assert validate_config(dict(GOOD)) == []
    # a hand without stiffness or damping is valid, as HumanParams allows
    assert validate_config({**GOOD, "human": {"stiffness": 0, "damping": 0}}) == []


@pytest.mark.parametrize(
    "patch,needle",
    [
        ({"dt": 0}, "'dt' must be positive"),
        ({"dt": "fast"}, "'dt' must be a number"),
        ({"duration": None}, "missing required field 'duration'"),
        ({"mode": "autopilot"}, "unknown mode"),
        ({"object": None}, "missing required field 'object'"),
        ({"object": "granite_slab"}, "unknown object preset"),
        ({"object": 7}, "preset name or a mapping"),
        ({"object": {"preset": "rigid_rod", "damping": -2}}, "object.damping"),
        ({"script": []}, "'script' must be a non-empty list"),
        ({"script": [{"hold": -1.0}]}, "script[0].hold"),
        ({"script": [{"translate": [0, 0], "duration": 1}]}, "script[0].translate"),
        ({"script": [{"torso_yaw": 0.4}]}, "script[0].duration"),
        ({"script": [{"hold": 1, "translate": [0, 0, 0]}]}, "exactly one"),
        ({"waypoints": [{"tolerance": 0.02}]}, "waypoints[0]"),
        ({"waypoints": [{"offset": [0, 0, 0], "tolerance": 0}]}, "tolerance"),
        ({"intervals": [[1.0]]}, "intervals[0]"),
        ({"intervals": [[1.5, 0.5]]}, "0 <= start < end"),
        ({"intervals": [[0.5, 99.0]]}, "ends after the configured duration"),
        ({"human": {"mass": 0}}, "human.mass"),
        ({"admittance": {"mass": [1, 1]}}, "admittance.mass"),
        ({"admittance": {"damping": [1, 1, 0]}}, "admittance.damping"),
        ({"aci": {"window_length": 0}}, "aci.window_length"),
        ({"aci": {"lower_angle": 0.5, "upper_angle": 0.4}}, "0 < lower < upper"),
        ({"aci": "x"}, "'aci' must be a mapping"),
        ({"wbc": {"w_task": [0, 0, 0, 0, 0, 0]}}, "wbc.w_task"),
        ({"wbc": {"k_gain": [1.0, 1.0]}}, "wbc.k_gain"),
        ({"wbc": {"arm_limit": -1}}, "wbc.arm_limit"),
        ({"human": {"yaw_filter_cutoff": 0}}, "human.yaw_filter_cutoff"),
        ({"human": {"noise": {"hand_position": "loud"}}}, "human.noise.hand_position"),
        ({"waypoint_speed": -1}, "waypoint_speed"),
        ({"duraton": 2.0}, "unknown field 'duraton'"),
        ({"aci": {"window_lenght": 1.0}}, "unknown field 'aci.window_lenght'"),
        ({"aci": {"epsilon": 0}}, "aci.epsilon"),
        ({"aci": {"rotation_rate": 0}}, "aci.rotation_rate"),
        ({"aci": {"min_rotation_duration": 0}}, "aci.min_rotation_duration"),
        ({"aci": {"velocity_threshold": 0}}, "aci.velocity_threshold"),
        ({"aci": {"deadband": -1e-4}}, "aci.deadband"),
        ({"human": {"velocity_deadband": -0.01}}, "human.velocity_deadband"),
        ({"duration": math.inf}, "'duration' must be finite"),
        ({"dt": math.inf}, "'dt' must be finite"),
        ({"dt": 10**400}, "'dt' must be finite"),
        ({"hand0": [math.nan, 0, 1]}, "'hand0[0]' must be finite"),
        ({"intervals": [[0.2, math.nan]]}, "field 'intervals[0][1]' must be finite, got nan"),
        ({"intervals": [[math.inf, 0.5]]}, "field 'intervals[0][0]' must be finite, got inf"),
        # The arm is the default one: its joints and tool take no keys.
        (
            {"model": {"arm": [{"axis": [0, 0, 1], "xyz": [0, math.nan, 0]}] * 6}},
            "unknown field 'model.arm'",
        ),
        (
            {"model": {"arm": [{"axis": [0, 0, 1]}] * 6, "ee_offset": {"xyz": [math.inf, 0, 0]}}},
            "unknown field 'model.ee_offset'",
        ),
    ],
)
def test_validation_flags_each_problem(patch, needle, tmp_path):
    raw = dict(GOOD)
    raw.update(patch)
    raw = {k: v for k, v in raw.items() if v is not None}
    errors = validate_config(raw)
    assert any(needle in e for e in errors), errors
    # the same pass refuses the file at load time
    with pytest.raises(ConfigError, match=re.escape(needle)):
        load_scenario(write(tmp_path, raw))


def test_validation_aggregates_multiple_errors():
    raw = dict(GOOD)
    raw["dt"] = -1
    raw["mode"] = "nope"
    raw["object"] = "granite_slab"
    del raw["hand0"]
    errors = validate_config(raw)
    assert len(errors) >= 4


def test_missing_anchor_fields():
    raw = dict(GOOD)
    del raw["hand0"]
    del raw["torso0"]
    errors = validate_config(raw)
    assert any("hand0" in e for e in errors)
    assert any("torso0" in e for e in errors)


def test_load_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_scenario(str(tmp_path / "missing.yaml"))
    bad = tmp_path / "broken.yaml"
    bad.write_text("{::::")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_scenario(str(bad))
    scalar = tmp_path / "scalar.yaml"
    scalar.write_text("42\n")
    with pytest.raises(ConfigError, match="top level"):
        load_scenario(str(scalar))
    with pytest.raises(ConfigError, match="invalid scenario"):
        load_scenario(write(tmp_path, {**GOOD, "dt": -1}))


def test_overrides_patch_top_level(tmp_path):
    path = write(tmp_path, GOOD)
    cfg = load_scenario(path, overrides={"mode": "teleop", "dt": 2e-3, "seed": 9})
    assert cfg.mode is Mode.TELEOP
    assert cfg.dt == 2e-3 and cfg.seed == 9
    # None-valued overrides are ignored, not applied
    cfg = load_scenario(path, overrides={"mode": None})
    assert cfg.mode is Mode.ACI


def test_object_mapping_with_preset_base(tmp_path):
    raw = dict(GOOD)
    raw["object"] = {"preset": "peanut_bag", "damping": 35.0, "label": "heavier_bag"}
    cfg = load_scenario(write(tmp_path, raw))
    assert cfg.object_model.axial_stiffness_tension == 5e3  # inherited
    assert cfg.object_model.damping == 35.0
    assert cfg.object_model.label == "heavier_bag"


def test_object_mapping_from_scratch(tmp_path):
    raw = dict(GOOD)
    raw["object"] = {
        "axial_stiffness_tension": 800.0,
        "axial_stiffness_compression": 100.0,
        "lateral_stiffness": 50.0,
        "damping": 5.0,
    }
    cfg = load_scenario(write(tmp_path, raw))
    assert cfg.object_model.axial_stiffness_tension == 800.0
    assert cfg.object_model.slack_length == 0.0


def test_parameter_blocks_forwarded(tmp_path):
    raw = dict(GOOD)
    raw["human"] = {"mass": 3.0, "stiffness": 450.0, "velocity_deadband": 0.05}
    raw["admittance"] = {"mass": [5, 5, 5], "damping": [25, 25, 25]}
    raw["aci"] = {"window_length": 0.4, "upper_angle": 0.6}
    raw["wbc"] = {"arm_limit": 2.0, "posture_gain": 0.25, "k_gain": [2, 2, 2, 0.2, 0.2, 0.2]}
    cfg = load_scenario(write(tmp_path, raw))
    assert cfg.human.hand_mass == 3.0
    assert cfg.human.velocity_deadband == 0.05
    np.testing.assert_allclose(cfg.admittance.mass, [5, 5, 5])
    assert cfg.aci.window_length == 0.4
    assert cfg.aci.upper_angle == 0.6
    assert cfg.wbc.posture_gain == 0.25
    np.testing.assert_allclose(cfg.wbc.qdot_limits[3:], np.full(6, 2.0))
    np.testing.assert_allclose(cfg.wbc.k_gain, [2, 2, 2, 0.2, 0.2, 0.2])


def test_config_cannot_change_after_its_checks():
    # The checks run when a config is built.  A dt of zero set afterwards
    # used to reach the run as a bare ZeroDivisionError.
    cfg = load_scenario(scenario_path("smoke"))
    with pytest.raises(FrozenInstanceError):
        cfg.dt = 0.0
    assert replace(cfg, trace_path=None).dt == cfg.dt == 1e-3


PACKAGED = sorted(
    entry.name.removesuffix(".yaml")
    for entry in (importlib.resources.files("cocarry") / "scenarios").iterdir()
    if entry.name.endswith(".yaml")
)


@pytest.mark.parametrize("name", PACKAGED)
def test_two_loads_of_a_scenario_compare_equal(name):
    # `==` on a config with an array field used to raise "The truth value
    # of an array ... is ambiguous"; shaped fields compare by their bytes.
    cfg, again = load_scenario(scenario_path(name)), load_scenario(scenario_path(name))
    assert cfg == again and cfg is not again
    assert cfg.model == again.model and hash(cfg.model) == hash(again.model)
    assert cfg.script == again.script and hash(cfg.script) == hash(again.script)
    assert cfg != replace(again, dt=2e-3)
    assert cfg != replace(again, q0=again.q0 + 0.1)
    assert cfg != replace(again, wbc=replace(again.wbc, k_gain=2.0 * again.wbc.k_gain))
    assert cfg != replace(again, admittance=AdmittanceParams(mass=[6.0, 6.0, 7.0]))


def test_shaped_fields_compare_by_their_bytes():
    assert AdmittanceParams() == AdmittanceParams()
    assert hash(AdmittanceParams()) == hash(AdmittanceParams())
    assert ObjectModel() == ObjectModel() != ObjectModel(rest_vector=[0.0, 0.0, 1.0])
    assert Pose([0.0, 0.0, 0.0]) != Pose([-0.0, 0.0, 0.0])  # -0.0 has other bytes
    assert Pose([1.0, 2.0, 3.0]) != (1.0, 2.0, 3.0)
    assert len({Waypoint([0.1, 0, 0]), Waypoint([0.1, 0, 0]), Waypoint([0.2, 0, 0])}) == 2
    joint = ArmJoint(axis=[0.0, 1.0, 0.0], offset=[0.0, 0.176, 0.0])
    assert joint == default_model().arm[1] and joint != default_model().arm[2]


def test_per_tick_state_compares_by_identity():
    # `==` on a chain or a script target used to raise "The truth value of
    # an array ... is ambiguous"; per-tick state compares by identity.
    cfg = load_scenario(scenario_path("smoke"))
    chain, target = chain_state(cfg.model, cfg.q0), cfg.script.target(0.5)
    assert (chain == chain) is True and (target == target) is True
    assert (chain == chain_state(cfg.model, cfg.q0)) is False
    assert (target == cfg.script.target(0.5)) is False


def changeable_parts(value, path: str, seen: set) -> list:
    """What can change in place under `value`, by path: a dataclass that is
    not frozen, a writable array, or a list, dict or set.  A `struct.Struct`
    is a leaf: its format and size are read-only."""
    leaves = (str, int, float, enum.Enum, type(None), struct.Struct)
    if id(value) in seen or isinstance(value, leaves):
        return []
    seen.add(id(value))
    if isinstance(value, (list, dict, set)):
        return [f"{path} is a {type(value).__name__}"]
    if isinstance(value, np.ndarray):
        return [f"{path} is writable"] if value.flags.writeable else []
    found = []
    if is_dataclass(value) and not type(value).__dataclass_params__.frozen:
        found.append(f"{path} ({type(value).__name__}) is not frozen")
    if isinstance(value, tuple):
        parts = enumerate(value)
    elif isinstance(value, Mapping):
        parts = value.items()
    else:
        parts = vars(value).items()
    for key, part in parts:
        found += changeable_parts(part, f"{path}.{key}", seen)
    return found


@pytest.mark.parametrize("name", PACKAGED)
def test_configuration_cannot_change_in_place(name):
    # Every value a run is configured with is frozen and read-only, so the
    # checks made when it was built and the caches keyed on it stay true.
    cfg = load_scenario(scenario_path(name))
    roots = {
        "cfg": cfg,
        "object_model": Simulation(cfg).object_model,
        "presets()": presets(),
        "default_model()": default_model(),
    }
    seen = set()
    assert [p for path, v in roots.items() for p in changeable_parts(v, path, seen)] == []


@pytest.mark.parametrize(
    "change, raised",
    [
        (lambda: operator.setitem(load_scenario(scenario_path("smoke")).q0, 0, math.nan), ValueError),
        (lambda: operator.setitem(default_model().arm[2].offset, 1, 0.5), ValueError),
        (lambda: setattr(AciParams(), "window_length", -1.0), FrozenInstanceError),
        (lambda: operator.setitem(HumanParams().noise, "hand_position", -1.0), TypeError),
    ],
    ids=["scenario_q0", "joint_offset_position", "aci_window_length", "human_noise"],
)
def test_change_in_place_raises_at_the_assignment(change, raised):
    # Each of these used to pass: a NaN q0 failed later in the object's rest
    # pose, the moved offset left the chain at the old pose, and the
    # negative window and noise went unchecked.
    with pytest.raises(raised):
        change()


def test_q0_length_checked(tmp_path):
    raw = dict(GOOD)
    raw["q0"] = [0.0] * 4
    with pytest.raises(ConfigError, match="q0"):
        load_scenario(write(tmp_path, raw))


@pytest.mark.parametrize(
    "name, start",
    [
        ("hand0", {"hand0": [0.05, 0.0, 0.0]}),  # added to the scenario's
        ("torso_yaw0", {"torso_yaw0": 0.3}),
        ("hand_yaw0", {"hand_yaw0": 0.3}),
    ],
)
def test_script_must_start_at_the_scenario_start_pose(name, start):
    # The object's rest pose and the ACI's torso frame come from the
    # scenario, the human's start from its script.  A disagreement ran:
    # a hand 5 cm off put 500 N on the first tick.
    cfg = load_scenario(scenario_path("smoke"))
    start = {**start, "hand0": cfg.hand0 + start.get("hand0", 0.0)}
    moved = MotionScript(cfg.script.segments, **start)
    with pytest.raises(ValueError, match=f"script starts at {name} "):
        replace(cfg, script=moved)
    # A None hand_yaw0 is torso_yaw0, given or not.
    same = MotionScript(cfg.script.segments, cfg.hand0, hand_yaw0=cfg.torso_yaw0)
    assert replace(cfg, script=same).script is same


def _wbc_with(name, value):
    """The default WBC parameters with the first entry of `name` set to value."""
    base = WbcParams.defaults(default_model())
    if name != "posture_gain":
        value = np.r_[value, getattr(base, name)[1:]]
    return replace(base, **{name: value})


_HUMAN = ("hand_mass", "hand_stiffness", "hand_damping", "velocity_deadband",
          "yaw_filter_cutoff")  # fmt: skip
_OBJECT = ("axial_stiffness_tension", "axial_stiffness_compression",
           "lateral_stiffness", "damping", "slack_length", "ref_yaw")  # fmt: skip
_WBC_FIELDS = ("k_gain", "w_task", "w_damp", "w_posture", "q_def", "posture_gain",
               "qdot_limits")  # fmt: skip
NON_FINITE_BUILDS = {
    **{f"human.{n}": (lambda v, n=n: HumanParams(**{n: v})) for n in _HUMAN},
    "human.noise": lambda v: HumanParams(noise={"torso_yaw": v}),
    **{f"object.{n}": (lambda v, n=n: ObjectModel(**{n: v})) for n in _OBJECT},
    "object.rest_vector": lambda v: ObjectModel(rest_vector=[0.0, v, 0.0]),
    "model.w_threshold": lambda v: default_model(w_threshold=v),
    "model.k_max": lambda v: default_model(k_max=v),
    "joint.axis": lambda v: ArmJoint(axis=[0.0, 0.0, v]),
    **{f"wbc.{n}": (lambda v, n=n: _wbc_with(n, v)) for n in _WBC_FIELDS},
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("build", list(NON_FINITE_BUILDS))
def test_parameter_classes_reject_non_finite_values(build, value):
    # The scenario reader rejects these first; built from Python, the
    # classes must too.  A NaN passes every `x <= 0` check: a NaN yaw filter
    # cutoff left rotation_showcase with no rotation, and a NaN w_threshold
    # switched singularity damping off.
    match = "unit vector" if build == "joint.axis" else "finite"
    with pytest.raises((ValueError, WbcError), match=match):
        NON_FINITE_BUILDS[build](value)


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda cfg: replace(cfg, dt=0.0), "dt must be positive"),  # ZeroDivisionError
        (lambda cfg: replace(cfg, dt=-1e-3), "dt must be positive"),  # ran 0 ticks
        (lambda cfg: replace(cfg, dt=math.nan), "dt must be finite"),
        (lambda cfg: replace(cfg, duration=math.nan), "duration must be finite"),
        (lambda cfg: replace(cfg, seed=-1), "seed must be non-negative"),
        (lambda cfg: replace(cfg, q0=np.zeros(4)), "q0 must have 9 entries"),
        (lambda cfg: replace(cfg, intervals=[(0.5, 99.0)]), "intervals[0] ends after"),
        (lambda cfg: Waypoint([0.1, 0, 0], tolerance=-1.0), "tolerance must be positive"),
        (lambda cfg: Waypoint([math.nan, 0, 0]), "offset must be finite"),
    ],
    ids=["dt_zero", "dt_negative", "dt_nan", "duration_nan", "seed_negative", "q0_length",
         "interval_end", "waypoint_tolerance", "waypoint_offset"],  # fmt: skip
)
def test_python_built_config_obeys_the_reader_rules(build, name):
    # Built from Python these ran into a bare ZeroDivisionError, NaN metrics
    # from zero ticks, numpy's "expected non-negative integer", or nothing.
    cfg = load_scenario(scenario_path("smoke"))
    with pytest.raises(ValueError, match=re.escape(name)):
        build(cfg)


# A script with a segment of each kind, and each kind's segment alone.
SEGMENTS = {
    "hold": {"hold": 0.5},
    "translate": {"translate": [0.2, 0, 0], "duration": 1.0},
    "torso_yaw": {"torso_yaw": 0.1, "duration": 1.0},
    "hand_yaw": {"hand_yaw": 0.1, "duration": 1.0},
}
# The reader's parameter blocks: a label, the key declarations, the
# dataclass whose fields they fill, and how a key's value patches GOOD.
BLOCKS = [
    ("", scenario._SCENARIO, ScenarioConfig, lambda k, v: {k: v}),
    ("model", scenario._MODEL, KinematicModel, lambda k, v: {"model": {k: v}}),
    ("wbc", scenario._WBC, WbcParams, lambda k, v: {"wbc": {k: v}}),
    ("admittance", scenario._ADMITTANCE, AdmittanceParams, lambda k, v: {"admittance": {k: v}}),
    ("aci", scenario._ACI, AciParams, lambda k, v: {"aci": {k: v}}),
    ("human", scenario._HUMAN, HumanParams, lambda k, v: {"human": {k: v}}),
    ("human.noise", scenario._NOISE, HumanParams, lambda k, v: {"human": {"noise": {k: v}}}),
    ("object", scenario._OBJECT, ObjectModel, lambda k, v: {"object": {"preset": "rigid_rod", k: v}}),
    ("waypoints[0]", scenario._WAYPOINT, Waypoint, lambda k, v: {"waypoints": [{"offset": [0.2, 0, 0], k: v}]}),
    *[
        (f"script[0]:{kind}", keys, make, lambda k, v, kind=kind: {"script": [{**SEGMENTS[kind], k: v}]})
        for kind, (make, keys) in scenario._SEGMENTS.items()
    ],
]  # fmt: skip
# The WBC limit scalars fill entries of qdot_limits, not a field of their own.
LIMITS = ("base_lin_limit", "base_ang_limit", "arm_limit")


def numeric_keys():
    """Every number or vector key the blocks declare: (label, key, whether it
    is a vector, holder, the argument it fills, patch)."""
    for label, keys, holder, patch in BLOCKS:
        for key, decl in keys.items():
            read, to = (decl.read, decl.to) if isinstance(decl, scenario._Key) else (decl, None)
            kind = read.__qualname__.split(".")[0]
            if kind in ("_number", "_vector"):
                args = (label, key, kind == "_vector", holder, to or key, patch)
                yield pytest.param(*args, id=scenario._sub(label, key))


# A value that breaks each rule; an integer where one will do (seed is one).
BAD = {FINITE: math.inf, "positive": 0, "non-negative": -1}


@pytest.mark.parametrize("label, key, vector, holder, arg, patch", list(numeric_keys()))
def test_one_rule_two_paths(label, key, vector, holder, arg, patch):
    # Each number the reader declares holds to the rule of the field it
    # fills, stated once on that field: YAML and Python refuse alike.
    field = "noise" if label == "human.noise" else "qdot_limits" if arg in LIMITS else arg
    rules = field_rules(holder)
    assert field in rules, f"{holder.__name__}.{field} states no rule"
    rule = rules[field]
    raw = yaml.safe_load(yaml.safe_dump({**GOOD, "script": list(SEGMENTS.values())}))
    cfg = scenario._read(raw)[0]
    kind = label.partition(":")[2]
    instance = {
        ScenarioConfig: cfg,
        KinematicModel: cfg.model,
        WbcParams: cfg.wbc,
        AdmittanceParams: cfg.admittance,
        AciParams: cfg.aci,
        HumanParams: cfg.human,
        ObjectModel: cfg.object_model,
        Waypoint: cfg.waypoints[0],
    }.get(holder) or cfg.script.segments[list(SEGMENTS).index(kind)]
    value = [BAD[rule]] * len(getattr(instance, arg)) if vector else BAD[rule]

    # From YAML: named by the key's path, its first entry for a vector.
    path = scenario._sub(label.partition(":")[0], key)
    where = f"{path}[0]" if vector else path
    errors = validate_config({**raw, **patch(key, value)})
    assert f"field '{where}' must be {rule}" in "\n".join(errors), errors

    # From Python: named by the field.
    def build():
        if field == "noise":
            return replace(instance, noise={key: value})
        if arg in LIMITS:
            return WbcParams.defaults(cfg.model, **{arg: value})
        changed = replace(instance, **{arg: np.array(value) if vector else value})
        # A segment's rules apply when a script takes it.
        return MotionScript([changed], cfg.hand0) if kind else changed

    with pytest.raises((ValueError, WbcError), match=f"{field} must be {rule}"):
        build()


def test_packaged_scenarios_load():
    for name in (
        "rigid_rod",
        "slack_rope",
        "peanut_bag",
        "rotation_showcase",
        "hand_rotation_null",
        "smoke",
    ):
        cfg = load_scenario(scenario_path(name))
        assert cfg.duration > 0
        assert cfg.script.duration <= cfg.duration + 1e-9
        for lo, hi in cfg.intervals:
            assert 0 <= lo < hi <= cfg.duration
