"""Adaptive interface: admittance, blending index, intention detection,
rotation trajectories, and the reference pose.

The index oracle keeps the window in a deque and re-integrates all of it
on every sample; the detector oracle re-derives every sample's verdict
from scratch by scanning the whole history.  The admittance step, the index
and the blend also have bit-exact oracles: their list/zip forms, which the
per-component forms must match bit for bit.
"""

import gc
import math
import re
import struct
import tracemalloc
from collections import deque
from itertools import accumulate

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from cocarry.aci import (
    AciController,
    AciParams,
    AdaptiveIndex,
    AdmittanceParams,
    CubicTrajectory,
    IntentionDetector,
    Mode,
    admittance_step,
    desired_rotation_pose,
    object_translation,
)
from cocarry.geometry import (
    Pose,
    integrate_pose,
    quat_from_yaw,
    quat_multiply,
    quat_normalize,
    quat_rotate,
    yaw_from_quat,
)
from cocarry.human import HumanState


# -- admittance -----------------------------------------------------------


def test_admittance_zero_input():
    p = AdmittanceParams()
    np.testing.assert_allclose(
        admittance_step(np.zeros(3), np.zeros(3), p.decay(1e-3), p), np.zeros(3)
    )


def test_admittance_single_step_value():
    p = AdmittanceParams()
    v = admittance_step(np.array([6.0, 0, 0]), np.zeros(3), p.decay(0.01), p)
    assert v[0] == pytest.approx((1 - np.exp(-0.05)) * 0.2, abs=1e-9)
    assert v[0] == pytest.approx(0.009754, abs=5e-7)


def test_admittance_step_response_matches_analytic():
    # constant 30 N along x: v(t) = 1 - exp(-t / 0.2), checked at every sample
    p = AdmittanceParams()
    dt = 1e-3
    decay = p.decay(dt)
    f = np.array([30.0, 0.0, 0.0])
    v = np.zeros(3)
    worst = 0.0
    for i in range(2000):
        v = admittance_step(f, v, decay, p)
        t = (i + 1) * dt
        analytic = 1.0 - np.exp(-t / 0.2)
        worst = max(worst, abs(v[0] - analytic))
    assert worst < 1e-12  # exact discretization
    assert abs(v[0] - (1 - np.exp(-10.0))) < 1e-9
    # value at one time constant
    v = np.zeros(3)
    for _ in range(200):
        v = admittance_step(f, v, decay, p)
    assert v[0] == pytest.approx(1 - np.exp(-1.0), abs=1e-6)


def test_admittance_anisotropic_axes():
    p = AdmittanceParams(mass=[6.0, 3.0, 1.0], damping=[30.0, 30.0, 10.0])
    f = np.array([30.0, 30.0, 10.0])
    v = np.zeros(3)
    decay = p.decay(1e-3)
    for _ in range(5000):
        v = admittance_step(f, v, decay, p)
    np.testing.assert_allclose(v, [1.0, 1.0, 1.0], atol=1e-3)


def test_admittance_rejects_bad_inputs():
    p = AdmittanceParams()
    with pytest.raises(ValueError):
        admittance_step(np.array([np.nan, 0, 0]), np.zeros(3), p.decay(1e-3), p)
    with pytest.raises(ValueError):
        admittance_step(np.zeros(2), np.zeros(3), p.decay(1e-3), p)
    with pytest.raises(ValueError):
        admittance_step(np.zeros(3), np.zeros(4), p.decay(1e-3), p)
    with pytest.raises(ValueError):
        AdmittanceParams(mass=[0.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        AdmittanceParams(damping=[1.0, -1.0, 1.0])


# -- adaptive index -------------------------------------------------------


class DequeIndexOracle:
    """Straight-line reimplementation used to cross-check AdaptiveIndex."""

    def __init__(self, params, alpha0=0.0):
        self.params = params
        self.alpha = alpha0
        self.buf = deque()

    def update(self, t, v_adm, v_h):
        self.buf.append((t, np.array(v_adm, dtype=float), np.array(v_h, dtype=float)))
        while self.buf[0][0] < t - self.params.window_length - 1e-12:
            self.buf.popleft()
        d_adm = self._disp(1)
        d_h = self._disp(2)
        if d_adm < self.params.deadband and d_h < self.params.deadband:
            return self.alpha
        raw = 1.0 - d_adm / (d_h + self.params.epsilon)
        self.alpha = min(1.0, max(0.0, raw))
        return self.alpha

    def _disp(self, idx):
        if len(self.buf) < 2:
            return 0.0
        t = np.array([sample[0] for sample in self.buf])
        v = np.array([sample[idx] for sample in self.buf])
        total = (0.5 * np.diff(t)[:, None] * (v[:-1] + v[1:])).sum(axis=0)
        return float(np.linalg.norm(total))


def drive_pair(params, dts, rng, alpha0=0.0):
    ours = AdaptiveIndex(params, alpha0=alpha0)
    oracle = DequeIndexOracle(params, alpha0=alpha0)
    t = 0.0
    for dt in dts:
        t += dt
        v_adm = rng.normal(scale=0.3, size=3)
        v_h = rng.normal(scale=0.3, size=3)
        a = ours.update(t, v_adm, v_h)
        b = oracle.update(t, v_adm, v_h)
        assert a == pytest.approx(b, abs=1e-12)
        assert 0.0 <= a <= 1.0


def test_index_matches_deque_oracle_short_window():
    # ~250 live samples: the window drops samples and re-sums many times
    rng = np.random.default_rng(51)
    drive_pair(AciParams(), rng.uniform(0.0008, 0.0012, size=4000), rng)


def test_index_matches_deque_oracle_long_window():
    # >512 live samples: 626 at this spacing, a long run between re-sums
    rng = np.random.default_rng(52)
    drive_pair(AciParams(), np.full(3000, 0.0004), rng)


def test_index_matches_deque_oracle_jittered_timing():
    rng = np.random.default_rng(53)
    drive_pair(AciParams(), rng.uniform(0.0002, 0.004, size=3000), rng)


def test_index_matches_deque_oracle_after_transient():
    # A 1e4-scale velocity burst, then a long 1e-3-scale stretch above the
    # deadband: rounding that the burst leaves in the window sums must not
    # outlive the burst's stay in the window.
    rng = np.random.default_rng(54)
    params = AciParams()
    ours = AdaptiveIndex(params)
    oracle = DequeIndexOracle(params)
    drift_adm = np.array([5e-4, 2e-4, 0.0])
    drift_h = np.array([1e-3, 0.0, 3e-4])
    alphas = []
    for i in range(2000):
        t = (i + 1) * 1e-3
        if 300 <= i < 320:
            v_adm, v_h = rng.normal(scale=1e4, size=(2, 3))
        else:
            v_adm = drift_adm * (1.0 + 0.3 * rng.normal(size=3))
            v_h = drift_h * (1.0 + 0.3 * rng.normal(size=3))
        a = ours.update(t, v_adm, v_h)
        assert a == pytest.approx(oracle.update(t, v_adm, v_h), abs=1e-12)
        alphas.append(a)
    # the stretch is above the deadband: alpha is computed, not held
    tail = alphas[-1000:]
    assert 0.0 < min(tail) and max(tail) < 1.0 and len(set(tail)) > 900


@pytest.mark.parametrize("window", [0.25, 1.0])
def test_index_memory_stays_bounded(window):
    # Once the window has filled, the index holds one window of samples: 5000
    # more updates retain no more than a constant, where a term kept per
    # update would retain about 250 B each.
    velocities = np.random.default_rng(55).normal(size=(7000, 2, 3)).tolist()
    gc.collect()
    tracemalloc.start()
    try:
        idx = AdaptiveIndex(AciParams(window_length=window))
        for i, (v_adm, v_h) in enumerate(velocities, start=1):
            idx.update(i * 1e-3, v_adm, v_h)
            if i == 2000:  # past the fill-up of either window
                gc.collect()
                filled = tracemalloc.get_traced_memory()[0]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - filled
    finally:
        tracemalloc.stop()
    assert retained < 16 * 1024


def test_index_limit_values():
    p = AciParams()
    idx = AdaptiveIndex(p)
    t = 0.0
    # hand moves, admittance still: fully deformable reading
    for _ in range(400):
        t += 1e-3
        a = idx.update(t, np.zeros(3), np.array([0.4, 0, 0]))
    assert a > 0.99
    # both move identically: rigid reading
    idx = AdaptiveIndex(p)
    t = 0.0
    for _ in range(400):
        t += 1e-3
        a = idx.update(t, np.array([0.4, 0, 0]), np.array([0.4, 0, 0]))
    assert a < 0.01
    # admittance moves twice as far: saturates at zero
    idx = AdaptiveIndex(p)
    t = 0.0
    for _ in range(400):
        t += 1e-3
        a = idx.update(t, np.array([0.6, 0, 0]), np.array([0.3, 0, 0]))
    assert a == 0.0


def test_index_ratio_value():
    # constant speeds chosen so the window displacements are 0.3 and 0.6
    p = AciParams(window_length=1.0)
    idx = AdaptiveIndex(p)
    t = 0.0
    for _ in range(3000):
        t += 1e-3
        a = idx.update(t, np.array([0.3, 0, 0]), np.array([0.6, 0, 0]))
    assert a == pytest.approx(1.0 - 0.3 / 0.6001, abs=1e-4)


def test_index_deadband_holds_previous_value():
    p = AciParams()
    idx = AdaptiveIndex(p, alpha0=0.7)
    t = 0.0
    for _ in range(600):
        t += 1e-3
        a = idx.update(t, np.zeros(3), np.zeros(3))
        assert a == 0.7
    # motion overrides the hold...
    for _ in range(400):
        t += 1e-3
        a = idx.update(t, np.zeros(3), np.array([0.3, 0, 0]))
    assert a > 0.99
    # ...and stopping again freezes the last computed value
    for _ in range(2000):
        t += 1e-3
        a = idx.update(t, np.zeros(3), np.zeros(3))
    assert a > 0.99


def test_index_is_window_local():
    # identical trailing windows give identical alpha regardless of prehistory
    p = AciParams()
    rng = np.random.default_rng(54)
    tail = [(rng.normal(size=3), rng.normal(size=3)) for _ in range(300)]

    def run(prefix_len, seed):
        r = np.random.default_rng(seed)
        idx = AdaptiveIndex(p)
        t = 0.0
        for _ in range(prefix_len):
            t += 1e-3
            idx.update(t, r.normal(size=3), r.normal(size=3))
        a = None
        for v_adm, v_h in tail:
            t += 1e-3
            a = idx.update(t, v_adm, v_h)
        return a

    assert run(0, 1) == pytest.approx(run(500, 2), abs=1e-12)
    assert run(100, 3) == pytest.approx(run(2000, 4), abs=1e-12)


def test_object_translation_blend():
    v_adm = np.array([0.1, 0.0, 0.0])
    v_h = np.array([0.2, 0.0, 0.0])
    np.testing.assert_allclose(object_translation(v_adm, v_h, 0.0), v_adm)
    np.testing.assert_allclose(object_translation(np.zeros(3), v_h, 1.0), v_h)
    np.testing.assert_allclose(object_translation(v_adm, v_h, 0.5), [0.2, 0, 0])


# -- bit-exact oracles: the list/zip forms ----------------------------------


def bits(values) -> bytes:
    return struct.pack(f"{len(values)}d", *values)


def admittance_step_zip(force, v_prev, decay, params):
    """`admittance_step` in its list/zip form."""
    if len(force) != 3 or len(v_prev) != 3:
        raise ValueError("admittance force and velocity must have 3 components")
    if not all(map(math.isfinite, force)):
        raise ValueError("non-finite force input to admittance (sensor fault?)")
    return tuple([
        e * v + (1.0 - e) * f / d
        for e, v, f, d in zip(decay, v_prev, force, params._damping)
    ])


def object_translation_zip(v_adm, v_h, alpha):
    """`object_translation` in its list/zip form."""
    return tuple([a + alpha * h for a, h in zip(v_adm, v_h)])


def add6_zip(s, x):
    return [a + b for a, b in zip(s, x)]


class ListIndexOracle:
    """`AdaptiveIndex.update` in its list form: the newest sample, each term
    and the running sum are fresh lists, and every sum goes through
    `add6_zip`.  It counts its re-sums."""

    def __init__(self, params, alpha0=0.0):
        self.params = params
        self.alpha = float(alpha0)
        self._times = deque()
        self._suffix = deque()
        self._newer = []
        self._back = [0.0] * 6
        self._last = None
        self.resums = 0
        self.holds = 0

    def update(self, t, v_adm, v_h):
        t = float(t)
        v = [*v_adm, *v_h]
        times = self._times
        if times:
            half_dt = 0.5 * (t - times[-1])
            term = [half_dt * (a + b) for a, b in zip(v, self._last)]
            self._newer.append(term)
            self._back = add6_zip(self._back, term)
        self._last = v
        times.append(t)
        cutoff = t - self.params.window_length - 1e-12
        suffix = self._suffix
        left = 0
        while times[0] < cutoff:
            times.popleft()
            if suffix:
                suffix.popleft()
            else:
                left += 1
        if left:
            self.resums += 1
            suffix.extend(accumulate(reversed(self._newer[left:]), add6_zip))
            suffix.reverse()
            self._newer = []
            self._back = [0.0] * 6
        disp = self._back
        if suffix:
            disp = add6_zip(suffix[0], disp)
        d_adm = math.hypot(*disp[:3])
        d_h = math.hypot(*disp[3:])
        if d_adm < self.params.deadband and d_h < self.params.deadband:
            self.holds += 1
            return self.alpha
        raw = 1.0 - d_adm / (d_h + self.params.epsilon)
        self.alpha = min(1.0, max(0.0, raw))
        return self.alpha


def signed_stream(rng, n, scale):
    """n float triples in runs: zeros of either sign, values inside the
    deadband, and values of `scale`."""
    out = []
    while len(out) < n:
        kind = rng.integers(3)
        for _ in range(int(rng.integers(20, 400))):
            if kind == 0:
                v = np.copysign(0.0, rng.normal(size=3))
            elif kind == 1:
                v = rng.normal(scale=1e-7, size=3)
            else:
                v = rng.normal(scale=scale, size=3)
            out.append(tuple(v.tolist()))
    return out[:n]


def test_admittance_step_keeps_the_bits_of_the_zip_form():
    rng = np.random.default_rng(61)
    params = AdmittanceParams([6.0, 3.0, 1.5], [30.0, 12.0, 9.0])
    for dt in (1e-3, 2.5e-3):
        decay = params.decay(dt)
        ours = oracle = (0.0, -0.0, 0.0)
        for force in signed_stream(rng, 3000, 20.0):
            ours = admittance_step(force, ours, decay, params)
            oracle = admittance_step_zip(force, oracle, decay, params)
            assert bits(ours) == bits(oracle)


def test_admittance_step_keeps_signed_zeros():
    params = AdmittanceParams()
    decay = params.decay(1e-3)
    for v_prev in ((-0.0, 0.0, -0.0), (0.0, -0.0, 0.0)):
        for force in ((-0.0, -0.0, 0.0), (0.0, 0.0, -0.0)):
            ours = admittance_step(force, v_prev, decay, params)
            assert bits(ours) == bits(admittance_step_zip(force, v_prev, decay, params))


def test_admittance_step_refuses_what_the_zip_form_refuses():
    params = AdmittanceParams()
    decay = params.decay(1e-3)
    for force, v_prev in [
        ((math.nan, 0.0, 0.0), (0.0, 0.0, 0.0)),
        ((0.0, 0.0, math.inf), (0.0, 0.0, 0.0)),
        ((0.0, 0.0), (0.0, 0.0, 0.0)),
        ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)),
    ]:
        with pytest.raises(ValueError) as want:
            admittance_step_zip(force, v_prev, decay, params)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            admittance_step(force, v_prev, decay, params)


@pytest.mark.parametrize("window", [0.25, 1.0])
def test_index_keeps_the_bits_of_the_list_form(window):
    rng = np.random.default_rng(62 if window == 0.25 else 63)
    params = AciParams(window_length=window)
    ours = AdaptiveIndex(params, alpha0=0.4)
    oracle = ListIndexOracle(params, alpha0=0.4)
    n = 5000
    v_adm = signed_stream(rng, n, 0.2)
    v_h = signed_stream(rng, n, 0.3)
    alphas = set()
    for i, (a, h) in enumerate(zip(v_adm, v_h), start=1):
        t = i * 1e-3 + (0.0 if i % 7 else 2e-4)  # an uneven step now and then
        alpha = ours.update(t, a, h)
        alphas.add(alpha)
        assert bits([alpha]) == bits([oracle.update(t, a, h)])
        assert bits(ours._back) == bits(oracle._back)
        assert len(ours._suffix) == len(oracle._suffix)
        if ours._suffix:
            assert bits(ours._suffix[0]) == bits(oracle._suffix[0])
    assert oracle.resums >= 4  # the window was re-summed several times
    assert oracle.holds > 50  # the deadband held alpha on many ticks
    assert len(alphas) > 1000  # and alpha was computed on many others


def test_object_translation_keeps_the_bits_of_the_zip_form():
    rng = np.random.default_rng(64)
    v_adm = signed_stream(rng, 2000, 0.2)
    v_h = signed_stream(rng, 2000, 0.3)
    alphas = [0.0, -0.0, 1.0, *rng.uniform(size=40).tolist()]
    for i, (a, h) in enumerate(zip(v_adm, v_h)):
        alpha = alphas[i % len(alphas)]
        assert bits(object_translation(a, h, alpha)) == bits(object_translation_zip(a, h, alpha))


# -- intention detection --------------------------------------------------


def make_yaw_trace(rng, n=400):
    """Random piecewise yaw walk with rest phases for both channels."""
    torso = np.zeros(n)
    hand = np.zeros(n)
    rate = np.zeros(n)
    th = tt = 0.0
    for i in range(n):
        r = rng.random()
        if r < 0.4:
            tt += rng.normal(scale=0.02)
        if r > 0.55:
            th += rng.normal(scale=0.02)
        torso[i] = tt
        hand[i] = th
        rate[i] = rng.normal(scale=0.08)
    return hand, torso, rate


def detector_oracle(params, hand, torso, rate):
    """Per-sample re-derivation: for each i, find the start of the current
    above-lower-threshold streak by scanning backward, then evaluate the
    three firing conditions directly."""
    n = len(hand)
    out = np.zeros(n, dtype=bool)
    for i in range(n):
        if abs(hand[i] - torso[i]) <= params.lower_angle:
            continue
        s = i
        while s > 0 and abs(hand[s - 1] - torso[s - 1]) > params.lower_angle:
            s -= 1
        delta_h = abs(hand[i] - hand[s])
        delta_t = abs(torso[i] - torso[s])
        out[i] = (
            abs(hand[i] - torso[i]) > params.upper_angle
            and delta_t > delta_h
            and abs(rate[i]) < params.velocity_threshold
        )
    return out


def run_detector(params, hand, torso, rate, latch):
    det = IntentionDetector(params, latch=latch)
    torso_position = (0.0, 0.0, 0.0)
    fired = []
    for th, tt, td in zip(hand, torso, rate):
        f, _ = det.step(th - tt, th, tt, td, torso_position)
        fired.append(f)
    return np.array(fired)


def test_detector_matches_per_sample_oracle():
    params = AciParams()
    rng = np.random.default_rng(55)
    for _ in range(100):
        hand, torso, rate = make_yaw_trace(rng)
        got = run_detector(params, hand, torso, rate, latch=False)
        want = detector_oracle(params, hand, torso, rate)
        assert np.array_equal(got, want)


def test_detector_quiet_below_threshold():
    params = AciParams()
    rng = np.random.default_rng(56)
    n = 300
    torso = rng.uniform(-0.08, 0.08, size=n)
    hand = torso + rng.uniform(-0.15, 0.15, size=n)  # |relative| < lower
    rate = rng.normal(scale=0.2, size=n)
    assert not run_detector(params, hand, torso, rate, latch=True).any()


def scripted_torso_turn(n_settle=50):
    """Hand fixed in world; torso turns -0.5 rad then comes to rest."""
    ramp = np.linspace(0.0, -0.5, 100)
    torso = np.concatenate([np.zeros(20), ramp, np.full(n_settle, -0.5)])
    hand = np.zeros_like(torso)
    rate = np.gradient(torso, 0.01)
    return hand, torso, rate


def test_detector_fires_on_torso_led_turn():
    params = AciParams()
    hand, torso, rate = scripted_torso_turn()
    fired = run_detector(params, hand, torso, rate, latch=True)
    assert fired.sum() == 1
    i = int(np.argmax(fired))
    # at the firing sample every guard held
    assert abs(hand[i] - torso[i]) > params.upper_angle
    assert abs(rate[i]) < params.velocity_threshold
    # and it is the first such sample
    oracle = detector_oracle(params, hand, torso, rate)
    assert i == int(np.argmax(oracle))


def test_detector_ignores_hand_led_turn():
    params = AciParams()
    torso = np.zeros(170)
    hand = np.concatenate([np.zeros(20), np.linspace(0, 0.5, 100), np.full(50, 0.5)])
    rate = np.zeros_like(torso)  # torso at rest the whole time
    assert not run_detector(params, hand, torso, rate, latch=True).any()


def test_detector_latch_and_rearm():
    params = AciParams()
    det = IntentionDetector(params)
    torso_position = (0.0, 0.0, 0.0)

    def feed(th, tt, td):
        return det.step(th - tt, th, tt, td, torso_position)[0]

    # torso-led entry, settle, fire
    for tt in np.linspace(0, -0.5, 50):
        feed(0.0, tt, -0.3)
    assert feed(0.0, -0.5, 0.0)
    # latched: identical conditions no longer fire
    for _ in range(50):
        assert not feed(0.0, -0.5, 0.0)
    # finishing the rotation alone is not enough while the angle stays high
    det.rotation_finished()
    assert not feed(0.0, -0.5, 0.0)
    # dropping below the lower threshold re-arms
    assert not feed(0.0, -0.1, 0.0)
    for tt in np.linspace(-0.1, -0.7, 50):
        feed(0.0, tt, -0.3)
    assert feed(0.0, -0.7, 0.0)


def test_detector_bounds_latch_at_regime_entry():
    # hand drifts before the regime starts; only in-regime deltas count
    params = AciParams()
    det = IntentionDetector(params, latch=False)
    torso_position = (0.0, 0.0, 0.0)
    for th in np.linspace(0.0, 0.15, 30):  # below lower threshold
        det.step(th, th, 0.0, 0.0, torso_position)
    # now torso turns away, hand stays: delta_t accumulates from entry
    fired = False
    for tt in np.linspace(0.0, -0.5, 60):
        fired, _ = det.step(0.15 - tt, 0.15, tt, 0.0, torso_position)
    assert fired


# -- rotation goal and trajectory -----------------------------------------


def test_desired_rotation_pose_identity():
    rel = Pose([0.4, -0.1, 0.0], quat_from_yaw(0.3))
    out = desired_rotation_pose(Pose(), rel)
    np.testing.assert_allclose(out.position, rel.position, atol=1e-15)
    np.testing.assert_allclose(out.orientation, rel.orientation, atol=1e-15)


def test_desired_rotation_pose_matches_matrix_oracle():
    rng = np.random.default_rng(57)
    for _ in range(200):
        torso = Pose(rng.normal(size=3), quat_normalize(rng.normal(size=4)))
        rel = Pose(rng.normal(size=3), quat_normalize(rng.normal(size=4)))

        def hom(p):
            T = np.eye(4)
            T[:3, :3] = Rotation.from_quat(p.orientation, scalar_first=True).as_matrix()
            T[:3, 3] = p.position
            return T

        out = desired_rotation_pose(torso, rel)
        np.testing.assert_allclose(hom(out), hom(torso) @ hom(rel), atol=1e-12)


def test_desired_rotation_pose_yawed_torso():
    # a torso yawed by phi swings the goal about the torso origin by phi
    phi = 0.8
    torso_pos = np.array([2.0, 1.0, 0.9])
    rel = Pose([-0.5, 0.2, 0.1], quat_from_yaw(0.0))
    out = desired_rotation_pose(Pose(torso_pos, quat_from_yaw(phi)), rel)
    np.testing.assert_allclose(
        out.position, torso_pos + quat_rotate(quat_from_yaw(phi), rel.position),
        atol=1e-12,
    )
    assert out.yaw() == pytest.approx(phi)


def test_cubic_trajectory_boundaries(cubic_pose):
    rng = np.random.default_rng(58)
    for _ in range(50):
        start = Pose(rng.normal(size=3), quat_normalize(rng.normal(size=4)))
        goal = Pose(rng.normal(size=3), quat_normalize(rng.normal(size=4)))
        t0 = rng.uniform(0, 5)
        T = rng.uniform(0.5, 4.0)
        traj = CubicTrajectory(start, goal, t0, T)
        p0, v0 = cubic_pose(start, traj, t0), traj.twist(t0)
        p1, v1 = cubic_pose(start, traj, t0 + T), traj.twist(t0 + T)
        np.testing.assert_allclose(p0.position, start.position, atol=1e-12)
        np.testing.assert_allclose(p1.position, goal.position, atol=1e-12)
        assert abs(np.dot(p0.orientation, start.orientation)) > 1 - 1e-12
        assert abs(np.dot(p1.orientation, goal.orientation)) > 1 - 1e-12
        np.testing.assert_allclose(v0, np.zeros(6), atol=1e-12)
        np.testing.assert_allclose(v1, np.zeros(6), atol=1e-12)


def test_cubic_trajectory_midpoint_and_peak_speed(cubic_pose):
    start = Pose([0.0, 0.0, 0.0])
    goal = Pose([0.6, 0.0, 0.0], quat_from_yaw(0.4))
    traj = CubicTrajectory(start, goal, 1.0, 2.0)
    mid, vmid = cubic_pose(start, traj, 2.0), traj.twist(2.0)
    np.testing.assert_allclose(mid.position, [0.3, 0, 0], atol=1e-12)
    assert np.linalg.norm(vmid[:3]) == pytest.approx(1.5 * 0.6 / 2.0)
    assert vmid[5] == pytest.approx(1.5 * 0.4 / 2.0)
    # midpoint is the speed maximum
    speeds = [
        np.linalg.norm(traj.twist(t)[:3]) for t in np.linspace(1.0, 3.0, 101)
    ]
    assert np.argmax(speeds) == 50
    assert traj.done(3.0) and not traj.done(2.999)
    with pytest.raises(ValueError):
        CubicTrajectory(start, goal, 0.0, 0.0)


def test_cubic_trajectory_clamps_outside_span(cubic_pose):
    start = Pose()
    traj = CubicTrajectory(start, Pose([1, 0, 0]), 0.0, 1.0)
    before, vb = cubic_pose(start, traj, -0.5), traj.twist(-0.5)
    after, va = cubic_pose(start, traj, 1.5), traj.twist(1.5)
    np.testing.assert_allclose(before.position, [0, 0, 0])
    np.testing.assert_allclose(after.position, [1, 0, 0])
    np.testing.assert_allclose(vb, np.zeros(6))
    np.testing.assert_allclose(va, np.zeros(6))


# -- reference pose -------------------------------------------------------


def test_reference_integrates_constant_velocity():
    # In teleop the reference twist is the hand velocity, and x_d (7 floats)
    # is its running integral from the initial EE pose.
    ctrl = make_controller(Mode.TELEOP)
    assert ctrl.x_d == [0.5, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0]
    dt = 1e-3
    t = 0.0
    for _ in range(2000):
        t += dt
        out = ctrl.step(t, np.zeros(3), human_sample(v=(0.1, 0.0, 0.0)))
    assert out.x_d is ctrl.x_d
    np.testing.assert_allclose(ctrl.x_d[:3], [0.7, 0, 1.0], atol=1e-12)
    assert ctrl.x_d[3:] == [1.0, 0.0, 0.0, 0.0]


def test_reference_rotation_branch_overrides_translation():
    # While a rotation runs, the controller hands the reference the
    # trajectory twist, not the translational command.
    dt = 1e-3
    ctrl = make_controller(Mode.ACI)
    t = 0.0
    for tt in np.linspace(0.0, -0.5, 400):
        t += dt
        ctrl.step(t, np.zeros(3), human_sample(torso_yaw=tt, rate=-1.25))
    rotating = 0
    for _ in range(300):
        t += dt
        sample = human_sample(torso_yaw=-0.5, v=(0.3, 0.2, 0.1))
        out = ctrl.step(t, (9.0, 9.0, 9.0), sample)
        if out.zeta:
            rotating += 1
            assert out.xdot_d == ctrl.trajectory.twist(t)
            assert out.xdot_d[:3] != out.v_trans
    assert rotating > 100


def test_reference_derivative_consistency():
    rng = np.random.default_rng(59)
    dt = 1e-3
    pose = [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]
    for _ in range(500):
        v_adm = rng.normal(scale=0.2, size=3)
        v_h = rng.normal(scale=0.2, size=3)
        twist = (*object_translation(v_adm, v_h, 0.5), 0.0, 0.0, 0.0)
        nxt = integrate_pose(pose, twist, dt)
        fd = (np.array(nxt[:3]) - pose[:3]) / dt
        np.testing.assert_allclose(fd, twist[:3], atol=1e-9)
        pose = nxt


# -- full controller ------------------------------------------------------


def human_sample(hand_yaw=0.0, torso_yaw=0.0, rate=0.0, v=(0, 0, 0)):
    return HumanState(
        hand_position=(1.0, 0.0, 1.0),
        hand_orientation=quat_from_yaw(hand_yaw),
        hand_velocity=tuple(float(c) for c in v),
        torso_position=(1.5, 0.0, 1.0),
        theta_h_w=hand_yaw,
        theta_t_w=torso_yaw,
        theta_h_t=hand_yaw - torso_yaw,
        thetadot_t_w=rate,
    )


def make_controller(mode, ee=None, torso=None, dt=1e-3):
    return AciController(
        AciParams(),
        AdmittanceParams(),
        mode,
        Pose([0.5, 0, 1.0]) if ee is None else ee,
        Pose([1.5, 0, 1.0]) if torso is None else torso,
        dt,
    )


def run_controller(mode, force, v_h, ticks=300, dt=1e-3):
    ctrl = make_controller(mode, dt=dt)
    out = None
    t = 0.0
    for _ in range(ticks):
        t += dt
        out = ctrl.step(t, np.array(force, dtype=float), human_sample(v=v_h))
    return out


def test_controller_admittance_matches_fresh_step_across_dt():
    # A controller forms its admittance decay once, for its own dt.  Stepped
    # at that dt, its v_adm must equal, bit for bit, an admittance step
    # computed from scratch with fresh parameters on every tick.
    mass, damping = [6.0, 3.0, 1.5], [30.0, 12.0, 9.0]
    rng = np.random.default_rng(60)
    for dt in (1e-3, 2.5e-3):
        ctrl = AciController(
            AciParams(),
            AdmittanceParams(mass, damping),
            Mode.ADMITTANCE,
            Pose([0.5, 0, 1.0]),
            Pose([1.5, 0, 1.0]),
            dt,
        )
        v = (0.0, 0.0, 0.0)
        for i in range(1, 201):
            force = tuple(rng.normal(scale=20.0, size=3).tolist())
            out = ctrl.step(i * dt, force, human_sample())
            fresh = AdmittanceParams(mass, damping)
            v = admittance_step(force, v, fresh.decay(dt), fresh)
            assert np.array(out.v_adm).tobytes() == np.array(v).tobytes()


def test_reference_mode_pins_blend():
    force = (12.0, 0.0, 0.0)
    v_h = (0.0, 0.3, 0.0)
    adm = run_controller(Mode.ADMITTANCE, force, v_h)
    for other_v_h in ((0.0, 0.0, 0.0), (5.0, 5.0, 5.0)):  # hand input must be invisible
        other = run_controller(Mode.ADMITTANCE, force, other_v_h)
        np.testing.assert_allclose(other.xdot_d[:3], adm.xdot_d[:3])
    tel = run_controller(Mode.TELEOP, force, v_h)
    for other_force in ((0.0, 0.0, 0.0), (5.0, 5.0, 5.0)):  # force channel must be invisible
        other = run_controller(Mode.TELEOP, other_force, v_h)
        np.testing.assert_allclose(other.xdot_d[:3], tel.xdot_d[:3])
        np.testing.assert_allclose(other.xdot_d[:3], v_h)


def test_controller_mode_outputs():
    force = (12.0, 0.0, 0.0)
    v_h = (0.0, 0.3, 0.0)
    for mode in (Mode.ACI, Mode.ADMITTANCE, Mode.TELEOP):
        out = run_controller(mode, force, v_h)
        if mode is Mode.ADMITTANCE:
            np.testing.assert_allclose(out.v_trans, out.v_adm)
        elif mode is Mode.TELEOP:
            np.testing.assert_allclose(out.v_trans, v_h)
        else:
            np.testing.assert_allclose(
                out.v_trans, out.v_adm + out.alpha * np.array(v_h)
            )
        # the reference moves with the mode's translational command
        np.testing.assert_allclose(out.xdot_d[:3], out.v_trans)
        assert out.xdot_d[3:] == (0.0, 0.0, 0.0)
        assert out.zeta == 0


def test_controller_rotation_cycle():
    dt = 1e-3
    ctrl = make_controller(Mode.ACI)
    t = 0.0
    # settle period, then torso-led turn of -0.5 rad
    for _ in range(100):
        t += dt
        out = ctrl.step(t, np.zeros(3), human_sample())
        assert out.zeta == 0
    for tt in np.linspace(0.0, -0.5, 400):
        t += dt
        out = ctrl.step(t, np.zeros(3), human_sample(torso_yaw=tt, rate=-1.25))
        assert out.zeta == 0  # torso still moving
    fire_t = None
    for _ in range(3000):
        t += dt
        out = ctrl.step(t, np.zeros(3), human_sample(torso_yaw=-0.5, rate=0.0))
        if out.zeta and fire_t is None:
            fire_t = t
        if fire_t is not None and not out.zeta:
            break
    assert fire_t is not None
    # the commanded duration covers |0.5| rad at 0.3 rad/s, floored at 2 s
    assert t - fire_t == pytest.approx(2.0, abs=2 * dt)
    # x_d converged on the re-seated arrangement around the detected torso
    goal = desired_rotation_pose(
        Pose([1.5, 0, 1.0], quat_from_yaw(-0.5)), ctrl.ee_in_torso
    )
    np.testing.assert_allclose(ctrl.x_d[:3], goal.position, atol=5e-3)
    assert yaw_from_quat(ctrl.x_d[3:]) == pytest.approx(goal.yaw(), abs=5e-3)
    # translation stayed frozen during the maneuver
    assert ctrl.trajectory is None


def test_controller_no_rotation_outside_aci_mode():
    dt = 1e-3
    for mode in (Mode.ADMITTANCE, Mode.TELEOP):
        ctrl = make_controller(mode)
        t = 0.0
        for tt in np.linspace(0.0, -0.5, 300):
            t += dt
            out = ctrl.step(t, np.zeros(3), human_sample(torso_yaw=tt, rate=0.0))
            assert out.zeta == 0
        for _ in range(500):
            t += dt
            out = ctrl.step(t, np.zeros(3), human_sample(torso_yaw=-0.5, rate=0.0))
            assert out.zeta == 0


def test_aci_params_validation():
    with pytest.raises(ValueError):
        AciParams(window_length=0.0)
    with pytest.raises(ValueError):  # the index divides by it
        AciParams(epsilon=0.0)
    with pytest.raises(ValueError):  # the rotation duration divides by it
        AciParams(rotation_rate=0.0)
    with pytest.raises(ValueError):  # the rotation trajectory starts from it
        AciParams(min_rotation_duration=0.0)
    with pytest.raises(ValueError):
        AciParams(lower_angle=0.5, upper_angle=0.4)
    with pytest.raises(ValueError):  # at 0 the rotation assist never fires
        AciParams(velocity_threshold=0.0)
    with pytest.raises(ValueError):
        AciParams(deadband=-1e-4)
    AciParams(deadband=0.0)


def test_params_reject_non_finite_values():
    # The scenario reader rejects these; the classes themselves must too:
    # with a NaN window the index would never drop a sample.
    for name in ("window_length", "epsilon", "deadband", "velocity_threshold",
                 "lower_angle", "upper_angle", "rotation_rate", "min_rotation_duration"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                AciParams(**{name: value})
    for name in ("mass", "damping"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                AdmittanceParams(**{name: [value] * 3})
