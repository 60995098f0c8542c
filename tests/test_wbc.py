"""Hierarchical controller against dense least-squares oracles.

The oracle routes every solve through a stacked QR factorization
(numpy lstsq), which shares no code path with the normal-equations
implementation under test.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from cocarry import wbc
from cocarry.geometry import pose_error, quat_from_yaw, quat_multiply, quat_normalize
from cocarry.kinematics import ChainState, chain_state, damping_factor, default_model

HOME = np.array([0.0, 0.0, 0.0, 0.0, -0.65, 1.75, -0.2, 1.5707963, 0.0])


def stacked_oracle(J, b, k, w_task, w_damp):
    """Weighted damped least squares via lstsq on the stacked system.

    At k = 0 the damping rows vanish; the answer is then the k -> 0 limit of
    the stacked problem, the W2-weighted minimum-norm solution
    W2^-1/2 lstsq(sqrt(W1) J W2^-1/2, sqrt(W1) b).
    """
    sq1 = np.sqrt(w_task)
    sq2 = np.sqrt(w_damp)
    if k == 0.0:
        sol, *_ = np.linalg.lstsq(sq1[:, None] * J / sq2, sq1 * b, rcond=None)
        return sol / sq2
    A = np.vstack([sq1[:, None] * J, k * np.diag(sq2)])
    rhs = np.concatenate([sq1 * b, np.zeros(J.shape[1])])
    sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    return sol


def nullspace(J):
    """N = I - J# J at k = 0 and unit weights, built column by column as
    e_i + J# (-J e_i) through the controller's own solve."""
    n = J.shape[1]
    ones_task, ones_joint = np.ones(J.shape[0]), np.ones(n)
    return np.column_stack(
        [e + wbc.solve_tracking(J, -J @ e, 0.0, ones_task, ones_joint) for e in np.eye(n)]
    )


def default_params(model, q_def=None):
    return wbc.WbcParams.defaults(model, q_def=HOME if q_def is None else q_def)


def random_q(rng, model):
    q = np.empty(model.n_joints)
    q[:3] = rng.uniform([-1, -1, -np.pi], [1, 1, np.pi])
    q[3:] = rng.uniform(-2.0, 2.0, size=model.n_arm)
    return q


def test_tracking_objective_keeps_the_bits_of_the_zip_form():
    # b is formed one entry at a time and packed once; it must be bitwise the
    # former list form over pose_error, signed zeros included.
    model = default_model()
    rng = np.random.default_rng(49)
    for i in range(300):
        params = default_params(model)
        if i % 3 == 0:
            params = replace(params, k_gain=rng.normal(size=6))
        pose = chain_state(model, random_q(rng, model)).pose
        x_d = [
            *np.add(pose[:3], rng.normal(scale=0.1, size=3)).tolist(),
            *quat_normalize(quat_multiply(quat_from_yaw(rng.normal(scale=0.2)), pose[3:])),
        ]
        xdot_d = rng.normal(scale=0.2, size=6).tolist()
        if i % 5 == 0:
            x_d, xdot_d = list(pose), [0.0, -0.0, 0.0, -0.0, 0.0, -0.0]
        zip_form = np.array(
            [v + k * e for v, k, e in zip(xdot_d, params._k_gain, pose_error(x_d, pose))]
        )
        assert wbc.tracking_objective(pose, x_d, xdot_d, params).tobytes() == zip_form.tobytes()


def test_params_defaults():
    model = default_model()
    p = default_params(model)
    np.testing.assert_allclose(p.k_gain, [1, 1, 1, 0.1, 0.1, 0.1])
    np.testing.assert_allclose(p.w_task, [1000, 1000, 1000, 500, 500, 500])
    np.testing.assert_allclose(p.w_damp, np.full(9, 3.0))
    np.testing.assert_allclose(p.w_posture, [0, 0, 0, 1, 1, 1, 1, 1, 1])
    assert p.posture_gain == 0.5
    np.testing.assert_allclose(p.qdot_limits, [1, 1, 1, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5])


def test_params_validation():
    with pytest.raises(wbc.WbcError):
        wbc.WbcParams(
            k_gain=np.ones(6),
            w_task=np.zeros(6),
            w_damp=np.ones(9),
            w_posture=np.ones(9),
            q_def=np.zeros(9),
            qdot_limits=np.ones(9),
        )
    with pytest.raises(wbc.WbcError):
        wbc.WbcParams(
            k_gain=np.ones(6),
            w_task=np.ones(6),
            w_damp=np.ones(9),
            w_posture=-np.ones(9),
            q_def=np.zeros(9),
            qdot_limits=np.ones(9),
        )
    with pytest.raises(wbc.WbcError):
        wbc.WbcParams.defaults(default_model(), arm_limit=-1.0)
    with pytest.raises(wbc.WbcError):  # an override is checked too
        wbc.WbcParams.defaults(default_model(), w_task=np.zeros(6))


def test_solve_tracking_matches_stacked_oracle():
    # 1000 randomized instances, mixed damped and undamped.  Draws whose
    # stacked system is conditioned worse than 3e3 are redrawn: past that
    # point both dense routes lose more than the 1e-8 the check asks for
    # (their disagreement grows like cond^2 * eps), so the comparison would
    # measure floating-point conditioning rather than correctness.
    rng = np.random.default_rng(41)
    failures = 0
    done = 0
    while done < 1000:
        m = rng.integers(7, 12)
        J = rng.normal(size=(6, m))
        b = rng.normal(size=6)
        w_task = rng.uniform(0.5, 1000.0, size=6)
        w_damp = rng.uniform(0.5, 10.0, size=m)
        k = 0.0 if done % 4 == 0 else rng.uniform(1e-3, 0.2)
        stack = np.sqrt(w_task)[:, None] * J
        if k > 0.0:
            stack = np.vstack([stack, k * np.diag(np.sqrt(w_damp))])
        if np.linalg.cond(stack) > 3e3:
            continue
        got = wbc.solve_tracking(J, b, k, w_task, w_damp)
        want = stacked_oracle(J, b, k, w_task, w_damp)
        rel = np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want))
        if rel > 1e-8:
            failures += 1
        done += 1
    assert failures == 0


def test_solve_tracking_zero_reference():
    rng = np.random.default_rng(42)
    J = rng.normal(size=(6, 9))
    for k in (0.0, 0.05):
        out = wbc.solve_tracking(J, np.zeros(6), k, np.ones(6), np.ones(9))
        np.testing.assert_allclose(out, np.zeros(9), atol=1e-12)


def test_solve_tracking_exact_at_zero_damping():
    rng = np.random.default_rng(43)
    for _ in range(100):
        J = rng.normal(size=(6, 9))
        b = rng.normal(size=6)
        qdot = wbc.solve_tracking(J, b, 0.0, np.ones(6), np.ones(9))
        assert np.linalg.norm(J @ qdot - b) < 1e-9


def test_solve_tracking_continuous_as_damping_vanishes():
    # The damped minimizer approaches the undamped one like k^2, so the
    # command does not jump when the damping factor switches off at the
    # manipulability threshold.  The floor allows a few ulps of rounding.
    model = default_model()
    params = default_params(model)
    J = chain_state(model, HOME).jacobian
    b = np.random.default_rng(49).normal(size=6)

    exact = wbc.solve_tracking(J, b, 0.0, params.w_task, params.w_damp)

    def gap(k):
        return np.linalg.norm(wbc.solve_tracking(J, b, k, params.w_task, params.w_damp) - exact)

    rate = gap(1e-2) / 1e-4
    for k in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
        assert gap(k) <= 2.0 * rate * k * k + 1e-14, k


def test_solve_tracking_singular_needs_damping():
    J = np.zeros((6, 9))
    J[0, 0] = 1.0  # rank 1
    with pytest.raises(wbc.WbcError, match="damping"):
        wbc.solve_tracking(J, np.ones(6), 0.0, np.ones(6), np.ones(9))
    # the damped branch handles the same matrix fine
    out = wbc.solve_tracking(J, np.ones(6), 0.1, np.ones(6), np.ones(9))
    assert np.all(np.isfinite(out))


def test_solve_primary_full_pipeline_matches_oracle():
    # Configurations whose manipulability sits just under the damping
    # threshold get a vanishingly small k, leaving the stacked system as
    # ill-conditioned as the undamped one; there the two dense routes
    # drift apart by cond^2 * eps regardless of correctness, so such
    # draws are redrawn (same guard as the tracking-solve test above).
    model = default_model()
    params = default_params(model)
    rng = np.random.default_rng(44)
    done = 0
    while done < 50:
        q = random_q(rng, model)
        st = chain_state(model, q)
        k = damping_factor(st.manipulability, model)
        stack = np.sqrt(params.w_task)[:, None] * st.jacobian
        if k > 0.0:
            stack = np.vstack([stack, k * np.diag(np.sqrt(params.w_damp))])
        if np.linalg.cond(stack) > 3e3:
            continue
        x_d = [
            *np.add(st.pose[:3], rng.normal(scale=0.05, size=3)),
            *quat_normalize(
                quat_multiply(quat_from_yaw(rng.normal(scale=0.1)), st.pose[3:])
            ),
        ]
        xdot_d = np.concatenate(
            [rng.normal(scale=0.1, size=3), rng.normal(scale=0.1, size=3)]
        )
        got = wbc.solve_tracking(
            st.jacobian,
            wbc.tracking_objective(st.pose, x_d, xdot_d, params),
            k,
            params.w_task,
            params.w_damp,
        )
        b = xdot_d + params.k_gain * pose_error(x_d, st.pose)
        want = stacked_oracle(st.jacobian, b, k, params.w_task, params.w_damp)
        rel = np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want))
        assert rel < 1e-8
        done += 1


def test_nullspace_projector_kills_task_motion():
    rng = np.random.default_rng(45)
    for _ in range(1000):
        J = rng.normal(size=(6, 9))
        if np.linalg.cond(J @ J.T) > 1e8:
            continue
        N = nullspace(J)
        v = rng.normal(size=9)
        assert np.linalg.norm(J @ (N @ v)) < 1e-9


def test_nullspace_projector_idempotent():
    rng = np.random.default_rng(46)
    for _ in range(100):
        J = rng.normal(size=(6, 9))
        N = nullspace(J)
        np.testing.assert_allclose(N @ N, N, atol=1e-8)


def test_nullspace_empty_for_square_jacobian():
    rng = np.random.default_rng(47)
    J = rng.normal(size=(6, 6))
    N = nullspace(J)
    np.testing.assert_allclose(N, np.zeros((6, 6)), atol=1e-9)


def test_solve_secondary():
    model = default_model()
    params = default_params(model, q_def=HOME)
    np.testing.assert_allclose(wbc.solve_secondary(HOME.copy(), params), np.zeros(9))
    q = HOME + 0.3
    out = wbc.solve_secondary(q, params)
    np.testing.assert_allclose(out[:3], np.zeros(3))  # base entries unweighted
    np.testing.assert_allclose(out[3:], -0.5 * 0.3 * np.ones(6))
    unit = wbc.WbcParams(
        k_gain=np.ones(6),
        w_task=np.ones(6),
        w_damp=np.ones(9),
        w_posture=np.ones(9),
        q_def=np.zeros(9),
        qdot_limits=np.ones(9),
        posture_gain=1.0,
    )
    e4 = np.zeros(9)
    e4[4] = 1.0
    np.testing.assert_allclose(wbc.solve_secondary(-e4, unit), e4)


def primary(model, st, x_d, params):
    """The primary-task command alone for a fixed reference pose."""
    b = wbc.tracking_objective(st.pose, x_d, np.zeros(6), params)
    k = damping_factor(st.manipulability, model)
    return wbc.solve_tracking(st.jacobian, b, k, params.w_task, params.w_damp)


def test_compute_reduces_to_primary_without_posture_weight():
    model = default_model()
    params = replace(default_params(model), w_posture=np.zeros(9))
    rng = np.random.default_rng(48)
    q = random_q(rng, model)
    st = chain_state(model, q)
    x_d = [st.pose[0] + 0.05, *st.pose[1:]]
    out = wbc.compute(model, x_d, np.zeros(6), params, chain=chain_state(model, q))
    prim = primary(model, st, x_d, params)
    np.testing.assert_allclose(out, prim, atol=1e-12)


def test_posture_drifts_without_disturbing_tracking():
    model = default_model()
    q = HOME.copy()
    q_def = HOME + np.concatenate([np.zeros(3), [0.4, -0.3, 0.2, 0.3, -0.2, 0.4]])
    params = default_params(model, q_def=q_def)
    st = chain_state(model, q)
    assert chain_state(model, q).manipulability > model.w_threshold  # so k = 0
    x_d = st.pose
    out = wbc.compute(model, x_d, np.zeros(6), params, chain=chain_state(model, q))
    prim = primary(model, st, x_d, params)
    # secondary motion present and pointed toward q_def on the arm...
    assert np.linalg.norm(out - prim) > 1e-4
    assert float((q_def - q) @ (out - prim)) > 0.0
    # ...and invisible to the task
    np.testing.assert_allclose(st.jacobian @ (out - prim), np.zeros(6), atol=1e-9)


def test_compute_zero_at_converged_rest():
    model = default_model()
    params = default_params(model, q_def=HOME)
    chain = chain_state(model, HOME)
    out = wbc.compute(model, chain.pose, np.zeros(6), params, chain=chain)
    np.testing.assert_allclose(out, np.zeros(9), atol=1e-12)


def closed_loop_errors(x_d, q0, steps, dt=1e-3):
    model = default_model()
    params = default_params(model, q_def=q0)
    q = q0.copy()
    errs = np.empty((steps, 2))
    for i in range(steps):
        chain = chain_state(model, q)
        qd = wbc.clamp_velocities(
            wbc.compute(model, x_d, np.zeros(6), params, chain=chain), params
        )
        q = q + qd * dt
        e = pose_error(x_d, chain.pose)
        errs[i] = np.linalg.norm(e[:3]), np.linalg.norm(e[3:])
    return errs


def test_closed_loop_converges_to_small_offset():
    start = chain_state(default_model(), HOME).pose
    x_d = [
        *np.add(start[:3], [0.05, -0.03, 0.02]),
        *quat_normalize(quat_multiply(quat_from_yaw(1.5e-3), start[3:])),
    ]
    errs = closed_loop_errors(x_d, HOME, steps=10000)
    assert errs[-1, 0] < 1e-3
    assert errs[-1, 1] < 1e-3
    # monotone decrease once the transient has passed
    assert np.all(np.diff(errs[1000:, 0]) <= 1e-12)


def test_closed_loop_orientation_follows_gain_envelope():
    # with the 0.1 rotational gain the orientation error decays as exp(-0.1 t)
    start = chain_state(default_model(), HOME).pose
    yaw0 = 0.2
    x_d = [
        *np.add(start[:3], [0.1, -0.05, 0.08]),
        *quat_normalize(quat_multiply(quat_from_yaw(yaw0), start[3:])),
    ]
    errs = closed_loop_errors(x_d, HOME, steps=10000)
    assert errs[-1, 0] < 1e-3
    expected = yaw0 * np.exp(-0.1 * 10.0)
    assert errs[-1, 1] == pytest.approx(expected, rel=0.05)
    assert np.all(np.diff(errs[1000:, 1]) <= 1e-12)


def test_clamp_velocities():
    model = default_model()
    params = default_params(model)
    qdot = np.array([2.0, -2.0, 0.5, 3.0, -3.0, 1.0, 1.6, -1.4, 0.0])
    out = wbc.clamp_velocities(qdot, params)
    np.testing.assert_allclose(out, [1.0, -1.0, 0.5, 1.5, -1.5, 1.0, 1.5, -1.4, 0.0])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_clamp_is_np_clip_bitwise_in_an_array_of_its_own(sign):
    # At exactly the limits, on both zeros and on NaN of either sign.
    model = default_model()
    params = default_params(model)
    hi = params.qdot_limits
    values = [hi[0], -hi[1], 0.0, -0.0, math.nan, -math.nan, 1e300, hi[7], -hi[8]]
    qdot = sign * np.array(values)
    before = qdot.tobytes()
    out = wbc.clamp_velocities(qdot, params)
    assert out.tobytes() == np.clip(qdot, -hi, hi).tobytes()
    assert not np.shares_memory(out, qdot) and qdot.tobytes() == before
    assert out.flags.writeable


def test_compute_delivers_the_saturated_command():
    # A reference 3 m away asks for more than the joints may deliver; the
    # command is the solve clipped to the limits, and it cannot be written.
    model = default_model()
    params = default_params(model)
    chain = chain_state(model, HOME)
    x_d = [chain.pose[0] + 3.0, *chain.pose[1:]]
    out = wbc.compute(model, x_d, [0.0] * 6, params, chain=chain)
    J = chain.jacobian
    b = wbc.tracking_objective(chain.pose, x_d, np.zeros(6), params)
    s = wbc.solve_secondary(HOME, params)
    k = damping_factor(chain.manipulability, model)
    raw = s + wbc.solve_tracking(J, b - J.dot(s), k, params.w_task, params.w_damp)
    hi = params.qdot_limits
    assert np.any(np.abs(raw) > hi)
    assert out.tobytes() == np.clip(raw, -hi, hi).tobytes()
    assert not out.flags.writeable


@pytest.fixture
def counted_solves(monkeypatch):
    """The calls of `wbc.solve_tracking`, one entry per solve."""
    real_solve = wbc.solve_tracking
    solves = []

    def spy_solve(*args):
        solves.append(None)
        return real_solve(*args)

    monkeypatch.setattr(wbc, "solve_tracking", spy_solve)
    return solves


def test_kept_command_returned_while_inputs_keep_their_bits(counted_solves):
    model = default_model()
    params = default_params(model)
    chain = chain_state(model, HOME)
    x_d = [chain.pose[0] + 0.01, *chain.pose[1:]]
    first = wbc.compute(model, x_d, [0.0] * 6, params, chain=chain)
    again = wbc.compute(model, list(x_d), (0.0,) * 6, params, chain=chain)
    assert len(counted_solves) == 1
    assert again.tobytes() == first.tobytes()
    fresh = wbc.compute(model, x_d, [0.0] * 6, params, chain=chain_state(model, HOME))
    assert again.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("change", ["negative_zero", "replaced_params", "damping"])
def test_changed_input_misses_the_kept_command(change, counted_solves):
    model = default_model()
    params = default_params(model)
    chain = chain_state(model, HOME)
    x_d = [chain.pose[0] + 0.01, *chain.pose[1:]]
    xdot_d = [0.0] * 6
    wbc.compute(model, x_d, xdot_d, params, chain=chain)
    if change == "negative_zero":
        xdot_d = [0.0, 0.0, -0.0, 0.0, 0.0, 0.0]
    elif change == "replaced_params":
        params = replace(params)  # equal values, another object
    else:
        k_before = damping_factor(chain.manipulability, model)
        model = replace(model, w_threshold=2.0 * chain.manipulability)
        assert damping_factor(chain.manipulability, model) != k_before
    out = wbc.compute(model, x_d, xdot_d, params, chain=chain)
    assert len(counted_solves) == 2
    fresh = wbc.compute(model, x_d, xdot_d, params, chain=chain_state(model, HOME))
    assert out.tobytes() == fresh.tobytes()


def test_failed_solve_keeps_nothing(counted_solves):
    model = default_model()
    params = default_params(model)
    J = np.zeros((6, model.n_joints))
    J[0, 0] = 1.0  # rank 1, undamped: the solve raises
    chain = ChainState(HOME, chain_state(model, HOME).pose, J, 2.0 * model.w_threshold)
    for _ in range(2):
        with pytest.raises(wbc.WbcError, match="damping"):
            wbc.compute(model, chain.pose, [0.0] * 6, params, chain=chain)
    assert len(counted_solves) == 2
    assert chain.command is None


def test_returned_command_cannot_change_the_kept_one():
    model = default_model()
    params = default_params(model)
    chain = chain_state(model, HOME)
    x_d = [chain.pose[0] + 0.01, *chain.pose[1:]]
    kept = None
    for _ in range(3):  # solved, then kept twice
        out = wbc.compute(model, x_d, [0.0] * 6, params, chain=chain)
        kept = kept or out.tobytes()
        assert out.tobytes() == kept
        with pytest.raises(ValueError, match="read-only"):
            out[:] = 1.0
        assert chain.command[3].tobytes() == kept
