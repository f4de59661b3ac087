import random

import numpy as np
import pytest

from edgekt import selector
from edgekt.selector import (KalmanState, KeyFrameSelector, kalman_update,
                             scene_change_statistic)
from edgekt.tensor import Tensor


def _frame(value, shape=(8, 8, 3)):
    return Tensor(np.full(shape, value, dtype=np.float32))


# -- Kalman ------------------------------------------------------------------

def test_kalman_hand_calculated_first_update():
    state = KalmanState(estimate=0.0, variance=1.0, q=0.01, r=0.1)
    new, innovation = kalman_update(state, 1.0)
    gain = 1.01 / 1.11
    assert innovation == pytest.approx(1.0)
    assert new.estimate == pytest.approx(gain, abs=1e-12)
    assert new.variance > 0


def test_kalman_constant_stream_converges():
    state = KalmanState()
    innovations = []
    for _ in range(200):
        state, innov = kalman_update(state, 0.7)
        innovations.append(abs(innov))
    assert state.estimate == pytest.approx(0.7, abs=1e-3)
    assert innovations[-1] < 1e-3
    # after the first update the residual shrinks monotonically
    assert all(a >= b - 1e-12 for a, b in zip(innovations[1:], innovations[2:]))


def test_kalman_no_trust_limit():
    state = KalmanState(estimate=0.3, variance=1e-6, q=0.0, r=1e9)
    new, _ = kalman_update(state, 100.0)
    assert new.estimate == pytest.approx(0.3, abs=1e-3)


def test_kalman_rejects_non_finite():
    with pytest.raises(ValueError):
        kalman_update(KalmanState(), float("nan"))


def test_kalman_variance_stays_positive():
    state = KalmanState()
    for k in range(100):
        state, _ = kalman_update(state, float(k % 5))
        assert state.variance > 0


# -- scene change statistic ----------------------------------------------------

def test_statistic_identical_frames():
    f = _frame(0.4)
    assert scene_change_statistic(f, f) == 0.0


def test_statistic_constant_offset():
    assert scene_change_statistic(_frame(0.5), _frame(0.3)) == pytest.approx(0.2)


def test_statistic_matches_brute_force():
    rng = np.random.Generator(np.random.PCG64(21))
    a = Tensor(rng.uniform(0, 1, (6, 6, 3)).astype(np.float32))
    b = Tensor(rng.uniform(0, 1, (6, 6, 3)).astype(np.float32))
    expected = sum(abs(x - y) for x, y in zip(a.data.tolist(), b.data.tolist())) / a.size
    assert scene_change_statistic(a, b) == pytest.approx(expected, rel=1e-9)


def test_statistic_shape_mismatch():
    with pytest.raises(ValueError):
        scene_change_statistic(_frame(0.1), _frame(0.1, shape=(4, 4, 3)))


# -- probability update --------------------------------------------------------

def test_update_probability_decay_branch():
    sel = KeyFrameSelector()
    sel.p = 0.5
    sel.last_loss = 0.0
    sel.update_probability(0.1)  # delta 0.1 < sigma
    assert sel.p == pytest.approx(0.45)


def test_update_probability_floor():
    sel = KeyFrameSelector()
    sel.p = 0.07
    sel.last_loss = 0.0
    sel.update_probability(0.1)
    assert sel.p == 0.05


def test_update_probability_double_and_cap():
    sel = KeyFrameSelector()
    sel.p = 0.6
    sel.last_loss = 0.0
    sel.update_probability(0.9)  # delta 0.9 > sigma
    assert sel.p == 1.0
    sel.update_probability(2.0)
    assert sel.p == 1.0


def test_update_probability_boundary_takes_decay():
    sel = KeyFrameSelector()
    sel.p = 0.5
    sel.last_loss = 0.0
    sel.update_probability(0.5)  # delta == sigma exactly
    assert sel.p == pytest.approx(0.45)


def test_update_probability_first_call_stores():
    sel = KeyFrameSelector()
    sel.p = 0.8
    sel.update_probability(123.0)
    assert sel.p == 0.8
    assert sel.last_loss == 123.0


def test_update_probability_rejects_non_finite():
    sel = KeyFrameSelector()
    with pytest.raises(ValueError):
        sel.update_probability(float("inf"))


def test_eq1_exhaustive_table():
    # every p in {0.05..1.00} x a delta grid on both sides of sigma
    for i in range(1, 21):
        p = i * 0.05
        for delta in (0.0, 0.4, 0.49, 0.51, 0.9, 2.0):
            sel = KeyFrameSelector()
            sel.p = p
            sel.last_loss = 0.0
            sel.update_probability(delta)
            if delta > 0.5:
                expected = min(2.0 * p, 1.0)
            else:
                expected = max(p - 0.05, 0.05)
            assert sel.p == expected  # tolerance zero


# -- binomial gate --------------------------------------------------------------

def test_binomial_gate_certain_at_one():
    sel = KeyFrameSelector()
    assert all(sel.sample_binomial_gate() for _ in range(100))


def test_binomial_gate_consumes_exactly_two_draws():
    sel = KeyFrameSelector(seed=77)
    sel.p = 0.3
    shadow = random.Random(77)
    for _ in range(50):
        sel.sample_binomial_gate()
        shadow.random(), shadow.random()
    assert sel.rng.random() == shadow.random()


def test_binomial_gate_floor_rate():
    sel = KeyFrameSelector(seed=5)
    sel.p = 0.05
    hits = sum(sel.sample_binomial_gate() for _ in range(100_000))
    assert hits / 100_000 == pytest.approx(1 - 0.95 ** 2, abs=0.003)


def test_binomial_gate_seed_determinism():
    a = KeyFrameSelector(seed=9)
    a.p = 0.4
    b = KeyFrameSelector(seed=9)
    b.p = 0.4
    assert [a.sample_binomial_gate() for _ in range(200)] == \
           [b.sample_binomial_gate() for _ in range(200)]


# -- full selection -------------------------------------------------------------

def test_select_busy_short_circuits():
    sel = KeyFrameSelector(seed=1)
    sel.busy = True
    shadow = random.Random(1)
    assert sel.select_key_frame(_frame(0.5)) is False
    assert sel.rng.random() == shadow.random()  # no draws consumed


def test_select_motion_false_skips_binomial(monkeypatch):
    monkeypatch.setattr(selector, "TAU_MOTION", 10.0)  # gate can never pass
    sel = KeyFrameSelector(seed=2)
    sel.last_key_frame = _frame(0.5)
    shadow = random.Random(2)
    assert sel.select_key_frame(_frame(0.5)) is False
    assert sel.rng.random() == shadow.random()


def test_select_first_frame_forced():
    sel = KeyFrameSelector()
    f = _frame(0.2)
    assert sel.select_key_frame(f) is True
    assert sel.busy is True
    assert sel.last_key_frame is f


def test_select_static_stream_eventually_false():
    sel = KeyFrameSelector(seed=0)
    f = _frame(0.5)
    assert sel.select_key_frame(f)
    sel.complete(1.0)
    results = []
    for _ in range(50):
        picked = sel.select_key_frame(f)
        if picked:
            sel.complete(1.0)
        results.append(picked)
    assert not any(results[-20:])  # innovation has settled to zero


def test_select_abrupt_change_triggers():
    sel = KeyFrameSelector(seed=0)
    base = _frame(0.5)
    assert sel.select_key_frame(base)
    sel.complete(1.0)
    # settle the filter on a small constant statistic
    near = _frame(0.55)
    for _ in range(30):
        if sel.select_key_frame(near):
            sel.complete(1.0)
            sel.last_key_frame = base  # keep the reference fixed for the test
    jumped = _frame(0.95)  # statistic jumps far above the filtered level
    assert sel.motion_gate(jumped) is True


def test_busy_gate_until_completion():
    sel = KeyFrameSelector(seed=4)
    assert sel.select_key_frame(_frame(0.1))
    for v in (0.2, 0.9, 0.4):
        assert sel.select_key_frame(_frame(v)) is False
    sel.complete(2.0)
    assert sel.busy is False


def test_seeded_runs_reproduce_key_sets():
    def run(seed):
        sel = KeyFrameSelector(seed=seed)
        sel.p = 0.5
        rng = np.random.Generator(np.random.PCG64(123))
        picked = []
        for i in range(200):
            f = Tensor(rng.uniform(0, 1, (8, 8, 3)).astype(np.float32))
            if sel.select_key_frame(f):
                picked.append(i)
                sel.complete(0.0)  # calm losses keep p decaying toward the floor
        return picked

    assert run(42) == run(42)
    assert run(42) != run(43)


def test_probability_bounds_invariant():
    sel = KeyFrameSelector(seed=6)
    rng = np.random.Generator(np.random.PCG64(7))
    sel.last_loss = 0.0
    for _ in range(500):
        sel.update_probability(float(rng.uniform(0, 3)))
        assert 0.05 <= sel.p <= 1.0
