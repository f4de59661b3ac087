import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgekt.tensor import AdamState, Tensor, adam_step, f16_decode, f16_encode, l2_sq_distance


def test_tensor_rejects_non_finite():
    with pytest.raises(ValueError):
        Tensor([1.0, float("nan")])
    with pytest.raises(ValueError):
        Tensor([float("inf")])


def test_tensor_immutable():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        t.array[0, 0] = 9.0


def test_l2_identity_is_zero():
    t = np.arange(12, dtype=np.float32).reshape(3, 4)
    assert l2_sq_distance(t, t) == 0.0


def test_l2_unit_shift():
    a = np.array([1.0, 2.0], np.float32)
    b = np.array([2.0, 3.0], np.float32)
    assert l2_sq_distance(a, b) == pytest.approx(2.0)


def test_l2_matches_scalar_loop():
    rng = np.random.Generator(np.random.PCG64(3))
    a = rng.uniform(-5, 5, (3, 3)).astype(np.float32)
    b = rng.uniform(-5, 5, (3, 3)).astype(np.float32)
    expected = 0.0
    for x, y in zip(a.reshape(-1).tolist(), b.reshape(-1).tolist()):
        expected += (x - y) ** 2
    assert l2_sq_distance(a, b) == pytest.approx(expected, rel=1e-10)


def test_l2_symmetry():
    rng = np.random.Generator(np.random.PCG64(4))
    for _ in range(20):
        a = rng.uniform(-3, 3, (2, 5)).astype(np.float32)
        b = rng.uniform(-3, 3, (2, 5)).astype(np.float32)
        assert l2_sq_distance(a, b) == l2_sq_distance(b, a)


def test_l2_shape_mismatch():
    with pytest.raises(ValueError):
        l2_sq_distance(np.ones(1, np.float32), np.ones(2, np.float32))


def test_adam_zero_gradient_fixpoint():
    param = Tensor([1.5, -2.0, 0.25])
    state = AdamState.for_param(param)
    out = Tensor(adam_step(param.array, np.zeros(3, np.float32), state))
    assert out == param
    assert state.step == 1


def test_adam_first_step_hand_calc():
    # scalar param 1.0, grad 1.0, lr 0.1: bias correction makes the first
    # update one full lr step (up to eps)
    param = Tensor([1.0])
    state = AdamState.for_param(param, lr=0.1)
    out = Tensor(adam_step(param.array, np.array([1.0], np.float32), state))
    assert out.data[0] == pytest.approx(0.9, abs=1e-6)
    assert state.step == 1


def test_adam_descends_quadratic():
    # f(x) = x^2, grad 2x; matches an independent scalar reference
    def reference(x0, lr, steps):
        m = v = 0.0
        x = x0
        for t in range(1, steps + 1):
            g = 2.0 * x
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            x -= lr * (m / (1 - 0.9 ** t)) / (math.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        return x

    param = Tensor([1.0])
    state = AdamState.for_param(param, lr=0.05)
    for _ in range(200):
        param = Tensor(adam_step(param.array, np.array([2.0 * float(param.data[0])], np.float32),
                                 state))
    assert abs(param.data[0]) < 0.1
    assert param.data[0] == pytest.approx(reference(1.0, 0.05, 200), abs=1e-3)


def test_adam_deterministic():
    def run():
        p = Tensor([0.5, -0.5])
        st = AdamState.for_param(p, lr=0.01)
        for k in range(10):
            p = Tensor(adam_step(p.array, np.array([0.1 * (k + 1), -0.2], np.float32), st))
        return p.tobytes()

    assert run() == run()


def test_adam_shape_mismatch():
    p = Tensor([1.0, 2.0])
    st = AdamState.for_param(p)
    with pytest.raises(ValueError):
        adam_step(p.array, np.array([1.0], np.float32), st)


@pytest.mark.parametrize("g", [float("nan"), 1e21])
def test_adam_non_finite_update_raises(g):
    # 1e21 is a finite float32, but its square overflows the second moment
    p = Tensor([1.0])
    st = AdamState.for_param(p)
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        adam_step(p.array, np.array([g], np.float32), st)
    assert st.step == 0


_block_shapes = st.lists(st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple),
                         min_size=1, max_size=6)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(shapes=_block_shapes, steps=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_adam_on_concatenation_equals_per_block(shapes, steps, seed):
    # elementwise float32 arithmetic: one update over the flattened blocks
    # must give the per-block updates bit for bit, moments included
    rng = np.random.Generator(np.random.PCG64(seed))
    params = [rng.normal(0.0, 1.0, s).astype(np.float32) for s in shapes]
    flat = np.concatenate([p.reshape(-1) for p in params])
    per_block = [AdamState.for_param(p, lr=0.05) for p in params]
    fused = AdamState.for_param(flat, lr=0.05)
    for _ in range(steps):
        grads = [rng.normal(0.0, 3.0, s).astype(np.float32) for s in shapes]
        params = [adam_step(p, g, st_) for p, g, st_ in zip(params, grads, per_block)]
        flat = adam_step(flat, np.concatenate([g.reshape(-1) for g in grads]), fused)

    def joined(arrays):
        return np.concatenate([a.reshape(-1) for a in arrays]).tobytes()

    assert flat.tobytes() == joined(params)
    assert fused.m.tobytes() == joined(st_.m for st_ in per_block)
    assert fused.v.tobytes() == joined(st_.v for st_ in per_block)
    assert fused.step == steps and all(st_.step == steps for st_ in per_block)


def _reference_adam_step(param, grad, state):
    """The allocating update rule ``adam_step`` replaced, kept as its reference."""
    if not np.all(np.isfinite(grad)):
        raise ValueError("non-finite gradient")
    t = state.step + 1
    m = 0.9 * state.m + (1.0 - 0.9) * grad
    v = 0.999 * state.v + (1.0 - 0.999) * grad * grad
    m_hat = m / (1.0 - 0.9 ** t)
    v_hat = v / (1.0 - 0.999 ** t)
    new = param - state.lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    if not (np.all(np.isfinite(m)) and np.all(np.isfinite(v)) and np.all(np.isfinite(new))):
        raise ValueError("Adam update overflowed to a non-finite value")
    state.m, state.v, state.step = m, v, t
    return new


def _adam_outcome(step, param, grad, state):
    """(returned bytes or error message, state bytes) of one update."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            result = step(param, grad, state).tobytes()
    except ValueError as exc:
        result = str(exc)
    return result, (state.m.tobytes(), state.v.tobytes(), state.step)


_shapes = st.lists(st.integers(1, 7), max_size=3).map(tuple)
_specials = st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e21, -1e21])


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(shape=_shapes, steps=st.integers(1, 5), lr=st.floats(1e-4, 1.0),
       scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2**32 - 1),
       special=st.none() | st.tuples(st.integers(0, 4), st.integers(0, 10**6), _specials))
def test_adam_step_equals_allocating_reference(shape, steps, lr, scale, seed, special):
    # bit for bit: new params, moments and step; a gradient with NaN, inf or
    # an overflowing 1e21 gives the same message and leaves the state as it was
    rng = np.random.Generator(np.random.PCG64(seed))
    param = rng.normal(0.0, 1.0, shape).astype(np.float32)
    ours, ref = AdamState.for_param(param, lr=lr), AdamState.for_param(param, lr=lr)
    p_ours = p_ref = param
    for k in range(steps):
        grad = (scale * rng.normal(0.0, 1.0, shape)).astype(np.float32)
        if special is not None and special[0] == k:
            grad.reshape(-1)[special[1] % grad.size] = special[2]
        before = (ours.m.tobytes(), ours.v.tobytes(), ours.step)
        got = _adam_outcome(adam_step, p_ours, grad, ours)
        assert got == _adam_outcome(_reference_adam_step, p_ref, grad, ref)
        if isinstance(got[0], str):
            assert got[1] == before
            return
        p_ours = np.frombuffer(got[0], np.float32).reshape(shape)
        p_ref = p_ours.copy()


def test_adam_step_reads_its_inputs_only():
    param = np.array([1.0, -2.0, 0.5], np.float32)
    grad = np.array([0.3, 0.0, -4.0], np.float32)
    state = AdamState.for_param(param, lr=0.1)
    m, v = state.m, state.v
    for a in (param, grad, m, v):
        a.flags.writeable = False
    new = adam_step(param, grad, state)
    assert new.dtype == np.float32 and state.m is not m and state.v is not v
    assert not any(np.shares_memory(new, a) for a in (param, grad, m, v))


def test_f16_exact_values_round_trip():
    t = Tensor([0.0, 1.0, -2.0, 0.5])
    back = f16_decode(f16_encode(t), (4,))
    assert back == t


def test_f16_third_within_tolerance():
    t = Tensor([1.0 / 3.0])
    back = f16_decode(f16_encode(t), (1,))
    rel = abs(back.data[0] - t.data[0]) / abs(t.data[0])
    assert rel <= 2 ** -11


def test_f16_two_bytes_per_element():
    t = Tensor([1.0, 2.0, 3.0, 4.0])
    assert len(f16_encode(t)) == 8


def test_f16_overflow_errors():
    with pytest.raises(OverflowError):
        f16_encode(Tensor([70000.0]))
    with pytest.raises(OverflowError):
        f16_encode(Tensor([-65600.0]))


def test_f16_round_trip_tolerance_sweep():
    # normal binary16 range: relative error bounded by 2^-11; below it the
    # absolute error stays under 6e-5
    rng = np.random.Generator(np.random.PCG64(9))
    vals = rng.uniform(-1000.0, 1000.0, 100_000).astype(np.float32)
    t = Tensor(vals)
    back = f16_decode(f16_encode(t), t.shape)
    err = np.abs(back.data.astype(np.float64) - vals.astype(np.float64))
    normal = np.abs(vals) >= 6.104e-5
    assert np.all(err[normal] <= np.abs(vals[normal]) * 2 ** -11)
    assert np.all(err[~normal] <= 6e-5)


def test_f16_decode_length_check():
    with pytest.raises(ValueError):
        f16_decode(b"\x00\x00\x00", (2,))
