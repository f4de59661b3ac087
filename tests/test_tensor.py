import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgekt.tensor import AdamState, Tensor, adam_step, f16_decode, f16_encode


def test_tensor_rejects_non_finite():
    with pytest.raises(ValueError):
        Tensor([1.0, float("nan")])
    with pytest.raises(ValueError):
        Tensor([float("inf")])


def test_tensor_immutable():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        t.array[0, 0] = 9.0


def test_tensor_bytes_are_little_endian_float32():
    # a tensor built from big-endian floats holds native float32 values and
    # still serializes them little-endian, in one copy
    values = np.array([[1.5, -2.0], [0.25, 3e-8]], ">f4")
    t = Tensor(values)
    assert t.tobytes() == values.astype("<f4").tobytes()
    assert t.tobytes() == np.array([[1.5, -2.0], [0.25, 3e-8]], "<f4").tobytes()


def test_adam_zero_gradient_fixpoint():
    param = Tensor([1.5, -2.0, 0.25])
    state = AdamState.for_param(param.array)
    adam_step(np.zeros(3, np.float32), state)
    assert Tensor(state.param) == param
    assert state.step == 1


def test_adam_first_step_hand_calc():
    # scalar param 1.0, grad 1.0, lr 0.1: bias correction makes the first
    # update one full lr step (up to eps)
    state = AdamState.for_param(np.array([1.0], np.float32), lr=0.1)
    adam_step(np.array([1.0], np.float32), state)
    assert state.param[0] == pytest.approx(0.9, abs=1e-6)
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

    state = AdamState.for_param(np.array([1.0], np.float32), lr=0.05)
    for _ in range(200):
        adam_step(np.array([2.0 * float(state.param[0])], np.float32), state)
    assert abs(state.param[0]) < 0.1
    assert state.param[0] == pytest.approx(reference(1.0, 0.05, 200), abs=1e-3)


def test_adam_deterministic():
    def run():
        st = AdamState.for_param(np.array([0.5, -0.5], np.float32), lr=0.01)
        for k in range(10):
            adam_step(np.array([0.1 * (k + 1), -0.2], np.float32), st)
        return st.block.tobytes()

    assert run() == run()


def test_adam_shape_mismatch():
    st = AdamState.for_param(np.array([1.0, 2.0], np.float32))
    with pytest.raises(ValueError):
        adam_step(np.array([1.0], np.float32), st)


@pytest.mark.parametrize("g", [float("nan"), 1e21])
def test_adam_non_finite_update_raises(g):
    # 1e21 is a finite float32, but its square overflows the second moment;
    # the update leaves the non-finite value in the state, and the one check
    # after the last step raises for it
    st = AdamState.for_param(np.array([1.0], np.float32))
    with np.errstate(over="ignore"):
        adam_step(np.array([g], np.float32), st)
        adam_step(np.array([0.5], np.float32), st)
    with pytest.raises(ValueError, match="non-finite gradient"):
        st.check_finite()
    AdamState.for_param(np.array([1.0], np.float32)).check_finite()


_block_shapes = st.lists(st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple),
                         min_size=1, max_size=6)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(shapes=_block_shapes, steps=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_adam_on_concatenation_equals_per_block(shapes, steps, seed):
    # elementwise float32 arithmetic: one update over the flattened blocks
    # must give the per-block updates bit for bit, moments included
    rng = np.random.Generator(np.random.PCG64(seed))
    params = [rng.normal(0.0, 1.0, s).astype(np.float32) for s in shapes]
    per_block = [AdamState.for_param(p, lr=0.05) for p in params]
    fused = AdamState.for_param(np.concatenate([p.reshape(-1) for p in params]), lr=0.05)
    for _ in range(steps):
        grads = [rng.normal(0.0, 3.0, s).astype(np.float32).reshape(-1) for s in shapes]
        for g, st_ in zip(grads, per_block):
            adam_step(g, st_)
        adam_step(np.concatenate(grads), fused)

    def joined(rows):
        return np.concatenate(list(rows)).tobytes()

    for row in range(3):  # m, v, param
        assert fused.block[row].tobytes() == joined(st_.block[row] for st_ in per_block)
    assert fused.step == steps and all(st_.step == steps for st_ in per_block)


class _FreshBlockState:
    """The state of the fresh-block update ``adam_step`` replaced."""

    def __init__(self, param, lr):
        self.m = np.zeros(param.shape, np.float32)
        self.v = np.zeros(param.shape, np.float32)
        self.step = 0
        self.lr = lr


def _reference_adam_step(param, grad, state):
    """The fresh-block update ``adam_step`` replaced, kept as its reference:
    a new (3, n) block per step and a finiteness check on every step."""
    if param.shape != grad.shape or param.shape != state.m.shape:
        raise ValueError("param, grad and state moments must share one shape")
    if not np.isfinite(grad).all():
        raise ValueError("non-finite gradient")
    t = state.step + 1
    block = np.empty((3,) + param.shape, np.float32)
    m, v, new = block[0, ...], block[1, ...], block[2, ...]
    np.multiply(state.m, 0.9, out=m)
    np.multiply(grad, 1.0 - 0.9, out=new)
    m += new
    np.multiply(state.v, 0.999, out=v)
    np.multiply(grad, 1.0 - 0.999, out=new)
    new *= grad
    v += new
    denom = np.divide(v, 1.0 - 0.999 ** t, out=np.empty_like(v))
    np.sqrt(denom, out=denom)
    denom += 1e-8
    np.divide(m, 1.0 - 0.9 ** t, out=new)
    new *= state.lr
    new /= denom
    np.subtract(param, new, out=new)
    if not np.isfinite(block).all():
        raise ValueError("Adam update overflowed to a non-finite value")
    state.m, state.v, state.step = m, v, t
    return new


_specials = st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e21, -1e21])


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(size=st.integers(1, 300), steps=st.integers(1, 5), lr=st.floats(1e-4, 1.0),
       scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2**32 - 1),
       special=st.none() | st.tuples(st.integers(0, 4), st.integers(0, 10**6), _specials))
def test_adam_step_equals_allocating_reference(size, steps, lr, scale, seed, special):
    # bit for bit: params, moments and step after every update. Where the
    # reference refuses a gradient with NaN, inf or an overflowing 1e21,
    # the in-place state holds a non-finite value from that step to the
    # last, so the one check after the last step refuses it too
    rng = np.random.Generator(np.random.PCG64(seed))
    param = rng.normal(0.0, 1.0, size).astype(np.float32)
    ours, ref = AdamState.for_param(param, lr=lr), _FreshBlockState(param, lr)
    p_ref, refused = param, False
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            grad = (scale * rng.normal(0.0, 1.0, size)).astype(np.float32)
            if special is not None and special[0] == k:
                grad[special[1] % size] = special[2]
            adam_step(grad, ours)
            if not refused:
                try:
                    p_ref = _reference_adam_step(p_ref, grad, ref)
                except ValueError:
                    refused = True
            if refused:
                assert not np.isfinite(ours.block).all()
            else:
                assert ours.block.tobytes() == np.stack([ref.m, ref.v, p_ref]).tobytes()
                assert ours.step == ref.step
    if refused:
        with pytest.raises(ValueError, match="non-finite gradient"):
            ours.check_finite()
    else:
        ours.check_finite()


_slot_values = st.sampled_from([float("nan"), float("inf"), -float("inf")])
_grad_values = st.floats(width=32, allow_nan=True, allow_infinity=True)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(size=st.integers(1, 8), row=st.integers(0, 2), index=st.integers(0, 7),
       value=_slot_values, grads=st.lists(st.lists(_grad_values, min_size=8, max_size=8),
                                          min_size=1, max_size=6),
       lr=st.floats(1e-4, 1.0))
def test_a_non_finite_state_slot_stays_non_finite(size, row, index, value, grads, lr):
    # the basis of the one check after the last step: once m, v or a
    # parameter holds an inf or NaN, no update by any gradient, finite or
    # not, makes that slot finite again
    state = AdamState.for_param(np.ones(size, np.float32), lr=lr)
    slot = (row, index % size)
    state.block[slot] = value
    with np.errstate(over="ignore", invalid="ignore"):
        for g in grads:
            adam_step(np.array(g[:size], np.float32), state)
            assert not np.isfinite(state.block[slot])


def test_adam_step_reads_its_inputs_only():
    # the gradient is only read; the update writes only the state's own
    # block and scratch, allocated once, so views of its rows follow it
    grad = np.array([0.3, 0.0, -4.0], np.float32)
    grad.flags.writeable = False
    state = AdamState.for_param(np.array([1.0, -2.0, 0.5], np.float32), lr=0.1)
    block, scratch, param = state.block, state.scratch, state.param
    adam_step(grad, state)
    assert state.block is block and state.scratch is scratch
    assert param.base is block and block.dtype == np.float32
    assert param[0] < 1.0 and param[1] == -2.0 and param[2] > 0.5
    assert not any(np.shares_memory(grad, a) for a in (block, scratch))


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
