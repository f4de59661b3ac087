"""Dense float32 tensors, the Adam update rule, and an IEEE 754 binary16 codec.

Tensors are immutable once constructed; float32 is the canonical in-memory
precision, binary16 exists only at the wire boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Largest finite binary16 value; anything beyond it must not be encoded.
F16_MAX = 65504.0

# Adam's moment decay rates and its denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Tensor:
    """Immutable dense tensor of finite float32 values, row-major."""

    __slots__ = ("_array",)

    def __init__(self, values):
        a = np.asarray(values, dtype=np.float32)
        if not np.isfinite(a).all():
            raise ValueError("tensor values must be finite (no NaN/Inf)")
        a = np.ascontiguousarray(a)
        a.flags.writeable = False
        self._array = a

    @classmethod
    def zeros(cls, shape: tuple[int, ...]) -> "Tensor":
        return cls(np.zeros(shape, dtype=np.float32))

    @property
    def array(self) -> np.ndarray:
        """Read-only ndarray view (writeable flag is off)."""
        return self._array

    @property
    def shape(self) -> tuple[int, ...]:
        return self._array.shape

    @property
    def size(self) -> int:
        return int(self._array.size)

    @property
    def data(self) -> np.ndarray:
        """Flat row-major view of the values."""
        return self._array.reshape(-1)

    def tobytes(self) -> bytes:
        """Row-major little-endian float32 bytes."""
        return self._array.astype("<f4").tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.shape == other.shape and bool(
            np.array_equal(self._array, other._array)
        )

    def __hash__(self):
        return hash((self.shape, self._array.tobytes()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def l2_sq_distance(a: Tensor, b: Tensor) -> float:
    """Sum of squared elementwise differences between two equal-shape tensors."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    d = a.data.astype(np.float64) - b.data.astype(np.float64)
    return float(np.dot(d, d))


@dataclass
class AdamState:
    """Per-parameter Adam optimizer state (first/second moments plus step count)."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 1e-3

    @classmethod
    def for_param(cls, param: np.ndarray, lr: float = 1e-3) -> "AdamState":
        """Fresh zero-moment float32 state matching a parameter's shape."""
        return cls(m=np.zeros(param.shape, np.float32), v=np.zeros(param.shape, np.float32),
                   step=0, lr=lr)


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState) -> np.ndarray:
    """One bias-corrected Adam update on float32 arrays; returns new params,
    mutates ``state``.

    The update follows the standard rule: moment estimates are decayed
    averages of the gradient and its square, corrected by 1/(1-beta^t),
    and the parameter moves by lr * m_hat / (sqrt(v_hat) + eps), with the
    module's ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``. A
    non-finite gradient, or a moment or parameter that overflows, raises
    ValueError and leaves ``state`` unchanged.

    The new moments and parameters are the three rows of one fresh float32
    block, computed with in-place ufuncs in the float order of
    ``0.9 * m + 0.1 * g``, ``0.999 * v + 0.001 * g * g`` and
    ``param - lr * (m / c1) / (sqrt(v / c2) + eps)``, so one finiteness
    check covers all three. ``state.m``, ``state.v`` and the returned array
    are views of that block; the caller's ``param`` and ``grad`` are only
    read.
    """
    if param.shape != grad.shape or param.shape != state.m.shape:
        raise ValueError("param, grad and state moments must share one shape")
    if not np.isfinite(grad).all():
        raise ValueError("non-finite gradient")

    t = state.step + 1
    block = np.empty((3,) + param.shape, np.float32)
    m, v, new = block[0, ...], block[1, ...], block[2, ...]  # views, also for 0-d params
    np.multiply(state.m, ADAM_BETA1, out=m)
    np.multiply(grad, 1.0 - ADAM_BETA1, out=new)  # ``new`` is scratch until the last line
    m += new
    np.multiply(state.v, ADAM_BETA2, out=v)
    np.multiply(grad, 1.0 - ADAM_BETA2, out=new)
    new *= grad
    v += new
    denom = np.divide(v, 1.0 - ADAM_BETA2 ** t, out=np.empty_like(v))
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(m, 1.0 - ADAM_BETA1 ** t, out=new)
    new *= state.lr
    new /= denom
    np.subtract(param, new, out=new)
    if not np.isfinite(block).all():
        raise ValueError("Adam update overflowed to a non-finite value")

    state.m = m
    state.v = v
    state.step = t
    return new


def f16_encode(t: Tensor) -> bytes:
    """Encode to IEEE 754 binary16, little-endian, 2 bytes per element.

    Raises OverflowError instead of saturating when a value cannot be
    represented in the binary16 range.
    """
    a = t.array
    if np.any(np.abs(a) > F16_MAX):
        raise OverflowError("value exceeds binary16 range (|x| > 65504)")
    return a.astype("<f2").tobytes()


def f16_decode(data: bytes, shape: tuple[int, ...]) -> Tensor:
    """Decode little-endian binary16 bytes back to a float32 tensor."""
    n = 1
    for d in shape:
        n *= int(d)
    if len(data) != 2 * n:
        raise ValueError(f"byte length {len(data)} != 2 * product(shape) = {2 * n}")
    a = np.frombuffer(data, dtype="<f2").astype(np.float32).reshape(shape)
    return Tensor(a)
