"""Dense float32 tensors, the Adam update rule, and an IEEE 754 binary16 codec.

A ``Tensor`` is an immutable array of finite float32 values, checked where a
value enters the run: rendered or piped frames, frozen parameters, adapted
weights and wire decodes. What is computed from those per frame, the head
inputs and the model outputs, are plain read-only float32 arrays. float32 is
the canonical in-memory precision, binary16 exists only at the wire boundary.
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
        return self._array.astype("<f4", copy=False).tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.shape == other.shape and bool(
            np.array_equal(self._array, other._array)
        )

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


@dataclass(eq=False)
class AdamState:
    """Adam's state over one flat float32 parameter vector, updated in place.

    ``block`` is one (3, n) float32 array whose rows are the first moment,
    the second moment and the parameters; ``scratch`` is two rows of work
    space. ``for_param`` allocates both once, and every ``adam_step``
    writes into them, so views of the ``param`` row follow the updates.
    """

    block: np.ndarray
    scratch: np.ndarray
    lr: np.float32
    step: int = 0

    @classmethod
    def for_param(cls, param: np.ndarray, lr: float = 1e-3) -> "AdamState":
        """Zero-moment state whose parameter row is a float32 copy of
        ``param``, flattened row-major."""
        flat = np.asarray(param, np.float32).reshape(-1)
        block = np.zeros((3, flat.size), np.float32)
        block[2] = flat
        return cls(block, np.empty((2, flat.size), np.float32), np.float32(lr))

    @property
    def param(self) -> np.ndarray:
        """The parameter row of ``block``."""
        return self.block[2]

    def check_finite(self) -> None:
        """Raise ValueError if any moment or parameter is non-finite: after
        the last ``adam_step``, this covers every step's gradient and
        update."""
        if not np.isfinite(self.block).all():
            raise ValueError("non-finite gradient or Adam update")


# per moment row of the block: its decay rate and its gradient term's weight
_ADAM_DECAY = np.array([[ADAM_BETA1], [ADAM_BETA2]], np.float32)
_ADAM_RATE = np.array([[1.0 - ADAM_BETA1], [1.0 - ADAM_BETA2]], np.float32)
_ADAM_EPS = np.float32(ADAM_EPS)


def adam_step(grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update of ``state`` by the flat float32
    ``grad``, in place.

    The update follows the standard rule: moment estimates are decayed
    averages of the gradient and its square, corrected by 1/(1-beta^t),
    and the parameter moves by lr * m_hat / (sqrt(v_hat) + eps), with the
    module's ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``. The float
    order is that of ``0.9 * m + 0.1 * g``, ``0.999 * v + 0.001 * g * g``
    and ``param - lr * (m / c1) / (sqrt(v / c2) + eps)``, each constant
    rounded to float32; both moment rows take one broadcast operation.

    The update checks nothing: a non-finite gradient, or a moment or
    parameter that overflows, leaves a non-finite value in its slot of
    ``block``, and no later update makes that slot finite again. So one
    ``state.check_finite()`` after the last step covers them all (callers
    silence numpy's overflow warnings with ``np.errstate``).
    """
    if grad.shape != state.param.shape:
        raise ValueError(f"gradient shape {grad.shape} != parameter shape {state.param.shape}")
    t = state.step + 1
    block, terms = state.block, state.scratch
    moments = block[:2]
    moments *= _ADAM_DECAY                     # 0.9 * m, 0.999 * v
    np.multiply(grad, _ADAM_RATE, out=terms)   # 0.1 * g, 0.001 * g
    terms[1] *= grad
    moments += terms
    m, v, param = block
    step, denom = terms  # the moment terms are spent: reuse their rows
    np.divide(v, np.float32(1.0 - ADAM_BETA2 ** t), out=denom)
    np.sqrt(denom, out=denom)
    denom += _ADAM_EPS
    np.divide(m, np.float32(1.0 - ADAM_BETA1 ** t), out=step)
    step *= state.lr
    step /= denom
    param -= step
    state.step = t


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
