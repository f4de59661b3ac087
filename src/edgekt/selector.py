"""Key-frame selection: Kalman-filtered motion gate conjoined with an adaptive
binomial sampler, plus the busy gate that forbids concurrent adaptations.

The motion gate filters the scene-change statistic with a scalar Kalman
filter of process noise ``KALMAN_Q`` and measurement noise ``KALMAN_R`` and
passes when the innovation exceeds ``TAU_MOTION``. The selection
probability starts at ``P_INIT``. It doubles when the training loss moves
by more than ``SIGMA`` between adaptations and decays by ``P_DECAY``
otherwise, floored at ``P_FLOOR`` so at least a trickle of frames is always
sampled.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor

P_INIT = 1.0  # aggressive at stream start
P_FLOOR = 0.05
P_DECAY = 0.05
P_CAP = 1.0
SIGMA = 0.5  # loss delta that doubles the probability
TAU_MOTION = 0.005  # innovation the motion gate must exceed
KALMAN_Q = 2e-5  # process noise of the scene-change filter
KALMAN_R = 1e-2  # its measurement noise


@dataclass(frozen=True)
class KalmanState:
    """Scalar random-walk (constant-level) filter state; the noise variances
    are ``KALMAN_Q`` and ``KALMAN_R``."""

    estimate: float = 0.0
    variance: float = 1.0


def kalman_update(state: KalmanState, measurement: float) -> tuple[KalmanState, float]:
    """One predict-update cycle; returns (new state, innovation).

    Innovation is the residual against the prior estimate, before the
    measurement is folded in.
    """
    if not math.isfinite(measurement):
        raise ValueError("non-finite measurement")
    prior = state.estimate
    var_pred = state.variance + KALMAN_Q
    gain = var_pred / (var_pred + KALMAN_R)
    estimate = prior + gain * (measurement - prior)
    variance = (1.0 - gain) * var_pred
    return KalmanState(estimate, variance), measurement - prior


def scene_change_statistic(current: Tensor, last_key: Tensor) -> float:
    """Mean absolute elementwise difference between two frames."""
    if current.shape != last_key.shape:
        raise ValueError(f"shape mismatch: {current.shape} vs {last_key.shape}")
    d = np.abs(current.data.astype(np.float64) - last_key.data.astype(np.float64))
    return float(d.mean())


class KeyFrameSelector:
    """Owns the selection state: probability, last key frame, Kalman filter,
    loss history and the busy flag. Single-task owner; completion of an
    adaptation is reported back via :meth:`complete`."""

    def __init__(self, seed: int = 0):
        self.p: float = P_INIT
        self.last_key_frame: Tensor | None = None
        self.last_loss: float | None = None
        self.kalman = KalmanState()
        self.busy: bool = False
        self.rng = random.Random(seed)

    # -- selection gates -----------------------------------------------------

    def motion_gate(self, frame: Tensor) -> bool:
        """True when the filtered scene-change innovation clears the gate.

        The first frame of a stream is forced True (a model must be trained
        at least once). Updates the Kalman filter as a side effect.
        """
        if self.last_key_frame is None:
            return True
        stat = scene_change_statistic(frame, self.last_key_frame)
        self.kalman, innovation = kalman_update(self.kalman, stat)
        return abs(innovation) > TAU_MOTION

    def update_probability(self, new_loss: float) -> None:
        """Adapt the selection probability to the training-loss trend.

        The loss delta is taken as an absolute difference; a delta exactly
        equal to ``SIGMA`` takes the decay branch.
        """
        if not math.isfinite(new_loss):
            raise ValueError("non-finite loss")
        if self.last_loss is None:
            self.last_loss = new_loss
            return
        delta = abs(new_loss - self.last_loss)
        if delta > SIGMA:
            self.p = min(2.0 * self.p, P_CAP)
        else:
            self.p = max(self.p - P_DECAY, P_FLOOR)
        self.last_loss = new_loss

    def sample_binomial_gate(self) -> bool:
        """Draw two Bernoulli(p) trials; selected when either succeeds.

        Always consumes exactly two draws from the seeded stream, so the
        outcome of the first trial never changes how much randomness is used.
        """
        d1, d2 = self.rng.random(), self.rng.random()
        return d1 < self.p or d2 < self.p

    def select_key_frame(self, frame: Tensor) -> bool:
        """Full Eq.-1 decision with the no-queuing rule.

        Returns False immediately while an adaptation is in flight. The
        motion gate is evaluated first; the binomial sampler is only
        consulted (and its draws consumed) when motion passes.
        """
        if self.busy:
            return False
        if not self.motion_gate(frame):
            return False
        if not self.sample_binomial_gate():
            return False
        self.busy = True
        self.last_key_frame = frame
        return True

    def complete(self, final_loss: float | None = None) -> None:
        """Adaptation finished (or failed, when ``final_loss`` is None)."""
        if final_loss is not None:
            self.update_probability(final_loss)
        self.busy = False
