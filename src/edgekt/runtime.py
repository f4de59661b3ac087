"""User-end / edge node runtime pieces: scenario configuration, the edge
request server (oracle + student clone + trainer) and training-job records.

The per-module threads are realized under the harness's virtual clock as
one pass over the frames: the user node serves each frame in turn, and a
training job, on the user node or the edge, is run to its outcome when it
is dispatched and applied at its end time. That plus the single-slot weight
swap gives the same observable contract (atomic swaps, at most one
adaptation in flight, no queuing). Wherever a job trains, it runs the one
adaptation policy of ``models`` and reports the student's loss on its key
frame before the update, which is the selector's feedback. An edge job's
compute time is the harness's cost model at ``harness.EDGE_SPEED``, the
edge's speed-up over the user device.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING

from .models import (DecoderWeights, OracleModel, Precision, StudentModel, adapt_decoder,
                     swap_decoder)
from .netproto import (Ack, AckStatus, ChannelConfig, FrameUpload, WeightUpdate,
                       decode_message, encode_message)

if TYPE_CHECKING:
    from .harness import FrameRecord


class Mode(str, Enum):
    NO_TRAINING = "no_training"
    DEEP_ONLY = "deep_only"
    LOCAL = "local"
    NETWORK = "network"


class ConfigError(ValueError):
    pass


def check_seed(seed: int) -> None:
    """A run seed must be an integer >= 0, and not a bool; it seeds the
    selector and, derived, the channels."""
    if isinstance(seed, bool):  # an int to operator.index, echoed as true/false
        raise ConfigError("seed must be int, not bool")
    try:
        operator.index(seed)
    except TypeError:
        raise ConfigError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario; a channel is the network between the user end and the
    edge, so exactly the network mode has one."""

    mode: Mode = Mode.NO_TRAINING
    channel: ChannelConfig | None = None
    precision: Precision = Precision.FULL
    kfs_enabled: bool = True
    seed: int = 0

    def __post_init__(self):
        # a plain string would compare equal to its member but fail mid-run
        if not isinstance(self.mode, Mode):
            raise ConfigError(f"mode must be a Mode, got {self.mode!r}")
        if not isinstance(self.precision, Precision):
            raise ConfigError(f"precision must be a Precision, got {self.precision!r}")
        if self.mode is Mode.NETWORK and self.channel is None:
            raise ConfigError(f"mode {self.mode.value} requires a channel")
        if self.mode is not Mode.NETWORK and self.channel is not None:
            raise ConfigError(f"mode {self.mode.value} takes no channel")
        check_seed(self.seed)

    @property
    def trains(self) -> bool:
        return self.mode in (Mode.LOCAL, Mode.NETWORK)


@dataclass(frozen=True)
class TrainJob:
    """One training job, resolved at dispatch; its outcome takes effect at
    ``done_at``."""

    frame_id: int
    dispatched_at: float
    done_at: float
    weights: DecoderWeights | None  # None when the job failed
    loss: float | None  # the pre-adaptation loss, the selector's feedback
    receive_s: float | None = None  # downlink seconds; None for a local job


class EdgeNode:
    """Edge device: oracle plus its clone of the student, the model it last
    adapted. A ``StudentModel`` is a frozen value, so the clone is the
    user-end student itself until the edge's first adaptation replaces it.

    Serves FrameUpload messages by retraining the clone against the oracle
    output for the uploaded frame and answering with the new weights plus
    the loss the stale clone scored on that frame before the update (the
    selector's feedback signal); one ``adapt_decoder`` call, the one
    adaptation policy, returns both. A request that is malformed, is not an
    upload of its record's frame, or whose adaptation or reply encoding
    fails, gets an error Ack.
    """

    def __init__(self, oracle: OracleModel, clone: StudentModel):
        self.oracle = oracle
        self.clone = clone

    def serve(self, data: bytes, record: FrameRecord) -> bytes:
        """Handle one request for the frame of ``record``; returns the
        encoded response message.

        ``record`` is made with this node's oracle and holds the read-only
        head inputs of a student whose frozen half the clone shares. Only an
        upload of ``record.index`` is served. An upload of the record's exact
        frame bytes (any full-precision upload of it) takes the record's
        oracle output and head inputs, which are what this request would
        compute: the oracle's noise is keyed by the frame bytes. A rounded
        half-precision frame is scored afresh against ``record.truth``.
        """
        try:
            m = decode_message(data)
        except ValueError:
            return encode_message(Ack(frame_id=0, status=AckStatus.ERROR))
        if not isinstance(m, FrameUpload) or m.frame_id != record.index:
            return encode_message(Ack(frame_id=m.frame_id, status=AckStatus.ERROR))
        try:
            if (m.frame.shape == record.frame.shape
                    and m.frame.tobytes() == record.frame.tobytes()):
                oracle_out, inputs = record.oracle_out, record.head_inputs
            else:
                oracle_out = self.oracle.forward(m.frame, record.truth)
                inputs = self.clone.head_inputs(m.frame)
            # one call scores the stale clone and trains it
            weights, pre_loss = adapt_decoder(self.clone, inputs, oracle_out)
            # the reply travels at the request's precision; binary16 overflow
            # raises OverflowError, and the clone only advances once the
            # reply is encoded
            sent = replace(weights, precision=m.precision)
            reply = encode_message(WeightUpdate(frame_id=m.frame_id, weights=sent,
                                                loss=pre_loss))
        except (ValueError, OverflowError):
            return encode_message(Ack(frame_id=m.frame_id, status=AckStatus.ERROR))
        self.clone = swap_decoder(self.clone, weights)
        return reply
