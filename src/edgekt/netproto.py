"""Byte-exact wire protocol for frame upload / weight download, plus a
virtual-time channel with LAN/Wi-Fi bandwidth and latency characteristics.

Framing is [magic 'EKTP'][type u8][length u32 LE][body], little-endian
throughout. The channel is lossless and FIFO; delivery time is
now + base latency + jitter draw + size_bits / bandwidth.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .models import (_PRECISION_TAG, _TAG_PRECISION, DecoderWeights, Precision,
                     decode_weights, encode_weights)
from .tensor import Tensor, f16_decode, f16_encode

MAGIC = b"EKTP"
_HEADER = struct.Struct("<4sBI")

TYPE_FRAME_UPLOAD = 1
TYPE_WEIGHT_UPDATE = 2
TYPE_ACK = 3


class AckStatus(IntEnum):
    OK = 0
    ERROR = 1


class ProtocolError(ValueError):
    """Malformed wire data; ``code`` distinguishes the failure mode."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


@dataclass(frozen=True)
class FrameUpload:
    frame_id: int
    precision: Precision
    shape: tuple[int, ...]
    payload: bytes


@dataclass(frozen=True)
class WeightUpdate:
    """Weight response; ``loss`` is the training loss reported back for
    selection feedback (the loss the previous weights scored on this key
    frame before the update)."""

    frame_id: int
    weights: DecoderWeights
    loss: float = 0.0

    def __post_init__(self):
        # the loss travels as f32; round up front so codec round-trips compare equal
        loss = float(np.float32(self.loss))
        if not math.isfinite(loss):
            raise ValueError(f"loss {self.loss!r} is not a finite f32")
        object.__setattr__(self, "loss", loss)


@dataclass(frozen=True)
class Ack:
    frame_id: int
    status: AckStatus


Message = FrameUpload | WeightUpdate | Ack


def frame_upload_from_tensor(frame_id: int, frame: Tensor,
                             precision: Precision = Precision.FULL) -> FrameUpload:
    payload = f16_encode(frame) if precision is Precision.HALF else frame.tobytes()
    return FrameUpload(frame_id=frame_id, precision=precision,
                       shape=frame.shape, payload=payload)


def tensor_from_frame_upload(m: FrameUpload) -> Tensor:
    if m.precision is Precision.HALF:
        return f16_decode(m.payload, m.shape)
    n = math.prod(m.shape)
    if len(m.payload) != 4 * n:
        raise ProtocolError("bad_body", "payload length inconsistent with shape")
    return Tensor(np.frombuffer(m.payload, dtype="<f4").reshape(m.shape))


def encode_message(m: Message) -> bytes:
    if isinstance(m, FrameUpload):
        body = struct.pack("<QBB", m.frame_id, _PRECISION_TAG[m.precision], len(m.shape))
        body += struct.pack(f"<{len(m.shape)}I", *m.shape)
        body += m.payload
        mtype = TYPE_FRAME_UPLOAD
    elif isinstance(m, WeightUpdate):
        body = struct.pack("<Qf", m.frame_id, m.loss)
        body += encode_weights(m.weights)
        mtype = TYPE_WEIGHT_UPDATE
    elif isinstance(m, Ack):
        body = struct.pack("<QB", m.frame_id, int(m.status))
        mtype = TYPE_ACK
    else:
        raise TypeError(f"not a protocol message: {type(m)!r}")
    return _HEADER.pack(MAGIC, mtype, len(body)) + body


def decode_message(data: bytes) -> Message:
    if len(data) < _HEADER.size:
        raise ProtocolError("truncated", "shorter than the fixed header")
    magic, mtype, length = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise ProtocolError("bad_magic", f"expected {MAGIC!r}, got {magic!r}")
    body = data[_HEADER.size:]
    if len(body) != length:
        raise ProtocolError("truncated", f"declared {length} body bytes, got {len(body)}")
    try:
        if mtype == TYPE_FRAME_UPLOAD:
            frame_id, tag, rank = struct.unpack_from("<QBB", body, 0)
            shape = struct.unpack_from(f"<{rank}I", body, 10)
            payload = body[10 + 4 * rank:]
            if tag not in _TAG_PRECISION:
                raise ProtocolError("bad_body", f"unknown precision tag {tag}")
            precision = _TAG_PRECISION[tag]
            n = math.prod(shape)
            width = 4 if precision is Precision.FULL else 2
            if len(payload) != width * n:
                raise ProtocolError("bad_body", "payload inconsistent with shape")
            return FrameUpload(frame_id, precision, tuple(int(s) for s in shape), payload)
        if mtype == TYPE_WEIGHT_UPDATE:
            frame_id, loss = struct.unpack_from("<Qf", body, 0)
            return WeightUpdate(frame_id, decode_weights(body[12:]), float(loss))
        if mtype == TYPE_ACK:
            if len(body) != 9:
                raise ProtocolError("bad_body", f"ack body is {len(body)} bytes, not 9")
            frame_id, status = struct.unpack_from("<QB", body, 0)
            return Ack(frame_id, AckStatus(status))
    except ProtocolError:
        raise
    except (struct.error, ValueError) as exc:
        raise ProtocolError("bad_body", str(exc)) from exc
    raise ProtocolError("unknown_type", f"message type {mtype}")


# ---------------------------------------------------------------------------
# Simulated channel


@dataclass(frozen=True)
class LognormalJitter:
    median_s: float
    sigma_log: float


@dataclass(frozen=True)
class ChannelConfig:
    bandwidth_bps: float
    base_latency_s: float = 0.0
    jitter: LognormalJitter | None = None
    seed: int = 0

    def __post_init__(self):
        if not self.bandwidth_bps > 0:
            raise ValueError("bandwidth_bps must be > 0")
        if self.base_latency_s < 0:
            raise ValueError("base_latency_s must be >= 0")


def lan_config(seed: int = 0) -> ChannelConfig:
    """100 Mb/s wired link, 0.2 ms latency, no jitter."""
    return ChannelConfig(bandwidth_bps=100e6, base_latency_s=0.0002, jitter=None, seed=seed)


def wifi_config(seed: int = 0) -> ChannelConfig:
    """13 Mb/s wireless link with lognormal jitter (median 5 ms)."""
    return ChannelConfig(bandwidth_bps=13e6, base_latency_s=0.001,
                         jitter=LognormalJitter(median_s=0.005, sigma_log=0.5), seed=seed)


def zero_cost_config(seed: int = 0) -> ChannelConfig:
    """Infinitely fast lossless channel (for location-independence checks)."""
    return ChannelConfig(bandwidth_bps=math.inf, base_latency_s=0.0, jitter=None, seed=seed)


@dataclass(frozen=True)
class TransmitResult:
    delivery_time: float
    serialize_s: float
    data: bytes  # the wire bytes the channel carried

    @property
    def size_bytes(self) -> int:
        return len(self.data)


class SimulatedChannel:
    """One direction of a point-to-point link; FIFO, lossless, seeded jitter."""

    def __init__(self, config: ChannelConfig, direction: int = 0):
        self.config = config
        self._rng = np.random.Generator(np.random.PCG64(config.seed * 2 + direction))
        self._last_delivery = 0.0

    def transmit(self, m: Message, now: float) -> TransmitResult:
        data = encode_message(m)
        serialize = len(data) * 8.0 / self.config.bandwidth_bps
        jitter = 0.0
        if self.config.jitter is not None:
            j = self.config.jitter
            jitter = float(self._rng.lognormal(math.log(j.median_s), j.sigma_log))
        delivery = now + self.config.base_latency_s + jitter + serialize
        delivery = max(delivery, self._last_delivery)  # FIFO per direction
        self._last_delivery = delivery
        return TransmitResult(delivery_time=delivery, serialize_s=serialize, data=data)
