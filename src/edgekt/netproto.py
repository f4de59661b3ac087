"""Byte-exact wire protocol for frame upload / weight download, plus a
virtual-time channel with LAN/Wi-Fi bandwidth and latency characteristics.

Framing is [magic 'EKTP'][type u8][length u32 LE][body], little-endian
throughout. Frames and weights travel as tensor blocks of one layout,
``rank u8 | dims u32 each | payload`` with f32 or binary16 values. The
channel is lossless and FIFO; delivery time is
now + base latency + jitter draw + size_bits / bandwidth.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .models import DecoderWeights, Precision
from .tensor import Tensor, f16_decode, f16_encode

MAGIC = b"EKTP"
_HEADER = struct.Struct("<4sBI")
# a u64 id (frame id or weight version) and a u8 (precision tag or ack status)
_ID_U8 = struct.Struct("<QB")

TYPE_FRAME_UPLOAD = 1
TYPE_WEIGHT_UPDATE = 2
TYPE_ACK = 3

# per precision: its wire tag and the bytes of one tensor value
_TAG = {Precision.FULL: 0, Precision.HALF: 1}
_PRECISION = {tag: p for p, tag in _TAG.items()}
_WIDTH = {Precision.FULL: 4, Precision.HALF: 2}


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
    frame: Tensor
    precision: Precision = Precision.FULL


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


# ---------------------------------------------------------------------------
# Tensor blocks


def _encode_block(t: Tensor, precision: Precision) -> bytes:
    """``rank u8 | dims u32 each | payload``; binary16 overflow raises
    OverflowError."""
    payload = f16_encode(t) if precision is Precision.HALF else t.tobytes()
    return struct.pack(f"<B{len(t.shape)}I", len(t.shape), *t.shape) + payload


def _decode_block(data: bytes, offset: int, precision: Precision) -> tuple[Tensor, int]:
    """The block at ``offset`` and the offset just past it. A rank-0 block
    or a non-finite value is rejected: neither re-encodes as sent."""
    if offset >= len(data):
        raise ProtocolError("bad_body", "missing tensor block")
    rank = data[offset]
    if rank == 0:
        raise ProtocolError("bad_body", "rank-0 tensor block")
    start = offset + 1 + 4 * rank
    if start > len(data):
        raise ProtocolError("bad_body", "truncated block dims")
    dims = struct.unpack_from(f"<{rank}I", data, offset + 1)
    end = start + _WIDTH[precision] * math.prod(dims)
    if end > len(data):
        raise ProtocolError("bad_body", "truncated block payload")
    payload = data[start:end]
    if precision is Precision.HALF:
        return f16_decode(payload, dims), end
    return Tensor(np.frombuffer(payload, dtype="<f4").reshape(dims)), end


def _decode_id_tag(data: bytes) -> tuple[int, Precision]:
    if len(data) < _ID_U8.size:
        raise ProtocolError("bad_body", "shorter than its id and precision tag")
    ident, tag = _ID_U8.unpack_from(data, 0)
    if tag not in _PRECISION:
        raise ProtocolError("bad_body", f"unknown precision tag {tag}")
    return ident, _PRECISION[tag]


def encode_weights(w: DecoderWeights) -> bytes:
    """``version u64 | precision u8`` and one block per adaptive block."""
    return _ID_U8.pack(w.version, _TAG[w.precision]) + b"".join(
        _encode_block(b, w.precision) for b in w.blocks)


def decode_weights(data: bytes) -> DecoderWeights:
    version, precision = _decode_id_tag(data)
    offset, blocks = _ID_U8.size, []
    while offset < len(data):
        block, offset = _decode_block(data, offset, precision)
        blocks.append(block)
    return DecoderWeights(version=version, blocks=tuple(blocks), precision=precision)


# ---------------------------------------------------------------------------
# Messages


def encode_message(m: Message) -> bytes:
    if isinstance(m, FrameUpload):
        body = _ID_U8.pack(m.frame_id, _TAG[m.precision]) + _encode_block(m.frame, m.precision)
        mtype = TYPE_FRAME_UPLOAD
    elif isinstance(m, WeightUpdate):
        body = struct.pack("<Qf", m.frame_id, m.loss) + encode_weights(m.weights)
        mtype = TYPE_WEIGHT_UPDATE
    elif isinstance(m, Ack):
        body = _ID_U8.pack(m.frame_id, int(m.status))
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
            frame_id, precision = _decode_id_tag(body)
            frame, end = _decode_block(body, _ID_U8.size, precision)
            if end != len(body):
                raise ProtocolError("bad_body", "bytes after the frame block")
            return FrameUpload(frame_id, frame, precision)
        if mtype == TYPE_WEIGHT_UPDATE:
            frame_id, loss = struct.unpack_from("<Qf", body, 0)
            return WeightUpdate(frame_id, decode_weights(body[12:]), float(loss))
        if mtype == TYPE_ACK:
            if len(body) != _ID_U8.size:
                raise ProtocolError("bad_body", f"ack body is {len(body)} bytes, not 9")
            frame_id, status = _ID_U8.unpack_from(body, 0)
            return Ack(frame_id, AckStatus(status))
    except ProtocolError:
        raise
    except (struct.error, ValueError) as exc:
        raise ProtocolError("bad_body", str(exc)) from exc
    raise ProtocolError("unknown_type", f"message type {mtype}")


# ---------------------------------------------------------------------------
# Simulated channel


# with bandwidth_bps >= 1.0, these bounds keep every delivery time finite
MAX_DELAY_S = 86_400.0
MAX_SIGMA_LOG = 10.0


@dataclass(frozen=True)
class LognormalJitter:
    median_s: float
    sigma_log: float

    def __post_init__(self):
        if not 0 < self.median_s <= MAX_DELAY_S:
            raise ValueError(f"jitter median_s must be in (0, {MAX_DELAY_S}], got {self.median_s!r}")
        if not 0 <= self.sigma_log <= MAX_SIGMA_LOG:
            raise ValueError(f"jitter sigma_log must be in [0, {MAX_SIGMA_LOG}], got {self.sigma_log!r}")


@dataclass(frozen=True)
class ChannelConfig:
    bandwidth_bps: float
    base_latency_s: float = 0.0
    jitter: LognormalJitter | None = None

    def __post_init__(self):
        if not self.bandwidth_bps >= 1.0:
            raise ValueError(f"bandwidth_bps must be >= 1.0 (inf allowed), got {self.bandwidth_bps!r}")
        if not 0 <= self.base_latency_s <= MAX_DELAY_S:
            raise ValueError(f"base_latency_s must be in [0, {MAX_DELAY_S}], got {self.base_latency_s!r}")


def lan_config() -> ChannelConfig:
    """100 Mb/s wired link, 0.2 ms latency, no jitter."""
    return ChannelConfig(bandwidth_bps=100e6, base_latency_s=0.0002, jitter=None)


def wifi_config() -> ChannelConfig:
    """13 Mb/s wireless link with lognormal jitter (median 5 ms)."""
    return ChannelConfig(bandwidth_bps=13e6, base_latency_s=0.001,
                         jitter=LognormalJitter(median_s=0.005, sigma_log=0.5))


def zero_cost_config() -> ChannelConfig:
    """Infinitely fast lossless channel (for location-independence checks)."""
    return ChannelConfig(bandwidth_bps=math.inf, base_latency_s=0.0, jitter=None)


@dataclass(frozen=True)
class TransmitResult:
    delivery_time: float
    serialize_s: float
    data: bytes  # the wire bytes the channel carried

    @property
    def size_bytes(self) -> int:
        return len(self.data)


class SimulatedChannel:
    """One direction of a point-to-point link; FIFO, lossless, jitter drawn
    from a PCG64 stream keyed by ``seed``."""

    def __init__(self, config: ChannelConfig, seed: int):
        self.config = config
        self._rng = np.random.Generator(np.random.PCG64(seed))
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
