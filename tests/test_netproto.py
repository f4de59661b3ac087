import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgekt.models import DecoderWeights, Precision
from edgekt.netproto import (Ack, AckStatus, ChannelConfig, FrameUpload, LognormalJitter,
                             ProtocolError, SimulatedChannel, WeightUpdate, decode_message,
                             encode_message, lan_config, wifi_config, zero_cost_config)
from edgekt.tensor import Tensor, f16_decode, f16_encode


def _random_weights(rng, precision=Precision.FULL, version=1):
    blocks = tuple(Tensor(rng.uniform(-1, 1, s).astype(np.float32))
                   for s in ((4, 3), (3,), (2, 2, 2)))
    return DecoderWeights(version=version, blocks=blocks, precision=precision)


def _random_message(rng):
    kind = int(rng.integers(0, 3))
    if kind == 0:
        t = Tensor(rng.uniform(0, 1, (int(rng.integers(2, 6)), 3)).astype(np.float32))
        return FrameUpload(int(rng.integers(0, 1000)), t)
    if kind == 1:
        return WeightUpdate(int(rng.integers(0, 1000)), _random_weights(rng),
                            float(rng.uniform(0, 10)))
    return Ack(int(rng.integers(0, 1000)), AckStatus(int(rng.integers(0, 2))))


def test_ack_is_18_bytes():
    data = encode_message(Ack(1, AckStatus.OK))
    assert len(data) == 18  # 4 magic + 1 type + 4 length + 8 id + 1 status


def test_round_trip_randomized_thousand():
    rng = np.random.Generator(np.random.PCG64(30))
    for _ in range(1000):
        m = _random_message(rng)
        assert decode_message(encode_message(m)) == m


def test_frame_upload_payload_round_trip():
    rng = np.random.Generator(np.random.PCG64(31))
    t = Tensor(rng.uniform(0, 1, (8, 8, 3)).astype(np.float32))
    m = FrameUpload(7, t)
    assert decode_message(encode_message(m)).frame == t


def test_half_precision_round_trip_is_f16():
    rng = np.random.Generator(np.random.PCG64(32))
    t = Tensor(rng.uniform(0, 1, (6, 6, 3)).astype(np.float32))
    m = FrameUpload(9, t, Precision.HALF)
    back = decode_message(encode_message(m)).frame
    assert back == f16_decode(f16_encode(t), t.shape)


def test_weight_update_half_rounds_blocks():
    rng = np.random.Generator(np.random.PCG64(33))
    w = _random_weights(rng, precision=Precision.HALF)
    m = decode_message(encode_message(WeightUpdate(4, w, 1.5)))
    for orig, back in zip(w.blocks, m.weights.blocks):
        assert back == f16_decode(f16_encode(orig), orig.shape)


def test_bad_magic_detected():
    data = bytearray(encode_message(Ack(1, AckStatus.OK)))
    data[0] ^= 0xFF
    with pytest.raises(ProtocolError) as err:
        decode_message(bytes(data))
    assert err.value.code == "bad_magic"


def test_truncated_body_detected():
    data = encode_message(Ack(1, AckStatus.OK))
    with pytest.raises(ProtocolError) as err:
        decode_message(data[:-3])
    assert err.value.code == "truncated"


def test_unknown_type_detected():
    data = bytearray(encode_message(Ack(1, AckStatus.OK)))
    data[4] = 99
    with pytest.raises(ProtocolError) as err:
        decode_message(bytes(data))
    assert err.value.code == "unknown_type"


def test_half_size_is_half_payload_plus_constant_header():
    rng = np.random.Generator(np.random.PCG64(34))
    for shape in ((4, 4, 3), (8, 8, 3), (16, 16, 3)):
        t = Tensor(rng.uniform(0, 1, shape).astype(np.float32))
        full = len(encode_message(FrameUpload(1, t, Precision.FULL)))
        half = len(encode_message(FrameUpload(1, t, Precision.HALF)))
        # framing + id + precision + rank + dims = 31 bytes for rank-3 shapes
        assert 2 * half - full == 31
        assert half == full / 2 + 15.5


# -- canonical decoding ------------------------------------------------------------

def _valid_encodings():
    rng = np.random.Generator(np.random.PCG64(36))
    frame = Tensor(rng.uniform(0, 1, (2, 2, 3)).astype(np.float32))
    out = [encode_message(Ack(7, status)) for status in AckStatus]
    for precision in Precision:
        out.append(encode_message(FrameUpload(3, frame, precision)))
        blocks = tuple(Tensor(rng.uniform(-1, 1, s).astype(np.float32)) for s in ((2, 3), (3,)))
        out.append(encode_message(WeightUpdate(5, DecoderWeights(2, blocks, precision), 1.25)))
    return out


_VALID = _valid_encodings()


@st.composite
def _mutated_encodings(draw):
    """A valid encoding with bytes overwritten, then truncated or extended; the
    header length is usually patched to match so the body parsers see it."""
    data = bytearray(draw(st.sampled_from(_VALID)))
    for _ in range(draw(st.integers(0, 3))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    data = data[:draw(st.integers(0, len(data)))] + draw(st.binary(max_size=12))
    if len(data) >= 9 and draw(st.booleans()):
        data[5:9] = struct.pack("<I", len(data) - 9)
    return bytes(data)


def _decode_or_protocol_error(data):
    try:
        return decode_message(data)
    except ProtocolError:
        return None


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.one_of(st.binary(max_size=64), _mutated_encodings()))
def test_decode_any_bytes_gives_message_or_protocol_error(data):
    _decode_or_protocol_error(data)


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(_mutated_encodings())
def test_accepted_bytes_reencode_to_themselves(data):
    m = _decode_or_protocol_error(data)
    if m is not None:
        assert encode_message(m) == data


def _frame_upload_with(tag=0, dims=(1,), payload=b"\0" * 4):
    body = struct.pack(f"<QBB{len(dims)}I", 1, tag, len(dims), *dims) + payload
    return struct.pack("<4sBI", b"EKTP", 1, len(body)) + body


def _weight_update_with(loss=1.0, dims=(2,), payload=b"\0" * 8):
    weights = struct.pack(f"<QBB{len(dims)}I", 1, 0, len(dims), *dims) + payload
    body = struct.pack("<Qf", 1, loss) + weights
    return struct.pack("<4sBI", b"EKTP", 2, len(body)) + body


@pytest.mark.parametrize("data", [
    _frame_upload_with(tag=7, payload=b"\0" * 2),  # a valid payload for tag 1
    struct.pack("<4sBIQBc", b"EKTP", 3, 10, 1, 0, b"x"),
    _weight_update_with(dims=(), payload=b"\0" * 4),
    _weight_update_with(loss=math.nan),
    _weight_update_with(loss=math.inf),
    # 65536**4 wraps to 0 in int64, which an empty payload would match
    _frame_upload_with(dims=(65536,) * 4, payload=b""),
    _frame_upload_with(payload=struct.pack("<f", math.nan)),
    _frame_upload_with(dims=(), payload=b"\0" * 4),
], ids=["unknown_tag", "ack_trailing_bytes", "rank0_block", "nan_loss", "inf_loss",
        "int64_wrapping_shape", "nan_frame", "rank0_frame"])
def test_non_canonical_inputs_rejected(data):
    with pytest.raises(ProtocolError) as err:
        decode_message(data)
    assert err.value.code == "bad_body"


@pytest.mark.parametrize("data", [_frame_upload_with(), _weight_update_with()])
def test_hand_built_inputs_valid_by_default(data):
    # the rejections above come from the one field each case changes
    assert encode_message(decode_message(data)) == data


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(shape=st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple),
       precision=st.sampled_from(list(Precision)), seed=st.integers(0, 2**32 - 1))
def test_frame_and_weight_blocks_share_one_layout(shape, precision, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    t = Tensor(rng.uniform(-1, 1, shape).astype(np.float32))
    tag = {Precision.FULL: 0, Precision.HALF: 1}[precision]
    frame_body = encode_message(FrameUpload(3, t, precision))[9:]
    weight_body = encode_message(WeightUpdate(4, DecoderWeights(1, (t,), precision), 0.5))[9:]
    # frame body: frame id u64, tag u8, one block
    assert frame_body[:9] == struct.pack("<QB", 3, tag)
    assert frame_body[9:].startswith(struct.pack(f"<B{len(shape)}I", len(shape), *shape))
    # weight body: frame id u64, loss f32, version u64, tag u8, one block per weight block
    assert weight_body[12:21] == struct.pack("<QB", 1, tag)
    assert weight_body[21:] == frame_body[9:]


# -- channel -------------------------------------------------------------------

def test_transmit_serialization_arithmetic():
    ch = SimulatedChannel(ChannelConfig(bandwidth_bps=100e6, base_latency_s=0.0), 0)
    m = Ack(1, AckStatus.OK)
    res = ch.transmit(m, now=0.0)
    assert res.data == encode_message(m)
    assert res.size_bytes == 18
    assert res.serialize_s == pytest.approx(18 * 8 / 100e6)
    assert res.delivery_time == pytest.approx(res.serialize_s)


def test_transmit_bandwidth_ratio():
    rng = np.random.Generator(np.random.PCG64(35))
    t = Tensor(rng.uniform(0, 1, (64, 64, 3)).astype(np.float32))
    m = FrameUpload(0, t)
    lan = SimulatedChannel(ChannelConfig(bandwidth_bps=100e6), 0).transmit(m, 0.0)
    wifi = SimulatedChannel(ChannelConfig(bandwidth_bps=13e6), 0).transmit(m, 0.0)
    assert wifi.serialize_s / lan.serialize_s == pytest.approx(100 / 13)


def test_transmit_monotone_in_payload():
    ch = SimulatedChannel(ChannelConfig(bandwidth_bps=13e6), 0)
    small = FrameUpload(0, Tensor(np.zeros((4, 4, 3), np.float32)))
    large = FrameUpload(0, Tensor(np.zeros((16, 16, 3), np.float32)))
    assert ch.transmit(small, 0.0).serialize_s < ch.transmit(large, 0.0).serialize_s


def test_transmit_fifo_order():
    ch = SimulatedChannel(wifi_config(), 2)
    deliveries = [ch.transmit(Ack(i, AckStatus.OK), now=0.001 * i).delivery_time
                  for i in range(50)]
    assert all(a <= b for a, b in zip(deliveries, deliveries[1:]))


def test_transmit_deterministic_given_seed():
    def run():
        ch = SimulatedChannel(wifi_config(), 4)
        return [ch.transmit(Ack(i, AckStatus.OK), now=float(i)).delivery_time
                for i in range(20)]
    assert run() == run()


def test_wifi_jitter_positive_and_lan_jitter_absent():
    wifi = SimulatedChannel(wifi_config(), 6)
    base = wifi_config()
    m = Ack(1, AckStatus.OK)
    res = wifi.transmit(m, 0.0)
    floor = base.base_latency_s + res.serialize_s
    assert res.delivery_time > floor  # jitter draw added

    lan = SimulatedChannel(lan_config(), 6)
    res2 = lan.transmit(m, 0.0)
    assert res2.delivery_time == pytest.approx(lan_config().base_latency_s + res2.serialize_s)


def test_zero_cost_channel():
    ch = SimulatedChannel(zero_cost_config(), 0)
    res = ch.transmit(FrameUpload(0, Tensor(np.zeros((64, 64, 3), np.float32))), 5.0)
    assert res.serialize_s == 0.0
    assert res.delivery_time == 5.0


def test_channel_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(bandwidth_bps=0.0)
    with pytest.raises(ValueError):
        ChannelConfig(bandwidth_bps=1e6, base_latency_s=-1.0)


def test_jitter_median_scale():
    cfg = ChannelConfig(bandwidth_bps=1e9, base_latency_s=0.0,
                        jitter=LognormalJitter(0.005, 0.5))
    ch = SimulatedChannel(cfg, 8)
    draws = []
    for i in range(4000):
        res = ch.transmit(Ack(i, AckStatus.OK), now=float(i))
        draws.append(res.delivery_time - float(i) - res.serialize_s)
    assert float(np.median(draws)) == pytest.approx(0.005, rel=0.1)
