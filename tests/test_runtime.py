import json
import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgekt import harness, models
from edgekt.harness import (OP_SECONDS, emit_report, run_named_scenario, run_scenario,
                            scenario_config)
from edgekt.models import (ADAPT_STEPS, DecoderWeights, ModelConfig, OracleModel, Precision,
                           StudentModel, adapt_decoder, swap_decoder)
from edgekt.netproto import (Ack, AckStatus, ChannelConfig, FrameUpload, LognormalJitter,
                             WeightUpdate, decode_message, encode_message, lan_config,
                             zero_cost_config)
from edgekt.runtime import ConfigError, EdgeNode, Mode, ScenarioConfig
from edgekt.scenegen import ObjectSpec, SceneScript, SceneStream, fixed_cam_default
from edgekt.tensor import Tensor, f16_decode, f16_encode


@pytest.fixture(scope="module")
def short_script():
    return fixed_cam_default(duration=120)


@pytest.fixture(scope="module")
def edge_setup():
    cfg = ModelConfig()
    oracle = OracleModel(cfg)
    student = StudentModel.pretrained(cfg)
    stream = SceneStream(fixed_cam_default(duration=40))
    edge = EdgeNode(oracle, student)
    return edge, student, stream


def _record(oracle, student, stream, i):
    """Frame ``i``'s record as ``run_scenario`` builds it (the decoded boxes
    left out: the edge does not read them)."""
    frame, truth = stream.frame_at(i), tuple(stream.truth_at(i))
    return harness.FrameRecord(index=i, frame=frame, truth=truth,
                               oracle_out=oracle.forward(frame, truth),
                               candidates=(), gt_boxes=(),
                               head_inputs=student.head_inputs(frame))


def _serve(edge, student, stream, i, precision=Precision.FULL):
    """The edge's reply to an upload of frame ``i``, decoded."""
    record = _record(edge.oracle, student, stream, i)
    return decode_message(edge.serve(encode_message(
        FrameUpload(i, record.frame, precision)), record))


# -- config ----------------------------------------------------------------------

def test_network_mode_requires_channel():
    with pytest.raises(ConfigError):
        ScenarioConfig(mode=Mode.NETWORK)


@pytest.mark.parametrize("mode", [Mode.LOCAL, Mode.NO_TRAINING, Mode.DEEP_ONLY])
def test_only_network_mode_takes_a_channel(mode):
    # a channel on another mode would carry no byte but echo in the report
    with pytest.raises(ConfigError, match=f"mode {mode.value} takes no channel"):
        ScenarioConfig(mode=mode, channel=lan_config())


@pytest.mark.parametrize("build, field", [
    (lambda: ScenarioConfig(seed=-1), "seed"),
    (lambda: ScenarioConfig(seed=0.5), "seed must be an integer"),
    (lambda: ScenarioConfig(seed=True), "seed must be int, not bool"),
    (lambda: scenario_config("nt-lan", seed=0.5), "seed must be an integer"),
    (lambda: ScenarioConfig(mode="local"), "mode must be a Mode"),
    (lambda: ScenarioConfig(precision="half"), "precision must be a Precision"),
    (lambda: ChannelConfig(1e6, base_latency_s=float("nan")), "base_latency_s"),
    (lambda: ChannelConfig(1e6, base_latency_s=float("inf")), "base_latency_s"),
    (lambda: LognormalJitter(median_s=-0.005, sigma_log=0.5), "median_s"),
    (lambda: LognormalJitter(median_s=0.0, sigma_log=0.5), "median_s"),
    (lambda: LognormalJitter(median_s=float("inf"), sigma_log=0.5), "median_s"),
    (lambda: LognormalJitter(median_s=0.005, sigma_log=float("nan")), "sigma_log"),
    (lambda: LognormalJitter(median_s=0.005, sigma_log=-1.0), "sigma_log"),
    (lambda: ChannelConfig(5e-324), "bandwidth_bps"),
    (lambda: ChannelConfig(1e6, base_latency_s=1e308), "base_latency_s"),
    (lambda: LognormalJitter(median_s=1e308, sigma_log=50.0), "median_s"),
    (lambda: LognormalJitter(median_s=0.005, sigma_log=1e308), "sigma_log"),
], ids=["seed_-1", "seed_0.5", "seed_True", "named_seed_0.5", "mode_str", "precision_str",
        "latency_nan", "latency_inf", "median_negative", "median_0", "median_inf",
        "sigma_log_nan", "sigma_log_negative",
        "bandwidth_5e-324", "latency_1e308", "median_1e308", "sigma_log_1e308"])
def test_config_values_that_cannot_run_are_rejected_at_construction(build, field):
    # without its check, each of these would construct and then fail mid-run
    # or in the report (the last four with an infinite transfer or job time)
    with pytest.raises(ValueError, match=field):
        build()


def _field(bounds, inside, outside):
    """A field's value: one of ``outside`` about one time in five, else one
    of its ``bounds`` or a draw from ``inside``."""
    valid = st.sampled_from(bounds) | inside
    return st.one_of(valid, valid, valid, valid, st.sampled_from(outside))


_NAN_INF = [math.nan, math.inf, -math.inf]
_bandwidths = _field([1.0, 1e308, math.inf], st.floats(1.0, 1e9),
                     [5e-324, 0.0, -1.0, math.nan, -math.inf])
_latencies = _field([0.0, 86_400.0], st.floats(0.0, 86_400.0), [-1.0, 86_400.5, 1e308] + _NAN_INF)
_medians = _field([5e-324, 86_400.0], st.floats(1e-6, 86_400.0), [0.0, -1.0, 1e308] + _NAN_INF)
_sigmas = _field([0.0, 10.0], st.floats(0.0, 10.0), [-1.0, 10.5, 1e308] + _NAN_INF)
_seeds = _field([0, 2**64 - 1, 2**128], st.integers(0, 1000), [-1, -2**63, 0.5, 1.0, math.nan])
_TINY = SceneScript(duration_frames=4, size=32, objects=(
    ObjectSpec(0, 0.3, 0.3, {"kind": "linear", "x": 0.4, "y": 0.5, "vx": 0.05, "vy": 0.0}),))


_channels = st.tuples(_bandwidths, _latencies, st.tuples(_medians, _sigmas) | st.none())
# a channel is drawn only for the network mode, the one mode that takes one
_modes_and_channels = st.sampled_from(
    [Mode.NETWORK, Mode.NETWORK, Mode.LOCAL, Mode.NO_TRAINING, Mode.DEEP_ONLY]).flatmap(
    lambda mode: st.tuples(st.just(mode), _channels if mode is Mode.NETWORK else st.none()))


@settings(max_examples=22, derandomize=True, database=None, deadline=None)
@given(mode_channel=_modes_and_channels, precision=st.sampled_from(list(Precision)),
       kfs=st.booleans(), seed=_seeds)
@example(mode_channel=(Mode.NETWORK, (1.0, 86_400.0, (86_400.0, 10.0))),
         precision=Precision.HALF, kfs=False, seed=2**128)  # the slowest channel accepted
@example(mode_channel=(Mode.NETWORK, (math.inf, 0.0, None)),
         precision=Precision.FULL, kfs=True, seed=0)  # zero_cost_config
def test_generated_configs_are_refused_or_run(mode_channel, precision, kfs, seed):
    # a config either fails where it is built or runs to a strict-JSON report
    mode, channel = mode_channel
    try:
        if channel is not None:
            bandwidth, latency, jitter = channel
            channel = ChannelConfig(bandwidth, latency,
                                    None if jitter is None else LognormalJitter(*jitter))
        config = ScenarioConfig(mode, channel, precision, kfs, seed)
    except ValueError:  # ConfigError is one
        return
    report = json.loads(emit_report(run_scenario([config], _TINY, ["generated"])[0]))
    assert report["frame_count"] == 4


# -- edge node -------------------------------------------------------------------

def test_edge_serve_returns_weight_update(edge_setup):
    edge, student, stream = edge_setup
    reply = _serve(edge, student, stream, 0)
    assert isinstance(reply, WeightUpdate)
    assert reply.frame_id == 0
    assert reply.weights.version == student.version + 1
    # the clone advanced in place and the reply matches it exactly
    assert edge.clone.version == reply.weights.version
    assert tuple(edge.clone.adaptive_blocks) == tuple(reply.weights.blocks)


def test_edge_serve_fifo_versions(edge_setup):
    edge, student, stream = edge_setup
    versions = []
    for i in (1, 2):
        reply = _serve(edge, student, stream, i)
        assert reply.frame_id == i
        versions.append(reply.weights.version)
    assert versions == sorted(versions)
    assert versions[0] < versions[1]
    assert edge.clone.version == versions[-1]


def test_edge_serve_malformed_returns_error_ack(edge_setup):
    edge, student, stream = edge_setup
    reply = decode_message(edge.serve(b"garbage-bytes", _record(edge.oracle, student, stream, 0)))
    assert isinstance(reply, Ack)
    assert reply.status == AckStatus.ERROR


def test_edge_serve_wrong_message_type(edge_setup):
    edge, student, stream = edge_setup
    reply = decode_message(edge.serve(encode_message(Ack(5, AckStatus.OK)),
                                      _record(edge.oracle, student, stream, 5)))
    assert isinstance(reply, Ack)
    assert reply.status == AckStatus.ERROR


@pytest.fixture(scope="module")
def record3(edge_setup):
    edge, student, stream = edge_setup
    return _record(edge.oracle, student, stream, 3)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(frame_id=st.one_of(st.just(3), st.integers(0, 11), st.integers(0, 2**64 - 1)),
       shape=st.one_of(st.just((64, 64, 3)),
                       st.lists(st.integers(0, 5), min_size=1, max_size=4).map(tuple)),
       precision=st.sampled_from(Precision))
@example(frame_id=3, shape=(64, 64, 3), precision=Precision.FULL)
@example(frame_id=2**64 - 1, shape=(64, 64, 3), precision=Precision.HALF)
def test_edge_serve_answers_every_upload(edge_setup, record3, frame_id, shape, precision):
    # only an upload of the record's frame id and frame shape is trained on
    edge, student, _ = edge_setup
    edge = EdgeNode(edge.oracle, student)
    frame = Tensor(np.random.Generator(np.random.PCG64(frame_id % 1000))
                   .uniform(0, 1, shape).astype(np.float32))
    reply = decode_message(edge.serve(encode_message(FrameUpload(frame_id, frame, precision)),
                                      record3))
    assert isinstance(reply, (WeightUpdate, Ack))
    assert reply.frame_id == frame_id
    if frame_id != 3 or shape != (64, 64, 3):
        assert reply == Ack(frame_id, AckStatus.ERROR)
    else:
        assert isinstance(reply, WeightUpdate)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.one_of(
    st.binary(max_size=80),
    st.builds(lambda mtype, body: struct.pack("<4sBI", b"EKTP", mtype, len(body)) + body,
              st.integers(0, 4), st.binary(max_size=80))))
def test_edge_serve_answers_any_bytes(edge_setup, record3, data):
    edge, student, _ = edge_setup
    edge = EdgeNode(edge.oracle, student)
    assert isinstance(decode_message(edge.serve(data, record3)), (WeightUpdate, Ack))


@pytest.mark.parametrize("frame_of", [6, 7])
def test_edge_serve_refuses_an_upload_of_another_frame(edge_setup, frame_of):
    # an upload named frame 7 (its own bytes, or frame 6's) is not the record's
    edge, student, stream = edge_setup
    edge = EdgeNode(edge.oracle, student)
    record = _record(edge.oracle, student, stream, 6)
    data = encode_message(FrameUpload(7, stream.frame_at(frame_of)))
    assert decode_message(edge.serve(data, record)) == Ack(7, AckStatus.ERROR)
    assert edge.clone is student


def test_edge_reply_beyond_half_range_is_error_ack(edge_setup):
    edge, student, stream = edge_setup
    huge = DecoderWeights(version=student.version + 1, blocks=tuple(
        Tensor(np.full(b.shape, 1e5, np.float32)) for b in student.adaptive_blocks))
    edge = EdgeNode(edge.oracle, swap_decoder(student, huge))
    half = _serve(edge, student, stream, 3, Precision.HALF)
    assert half == Ack(3, AckStatus.ERROR)
    assert edge.clone.version == huge.version  # a failed reply leaves the clone as it was
    full = _serve(edge, student, stream, 3)
    assert isinstance(full, WeightUpdate)
    assert full.weights.version == huge.version + 1


def test_edge_half_precision_trains_on_rounded_frame():
    cfg = ModelConfig()
    oracle = OracleModel(cfg)
    student = StudentModel.pretrained(cfg)
    stream = SceneStream(fixed_cam_default(duration=40))
    edge = EdgeNode(oracle, student)
    frame = stream.frame_at(3)
    reply = _serve(edge, student, stream, 3, Precision.HALF)

    rounded = f16_decode(f16_encode(frame), frame.shape)
    expected, _ = adapt_decoder(student, student.head_inputs(rounded),
                                oracle.forward(rounded, stream.truth_at(3)))
    # reply blocks are additionally f16-rounded on the wire (symmetric tags)
    for got, exp in zip(reply.weights.blocks, expected.blocks):
        assert got == f16_decode(f16_encode(exp), exp.shape)


def test_edge_serve_extracts_features_once(edge_setup, count_calls):
    # a rounded frame is not the record's, so its features are extracted here
    edge, student, stream = edge_setup
    edge = EdgeNode(edge.oracle, edge.clone)
    record = _record(edge.oracle, student, stream, 4)
    features = count_calls(StudentModel, "features")
    reply = decode_message(edge.serve(encode_message(
        FrameUpload(4, record.frame, Precision.HALF)), record))
    assert isinstance(reply, WeightUpdate)
    assert len(features) == 1


def test_lt_run_extracts_features_once_per_frame(count_calls):
    script = fixed_cam_default(duration=12)
    features = count_calls(StudentModel, "features")
    StudentModel.pretrained(ModelConfig(input_hw=script.size))
    pretraining = len(features)
    features.clear()
    report = run_named_scenario("lt", script, kfs=False)
    assert report.swap_log  # local jobs ran
    # serving extracts once per frame and a local job reuses that extraction
    assert len(features) == pretraining + 12


def test_network_run_extracts_and_scores_each_frame_once(count_calls):
    script = fixed_cam_default(duration=12)
    features = count_calls(StudentModel, "features")
    oracle = count_calls(OracleModel, "forward")
    StudentModel.pretrained(ModelConfig(input_hw=script.size))
    pretraining = (len(features), len(oracle))
    features.clear()
    oracle.clear()
    report = run_named_scenario("nt-lan", script, kfs=False)
    assert len(report.key_frame_indices) == 12  # every frame went to the edge
    # the edge reuses the frame record for each byte-equal full-precision upload
    assert len(features) == pretraining[0] + 12
    assert len(oracle) == pretraining[1] + 12


@pytest.mark.parametrize("precision", list(Precision))
def test_edge_serve_with_record_returns_the_same_bytes(edge_setup, precision, count_calls):
    edge, student, stream = edge_setup
    clone = edge.clone
    record = _record(edge.oracle, student, stream, 6)
    # the reply computed directly from the frame the edge receives
    frame = record.frame
    if precision is Precision.HALF:
        frame = f16_decode(f16_encode(frame), frame.shape)
    oracle_out = edge.oracle.forward(frame, stream.truth_at(6))
    inputs = clone.head_inputs(frame)
    weights, loss = adapt_decoder(clone, inputs, oracle_out)
    expected = encode_message(WeightUpdate(6, replace(weights, precision=precision), loss))
    features = count_calls(StudentModel, "features")
    oracle = count_calls(OracleModel, "forward")
    data = encode_message(FrameUpload(6, record.frame, precision))
    assert EdgeNode(edge.oracle, clone).serve(data, record) == expected
    # a full-precision upload is the record's frame; a rounded one is not
    reused = precision is Precision.FULL
    assert (len(features), len(oracle)) == ((0, 0) if reused else (1, 1))


@pytest.mark.parametrize("steps", [1, 7, None])
def test_edge_adaptation_runs_one_adam_update_per_step(edge_setup, monkeypatch, steps,
                                                       count_calls):
    edge, student, stream = edge_setup
    edge = EdgeNode(edge.oracle, edge.clone)
    if steps is None:
        steps = ADAPT_STEPS  # the edge's own policy
    else:
        # pin the step count the edge's adaptation call runs
        monkeypatch.setattr(models, "ADAPT_STEPS", steps)
    adam = count_calls(models, "adam_step")
    gradients = count_calls(models, "distill_gradients")
    reply = _serve(edge, student, stream, 5)
    assert isinstance(reply, WeightUpdate)
    assert len(adam) == steps
    assert len(gradients) == steps


# -- scenario contracts -------------------------------------------------------------

def test_no_training_never_dispatches(short_script):
    report = run_named_scenario("shallow", short_script, seed=0)
    assert report.key_frame_indices == []
    assert report.energy_by_activity["Transmit"]["seconds"] == 0.0
    assert report.energy_by_activity["TrainLocal"]["seconds"] == 0.0
    assert all(v == 1 for v in report.version_trace)


def test_without_kfs_trains_every_free_frame(short_script):
    report = run_named_scenario("nt-lan", short_script, seed=0, kfs=False)
    keys = report.key_frame_indices
    # every frame arriving while not busy dispatches; with a sub-period
    # round trip that is every frame
    assert len(keys) >= 0.9 * short_script.duration_frames


def test_deterministic_reports(short_script):
    a = run_named_scenario("nt-lan", short_script, seed=3)
    b = run_named_scenario("nt-lan", short_script, seed=3)
    assert emit_report(a, "json") == emit_report(b, "json")


def test_versions_monotone_and_single_per_frame(short_script):
    report = run_named_scenario("nt-lan", short_script, seed=0)
    versions = report.version_trace
    assert all(b >= a for a, b in zip(versions, versions[1:]))
    assert len(versions) == short_script.duration_frames
    # every completed adaptation bumped the version by exactly one
    swap_versions = [e["version"] for e in report.swap_log]
    assert swap_versions == sorted(set(swap_versions))


def test_every_frame_served_during_training(short_script):
    # liveness: detections recorded for all frames even while jobs run
    report = run_named_scenario("lt", short_script, seed=0)
    assert len(report.f1_trace) == short_script.duration_frames
    assert len(report.inference_trace) == short_script.duration_frames


def test_local_job_ledger_arithmetic(short_script):
    report = run_named_scenario("lt", short_script, seed=0)
    n_jobs = len(report.swap_log)
    assert n_jobs > 0
    cfg = ModelConfig(input_hw=short_script.size)
    student = StudentModel.pretrained(cfg)
    oracle = OracleModel(cfg)
    oracle_s = oracle.mac_count() * OP_SECONDS
    train_s = student.adaptation_mac_count() * OP_SECONDS
    assert report.energy_by_activity["OracleLocal"]["seconds"] == pytest.approx(n_jobs * oracle_s)
    assert report.energy_by_activity["TrainLocal"]["seconds"] == pytest.approx(n_jobs * train_s)
    # one local job charges oracle time plus per-step training time in total
    per_job = (report.energy_by_activity["OracleLocal"]["seconds"]
               + report.energy_by_activity["TrainLocal"]["seconds"]) / n_jobs
    assert per_job == pytest.approx(oracle_s + train_s)


def test_nt_round_trip_faster_than_lt_job(short_script):
    nt = run_named_scenario("nt-lan", short_script, seed=0)
    lt = run_named_scenario("lt", short_script, seed=0)
    assert nt.mean_training_s < lt.mean_training_s
    # LAN has no jitter: the round trip equals uplink + edge compute + downlink
    cfg = ModelConfig(input_hw=short_script.size)
    student = StudentModel.pretrained(cfg)
    oracle = OracleModel(cfg)
    edge_s = ((oracle.mac_count() + student.adaptation_mac_count()) * OP_SECONDS
              / harness.EDGE_SPEED)
    assert nt.mean_training_s > edge_s  # plus both transmission legs


def test_zero_cost_channel_matches_local_training(short_script, monkeypatch):
    monkeypatch.setattr(harness, "EDGE_SPEED", 1.0)  # the edge trains as fast as the user
    lt, nt = run_scenario([ScenarioConfig(mode=Mode.LOCAL, seed=1),
                           ScenarioConfig(mode=Mode.NETWORK, channel=zero_cost_config(),
                                          seed=1)], short_script, ["lt", "nt"])
    assert lt.key_frame_indices == nt.key_frame_indices
    assert [e["checksum"] for e in lt.swap_log] == [e["checksum"] for e in nt.swap_log]


def test_only_network_runs_build_an_edge_node(count_calls):
    built = count_calls(harness, "EdgeNode")
    script = fixed_cam_default(duration=12)
    assert run_named_scenario("lt", script, kfs=False).swap_log  # local jobs ran
    assert not built
    run_named_scenario("nt-lan", script, kfs=False)
    assert len(built) == 1
