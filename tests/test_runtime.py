import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgekt import harness, models
from edgekt.harness import OP_SECONDS, run_named_scenario, run_scenario
from edgekt.models import (ADAPT_STEPS, DecoderWeights, ModelConfig, OracleModel, Precision,
                           StudentModel, adapt_decoder, swap_decoder)
from edgekt.netproto import (Ack, AckStatus, ChannelConfig, FrameUpload, LognormalJitter,
                             WeightUpdate, decode_message, encode_message, lan_config,
                             zero_cost_config)
from edgekt.runtime import ConfigError, EdgeNode, Mode, ScenarioConfig
from edgekt.scenegen import SceneStream, fixed_cam_default
from edgekt.tensor import Tensor, f16_decode, f16_encode


@pytest.fixture(scope="module")
def short_script():
    return fixed_cam_default(duration=120)


@pytest.fixture(scope="module")
def edge_setup():
    cfg = ModelConfig()
    oracle = OracleModel(cfg, seed=7)
    student = StudentModel.pretrained(cfg, seed=7)
    stream = SceneStream(fixed_cam_default(duration=40))
    edge = EdgeNode(oracle, student, stream.truth_at)
    return edge, student, stream


# -- config ----------------------------------------------------------------------

def test_network_mode_requires_channel():
    with pytest.raises(ConfigError):
        ScenarioConfig(mode=Mode.NETWORK)


@pytest.mark.parametrize("build, field", [
    (lambda: ScenarioConfig(seed=-1), "seed"),
    (lambda: ChannelConfig(1e6, base_latency_s=float("nan")), "base_latency_s"),
    (lambda: ChannelConfig(1e6, base_latency_s=float("inf")), "base_latency_s"),
    (lambda: ChannelConfig(1e6, seed=-1), "channel seed"),
    (lambda: LognormalJitter(median_s=-0.005, sigma_log=0.5), "median_s"),
    (lambda: LognormalJitter(median_s=0.0, sigma_log=0.5), "median_s"),
    (lambda: LognormalJitter(median_s=float("inf"), sigma_log=0.5), "median_s"),
    (lambda: LognormalJitter(median_s=0.005, sigma_log=float("nan")), "sigma_log"),
    (lambda: LognormalJitter(median_s=0.005, sigma_log=-1.0), "sigma_log"),
], ids=["seed_-1", "latency_nan", "latency_inf", "channel_seed_-1", "median_negative",
        "median_0", "median_inf", "sigma_log_nan", "sigma_log_negative"])
def test_config_values_that_cannot_run_are_rejected_at_construction(build, field):
    # each of these used to construct and then fail mid-run or in the report
    with pytest.raises(ValueError, match=field):
        build()


def test_mode_accepts_strings():
    cfg = ScenarioConfig(mode="local")
    assert cfg.mode is Mode.LOCAL
    cfg = ScenarioConfig(mode="network", channel=lan_config(0), precision="half")
    assert cfg.precision is Precision.HALF


# -- edge node -------------------------------------------------------------------

def test_edge_serve_returns_weight_update(edge_setup):
    edge, student, stream = edge_setup
    frame = stream.frame_at(0)
    reply = decode_message(edge.serve(encode_message(FrameUpload(0, frame))))
    assert isinstance(reply, WeightUpdate)
    assert reply.frame_id == 0
    assert reply.weights.version == student.version + 1
    # the clone advanced in place and the reply matches it exactly
    assert edge.clone.version == reply.weights.version
    assert tuple(edge.clone.adaptive_blocks) == tuple(reply.weights.blocks)


def test_edge_serve_fifo_versions(edge_setup):
    edge, _, stream = edge_setup
    versions = []
    for i in (1, 2):
        reply = decode_message(edge.serve(encode_message(
            FrameUpload(i, stream.frame_at(i)))))
        assert reply.frame_id == i
        versions.append(reply.weights.version)
    assert versions == sorted(versions)
    assert versions[0] < versions[1]
    assert edge.clone.version == versions[-1]


def test_edge_serve_malformed_returns_error_ack(edge_setup):
    edge, _, _ = edge_setup
    reply = decode_message(edge.serve(b"garbage-bytes"))
    assert isinstance(reply, Ack)
    assert reply.status == AckStatus.ERROR


def test_edge_serve_wrong_message_type(edge_setup):
    edge, _, _ = edge_setup
    reply = decode_message(edge.serve(encode_message(Ack(5, AckStatus.OK))))
    assert isinstance(reply, Ack)
    assert reply.status == AckStatus.ERROR


_SHORT_STREAM = SceneStream(fixed_cam_default(duration=12))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(frame_id=st.one_of(st.integers(0, 11), st.integers(0, 2**64 - 1)),
       shape=st.one_of(st.just((64, 64, 3)),
                       st.lists(st.integers(0, 5), min_size=1, max_size=4).map(tuple)),
       precision=st.sampled_from(Precision))
@example(frame_id=10**6, shape=(64, 64, 3), precision=Precision.FULL)
@example(frame_id=2**64 - 1, shape=(64, 64, 3), precision=Precision.HALF)
def test_edge_serve_answers_every_upload(edge_setup, frame_id, shape, precision):
    # an id outside the 12-frame stream has no truth, and gets an error Ack
    edge, student, _ = edge_setup
    edge = EdgeNode(edge.oracle, student, _SHORT_STREAM.truth_at)
    frame = Tensor(np.random.Generator(np.random.PCG64(frame_id % 1000))
                   .uniform(0, 1, shape).astype(np.float32))
    reply = decode_message(edge.serve(encode_message(FrameUpload(frame_id, frame, precision))))
    assert isinstance(reply, (WeightUpdate, Ack))
    assert reply.frame_id == frame_id
    if frame_id >= 12 or shape != (64, 64, 3):
        assert reply == Ack(frame_id, AckStatus.ERROR)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.one_of(
    st.binary(max_size=80),
    st.builds(lambda mtype, body: struct.pack("<4sBI", b"EKTP", mtype, len(body)) + body,
              st.integers(0, 4), st.binary(max_size=80))))
def test_edge_serve_answers_any_bytes(edge_setup, data):
    edge, student, _ = edge_setup
    edge = EdgeNode(edge.oracle, student, _SHORT_STREAM.truth_at)
    assert isinstance(decode_message(edge.serve(data)), (WeightUpdate, Ack))


def test_edge_reply_beyond_half_range_is_error_ack(edge_setup):
    edge, student, stream = edge_setup
    huge = DecoderWeights(version=student.version + 1, blocks=tuple(
        Tensor(np.full(b.shape, 1e5, np.float32)) for b in student.adaptive_blocks))
    edge = EdgeNode(edge.oracle, swap_decoder(student, huge), stream.truth_at)
    frame = stream.frame_at(3)
    half = decode_message(edge.serve(encode_message(
        FrameUpload(3, frame, Precision.HALF))))
    assert half == Ack(3, AckStatus.ERROR)
    assert edge.clone.version == huge.version  # a failed reply leaves the clone as it was
    full = decode_message(edge.serve(encode_message(FrameUpload(3, frame))))
    assert isinstance(full, WeightUpdate)
    assert full.weights.version == huge.version + 1


def test_edge_half_precision_trains_on_rounded_frame():
    cfg = ModelConfig()
    oracle = OracleModel(cfg, seed=7)
    student = StudentModel.pretrained(cfg, seed=7)
    stream = SceneStream(fixed_cam_default(duration=40))
    edge = EdgeNode(oracle, student, stream.truth_at)
    frame = stream.frame_at(3)
    upload = FrameUpload(3, frame, Precision.HALF)
    reply = decode_message(edge.serve(encode_message(upload)))

    rounded = f16_decode(f16_encode(frame), frame.shape)
    expected = adapt_decoder(student, student.head_inputs(rounded),
                             oracle.forward(rounded, stream.truth_at(3)))
    # reply blocks are additionally f16-rounded on the wire (symmetric tags)
    for got, exp in zip(reply.weights.blocks, expected.blocks):
        assert got == f16_decode(f16_encode(exp), exp.shape)


def _counted(monkeypatch, owner, name):
    """Replace ``owner.name`` with a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_edge_serve_extracts_features_once(edge_setup, monkeypatch):
    edge, _, stream = edge_setup
    edge = EdgeNode(edge.oracle, edge.clone, stream.truth_at)
    features = _counted(monkeypatch, StudentModel, "features")
    reply = decode_message(edge.serve(encode_message(
        FrameUpload(4, stream.frame_at(4)))))
    assert isinstance(reply, WeightUpdate)
    assert len(features) == 1


def test_lt_run_extracts_features_once_per_frame(monkeypatch):
    script = fixed_cam_default(duration=12)
    features = _counted(monkeypatch, StudentModel, "features")
    StudentModel.pretrained(ModelConfig(input_hw=script.size), seed=harness.MODEL_SEED)
    pretraining = len(features)
    features.clear()
    report = run_named_scenario("lt", script, kfs=False)
    assert report.swap_log  # local jobs ran
    # serving extracts once per frame and a local job reuses that extraction
    assert len(features) == pretraining + 12


def test_network_run_extracts_and_scores_each_frame_once(monkeypatch):
    script = fixed_cam_default(duration=12)
    features = _counted(monkeypatch, StudentModel, "features")
    oracle = _counted(monkeypatch, OracleModel, "forward")
    StudentModel.pretrained(ModelConfig(input_hw=script.size), seed=harness.MODEL_SEED)
    pretraining = (len(features), len(oracle))
    features.clear()
    oracle.clear()
    report = run_named_scenario("nt-lan", script, kfs=False)
    assert len(report.key_frame_indices) == 12  # every frame went to the edge
    # the edge reuses the frame record for each byte-equal full-precision upload
    assert len(features) == pretraining[0] + 12
    assert len(oracle) == pretraining[1] + 12


@pytest.mark.parametrize("precision", list(Precision))
def test_edge_serve_with_record_returns_the_same_bytes(edge_setup, precision, monkeypatch):
    edge, student, stream = edge_setup
    frame = stream.frame_at(6)
    record = harness.FrameRecord(index=6, frame=frame,
                                 oracle_out=edge.oracle.forward(frame, stream.truth_at(6)),
                                 candidates=(), gt_boxes=(), student=student)
    record.head_inputs  # extracted when the user node served the frame
    data = encode_message(FrameUpload(6, frame, precision))
    expected = EdgeNode(edge.oracle, edge.clone, stream.truth_at).serve(data)
    features = _counted(monkeypatch, StudentModel, "features")
    oracle = _counted(monkeypatch, OracleModel, "forward")
    assert EdgeNode(edge.oracle, edge.clone, stream.truth_at).serve(data, record) == expected
    # a full-precision upload is the record's frame; a rounded one is not
    reused = precision is Precision.FULL
    assert (len(features), len(oracle)) == ((0, 0) if reused else (1, 1))
    # the record is only taken for its own frame id
    other = encode_message(FrameUpload(7, stream.frame_at(7), precision))
    assert (EdgeNode(edge.oracle, edge.clone, stream.truth_at).serve(other, record)
            == EdgeNode(edge.oracle, edge.clone, stream.truth_at).serve(other))


@pytest.mark.parametrize("steps", [1, 7, None])
def test_edge_adaptation_runs_one_adam_update_per_step(edge_setup, monkeypatch, steps):
    edge, _, stream = edge_setup
    edge = EdgeNode(edge.oracle, edge.clone, stream.truth_at)
    if steps is None:
        steps = ADAPT_STEPS  # the edge's own policy
    else:
        # pin the step count the edge's adaptation call runs
        monkeypatch.setattr(models, "ADAPT_STEPS", steps)
    adam = _counted(monkeypatch, models, "adam_step")
    gradients = _counted(monkeypatch, models, "distill_gradients")
    reply = decode_message(edge.serve(encode_message(
        FrameUpload(5, stream.frame_at(5)))))
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
    assert a.to_json() == b.to_json()


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
    student = StudentModel.pretrained(cfg, seed=7)
    oracle = OracleModel(cfg, seed=7)
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
    student = StudentModel.pretrained(cfg, seed=7)
    oracle = OracleModel(cfg, seed=7)
    edge_s = ((oracle.mac_count() + student.adaptation_mac_count()) * OP_SECONDS
              / harness.EDGE_SPEED)
    assert nt.mean_training_s > edge_s  # plus both transmission legs


def test_zero_cost_channel_matches_local_training(short_script, monkeypatch):
    monkeypatch.setattr(harness, "EDGE_SPEED", 1.0)  # the edge trains as fast as the user
    lt, nt = run_scenario([ScenarioConfig(mode=Mode.LOCAL, seed=1),
                           ScenarioConfig(mode=Mode.NETWORK, channel=zero_cost_config(1),
                                          seed=1)], short_script)
    assert lt.key_frame_indices == nt.key_frame_indices
    assert [e["checksum"] for e in lt.swap_log] == [e["checksum"] for e in nt.swap_log]


def test_only_network_runs_build_an_edge_node(monkeypatch):
    built = _counted(monkeypatch, harness, "EdgeNode")
    script = fixed_cam_default(duration=12)
    assert run_named_scenario("lt", script, kfs=False).swap_log  # local jobs ran
    assert built == []
    run_named_scenario("nt-lan", script, kfs=False)
    assert len(built) == 1
