"""One training-job lifecycle: how a failed or stale job ends, and how many
wire messages a network job encodes and decodes."""

import dataclasses
import logging
import warnings
from collections import Counter

import numpy as np
import pytest

from edgekt import harness, netproto, runtime
from edgekt.detection import DetectionTensorSet
from edgekt.harness import run_named_scenario
from edgekt.netproto import decode_message, encode_message
from edgekt.runtime import EdgeNode
from edgekt.scenegen import fixed_cam_default


@pytest.fixture(scope="module")
def script():
    return fixed_cam_default(duration=40)


def _fail_on_call(fn, n):
    """Wrap ``fn`` so that its ``n``-th call raises ValueError."""
    count = 0

    def wrapper(*args, **kwargs):
        nonlocal count
        count += 1
        if count == n:
            raise ValueError("injected failure")
        return fn(*args, **kwargs)
    return wrapper


def _assert_job_dropped(report, caplog, frame_id, warning):
    """The job for ``frame_id`` was logged as ``warning``, neither swapped in
    nor timed, and released the busy gate for a later job that was."""
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warning in warnings
    swapped = [e["frame_id"] for e in report.swap_log]
    assert frame_id not in swapped
    timed = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert not any(m.startswith(f"job for frame {frame_id} ") for m in timed)
    later = [k for k in report.key_frame_indices if k > frame_id]
    assert later and later[0] in swapped
    assert any(m.startswith(f"job for frame {later[0]} ") for m in timed)


def test_failed_local_job_is_logged_and_releases_gate(script, monkeypatch, caplog):
    caplog.set_level(logging.DEBUG, logger="edgekt.harness")
    monkeypatch.setattr(harness, "adapt_decoder", _fail_on_call(harness.adapt_decoder, 2))
    report = run_named_scenario("lt", script, seed=0)
    failed = report.key_frame_indices[1]
    _assert_job_dropped(report, caplog, failed, f"training job failed on frame {failed}")


def test_overflowing_local_adaptation_is_a_failed_job(script, monkeypatch, caplog):
    caplog.set_level(logging.DEBUG, logger="edgekt.harness")
    adapt, calls = harness.adapt_decoder, []

    def overflow_second_target(model, inputs, oracle_out, **kwargs):
        # the second job distills towards a target near the float32 maximum
        calls.append(1)
        if len(calls) == 2:
            oracle_out = DetectionTensorSet(np.full(oracle_out.cells.shape, 3e38, np.float32))
        return adapt(model, inputs, oracle_out, **kwargs)

    monkeypatch.setattr(harness, "adapt_decoder", overflow_second_target)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning escapes the run
        report = run_named_scenario("lt", script, seed=0)
    failed = report.key_frame_indices[1]
    _assert_job_dropped(report, caplog, failed, f"training job failed on frame {failed}")


def test_edge_error_ack_is_logged_and_releases_gate(script, monkeypatch, caplog):
    caplog.set_level(logging.DEBUG, logger="edgekt.harness")
    # the edge answers a failed adaptation with an error Ack
    monkeypatch.setattr(runtime, "adapt_decoder", _fail_on_call(runtime.adapt_decoder, 2))
    report = run_named_scenario("nt-lan", script, seed=0)
    failed = report.key_frame_indices[1]
    _assert_job_dropped(report, caplog, failed, f"training job failed on frame {failed}")


def test_stale_reply_raises(script, monkeypatch):
    # one job is in flight and every reply is swapped in before the next
    # dispatch, so the edge's clone is the serving student at each dispatch:
    # a reply that is not newer than it is a program fault
    serve, calls = EdgeNode.serve, Counter()

    def stale_second_reply(self, data, record):
        calls["serve"] += 1
        reply = serve(self, data, record)
        if calls["serve"] != 2:
            return reply
        m = decode_message(reply)
        # version 1 is the pretrained student's, never newer than the user's
        return encode_message(dataclasses.replace(
            m, weights=dataclasses.replace(m.weights, version=1)))

    monkeypatch.setattr(EdgeNode, "serve", stale_second_reply)
    with pytest.raises(RuntimeError, match=r"^stale weight update v1 for frame \d+: "
                                           r"the serving student is v2$"):
        run_named_scenario("nt-lan", script, seed=0)
    assert calls["serve"] == 2


def test_network_job_encodes_three_and_decodes_two_messages(monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    originals = {name: getattr(netproto, name) for name in ("encode_message", "decode_message")}
    for module in (netproto, runtime, harness):
        for name, fn in originals.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, fn))
    report = run_named_scenario("nt-lan", fixed_cam_default(duration=12), seed=0, kfs=False)
    jobs = len(report.key_frame_indices)
    assert jobs > 0 and len(report.swap_log) == jobs
    # upload once (uplink), reply once (edge) and once more (downlink);
    # the edge decodes the upload and the harness decodes the reply
    assert calls == {"encode_message": 3 * jobs, "decode_message": 2 * jobs}


def test_job_ending_at_a_frame_arrival_swaps_after_that_frame(monkeypatch):
    script = fixed_cam_default(duration=24)
    period = 1.0 / script.fps
    transmit = netproto.SimulatedChannel.transmit
    arrivals = []  # (frame index k the update lands on, its version)

    def land_on_next_frame(self, m, now):
        res = transmit(self, m, now)
        if not isinstance(m, netproto.WeightUpdate):
            return res
        k = int(now // period) + 1
        arrivals.append((k, m.weights.version))
        return dataclasses.replace(res, delivery_time=k * period)

    monkeypatch.setattr(netproto.SimulatedChannel, "transmit", land_on_next_frame)
    report = run_named_scenario("nt-lan", script, seed=0, kfs=False)
    checked = [(k, v) for k, v in arrivals if k + 1 < script.duration_frames]
    assert len(checked) >= 3
    for k, version in checked:
        # frame k arrives as the update does and is served by the old decoder
        assert report.version_trace[k] == version - 1
        assert report.version_trace[k + 1] == version
