"""The forked renderer behind ``SceneStream.events()``: its frames and
stage results equal in-process work under every split of the stages, its
process is always reaped, and a render or stage error surfaces in the
consuming process at its frame."""

import hashlib
import os
import signal
import sys
from contextlib import closing

import numpy as np
import pytest

from edgekt import harness, scenegen
from edgekt.harness import emit_report, run_named_scenario
from edgekt.detection import CHANNELS, GRID_CELLS, GRIDS
from edgekt.models import ModelConfig, OracleModel, StudentModel
from edgekt.scenegen import (ObjectSpec, SceneScript, SceneStream, Shift, fixed_cam_default,
                             moving_cam_default, pretrain_script, render_frame)

# the values of scenegen._AHEAD_FRAMES that split the stages three ways: by
# the renderer's slack, always in the renderer, never in it
SPLITS = {"slack": scenegen._AHEAD_FRAMES, "always": 0, "never": sys.maxsize}

# 128x128 with every trajectory kind, a panning camera, texture drift, noise
# breath and a shift of both objects and background
_EVERY_KIND = SceneScript(
    name="every_kind", regime="moving_camera", duration_frames=12, size=128, fps=4.0,
    objects=(ObjectSpec(0, 0.2, 0.2, {"kind": "static", "x": 0.3, "y": 0.3}),
             ObjectSpec(1, 0.2, 0.15, {"kind": "linear", "x": 0.5, "y": 0.5,
                                       "vx": 0.03, "vy": -0.01}),
             ObjectSpec(2, 0.15, 0.2, {"kind": "orbit", "cx": 0.5, "cy": 0.5, "omega": 0.4}),
             ObjectSpec(0, 0.1, 0.1, {"kind": "scatter"})),
    shifts=(Shift(frame_index=6, objects=(ObjectSpec(1, 0.3, 0.3, {"kind": "scatter"}),),
                  background=2),),
    noise_level=0.01, noise_breath=0.5, noise_breath_period=5.0, texture_drift_period=2,
    seed=9)


def _digest_stage(frame, truth):
    """A pure stage whose result pins the frame and truth it was given."""
    return hashlib.sha256(frame.tobytes()).hexdigest(), truth


def _exists(pid):
    try:
        os.kill(pid, 0)  # a finished, unreaped child still exists
    except ProcessLookupError:
        return False
    return True


def _assert_reaped(pid):
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


@pytest.fixture
def renderer_pids(monkeypatch):
    """The pid of every renderer forked during the test; forking one while
    an earlier one still exists fails the test."""
    pids, fork = [], os.fork

    def recording_fork():
        assert not any(_exists(p) for p in pids), "a renderer forked while another exists"
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


@pytest.mark.parametrize("script", [fixed_cam_default(), moving_cam_default(),
                                    pretrain_script(), _EVERY_KIND],
                         ids=["fixed_cam_default", "moving_cam_default", "pretrain_generic",
                              "every_kind_128px"])
def test_events_equal_in_process_rendering(monkeypatch, renderer_pids, script):
    stream = SceneStream(script)
    rendered_here = []
    frame_at = SceneStream.frame_at
    monkeypatch.setattr(SceneStream, "frame_at",
                        lambda self, i: rendered_here.append(i) or frame_at(self, i))
    with closing(stream.events(_digest_stage)) as events:
        for i, (frame, truth, result) in enumerate(events):
            assert frame.tobytes() == render_frame(script, i).tobytes()
            assert truth == stream.truth_at(i)
            assert result == _digest_stage(render_frame(script, i), truth)
    assert i == stream.script.duration_frames - 1
    assert rendered_here == []  # every frame came from the renderer
    assert len(renderer_pids) == 1
    _assert_reaped(renderer_pids[0])


def _record_digest(fields):
    """One frame record's bytes, values, types and array flags."""
    h = hashlib.sha256(fields["frame"].tobytes())
    h.update(repr([fields[key] for key in ("index", "truth", "candidates", "gt_boxes")]).encode())
    bases, ada_x = fields["head_inputs"]
    for a in (*fields["oracle_out"].scales, *bases, *ada_x):
        h.update(a.tobytes())
        h.update(repr((a.dtype, a.shape, a.flags.writeable)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("script", [fixed_cam_default(), moving_cam_default(), _EVERY_KIND],
                         ids=["fixed_cam_default", "moving_cam_default", "every_kind_128px"])
def test_records_equal_under_every_split(monkeypatch, script):
    parent, record = os.getpid(), harness.FrameRecord
    head_inputs = StudentModel.head_inputs

    def run(ahead):
        """The run's record digests and report, and the frames whose stage
        ran in this process."""
        digests, ran_here = [], []
        monkeypatch.setattr(scenegen, "_AHEAD_FRAMES", ahead)
        monkeypatch.setattr(harness, "FrameRecord", lambda **fields: (
            digests.append(_record_digest(fields)) or record(**fields)))
        # the stage is the one caller of head_inputs in a shallow run
        monkeypatch.setattr(StudentModel, "head_inputs", lambda self, frame: (
            os.getpid() == parent and ran_here.append(len(digests)) or head_inputs(self, frame)))
        report = emit_report(run_named_scenario("shallow", script))
        return digests, report, ran_here

    n = script.duration_frames
    never = run(SPLITS["never"])
    assert len(never[0]) == n and never[2] == list(range(n))
    always = run(SPLITS["always"])
    assert always[:2] == never[:2] and always[2] == []
    slack = run(SPLITS["slack"])
    assert slack[:2] == never[:2]


def test_stage_error_surfaces_in_the_parent_at_its_frame(monkeypatch, renderer_pids):
    monkeypatch.setattr(scenegen, "_AHEAD_FRAMES", SPLITS["always"])
    script, parent = fixed_cam_default(duration=12), os.getpid()
    index = {render_frame(script, i).tobytes(): i for i in range(12)}
    ran_here, got = [], []

    def stage(frame, truth):  # runs in the renderer first
        i = index[frame.tobytes()]
        if os.getpid() == parent:
            ran_here.append(i)
        if i == 3:
            raise ArithmeticError("no stage 3")
        return i
    with pytest.raises(ArithmeticError, match="no stage 3"):
        for _, _, result in SceneStream(script).events(stage):
            got.append(result)
    assert got == [0, 1, 2]
    assert ran_here == [3]  # the stages of frames 0-2 came through the pipe
    assert len(renderer_pids) == 1
    _assert_reaped(renderer_pids[0])


def test_a_result_cut_short_falls_back_to_the_consumer(monkeypatch, renderer_pids):
    monkeypatch.setattr(scenegen, "_AHEAD_FRAMES", SPLITS["always"])
    script, parent = fixed_cam_default(duration=12), os.getpid()
    write_all, sent = scenegen._write_all, []

    def cutting(fd, data):  # the renderer inherits this patch
        if os.getpid() != parent and isinstance(data, bytes) and data[0] == 1:
            sent.append(fd)
            if len(sent) == 4:  # frame 3's result: half of it, then the renderer dies
                write_all(fd, data[:len(data) // 2])
                os.kill(os.getpid(), signal.SIGKILL)
        write_all(fd, data)
    monkeypatch.setattr(scenegen, "_write_all", cutting)
    ran_here, got = [], []

    def stage(frame, truth):
        if os.getpid() == parent:
            ran_here.append(len(got))
        return _digest_stage(frame, truth)
    stream = SceneStream(script)
    for frame, truth, result in stream.events(stage):
        assert frame.tobytes() == render_frame(script, len(got)).tobytes()
        got.append(result)
    assert got == [_digest_stage(render_frame(script, i), stream.truth_at(i))
                   for i in range(12)]
    assert ran_here == list(range(3, 12))
    assert len(renderer_pids) == 1
    _assert_reaped(renderer_pids[0])


def test_arrays_through_the_pipe_arrive_read_only(monkeypatch):
    monkeypatch.setattr(scenegen, "_AHEAD_FRAMES", SPLITS["always"])
    oracle, parent = OracleModel(ModelConfig(input_hw=64)), os.getpid()
    ran_here = []

    def stage(frame, truth):  # a fresh writeable array and a detection tensor set
        ran_here.append(os.getpid() == parent)
        return frame.array * 2, oracle.forward(frame, truth)
    with closing(SceneStream(fixed_cam_default(duration=6)).events(stage)) as events:
        for frame, truth, (doubled, out) in events:
            assert np.array_equal(doubled, frame.array * 2)
            assert out.cells.tobytes() == oracle.forward(frame, truth).cells.tobytes()
            # the detection tensor set's invariants hold on what arrived
            assert (out.cells.dtype, out.cells.shape) == (np.float32, (GRID_CELLS, CHANNELS))
            assert [a.shape for a in out.scales] == [(g, g, CHANNELS) for g in GRIDS]
            for a in (doubled, out.cells, *out.scales):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a.flat[0] = 0.0
    assert ran_here == []  # every result came through the pipe


def test_renderer_reaped_after_an_early_close(monkeypatch, renderer_pids):
    for ahead in SPLITS.values():
        monkeypatch.setattr(scenegen, "_AHEAD_FRAMES", ahead)
        events = SceneStream(fixed_cam_default()).events(_digest_stage)
        next(events)
        events.close()
    assert len(renderer_pids) == len(SPLITS)
    for pid in renderer_pids:
        _assert_reaped(pid)


def test_renderer_reaped_after_a_consumer_exception(monkeypatch, renderer_pids):
    record = harness.FrameRecord

    def failing(**fields):
        if fields["index"] == 3:
            raise KeyError("no record 3")
        return record(**fields)
    monkeypatch.setattr(harness, "FrameRecord", failing)
    with pytest.raises(KeyError, match="no record 3"):
        run_named_scenario("shallow", fixed_cam_default(duration=12))
    assert len(renderer_pids) == 2  # pretraining's, then the stream's
    for pid in renderer_pids:
        _assert_reaped(pid)


def test_render_error_surfaces_in_the_parent_at_its_frame(monkeypatch, renderer_pids):
    script, parent = fixed_cam_default(duration=12), os.getpid()
    rendered_here = []

    def failing(s, t):  # the renderer process inherits this patch
        if s is script and os.getpid() == parent:
            rendered_here.append(t)
        if s is script and t == 3:
            raise ArithmeticError("no frame 3")
        return render_frame(s, t)
    monkeypatch.setattr(scenegen, "render_frame", failing)
    with pytest.raises(ArithmeticError, match="no frame 3"):
        run_named_scenario("shallow", script)
    assert rendered_here == [3]  # frames 0-2 came through the pipe
    for pid in renderer_pids:
        _assert_reaped(pid)


@pytest.mark.parametrize("fork", ["missing", "failing"])
def test_events_render_in_process_without_a_fork(monkeypatch, fork):
    if fork == "missing":
        monkeypatch.delattr(os, "fork")
    else:
        def failing():
            raise BlockingIOError("no process to spare")
        monkeypatch.setattr(os, "fork", failing)
    stream = SceneStream(fixed_cam_default(duration=12))
    events = [(frame.tobytes(), result) for frame, _, result in stream.events(_digest_stage)]
    assert events == [(stream.frame_at(i).tobytes(),
                       _digest_stage(stream.frame_at(i), stream.truth_at(i))) for i in range(12)]
