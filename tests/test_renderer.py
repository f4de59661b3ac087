"""The forked renderer behind ``SceneStream.events()``: its frames equal
in-process rendering, its process is always reaped, and a render error
surfaces in the consuming process at its frame."""

import os
from contextlib import closing

import pytest

from edgekt import harness, scenegen
from edgekt.harness import run_named_scenario
from edgekt.scenegen import (ObjectSpec, SceneScript, SceneStream, Shift, fixed_cam_default,
                             moving_cam_default, pretrain_script, render_frame)

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
    with closing(stream.events()) as events:
        for i, ev in enumerate(events):
            assert ev.frame_id == i and ev.arrival_time == i * (1.0 / script.fps)
            assert ev.frame.tobytes() == render_frame(script, i).tobytes()
            assert ev.truth == stream.truth_at(i)
    assert i == len(stream) - 1
    assert rendered_here == []  # every frame came from the renderer
    assert len(renderer_pids) == 1
    _assert_reaped(renderer_pids[0])


def test_renderer_reaped_after_an_early_close(renderer_pids):
    events = SceneStream(fixed_cam_default()).events()
    next(events)
    events.close()
    assert len(renderer_pids) == 1
    _assert_reaped(renderer_pids[0])


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
    frames = [ev.frame.tobytes() for ev in stream.events()]
    assert frames == [stream.frame_at(i).tobytes() for i in range(12)]
