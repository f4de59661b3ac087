import json
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgekt.detection import decode_boxes, iou, nms
from edgekt.models import ModelConfig, OracleModel
from edgekt.scenegen import (_CLASS_COLORS, REGIMES, TRAJECTORY_KINDS, ObjectSpec,
                             SceneScript, SceneStream, Shift, fixed_cam_default,
                             moving_cam_default, pretrain_script, render_frame,
                             truth_boxes, write_ppm)
from edgekt.selector import scene_change_statistic


def _static_script(**overrides):
    params = dict(
        regime="fixed_camera", duration_frames=40, size=64, fps=4.0,
        objects=(ObjectSpec(0, 0.2, 0.2, {"kind": "static", "x": 0.5, "y": 0.5}),),
        noise_level=0.0, background=0, seed=3,
    )
    params.update(overrides)
    return SceneScript(**params)


def test_empty_object_list_has_empty_truth():
    script = _static_script(objects=())
    stream = SceneStream(script)
    assert all(stream.truth_at(i) == [] for i in range(len(stream)))


def test_static_scene_frames_identical():
    stream = SceneStream(_static_script())
    f0 = stream.frame_at(0)
    assert all(stream.frame_at(i) == f0 for i in range(1, 10))
    assert all(stream.truth_at(i) == stream.truth_at(0) for i in range(1, 10))


def test_generation_deterministic():
    a = list(SceneStream(_static_script(noise_level=0.02)).events())
    b = list(SceneStream(_static_script(noise_level=0.02)).events())
    assert all(x.frame == y.frame and x.truth == y.truth for x, y in zip(a, b))


def test_linear_trajectory_constant_velocity():
    script = _static_script(
        objects=(ObjectSpec(1, 0.2, 0.2, {"kind": "linear", "x": 0.3, "y": 0.3,
                                          "vx": 0.002, "vy": 0.001}),),
        duration_frames=30,
    )
    stream = SceneStream(script)
    for i in range(10):
        a, b = stream.truth_at(i)[0], stream.truth_at(i + 1)[0]
        assert b.x - a.x == pytest.approx(0.002, abs=1e-9)
        assert b.y - a.y == pytest.approx(0.001, abs=1e-9)


def test_shift_changes_class_set():
    new = (ObjectSpec(2, 0.2, 0.2, {"kind": "static", "x": 0.3, "y": 0.3}),
           ObjectSpec(1, 0.15, 0.15, {"kind": "static", "x": 0.7, "y": 0.7}))
    script = _static_script(duration_frames=60, shifts=(Shift(frame_index=30, objects=new),))
    stream = SceneStream(script)
    assert {b.class_id for b in stream.truth_at(29)} == {0}
    assert {b.class_id for b in stream.truth_at(30)} == {1, 2}


def test_shift_spikes_scene_change_statistic():
    new = (ObjectSpec(2, 0.3, 0.3, {"kind": "static", "x": 0.65, "y": 0.6}),)
    script = _static_script(duration_frames=120, noise_level=0.01,
                            shifts=(Shift(frame_index=100, objects=new, background=2),))
    stream = SceneStream(script)
    trailing = [scene_change_statistic(stream.frame_at(i + 1), stream.frame_at(i))
                for i in range(80, 99)]
    spike = scene_change_statistic(stream.frame_at(100), stream.frame_at(99))
    assert spike > 5 * statistics.mean(trailing)


def test_out_of_range_errors():
    stream = SceneStream(_static_script())
    with pytest.raises(IndexError):
        stream.truth_at(40)
    with pytest.raises(IndexError):
        stream.frame_at(-1)


def test_invalid_scripts_rejected():
    with pytest.raises(ValueError):
        _static_script(duration_frames=0)
    with pytest.raises(ValueError):
        _static_script(regime="drone")
    with pytest.raises(ValueError):
        _static_script(shifts=(Shift(frame_index=50, background=1),))  # beyond duration
    with pytest.raises(ValueError):
        _static_script(shifts=(Shift(frame_index=5, background=1),
                               Shift(frame_index=5, background=2)))
    with pytest.raises(ValueError):
        _static_script(objects=(ObjectSpec(0, 0.0, 0.2, {"kind": "static", "x": 0.5, "y": 0.5}),))


def test_frames_are_normalized():
    stream = SceneStream(fixed_cam_default())
    f = stream.frame_at(0)
    assert float(f.array.min()) >= 0.0 and float(f.array.max()) <= 1.0


def test_moving_camera_shifts_truth():
    script = moving_cam_default()
    stream = SceneStream(script)
    xs = [stream.truth_at(i)[0].x for i in range(0, 120, 10)]
    assert max(xs) - min(xs) > 0.02  # camera pan moves frame coordinates


def test_fixed_camera_calmer_than_moving():
    fixed = SceneStream(fixed_cam_default())
    moving = SceneStream(moving_cam_default())

    def mean_stat(stream):
        vals = []
        for i in range(0, 150, 3):
            vals.append(scene_change_statistic(stream.frame_at(i + 1), stream.frame_at(i)))
        return statistics.mean(vals)

    assert mean_stat(fixed) < mean_stat(moving)


def test_oracle_closure_on_presets():
    for script in (fixed_cam_default(), moving_cam_default(), pretrain_script()):
        cfg = ModelConfig(input_hw=script.size)
        oracle = OracleModel(cfg, seed=7)
        stream = SceneStream(script)
        for i in range(0, len(stream), max(1, len(stream) // 24)):
            frame, truth = stream.frame_at(i), stream.truth_at(i)
            decoded = nms(decode_boxes(oracle.forward(frame, truth), 0.5), 0.45)
            assert len(decoded) == len(truth)
            for t in truth:
                best = max(decoded, key=lambda d: iou(d, t))
                assert iou(best, t) >= 0.9
                assert best.class_id == t.class_id


def test_arrival_times_follow_fps():
    events = list(SceneStream(_static_script(duration_frames=5, fps=4.0)).events())
    assert [e.arrival_time for e in events] == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    assert [e.frame_id for e in events] == [0, 1, 2, 3, 4]


def test_script_json_round_trip(tmp_path):
    script = fixed_cam_default()
    path = tmp_path / "scene.json"
    script.save(str(path))
    loaded = SceneScript.load(str(path))
    assert loaded == script
    # document-style schema keys stay stable
    d = json.loads(path.read_text())
    assert {"regime", "duration_frames", "size", "objects", "shifts"} <= set(d)


def test_render_functions_pure():
    script = _static_script(noise_level=0.03)
    assert render_frame(script, 7) == render_frame(script, 7)
    assert truth_boxes(script, 7) == truth_boxes(script, 7)


def test_ppm_dump(tmp_path):
    frame = render_frame(_static_script(), 0)
    path = tmp_path / "frame.ppm"
    write_ppm(frame, str(path))
    data = path.read_bytes()
    assert data.startswith(b"P6\n64 64\n255\n")
    assert len(data) == len(b"P6\n64 64\n255\n") + 64 * 64 * 3


_unit = st.floats(0.0, 1.0)
_TRAJECTORIES = {
    "static": st.fixed_dictionaries({"x": _unit, "y": _unit}),
    "linear": st.fixed_dictionaries({"x": _unit, "y": _unit, "vx": st.floats(-0.1, 0.1),
                                     "vy": st.floats(-0.1, 0.1)}),
    "orbit": st.fixed_dictionaries({"cx": _unit, "cy": _unit, "radius": st.floats(0.0, 0.4),
                                    "omega": st.floats(-1.0, 1.0),
                                    "phase": st.floats(0.0, 6.3)}),
    "scatter": st.just({}),
}


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("kind", TRAJECTORY_KINDS)
@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_truth_box_centre_has_its_class_colour(kind, regime, data):
    trajectory = {"kind": kind, **data.draw(_TRAJECTORIES[kind])}
    obj = ObjectSpec(data.draw(st.integers(0, 2)), data.draw(st.floats(0.08, 0.5)),
                     data.draw(st.floats(0.08, 0.5)), trajectory)
    script = SceneScript(regime=regime, duration_frames=200,
                         size=data.draw(st.sampled_from([32, 64])), objects=(obj,),
                         noise_level=0.0, background=data.draw(st.integers(0, 2)),
                         seed=data.draw(st.integers(0, 1000)))
    t = data.draw(st.integers(0, script.duration_frames - 1))
    frame = render_frame(script, t).array
    for box in truth_boxes(script, t):
        pixel = frame[int(box.y * script.size), int(box.x * script.size)]
        colours = {tuple(np.float32(c)) for c in _CLASS_COLORS[box.class_id]}
        assert tuple(pixel) in colours
