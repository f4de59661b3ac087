import json
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgekt.detection import decode_boxes, iou, nms
from edgekt.models import ModelConfig, OracleModel
from edgekt.scenegen import (_CLASS_COLORS, REGIMES, TRAJECTORY_KINDS, ObjectSpec,
                             SceneScript, SceneStream, Shift, _background_pixels,
                             fixed_cam_default, moving_cam_default, pretrain_script,
                             render_frame, truth_boxes)
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
    assert all(stream.truth_at(i) == [] for i in range(stream.script.duration_frames))


def test_static_scene_frames_identical():
    stream = SceneStream(_static_script())
    f0 = stream.frame_at(0)
    assert all(stream.frame_at(i) == f0 for i in range(1, 10))
    assert all(stream.truth_at(i) == stream.truth_at(0) for i in range(1, 10))


def _truth_count(frame, truth):
    """A pure stage: the number of truth boxes."""
    return len(truth)


def test_generation_deterministic():
    a = list(SceneStream(_static_script(noise_level=0.02)).events(_truth_count))
    b = list(SceneStream(_static_script(noise_level=0.02)).events(_truth_count))
    assert len(a) == len(b) == 40
    assert all(fa == fb and ta == tb and na == nb == len(ta)
               for (fa, ta, na), (fb, tb, nb) in zip(a, b))


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


@pytest.mark.parametrize("overrides, message", [
    (dict(size=64.0), "size must be int, not float"),
    (dict(fps=True), "fps must be float, not bool"),
    (dict(name=None), "name must be str, not NoneType"),
    (dict(seed=-1), "seed must be >= 0"),
    (dict(objects=(ObjectSpec(True, 0.2, 0.2),)), "class_id must be int, not bool"),
    (dict(shifts=(Shift(frame_index=5.0),)), "frame_index must be int, not float"),
    (dict(texture_drift_period=-3), "texture_drift_period must be >= 0"),
])
def test_python_built_scripts_are_checked_like_json(overrides, message):
    with pytest.raises(ValueError, match=message):
        _static_script(**overrides)


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
        oracle = OracleModel(cfg)
        stream = SceneStream(script)
        n = stream.script.duration_frames
        for i in range(0, n, max(1, n // 24)):
            frame, truth = stream.frame_at(i), stream.truth_at(i)
            decoded = nms(decode_boxes(oracle.forward(frame, truth)))
            assert len(decoded) == len(truth)
            for t in truth:
                best = max(decoded, key=lambda d: iou(d, t))
                assert iou(best, t) >= 0.9
                assert best.class_id == t.class_id


def test_arrival_times_follow_fps():
    stream = SceneStream(_static_script(duration_frames=5, fps=4.0))
    events = list(enumerate(stream.events(_truth_count)))
    assert [i for i, _ in events] == [0, 1, 2, 3, 4]
    assert all(frame == stream.frame_at(i) and n == len(stream.truth_at(i))
               for i, (frame, _, n) in events)


def test_script_json_round_trip(tmp_path):
    script = fixed_cam_default()
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(script.to_dict()))
    loaded = SceneScript.load(str(path))
    assert loaded == script
    # document-style schema keys stay stable
    d = json.loads(path.read_text())
    assert {"regime", "duration_frames", "size", "objects", "shifts"} <= set(d)


def test_script_from_dict_omitted_keys_take_dataclass_defaults():
    script = SceneScript.from_dict({"duration_frames": 5})
    assert script == SceneScript(duration_frames=5)
    assert render_frame(script, 2) == render_frame(SceneScript(duration_frames=5), 2)
    with pytest.raises(ValueError, match="^scene script key 'duration_frames' is missing$"):
        SceneScript.from_dict({"size": 64})


def test_json_integer_in_a_float_field_loads_as_its_float():
    d = fixed_cam_default(duration=10).to_dict()
    as_int = SceneScript.from_dict({**d, "fps": 4})
    as_float = SceneScript.from_dict({**d, "fps": 4.0})
    assert as_int == as_float
    assert render_frame(as_int, 3) == render_frame(as_float, 3)


def test_render_functions_pure():
    script = _static_script(noise_level=0.03)
    assert render_frame(script, 7) == render_frame(script, 7)
    assert truth_boxes(script, 7) == truth_boxes(script, 7)


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


def test_non_finite_rates_rejected():
    for field in ("fps", "noise_level", "noise_breath", "noise_breath_period",
                  "camera_period_frames", "camera_amplitude_px"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=field):
                _static_script(**{field: value})


def test_noise_beyond_the_pixel_range_rejected():
    _static_script(noise_level=0.5, noise_breath=1.0)  # the largest sigma is exactly 1.0
    for level, breath in ((1e308, 0.0), (1.5, 0.0), (0.6, 0.8), (0.5, 1.0 + 1e-9)):
        with pytest.raises(ValueError, match=r"noise_level \* \(1 \+ noise_breath\)"):
            _static_script(noise_level=level, noise_breath=breath)


def test_noise_breath_beyond_one_rejected():
    # a breath above 1 makes the noise sigma negative on part of each period,
    # and those frames would render with no noise at all
    _static_script(noise_level=0.1, noise_breath=1.0, noise_breath_period=50.0)
    for breath in (1.0 + 1e-9, 2.0):
        with pytest.raises(ValueError, match=r"noise_breath must be in \[0, 1\]"):
            _static_script(noise_level=0.1, noise_breath=breath, noise_breath_period=50.0)


def _reference_background_pixels(style, size, dx, dy):
    """The full-meshgrid background the separable one replaced."""
    xs = np.arange(size, dtype=np.float64) + dx
    ys = np.arange(size, dtype=np.float64) + dy
    xx, yy = np.meshgrid(xs, ys)
    img = np.zeros((size, size, 3), dtype=np.float64)
    if style == 0:
        base = 0.22 + 0.18 * (xx / size)
        tex = 0.05 * np.sin(2.0 * np.pi * yy / 7.0)
        img[:, :, 0] = base + tex
        img[:, :, 1] = base + 0.04 * np.sin(2.0 * np.pi * xx / 9.0)
        img[:, :, 2] = 0.30 - 0.5 * tex
    elif style == 1:
        base = 0.20 + 0.20 * (yy / size)
        tex = 0.08 * np.sin(2.0 * np.pi * (xx + yy) / 11.0)
        img[:, :, 0] = base + tex
        img[:, :, 1] = 0.28 + 0.06 * np.sin(2.0 * np.pi * xx / 6.0)
        img[:, :, 2] = base - tex
    else:
        base = 0.34 - 0.16 * (xx / size)
        tex = 0.07 * np.sin(2.0 * np.pi * (xx - yy) / 13.0)
        img[:, :, 0] = 0.38 + tex
        img[:, :, 1] = base - tex
        img[:, :, 2] = 0.22 + 0.05 * np.sin(2.0 * np.pi * yy / 9.0)
    return np.clip(img, 0.0, 1.0)


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(style=st.integers(0, 2), size=st.integers(4, 64).map(lambda n: 4 * n),
       dx=st.integers(-40, 40), dy=st.integers(-40, 40))
def test_background_equals_full_grid_reference(style, size, dx, dy):
    # sizes 16..256 in steps of 4; large offsets against small sizes leave [0, 1]
    assert np.array_equal(_background_pixels(style, size, dx, dy),
                          _reference_background_pixels(style, size, dx, dy))


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), sigma=st.floats(0.0, 2.0, exclude_min=True),
       h=st.integers(1, 130), w=st.integers(1, 130), zeros=st.floats(0.0, 1.0))
def test_scaled_standard_normal_noise_equals_normal(seed, sigma, h, w, zeros):
    # render_frame's noise: standard normals scaled in place, added to an
    # image in [0, 1] with exact zeros, equal rng.normal(0.0, sigma) bit for bit
    img = np.random.Generator(np.random.PCG64(~seed & (2**64 - 1))).uniform(0.0, 1.0, (h, w, 3))
    img[img < zeros] = 0.0
    want = img + np.random.Generator(np.random.PCG64(seed)).normal(0.0, sigma, img.shape)
    noise = np.random.Generator(np.random.PCG64(seed)).standard_normal(img.shape)
    noise *= sigma
    img += noise
    assert img.tobytes() == want.tobytes()


@pytest.mark.parametrize("trajectory", [
    {"kind": "static", "y": 0.5},
    {"kind": "orbit", "cx": 0.5},
    {"kind": "linear", "x": 0.5, "y": float("nan")},
    {"kind": "linear", "x": 0.5, "y": 0.5, "vx": None},
    {"kind": "orbit", "cx": 0.5, "cy": 0.5, "radius": "0.1"},
])
def test_trajectory_needs_finite_numbers_for_its_kind(trajectory):
    with pytest.raises(ValueError, match="trajectory key"):
        _static_script(objects=(ObjectSpec(0, 0.2, 0.2, trajectory),))


@pytest.mark.parametrize("background", [-1, 3, 7])
def test_background_outside_the_styles_rejected(background):
    with pytest.raises(ValueError, match="background"):
        _static_script(background=background)
    with pytest.raises(ValueError, match="background"):
        _static_script(shifts=(Shift(frame_index=5, background=background),))
