import json

import pytest

from edgekt.scenegen import fixed_cam_default


def test_run_writes_report(tmp_path, run_cli):
    out = tmp_path / "report.json"
    trace = tmp_path / "trace.csv"
    proc = run_cli(["run", "--scenario", "shallow", "--stream", "fixed_cam_default",
                    "--precision", "full", "--kfs", "on", "--seed", "1",
                    "--out", str(out), "--trace-csv", str(trace)])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["scenario"] == "shallow"
    assert report["frame_count"] == 600
    assert len(trace.read_text().strip().splitlines()) == 601


def test_unknown_scenario_exits_2(tmp_path, run_cli):
    proc = run_cli(["run", "--scenario", "cloud", "--out", str(tmp_path / "r.json")])
    assert proc.returncode == 2


@pytest.mark.parametrize("command", [
    ["run", "--scenario", "shallow"], ["run", "--scenario", "deep"], ["run", "--scenario", "lt"],
    ["run", "--scenario", "nt-lan"], ["run", "--scenario", "nt-wifi"], ["compare"],
], ids=["shallow", "deep", "lt", "nt-lan", "nt-wifi", "compare"])
def test_negative_seed_exits_2(tmp_path, run_cli, command):
    out = tmp_path / "out"
    proc = run_cli([*command, "--seed", "-1", "--out", str(out)])
    assert proc.returncode == 2, proc.stderr
    assert "config error: seed must be >= 0, got -1" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("name", ["missing.json", "a_directory"],
                         ids=["missing_file", "directory"])
def test_missing_stream_exits_2(tmp_path, run_cli, name):
    (tmp_path / "a_directory").mkdir()
    stream = str(tmp_path / name)
    proc = run_cli(["run", "--scenario", "shallow", "--stream", stream,
                    "--out", str(tmp_path / "r.json")])
    assert proc.returncode == 2
    assert (f"config error: stream {stream!r} is neither a preset nor a readable file"
            in proc.stderr)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args, bad, reason", [
    (["run", "--scenario", "shallow", "--out", "{d}/missing/r.json"], "{d}/missing/r.json",
     "No such file or directory"),
    (["run", "--scenario", "shallow", "--out", "{d}/r.json", "--trace-csv", "{d}"], "{d}",
     "Is a directory"),
    (["compare", "--out", "{d}"], "{d}", "Is a directory"),
], ids=["run_out_missing_dir", "run_trace_csv_directory", "compare_out_directory"])
def test_unwritable_output_exits_2(tmp_path, run_cli, args, bad, reason):
    proc = run_cli([a.format(d=tmp_path) for a in args])
    assert proc.returncode == 2, proc.stderr
    assert (f"config error: cannot write output {bad.format(d=tmp_path)!r}: {reason}"
            in proc.stderr)
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "r.json").exists()  # the checked --out is not left behind


def test_output_check_keeps_existing_files_and_renders_nothing(tmp_path, monkeypatch):
    from edgekt import cli
    from edgekt.scenegen import SceneStream
    opened = []
    monkeypatch.setattr(SceneStream, "events",
                        lambda self, stage: opened.append(self) or iter(()))
    out = tmp_path / "r.json"
    out.write_text("kept")
    assert cli.main(["run", "--scenario", "shallow", "--out", str(out),
                     "--trace-csv", str(tmp_path)]) == 2
    assert out.read_text() == "kept"
    assert opened == []


@pytest.mark.parametrize("alias", ["dot", "symlink"])
def test_trace_csv_on_the_report_path_exits_2(tmp_path, monkeypatch, capsys, alias):
    from edgekt import cli
    from edgekt.scenegen import SceneStream
    opened = []
    monkeypatch.setattr(SceneStream, "events",
                        lambda self, stage: opened.append(self) or iter(()))
    out = tmp_path / "r.json"
    if alias == "dot":
        trace = tmp_path / "." / "r.json"
    else:
        trace = tmp_path / "link.csv"
        trace.symlink_to(out)
    assert cli.main(["run", "--scenario", "shallow", "--out", str(out),
                     "--trace-csv", str(trace)]) == 2
    err = capsys.readouterr().err
    assert "config error: --trace-csv and --out name one file" in err
    assert opened == [] and not out.exists()


def test_stream_size_the_student_cannot_pool_exits_2(tmp_path, run_cli):
    # 48 is a valid scene size (a multiple of 4), but the student's 8x8
    # output grid needs a multiple of 32
    stream = tmp_path / "s48.json"
    stream.write_text(json.dumps(fixed_cam_default(size=48, duration=10).to_dict()))
    proc = run_cli(["run", "--scenario", "shallow", "--stream", str(stream),
                    "--out", str(tmp_path / "r.json")])
    assert proc.returncode == 2
    assert "48" in proc.stderr


def test_env_log_level_accepted(tmp_path, run_cli):
    out = tmp_path / "report.json"
    proc = run_cli(["run", "--scenario", "shallow", "--stream", "fixed_cam_default",
                    "--out", str(out)],
                   EDGEKT_LOG="INFO")
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert "INFO edgekt.harness: running scenario shallow" in proc.stderr


def test_env_log_value_that_is_not_a_level_falls_back(tmp_path, run_cli):
    # BASIC_FORMAT is an upper-case attribute of the logging module but not a
    # level; it must fall back to WARNING like any other unknown word.
    out = tmp_path / "report.json"
    proc = run_cli(["run", "--scenario", "shallow", "--stream", "fixed_cam_default",
                    "--out", str(out)],
                   EDGEKT_LOG="BASIC_FORMAT")
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert "running scenario" not in proc.stderr


def test_compare_writes_table(tmp_path, run_cli):
    out = tmp_path / "table.csv"
    proc = run_cli(["compare", "--stream", "fixed_cam_default", "--seed", "0",
                    "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 6
    assert rows[0].startswith("scenario,")


def _script_with(tmp_path, edit):
    d = fixed_cam_default(duration=10).to_dict()
    d = edit(d) or d  # an edit changes d in place or returns a new document
    path = tmp_path / "script.json"
    path.write_text(json.dumps(d))  # NaN is written as the bare token NaN
    return path


def test_non_finite_fps_exits_2(tmp_path, run_cli):
    stream = _script_with(tmp_path, lambda d: d.update(fps=float("nan")))
    proc = run_cli(["run", "--scenario", "shallow", "--stream", str(stream),
                    "--out", str(tmp_path / "r.json")])
    assert proc.returncode == 2
    assert "config error" in proc.stderr and "fps" in proc.stderr


def test_class_id_beyond_the_model_classes_exits_2(tmp_path, run_cli):
    stream = _script_with(tmp_path, lambda d: d["objects"][0].update(class_id=5))
    proc = run_cli(["run", "--scenario", "shallow", "--stream", str(stream),
                    "--out", str(tmp_path / "r.json")])
    assert proc.returncode == 2
    assert "config error" in proc.stderr and "class_id 5" in proc.stderr


def _without(key, where=lambda d: d):
    """An edit that deletes ``key`` from the JSON object ``where(d)``."""
    def edit(d):
        del where(d)[key]
    return edit


def _orbit_without_cx(d):
    d["objects"][0]["trajectory"] = {"kind": "orbit", "cy": 0.5}


def _rename(key, new):
    return lambda d: d.update({new: d.pop(key)})


def _misspelled_trajectory_key(d):
    d["objects"][0]["trajectory"] = {"kind": "orbit", "cx": 0.5, "cy": 0.5, "radious": 0.2}


def _panning(size=64, **camera):
    """A panning-camera edit of the script, at ``size`` px."""
    def edit(d):
        d.update(regime="moving_camera", size=size)
        d["camera"].update(camera)
    return edit


def _only(trajectory):
    """The script's first object on ``trajectory``, with no shift to replace it."""
    def edit(d):
        d["objects"][0]["trajectory"] = trajectory
        d["shifts"] = []
    return edit


def _negative_pan(d):
    # a negative amplitude narrows the margins: this object's box leaves the frame
    _panning(size=32, amplitude_px=-3.0, period_frames=4.0)(d)
    _only({"kind": "linear", "x": 0.5, "y": 0.5, "vx": 0.45})(d)


@pytest.mark.parametrize("edit, message", [
    (_without("x", lambda d: d["objects"][0]["trajectory"]),
     "static trajectory key 'x' is missing"),
    (_orbit_without_cx, "orbit trajectory key 'cx' is missing"),
    # every other required key, named with its object
    (_without("duration_frames"), "scene script key 'duration_frames' is missing"),
    (_without("class_id", lambda d: d["objects"][0]), "objects[0] key 'class_id' is missing"),
    (_without("frame_index", lambda d: d["shifts"][1]),
     "shifts[1] key 'frame_index' is missing"),
    (_without("w", lambda d: d["shifts"][0]["objects"][2]),
     "shifts[0].objects[2] key 'w' is missing"),
    (lambda d: d.update(objects=5), "objects must be a list"),
    (lambda d: [d], "must be a JSON object, not list"),
    (lambda d: d.update(size=None), "NoneType"),
    (lambda d: d["camera"].update(period_frames=0), "camera_period_frames"),
    (lambda d: d.update(noise_breath_period=0), "noise_breath_period"),
    (lambda d: d.update(background=7), "background"),
    (lambda d: d["shifts"][0].update(background=-1), "background"),
    # wrong JSON types and unknown keys, at every level of the document
    (lambda d: d.update(size="64"), "size must be int, not str"),
    (lambda d: d.update(size=64.5), "size must be int, not float"),
    (lambda d: d["objects"][0].update(class_id=True), "class_id must be int, not bool"),
    (lambda d: d.update(name=5), "name must be str, not int"),
    (_rename("noise_level", "nosie_level"), "unknown key 'nosie_level'"),
    (lambda d: _rename("trajectory", "trajectroy")(d["objects"][0]), "unknown key 'trajectroy'"),
    (_misspelled_trajectory_key, "unknown key 'radious' in orbit trajectory"),
    (lambda d: d["shifts"][0].update(background=1.5), "background must be int | None, not float"),
    (lambda d: d.update(camera_amplitude_px=3.0), "unknown key 'camera_amplitude_px'"),
    # finite values whose times, angles or positions leave the floats or the
    # frame over the script's frames
    (lambda d: d.update(fps=5e-324), "fps is too small"),
    (_panning(period_frames=5e-324), "camera_period_frames is too small"),
    (lambda d: d.update(noise_breath_period=5e-324), "noise_breath_period is too small"),
    (_only({"kind": "linear", "x": 0.5, "y": 0.5, "vx": 1e308}),
     "linear trajectory key 'vx' is too large"),
    (_only({"kind": "orbit", "cx": 0.5, "cy": 0.5, "omega": 1e308}),
     "orbit trajectory key 'omega' is too large"),
    (_only({"kind": "orbit", "cx": 1e308, "cy": 0.5, "radius": 1e308}),
     "orbit trajectory key 'radius' is too large"),
    (_panning(amplitude_px=1e308), "camera_amplitude_px 1e+308 pans"),
    (_panning(size=32, amplitude_px=20.0, period_frames=4.0), "camera_amplitude_px 20.0 pans"),
    (_negative_pan, "camera_amplitude_px must be finite and >= 0"),
    # noise whose largest sigma exceeds the [0, 1] pixel range
    (lambda d: d.update(noise_level=1e308), "noise_level * (1 + noise_breath)"),
    (lambda d: d.update(noise_level=0.6, noise_breath=0.8), "noise_level * (1 + noise_breath)"),
    # a breath deeper than 1 turns the noise off on some frames
    (lambda d: d.update(noise_level=0.1, noise_breath=2.0, noise_breath_period=50.0),
     "noise_breath must be in [0, 1]"),
], ids=["static_without_x", "orbit_without_cx", "no_duration_frames",
        "object_without_class_id", "shift_without_frame_index", "shift_object_without_w",
        "objects_not_a_list", "top_level_list",
        "size_null", "camera_period_0", "noise_breath_period_0", "background_7",
        "shift_background_-1", "size_string", "size_64.5", "class_id_true", "name_5",
        "misspelled_script_key", "misspelled_object_key", "misspelled_trajectory_key",
        "shift_background_1.5", "flat_camera_amplitude_px", "fps_5e-324",
        "camera_period_5e-324", "noise_breath_period_5e-324", "linear_vx_1e308",
        "orbit_omega_1e308", "orbit_radius_1e308", "camera_amplitude_1e308",
        "camera_amplitude_20_at_32px", "camera_amplitude_-3_at_32px", "noise_level_1e308",
        "noise_breath_past_the_pixel_range", "noise_breath_2"])
def test_malformed_scene_script_exits_2(tmp_path, run_cli, edit, message):
    stream = _script_with(tmp_path, edit)
    proc = run_cli(["run", "--scenario", "shallow", "--stream", str(stream),
                    "--out", str(tmp_path / "r.json")])
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr and message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("scenario, precision", [("nt-wifi", "half"), ("lt", "full")])
def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path, run_cli, scenario,
                                                        precision):
    # reports are byte-identical on one machine setup (CPU, numpy and BLAS
    # build), and the BLAS thread count is not part of that setup
    stream = tmp_path / "stream.json"
    stream.write_text(json.dumps(fixed_cam_default(duration=60).to_dict()))
    outputs = []
    for threads in ("1", "2"):
        out, trace = tmp_path / f"r{threads}.json", tmp_path / f"t{threads}.csv"
        proc = run_cli(["run", "--scenario", scenario, "--precision", precision,
                        "--stream", str(stream), "--out", str(out), "--trace-csv", str(trace)],
                       OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out.read_bytes(), trace.read_bytes()))
    assert outputs[0] == outputs[1]
