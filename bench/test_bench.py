"""Self-tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench

They run small scenes in-process; the benchmark proper runs full workloads
in fresh interpreters (``bench/run.py``).
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import edgekt.cli  # noqa: E402  (imports every edgekt module)
import run as bench  # noqa: E402
from edgekt.scenegen import TRAJECTORY_KINDS, SceneScript  # noqa: E402
from outcome import report_outcome  # noqa: E402
from scenes import large_frames_script  # noqa: E402
from tracer import COUNTED, SPANNED, Tracer, layer_totals  # noqa: E402

TINY_SCRIPT = {
    "name": "tiny", "regime": "moving_camera", "duration_frames": 24, "size": 32,
    "fps": 3.2, "noise_level": 0.005, "seed": 5,
    "camera": {"amplitude_px": 3.0, "period_frames": 20.0},
    "objects": [
        {"class_id": 0, "w": 0.3, "h": 0.3,
         "trajectory": {"kind": "linear", "x": 0.4, "y": 0.5, "vx": 0.01, "vy": 0.0}},
        {"class_id": 2, "w": 0.2, "h": 0.25, "trajectory": {"kind": "scatter"}},
    ],
    "shifts": [{"frame_index": 12, "background": 2}],
}


def _run_cli(tmp_path: Path, name: str, extra=()) -> bytes:
    script = tmp_path / "tiny.json"
    script.write_text(json.dumps(TINY_SCRIPT))
    out = tmp_path / f"{name}.json"
    rc = edgekt.cli.main(["run", "--scenario", "nt-wifi", "--precision", "half",
                          "--kfs", "off", "--stream", str(script), "--seed", "1",
                          "--out", str(out), *extra])
    assert rc == 0
    return out.read_bytes()


def _snapshot() -> list:
    """(owner, attribute, value) for every attribute the tracer may replace."""
    owners = [m for n, m in sys.modules.items() if n == "edgekt" or n.startswith("edgekt.")]
    owners += [getattr(sys.modules[m], p.split(".")[0])
               for _, m, p in SPANNED + COUNTED if "." in p]
    return [(o, a, v) for o in owners for a, v in list(vars(o).items())]


# -- self-time arithmetic -----------------------------------------------------


def test_self_time_subtracts_children():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("a", 5.0, 6.0, 0),
    ]
    totals = layer_totals(spans)
    assert totals["root"] == (1, pytest.approx(6.0))   # 10 - (3 + 1)
    assert totals["a"] == (2, pytest.approx(3.0))      # (3 - 1) + 1
    assert totals["b"] == (1, pytest.approx(1.0))


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("x", 1.0, 5.0, 0),
        ("y", 3.0, 7.0, 0),      # overlaps x on [3, 5]
        ("z", 9.0, 12.0, 0),     # runs past the parent's end
    ]
    totals = layer_totals(spans)
    assert totals["root"] == (1, pytest.approx(10.0 - 6.0 - 1.0))


# -- tracer -------------------------------------------------------------------


def test_wrappers_patch_every_namespace_and_are_restored(tmp_path):
    from edgekt import detection, harness, models, runtime, tensor
    before = _snapshot()
    original_decode, original_adam = harness.decode_boxes, tensor.adam_step
    tracer = Tracer()
    tracer.install()
    try:
        # imported by name into harness/runtime/models: patched there too
        assert harness.decode_boxes is not original_decode
        assert detection.decode_boxes is harness.decode_boxes
        assert runtime.adapt_decoder is harness.adapt_decoder is models.adapt_decoder
        assert models.adam_step is tensor.adam_step
        assert models.adam_step is not original_adam
        _run_cli(tmp_path, "traced")
    finally:
        tracer.uninstall()
    assert all(vars(owner).get(attr) is value for owner, attr, value in before)
    names = {s[0] for s in tracer.spans}
    assert {"models.adapt_decoder", "runtime.edge_serve", "tensor.f16_encode",
            "netproto.transmit", "harness.run_scenario"} <= names
    assert tracer.counts["tensor.Tensor.init_calls"] > 0
    assert tracer.counts["netproto.bytes_up"] > 0


def test_traced_and_untraced_runs_have_identical_outcomes(tmp_path):
    plain = _run_cli(tmp_path, "plain")
    tracer = Tracer()
    tracer.install()
    try:
        traced = _run_cli(tmp_path, "traced")
    finally:
        tracer.uninstall()
    assert traced == plain
    assert report_outcome(json.loads(traced)) == report_outcome(json.loads(plain))


# -- golden-outcome check -----------------------------------------------------


def _checked(report: dict, golden: dict) -> float:
    results = [{"label": "op", "outcome": report_outcome(report)}]
    bench.check(results, {"op": golden})
    return bench.ops_failed(results)


def test_one_perturbed_float_fails_the_operation(tmp_path):
    report = json.loads(_run_cli(tmp_path, "golden"))
    golden = report_outcome(report)
    assert _checked(report, golden) == 0.0
    report["total_joules"] = math.nextafter(report["total_joules"], math.inf)
    assert _checked(report, golden) > 0


def test_schema_additions_do_not_fail_but_removals_do(tmp_path):
    report = json.loads(_run_cli(tmp_path, "golden"))
    golden = report_outcome(report)
    report["jobs"] = [{"frame_id": 0}]
    report["aggregate"]["extra"] = 1
    assert _checked(report, golden) == 0.0
    del report["swap_log"]
    assert _checked(report, golden) > 0


def test_golden_covers_every_seed_workload_and_operation(tmp_path):
    seeds = json.loads(bench.GOLDEN.read_text())["seeds"]
    assert sorted(seeds, key=int) == [str(i) for i in range(len(seeds))]
    assert len(seeds) >= 2
    for workload in bench.WORKLOADS:
        labels = {op.label for op in bench.workload_ops(workload, 0, tmp_path)}
        for seed in seeds:
            assert set(seeds[seed][workload]) == labels


def test_seeds_map_onto_recorded_seeds_and_others_are_refused(tmp_path, monkeypatch):
    n = len(json.loads(bench.GOLDEN.read_text())["seeds"])
    assert bench.load_golden(n + 3, "nt-lan-kfs-off")[0] == 3 % n
    partial = tmp_path / "golden.json"
    partial.write_text(json.dumps({"seeds": {"0": {"nt-lan-kfs-off": {"op": {}}}}}))
    monkeypatch.setattr(bench, "GOLDEN", partial)
    with pytest.raises(SystemExit):
        bench.load_golden(0, "large-frames")


# -- inputs and environment ---------------------------------------------------


def test_large_frames_script_is_a_pure_function_of_the_seed():
    assert large_frames_script(4) == large_frames_script(4)
    assert large_frames_script(4) != large_frames_script(5)


@pytest.mark.parametrize("seed", range(10))
def test_large_frames_script_covers_the_scene_features(seed):
    d = large_frames_script(seed)
    script = SceneScript.from_dict(json.loads(json.dumps(d)))
    assert (script.size, script.duration_frames) == (128, 600)
    assert script.regime == "moving_camera" and script.camera_amplitude_px > 0
    groups = [script.objects] + [s.objects for s in script.shifts if s.objects]
    kinds = {o.trajectory["kind"] for g in groups for o in g}
    assert kinds == set(TRAJECTORY_KINDS)
    assert any(s.background is not None and s.background != script.background
               for s in script.shifts)
    assert any(s.objects is not None for s in script.shifts)


def test_large_frames_program_sees_only_the_json_file(tmp_path):
    ops = bench.workload_ops("large-frames", 2, tmp_path)
    script = tmp_path / "large_frames.json"
    assert json.loads(script.read_text()) == large_frames_script(2)
    assert all(str(script) in op.args for op in ops)


def test_child_environment_adds_src_and_no_thread_settings(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    env = bench._child_env()
    assert env["PYTHONPATH"].split(":") == [str(bench.SRC), "elsewhere"]
    assert "OMP_NUM_THREADS" not in env and "OPENBLAS_NUM_THREADS" not in env


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    results = [{"frames": 600, "main_s": 2.0, "maxrss_kb": 1024}]
    assert {m["name"] for m in spec["end_to_end"]} == set(bench.end_to_end(results, [0.1]))
    assert {m["name"] for m in spec["per_layer"]} == set(bench.per_layer([], {}, 0.0))
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
