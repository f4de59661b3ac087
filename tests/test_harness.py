import csv
import dataclasses
import io
import json

import pytest

from edgekt import harness
from edgekt.harness import (ACTIVITIES, POWER_W, SCENARIO_NAMES, EnergyLedger, compare,
                            emit_report, resolve_stream, run_named_scenario, scenario_config)
from edgekt.models import StudentModel
from edgekt.runtime import ConfigError
from edgekt.scenegen import PRESETS, SceneStream, fixed_cam_default, pretrain_script


@pytest.fixture(scope="module")
def report():
    return run_named_scenario("nt-lan", fixed_cam_default(duration=120), seed=0)


# -- ledger ---------------------------------------------------------------------

def test_ledger_zero_duration_keeps_total():
    ledger = EnergyLedger()
    ledger.charge("Inference", 0.0)
    assert ledger.total_joules == 0.0
    assert ledger.seconds["Inference"] == 0.0 and ledger.joules["Inference"] == 0.0


def test_ledger_product():
    ledger = EnergyLedger()
    ledger.charge("Inference", 0.1)  # 0.1 s at 4 W
    assert ledger.total_joules == pytest.approx(0.4)


def test_ledger_unknown_activity():
    with pytest.raises(ValueError):
        EnergyLedger().charge("Sleep", 1.0)


def test_ledger_negative_duration():
    with pytest.raises(ValueError):
        EnergyLedger().charge("Idle", -0.1)


def test_ledger_replay_consistency(report):
    # run totals equal an independent recomputation from the reported
    # per-activity seconds and the configured powers
    total = sum(report.energy_by_activity[a]["seconds"] * POWER_W[a]
                for a in ACTIVITIES)
    assert report.total_joules == pytest.approx(total, rel=1e-9)


def test_ledger_totals_match_entry_sum():
    ledger = EnergyLedger()
    charged = {a: 0.0 for a in ACTIVITIES}
    for k in range(20):
        activity = ACTIVITIES[k % len(ACTIVITIES)]
        ledger.charge(activity, 0.01 * k)
        charged[activity] += 0.01 * k
    for a in ACTIVITIES:
        assert ledger.seconds[a] == pytest.approx(charged[a])
        assert ledger.joules[a] == pytest.approx(ledger.seconds[a] * POWER_W[a])
    assert ledger.total_joules == pytest.approx(
        sum(ledger.seconds[a] * POWER_W[a] for a in ACTIVITIES))


# -- reports --------------------------------------------------------------------

def test_report_json_round_trip(report):
    text = emit_report(report, "json")
    assert json.loads(text) == dataclasses.asdict(report)


def test_report_json_stable(report):
    assert emit_report(report, "json") == emit_report(report, "json")


def test_report_csv_row_count(report, tmp_path):
    path = tmp_path / "trace.csv"
    emit_report(report, "csv", str(path))
    rows = path.read_text().strip().splitlines()
    assert len(rows) == report.frame_count + 1
    header = rows[0].split(",")
    assert header[0] == "frame" and "f1" in header


def test_report_unknown_format(report):
    with pytest.raises(ValueError):
        emit_report(report, "xml")


def test_overall_score_consistency(report):
    expected = report.aggregate.f1 / (report.total_joules / report.frame_count)
    assert report.overall_score == pytest.approx(expected, rel=1e-12)
    assert report.aggregate.overall_score == report.overall_score
    assert report.energy_per_frame_j == pytest.approx(report.total_joules / report.frame_count)


@pytest.mark.parametrize("field", ["mean_inference_s", "f1_trace"])
def test_report_holding_nan_is_refused(report, tmp_path, field):
    value = [float("nan")] if field == "f1_trace" else float("nan")
    broken = dataclasses.replace(report, **{field: value})
    path = tmp_path / "r.json"
    with pytest.raises(ValueError):
        emit_report(broken, "json", str(path))
    assert not path.exists()


def test_report_schema_version(report):
    assert report.schema_version == 1
    assert json.loads(emit_report(report, "json"))["schema_version"] == 1


# -- stream resolution and the comparison table ------------------------------------

def test_resolve_stream_preset():
    assert resolve_stream("fixed_cam_default").name == "fixed_cam_default"


def test_resolve_stream_path(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(fixed_cam_default(duration=40).to_dict()))
    assert resolve_stream(str(path)).duration_frames == 40


def test_resolve_stream_missing():
    with pytest.raises(ConfigError):
        resolve_stream("no_such_stream.json")


def test_resolve_stream_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        resolve_stream(str(path))


def test_scenario_config_names():
    assert scenario_config("shallow").channel is None
    assert scenario_config("nt-wifi").channel.jitter is not None
    assert scenario_config("nt-lan").channel.jitter is None
    with pytest.raises(ConfigError):
        scenario_config("cloud")


def test_compare_writes_table(tmp_path):
    out = tmp_path / "table.csv"
    reports = compare(fixed_cam_default(duration=80), seed=0, out_path=str(out))
    assert set(reports) == {"shallow", "deep", "lt", "nt-lan", "nt-wifi"}
    with open(out) as f:
        rows = list(csv.reader(f))
    assert len(rows) == 6
    assert rows[0] == ["scenario", "energy_per_frame_j", "mean_inference_s",
                       "f1", "overall_score"]
    by_name = {r[0]: r for r in rows[1:]}
    assert float(by_name["deep"][3]) == 1.0


@pytest.mark.parametrize("preset", ["fixed_cam_default", "moving_cam_default"])
def test_compare_equals_separate_runs(preset):
    script = PRESETS[preset](duration=80)
    reports = compare(script, seed=0)
    for name in SCENARIO_NAMES:
        assert (emit_report(reports[name], "json")
                == emit_report(run_named_scenario(name, script, seed=0), "json"))


def test_compare_renders_each_frame_and_pretrains_once(count_calls):
    script = fixed_cam_default(duration=12)
    frames = count_calls(SceneStream, "frame_at")
    pretrained = count_calls(StudentModel, "pretrained")
    compare(script, seed=0)
    # pretraining renders its own stream (60 frames) once
    assert len(frames) == 12 + pretrain_script(size=script.size).duration_frames
    assert len(pretrained) == 1


def test_record_for_the_wrong_frame_raises(monkeypatch):
    record = harness.FrameRecord

    def skipping(**fields):  # frame 3's record arrives in frame 2's place
        return record(**{**fields, "index": fields["index"] + (fields["index"] == 2)})
    monkeypatch.setattr(harness, "FrameRecord", skipping)
    with pytest.raises(RuntimeError, match="frame record 3 delivered as frame 2"):
        run_named_scenario("shallow", fixed_cam_default(duration=6))


@pytest.mark.parametrize("run, calls", [
    (lambda script: compare(script, seed=0), 12),
    (lambda script: run_named_scenario("deep", script), 0),
], ids=["compare", "deep"])
def test_head_inputs_once_per_frame_only_when_the_student_serves(monkeypatch, count_calls,
                                                                  run, calls):
    script = fixed_cam_default(duration=12)
    head_inputs = count_calls(StudentModel, "head_inputs")
    record, records = harness.FrameRecord, []
    monkeypatch.setattr(harness, "FrameRecord",
                        lambda **fields: records.append(record(**fields)) or records[-1])
    run(script)
    assert len(head_inputs) == calls
    assert [rec.index for rec in records] == list(range(12))
    for rec in records:
        arrays = [rec.frame.array, *rec.oracle_out.scales]
        if calls:
            arrays += [*rec.head_inputs[0], *rec.head_inputs[1]]
        else:
            assert rec.head_inputs is None
        for a in arrays:
            with pytest.raises(ValueError):
                a.flat[0] = 0.0


def test_f1_ordering_on_moving_camera_stream():
    # adaptation stays worthwhile under camera pan, below the deep ceiling
    from edgekt.scenegen import moving_cam_default
    script = moving_cam_default()
    f1 = {name: run_named_scenario(name, script, seed=0).aggregate.f1
          for name in ("shallow", "lt", "nt-lan", "deep")}
    assert f1["shallow"] < f1["lt"] < 1.0
    assert f1["shallow"] < f1["nt-lan"] < 1.0
    assert f1["deep"] == 1.0
