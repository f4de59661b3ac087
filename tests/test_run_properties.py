"""Run invariants as properties over generated scene scripts."""

import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgekt import cli
from edgekt.harness import (POWER_W, SCENARIO_NAMES, emit_report, run_named_scenario,
                            run_scenario, scenario_config)
from edgekt.scenegen import REGIMES, TRAJECTORY_KINDS, ObjectSpec, SceneScript, Shift

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


def _objects(kind):
    return st.builds(ObjectSpec, class_id=st.integers(0, 2), w=st.floats(0.08, 0.5),
                     h=st.floats(0.08, 0.5),
                     trajectory=_TRAJECTORIES[kind].map(lambda t: {"kind": kind, **t}))


_any_object = st.sampled_from(TRAJECTORY_KINDS).flatmap(_objects)


@st.composite
def scene_scripts(draw):
    """32-px scripts of 1-40 frames with one object of every trajectory kind,
    and shifts that may fall on the first and the last frame."""
    n = draw(st.integers(1, 40))
    at = draw(st.sets(st.integers(0, n - 1), max_size=2))
    at |= {i for i, on in ((0, draw(st.booleans())), (n - 1, draw(st.booleans()))) if on}
    shifts = tuple(Shift(frame_index=i,
                         objects=draw(st.none() | st.lists(_any_object, max_size=3).map(tuple)),
                         background=draw(st.none() | st.integers(0, 2)))
                   for i in sorted(at))
    objects = tuple(draw(_objects(kind)) for kind in draw(st.permutations(TRAJECTORY_KINDS)))
    return SceneScript(regime=draw(st.sampled_from(REGIMES)), duration_frames=n, size=32,
                       fps=draw(st.floats(1.0, 8.0)), objects=objects, shifts=shifts,
                       noise_level=draw(st.floats(0.0, 0.02)), background=draw(st.integers(0, 2)),
                       seed=draw(st.integers(0, 1000)))


_EDGES = SceneScript(duration_frames=40, size=32, objects=(
    ObjectSpec(0, 0.2, 0.2, {"kind": "static", "x": 0.3, "y": 0.3}),
    ObjectSpec(1, 0.2, 0.2, {"kind": "linear", "x": 0.5, "y": 0.5, "vx": 0.03, "vy": 0.0}),
    ObjectSpec(2, 0.2, 0.2, {"kind": "orbit", "cx": 0.5, "cy": 0.5}),
    ObjectSpec(0, 0.3, 0.3, {"kind": "scatter"})),
    shifts=(Shift(0, background=2), Shift(39, objects=())), noise_level=0.01)


@pytest.mark.parametrize("kfs", [True, False], ids=["kfs_on", "kfs_off"])
@pytest.mark.parametrize("scenario", ["lt", "nt-lan"])
@settings(max_examples=8, derandomize=True, database=None, deadline=None)
@given(script=scene_scripts(), seed=st.integers(0, 3))
@example(script=SceneScript(duration_frames=1, size=32, shifts=(Shift(0, background=1),)),
         seed=0)
@example(script=_EDGES, seed=1)
def test_run_invariants(scenario, kfs, script, seed):
    # the busy gate raises if two jobs would overlap
    report = run_named_scenario(scenario, script, seed=seed, kfs=kfs)
    n = report.frame_count
    assert n == script.duration_frames
    for trace in (report.f1_trace, report.inference_trace, report.candidate_trace,
                  report.version_trace):
        assert len(trace) == n
    versions = report.version_trace
    assert versions[0] == 1
    assert all(b >= a for a, b in zip(versions, versions[1:]))
    assert [e["version"] for e in report.swap_log] == list(range(2, 2 + len(report.swap_log)))
    assert {e["frame_id"] for e in report.swap_log} <= set(report.key_frame_indices)
    energy = report.energy_by_activity
    for activity, e in energy.items():
        assert e["joules"] == pytest.approx(e["seconds"] * POWER_W[activity], rel=1e-9)
    assert report.total_joules == pytest.approx(sum(e["joules"] for e in energy.values()),
                                                rel=1e-9)
    assert energy["Idle"]["seconds"] >= 0.0


@pytest.mark.parametrize("kfs", [True, False], ids=["kfs_on", "kfs_off"])
@settings(max_examples=4, derandomize=True, database=None, deadline=None)
@given(script=scene_scripts(), seed=st.integers(0, 3))
@example(script=_EDGES, seed=1)
def test_lockstep_reports_equal_separate_runs(kfs, script, seed):
    # a scenario's report does not depend on the scenarios run beside it
    configs = [scenario_config(name, seed=seed, kfs=kfs) for name in SCENARIO_NAMES]
    lockstep = run_scenario(configs, script, SCENARIO_NAMES)
    assert [emit_report(r, "json") for r in lockstep] == [
        emit_report(run_named_scenario(name, script, seed=seed, kfs=kfs), "json")
        for name in SCENARIO_NAMES]


# a valid 32-px, 6-frame script with every trajectory kind, a panning camera
# and a shift; the property below mutates one place in it
_SHORT_SCRIPT = {
    "name": "short", "regime": "moving_camera", "duration_frames": 6, "size": 32,
    "fps": 4.0, "noise_level": 0.01, "background": 0, "seed": 5,
    "camera": {"amplitude_px": 2.0, "period_frames": 12.0},
    "texture_drift_period": 2, "noise_breath": 0.5, "noise_breath_period": 4.0,
    "objects": [
        {"class_id": 0, "w": 0.3, "h": 0.3, "trajectory": {"kind": "static", "x": 0.3, "y": 0.3}},
        {"class_id": 1, "w": 0.25, "h": 0.3,
         "trajectory": {"kind": "linear", "x": 0.5, "y": 0.5, "vx": 0.02, "vy": 0.0}},
        {"class_id": 2, "w": 0.3, "h": 0.25,
         "trajectory": {"kind": "orbit", "cx": 0.5, "cy": 0.5, "radius": 0.1, "omega": 0.3,
                        "phase": 1.0}},
    ],
    "shifts": [{"frame_index": 3, "background": 2,
                "objects": [{"class_id": 1, "w": 0.3, "h": 0.3,
                             "trajectory": {"kind": "scatter"}}]}],
}
# wrong types, bools, non-finite numbers and out-of-range numbers
_BAD_VALUES = st.sampled_from(["4", [], {}, None, True, False, float("nan"), float("inf"),
                               -1, 0, 3, 7, 1.5, -0.5])
# unknown here, though some name a field elsewhere in the document
_EXTRA_KEYS = st.sampled_from(["nosie_level", "camera_amplitude_px", "radius", "x", "w",
                               "objects", "kind"])


def _json_objects(node, path=()):
    """The path of every JSON object in the document ``node``."""
    yield path
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _json_objects(value, path + (key,))
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, dict):
                    yield from _json_objects(item, path + (key, i))


@st.composite
def mutated_scripts(draw):
    """``_SHORT_SCRIPT`` with one key dropped, added or set to a bad value."""
    doc = copy.deepcopy(_SHORT_SCRIPT)
    target = doc
    for key in draw(st.sampled_from(list(_json_objects(doc)))):
        target = target[key]
    how = draw(st.sampled_from(["drop", "add", "set"]) if target else st.just("add"))
    if how == "drop":
        del target[draw(st.sampled_from(sorted(target)))]
    else:
        key = draw(_EXTRA_KEYS if how == "add" else st.sampled_from(sorted(target)))
        target[key] = draw(_BAD_VALUES)
    return doc


def _no_constant(name):
    raise ValueError(f"report holds {name}")


def _keys_of(full, doc):
    """``full`` cut down to the keys ``doc`` has, at every level."""
    if isinstance(doc, dict):
        return {key: _keys_of(full.get(key), value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_keys_of(f, d) for f, d in zip(full, doc)]
    return full


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(doc=mutated_scripts())
def test_mutated_scripts_run_or_exit_2(doc):
    # every script is either refused as a config error, or runs as written (no
    # key ignored, no value converted) to a strict-JSON report
    with tempfile.TemporaryDirectory() as tmp:
        stream, out = Path(tmp) / "script.json", Path(tmp) / "report.json"
        stream.write_text(json.dumps(doc))  # NaN and inf as bare tokens
        rc = cli.main(["run", "--scenario", "shallow", "--stream", str(stream),
                       "--out", str(out)])
        assert rc in (0, 2)
        if rc == 0:
            report = json.loads(out.read_text(), parse_constant=_no_constant)
            assert report["frame_count"] == doc["duration_frames"]
            loaded = SceneScript.load(str(stream)).to_dict()
            assert (json.dumps(_keys_of(loaded, doc), sort_keys=True)
                    == json.dumps(doc, sort_keys=True))
