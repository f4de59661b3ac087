"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Quantitative targets follow the documented default cost model and presets;
orderings are asserted rather than absolute magnitudes.
"""

import json
import time

import numpy as np
import pytest

from edgekt import harness
from edgekt.detection import NMS_IOU, SCALE_ROWS, Box, compute_metrics, iou, nms
from edgekt.harness import compare, run_named_scenario, run_scenario
from edgekt.models import (ModelConfig, OracleModel, Precision, StudentModel,
                           adapt_decoder, distill_gradients, prepare_distill)
from edgekt.netproto import FrameUpload, encode_message, zero_cost_config
from edgekt.runtime import Mode, ScenarioConfig
from edgekt.scenegen import fixed_cam_default
from edgekt.selector import KeyFrameSelector
from edgekt.tensor import AdamState, Tensor, adam_step, f16_decode, f16_encode


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def table_runs(tmp_path_factory):
    """The five Table-style scenarios on fixed_cam_default, one compare call."""
    out = tmp_path_factory.mktemp("compare") / "table.csv"
    start = time.monotonic()
    reports = compare(fixed_cam_default(), seed=0, out_path=str(out))
    return reports, time.monotonic() - start, out


def test_criterion_1_eq1_exhaustive():
    start = time.monotonic()
    mismatches = []
    for i in range(1, 21):
        p = i * 0.05
        for delta in (0.0, 0.4, 0.49, 0.51, 0.9, 2.0):
            sel = KeyFrameSelector()
            sel.p = p
            sel.last_loss = 0.0
            sel.update_probability(delta)
            expected = min(2.0 * p, 1.0) if delta > 0.5 else max(p - 0.05, 0.05)
            if sel.p != expected:
                mismatches.append((p, delta, sel.p, expected))
    elapsed = time.monotonic() - start
    _verdict("criterion 1", not mismatches and elapsed < 1.0,
             f"120 (p, dL) cases exact, {elapsed:.3f}s")


def test_criterion_2_selector_floor():
    start = time.monotonic()
    sel = KeyFrameSelector(seed=20)
    sel.p = 0.05
    hits = sum(sel.sample_binomial_gate() for _ in range(100_000))
    rate = hits / 100_000
    elapsed = time.monotonic() - start
    ok = abs(rate - 0.0975) <= 0.003 and elapsed < 5.0
    _verdict("criterion 2", ok, f"floor rate {rate:.4f} vs 0.0975 +/- 0.003, {elapsed:.2f}s")


def test_criterion_3_distillation_benefit(table_runs):
    reports, elapsed, _ = table_runs
    nt = reports["nt-lan"].aggregate.f1
    base = reports["shallow"].aggregate.f1
    deep = reports["deep"].aggregate.f1
    ok = (nt - base >= 0.15) and deep == 1.0 and elapsed < 60.0 * 5
    _verdict("criterion 3", ok,
             f"NT(LAN) F1 {nt:.3f} vs NoTraining {base:.3f} (gap {nt - base:.3f} >= 0.15), "
             f"DeepOnly F1 == {deep}")


def test_criterion_4_table_orderings(table_runs):
    reports, elapsed, out = table_runs
    d, lt = reports["deep"], reports["lt"]
    w, s, lan = reports["nt-wifi"], reports["shallow"], reports["nt-lan"]
    energy_ok = (d.energy_per_frame_j > lt.energy_per_frame_j
                 > w.energy_per_frame_j > s.energy_per_frame_j
                 >= lan.energy_per_frame_j)
    time_ok = (d.mean_inference_s > lt.mean_inference_s
               > w.mean_inference_s >= lan.mean_inference_s
               > s.mean_inference_s)
    scores = {k: v.overall_score for k, v in reports.items()}
    score_ok = max(scores, key=scores.get) == "nt-lan"
    ok = energy_ok and time_ok and score_ok and elapsed < 300.0 and out.exists()
    _verdict("criterion 4", ok,
             "energy deep>lt>wifi>shallow>=lan: %s; inference-time ordering: %s; "
             "best score: %s; compare %.1fs" % (
                 energy_ok, time_ok, max(scores, key=scores.get), elapsed))


def test_criterion_5_half_precision():
    start = time.monotonic()
    rng = np.random.Generator(np.random.PCG64(40))
    sizes_ok = True
    for shape in ((8, 8, 3), (64, 64, 3)):
        t = Tensor(rng.uniform(0, 1, shape).astype(np.float32))
        full = len(encode_message(FrameUpload(1, t, Precision.FULL)))
        half = len(encode_message(FrameUpload(1, t, Precision.HALF)))
        sizes_ok = sizes_ok and (half == full / 2 + 15.5) and (2 * half - full == 31)

    script = fixed_cam_default()
    rf = run_named_scenario("nt-lan", script, seed=0, precision="full")
    rh = run_named_scenario("nt-lan", script, seed=0, precision="half")
    tf = (rf.energy_by_activity["Transmit"]["seconds"]
          + rf.energy_by_activity["Receive"]["seconds"])
    th = (rh.energy_by_activity["Transmit"]["seconds"]
          + rh.energy_by_activity["Receive"]["seconds"])
    elapsed = time.monotonic() - start
    ok = sizes_ok and th < 0.55 * tf and elapsed < 60.0
    _verdict("criterion 5", ok,
             f"payload identity exact; comm time half/full {th / tf:.4f} < 0.55, {elapsed:.1f}s")


def test_criterion_6_no_queuing_and_atomicity():
    start = time.monotonic()
    # the runtime raises if the busy gate ever admits overlapping jobs; the
    # w/o-KFS run exercises maximum training pressure
    problems = []
    for kfs in (True, False):
        r = run_named_scenario("nt-lan", fixed_cam_default(), seed=0, kfs=kfs)
        versions = r.version_trace
        if len(versions) != r.frame_count:
            problems.append("missing frames")
        if any(b < a for a, b in zip(versions, versions[1:])):
            problems.append("version regressed mid-stream")
        swaps = [e["version"] for e in r.swap_log]
        if swaps != sorted(swaps) or len(swaps) != len(set(swaps)):
            problems.append("swap versions not strictly increasing")
        # single consistent version per frame: versions only change between
        # frames, never by more than the completed swaps allow
        if set(versions) - {1} - set(swaps):
            problems.append("frame served with unknown weight version")
    elapsed = time.monotonic() - start
    _verdict("criterion 6", not problems and elapsed < 60.0,
             f"<=1 job in flight enforced, versions consistent ({elapsed:.1f}s)")


def test_criterion_7_numerical_suites():
    start = time.monotonic()
    # Adam zero-gradient fixpoint
    p = Tensor([0.3, -1.2])
    st = AdamState.for_param(p.array)
    adam_step(np.zeros(2, np.float32), st)
    adam_ok = Tensor(st.param) == p

    # distillation gradient vs central finite differences on a 32 px frame
    small = ModelConfig(input_hw=32)
    model = StudentModel.pretrained(small)
    oracle = OracleModel(small)
    rng = np.random.Generator(np.random.PCG64(6))
    frame = Tensor(rng.uniform(0, 1, (32, 32, 3)).astype(np.float32))
    target = oracle.forward(frame, [Box(0.4, 0.5, 0.3, 0.3, 1)])
    blocks = tuple(rng.normal(0, 0.2, b.shape) for b in model.adaptive_blocks)
    prepared = prepare_distill(model.head_inputs(frame), target, dtype=np.float64)
    grads = distill_gradients(prepared, blocks, out=[np.empty_like(b) for b in blocks])

    def reference_loss():
        return sum(((base + x @ w + b - prepared.target[rows]) ** 2).sum()
                   for rows, base, x, w, b in zip(SCALE_ROWS, prepared.base, prepared.ada_x,
                                                  blocks[0::2], blocks[1::2]))

    h = 1e-5
    grad_ok = True
    for k, b in enumerate(blocks):
        flat = b.reshape(-1)
        for idx in range(0, flat.size, max(1, flat.size // 11)):
            orig = flat[idx]
            flat[idx] = orig + h
            lp = reference_loss()
            flat[idx] = orig - h
            lm = reference_loss()
            flat[idx] = orig
            fd = (lp - lm) / (2 * h)
            an = grads[k].reshape(-1)[idx]
            if abs(fd - an) > 1e-3 * max(abs(fd), abs(an), 1e-6):
                grad_ok = False

    # NMS vs O(n^2) brute force on 500 random 10-box instances
    def reference_nms(boxes):
        n = len(boxes)
        mat = [[iou(boxes[i], boxes[j]) for j in range(n)] for i in range(n)]
        alive, kept = set(range(n)), []
        while alive:
            best = min(alive, key=lambda i: (-boxes[i].score, i))
            kept.append(boxes[best])
            alive.discard(best)
            for j in list(alive):
                if boxes[j].class_id == boxes[best].class_id and mat[best][j] > NMS_IOU:
                    alive.discard(j)
        return kept

    nms_ok = True
    rng2 = np.random.Generator(np.random.PCG64(7))
    for _ in range(500):
        boxes = [Box(float(rng2.uniform(0.2, 0.8)), float(rng2.uniform(0.2, 0.8)),
                     float(rng2.uniform(0.05, 0.5)), float(rng2.uniform(0.05, 0.5)),
                     int(rng2.integers(0, 3)), float(rng2.uniform(0, 1)))
                 for _ in range(10)]
        if nms(boxes) != reference_nms(boxes):
            nms_ok = False

    # f16 round trip over 1e5 samples
    vals = rng2.uniform(-1000, 1000, 100_000).astype(np.float32)
    back = f16_decode(f16_encode(Tensor(vals)), (100_000,)).data.astype(np.float64)
    err = np.abs(back - vals.astype(np.float64))
    normal = np.abs(vals) >= 6.104e-5
    f16_ok = bool(np.all(err[normal] <= np.abs(vals[normal]) * 2 ** -11)
                  and np.all(err[~normal] <= 6e-5))

    # IoU / metrics spot checks
    a = Box(0.5, 0.5, 1.0, 1.0, 0)
    b = Box(1.0, 0.5, 1.0, 1.0, 0)
    iou_ok = abs(iou(a, b) - 1.0 / 3.0) < 1e-12
    truth = [Box(0.1 + 0.15 * k, 0.2, 0.1, 0.1, 0) for k in range(6)]
    preds = truth[:3] + [Box(0.2 + 0.2 * k, 0.8, 0.1, 0.1, 0, 0.4) for k in range(2)]
    m = compute_metrics(preds, truth)
    f1_ok = abs(m.f1 - 2 * 0.3 / 1.1) < 1e-6

    elapsed = time.monotonic() - start
    ok = all((adam_ok, grad_ok, nms_ok, f16_ok, iou_ok, f1_ok)) and elapsed < 120.0
    _verdict("criterion 7", ok,
             f"adam fixpoint {adam_ok}, gradcheck {grad_ok}, nms {nms_ok}, "
             f"f16 {f16_ok}, iou {iou_ok}, F1(0.6,0.5) {f1_ok}; {elapsed:.1f}s")


def test_criterion_8_cli_determinism(tmp_path, run_cli):
    start = time.monotonic()
    flags = ["run", "--scenario", "nt-lan", "--stream", "fixed_cam_default",
             "--precision", "full", "--kfs", "on", "--seed", "5"]
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = run_cli([*flags, "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    elapsed = time.monotonic() - start
    ok = outs[0] == outs[1] and elapsed < 120.0
    _verdict("criterion 8", ok,
             f"two identical invocations byte-identical ({len(outs[0])} bytes), {elapsed:.1f}s")


def test_criterion_9_location_independent_training(monkeypatch):
    start = time.monotonic()
    script = fixed_cam_default()
    monkeypatch.setattr(harness, "EDGE_SPEED", 1.0)  # the edge trains as fast as the user
    lt, nt = run_scenario([ScenarioConfig(mode=Mode.LOCAL, seed=0),
                           ScenarioConfig(mode=Mode.NETWORK, channel=zero_cost_config(),
                                          seed=0)], script, ["lt", "nt"])
    keys_ok = lt.key_frame_indices == nt.key_frame_indices
    weights_ok = ([e["checksum"] for e in lt.swap_log]
                  == [e["checksum"] for e in nt.swap_log])
    elapsed = time.monotonic() - start
    ok = keys_ok and weights_ok and len(lt.swap_log) > 0 and elapsed < 60.0
    _verdict("criterion 9", ok,
             f"zero-cost channel: {len(lt.swap_log)} identical weight swaps, {elapsed:.1f}s")


def test_criterion_10_kfs_efficiency(table_runs):
    start = time.monotonic()
    reports, _, _ = table_runs
    script = fixed_cam_default()
    nt_kfs = reports["nt-lan"]
    nt_all = run_named_scenario("nt-lan", script, seed=0, kfs=False)
    lt_kfs = reports["lt"]
    lt_all = run_named_scenario("lt", script, seed=0, kfs=False)

    frac = len(nt_kfs.key_frame_indices) / nt_kfs.frame_count
    recall_ok = nt_kfs.aggregate.recall >= nt_all.aggregate.recall - 0.05
    energy_ok = lt_all.total_joules > lt_kfs.total_joules
    elapsed = time.monotonic() - start
    ok = frac < 0.35 and recall_ok and energy_ok and elapsed < 300.0
    _verdict("criterion 10", ok,
             f"KFS selects {100 * frac:.1f}% < 35%; recall {nt_kfs.aggregate.recall:.3f} vs "
             f"w/o {nt_all.aggregate.recall:.3f}; LT energy w/o {lt_all.total_joules:.0f} J > "
             f"with {lt_kfs.total_joules:.0f} J")
