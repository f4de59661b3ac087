"""Scenario orchestration under virtual time: energy cost model, one pass
over the frames with at most one training job in flight, metric aggregation
and report emission.

The scenarios of one run go through the stream in lockstep. Each frame is
rendered, scored by the oracle and decoded once into a ``FrameRecord`` that
every scenario reads, and the student is pretrained once. Frames are
rendered ahead in a renderer process that ``SceneStream.events()`` forks, so
rendering runs while this process serves the frame before; the truth, the
oracle and every scenario run here. Each scenario is a generator process
with its own serving student, selector, ledger, channels and edge node, so
its report is the same as when it runs alone.

All stage durations come from an operation-count proxy (multiply-accumulate
counts times a per-op virtual time) and fixed power draws, so runs do not
depend on host speed or load. The power/time coefficients are calibration
constants of this simulator, not measured hardware values. Reports are
byte-identical for identical flags and seeds on one machine setup: the CPU,
the numpy build and the BLAS build. Another SIMD kernel or BLAS core type
can round the student's features differently and change them.
"""

from __future__ import annotations

import csv
import json
import logging
from collections.abc import Generator, Sequence
from contextlib import closing
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .detection import Box, MetricsReport, compute_metrics, decode_boxes, nms
from .models import (ADAPT_LR, ADAPT_STEPS, CHANNELS, CLASSES, GRIDS, DetectionTensorSet,
                     ModelConfig, OracleModel, StudentModel, adapt_decoder, distill_loss,
                     swap_decoder)
from .netproto import (FrameUpload, SimulatedChannel, WeightUpdate, decode_message,
                       lan_config, weights_byte_size, wifi_config)
from .runtime import ConfigError, EdgeNode, Mode, ScenarioConfig, TrainJob, check_seed
from .scenegen import PRESETS, SceneScript, SceneStream
from .selector import KeyFrameSelector
from .tensor import Tensor

logger = logging.getLogger("edgekt.harness")

SCHEMA_VERSION = 1

ACTIVITIES = ("Decode", "Inference", "NMS", "TrainLocal", "OracleLocal",
              "Transmit", "Receive", "Idle")

# the user-end device's calibration constants: power draw per activity, and
# the virtual times and contention factors below
POWER_W = {
    "Idle": 1.0,
    "Decode": 1.5,
    "Inference": 4.0,
    "NMS": 2.0,
    "OracleLocal": 8.0,
    "TrainLocal": 8.0,
    "Transmit": 2.5,
    "Receive": 2.5,
}

OP_SECONDS = 1.8e-7  # seconds per multiply-accumulate
EDGE_SPEED = 12.0  # edge compute speed-up over the user device
DECODE_SECONDS_PER_VALUE = 1.6e-6
NMS_SECONDS_PER_CANDIDATE = 7e-5
SWAP_SECONDS_PER_BYTE = 5e-7
TRAIN_CONTENTION = 0.35  # inference slowdown while training locally
RADIO_CONTENTION = 0.2  # inference seconds added per radio-active second


class EnergyLedger:
    """Per-activity time-times-power accumulation at ``POWER_W``."""

    def __init__(self):
        self.seconds: dict[str, float] = {a: 0.0 for a in ACTIVITIES}
        self.joules: dict[str, float] = {a: 0.0 for a in ACTIVITIES}

    def charge(self, activity: str, duration_s: float) -> None:
        if activity not in POWER_W:
            raise ValueError(f"unknown activity {activity!r}")
        if duration_s < 0:
            raise ValueError("duration must be >= 0")
        self.seconds[activity] += duration_s
        self.joules[activity] += duration_s * POWER_W[activity]

    @property
    def total_joules(self) -> float:
        return sum(self.joules.values())

    @property
    def total_active_seconds(self) -> float:
        return sum(s for a, s in self.seconds.items() if a != "Idle")


# ---------------------------------------------------------------------------
# Run report


@dataclass
class RunReport:
    schema_version: int
    scenario: str
    config: dict
    frame_count: int
    aggregate: MetricsReport
    mean_inference_s: float
    mean_training_s: float
    total_joules: float
    energy_per_frame_j: float
    overall_score: float
    wall_time_s: float
    key_frame_indices: list[int]
    f1_trace: list[float]
    inference_trace: list[float]
    candidate_trace: list[int]
    version_trace: list[int]
    energy_by_activity: dict
    swap_log: list[dict]

    @classmethod
    def from_dict(cls, d: dict) -> "RunReport":
        return cls(**{**d, "aggregate": MetricsReport(**d["aggregate"])})

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True, allow_nan=False)


def emit_report(report: RunReport, fmt: str = "json", path: str | None = None) -> str:
    """Serialize a report; ``json`` is the full report with stable key order,
    ``csv`` is the per-frame trace (one row per frame plus a header)."""
    if fmt == "json":
        text = report.to_json() + "\n"
    elif fmt == "csv":
        lines = ["frame,f1,inference_s,candidates,weight_version,key_frame"]
        keys = set(report.key_frame_indices)
        for i in range(report.frame_count):
            lines.append(
                f"{i},{report.f1_trace[i]!r},{report.inference_trace[i]!r},"
                f"{report.candidate_trace[i]},{report.version_trace[i]},"
                f"{1 if i in keys else 0}"
            )
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    return text


def parse_report(text: str) -> RunReport:
    return RunReport.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Scenario runner (the harness owns the virtual clock)

# detection settings applied to served and oracle outputs alike
OBJ_THRESHOLD = 0.5
NMS_IOU = 0.45
# the deployed base detector is one fixed artifact; the run seed only
# drives runtime randomness (selector draws, channel jitter)
MODEL_SEED = 7


@dataclass(frozen=True, eq=False)
class FrameRecord:
    """What every scenario sees of frame ``index``, computed once and shared.

    All of it is pure in the frame: the oracle's noise is keyed by the frame
    bytes and the model seed, and the head inputs read only the frozen
    extractor and the frozen general decoder, which every ``swap_decoder``
    result shares with ``student``.
    """

    index: int
    frame: Tensor
    oracle_out: DetectionTensorSet
    candidates: tuple[Box, ...]  # the oracle output's decoded boxes, before NMS
    gt_boxes: tuple[Box, ...]  # their NMS survivors, the metric ground truth
    student: StudentModel = field(repr=False)  # the pretrained student

    @cached_property
    def head_inputs(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The student's head inputs, the general head's output and the
        whitened adaptive inputs, computed on first access, so a run whose
        scenarios all serve the oracle computes none. Every scenario and the
        edge share them, so the arrays are read-only."""
        inputs = self.student.head_inputs(self.frame)
        for a in (*inputs[0], *inputs[1]):
            a.flags.writeable = False
        return inputs


def _scenario(config: ScenarioConfig, script: SceneScript, name: str,
              student: StudentModel, oracle: OracleModel,
              stream: SceneStream) -> Generator[None, FrameRecord, RunReport]:
    """One scenario's process: takes each frame's record in order at
    ``rec = yield`` and returns the scenario's report after the last frame.

    A training job's outcome is computed at dispatch and applied at its end
    time, after a frame arriving just then. Everything the scenario changes
    (serving student, selector, ledger, channels, edge node) is its own.
    """
    selector = KeyFrameSelector(seed=config.seed * 31 + 1)
    ledger = EnergyLedger()

    up = down = None
    edge = None
    if config.channel is not None:
        up = SimulatedChannel(config.channel, direction=0)
        down = SimulatedChannel(config.channel, direction=1)
    if config.mode is Mode.NETWORK:
        edge = EdgeNode(oracle, student, stream.truth_at)

    period = 1.0 / script.fps
    n_frames = script.duration_frames

    # mutable loop state; at most one training job is in flight
    prev_done = 0.0
    in_flight: TrainJob | None = None
    local_end = 0.0  # a local job contends with inference until it ends
    pending_swap_s = 0.0
    radio_accum_s = 0.0
    wall = 0.0

    f1_trace: list[float] = []
    inference_trace: list[float] = []
    candidate_trace: list[int] = []
    version_trace: list[int] = []
    key_frames: list[int] = []
    training_times: list[float] = []
    swap_log: list[dict] = []
    agg_tp = agg_fp = agg_fn = 0

    student_macs = student.mac_count()
    oracle_macs = oracle.mac_count()
    train_macs = student.adaptation_mac_count()
    oracle_s = oracle_macs * OP_SECONDS
    train_s = train_macs * OP_SECONDS
    edge_s = (oracle_macs + train_macs) * OP_SECONDS / EDGE_SPEED

    def dispatch(rec: FrameRecord, serve_out, now: float) -> TrainJob:
        """Run the one training job on frame ``rec`` to its outcome, which
        ``complete`` applies: nothing a frame reads changes before the job
        ends, and the edge clone and downlink serve one job at a time."""
        nonlocal local_end, radio_accum_s
        frame_id = rec.index
        if config.mode is Mode.LOCAL:
            # serve_out is this frame's, from the record's head inputs
            ledger.charge("OracleLocal", oracle_s)
            ledger.charge("TrainLocal", train_s)
            try:
                pre_loss = distill_loss(serve_out, rec.oracle_out)
                weights = adapt_decoder(student, rec.head_inputs, rec.oracle_out)
            except ValueError:
                weights = pre_loss = None
            local_end = now + oracle_s + train_s
            return TrainJob(frame_id, now, local_end, weights, pre_loss)
        res = up.transmit(FrameUpload(frame_id, rec.frame, config.precision), now)
        ledger.charge("Transmit", res.serialize_s)
        radio_accum_s += res.serialize_s
        # the edge's reply is decoded once here and sent down as itself; the
        # edge reuses the record's work when the upload is byte-equal to it
        reply = decode_message(edge.serve(res.data, rec))
        res = down.transmit(reply, res.delivery_time + edge_s)
        if isinstance(reply, WeightUpdate):
            return TrainJob(frame_id, now, res.delivery_time, reply.weights, reply.loss,
                            res.serialize_s)
        return TrainJob(frame_id, now, res.delivery_time, None, None, res.serialize_s)

    # feed the selector the per-element mean loss so loss deltas live on the
    # scale sigma was chosen for
    loss_scale = sum(g * g * CHANNELS for g in GRIDS)

    def complete(job: TrainJob) -> None:
        """Apply a job's outcome at its end time ``job.done_at``."""
        nonlocal student, pending_swap_s, radio_accum_s, wall
        wall = max(wall, job.done_at)
        if job.receive_s is not None:
            ledger.charge("Receive", job.receive_s)
            radio_accum_s += job.receive_s
        weights = job.weights
        if weights is None:
            logger.warning("training job failed on frame %d", job.frame_id)
        else:
            new_student = swap_decoder(student, weights)
            if new_student is student:
                # stale version: drop and re-sync the clone next round trip
                # (a local job's weights are always one version newer)
                logger.warning("stale weight update v%d for frame %d dropped",
                               weights.version, job.frame_id)
                if edge is not None:
                    edge.sync_clone(student)
            else:
                student = new_student
                pending_swap_s += weights_byte_size(weights) * SWAP_SECONDS_PER_BYTE
                swap_log.append({"frame_id": job.frame_id, "version": student.version,
                                 "checksum": student.adaptive_checksum()})
            training_times.append(job.done_at - job.dispatched_at)
            logger.debug("job for frame %d done after %r s", job.frame_id,
                         training_times[-1])
        if config.kfs_enabled:
            selector.complete(None if job.loss is None else job.loss / loss_scale)

    for i in range(n_frames):
        rec = yield
        if rec.index != i:
            raise RuntimeError(f"frame record {rec.index} delivered as frame {i}")
        t = i * period
        # a job ending exactly at a frame's arrival takes effect after it
        if in_flight is not None and in_flight.done_at < t:
            complete(in_flight)
            in_flight = None
        wall = max(wall, t)
        frame = rec.frame
        start = max(t, prev_done)

        decode_s = frame.size * DECODE_SECONDS_PER_VALUE
        ledger.charge("Decode", decode_s)

        if config.mode is Mode.DEEP_ONLY:
            serve_out = rec.oracle_out
            candidates, detections = rec.candidates, rec.gt_boxes  # decoded by the record
            infer_s = oracle_s
            infer_activity = "OracleLocal"
        else:
            serve_out = student.outputs(rec.head_inputs)
            candidates = decode_boxes(serve_out, OBJ_THRESHOLD)
            detections = nms(candidates, NMS_IOU)
            infer_s = student_macs * OP_SECONDS
            if start < local_end:
                infer_s *= 1.0 + TRAIN_CONTENTION
            infer_activity = "Inference"
        infer_s += pending_swap_s + RADIO_CONTENTION * radio_accum_s
        pending_swap_s = 0.0
        radio_accum_s = 0.0
        ledger.charge(infer_activity, infer_s)

        nms_s = len(candidates) * NMS_SECONDS_PER_CANDIDATE
        ledger.charge("NMS", nms_s)

        m = compute_metrics(detections, rec.gt_boxes)
        agg_tp += m.true_positives
        agg_fp += m.false_positives
        agg_fn += m.false_negatives
        f1_trace.append(m.f1)
        inference_trace.append(infer_s)
        candidate_trace.append(len(candidates))
        version_trace.append(serve_out.version)

        done = start + decode_s + infer_s + nms_s
        prev_done = done
        wall = max(wall, done)

        if config.trains:
            if config.kfs_enabled:
                selected = selector.select_key_frame(frame)
            else:
                selected = in_flight is None
            if selected:
                if in_flight is not None:
                    raise RuntimeError("busy gate violated: overlapping jobs")
                key_frames.append(i)
                in_flight = dispatch(rec, serve_out, done)

    if in_flight is not None:
        complete(in_flight)

    idle_s = max(0.0, wall - ledger.total_active_seconds)
    ledger.charge("Idle", idle_s)

    aggregate = MetricsReport.from_counts(agg_tp, agg_fp, agg_fn)
    total_j = ledger.total_joules
    energy_per_frame = total_j / n_frames
    score = aggregate.f1 / energy_per_frame if energy_per_frame > 0 else 0.0
    aggregate.overall_score = score

    cfg_echo = {
        "mode": config.mode.value,
        "precision": config.precision.value,
        "kfs": config.kfs_enabled,
        "seed": config.seed,
        "adapt_steps": ADAPT_STEPS,
        "adapt_lr": ADAPT_LR,
        "stream": script.name,
        "stream_seed": script.seed,
        "channel": None if config.channel is None else {
            "bandwidth_bps": config.channel.bandwidth_bps,
            "base_latency_s": config.channel.base_latency_s,
            "jitter_median_s": None if config.channel.jitter is None
            else config.channel.jitter.median_s,
        },
    }
    return RunReport(
        schema_version=SCHEMA_VERSION,
        scenario=name,
        config=cfg_echo,
        frame_count=n_frames,
        aggregate=aggregate,
        mean_inference_s=sum(inference_trace) / n_frames,
        mean_training_s=(sum(training_times) / len(training_times)
                         if training_times else 0.0),
        total_joules=total_j,
        energy_per_frame_j=energy_per_frame,
        overall_score=score,
        wall_time_s=wall,
        key_frame_indices=key_frames,
        f1_trace=f1_trace,
        inference_trace=inference_trace,
        candidate_trace=candidate_trace,
        version_trace=version_trace,
        energy_by_activity={a: {"seconds": ledger.seconds[a], "joules": ledger.joules[a]}
                            for a in ACTIVITIES},
        swap_log=swap_log,
    )


def run_scenario(configs: Sequence[ScenarioConfig], script: SceneScript,
                 names: Sequence[str] | None = None) -> list[RunReport]:
    """Run scenarios over one stream in lockstep under virtual time; one
    report per config, in order, named by ``names`` (default: each mode).

    The student is pretrained once, and each frame is rendered (ahead, by
    the stream's renderer process), oracle-scored and decoded once into a
    ``FrameRecord`` that goes to every scenario's process in config order;
    a scenario's report does not depend on the others. Ground truth for the metrics is the oracle's decoded
    output for every frame (the deep model plays ground truth); the scene
    generator's truth only feeds the oracle encoder. Deterministic given the
    config seeds.
    """
    try:
        model_cfg = ModelConfig(input_hw=script.size)
    except ValueError as exc:
        raise ConfigError(f"stream size {script.size} does not fit the student model: "
                          f"{exc}") from exc
    for o in script.all_objects():
        if o.class_id >= CLASSES:
            raise ConfigError(f"object class_id {o.class_id} is not one of the "
                              f"model's {CLASSES} classes")
    student = StudentModel.pretrained(model_cfg, seed=MODEL_SEED)
    oracle = OracleModel(model_cfg, seed=MODEL_SEED)
    stream = SceneStream(script)
    names = names or [c.mode.value for c in configs]
    procs = []
    for config, name in zip(configs, names, strict=True):
        logger.info("running scenario %s", name)
        procs.append(_scenario(config, script, name, student, oracle, stream))
        next(procs[-1])  # run the set-up up to the first frame
    reports = []
    with closing(stream.events()) as events:  # an exception reaps the renderer too
        for ev in events:
            # evaluation oracle run; never charged (the deep model's decoded
            # output is the metric ground truth)
            oracle_out = oracle.forward(ev.frame, ev.truth)
            candidates = tuple(decode_boxes(oracle_out, OBJ_THRESHOLD))
            rec = FrameRecord(index=ev.frame_id, frame=ev.frame, oracle_out=oracle_out,
                              candidates=candidates,
                              gt_boxes=tuple(nms(candidates, NMS_IOU)), student=student)
            for proc in procs:
                try:
                    proc.send(rec)
                except StopIteration as done:  # every process ends on the last frame
                    reports.append(done.value)
    return reports


# ---------------------------------------------------------------------------
# Named scenarios and the comparison table

SCENARIO_NAMES = ("shallow", "deep", "lt", "nt-lan", "nt-wifi")


def scenario_config(name: str, seed: int = 0, precision: str = "full",
                    kfs: bool = True) -> ScenarioConfig:
    """Build the config for one of the five named scenarios."""
    if name not in SCENARIO_NAMES:
        raise ConfigError(f"unknown scenario {name!r} (expected one of {SCENARIO_NAMES})")
    check_seed(seed)  # before the channel seed derived from it
    channel = None
    if name == "nt-lan":
        channel = lan_config(seed * 31 + 2)
    elif name == "nt-wifi":
        channel = wifi_config(seed * 31 + 2)
    mode = {
        "shallow": Mode.NO_TRAINING,
        "deep": Mode.DEEP_ONLY,
        "lt": Mode.LOCAL,
        "nt-lan": Mode.NETWORK,
        "nt-wifi": Mode.NETWORK,
    }[name]
    return ScenarioConfig(mode=mode, channel=channel, precision=precision,
                          kfs_enabled=kfs, seed=seed)


def run_named_scenario(name: str, script: SceneScript, seed: int = 0,
                       precision: str = "full", kfs: bool = True) -> RunReport:
    cfg = scenario_config(name, seed=seed, precision=precision, kfs=kfs)
    return run_scenario([cfg], script, [name])[0]


def compare(script: SceneScript | None = None, seed: int = 0,
            out_path: str | None = None) -> dict:
    """Run the five named scenarios (full precision, KFS on) in lockstep and
    tabulate energy, inference time, F1 and overall score per scenario."""
    from .scenegen import fixed_cam_default
    script = script or fixed_cam_default()
    configs = [scenario_config(name, seed=seed) for name in SCENARIO_NAMES]
    reports = dict(zip(SCENARIO_NAMES, run_scenario(configs, script, SCENARIO_NAMES)))
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["scenario", "energy_per_frame_j", "mean_inference_s",
                             "f1", "overall_score"])
            for name in SCENARIO_NAMES:
                r = reports[name]
                writer.writerow([name, repr(r.energy_per_frame_j),
                                 repr(r.mean_inference_s), repr(r.aggregate.f1),
                                 repr(r.overall_score)])
    return reports


def resolve_stream(spec: str) -> SceneScript:
    """A preset name or a path to a scene-script JSON file."""
    if spec in PRESETS:
        return PRESETS[spec]()
    try:
        return SceneScript.load(spec)
    except FileNotFoundError as exc:
        raise ConfigError(f"stream {spec!r} is neither a preset nor a readable file") from exc
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid scene script {spec!r}: {exc}") from exc
