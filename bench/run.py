"""edgekt host-time benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record-golden 0-9 [--workload NAME]

Every operation is one fresh interpreter that imports ``edgekt`` from this
checkout's ``src`` and calls ``edgekt.cli.main``, as a CLI user's process
does. Operations run one after another (closed loop, one client) in whole
cycles of the workload until another cycle would overrun ``--seconds``.
Each operation's simulated outcome is checked against golden values recorded
from the unmodified program (``golden.json``).

``--trace 0`` reports the end-to-end metrics, measured in host time:
``setup_s`` (spawn to ``edgekt`` imported, median over the run's processes),
``sim_frames_per_s`` (simulated frames per host second inside
``cli.main``) and ``peak_rss_mb`` (highest peak resident memory of one
operation's process). ``--trace 1`` runs one cycle untraced and one with the
layer tracer, checks both against the golden values and reports per-layer
calls, self time and counters. The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from outcome import mismatches, report_outcome, sha256, table_outcome
from scenes import large_frames_script
from tracer import COUNTED, SPANNED, layer_totals

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"

WORKLOADS = ("compare-presets", "nt-lan-kfs-off", "large-frames")
PRESETS = ("fixed_cam_default", "moving_cam_default")
PROBES_PER_OP = 3      # import-only processes before each operation, for setup_s
DEADLINE_S = 170.0     # hard limit on one benchmark run


@dataclass(frozen=True)
class Op:
    label: str
    args: tuple[str, ...]
    frames: int             # simulated frames the operation completes
    out: Path
    trace_csv: Path | None = None
    script: Path | None = None  # scene-script input, checked by digest

    @property
    def is_table(self) -> bool:
        return self.args[0] == "compare"


def workload_ops(workload: str, seed: int, work: Path) -> list[Op]:
    """One cycle of the workload's operations; inputs depend only on ``seed``."""
    s = str(seed)
    if workload == "compare-presets":
        return [Op(f"compare {p}", ("compare", "--stream", p, "--seed", s,
                                    "--out", str(work / f"{p}.csv")),
                   frames=5 * 600, out=work / f"{p}.csv")
                for p in PRESETS]
    if workload == "nt-lan-kfs-off":
        out, trace = work / "nt-lan.json", work / "nt-lan.csv"
        return [Op("run nt-lan --kfs off",
                   ("run", "--scenario", "nt-lan", "--kfs", "off", "--precision", "full",
                    "--stream", "fixed_cam_default", "--seed", s, "--out", str(out),
                    "--trace-csv", str(trace)),
                   frames=600, out=out, trace_csv=trace)]
    if workload == "large-frames":
        script = work / "large_frames.json"
        script.write_text(json.dumps(large_frames_script(seed), indent=2, sort_keys=True))
        wifi, shallow = work / "nt-wifi.json", work / "shallow.json"
        return [
            Op("run nt-wifi --precision half (128x128 script)",
               ("run", "--scenario", "nt-wifi", "--precision", "half", "--kfs", "on",
                "--stream", str(script), "--seed", s, "--out", str(wifi)),
               frames=600, out=wifi, script=script),
            Op("run shallow (128x128 script)",
               ("run", "--scenario", "shallow", "--stream", str(script), "--seed", s,
                "--out", str(shallow)),
               frames=600, out=shallow, script=script),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Processes


def _child_env() -> dict:
    """The caller's environment plus this checkout's ``src`` on PYTHONPATH.

    No BLAS thread variable is set: a user's process sets none either.
    """
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def spawn(mode: str, result_path: Path, args: tuple[str, ...], deadline: float) -> dict:
    """Run bench/child.py once; returns its result plus ``setup_s``."""
    cmd = [sys.executable, str(BENCH / "child.py"), str(result_path), str(SRC), mode,
           "--", *args]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    if proc.returncode != 0 or not result_path.exists():
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result = json.loads(result_path.read_text())
    result_path.unlink()
    result["setup_s"] = result["imported_at"] - spawned
    if result.get("rc") not in (None, 0):
        result["error"] = f"edgekt exited {result['rc']}: {proc.stderr.strip()[-500:]}"
    return result


def run_op(op: Op, mode: str, work: Path, deadline: float) -> dict:
    result = spawn(mode, work / "result.json", op.args, deadline)
    result["label"] = op.label
    result["frames"] = op.frames
    if "error" in result:
        return result
    try:
        data = op.out.read_bytes()
        if op.is_table:
            result["outcome"] = table_outcome(data)
        else:
            report = json.loads(data)
            result["report_sha256"] = sha256(data)
            result["outcome"] = report_outcome(report)
            if op.trace_csv is not None:
                rows = len(op.trace_csv.read_text().splitlines())
                result["outcome"]["trace_csv_rows"] = str(rows)
        if op.script is not None:
            result["outcome"]["script_sha256"] = sha256(op.script.read_bytes())
    except (OSError, ValueError, KeyError) as exc:
        result["error"] = f"unreadable output: {exc}"
    return result


def check(results: list[dict], golden: dict) -> None:
    """Mark each operation that raised, exited non-zero or differs from golden."""
    for r in results:
        if "error" in r:
            r["failed"] = r["error"]
            continue
        expected = golden.get(r["label"])
        diff = ["no golden outcome"] if expected is None else mismatches(r["outcome"], expected)
        if diff:
            r["failed"] = "outcome differs from golden: " + ", ".join(diff)


def ops_failed(results: list[dict]) -> float:
    return sum(1 for r in results if "failed" in r) / len(results)


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(results: list[dict], setup_samples: list[float]) -> dict:
    ok = [r for r in results if "failed" not in r]
    host_s = sum(r.get("main_s", 0.0) for r in results)
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "sim_frames_per_s": {"value": sum(r["frames"] for r in ok) / host_s if host_s else 0.0,
                             "unit": "1/s"},
        "peak_rss_mb": {"value": max(r.get("maxrss_kb", 0) for r in results) / 1024.0,
                        "unit": "MB"},
    }


def per_layer(spans: list, counts: dict, overhead: float) -> dict:
    totals = layer_totals(spans)
    metrics = {}
    for name, _, _ in SPANNED:
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
    for name, _, _ in COUNTED:
        metrics[name] = {"value": counts.get(name, 0), "unit": "count"}

    def ratio(num: str, den: str) -> float:
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    metrics["detection.nms.kept_ratio"] = {
        "value": ratio("detection.nms.kept", "detection.nms.candidates"), "unit": "ratio"}
    metrics["selector.selected_ratio"] = {
        "value": ratio("selector.selected", "selector.gated"), "unit": "ratio"}
    for name in ("netproto.bytes_up", "netproto.bytes_down"):
        metrics[name] = {"value": counts.get(name, 0), "unit": "bytes"}
    metrics["runtime.edge_serve.error_acks"] = {
        "value": counts.get("runtime.edge_serve.error_acks", 0), "unit": "count"}
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return metrics


# ---------------------------------------------------------------------------
# Runs


def load_golden(seed: int, workload: str) -> tuple[int, dict]:
    """The program seed ``seed`` maps to and that seed's golden outcomes.

    Golden values exist for program seeds 0..N-1; a benchmark seed maps to
    ``seed % N``. A seed without golden values is refused.
    """
    seeds = json.loads(GOLDEN.read_text())["seeds"] if GOLDEN.exists() else {}
    program_seed = seed % len(seeds) if seeds else seed
    golden = seeds.get(str(program_seed), {}).get(workload)
    if not golden:
        raise SystemExit(f"bench: no golden values for program seed {program_seed} "
                         f"on {workload}; refusing to run")
    return program_seed, golden


def probe(work: Path, deadline: float) -> dict:
    """One import-only process: a set-up sample plus the environment."""
    result = spawn("probe", work / "probe.json", (), deadline)
    if "error" in result:
        raise SystemExit(f"bench: cannot import edgekt from {SRC}: {result['error']}")
    return result


def cycle(workload: str, seed: int, work: Path, mode: str, deadline: float,
          golden: dict | None, probes: list | None = None) -> list[dict]:
    """Run the workload's operations once; with ``probes``, each operation is
    preceded by set-up probes, so they sample the whole run."""
    ops = workload_ops(workload, seed, work)
    results = []
    for i, op in enumerate(ops):
        if probes is not None:
            probes += [probe(work, deadline) for _ in range(PROBES_PER_OP)]
        op_mode = f"{mode}:{work / f'spans{i}.json'}" if mode == "trace" else mode
        results.append(run_op(op, op_mode, work, deadline))
    if golden is not None:
        check(results, golden)
    return results


def environment(info: dict) -> str:
    return (f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"numpy={info.get('numpy')} blas={info.get('blas')} "
            f"{info.get('blas_version')} blas_threads={info.get('blas_threads')}")


def print_ops(results: list[dict], tag: str) -> None:
    for r in results:
        status = f"FAILED ({r['failed']})" if "failed" in r else "outcome=golden"
        print(f"  [{tag}] {r['label']}: setup_s={r.get('setup_s', float('nan')):.4f} "
              f"main_s={r.get('main_s', float('nan')):.3f} "
              f"rss_mb={r.get('maxrss_kb', 0) / 1024:.1f} {status}"
              + (f" report_sha256={r['report_sha256']}" if "report_sha256" in r else ""))


def untraced_run(args, seed: int, golden: dict, work: Path,
                 deadline: float) -> tuple[list[dict], dict]:
    """Whole cycles until another one would overrun ``--seconds``."""
    start, results, probes, cycles = time.monotonic(), [], [], 0
    while True:
        results += cycle(args.workload, seed, work, "plain", deadline, golden, probes)
        cycles += 1
        now = time.monotonic()
        per_cycle = (now - start) / cycles
        if now - start + per_cycle > args.seconds or now + per_cycle > deadline:
            break
    print_ops(results, "untraced")
    setup = [r["setup_s"] for r in probes + results if "setup_s" in r]
    print(f"  setup samples: {len(setup)} ({len(probes)} import-only processes)")
    return results, end_to_end(results, setup)


def traced_run(args, seed: int, golden: dict, work: Path,
               deadline: float) -> tuple[list[dict], dict]:
    """One untraced and one traced cycle; per-layer metrics from the latter."""
    plain = cycle(args.workload, seed, work, "plain", deadline, golden)
    traced = cycle(args.workload, seed, work, "trace", deadline, golden)
    for a, b in zip(plain, traced):
        if "failed" not in b and a.get("outcome") != b.get("outcome"):
            b["failed"] = "traced outcome differs from untraced"
    print_ops(plain, "untraced")
    print_ops(traced, "traced")
    spans, merged, counts = [], [], {}
    for i, r in enumerate(traced):
        path = work / f"spans{i}.json"
        if path.exists():
            offset = len(spans)
            for name, start, end, parent in json.loads(path.read_text()):
                spans.append((name, start, end, parent + offset if parent >= 0 else -1))
                merged.append([i, name, start, end, parent])
        for k, v in r.get("counts", {}).items():
            counts[k] = counts.get(k, 0) + v
    plain_s = sum(r.get("main_s", 0.0) for r in plain)
    traced_s = sum(r.get("main_s", 0.0) for r in traced)
    overhead = traced_s / plain_s - 1.0 if plain_s else 0.0
    print(f"  tracing overhead: {overhead:+.1%} ({traced_s:.2f} s traced vs "
          f"{plain_s:.2f} s untraced inside cli.main)")
    trace_out = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    trace_out.write_text(json.dumps({"fields": ["op", "name", "start", "end", "parent"],
                                     "spans": merged}))
    print(f"  spans: {len(merged)} written to {trace_out.relative_to(ROOT)}")
    return plain + traced, per_layer(spans, counts, overhead)


def benchmark(args, work: Path, deadline: float) -> dict:
    program_seed, golden = load_golden(args.seed, args.workload)
    print(f"bench: workload={args.workload} seed={args.seed} program_seed={program_seed} "
          f"trace={args.trace} {environment(probe(work, deadline))}")
    run = traced_run if args.trace else untraced_run
    attempted, metrics = run(args, program_seed, golden, work, deadline)
    failed = sum(1 for r in attempted if "failed" in r)
    print(f"  ops_failed: {ops_failed(attempted)} share ({failed} of {len(attempted)})")
    for name, m in metrics.items():
        print(f"  {name}: {m['value']} {m['unit']}")
    return {"correct": failed == 0, "attempted": len(attempted), "failed": failed,
            "metrics": metrics}


def record_golden(spec: str, workloads: tuple[str, ...], work: Path) -> None:
    """Record golden outcomes for program seeds ``A-B``; run on a trusted tree."""
    lo, _, hi = spec.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    data = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"seeds": {}}
    for seed in seeds:
        for workload in workloads:
            results = cycle(workload, seed, work, "plain", time.monotonic() + 900, None)
            errors = [r["error"] for r in results if "error" in r]
            if errors:
                raise SystemExit(f"bench: seed {seed} {workload}: {errors[0]}")
            data["seeds"].setdefault(str(seed), {})[workload] = {
                r["label"]: r["outcome"] for r in results}
            print(f"recorded seed {seed} {workload}", flush=True)
            GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", metavar="A-B",
                        help="record golden outcomes for program seeds A..B instead")
    args = parser.parse_args()
    if not (SRC / "edgekt" / "cli.py").is_file():
        print(f"bench: no edgekt sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        if args.record_golden:
            record_golden(args.record_golden,
                          (args.workload,) if args.workload else WORKLOADS, work)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = benchmark(args, work, time.monotonic() + DEADLINE_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
