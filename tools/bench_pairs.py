"""Interleaved parent/change benchmark pairs, written to one JSON file.

    python3 tools/bench_pairs.py --base REV --pairs N --seconds S --out BENCH_<n>.json

The commit ``REV`` (via ``git archive``) and this checkout's working tree
(tracked and untracked files that git does not ignore) are copied into two
fresh directories. For pair ``i`` and each workload, ``bench/run.py
--workload W --seed i --seconds S --trace 0`` runs once in each copy, each
copy with its own ``bench/``; even pairs run the base first, odd pairs the
change. Host speed drifts between sets of runs, so only these interleaved
pairs are compared, never absolute numbers from another file.

Per workload and side the file records every run, the median and quartiles
of each end-to-end metric in ``BENCHMARK.json``, the pairs each side won on
it (ties count for neither), whether every operation was correct and the
share of failed operations. It adds one ``--trace 1`` run per workload and
side (per-layer calls and self times), and the output of
``tools/report_digests.py`` for both sides' sources: its environment header
line per side, and the digests with the names of any that differ.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def checkout_base(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def checkout_working_tree(dest: Path) -> None:
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def bench_run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` run in ``tree``; its last stdout line, parsed."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 1, "failed": 1,
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}", "metrics": {}}
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def digests(tree: Path) -> tuple[str, dict]:
    """``report_digests.py`` of this checkout run on ``tree``'s sources."""
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "report_digests.py"),
                           "--src", str(tree / "src")],
                          capture_output=True, text=True, check=True)
    return parse_digests(proc.stdout)


def parse_digests(text: str) -> tuple[str, dict]:
    """The ``# `` header lines of a digest file, and its digests by output name."""
    lines = text.splitlines()
    header = "\n".join(line for line in lines if line.startswith("#"))
    return header, {name: digest for digest, name in
                    (line.split("  ", 1) for line in lines if not line.startswith("#"))}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "iqr": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: dict, metrics: list[dict]) -> dict:
    """Per-side statistics and pair outcomes of one workload's runs.

    ``runs`` maps each side to its runs, pair by pair; ``metrics`` are the
    ``end_to_end`` entries of ``BENCHMARK.json``.
    """
    out = {side: {"correct": all(r["correct"] for r in runs[side]),
                  "ops_failed": (sum(r["failed"] for r in runs[side])
                                 / max(1, sum(r["attempted"] for r in runs[side])))}
           for side in SIDES}
    comparison = {}
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
        # a run that failed outright has no metrics: None in its slot
        values = {side: [r["metrics"].get(name) for r in runs[side]] for side in SIDES}
        if not all(any(v is not None for v in values[side]) for side in SIDES):
            continue
        for side in SIDES:
            out[side][name] = {"values": values[side],
                               **quartiles([v for v in values[side] if v is not None])}
        won = {side: 0 for side in SIDES}
        for b, c in zip(values["base"], values["change"]):
            if b is not None and c is not None and c != b:
                won["change" if sign * (c - b) > 0 else "base"] += 1
        base_med, change_med = out["base"][name]["median"], out["change"][name]["median"]
        comparison[name] = {
            "pairs_won": won,
            "median_gap": change_med - base_med,
            "base_iqr": out["base"][name]["iqr"],
            # share by which the change's median is worse than the base's
            "relative_worsening": (sign * (base_med - change_med) / abs(base_med)
                                   if base_med else 0.0),
            "bound": m["bound"],
        }
    out["comparison"] = comparison
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="--seconds of every untraced bench/run.py run")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    base_rev = git("rev-parse", args.base).decode().strip()
    work = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    trees = {"base": work / "base", "change": work / "change"}
    try:
        for tree in trees.values():
            tree.mkdir()
        checkout_base(base_rev, trees["base"])
        checkout_working_tree(trees["change"])

        runs = {w: {side: [] for side in SIDES} for w in workloads}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for w in workloads:
                for side in order:
                    runs[w][side].append(
                        bench_run(trees[side], w, i, args.seconds, trace=0))
                print(f"pair {i} {w}: " + ", ".join(
                    f"{side} {runs[w][side][-1]['metrics'].get('sim_frames_per_s')}"
                    for side in order), file=sys.stderr, flush=True)
        traced = {w: {side: bench_run(trees[side], w, 0, args.seconds, trace=1)
                      for side in SIDES} for w in workloads}
        environment, reports = {}, {}
        for side in SIDES:
            environment[side], reports[side] = digests(trees[side])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "method": "interleaved pairs",
        "note": ("pair i runs bench/run.py --seed i on both sides, base first on even i; "
                 "compare sides only within this file"),
        "base": base_rev,
        "change": "working tree of " + git("rev-parse", "HEAD").decode().strip(),
        "pairs": args.pairs,
        "seconds": args.seconds,
        "host": {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
                 "python": platform.python_version()},
        "workloads": {w: {**summarize(runs[w], spec["end_to_end"]),
                          "traced": traced[w]} for w in workloads},
        "report_digests": {
            **reports,
            "environment": environment,
            "differ": sorted(n for n in reports["base"].keys() | reports["change"].keys()
                             if reports["base"].get(n) != reports["change"].get(n)),
        },
    }
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
