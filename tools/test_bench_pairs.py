"""Self-tests of tools/bench_pairs.py.

    python3 -m pytest -q tools

The end-to-end test runs one pair of every workload against HEAD, plus the
traced runs and both report-digest matrices: about six minutes on 2 cores.
"""

import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_pairs  # noqa: E402
import report_digests  # noqa: E402

METRICS = [{"name": "sim_frames_per_s", "better": "higher", "bound": 0.25},
           {"name": "setup_s", "better": "lower", "bound": 0.25}]


def _run(fps, setup=0.2, failed=0):
    return {"correct": failed == 0, "attempted": 2, "failed": failed,
            "metrics": {"sim_frames_per_s": fps, "setup_s": setup}}


def test_quartiles_of_five():
    q = bench_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0])
    assert q == {"median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0}
    assert bench_pairs.quartiles([7.0])["iqr"] == 0.0


def test_summarize_counts_wins_by_direction_and_ties_for_neither():
    runs = {"base": [_run(10.0, 0.30), _run(12.0, 0.20), _run(11.0, 0.25, failed=1)],
            "change": [_run(20.0, 0.20), _run(12.0, 0.30), _run(9.0, 0.25)]}
    s = bench_pairs.summarize(runs, METRICS)
    fps, setup = s["comparison"]["sim_frames_per_s"], s["comparison"]["setup_s"]
    assert fps["pairs_won"] == {"base": 1, "change": 1}
    assert setup["pairs_won"] == {"base": 1, "change": 1}  # lower is better
    assert fps["median_gap"] == pytest.approx(1.0)
    assert fps["relative_worsening"] == pytest.approx(-1.0 / 11.0)
    assert s["base"]["correct"] is False and s["change"]["correct"] is True
    assert s["base"]["ops_failed"] == pytest.approx(1 / 6)
    assert s["change"]["sim_frames_per_s"]["values"] == [20.0, 12.0, 9.0]


def test_summarize_skips_a_run_without_metrics():
    broken = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    runs = {"base": [_run(10.0), broken], "change": [_run(15.0), _run(14.0)]}
    s = bench_pairs.summarize(runs, METRICS)
    assert s["comparison"]["sim_frames_per_s"]["pairs_won"] == {"base": 0, "change": 1}
    assert s["base"]["sim_frames_per_s"]["median"] == 10.0


def test_digest_files_parse_around_the_environment_header():
    text = f"{report_digests.environment()}\n{'ab' * 32}  a.json\n{'cd' * 32}  b.trace.csv\n"
    header, digests = bench_pairs.parse_digests(text)
    assert header.startswith("# python ") and " numpy " in header and " dispatch " in header
    assert digests == {"a.json": "ab" * 32, "b.trace.csv": "cd" * 32}


def test_leaked_child_sees_a_running_child_until_it_is_reaped():
    assert not report_digests.leaked_child()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # runs until the parent closes the pipe
        os.close(w)
        os.read(r, 1)
        os._exit(0)
    os.close(r)
    try:
        assert report_digests.leaked_child()
    finally:
        os.close(w)
        os.waitpid(pid, 0)
    assert not report_digests.leaked_child()


def test_one_pair_end_to_end(tmp_path):
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--base", "HEAD", "--pairs", "1", "--seconds", "5",
                             "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["method"] == "interleaved pairs"
    assert sorted(result["workloads"]) == ["compare-presets", "large-frames",
                                           "nt-lan-kfs-off"]
    for w in result["workloads"].values():
        assert sorted(w["comparison"]) == ["peak_rss_mb", "setup_s", "sim_frames_per_s"]
        assert sum(w["comparison"]["sim_frames_per_s"]["pairs_won"].values()) <= 1
        for side in bench_pairs.SIDES:
            assert w[side]["correct"] and w[side]["ops_failed"] == 0.0
            assert len(w[side]["sim_frames_per_s"]["values"]) == 1
            assert w["traced"][side]["correct"]
            assert w["traced"][side]["metrics"]["harness.run_scenario.calls"] > 0
    nt = result["workloads"]["nt-lan-kfs-off"]["traced"]
    assert all(nt[side]["metrics"]["models.adapt_decoder.calls"] == 600
               for side in bench_pairs.SIDES)
    # a run writes a report and a trace, a compare one table
    files = sum(1 if is_compare else 2 for _, _, is_compare in report_digests.matrix())
    for side in bench_pairs.SIDES:
        assert len(result["report_digests"][side]) == files
        assert result["report_digests"]["environment"][side].startswith("# python ")
    assert isinstance(result["report_digests"]["differ"], list)
