"""Simulated outcomes of an operation and their check against golden values.

An operation's outcome is a map from field to digest. For a ``run`` report
the fields are the simulated statistics (aggregate counts and scores, energy,
key frames, per-frame traces, swap-log checksums); keys a report gains later
are not fields, so schema additions pass while any simulated change fails.
For ``compare`` the outcome is the CSV table, byte for byte.
"""

from __future__ import annotations

import hashlib
import json

REPORT_FIELDS = (
    "scenario", "frame_count",
    "aggregate.true_positives", "aggregate.false_positives", "aggregate.false_negatives",
    "aggregate.precision", "aggregate.recall", "aggregate.f1", "aggregate.overall_score",
    "mean_inference_s", "mean_training_s", "total_joules", "energy_per_frame_j",
    "overall_score", "energy_by_activity", "key_frame_indices",
    "f1_trace", "inference_trace", "candidate_trace", "version_trace", "swap_log",
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(value) -> str:
    """Digest of a JSON value; floats keep every digit (``repr``)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return sha256(text.encode("utf-8"))[:16]


def _field(report: dict, path: str):
    value = report
    for key in path.split("."):
        value = value.get(key) if isinstance(value, dict) else None
    return value


def report_outcome(report: dict) -> dict:
    return {path: digest(_field(report, path)) for path in REPORT_FIELDS}


def table_outcome(csv_bytes: bytes) -> dict:
    return {"csv_sha256": sha256(csv_bytes)}


def mismatches(outcome: dict, golden: dict) -> list[str]:
    """Fields whose digest differs from the golden one (missing counts too)."""
    return sorted(k for k in golden if outcome.get(k) != golden[k])
