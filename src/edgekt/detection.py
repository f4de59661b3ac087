"""Output geometry, grid-cell coding of detection tensors, NMS, IoU matching and metrics.

All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

# Channel layout of one grid cell: box offsets, size, objectness, class scores.
CH_TX, CH_TY, CH_TW, CH_TH, CH_OBJ = 0, 1, 2, 3, 4
BOX_CHANNELS = 5

# the one output geometry: object classes and output grid sides, finest
# first; SCALE_ROWS are each scale's rows of a DetectionTensorSet's cells
CLASSES = 3
GRIDS = (8, 4, 2)
CHANNELS = BOX_CHANNELS + CLASSES
SCALE_ROWS = tuple(slice(end - g * g, end)
                   for g, end in zip(GRIDS, itertools.accumulate(g * g for g in GRIDS)))
GRID_CELLS = SCALE_ROWS[-1].stop

# Box channels carry scaled logits: value = COORD_LOGIT_SCALE * logit(fraction).
# The scaling halves the decode sensitivity to regression error. Width and
# height are coded relative to a fixed prior size, so a zero channel decodes
# to the prior rather than to half the frame.
COORD_LOGIT_SCALE = 2.0
SIZE_PRIOR = 0.2

# the one operating point, for served and oracle outputs alike: a cell is a
# candidate from this objectness up, NMS drops a same-class box above this
# IoU with a kept one, and a prediction matches a truth box from this IoU up
OBJ_THRESHOLD = 0.5
NMS_IOU = 0.45
MATCH_IOU = 0.5


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def logit(p: float) -> float:
    return float(np.log(p / (1.0 - p)))


class Box(NamedTuple):
    """Axis-aligned box in normalized [0,1] frame coordinates, center-based."""

    x: float
    y: float
    w: float
    h: float
    class_id: int
    score: float = 1.0


def scale_views(cells: np.ndarray) -> tuple[np.ndarray, ...]:
    """The (g, g, C) view of each scale's rows of a cell table, finest first."""
    return tuple(cells[rows].reshape(g, g, -1) for g, rows in zip(GRIDS, SCALE_ROWS))


@dataclass(frozen=True, eq=False)
class DetectionTensorSet:
    """One model output: ``cells``, the read-only float32 cell table of shape
    (``GRID_CELLS``, ``CHANNELS``), one row per grid cell, scale by scale
    (finest first) and row-major within a scale. Not a ``Tensor``: it is
    computed from values checked finite where those entered the run.
    Construction refuses any other dtype or shape and marks it read-only."""

    cells: np.ndarray

    def __post_init__(self):
        a, shape = self.cells, (GRID_CELLS, CHANNELS)
        if not (isinstance(a, np.ndarray) and a.dtype == np.float32 and a.shape == shape):
            got = f"{a.dtype} {a.shape}" if isinstance(a, np.ndarray) else type(a).__name__
            raise ValueError(f"a detection tensor set is a float32 {shape} array, got {got}")
        a.flags.writeable = False

    @property
    def scales(self) -> tuple[np.ndarray, ...]:
        """The per-scale read-only (g, g, C) views of ``cells``, finest first."""
        return scale_views(self.cells)


@dataclass
class MetricsReport:
    true_positives: int
    false_positives: int
    false_negatives: int
    precision: float
    recall: float
    f1: float
    overall_score: float | None = None  # filled by the harness (f1 per joule)

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "MetricsReport":
        precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
        recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
        f1 = (2.0 * precision * recall / (precision + recall)
              if (precision + recall) > 0 else 0.0)
        return cls(tp, fp, fn, precision, recall, f1)


# added to the scaled box channels before the sigmoid: the width and height
# logits are relative to the size prior, in float32 like the channels
_COORD_OFFSETS = np.array([0.0, 0.0, logit(SIZE_PRIOR), logit(SIZE_PRIOR)], dtype=np.float32)
# per cell-table row: the cell's (column, row) in its grid, and the grid side
_CELL_COL_ROW = np.array([(c, r) for g in GRIDS for r in range(g) for c in range(g)], np.float64)
_CELL_SIDE = np.array([g for g in GRIDS for _ in range(g * g)], np.float64)


def _geometry(b: Box) -> tuple[float, float, float, float, float]:
    """(x1, y1, x2, y2, area) of a box, as ``iou`` reads it."""
    x, y, w, h = b.x, b.y, b.w, b.h
    return (x - w / 2.0, y - h / 2.0, x + w / 2.0, y + h / 2.0, w * h)


def _iou(a: tuple, b: tuple) -> float:
    ax1, ay1, ax2, ay2, a_area = a
    bx1, by1, bx2, by2, b_area = b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a_area + b_area - inter
    return inter / union


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes, in [0, 1]."""
    return _iou(_geometry(a), _geometry(b))


def encode_box(box: Box, g: int) -> tuple[int, int, tuple[float, float, float, float]]:
    """The ``(row, col)`` of the g x g grid cell holding ``box``, and the box
    channels ``(tx, ty, tw, th)`` that ``decode_boxes`` inverts. Each fraction,
    the centre's offset in its cell and the size, is clipped to [0.02, 0.98]."""
    c = min(int(box.x * g), g - 1)
    r = min(int(box.y * g), g - 1)
    k, prior = COORD_LOGIT_SCALE, logit(SIZE_PRIOR)
    tx, ty, tw, th = (logit(float(np.clip(p, 0.02, 0.98)))
                      for p in (box.x * g - c, box.y * g - r, box.w, box.h))
    return r, c, (k * tx, k * ty, k * (tw - prior), k * (th - prior))


def decode_boxes(out: DetectionTensorSet) -> list[Box]:
    """Decode grid cells whose objectness is at least ``OBJ_THRESHOLD`` into boxes.

    One candidate per passing cell: center from the cell's sigmoid offsets,
    size from sigmoid of the width/height channels, class by argmax, score
    is the objectness probability. Candidates are emitted in cell-table
    order, which fixes the tie-break order downstream. The table is decoded
    in one masked pass: the passing cells' box channels are scaled and
    offset by the size prior in float32, then widened to float64 for the
    sigmoid, as a per-cell decode does.
    """
    obj = sigmoid(out.cells[:, CH_OBJ])
    # a NaN objectness is not below the threshold, so it passes
    keep = np.flatnonzero(~(obj < OBJ_THRESHOLD))
    passing = out.cells[keep]
    coords = sigmoid(passing[:, CH_TX:CH_TH + 1] / COORD_LOGIT_SCALE + _COORD_OFFSETS)
    coords[:, CH_TX:CH_TY + 1] += _CELL_COL_ROW[keep]
    coords[:, CH_TX:CH_TY + 1] /= _CELL_SIDE[keep, None]
    return [Box(x, y, w, h, class_id, score) for (x, y, w, h), class_id, score in zip(
        coords.tolist(), passing[:, BOX_CHANNELS:].argmax(axis=1).tolist(), obj[keep].tolist())]


def nms(boxes: Sequence[Box]) -> list[Box]:
    """Greedy per-class non-maximum suppression.

    Keeps the highest-score box of each class, drops same-class boxes
    whose IoU with a kept box exceeds ``NMS_IOU``, repeats. Ties on
    score break toward earlier input position. Output is sorted by
    descending score.
    """
    kept: list[Box] = []
    kept_geometry: dict[int, list[tuple]] = {}  # per class, in keeping order
    # a stable sort keeps input order among equal scores
    for cand in sorted(boxes, key=lambda b: -b.score):
        rivals = kept_geometry.setdefault(cand.class_id, [])
        geo = _geometry(cand)
        if not any(_iou(k, geo) > NMS_IOU for k in rivals):
            rivals.append(geo)
            kept.append(cand)
    return kept


def compute_metrics(predicted: Sequence[Box], truth: Sequence[Box]) -> MetricsReport:
    """Greedy score-ordered matching at ``MATCH_IOU``.

    A prediction is a true positive iff it shares the class of, and has
    IoU >= ``MATCH_IOU`` with, a not-yet-matched truth box (best IoU wins,
    earlier truth index on ties). Each truth box matches at most once.
    """
    truth_geometry = [_geometry(t) for t in truth]
    matched = [False] * len(truth)
    tp = 0
    # a stable sort keeps input order among equal scores
    for p in sorted(predicted, key=lambda b: -b.score):
        geo = _geometry(p)
        best_j = -1
        best_iou = 0.0
        for j, t in enumerate(truth):
            if matched[j] or t.class_id != p.class_id:
                continue
            v = _iou(geo, truth_geometry[j])
            if v >= MATCH_IOU and v > best_iou:
                best_iou = v
                best_j = j
        if best_j >= 0:
            matched[best_j] = True
            tp += 1
    fp = len(predicted) - tp
    fn = len(truth) - tp
    return MetricsReport.from_counts(tp, fp, fn)
