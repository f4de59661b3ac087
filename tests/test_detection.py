import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgekt.detection import (BOX_CHANNELS, CH_OBJ, CH_TH, CH_TW, CH_TX, CH_TY, CHANNELS,
                              CLASSES, COORD_LOGIT_SCALE, GRID_CELLS, GRIDS, MATCH_IOU,
                              NMS_IOU, OBJ_THRESHOLD, SIZE_PRIOR, Box, DetectionTensorSet,
                              compute_metrics, decode_boxes, encode_box, iou, logit, nms,
                              scale_views, sigmoid)


def _cells(fill=0.0):
    return np.full((GRID_CELLS, CHANNELS), fill, dtype=np.float32)


def _tensor_set(fill=0.0):
    return DetectionTensorSet(_cells(fill))


# -- IoU ---------------------------------------------------------------------

def test_iou_identical():
    b = Box(0.5, 0.5, 0.2, 0.3, 0)
    assert iou(b, b) == pytest.approx(1.0)


def test_iou_disjoint():
    assert iou(Box(0.2, 0.2, 0.1, 0.1, 0), Box(0.8, 0.8, 0.1, 0.1, 0)) == 0.0


def test_iou_half_overlap_unit_boxes():
    # two unit boxes offset by half a width: 0.5 / (1 + 1 - 0.5) = 1/3
    a = Box(0.5, 0.5, 1.0, 1.0, 0)
    b = Box(1.0, 0.5, 1.0, 1.0, 0)
    assert iou(a, b) == pytest.approx(1.0 / 3.0)


def test_iou_symmetric_and_bounded():
    rng = np.random.Generator(np.random.PCG64(10))
    for _ in range(100):
        a = Box(*rng.uniform(0.2, 0.8, 2), *rng.uniform(0.05, 0.4, 2), 0)
        b = Box(*rng.uniform(0.2, 0.8, 2), *rng.uniform(0.05, 0.4, 2), 0)
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(iou(b, a))


# -- decode ------------------------------------------------------------------

def test_decode_below_threshold_emits_nothing():
    assert decode_boxes(_tensor_set(fill=-1.0)) == []


def test_decode_hot_cell():
    cells = _cells(fill=-1.0)
    arr = scale_views(cells)[0]
    # encode a box centered at cell (2, 5) of the 8-grid
    g = 8
    x, y, w, h = (5 + 0.4) / g, (2 + 0.7) / g, 0.25, 0.125
    arr[2, 5, 0] = COORD_LOGIT_SCALE * logit(0.4)
    arr[2, 5, 1] = COORD_LOGIT_SCALE * logit(0.7)
    arr[2, 5, 2] = COORD_LOGIT_SCALE * (logit(w) - logit(SIZE_PRIOR))
    arr[2, 5, 3] = COORD_LOGIT_SCALE * (logit(h) - logit(SIZE_PRIOR))
    arr[2, 5, CH_OBJ] = 3.0
    arr[2, 5, BOX_CHANNELS + 2] = 2.0
    boxes = decode_boxes(DetectionTensorSet(cells))
    assert len(boxes) == 1
    b = boxes[0]
    assert b.x == pytest.approx(x, abs=1e-6)
    assert b.y == pytest.approx(y, abs=1e-6)
    assert b.w == pytest.approx(w, abs=1e-6)
    assert b.h == pytest.approx(h, abs=1e-6)
    assert b.class_id == 2


def test_decode_cell_at_threshold_is_emitted():
    # objectness logit 0 is a score of exactly OBJ_THRESHOLD, which passes
    assert OBJ_THRESHOLD == float(sigmoid(0.0))
    boxes = decode_boxes(_tensor_set())
    assert len(boxes) == 8 * 8 + 4 * 4 + 2 * 2
    assert all(b.score == OBJ_THRESHOLD for b in boxes)


# -- NMS ---------------------------------------------------------------------

def _reference_nms(boxes):
    """Independent O(n^2) reference: precompute the IoU matrix, then greedily
    pick the global best remaining box and knock out same-class overlaps."""
    n = len(boxes)
    mat = [[iou(boxes[i], boxes[j]) for j in range(n)] for i in range(n)]
    alive = set(range(n))
    kept = []
    while alive:
        best = min(alive, key=lambda i: (-boxes[i].score, i))
        kept.append(best)
        alive.discard(best)
        for j in list(alive):
            if boxes[j].class_id == boxes[best].class_id and mat[best][j] > NMS_IOU:
                alive.discard(j)
    return [boxes[i] for i in kept]


def test_nms_empty():
    assert nms([]) == []


def test_nms_duplicate_suppression():
    a = Box(0.5, 0.5, 0.2, 0.2, 1, score=0.9)
    b = Box(0.5, 0.5, 0.2, 0.2, 1, score=0.8)
    assert nms([a, b]) == [a]


def test_nms_matches_brute_force():
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(500):
        boxes = [
            Box(float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.2, 0.8)),
                float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.05, 0.5)),
                int(rng.integers(0, 3)), float(rng.uniform(0, 1)))
            for _ in range(10)
        ]
        assert nms(boxes) == _reference_nms(boxes)


def test_nms_survivor_property():
    rng = np.random.Generator(np.random.PCG64(12))
    boxes = [
        Box(float(rng.uniform(0.3, 0.7)), float(rng.uniform(0.3, 0.7)),
            0.3, 0.3, int(rng.integers(0, 2)), float(rng.uniform(0, 1)))
        for _ in range(20)
    ]
    kept = nms(boxes)
    assert all(b in boxes for b in kept)
    for a, b in itertools.combinations(kept, 2):
        if a.class_id == b.class_id:
            assert iou(a, b) <= NMS_IOU


# -- metrics -----------------------------------------------------------------

def test_metrics_exact_match():
    truth = [Box(0.3, 0.3, 0.2, 0.2, 0), Box(0.7, 0.7, 0.2, 0.2, 1)]
    m = compute_metrics(truth, truth)
    assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)


def test_metrics_no_predictions():
    truth = [Box(0.3, 0.3, 0.2, 0.2, 0)]
    m = compute_metrics([], truth)
    assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)
    assert m.false_negatives == 1


def test_metrics_f1_formula():
    # P = 3/5 = 0.6, R = 3/6 = 0.5 -> F1 = 2*0.3/1.1
    truth = [Box(0.1 + 0.15 * k, 0.2, 0.1, 0.1, 0) for k in range(6)]
    preds = [truth[k] for k in range(3)]
    preds += [Box(0.2 + 0.2 * k, 0.8, 0.1, 0.1, 0, score=0.4) for k in range(2)]
    m = compute_metrics(preds, truth)
    assert m.precision == pytest.approx(0.6)
    assert m.recall == pytest.approx(0.5)
    assert m.f1 == pytest.approx(2 * 0.3 / 1.1, abs=1e-6)


def test_metrics_class_must_match():
    truth = [Box(0.5, 0.5, 0.2, 0.2, 0)]
    preds = [Box(0.5, 0.5, 0.2, 0.2, 1)]
    m = compute_metrics(preds, truth)
    assert m.true_positives == 0


def _optimal_assignment_tp(preds, truth):
    """Exhaustive maximum bipartite matching on the eligibility graph."""
    eligible = [[t for t in range(len(truth))
                 if truth[t].class_id == preds[p].class_id
                 and iou(preds[p], truth[t]) >= MATCH_IOU]
                for p in range(len(preds))]

    best = 0
    def rec(p, used):
        nonlocal best
        if p == len(preds):
            best = max(best, len(used))
            return
        rec(p + 1, used)
        for t in eligible[p]:
            if t not in used:
                rec(p + 1, used | {t})
    rec(0, frozenset())
    return best


def test_metrics_match_optimal_assignment_unambiguous():
    # all pairwise IoUs either > 0.9 or < 0.5: greedy equals optimal
    rng = np.random.Generator(np.random.PCG64(13))
    for _ in range(50):
        n = int(rng.integers(1, 7))
        truth = []
        for k in range(n):
            truth.append(Box(0.08 + 0.16 * k, float(rng.uniform(0.3, 0.7)),
                             0.1, 0.1, int(rng.integers(0, 2))))
        preds = []
        for t in truth:
            if rng.uniform() < 0.7:  # near-duplicate of a truth box
                preds.append(Box(t.x + float(rng.uniform(-0.002, 0.002)), t.y,
                                 t.w, t.h, t.class_id, float(rng.uniform(0.5, 1))))
        for _ in range(int(rng.integers(0, 3))):  # far decoys
            preds.append(Box(float(rng.uniform(0.1, 0.9)), 0.95, 0.04, 0.04,
                             int(rng.integers(0, 2)), float(rng.uniform(0, 1))))
        m = compute_metrics(preds, truth)
        assert m.true_positives == _optimal_assignment_tp(preds, truth)


def test_metrics_harmonic_mean_bounds():
    rng = np.random.Generator(np.random.PCG64(14))
    for _ in range(50):
        truth = [Box(0.1 + 0.2 * k, 0.5, 0.1, 0.1, 0) for k in range(int(rng.integers(1, 5)))]
        preds = [Box(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)), 0.1, 0.1, 0,
                     float(rng.uniform(0, 1))) for _ in range(int(rng.integers(0, 6)))]
        m = compute_metrics(preds, truth)
        assert 0.0 <= m.precision <= 1.0 and 0.0 <= m.recall <= 1.0 and 0.0 <= m.f1 <= 1.0
        if m.precision + m.recall > 0:
            assert m.f1 <= max(m.precision, m.recall) + 1e-12
            assert m.f1 >= min(m.precision, m.recall) - 1e-12


# -- array decode against the per-cell loop -------------------------------------

def _reference_iou(a, b):
    """IoU exactly as the per-pair scalar code computed it."""
    ax1, ay1, ax2, ay2 = a.x - a.w / 2.0, a.y - a.h / 2.0, a.x + a.w / 2.0, a.y + a.h / 2.0
    bx1, by1, bx2, by2 = b.x - b.w / 2.0, b.y - b.h / 2.0, b.x + b.w / 2.0, b.y + b.h / 2.0
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
    return inter / union


def _reference_decode_boxes(out):
    """The per-cell loop with scalar sigmoids that the array decode replaced."""
    boxes = []
    for arr in out.scales:
        g = arr.shape[0]
        obj = sigmoid(arr[:, :, CH_OBJ])
        for r in range(g):
            for c in range(g):
                score = float(obj[r, c])
                if score < OBJ_THRESHOLD:
                    continue
                cell = arr[r, c]
                prior = logit(SIZE_PRIOR)
                x = (c + float(sigmoid(cell[CH_TX] / COORD_LOGIT_SCALE))) / g
                y = (r + float(sigmoid(cell[CH_TY] / COORD_LOGIT_SCALE))) / g
                w = float(sigmoid(cell[CH_TW] / COORD_LOGIT_SCALE + prior))
                h = float(sigmoid(cell[CH_TH] / COORD_LOGIT_SCALE + prior))
                class_id = int(np.argmax(cell[BOX_CHANNELS:]))
                boxes.append(Box(x, y, w, h, class_id, score))
    return boxes


@st.composite
def _detection_tensors(draw):
    """Random tensor sets, each scale's rows drawn apart: spread-out values,
    scales where no cell or every cell passes, and scales of tied scores
    and classes; in some sets, a NaN objectness in about one cell in five."""
    kind = draw(st.sampled_from(["random", "none_pass", "all_pass", "tied"]))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    scales = []
    for g in GRIDS:
        arr = rng.normal(0.0, draw(st.sampled_from([0.5, 3.0, 30.0])), (g * g, CHANNELS))
        if kind == "none_pass":
            arr[:, CH_OBJ] = -rng.uniform(1.0, 50.0, g * g)
        elif kind == "all_pass":
            arr[:, CH_OBJ] = rng.uniform(0.0, 50.0, g * g)
        elif kind == "tied":
            arr[:, CH_OBJ] = draw(st.sampled_from([0.0, 0.7, 2.5]))
            arr[:, BOX_CHANNELS:] = rng.integers(0, 2, (g * g, CLASSES))
        scales.append(arr)
    cells = np.concatenate(scales).astype(np.float32)
    if draw(st.booleans()):
        cells[rng.random(GRID_CELLS) < 0.2, CH_OBJ] = np.nan
    return DetectionTensorSet(cells)


def _same_value(a, b):
    """Equal Python type and value, a NaN equal to a NaN."""
    return type(a) is type(b) and (a == b or (a != a and b != b))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(out=_detection_tensors())
def test_array_decode_equals_per_cell_loop(out):
    got, want = decode_boxes(out), _reference_decode_boxes(out)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is Box and all(_same_value(a, b) for a, b in zip(g, w)), (g, w)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8))
def test_iou_keeps_the_scalar_float_order(v):
    a = Box(v[0], v[1], v[2] + 1e-3, v[3] + 1e-3, 0)
    b = Box(v[4], v[5], v[6] + 1e-3, v[7] + 1e-3, 0)
    assert iou(a, b) == _reference_iou(a, b)
    assert iou(b, a) == _reference_iou(b, a)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(x=st.floats(0.0, 1.0), y=st.floats(0.0, 1.0), w=st.floats(1e-3, 1.0),
       h=st.floats(1e-3, 1.0), class_id=st.integers(0, CLASSES - 1),
       scale=st.integers(0, len(GRIDS) - 1))
def test_encode_box_round_trips_through_decode(x, y, w, h, class_id, scale):
    g = GRIDS[scale]
    r, c, coded = encode_box(Box(x, y, w, h, class_id), g)
    assert (r, c) == (min(int(y * g), g - 1), min(int(x * g), g - 1))
    cells = _cells(fill=-10.0)
    cell = scale_views(cells)[scale][r, c]
    cell[CH_TX:CH_TH + 1] = coded
    cell[CH_OBJ] = 10.0
    cell[BOX_CHANNELS + class_id] = 1.0
    [box] = decode_boxes(DetectionTensorSet(cells))
    fx, fy, fw, fh = np.clip([x * g - c, y * g - r, w, h], 0.02, 0.98).tolist()
    assert box[:4] == pytest.approx(((c + fx) / g, (r + fy) / g, fw, fh), abs=1e-6)
    assert box.class_id == class_id
