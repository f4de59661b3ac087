import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgekt import models
from edgekt.detection import (BOX_CHANNELS, CH_OBJ, CHANNELS, GRID_CELLS, Box,
                              DetectionTensorSet, compute_metrics, decode_boxes, nms)
from edgekt.models import (DecoderWeights, ModelConfig, OracleModel, Precision, StudentModel,
                           adapt_decoder, distill_gradients, distill_loss, prepare_distill,
                           swap_decoder)
from edgekt.netproto import decode_weights, encode_weights
from edgekt.tensor import Tensor, f16_decode, f16_encode

# the smallest frame the one geometry pools onto its grids, for the
# float64 finite-difference checks
SMALL = ModelConfig(input_hw=32)


@pytest.fixture(scope="module")
def student():
    return StudentModel.pretrained(ModelConfig())


@pytest.fixture(scope="module")
def oracle():
    return OracleModel(ModelConfig())


def _frame(cfg=None, seed=1):
    cfg = cfg or ModelConfig()
    rng = np.random.Generator(np.random.PCG64(seed))
    return Tensor(rng.uniform(0, 1, (cfg.input_hw, cfg.input_hw, 3)).astype(np.float32))


def _truth():
    return [Box(0.42, 0.38, 0.19, 0.19, 0), Box(0.68, 0.70, 0.20, 0.16, 1)]


# -- tensor set / loss ---------------------------------------------------------

def _table(fill=0.0):
    return np.full((GRID_CELLS, CHANNELS), fill, np.float32)


def test_tensor_set_requires_three_scales():
    # a table without the coarsest scale's rows
    with pytest.raises(ValueError, match=re.escape(f"float32 {(GRID_CELLS, CHANNELS)} array")):
        DetectionTensorSet(_table()[:-models.GRIDS[-1] ** 2])


def test_tensor_set_refuses_a_foreign_geometry():
    # grids (4, 2, 1), not the models' (8, 4, 2), a wrong channel count and
    # float64 cells are each refused at construction, so no adaptation sees them
    for bad in (np.zeros((16 + 4 + 1, CHANNELS), np.float32),
                np.zeros((GRID_CELLS, CHANNELS + 1), np.float32), _table().astype(np.float64)):
        with pytest.raises(ValueError, match="a detection tensor set is a float32"):
            DetectionTensorSet(bad)


def test_model_outputs_are_read_only_float32_arrays(student, oracle, monkeypatch):
    # a model output is computed from checked values, so neither model
    # builds a Tensor for it; the set checks its table's dtype and shape
    f = _frame(seed=3)
    inputs = student.head_inputs(f)
    calls, init = [], Tensor.__init__
    monkeypatch.setattr(Tensor, "__init__", lambda *a: calls.append(1) or init(*a))
    outs = [student.outputs(inputs), oracle.forward(f, _truth())]
    assert calls == []
    for out in outs:
        assert type(out.cells) is np.ndarray and out.cells.dtype == np.float32
        assert out.cells.shape == (GRID_CELLS, CHANNELS) and not out.cells.flags.writeable
        for a, g in zip(out.scales, models.GRIDS):
            assert a.base is out.cells
            assert a.shape == (g, g, CHANNELS) and not a.flags.writeable
        # scales are views of the rows in table order, row-major within a scale
        assert np.array_equal(out.scales[1][2, 3], out.cells[8 * 8 + 2 * 4 + 3])
    with pytest.raises(ValueError, match="got Tensor"):
        DetectionTensorSet(Tensor(_table()))


def test_distill_loss_identity(student):
    out = student.forward(_frame())
    assert distill_loss(out, out) == 0.0


def test_distill_loss_single_element():
    cells = _table()
    cells[70, 3] = 1.0
    assert distill_loss(DetectionTensorSet(_table()), DetectionTensorSet(cells)) == 1.0


def test_distill_loss_compositional(student, oracle):
    f = _frame(seed=5)
    s_out = student.forward(f)
    o_out = oracle.forward(f, _truth())
    expected = sum(float(np.sum((a.astype(np.float64) - b.astype(np.float64)) ** 2))
                   for a, b in zip(s_out.scales, o_out.scales))
    assert distill_loss(s_out, o_out) == pytest.approx(expected)


# -- student forward -------------------------------------------------------------

def test_forward_shapes(student):
    out = student.forward(_frame())
    assert [t.shape for t in out.scales] == [(g, g, models.CHANNELS) for g in models.GRIDS]


def test_forward_deterministic(student):
    f = _frame(seed=2)
    a = student.forward(f)
    b = student.forward(f)
    assert all(np.array_equal(x, y) for x, y in zip(a.scales, b.scales))


def test_forward_shape_mismatch(student, oracle):
    # student and oracle refuse a frame by one rule, with one message
    small = Tensor(np.zeros((32, 32, 3), np.float32))
    message = re.escape("frame shape (32, 32, 3) != (64, 64, 3)")
    with pytest.raises(ValueError, match=message):
        student.forward(small)
    with pytest.raises(ValueError, match=message):
        oracle.forward(small, [])


def test_zero_adaptive_decoder_is_noop(student):
    # the pretrained student's adaptive blocks are zero, so its output is the
    # general decoder's alone, computed here from the pooled cell features
    f = _frame(seed=4)
    out = student.forward(f)
    phis, _ = student._pooled(f)
    assert not any(b.array.any() for b in student.adaptive_blocks)
    assert all(wg.array.any() for wg, _ in student.general)
    for i, (wg, bg) in enumerate(student.general):
        general_only = phis[i] @ wg.array + bg.array
        assert np.array_equal(out.scales[i].reshape(-1, models.CHANNELS),
                              general_only)


def test_prepare_distill_takes_the_general_head_output_as_is(student, oracle):
    # at float32 the general head is not evaluated again: the prepared terms
    # are the head inputs themselves
    f = _frame(seed=6)
    inputs = student.head_inputs(f)
    prepared = prepare_distill(inputs, oracle.forward(f, _truth()))
    for i in range(len(models.GRIDS)):
        assert prepared.base[i] is inputs[0][i]
        assert prepared.ada_x[i] is inputs[1][i]


def test_outputs_refuse_head_inputs_without_the_coarsest_scale(student):
    # every scale's rows are written, or none: a missing scale is not left
    # as whatever the uninitialised table held
    bases, ada_x = student.head_inputs(_frame(seed=6))
    with pytest.raises(ValueError, match="zip"):
        student.outputs((bases[:-1], ada_x[:-1]))


def test_head_inputs_refuse_a_whitening_without_the_coarsest_scale(student):
    two_scales = dataclasses.replace(student, whitening=student.whitening[:-1])
    with pytest.raises(ValueError, match="zip"):
        two_scales.head_inputs(_frame(seed=6))


def test_distill_gradients_refuse_a_two_scale_set(student, oracle):
    f = _frame(seed=6)
    bases, ada_x = student.head_inputs(f)
    prepared = prepare_distill((bases[:2], ada_x[:2]), oracle.forward(f, _truth()))
    blocks = [b.array for b in student.adaptive_blocks]
    with pytest.raises(ValueError, match="zip"):
        distill_gradients(prepared, blocks, out=[np.empty_like(b) for b in blocks])


def test_mac_counts_read_the_adaptive_widths(student):
    # the adaptive W are 80, 20 and 20 wide at grids 8, 4 and 2
    assert student.adaptive_mac_count() == 44_160
    assert student.mac_count() == 557_120
    assert student.adaptation_mac_count() == 3_206_720


# -- oracle ----------------------------------------------------------------------

def test_oracle_empty_scene_decodes_empty(oracle):
    out = oracle.forward(_frame(seed=8), [])
    assert decode_boxes(out) == []


def test_oracle_single_box_closure(oracle):
    f = _frame(seed=9)
    truth = [Box(0.5, 0.5, 0.2, 0.2, 1)]
    boxes = nms(decode_boxes(oracle.forward(f, truth)))
    assert len(boxes) == 1
    m = compute_metrics(boxes, truth)
    assert m.true_positives == 1
    from edgekt.detection import iou
    assert iou(boxes[0], truth[0]) >= 0.9


def test_oracle_gives_each_box_one_cell_or_none(oracle):
    # four co-located small boxes: the first three take the cell holding
    # (0.3, 0.3) at scales 0, 1 and 2; the fourth finds no free cell
    truth = [Box(0.3, 0.3, 0.1, 0.1, c) for c in (0, 1, 2, 1)]
    out = oracle.forward(_frame(seed=11), truth)
    for arr in out.scales:
        assert ((arr[:, :, BOX_CHANNELS:] > 0.0).sum(axis=2) <= 1).all()
    boxes = decode_boxes(out)
    assert [b.class_id for b in boxes] == [0, 1, 2]
    m = compute_metrics(boxes, truth[:3])
    assert (m.true_positives, m.false_positives) == (3, 0)


@pytest.mark.parametrize("w, h, scale", [
    (0.1, 0.1, 0),
    (1.8 / 8, 0.1, 0),
    (0.1, math.nextafter(1.8 / 8, 1.0), 1),
    (1.8 / 4, 1.8 / 4, 1),
    (math.nextafter(1.8 / 4, 1.0), 0.1, 2),
    (0.9, 0.9, 2),
])
def test_oracle_places_a_lone_box_at_the_scale_its_size_names(oracle, w, h, scale):
    # the finest scale whose grid side g has max(w, h) <= 1.8 / g, else the
    # coarsest
    out = oracle.forward(_frame(seed=12), [Box(0.5, 0.5, w, h, 0)])
    assert [int((arr[:, :, CH_OBJ] > 0.0).sum()) for arr in out.scales] == [
        int(s == scale) for s in range(len(models.GRIDS))]


def test_oracle_deterministic(oracle):
    f = _frame(seed=10)
    a = oracle.forward(f, _truth())
    b = oracle.forward(f, _truth())
    assert all(np.array_equal(x, y) for x, y in zip(a.scales, b.scales))


def test_oracle_depth_exceeds_student(student, oracle):
    assert oracle.layer_count >= 2 * student.layer_count


def test_oracle_rejects_out_of_bounds_truth(oracle):
    with pytest.raises(ValueError):
        oracle.forward(_frame(), [Box(1.5, 0.5, 0.2, 0.2, 0)])


# -- adaptation --------------------------------------------------------------------

def test_adapt_self_target_is_fixpoint(student, monkeypatch):
    monkeypatch.setattr(models, "ADAPT_STEPS", 5)
    f = _frame(seed=11)
    own = student.forward(f)
    weights, _ = adapt_decoder(student, student.head_inputs(f), own)
    assert distill_loss(swap_decoder(student, weights).forward(f), own) == 0.0
    assert weights.version == student.version + 1
    for new, old in zip(weights.blocks, student.adaptive_blocks):
        assert new == old


def test_adapt_reduces_loss(student, oracle, monkeypatch):
    monkeypatch.setattr(models, "ADAPT_STEPS", 50)
    f = _frame(seed=12)
    target = oracle.forward(f, _truth())
    before = distill_loss(student.forward(f), target)
    weights, _ = adapt_decoder(student, student.head_inputs(f), target)
    after = distill_loss(swap_decoder(student, weights).forward(f), target)
    assert after < before


def test_adapt_leaves_frozen_parts_untouched(student, oracle):
    f = _frame(seed=13)
    checksum = student.frozen_checksum()
    weights, _ = adapt_decoder(student, student.head_inputs(f), oracle.forward(f, _truth()))
    m2 = swap_decoder(student, weights)
    assert student.frozen_checksum() == checksum
    assert m2.frozen_checksum() == checksum


@pytest.mark.parametrize("steps", [3, 7])
def test_adapt_steps_are_read_when_called(student, oracle, monkeypatch, steps):
    # one step count for the run and for its cost: patching the policy
    # changes both the Adam updates of one adaptation and its charged MACs
    monkeypatch.setattr(models, "ADAPT_STEPS", steps)
    calls, adam = [], models.adam_step
    monkeypatch.setattr(models, "adam_step", lambda *a: calls.append(1) or adam(*a))
    f = _frame(seed=18)
    adapt_decoder(student, student.head_inputs(f), oracle.forward(f, _truth()))
    assert len(calls) == steps
    assert student.adaptation_mac_count() == (student.mac_count()
                                              + steps * 3 * student.adaptive_mac_count())


def test_adapt_returns_the_pre_update_loss(student, oracle, monkeypatch):
    # the selector's feedback comes from the call that trains: the loss of
    # the model it was given, on the same head inputs, before any update
    monkeypatch.setattr(models, "ADAPT_STEPS", 3)
    f = _frame(seed=21)
    target = oracle.forward(f, _truth())
    inputs = student.head_inputs(f)
    weights, loss = adapt_decoder(student, inputs, target)
    assert loss == distill_loss(student.outputs(inputs), target)
    swapped = swap_decoder(student, weights)
    assert all(b.array.any() for b in swapped.adaptive_blocks)
    _, loss = adapt_decoder(swapped, inputs, target)
    assert loss == distill_loss(swapped.outputs(inputs), target)
    assert loss < distill_loss(student.outputs(inputs), target)


def _reference_loss(prepared, blocks):
    """The distillation loss at ``blocks``, from float64 ``prepare_distill`` terms."""
    return sum(((base + x @ w + b - prepared.target[rows]) ** 2).sum()
               for rows, base, x, w, b in zip(models.SCALE_ROWS, prepared.base, prepared.ada_x,
                                              blocks[0::2], blocks[1::2]))


def test_adapt_rejects_overflowing_target(student):
    # a residual near the float32 maximum doubles to inf in the gradient, and
    # adam_step's finiteness check rejects it before any weights are built;
    # the overflow raises no numpy RuntimeWarning on the way
    f = _frame(seed=16)
    huge = DetectionTensorSet(_table(3e38))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite gradient"):
            adapt_decoder(student, student.head_inputs(f), huge)


def test_gradients_match_finite_differences():
    oracle = OracleModel(SMALL)
    model = StudentModel.pretrained(SMALL)
    rng = np.random.Generator(np.random.PCG64(5))
    frame = Tensor(rng.uniform(0, 1, (32, 32, 3)).astype(np.float32))
    target = oracle.forward(frame, [Box(0.4, 0.5, 0.3, 0.3, 1)])
    blocks = tuple(rng.normal(0, 0.2, b.shape) for b in model.adaptive_blocks)
    prepared = prepare_distill(model.head_inputs(frame), target, dtype=np.float64)
    grads = distill_gradients(prepared, blocks, out=[np.empty_like(b) for b in blocks])
    h = 1e-5
    for k, b in enumerate(blocks):
        flat = b.reshape(-1)
        for idx in range(0, flat.size, max(1, flat.size // 9)):
            orig = flat[idx]
            flat[idx] = orig + h
            lp = _reference_loss(prepared, blocks)
            flat[idx] = orig - h
            lm = _reference_loss(prepared, blocks)
            flat[idx] = orig
            fd = (lp - lm) / (2 * h)
            an = grads[k].reshape(-1)[idx]
            assert abs(fd - an) <= 1e-3 * max(abs(fd), abs(an), 1e-6)


def _reference_gradients(prepared, blocks):
    """The allocating per-scale gradient formulas ``distill_gradients``
    replaced."""
    grads = []
    for rows, base, x, xt, w, b in zip(models.SCALE_ROWS, prepared.base, prepared.ada_x,
                                       prepared.ada_xt, blocks[0::2], blocks[1::2]):
        resid = 2.0 * (base + x @ w + b - prepared.target[rows])
        grads.extend([xt @ resid, resid.sum(axis=0)])
    return grads


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(dims=st.lists(st.integers(1, 90), min_size=len(models.GRIDS),
                     max_size=len(models.GRIDS)),
       scale=st.sampled_from([1e-3, 1.0, 1e19]), dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2**32 - 1))
def test_in_place_gradients_equal_allocating_formulas(dims, scale, dtype, seed):
    # the one geometry with random head input widths, both dtypes, and
    # residuals up to overflow: the residual built in place in one table and
    # the ``out`` products equal the per-scale formulas bit for bit, and
    # every ``out`` array is written
    rng = np.random.Generator(np.random.PCG64(seed))

    def draw(*shape):
        return (scale * rng.normal(0.0, 1.0, shape)).astype(dtype)

    xs = [draw(g * g, d) for g, d in zip(models.GRIDS, dims)]
    prepared = models.DistillInputs([draw(g * g, CHANNELS) for g in models.GRIDS], xs,
                                    [x.T for x in xs], draw(GRID_CELLS, CHANNELS),
                                    np.full((GRID_CELLS, CHANNELS), np.nan, dtype))
    blocks = []
    for d in dims:
        blocks += [rng.normal(0.0, 0.3, (d, CHANNELS)).astype(np.float32),
                   rng.normal(0.0, 0.3, CHANNELS).astype(np.float32)]
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _reference_gradients(prepared, blocks)
        out = [np.full(b.shape, np.nan, dtype) for b in blocks]
        written = distill_gradients(prepared, blocks, out=out)
    assert all(w is o for w, o in zip(written, out))
    for want, w in zip(expected, written):
        assert w.dtype == want.dtype
        assert w.tobytes() == want.tobytes()


def _reference_adapt(model, inputs, oracle_out):
    """The allocating adaptation ``adapt_decoder`` replaced, kept as its
    reference: per-scale outputs, loss and residuals, and Adam moments and
    parameters allocated afresh by every step and checked finite on every
    step. Returns the new blocks' bytes and the pre-update loss."""
    blocks = [t.array.copy() for t in model.adaptive_blocks]
    bases, xs = inputs
    targets = [oracle_out.cells[rows] for rows in models.SCALE_ROWS]

    def heads():
        return [base + x @ w + b for base, x, w, b in zip(bases, xs, blocks[0::2], blocks[1::2])]

    def l2(a, b):
        d = a.reshape(-1).astype(np.float64) - b.reshape(-1).astype(np.float64)
        return float(np.dot(d, d))

    pre_loss = sum(l2(h, t) for h, t in zip(heads(), targets))
    m = [np.zeros_like(b) for b in blocks]
    v = [np.zeros_like(b) for b in blocks]
    for t in range(1, models.ADAPT_STEPS + 1):
        grads = []
        for x, h, target in zip(xs, heads(), targets):
            resid = 2.0 * (h - target)
            grads += [x.T @ resid, resid.sum(axis=0)]
        for k, g in enumerate(grads):
            assert np.isfinite(g).all()
            m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
            v[k] = 0.999 * v[k] + (1.0 - 0.999) * g * g
            step = models.ADAPT_LR * (m[k] / (1.0 - 0.9 ** t))
            blocks[k] = blocks[k] - step / (np.sqrt(v[k] / (1.0 - 0.999 ** t)) + 1e-8)
            assert all(np.isfinite(a).all() for a in (m[k], v[k], blocks[k]))
    return [b.tobytes() for b in blocks], pre_loss


def _large_frames_script():
    """Seed 0's script of the benchmark's 128 px ``large-frames`` workload."""
    import importlib.util
    from pathlib import Path
    from edgekt.scenegen import SceneScript
    path = Path(__file__).resolve().parents[1] / "bench" / "scenes.py"
    spec = importlib.util.spec_from_file_location("_edgekt_bench_scenes", path)
    scenes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scenes)
    return SceneScript.from_dict(scenes.large_frames_script(0))


@pytest.mark.parametrize("script", ["fixed_cam_default", "moving_cam_default", "large_frames"])
def test_chained_adaptations_equal_the_allocating_reference(script):
    # 60 adaptations, each starting from the weights of the one before:
    # the in-place adaptation gives the reference's weights and pre-update
    # loss bit for bit on frames of both presets and of the 128 px script
    from edgekt.scenegen import SceneStream, fixed_cam_default, moving_cam_default
    make = {"fixed_cam_default": fixed_cam_default, "moving_cam_default": moving_cam_default,
            "large_frames": _large_frames_script}[script]
    stream = SceneStream(make())
    cfg = ModelConfig(input_hw=stream.script.size)
    model, oracle = StudentModel.pretrained(cfg), OracleModel(cfg)
    for i in range(0, 600, 10):
        frame = stream.frame_at(i)
        inputs, target = model.head_inputs(frame), oracle.forward(frame, stream.truth_at(i))
        want = _reference_adapt(model, inputs, target)
        weights, loss = adapt_decoder(model, inputs, target)
        assert ([t.tobytes() for t in weights.blocks], loss) == want
        model = swap_decoder(model, weights)
    assert model.version == 61


def test_adapt_decoder_writes_nothing_it_reads(student, oracle):
    # the head inputs and the oracle output are read-only arrays shared by
    # scenarios; the model's blocks are Tensors. All keep their bytes.
    f = _frame(seed=17)
    inputs = student.head_inputs(f)
    target = oracle.forward(f, _truth())

    def snapshot():
        return ([a.tobytes() for a in (*inputs[0], *inputs[1])],
                [t.tobytes() for t in target.scales],
                [t.tobytes() for t in student.adaptive_blocks], student.frozen_checksum())

    before = snapshot()
    weights, _ = adapt_decoder(student, inputs, target)
    assert snapshot() == before
    assert weights.blocks != student.adaptive_blocks


def test_distillation_beats_never_adapted():
    # stationary scene: a handful of adaptations must beat the base student,
    # scored against the oracle's decoded output as ground truth
    cfg = ModelConfig()
    oracle = OracleModel(cfg)
    base = StudentModel.pretrained(cfg)
    frame = None
    from edgekt.scenegen import SceneStream, fixed_cam_default
    stream = SceneStream(fixed_cam_default())
    adapted = base
    for i in range(5):
        frame = stream.frame_at(i)
        target = oracle.forward(frame, stream.truth_at(i))
        w, _ = adapt_decoder(adapted, adapted.head_inputs(frame), target)
        adapted = swap_decoder(adapted, w)

    def agg_f1(model):
        tp = fp = fn = 0
        for i in range(5, 50, 5):
            f = stream.frame_at(i)
            gt = nms(decode_boxes(oracle.forward(f, stream.truth_at(i))))
            dets = nms(decode_boxes(model.forward(f)))
            m = compute_metrics(dets, gt)
            tp += m.true_positives; fp += m.false_positives; fn += m.false_negatives
        from edgekt.detection import MetricsReport
        return MetricsReport.from_counts(tp, fp, fn).f1

    assert agg_f1(adapted) > agg_f1(base)


# -- swap ----------------------------------------------------------------------------

def test_swap_equals_fresh_model(student, oracle, monkeypatch):
    monkeypatch.setattr(models, "ADAPT_STEPS", 10)
    f = _frame(seed=14)
    weights, _ = adapt_decoder(student, student.head_inputs(f), oracle.forward(f, _truth()))
    swapped = swap_decoder(student, weights)
    fresh = StudentModel(student.config, student.extractor, student.whitening, student.general,
                         weights.blocks, version=weights.version)
    a, b = swapped.forward(f), fresh.forward(f)
    assert all(np.array_equal(x, y) for x, y in zip(a.scales, b.scales))
    assert swapped.version == student.version + 1


def test_student_is_a_frozen_value(student, oracle, monkeypatch):
    # no field of a constructed student can be assigned, and a swap shares
    # the frozen parts with its base
    names = [f.name for f in dataclasses.fields(student)]
    assert names == ["config", "extractor", "whitening", "general", "adaptive_blocks", "version"]
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(student, name, getattr(student, name))
    monkeypatch.setattr(models, "ADAPT_STEPS", 2)
    f = _frame(seed=19)
    weights, _ = adapt_decoder(student, student.head_inputs(f), oracle.forward(f, _truth()))
    swapped = swap_decoder(student, weights)
    assert swapped.extractor is student.extractor
    assert swapped.whitening is student.whitening
    assert swapped.general is student.general
    assert swapped.adaptive_blocks is weights.blocks
    assert swapped.version == weights.version


def test_swap_rejects_stale_version(student):
    stale = DecoderWeights(version=student.version, blocks=student.adaptive_blocks)
    assert swap_decoder(student, stale) is student


def test_swap_rejects_bad_shapes(student):
    bad = DecoderWeights(version=student.version + 1,
                         blocks=tuple(Tensor.zeros((2, 2)) for _ in student.adaptive_blocks))
    with pytest.raises(ValueError):
        swap_decoder(student, bad)


def test_swap_half_precision_weights_equal_f16_round_trip(student, oracle, monkeypatch):
    monkeypatch.setattr(models, "ADAPT_STEPS", 10)
    f = _frame(seed=15)
    weights, _ = adapt_decoder(student, student.head_inputs(f), oracle.forward(f, _truth()))
    wire = decode_weights(encode_weights(
        DecoderWeights(weights.version, weights.blocks, Precision.HALF)))
    swapped = swap_decoder(student, wire)
    for got, orig in zip(swapped.adaptive_blocks, weights.blocks):
        assert got == f16_decode(f16_encode(orig), orig.shape)


def test_frozen_hash_constant_across_adapt_swap_sequence(student, oracle, monkeypatch):
    monkeypatch.setattr(models, "ADAPT_STEPS", 5)
    checksum = student.frozen_checksum()
    model = student
    for i in range(3):
        f = _frame(seed=20 + i)
        w, _ = adapt_decoder(model, model.head_inputs(f), oracle.forward(f, _truth()))
        model = swap_decoder(model, w)
        assert model.frozen_checksum() == checksum


# -- weights codec ---------------------------------------------------------------------

def test_weights_codec_full_round_trip(student):
    w = DecoderWeights(student.version, student.adaptive_blocks)
    assert decode_weights(encode_weights(w)) == w


def test_weights_codec_layout():
    w = DecoderWeights(version=3, blocks=(Tensor([[1.0, 2.0]]),), precision=Precision.FULL)
    data = encode_weights(w)
    # version u64 | precision u8 | rank u8 | dims 2*u32 | payload 2*f32
    assert len(data) == 8 + 1 + 1 + 8 + 8
    assert data[:8] == (3).to_bytes(8, "little")
    assert data[8] == 0


def test_weights_codec_truncation_detected(student):
    data = encode_weights(DecoderWeights(student.version, student.adaptive_blocks))
    with pytest.raises(ValueError):
        decode_weights(data[:-2])


def test_weights_version_positive():
    with pytest.raises(ValueError):
        DecoderWeights(version=0, blocks=(Tensor([1.0]),))


# -- pools against the reshape-mean reductions they replaced --------------------

def _reference_avg_pool(a, k):
    h, w = a.shape[0], a.shape[1]
    return a.reshape(h // k, k, w // k, k, a.shape[2]).mean(axis=(1, 3))


def _reference_quadrant_pool(feats, k):
    if k == 1:
        return np.concatenate([feats] * 4, axis=2)
    half = k // 2
    g = feats.shape[0] // k
    c = feats.shape[2]
    r = feats.reshape(g, 2, half, g, 2, half, c).mean(axis=(2, 5))
    return r.transpose(0, 3, 1, 2, 4).reshape(g, g, 4 * c)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(cells=st.tuples(st.integers(1, 24), st.integers(1, 24)), channels=st.integers(1, 24),
       k=st.sampled_from([2, 4, 8]), scale=st.sampled_from([1e-3, 1.0, 1e3]),
       tanh=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_avg_pool_equals_reshape_mean(cells, channels, k, scale, tanh, seed):
    # even sizes only (k = 2) or multiples of k; tanh maps give feature-map ranges
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.normal(0.0, scale, (cells[0] * k, cells[1] * k, channels))
    a = (np.tanh(a) if tanh else a).astype(np.float32)
    assert np.array_equal(models._avg_pool(a, k), _reference_avg_pool(a, k))


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(g=st.integers(1, 8), k=st.sampled_from([1, 2, 4, 8]), channels=st.integers(1, 24),
       seed=st.integers(0, 2**32 - 1))
def test_quadrant_pool_equals_reshape_mean(g, k, channels, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    feats = np.tanh(rng.normal(0.0, 2.0, (g * k, g * k, channels))).astype(np.float32)
    assert np.array_equal(models._quadrant_pool(feats, k),
                          _reference_quadrant_pool(feats, k))
