import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgekt import models
from edgekt.detection import Box, compute_metrics, decode_boxes, nms
from edgekt.models import (DecoderWeights, DetectionTensorSet, ModelConfig, OracleModel,
                           Precision, StudentModel, adapt_decoder, distill_gradients,
                           distill_loss, prepare_distill, swap_decoder)
from edgekt.netproto import decode_weights, encode_weights, weights_byte_size
from edgekt.tensor import Tensor, f16_decode, f16_encode, l2_sq_distance

# the smallest frame the one geometry pools onto its grids, for the
# float64 finite-difference checks
SMALL = ModelConfig(input_hw=32)


@pytest.fixture(scope="module")
def student():
    return StudentModel.pretrained(seed=7)


@pytest.fixture(scope="module")
def oracle():
    return OracleModel(seed=7)


def _frame(cfg=None, seed=1):
    cfg = cfg or ModelConfig()
    rng = np.random.Generator(np.random.PCG64(seed))
    return Tensor(rng.uniform(0, 1, (cfg.input_hw, cfg.input_hw, 3)).astype(np.float32))


def _truth():
    return [Box(0.42, 0.38, 0.19, 0.19, 0), Box(0.68, 0.70, 0.20, 0.16, 1)]


# -- tensor set / loss ---------------------------------------------------------

def test_tensor_set_requires_three_scales():
    t = Tensor(np.zeros((4, 4, 8), np.float32))
    with pytest.raises(ValueError):
        DetectionTensorSet(scales=(t, t))


def test_distill_loss_identity(student):
    out = student.forward(_frame())
    assert distill_loss(out, out) == 0.0


def test_distill_loss_single_element():
    t0 = Tensor(np.zeros((4, 4, 8), np.float32))
    arr = np.zeros((4, 4, 8), np.float32)
    arr[1, 2, 3] = 1.0
    a = DetectionTensorSet(scales=(t0, Tensor(np.zeros((2, 2, 8), np.float32)),
                                   Tensor(np.zeros((1, 1, 8), np.float32))))
    b = DetectionTensorSet(scales=(Tensor(arr), a.scales[1], a.scales[2]))
    assert distill_loss(a, b) == pytest.approx(1.0)


def test_distill_loss_compositional(student, oracle):
    f = _frame(seed=5)
    s_out = student.forward(f)
    o_out = oracle.forward(f, _truth())
    expected = sum(l2_sq_distance(a, b) for a, b in zip(s_out.scales, o_out.scales))
    assert distill_loss(s_out, o_out) == pytest.approx(expected)


# -- student forward -------------------------------------------------------------

def test_forward_shapes(student):
    out = student.forward(_frame())
    assert [t.shape for t in out.scales] == [(g, g, models.CHANNELS) for g in models.GRIDS]


def test_forward_deterministic(student):
    f = _frame(seed=2)
    a = student.forward(f)
    b = student.forward(f)
    assert all(x == y for x, y in zip(a.scales, b.scales))


def test_forward_shape_mismatch(student):
    with pytest.raises(ValueError):
        student.forward(Tensor(np.zeros((32, 32, 3), np.float32)))


def test_zero_adaptive_decoder_is_noop(student):
    # the pretrained student's adaptive blocks are zero, so its output is the
    # general decoder's alone, computed here from the pooled cell features
    f = _frame(seed=4)
    out = student.forward(f)
    phis, _ = student._pooled(f)
    assert not any(b.array.any() for b in student.adaptive_blocks)
    assert all(wg.array.any() for wg, _ in student._general)
    for i, (wg, bg) in enumerate(student._general):
        general_only = phis[i] @ wg.array + bg.array
        assert np.array_equal(out.scales[i].array.reshape(-1, models.CHANNELS),
                              general_only)


def test_prepare_distill_takes_the_general_head_output_as_is(student, oracle):
    # at float32 the general head is not evaluated again: the prepared terms
    # are the head inputs themselves
    f = _frame(seed=6)
    inputs = student.head_inputs(f)
    prepared = prepare_distill(student, inputs, oracle.forward(f, _truth()))
    for i in range(3):
        assert prepared.base[i] is inputs[0][i]
        assert prepared.ada_x[i] is inputs[1][i]


def test_output_carries_version(student):
    assert student.forward(_frame()).version == student.version


# -- oracle ----------------------------------------------------------------------

def test_oracle_empty_scene_decodes_empty(oracle):
    out = oracle.forward(_frame(seed=8), [])
    assert decode_boxes(out, 0.5) == []


def test_oracle_single_box_closure(oracle):
    f = _frame(seed=9)
    truth = [Box(0.5, 0.5, 0.2, 0.2, 1)]
    boxes = nms(decode_boxes(oracle.forward(f, truth), 0.5), 0.45)
    assert len(boxes) == 1
    m = compute_metrics(boxes, truth)
    assert m.true_positives == 1
    from edgekt.detection import iou
    assert iou(boxes[0], truth[0]) >= 0.9


def test_oracle_deterministic(oracle):
    f = _frame(seed=10)
    a = oracle.forward(f, _truth())
    b = oracle.forward(f, _truth())
    assert all(x == y for x, y in zip(a.scales, b.scales))


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
    weights = adapt_decoder(student, student.head_inputs(f), own)
    assert distill_loss(swap_decoder(student, weights).forward(f), own) == 0.0
    assert weights.version == student.version + 1
    for new, old in zip(weights.blocks, student.adaptive_blocks):
        assert new == old


def test_adapt_reduces_loss(student, oracle, monkeypatch):
    monkeypatch.setattr(models, "ADAPT_STEPS", 50)
    f = _frame(seed=12)
    target = oracle.forward(f, _truth())
    before = distill_loss(student.forward(f), target)
    weights = adapt_decoder(student, student.head_inputs(f), target)
    after = distill_loss(swap_decoder(student, weights).forward(f), target)
    assert after < before


def test_adapt_leaves_frozen_parts_untouched(student, oracle):
    f = _frame(seed=13)
    checksum = student.frozen_checksum()
    weights = adapt_decoder(student, student.head_inputs(f), oracle.forward(f, _truth()))
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


def test_adapt_rejects_shape_mismatch(student):
    # targets on grids (4, 2, 1), not the student's (8, 4, 2)
    bad = DetectionTensorSet(scales=tuple(Tensor.zeros((g, g, models.CHANNELS))
                                          for g in (4, 2, 1)))
    inputs = student.head_inputs(_frame())
    with pytest.raises(ValueError, match="target shape"):
        adapt_decoder(student, inputs, bad)


def _reference_loss(prepared, blocks):
    """The distillation loss at ``blocks``, from float64 ``prepare_distill`` terms."""
    return sum(((base + x @ w + b - target) ** 2).sum()
               for base, x, _, target, w, b in zip(*prepared, blocks[0::2], blocks[1::2]))


def test_adapt_rejects_overflowing_target(student):
    # a residual near the float32 maximum doubles to inf in the gradient, and
    # adam_step's finiteness check rejects it before any weights are built;
    # the overflow raises no numpy RuntimeWarning on the way
    f = _frame(seed=16)
    huge = DetectionTensorSet(scales=tuple(
        Tensor(np.full(s.shape, 3e38, np.float32)) for s in student.forward(f).scales))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite gradient"):
            adapt_decoder(student, student.head_inputs(f), huge)


def test_gradients_match_finite_differences():
    oracle = OracleModel(SMALL, seed=3)
    model = StudentModel.seeded(SMALL, seed=3)
    rng = np.random.Generator(np.random.PCG64(5))
    frame = Tensor(rng.uniform(0, 1, (32, 32, 3)).astype(np.float32))
    target = oracle.forward(frame, [Box(0.4, 0.5, 0.3, 0.3, 1)])
    blocks = tuple(rng.normal(0, 0.2, b.shape) for b in model.adaptive_blocks)
    prepared = prepare_distill(model, model.head_inputs(frame), target, dtype=np.float64)
    grads = distill_gradients(prepared, blocks)
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
    """The allocating gradient formulas ``distill_gradients`` replaced."""
    grads = []
    for base, x, xt, target, w, b in zip(*prepared, blocks[0::2], blocks[1::2]):
        resid = 2.0 * (base + x @ w + b - target)
        grads.extend([xt @ resid, resid.sum(axis=0)])
    return grads


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(grids=st.lists(st.integers(1, 9), min_size=1, max_size=3),
       dims=st.lists(st.integers(1, 90), min_size=3, max_size=3), channels=st.integers(1, 9),
       scale=st.sampled_from([1e-3, 1.0, 1e19]), dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2**32 - 1))
def test_in_place_gradients_equal_allocating_formulas(grids, dims, channels, scale, dtype,
                                                      seed):
    # random head shapes, both dtypes, and residuals up to overflow: the
    # in-place residual and the ``out`` products equal the formulas bit for bit
    rng = np.random.Generator(np.random.PCG64(seed))

    def draw(*shape):
        return (scale * rng.normal(0.0, 1.0, shape)).astype(dtype)

    xs = [draw(g * g, d) for g, d in zip(grids, dims)]
    prepared = models.DistillInputs([draw(g * g, channels) for g in grids], xs,
                                    [x.T for x in xs], [draw(g * g, channels) for g in grids])
    blocks = []
    for d in dims[:len(grids)]:
        blocks += [rng.normal(0.0, 0.3, (d, channels)).astype(np.float32),
                   rng.normal(0.0, 0.3, channels).astype(np.float32)]
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _reference_gradients(prepared, blocks)
        allocated = distill_gradients(prepared, blocks)
        out = [np.full(b.shape, np.nan, dtype) for b in blocks]
        written = distill_gradients(prepared, blocks, out=out)
    assert all(w is o for w, o in zip(written, out))
    for want, a, w in zip(expected, allocated, written):
        assert a.dtype == w.dtype == want.dtype
        assert a.tobytes() == w.tobytes() == want.tobytes()


def test_adapt_decoder_writes_nothing_it_reads(student, oracle):
    # the record's head inputs are read-only and shared by scenarios; the
    # model's blocks and the oracle output are Tensors. All keep their bytes.
    f = _frame(seed=17)
    inputs = student.head_inputs(f)
    for a in (*inputs[0], *inputs[1]):
        a.flags.writeable = False
    target = oracle.forward(f, _truth())

    def snapshot():
        return ([a.tobytes() for a in (*inputs[0], *inputs[1])],
                [t.tobytes() for t in target.scales],
                [t.tobytes() for t in student.adaptive_blocks], student.frozen_checksum())

    before = snapshot()
    weights = adapt_decoder(student, inputs, target)
    assert snapshot() == before
    assert weights.blocks != student.adaptive_blocks


def test_distillation_beats_never_adapted():
    # stationary scene: a handful of adaptations must beat the base student,
    # scored against the oracle's decoded output as ground truth
    cfg = ModelConfig()
    oracle = OracleModel(cfg, seed=7)
    base = StudentModel.pretrained(cfg, seed=7)
    frame = None
    from edgekt.scenegen import SceneStream, fixed_cam_default
    stream = SceneStream(fixed_cam_default())
    adapted = base
    for i in range(5):
        frame = stream.frame_at(i)
        target = oracle.forward(frame, stream.truth_at(i))
        w = adapt_decoder(adapted, adapted.head_inputs(frame), target)
        adapted = swap_decoder(adapted, w)

    def agg_f1(model):
        tp = fp = fn = 0
        for i in range(5, 50, 5):
            f = stream.frame_at(i)
            gt = nms(decode_boxes(oracle.forward(f, stream.truth_at(i)), 0.5), 0.45)
            dets = nms(decode_boxes(model.forward(f), 0.5), 0.45)
            m = compute_metrics(dets, gt)
            tp += m.true_positives; fp += m.false_positives; fn += m.false_negatives
        from edgekt.detection import MetricsReport
        return MetricsReport.from_counts(tp, fp, fn).f1

    assert agg_f1(adapted) > agg_f1(base)


# -- swap ----------------------------------------------------------------------------

def test_swap_equals_fresh_model(student, oracle, monkeypatch):
    monkeypatch.setattr(models, "ADAPT_STEPS", 10)
    f = _frame(seed=14)
    weights = adapt_decoder(student, student.head_inputs(f), oracle.forward(f, _truth()))
    swapped = swap_decoder(student, weights)
    fresh = StudentModel(student.config, student._extractor, student._general,
                         weights.blocks, version=weights.version)
    a, b = swapped.forward(f), fresh.forward(f)
    assert all(x == y for x, y in zip(a.scales, b.scales))
    assert swapped.version == student.version + 1


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
    weights = adapt_decoder(student, student.head_inputs(f), oracle.forward(f, _truth()))
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
        w = adapt_decoder(model, model.head_inputs(f), oracle.forward(f, _truth()))
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


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(shapes=st.lists(st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple),
                       max_size=7),
       precision=st.sampled_from(list(Precision)), version=st.integers(1, 2**64 - 1))
def test_weights_byte_size_equals_encoded_length(shapes, precision, version):
    blocks = tuple(Tensor(np.full(s, 0.5, np.float32)) for s in shapes)
    w = DecoderWeights(version=version, blocks=blocks, precision=precision)
    assert weights_byte_size(w) == len(encode_weights(w))


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
