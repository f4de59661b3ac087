"""Toy-scale student and oracle detectors.

The student splits into a frozen feature extractor, a frozen general decoder
and a trainable adaptive decoder whose per-scale linear heads add onto the
general heads (a zero adaptive decoder is a no-op). The finest scale carries
an extra stack in the adaptive decoder for small objects. Each adaptation
follows one policy, ``ADAPT_STEPS`` Adam updates at ``ADAPT_LR``, and
distills the adaptive decoder alone towards the oracle output. The oracle is a
much deeper frozen model realized as a near-perfect encoder of scene truth
into detection tensors plus small deterministic noise, so its decoded output
can serve as evaluation ground truth. Both write ``detection``'s one output
geometry; ``ModelConfig`` is the frame size alone.
"""

from __future__ import annotations

import hashlib
import math
import zlib
from collections.abc import Sequence
from contextlib import closing
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .detection import (BOX_CHANNELS, CH_OBJ, CH_TH, CH_TX, CHANNELS, GRID_CELLS, GRIDS,
                        SCALE_ROWS, Box, DetectionTensorSet, encode_box, scale_views)
from .tensor import AdamState, Tensor, adam_step, l2_sq_distance


class Precision(str, Enum):
    FULL = "full"
    HALF = "half"


# base-training ridge fit: L2 penalty on the head weights, and the weight of
# object-cell rows against background rows
_RIDGE_LAMBDA = 1.0
_POS_WEIGHT = 20.0

# the one adaptation policy: Adam steps per key frame and their learning rate
ADAPT_STEPS = 20
ADAPT_LR = 0.05

# the two extractor stages' widths
FEAT1 = 10
FEAT2 = 20
# the deployed base detector is one fixed artifact: this seed draws the
# student's frozen extractor and keys the oracle's noise; a run's seed only
# drives its runtime randomness (selector draws, channel jitter)
MODEL_SEED = 7


@dataclass(frozen=True)
class ModelConfig:
    """The frame size student and oracle read; their output geometry is the
    module's ``GRIDS`` and ``CHANNELS`` at every size."""

    input_hw: int = 64

    def __post_init__(self):
        # the size/4 feature grid must pool evenly onto every output grid
        multiple = 4 * math.lcm(*GRIDS)
        if self.input_hw % multiple != 0:
            raise ValueError(f"input size must be a multiple of {multiple} "
                             f"(4 times the lcm of the output grids {GRIDS})")

    @property
    def feature_grid(self) -> int:
        return self.input_hw // 4

    def check_frame(self, frame: Tensor) -> None:
        """Refuse a frame that is not ``input_hw`` x ``input_hw`` RGB."""
        shape = (self.input_hw, self.input_hw, 3)
        if frame.shape != shape:
            raise ValueError(f"frame shape {frame.shape} != {shape}")


@dataclass(frozen=True)
class DecoderWeights:
    """Versioned snapshot of the adaptive decoder; the unit of transfer."""

    version: int
    blocks: tuple[Tensor, ...]
    precision: Precision = Precision.FULL

    def __post_init__(self):
        if self.version <= 0:
            raise ValueError("weight version must be positive")


def distill_loss(student_out: DetectionTensorSet, oracle_out: DetectionTensorSet) -> float:
    """Sum over every scale of ``GRIDS`` of squared L2 distance between outputs."""
    return sum(l2_sq_distance(s, o) for s, o in zip(student_out.scales, oracle_out.scales))


# ---------------------------------------------------------------------------
# Student


def _avg_pool(a: np.ndarray, k: int) -> np.ndarray:
    """Mean over each k x k block of an (H, W, C) float32 map.

    For k = 2 and C > 1 the block is a row-order slice sum,
    ``((a00 + a01) + a10) + a11``, divided by 4. That is bit-identical to
    numpy's ``mean`` over the block, which sums in the same order, and
    several times faster than its strided reduction. With one channel
    ``mean`` sums in another order, and for k >= 4 it is the faster of the
    two, so both cases keep ``mean``.
    """
    if k == 2 and a.shape[2] > 1:
        return (((a[0::2, 0::2] + a[0::2, 1::2]) + a[1::2, 0::2])
                + a[1::2, 1::2]) / np.float32(4)
    h, w = a.shape[0], a.shape[1]
    return a.reshape(h // k, k, w // k, k, a.shape[2]).mean(axis=(1, 3))


@dataclass(frozen=True, eq=False)
class StudentModel:
    """Shallow detector, an immutable value that ``pretrained`` builds.

    ``extractor`` holds the frozen extractor's weights and the adaptive head
    inputs' whitening, ``general`` the frozen general decoder's ``(W, b)``
    per scale and ``adaptive_blocks`` the adaptive decoder's, ``(W, b)`` per
    scale. The adaptive decoder mirrors the general decoder's per-scale
    linear heads, but at the finest scale it carries one extra layer for
    small objects: a fine feature view (the cell's four quadrant feature
    vectors, not just their average) feeding a wider head. Each scale's
    adaptive W is as wide as that scale's pooled input, four times
    ``FEAT2`` at the finest scale. Adaptive head inputs are whitened with
    statistics frozen at pretraining time. No code writes to what a student
    holds; ``swap_decoder`` returns a new student that shares the frozen
    parts.
    """

    config: ModelConfig
    extractor: dict[str, Tensor]
    general: tuple[tuple[Tensor, Tensor], ...]
    adaptive_blocks: tuple[Tensor, ...]
    version: int = 1

    # -- construction -------------------------------------------------------

    @classmethod
    def pretrained(cls, config: ModelConfig) -> "StudentModel":
        """Student whose extractor is drawn at ``MODEL_SEED`` and whose
        general decoder was fit by ridge regression against oracle targets
        on the built-in generic pretraining stream, standing in for base
        training; its adaptive decoder is zero.

        Object cells are rare, so their rows are up-weighted by
        ``_POS_WEIGHT``; the resulting base detector is recall-leaning and
        blurry -- the intended starting point for online adaptation.
        """
        from .scenegen import SceneStream, pretrain_script
        rng = np.random.Generator(np.random.PCG64(MODEL_SEED))
        extractor = {
            "mix1": Tensor(rng.normal(0.0, 0.8 / np.sqrt(3), (3, FEAT1)).astype(np.float32)),
            "b1": Tensor(rng.normal(0.0, 0.05, (FEAT1,)).astype(np.float32)),
            "mix2": Tensor(rng.normal(0.0, 0.8 / np.sqrt(FEAT1),
                                      (FEAT1, FEAT2)).astype(np.float32)),
            "b2": Tensor(rng.normal(0.0, 0.05, (FEAT2,)).astype(np.float32)),
        }
        # pooling reads the extractor alone
        pooler = cls(config, extractor, (), ())
        teacher = OracleModel(config, noise_amp=0.0)

        stream = SceneStream(pretrain_script(size=config.input_hw))
        # both stages are pure in the frame, so the renderer may run them;
        # each frame's result is its pooled features and the teacher's table
        with closing(stream.events(lambda frame, truth: (
                pooler._pooled(frame), teacher.forward(frame, truth).cells))) as events:
            stages = [result for _, _, result in events]

        whitening, general, adaptive = {}, [], []
        for i, rows in enumerate(SCALE_ROWS):
            # freeze ZCA whitening of the adaptive head inputs; without it the
            # head features are correlated enough that Adam crawls
            a = np.concatenate([raw[i] for (_, raw), _ in stages]).astype(np.float64)
            mu = a.mean(axis=0)
            a -= mu  # centered in place: a stays alive through the ridge fit below
            cov = a.T @ a / max(1, len(a) - 1)
            evals, evecs = np.linalg.eigh(cov)
            floor = 1e-4 * max(float(evals.max()), 1e-12)
            inv_sqrt = evecs @ np.diag(1.0 / np.sqrt(np.maximum(evals, floor))) @ evecs.T
            whitening[f"mu{i}"] = Tensor(mu.astype(np.float32))
            whitening[f"white{i}"] = Tensor(inv_sqrt.astype(np.float32))

            # ridge fit of the general head
            x = np.concatenate([phis[i] for (phis, _), _ in stages]).astype(np.float64)
            y = np.concatenate([targets[rows] for _, targets in stages]).astype(np.float64)
            row_w = np.where(y[:, CH_OBJ] > 0.0, _POS_WEIGHT, 1.0)
            xa = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
            reg = _RIDGE_LAMBDA * np.eye(xa.shape[1])
            reg[-1, -1] = 0.0  # bias unregularized
            w_aug = np.linalg.solve(xa.T @ (xa * row_w[:, None]) + reg,
                                    xa.T @ (y * row_w[:, None]))
            general.append((Tensor(w_aug[:-1].astype(np.float32)),
                            Tensor(w_aug[-1].astype(np.float32))))

            # the zero adaptive head, as wide as the scale's pooled input
            adaptive += [Tensor.zeros((a.shape[1], CHANNELS)), Tensor.zeros((CHANNELS,))]
        return cls(config, {**extractor, **whitening}, tuple(general), tuple(adaptive))

    # -- forward ------------------------------------------------------------

    def features(self, frame: Tensor) -> np.ndarray:
        """Frozen two-stage extractor: pool, mix channels, tanh, twice."""
        self.config.check_frame(frame)
        ex = self.extractor
        h = _avg_pool(frame.array, 2)
        h = np.tanh(h @ ex["mix1"].array + ex["b1"].array)
        h = _avg_pool(h, 2)
        h = np.tanh(h @ ex["mix2"].array + ex["b2"].array)
        return h

    def _pooled(self, frame: Tensor) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-scale cell features, the region averages as (G*G, FEAT2), and
        raw adaptive head inputs, from one feature extraction. The finest
        scale's is the small-object view, the cell's four quadrant averages
        (4*FEAT2 wide); coarser scales reuse the cell features."""
        feats = self.features(frame)
        fg = self.config.feature_grid
        phis, raw = [], []
        for i, g in enumerate(GRIDS):
            k = fg // g
            phis.append(_avg_pool(feats, k).reshape(g * g, FEAT2))
            raw.append(_quadrant_pool(feats, k).reshape(g * g, 4 * FEAT2)
                       if i == 0 else phis[i])
        return phis, raw

    def head_inputs(self, frame: Tensor) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per scale, ``(bases, ada_x)`` of the frozen half: the general
        head's float32 output ``phi @ wg + bg`` as (G*G, C), and the adaptive
        head inputs whitened with statistics frozen at pretraining. Serving
        and training share them, so the arrays are read-only."""
        phis, raw = self._pooled(frame)
        ex = self.extractor
        bases = [phi @ wg.array + bg.array
                 for phi, (wg, bg) in zip(phis, self.general, strict=True)]
        ada_x = [(x - ex[f"mu{i}"].array) @ ex[f"white{i}"].array for i, x in enumerate(raw)]
        for a in (*bases, *ada_x):
            a.flags.writeable = False
        return bases, ada_x

    def forward(self, frame: Tensor) -> DetectionTensorSet:
        return self.outputs(self.head_inputs(frame))

    def outputs(self, inputs: tuple[list[np.ndarray], list[np.ndarray]]) -> DetectionTensorSet:
        """Detection tensors from a frame's ``head_inputs``: per scale, the
        general head's output plus the adaptive head's, in that scale's rows
        of the cell table."""
        ada = self.adaptive_blocks
        cells = np.empty((GRID_CELLS, CHANNELS), np.float32)
        for rows, base, x, w, b in zip(SCALE_ROWS, *inputs, ada[0::2], ada[1::2], strict=True):
            cells[rows] = base + x @ w.array + b.array
        return DetectionTensorSet(cells)

    # -- bookkeeping ---------------------------------------------------------

    @property
    def layer_count(self) -> int:
        # two extractor stages, the general head layer, the adaptive head
        # and its extra small-object feature layer
        return 5

    def frozen_checksum(self) -> str:
        """Digest over extractor and general decoder bytes (must never move)."""
        h = hashlib.sha256()
        for key in sorted(self.extractor):
            h.update(self.extractor[key].tobytes())
        for w, b in self.general:
            h.update(w.tobytes())
            h.update(b.tobytes())
        return h.hexdigest()

    def adaptive_checksum(self) -> str:
        h = hashlib.sha256()
        for t in self.adaptive_blocks:
            h.update(t.tobytes())
        return h.hexdigest()

    def mac_count(self) -> int:
        """Multiply-accumulate count of one forward pass (cost-model proxy)."""
        cfg = self.config
        hw2 = (cfg.input_hw // 2) ** 2
        fg2 = cfg.feature_grid ** 2
        macs = hw2 * 3 * FEAT1 + fg2 * FEAT1 * FEAT2
        macs += sum(g * g * FEAT2 * CHANNELS for g in GRIDS)
        # whitening: a square matrix as wide as each scale's adaptive W
        macs += sum(g * g * w.shape[0] ** 2
                    for g, w in zip(GRIDS, self.adaptive_blocks[0::2], strict=True))
        macs += self.adaptive_mac_count()
        return macs

    def adaptive_mac_count(self) -> int:
        # each scale's adaptive W is (input width, CHANNELS)
        return sum(g * g * w.size
                   for g, w in zip(GRIDS, self.adaptive_blocks[0::2], strict=True))

    def adaptation_mac_count(self) -> int:
        """Multiply-accumulate count of one adaptation: one forward pass
        (features are extracted once), then per Adam step the adaptive head
        forward and its two gradient products."""
        return self.mac_count() + ADAPT_STEPS * 3 * self.adaptive_mac_count()


def _quadrant_pool(feats: np.ndarray, k: int) -> np.ndarray:
    """Per-cell quadrant averages, shape (G, G, 4*C); the small-object view.

    Cells of width 1 in feature space degenerate to four copies of the cell.
    """
    if k == 1:
        return np.concatenate([feats] * 4, axis=2)
    g = feats.shape[0] // k
    c = feats.shape[2]
    # average each k-wide cell's 2x2 half-cells; a half-cell of width 1 is
    # the feature itself
    halves = feats if k == 2 else _avg_pool(feats, k // 2)
    return halves.reshape(g, 2, g, 2, c).transpose(0, 3, 1, 2, 4).reshape(g, g, 4 * c)


# ---------------------------------------------------------------------------
# Adaptation

class DistillInputs(NamedTuple):
    """Per-scale terms of the distillation loss that do not depend on the
    adaptive blocks, all in one dtype: a frame's ``head_inputs`` and oracle
    output, cast once per adaptation."""

    base: list[np.ndarray]     # general head output phi @ wg + bg, (G*G, C)
    ada_x: list[np.ndarray]    # adaptive head inputs, (G*G, D)
    ada_xt: list[np.ndarray]   # their transposes, for the weight gradients
    targets: list[np.ndarray]  # oracle outputs, (G*G, C)


def prepare_distill(inputs: tuple[list[np.ndarray], list[np.ndarray]],
                    oracle_out: DetectionTensorSet, dtype=np.float32) -> DistillInputs:
    """Cast to ``dtype`` what ``distill_gradients`` needs from the frame.

    ``inputs`` are a student's ``head_inputs`` of the frame, so the general
    head is not evaluated again: in float32 the arrays are the inputs
    themselves. ``dtype`` may be float64 for high-precision verification of
    the gradients, which then start from the widened float32 head outputs.
    """
    base = [b.astype(dtype, copy=False) for b in inputs[0]]
    xs = [x.astype(dtype, copy=False) for x in inputs[1]]
    targets = [oracle_out.cells[rows].astype(dtype, copy=False) for rows in SCALE_ROWS]
    return DistillInputs(base, xs, [x.T for x in xs], targets)


def distill_gradients(prepared: DistillInputs, blocks: Sequence[np.ndarray],
                      out: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Analytic gradients of the distillation loss with respect to every
    adaptive block, at the given blocks: ``(W, b)`` per scale, in the dtype
    ``prepared`` was built with.

    Per scale the residual is ``2.0 * (base + x @ w + b - target)``, built in
    place in that float order, and the gradients are ``x.T @ resid`` and
    ``resid.sum(axis=0)``. They are written into ``out``, arrays shaped and
    typed like the gradients, and returned. The products use ``np.dot``,
    which makes the same BLAS call as ``@`` on these 2-D operands at less
    per-call cost.
    """
    for base, x, xt, target, w, b, gw, gb in zip(*prepared, blocks[0::2], blocks[1::2],
                                                 out[0::2], out[1::2], strict=True):
        r = np.dot(x, w)
        r += base
        r += b
        r -= target
        r *= 2.0
        np.dot(xt, r, out=gw)
        r.sum(axis=0, out=gb)
    return list(out)


def adapt_decoder(model: StudentModel,
                  inputs: tuple[list[np.ndarray], list[np.ndarray]],
                  oracle_out: DetectionTensorSet) -> tuple[DecoderWeights, float]:
    """Run ``ADAPT_STEPS`` Adam updates at ``ADAPT_LR`` on the adaptive
    decoder against the oracle output; both are read when the function is
    called, as ``adaptation_mac_count`` reads them. Returns the new versioned
    weights and the model's loss before the update, ``distill_loss`` of its
    ``outputs(inputs)``: the selector's feedback, from the one call that
    trains.

    ``inputs`` are the frame's ``model.head_inputs``, so the caller extracts
    features once per adaptation. The model, ``inputs`` and ``oracle_out``
    are only read.
    The adaptive blocks are reshaped views of one flat vector, and the
    gradients are written into views of one flat buffer allocated once per
    adaptation, so each step is one gradient evaluation and one Adam update
    over all blocks, whose result is copied back into the parameter vector.
    A non-finite gradient (any non-finite residual makes its bias gradient
    non-finite) or update raises ValueError in ``adam_step``, and the
    weights are discarded; the overflow itself emits no numpy warning.
    """
    prepared = prepare_distill(inputs, oracle_out)
    pre_loss = distill_loss(model.outputs(inputs), oracle_out)
    layout, start = [], 0
    for b in model.adaptive_blocks:
        layout.append((slice(start, start + b.size), b.shape))
        start += b.size

    def views(vec: np.ndarray) -> list[np.ndarray]:
        return [vec[span].reshape(shape) for span, shape in layout]

    flat = np.concatenate([b.data for b in model.adaptive_blocks])
    grad = np.empty_like(flat)
    params, grads = views(flat), views(grad)
    state = AdamState.for_param(flat, lr=ADAPT_LR)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(ADAPT_STEPS):
            distill_gradients(prepared, params, out=grads)
            flat[...] = adam_step(flat, grad, state)
    weights = DecoderWeights(version=model.version + 1,
                             blocks=tuple(Tensor(a) for a in params))
    return weights, pre_loss


def swap_decoder(model: StudentModel, weights: DecoderWeights) -> StudentModel:
    """Replace the adaptive decoder, rejecting stale versions.

    Returns a new model on success (frozen parts shared) or the original,
    unmodified model when the incoming version is not newer.
    """
    if weights.version <= model.version:
        return model
    if len(weights.blocks) != len(model.adaptive_blocks):
        raise ValueError("adaptive block count mismatch")
    for new, cur in zip(weights.blocks, model.adaptive_blocks):
        if new.shape != cur.shape:
            raise ValueError(f"block shape {new.shape} != {cur.shape}")
    return replace(model, adaptive_blocks=weights.blocks, version=weights.version)


# ---------------------------------------------------------------------------
# Oracle


class OracleModel:
    """Deep frozen detector standing in for the full-size oracle.

    Functionally it encodes the scene truth into output tensors and adds a
    small deterministic perturbation derived from the frame content, so the
    same frame always yields the same tensors and decoding recovers the
    truth almost exactly. A box prefers the finest scale whose grid side
    ``g`` has ``max(w, h) <= 1.8 / g``, else the coarsest, and takes the
    first free cell, by ``encode_box``, at the scale nearest that one, or
    none if its cell is taken at every scale. It fills one cell table,
    writing boxes through its scale views, and adds its noise to the table
    in one draw.
    Its stage plan defines its depth and cost.
    """

    OBJ_ON = 2.5    # sigmoid 0.924, comfortably above the 0.5 decode threshold
    OBJ_OFF = -2.5
    CLS_ON = 1.5
    CLS_OFF = -1.5

    # (spatial divisor, in channels, out channels) per stage; more than twice
    # the student's layer count and roughly 3.5x its MACs
    _STAGE_PLAN = ((2, 3, 16), (2, 16, 24), (4, 24, 32), (4, 32, 32), (4, 32, 32),
                   (4, 24, 32), (4, 32, 24), (8, 24, 32), (8, 32, 32), (8, 32, 24),
                   (16, 24, 24), (16, 24, 16))

    def __init__(self, config: ModelConfig, noise_amp: float = 0.01):
        self.config = config
        self.noise_amp = noise_amp

    @property
    def layer_count(self) -> int:
        return len(self._STAGE_PLAN)

    def mac_count(self) -> int:
        hw = self.config.input_hw
        return sum((hw // div) ** 2 * cin * cout
                   for div, cin, cout in self._STAGE_PLAN)

    def forward(self, frame: Tensor, truth: list[Box]) -> DetectionTensorSet:
        self.config.check_frame(frame)
        cells = np.zeros((GRID_CELLS, CHANNELS), dtype=np.float32)
        cells[:, CH_OBJ] = self.OBJ_OFF
        cells[:, BOX_CHANNELS:] = self.CLS_OFF
        targets = scale_views(cells)

        occupied: set[tuple[int, int, int]] = set()
        for box in truth:
            if not (0.0 <= box.x <= 1.0 and 0.0 <= box.y <= 1.0
                    and 0.0 < box.w <= 1.0 and 0.0 < box.h <= 1.0):
                raise ValueError(f"truth box out of frame bounds: {box}")
            m = max(box.w, box.h)
            pref = next((s for s, g in enumerate(GRIDS) if m <= 1.8 / g), len(GRIDS) - 1)
            for s in sorted(range(len(GRIDS)), key=lambda k: abs(k - pref)):
                r, c, coded = encode_box(box, GRIDS[s])
                if (s, r, c) in occupied:
                    continue
                occupied.add((s, r, c))
                cell = targets[s][r, c]
                cell[CH_TX:CH_TH + 1] = coded
                cell[CH_OBJ] = self.OBJ_ON
                cell[BOX_CHANNELS + box.class_id] = self.CLS_ON
                break

        if self.noise_amp > 0.0:
            mix = zlib.crc32(frame.tobytes()) ^ (MODEL_SEED * 0x9E3779B1 & 0xFFFFFFFF)
            nrng = np.random.Generator(np.random.PCG64(mix))
            cells += nrng.uniform(-self.noise_amp, self.noise_amp,
                                  cells.shape).astype(np.float32)
        return DetectionTensorSet(cells)
