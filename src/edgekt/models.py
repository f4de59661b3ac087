"""Toy-scale student and oracle detectors.

The student splits into a frozen feature extractor, a frozen general decoder
and a trainable adaptive decoder whose per-scale linear heads add onto the
general heads (a zero adaptive decoder is a no-op). The finest scale carries
an extra stack in the adaptive decoder for small objects. Each adaptation
follows one policy, ``ADAPT_STEPS`` Adam updates at ``ADAPT_LR``, and
distills the adaptive decoder alone towards the oracle output. The oracle is a
much deeper frozen model realized as a near-perfect encoder of scene truth
into detection tensors plus small deterministic noise, so its decoded output
can serve as evaluation ground truth.
"""

from __future__ import annotations

import hashlib
import math
import zlib
from collections.abc import Sequence
from contextlib import closing
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .detection import (BOX_CHANNELS, CH_OBJ, CH_TH, CH_TW, CH_TX, CH_TY,
                        COORD_LOGIT_SCALE, SIZE_PRIOR, Box, logit)
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


@dataclass(frozen=True)
class ModelConfig:
    """Shared geometry of student and oracle outputs."""

    input_hw: int = 64
    classes: int = 3
    grids: tuple[int, ...] = (8, 4, 2)
    feat1: int = 10
    feat2: int = 20

    def __post_init__(self):
        if len(self.grids) != 3:
            raise ValueError("exactly three output scales are required")
        # the size/4 feature grid must pool evenly onto every output grid
        multiple = 4 * math.lcm(*self.grids)
        if self.input_hw % multiple != 0:
            raise ValueError(f"input size must be a multiple of {multiple} "
                             f"(4 times the lcm of the output grids {self.grids})")

    @property
    def channels(self) -> int:
        return BOX_CHANNELS + self.classes

    @property
    def feature_grid(self) -> int:
        return self.input_hw // 4


@dataclass(frozen=True)
class DetectionTensorSet:
    """The three per-scale output tensors, tagged with the producer version."""

    scales: tuple[Tensor, Tensor, Tensor]
    version: int = 0

    def __post_init__(self):
        if len(self.scales) != 3:
            raise ValueError("a detection tensor set has exactly three scales")
        for t in self.scales:
            if len(t.shape) != 3 or t.shape[0] != t.shape[1]:
                raise ValueError(f"scale tensor must be GxGxC, got {t.shape}")


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
    """Sum over the three scales of squared L2 distance between outputs."""
    total = 0.0
    for s, o in zip(student_out.scales, oracle_out.scales):
        total += l2_sq_distance(s, o)
    return total


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


class StudentModel:
    """Shallow detector; only the adaptive decoder changes after construction.

    The adaptive decoder mirrors the general decoder's per-scale linear
    heads, but at the finest scale it carries one extra layer for small
    objects: a fine feature view (the cell's four quadrant feature vectors,
    not just their average) feeding a wider head. Adaptive head inputs are
    whitened with statistics frozen at pretraining time.
    """

    def __init__(self, config: ModelConfig, extractor: dict, general: list,
                 adaptive: tuple[Tensor, ...], version: int = 1):
        self.config = config
        self._extractor = extractor
        self._general = general
        # (W, b) per scale; scale 0's W reads the four-quadrant small-object view
        self._adaptive = tuple(adaptive)
        self.version = version

    # -- construction -------------------------------------------------------

    @classmethod
    def seeded(cls, config: ModelConfig | None = None, seed: int = 7) -> "StudentModel":
        """Random frozen extractor, zero decoders, identity whitening."""
        cfg = config or ModelConfig()
        rng = np.random.Generator(np.random.PCG64(seed))
        f1, f2, ch = cfg.feat1, cfg.feat2, cfg.channels
        extractor = {
            "mix1": Tensor(rng.normal(0.0, 0.8 / np.sqrt(3), (3, f1)).astype(np.float32)),
            "b1": Tensor(rng.normal(0.0, 0.05, (f1,)).astype(np.float32)),
            "mix2": Tensor(rng.normal(0.0, 0.8 / np.sqrt(f1), (f1, f2)).astype(np.float32)),
            "b2": Tensor(rng.normal(0.0, 0.05, (f2,)).astype(np.float32)),
        }
        for i, dim in enumerate(cls._adaptive_in_dims(cfg)):
            extractor[f"mu{i}"] = Tensor.zeros((dim,))
            extractor[f"white{i}"] = Tensor(np.eye(dim, dtype=np.float32))
        general = [(Tensor.zeros((f2, ch)), Tensor.zeros((ch,))) for _ in cfg.grids]
        adaptive = []
        for dim in cls._adaptive_in_dims(cfg):
            adaptive.append(Tensor.zeros((dim, ch)))
            adaptive.append(Tensor.zeros((ch,)))
        return cls(cfg, extractor, general, tuple(adaptive), version=1)

    @staticmethod
    def _adaptive_in_dims(cfg: ModelConfig) -> list[int]:
        return [4 * cfg.feat2] + [cfg.feat2] * (len(cfg.grids) - 1)

    @classmethod
    def pretrained(cls, config: ModelConfig | None = None, seed: int = 7) -> "StudentModel":
        """Student whose general decoder was fit by ridge regression against
        oracle targets on the built-in generic pretraining stream, standing
        in for base training.

        Object cells are rare, so their rows are up-weighted by
        ``_POS_WEIGHT``; the resulting base detector is recall-leaning and
        blurry -- the intended starting point for online adaptation.
        """
        from .scenegen import SceneStream, pretrain_script
        model = cls.seeded(config, seed)
        cfg = model.config
        teacher = OracleModel(cfg, seed=seed, noise_amp=0.0)

        per_scale_x: list[list[np.ndarray]] = [[] for _ in cfg.grids]
        per_scale_a: list[list[np.ndarray]] = [[] for _ in cfg.grids]
        per_scale_y: list[list[np.ndarray]] = [[] for _ in cfg.grids]
        with closing(SceneStream(pretrain_script(size=cfg.input_hw)).events()) as events:
            for ev in events:
                phis, fine = model.head_inputs(ev.frame)
                targets = teacher.forward(ev.frame, ev.truth).scales
                for i in range(3):
                    per_scale_x[i].append(phis[i])
                    per_scale_a[i].append(fine[i])
                    per_scale_y[i].append(targets[i].array.reshape(-1, cfg.channels))

        # freeze ZCA whitening of the adaptive head inputs; without it the
        # head features are correlated enough that Adam crawls
        for i in range(3):
            a = np.concatenate(per_scale_a[i]).astype(np.float64)
            mu = a.mean(axis=0)
            centered = a - mu
            cov = centered.T @ centered / max(1, len(a) - 1)
            evals, evecs = np.linalg.eigh(cov)
            floor = 1e-4 * max(float(evals.max()), 1e-12)
            inv_sqrt = evecs @ np.diag(1.0 / np.sqrt(np.maximum(evals, floor))) @ evecs.T
            model._extractor[f"mu{i}"] = Tensor(mu.astype(np.float32))
            model._extractor[f"white{i}"] = Tensor(inv_sqrt.astype(np.float32))

        general = []
        for i in range(3):
            x = np.concatenate(per_scale_x[i]).astype(np.float64)
            y = np.concatenate(per_scale_y[i]).astype(np.float64)
            row_w = np.where(y[:, CH_OBJ] > 0.0, _POS_WEIGHT, 1.0)
            xa = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
            reg = _RIDGE_LAMBDA * np.eye(xa.shape[1])
            reg[-1, -1] = 0.0  # bias unregularized
            w_aug = np.linalg.solve(xa.T @ (xa * row_w[:, None]) + reg,
                                    xa.T @ (y * row_w[:, None]))
            general.append((Tensor(w_aug[:-1].astype(np.float32)),
                            Tensor(w_aug[-1].astype(np.float32))))
        model._general = general
        return model

    # -- forward ------------------------------------------------------------

    def features(self, frame: Tensor) -> np.ndarray:
        """Frozen two-stage extractor: pool, mix channels, tanh, twice."""
        cfg = self.config
        if frame.shape != (cfg.input_hw, cfg.input_hw, 3):
            raise ValueError(
                f"frame shape {frame.shape} != {(cfg.input_hw, cfg.input_hw, 3)}")
        ex = self._extractor
        h = _avg_pool(frame.array, 2)
        h = np.tanh(h @ ex["mix1"].array + ex["b1"].array)
        h = _avg_pool(h, 2)
        h = np.tanh(h @ ex["mix2"].array + ex["b2"].array)
        return h

    def head_inputs(self, frame: Tensor) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-scale inputs of the general and adaptive heads, from one
        feature extraction.

        ``phis`` are the cell features (region average), flattened to
        (G*G, feat2). ``ada_x`` are the whitened adaptive head inputs: the
        finest scale gets the extra small-object view, the cell's four
        quadrant feature averages (4*feat2 wide) instead of one blurred cell
        average; coarser scales reuse the pooled features.
        """
        feats = self.features(frame)
        cfg = self.config
        phis, ada_x = [], []
        for i, g in enumerate(cfg.grids):
            k = cfg.feature_grid // g
            phis.append(_avg_pool(feats, k).reshape(g * g, cfg.feat2))
            if i == 0:
                x = _quadrant_pool(feats, k).reshape(g * g, 4 * cfg.feat2)
            else:
                x = phis[i]
            mu = self._extractor[f"mu{i}"].array
            white = self._extractor[f"white{i}"].array
            ada_x.append((x - mu) @ white)
        return phis, ada_x

    def forward(self, frame: Tensor) -> DetectionTensorSet:
        return self.outputs(self.head_inputs(frame))

    def outputs(self, inputs: tuple[list[np.ndarray], list[np.ndarray]]) -> DetectionTensorSet:
        """Detection tensors from a frame's ``head_inputs``: per scale, the
        general head's output plus the adaptive head's."""
        cfg = self.config
        ada = self._adaptive
        scales = []
        for g, phi, x, (wg, bg), w, b in zip(cfg.grids, *inputs, self._general,
                                             ada[0::2], ada[1::2]):
            out = phi @ wg.array + bg.array + x @ w.array + b.array
            scales.append(Tensor(out.reshape(g, g, cfg.channels)))
        return DetectionTensorSet(scales=tuple(scales), version=self.version)

    # -- bookkeeping ---------------------------------------------------------

    @property
    def adaptive_blocks(self) -> tuple[Tensor, ...]:
        return self._adaptive

    @property
    def layer_count(self) -> int:
        # two extractor stages, the general head layer, the adaptive head
        # and its extra small-object feature layer
        return 5

    def frozen_checksum(self) -> str:
        """Digest over extractor and general decoder bytes (must never move)."""
        h = hashlib.sha256()
        for key in sorted(self._extractor):
            h.update(self._extractor[key].tobytes())
        for w, b in self._general:
            h.update(w.tobytes())
            h.update(b.tobytes())
        return h.hexdigest()

    def adaptive_checksum(self) -> str:
        h = hashlib.sha256()
        for t in self._adaptive:
            h.update(t.tobytes())
        return h.hexdigest()

    def decoder_weights(self, precision: Precision = Precision.FULL) -> DecoderWeights:
        return DecoderWeights(version=self.version, blocks=self._adaptive,
                              precision=precision)

    def mac_count(self) -> int:
        """Multiply-accumulate count of one forward pass (cost-model proxy)."""
        cfg = self.config
        hw2 = (cfg.input_hw // 2) ** 2
        fg2 = cfg.feature_grid ** 2
        macs = hw2 * 3 * cfg.feat1 + fg2 * cfg.feat1 * cfg.feat2
        macs += sum(g * g * cfg.feat2 * cfg.channels for g in cfg.grids)
        dims = self._adaptive_in_dims(cfg)
        macs += sum(g * g * d * d for g, d in zip(cfg.grids, dims))  # whitening
        macs += self.adaptive_mac_count()
        return macs

    def adaptive_mac_count(self) -> int:
        cfg = self.config
        dims = self._adaptive_in_dims(cfg)
        return sum(g * g * dims[i] * cfg.channels for i, g in enumerate(cfg.grids))

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
    adaptive blocks, all in one dtype; built once per adaptation."""

    base: list[np.ndarray]     # general head output phi @ wg + bg, (G*G, C)
    ada_x: list[np.ndarray]    # adaptive head inputs, (G*G, D)
    ada_xt: list[np.ndarray]   # their transposes, for the weight gradients
    targets: list[np.ndarray]  # oracle outputs, (G*G, C)


def prepare_distill(model: StudentModel,
                    inputs: tuple[list[np.ndarray], list[np.ndarray]],
                    oracle_out: DetectionTensorSet, dtype=np.float32) -> DistillInputs:
    """Check the oracle output's shapes and precompute, in ``dtype``, what
    ``distill_gradients`` needs from the frame.

    ``inputs`` are the frame's ``model.head_inputs``. ``dtype`` may be
    float64 for high-precision verification.
    """
    cfg = model.config
    for g, o in zip(cfg.grids, oracle_out.scales):
        if o.shape != (g, g, cfg.channels):
            raise ValueError(f"target shape {o.shape} != student shape {(g, g, cfg.channels)}")
    phis, ada_x = inputs
    base, xs = [], []
    for phi, x, (wg, bg) in zip(phis, ada_x, model._general):
        base.append(phi.astype(dtype, copy=False) @ wg.array.astype(dtype, copy=False)
                    + bg.array.astype(dtype, copy=False))
        xs.append(x.astype(dtype, copy=False))
    targets = [s.array.reshape(-1, cfg.channels).astype(dtype, copy=False)
               for s in oracle_out.scales]
    return DistillInputs(base, xs, [x.T for x in xs], targets)


def distill_gradients(prepared: DistillInputs, blocks: Sequence[np.ndarray],
                      out: Sequence[np.ndarray] | None = None) -> list[np.ndarray]:
    """Analytic gradients of the distillation loss with respect to every
    adaptive block, at the given blocks: ``(W, b)`` per scale, in the dtype
    ``prepared`` was built with.

    Per scale the residual is ``2.0 * (base + x @ w + b - target)``, built in
    place in that float order, and the gradients are ``x.T @ resid`` and
    ``resid.sum(axis=0)``. With ``out``, arrays shaped and typed like the
    gradients, they are written there and returned; without it they are
    freshly allocated. The products use ``np.dot``, which makes the
    same BLAS call as ``@`` on these 2-D operands at less per-call cost.
    """
    grads: list[np.ndarray] = []
    if out is None:
        out = [None] * len(blocks)
    for base, x, xt, target, w, b, gw, gb in zip(*prepared, blocks[0::2], blocks[1::2],
                                                 out[0::2], out[1::2]):
        r = np.dot(x, w)
        r += base
        r += b
        r -= target
        r *= 2.0
        grads.append(np.dot(xt, r, out=gw))
        grads.append(r.sum(axis=0, out=gb))
    return grads


def adapt_decoder(model: StudentModel,
                  inputs: tuple[list[np.ndarray], list[np.ndarray]],
                  oracle_out: DetectionTensorSet, steps: int = ADAPT_STEPS) -> DecoderWeights:
    """Run ``steps`` Adam updates at ``ADAPT_LR`` on the adaptive decoder
    against the oracle output and return the new versioned weights.

    ``inputs`` are the frame's ``model.head_inputs``, so the caller extracts
    features once per adaptation. Frozen parts are untouched; the model,
    ``inputs`` and ``oracle_out`` are only read. The adaptive blocks are
    reshaped views of one flat vector, and the gradients are written into
    views of one flat buffer allocated once per adaptation, so each step is
    one gradient evaluation and one Adam update over all blocks, whose
    result is copied back into the parameter vector. A non-finite gradient
    (any non-finite residual makes its bias gradient non-finite) or update
    raises ValueError in ``adam_step``, and the weights are discarded; the
    overflow itself emits no numpy warning.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    prepared = prepare_distill(model, inputs, oracle_out)
    layout, start = [], 0
    for b in model._adaptive:
        layout.append((slice(start, start + b.size), b.shape))
        start += b.size

    def views(vec: np.ndarray) -> list[np.ndarray]:
        return [vec[span].reshape(shape) for span, shape in layout]

    flat = np.concatenate([b.data for b in model._adaptive])
    grad = np.empty_like(flat)
    params, grads = views(flat), views(grad)
    state = AdamState.for_param(flat, lr=ADAPT_LR)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            distill_gradients(prepared, params, out=grads)
            flat[...] = adam_step(flat, grad, state)
    return DecoderWeights(version=model.version + 1,
                          blocks=tuple(Tensor(a) for a in params))


def swap_decoder(model: StudentModel, weights: DecoderWeights) -> StudentModel:
    """Replace the adaptive decoder, rejecting stale versions.

    Returns a new model on success (frozen parts shared) or the original,
    unmodified model when the incoming version is not newer.
    """
    if weights.version <= model.version:
        return model
    if len(weights.blocks) != len(model._adaptive):
        raise ValueError("adaptive block count mismatch")
    for new, cur in zip(weights.blocks, model._adaptive):
        if new.shape != cur.shape:
            raise ValueError(f"block shape {new.shape} != {cur.shape}")
    return StudentModel(model.config, model._extractor, model._general,
                        weights.blocks, version=weights.version)


# ---------------------------------------------------------------------------
# Oracle


class OracleModel:
    """Deep frozen detector standing in for the full-size oracle.

    Functionally it encodes the scene truth into output tensors and adds a
    small deterministic perturbation derived from the frame content, so the
    same frame always yields the same tensors and decoding recovers the
    truth almost exactly. Its stage plan defines its depth and compute cost.
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

    def __init__(self, config: ModelConfig | None = None, seed: int = 7,
                 noise_amp: float = 0.01):
        self.config = config or ModelConfig()
        self.seed = seed
        self.noise_amp = noise_amp

    @property
    def layer_count(self) -> int:
        return len(self._STAGE_PLAN)

    def mac_count(self) -> int:
        hw = self.config.input_hw
        return sum((hw // div) ** 2 * cin * cout
                   for div, cin, cout in self._STAGE_PLAN)

    def _preferred_scale(self, w: float, h: float) -> int:
        g0, g1 = self.config.grids[0], self.config.grids[1]
        m = max(w, h)
        if m <= 1.8 / g0:
            return 0
        if m <= 1.8 / g1:
            return 1
        return 2

    def forward(self, frame: Tensor, truth: list[Box]) -> DetectionTensorSet:
        cfg = self.config
        if frame.shape != (cfg.input_hw, cfg.input_hw, 3):
            raise ValueError(
                f"frame shape {frame.shape} != {(cfg.input_hw, cfg.input_hw, 3)}")
        targets = [np.zeros((g, g, cfg.channels), dtype=np.float32) for g in cfg.grids]
        for t in targets:
            t[:, :, CH_OBJ] = self.OBJ_OFF
            t[:, :, BOX_CHANNELS:] = self.CLS_OFF

        occupied: set[tuple[int, int, int]] = set()
        for box in truth:
            if not (0.0 <= box.x <= 1.0 and 0.0 <= box.y <= 1.0
                    and 0.0 < box.w <= 1.0 and 0.0 < box.h <= 1.0):
                raise ValueError(f"truth box out of frame bounds: {box}")
            pref = self._preferred_scale(box.w, box.h)
            placed = False
            for s in sorted(range(3), key=lambda k: abs(k - pref)):
                g = cfg.grids[s]
                c = min(int(box.x * g), g - 1)
                r = min(int(box.y * g), g - 1)
                if (s, r, c) in occupied:
                    continue
                occupied.add((s, r, c))
                cell = targets[s][r, c]
                k = COORD_LOGIT_SCALE
                prior = logit(SIZE_PRIOR)
                cell[CH_TX] = k * logit(float(np.clip(box.x * g - c, 0.02, 0.98)))
                cell[CH_TY] = k * logit(float(np.clip(box.y * g - r, 0.02, 0.98)))
                cell[CH_TW] = k * (logit(float(np.clip(box.w, 0.02, 0.98))) - prior)
                cell[CH_TH] = k * (logit(float(np.clip(box.h, 0.02, 0.98))) - prior)
                cell[CH_OBJ] = self.OBJ_ON
                cell[BOX_CHANNELS + box.class_id] = self.CLS_ON
                placed = True
                break
            if not placed:
                # all three scales collide; presets avoid this, last one wins
                g = cfg.grids[pref]
                c = min(int(box.x * g), g - 1)
                r = min(int(box.y * g), g - 1)
                cell = targets[pref][r, c]
                cell[CH_OBJ] = self.OBJ_ON
                cell[BOX_CHANNELS + box.class_id] = self.CLS_ON

        if self.noise_amp > 0.0:
            mix = zlib.crc32(frame.tobytes()) ^ (self.seed * 0x9E3779B1 & 0xFFFFFFFF)
            nrng = np.random.Generator(np.random.PCG64(mix))
            for t in targets:
                t += nrng.uniform(-self.noise_amp, self.noise_amp,
                                  t.shape).astype(np.float32)
        return DetectionTensorSet(scales=tuple(Tensor(t) for t in targets))
