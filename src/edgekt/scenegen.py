"""Deterministic synthetic video streams with exact ground truth.

Objects are axis-aligned rectangles with class-specific color patterns over
a textured background; trajectories are closed-form functions of the frame
index so any frame or truth list can be recomputed independently. The
moving-camera regime pans the whole scene; shift schedules swap the object
set and/or background mid-stream.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .detection import Box
from .tensor import Tensor

REGIMES = ("fixed_camera", "moving_camera")
TRAJECTORY_KINDS = ("static", "linear", "orbit", "scatter")

# class fill colors: (primary, secondary); secondary is used by the stripe
# and checker patterns
_CLASS_COLORS = {
    0: ((0.88, 0.25, 0.20), (0.88, 0.25, 0.20)),
    1: ((0.20, 0.85, 0.30), (0.10, 0.50, 0.18)),
    2: ((0.25, 0.30, 0.90), (0.12, 0.15, 0.55)),
}


@dataclass(frozen=True)
class ObjectSpec:
    class_id: int
    w: float
    h: float
    trajectory: dict = field(default_factory=lambda: {"kind": "static", "x": 0.5, "y": 0.5})

    def to_dict(self) -> dict:
        return {"class_id": self.class_id, "w": self.w, "h": self.h,
                "trajectory": dict(self.trajectory)}


@dataclass(frozen=True)
class Shift:
    frame_index: int
    objects: tuple[ObjectSpec, ...] | None = None
    background: int | None = None

    def to_dict(self) -> dict:
        d: dict = {"frame_index": self.frame_index}
        if self.objects is not None:
            d["objects"] = [o.to_dict() for o in self.objects]
        if self.background is not None:
            d["background"] = self.background
        return d


@dataclass(frozen=True)
class SceneScript:
    regime: str = "fixed_camera"
    duration_frames: int = 600
    size: int = 64
    fps: float = 4.0
    objects: tuple[ObjectSpec, ...] = ()
    shifts: tuple[Shift, ...] = ()
    noise_level: float = 0.01
    background: int = 0
    seed: int = 0
    camera_amplitude_px: float = 6.0
    camera_period_frames: float = 120.0
    texture_drift_period: int = 0  # background shimmer: 1 px hop every N frames
    noise_breath: float = 0.0       # slow noise-amplitude oscillation, 0..1
    noise_breath_period: float = 50.0
    name: str = "custom"

    def __post_init__(self):
        validate_script(self)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "regime": self.regime,
            "duration_frames": self.duration_frames,
            "size": self.size,
            "fps": self.fps,
            "noise_level": self.noise_level,
            "background": self.background,
            "seed": self.seed,
            "camera": {"amplitude_px": self.camera_amplitude_px,
                       "period_frames": self.camera_period_frames},
            "texture_drift_period": self.texture_drift_period,
            "noise_breath": self.noise_breath,
            "noise_breath_period": self.noise_breath_period,
            "objects": [o.to_dict() for o in self.objects],
            "shifts": [s.to_dict() for s in self.shifts],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SceneScript":
        cam = d.get("camera", {})
        return cls(
            name=d.get("name", "custom"),
            regime=d.get("regime", "fixed_camera"),
            duration_frames=int(d["duration_frames"]),
            size=int(d.get("size", 64)),
            fps=float(d.get("fps", 4.0)),
            noise_level=float(d.get("noise_level", 0.0)),
            background=int(d.get("background", 0)),
            seed=int(d.get("seed", 0)),
            camera_amplitude_px=float(cam.get("amplitude_px", 6.0)),
            camera_period_frames=float(cam.get("period_frames", 120.0)),
            texture_drift_period=int(d.get("texture_drift_period", 0)),
            noise_breath=float(d.get("noise_breath", 0.0)),
            noise_breath_period=float(d.get("noise_breath_period", 50.0)),
            objects=tuple(_object_from_dict(o) for o in d.get("objects", [])),
            shifts=tuple(_shift_from_dict(s) for s in d.get("shifts", [])),
        )

    @classmethod
    def load(cls, path: str) -> "SceneScript":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)


def _object_from_dict(d: dict) -> ObjectSpec:
    return ObjectSpec(class_id=int(d["class_id"]), w=float(d["w"]), h=float(d["h"]),
                      trajectory=dict(d.get("trajectory", {"kind": "static", "x": 0.5, "y": 0.5})))


def _shift_from_dict(d: dict) -> Shift:
    objs = d.get("objects")
    return Shift(
        frame_index=int(d["frame_index"]),
        objects=tuple(_object_from_dict(o) for o in objs) if objs is not None else None,
        background=int(d["background"]) if d.get("background") is not None else None,
    )


def validate_script(script: SceneScript) -> None:
    if script.regime not in REGIMES:
        raise ValueError(f"unknown regime {script.regime!r}")
    if script.duration_frames < 1:
        raise ValueError("duration_frames must be >= 1")
    if script.size % 4 != 0 or script.size < 16:
        raise ValueError("frame size must be a multiple of 4 and >= 16")
    if script.fps <= 0:
        raise ValueError("fps must be positive")
    if script.noise_level < 0:
        raise ValueError("noise_level must be >= 0")
    last = -1
    for s in script.shifts:
        if s.frame_index <= last:
            raise ValueError("shift indices must be strictly increasing")
        if s.frame_index >= script.duration_frames:
            raise ValueError("shift index beyond stream duration")
        last = s.frame_index
    for group in [script.objects] + [s.objects for s in script.shifts if s.objects]:
        for o in group:
            if o.class_id < 0:
                raise ValueError("class_id must be >= 0")
            if not (0.0 < o.w <= 1.0 and 0.0 < o.h <= 1.0):
                raise ValueError("object size must be in (0, 1]")
            kind = o.trajectory.get("kind", "static")
            if kind not in TRAJECTORY_KINDS:
                raise ValueError(f"unknown trajectory kind {kind!r}")


# ---------------------------------------------------------------------------
# Frame events


@dataclass(frozen=True)
class FrameEvent:
    frame_id: int
    arrival_time: float
    frame: Tensor
    truth: list[Box]


# ---------------------------------------------------------------------------
# Geometry


def _reflect(p: float, lo: float, hi: float) -> float:
    """Fold a coordinate into [lo, hi] by reflection (bouncing trajectory)."""
    if hi <= lo:
        return lo
    period = 2.0 * (hi - lo)
    m = math.fmod(p - lo, period)
    if m < 0:
        m += period
    return lo + (m if m <= (hi - lo) else period - m)


def _object_center(obj: ObjectSpec, t: int, script: SceneScript, index: int) -> tuple[float, float]:
    traj = obj.trajectory
    kind = traj.get("kind", "static")
    margin_x = obj.w / 2.0 + 2.0 / script.size
    margin_y = obj.h / 2.0 + 2.0 / script.size
    if script.regime == "moving_camera":
        cam = script.camera_amplitude_px / script.size
        margin_x += cam
        margin_y += cam
    lo_x, hi_x = margin_x, 1.0 - margin_x
    lo_y, hi_y = margin_y, 1.0 - margin_y
    if kind == "static":
        x, y = float(traj["x"]), float(traj["y"])
    elif kind == "linear":
        x = float(traj["x"]) + float(traj.get("vx", 0.0)) * t
        y = float(traj["y"]) + float(traj.get("vy", 0.0)) * t
    elif kind == "orbit":
        ang = float(traj.get("omega", 0.05)) * t + float(traj.get("phase", 0.0))
        x = float(traj["cx"]) + float(traj.get("radius", 0.1)) * math.cos(ang)
        y = float(traj["cy"]) + float(traj.get("radius", 0.1)) * math.sin(ang)
    else:  # scatter: fresh seeded position every frame
        rng = np.random.Generator(np.random.PCG64(
            (script.seed * 1_000_003 + t) * 97 + index))
        x = float(rng.uniform(lo_x, hi_x))
        y = float(rng.uniform(lo_y, hi_y))
    return _reflect(x, lo_x, hi_x), _reflect(y, lo_y, hi_y)


def _camera_offset_px(script: SceneScript, t: int) -> tuple[int, int]:
    if script.regime != "moving_camera":
        return 0, 0
    a = script.camera_amplitude_px
    p = script.camera_period_frames
    dx = int(round(a * math.sin(2.0 * math.pi * t / p)))
    dy = int(round(a * math.cos(2.0 * math.pi * t / (p * 1.37))))
    return dx, dy


def _active_scene(script: SceneScript, t: int) -> tuple[tuple[ObjectSpec, ...], int]:
    objects, background = script.objects, script.background
    for s in script.shifts:
        if t >= s.frame_index:
            if s.objects is not None:
                objects = s.objects
            if s.background is not None:
                background = s.background
    return objects, background


def _background_pixels(style: int, size: int, dx: int, dy: int) -> np.ndarray:
    xs = np.arange(size, dtype=np.float64) + dx
    ys = np.arange(size, dtype=np.float64) + dy
    xx, yy = np.meshgrid(xs, ys)
    img = np.zeros((size, size, 3), dtype=np.float64)
    if style == 0:
        base = 0.22 + 0.18 * (xx / size)
        tex = 0.05 * np.sin(2.0 * np.pi * yy / 7.0)
        img[:, :, 0] = base + tex
        img[:, :, 1] = base + 0.04 * np.sin(2.0 * np.pi * xx / 9.0)
        img[:, :, 2] = 0.30 - 0.5 * tex
    elif style == 1:
        base = 0.20 + 0.20 * (yy / size)
        tex = 0.08 * np.sin(2.0 * np.pi * (xx + yy) / 11.0)
        img[:, :, 0] = base + tex
        img[:, :, 1] = 0.28 + 0.06 * np.sin(2.0 * np.pi * xx / 6.0)
        img[:, :, 2] = base - tex
    else:
        base = 0.34 - 0.16 * (xx / size)
        tex = 0.07 * np.sin(2.0 * np.pi * (xx - yy) / 13.0)
        img[:, :, 0] = 0.38 + tex
        img[:, :, 1] = base - tex
        img[:, :, 2] = 0.22 + 0.05 * np.sin(2.0 * np.pi * yy / 9.0)
    return np.clip(img, 0.0, 1.0)


def _draw_object(img: np.ndarray, box: Box, size: int) -> None:
    w_px = max(2, int(round(box.w * size)))
    h_px = max(2, int(round(box.h * size)))
    x1 = max(0, int(round(box.x * size - w_px / 2)))
    y1 = max(0, int(round(box.y * size - h_px / 2)))
    x2 = min(size, x1 + w_px)
    y2 = min(size, y1 + h_px)
    if x2 <= x1 or y2 <= y1:
        return
    primary, secondary = _CLASS_COLORS.get(box.class_id % 3, _CLASS_COLORS[0])
    patch = np.empty((y2 - y1, x2 - x1, 3), dtype=np.float64)
    patch[:] = primary
    if box.class_id % 3 == 1:  # horizontal stripes, 2 px period pairs
        rows = (np.arange(y1, y2) // 2) % 2 == 1
        patch[rows] = secondary
    elif box.class_id % 3 == 2:  # checker, 2 px tiles
        xx, yy = np.meshgrid(np.arange(x1, x2) // 2, np.arange(y1, y2) // 2)
        patch[(xx + yy) % 2 == 1] = secondary
    img[y1:y2, x1:x2] = patch


def _texture_drift_px(script: SceneScript, t: int) -> tuple[int, int]:
    p = script.texture_drift_period
    if p <= 0:
        return 0, 0
    return (t // p) % 4, (t // (2 * p)) % 4


def render_frame(script: SceneScript, t: int) -> Tensor:
    """Render frame ``t`` deterministically (pure function of the script):
    its ``truth_boxes`` drawn over its background, plus sensor noise."""
    boxes = truth_boxes(script, t)  # raises IndexError for t out of range
    _, background = _active_scene(script, t)
    dx, dy = _camera_offset_px(script, t)
    tx, ty = _texture_drift_px(script, t)
    img = _background_pixels(background, script.size, dx + tx, dy + ty)
    for box in boxes:
        _draw_object(img, box, script.size)
    sigma = script.noise_level
    if script.noise_breath > 0.0:
        sigma *= 1.0 + script.noise_breath * math.sin(
            2.0 * math.pi * t / script.noise_breath_period)
    if sigma > 0:
        rng = np.random.Generator(np.random.PCG64(script.seed * 1_000_003 + t))
        img = img + rng.normal(0.0, sigma, img.shape)
    return Tensor(np.clip(img, 0.0, 1.0).astype(np.float32))


def truth_boxes(script: SceneScript, t: int) -> list[Box]:
    """Exact ground-truth boxes for frame ``t``, in frame coordinates."""
    if not 0 <= t < script.duration_frames:
        raise IndexError(f"frame {t} out of range [0, {script.duration_frames})")
    objects, _ = _active_scene(script, t)
    dx, dy = _camera_offset_px(script, t)
    cam_x, cam_y = dx / script.size, dy / script.size
    out = []
    for i, obj in enumerate(objects):
        wx, wy = _object_center(obj, t, script, i)
        out.append(Box(x=wx - cam_x, y=wy - cam_y, w=obj.w, h=obj.h,
                       class_id=obj.class_id, score=1.0))
    return out


class SceneStream:
    """Random-access view over a script: frames, truth and arrival times."""

    def __init__(self, script: SceneScript):
        self.script = script

    def __len__(self) -> int:
        return self.script.duration_frames

    def frame_at(self, frame_id: int) -> Tensor:
        return render_frame(self.script, frame_id)

    def truth_at(self, frame_id: int) -> list[Box]:
        return truth_boxes(self.script, frame_id)

    def events(self) -> Iterator[FrameEvent]:
        period = 1.0 / self.script.fps
        for i in range(self.script.duration_frames):
            yield FrameEvent(frame_id=i, arrival_time=i * period,
                             frame=self.frame_at(i), truth=self.truth_at(i))


def write_ppm(frame: Tensor, path: str) -> None:
    """Dump a frame as binary PPM for eyeballing."""
    h, w, _ = frame.shape
    data = (np.clip(frame.array, 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


# ---------------------------------------------------------------------------
# Presets


def _parked(cls: int, w: float, h: float, x: float, y: float) -> ObjectSpec:
    return ObjectSpec(cls, w, h, {"kind": "static", "x": x, "y": y})


def fixed_cam_default(size: int = 64, duration: int = 600) -> SceneScript:
    """Surveillance-style stream: static camera watching parked objects,
    sparse relocation events, and one domain shift at the midpoint (new
    object classes, new background)."""
    # pre-shift scene: three parked objects, events move one or two of them
    a = (0, 0.19, 0.19)
    b = (1, 0.22, 0.16)
    c = (2, 0.16, 0.22)
    pre = [
        (_parked(*a, 0.30, 0.36), _parked(*b, 0.62, 0.70), _parked(*c, 0.72, 0.30)),
        (_parked(*a, 0.36, 0.31), _parked(*b, 0.56, 0.65), _parked(*c, 0.72, 0.30)),
    ]
    # post-shift scene: permuted classes and sizes on a new background
    d = (2, 0.20, 0.20)
    e = (0, 0.22, 0.17)
    f = (1, 0.17, 0.22)
    post = [
        (_parked(*d, 0.35, 0.62), _parked(*e, 0.30, 0.25), _parked(*f, 0.68, 0.66)),
        (_parked(*d, 0.41, 0.57), _parked(*e, 0.30, 0.25), _parked(*f, 0.74, 0.60)),
    ]
    mid = duration // 2
    pre_step = mid // len(pre)
    post_step = (duration - mid) // len(post)
    shifts = []
    for k, objs in enumerate(pre[1:], start=1):
        shifts.append(Shift(frame_index=k * pre_step, objects=objs))
    shifts.append(Shift(frame_index=mid, objects=post[0], background=2))
    for k, objs in enumerate(post[1:], start=1):
        shifts.append(Shift(frame_index=mid + k * post_step, objects=objs))
    return SceneScript(
        name="fixed_cam_default", regime="fixed_camera",
        duration_frames=duration, size=size, fps=3.2,
        objects=pre[0],
        shifts=tuple(shifts),
        noise_level=0.005, background=1, seed=11,
        noise_breath=0.8, noise_breath_period=24.0,
    )


def moving_cam_default(size: int = 64, duration: int = 600) -> SceneScript:
    """Dash-cam-style stream: the fixed-camera object script plus a global
    sinusoidal camera pan."""
    base = fixed_cam_default(size=size, duration=duration)
    return SceneScript(
        name="moving_cam_default", regime="moving_camera",
        duration_frames=duration, size=size, fps=base.fps,
        objects=base.objects, shifts=base.shifts,
        noise_level=base.noise_level, background=base.background, seed=13,
        camera_amplitude_px=6.0, camera_period_frames=120.0,
        noise_breath=base.noise_breath, noise_breath_period=base.noise_breath_period,
    )


def pretrain_script(size: int = 64, duration: int = 60) -> SceneScript:
    """Generic stream used to fit the student's general decoder: scattered
    objects of every class and size band, cycling through all background
    styles so the base model generalizes across scenes."""
    objects = (
        ObjectSpec(0, 0.16, 0.16, {"kind": "scatter"}),
        ObjectSpec(1, 0.20, 0.14, {"kind": "scatter"}),
        ObjectSpec(2, 0.14, 0.20, {"kind": "scatter"}),
        ObjectSpec(0, 0.30, 0.26, {"kind": "scatter"}),
        ObjectSpec(1, 0.26, 0.32, {"kind": "scatter"}),
        ObjectSpec(2, 0.52, 0.44, {"kind": "scatter"}),
    )
    third = duration // 3
    return SceneScript(
        name="pretrain_generic", regime="fixed_camera",
        duration_frames=duration, size=size, fps=4.0,
        objects=objects,
        shifts=(Shift(frame_index=third, background=1),
                Shift(frame_index=2 * third, background=2)),
        noise_level=0.005, background=0, seed=101,
    )


PRESETS = {
    "fixed_cam_default": fixed_cam_default,
    "moving_cam_default": moving_cam_default,
    "pretrain_generic": pretrain_script,
}
