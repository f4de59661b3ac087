"""Deterministic synthetic video streams with exact ground truth.

Objects are axis-aligned rectangles with class-specific color patterns over
a textured background; trajectories are closed-form functions of the frame
index so any frame or truth list can be recomputed independently. The
moving-camera regime pans the whole scene; shift schedules swap the object
set and/or background mid-stream.
"""

from __future__ import annotations

import gc
import io
import json
import math
import os
import pickle
import signal
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from typing import Callable, Iterator, TypeVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .detection import Box
from .tensor import Tensor

REGIMES = ("fixed_camera", "moving_camera")
# trajectory kind -> {key: its default, or None if the key is required};
# every value is a finite number
TRAJECTORIES = {
    "static": {"x": None, "y": None},
    "linear": {"x": None, "y": None, "vx": 0.0, "vy": 0.0},
    "orbit": {"cx": None, "cy": None, "omega": 0.05, "phase": 0.0, "radius": 0.1},
    "scatter": {},
}
TRAJECTORY_KINDS = tuple(TRAJECTORIES)
_LINEAR, _ORBIT = TRAJECTORIES["linear"], TRAJECTORIES["orbit"]  # read per frame

# class fill colors: (primary, secondary); secondary is used by the stripe
# and checker patterns
_CLASS_COLORS = {
    0: ((0.88, 0.25, 0.20), (0.88, 0.25, 0.20)),
    1: ((0.20, 0.85, 0.30), (0.10, 0.50, 0.18)),
    2: ((0.25, 0.30, 0.90), (0.12, 0.15, 0.55)),
}


# ObjectSpec, Shift and SceneScript are the scene-script schema: a JSON document
# holds their fields by name, and ``validate_script`` checks their JSON types
@dataclass(frozen=True)
class ObjectSpec:
    class_id: int
    w: float
    h: float
    trajectory: dict = field(default_factory=lambda: {"kind": "static", "x": 0.5, "y": 0.5})


@dataclass(frozen=True)
class Shift:
    frame_index: int
    objects: tuple[ObjectSpec, ...] | None = None
    background: int | None = None


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
        """The JSON document of the script; a shift omits its ``None`` fields."""
        d = asdict(self, dict_factory=_json_fields)
        d["camera"] = {key: d.pop(f"camera_{key}") for key in _CAMERA_KEYS}
        return d

    def all_objects(self) -> Iterator[ObjectSpec]:
        """Every object the script places, at the start and in its shifts."""
        yield from self.objects
        for s in self.shifts:
            yield from s.objects or ()

    @classmethod
    def from_dict(cls, d: dict) -> "SceneScript":
        """The script ``to_dict`` wrote, values unconverted. ``duration_frames``
        is required; any other omitted key keeps the field's default."""
        d = _json_object(d, "scene script", _SCRIPT_KEYS, ("duration_frames",))
        cam = _json_object(d.pop("camera", {}), "camera", _CAMERA_KEYS)
        d.update((f"camera_{key}", value) for key, value in cam.items())
        d["objects"] = _objects(d.get("objects", []), "objects")
        shifts = _json_objects(d.get("shifts", []), "shifts", _SHIFT_KEYS, _SHIFT_REQUIRED)
        for i, s in enumerate(shifts):
            if s.get("objects") is not None:
                s["objects"] = _objects(s["objects"], f"shifts[{i}].objects")
        d["shifts"] = tuple(Shift(**s) for s in shifts)
        return cls(**d)

    @classmethod
    def load(cls, path: str) -> "SceneScript":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_dict(json.load(f))


# the keys of each JSON object: field names, with the camera fields nested as
# {"camera": {key: ...}}
_CAMERA_KEYS = ("amplitude_px", "period_frames")
_OBJECT_KEYS, _SHIFT_KEYS, _SCRIPT_KEYS = (
    {f.name for f in fields(cls)} for cls in (ObjectSpec, Shift, SceneScript))
_SCRIPT_KEYS = _SCRIPT_KEYS - {f"camera_{key}" for key in _CAMERA_KEYS} | {"camera"}
# the keys an object or a shift must hold: the fields without a default
_OBJECT_REQUIRED, _SHIFT_REQUIRED = (
    [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]
    for cls in (ObjectSpec, Shift))


def _json_fields(pairs: list[tuple]) -> dict:
    """``asdict``'s dict of one dataclass: tuples as lists, ``None`` dropped."""
    return {key: list(value) if isinstance(value, tuple) else value
            for key, value in pairs if value is not None}


def _json_object(value, what: str, keys, required=()) -> dict:
    """A copy of ``value``, which must be a JSON object with keys in ``keys``,
    among them every key in ``required``."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(value).__name__}")
    for key in value:
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {what}")
    for key in required:
        if key not in value:
            raise ValueError(f"{what} key {key!r} is missing")
    return dict(value)


def _json_objects(value, what: str, keys, required) -> list[dict]:
    """Each entry of the JSON list ``value``, named ``what[i]``."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list, not {type(value).__name__}")
    return [_json_object(v, f"{what}[{i}]", keys, required) for i, v in enumerate(value)]


def _objects(value, what: str) -> tuple[ObjectSpec, ...]:
    return tuple(ObjectSpec(**o)
                 for o in _json_objects(value, what, _OBJECT_KEYS, _OBJECT_REQUIRED))


# a scalar field's annotation -> the Python types of the JSON values it takes
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,),
               "int | None": (int, type(None))}


def _finite(number) -> bool:
    """An int or a float is finite as a float (a JSON integer can exceed one)."""
    return abs(number) <= sys.float_info.max


def _check_json_types(spec) -> None:
    """Each scalar field of the dataclass ``spec`` holds its annotated JSON
    type; a bool is never a number."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if f.type in _JSON_TYPES and (isinstance(value, bool)
                                      or not isinstance(value, _JSON_TYPES[f.type])):
            raise ValueError(f"{f.name} must be {f.type}, not {type(value).__name__}")


# float fields that must be finite, and whether each must be > 0 (else >= 0);
# the two periods divide the frame index
_FLOAT_FIELDS = (("fps", True), ("noise_level", False), ("noise_breath", False),
                 ("noise_breath_period", True), ("camera_period_frames", True),
                 ("camera_amplitude_px", False))


def validate_script(script: SceneScript) -> None:
    _check_json_types(script)
    if script.regime not in REGIMES:
        raise ValueError(f"unknown regime {script.regime!r}")
    if script.duration_frames < 1:
        raise ValueError("duration_frames must be >= 1")
    if script.size % 4 != 0 or script.size < 16:
        raise ValueError("frame size must be a multiple of 4 and >= 16")
    for name in ("seed", "texture_drift_period"):
        if getattr(script, name) < 0:
            raise ValueError(f"{name} must be >= 0")
    for name, positive in _FLOAT_FIELDS:
        value = getattr(script, name)
        if not (_finite(value) and (value > 0 if positive else value >= 0)):
            raise ValueError(f"{name} must be finite and {'> 0' if positive else '>= 0'}")
    # the largest noise sigma a frame draws; beyond the pixel range, noise
    # only saturates the frame (and a large one overflows)
    if script.noise_level * (1.0 + script.noise_breath) > 1.0:
        raise ValueError("noise_level * (1 + noise_breath) must be <= 1.0, the pixel range")
    # a deeper breath makes the noise sigma negative, which turns noise off
    if script.noise_breath > 1.0:
        raise ValueError("noise_breath must be in [0, 1]")
    # a frame's arrival time and the periods' sine arguments grow with the
    # frame index, and must stay finite up to the last frame
    n = script.duration_frames
    if not _finite(n * (1.0 / script.fps)):
        raise ValueError("fps is too small: duration_frames / fps must be finite")
    for name in ("noise_breath_period", "camera_period_frames"):
        if not _finite(2.0 * math.pi * n / getattr(script, name)):
            raise ValueError(f"{name} is too small for duration_frames: the sine "
                             f"argument 2 pi t / {name} must be finite")
    last = -1
    for s in script.shifts:
        _check_json_types(s)
        if s.frame_index <= last:
            raise ValueError("shift indices must be strictly increasing")
        if s.frame_index >= script.duration_frames:
            raise ValueError("shift index beyond stream duration")
        last = s.frame_index
    shift_styles = [s.background for s in script.shifts if s.background is not None]
    for style in [script.background] + shift_styles:
        if style not in range(BACKGROUND_STYLES):
            raise ValueError(f"background must be a style in 0..{BACKGROUND_STYLES - 1}, "
                             f"not {style!r}")
    # a panning camera moves a box by up to round(amplitude) px from a centre
    # kept half the box, 2 px and the amplitude from the frame's edges, or
    # pinned at that margin when the object is too large to move
    pan = script.camera_amplitude_px if script.regime == "moving_camera" else 0.0
    for o in script.all_objects():
        _check_json_types(o)
        if o.class_id < 0:
            raise ValueError("class_id must be >= 0")
        if not (0.0 < o.w <= 1.0 and 0.0 < o.h <= 1.0):
            raise ValueError("object size must be in (0, 1]")
        if max(o.w, o.h) / 2.0 + 2.0 / script.size + pan / script.size \
                + round(pan) / script.size > 1.0:
            raise ValueError(f"camera_amplitude_px {pan!r} pans a {o.w!r} x {o.h!r} object "
                             f"out of a {script.size} px frame")
        traj = o.trajectory
        if not isinstance(traj, dict):
            raise ValueError(f"trajectory must be a JSON object, not {type(traj).__name__}")
        kind = traj.get("kind", "static")
        if kind not in TRAJECTORY_KINDS:
            raise ValueError(f"unknown trajectory kind {kind!r}")
        _json_object(traj, f"{kind} trajectory", {"kind", *TRAJECTORIES[kind]},
                     [key for key, default in TRAJECTORIES[kind].items() if default is None])
        v = {key: traj.get(key, default) for key, default in TRAJECTORIES[kind].items()}
        for key, value in v.items():
            if isinstance(value, bool) or not (isinstance(value, (int, float)) and _finite(value)):
                raise ValueError(f"{kind} trajectory key {key!r} must be a finite "
                                 f"number, not {value!r}")
        # bounds on the centre and the angle over the frames, which must be finite
        reach = {}
        if kind == "linear":
            reach = {"vx": abs(v["x"]) + abs(v["vx"]) * n, "vy": abs(v["y"]) + abs(v["vy"]) * n}
        elif kind == "orbit":
            reach = {"omega": abs(v["omega"]) * n + abs(v["phase"]),
                     "radius": max(abs(v["cx"]), abs(v["cy"])) + abs(v["radius"])}
        for key, bound in reach.items():
            if not _finite(bound):
                raise ValueError(f"{kind} trajectory key {key!r} is too large: the "
                                 f"trajectory must stay finite over duration_frames")


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
        x = float(traj["x"]) + float(traj.get("vx", _LINEAR["vx"])) * t
        y = float(traj["y"]) + float(traj.get("vy", _LINEAR["vy"])) * t
    elif kind == "orbit":
        ang = (float(traj.get("omega", _ORBIT["omega"])) * t
               + float(traj.get("phase", _ORBIT["phase"])))
        radius = float(traj.get("radius", _ORBIT["radius"]))
        x = float(traj["cx"]) + radius * math.cos(ang)
        y = float(traj["cy"]) + radius * math.sin(ang)
    else:  # scatter: a fresh position every frame, keyed by seed, frame and object
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


# background styles 0, 1 and 2, drawn by ``_background_pixels``
BACKGROUND_STYLES = 3


def _background_pixels(style: int, size: int, dx: int, dy: int) -> np.ndarray:
    """The (size, size, 3) float64 background of ``style`` (0, 1 or 2), shifted
    by (dx, dy) pixels, clipped to [0, 1].

    With ``xx`` and ``yy`` the shifted column and row coordinates, each term
    is computed over the values it varies over and broadcast: a term in
    ``xx`` or ``yy`` alone on one axis, and a diagonal texture in ``xx + yy``
    or ``xx - yy`` once per integer sum or difference (``2 * size - 1``
    values), laid out as a sliding-window view. Every element is the same
    float expression of the same coordinates as on a full grid.
    """
    r = np.arange(size, dtype=np.float64)
    xx = (r + dx)[None, :]
    yy = (r + dy)[:, None]
    img = np.empty((size, size, 3), dtype=np.float64)
    if style == 0:
        base = 0.22 + 0.18 * (xx / size)
        tex = 0.05 * np.sin(2.0 * np.pi * yy / 7.0)
        img[:, :, 0] = base + tex
        img[:, :, 1] = base + 0.04 * np.sin(2.0 * np.pi * xx / 9.0)
        img[:, :, 2] = 0.30 - 0.5 * tex
    elif style == 1:
        base = 0.20 + 0.20 * (yy / size)
        # row j, column i reads sums[i + j] = (i + dx) + (j + dy)
        sums = np.arange(2 * size - 1, dtype=np.float64) + (dx + dy)
        tex = sliding_window_view(0.08 * np.sin(2.0 * np.pi * sums / 11.0), size)
        img[:, :, 0] = base + tex
        img[:, :, 1] = 0.28 + 0.06 * np.sin(2.0 * np.pi * xx / 6.0)
        img[:, :, 2] = base - tex
    else:
        base = 0.34 - 0.16 * (xx / size)
        # row j, column i reads diffs[i - j + size - 1] = (i + dx) - (j + dy)
        diffs = np.arange(1 - size, size, dtype=np.float64) + (dx - dy)
        tex = sliding_window_view(0.07 * np.sin(2.0 * np.pi * diffs / 13.0), size)[::-1]
        img[:, :, 0] = 0.38 + tex
        img[:, :, 1] = base - tex
        img[:, :, 2] = 0.22 + 0.05 * np.sin(2.0 * np.pi * yy / 9.0)
    # the styles stay inside [0, 1] unless the shift is large against size
    return np.clip(img, 0.0, 1.0, out=img)


def _draw_object(img: np.ndarray, box: Box, size: int) -> None:
    w_px = max(2, int(round(box.w * size)))
    h_px = max(2, int(round(box.h * size)))
    x1 = max(0, int(round(box.x * size - w_px / 2)))
    y1 = max(0, int(round(box.y * size - h_px / 2)))
    x2 = min(size, x1 + w_px)
    y2 = min(size, y1 + h_px)
    if x2 <= x1 or y2 <= y1:
        return
    pattern = box.class_id % 3
    primary, secondary = _CLASS_COLORS[pattern]
    patch = np.empty((y2 - y1, x2 - x1, 3), dtype=np.float64)
    patch[:] = primary
    if pattern == 1:  # horizontal stripes, 2 px period pairs
        rows = (np.arange(y1, y2) // 2) % 2 == 1
        patch[rows] = secondary
    elif pattern == 2:  # checker, 2 px tiles
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
        # bit-equal to rng.normal(0.0, sigma, img.shape), without its loc add
        noise = rng.standard_normal(img.shape)
        noise *= sigma
        img += noise
    # noise and clip in place: one float64 frame buffer per render
    return Tensor(np.clip(img, 0.0, 1.0, out=img).astype(np.float32))


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


# the renderer's pipe: 1 MiB, the unprivileged maximum on Linux by default,
# holds 5 frames of 128x128 or 21 of 64x64
_PIPE_BYTES = 1 << 20
# the renderer runs a frame's stage itself when, after writing the frame, the
# pipe holds at least this many frames' bytes unread: the consumer has that
# much work queued, so the stage's time comes off the consumer's
_AHEAD_FRAMES = 2

_R = TypeVar("_R")


class SceneStream:
    """Random-access view over a script: frames and their truth."""

    def __init__(self, script: SceneScript):
        self.script = script

    def frame_at(self, frame_id: int) -> Tensor:
        return render_frame(self.script, frame_id)

    def truth_at(self, frame_id: int) -> list[Box]:
        return truth_boxes(self.script, frame_id)

    def events(self, stage: Callable[[Tensor, list[Box]], _R]
               ) -> Iterator[tuple[Tensor, list[Box], _R]]:
        """Every frame's ``(frame, truth, stage(frame, truth))`` in order,
        rendered ahead by a forked renderer process where ``os.fork``
        exists, so rendering runs on another core while the consumer works
        on the frame before.

        The renderer writes each ``frame_at(i)``'s float32 bytes to a pipe,
        and the truth is computed here. ``stage`` must be pure in the frame
        and its truth: the renderer runs it too, when it is ahead (the pipe
        holds ``_AHEAD_FRAMES`` frames' bytes unread), and sends its pickled
        result after the frame; otherwise it runs here. Either way it is the
        same value, except that every array sent through the pipe arrives
        read-only. If the pipe ends early (the renderer failed), the
        remaining frames and stages are computed here, so a render or stage
        error is raised here at its frame. Close the generator when done
        with it (``contextlib.closing``): that kills and reaps the renderer.
        """
        shape = (self.script.size, self.script.size, 3)
        pid = pipe = None
        try:
            if hasattr(os, "fork"):
                pid, pipe = self._fork_renderer(stage)
            for i in range(self.script.duration_frames):
                # once the pipe has ended early, every later read ends at once
                frame = None if pipe is None else _read_frame(pipe, shape)
                if frame is None:
                    frame = self.frame_at(i)
                truth = self.truth_at(i)
                sent = None if pipe is None else _read_result(pipe)
                yield frame, truth, stage(frame, truth) if sent is None else sent[0]
        finally:
            if pipe is not None:
                pipe.close()
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)

    def _fork_renderer(self, stage: Callable) -> tuple[int, io.FileIO] | tuple[None, None]:
        """Fork the renderer, which runs ``_render``; returns its pid and the
        pipe's read end, or ``None, None`` if the fork failed."""
        r, w = os.pipe()
        try:  # room for several frames ahead (F_SETPIPE_SZ is Linux only)
            import fcntl
            fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        except (AttributeError, OSError):
            pass
        try:
            pid = os.fork()
        except OSError:  # no process to spare: render here
            os.close(r)
            os.close(w)
            return None, None
        if pid == 0:  # the renderer: leaves only through os._exit
            code = 1
            try:
                os.close(r)
                # nothing here frees the parent's objects: no collector pass
                # runs their finalizers or touches their shared pages
                gc.disable()
                self._render(stage, w)
                code = 0
            finally:
                os._exit(code)
        os.close(w)
        return pid, io.FileIO(r, "r")

    def _render(self, stage: Callable, w: int) -> None:
        """Write every frame to the pipe ``w`` in order: its bytes, then flag
        byte 0, or, when the pipe holds ``_AHEAD_FRAMES`` frames' bytes
        unread, flag byte 1, the length of the stage's pickled result as 8
        little-endian bytes and the pickle."""
        for i in range(self.script.duration_frames):
            frame = self.frame_at(i)
            view = memoryview(frame.array).cast("B")
            _write_all(w, view)
            if _unread(w) < _AHEAD_FRAMES * len(view):
                _write_all(w, b"\0")
                continue
            pickled = io.BytesIO()
            _ReadOnlyPickler(pickled, protocol=5).dump(stage(frame, self.truth_at(i)))
            payload = pickled.getvalue()
            _write_all(w, b"\1" + len(payload).to_bytes(8, "little") + payload)


class _ReadOnlyPickler(pickle.Pickler):
    """Pickles each numpy array as its bytes, which unpickle into a
    read-only array of the same dtype and shape."""

    def reducer_override(self, obj):
        if type(obj) is np.ndarray:
            return _read_only_array, (obj.tobytes(), obj.dtype, obj.shape)
        return NotImplemented


def _read_only_array(data: bytes, dtype: np.dtype, shape: tuple[int, ...]) -> np.ndarray:
    return np.frombuffer(data, dtype).reshape(shape)


def _write_all(fd: int, data) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _unread(fd: int) -> int:
    """The bytes in the pipe ``fd`` that its reader has not read (Linux
    answers ``FIONREAD`` on the write end), or 0 where it cannot tell."""
    import fcntl
    import termios
    try:
        return int.from_bytes(fcntl.ioctl(fd, termios.FIONREAD, bytes(4)), sys.byteorder)
    except OSError:
        return 0


def _read_into(pipe: io.FileIO, view: memoryview) -> bool:
    """Fill ``view`` from the pipe; False if the pipe ends first."""
    got = 0
    while got < len(view):
        n = pipe.readinto(view[got:])
        if not n:
            return False
        got += n
    return True


def _read_frame(pipe: io.FileIO, shape: tuple[int, ...]) -> Tensor | None:
    """The next frame of ``shape`` from the renderer's pipe, or ``None`` if
    the pipe ends first."""
    out = np.empty(shape, dtype=np.float32)
    return Tensor(out) if _read_into(pipe, memoryview(out).cast("B")) else None


def _read_result(pipe: io.FileIO) -> tuple | None:
    """The renderer's stage result for the frame just read, as a 1-tuple,
    or ``None`` if it left the stage to the consumer or the pipe ends first."""
    head = memoryview(bytearray(9))
    if not (_read_into(pipe, head[:1]) and head[0] == 1 and _read_into(pipe, head[1:])):
        return None
    payload = bytearray(int.from_bytes(head[1:], "little"))
    return (pickle.loads(payload),) if _read_into(pipe, memoryview(payload)) else None


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
    return replace(fixed_cam_default(size=size, duration=duration),
                   name="moving_cam_default", regime="moving_camera", seed=13,
                   camera_amplitude_px=6.0, camera_period_frames=120.0)


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
