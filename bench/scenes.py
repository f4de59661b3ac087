"""Scene script for the ``large-frames`` workload, made from the seed alone.

The script is a plain dict in the layout ``SceneScript.from_dict`` reads; the
benchmark writes it to a JSON file and the program only ever sees that file.
"""

from __future__ import annotations

import random

SIZE = 128
FRAMES = 600


def _objects(rng: random.Random) -> list[dict]:
    """One object of each trajectory kind, classes and sizes drawn from rng."""

    def dims() -> tuple[float, float]:
        return round(rng.uniform(0.12, 0.22), 4), round(rng.uniform(0.12, 0.22), 4)

    def pos() -> float:
        return round(rng.uniform(0.3, 0.7), 4)

    trajectories = [
        {"kind": "static", "x": pos(), "y": pos()},
        {"kind": "linear", "x": pos(), "y": pos(),
         "vx": round(rng.uniform(-0.006, 0.006), 5),
         "vy": round(rng.uniform(-0.006, 0.006), 5)},
        {"kind": "orbit", "cx": pos(), "cy": pos(),
         "radius": round(rng.uniform(0.08, 0.2), 4),
         "omega": round(rng.uniform(0.01, 0.05), 5),
         "phase": round(rng.uniform(0.0, 6.28), 4)},
        {"kind": "scatter"},
    ]
    out = []
    for traj in trajectories:
        w, h = dims()
        out.append({"class_id": rng.randrange(3), "w": w, "h": h, "trajectory": traj})
    return out


def large_frames_script(seed: int) -> dict:
    """A 128x128, 600-frame moving-camera script; a pure function of ``seed``.

    It holds every trajectory kind, a panning camera, a background-only
    shift, an object-set shift and a combined shift.
    """
    rng = random.Random(f"edgekt-large-frames:{seed}")
    backgrounds = [0, 1, 2]
    rng.shuffle(backgrounds)
    return {
        "name": f"large_frames_{seed}",
        "regime": "moving_camera",
        "duration_frames": FRAMES,
        "size": SIZE,
        "fps": 3.2,
        "noise_level": 0.005,
        "background": backgrounds[0],
        "seed": rng.randrange(1, 1 << 16),
        "camera": {"amplitude_px": round(rng.uniform(6.0, 12.0), 3),
                   "period_frames": round(rng.uniform(90.0, 150.0), 3)},
        "texture_drift_period": 0,
        "noise_breath": 0.5,
        "noise_breath_period": 24.0,
        "objects": _objects(rng),
        "shifts": [
            {"frame_index": rng.randrange(120, 180), "background": backgrounds[1]},
            {"frame_index": rng.randrange(260, 340), "objects": _objects(rng)},
            {"frame_index": rng.randrange(420, 480), "objects": _objects(rng),
             "background": backgrounds[2]},
        ],
    }
