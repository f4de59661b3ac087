"""Print the SHA-256 of every CLI output in the report matrix.

The matrix has 70 files, written to a temporary directory:

- ``run`` JSON report and ``--trace-csv`` trace for both presets, all five
  scenarios and ``--precision full|half``, with ``--kfs on`` (40 files);
- the same two outputs for ``lt``, ``nt-lan`` and ``nt-wifi`` with ``--kfs off``
  at full precision on both presets (12 files);
- the same two outputs for ``nt-lan`` and ``nt-wifi`` with ``--kfs off`` at half
  precision on both presets (8 files), so every frame of a run crosses the
  binary16 wire codec;
- the ``compare`` CSV of both presets (2 files);
- the same two outputs for ``nt-wifi --precision half``, ``shallow`` and
  ``nt-lan --precision full --kfs off`` on the 128x128, 600-frame
  moving-camera scene script of the ``large-frames`` benchmark workload at
  seed 0 (``bench/scenes.py``), which this tool writes next to the outputs
  (6 files). Its background shifts render all three background styles, and
  its ``nt-lan`` run sends every frame it can at full precision to the edge;
- the same two outputs for ``nt-wifi --precision full --kfs on`` on
  ``fixed_cam_default`` at seed 3 (2 files), so the selector's and both
  channel directions' seeds are derived from a non-zero run seed.

After each run, the tool exits non-zero if the process has a child left:
every run must reap the renderer process it forks.

Every other run uses seed 0. Each output prints as one ``sha256  name`` line, so two
versions of the program produce byte-identical reports iff ``diff`` of their
outputs is empty::

    python3 tools/report_digests.py > new.txt
    python3 tools/report_digests.py --src ../other-checkout/src > old.txt
    diff old.txt new.txt

The reports also depend on the machine: numpy's SIMD kernels and the BLAS
core type change float results. So the output starts with one ``# `` line
naming Python, numpy, the BLAS build and core type, and numpy's enabled
dispatch targets, and digest files from two machines differ visibly.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PRESETS = ("fixed_cam_default", "moving_cam_default")
SCENARIOS = ("shallow", "deep", "lt", "nt-lan", "nt-wifi")
LARGE_SCRIPT = "large_frames_0.json"


def matrix(large: str = LARGE_SCRIPT):
    """Yield (output stem, CLI arguments without output paths, is_compare);
    ``large`` is the path of the 128x128 scene script file."""
    for stream in PRESETS:
        for scenario in SCENARIOS:
            for precision in ("full", "half"):
                yield (f"{stream}-{scenario}-{precision}-kfs_on",
                       ["run", "--scenario", scenario, "--stream", stream,
                        "--precision", precision, "--kfs", "on", "--seed", "0"], False)
        for scenario, precision in (("lt", "full"), ("nt-lan", "full"), ("nt-wifi", "full"),
                                    ("nt-lan", "half"), ("nt-wifi", "half")):
            yield (f"{stream}-{scenario}-{precision}-kfs_off",
                   ["run", "--scenario", scenario, "--stream", stream,
                    "--precision", precision, "--kfs", "off", "--seed", "0"], False)
        yield (f"{stream}-compare", ["compare", "--stream", stream, "--seed", "0"], True)
    for scenario, precision, kfs in (("nt-wifi", "half", "on"), ("shallow", "full", "on"),
                                     ("nt-lan", "full", "off")):
        yield (f"large_frames_0-{scenario}-{precision}-kfs_{kfs}",
               ["run", "--scenario", scenario, "--stream", large,
                "--precision", precision, "--kfs", kfs, "--seed", "0"], False)
    yield ("fixed_cam_default-nt-wifi-full-kfs_on-seed_3",
           ["run", "--scenario", "nt-wifi", "--stream", "fixed_cam_default",
            "--precision", "full", "--kfs", "on", "--seed", "3"], False)


def environment() -> str:
    """The ``# `` header line: what the report bytes depend on besides the source."""
    import numpy as np
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    core = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                core = fn().decode()
                break
    dispatch = ",".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t)) or "none"
    return (f"# python {platform.python_version()} numpy {np.__version__} "
            f"blas {blas.get('name')} {blas.get('version')} core {core} dispatch {dispatch}")


def leaked_child() -> bool:
    """Whether this process has a child, running or unreaped: a run must reap
    the renderer process it forks before it returns."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory to import edgekt from (default: this checkout's src)")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from edgekt.cli import main as edgekt_main

    sys.path.insert(0, str(ROOT / "bench"))
    from scenes import large_frames_script

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / LARGE_SCRIPT).write_text(json.dumps(large_frames_script(0), indent=2,
                                                   sort_keys=True))
        names = []
        for stem, cli_args, is_compare in matrix(str(out / LARGE_SCRIPT)):
            if is_compare:
                names.append(f"{stem}.csv")
                cli_args = cli_args + ["--out", str(out / names[-1])]
            else:
                names += [f"{stem}.json", f"{stem}.trace.csv"]
                cli_args = cli_args + ["--out", str(out / names[-2]),
                                       "--trace-csv", str(out / names[-1])]
            if edgekt_main(cli_args) != 0:
                print(f"edgekt {' '.join(cli_args)} failed", file=sys.stderr)
                return 1
            if leaked_child():
                print(f"edgekt {' '.join(cli_args)} left a child process", file=sys.stderr)
                return 1
        print(environment())
        for name in names:
            print(f"{hashlib.sha256((out / name).read_bytes()).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
