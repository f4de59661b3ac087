"""One benchmark operation in a fresh interpreter, as a CLI user runs it.

    python3 bench/child.py RESULT_JSON SRC_DIR MODE [-- EDGEKT_ARGS...]

MODE is ``probe`` (import edgekt and describe the environment), ``plain``
(call ``edgekt.cli.main``) or ``trace:SPANS_JSON`` (the same, with the layer
tracer installed; spans go to SPANS_JSON when the call returns). The result
file records when ``edgekt`` finished importing on the ``time.monotonic``
clock, which the parent compares with the time it spawned this process.
"""

import json
import os
import resource
import sys
import time


def _blas() -> dict:
    """BLAS name, version and thread count, as numpy in this process sees it."""
    import ctypes
    import glob

    import numpy as np
    info = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"numpy": np.__version__, "blas": info.get("name"),
            "blas_version": info.get("version"), "blas_threads": threads}


def main() -> None:
    result_path, src, mode = sys.argv[1:4]
    argv = sys.argv[5:]
    import edgekt
    imported_at = time.monotonic()
    result = {"imported_at": imported_at}
    if os.path.commonpath([os.path.realpath(edgekt.__file__), os.path.realpath(src)]) \
            != os.path.realpath(src):
        result["error"] = f"edgekt imported from {edgekt.__file__}, not from {src}"
    elif mode == "probe":
        result.update(_blas())
    else:
        from edgekt import cli
        tracer = None
        if mode.startswith("trace:"):
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        try:
            result["rc"] = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            result["rc"] = exc.code
        except Exception as exc:  # a raising operation is a failed operation
            result["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            result["main_s"] = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            with open(mode[len("trace:"):], "w", encoding="utf-8") as f:
                json.dump(tracer.spans, f)
            result["counts"] = dict(tracer.counts)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
