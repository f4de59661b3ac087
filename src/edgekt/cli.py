"""Command-line entry point: run one scenario or the full comparison table."""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .harness import SCENARIO_NAMES, compare, emit_report, resolve_stream, run_named_scenario
from .runtime import ConfigError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgekt",
        description="Edge knowledge-transfer simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a single scenario and write a JSON report")
    run.add_argument("--scenario", required=True, choices=SCENARIO_NAMES)
    run.add_argument("--stream", default="fixed_cam_default",
                     help="preset name or path to a scene-script JSON file")
    run.add_argument("--precision", default="full", choices=("full", "half"))
    run.add_argument("--kfs", default="on", choices=("on", "off"))
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", required=True, help="output report path (JSON)")
    run.add_argument("--trace-csv", default=None,
                     help="optionally also write the per-frame trace as CSV")

    cmp_ = sub.add_parser("compare", help="run the five named scenarios into a CSV table")
    cmp_.add_argument("--stream", default="fixed_cam_default")
    cmp_.add_argument("--seed", type=int, default=0)
    cmp_.add_argument("--out", required=True, help="output table path (CSV)")
    return parser


def _check_writable(path: str) -> None:
    """Refuse an output path that cannot be opened for writing; an existing
    file keeps its bytes, and a file the check creates is removed again."""
    existed = os.path.lexists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise ConfigError(f"cannot write output {path!r}: {exc.strerror}") from exc
    if not existed:
        os.remove(path)


def main(argv: list[str] | None = None) -> int:
    # getLevelName maps a level name to its int and anything else to a str,
    # so only real level names are accepted; every other value means WARNING.
    level = logging.getLevelName(os.environ.get("EDGEKT_LOG", "WARNING").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        trace_csv = getattr(args, "trace_csv", None)
        if trace_csv and os.path.realpath(trace_csv) == os.path.realpath(args.out):
            raise ConfigError(f"--trace-csv and --out name one file: {args.out!r}")
        for path in filter(None, (args.out, trace_csv)):
            _check_writable(path)  # before any frame is rendered
        if args.command == "run":
            script = resolve_stream(args.stream)
            report = run_named_scenario(args.scenario, script, seed=args.seed,
                                        precision=args.precision,
                                        kfs=args.kfs == "on")
            emit_report(report, "json", args.out)
            if args.trace_csv:
                emit_report(report, "csv", args.trace_csv)
        else:
            script = resolve_stream(args.stream)
            compare(script, seed=args.seed, out_path=args.out)
    except ValueError as exc:  # ConfigError included
        print(f"edgekt: config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
