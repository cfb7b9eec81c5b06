"""Command-line benchmark runner.

`run` writes one trace_NNN.csv per repeat and a summary.json into its output
directory, replacing the trace files an earlier run left there; `--seed` and
`--out` override the spec's seed and the default ./results.
Exit codes: 0 success, 1 configuration error, 2 runtime/numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from zobcd.core import ConfigurationError, NumericalFailure
from zobcd.harness import METHOD_NAMES, ExperimentSpec, read_trace, run_experiment, summarize
from zobcd.objectives import OBJECTIVES
from zobcd.optimizer import TERM_FAILURE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zobcd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment spec")
    p_run.add_argument("--config", required=True, help="path to a JSON experiment spec")
    p_run.add_argument("--seed", type=int, default=None, help="override the spec's master seed")
    p_run.add_argument("--out", default="results", help="output directory (default: ./results)")

    p_sum = sub.add_parser("summarize", help="summarize trace files in a directory")
    p_sum.add_argument("--in", dest="in_dir", required=True, help="directory holding trace files")
    p_sum.add_argument("--target", type=float, default=None, help="objective target for hit statistics")

    sub.add_parser("list-objectives", help="list objective names")
    sub.add_parser("list-methods", help="list method names")
    return parser


def _cmd_run(args) -> int:
    spec = ExperimentSpec.from_file(args.config)
    if args.seed is not None:
        spec.seed = args.seed
    # a run that overflows ends as numerical_failure with exit 2; numpy's
    # RuntimeWarnings on the way there would only add lines to stderr
    with np.errstate(all="ignore"):
        summary = run_experiment(spec, args.out)
    print(json.dumps({k: summary[k] for k in ("target", "iterations_to_target", "queries_to_target")}, indent=1))
    failures = [r for r in summary["runs"] if r["termination"] == TERM_FAILURE]
    return 2 if failures else 0


def _cmd_summarize(args) -> int:
    in_dir = Path(args.in_dir)
    paths = sorted(in_dir.glob("trace_*.csv"))
    if not paths:
        raise ConfigurationError(f"no trace files found in {in_dir}")
    target, source = args.target, "--target"
    summary_path = in_dir / "summary.json"
    if target is None and summary_path.exists():
        try:
            doc = json.loads(summary_path.read_text())
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"{summary_path} is not readable JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigurationError(f"{summary_path} must hold a JSON object, got {type(doc).__name__}")
        target, source = doc.get("target"), str(summary_path)
    finite = type(target) is int or (type(target) is float and math.isfinite(target))
    if target is not None and not finite:
        raise ConfigurationError(f"{source}: target must be null or a finite number, got {target!r}")
    print(json.dumps(summarize([read_trace(p) for p in paths], target), indent=1))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "summarize":
            return _cmd_summarize(args)
        if args.command == "list-objectives":
            print("\n".join(OBJECTIVES))
            return 0
        print("\n".join(METHOD_NAMES))
        return 0
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
