"""Command line entry points.

    gmf run <config.json>       execute an experiment, write trace files
    gmf oracle <matrix> <fn> <b>  dense-SVD ground truth for f◇(A) b
    gmf bounds <config.json>    evaluate only the configured bound overlays

Exit codes: 0 success, 2 configuration/validation failure, 3 numerical
failure, 4 I/O failure.
"""

import argparse
import json
import sys

import numpy as np

from .errors import ArgumentError, ConfigError, EvaluationError, SolveFailure
from .functions import builtin
from .harness import evaluate_bounds, load_config, run
from .operators import load_dense_matrix
from .reference import gmf_apply_reference


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gmf",
        description="Generalized matrix function experiments and oracles")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment configuration")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", default=None,
                       help="override the configured output directory")

    p_oracle = sub.add_parser("oracle", help="dense ground truth f◇(A) b")
    p_oracle.add_argument("matrix", help="text matrix file ('m n' header)")
    p_oracle.add_argument("function", help="builtin function name")
    p_oracle.add_argument("b", help="text vector file (whitespace separated)")
    p_oracle.add_argument("--out", default=None,
                          help="write the result here instead of stdout")

    p_bounds = sub.add_parser("bounds", help="evaluate configured bound curves")
    p_bounds.add_argument("config")
    p_bounds.add_argument("--output-dir", default=None)
    return parser


def _load_vector(path):
    try:
        return np.loadtxt(path, ndmin=1, dtype=float).reshape(-1)
    except ValueError as exc:   # a UnicodeDecodeError, a non-number
        raise ArgumentError(f"{path}: not a text vector: {exc}") from None


def _cmd_run(args):
    config = load_config(args.config)
    summary = run(config, output_dir=args.output_dir)
    for tag, path in summary["traces"].items():
        print(f"{tag}: {path}")
    if "final_error" in summary:
        print(f"final relative error: {summary['final_error']:.3e}")
    return 0


def _cmd_oracle(args):
    op = load_dense_matrix(args.matrix)
    f = builtin(args.function)
    y = gmf_apply_reference(f, op.dense, _load_vector(args.b))
    lines = "".join(f"{v:.16e}\n" for v in y)
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(lines)
    else:
        sys.stdout.write(lines)
    return 0


def _cmd_bounds(args):
    config = load_config(args.config)
    summary = evaluate_bounds(config, output_dir=args.output_dir)
    for tag, path in summary["traces"].items():
        print(f"{tag}: {path}")
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "oracle": _cmd_oracle, "bounds": _cmd_bounds}
    try:
        return handlers[args.command](args)
    except (ConfigError, ArgumentError, json.JSONDecodeError) as exc:
        print(f"gmf: invalid input: {exc}", file=sys.stderr)
        return 2
    except (SolveFailure, EvaluationError) as exc:
        print(f"gmf: numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"gmf: i/o failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
