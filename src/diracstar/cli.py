"""Command-line entry point.

    diracstar run --config FILE [--out DIR]
    diracstar sweep --config FILE [--param alpha1] --from A --to B
                    --points K [--out DIR]
    diracstar check-sumrule --config FILE

Exit codes: 0 success, 2 validation error, 3 numerical instability, 4 I/O
error.
"""
from __future__ import annotations

import argparse
import sys

from .boundaries import vertex_tbc_factor
from .config import ConfigError, load_config
from .experiments import run_experiment, sweep_alpha1
from .graph import sum_rule_residual
from .solver import InstabilityError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INSTABILITY = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracstar",
        description="Dirac wave packets on star graphs with transparent "
        "vertex and end boundary conditions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured simulation")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", help="output directory (overrides [output])")

    p_sweep = sub.add_parser("sweep", help="sweep alpha1 and record R(alpha1)")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", default="alpha1", choices=["alpha1"])
    p_sweep.add_argument("--from", dest="start", type=float)
    p_sweep.add_argument("--to", dest="stop", type=float)
    p_sweep.add_argument("--points", type=int)
    p_sweep.add_argument("--out", help="output directory (overrides [output])")

    p_check = sub.add_parser(
        "check-sumrule",
        help="print the sum-rule residual and vertex factor of a config",
    )
    p_check.add_argument("--config", required=True)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    summary = run_experiment(config, args.out)
    print(
        f"run complete: t_final={summary['t_final']:g} "
        f"R={summary['final_reflection']:.6g} "
        f"norm drift={summary['max_norm_drift']:.3g}"
    )
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    start, stop, points = args.start, args.stop, args.points
    if config.sweep is not None:
        start = start if start is not None else config.sweep.start
        stop = stop if stop is not None else config.sweep.stop
        points = points if points is not None else config.sweep.points
    if start is None or stop is None or points is None:
        raise ConfigError(
            "sweep range not given: pass --from/--to/--points or a [sweep] section"
        )
    summary = sweep_alpha1(config, start, stop, points, args.out)
    if "argmin_alpha1" in summary:
        print(
            f"sweep complete: min R={summary['min_reflection']:.6g} "
            f"at alpha1={summary['argmin_alpha1']:.6g}"
        )
    if summary["failures"]:
        print(f"{len(summary['failures'])} point(s) failed", file=sys.stderr)
        errors = {f["error"] for f in summary["failures"]}
        if any("InstabilityError" in e for e in errors):
            return EXIT_INSTABILITY
        return EXIT_VALIDATION
    return EXIT_OK


def _cmd_check_sumrule(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    residual = sum_rule_residual(config.build_graph())
    factor = vertex_tbc_factor(config.alphas)
    print(f"sum rule residual: {residual:.17g}")
    print(f"vertex factor A:   {factor:.17g}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "check-sumrule": _cmd_check_sumrule,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InstabilityError as exc:
        print(f"numerical instability: {exc}", file=sys.stderr)
        return EXIT_INSTABILITY
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
