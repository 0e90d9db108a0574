"""Command line entry point.

Exit codes: 0 all assertions passed, 1 an assertion failed, 2 invalid
configuration or violated hypothesis (ValueError), or a config file or
output directory the OS refuses (OSError), 3 numerical abort (non-finite
values, a non-contracting fixed-point iteration, or a potential flow step
too long for its potential: a nodal phase argument of 2**53 or more, or a
Yosida step that would need more substeps than its budget; any
dynamics.NumericalAbort).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import experiments
from .config import load_config
from .dynamics import NumericalAbort


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sibsim",
        description=(
            "Pseudospectral simulator and verification harness for the "
            "coupled Schrodinger / improved-Boussinesq system and its "
            "Zakharov limit on a Dirichlet rectangle."
        ),
    )
    parser.add_argument(
        "--config",
        metavar="PATH",
        help="INI configuration file; omitted means the standard preset",
    )
    parser.add_argument(
        "--out",
        dest="out_dir",
        metavar="DIR",
        help="output directory (overrides [output] dir)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress and verdict lines"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("run", help="integrate one configuration, assert invariants")

    p = sub.add_parser(
        "sweep-eps",
        help="compare eps > 0 runs to the Zakharov (eps = 0) reference",
    )
    p.add_argument(
        "--eps-list",
        nargs="+",
        type=float,
        metavar="EPS",
        help="override [sweep] eps_list",
    )

    p = sub.add_parser(
        "sweep-n", help="regularization sweep against the unregularized run"
    )
    p.add_argument(
        "--n-list", nargs="+", type=int, metavar="N", help="override [sweep] n_list"
    )

    p = sub.add_parser(
        "check", help="certify the stepper's spectral symbols (identities, inequalities)"
    )
    p.add_argument(
        "--inject-fault",
        choices=("yosida",),
        help="corrupt one symbol value on purpose (harness self-test)",
    )

    sub.add_parser(
        "estimate-c0", help="estimate the sharp Gagliardo-Nirenberg constant"
    )

    p = sub.add_parser("order-test", help="measure the integrator convergence order")
    p.add_argument(
        "--dt-list",
        nargs="+",
        type=float,
        metavar="DT",
        help="override [sweep] dt_list (halving progression, at least 3)",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # flag values replace file values, so RunConfig validates both alike
    overrides = {
        name: tuple(value) if isinstance(value, list) else value
        for name, value in vars(args).items()
        if name in ("out_dir", "eps_list", "n_list", "dt_list") and value
    }
    try:
        config = replace(load_config(args.config), **overrides)
        if args.command == "check":
            return experiments.cmd_check(
                config, quiet=args.quiet, inject_fault=args.inject_fault
            )
        command = {
            "run": experiments.cmd_run,
            "sweep-eps": experiments.cmd_sweep_eps,
            "sweep-n": experiments.cmd_sweep_n,
            "estimate-c0": experiments.cmd_estimate_c0,
            "order-test": experiments.cmd_order_test,
        }[args.command]
        return command(config, quiet=args.quiet)
    except (ValueError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
