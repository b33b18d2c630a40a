"""Command-line interface: validate, solve, compare and metrics workflows.

Exit codes are a stable contract: 0 success, 1 parse error, 2 validation
failure, 3 solver failure or out of memory. Identical inputs and flags
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

import numpy as np

from . import io as fio
from .bfs import BfsOptions, residual
from .errors import ParseError, RadialFlowError, RadialityError
from .linsolve import check_v0, solve
from .metrics import summarize
# build_incidence is unused; perfbench's span test expects it bound here.
from .network import Feeder, build_incidence

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_SOLVER = 3

LINEAR_METHODS = ("linear-simple", "linear-full")

V0_HELP = (
    "linearization point of linear-full, e.g. 1.05 or 1.05+0j "
    "(linear-simple ignores it)"
)


def _read_feeder(path: str) -> Feeder:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return fio.parse_feeder(text)


def _bfs_options(args: argparse.Namespace) -> BfsOptions:
    return BfsOptions(
        tolerance=args.tolerance, max_iterations=args.max_iterations
    )


def _flag(convert, build):
    """An argparse ``type``: ``convert`` the text (argparse reports a
    ValueError as an invalid value), then ``build`` from it what owns the
    flag's rule, an option type or ``check_v0``, whose ValueError becomes
    a usage error too."""

    def parse(text: str):
        value = convert(text)
        try:
            build(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{exc}, got {text!r}") from None
        return value

    parse.__name__ = convert.__name__  # names the type in argparse's message
    return parse


_v0 = _flag(complex, check_v0)
_tolerance = _flag(float, lambda value: BfsOptions(tolerance=value))
_iterations = _flag(int, lambda value: BfsOptions(max_iterations=value))


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as f:
                f.write(text)
        except OSError as exc:
            raise ParseError(
                f"cannot write {args.output}: {exc.strerror}"
            ) from exc
    else:
        sys.stdout.write(text)


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        _read_feeder(args.input)
    except ParseError as exc:
        _emit(args, f"PARSE ERROR: {exc}\n")
        return EXIT_PARSE
    except RadialityError as exc:
        lines = ["INVALID"] + [f"- {v}" for v in exc.violations]
        _emit(args, "\n".join(lines) + "\n")
        return EXIT_VALIDATION
    _emit(args, "OK\n")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    feeder = _read_feeder(args.input)
    solution = solve(feeder, args.method, args.v0, _bfs_options(args))
    report = summarize(solution, None, feeder)
    _emit(args, fio.write_solution(solution, report, args.format))
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    feeder = _read_feeder(args.input)
    reference = solve(feeder, "bfs", bfs=_bfs_options(args))
    solution = solve(feeder, args.method, args.v0, _bfs_options(args))
    lin_report = summarize(solution, None, feeder, reference=reference)
    ref_report = summarize(reference, None, feeder)
    p = feeder.phase_count
    columns = {
        "v_mag_linear": [abs(v) for v in solution.voltages],
        "v_mag_bfs": [abs(v) for v in reference.voltages],
        "epsilon": lin_report.epsilon.tolist(),
    }
    if p == 3:
        columns["luvr_linear"] = lin_report.luvr.tolist()
        columns["luvr_bfs"] = ref_report.luvr.tolist()
    rows = fio.node_rows(feeder.nodes, p, **columns)

    def pair(linear: float, bfs: float) -> dict[str, float]:
        return {"linear": fio.fmt_number(linear), "bfs": fio.fmt_number(bfs)}

    summary: dict[str, Any] = {
        "max_epsilon": fio.fmt_number(float(np.max(lin_report.epsilon))),
        "mean_epsilon": fio.fmt_number(float(np.mean(lin_report.epsilon))),
        "v_min": pair(lin_report.v_min, ref_report.v_min),
        "p_loss": pair(lin_report.p_loss, ref_report.p_loss),
        "q_loss": pair(lin_report.q_loss, ref_report.q_loss),
        "residual": pair(
            residual(feeder, solution), residual(feeder, reference)
        ),
    }
    if p == 3:
        over_linear = [
            feeder.nodes[i] for i in np.flatnonzero(lin_report.luvr > 1.0)
        ]
        over_bfs = [
            feeder.nodes[i] for i in np.flatnonzero(ref_report.luvr > 1.0)
        ]
        summary["luvr_over_1pct"] = {
            "linear": over_linear,
            "bfs": over_bfs,
            "count_linear": len(over_linear),
            "count_bfs": len(over_bfs),
            "identical": over_linear == over_bfs,
        }

    doc = {
        "schema_version": fio.SCHEMA_VERSION,
        "method": args.method,
        "reference": "bfs",
        "nodes": rows,
        "summary": summary,
    }
    _emit(args, fio.render(doc, ["id", "phase", *columns], rows, args.format))
    return EXIT_OK


def cmd_metrics(args: argparse.Namespace) -> int:
    feeder = _read_feeder(args.input)
    solution = solve(feeder, "bfs", bfs=_bfs_options(args))
    report = summarize(solution, None, feeder)
    scalars = {
        "method": "bfs",
        "converged": solution.converged,
        "iterations": solution.iterations,
        "p_loss": fio.fmt_number(report.p_loss),
        "q_loss": fio.fmt_number(report.q_loss),
        "v_min": fio.fmt_number(report.v_min),
        "residual": fio.fmt_number(residual(feeder, solution)),
    }
    luvr = {}
    if report.luvr is not None:
        luvr = {
            node: fio.fmt_number(float(report.luvr[i]))
            for i, node in enumerate(feeder.nodes)
        }
    doc = {**scalars, "luvr": luvr} if luvr else scalars
    rows = [{"metric": k, "id": "", "value": v} for k, v in scalars.items()]
    rows += [{"metric": "luvr", "id": k, "value": v} for k, v in luvr.items()]
    _emit(args, fio.render(doc, ["metric", "id", "value"], rows, args.format))
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radialflow",
        description="Linearized ZIP power flow for radial feeders",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, bfs_opts: bool = True) -> None:
        p.add_argument("input", help="feeder JSON file")
        p.add_argument(
            "--format", choices=("json", "csv"), default="json",
            help="output format (default json)",
        )
        p.add_argument(
            "-o", "--output", default=None,
            help="write output to this path instead of standard output",
        )
        if bfs_opts:
            p.add_argument(
                "--tolerance", type=_tolerance, default=1e-8,
                help="BFS convergence tolerance, finite and positive "
                "(default 1e-8)",
            )
            p.add_argument(
                "--max-iterations", type=_iterations, default=100,
                help="BFS iteration budget, at least 1 (default 100)",
            )

    p_validate = sub.add_parser("validate", help="check feeder radiality")
    common(p_validate, bfs_opts=False)
    p_validate.set_defaults(func=cmd_validate)

    p_solve = sub.add_parser("solve", help="run one power-flow method")
    common(p_solve)
    p_solve.add_argument(
        "--method",
        choices=LINEAR_METHODS + ("bfs",),
        default="linear-simple",
    )
    p_solve.add_argument("--v0", type=_v0, default=None, help=V0_HELP)
    p_solve.set_defaults(func=cmd_solve)

    p_compare = sub.add_parser(
        "compare", help="run BFS and a linear method, report per-node error"
    )
    common(p_compare)
    p_compare.add_argument(
        "--method", choices=LINEAR_METHODS, default="linear-simple"
    )
    p_compare.add_argument("--v0", type=_v0, default=None, help=V0_HELP)
    p_compare.set_defaults(func=cmd_compare)

    p_metrics = sub.add_parser(
        "metrics", help="solve with BFS and report summary metrics"
    )
    common(p_metrics)
    p_metrics.set_defaults(func=cmd_metrics)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # A non-finite result is a solver error, raised where it is
        # written, not a numpy warning on the way there.
        with np.errstate(all="ignore"):
            return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RadialityError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (RadialFlowError, MemoryError) as exc:
        message = str(exc)
        if isinstance(exc, MemoryError):  # numpy's names the allocation
            message = "out of memory" + (f" ({message})" if message else "")
        print(f"solver error: {message}", file=sys.stderr)
        return EXIT_SOLVER


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
