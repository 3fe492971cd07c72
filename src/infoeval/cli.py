"""Command-line front end.

Five subcommands cover the library surface:

* ``eval``: measure values for one or more confusion matrices,
* ``rank``: letter rankings of competing models per measure,
* ``theorems``: extremum detectors and canonical-departure analysis,
* ``omega``: the cost cross-over share for given n and d,
* ``sweep``: the four departure-cost curves over class shares.

Output is markdown (default), CSV, or JSON; Singular values print as
"S".  Exit codes: 0 on success, 1 on bad input, 2 when an internal
invariant fails.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path
from typing import Sequence

from . import __version__, analysis, fixtures
from .confusion import AugmentedConfusionMatrix, parse_matrices
from .infocore import SINGULAR
from .measures import InvariantViolation, evaluate_all, parse_selection
from .ranking import rank

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; reserve 2 for invariant
    # failures and treat every bad invocation as bad input (1)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _rounding(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= value <= 12:
        raise argparse.ArgumentTypeError("rounding must be between 0 and 12")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("markdown", "csv", "json"),
        default="markdown",
        help="output format (default: markdown)",
    )
    parser.add_argument(
        "--round",
        type=_rounding,
        default=3,
        metavar="N",
        help="decimals for printed and ranked values, 0-12 (default: 3)",
    )
    parser.add_argument(
        "--precision",
        choices=("fixed", "raw"),
        default="fixed",
        help="print values rounded (fixed) or at full precision (raw)",
    )


def _add_measure_option(parser: argparse.ArgumentParser, default: str) -> None:
    parser.add_argument(
        "--measures",
        "--measure",
        dest="measures",
        default=default,
        metavar="LIST",
        help=(
            "comma-separated measure ids or group names "
            "(mi, divergence, cross-entropy, performance, information, all); "
            f"default: {default}"
        ),
    )


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="infoeval",
        description="Evaluate and rank classifications that may reject samples.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_eval = commands.add_parser(
        "eval", help="evaluate measures on confusion matrices"
    )
    p_eval.add_argument("inputs", nargs="+", metavar="INPUT",
                        help="JSON/CSV file, or the name of a bundled fixture")
    _add_measure_option(p_eval, default="all")
    _add_output_options(p_eval)
    p_eval.set_defaults(handler=_cmd_eval)

    p_rank = commands.add_parser(
        "rank", help="letter-rank competing models per measure"
    )
    p_rank.add_argument("inputs", nargs="+", metavar="INPUT",
                        help="JSON/CSV file, or the name of a bundled fixture")
    _add_measure_option(p_rank, default="NI2")
    _add_output_options(p_rank)
    p_rank.set_defaults(handler=_cmd_rank)

    p_theorems = commands.add_parser(
        "theorems",
        help="extremum detectors and canonical single-departure analysis",
    )
    p_theorems.add_argument("inputs", nargs="+", metavar="INPUT",
                            help="JSON/CSV file, or the name of a bundled fixture")
    _add_output_options(p_theorems)
    p_theorems.set_defaults(handler=_cmd_theorems)

    p_omega = commands.add_parser(
        "omega", help="solve for the error/reject cost cross-over share"
    )
    p_omega.add_argument("--n", type=_positive_int, required=True,
                         help="total sample count")
    p_omega.add_argument("--d", type=_positive_int, required=True,
                         help="departure size (samples moved)")
    _add_output_options(p_omega)
    p_omega.set_defaults(handler=_cmd_omega)

    p_sweep = commands.add_parser(
        "sweep", help="tabulate the four departure costs over class shares"
    )
    p_sweep.add_argument("--n", type=_positive_int, required=True,
                         help="total sample count")
    p_sweep.add_argument("--d", type=_positive_int, required=True,
                         help="departure size (samples moved)")
    p_sweep.add_argument("--step", type=_positive_float, default=0.05,
                         help="grid step for the large-class share (default: 0.05)")
    _add_output_options(p_sweep)
    p_sweep.set_defaults(handler=_cmd_sweep)

    return parser


def _resolve_input(raw: str) -> Path:
    path = Path(raw)
    if path.is_file():
        return path
    base = fixtures.fixtures_dir()
    for candidate in (base / raw, base / f"{raw}.json"):
        if candidate.is_file():
            return candidate
    raise ValueError(f"{raw}: no such file or bundled fixture")


def _load_models(inputs: Sequence[str]) -> list[AugmentedConfusionMatrix]:
    models: list[AugmentedConfusionMatrix] = []
    for raw in inputs:
        path = _resolve_input(raw)
        fmt = "csv" if path.suffix.lower() == ".csv" else "json"
        try:
            parsed = parse_matrices(path.read_text(), fmt)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        models.extend(parsed)
    return [
        model if model.model_name else model.with_name(f"M{position}")
        for position, model in enumerate(models, start=1)
    ]


def _format_value(value, args) -> str:
    """One cell of text output; Singular prints as S, absent as empty."""
    if value is None:
        return ""
    if value is SINGULAR:
        return "S"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value) if args.precision == "raw" else f"{value:.{args.round}f}"
    return str(value)


def _json_value(value, args):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if value is SINGULAR:
        return "S"
    return value if args.precision == "raw" else round(value, args.round)


def _markdown_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(lines) + "\n"


def _csv_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _render_table(header, rows, args) -> str:
    if args.format == "csv":
        return _csv_table(header, rows)
    return _markdown_table(header, rows)


def _cmd_eval(args) -> str:
    models = _load_models(args.inputs)
    selection = parse_selection(args.measures)
    table = [
        (model.model_name, evaluate_all(model, selection, strict=False))
        for model in models
    ]
    if args.format == "json":
        payload = [
            {
                "name": name,
                "measures": {
                    item.measure.value: _json_value(item.value, args) for item in values
                },
            }
            for name, values in table
        ]
        return json.dumps(payload, indent=2) + "\n"
    header = ["model", *(item.measure.value for item in table[0][1])]
    rows = [
        [name, *(_format_value(item.value, args) for item in values)]
        for name, values in table
    ]
    return _render_table(header, rows, args)


def _cmd_rank(args) -> str:
    models = _load_models(args.inputs)
    selection = parse_selection(args.measures)
    names = [model.model_name for model in models]
    table = [evaluate_all(model, selection) for model in models]
    reports = [
        rank(column, rounding=args.round, model_names=names) for column in zip(*table)
    ]
    if args.format == "json":
        payload = {
            "rounding": args.round,
            "rankings": [
                {
                    "measure": report.measure.value,
                    "models": [
                        {
                            "name": name,
                            "value": _json_value(value, args),
                            "letter": letter,
                        }
                        for name, value, letter in zip(
                            report.model_names, report.values, report.letters
                        )
                    ],
                }
                for report in reports
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    if args.format == "csv":
        rows = [
            [report.measure.value, name, _format_value(value, args), letter or ""]
            for report in reports
            for name, value, letter in zip(
                report.model_names, report.values, report.letters
            )
        ]
        return _csv_table(["measure", "model", "value", "letter"], rows)
    sections = []
    for report in reports:
        rows = [
            [name, _format_value(value, args), letter or ""]
            for name, value, letter in zip(
                report.model_names, report.values, report.letters
            )
        ]
        sections.append(
            f"## {report.measure.value}\n\n"
            + _markdown_table(["model", "value", "letter"], rows)
        )
    return "\n".join(sections)


def _theorem_record(model: AugmentedConfusionMatrix) -> dict:
    blocks = analysis.detect_mi_local_minimum(model)
    record = {
        "name": model.model_name,
        "mi_local_minimum": bool(blocks),
        "blocks": list(blocks),
        "divergence_maximum": analysis.detect_divergence_maximum(model),
        "canonical": None,
    }
    canonical = analysis.classify_canonical(model)
    if canonical is not None:
        ranking = analysis.rank_canonical(canonical.c1, canonical.c2, canonical.d)
        record["canonical"] = {
            "kind": canonical.kind.value,
            "c1": canonical.c1,
            "c2": canonical.c2,
            "d": canonical.d,
            "delta_I": analysis.delta_I(canonical),
            "p1": ranking.p1,
            "omega": ranking.omega,
            "predicted_order": [kind.value for kind in ranking.predicted],
            "observed_order": [kind.value for kind in ranking.observed],
            "consistent": ranking.consistent,
        }
    return record


def _cmd_theorems(args) -> str:
    models = _load_models(args.inputs)
    records = [_theorem_record(model) for model in models]
    if args.format == "json":
        payload = []
        for record in records:
            entry = dict(record)
            if entry["canonical"] is not None:
                canonical = dict(entry["canonical"])
                for key in ("delta_I", "p1", "omega"):
                    canonical[key] = _json_value(canonical[key], args)
                entry["canonical"] = canonical
            payload.append(entry)
        return json.dumps(payload, indent=2) + "\n"
    header = [
        "model", "mi_local_minimum", "blocks", "divergence_maximum",
        "canonical_kind", "c1", "c2", "d", "delta_I", "p1", "omega", "consistent",
    ]
    rows = []
    for record in records:
        canonical = record["canonical"] or {}
        rows.append([
            record["name"],
            _format_value(record["mi_local_minimum"], args),
            " ".join(str(b) for b in record["blocks"]),
            _format_value(record["divergence_maximum"], args),
            canonical.get("kind", ""),
            _format_value(canonical.get("c1"), args),
            _format_value(canonical.get("c2"), args),
            _format_value(canonical.get("d"), args),
            _format_value(canonical.get("delta_I"), args),
            _format_value(canonical.get("p1"), args),
            _format_value(canonical.get("omega"), args),
            _format_value(canonical.get("consistent"), args),
        ])
    return _render_table(header, rows, args)


def _cmd_omega(args) -> str:
    result = analysis.crossover_analysis(args.n, args.d)
    if args.format == "json":
        payload = {
            "n": result.n,
            "d": result.d,
            "omega": _json_value(result.omega, args),
            "sign_changes": result.sign_changes,
        }
        return json.dumps(payload, indent=2) + "\n"
    header = ["n", "d", "omega", "sign_changes"]
    row = [
        str(result.n),
        str(result.d),
        _format_value(result.omega, args),
        str(result.sign_changes),
    ]
    return _render_table(header, [row], args)


def _cmd_sweep(args) -> str:
    grid = []
    k = 1
    while True:
        p1 = 0.5 + k * args.step
        if p1 >= 1.0 - 1e-12:
            break
        grid.append(p1)
        k += 1
    if not grid:
        raise ValueError(f"step {args.step} leaves no grid points inside (0.5, 1)")
    points = analysis.sweep_delta_curves(args.n, args.d, grid)
    fields = list(analysis.SweepPoint._fields)
    if args.format == "json":
        payload = {
            "n": args.n,
            "d": args.d,
            "points": [
                {field: _json_value(value, args) for field, value in zip(fields, point)}
                for point in points
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    rows = [[_format_value(value, args) for value in point] for point in points]
    return _render_table(fields, rows, args)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.handler(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
