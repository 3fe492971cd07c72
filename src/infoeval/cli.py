"""Command-line front end.

Five subcommands cover the library surface:

* ``eval``: measure values for one or more confusion matrices,
* ``rank``: letter rankings of competing models per measure,
* ``theorems``: extremum detectors and canonical-departure analysis,
* ``omega``: the cost cross-over share for given n and d,
* ``sweep``: the four departure-cost curves over class shares.

Each handler returns its result once, as raw values, and one renderer
prints it as markdown (default), CSV, or JSON; Singular values print
as "S", and ``--round``/``--precision`` apply to every format.  Exit
codes: 0 on success, 1 on bad input, 2 when an internal invariant
fails.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
from collections.abc import Iterable, Sequence
from json.encoder import encode_basestring_ascii as _encode_str

from . import __version__, analysis, fixtures
from .confusion import _MAX_TOTAL, AugmentedConfusionMatrix
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


def _checked(convert, valid, problem: str):
    """An argparse type: text that ``convert`` takes and ``valid`` accepts."""

    def parse(text: str):
        value = convert(text)
        if not valid(value):
            raise argparse.ArgumentTypeError(problem.format(text))
        return value

    # argparse reports text that convert rejects as "invalid int value: 'q'"
    parse.__name__ = convert.__name__
    return parse


_rounding = _checked(int, lambda v: 0 <= v <= 12, "rounding must be between 0 and 12")
# n and d share the matrix total's bound, so every cost stays in float range
_count = _checked(int, lambda v: 0 < v < _MAX_TOTAL,
                  "must be positive and below 2**255, got {}")
# a sweep grid holds fewer than 0.5 / step points, so at most 10**5
_step = _checked(float, lambda v: v >= 5e-06,
                 "must be at least 5e-06 (at most 100000 grid points), got {}")


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


@functools.cache
def _build_parser() -> _Parser:
    # built once per process: parse_args leaves the parser unchanged, and
    # the handlers look up evaluate_all, rank and analysis at call time
    parser = _Parser(
        prog="infoeval",
        description="Evaluate and rank classifications that may reject samples.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    # the commands that read matrices; eval and rank also select measures
    for name, summary, handler, measures in (
        ("eval", "evaluate measures on confusion matrices", _cmd_eval, "all"),
        ("rank", "letter-rank competing models per measure", _cmd_rank, "NI2"),
        ("theorems", "extremum detectors and canonical single-departure analysis",
         _cmd_theorems, None),
    ):
        p_inputs = commands.add_parser(name, help=summary)
        p_inputs.add_argument("inputs", nargs="+", metavar="INPUT",
                              help="JSON/CSV file, or the name of a bundled fixture")
        if measures:
            p_inputs.add_argument(
                "--measures",
                "--measure",
                dest="measures",
                default=measures,
                metavar="LIST",
                help=(
                    "comma-separated measure ids or group names "
                    "(mi, divergence, cross-entropy, performance, information, all); "
                    f"default: {measures}"
                ),
            )
        _add_output_options(p_inputs)
        p_inputs.set_defaults(handler=handler)

    # the commands that take n and d; sweep also takes a grid step
    for name, summary, handler in (
        ("omega", "solve for the error/reject cost cross-over share", _cmd_omega),
        ("sweep", "tabulate the four departure costs over class shares", _cmd_sweep),
    ):
        p_costs = commands.add_parser(name, help=summary)
        p_costs.add_argument("--n", type=_count, required=True,
                             help="total sample count")
        p_costs.add_argument("--d", type=_count, required=True,
                             help="departure size (samples moved)")
        if name == "sweep":
            p_costs.add_argument("--step", type=_step, default=0.05,
                                 help="grid step for the large-class share (default: 0.05)")
        _add_output_options(p_costs)
        p_costs.set_defaults(handler=handler)

    return parser


def _load_models(inputs: Sequence[str]) -> list[AugmentedConfusionMatrix]:
    models = [model for raw in inputs for model in fixtures.load(raw)]
    return [
        model if model.model_name else model.with_name(f"M{position}")
        for position, model in enumerate(models, start=1)
    ]


def _format_value(value, args) -> str:
    """One cell of text output; Singular prints as S, absent as empty."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value) if args.precision == "raw" else f"{value:.{args.round}f}"
    return str(value)


def _singular_as_s(value):
    if value is SINGULAR:
        return "S"
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


# how json spells the floats that float.__repr__ prints as nan and inf
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json(value, digits: int | None, pad: str, out: list) -> None:
    """Append ``value`` to ``out`` as ``json.dumps(value, indent=2)`` prints it.

    ``pad`` is a newline and the current indent.  Floats are rounded to
    ``digits`` unless it is None; tuples print as lists and SINGULAR as
    "S".  A non-str key or any other type raises TypeError.
    """
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif isinstance(value, float):
        text = float.__repr__(value if digits is None else round(value, digits))
        out.append(_NONFINITE.get(text, text))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        out.append("{")
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(inner)
            out.append(_encode_str(key))
            out.append(": ")
            _json(item, digits, inner, out)
            out.append(",")
        # the last item's comma becomes the closing line
        out[-1] = pad + "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        out.append("[")
        for item in value:
            out.append(inner)
            _json(item, digits, inner, out)
            out.append(",")
        out[-1] = pad + "]"
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        out.append(_encode_str(_singular_as_s(value)))


def _render(args, payload, header: Sequence[str], rows: Iterable[Iterable]) -> str:
    """A handler's result as text in the chosen format.

    ``payload`` holds raw values and is what JSON prints; ``rows`` are
    the table cells, read only when a table is printed.
    """
    if args.format == "json":
        out: list[str] = []
        _json(payload, args.round if args.precision == "fixed" else None, "\n", out)
        out.append("\n")
        return "".join(out)
    cells = [[_format_value(value, args) for value in row] for row in rows]
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(cells)
        return buffer.getvalue()
    # a "|" inside a cell would end it; GitHub-flavoured markdown reads "\|"
    table = [header, ["---"] * len(header), *cells]
    return "".join(
        "| " + " | ".join(cell.replace("|", "\\|") for cell in row) + " |\n"
        for row in table
    )


def _cmd_eval(args) -> str:
    models = _load_models(args.inputs)
    selection = parse_selection(args.measures)
    payload = [
        {
            "name": model.model_name,
            "measures": {
                item.measure.value: item.value
                for item in evaluate_all(model, selection, strict=False)
            },
        }
        for model in models
    ]
    header = ["model", *payload[0]["measures"]]
    rows = ([entry["name"], *entry["measures"].values()] for entry in payload)
    return _render(args, payload, header, rows)


def _cmd_rank(args) -> str:
    models = _load_models(args.inputs)
    selection = parse_selection(args.measures)
    names = [model.model_name for model in models]
    table = [evaluate_all(model, selection) for model in models]
    reports = [
        rank(column, rounding=args.round, model_names=names) for column in zip(*table)
    ]
    rankings = [
        {
            "measure": report.measure.value,
            "models": [
                {"name": name, "value": value, "letter": letter}
                for name, value, letter in zip(
                    report.model_names, report.values, report.letters
                )
            ],
        }
        for report in reports
    ]
    if args.format == "markdown":
        # one section per measure
        return "\n".join(
            f"## {ranking['measure']}\n\n"
            + _render(args, None, ["model", "value", "letter"],
                      (entry.values() for entry in ranking["models"]))
            for ranking in rankings
        )
    payload = {"rounding": args.round, "rankings": rankings}
    rows = (
        [ranking["measure"], *entry.values()]
        for ranking in rankings
        for entry in ranking["models"]
    )
    return _render(args, payload, ["measure", "model", "value", "letter"], rows)


def _theorem_record(model: AugmentedConfusionMatrix, rank_canonical) -> dict:
    """One model's theorems; ``rank_canonical`` ranks a (c1, c2, d) split."""
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
        try:
            ranking = rank_canonical(canonical.c1, canonical.c2, canonical.d)
        except ValueError as exc:
            raise ValueError(f"{model.model_name}: {exc}") from None
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


_CANONICAL_COLUMNS = ("c1", "c2", "d", "delta_I", "p1", "omega", "consistent")


def _cmd_theorems(args) -> str:
    # one ranking per (c1, c2, d) split, shared by the split's models
    rank_canonical = functools.cache(analysis.rank_canonical)
    payload = [_theorem_record(model, rank_canonical) for model in _load_models(args.inputs)]
    header = [
        "model", "mi_local_minimum", "blocks", "divergence_maximum",
        "canonical_kind", *_CANONICAL_COLUMNS,
    ]
    rows = (
        [
            record["name"],
            record["mi_local_minimum"],
            " ".join(str(b) for b in record["blocks"]),
            record["divergence_maximum"],
            *((record["canonical"] or {}).get(key) for key in ("kind", *_CANONICAL_COLUMNS)),
        ]
        for record in payload
    )
    return _render(args, payload, header, rows)


def _cmd_omega(args) -> str:
    result = analysis.crossover_analysis(args.n, args.d)
    payload = {
        "n": result.n,
        "d": result.d,
        "omega": result.omega,
        "sign_changes": result.sign_changes,
    }
    return _render(args, payload, list(payload), [payload.values()])


def _cmd_sweep(args) -> str:
    # 0.5 + k * step grows with k, so these are all k with a point below 1
    shares = (0.5 + k * args.step for k in range(1, int(0.5 / args.step) + 1))
    grid = [p1 for p1 in shares if p1 < 1.0 - 1e-12]
    if not grid:
        raise ValueError(f"step {args.step} leaves no grid points inside (0.5, 1)")
    points = analysis.sweep_delta_curves(args.n, args.d, grid)
    payload = {"n": args.n, "d": args.d, "points": [point._asdict() for point in points]}
    return _render(args, payload, analysis.SweepPoint._fields, points)


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
