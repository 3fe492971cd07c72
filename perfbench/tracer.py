"""In-memory span tracing around the infoeval modules' public functions.

The program is not changed: :func:`install` replaces each public
function of the six infoeval modules in the namespace where a caller
looks it up (``cli.evaluate_all``, ``measures.cross_entropy``,
``analysis.evaluate``, ...) with a wrapper that records a span, and
the returned callable puts the originals back.  A span is named after
the module that defines the function, so ``analysis.evaluate`` records
as ``measures.evaluate``.

Spans live in a list with a parent index; :func:`summarize` turns them
into per-function call counts, total and self time (a span's duration
minus the time its child spans cover) and escaped exceptions.

As a script, ``python3 perfbench/tracer.py SRC AGG ARGV...`` runs one
traced ``infoeval`` CLI call and writes its summary to the file AGG.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types

LAYERS = ("cli", "confusion", "infocore", "measures", "ranking", "analysis")

# span fields
NAME, PARENT, START, END, ERROR, TAG = range(6)


class Tracer:
    """Collects spans of one call; drain() folds them into a summary."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, tag=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0, 0, False,
                    tag(args) if tag else None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def drain(self) -> dict:
        summary = summarize(self.spans)
        self.spans.clear()
        return summary


def summarize(spans) -> dict:
    """Per-name [calls, total_ns, self_ns, errors] and per-tag buckets.

    Spans nest (one thread, one stack), so the part of a span that its
    children cover is the sum of the children's durations.
    """
    child = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    names: dict[str, list[int]] = {}
    buckets: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        duration = span[END] - span[START]
        row = names.setdefault(span[NAME], [0, 0, 0, 0])
        row[0] += 1
        row[1] += duration
        row[2] += duration - child[index]
        row[3] += span[ERROR]
        if span[TAG] is not None:
            bucket = buckets.setdefault(f"{span[NAME]}[{span[TAG]}]", [0, 0])
            bucket[0] += 1
            bucket[1] += duration
    return {"names": names, "buckets": buckets}


def merge(total: dict, part: dict) -> dict:
    """Add one summary into another (in place) and return it."""
    for key in ("names", "buckets"):
        into = total.setdefault(key, {})
        for name, row in part.get(key, {}).items():
            if name in into:
                into[name] = [a + b for a, b in zip(into[name], row)]
            else:
                into[name] = list(row)
    return total


def _evaluate_all_tag(args):
    matrix = args[0]
    selection = args[1] if len(args) > 1 else None
    size = 24 if selection is None else len(selection)
    return f"m={matrix.n_classes},k={size}"


_TAGS = {"measures.evaluate_all": _evaluate_all_tag}


def install(tracer: Tracer):
    """Wrap every public function of the six layers; return an undo."""
    modules = {name: importlib.import_module(f"infoeval.{name}") for name in LAYERS}
    public = {}
    for short, module in modules.items():
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr, None)
            if isinstance(fn, types.FunctionType):
                name = f"{short}.{attr}"
                public[fn] = tracer.wrap(name, fn, _TAGS.get(name))
    undo = []
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in public:
                undo.append((module, attr, value))
                setattr(module, attr, public[value])
    # matrix.distributions() is how measures builds a context
    matrix_cls = modules["confusion"].AugmentedConfusionMatrix
    method = matrix_cls.__dict__["distributions"]
    undo.append((matrix_cls, "distributions", method))
    matrix_cls.distributions = tracer.wrap("confusion.distributions", method)

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


def main(src, agg_path, argv):
    sys.path.insert(0, src)
    from infoeval import cli

    tracer = Tracer()
    install(tracer)
    try:
        code = cli.main(argv)
    finally:
        with open(agg_path, "w") as handle:
            json.dump(tracer.drain(), handle)
    sys.exit(code)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3:])
