"""Bundled reference matrices, loadable by stem name.

The package ships a small set of JSON fixture files (see the
``fixtures/`` data directory):

* ``binary_models``: six 2-class models on a 90/10 split, including a
  proportional-rows model and an equal-marginals model,
* ``class_share_study``: the four canonical departures at 94/6 and
  95/5 splits, bracketing the cost cross-over,
* ``three_class_models``: nine single-departure 3-class models on an
  80/15/5 split,
* ``reject_tradeoff``: two models with identical correct/error/reject
  rates but different reject placement.

Set the ``INFOEVAL_FIXTURES`` environment variable to point at an
alternate fixture directory.  A fixture there is a ``.json`` or
``.csv`` file, loadable by its stem as the bundled ones are.
"""
from __future__ import annotations

import os
from pathlib import Path

from . import confusion

__all__ = ["available", "fixtures_dir", "input_format", "load", "resolve"]

ENV_VAR = "INFOEVAL_FIXTURES"

# fixture file suffixes, in the order a bare stem is tried
_SUFFIXES = (".json", ".csv")


def fixtures_dir() -> Path:
    override = os.environ.get(ENV_VAR)
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "fixtures"


def available() -> tuple[str, ...]:
    folder = fixtures_dir()
    return tuple(sorted({
        path.stem for suffix in _SUFFIXES for path in folder.glob(f"*{suffix}")
    }))


def resolve(name: str) -> Path:
    """The file a name refers to: a path, a fixture file name, or a stem
    (``name.json`` first, then ``name.csv``)."""
    path = Path(name)
    if path.is_file():
        return path
    for candidate in (fixtures_dir() / f"{name}{suffix}" for suffix in ("", *_SUFFIXES)):
        if candidate.is_file():
            return candidate
    known = ", ".join(available()) or "(none)"
    raise ValueError(f"{name}: no such file or bundled fixture; available: {known}")


def input_format(path: Path) -> str:
    """The format an input file is parsed as: CSV by its suffix, else JSON."""
    return "csv" if path.suffix.lower() == ".csv" else "json"


def load(name: str) -> list[confusion.AugmentedConfusionMatrix]:
    """Load matrices from a fixture stem, fixture file name, or path.

    The file is read as UTF-8, a leading byte-order mark allowed, and a
    parse error names the file.
    """
    path = resolve(name)
    try:
        text = path.read_text(encoding="utf-8-sig")
        return confusion.parse_matrices(text, input_format(path))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
