"""Information-theoretic evaluation of classifiers with a reject option.

The package turns an augmented confusion matrix (m true classes, m
predicted classes, plus a reject column) into:

* 24 normalized information measures and 7 performance measures,
* letter rankings of competing models with meta-order checks,
* closed-form costs of the four canonical single-departure models,
  their cross-over share, cell-level sensitivities, and detectors for
  the matrix patterns where the measures reach local extrema.

Each module's ``__all__`` is the list of its public names; the package
exports exactly those.  ``analysis`` and ``ranking``, and the names
they export, load on first access, so a command-line call that runs
neither module does not compile it.  See :mod:`infoeval.cli` for the
command-line interface.
"""
from . import confusion, infocore, measures
from .confusion import *
from .infocore import *
from .measures import *

__version__ = "0.1.0"

# each lazy module's __all__, in its order; tests/test_exports.py
# checks these against the modules
_ANALYSIS = (
    "CanonicalKind", "CanonicalModel", "CanonicalRanking", "CrossoverResult",
    "SensitivityVector", "SweepPoint", "classify_canonical", "crossover_gap",
    "crossover_omega", "crossover_analysis", "delta_I", "detect_divergence_maximum",
    "detect_mi_local_minimum", "first_order_delta_estimate", "misclassification_cost",
    "rank_canonical", "rejection_cost", "sensitivity", "sweep_delta_curves",
)
_RANKING = (
    "MetaOrder", "RankReport", "binary_expected_order", "check_meta_order", "rank",
    "three_class_expected_order",
)
# name -> the lazy module that defines it
_LAZY = {
    "analysis": "analysis",
    "ranking": "ranking",
    **dict.fromkeys(_ANALYSIS, "analysis"),
    **dict.fromkeys(_RANKING, "ranking"),
}

__all__ = [
    *_ANALYSIS,
    *confusion.__all__,
    *infocore.__all__,
    *measures.__all__,
    *_RANKING,
    "__version__",
]


def __getattr__(name):
    # only the lazy names: "from . import fixtures" probes the package
    # for every submodule it imports, and that must not load these two
    owner = _LAZY.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # "from . import" here would probe the package, and so call this again
    import importlib

    module = importlib.import_module(f"{__name__}.{owner}")
    globals().update((export, getattr(module, export)) for export in module.__all__)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_LAZY})
