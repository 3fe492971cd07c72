"""Information-theoretic evaluation of classifiers with a reject option.

The package turns an augmented confusion matrix (m true classes, m
predicted classes, plus a reject column) into:

* 24 normalized information measures and 7 performance measures,
* letter rankings of competing models with meta-order checks,
* closed-form costs of the four canonical single-departure models,
  their cross-over share, cell-level sensitivities, and detectors for
  the matrix patterns where the measures reach local extrema.

Each module's ``__all__`` is the list of its public names; the package
exports exactly those.  See :mod:`infoeval.cli` for the command-line
interface.
"""
from . import analysis, confusion, infocore, measures, ranking
from .analysis import *
from .confusion import *
from .infocore import *
from .measures import *
from .ranking import *

__version__ = "0.1.0"

__all__ = [
    *analysis.__all__,
    *confusion.__all__,
    *infocore.__all__,
    *measures.__all__,
    *ranking.__all__,
    "__version__",
]
