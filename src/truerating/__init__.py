"""Per-user rating bias removal on bipartite user-item rating graphs.

A user's bias is their average signed deviation from item scores; an item's
debiased ("true") rating is the average of its ratings after each one is
corrected for the rater's bias. The two quantities are mutually recursive and
are solved by a damped fixed-point iteration with a guaranteed geometric
convergence rate, plus a matrix-free linear oracle for cross-checking,
a planted-bias synthetic generator, and an evaluation suite.

The package exports every library module's `__all__`. `cli`, the
command-line front end, is not imported here.
"""

from . import evaluate, graph, ingest, oracle, solver, synth
from .graph import *  # noqa: F403
from .ingest import *  # noqa: F403
from .solver import *  # noqa: F403
from .oracle import *  # noqa: F403
from .synth import *  # noqa: F403
from .evaluate import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *graph.__all__, *ingest.__all__, *solver.__all__, *oracle.__all__,
    *synth.__all__, *evaluate.__all__, "__version__",
]
