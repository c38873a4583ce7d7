"""Per-user rating bias removal on bipartite user-item rating graphs.

A user's bias is their average signed deviation from item scores; an item's
debiased ("true") rating is the average of its ratings after each one is
corrected for the rater's bias. The two quantities are mutually recursive and
are solved by a damped fixed-point iteration with a guaranteed geometric
convergence rate, plus a matrix-free linear oracle for cross-checking,
a planted-bias synthetic generator, and an evaluation suite.
"""

from .graph import (
    NUM_BINS,
    RatingGraph,
    RatingScale,
    degree_bins,
)
from .ingest import (
    MOVIELENS_FORMAT,
    DelimitedFormat,
    IngestError,
    ingest_ground_truth,
    ingest_ratings,
    write_ratings_csv,
    write_scores_csv,
)
from .solver import (
    IterationStats,
    SolverConfig,
    SolverResult,
    iterations_needed,
    solve,
)
from .oracle import solve_linear
from .synth import PlantedInstance, generate_planted
from .evaluate import (
    EvalReport,
    TruthAlignment,
    align_truth,
    build_report,
    histogram,
)

__version__ = "0.1.0"

__all__ = [
    "NUM_BINS",
    "RatingGraph",
    "RatingScale",
    "degree_bins",
    "MOVIELENS_FORMAT",
    "DelimitedFormat",
    "IngestError",
    "ingest_ground_truth",
    "ingest_ratings",
    "write_ratings_csv",
    "write_scores_csv",
    "IterationStats",
    "SolverConfig",
    "SolverResult",
    "iterations_needed",
    "solve",
    "solve_linear",
    "PlantedInstance",
    "generate_planted",
    "EvalReport",
    "TruthAlignment",
    "align_truth",
    "build_report",
    "histogram",
    "__version__",
]
