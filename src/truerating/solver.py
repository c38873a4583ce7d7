"""Damped fixed-point solver for per-user bias and per-item true ratings.

Model: user i's bias is the mean amount by which their raw ratings exceed
the items' true ratings, and an item's true rating is the mean of its
incoming ratings after each is corrected by a damped share of its author's
bias (corrections are clipped back into [0, 1]):

    rating_j = mean_{i rated j} clip(w_ij - alpha_i * bias_i)
    bias_i   = mean_{j rated by i} (w_ij - rating_j)

Write R(b) for the rating update and T(b) = B(R(b)) for the bias map: one
sweep refreshes every rating from a bias vector, then every bias from those
fresh ratings. With all damping factors alpha_i <= alpha < 1, T is an
alpha-contraction in the max norm, so it has a unique fixed point, reached
from any starting bias.

The solve iterates T with safeguarded type-II Anderson mixing (Walker & Ni,
SIAM J. Numer. Anal. 2011). From an iterate x with residual g = T(x) - x,
the candidate is T(x) minus the combination of the last `DEPTH` differences
of T that best cancels g, in least squares against the matching residual
differences. Following Zhang, O'Donoghue & Boyd (SIAM J. Optim. 2020), a
candidate is accepted only if its max-norm residual is at most alpha times
the current one; otherwise the history is cleared and the plain step T(x)
is taken, whose residual the contraction shrinks by alpha (up to rounding).
So every accepted iterate's residual shrinks at least by alpha, as under
plain iteration, which is the same loop with an empty history.

Before a candidate is evaluated, the least-squares fit predicts its
residual: g minus the same combination of residual differences. If that
prediction already fails the safeguard's test, the candidate is screened
out unevaluated and the plain step is taken and pushed onto the kept
history. So an accepted iterate costs one sweep, or two when a candidate
was evaluated and then refused.

Each sweep reads the graph's one user-major edge list. Each half is one
`graph._means` over all edges: the rating half keyed by item, the bias
half keyed by user.

Determinism: every rating and every bias is summed in the order the
`graph` module docstring states, and the Anderson step's products over
users are `np.einsum` loops, which never call BLAS. So repeated runs are
bit-identical on one machine at any BLAS thread count, and at each of
numpy's x86 CPU dispatch levels for one numpy build, as a test checks;
other numpy versions and other architectures are unverified.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .graph import RatingGraph, _means

#: Number of past steps the Anderson candidate combines.
DEPTH = 3
#: Tikhonov term added to the Gram matrix of residual differences, relative
#: to its trace; it keeps nearly collinear histories solvable.
_RIDGE = 1e-10

__all__ = [
    "iterations_needed",
    "SolverConfig",
    "IterationStats",
    "SolverResult",
    "solve",
]


def _check_alpha_epsilon(alpha: float, epsilon: float) -> None:
    """Raise `ValueError` unless 0 < alpha < 1 and epsilon is positive and
    finite."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")


def iterations_needed(alpha: float, epsilon: float) -> int:
    """Iterations guaranteeing the bias-delta bound 2*alpha**t < epsilon.

    Computed as ceil(log(2/epsilon) / log(1/alpha)), floored at zero (an
    epsilon of 2 or more is satisfied before the first iteration).
    """
    _check_alpha_epsilon(alpha, epsilon)
    if epsilon >= 2.0:
        return 0
    return max(0, math.ceil(math.log(2.0 / epsilon) / math.log(1.0 / alpha)))


@dataclass(frozen=True)
class SolverConfig:
    """Solve parameters.

    `alpha` is the global damping factor; `alpha_overrides` maps dense user
    indices to per-user factors, each in [0, alpha] (zero turns a user's
    correction off). `max_iterations` caps the accepted iterates; it
    defaults to `iterations_needed(alpha, epsilon)` and may be zero, in
    which case the solver returns its starting state untouched.
    """

    alpha: float = 0.99
    epsilon: float = 1e-6
    max_iterations: int | None = None
    alpha_overrides: Mapping[int, float] | None = None

    def __post_init__(self) -> None:
        _check_alpha_epsilon(self.alpha, self.epsilon)
        if self.max_iterations is None:
            object.__setattr__(
                self, "max_iterations", iterations_needed(self.alpha, self.epsilon)
            )
        if self.max_iterations < 0:
            raise ValueError(
                f"max_iterations must be >= 0, got {self.max_iterations}"
            )
        if self.alpha_overrides is not None:
            for user, value in self.alpha_overrides.items():
                if not 0.0 <= value <= self.alpha:
                    raise ValueError(
                        f"alpha override {value} for user {user} outside "
                        f"[0, {self.alpha}]"
                    )


@dataclass(frozen=True)
class IterationStats:
    """One accepted iterate x.

    The bias deltas are norms of the residual T(x) - x, the change a plain
    step from x would make; the L1 norm drives the stopping rule.
    `l1_rating_delta` is the change of R(x) since the previous accepted
    iterate.
    """

    iteration: int
    l1_bias_delta: float
    linf_bias_delta: float
    l1_rating_delta: float


@dataclass
class SolverResult:
    """Final state of a solve.

    For the last accepted iterate x, `rating` is R(x) and `bias` is
    T(x) = B(rating), so the bias equation holds exactly. `iterations`
    counts accepted iterates and `sweeps` the evaluations of the map,
    Anderson candidates evaluated and then refused included (a screened
    candidate is never evaluated). `clamped` reports whether
    R(x) clipped a debiased weight into [0, 1] (False without an accepted
    iterate); clips at earlier iterates do not count. Clamp-free answers
    are exactly the ones the linear oracle (`solve_linear`) can reproduce.
    """

    bias: np.ndarray
    rating: np.ndarray
    converged: bool
    iterations: int
    sweeps: int
    clamped: bool
    trace: list[IterationStats] = field(default_factory=list)


def _per_user_alpha(
    graph: RatingGraph, alpha: float, overrides: Mapping[int, float]
) -> np.ndarray:
    alphas = np.full(graph.num_users, alpha, dtype=np.float64)
    for user, value in overrides.items():
        if not 0 <= user < graph.num_users:
            raise ValueError(f"alpha override for unknown user index {user}")
        alphas[user] = value
    return alphas


@dataclass
class _Iterate:
    """The bias map evaluated at one bias vector x."""

    rating: np.ndarray    # R(x)
    image: np.ndarray     # T(x) = B(R(x))
    residual: np.ndarray  # T(x) - x
    l1: float             # L1 norm of the residual
    linf: float           # max norm of the residual
    clamped: bool         # whether R(x) clipped a debiased weight


class _Sweeps:
    """Precomputed damping factors and degrees for one solve.

    `count` is the number of map evaluations made so far.
    """

    def __init__(self, graph: RatingGraph, config: SolverConfig) -> None:
        self.graph = graph
        self.count = 0
        self.alpha = _per_user_alpha(
            graph, config.alpha, config.alpha_overrides or {}
        )
        # Float copies: an int64 divisor would be converted on every sweep.
        self.item_deg = graph.item_degrees.astype(np.float64)
        self.user_deg = graph.user_degrees.astype(np.float64)

    def rating_step(self, bias: np.ndarray) -> tuple[np.ndarray, bool]:
        """rating_j = mean over j's raters of clip(w - alpha_i * bias_i)."""
        g = self.graph
        # alpha_i * bias_i once per user, then gathered onto the edges.
        adjusted = (self.alpha * bias)[g.edge_user]
        np.subtract(g.edge_weight, adjusted, out=adjusted)
        clamped = bool(adjusted.size) and bool(
            adjusted.min() < 0.0 or adjusted.max() > 1.0
        )
        np.clip(adjusted, 0.0, 1.0, out=adjusted)
        return _means(g.edge_item, adjusted, self.item_deg), clamped

    def bias_step(self, rating: np.ndarray) -> np.ndarray:
        """bias_i = mean over i's raw ratings of (w - rating_j)."""
        g = self.graph
        deviation = rating[g.edge_item]
        np.subtract(g.edge_weight, deviation, out=deviation)
        return _means(g.edge_user, deviation, self.user_deg)

    def evaluate(self, bias: np.ndarray) -> _Iterate:
        """One sweep: R and T at `bias`, and the residual T(bias) - bias."""
        self.count += 1
        rating, clamped = self.rating_step(bias)
        image = self.bias_step(rating)
        residual = image - bias
        magnitude = np.abs(residual)
        return _Iterate(rating, image, residual, float(magnitude.sum()),
                        float(magnitude.max(initial=0.0)), clamped)


class _History:
    """Differences between the last `DEPTH` pairs of accepted iterates.

    Row k of `dg` is a difference of residuals T(x) - x, row k of `df` the
    matching difference of T(x). Rows are overwritten in turn; the
    least-squares weights do not depend on their order. `gram` holds
    ``dg @ dg.T``, updated by one row of dot products per push. Products
    over users are `np.einsum`, not ``@``, so that they never call BLAS
    (see Determinism above).
    """

    def __init__(self, num_users: int) -> None:
        self.dg = np.empty((DEPTH, num_users), dtype=np.float64)
        self.df = np.empty((DEPTH, num_users), dtype=np.float64)
        self.gram = np.empty((DEPTH, DEPTH), dtype=np.float64)
        self.size = 0
        self.slot = 0

    def clear(self) -> None:
        self.size = self.slot = 0

    def push(self, new: _Iterate, old: _Iterate) -> None:
        k = self.slot
        np.subtract(new.residual, old.residual, out=self.dg[k])
        np.subtract(new.image, old.image, out=self.df[k])
        self.size = min(self.size + 1, DEPTH)
        self.slot = (k + 1) % DEPTH
        row = np.einsum("ij,j->i", self.dg[:self.size], self.dg[k])
        self.gram[k, :self.size] = row
        self.gram[:self.size, k] = row

    def candidate(self, current: _Iterate, alpha: float) -> np.ndarray | None:
        """T(x) - gamma @ df, with gamma the least-squares weights that
        minimise |g - gamma @ dg|. None without history or finite weights,
        or when the predicted residual g - gamma @ dg fails the safeguard's
        test: its max norm exceeds alpha times that of g."""
        m = self.size
        if not m:
            return None
        gram = self.gram[:m, :m]
        ridge = _RIDGE * np.trace(gram) * np.eye(m)
        try:
            gamma = np.linalg.solve(
                gram + ridge, np.einsum("ij,j->i", self.dg[:m], current.residual)
            )
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(gamma).all():
            return None
        predicted = current.residual - np.einsum("i,ij->j", gamma, self.dg[:m])
        if np.abs(predicted).max(initial=0.0) > alpha * current.linf:
            return None
        return current.image - np.einsum("i,ij->j", gamma, self.df[:m])


def _advance(
    sweeps: _Sweeps, history: _History, current: _Iterate, alpha: float
) -> _Iterate:
    """The next accepted iterate: the Anderson candidate if its residual
    shrinks by alpha in the max norm, otherwise the plain step T(x). A
    screened candidate costs no sweep and keeps the history; one evaluated
    and refused clears it."""
    candidate = history.candidate(current, alpha)
    if candidate is not None:
        trial = sweeps.evaluate(candidate)
        if trial.linf <= alpha * current.linf:
            history.push(trial, current)
            return trial
        history.clear()
    plain = sweeps.evaluate(current.image)
    history.push(plain, current)
    return plain


def _seed(graph: RatingGraph, initial_bias) -> np.ndarray:
    if initial_bias is None:
        return np.zeros(graph.num_users, dtype=np.float64)
    bias = np.array(initial_bias, dtype=np.float64, copy=True)
    if bias.shape != (graph.num_users,):
        raise ValueError(
            f"initial bias must have shape ({graph.num_users},), "
            f"got {bias.shape}"
        )
    if bias.size and (not np.isfinite(bias).all()
                      or bias.min() < -1.0 or bias.max() > 1.0):
        raise ValueError("initial bias values must lie in [-1, 1]")
    return bias


def solve(
    graph: RatingGraph,
    config: SolverConfig | None = None,
    *,
    initial_bias=None,
    threads: int = 1,
) -> SolverResult:
    """Iterate to the bias/rating fixed point.

    Starts from `initial_bias` (zeros by default) with ratings at the plain
    per-item means, and stops once the L1 norm of the current iterate's
    residual T(x) - x drops below `config.epsilon` or `config.max_iterations`
    iterates have been accepted.

    With ``max_iterations=1`` the result is one sweep from the starting
    bias b: `rating` is R(b) and `bias` is T(b).

    `threads` has no effect: it is checked (>= 1) and otherwise ignored.
    It stays only for the benchmark harness, which still passes it, and is
    removed together with the harness's threaded probes.
    """
    if config is None:
        config = SolverConfig()
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    bias = _seed(graph, initial_bias)
    sweeps = _Sweeps(graph, config)
    history = _History(graph.num_users)
    rating = graph.item_means()
    trace: list[IterationStats] = []
    converged = False
    current = None
    for step in range(1, config.max_iterations + 1):
        if current is None:
            current = sweeps.evaluate(bias)
        else:
            current = _advance(sweeps, history, current, config.alpha)
        stats = IterationStats(
            iteration=step,
            l1_bias_delta=current.l1,
            linf_bias_delta=current.linf,
            l1_rating_delta=float(np.abs(current.rating - rating).sum()),
        )
        trace.append(stats)
        bias, rating = current.image, current.rating
        if stats.l1_bias_delta < config.epsilon:
            converged = True
            break
    return SolverResult(
        bias=bias,
        rating=rating,
        converged=converged,
        iterations=len(trace),
        sweeps=sweeps.count,
        clamped=current is not None and current.clamped,
        trace=trace,
    )
