"""Output checker, independent of the program under test.

It re-reads the workload's input file with numpy, recomputes both update
equations of the model (with clipping) from the written score CSVs, and
reports every way the outputs fail to be a fixed point within tolerance.
Nothing here imports `truerating`.

Tolerance. The solver stops once the L1 bias delta is below epsilon and
returns ``bias = B(rating)`` and ``rating = R(previous bias)``, so the rating
equation is off by at most ``alpha * epsilon`` (clipping is 1-Lipschitz).
Each written value is rounded to 9 decimals, adding up to ``0.5e-9`` per
value on either side. `FLOAT_SLACK` covers summation round-off.

What the residuals cannot see. A written rating that is off by less than
about ``alpha * epsilon`` moves the rating equation by less than its
tolerance, and moves the bias equation only by that error divided by the
user's degree; so an error in the 7th to 9th decimal of ``ratings.csv``
passes these checks. Such errors are caught only by `csv_digests`, which
run.py compares across the repetitions of a run.
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import numpy as np

from workloads import Inputs

ROUNDING = 0.5e-9      # 9-decimal output rounding
FLOAT_SLACK = 1e-10


def tolerance(alpha: float, epsilon: float) -> float:
    """Allowed |R(B(r)) - r| for a rating vector written at 9 decimals."""
    return alpha * epsilon + (1.0 + alpha) * ROUNDING + FLOAT_SLACK


def _table(source, skiprows: int) -> np.ndarray:
    return np.loadtxt(source, delimiter=",", dtype=np.float64,
                      skiprows=skiprows, ndmin=2)


def read_ratings(inputs: Inputs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(user ids, item ids, weights on [0, 1]) in file order.

    Raw logs are mapped from the 1..5 scale exactly as the program's
    ``--scale 1:5`` does, so the weights match bit for bit.
    """
    if inputs.canonical:
        table = _table(inputs.ratings, skiprows=1)
        weights = table[:, 2]
    else:
        text = inputs.ratings.read_text(encoding="utf-8").replace("::", ",")
        table = _table(io.StringIO(text), skiprows=0)
        weights = (table[:, 2] - 1.0) / 4.0
    return table[:, 0].astype(np.int64), table[:, 1].astype(np.int64), weights


def read_scores(path: Path) -> tuple[np.ndarray, np.ndarray]:
    table = _table(path, skiprows=1)
    return table[:, 0].astype(np.int64), table[:, 1]


class FixedPoint:
    """The model's two update equations over the input file's edges."""

    def __init__(self, users, items, weights) -> None:
        self.user_ids, self.u = np.unique(users, return_inverse=True)
        self.item_ids, self.v = np.unique(items, return_inverse=True)
        self.w = weights
        self.user_deg = np.bincount(self.u).astype(np.float64)
        self.item_deg = np.bincount(self.v).astype(np.float64)

    def bias_from(self, rating):
        return np.bincount(self.u, self.w - rating[self.v]) / self.user_deg

    def rating_from(self, bias, alpha):
        corrected = np.clip(self.w - alpha * bias[self.u], 0.0, 1.0)
        return np.bincount(self.v, corrected) / self.item_deg

    def means(self):
        return np.bincount(self.v, self.w) / self.item_deg


def _aligned(path: Path, known_ids: np.ndarray, problems: list[str]):
    """Values of a score CSV in `known_ids` order, or None if ids differ."""
    ids, values = read_scores(path)
    order = np.argsort(ids, kind="stable")
    ids, values = ids[order], values[order]
    if ids.shape != known_ids.shape or not np.array_equal(ids, known_ids):
        problems.append(f"{path.name}: ids differ from the input's ids")
        return None
    return values


def _max_gap(a, b) -> float:
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def check_solve(inputs: Inputs, model: FixedPoint, outdir: Path) -> list[str]:
    problems: list[str] = []
    bias = _aligned(outdir / "bias.csv", model.user_ids, problems)
    rating = _aligned(outdir / "ratings.csv", model.item_ids, problems)
    if bias is None or rating is None:
        return problems
    alpha = inputs.alphas[0]
    gap = _max_gap(model.bias_from(rating), bias)
    if gap > 2 * ROUNDING + FLOAT_SLACK:
        problems.append(f"bias equation residual {gap:.3e}")
    gap = _max_gap(model.rating_from(bias, alpha), rating)
    if gap > tolerance(alpha, inputs.epsilon):
        problems.append(f"rating equation residual {gap:.3e}")
    return problems


def check_eval(inputs: Inputs, model: FixedPoint, outdir: Path) -> list[str]:
    problems: list[str] = []
    means = _aligned(outdir / "ratings_mean.csv", model.item_ids, problems)
    if means is not None and _max_gap(model.means(), means) > ROUNDING + FLOAT_SLACK:
        problems.append("ratings_mean.csv: not the plain item means")
    for alpha in inputs.alphas:
        name = f"ratings_alpha_{alpha:g}.csv"
        rating = _aligned(outdir / name, model.item_ids, problems)
        if rating is None:
            continue
        # eval writes no bias file: recover it from the rating equation's
        # partner, then check the composite map R(B(r)) = r.
        gap = _max_gap(model.rating_from(model.bias_from(rating), alpha), rating)
        if gap > tolerance(alpha, inputs.epsilon):
            problems.append(f"{name}: fixed-point residual {gap:.3e}")
    truth_ids = _table(inputs.truth, skiprows=1)[:, 0].astype(np.int64)
    matched = int(np.isin(truth_ids, model.item_ids).sum())
    try:
        methods = json.loads((outdir / "report.json").read_text())["methods"]
    except (OSError, ValueError, KeyError) as exc:
        return problems + [f"report.json unreadable: {exc}"]
    if len(methods) != 1 + len(inputs.alphas):
        problems.append(f"report.json has {len(methods)} methods")
    for method in methods:
        if method.get("common_items") != matched:
            problems.append(
                f"report.json common_items {method.get('common_items')} "
                f"!= {matched} matched truth ids"
            )
    return problems


def check_manifest(inputs: Inputs, outdir: Path) -> list[str]:
    try:
        results = json.loads((outdir / "manifest.json").read_text())["results"]
        solves = results["solves"].values() if inputs.command == "eval" else [results]
    except (OSError, ValueError, KeyError, AttributeError) as exc:
        return [f"manifest.json unreadable: {exc!r}"]
    if not all(s.get("converged") is True for s in solves):
        return ["manifest.json: a solve did not converge"]
    return []


def check_outputs(inputs: Inputs, model: FixedPoint, outdir: Path) -> list[str]:
    """Every problem with one run's output directory; empty when correct."""
    check = check_eval if inputs.command == "eval" else check_solve
    try:
        return check_manifest(inputs, outdir) + check(inputs, model, outdir)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]


def csv_digests(outdir: Path) -> dict[str, str]:
    """sha256 of every CSV in `outdir`, for byte-identity across runs."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(outdir.glob("*.csv"))
    }
