"""Seeded input generator and command lines for the benchmark workloads.

Everything here is plain numpy and imports nothing from `truerating`, so two
commits being compared receive byte-identical inputs for the same seed.
Generation is vectorised: a per-user `rng.choice(p=...)` loop takes ~20 s
for the long-tail corpus, this takes well under a second.

Workloads (why each was chosen is in README.md next to this file):

* ``planted-250k``  1000 x 500 planted instance at density 0.5, raw
                    ``user::item::rating::timestamp`` log, ``solve``
* ``path-100k``     path graph (user i rates items i and i+1), canonical
                    ``user_id,item_id,weight`` CSV, ``solve`` with an explicit
                    ample iteration cap
* ``longtail-eval`` geometric ratings per user over Zipf(1) item popularity,
                    raw log plus an ``item_id,true_rating`` truth file,
                    ``eval --alpha 0.2 --alpha 0.99``; one fixed instance,
                    relabelled and reordered by the seed
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

NAMES = ("planted-250k", "path-100k", "longtail-eval")

#: Degree-bin upper edges of the item-degree histogram (11 bins, last open).
BIN_UPPER = (1, 3, 7, 15, 31, 63, 127, 255, 511, 1023)

EPSILON = 1e-6

# Sizes per scale. "tiny" runs every workload through the same code path in
# well under a second; the benchmark's own tests use it.
_SIZES = {
    "full": {
        "planted-250k": {"users": 1000, "items": 500, "density": 0.5},
        "path-100k": {"users": 100_000},
        "longtail-eval": {"users": 30_000, "catalogue": 60_000},
    },
    "tiny": {
        "planted-250k": {"users": 40, "items": 30, "density": 0.5},
        "path-100k": {"users": 200},
        "longtail-eval": {"users": 300, "catalogue": 600},
    },
}


@dataclass
class Inputs:
    """Files written for one workload plus what the checker needs to know."""

    name: str
    command: str                  # "solve" or "eval"
    ratings: Path
    truth: Path
    canonical: bool               # ratings file has the canonical header
    alphas: list[float]
    epsilon: float = EPSILON
    max_iters: int | None = None
    sizes: dict = field(default_factory=dict)

    def cli_args(self, out: Path) -> list[str]:
        """Arguments after ``python -m truerating`` for this workload."""
        args = [self.command, "--ratings", str(self.ratings)]
        if self.command == "eval":
            args += ["--truth", str(self.truth)]
        for alpha in self.alphas:
            args += ["--alpha", repr(alpha)]
        args += ["--epsilon", repr(self.epsilon)]
        if self.max_iters is not None:
            args += ["--max-iters", str(self.max_iters)]
        return args + ["--out", str(out)]

    def to_dict(self) -> dict:
        return {**asdict(self), "ratings": str(self.ratings),
                "truth": str(self.truth)}

    @classmethod
    def from_dict(cls, data: dict) -> "Inputs":
        return cls(**{**data, "ratings": Path(data["ratings"]),
                      "truth": Path(data["truth"])})


def _planted_weights(rng, users, items, n_users, n_items, sigma):
    """w = clip(quality[item] + bias[user] + N(0, sigma), 0, 1).

    Bias is U(-0.2, 0.2) per user and quality U(0.3, 0.7) per item.
    """
    bias = rng.uniform(-0.2, 0.2, size=n_users)
    quality = rng.uniform(0.3, 0.7, size=n_items)
    noise = rng.normal(0.0, sigma, size=users.size)
    return np.clip(quality[items] + bias[users] + noise, 0.0, 1.0), quality


def _sizes(users, items) -> dict:
    item_deg = np.bincount(items)
    item_deg = item_deg[item_deg > 0]
    bins = np.searchsorted(BIN_UPPER, item_deg, side="left")
    return {
        "users": int(np.unique(users).size),
        "items": int(item_deg.size),
        "edges": int(users.size),
        "item_degree_histogram": np.bincount(bins, minlength=11).tolist(),
        "max_item_degree": int(item_deg.max()),
    }


def _write_raw_log(path: Path, rng, users, items, weights) -> None:
    # MovieLens layout on the 1..5 scale; timestamps are noise the parser
    # must skip, as in real logs.
    raw = (1.0 + 4.0 * weights).tolist()
    stamps = (978_300_000 + rng.integers(0, 100_000_000, size=users.size)).tolist()
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("".join(map(
            "{}::{}::{:.6f}::{}\n".format,
            users.tolist(), items.tolist(), raw, stamps,
        )))


def _write_canonical(path: Path, users, items, weights) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("user_id,item_id,weight\n")
        handle.write("".join(map(
            "{},{},{:.9f}\n".format, users.tolist(), items.tolist(),
            weights.tolist(),
        )))


def _write_truth(path: Path, quality) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("item_id,true_rating\n")
        handle.write("".join(map(
            "{},{:.9f}\n".format, range(quality.size), quality.tolist()
        )))


def _shuffled(rng, *columns):
    order = rng.permutation(columns[0].size)
    return [c[order] for c in columns]


def _planted(rng, size) -> tuple:
    n_users, n_items = size["users"], size["items"]
    mask = rng.random((n_users, n_items)) < size["density"]
    # Every user and item needs a rating, or the program rightly refuses
    # the graph; at full scale this never triggers.
    mask[np.flatnonzero(~mask.any(axis=1)), 0] = True
    mask[0, np.flatnonzero(~mask.any(axis=0))] = True
    users, items = np.nonzero(mask)
    weights, quality = _planted_weights(
        rng, users, items, n_users, n_items, 0.05
    )
    return users, items, weights, quality


def _path(rng, size) -> tuple:
    n = size["users"]
    users = np.repeat(np.arange(n), 2)
    items = users + np.tile([0, 1], n)
    weights, quality = _planted_weights(rng, users, items, n, n + 1, 0.05)
    return users, items, weights, quality


def _longtail(rng, size) -> tuple:
    n_users, catalogue = size["users"], size["catalogue"]
    counts = rng.geometric(0.1, size=n_users)          # mean 10, at least 1
    cdf = np.cumsum(1.0 / np.arange(1, catalogue + 1))  # Zipf(1) popularity
    cdf /= cdf[-1]
    rank = np.minimum(
        np.searchsorted(cdf, rng.random(int(counts.sum())), side="right"),
        catalogue - 1,
    )
    users = np.repeat(np.arange(n_users), counts)
    # A user rates an item once: keep each pair's first draw. The first draw
    # of every user survives, so no user is left without ratings.
    _, first = np.unique(users * catalogue + rank, return_index=True)
    first.sort()
    users, rank = users[first], rank[first]
    items = rng.permutation(catalogue)[rank]   # popularity unrelated to id
    weights, quality = _planted_weights(
        rng, users, items, n_users, catalogue, 0.1
    )
    return users, items, weights, quality


def _longtail_fixed(rng, size) -> tuple:
    # The iteration count of a long-tail graph hangs on a few small, poorly
    # mixing corners and their ratings: independent draws need 777 to 1031
    # iterations at alpha 0.99. So the instance is drawn once, from a fixed
    # seed, and `rng` only relabels its users and items.
    users, items, weights, quality = _longtail(
        np.random.default_rng([0, NAMES.index("longtail-eval")]), size
    )
    user_label = rng.permutation(size["users"])
    item_label = rng.permutation(size["catalogue"])
    return (user_label[users], item_label[items], weights,
            quality[np.argsort(item_label)])


_INSTANCES = {
    "planted-250k": _planted,
    "path-100k": _path,
    "longtail-eval": _longtail_fixed,
}


def generate(name: str, seed: int, workdir: Path, scale: str = "full") -> Inputs:
    """Write workload `name`'s input files under `workdir`, seeded by `seed`.

    The same (name, seed, scale) always writes the same bytes. Rows are
    shuffled so ids appear in no particular order.
    """
    size = _SIZES[scale][name]
    rng = np.random.default_rng([seed % 2**64, NAMES.index(name)])
    workdir.mkdir(parents=True, exist_ok=True)
    users, items, weights, quality = _INSTANCES[name](rng, size)
    users, items, weights = _shuffled(rng, users, items, weights)
    canonical = name == "path-100k"
    ratings = workdir / ("ratings.csv" if canonical else "ratings.dat")
    if canonical:
        _write_canonical(ratings, users, items, weights)
    else:
        _write_raw_log(ratings, rng, users, items, weights)
    truth = workdir / "truth.csv"
    _write_truth(truth, quality)
    if name == "longtail-eval":
        return Inputs(name, "eval", ratings, truth, canonical, [0.2, 0.99],
                      sizes=_sizes(users, items))
    # An explicit cap on path-100k: the default cap (1444 at alpha 0.99)
    # runs out before epsilon there (ROADMAP item 3), and the workload
    # measures time to epsilon, not time to the cap.
    max_iters = 5000 if name == "path-100k" else None
    return Inputs(name, "solve", ratings, truth, canonical, [0.99],
                  max_iters=max_iters, sizes=_sizes(users, items))
