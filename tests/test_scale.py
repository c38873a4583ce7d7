"""Scale tier: checks on graphs of about a million edges.

Marked ``scale``, which the pytest config deselects; run them with
``pytest -m scale``. The graphs are built here with numpy, in process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import truerating
from truerating.solver import DEPTH

pytestmark = pytest.mark.scale


def long_tail_ratings(path: Path, seed: int = 3) -> int:
    """Write a canonical ``user_id,item_id,weight`` CSV of about 1M edges
    with Zipf item popularity, and return its edge count.

    100k users each draw items with probability proportional to 1/rank
    over 20k items, so a few items collect tens of thousands of ratings
    and most collect a handful. One extra edge per user and per item
    leaves no id isolated; repeated pairs are dropped. Weights are planted
    quality plus bias plus noise of sigma 0.1, clipped into [0, 1], so
    some debiased weights clip at alpha = 0.99."""
    n_users, n_items, draws = 100_000, 20_000, 1_000_000
    rng = np.random.default_rng(seed)
    popularity = 1.0 / np.arange(1, n_items + 1)
    users = np.concatenate([
        rng.integers(0, n_users, draws),
        np.arange(n_users),
        rng.integers(0, n_users, n_items),
    ])
    items = np.concatenate([
        rng.choice(n_items, draws, p=popularity / popularity.sum()),
        rng.integers(0, n_items, n_users),
        np.arange(n_items),
    ])
    users, items = np.divmod(np.unique(users * n_items + items), n_items)
    bias = rng.uniform(-0.2, 0.2, n_users)
    quality = rng.uniform(0.3, 0.7, n_items)
    noise = rng.normal(0.0, 0.1, users.size)
    weights = np.clip(quality[items] + bias[users] + noise, 0.0, 1.0)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("user_id,item_id,weight\n")
        handle.write("".join(map(
            "u{},m{},{!r}\n".format, users.tolist(), items.tolist(),
            weights.tolist(),
        )))
    return int(users.size)


def solve_with_blas_threads(ratings: Path, out: Path, threads: int) -> None:
    """``truerating solve`` at alpha = 0.99 in a child process whose BLAS
    libraries are limited to `threads` threads."""
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    src = str(Path(truerating.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-m", "truerating", "solve", "--ratings", str(ratings),
         "--alpha", "0.99", "--out", str(out)],
        env=env, check=True, timeout=600,
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="a BLAS library may cap its threads at the CPU count",
)
def test_long_tail_bytes_identical_at_one_and_two_blas_threads(tmp_path):
    ratings = tmp_path / "ratings.csv"
    assert long_tail_ratings(ratings) > 900_000
    for threads in (1, 2):
        solve_with_blas_threads(ratings, tmp_path / f"threads-{threads}", threads)
    # Past the first DEPTH iterates, so Anderson steps were taken too.
    manifest = json.loads((tmp_path / "threads-1" / "manifest.json").read_text())
    assert manifest["results"]["iterations"] > DEPTH
    for name in ("bias.csv", "ratings.csv", "trace.json"):
        serial = (tmp_path / "threads-1" / name).read_bytes()
        assert (tmp_path / "threads-2" / name).read_bytes() == serial, name
