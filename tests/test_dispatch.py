"""The CLI's output bytes at each of numpy's CPU dispatch levels.

numpy picks its SIMD kernels at import, by CPU, from the features it
lists in `__cpu_dispatch__`; `NPY_DISABLE_CPU_FEATURES` makes it run an
older CPU's kernels on this one. Each level disables a suffix of the
listed features the host has, so no feature stays on while one it builds
on is off. A clamped ``eval`` at two alphas and a ``solve`` with alpha
overrides, each taking Anderson steps, must write the same bytes at every
level as at the default.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import truerating
from truerating.solver import DEPTH

#: The dispatched features the host has, in numpy's order: each builds on
#: those before it.
FEATURES = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
#: What each level disables: nothing, then ever longer suffixes.
LEVELS = [FEATURES[k:] for k in range(len(FEATURES) + 1)][::-1]


def long_tail(folder: Path, n_users: int = 2000, n_items: int = 400) -> None:
    """Write a canonical ratings CSV with Zipf item popularity, its items'
    planted qualities as a truth table, and an alpha of 0.5 for every
    seventh user. Biases up to 0.4 and noise of sigma 0.2, clipped into
    [0, 1], make debiased weights clamp at alpha 0.9 and 0.99."""
    rng = np.random.default_rng(5)
    popularity = 1.0 / np.arange(1, n_items + 1)
    users = np.concatenate([
        rng.integers(0, n_users, 12_000), np.arange(n_users),
        rng.integers(0, n_users, n_items),
    ])
    items = np.concatenate([
        rng.choice(n_items, 12_000, p=popularity / popularity.sum()),
        rng.integers(0, n_items, n_users), np.arange(n_items),
    ])
    users, items = np.divmod(np.unique(users * n_items + items), n_items)
    bias = rng.uniform(-0.4, 0.4, n_users)
    quality = rng.uniform(0.3, 0.7, n_items)
    weights = np.clip(quality[items] + bias[users]
                      + rng.normal(0.0, 0.2, users.size), 0.0, 1.0)
    (folder / "ratings.csv").write_text("user_id,item_id,weight\n" + "".join(map(
        "u{},m{},{!r}\n".format, users.tolist(), items.tolist(), weights.tolist()
    )))
    (folder / "truth.csv").write_text("item_id,score\n" + "".join(map(
        "m{},{!r}\n".format, range(n_items), quality.tolist()
    )))
    (folder / "alphas.csv").write_text(
        "user_id,alpha\n" + "".join(f"u{i},0.5\n" for i in range(0, n_users, 7))
    )


def run(folder: Path, disabled: list[str]) -> dict[str, object]:
    """Run both commands with `disabled` switched off, and return every
    output file's bytes by name, but each manifest's results only: its
    paths and times differ from run to run."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled))
    src = str(Path(truerating.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    level = "-".join(disabled) or "default"
    check = ("from numpy._core._multiarray_umath import __cpu_features__ as f;"
             "import sys; print(' '.join(n for n in sys.argv[1:] if f[n]))")
    enabled = subprocess.run(
        [sys.executable, "-c", check, *FEATURES], env=env, check=True,
        capture_output=True, text=True, timeout=60,
    ).stdout.split()
    assert enabled == [name for name in FEATURES if name not in disabled]
    commands = {
        "eval": ["--truth", str(folder / "truth.csv"), "--alpha", "0.9",
                 "--alpha", "0.99"],
        "solve": ["--alpha-overrides", str(folder / "alphas.csv")],
    }
    outputs = {}
    for command, args in commands.items():
        out = folder / level / command
        subprocess.run(
            [sys.executable, "-m", "truerating", command, "--ratings",
             str(folder / "ratings.csv"), "--epsilon", "1e-10", "--out", str(out),
             *args],
            env=env, check=True, timeout=120,
        )
        for path in sorted(out.iterdir()):
            key = f"{command}/{path.name}"
            if path.name == "manifest.json":
                outputs[key] = json.loads(path.read_text())["results"]
            else:
                outputs[key] = path.read_bytes()
    return outputs


@pytest.mark.skipif(not FEATURES, reason="numpy dispatches no feature past its baseline")
def test_bytes_identical_at_every_dispatch_level(tmp_path):
    long_tail(tmp_path)
    default = run(tmp_path, LEVELS[0])
    for result in (default["eval/manifest.json"]["solves"].values(),
                   [default["solve/manifest.json"]]):
        for solve in result:
            assert solve["clamped"] and solve["iterations"] > DEPTH, solve
    for disabled in LEVELS[1:]:
        outputs = run(tmp_path, disabled)
        assert outputs.keys() == default.keys()
        for name, want in default.items():
            assert outputs[name] == want, (disabled, name)
