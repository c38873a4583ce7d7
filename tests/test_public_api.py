"""The public API as the package exports it and as README.md documents it."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import truerating
from truerating import generate_planted

README = Path(__file__).resolve().parents[1] / "README.md"

#: Helpers that duplicated `build_report`, `solve` and `degree_bins`, and
#: were removed in their favour, and `degree_histogram`, which nothing
#: called.
REMOVED = {
    "mse", "rank_error", "_aligned", "bin_deviation", "rating_map",
    "debias_weight", "iterate_once", "bin_of", "bin_label", "degree_histogram",
}

SUBMODULES = sorted(
    info.name for info in pkgutil.iter_modules(truerating.__path__)
    if not info.name.startswith("_")
)


def _python_blocks(heading: str) -> list[str]:
    """The ```python blocks of the README section titled `heading`."""
    sections = re.split(r"^#+ ", README.read_text(encoding="utf-8"), flags=re.M)
    (section,) = [s for s in sections if s.startswith(heading + "\n")]
    return re.findall(r"^```python\n(.*?)^```", section, flags=re.M | re.S)


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    instance = generate_planted(20, 15, 0.8, noise_sigma=0.05, seed=3)
    graph = instance.graph
    (tmp_path / "ratings.dat").write_text(
        "".join(f"{u}::{i}::{1 + 4 * w!r}\n" for u, i, w in graph.edges()),
        encoding="utf-8",
    )
    truth = zip(graph.item_ids, instance.true_rating.tolist())
    (tmp_path / "truth.csv").write_text(
        "item_id,score\n" + "".join(f"{i},{t!r}\n" for i, t in truth),
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)
    blocks = [*_python_blocks("Library quick start"),
              *_python_blocks("Evaluation and output")]
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["result"].converged
    assert namespace["report"].common_items == graph.num_items
    assert (tmp_path / "ratings.csv").is_file()
    assert (tmp_path / "edges.csv").is_file()


@pytest.mark.parametrize("name", ["truerating", *SUBMODULES])
def test_export_lists(name):
    module = importlib.import_module(
        name if name == "truerating" else f"truerating.{name}"
    )
    for export in module.__all__:
        assert hasattr(module, export), f"{name}.__all__ names missing {export}"
    assert not REMOVED & set(module.__all__)
    assert not [attr for attr in REMOVED if hasattr(module, attr)]


def test_package_exports_each_library_module_once():
    # The package re-exports every library module's `__all__` and names
    # nothing by hand; `cli`, the command-line front end, stays out.
    exported = [
        name
        for sub in SUBMODULES if sub != "cli"
        for name in importlib.import_module(f"truerating.{sub}").__all__
    ]
    assert sorted(truerating.__all__) == sorted([*exported, "__version__"])
    assert len(set(truerating.__all__)) == len(truerating.__all__)
    assert truerating.residual_linf is truerating.oracle.residual_linf
