"""Tests of the benchmark itself, at tiny scale through the full code path.

Run from the repository root with ``python3 -m pytest benchmarks``.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import check
import run
import workloads
from spans import Recorder

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_generator_is_seeded(tmp_path):
    for name in workloads.NAMES:
        a = workloads.generate(name, 5, tmp_path / "a", "tiny")
        b = workloads.generate(name, 5, tmp_path / "b", "tiny")
        c = workloads.generate(name, 6, tmp_path / "c", "tiny")
        assert a.ratings.read_bytes() == b.ratings.read_bytes()
        assert a.truth.read_bytes() == b.truth.read_bytes()
        assert a.ratings.read_bytes() != c.ratings.read_bytes()
        assert a.sizes == b.sizes
        assert sum(a.sizes["item_degree_histogram"]) == a.sizes["items"]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_metric_emitted_with_its_unit(name, trace):
    record = run.run_workload(name, seed=3, seconds=0.1, trace=trace,
                              scale="tiny")
    assert record["problems"] == []
    assert record["correct"] and record["failed"] == 0
    assert record["attempted"] >= 1
    units = _units("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in record["metrics"].items()} == units
    assert record["sizes"]["edges"] >= 1
    if trace:
        assert record["metrics"]["cli.self_s"]["value"] >= 0.0
    else:
        assert len(record["samples"]["wall_s"]) >= 1
        assert len(record["samples"]["setup_s"]) >= run.SETUP_FLOOR


@pytest.mark.parametrize("decimal", [1, 4])
def test_checker_counts_one_corrupted_digit(tmp_path, decimal):
    inputs = workloads.generate("planted-250k", 4, tmp_path / "in", "tiny")
    model = check.FixedPoint(*check.read_ratings(inputs))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "truerating", *inputs.cli_args(out)],
        env={"PYTHONPATH": str(run.SRC)}, capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert check.check_outputs(inputs, model, out) == []

    ratings = out / "ratings.csv"
    lines = ratings.read_text().splitlines(keepends=True)
    key, value = lines[1].split(",")
    digit = value.index(".") + decimal
    flipped = "1" if value[digit] != "1" else "2"
    lines[1] = f"{key},{value[:digit]}{flipped}{value[digit + 1:]}"
    ratings.write_text("".join(lines))

    problems = check.check_outputs(inputs, model, out)
    assert problems
    bench = run.Run(Recorder("planted-250k", "t"), deadline=0.0)
    bench.judge(run.Child(0, 0.0, 1.0, 1.0), problems, "solve")
    assert bench.failed == 1


def test_refuses_to_run_without_the_program(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "planted-250k", "--seed", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_self_time_subtracts_child_coverage():
    rec = Recorder("w", "r")
    parent = rec.add("parent", 0.0, 10.0)
    rec.add("a", 1.0, 4.0, parent.id)
    rec.add("b", 3.0, 5.0, parent.id)     # overlaps a: covered once
    rec.add("c", 9.0, 12.0, parent.id)    # clipped at the parent's end
    assert rec.self_time(parent) == pytest.approx(10.0 - 4.0 - 1.0)
