import argparse
import json
import os
from dataclasses import replace
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from truerating import ingest_ratings, solve, solve_linear
from truerating import cli, evaluate, ingest
from truerating.cli import main


@pytest.fixture
def two_user_file(tmp_path):
    path = tmp_path / "two.dat"
    path.write_text("u1::m1::5\nu2::m1::1\n", encoding="utf-8")
    return path


def run(*argv) -> int:
    return main([str(a) for a in argv])


COMMANDS = ("solve", "eval", "synth", "oracle-check")


def command_argv(command, tmp_path, ratings) -> list:
    """A small valid command line for `command`, without --out."""
    if command == "synth":
        return ["synth", "--users", "4", "--items", "3", "--density", "1"]
    argv = [command, "--ratings", ratings]
    if command == "eval":
        truth = tmp_path / "truth.csv"
        truth.write_text("item_id,score\nm1,0.5\n", encoding="utf-8")
        argv += ["--truth", truth]
    return argv


#: (command, flag, bad value, error text): errors a command must report
#: before it reads the ratings file.
FLAGS_CHECKED_BEFORE_INGEST = [
    *[(command, "--alpha", value, f"alpha must be in (0, 1), got {float(value)}")
      for command in ("solve", "eval", "oracle-check")
      for value in ("0", "1.5")],
    ("eval", "--truth-scale", "5:1", "bad --truth-scale '5:1'"),
]


#: (command, flag): every flag that takes a float.
FLOAT_FLAGS = [
    ("solve", "--alpha"), ("solve", "--epsilon"),
    ("eval", "--alpha"), ("eval", "--epsilon"),
    ("synth", "--density"), ("synth", "--noise-sigma"),
    ("oracle-check", "--alpha"), ("oracle-check", "--tolerance"),
]


def solve_file_flags(tmp_path) -> list:
    """``solve``'s file flags but --ratings, each naming a small valid
    file for the two-user graph."""
    overrides = tmp_path / "overrides.csv"
    overrides.write_text("user_id,alpha\nu1,0.5\n", encoding="utf-8")
    seeds = tmp_path / "seeds.csv"
    seeds.write_text("user_id,bias\nu2,-0.1\n", encoding="utf-8")
    return ["--alpha-overrides", overrides, "--seed-bias", seeds]


#: The manifest's top-level keys, in order.
MANIFEST_KEYS = [
    "command", "version", "outdir", "inputs", "params", "outputs", "results",
    "started_at", "finished_at", "wall_seconds",
]
#: Each command's manifest ``inputs``, ``params`` and ``results`` keys, in
#: order: the parsed flags in the parser's order, then what the command
#: computed.
MANIFEST_SECTIONS = {
    "solve": (
        ["ratings", "alpha_overrides", "seed_bias"],
        ["scale", "delimiter", "duplicates", "alpha", "epsilon", "max_iters"],
        ["converged", "iterations", "sweeps", "clamped", "max_iterations",
         "users", "items", "edges", "exit_code"],
    ),
    "eval": (
        ["ratings", "truth"],
        ["scale", "delimiter", "duplicates", "truth_scale", "alpha", "epsilon",
         "max_iters"],
        ["solves", "common_items", "exit_code"],
    ),
    "synth": (
        [],
        ["users", "items", "density", "bias_range", "quality_range",
         "noise_sigma", "seed"],
        ["edges", "exit_code"],
    ),
    "oracle-check": (
        ["ratings"],
        ["scale", "delimiter", "duplicates", "alpha", "tolerance"],
        ["status", "epsilon", "exit_code"],
    ),
}
#: The keys of each solve record in a manifest's ``results``.
SOLVE_RECORD = ["converged", "iterations", "sweeps", "clamped", "max_iterations"]


def replay_argv(manifest: dict) -> list[str]:
    """The command line a manifest records, without --out: each entry of
    its ``inputs`` and ``params`` as ``--flag=value``, a list as one flag
    per element, and None left out."""
    parser = cli.build_parser()
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    flag = {
        action.dest: max(action.option_strings, key=len)
        for action in commands.choices[manifest["command"]]._actions
    }
    argv = [manifest["command"]]
    for key, value in {**manifest["inputs"], **manifest["params"]}.items():
        values = value if isinstance(value, list) else [value]
        argv += [f"{flag[key]}={v}" for v in values if v is not None]
    return argv


class TestRunWrapper:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_manifest_fields(self, tmp_path, two_user_file, command):
        out = tmp_path / "run"
        argv = command_argv(command, tmp_path, two_user_file)
        if command == "eval":
            argv += ["--alpha", "0.5", "--alpha", "0.9"]
        assert run(*argv, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest) == MANIFEST_KEYS
        sections = [list(manifest[key]) for key in ("inputs", "params", "results")]
        assert tuple(sections) == MANIFEST_SECTIONS[command]
        if command == "eval":
            solves = manifest["results"]["solves"]
            assert list(solves) == ["alpha_0.5", "alpha_0.9"]
            for record in solves.values():
                assert list(record) == SOLVE_RECORD
        assert manifest["command"] == command
        assert manifest["outdir"] == str(out)
        started = datetime.fromisoformat(manifest["started_at"])
        assert datetime.fromisoformat(manifest["finished_at"]) >= started
        assert manifest["wall_seconds"] >= 0
        assert manifest["outputs"][-1] == "manifest.json"
        assert sorted(p.name for p in out.iterdir()) == sorted(
            manifest["outputs"]
        )

    @pytest.mark.parametrize("command", COMMANDS)
    def test_replays_from_manifest(self, tmp_path, two_user_file, command,
                                   monkeypatch):
        # The command line rebuilt from the manifest alone gives the same
        # outputs, byte for byte, and records the same inputs and params,
        # also when the first run named its files relative to a directory
        # the replay does not run in.
        argv = command_argv(command, tmp_path, two_user_file)
        if command == "solve":
            argv += [*solve_file_flags(tmp_path), "--max-iters", "50"]
        if command == "eval":
            argv += ["--alpha", "0.5", "--alpha", "0.9"]
        if command == "synth":
            argv += ["--bias-range=-0.1:0.1", "--noise-sigma", "0.05"]
        first, second = tmp_path / "first", tmp_path / "second"
        monkeypatch.chdir(tmp_path)
        relative = [os.path.relpath(a) if isinstance(a, Path) else a for a in argv]
        assert run(*relative, "--out", "first") == 0
        recorded = json.loads((first / "manifest.json").read_text())
        assert recorded["outdir"] == str(first)
        assert all(os.path.isabs(p) for p in recorded["inputs"].values() if p)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert run(*replay_argv(recorded), "--out", second) == 0
        replayed = json.loads((second / "manifest.json").read_text())
        for key in ("command", "inputs", "params", "outputs"):
            assert replayed[key] == recorded[key]
        for name in recorded["outputs"][:-1]:
            assert (second / name).read_bytes() == (first / name).read_bytes()

    @pytest.mark.parametrize("command", [c for c in COMMANDS if c != "synth"])
    def test_inputs_name_every_file_read(
        self, tmp_path, two_user_file, command, monkeypatch
    ):
        # Given every file flag it takes, a command opens for reading
        # exactly the files its manifest lists under ``inputs``.
        opened = set()

        def recording(path, mode="r", *args, **kwargs):
            if "r" in mode:
                opened.add(os.path.abspath(path))
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(ingest, "open", recording, raising=False)
        argv = command_argv(command, tmp_path, two_user_file)
        if command == "solve":
            argv += solve_file_flags(tmp_path)
        out = tmp_path / "run"
        assert run(*argv, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert opened == {p for p in manifest["inputs"].values() if p}

    @pytest.mark.parametrize("command", [c for c in COMMANDS if c != "synth"])
    def test_malformed_ratings_writes_no_manifest(self, tmp_path, command, capsys):
        bad = tmp_path / "bad.dat"
        bad.write_text("u1::m1::5\nu2::m1\n", encoding="utf-8")
        out = tmp_path / "run"
        assert run(*command_argv(command, tmp_path, bad), "--out", out) == 1
        assert not (out / "manifest.json").exists()
        assert "bad.dat:2:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_input", ["ratings", "truth"])
    def test_invalid_utf8_names_file_and_line(
        self, tmp_path, two_user_file, bad_input, capsys
    ):
        bad = tmp_path / "bad-utf8.dat"
        if bad_input == "ratings":
            bad.write_bytes(b"u1::m1::5\nu2::m\xff1::3\n")
            argv = ["solve", "--ratings", bad]
        else:
            bad.write_bytes(b"item_id,score\nm\xff1,0.5\n")
            argv = ["eval", "--ratings", two_user_file, "--truth", bad]
        out = tmp_path / "run"
        assert run(*argv, "--out", out) == 1
        assert not (out / "manifest.json").exists()
        assert f"{bad}:2: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, blocked",
        [("solve", "ratings.csv"), ("eval", "bins_mean.csv"),
         ("synth", "truth.csv"), ("oracle-check", "oracle.json")],
    )
    def test_failed_write_leaves_no_stale_manifest(
        self, tmp_path, two_user_file, command, blocked
    ):
        argv = command_argv(command, tmp_path, two_user_file)
        out = tmp_path / "run"
        assert run(*argv, "--out", out) == 0
        (out / blocked).unlink()
        (out / blocked).mkdir()  # writing this output now raises
        assert run(*argv, "--out", out) == 1
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["solve", "eval"])
    def test_unwritable_id_refused_before_solving(
        self, tmp_path, command, capsys, monkeypatch
    ):
        def no_solve(*args, **kwargs):
            pytest.fail("solved a graph whose ids cannot be written")

        monkeypatch.setattr(cli, "solve", no_solve)
        ratings = tmp_path / "commas.dat"
        ratings.write_text(
            "u1::Toy Story, The::5\nu2::Toy Story, The::1\n", encoding="utf-8"
        )
        out = tmp_path / "run"
        assert run(*command_argv(command, tmp_path, ratings), "--out", out) == 1
        assert "'Toy Story, The' contains ','" in capsys.readouterr().err
        assert not (out / "bias.csv").exists()
        assert not (out / "manifest.json").exists()
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, value, message",
        FLAGS_CHECKED_BEFORE_INGEST,
        ids=[f"{c}-{f}={v}" for c, f, v, _ in FLAGS_CHECKED_BEFORE_INGEST],
    )
    def test_flags_checked_before_ingest(
        self, tmp_path, command, flag, value, message, capsys
    ):
        # The ratings file does not exist, so an error that names it would
        # mean the file was opened before the flag was checked.
        missing = tmp_path / "missing.dat"
        out = tmp_path / "run"
        argv = command_argv(command, tmp_path, missing)
        assert run(*argv, flag, value, "--out", out) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "missing.dat" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, last",
        [("solve", "trace.json"), ("eval", "report.json"),
         ("synth", "planted_bias.csv"), ("oracle-check", "oracle.json"),
         *[(command, "manifest.json") for command in COMMANDS]],
    )
    def test_failed_last_write_leaves_no_outputs(
        self, tmp_path, two_user_file, monkeypatch, capsys, command, last
    ):
        # Every output before the command's last one, or before the
        # manifest, is written, then that write fails: none of them may
        # appear under its final name, and no temporary file may be left
        # behind.
        def failing(write):
            def wrapper(path, *args):
                if Path(path).name.startswith(last):
                    raise OSError(f"cannot write {last}")
                return write(path, *args)
            return wrapper

        for name in ("_write_json", "write_scores_csv"):
            monkeypatch.setattr(cli, name, failing(getattr(cli, name)))
        out = tmp_path / "run"
        argv = command_argv(command, tmp_path, two_user_file)
        assert run(*argv, "--out", out) == 1
        assert f"cannot write {last}" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestSolveCommand:
    def test_two_user_run(self, tmp_path, two_user_file):
        out = tmp_path / "run"
        code = run(
            "solve", "--ratings", two_user_file, "--alpha", "0.5",
            "--epsilon", "1e-9", "--out", out,
        )
        assert code == 0
        assert (out / "bias.csv").read_text() == (
            "user_id,bias\nu1,0.500000000\nu2,-0.500000000\n"
        )
        assert (out / "ratings.csv").read_text() == (
            "item_id,true_rating\nm1,0.500000000\n"
        )
        trace = json.loads((out / "trace.json").read_text())
        assert trace[0]["iter"] == 1
        assert trace[-1]["l1_bias_delta"] < 1e-9
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert manifest["results"]["converged"] is True
        assert manifest["params"]["alpha"] == 0.5

    def test_manifest_counts_sweeps(self, tmp_path, two_user_file):
        out = tmp_path / "run"
        run("solve", "--ratings", two_user_file, "--alpha", "0.5", "--out", out)
        results = json.loads((out / "manifest.json").read_text())["results"]
        # Two plain iterates: the seed's sweep, then the fixed point's.
        assert results["iterations"] == results["sweeps"] == 2

    def test_invalid_alpha_writes_nothing(self, tmp_path, two_user_file, capsys):
        out = tmp_path / "never"
        code = run("solve", "--ratings", two_user_file, "--alpha", "1.5", "--out", out)
        assert code == 1
        assert not out.exists()
        assert "alpha" in capsys.readouterr().err

    def test_zero_iteration_budget_exits_two(self, tmp_path, two_user_file):
        out = tmp_path / "zero"
        code = run(
            "solve", "--ratings", two_user_file, "--alpha", "0.5",
            "--max-iters", "0", "--out", out,
        )
        assert code == 2
        assert json.loads((out / "trace.json").read_text()) == []
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["exit_code"] == 2

    def test_missing_ratings_file(self, tmp_path):
        code = run("solve", "--ratings", tmp_path / "nope.dat", "--out", tmp_path / "o")
        assert code == 1

    def test_reruns_byte_identical(self, tmp_path, two_user_file):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("solve", "--ratings", two_user_file, "--alpha", "0.5", "--out", out) == 0
        assert (a / "bias.csv").read_bytes() == (b / "bias.csv").read_bytes()
        assert (a / "ratings.csv").read_bytes() == (b / "ratings.csv").read_bytes()
        assert (a / "trace.json").read_bytes() == (b / "trace.json").read_bytes()

    def test_constant_seed_bias(self, tmp_path, two_user_file):
        # A seed file that starts every user at one constant reaches the
        # fixed point of the default zero start.
        seeds = tmp_path / "seeds.csv"
        seeds.write_text("user_id,bias\nu1,0.25\nu2,0.25\n", encoding="utf-8")
        out = tmp_path / "seeded"
        code = run(
            "solve", "--ratings", two_user_file, "--alpha", "0.5",
            "--seed-bias", seeds, "--out", out,
        )
        assert code == 0
        assert "u1,0.5" in (out / "bias.csv").read_text()

    def test_seed_bias_from_file(self, tmp_path, two_user_file):
        seeds = tmp_path / "seeds.csv"
        seeds.write_text("user_id,bias\nu1,0.1\nu2,-0.1\n", encoding="utf-8")
        out = tmp_path / "fseed"
        code = run(
            "solve", "--ratings", two_user_file, "--alpha", "0.5",
            "--seed-bias", seeds, "--out", out,
        )
        assert code == 0

    def test_seed_bias_outside_range_rejected(
        self, tmp_path, two_user_file, capsys
    ):
        seeds = tmp_path / "seeds.csv"
        seeds.write_text("user_id,bias\nu1,1.5\n", encoding="utf-8")
        out = tmp_path / "out"
        code = run(
            "solve", "--ratings", two_user_file,
            "--seed-bias", seeds, "--out", out,
        )
        assert code == 1
        assert (
            f"error: {seeds}:2: seed bias 1.5 for user 'u1' outside [-1, 1]"
            in capsys.readouterr().err
        )
        assert not out.exists()

    def test_warm_start_from_own_bias(self, tmp_path):
        # Seeded with a converged run's bias.csv, a solve needs fewer
        # iterates and stops within the iteration error of both runs,
        # 2*eps/(1-alpha), of the same ratings.
        alpha, epsilon = 0.9, 1e-8
        assert run(
            "synth", "--users", "40", "--items", "30", "--density", "0.3",
            "--noise-sigma", "0.1", "--seed", "3", "--out", tmp_path / "synth",
        ) == 0
        solve_argv = [
            "solve", "--ratings", tmp_path / "synth" / "ratings.csv",
            "--alpha", alpha, "--epsilon", epsilon,
        ]
        cold, warm = tmp_path / "cold", tmp_path / "warm"
        assert run(*solve_argv, "--out", cold) == 0
        assert run(
            *solve_argv, "--seed-bias", cold / "bias.csv", "--out", warm
        ) == 0

        def iterations(out):
            manifest = json.loads((out / "manifest.json").read_text())
            return manifest["results"]["iterations"]

        def ratings(out):
            return np.loadtxt(out / "ratings.csv", delimiter=",", skiprows=1)

        assert iterations(warm) < iterations(cold)
        gap = np.max(np.abs(ratings(warm)[:, 1] - ratings(cold)[:, 1]))
        # Each CSV rounds to 9 decimals.
        assert gap <= 2 * epsilon / (1 - alpha) + 1e-9

    def test_alpha_overrides_all_trusted(self, tmp_path, two_user_file):
        overrides = tmp_path / "trust.csv"
        overrides.write_text("user_id,alpha\nu1,0\nu2,0\n", encoding="utf-8")
        out = tmp_path / "trusted"
        code = run(
            "solve", "--ratings", two_user_file, "--alpha", "0.5",
            "--alpha-overrides", overrides, "--out", out,
        )
        assert code == 0
        # Every user trusted: the item keeps its plain mean rating.
        assert "m1,0.500000000" in (out / "ratings.csv").read_text()

    def test_alpha_overrides_after_blank_line(self, tmp_path, two_user_file):
        # The header is the first non-blank line, not physical line 1.
        overrides = tmp_path / "trust.csv"
        overrides.write_text("\nuser_id,alpha\nu1,0\nu2,0\n", encoding="utf-8")
        out = tmp_path / "trusted"
        code = run(
            "solve", "--ratings", two_user_file, "--alpha", "0.5",
            "--alpha-overrides", overrides, "--out", out,
        )
        assert code == 0
        assert "m1,0.500000000" in (out / "ratings.csv").read_text()

    def test_alpha_override_file_leaves_others_at_alpha(
        self, tmp_path, two_user_file
    ):
        # A user the file does not list keeps the global alpha: listing u2
        # at 0.5 explicitly gives the same bytes, and a different result
        # from trusting u2 too.
        def solved(name, rows):
            overrides = tmp_path / f"{name}.csv"
            overrides.write_text("user_id,alpha\n" + rows, encoding="utf-8")
            out = tmp_path / name
            assert run(
                "solve", "--ratings", two_user_file, "--alpha", "0.5",
                "--epsilon", "1e-9", "--alpha-overrides", overrides,
                "--out", out,
            ) == 0
            return (out / "bias.csv").read_bytes()

        partial = solved("partial", "u1,0\n")
        assert partial == solved("explicit", "u1,0\nu2,0.5\n")
        assert partial != solved("trusted", "u1,0\nu2,0\n")

    def test_alpha_override_above_alpha_rejected(self, tmp_path, two_user_file):
        overrides = tmp_path / "bad.csv"
        overrides.write_text("u1,0.9\n", encoding="utf-8")
        code = run(
            "solve", "--ratings", two_user_file, "--alpha", "0.5",
            "--alpha-overrides", overrides, "--out", tmp_path / "x",
        )
        assert code == 1

    def test_alpha_override_named_by_file_id(
        self, tmp_path, two_user_file, capsys
    ):
        # u2 is dense index 1; the message names the id from the file.
        overrides = tmp_path / "overrides.csv"
        overrides.write_text("user_id,alpha\nu2,0.9\n", encoding="utf-8")
        out = tmp_path / "out"
        code = run(
            "solve", "--ratings", two_user_file, "--alpha", "0.5",
            "--alpha-overrides", overrides, "--out", out,
        )
        assert code == 1
        assert (
            f"error: {overrides}:2: alpha override 0.9 for user 'u2' "
            "outside [0, 0.5]"
            in capsys.readouterr().err
        )
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("flag", ["--seed-bias", "--alpha-overrides"])
    def test_user_file_naming_absent_user(
        self, tmp_path, two_user_file, capsys, flag
    ):
        values = tmp_path / "values.csv"
        values.write_text("user_id,value\nu1,0.1\nghost,0.2\n", encoding="utf-8")
        out = tmp_path / "out"
        code = run(
            "solve", "--ratings", two_user_file, "--alpha", "0.5",
            flag, values, "--out", out,
        )
        assert code == 1
        assert (
            f"error: {values}:3: user 'ghost' is absent from the graph"
            in capsys.readouterr().err
        )
        assert not (out / "manifest.json").exists()

    def test_seed_bias_file_reaches_named_users(self, tmp_path, two_user_file):
        # With no iterations the seed is the output: the one listed user
        # gets its value, the other starts at zero.
        seeds = tmp_path / "seeds.csv"
        seeds.write_text("user_id,bias\nu2,-0.25\n", encoding="utf-8")
        out = tmp_path / "seeded"
        code = run(
            "solve", "--ratings", two_user_file, "--max-iters", "0",
            "--seed-bias", seeds, "--out", out,
        )
        assert code == 2
        assert (out / "bias.csv").read_text() == (
            "user_id,bias\nu1,0.000000000\nu2,-0.250000000\n"
        )

    def test_duplicate_policies(self, tmp_path):
        dup = tmp_path / "dup.dat"
        dup.write_text("u1::m1::5\nu1::m1::1\nu2::m1::3\n", encoding="utf-8")
        assert run("solve", "--ratings", dup, "--out", tmp_path / "strict") == 1
        assert (
            run(
                "solve", "--ratings", dup, "--duplicates", "keep_first",
                "--out", tmp_path / "lenient",
            )
            == 0
        )


class TestSynthCommand:
    def test_outputs(self, tmp_path):
        out = tmp_path / "syn"
        code = run(
            "synth", "--users", "10", "--items", "8", "--density", "0.7",
            "--seed", "3", "--out", out,
        )
        assert code == 0
        ratings = (out / "ratings.csv").read_text().splitlines()
        assert ratings[0] == "user_id,item_id,weight"
        assert (out / "truth.csv").read_text().startswith("item_id,true_rating")
        assert (out / "planted_bias.csv").read_text().startswith("user_id,bias")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["params"]["seed"] == 3

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run("synth", "--users", "10", "--items", "8", "--density", "0.7",
                "--seed", "3", "--out", out)
        assert (a / "ratings.csv").read_bytes() == (b / "ratings.csv").read_bytes()

    def test_infeasible_ranges(self, tmp_path, capsys):
        code = run(
            "synth", "--users", "5", "--items", "5", "--density", "1",
            "--bias-range=-0.5:0.5", "--quality-range", "0.2:0.8",
            "--out", tmp_path / "x",
        )
        assert code == 1
        assert "infeasible" in capsys.readouterr().err


class TestEvalCommand:
    def _synth(self, tmp_path, **kw):
        out = tmp_path / "instance"
        args = {
            "users": 30, "items": 25, "density": 0.9, "seed": 12,
            "bias-range": "-0.2:0.2", "quality-range": "0.3:0.7",
            "noise-sigma": "0.05",
        }
        args.update(kw)
        argv = ["synth"] + [f"--{key}={value}" for key, value in args.items()]
        argv += ["--out", str(out)]
        assert main(argv) == 0
        return out

    def test_pipeline_reports_all_methods(self, tmp_path):
        instance = self._synth(tmp_path)
        out = tmp_path / "ev"
        code = run(
            "eval", "--ratings", instance / "ratings.csv",
            "--truth", instance / "truth.csv",
            "--alpha", "0.2", "--alpha", "0.99", "--out", out,
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        labels = [m["method_label"] for m in report["methods"]]
        assert labels == ["mean", "debias(α=0.2)", "debias(α=0.99)"]
        for name in (
            "ratings_mean.csv", "ratings_alpha_0.2.csv", "ratings_alpha_0.99.csv",
            "bins_mean.csv", "bins_alpha_0.2.csv", "bins_alpha_0.99.csv",
        ):
            assert (out / name).exists()
        bins_lines = (out / "bins_alpha_0.99.csv").read_text().splitlines()
        assert bins_lines[0] == "bin,metric,value"

    @pytest.mark.parametrize(
        "alphas", [("0.3", "0.30000000001"), ("0.5", "0.2", "0.5")]
    )
    def test_alphas_sharing_a_tag_rejected(self, tmp_path, alphas, capsys):
        instance = self._synth(tmp_path)
        out = tmp_path / "ev"
        argv = ["eval", "--ratings", tmp_path / "missing.dat",
                "--truth", instance / "truth.csv", "--out", out]
        for alpha in alphas:
            argv += ["--alpha", alpha]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert "share the output tag alpha_" in err
        assert "missing.dat" not in err
        assert not out.exists()

    def test_manifest_counts_sweeps_per_solve(self, tmp_path):
        instance = self._synth(tmp_path)
        out = tmp_path / "ev"
        run(
            "eval", "--ratings", instance / "ratings.csv",
            "--truth", instance / "truth.csv",
            "--alpha", "0.2", "--alpha", "0.99", "--out", out,
        )
        solves = json.loads((out / "manifest.json").read_text())["results"]["solves"]
        for tag in ("alpha_0.2", "alpha_0.99"):
            assert solves[tag]["sweeps"] >= solves[tag]["iterations"] >= 1

    def test_debias_beats_mean_on_dense_instance(self, tmp_path):
        instance = self._synth(tmp_path)
        out = tmp_path / "ev"
        run(
            "eval", "--ratings", instance / "ratings.csv",
            "--truth", instance / "truth.csv", "--alpha", "0.99", "--out", out,
        )
        report = json.loads((out / "report.json").read_text())
        by_label = {m["method_label"]: m for m in report["methods"]}
        assert by_label["debias(α=0.99)"]["mse_overall"] <= by_label["mean"]["mse_overall"]

    def test_disjoint_truth_errors(self, tmp_path, capsys):
        instance = self._synth(tmp_path)
        truth = tmp_path / "other.csv"
        truth.write_text("item_id,true_rating\nghost,0.5\n", encoding="utf-8")
        code = run(
            "eval", "--ratings", instance / "ratings.csv", "--truth", truth,
            "--out", tmp_path / "ev",
        )
        assert code == 1
        assert "no items" in capsys.readouterr().err

    def test_truth_aligned_once(self, tmp_path, monkeypatch):
        # Three reports (the mean and two solves) share one alignment, and
        # its unmatched count is the one the report names.
        instance = self._synth(tmp_path)
        truth = tmp_path / "truth.csv"
        truth.write_text(
            (instance / "truth.csv").read_text() + "ghost,0.5\n",
            encoding="utf-8",
        )
        original = evaluate.align_truth
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(evaluate, "align_truth", counted)
        monkeypatch.setattr(cli, "align_truth", counted)
        out = tmp_path / "ev"
        code = run(
            "eval", "--ratings", instance / "ratings.csv", "--truth", truth,
            "--alpha", "0.2", "--alpha", "0.99", "--out", out,
        )
        assert code == 0
        assert len(calls) == 1
        report = json.loads((out / "report.json").read_text())
        assert len(report["methods"]) == 3
        assert report["unmatched_truth_items"] == 1

    def test_truth_scale_applied(self, tmp_path):
        instance = self._synth(tmp_path)
        # Rescale truth scores to percentages and declare the scale.
        scores = (instance / "truth.csv").read_text().splitlines()[1:]
        rescaled = tmp_path / "pct.csv"
        rescaled.write_text(
            "item_id,score\n"
            + "\n".join(f"{line.split(',')[0]},{float(line.split(',')[1]) * 100}" for line in scores)
            + "\n",
            encoding="utf-8",
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run("eval", "--ratings", instance / "ratings.csv",
            "--truth", instance / "truth.csv", "--out", out_a)
        run("eval", "--ratings", instance / "ratings.csv",
            "--truth", rescaled, "--truth-scale", "0:100", "--out", out_b)
        mse_a = json.loads((out_a / "report.json").read_text())["methods"][0]["mse_overall"]
        mse_b = json.loads((out_b / "report.json").read_text())["methods"][0]["mse_overall"]
        assert mse_a == pytest.approx(mse_b, rel=1e-9)


class TestOracleCheckCommand:
    @pytest.fixture
    def clamp_free(self, tmp_path):
        """The ratings of a small planted instance on which no clamp fires."""
        instance = tmp_path / "syn"
        run("synth", "--users", "10", "--items", "10", "--density", "1",
            "--bias-range=-0.1:0.1", "--quality-range", "0.2:0.8",
            "--seed", "5", "--out", instance)
        return instance / "ratings.csv"

    def test_clamp_free_instance_passes(self, tmp_path, clamp_free):
        out = tmp_path / "oracle"
        code = run(
            "oracle-check", "--ratings", clamp_free,
            "--alpha", "0.9", "--tolerance", "1e-8", "--out", out,
        )
        assert code == 0
        payload = json.loads((out / "oracle.json").read_text())
        assert payload["status"] == "ok"
        assert payload["max_bias_diff"] <= 1e-8

    def test_mismatch_exits_one(self, tmp_path, clamp_free, capsys):
        # No float64 solve agrees with the linear solution to 1e-20.
        out = tmp_path / "oracle"
        code = run("oracle-check", "--ratings", clamp_free, "--alpha", "0.9",
                   "--tolerance", "1e-20", "--out", out)
        assert code == 1
        payload = json.loads((out / "oracle.json").read_text())
        assert payload["status"] == "mismatch"
        assert max(payload["max_bias_diff"], payload["max_rating_diff"]) > 1e-20
        assert "oracle check: mismatch" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["exit_code"] == 1

    def test_non_converged_exits_two(self, tmp_path, clamp_free, monkeypatch,
                                     capsys):
        # One iteration cannot reach the check's epsilon.
        def one_iteration(graph, config):
            return solve(graph, replace(config, max_iterations=1))

        monkeypatch.setattr(cli, "solve", one_iteration)
        out = tmp_path / "oracle"
        code = run("oracle-check", "--ratings", clamp_free, "--alpha", "0.9",
                   "--out", out)
        assert code == 2
        payload = json.loads((out / "oracle.json").read_text())
        assert payload["status"] == "non-converged"
        assert payload["iterations"] == 1 and not payload["clamped"]
        assert payload["max_bias_diff"] is None
        assert "oracle check: non-converged" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["exit_code"] == 2

    def test_clamping_instance_inapplicable(self, tmp_path):
        ratings = tmp_path / "clamp.csv"
        ratings.write_text(
            "user_id,item_id,weight\n"
            "u1,a,1.000000000\nu1,b,1.000000000\nu1,c,0.100000000\n"
            "u2,a,0.200000000\nu2,b,0.200000000\nu2,c,0.100000000\n",
            encoding="utf-8",
        )
        out = tmp_path / "oracle"
        code = run("oracle-check", "--ratings", ratings, "--alpha", "0.99", "--out", out)
        assert code == 3
        assert json.loads((out / "oracle.json").read_text())["status"] == "clamped"

    def test_noisy_instance_clamp_free_at_its_answer(self, tmp_path):
        # Early iterates on this instance clip a weight; the answer does not.
        instance = tmp_path / "noisy"
        assert run("synth", "--users", "60", "--items", "40", "--density", "0.3",
                   "--noise-sigma", "0.1", "--seed", "17", "--out", instance) == 0
        out = tmp_path / "oracle"
        code = run("oracle-check", "--ratings", instance / "ratings.csv",
                   "--out", out)
        assert code == 0
        payload = json.loads((out / "oracle.json").read_text())
        assert payload["status"] == "ok" and not payload["clamped"]
        assert max(payload["max_bias_diff"], payload["max_rating_diff"]) <= 1e-8

    def test_zero_tolerance_refused_before_output(self, tmp_path, clamp_free,
                                                  capsys):
        out = tmp_path / "oracle"
        code = run("oracle-check", "--ratings", clamp_free, "--tolerance", "0",
                   "--out", out)
        assert code == 1
        assert not out.exists()
        assert "tolerance must be positive, got 0.0" in capsys.readouterr().err

    def test_graph_over_a_million_cells(self, tmp_path):
        # 2100 users x 500 items: more user-item cells than a dense system
        # of the graph could hold in a million, checked all the same.
        instance = tmp_path / "syn"
        run("synth", "--users", "2100", "--items", "500", "--density", "0.1",
            "--bias-range=-0.1:0.1", "--seed", "11", "--out", instance)
        ratings = instance / "ratings.csv"
        graph = ingest_ratings(ratings)
        assert graph.num_users * graph.num_items > 1_000_000
        bias, _ = solve_linear(graph, 0.99)
        assert np.max(np.abs(bias)) > 0.01
        out = tmp_path / "oracle"
        code = run("oracle-check", "--ratings", ratings, "--alpha", "0.99",
                   "--out", out)
        assert code == 0
        payload = json.loads((out / "oracle.json").read_text())
        assert payload["status"] == "ok"
        assert payload["max_bias_diff"] <= payload["tolerance"]
        assert payload["max_rating_diff"] <= payload["tolerance"]


class TestParsing:
    def test_float_flags_listed(self):
        parser = cli.build_parser()
        commands = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        typed = {
            (command, max(action.option_strings, key=len))
            for command, sub in commands.choices.items()
            for action in sub._actions
            if action.type in (float, cli._finite_float)
        }
        assert typed == set(FLOAT_FLAGS)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize(
        "command, flag", FLOAT_FLAGS, ids=[f"{c}{f}" for c, f in FLOAT_FLAGS]
    )
    def test_non_finite_float_flag_refused(
        self, tmp_path, two_user_file, capsys, command, flag, value
    ):
        out = tmp_path / "run"
        argv = command_argv(command, tmp_path, two_user_file)
        # "--flag=-inf", since a lone "-inf" would parse as an option.
        assert run(*argv, f"{flag}={value}", "--out", out) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: expected a finite number, got {value!r}" in err
        assert not out.exists()

    def test_float_flag_not_a_number(self, tmp_path, two_user_file, capsys):
        code = run("solve", "--ratings", two_user_file, "--epsilon", "tiny",
                   "--out", tmp_path / "x")
        assert code == 1
        assert "argument --epsilon: expected a finite number, got 'tiny'" in (
            capsys.readouterr().err
        )

    def test_version(self, capsys):
        assert run("--version") == 0
        assert "truerating" in capsys.readouterr().out

    def test_missing_required_flags(self, capsys):
        assert run("solve") == 1
        assert "required" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert run("frobnicate") == 1

    def test_bad_scale_format(self, tmp_path, two_user_file):
        code = run(
            "solve", "--ratings", two_user_file, "--scale", "five-stars",
            "--out", tmp_path / "x",
        )
        assert code == 1
