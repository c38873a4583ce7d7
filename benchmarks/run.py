"""Benchmark of the truerating CLI: end-to-end and per-layer numbers.

Run from the repository root:

    python3 benchmarks/run.py --workload planted-250k --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --trace 0   # one table

``--trace 0`` runs the workload's CLI command (``python3 -m truerating``
with ``PYTHONPATH=src``) as a child process, one at a time, for
``--seconds`` (at least once), and reports the end-to-end metrics: median
``wall_s`` (spawn to exit), median ``setup_s`` (a fresh ``--version``,
started between the repetitions), median ``peak_rss_mb`` (``wait4``
rusage of the child).
``--trace 1`` runs the command once untraced, then once more in a traced
child (traced.py) and reports the per-layer metrics.

Every child is an operation; it fails on an unexpected exit code or a failed
output check (check.py), and ``failed / attempted`` is printed as
``failed_frac``. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Inputs come from
workloads.py, seeded by ``--seed``; their generation is timed by no metric.
Everything is written under ``.bench_work/``; spans and samples of each run
go to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import workloads
from spans import Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Timed ``--version`` starts before each repetition of the command, and
#: the fewest a run takes (after one untimed warm-up).
SETUP_PER_REP = 2
SETUP_FLOOR = 15
#: Every run stops starting children after this long and kills late ones,
#: so it ends within 180 s.
RUN_LIMIT_S = 170.0


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics a run reports, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


@dataclass
class Child:
    code: int
    start: float
    end: float
    rss_mb: float
    span_id: int | None = None

    @property
    def wall(self) -> float:
        return self.end - self.start


@dataclass
class Run:
    """One benchmark run: its children, failures and spans."""

    rec: Recorder
    deadline: float
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed: int = 0

    def spawn(self, argv: list[str], log: Path, parent=None, **attrs) -> Child:
        """Run `argv` to completion; wall time and peak RSS from wait4."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log, "wb") as out:
            start = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                    cwd=ROOT, env=env)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.attempted += 1
        rss_mb = usage.ru_maxrss / 1024     # ru_maxrss is in KiB on Linux
        span = self.rec.add("child", start, end, parent, code=proc.returncode,
                            rss_mb=rss_mb, **attrs)
        return Child(proc.returncode, start, end, rss_mb, span.id)

    def judge(self, child: Child, problems: list[str], what: str) -> None:
        """Count one operation's outcome; `problems` empty means it passed."""
        if child.code != 0:
            problems = [f"exit code {child.code}"] + problems
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def _python(*args: str) -> list[str]:
    return [sys.executable, *args]


def time_setup(run: Run, logdir: Path, parent, walls: list[float] | None) -> None:
    """One fresh ``python -m truerating --version``; its wall joins `walls`."""
    child = run.spawn(_python("-m", "truerating", "--version"),
                      logdir / "version.log", parent, kind="setup")
    text = (logdir / "version.log").read_text(errors="replace")
    run.judge(child, [] if "truerating" in text else [f"printed {text!r}"],
              "--version")
    if walls is not None:
        walls.append(child.wall)


def run_command(run: Run, inputs, rundir: Path, rep: int, parent) -> tuple[Child, Path]:
    out = rundir / f"out{rep}"
    child = run.spawn(_python("-m", "truerating", *inputs.cli_args(out)),
                      rundir / f"cli{rep}.log", parent, rep=rep)
    return child, out


def end_to_end(run: Run, inputs, model, rundir: Path, seconds: float) -> dict:
    """Repetitions of the command, each after `setup_s` samples.

    The ``--version`` starts are spread between the repetitions, so
    `setup_s` samples the same stretch of time as `wall_s`: at least
    SETUP_PER_REP before each repetition, more while SETUP_FLOOR is out of
    reach of the repetitions that should still fit, and the rest at the end.
    """
    walls, rss, setups = [], [], []
    first = None
    with run.rec.span("measure") as span:
        time_setup(run, rundir, span.id, None)   # warms the bytecode and page caches
        reps_left = SETUP_FLOOR     # unknown before the first repetition
        while True:
            for _ in range(max(SETUP_PER_REP,
                               -(-(SETUP_FLOOR - len(setups)) // reps_left))):
                time_setup(run, rundir, span.id, setups)
            child, out = run_command(run, inputs, rundir, len(walls), span.id)
            if first is None:
                problems = check.check_outputs(inputs, model, out)
                first = check.csv_digests(out)
            else:
                problems = check.check_manifest(inputs, out)
                if check.csv_digests(out) != first:
                    problems.append("CSVs differ from the first repetition")
                shutil.rmtree(out, ignore_errors=True)
            run.judge(child, problems, f"{inputs.command} rep {len(walls)}")
            walls.append(child.wall)
            rss.append(child.rss_mb)
            # Start another repetition only if it should end in time.
            longest = max(walls) + SETUP_PER_REP * max(setups)
            left = seconds - (time.monotonic() - span.start)
            if longest > left or longest > run.time_left():
                break
            reps_left = max(1, int(left // longest))
        while len(setups) < SETUP_FLOOR and run.time_left() > 10 * max(setups):
            time_setup(run, rundir, span.id, setups)
    return {
        "metrics": {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
        },
        "samples": {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss},
    }


def per_layer(run: Run, inputs, model, rundir: Path) -> dict:
    with run.rec.span("cli") as span:
        child, out = run_command(run, inputs, rundir, 0, span.id)
    run.judge(child, check.check_outputs(inputs, model, out),
              f"{inputs.command} (untraced)")
    spec = rundir / "traced_spec.json"
    result_path = rundir / "traced_result.json"
    spec.write_text(json.dumps({
        "inputs": inputs.to_dict(), "out": str(rundir / "traced_out"),
        "run": run.rec.run,
    }))
    with run.rec.span("traced") as span:
        traced = run.spawn(_python(str(HERE / "traced.py"), str(spec),
                                   str(result_path)),
                           rundir / "traced.log", span.id)
    try:
        result = json.loads(result_path.read_text())
    except (OSError, ValueError) as exc:
        run.judge(traced, [f"no result: {exc}"], "traced command")
        return {"metrics": {}}
    run.rec.merge(result["spans"], parent=traced.span_id)
    problems = []
    if not result["threads_identical"]:
        problems.append("solve at threads=2 differs from threads=1")
    if check.csv_digests(rundir / "traced_out") != check.csv_digests(out):
        problems.append("traced CSVs differ from the untraced CLI's")
    run.judge(traced, problems, "traced command")
    metrics = dict(result["metrics"])
    # What the CLI spends outside its layer calls: interpreter start and
    # imports before cli.main, then argparse and the manifest, trace.json and
    # report writes, i.e. the command span's self time.
    metrics["cli.self_s"] = (result["command_start"] - traced.start
                             + result["command_self_s"])
    # The traced command, spawn until cli.main returned, against the
    # untraced one.
    metrics["trace.overhead_s"] = result["command_end"] - traced.start - child.wall
    return {"metrics": metrics}


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 scale: str = "full") -> dict:
    """One benchmark run; returns the result record (also written to disk)."""
    run_id = f"{name}-seed{seed}-trace{trace}"
    rundir = WORK / f"{run_id}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    run = Run(Recorder(name, run_id), time.monotonic() + RUN_LIMIT_S)
    try:
        with run.rec.span("run"):
            with run.rec.span("generate"):
                inputs = workloads.generate(name, seed, rundir / "inputs", scale)
                model = check.FixedPoint(*check.read_ratings(inputs))
            if trace:
                measured = per_layer(run, inputs, model, rundir)
            else:
                measured = end_to_end(run, inputs, model, rundir, seconds)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    units = metric_units(trace)
    metrics = measured.pop("metrics")
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "scale": scale,
        "sizes": inputs.sizes,
        "correct": run.failed == 0 and set(metrics) == set(units),
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units
                    if k in metrics},
        **measured,
        "spans": run.rec.to_list(),
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_id}.json").write_text(json.dumps(record, indent=1))
    return record


def summary_line(record: dict) -> str:
    sizes = record["sizes"]
    parts = [f"{record['workload']} seed={record['seed']} users={sizes['users']}"
             f" items={sizes['items']} edges={sizes['edges']}"]
    for key, metric in record["metrics"].items():
        parts.append(f"{key}={metric['value']:.6g} {metric['unit']}")
    if "samples" in record:
        parts.append(f"(n={len(record['samples']['wall_s'])})")
    frac = record["failed"] / record["attempted"]
    parts.append(f"failed_frac={frac:g} ratio "
                 f"({record['failed']}/{record['attempted']})")
    return " ".join(parts)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "truerating" / "__init__.py").is_file():
        print(f"error: no truerating package under {SRC}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, args.trace)
        for problem in record["problems"]:
            print(f"{name}: FAILED {problem}")
        print(summary_line(record), flush=True)
        records.append(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
