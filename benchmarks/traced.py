"""Traced run of one workload's CLI command, one span per layer call.

run.py starts this as a child process with ``PYTHONPATH=src``:

    python3 benchmarks/traced.py SPEC.json RESULT.json

SPEC.json holds the workload's `Inputs`, an output directory and a run id.
The child runs the real ``truerating.cli.main`` on the workload's command
line inside a ``command`` span, with the public functions of `ingest`,
`graph`, `solver` and `evaluate` that `cmd_solve` / `cmd_eval` call wrapped
in spans, so the layers are timed in exactly the order and with exactly the
arguments the CLI uses. The wrappers live here and are removed again after
the command; the program's source is not instrumented. Then, inside a
``probes`` span, it times what the command does not run on its own: graph
construction from triples and from arrays, solver set-up, threaded solves,
ground truth and a report where the command has none, and a tracemalloc'd
ingest.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import truerating as tr
from truerating import cli
from check import read_ratings
from spans import Recorder
from workloads import Inputs

MB = 2**20

#: Public functions the CLI commands call, by their name in `truerating.cli`.
TRACED_FUNCTIONS = (
    "ingest_ratings", "ingest_ground_truth", "write_scores_csv", "solve",
    "build_report",
)
#: Public methods the CLI commands call.
TRACED_METHODS = ((tr.RatingGraph, "item_means"),)


@contextmanager
def instrumented(rec: Recorder, calls: list):
    """Wrap the traced calls where `truerating.cli` binds them.

    Each call appends ``(span, args, result)`` to `calls`.
    """
    def wrap(original, name):
        @functools.wraps(original)
        def timed(*args, **kwargs):
            with rec.span(name) as span:
                result = original(*args, **kwargs)
            calls.append((span, args, result))
            return result
        return timed

    undo = []
    for name in TRACED_FUNCTIONS:
        original = getattr(cli, name)
        layer = original.__module__.rsplit(".", 1)[-1]
        setattr(cli, name, wrap(original, f"{layer}.{name}"))
        undo.append((cli, name, original))
    for cls, name in TRACED_METHODS:
        original = getattr(cls, name)
        layer = cls.__module__.rsplit(".", 1)[-1]
        setattr(cls, name, wrap(original, f"{layer}.{name}"))
        undo.append((cls, name, original))
    try:
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def _calls(calls, name):
    return [c for c in calls if c[0].name == name]


def probes(rec: Recorder, inputs: Inputs, graph, solved) -> dict:
    """Layers timed off the command's path; returns what they measured."""
    users, items, weights = read_ratings(inputs)
    triples = list(zip(map(str, users.tolist()), map(str, items.tolist()),
                       weights.tolist()))
    del users, items, weights
    with rec.span("graph.from_edges"):
        tr.RatingGraph.from_edges(triples)
    del triples
    with rec.span("graph.RatingGraph"):
        tr.RatingGraph(graph.user_ids, graph.item_ids, graph.edge_user,
                       graph.edge_item, graph.edge_weight)
    identical = True
    for config, result in solved:
        idle = dataclasses.replace(config, max_iterations=0)
        for threads in (1, 2):
            with rec.span("solver.solve", threads=threads, kind="setup"):
                tr.solve(graph, idle, threads=threads)
        with rec.span("solver.solve", threads=2, kind="solve"):
            threaded = tr.solve(graph, config, threads=2)
        identical &= (
            threaded.iterations == result.iterations
            and np.array_equal(threaded.bias, result.bias)
            and np.array_equal(threaded.rating, result.rating)
        )
    report_items = 0
    if inputs.command == "solve":
        # `solve` never evaluates; time the layer on this graph anyway so
        # every workload reports it.
        with rec.span("ingest.ingest_ground_truth"):
            truth = tr.ingest_ground_truth(inputs.truth,
                                           scale=tr.RatingScale(0.0, 1.0))
        config, result = solved[0]
        with rec.span("evaluate.build_report"):
            tr.build_report(graph, result.rating, truth, label="debias",
                            bias=result.bias)
        report_items = graph.num_items
    tracemalloc.start()
    try:
        with rec.span("ingest.ingest_ratings", tracemalloc=True):
            tr.ingest_ratings(inputs.ratings, fmt=tr.DelimitedFormat("::"),
                              scale=tr.RatingScale(1.0, 5.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"threads_identical": identical, "peak_alloc": peak,
            "report_items": report_items}


def _graph_arrays(graph) -> list[np.ndarray]:
    names = getattr(type(graph), "__slots__", None) or vars(graph)
    arrays = (getattr(graph, n, None) for n in names)
    return [a for a in arrays if isinstance(a, np.ndarray)]


def bytes_per_iter(graph) -> int:
    """Computed, not measured: bytes one iteration must read and write.

    Every edge-length array of the graph once, the per-edge damping factor
    and the two per-edge gathers (bias by rater, rating by item), and the
    rating and bias vectors with their degree divisors, each read and
    written once.
    """
    edges, nodes = graph.num_edges, graph.num_items + graph.num_users
    edge_arrays = sum(a.nbytes for a in _graph_arrays(graph) if a.size == edges)
    return int(edge_arrays + 3 * 8 * edges + 4 * 8 * nodes)


def _count_lines(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(block.count(b"\n")
                   for block in iter(lambda: handle.read(1 << 20), b""))


def layer_metrics(rec, cmd, calls, inputs, graph, solved, probed) -> dict:
    iterations = sum(r.iterations for _, r in solved)
    solve_s = rec.total("solver.solve", under=cmd)
    setup_s = rec.total("solver.solve", kind="setup", threads=1)
    # Per-iteration cost from the iterations actually run, never from the
    # requested cap: a solve may stop early.
    iter_s = (solve_s - setup_s) / iterations
    iter_s_t2 = (
        rec.total("solver.solve", kind="solve", threads=2)
        - rec.total("solver.solve", kind="setup", threads=2)
    ) / iterations
    margin = min(
        tr.SolverConfig(alpha=c.alpha, epsilon=c.epsilon).max_iterations
        - r.iterations
        for c, r in solved
    )
    written = sum(Path(args[0]).stat().st_size for _, args, _
                  in _calls(calls, "ingest.write_scores_csv"))
    reports = _calls(calls, "evaluate.build_report")
    return {
        "ingest.ingest_ratings_s": rec.total("ingest.ingest_ratings", under=cmd),
        "ingest.lines": _count_lines(inputs.ratings),
        "ingest.peak_alloc_mb": probed["peak_alloc"] / MB,
        "ingest.write_scores_s": rec.total("ingest.write_scores_csv", under=cmd),
        "ingest.bytes_written": written,
        "ingest.ground_truth_s": rec.total("ingest.ingest_ground_truth"),
        "graph.build_s": rec.total("graph.RatingGraph"),
        "graph.from_edges_s": rec.total("graph.from_edges"),
        "graph.array_mb": sum(a.nbytes for a in _graph_arrays(graph)) / MB,
        "graph.users": graph.num_users,
        "graph.items": graph.num_items,
        "graph.edges": graph.num_edges,
        "solver.solve_s": solve_s,
        "solver.setup_s": setup_s,
        "solver.iterations": iterations,
        "solver.iter_s": iter_s,
        "solver.ns_per_edge_iter": iter_s / graph.num_edges * 1e9,
        "solver.bytes_per_iter": bytes_per_iter(graph),
        "solver.default_cap_margin": margin,
        "solver.clamped": int(any(r.clamped for _, r in solved)),
        "solver.iter_s_t2": iter_s_t2,
        "evaluate.build_report_s": rec.total("evaluate.build_report"),
        "evaluate.items": sum(c[1][0].num_items for c in reports)
        + probed["report_items"],
    }


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    inputs = Inputs.from_dict(spec["inputs"])
    rec = Recorder(inputs.name, spec["run"])
    calls: list = []
    with instrumented(rec, calls), rec.span("command") as cmd:
        code = cli.main(inputs.cli_args(Path(spec["out"])))
    if code != 0:
        print(f"traced command exited {code}", file=sys.stderr)
        return 1
    solved = [(args[1], result) for _, args, result
              in _calls(calls, "solver.solve")]
    graph = _calls(calls, "ingest.ingest_ratings")[0][2]
    with rec.span("probes"):
        probed = probes(rec, inputs, graph, solved)
    result = {
        "command_start": cmd.start,
        "command_end": cmd.end,
        "command_self_s": rec.self_time(cmd),
        "threads_identical": probed["threads_identical"],
        "metrics": layer_metrics(rec, cmd, calls, inputs, graph, solved,
                                 probed),
        "spans": rec.to_list(),
    }
    Path(result_path).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
