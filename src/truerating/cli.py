"""Command-line front end.

Subcommands:

* ``solve``        debias a rating file; writes bias.csv, ratings.csv,
                   trace.json, manifest.json
* ``eval``         compare the mean baseline and one solve per damping
                   factor against a ground-truth file; writes report.json,
                   per-bin CSV tables, per-method rating CSVs
* ``synth``        generate a planted instance; writes ratings.csv,
                   truth.csv, planted_bias.csv
* ``oracle-check`` cross-check the iterative solver against the matrix-free
                   linear solution; writes oracle.json

Exit codes: 0 success, 2 stopped at max iterations without converging,
3 oracle check inapplicable because the returned iterate clamps (its
ratings clipped a weight), 1 any other error.
Identical command lines over identical inputs produce byte-identical CSV
outputs on one machine, at any BLAS thread count; identity across machines
is unverified, since numpy's SIMD loops may differ between CPUs. A run
writes its outputs, and last a manifest that records how to reproduce it,
under temporary names, and renames them all into place together once the
manifest is written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .evaluate import align_truth, build_report
from .graph import RatingGraph, RatingScale
from .ingest import (
    MOVIELENS_FORMAT,
    _NUMBER,
    DelimitedFormat,
    IngestError,
    _check_plain_ids,
    _match_ids,
    ingest_ground_truth,
    ingest_ratings,
    write_ratings_csv,
    write_scores_csv,
)
from .oracle import residual_linf, solve_linear
from .solver import SolverConfig, solve
from .synth import generate_planted

__all__ = ["build_parser", "main"]


def _now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, allow_nan=False)
        handle.write("\n")


class _StagedPath(os.PathLike):
    """An output file's path: its temporary name until `_staged` renames
    the file into place, its final name after. So a caller that keeps the
    path, such as the tracer in ``benchmarks/traced.py``, finds the file
    at it once the command has succeeded."""

    def __init__(self, final: Path) -> None:
        self.final = final
        self.temporary = final.with_name(final.name + ".tmp")
        self.placed = False

    def __fspath__(self) -> str:
        return str(self.final if self.placed else self.temporary)


@contextmanager
def _staged(outdir: Path):
    """Yield ``name -> path`` and the list of staged paths: each output
    file is written under a temporary name in `outdir`.

    The first call creates `outdir` and deletes a manifest left there, so
    a run that fails before its first write creates nothing, and one that
    fails later never leaves new outputs next to an earlier run's
    manifest. When the block ends, every file is renamed into place in
    the order it was staged, so a failed write leaves no new output under
    a final name. Temporaries still there after an error, in the block or
    in a rename, are deleted.
    """
    staged: list[_StagedPath] = []

    def stage(name: str) -> _StagedPath:
        if not staged:
            outdir.mkdir(parents=True, exist_ok=True)
            (outdir / "manifest.json").unlink(missing_ok=True)
        staged.append(_StagedPath(outdir / name))
        return staged[-1]

    try:
        yield stage, staged
        for path in staged:
            os.replace(path.temporary, path.final)
            path.placed = True
    finally:
        for path in staged:
            path.temporary.unlink(missing_ok=True)


#: The flags that name a file a command reads: the manifest's ``inputs``.
_INPUT_FLAGS = ("ratings", "truth", "alpha_overrides", "seed_bias")


def _run(args) -> int:
    """Run one ``cmd_*`` and write its manifest; returns the exit code.

    The command gets the stager of the run's one `_staged` block and
    returns its exit code and its ``results`` dict. ``manifest.json`` is
    built here and only here: ``inputs`` and ``params`` are the parsed
    flags as given, in the parser's order, all but ``--out``, with
    ``outdir`` and each input path made absolute. Rerunning with the
    recorded command, inputs and params, from any directory, reproduces
    every output byte for byte; only the timing fields differ. The
    manifest is the last file staged, so the outputs and the manifest are
    renamed into place together, and a command that raises leaves neither.
    """
    started = time.monotonic()
    started_at = _now_iso()
    outdir = Path(args.out)
    flags = {
        key: value for key, value in vars(args).items()
        if key not in ("command", "func", "out")
    }
    with _staged(outdir) as (out, staged):
        code, results = args.func(args, out)
        _write_json(out("manifest.json"), {
            "command": args.command,
            "version": __version__,
            "outdir": os.path.abspath(outdir),
            "inputs": {
                k: None if v is None else os.path.abspath(v)
                for k, v in flags.items() if k in _INPUT_FLAGS
            },
            "params": {k: v for k, v in flags.items() if k not in _INPUT_FLAGS},
            "outputs": [p.final.name for p in staged],
            "results": {**results, "exit_code": code},
            "started_at": started_at,
            "finished_at": _now_iso(),
            "wall_seconds": round(time.monotonic() - started, 6),
        })
    return code


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")
    try:
        return float(lo), float(hi)
    except ValueError:
        raise ValueError(f"bad {what} {text!r}; expected lo:hi") from None


def _parse_scale(text: str, flag: str) -> RatingScale:
    pair = _parse_pair(text, flag)
    try:
        return RatingScale(*pair)
    except ValueError as exc:
        raise ValueError(f"bad {flag} {text!r}: {exc}") from None


def _user_values(
    path: str, graph: RatingGraph, what: str, lo: float, hi: float,
    missing: float = np.nan,
) -> np.ndarray:
    """Read a ``user_id,value`` file as a per-user vector, `missing` where
    the file gives a user no value; raise `IngestError` at the first row
    whose user is absent from the graph or whose value lies outside
    [`lo`, `hi`]."""
    table = ingest_ground_truth(path)
    rows, given = _match_ids(graph.user_ids, table)
    absent = np.ones(len(table), bool)
    absent[rows[given]] = False
    bad = absent | (table.scores < lo) | (table.scores > hi)
    if bad.any():
        row = int(np.argmax(bad))
        user, value = list(table)[row], table.scores[row].item()
        raise IngestError(
            path,
            int(table.lines[row]),
            f"user {user!r} is absent from the graph" if absent[row]
            else f"{what} {value} for user {user!r} outside [{lo}, {hi}]",
        )
    values = np.full(graph.num_users, missing)
    values[given] = table.scores[rows[given]]
    return values


def _alpha_overrides(
    path: str | None, graph: RatingGraph, alpha: float
) -> dict[int, float] | None:
    if path is None:
        return None
    values = _user_values(path, graph, "alpha override", 0, alpha)
    given = np.flatnonzero(~np.isnan(values))
    return dict(zip(given.tolist(), values[given].tolist()))


def _ingest(args) -> RatingGraph:
    return ingest_ratings(
        args.ratings,
        fmt=DelimitedFormat(args.delimiter),
        scale=_parse_scale(args.scale, "--scale"),
        duplicate_policy=args.duplicates,
    )


def _trace_json(result) -> list[dict]:
    return [
        {
            "iter": s.iteration,
            "l1_bias_delta": s.l1_bias_delta,
            "linf_bias_delta": s.linf_bias_delta,
            "l1_rating_delta": s.l1_rating_delta,
        }
        for s in result.trace
    ]


def _solve_record(result, config: SolverConfig) -> dict:
    """How one solve went, and the iteration cap it ran under, as the
    manifest records it."""
    keys = ("converged", "iterations", "sweeps", "clamped")
    record = {key: getattr(result, key) for key in keys}
    return {**record, "max_iterations": config.max_iterations}


def cmd_solve(args, out) -> tuple[int, dict]:
    # Validate parameters and read inputs before creating any output.
    base = SolverConfig(
        alpha=args.alpha, epsilon=args.epsilon, max_iterations=args.max_iters
    )
    graph = _ingest(args)
    _check_plain_ids(graph.user_ids + graph.item_ids)
    overrides = _alpha_overrides(args.alpha_overrides, graph, base.alpha)
    config = replace(base, alpha_overrides=overrides)
    initial = None
    if args.seed_bias is not None:
        initial = _user_values(args.seed_bias, graph, "seed bias", -1, 1, 0.0)

    result = solve(graph, config, initial_bias=initial)

    write_scores_csv(
        out("bias.csv"),
        ("user_id", "bias"),
        graph.user_ids,
        result.bias,
    )
    write_scores_csv(
        out("ratings.csv"),
        ("item_id", "true_rating"),
        graph.item_ids,
        result.rating,
    )
    _write_json(out("trace.json"), _trace_json(result))

    code = 0 if result.converged else 2
    if not result.converged:
        print(
            f"did not converge within {config.max_iterations} iterations",
            file=sys.stderr,
        )
    results = {
        **_solve_record(result, config),
        "users": graph.num_users,
        "items": graph.num_items,
        "edges": graph.num_edges,
    }
    return code, results


def cmd_eval(args, out) -> tuple[int, dict]:
    alphas = args.alpha or [0.99]
    configs = [
        SolverConfig(alpha=a, epsilon=args.epsilon, max_iterations=args.max_iters)
        for a in alphas
    ]
    # Each solve writes files named by its tag; two solves must not share.
    tags = [f"{a:g}" for a in alphas]
    for i, tag in enumerate(tags):
        if tag in tags[:i]:
            raise ValueError(
                f"--alpha {alphas[tags.index(tag)]} and {alphas[i]} share the "
                f"output tag alpha_{tag}"
            )
    truth_scale = _parse_scale(args.truth_scale, "--truth-scale")
    graph = _ingest(args)
    _check_plain_ids(graph.item_ids)
    truth = align_truth(
        graph, ingest_ground_truth(args.truth, scale=truth_scale)
    )

    means = truth.item_means
    methods = [
        (build_report(graph, means, truth, label="mean"), "mean", means)
    ]
    solves: dict[str, dict] = {}
    for config, tag in zip(configs, tags):
        result = solve(graph, config)
        report = build_report(
            graph, result.rating, truth, label=f"debias(α={tag})",
            bias=result.bias,
        )
        methods.append((report, f"alpha_{tag}", result.rating))
        solves[f"alpha_{tag}"] = _solve_record(result, config)

    for report, tag, rating in methods:
        write_scores_csv(
            out(f"ratings_{tag}.csv"),
            ("item_id", "true_rating"),
            graph.item_ids,
            rating,
        )
        with open(out(f"bins_{tag}.csv"), "w", encoding="utf-8", newline="") as fh:
            fh.write("bin,metric,value\n")
            for metric, table in (
                ("bindev", report.bindev),
                ("relbindev", report.relbindev),
                ("mse", report.mse_per_bin),
                ("rank_error", report.rank_error_per_bin),
            ):
                for bin_index in sorted(table):
                    value = _NUMBER.format(table[bin_index])
                    fh.write(f"{bin_index},{metric},{value}\n")

    payload = {
        "methods": [report.to_dict() for report, *_ in methods],
        "unmatched_truth_items": truth.unmatched,
    }
    _write_json(out("report.json"), payload)

    return 0, {"solves": solves, "common_items": methods[0][0].common_items}


def cmd_synth(args, out) -> tuple[int, dict]:
    instance = generate_planted(
        args.users,
        args.items,
        args.density,
        bias_range=_parse_pair(args.bias_range, "bias range"),
        quality_range=_parse_pair(args.quality_range, "quality range"),
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    write_ratings_csv(instance.graph, out("ratings.csv"))
    write_scores_csv(
        out("truth.csv"),
        ("item_id", "true_rating"),
        instance.graph.item_ids,
        instance.true_rating,
    )
    write_scores_csv(
        out("planted_bias.csv"),
        ("user_id", "bias"),
        instance.graph.user_ids,
        instance.true_bias,
    )
    return 0, {"edges": instance.graph.num_edges}


def cmd_oracle_check(args, out) -> tuple[int, dict]:
    if not args.tolerance > 0.0:
        raise ValueError(f"tolerance must be positive, got {args.tolerance}")
    # Run the iterative side well past the comparison tolerance: stopping at
    # L1 delta eps leaves at most alpha/(1-alpha)*eps distance to the fixed
    # point, so eps = tol*(1-alpha)/10 keeps iteration error negligible.
    epsilon = max(args.tolerance * (1.0 - args.alpha) / 10.0, 1e-15)
    config = SolverConfig(alpha=args.alpha, epsilon=epsilon)
    graph = _ingest(args)
    result = solve(graph, config)

    status = "ok"
    code = 0
    max_bias_diff = None
    max_rating_diff = None
    residual = None
    if result.clamped:
        status, code = "clamped", 3
    elif not result.converged:
        status, code = "non-converged", 2
    else:
        oracle_bias, oracle_rating = solve_linear(graph, args.alpha)
        residual = residual_linf(graph, args.alpha, oracle_bias, oracle_rating)
        max_bias_diff = float(np.max(np.abs(result.bias - oracle_bias)))
        max_rating_diff = float(np.max(np.abs(result.rating - oracle_rating)))
        if max(max_bias_diff, max_rating_diff) > args.tolerance:
            status, code = "mismatch", 1

    _write_json(
        out("oracle.json"),
        {
            "status": status,
            "alpha": args.alpha,
            "tolerance": args.tolerance,
            "max_bias_diff": max_bias_diff,
            "max_rating_diff": max_rating_diff,
            "oracle_residual_linf": residual,
            "iterations": result.iterations,
            "clamped": result.clamped,
        },
    )
    if status != "ok":
        print(f"oracle check: {status}", file=sys.stderr)
    return code, {"status": status, "epsilon": epsilon}


def _finite_float(text: str) -> float:
    """The ``type=`` of every float flag: refuses text that is not a
    number, and infinities and NaN, which no parameter accepts."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    # Usage errors exit 1; the default of 2 would collide with the
    # "stopped without converging" status.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ratings", required=True, help="rating file to ingest")
    parser.add_argument(
        "--scale",
        default="1:5",
        metavar="LO:HI",
        help="raw rating scale mapped linearly onto [0,1] (default 1:5; "
        "ignored for canonical user_id,item_id,weight CSV input)",
    )
    parser.add_argument(
        "--delimiter",
        default=MOVIELENS_FORMAT.delimiter,
        help='field separator for raw rating files (default "::")',
    )
    parser.add_argument(
        "--duplicates",
        choices=("strict", "keep_first"),
        default="strict",
        help="how to treat repeated (user,item) ratings (default strict)",
    )
    parser.add_argument("--out", required=True, help="output directory")


def _add_stopping_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epsilon", type=_finite_float, default=1e-6,
                        help="L1 stopping threshold on bias change")
    parser.add_argument(
        "--max-iters",
        type=int,
        default=None,
        help="iteration cap (default: iterations_needed(alpha, epsilon))",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="truerating",
        description="Remove per-user bias from bipartite rating graphs.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute per-user bias and true ratings")
    _add_input_flags(p)
    p.add_argument("--alpha", type=_finite_float, default=0.99,
                   help="damping factor")
    p.add_argument(
        "--alpha-overrides",
        metavar="FILE",
        help="CSV of user_id,alpha rows; each value in [0, alpha]",
    )
    _add_stopping_flags(p)
    p.add_argument(
        "--seed-bias",
        metavar="FILE",
        help="CSV of user_id,bias rows, each in [-1, 1], to start from, such "
        "as an earlier run's bias.csv; unlisted users start at 0 "
        "(default: every user at 0)",
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "eval", help="score the mean baseline and solver against ground truth"
    )
    _add_input_flags(p)
    p.add_argument("--truth", required=True, help="item_id,score CSV")
    p.add_argument(
        "--truth-scale",
        default="0:1",
        metavar="LO:HI",
        help="raw scale of truth scores (default 0:1)",
    )
    p.add_argument(
        "--alpha",
        type=_finite_float,
        action="append",
        help="damping factor; repeat for several methods (default 0.99)",
    )
    _add_stopping_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a planted synthetic instance")
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--items", type=int, required=True)
    p.add_argument("--density", type=_finite_float, required=True)
    p.add_argument("--bias-range", default="-0.25:0.25", metavar="LO:HI")
    p.add_argument("--quality-range", default="0.25:0.75", metavar="LO:HI")
    p.add_argument("--noise-sigma", type=_finite_float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "oracle-check",
        help="compare the iterative solve against the conjugate-gradient "
        "linear solution",
    )
    _add_input_flags(p)
    p.add_argument("--alpha", type=_finite_float, default=0.99)
    p.add_argument("--tolerance", type=_finite_float, default=1e-8,
                   help="max allowed L-infinity difference")
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    try:
        return _run(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
