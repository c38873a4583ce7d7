"""Acceptance suite: one test per shipping criterion.

Each test prints a single ``[acceptance]`` line (visible under ``pytest -s``)
and then asserts, so a red run shows exactly which guarantee broke and by
how much. Criteria with a stated runtime budget time themselves and fail
when they blow it.
"""

import os
import time

import numpy as np

from truerating import (
    RatingGraph,
    SolverConfig,
    build_report,
    generate_planted,
    ingest_ground_truth,
    ingest_ratings,
    iterations_needed,
    solve,
    solve_linear,
)

from conftest import make_random_graph

ALPHAS = (0.2, 0.5, 0.99)


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def _fully_trusted(graph: RatingGraph) -> dict[int, float]:
    return {i: 0.0 for i in range(graph.num_users)}


def test_criterion_1_contraction_bound():
    # Every iteration's L-infinity bias delta must sit under 2*alpha^t
    # (t = 1-based iteration index), across >=100 small random graphs.
    start = time.perf_counter()
    rng = np.random.default_rng(20260825)
    worst = 0.0
    violations = 0
    graphs = 0
    for index in range(105):
        nu = int(rng.integers(15, 51))
        ni = int(rng.integers(15, 51))
        density = float(rng.uniform(0.25, 1.0))
        sigma = 0.01 if index % 2 else 0.0
        instance = generate_planted(
            nu, ni, density,
            bias_range=(-0.12, 0.12),
            quality_range=(0.3, 0.7),
            noise_sigma=sigma,
            seed=int(rng.integers(2**31)),
        )
        graphs += 1
        for alpha in ALPHAS:
            budget = min(60, iterations_needed(alpha, 1e-12))
            config = SolverConfig(
                alpha=alpha, epsilon=1e-300, max_iterations=budget
            )
            result = solve(instance.graph, config)
            for stat in result.trace:
                bound = 2.0 * alpha**stat.iteration
                ratio = stat.linf_bias_delta / bound
                worst = max(worst, ratio)
                if stat.linf_bias_delta > bound:
                    violations += 1
    elapsed = time.perf_counter() - start
    ok = graphs >= 100 and violations == 0 and elapsed < 10.0
    _report(
        1, "contraction bound", ok,
        f"{graphs} graphs x {len(ALPHAS)} alphas, {violations} violations, "
        f"worst delta/bound {worst:.3f}, {elapsed:.2f}s (budget 10s)",
    )


def test_criterion_2_unique_fixed_point():
    # Runs seeded at zero and at random bias must land on the same answer
    # once the budget for epsilon = 1e-7 is spent.
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    for index in range(20):
        nu = int(rng.integers(15, 31))
        ni = int(rng.integers(15, 31))
        density = float(rng.uniform(0.3, 1.0))
        instance = generate_planted(
            nu, ni, density,
            bias_range=(-0.4, 0.4),
            quality_range=(0.2, 0.8),
            noise_sigma=0.1,
            seed=int(rng.integers(2**31)),
        )
        alpha = ALPHAS[index % 3]
        budget = iterations_needed(alpha, 1e-7)
        config = SolverConfig(alpha=alpha, epsilon=1e-300, max_iterations=budget)
        from_zero = solve(instance.graph, config)
        from_random = solve(
            instance.graph, config, initial_bias=rng.uniform(-1.0, 1.0, nu)
        )
        worst = max(
            worst,
            float(np.max(np.abs(from_zero.bias - from_random.bias))),
            float(np.max(np.abs(from_zero.rating - from_random.rating))),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    _report(
        2, "unique fixed point", ok,
        f"20 graphs, worst init-to-init gap {worst:.2e} (limit 1e-06), "
        f"{elapsed:.2f}s (budget 10s)",
    )


def test_criterion_3_linear_oracle_equivalence():
    # On clamp-free instances the iterative fixed point must match the
    # linear solve to 1e-8 in L-infinity.
    start = time.perf_counter()
    rng = np.random.default_rng(33)
    worst = 0.0
    clamped = 0
    for index in range(20):
        nu = int(rng.integers(10, 51))
        ni = int(rng.integers(10, 51))
        density = float(rng.uniform(0.4, 1.0))
        instance = generate_planted(
            nu, ni, density,
            bias_range=(-0.15, 0.15),
            quality_range=(0.2, 0.8),
            noise_sigma=0.0,
            seed=int(rng.integers(2**31)),
        )
        alpha = ALPHAS[index % 3]
        epsilon = 1e-11 if alpha == 0.99 else 1e-12
        result = solve(instance.graph, SolverConfig(alpha=alpha, epsilon=epsilon))
        clamped += int(result.clamped)
        oracle_bias, oracle_rating = solve_linear(instance.graph, alpha)
        worst = max(
            worst,
            float(np.max(np.abs(result.bias - oracle_bias))),
            float(np.max(np.abs(result.rating - oracle_rating))),
        )
    elapsed = time.perf_counter() - start
    ok = clamped == 0 and worst <= 1e-8 and elapsed < 5.0
    _report(
        3, "linear oracle equivalence", ok,
        f"20 clamp-free graphs ({clamped} clamped), worst diff {worst:.2e} "
        f"(limit 1e-08), {elapsed:.2f}s (budget 5s)",
    )


def test_criterion_4_complete_graph_recovery():
    # Complete noiseless instances are identifiable up to the mean planted
    # bias: solver output must match the shift-adjusted plant to 10*epsilon.
    start = time.perf_counter()
    epsilon = 1e-10
    worst = 0.0
    cases = [(20, 15, 41), (12, 30, 42), (25, 25, 43)]
    for nu, ni, seed in cases:
        instance = generate_planted(
            nu, ni, 1.0,
            bias_range=(-0.2, 0.2),
            quality_range=(0.3, 0.7),
            noise_sigma=0.0,
            seed=seed,
        )
        shift = float(np.mean(instance.true_bias))
        for alpha in ALPHAS:
            result = solve(
                instance.graph, SolverConfig(alpha=alpha, epsilon=epsilon)
            )
            assert result.converged and not result.clamped
            worst = max(
                worst,
                float(np.max(np.abs(result.bias - (instance.true_bias - shift)))),
                float(
                    np.max(np.abs(result.rating - (instance.true_rating + shift)))
                ),
            )
    elapsed = time.perf_counter() - start
    ok = worst <= 10.0 * epsilon and elapsed < 5.0
    _report(
        4, "complete-graph recovery", ok,
        f"{len(cases)} instances x {len(ALPHAS)} alphas, worst shift-adjusted "
        f"error {worst:.2e} (limit {10.0 * epsilon:.0e}), {elapsed:.2f}s (budget 5s)",
    )


def test_criterion_5_trusted_users_degenerate_to_means():
    # With every user fully trusted (per-user damping zero) the solver's
    # ratings must equal the raw per-item means bit for bit.
    graphs = [make_random_graph(seed) for seed in (1, 2, 3)]
    graphs.append(
        RatingGraph.from_edges(
            [
                ("u1", "a", 1.0), ("u1", "b", 1.0), ("u1", "c", 0.1),
                ("u2", "a", 0.2), ("u2", "b", 0.2), ("u2", "c", 0.1),
            ]
        )
    )
    exact = 0
    for graph in graphs:
        config = SolverConfig(alpha=0.99, alpha_overrides=_fully_trusted(graph))
        result = solve(graph, config)
        if result.converged and np.array_equal(result.rating, graph.item_means()):
            exact += 1
    ok = exact == len(graphs)
    _report(
        5, "trusted users give plain means", ok,
        f"{exact}/{len(graphs)} graphs bit-exact against per-item means",
    )


def test_criterion_6_per_iteration_cost_linear():
    # A 50-iteration single-threaded solve on a million-edge graph stays
    # under a minute, and per-iteration cost per edge is flat within 2x
    # when the edge count doubles.
    base = generate_planted(
        2000, 1000, 0.5,
        bias_range=(-0.2, 0.2), quality_range=(0.3, 0.7),
        noise_sigma=0.05, seed=601,
    )
    double = generate_planted(
        2000, 2000, 0.501,
        bias_range=(-0.2, 0.2), quality_range=(0.3, 0.7),
        noise_sigma=0.05, seed=602,
    )
    assert base.graph.num_edges >= 10**6
    assert double.graph.num_edges >= 2 * 10**6

    config = SolverConfig(alpha=0.99, epsilon=1e-300, max_iterations=50)
    start = time.perf_counter()
    solve(base.graph, config)
    fifty_iters = time.perf_counter() - start

    def per_edge_second(graph):
        probe = SolverConfig(alpha=0.99, epsilon=1e-300, max_iterations=10)
        best = min(
            _timed(lambda: solve(graph, probe)) for _ in range(3)
        )
        return best / 10.0 / graph.num_edges

    ratio = per_edge_second(double.graph) / per_edge_second(base.graph)
    ok = fifty_iters < 60.0 and 0.5 <= ratio <= 2.0
    _report(
        6, "linear per-iteration cost", ok,
        f"50 iterations on {base.graph.num_edges} edges in {fifty_iters:.2f}s "
        f"(budget 60s); per-edge cost ratio at {double.graph.num_edges} edges "
        f"{ratio:.2f} (limits [0.5, 2.0])",
    )


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_7_higher_damping_converges_slower():
    # On one fixed graph, iterations to reach L1 delta < 1e-6 must not
    # decrease as alpha grows.
    instance = generate_planted(
        60, 60, 0.1,
        bias_range=(-0.3, 0.3), quality_range=(0.35, 0.65),
        noise_sigma=0.05, seed=11,
    )
    counts = []
    for alpha in ALPHAS:
        result = solve(instance.graph, SolverConfig(alpha=alpha, epsilon=1e-6))
        assert result.converged
        counts.append(result.iterations)
    ok = all(a <= b for a, b in zip(counts, counts[1:]))
    _report(
        7, "slower convergence at higher damping", ok,
        f"iterations over alpha {ALPHAS}: {tuple(counts)}",
    )


def test_criterion_8_debiasing_beats_mean_baseline():
    # Preferred form: reproduce the published numbers on the original
    # evaluation datasets, supplied via environment variables. Fallback
    # (always available): on dense noisy planted instances, debias(0.99)
    # must beat the mean baseline on MSE in at least 18 of 20 seeds.
    ratings_path = os.environ.get("TRUERATING_DATASET2")
    truth_path = os.environ.get("TRUERATING_DATASET2_TRUTH")
    if ratings_path and truth_path:
        _dataset_branch(ratings_path, truth_path)
        return

    wins = 0
    worst_margin = None
    for seed in range(20):
        instance = generate_planted(
            60, 60, 0.8,
            bias_range=(-0.3, 0.3), quality_range=(0.35, 0.65),
            noise_sigma=0.05, seed=seed,
        )
        truth = dict(zip(instance.graph.item_ids, instance.true_rating))
        mean_mse = build_report(
            instance.graph, instance.graph.item_means(), truth, label="mean"
        ).mse_overall
        result = solve(instance.graph, SolverConfig(alpha=0.99, epsilon=1e-9))
        debias_mse = build_report(
            instance.graph, result.rating, truth, label="debias"
        ).mse_overall
        margin = mean_mse - debias_mse
        worst_margin = margin if worst_margin is None else min(worst_margin, margin)
        wins += int(debias_mse <= mean_mse)
    ok = wins >= 18
    _report(
        8, "debiasing beats mean baseline", ok,
        f"planted fallback (original datasets not configured): {wins}/20 seeds "
        f"won, worst MSE margin {worst_margin:.2e}",
    )


def _dataset_branch(ratings_path: str, truth_path: str) -> None:
    graph = ingest_ratings(ratings_path)
    truth = ingest_ground_truth(truth_path)
    mean_report = build_report(graph, graph.item_means(), truth, label="mean")
    result = solve(graph, SolverConfig(alpha=0.99, epsilon=1e-6))
    debias_report = build_report(
        graph, result.rating, truth, label="debias(α=0.99)", bias=result.bias
    )
    low = [v for b, v in debias_report.relbindev.items() if b <= 2]
    high = [v for b, v in debias_report.relbindev.items() if b >= 10]
    separation = (
        float(np.mean(low)) / float(np.mean(high)) if low and high else 0.0
    )
    ok = (
        abs(mean_report.mse_overall - 0.142) <= 0.005
        and abs(debias_report.mse_overall - 0.129) <= 0.005
        and separation >= 5.0
    )
    _report(
        8, "debiasing beats mean baseline", ok,
        f"dataset branch: mean MSE {mean_report.mse_overall:.3f} (target "
        f"0.142±0.005), debias MSE {debias_report.mse_overall:.3f} (target "
        f"0.129±0.005), sparse/dense relbindev ratio {separation:.1f} (>=5)",
    )
