"""Solver-stack ablation: caches, independence partitioning and replay (§6).

KLEE's constraint caches "can significantly improve solver performance"; in
Cloud9 "states are transferred between workers without the source worker's
cache", and the paper observes that "the necessary portion of the cache is
mostly reconstructed as a side effect of path replay".

This module measures the whole solver stack on those claims:

* ``test_ablation_constraint_caches`` -- the original two-point ablation:
  the same exploration budget with the solver caches enabled and disabled,
  plus cache reconstruction at a fresh executor after a path replay;
* ``test_solver_stack_ablation`` -- the full grid: independence
  partitioning on/off x caches on/off x backends (``single`` and the
  virtual-time ``cluster``) on two targets.  Results are written to
  ``BENCH_solver_stack.json`` at the repository root, alongside
  ``BENCH_backend_scaling.json``.

Environment knob: ``REPRO_SOLVER_BENCH_STEPS`` scales the exploration
budget (default 1200; CI smoke uses a small value).
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

from repro.api import ExplorationLimits
from repro.cluster.replay import replay_path
from repro.engine import SymbolicExecutor
from repro.solver.solver import Solver, SolverConfig
from repro.targets import printf, testcmd

from conftest import print_table, run_once

DEFAULT_STEP_BUDGET = 1200
STEP_BUDGET = int(os.environ.get("REPRO_SOLVER_BENCH_STEPS",
                                 str(DEFAULT_STEP_BUDGET)))
FORMAT_LENGTH = 3

#: Solver-stack configurations swept by the ablation grid.
SOLVER_CONFIGS = {
    "none": SolverConfig(use_constraint_cache=False,
                         use_counterexample_cache=False,
                         use_independence=False),
    "caches": SolverConfig(use_independence=False),
    "independence": SolverConfig(use_constraint_cache=False,
                                 use_counterexample_cache=False),
    "full": SolverConfig(),
}

TARGETS = {
    "printf": lambda: printf.make_symbolic_test(format_length=FORMAT_LENGTH),
    "testcmd": lambda: testcmd.make_symbolic_test(),
}

BACKENDS = ("single", "cluster")
CLUSTER_WORKERS = 2

OUTPUT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "BENCH_solver_stack.json")


# -- original two-point ablation (caches on/off + replay reconstruction) ------


def _explore(use_caches: bool):
    test = printf.make_symbolic_test(format_length=FORMAT_LENGTH)
    solver = Solver(SolverConfig(use_constraint_cache=use_caches,
                                 use_counterexample_cache=use_caches))
    executor = SymbolicExecutor(test.program, solver=solver)
    executor.run(initial_state=lambda: executor.make_initial_state(),
                 strategy="interleaved",
                 limits=ExplorationLimits(max_steps=STEP_BUDGET))
    return solver


def _replay_rebuilds_cache():
    """Explore on a source executor, replay one deep path on a destination."""
    test = printf.make_symbolic_test(format_length=FORMAT_LENGTH)
    source = SymbolicExecutor(test.program)
    result = source.run(initial_state=lambda: source.make_initial_state(),
                        strategy="dfs",
                        limits=ExplorationLimits(max_steps=STEP_BUDGET // 3))
    # Pick the longest completed path as the "transferred job".
    fork_traces = [tc.fork_trace for tc in source.test_cases if tc.fork_trace]
    if not fork_traces:
        return 0.0, result
    path = max(fork_traces, key=len)

    destination = SymbolicExecutor(test.program)
    replay_path(destination, lambda ex: ex.make_initial_state(), list(path))
    stats = destination.solver.cache_stats
    return stats["constraint_cache_hit_rate"], result


def _run_experiment():
    with_cache = _explore(use_caches=True)
    without_cache = _explore(use_caches=False)
    replay_hit_rate, _ = _replay_rebuilds_cache()

    rows = [
        ("caches enabled: solver queries", with_cache.stats.queries),
        ("caches enabled: search steps", with_cache.stats.search_steps),
        ("caches enabled: cache hits", with_cache.stats.cache_hits),
        ("caches disabled: solver queries", without_cache.stats.queries),
        ("caches disabled: search steps", without_cache.stats.search_steps),
        ("caches disabled: cache hits", without_cache.stats.cache_hits),
        ("destination cache hit rate after replay",
         "%.1f%%" % (100.0 * replay_hit_rate)),
    ]
    return with_cache, without_cache, replay_hit_rate, rows


def test_ablation_constraint_caches(benchmark):
    with_cache, without_cache, replay_hit_rate, rows = run_once(
        benchmark, _run_experiment)
    print_table(
        "Ablation -- constraint caches on/off and cache reconstruction by replay",
        ["quantity", "value"],
        rows)

    # Shape: with caches on, the solver resolves a meaningful share of
    # queries from its caches and does no more search work than without.
    # (The recent-model fast path stays on in both configurations, so the
    # disabled run may still record some hits; the persistent caches are what
    # this ablation toggles.)
    assert with_cache.stats.cache_hits > 0
    assert with_cache.stats.search_steps <= without_cache.stats.search_steps


# -- full solver-stack ablation grid ------------------------------------------


def _run_cell(target_name: str, backend: str, config_name: str) -> dict:
    test = TARGETS[target_name]()
    test.solver_config = replace(SOLVER_CONFIGS[config_name])
    if backend == "single":
        result = test.run(backend="single",
                          limits=ExplorationLimits(max_steps=STEP_BUDGET))
    else:
        result = test.run(
            backend="cluster", workers=CLUSTER_WORKERS,
            limits=ExplorationLimits(max_rounds=max(2, STEP_BUDGET // 100)),
            instructions_per_round=100)
    stats = result.cache_stats or {}
    return {
        "target": target_name,
        "backend": backend,
        "config": config_name,
        "independence": SOLVER_CONFIGS[config_name].use_independence,
        "caches": SOLVER_CONFIGS[config_name].use_constraint_cache,
        "wall_time": result.wall_time,
        "paths_completed": result.paths_completed,
        "coverage_percent": result.coverage_percent,
        "solver_queries": stats.get("solver_queries", 0),
        "search_steps": stats.get("solver_search_steps", 0),
        "independence_groups": stats.get("independence_groups", 0),
        "groups_solved": stats.get("groups_solved", 0),
        "independence_hits": stats.get("independence_hits", 0),
        "independence_hit_rate": stats.get("independence_hit_rate", 0.0),
        "unknown_cache_hits": stats.get("unknown_cache_hits", 0),
        "constraint_cache_hit_rate": stats.get("constraint_cache_hit_rate", 0.0),
        "cex_cache_hit_rate": stats.get("cex_cache_hit_rate", 0.0),
    }


def _run_grid() -> dict:
    rows = []
    for target_name in TARGETS:
        for backend in BACKENDS:
            for config_name in SOLVER_CONFIGS:
                rows.append(_run_cell(target_name, backend, config_name))
    baseline = {
        "benchmark": "solver_stack",
        "step_budget": STEP_BUDGET,
        "cluster_workers": CLUSTER_WORKERS,
        "targets": sorted(TARGETS),
        "backends": list(BACKENDS),
        "configs": sorted(SOLVER_CONFIGS),
        "rows": rows,
    }
    # Only the default budget refreshes the committed baseline: a smoke run
    # (CI uses REPRO_SOLVER_BENCH_STEPS=200) must not clobber it with
    # incomparable numbers.
    if STEP_BUDGET == DEFAULT_STEP_BUDGET:
        with open(OUTPUT_PATH, "w") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return baseline


def _print_grid(baseline: dict) -> None:
    print_table(
        "Solver-stack ablation -- independence x caches x backend "
        "(step budget %d)" % baseline["step_budget"],
        ["target", "backend", "config", "queries", "search steps",
         "groups solved", "indep hit %", "wall s"],
        [(row["target"], row["backend"], row["config"],
          row["solver_queries"], row["search_steps"], row["groups_solved"],
          round(100 * row["independence_hit_rate"], 1),
          round(row["wall_time"], 3))
         for row in baseline["rows"]])
    if baseline["step_budget"] == DEFAULT_STEP_BUDGET:
        print("baseline written to %s" % os.path.normpath(OUTPUT_PATH))
    else:
        print("non-default step budget %d: committed baseline not rewritten"
              % baseline["step_budget"])


def _cell(baseline: dict, target: str, backend: str, config: str) -> dict:
    for row in baseline["rows"]:
        if (row["target"], row["backend"], row["config"]) == (
                target, backend, config):
            return row
    raise KeyError((target, backend, config))


def test_solver_stack_ablation(benchmark):
    baseline = run_once(benchmark, _run_grid)
    _print_grid(baseline)

    assert len(baseline["rows"]) == len(TARGETS) * len(BACKENDS) * len(
        SOLVER_CONFIGS)
    for target in TARGETS:
        for backend in BACKENDS:
            caches_only = _cell(baseline, target, backend, "caches")
            full = _cell(baseline, target, backend, "full")
            none = _cell(baseline, target, backend, "none")
            # The acceptance claim: adding independence partitioning on top
            # of the caches does not increase -- and on these targets
            # reduces -- backtracking-search effort for the same exploration
            # budget.
            assert full["search_steps"] <= caches_only["search_steps"]
            # And the stack as a whole beats the bare solver.
            assert full["search_steps"] <= none["search_steps"]
            # Independence bookkeeping is live exactly when enabled.
            assert full["groups_solved"] <= full["independence_groups"]
            assert caches_only["independence_groups"] <= caches_only[
                "solver_queries"]
    assert os.path.exists(OUTPUT_PATH)


if __name__ == "__main__":
    _print_grid(_run_grid())
