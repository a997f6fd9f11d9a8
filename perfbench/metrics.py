"""Metric names, units, and the per-layer metrics of one traced exploration.

Names follow the program's module layers (README.md has the table of which
end-to-end metric each layer metric should move, on which workload).  Layer
times are self times unless a name says otherwise.
"""

from __future__ import annotations

import statistics
from typing import Dict, Optional

import spans as S

#: Printed with ``--trace 0``; every one is measured with tracing off.
END_TO_END = {
    "explore_s": "s",
    "useful_ips": "instr/s",
    "first_bug_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

#: Printed with ``--trace 1``.
PER_LAYER = {
    "strategies.select_s": "s",
    "strategies.select_n": "count",
    "strategies.frontier_mean": "states",
    "engine.step_self_s": "s",
    "engine.steps": "count",
    "engine.instructions": "count",
    "solver.query_s": "s",
    "solver.queries": "count",
    "solver.cache_hit_rate": "ratio",
    "solver.cex_hit_rate": "ratio",
    "solver.search_steps": "count",
    "solver.solved_ratio": "ratio",
    "testcase.gen_s": "s",
    "testcase.n": "count",
    "replay.s": "s",
    "replay.n": "count",
    "replay.instructions": "count",
    "replay.overhead": "ratio",
    "replay.broken_ratio": "ratio",
    "transfer.states": "count",
    "transfer.encoded_nodes": "count",
    "transfer.savings_ratio": "ratio",
    "lb.balance_s": "s",
    "jobs.export_s": "s",
    "jobs.import_s": "s",
    "checkpoint.save_s": "s",
    "checkpoint.n": "count",
    "checkpoint.bytes": "bytes",
    "coord.rounds": "count",
    "coord.round_p50_s": "s",
    "coord.round_max_s": "s",
    "worker.explore_s": "s",
    "coord.self_s": "s",
    "worker.imbalance": "ratio",
    "net.recv_wait_s": "s",
    "net.messages": "count",
    "net.bytes": "bytes",
    "unattributed_s": "s",
    "trace_overhead": "ratio",
}

#: Counts that must repeat exactly between runs of the same workload.
DETERMINISTIC = ("engine.instructions", "solver.queries", "replay.n",
                 "transfer.states", "checkpoint.n", "coord.rounds")

#: Layers that run inside the process backend's worker processes.
WORKER_SIDE = ("strategies.select_s", "strategies.select_n",
               "strategies.frontier_mean", "engine.step_self_s", "engine.steps",
               "testcase.gen_s", "testcase.n", "replay.s", "replay.n",
               "worker.explore_s")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(result, coordinator: Dict[str, dict],
                  workers: Optional[Dict[str, dict]], wall_s: float,
                  backend: str) -> Dict[str, float]:
    """Per-layer metrics of one traced run.

    ``coordinator`` holds the span totals of the process that called
    ``test.run``; ``workers`` the summed totals of worker processes (process
    backend only; None when they could not be traced).  The trace overhead
    needs an untraced run and is added by the caller.
    """
    both = {table: dict(coordinator[table]) for table in
            ("calls", "total_s", "self_s", "measured")}
    for table in both:
        for name, value in (workers or {}).get(table, {}).items():
            both[table][name] = both[table].get(name, 0) + value
    calls, self_s, total_s, measured = (both["calls"], both["self_s"],
                                        both["total_s"], both["measured"])
    cache = result.cache_stats or {}
    cost = result.transfer_cost
    stats = list((result.worker_stats or {}).values())
    replays = sum(s.replays for s in stats)
    work = [s.useful_instructions + s.replay_instructions for s in stats]

    rounds = result.rounds_executed or 0
    round_s = []
    if result.timeline is not None:
        elapsed = [snap.elapsed for snap in result.timeline.snapshots]
        round_s = [b - a for a, b in zip([0.0] + elapsed, elapsed)]
    explore_s = total_s.get(S.EXPLORE, 0.0)
    recv_wait_s = coordinator["self_s"].get(S.RECV, 0.0)
    if backend == "process":
        # Workers explore in parallel while the coordinator waits in recv.
        coord_self_s = wall_s - recv_wait_s
    elif rounds:
        coord_self_s = wall_s - explore_s
    else:
        coord_self_s = 0.0

    metrics = {
        "strategies.select_s": self_s.get(S.SELECT, 0.0),
        "strategies.select_n": calls.get(S.SELECT, 0),
        "strategies.frontier_mean": _ratio(measured.get(S.SELECT, 0),
                                           calls.get(S.SELECT, 0)),
        "engine.step_self_s": self_s.get(S.STEP, 0.0),
        "engine.steps": calls.get(S.STEP, 0),
        "engine.instructions": result.total_instructions,
        "solver.query_s": self_s.get(S.SOLVER, 0.0),
        "solver.queries": cache.get("solver_queries", 0),
        "solver.cache_hit_rate": cache.get("constraint_cache_hit_rate", 0.0),
        "solver.cex_hit_rate": cache.get("cex_cache_hit_rate", 0.0),
        "solver.search_steps": cache.get("solver_search_steps", 0),
        "solver.solved_ratio": _ratio(cache.get("groups_solved", 0),
                                      cache.get("independence_groups", 0)),
        "testcase.gen_s": self_s.get(S.TESTCASE, 0.0),
        "testcase.n": calls.get(S.TESTCASE, 0),
        "replay.s": self_s.get(S.REPLAY, 0.0),
        "replay.n": calls.get(S.REPLAY, 0),
        "replay.instructions": result.replay_instructions,
        "replay.overhead": result.replay_overhead,
        "replay.broken_ratio": _ratio(sum(s.broken_replays for s in stats),
                                      replays),
        "transfer.states": result.states_transferred or 0,
        "transfer.encoded_nodes": cost.encoded_nodes if cost else 0,
        "transfer.savings_ratio": cost.savings_ratio if cost else 0.0,
        "lb.balance_s": self_s.get(S.BALANCE, 0.0),
        "jobs.export_s": self_s.get(S.EXPORT, 0.0) + self_s.get(S.ENCODE, 0.0),
        "jobs.import_s": self_s.get(S.IMPORT, 0.0) + self_s.get(S.DECODE, 0.0),
        "checkpoint.save_s": self_s.get(S.CHECKPOINT, 0.0),
        "checkpoint.n": calls.get(S.CHECKPOINT, 0),
        "checkpoint.bytes": _ratio(measured.get(S.CHECKPOINT, 0),
                                   calls.get(S.CHECKPOINT, 0)),
        "coord.rounds": rounds,
        "coord.round_p50_s": statistics.median(round_s) if round_s else 0.0,
        "coord.round_max_s": max(round_s) if round_s else 0.0,
        "worker.explore_s": explore_s,
        "coord.self_s": coord_self_s,
        "worker.imbalance": _ratio(max(work), statistics.mean(work)) if work else 1.0,
        "net.recv_wait_s": recv_wait_s,
        # One sizing per message actually sent or received; a recv that
        # timed out counts as waiting, not as a message.
        "net.messages": calls.get(S.SIZING, 0),
        "net.bytes": measured.get(S.SEND, 0) + measured.get(S.RECV, 0),
        "unattributed_s": wall_s - coordinator["top_s"],
    }
    if workers is None and backend == "process":
        for name in WORKER_SIDE:
            del metrics[name]
    return metrics
