"""A static-partitioning baseline, for comparison with dynamic balancing.

Section 2 of the paper explains why Cloud9 does *not* statically divide the
execution tree: "when running on large programs, this approach leads to high
workload imbalance among nodes, making the entire cluster proceed at the pace
of the slowest node"; §8 discusses the same limitation in the static-
partitioning parallel JPF of Staats & Pasareanu [2010].

This module implements that baseline so the claim can be measured on the same
substrate (see ``benchmarks/bench_ablation_static_vs_dynamic.py``).  It is
the in-process cluster with two differences, so the ablation varies only
where work moves:

1. instead of handing the seed job to one member, a short *bootstrap*
   exploration in the coordinator expands the tree breadth-first until it
   has one frontier state per worker (this mimics the offline
   pre-computation of disjoint preconditions), and the frontier states'
   fork-trace prefixes are dealt round-robin to the members as path-encoded
   jobs, exactly as a resumed checkpoint is dealt;
2. load balancing is off from round 0: no job ever moves between members.
   A member that exhausts its partition early simply idles, which is
   precisely the imbalance the paper's dynamic approach removes.

Everything else -- rounds, the coverage overlay (§3.3), termination,
finalization, checkpoints, tracing, live status and failure recovery -- is
the :class:`~repro.cluster.core.CoordinatorCore` shell every backend runs,
and the result is the same :class:`~repro.engine.result.RunResult`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Deque, Optional

from repro.cluster.coordinator import (Cloud9Cluster, ClusterConfig,
                                       ExecutorFactory, StateFactory)
from repro.engine.coverage import CoverageBitVector
from repro.engine.state import ExecutionState

__all__ = ["StaticPartitionCluster"]

#: Partitions the bootstrap carves out per worker.
PARTITIONS_PER_WORKER = 1
#: Hard limit on the bootstrap exploration itself.
MAX_BOOTSTRAP_STEPS = 2_000


class StaticPartitionCluster(Cloud9Cluster):
    """Statically partitioned parallel symbolic execution (the §2 strawman)."""

    backend_name = "static"

    def __init__(self, executor_factory: ExecutorFactory,
                 state_factory: StateFactory,
                 config: Optional[ClusterConfig] = None):
        # The split made at seeding time is final: the balancer never runs.
        super().__init__(executor_factory, state_factory,
                         replace(config or ClusterConfig(),
                                 disable_balancing_after_round=0))

    def _seed(self) -> None:
        """Split the tree in the coordinator and deal one prefix per member.

        The bootstrap's own results (completed paths, instructions,
        coverage, bugs, test cases) enter the run through the carry-over
        counters a resumed run uses, so they are counted exactly once.
        """
        executor = self.executor_factory()
        frontier: Deque[ExecutionState] = deque(
            [self.state_factory(executor)])
        wanted = self.config.num_workers * PARTITIONS_PER_WORKER
        steps = 0
        while frontier and len(frontier) < wanted and steps < MAX_BOOTSTRAP_STEPS:
            result = executor.step(frontier.popleft())
            steps += 1
            frontier.extend(child for child in result.children
                            if child.is_running)
        self._base_paths = executor.paths_completed
        self._base_useful = executor.total_instructions
        self._base_covered = set(executor.covered_lines)
        self._base_bugs = list(executor.bugs)
        self._base_tests = list(executor.test_cases)
        coverage = CoverageBitVector.from_lines(self.line_count,
                                                executor.covered_lines)
        self._deal([tuple(state.fork_trace) for state in frontier],
                   coverage.as_int())
