"""A static-partitioning baseline, for comparison with dynamic balancing.

Section 2 of the paper explains why Cloud9 does *not* statically divide the
execution tree: "when running on large programs, this approach leads to high
workload imbalance among nodes, making the entire cluster proceed at the pace
of the slowest node"; §8 discusses the same limitation in the static-
partitioning parallel JPF of Staats & Pasareanu [2010].

This module implements that baseline so the claim can be measured on the same
substrate (see ``benchmarks/bench_ablation_static_vs_dynamic.py``):

1. a short *bootstrap* exploration expands the tree from the root until it
   has at least one frontier state per requested partition (this mimics the
   offline pre-computation of disjoint preconditions);
2. the frontier states' fork-trace prefixes are dealt round-robin to the
   workers, each worker importing its share as path-encoded jobs exactly as a
   Cloud9 worker would;
3. the workers then explore **independently**: no load balancer, no job
   transfers, no coverage overlay.  A worker that exhausts its partition
   early simply idles, which is precisely the imbalance the paper's dynamic
   approach removes.

The run loop mirrors :class:`~repro.cluster.coordinator.Cloud9Cluster`'s
virtual-time rounds and returns the same
:class:`~repro.engine.result.RunResult`, so the two approaches can be compared
metric for metric.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Set, Tuple

from repro.cluster.coordinator import ExecutorFactory, StateFactory
from repro.cluster.core import _dedupe_bugs
from repro.cluster.jobs import Job, JobTree
from repro.cluster.stats import ClusterTimeline, RoundSnapshot, TransferCost
from repro.cluster.worker import DEFAULT_STRATEGY, Worker
from repro.engine.errors import BugReport
from repro.engine.limits import UNLIMITED, ExplorationLimits
from repro.engine.result import RunResult
from repro.engine.test_case import TestCase
from repro.solver.cache import aggregate_cache_counters


@dataclass
class StaticPartitionConfig:
    """Configuration of the static-partitioning baseline."""

    num_workers: int = 2
    instructions_per_round: int = 500
    # How many partitions to carve out per worker during the bootstrap split.
    partitions_per_worker: int = 1
    # Hard limits on the bootstrap exploration itself.
    max_bootstrap_steps: int = 2_000
    # None = "resolve at build time", same contract as ClusterConfig.strategy.
    strategy: Optional[str] = None
    max_rounds: int = 10_000

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("a cluster needs at least one worker")
        if self.instructions_per_round < 1:
            raise ValueError("instructions_per_round must be positive")
        if self.partitions_per_worker < 1:
            raise ValueError("partitions_per_worker must be positive")


@dataclass
class BootstrapOutcome:
    """What the pre-partitioning exploration produced."""

    prefixes: List[Tuple[int, ...]]
    instructions: int = 0
    paths_completed: int = 0
    bugs: List[BugReport] = None
    test_cases: List[TestCase] = None
    covered_lines: Set[int] = None

    def __post_init__(self) -> None:
        self.bugs = self.bugs or []
        self.test_cases = self.test_cases or []
        self.covered_lines = self.covered_lines or set()


class StaticPartitionCluster:
    """Statically partitioned parallel symbolic execution (the §2 strawman)."""

    def __init__(self, executor_factory: ExecutorFactory,
                 state_factory: StateFactory,
                 config: Optional[StaticPartitionConfig] = None):
        self.config = config or StaticPartitionConfig()
        self.executor_factory = executor_factory
        self.state_factory = state_factory
        self.workers: List[Worker] = []
        self.bootstrap: Optional[BootstrapOutcome] = None
        self._build()

    # -- bootstrap split ------------------------------------------------------------

    def _bootstrap_split(self) -> BootstrapOutcome:
        """Expand the tree breadth-first until there is work for every worker."""
        config = self.config
        wanted = config.num_workers * config.partitions_per_worker
        executor = self.executor_factory()
        frontier: Deque = deque([self.state_factory(executor)])
        steps = 0

        while frontier and len(frontier) < wanted and steps < config.max_bootstrap_steps:
            state = frontier.popleft()
            result = executor.step(state)
            steps += 1
            for child in result.children:
                if child.is_running:
                    frontier.append(child)

        prefixes = [tuple(state.fork_trace) for state in frontier]
        return BootstrapOutcome(
            prefixes=prefixes,
            instructions=executor.total_instructions,
            paths_completed=executor.paths_completed,
            bugs=list(executor.bugs),
            test_cases=list(executor.test_cases),
            covered_lines=set(executor.covered_lines),
        )

    def _build(self) -> None:
        self.bootstrap = self._bootstrap_split()
        for index in range(self.config.num_workers):
            worker_id = index + 1
            executor = self.executor_factory()
            worker = Worker(worker_id, executor, self.state_factory,
                            strategy_name=self.config.strategy or DEFAULT_STRATEGY)
            self.workers.append(worker)
        # Deal the partition prefixes round-robin; nothing will ever move
        # between workers afterwards.
        per_worker: List[List[Job]] = [[] for _ in self.workers]
        for i, prefix in enumerate(self.bootstrap.prefixes):
            per_worker[i % len(self.workers)].append(Job(tuple(prefix)))
        for worker, jobs in zip(self.workers, per_worker):
            if jobs:
                worker.import_jobs(JobTree.from_jobs(jobs))

    # -- helpers -----------------------------------------------------------------------

    def _total_candidates(self) -> int:
        return sum(w.queue_length for w in self.workers)

    def _all_covered_lines(self) -> Set[int]:
        covered: Set[int] = set(self.bootstrap.covered_lines)
        for worker in self.workers:
            covered.update(worker.executor.covered_lines)
        return covered

    def idle_worker_count(self) -> int:
        """Workers with nothing left to do (the imbalance the paper measures)."""
        return sum(1 for w in self.workers if not w.has_work)

    # -- main loop -----------------------------------------------------------------------

    def run(self, limits: Optional[ExplorationLimits] = None) -> RunResult:
        """Run rounds until exhaustion, a goal, or a budget is spent.

        Accepts the same ``limits`` bundle as
        :meth:`~repro.cluster.coordinator.Cloud9Cluster.run`.
        """
        lim = limits if limits is not None else UNLIMITED
        config = self.config
        limit = lim.max_rounds if lim.max_rounds is not None else config.max_rounds
        line_count = self.workers[0].executor.program.line_count
        timeline = ClusterTimeline()
        result = RunResult(backend="static",
                           test_name=self.workers[0].executor.program.name,
                           num_workers=config.num_workers,
                           line_count=line_count, timeline=timeline,
                           states_transferred=0)
        start = time.monotonic()
        instructions_executed = 0

        round_index = 0
        while round_index < limit:
            useful_before = sum(w.stats.useful_instructions for w in self.workers)
            replay_before = sum(w.stats.replay_instructions for w in self.workers)
            for worker in self.workers:
                if worker.has_work:
                    worker.explore(config.instructions_per_round)
            useful_delta = sum(w.stats.useful_instructions for w in self.workers) - useful_before
            replay_delta = sum(w.stats.replay_instructions for w in self.workers) - replay_before
            instructions_executed += useful_delta + replay_delta

            covered = self._all_covered_lines()
            coverage_percent = 100.0 * len(covered) / line_count if line_count else 0.0
            paths_completed = (self.bootstrap.paths_completed
                               + sum(w.paths_completed for w in self.workers))
            bugs_found = (len(self.bootstrap.bugs)
                          + sum(len(w.bugs) for w in self.workers))
            candidates = self._total_candidates()
            timeline.record(RoundSnapshot(
                round_index=round_index,
                queue_lengths={w.worker_id: w.queue_length for w in self.workers},
                total_candidates=candidates,
                states_transferred=0,
                useful_instructions=useful_delta,
                replay_instructions=replay_delta,
                covered_lines=len(covered),
                coverage_percent=coverage_percent,
                paths_completed=paths_completed,
                bugs_found=bugs_found,
                load_balancing_enabled=False,
                elapsed=time.monotonic() - start,
            ))
            round_index += 1

            # Exhaustion is recorded whether or not a goal was met in the
            # same round.
            result.states_remaining = candidates
            result.exhausted = candidates == 0
            if lim.coverage_target is not None and coverage_percent >= lim.coverage_target:
                result.goal_reached = True
                break
            if lim.max_paths is not None and paths_completed >= lim.max_paths:
                result.goal_reached = True
                break
            if lim.stop_on_first_bug and bugs_found:
                result.goal_reached = True
                break
            if result.exhausted:
                break
            # Budget limits (spent, not reached: goal_reached stays False).
            if lim.max_instructions is not None and instructions_executed >= lim.max_instructions:
                break
            if lim.max_wall_time is not None and time.monotonic() - start >= lim.max_wall_time:
                break

        result.wall_time = time.monotonic() - start
        return self._finalize(result, round_index)

    def _finalize(self, result: RunResult, rounds: int) -> RunResult:
        result.rounds_executed = rounds
        result.paths_completed = (self.bootstrap.paths_completed
                                  + sum(w.paths_completed for w in self.workers))
        result.useful_instructions = (
            self.bootstrap.instructions
            + sum(w.stats.useful_instructions for w in self.workers))
        result.replay_instructions = sum(
            w.stats.replay_instructions for w in self.workers)
        result.covered_lines = self._all_covered_lines()
        all_bugs: List[BugReport] = list(self.bootstrap.bugs)
        result.test_cases.extend(self.bootstrap.test_cases)
        for worker in self.workers:
            all_bugs.extend(worker.bugs)
            result.test_cases.extend(worker.test_cases)
        result.bugs = _dedupe_bugs(all_bugs)
        result.worker_stats = {w.worker_id: w.stats for w in self.workers}
        result.transfer_cost = TransferCost.from_worker_stats(
            result.worker_stats.values())
        result.cache_stats = aggregate_cache_counters(
            w.executor.solver.cache_counters() for w in self.workers)
        return result

    # -- invariants (used by the test suite) ---------------------------------------------

    def check_partition_disjointness(self) -> Tuple[bool, str]:
        """No candidate path may be owned by two workers (same as Cloud9)."""
        seen = {}
        for worker in self.workers:
            for path in worker.frontier_paths():
                if path in seen:
                    return False, ("path %s assigned to workers %d and %d"
                                   % (path, seen[path], worker.worker_id))
                seen[path] = worker.worker_id
        return True, ""
