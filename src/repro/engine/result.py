"""The one result type every execution backend returns.

:meth:`~repro.engine.executor.SymbolicExecutor.run` and
:meth:`~repro.cluster.core.CoordinatorCore.run` (the ``cluster``,
``threaded``, ``static``, ``process`` and ``tcp`` backends) each build a
:class:`RunResult` themselves, so backends compare field for field:

* common fields are first-class (paths, coverage, bugs, test cases,
  useful/replay instruction counts, exhaustion/goal flags);
* backend-specific detail is optional (``rounds_executed`` and ``timeline``
  are ``None`` for single-engine runs; ``steps`` is ``None`` for clusters).

The module lives under :mod:`repro.engine` (dependency-free, importable by
every layer; the types it names are imported for annotations only) and is
re-exported as :mod:`repro.api.result`, the public name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set

if TYPE_CHECKING:  # pragma: no cover - annotations only; repro.cluster imports this
    from repro.cluster.stats import ClusterTimeline, TransferCost, WorkerStats
    from repro.engine.errors import BugKind, BugReport
    from repro.engine.test_case import TestCase

__all__ = ["RunResult"]


@dataclass
class RunResult:
    """Backend-independent summary of one exploration run."""

    backend: str
    test_name: str
    num_workers: int = 1
    paths_completed: int = 0
    covered_lines: Set[int] = field(default_factory=set)
    line_count: int = 0
    bugs: List[BugReport] = field(default_factory=list)
    test_cases: List[TestCase] = field(default_factory=list)
    useful_instructions: int = 0
    replay_instructions: int = 0
    #: The frontier was empty when the run stopped (whether or not a goal
    #: was also reached in the same step or round).
    exhausted: bool = False
    #: The run stopped because a goal (``max_paths``, ``coverage_target``,
    #: ``stop_on_first_bug``) was met, not because a budget was spent.
    goal_reached: bool = False
    states_remaining: int = 0
    #: Real elapsed seconds of the run (cumulative across ``resume_from=``
    #: segments on the cluster backends).
    wall_time: float = 0.0
    # Backend-specific extras (None when the backend has no such notion).
    rounds_executed: Optional[int] = None
    steps: Optional[int] = None
    timeline: Optional[ClusterTimeline] = None
    worker_stats: Optional[Dict[int, WorkerStats]] = None
    states_transferred: Optional[int] = None
    #: Wire cost of path-encoded job transfers (None for single-engine runs,
    #: which never transfer; zeroed for clusters that happened not to).
    transfer_cost: Optional[TransferCost] = None
    #: Aggregated solver counters and hit rates (§6: replay rebuilds the
    #: relevant cache entries at the destination worker): constraint/cex
    #: cache hits and misses plus the independence-layer counters
    #: (``independence_groups``, ``groups_solved``, ``independence_hits``,
    #: ``unknown_cache_hits``) summed across every worker's solver.
    cache_stats: Dict[str, float] = field(default_factory=dict)
    #: Fault-tolerance counters (cluster backends; §2.3 failure model):
    #: workers that died mid-run, frontier jobs requeued to survivors, and
    #: replacement workers spawned under ``respawn=True``.
    worker_failures: int = 0
    jobs_recovered: int = 0
    respawns: int = 0
    #: Last-known counters of workers that died mid-run.  Their final
    #: results were lost and survivors re-explored their territory, so these
    #: stay out of the totals to avoid double counting.
    failed_worker_stats: Dict[int, WorkerStats] = field(default_factory=dict)
    #: Elastic-membership counters (cluster backends): workers that joined /
    #: left mid-run -- voluntarily or via ``autoscale=`` -- and the largest
    #: live membership reached.  The per-round trace is
    #: ``timeline.worker_count_series()``.
    workers_added: int = 0
    workers_removed: int = 0
    peak_workers: int = 0
    #: TCP-transport liveness counters (``backend="tcp"``, :mod:`repro.net`):
    #: worker deaths detected by heartbeat silence (as opposed to connection
    #: loss or a local process exit), and agents admitted into an
    #: already-running cluster -- respawn replacements plus elastic joins.
    heartbeat_misses: int = 0
    agents_reconnected: int = 0
    #: Commands the coordinator sent to its members (coordinator backends).
    messages_sent: int = 0
    #: Round index of the checkpoint this run resumed from (None = fresh).
    resumed_from_round: Optional[int] = None

    # -- derived metrics --------------------------------------------------------------

    @property
    def coverage_percent(self) -> float:
        if not self.line_count:
            return 0.0
        return 100.0 * len(self.covered_lines) / self.line_count

    @property
    def total_instructions(self) -> int:
        """All instructions executed, useful and replayed alike."""
        return self.useful_instructions + self.replay_instructions

    @property
    def replay_overhead(self) -> float:
        total = self.total_instructions
        return self.replay_instructions / total if total else 0.0

    @property
    def useful_instructions_per_worker(self) -> float:
        if not self.num_workers:
            return 0.0
        return self.useful_instructions / self.num_workers

    @property
    def independence_hit_rate(self) -> float:
        """Fraction of independent constraint groups answered without a
        fresh search (cache or recent-model reuse), across all workers;
        0.0 when independence partitioning was disabled."""
        return self.cache_stats.get("independence_hit_rate", 0.0)

    @property
    def worker_rounds(self) -> Optional[int]:
        """Total worker-rounds consumed (Σ live workers over rounds) -- the
        capacity bill an autoscaled run tries to keep below a fixed-size
        one's.  None when the backend keeps no timeline."""
        if self.timeline is None:
            return None
        return self.timeline.worker_rounds()

    @property
    def transfer_savings_ratio(self) -> float:
        """Prefix-sharing savings of the JobTree transfer encoding."""
        return self.transfer_cost.savings_ratio if self.transfer_cost else 0.0

    @property
    def found_bug(self) -> bool:
        return bool(self.bugs)

    def bug_kinds(self) -> Set[BugKind]:
        return {b.kind for b in self.bugs}

    def bug_summaries(self) -> List[str]:
        return sorted({b.summary() for b in self.bugs})

    def rounds_to_coverage(self, target_percent: float) -> Optional[int]:
        """Rounds until the timeline first reached the target (None when the
        backend keeps no timeline or never reached it)."""
        if self.timeline is None:
            return None
        return self.timeline.rounds_to_coverage(target_percent)
