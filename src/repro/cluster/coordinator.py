"""The in-process cluster backend: every member in the coordinator's process.

The paper's prototype runs workers on separate machines and measures wall
clock.  This backend runs the same protocol with every worker in one
process and a *virtual clock*: time advances in rounds, every worker
executes up to a fixed instruction budget per round, status updates and
balancing happen on their configured intervals, and all timeline metrics
(useful work, queue lengths, state transfers, coverage) are recorded per
round.  The scalability experiments then compare rounds-to-goal and
useful-work-per-round across cluster sizes, which is exactly the shape of
Figures 7-13.

The protocol itself -- rounds, brokered transfers, failure recovery,
checkpoints, termination, finalization -- is
:class:`repro.cluster.core.CoordinatorCore`, the same shell the process and
TCP backends run.  This module only launches members: a
:class:`~repro.distrib.worker.DistribWorker` built from the test's executor
and state factories, behind an :class:`~repro.net.transport.InProcTransport`
that answers each command by a direct call.  Members run one after another,
which keeps runs deterministic; :mod:`repro.cluster.threaded` runs them on a
thread pool instead.
"""

from __future__ import annotations

from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Callable, Optional

from repro.cluster.autoscale import AutoscalePolicy
from repro.cluster.core import ClusterResult, CoordinatorCore, Member
from repro.cluster.worker import DEFAULT_STRATEGY
from repro.distrib.worker import DistribWorker
from repro.engine.executor import SymbolicExecutor
from repro.engine.state import ExecutionState
from repro.net.transport import InProcTransport

ExecutorFactory = Callable[[], SymbolicExecutor]
StateFactory = Callable[[SymbolicExecutor], ExecutionState]

__all__ = ["ClusterConfig", "ClusterResult", "Cloud9Cluster",
           "ExecutorFactory", "StateFactory"]


@dataclass
class ClusterConfig:
    """Configuration of an in-process Cloud9 cluster."""

    num_workers: int = 2
    instructions_per_round: int = 500
    status_update_interval: int = 1
    balance_interval: int = 1
    delta: float = 1.0
    min_transfer: int = 1
    # None = "resolve at build time": a SymbolicTest substitutes its own
    # strategy, a bare cluster falls back to DEFAULT_STRATEGY.  (A concrete
    # default here used to silently override the test's strategy.)
    strategy: Optional[str] = None
    load_balancing_enabled: bool = True
    # Disable load balancing from this round on (None = never): Fig. 13.
    disable_balancing_after_round: Optional[int] = None
    max_rounds: int = 10_000
    #: Write a :class:`~repro.cluster.checkpoint.ClusterCheckpoint` every N
    #: rounds (None = never).  The latest checkpoint is kept on the cluster
    #: (``last_checkpoint``) and, when ``checkpoint_path`` is set, saved to
    #: that file so a killed run can resume via ``run(resume_from=...)``.
    checkpoint_every: Optional[int] = None
    checkpoint_path: Optional[str] = None
    #: Autoscaling policy driving elastic membership from the round hook
    #: (None = fixed size; ``True`` = default :class:`AutoscalePolicy`).
    #: ``num_workers`` is the *initial* size; the policy's min/max bound it
    #: from there.
    autoscale: Optional[AutoscalePolicy] = None
    #: Jobs a retiring worker hands over per round.  ``remove_worker`` no
    #: longer drains the whole frontier synchronously: the worker stays a
    #: *draining* member (not exploring, not balanced) and exports at most
    #: this many jobs per round until empty, so scale-down never stalls a
    #: round on a large frontier.
    drain_chunk: int = 16
    #: Bind a read-only live-status endpoint (:mod:`repro.obs.status`) on
    #: this ``host:port`` for the duration of the run (``"127.0.0.1:0"``
    #: picks a free port; see ``cluster.status_address``).  None = no server.
    status_listen: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("a cluster needs at least one worker")
        if self.instructions_per_round < 1:
            raise ValueError("instructions_per_round must be positive")
        if self.drain_chunk < 1:
            raise ValueError("drain_chunk must be positive")
        self.autoscale = AutoscalePolicy.coerce(self.autoscale)


class Cloud9Cluster(CoordinatorCore):
    """The public front end: build a cluster and run a symbolic-testing goal."""

    #: Name this backend reports in trace/status events (the threaded
    #: subclass overrides it).
    backend_name = "cluster"

    def __init__(self, executor_factory: ExecutorFactory,
                 state_factory: StateFactory,
                 config: Optional[ClusterConfig] = None):
        self.executor_factory = executor_factory
        self.state_factory = state_factory
        super().__init__(config or ClusterConfig(),
                         line_count=executor_factory().program.line_count)
        self.config: ClusterConfig

    def _launch(self, worker_id: int) -> Member:
        worker = DistribWorker(worker_id, self.executor_factory(),
                               self.state_factory,
                               strategy=self.config.strategy or DEFAULT_STRATEGY)
        return Member(worker_id, InProcTransport(
            worker.handle, peer="in-process worker %d" % worker_id,
            pool=self._worker_pool(), first_reply=worker.ready()))

    def _worker_pool(self) -> Optional[Executor]:
        """Where members run their commands: None = inline, in order."""
        return None
