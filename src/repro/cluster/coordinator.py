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
from typing import Callable, Optional

from repro.cluster.core import ClusterConfig, CoordinatorCore, Member
from repro.cluster.worker import DEFAULT_STRATEGY
from repro.distrib.worker import DistribWorker
from repro.engine.executor import SymbolicExecutor
from repro.engine.state import ExecutionState
from repro.net.transport import InProcTransport

ExecutorFactory = Callable[[], SymbolicExecutor]
StateFactory = Callable[[SymbolicExecutor], ExecutionState]

__all__ = ["ClusterConfig", "Cloud9Cluster",
           "ExecutorFactory", "StateFactory"]


class Cloud9Cluster(CoordinatorCore):
    """The public front end: build a cluster and run a symbolic-testing goal."""

    #: Name this backend reports in trace/status events (the threaded and
    #: static subclasses override it).
    backend_name = "cluster"

    def __init__(self, executor_factory: ExecutorFactory,
                 state_factory: StateFactory,
                 config: Optional[ClusterConfig] = None):
        self.executor_factory = executor_factory
        self.state_factory = state_factory
        super().__init__(config or ClusterConfig(),
                         line_count=executor_factory().program.line_count)

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
