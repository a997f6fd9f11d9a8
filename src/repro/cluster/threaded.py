"""A thread-backed Cloud9 cluster for wall-clock parallelism on one machine.

:class:`~repro.cluster.coordinator.Cloud9Cluster` answers each command of
its in-process members inline, one member after another, which makes runs
deterministic but leaves real cores idle.  :class:`ThreadedCloud9Cluster`
keeps the exact same shell -- rounds, status merge, brokered transfers and
recovery all happen on the coordinator thread -- and only hands its
members' commands to a thread pool: the coordinator sends every member its
explore command, then waits for the replies, so the members of a round
explore concurrently.

This is safe because workers are shared-nothing by construction: each owns
its private executor, solver, strategy and tree, and everything between
them crosses the coordinator as command/reply messages.  The result type,
timeline and invariants are identical to the sequential cluster, so the two
are interchangeable behind the ``"cluster"`` / ``"threaded"`` backends of
:mod:`repro.api.runner`.
"""

from __future__ import annotations

from concurrent.futures import Executor, ThreadPoolExecutor
from typing import Optional

from repro.cluster.coordinator import Cloud9Cluster

__all__ = ["ThreadedCloud9Cluster"]


class ThreadedCloud9Cluster(Cloud9Cluster):
    """Cloud9 cluster whose members answer commands on OS threads."""

    backend_name = "threaded"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._pool: Optional[ThreadPoolExecutor] = None

    def _worker_pool(self) -> Executor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.config.num_workers,
                thread_name_prefix="cloud9-worker")
        return self._pool

    def _teardown_run(self) -> None:
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
