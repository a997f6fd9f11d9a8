"""Multiprocess exploration: real cores behind the same cluster protocol.

A pure-Python interpreter under the GIL leaves the extra cores of one
process mostly idle, so the coordinator shell
(:class:`~repro.cluster.core.CoordinatorCore`) can also drive *worker
processes*, exchanging only the small picklable messages the paper's design
already calls for (§3.2): status updates, transfer requests, and
path-encoded :class:`~repro.cluster.jobs.JobTree` payloads that the
destination materializes with :func:`~repro.cluster.replay.replay_path`.
The in-process backends speak the very same messages, over an
:class:`~repro.net.transport.InProcTransport`.

Because live execution states and programs built from closures do not
pickle, work ships as ``(spec_name, path)`` pairs: :mod:`repro.distrib.specs`
keeps a registry of named test factories, and every worker process rebuilds
the program locally from the spec before replaying paths into it.

Public pieces:

* :mod:`repro.distrib.messages` -- the command/reply vocabulary of the
  worker protocol, on every carrier.
* :mod:`repro.distrib.specs` -- the test-spec registry
  (:func:`~repro.distrib.specs.resolve_test` and friends).
* :class:`~repro.distrib.cluster.ProcessCloud9Cluster` -- the launcher of
  forked worker processes (the ``"process"`` backend of
  :mod:`repro.api.runner`) or, with ``ProcessClusterConfig(transport="tcp")``
  (the ``"tcp"`` backend), of remote worker agents over the :mod:`repro.net`
  socket transport.
* :class:`~repro.distrib.worker.DistribWorker` -- the per-worker command
  interpreter, shared verbatim by in-process members, forked worker
  processes and remote TCP agents.

The cluster names are resolved on first use: the coordinator shell imports
the message module of this package, so importing the launcher eagerly here
would be circular.
"""

from repro.distrib.specs import available_specs, register_spec, resolve_test
from repro.distrib.worker import DistribWorker

__all__ = [
    "ProcessCloud9Cluster",
    "ProcessClusterConfig",
    "DistribWorker",
    "available_specs",
    "register_spec",
    "resolve_test",
]


def __getattr__(name: str):
    if name in ("ProcessCloud9Cluster", "ProcessClusterConfig"):
        from repro.distrib import cluster
        return getattr(cluster, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
