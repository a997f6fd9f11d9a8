"""Cluster-parallel symbolic execution (the paper's core contribution, §3).

The package reproduces Cloud9's dynamic partitioning of the symbolic
execution tree across shared-nothing workers:

* :mod:`repro.cluster.jobs` -- jobs encoded as root-to-node paths, aggregated
  into prefix-sharing job trees for transfer.
* :mod:`repro.cluster.worker` -- worker nodes: local subtree, exploration
  frontier (candidate nodes), job export/import, lazy replay of virtual
  nodes, fence bookkeeping.
* :mod:`repro.cluster.replay` -- path replay and broken-replay detection.
* :mod:`repro.cluster.load_balancer` -- the queue-length-based balancing
  policy (mean +/- delta*sigma classification and pairing).
* :mod:`repro.cluster.overlay` -- the global coverage bit-vector overlay.
* :mod:`repro.cluster.core` -- :class:`CoordinatorCore`, the one
  coordinator shell: the §3 command/reply protocol, brokered transfers,
  failure recovery, checkpoints and finalization, over any carrier
  (in-process, forked processes, TCP agents).
* :mod:`repro.cluster.coordinator` -- the in-process backend: members are
  :class:`~repro.distrib.worker.DistribWorker` objects behind an
  :class:`~repro.net.transport.InProcTransport`, plus the public
  :class:`Cloud9Cluster` front end.
* :mod:`repro.cluster.threaded` -- the same cluster with the members'
  commands on an OS thread pool (wall-clock parallelism on one machine).
* :mod:`repro.cluster.static_partition` -- the static-partitioning baseline
  the paper argues against (§2, §8), used by the ablation benchmarks.
* :mod:`repro.cluster.stats` -- instruction/transfer/coverage timelines used
  by the evaluation harness.
* :mod:`repro.cluster.ledger` -- the coordinator-side frontier ledger used
  to recover a dead member's territory on every backend (§2.3 failure
  model).
* :mod:`repro.cluster.checkpoint` -- resumable run snapshots (frontier,
  coverage, counters, bugs/test cases, strategy seeds) behind
  ``run(resume_from=...)``.
* :mod:`repro.cluster.autoscale` -- the autoscaling policy engine driving
  elastic membership from queue-length band/spread and round wall time.
"""

from repro.cluster.autoscale import AutoscalePolicy, Autoscaler
from repro.cluster.checkpoint import ClusterCheckpoint
from repro.cluster.coordinator import Cloud9Cluster, ClusterConfig
from repro.cluster.core import CoordinatorCore, Member, MemberFailure
from repro.cluster.jobs import Job, JobTree
from repro.cluster.ledger import FrontierLedger, RecoveryJob
from repro.cluster.load_balancer import LoadBalancer, TransferCommand
from repro.cluster.overlay import CoverageOverlay
from repro.cluster.static_partition import StaticPartitionCluster, StaticPartitionConfig
from repro.cluster.stats import ClusterTimeline, WorkerStats
from repro.cluster.threaded import ThreadedCloud9Cluster
from repro.cluster.worker import Worker

__all__ = [
    "AutoscalePolicy",
    "Autoscaler",
    "Cloud9Cluster",
    "ThreadedCloud9Cluster",
    "ClusterCheckpoint",
    "ClusterConfig",
    "CoordinatorCore",
    "Member",
    "MemberFailure",
    "FrontierLedger",
    "RecoveryJob",
    "Job",
    "JobTree",
    "LoadBalancer",
    "TransferCommand",
    "CoverageOverlay",
    "StaticPartitionCluster",
    "StaticPartitionConfig",
    "ClusterTimeline",
    "WorkerStats",
    "Worker",
]
