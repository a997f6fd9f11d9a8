"""Execution backends behind one uniform ``run`` surface.

The paper's central promise is that the *same* symbolic test scales
transparently from one KLEE engine to a cluster; this module is where the
reproduction keeps that promise at the API level.  A :class:`Runner` turns a
``SymbolicTest`` plus :class:`~repro.api.limits.ExplorationLimits` into a
:class:`~repro.api.result.RunResult`, and the registry maps backend names to
runners so callers write::

    result = test.run(backend="cluster", workers=8, max_rounds=100)

Built-in backends:

* ``"single"``   -- one in-process engine (plain KLEE / 1-worker Cloud9).
* ``"cluster"``  -- the virtual-time Cloud9 cluster with dynamic load
  balancing (:class:`~repro.cluster.coordinator.Cloud9Cluster`).
* ``"static"``   -- the §2 static-partitioning strawman baseline.
* ``"threaded"`` -- the Cloud9 cluster with workers stepped on an OS thread
  pool each round (wall-clock parallelism on one machine, bounded by the
  GIL).
* ``"process"`` -- the multiprocess cluster (:mod:`repro.distrib`): worker
  processes on real cores, jobs shipped as path-encoded trees and replayed
  at the destination.  Requires a test built from a registered spec
  (:func:`repro.distrib.specs.resolve_test`) or an explicit ``spec=`` option,
  because live tests do not pickle.
* ``"tcp"`` -- the same coordinator over the socket transport
  (:mod:`repro.net`): workers are *agents* that dial in over TCP
  (``python -m repro.net.agent --connect HOST:PORT``), possibly from other
  machines, with heartbeat-based liveness.  Pass ``listen="0.0.0.0:4850"``
  to accept remote agents, or ``spawn_local_agents=True`` for a
  self-contained loopback cluster.

New backends register through :func:`register_runner`.
"""

from __future__ import annotations

from dataclasses import replace as _dc_replace
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.cluster.coordinator import ClusterConfig
from repro.cluster.static_partition import StaticPartitionConfig
from repro.cluster.threaded import ThreadedCloud9Cluster

from repro.api.limits import ExplorationLimits
from repro.api.result import RunResult

if TYPE_CHECKING:  # pragma: no cover - import cycle: testing imports repro.api
    from repro.testing.symbolic_test import SymbolicTest

try:  # pragma: no cover - Protocol is stdlib from 3.8 on
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls

__all__ = [
    "Runner",
    "SingleRunner",
    "ClusterRunner",
    "StaticPartitionRunner",
    "ThreadedRunner",
    "ProcessRunner",
    "TcpRunner",
    "available_backends",
    "get_runner",
    "register_runner",
    "run_test",
]


@runtime_checkable
class Runner(Protocol):
    """What a backend must provide to join the registry."""

    #: Registry key, e.g. ``"cluster"``.
    name: str

    def run(self, test: "SymbolicTest",
            limits: Optional[ExplorationLimits] = None,
            **options: object) -> RunResult:
        """Execute ``test`` under ``limits`` and return the outcome."""
        ...  # pragma: no cover


def _build_cluster_config(config_cls, workers: Optional[int],
                          options: Dict[str, object]):
    """Resolve a cluster config from either a ready config or loose kwargs."""
    config = options.pop("config", None)
    if config is not None:
        if workers is not None or options:
            extra = (["workers"] if workers is not None else []) + sorted(options)
            raise TypeError(
                "pass either a full config= or loose options, not both "
                "(got config plus %s)" % ", ".join(extra))
        if not isinstance(config, config_cls):
            raise TypeError("config must be a %s, got %r"
                            % (config_cls.__name__, type(config).__name__))
        return config
    kwargs: Dict[str, object] = dict(options)
    if workers is not None:
        kwargs["num_workers"] = workers
    return config_cls(**kwargs)


class SingleRunner:
    """Plain single-engine exploration ("1-worker Cloud9", i.e. KLEE)."""

    name = "single"

    def run(self, test: "SymbolicTest",
            limits: Optional[ExplorationLimits] = None,
            strategy: Optional[str] = None, **options: object) -> RunResult:
        if options:
            raise TypeError("unknown options for backend 'single': %s"
                            % ", ".join(sorted(options)))
        executor = test.build_executor()
        return executor.run(
            initial_state=lambda: test.build_initial_state(executor),
            strategy=strategy or test.strategy,
            limits=limits,
        )


class ClusterRunner:
    """The dynamically load-balanced Cloud9 cluster on virtual time."""

    name = "cluster"
    config_cls = ClusterConfig
    cluster_class = None  # default of SymbolicTest.build_cluster

    def run(self, test: "SymbolicTest",
            limits: Optional[ExplorationLimits] = None,
            workers: Optional[int] = None,
            resume_from: Optional[object] = None,
            **options: object) -> RunResult:
        config = _build_cluster_config(self.config_cls, workers, options)
        cluster = test.build_cluster(config, cluster_class=self.cluster_class)
        return cluster.run(limits=limits, resume_from=resume_from)


class ThreadedRunner(ClusterRunner):
    """The same cluster protocol, with per-round worker steps on OS threads."""

    name = "threaded"
    cluster_class = ThreadedCloud9Cluster


class ProcessRunner:
    """The multiprocess cluster: worker processes with path-encoded job
    shipping (:mod:`repro.distrib`)."""

    name = "process"

    def run(self, test: "SymbolicTest",
            limits: Optional[ExplorationLimits] = None,
            workers: Optional[int] = None,
            spec: Optional[str] = None,
            spec_params: Optional[Dict[str, object]] = None,
            resume_from: Optional[object] = None,
            **options: object) -> RunResult:
        # Imported lazily: repro.distrib reaches back into the testing layer
        # (which imports repro.api), so a module-level import would cycle.
        from repro.distrib.cluster import ProcessCloud9Cluster, ProcessClusterConfig

        if spec is None and spec_params is None:
            # The test carries its own spec: workers rebuild this very
            # program, so its line count is authoritative.
            spec = test.spec_name
            spec_params = dict(test.spec_params)
            line_count: Optional[int] = test.program.line_count
        else:
            # Explicit spec= and/or spec_params= override: the spec may
            # build a different program; let the cluster resolve it to
            # measure the real line count.
            line_count = None
            if spec is None:
                spec = test.spec_name
        if spec is None:
            raise ValueError(
                "backend 'process' ships tests to worker processes by spec "
                "name, but %r carries none; build it with "
                "repro.distrib.specs.resolve_test(...) or pass spec=" % test.name)
        config = _build_cluster_config(ProcessClusterConfig, workers, options)
        if config.strategy is None:
            config = _dc_replace(config, strategy=test.strategy)
        cluster = ProcessCloud9Cluster(
            spec, spec_params=spec_params, config=config,
            line_count=line_count)
        return cluster.run(limits=limits, resume_from=resume_from)


class TcpRunner(ProcessRunner):
    """The process-cluster coordinator over the socket transport
    (:mod:`repro.net`): remote worker agents dial in over TCP."""

    name = "tcp"

    def run(self, test: "SymbolicTest",
            limits: Optional[ExplorationLimits] = None,
            **options: object) -> RunResult:
        # Loose options become a ProcessClusterConfig; default the carrier
        # to TCP (a full config= must already say transport="tcp").
        if "config" not in options:
            options.setdefault("transport", "tcp")
        return super().run(test, limits=limits, **options)


class StaticPartitionRunner:
    """The static-partitioning baseline the paper argues against (§2)."""

    name = "static"

    def run(self, test: "SymbolicTest",
            limits: Optional[ExplorationLimits] = None,
            workers: Optional[int] = None, **options: object) -> RunResult:
        config = _build_cluster_config(StaticPartitionConfig, workers, options)
        cluster = test.build_static_cluster(config)
        return cluster.run(limits=limits)


# -- the registry ---------------------------------------------------------------------

_RUNNERS: Dict[str, Runner] = {}


def register_runner(runner: Runner, replace: bool = False) -> Runner:
    """Add a backend to the registry under ``runner.name``."""
    name = getattr(runner, "name", None)
    if not name or not isinstance(name, str):
        raise ValueError("runner must carry a non-empty string .name")
    if not replace and name in _RUNNERS:
        raise ValueError("backend %r is already registered "
                         "(pass replace=True to override)" % name)
    _RUNNERS[name] = runner
    return runner


def get_runner(backend: str) -> Runner:
    try:
        return _RUNNERS[backend]
    except KeyError:
        raise ValueError("unknown backend %r (available: %s)"
                         % (backend, ", ".join(available_backends()))) from None


def available_backends() -> Tuple[str, ...]:
    return tuple(sorted(_RUNNERS))


def run_test(test: "SymbolicTest", backend: str = "single",
             limits: Optional[ExplorationLimits] = None,
             **options: object) -> RunResult:
    """Dispatch one test to a registered backend.

    Limit fields (``max_paths=...``, ``coverage_target=...``, ...) may be
    passed directly among ``options``; they are folded into ``limits``.
    That includes ``trace_path=`` -- every backend then writes the run's
    structured JSONL event trace there (render it with
    ``python -m repro.obs.report``).  Everything else is forwarded to the
    backend (``workers=``, ``strategy=``, ``config=``, or any cluster-config
    field -- e.g. ``autoscale=`` an
    :class:`~repro.cluster.autoscale.AutoscalePolicy` to run the cluster
    backends elastically, or ``status_listen="127.0.0.1:0"`` to serve live
    run status from the coordinator, :mod:`repro.obs.status`).
    """
    limits = ExplorationLimits.pop_from(options, base=limits)
    result = get_runner(backend).run(test, limits=limits, **options)
    result.test_name = test.name  # the engines only know the program
    return result


for _runner in (SingleRunner(), ClusterRunner(), StaticPartitionRunner(),
                ThreadedRunner(), ProcessRunner(), TcpRunner()):
    register_runner(_runner)
del _runner
