"""Symbolic test definitions.

A symbolic test encompasses "many similar concrete test cases into a single
symbolic one" (§5): it names the program under test, how to set up its
environment (files, sockets, symbolic regions, fault injection, scheduling)
and the exploration limits.  The same test object runs unchanged on every
backend through :meth:`SymbolicTest.run`::

    test.run()                                        # one engine (KLEE)
    test.run(backend="cluster", workers=8)            # Cloud9 cluster
    test.run(backend="static", workers=8)             # §2 strawman baseline
    test.run(backend="threaded", workers=4)           # OS-thread cluster
    test.run(backend="process", workers=4)            # worker processes
                                                      # (spec-built tests)

Every backend returns the same :class:`~repro.api.result.RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Type, Union

from repro.api.limits import ExplorationLimits
from repro.api.result import RunResult
from repro.cluster.coordinator import Cloud9Cluster, ClusterConfig
from repro.cluster.static_partition import StaticPartitionCluster, StaticPartitionConfig
from repro.engine.config import EngineConfig
from repro.engine.executor import SymbolicExecutor
from repro.engine.state import ExecutionState
from repro.lang.ast import Program
from repro.lang.compiler import CompiledProgram, compile_program
from repro.posix.model import install_posix_model
from repro.solver.solver import Solver, SolverConfig

StateSetup = Callable[[ExecutionState], None]


@dataclass
class SymbolicTest:
    """A reusable description of one symbolic test.

    Parameters
    ----------
    name:
        Human-readable identifier (shows up in reports).
    program:
        The program under test (AST or compiled form); it is compiled once
        and shared by every engine instance the test creates.
    setup:
        Optional callback run on every freshly created initial state; this is
        where tests pre-populate files, queue datagrams or tweak options
        (symbolic tests "programmatically orchestrate environment events").
    options:
        Initial ``state.options`` entries (e.g. ``max_instructions``,
        ``fault_injection_all``, ``scheduler_policy``).
    engine_config:
        Engine limits/policies shared by all workers.
    solver_config:
        Optional :class:`~repro.solver.solver.SolverConfig` applied to every
        engine instance the test creates (one private solver per worker).
        This is how the benchmarks toggle the solver stack -- independence
        partitioning and the constraint/counterexample caches -- per run.
    use_posix_model:
        Install the POSIX environment model (on by default; pure
        computational targets may turn it off for speed).
    spec_name / spec_params:
        Set by :func:`repro.distrib.specs.resolve_test`: the registered
        test-spec this instance was built from.  Live tests hold closures and
        compiled programs that do not pickle, so process-based backends ship
        ``(spec_name, spec_params)`` and rebuild the test in each worker
        process instead.
    """

    name: str
    program: Union[Program, CompiledProgram]
    setup: Optional[StateSetup] = None
    options: Dict[str, object] = field(default_factory=dict)
    engine_config: EngineConfig = field(default_factory=EngineConfig)
    solver_config: Optional[SolverConfig] = None
    use_posix_model: bool = True
    strategy: str = "interleaved"
    spec_name: Optional[str] = None
    spec_params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.program, CompiledProgram):
            self.program = compile_program(self.program)

    # -- factories used by both execution modes ----------------------------------------

    def build_executor(self) -> SymbolicExecutor:
        installers = [install_posix_model] if self.use_posix_model else []
        solver = (Solver(replace(self.solver_config))
                  if self.solver_config is not None else None)
        return SymbolicExecutor(self.program, config=self.engine_config.copy(),
                                solver=solver,
                                environment_installers=installers)

    def build_initial_state(self, executor: SymbolicExecutor) -> ExecutionState:
        state = executor.make_initial_state(options=dict(self.options))
        if self.setup is not None:
            self.setup(state)
        return state

    # -- the unified entry point ---------------------------------------------------------

    def run(self, backend: str = "single",
            limits: Optional[ExplorationLimits] = None,
            **options: object) -> RunResult:
        """Run this test on any registered backend, returning a
        :class:`~repro.api.result.RunResult`.

        Limit fields (``max_paths=...``, ``coverage_target=...``, ...) may be
        passed directly among ``options``; remaining options are
        backend-specific (``strategy=`` for ``"single"``; ``workers=``,
        ``config=`` or any cluster-config field for the cluster backends;
        ``resume_from=`` a :class:`~repro.cluster.checkpoint.ClusterCheckpoint`
        or saved checkpoint path for the ``"cluster"``/``"threaded"``/
        ``"process"`` backends, paired with the ``checkpoint_every=`` /
        ``checkpoint_path=`` config knobs that produce the checkpoints;
        ``autoscale=`` an :class:`~repro.cluster.autoscale.AutoscalePolicy`
        (or ``True`` for the defaults) to let those same backends grow and
        shrink the cluster mid-run from queue pressure and round wall time;
        ``trace_path=`` to write the run's structured JSONL event trace,
        on every backend -- see :mod:`repro.obs`).
        """
        from repro.api.runner import run_test
        return run_test(self, backend=backend, limits=limits, **options)

    # -- cluster execution -----------------------------------------------------------------

    def build_cluster(self, config: Optional[ClusterConfig] = None,
                      cluster_class: Optional[Type[Cloud9Cluster]] = None
                      ) -> Cloud9Cluster:
        cluster_config = config or ClusterConfig()
        if cluster_config.strategy is None:
            # Copy rather than mutate: the caller's config may be reused
            # across tests with different strategies.
            cluster_config = replace(cluster_config, strategy=self.strategy)
        cluster_cls = cluster_class or Cloud9Cluster
        return cluster_cls(
            executor_factory=self.build_executor,
            state_factory=self.build_initial_state,
            config=cluster_config,
        )

    # -- static-partitioning baseline (for the ablation benchmarks) -------------------------

    def build_static_cluster(self, config: Optional[StaticPartitionConfig] = None
                             ) -> StaticPartitionCluster:
        cluster_config = config or StaticPartitionConfig()
        if cluster_config.strategy is None:
            cluster_config = replace(cluster_config, strategy=self.strategy)
        return StaticPartitionCluster(
            executor_factory=self.build_executor,
            state_factory=self.build_initial_state,
            config=cluster_config,
        )

    # -- convenience ---------------------------------------------------------------------------

    @property
    def line_count(self) -> int:
        return self.program.line_count

    def with_options(self, **options: object) -> "SymbolicTest":
        """A copy of this test with additional state options."""
        merged = dict(self.options)
        merged.update(options)
        return SymbolicTest(
            name=self.name,
            program=self.program,
            setup=self.setup,
            options=merged,
            engine_config=self.engine_config.copy(),
            solver_config=(replace(self.solver_config)
                           if self.solver_config is not None else None),
            use_posix_model=self.use_posix_model,
            strategy=self.strategy,
            # Extra options are applied locally only; a worker process
            # rebuilding from the spec would not see them, so drop the ref.
            spec_name=None,
            spec_params={},
        )
