"""The single-node symbolic execution engine (KLEE analogue).

:class:`SymbolicExecutor` ties together the interpreter, the cooperative
scheduler, the native-function registry and the execution tree.  It exposes
two levels of API:

* :meth:`SymbolicExecutor.step` -- execute one scheduling decision or one
  instruction of one state, returning all resulting states.  The cluster
  worker (:mod:`repro.cluster.worker`) drives exploration through this.
* :meth:`SymbolicExecutor.run` -- a complete single-node exploration loop
  with a search strategy and limits; this is what "1-worker Cloud9" (i.e.
  plain KLEE) uses in the evaluation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Union

from repro.engine.config import EngineConfig
from repro.engine.errors import BugKind, BugReport
from repro.engine.interpreter import Interpreter
from repro.engine.limits import UNLIMITED, ExplorationLimits
from repro.engine.natives import NativeRegistry
from repro.engine.result import RunResult
from repro.engine.scheduler import CooperativeScheduler
from repro.engine.state import ExecutionState, ThreadStatus
from repro.engine.strategies import SearchStrategy, make_strategy
from repro.engine.syscalls import default_registry
from repro.engine.test_case import TestCase, generate_test_case
from repro.engine.tree import ExecutionTree, NodeStatus, TreeNode
from repro.lang.ast import Program
from repro.lang.compiler import CompiledProgram, compile_program
from repro.obs.metrics import CounterField, bind_counters, counter_fields
from repro.obs import schema as trace_schema
from repro.obs.trace import NULL_TRACER, Tracer
from repro.solver.cache import aggregate_cache_counters
from repro.solver.solver import Solver

@dataclass
class StepResult:
    """Outcome of stepping one state once.

    ``children`` is the ordered list of all resulting states (running or
    terminated); its order defines the fork indices used in job paths.
    ``forked`` is true when more than one child was produced.
    """

    children: List[ExecutionState] = field(default_factory=list)
    terminated: List[ExecutionState] = field(default_factory=list)
    bugs: List[BugReport] = field(default_factory=list)
    test_cases: List[TestCase] = field(default_factory=list)
    instructions: int = 0

    @property
    def forked(self) -> bool:
        return len(self.children) > 1

    @property
    def running(self) -> List[ExecutionState]:
        return [s for s in self.children if s.is_running]


StateFactory = Callable[[], ExecutionState]


class SymbolicExecutor:
    """A single-node symbolic execution engine for one compiled program."""

    # Global exploration statistics (across run()/step() calls), registry-
    # backed (:mod:`repro.obs.metrics`) so the live-status/trace layer sees
    # them without extra plumbing.  Read/write surface is unchanged.
    total_instructions = CounterField("engine_instructions")
    paths_completed = CounterField("engine_paths_completed")

    def __init__(self, program: Union[Program, CompiledProgram],
                 config: Optional[EngineConfig] = None,
                 solver: Optional[Solver] = None,
                 natives: Optional[NativeRegistry] = None,
                 environment_installers: Sequence[Callable[["SymbolicExecutor"], None]] = ()):
        self.program = (program if isinstance(program, CompiledProgram)
                        else compile_program(program))
        self.config = config or EngineConfig()
        self.solver = solver or Solver()
        self.natives = natives or default_registry()
        self.scheduler = CooperativeScheduler(
            policy=self.config.scheduler_policy,
            fork_schedules=self.config.fork_on_schedule)
        self.interpreter = Interpreter(self.solver, self.natives, self.config)
        self.interpreter.executor = self

        #: One registry per engine, shared with the solver and its caches
        #: (and, on clusters, with the owning worker's ``WorkerStats``).
        self.metrics = self.solver.metrics
        bind_counters(self, counter_fields(type(self)), self.metrics)
        self.covered_lines: Set[int] = set()
        self.bugs: List[BugReport] = []
        self.test_cases: List[TestCase] = []

        # Environment models (e.g. the POSIX model) register natives and
        # per-state initialization hooks through installers.
        self.state_initializers: List[Callable[[ExecutionState], None]] = []
        for installer in environment_installers:
            installer(self)

    # -- state construction -----------------------------------------------------------

    def make_initial_state(self, options: Optional[Dict[str, object]] = None
                           ) -> ExecutionState:
        """Create the initial state: main process + thread at the entry point."""
        state = ExecutionState(self.program)
        if options:
            state.options.update(options)
        state.create_main_process()
        for initializer in self.state_initializers:
            initializer(state)
        return state

    # -- stepping ---------------------------------------------------------------------

    def _needs_schedule(self, state: ExecutionState) -> bool:
        if state.current is None:
            return True
        if state.options.pop("force_reschedule", False):
            return True
        return state.current_thread.status != ThreadStatus.ENABLED

    def step(self, state: ExecutionState) -> StepResult:
        """Advance a state by one scheduling decision or one instruction."""
        result = StepResult()
        if not state.is_running:
            return result

        # Per-path instruction limit: the infinite-loop/hang detector.
        limit = state.options.get("max_instructions",
                                  self.config.max_instructions_per_path)
        if limit is not None and state.instructions_executed >= int(limit):
            report = BugReport(
                kind=BugKind.INFINITE_LOOP,
                message="path exceeded %d instructions (possible hang)" % int(limit),
                state_id=state.state_id,
                function=(state.current_thread.top.function
                          if state.current else None),
            )
            state.terminate_error(report)
            self._finish_state(state, result)
            result.children = [state]
            return result

        if self._needs_schedule(state):
            return self._schedule(state, result)

        children = self.interpreter.execute_instruction(state)
        result.instructions = 1
        self.total_instructions += 1
        result.children = children
        for child in children:
            self.covered_lines.update(child.coverage)
            if not child.is_running:
                self._finish_state(child, result)
        return result

    def _schedule(self, state: ExecutionState, result: StepResult) -> StepResult:
        decision = self.scheduler.decide(state)
        if decision.all_exited:
            exit_code = 0
            main_process = state.processes.get(1)
            if main_process is not None and main_process.exit_code is not None:
                exit_code = main_process.exit_code
            state.terminate(exit_code)
            self._finish_state(state, result)
            result.children = [state]
            return result
        if decision.deadlock:
            if self.config.detect_deadlocks:
                state.terminate_error(self.scheduler.deadlock_report(state))
                self._finish_state(state, result)
            else:
                state.terminate(0)
                self._finish_state(state, result)
            result.children = [state]
            return result

        choices = decision.choices
        if len(choices) == 1:
            self.scheduler.apply(state, choices[0])
            result.children = [state]
            return result

        # Schedule fork: one successor per runnable thread.  All clones are
        # taken from the unmodified state before any choice is applied.
        state.forks += 1
        children: List[ExecutionState] = [
            state if index == 0 else state.fork()
            for index in range(len(choices))
        ]
        for index, (choice, succ) in enumerate(zip(choices, children)):
            succ.fork_trace.append(index)
            self.scheduler.apply(succ, choice)
        result.children = children
        return result

    def _finish_state(self, state: ExecutionState, result: StepResult) -> None:
        """Bookkeeping when a state reaches a terminal status."""
        result.terminated.append(state)
        self.paths_completed += 1
        self.covered_lines.update(state.coverage)
        error = state.error
        summary = error.summary() if error is not None else None
        test_case = generate_test_case(state, self.solver, error_summary=summary)
        if test_case is not None:
            state_test_case = test_case
            self.test_cases.append(test_case)
            result.test_cases.append(test_case)
            if error is not None:
                error.test_case = state_test_case
        if error is not None:
            self.bugs.append(error)
            result.bugs.append(error)

    # -- complete exploration -------------------------------------------------------------

    def run(self,
            initial_state: Optional[Union[ExecutionState, StateFactory]] = None,
            strategy: Optional[Union[str, SearchStrategy]] = None,
            limits: Optional[ExplorationLimits] = None) -> RunResult:
        """Explore until exhaustion or until a limit/goal is reached.

        ``limits.max_rounds`` has no meaning on a single engine and is
        ignored.
        """
        lim = limits if limits is not None else UNLIMITED
        max_steps, max_paths = lim.max_steps, lim.max_paths
        max_instructions, max_wall_time = lim.max_instructions, lim.max_wall_time
        coverage_target, stop_on_first_bug = lim.coverage_target, lim.stop_on_first_bug
        if initial_state is None:
            state = self.make_initial_state()
        elif callable(initial_state):
            state = initial_state()
        else:
            state = initial_state

        if strategy is None:
            strategy = make_strategy("interleaved", program=self.program)
        elif isinstance(strategy, str):
            strategy = make_strategy(strategy, program=self.program)

        tree = ExecutionTree()
        tree.root.materialize(state)
        candidates: Dict[int, TreeNode] = {tree.root.node_id: tree.root}

        result = RunResult(backend="single", test_name=self.program.name,
                           line_count=self.program.line_count, steps=0)
        start = time.monotonic()
        instructions_at_start = self.total_instructions
        paths_at_start = self.paths_completed
        bugs_at_start = len(self.bugs)
        solver_stats_at_start = self.solver.stats.snapshot()

        tracer = Tracer(lim.trace_path) if lim.trace_path else NULL_TRACER
        tracer.emit(trace_schema.RUN_STARTED, backend="single", workers=1,
                    test=self.program.name, line_count=result.line_count)
        # The single engine has no rounds; every ``trace_round`` steps it
        # emits a pseudo round so coverage-over-time still renders.
        trace_round = 256
        traced_rounds = 0
        traced_bugs = bugs_at_start
        traced_prev_useful = 0

        # Goals first, then exhaustion, then budgets -- the cluster
        # backends' order, so a goal met by the step that empties the
        # frontier is reported as reached on every backend.
        while True:
            if stop_on_first_bug and len(self.bugs) > bugs_at_start:
                result.goal_reached = True
                break
            if max_paths is not None and self.paths_completed - paths_at_start >= max_paths:
                result.goal_reached = True
                break
            if coverage_target is not None and result.line_count:
                percent = 100.0 * len(self.covered_lines) / result.line_count
                if percent >= coverage_target:
                    result.goal_reached = True
                    break
            if not candidates:
                break
            if max_steps is not None and result.steps >= max_steps:
                break
            if max_instructions is not None and (
                    self.total_instructions - instructions_at_start >= max_instructions):
                break
            if max_wall_time is not None and time.monotonic() - start > max_wall_time:
                break

            node = strategy.select(tree, list(candidates.values()))
            step_result = self.step(node.state)
            result.steps += 1
            self._apply_step_to_tree(tree, node, step_result, candidates, strategy)

            if tracer.enabled:
                while len(self.bugs) > traced_bugs:
                    bug = self.bugs[traced_bugs]
                    traced_bugs += 1
                    tracer.emit(trace_schema.BUG_FOUND, kind=bug.kind.name,
                                message=bug.message)
                if result.steps % trace_round == 0:
                    traced_prev_useful = self._trace_round(
                        tracer, traced_rounds, start, result,
                        instructions_at_start, paths_at_start, candidates,
                        traced_prev_useful)
                    traced_rounds += 1

        result.exhausted = not candidates
        result.paths_completed = self.paths_completed - paths_at_start
        result.bugs = list(self.bugs)
        result.test_cases = list(self.test_cases)
        result.covered_lines = set(self.covered_lines)
        result.useful_instructions = self.total_instructions - instructions_at_start
        result.states_remaining = len(candidates)
        result.wall_time = time.monotonic() - start
        result.cache_stats = aggregate_cache_counters([self.solver.cache_counters()])
        if tracer.enabled:
            self._trace_round(tracer, traced_rounds, start, result,
                              instructions_at_start, paths_at_start, candidates,
                              traced_prev_useful)
            solver_stats = self.solver.stats.delta_since(solver_stats_at_start)
            tracer.emit(trace_schema.SOLVER_QUERY, **{k: v for k, v
                                           in solver_stats.items() if v})
            tracer.emit(trace_schema.RUN_FINISHED, paths=result.paths_completed,
                        coverage_percent=round(result.coverage_percent, 3),
                        bugs=len(result.bugs), steps=result.steps,
                        instructions=result.useful_instructions,
                        exhausted=result.exhausted,
                        wall_time=round(result.wall_time, 6))
            tracer.close()
        return result

    def _trace_round(self, tracer, round_index: int, start: float,
                     result: RunResult, instructions_at_start: int,
                     paths_at_start: int, candidates: Dict[int, TreeNode],
                     prev_useful: int) -> int:
        """One pseudo ``round_completed`` event (single-engine time series).

        Like the cluster events, ``useful``/``replay`` are this round's
        increments, not cumulative totals.  Returns the new cumulative
        useful-instruction count for the next delta.
        """
        covered = len(self.covered_lines)
        percent = (100.0 * covered / result.line_count
                   if result.line_count else 0.0)
        total_useful = self.total_instructions - instructions_at_start
        useful = total_useful - prev_useful
        tracer.emit(
            trace_schema.ROUND_COMPLETED, round=round_index,
            elapsed=round(time.monotonic() - start, 6),
            coverage_percent=round(percent, 3), covered_lines=covered,
            paths=self.paths_completed - paths_at_start,
            candidates=len(candidates), workers=1,
            useful=useful, replay=0, transferred=0,
            queues={0: len(candidates)},
            workers_detail={0: {"useful": useful, "replay": 0,
                                "queue": len(candidates)}})
        return total_useful

    def _apply_step_to_tree(self, tree: ExecutionTree, node: TreeNode,
                            step_result: StepResult,
                            candidates: Dict[int, TreeNode],
                            strategy: SearchStrategy) -> None:
        """Update the execution tree and candidate set after one step."""
        children = step_result.children
        newly_covered: Set[int] = set()
        for child in children:
            newly_covered.update(child.coverage)
        strategy.notify_covered(newly_covered)

        if len(children) == 1 and children[0] is node.state:
            child = children[0]
            if not child.is_running:
                node.mark_dead()
                candidates.pop(node.node_id, None)
            return

        # A fork (or a termination that replaced the state object): the node
        # becomes an interior dead node and each resulting state gets a child.
        candidates.pop(node.node_id, None)
        for index, child_state in enumerate(children):
            child_node = node.add_child(index)
            if child_state.is_running:
                child_node.materialize(child_state)
                candidates[child_node.node_id] = child_node
            else:
                child_node.status = NodeStatus.MATERIALIZED
                child_node.mark_dead()
        node.mark_dead()
