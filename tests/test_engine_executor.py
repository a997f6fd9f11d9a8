"""Unit tests for the single-node exploration driver and its limits."""

from repro import lang as L
from repro.api import ExplorationLimits
from repro.engine import SymbolicExecutor
from repro.engine.strategies import make_strategy

from conftest import branchy_program, make_executor


class TestRunLimits:
    def test_exhaustive_run(self):
        executor = make_executor(branchy_program(2))
        result = executor.run()
        assert result.exhausted
        assert result.paths_completed == 9
        assert result.states_remaining == 0

    def test_max_paths_limit(self):
        executor = make_executor(branchy_program(3))
        result = executor.run(limits=ExplorationLimits(max_paths=5))
        assert result.paths_completed >= 5
        assert not result.exhausted

    def test_max_steps_limit(self):
        executor = make_executor(branchy_program(3))
        result = executor.run(limits=ExplorationLimits(max_steps=10))
        assert result.steps == 10

    def test_max_instructions_limit(self):
        executor = make_executor(branchy_program(3))
        result = executor.run(limits=ExplorationLimits(max_instructions=50))
        assert result.useful_instructions >= 50
        assert not result.exhausted

    def test_coverage_target_stops_early(self):
        executor = make_executor(branchy_program(3))
        result = executor.run(limits=ExplorationLimits(coverage_target=50.0))
        assert result.coverage_percent >= 50.0

    def test_coverage_percent_bounded(self):
        executor = make_executor(branchy_program(2))
        result = executor.run()
        assert 0.0 < result.coverage_percent <= 100.0
        assert result.covered_lines <= set(range(result.line_count))

    def test_counters_accumulate_across_runs(self):
        executor = make_executor(branchy_program(1))
        first = executor.run()
        second_executor = make_executor(branchy_program(1))
        second = second_executor.run()
        assert first.paths_completed == second.paths_completed == 3

    def test_wall_time_recorded(self):
        executor = make_executor(branchy_program(1))
        result = executor.run()
        assert result.wall_time >= 0.0


class TestStrategies:
    def _run_with(self, name):
        executor = make_executor(branchy_program(2))
        result = executor.run(strategy=name)
        return result

    def test_all_strategies_reach_exhaustion(self):
        for name in ("dfs", "bfs", "random_state", "random_path",
                     "coverage_optimized", "interleaved"):
            result = self._run_with(name)
            assert result.exhausted, name
            assert result.paths_completed == 9, name

    def test_strategy_objects_accepted(self):
        executor = make_executor(branchy_program(1))
        strategy = make_strategy("dfs")
        result = executor.run(strategy=strategy)
        assert result.exhausted

    def test_unknown_strategy_rejected(self):
        try:
            make_strategy("definitely-not-a-strategy")
            assert False
        except ValueError:
            pass


class TestStepResults:
    def test_step_result_children_order_deterministic(self):
        program = branchy_program(1)
        runs = []
        for _ in range(2):
            executor = make_executor(program)
            state = executor.make_initial_state()
            trace = []
            frontier = [state]
            for _step in range(200):
                if not frontier:
                    break
                current = frontier.pop(0)
                result = executor.step(current)
                trace.append(len(result.children))
                frontier.extend(result.running)
            runs.append(trace)
        assert runs[0] == runs[1]

    def test_step_on_terminated_state_is_noop(self):
        executor = make_executor(branchy_program(1))
        state = executor.make_initial_state()
        state.terminate(0)
        result = executor.step(state)
        assert result.children == []

    def test_initial_state_options_passed_through(self):
        executor = make_executor(branchy_program(1))
        state = executor.make_initial_state(options={"max_instructions": 123})
        assert state.options["max_instructions"] == 123
