"""Tests for the unified runner API: registry dispatch, limits round-trip
into every backend, the one RunResult every engine builds, and the
strategy-propagation fix."""

import pytest

from repro import lang as L
from repro.api import ExplorationLimits, RunResult, available_backends
from repro.api.runner import (
    Runner,
    get_runner,
    register_runner,
    run_test,
    _RUNNERS,
)
from repro.cluster import (
    Cloud9Cluster,
    ClusterConfig,
    StaticPartitionConfig,
    ThreadedCloud9Cluster,
)
from repro.distrib import specs
from repro.testing import SymbolicTest

from conftest import branchy_program, single_branch_program


def buggy_program() -> L.Program:
    """Two paths; the '!' path trips an assertion."""
    return L.program(
        "buggy",
        L.func(
            "main", [],
            L.decl("buf", L.call("cloud9_symbolic_buffer", 1, L.strconst("input"))),
            L.if_(L.eq(L.index(L.var("buf"), 0), ord("!")),
                  [L.assert_(L.eq(0, 1), "boom"), L.ret(1)],
                  [L.ret(0)]),
        ),
    )


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert set(available_backends()) >= {"single", "cluster", "static",
                                             "threaded"}

    def test_unknown_backend_is_an_error(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_runner("carrier-pigeon")
        test = SymbolicTest("t", single_branch_program())
        with pytest.raises(ValueError, match="unknown backend"):
            test.run(backend="carrier-pigeon")

    def test_duplicate_registration_rejected_unless_replaced(self):
        runner = get_runner("single")
        with pytest.raises(ValueError, match="already registered"):
            register_runner(runner)
        register_runner(runner, replace=True)  # no-op override is fine

    def test_custom_backend_dispatches(self):
        seen = []

        class EchoRunner:
            name = "echo-test-backend"

            def run(self, test, limits=None, **options):
                seen.append((limits, options))
                return RunResult(backend=self.name, test_name=test.name)

        register_runner(EchoRunner())
        try:
            test = SymbolicTest("t", single_branch_program())
            result = test.run(backend="echo-test-backend", max_paths=3,
                              custom_knob=7)
            assert result.backend == "echo-test-backend"
            [(limits, options)] = seen
            assert limits.max_paths == 3           # folded out of the options
            assert options == {"custom_knob": 7}   # the rest passed through
            assert isinstance(EchoRunner(), Runner)
        finally:
            del _RUNNERS["echo-test-backend"]

    def test_run_test_function_matches_method(self):
        test = SymbolicTest("t", single_branch_program())
        assert (run_test(test).paths_completed
                == test.run().paths_completed == 2)


class TestBackendDispatch:
    def test_all_backends_explore_the_same_paths(self):
        expected = 9  # 3^2 paths of branchy_program(2)
        for backend, options in [("single", {}),
                                 ("cluster", {"workers": 3,
                                              "instructions_per_round": 50}),
                                 ("threaded", {"workers": 2,
                                               "instructions_per_round": 50}),
                                 ("static", {"workers": 2})]:
            test = SymbolicTest("t", branchy_program(2))
            result = test.run(backend=backend, **options)
            assert result.backend == backend
            assert result.paths_completed == expected, backend
            assert result.exhausted, backend

    def test_cluster_accepts_full_config_object(self):
        test = SymbolicTest("t", branchy_program(2))
        config = ClusterConfig(num_workers=2, instructions_per_round=40)
        result = test.run(backend="cluster", config=config)
        assert result.num_workers == 2

    def test_config_and_loose_options_are_mutually_exclusive(self):
        test = SymbolicTest("t", single_branch_program())
        with pytest.raises(TypeError, match="not both"):
            test.run(backend="cluster", config=ClusterConfig(), workers=4)

    def test_single_rejects_cluster_options(self):
        test = SymbolicTest("t", single_branch_program())
        with pytest.raises(TypeError, match="unknown options"):
            test.run(backend="single", workers=4)


class TestLimitsRoundTrip:
    def test_single_max_paths(self):
        test = SymbolicTest("t", branchy_program(2))
        result = test.run(limits=ExplorationLimits(max_paths=4))
        assert result.paths_completed == 4
        assert result.goal_reached and not result.exhausted

    def test_single_max_steps(self):
        test = SymbolicTest("t", branchy_program(2))
        result = test.run(limits=ExplorationLimits(max_steps=5))
        assert result.steps == 5
        assert not result.exhausted

    def test_single_stop_on_first_bug(self):
        test = SymbolicTest("t", buggy_program())
        result = test.run(limits=ExplorationLimits(stop_on_first_bug=True))
        assert result.found_bug
        assert result.goal_reached

    def test_cluster_max_rounds(self):
        test = SymbolicTest("t", branchy_program(3))
        result = test.run(backend="cluster", workers=2,
                          instructions_per_round=10,
                          limits=ExplorationLimits(max_rounds=3))
        assert result.rounds_executed == 3
        assert not result.exhausted

    def test_cluster_coverage_target_marks_goal(self):
        test = SymbolicTest("t", branchy_program(2))
        result = test.run(backend="cluster", workers=2,
                          coverage_target=10.0)
        assert result.goal_reached
        assert result.coverage_percent >= 10.0

    def test_cluster_stop_on_first_bug(self):
        test = SymbolicTest("t", buggy_program())
        result = test.run(backend="cluster", workers=2,
                          instructions_per_round=50,
                          limits=ExplorationLimits(stop_on_first_bug=True))
        assert result.found_bug and result.goal_reached

    def test_cluster_max_instructions_budget(self):
        test = SymbolicTest("t", branchy_program(3))
        result = test.run(backend="cluster", workers=2,
                          instructions_per_round=10,
                          limits=ExplorationLimits(max_instructions=20))
        assert not result.exhausted
        assert not result.goal_reached  # a spent budget is not a goal

    def test_static_max_rounds(self):
        test = SymbolicTest("t", branchy_program(3))
        result = test.run(backend="static", workers=2,
                          instructions_per_round=10,
                          limits=ExplorationLimits(max_rounds=2))
        assert result.rounds_executed == 2

    def test_direct_kwargs_equal_limits_bundle(self):
        r1 = SymbolicTest("t", branchy_program(2)).run(max_paths=3)
        r2 = SymbolicTest("t", branchy_program(2)).run(
            limits=ExplorationLimits(max_paths=3))
        assert r1.paths_completed == r2.paths_completed == 3


class TestOneResultType:
    @pytest.mark.parametrize("engine", ["executor", "cluster", "threaded",
                                        "static", "process"])
    def test_every_engine_returns_a_run_result(self, engine):
        test = SymbolicTest("t", branchy_program(1))
        if engine == "executor":
            result = test.build_executor().run()
        elif engine == "static":
            result = test.build_static_cluster(
                StaticPartitionConfig(num_workers=2)).run()
        elif engine == "process":
            result = specs.resolve_test("printf", format_length=1).run(
                backend="process", workers=2)
        else:
            cluster_class = {"cluster": Cloud9Cluster,
                             "threaded": ThreadedCloud9Cluster}[engine]
            result = test.build_cluster(ClusterConfig(num_workers=2),
                                        cluster_class=cluster_class).run()
        assert type(result) is RunResult
        assert result.exhausted and result.paths_completed > 0

    def test_single_engine_fields(self):
        test = SymbolicTest("t", buggy_program())
        result = test.run()
        assert result.backend == "single"
        assert result.test_name == "t"
        assert result.num_workers == 1
        assert result.paths_completed == 2 == len(result.test_cases)
        assert result.bug_kinds() and result.found_bug
        assert result.useful_instructions > 0
        assert result.replay_instructions == 0
        assert result.total_instructions == result.useful_instructions
        assert result.exhausted and result.states_remaining == 0
        assert result.steps > 0 and result.wall_time >= 0.0
        # single-engine runs have no cluster-only notions
        assert result.rounds_executed is None
        assert result.timeline is None
        assert result.worker_stats is None
        assert result.states_transferred is None
        assert result.rounds_to_coverage(10.0) is None
        assert result.transfer_cost is None
        assert result.transfer_savings_ratio == 0.0
        # ... but solver-cache behavior is observable on every backend
        assert result.cache_stats["constraint_cache_misses"] > 0
        assert 0.0 <= result.cache_stats["constraint_cache_hit_rate"] <= 1.0

    def test_cluster_fields(self):
        test = SymbolicTest("t", branchy_program(2))
        result = test.run(backend="cluster", workers=3,
                          instructions_per_round=50)
        assert result.backend == "cluster"
        assert result.test_name == "t"
        assert result.num_workers == 3
        assert result.paths_completed == 9 == len(result.test_cases)
        assert result.exhausted and result.states_remaining == 0
        assert result.steps is None
        assert result.rounds_executed == len(result.timeline.snapshots)
        assert (result.timeline.useful_work_series()[-1]
                == result.useful_instructions)
        assert set(result.worker_stats) == {1, 2, 3}
        assert result.useful_instructions == sum(
            s.useful_instructions for s in result.worker_stats.values())
        assert result.replay_instructions == sum(
            s.replay_instructions for s in result.worker_stats.values())
        assert result.states_transferred == sum(
            snap.states_transferred for snap in result.timeline.snapshots)
        assert result.transfer_cost.jobs >= result.states_transferred
        assert result.rounds_to_coverage(1.0) is not None
        # rounds are virtual time, but real elapsed seconds are recorded too
        assert result.wall_time >= 0.0
        assert result.messages_sent > 0
        assert result.cache_stats["constraint_cache_misses"] > 0


class TestExhaustedIsBackendIndependent:
    @pytest.mark.parametrize("backend", ["single", "cluster", "threaded",
                                         "static"])
    def test_goal_met_in_the_emptying_round_still_exhausts(self, backend):
        """max_paths equal to the path count: the goal is met by the very
        step/round that empties the frontier, which every backend must
        report as both a reached goal and an exhausted frontier."""
        options = {} if backend == "single" else {"workers": 2}
        result = SymbolicTest("t", branchy_program(2)).run(
            backend=backend, max_paths=9, **options)
        assert result.paths_completed == 9
        assert result.states_remaining == 0
        assert result.exhausted
        assert result.goal_reached


class TestStrategyPropagation:
    def test_test_strategy_reaches_cluster_workers_by_default(self):
        """Regression: a non-default test strategy used to be silently
        dropped because ClusterConfig.strategy defaulted to 'interleaved'."""
        test = SymbolicTest("t", single_branch_program(), strategy="dfs")
        cluster = test.build_cluster(ClusterConfig(num_workers=2))
        assert cluster.config.strategy == "dfs"

    def test_test_strategy_reaches_static_cluster_workers(self):
        test = SymbolicTest("t", single_branch_program(), strategy="bfs")
        cluster = test.build_static_cluster(StaticPartitionConfig(num_workers=2))
        assert all(w.strategy.name == "bfs" for w in cluster.workers)

    def test_explicit_config_strategy_still_wins(self):
        test = SymbolicTest("t", single_branch_program(), strategy="dfs")
        cluster = test.build_cluster(ClusterConfig(num_workers=2,
                                                   strategy="bfs"))
        assert cluster.config.strategy == "bfs"

    def test_build_cluster_does_not_mutate_callers_config(self):
        config = ClusterConfig(num_workers=2)
        dfs_test = SymbolicTest("t", single_branch_program(), strategy="dfs")
        bfs_test = SymbolicTest("t", single_branch_program(), strategy="bfs")
        first = dfs_test.build_cluster(config)
        second = bfs_test.build_cluster(config)
        assert config.strategy is None  # reusable across tests
        assert first.config.strategy == "dfs"
        assert second.config.strategy == "bfs"

    def test_bare_cluster_falls_back_to_default_strategy(self):
        test = SymbolicTest("t", single_branch_program())
        cluster = test.build_cluster()
        assert cluster.config.strategy == "interleaved"

    def test_run_backend_propagates_strategy(self):
        test = SymbolicTest("t", branchy_program(2), strategy="dfs")
        result = test.run(backend="cluster", workers=2,
                          instructions_per_round=50)
        assert result.paths_completed == 9
