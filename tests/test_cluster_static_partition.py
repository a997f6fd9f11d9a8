"""Tests for the static-partitioning baseline and its comparison properties."""

from repro.cluster import ClusterConfig, StaticPartitionCluster
from repro.testing import SymbolicTest

from conftest import branchy_program, single_branch_program


def make_test(program):
    return SymbolicTest("t", program, use_posix_model=False)


def build_static(test, **config):
    return test.build_cluster(ClusterConfig(**config),
                              cluster_class=StaticPartitionCluster)


class TestBootstrapSplit:
    def test_bootstrap_produces_enough_prefixes(self):
        cluster = build_static(make_test(branchy_program(3)), num_workers=3)
        dealt = {}

        def hook(round_index, running):
            if round_index == 0:
                dealt.update({m.worker_id: m.queue_length
                              for m in running.handles})

        cluster.round_hook = hook
        cluster.run()
        assert sum(dealt.values()) >= 3
        assert all(dealt.values())  # one prefix per worker, at least

    def test_partitions_are_disjoint(self):
        cluster = build_static(make_test(branchy_program(3)), num_workers=3)
        checks = []
        cluster.round_hook = lambda round_index, running: checks.append(
            running.check_frontier_invariants())
        cluster.run()
        assert checks
        for ok, message in checks:
            assert ok, message

    def test_single_path_program_leaves_workers_idle(self):
        # A program this small cannot be split: the bootstrap finishes it,
        # and the workers idle from the first round on.
        test = make_test(single_branch_program())
        result = test.run(backend="static", workers=4)
        first = result.timeline.snapshots[0]
        assert sum(1 for q in first.queue_lengths.values() if q == 0) >= 2


class TestStaticExploration:
    def test_explores_all_paths_of_small_program(self):
        test = make_test(branchy_program(3))
        reference = test.run()
        result = test.run(backend="static", workers=3)
        assert result.exhausted
        assert result.paths_completed == reference.paths_completed

    def test_coverage_matches_single_node_run(self):
        test = make_test(branchy_program(3))
        reference = test.run()
        result = test.run(backend="static", workers=2)
        assert result.covered_lines == reference.covered_lines

    def test_no_states_are_ever_transferred(self):
        test = make_test(branchy_program(3))
        result = test.run(backend="static", workers=3)
        assert result.states_transferred == 0
        assert all(not snap.load_balancing_enabled
                   for snap in result.timeline.snapshots)

    def test_exit_codes_match_dynamic_cluster(self):
        test = make_test(branchy_program(2))
        static = test.run(backend="static", workers=2)
        dynamic = test.run(backend="cluster", workers=2)
        static_codes = sorted(tc.exit_code for tc in static.test_cases)
        dynamic_codes = sorted(tc.exit_code for tc in dynamic.test_cases)
        assert static_codes == dynamic_codes

    def test_bug_found_by_the_bootstrap_meets_the_goal(self):
        """With 4 workers the bootstrap finishes both paths of this program
        itself, bug included: that bug must count toward the goal."""
        from repro import lang as L

        program = L.program("buggy", L.func(
            "main", [],
            L.decl("buf", L.call("cloud9_symbolic_buffer", 1,
                                 L.strconst("b"))),
            L.assert_(L.ne(L.index(L.var("buf"), 0), 7), "boom"),
            L.ret(0),
        ))
        result = make_test(program).run(backend="static", workers=4,
                                        stop_on_first_bug=True)
        assert result.goal_reached and result.exhausted
        assert len(result.bugs) == 1
        assert result.timeline.snapshots[0].bugs_found == 1


class TestImbalance:
    def test_static_partitioning_shows_imbalance_on_skewed_trees(self):
        """The §2 claim: static partitioning leaves workers idle while one
        worker still has a deep subtree, whereas dynamic balancing keeps the
        frontier spread out."""
        from repro import lang as L

        # A skewed program: one branch terminates immediately, the other
        # opens a deep subtree of further branching.
        program = L.program(
            "skewed",
            L.func(
                "main", [],
                L.decl("buf", L.call("cloud9_symbolic_buffer", 4, L.strconst("in"))),
                L.if_(L.lt(L.index(L.var("buf"), 0), 128), [L.ret(0)]),
                L.decl("i", 1),
                L.decl("acc", 0),
                L.while_(L.lt(L.var("i"), 4),
                    L.if_(L.gt(L.index(L.var("buf"), L.var("i")), 64),
                          [L.assign("acc", L.add(L.var("acc"), 1))]),
                    L.assign("i", L.add(L.var("i"), 1)),
                ),
                L.ret(L.var("acc")),
            ),
        )
        cluster = build_static(make_test(program), num_workers=2,
                               instructions_per_round=30)
        result = cluster.run()
        assert result.exhausted
        # At least one recorded round had an idle worker while another still
        # held multiple candidates (workload imbalance).
        imbalanced_rounds = [
            snap for snap in result.timeline.snapshots
            if min(snap.queue_lengths.values()) == 0
            and max(snap.queue_lengths.values()) >= 1
        ]
        assert imbalanced_rounds
