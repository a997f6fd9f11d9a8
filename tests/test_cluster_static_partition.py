"""Tests for the static-partitioning baseline and its comparison properties."""

import pytest

from repro.cluster import StaticPartitionConfig
from repro.testing import SymbolicTest

from conftest import branchy_program, single_branch_program


def make_test(program):
    return SymbolicTest("t", program, use_posix_model=False)


class TestBootstrapSplit:
    def test_bootstrap_produces_enough_prefixes(self):
        test = make_test(branchy_program(3))
        cluster = test.build_static_cluster(StaticPartitionConfig(num_workers=3))
        assert len(cluster.bootstrap.prefixes) >= 3

    def test_partitions_are_disjoint(self):
        test = make_test(branchy_program(3))
        cluster = test.build_static_cluster(StaticPartitionConfig(num_workers=3))
        ok, message = cluster.check_partition_disjointness()
        assert ok, message

    def test_single_path_program_leaves_workers_idle(self):
        # A program with one path cannot be split: all but one worker idles.
        test = make_test(single_branch_program())
        cluster = test.build_static_cluster(StaticPartitionConfig(num_workers=4))
        assert cluster.idle_worker_count() >= 2

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            StaticPartitionConfig(num_workers=0)
        with pytest.raises(ValueError):
            StaticPartitionConfig(instructions_per_round=0)
        with pytest.raises(ValueError):
            StaticPartitionConfig(partitions_per_worker=0)


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
        test = make_test(program)
        config = StaticPartitionConfig(num_workers=2, partitions_per_worker=1,
                                       instructions_per_round=30)
        cluster = test.build_static_cluster(config)
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
