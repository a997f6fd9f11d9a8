"""Cross-backend parity: one coordinator shell, five backends, same answers.

The regression test for the drift class the shared
:class:`~repro.cluster.core.CoordinatorCore` eliminates: the same spec run
under identical limits on the ``cluster``, ``threaded``, ``static``,
``process`` and ``tcp`` backends -- one shell over the in-process, mp-queue
and socket carriers -- must explore the same set of paths (compared as
test-case fork traces, not counts), cover the same lines, report the same
bugs, and speak the same trace-event vocabulary (``static`` minus
``job_transferred``: its split is final, so it never transfers).
"""

import multiprocessing

import pytest

from repro.api import ExplorationLimits
from repro.cluster import (ClusterConfig, StaticPartitionCluster,
                           ThreadedCloud9Cluster)
from repro.distrib import specs
from repro.distrib.cluster import ProcessCloud9Cluster, ProcessClusterConfig
from repro.obs.trace import load_trace
from repro.testing import SymbolicTest

from conftest import branchy_program, single_branch_program

fork_available = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not fork_available,
    reason="process-backed tests need the fork start method")

SPEC_NAME = "printf"
SPEC_PARAMS = {"format_length": 2}
NUM_WORKERS = 2
INSTRUCTIONS_PER_ROUND = 300
LIMITS_KWARGS = dict(max_rounds=80)

#: Worker-local events (explore spans, forwarded engine events) ride along
#: on process-backend status replies only; they are not part of the
#: coordinator protocol whose vocabulary the shared core pins.
WORKER_LOCAL_EVENTS = {"span", "worker_event"}

CLUSTER_CLASSES = {"threaded": ThreadedCloud9Cluster,
                   "static": StaticPartitionCluster}


def _run_backend(backend, trace_path):
    limits = ExplorationLimits(trace_path=str(trace_path), **LIMITS_KWARGS)
    if backend in ("process", "tcp"):
        config = ProcessClusterConfig(
            num_workers=NUM_WORKERS,
            instructions_per_round=INSTRUCTIONS_PER_ROUND,
            transport="tcp" if backend == "tcp" else "mp",
            spawn_local_agents=backend == "tcp")
        cluster = ProcessCloud9Cluster(SPEC_NAME, SPEC_PARAMS, config=config)
        return cluster.run(limits=limits)
    test = specs.resolve_test(SPEC_NAME, **SPEC_PARAMS)
    config = ClusterConfig(num_workers=NUM_WORKERS,
                           instructions_per_round=INSTRUCTIONS_PER_ROUND)
    cluster = test.build_cluster(config,
                                 cluster_class=CLUSTER_CLASSES.get(backend))
    return cluster.run(limits=limits)


@pytest.fixture(scope="module")
def backend_runs(tmp_path_factory):
    """Run every backend once; the assertions below slice the results."""
    runs = {}
    base = tmp_path_factory.mktemp("parity")
    backends = ["cluster", "threaded", "static"]
    if fork_available:
        backends.extend(["process", "tcp"])
    for backend in backends:
        trace_path = base / ("%s.jsonl" % backend)
        result = _run_backend(backend, trace_path)
        runs[backend] = (result, load_trace(str(trace_path)))
    return runs


def _pairs(runs):
    names = sorted(runs)
    return [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]


def _fork_traces(result):
    """The explored path set: one fork trace per completed path."""
    return sorted(tuple(case.fork_trace) for case in result.test_cases)


class TestResultParity:
    def test_every_backend_exhausts(self, backend_runs):
        for backend, (result, _) in backend_runs.items():
            assert result.exhausted, backend

    def test_paths_identical(self, backend_runs):
        for backend, (result, _) in backend_runs.items():
            traces = _fork_traces(result)
            assert len(set(traces)) == len(traces), backend  # each path once
        for a, b in _pairs(backend_runs):
            assert (_fork_traces(backend_runs[a][0])
                    == _fork_traces(backend_runs[b][0])), (a, b)

    def test_coverage_identical(self, backend_runs):
        for a, b in _pairs(backend_runs):
            assert (backend_runs[a][0].covered_lines
                    == backend_runs[b][0].covered_lines), (a, b)

    def test_bugs_identical(self, backend_runs):
        for a, b in _pairs(backend_runs):
            assert (backend_runs[a][0].bug_summaries()
                    == backend_runs[b][0].bug_summaries()), (a, b)


class TestTraceVocabularyParity:
    def test_backend_stamp(self, backend_runs):
        for backend, (_, events) in backend_runs.items():
            assert events[0]["event"] == "run_started", backend
            assert events[0]["backend"] == backend

    def test_event_vocabulary_identical(self, backend_runs):
        vocabularies = {
            backend: {e["event"] for e in events} - WORKER_LOCAL_EVENTS
            for backend, (_, events) in backend_runs.items()}
        # The static split is final: it never transfers, the others do.
        static = vocabularies.pop("static")
        assert "job_transferred" in vocabularies["cluster"]
        assert static == vocabularies["cluster"] - {"job_transferred"}
        for a, b in _pairs(vocabularies):
            assert vocabularies[a] == vocabularies[b], (a, b)

    def test_round_completed_keys_identical(self, backend_runs):
        envelope = {"seq", "ts", "event", "run"}
        key_sets = {}
        for backend, (_, events) in backend_runs.items():
            rounds = [e for e in events if e["event"] == "round_completed"]
            assert rounds, backend
            key_sets[backend] = frozenset(
                frozenset(set(e) - envelope) for e in rounds)
        for a, b in _pairs(backend_runs):
            assert key_sets[a] == key_sets[b], (a, b)

    def test_run_finished_reports_round_time_percentiles(self, backend_runs):
        for backend, (_, events) in backend_runs.items():
            finished = events[-1]
            assert finished["event"] == "run_finished", backend
            assert finished["round_time_p50"] >= 0.0, backend
            assert finished["round_time_p99"] >= finished["round_time_p50"], backend

    def test_solver_query_reports_latency_percentiles(self, backend_runs):
        """Worker solvers ship their latency histograms home on every
        backend (FinalReply.latency carries them across the process
        boundary), so the final solver_query event always has p50/p99."""
        for backend, (_, events) in backend_runs.items():
            queries = [e for e in events if e["event"] == "solver_query"]
            assert queries, backend
            final = queries[-1]
            assert final["latency_count"] > 0, backend
            assert final["latency_p99"] >= final["latency_p50"] >= 0.0, backend


@needs_fork
class TestProcessSmoke:
    """The CI coordinator-parity job's entry point: the process and tcp
    backends agree with the in-process reference run."""

    def test_process_matches_cluster(self, backend_runs):
        reference, _ = backend_runs["cluster"]
        for backend in ("process", "tcp"):
            assert backend in backend_runs
            result, _ = backend_runs[backend]
            assert _fork_traces(result) == _fork_traces(reference), backend
            assert result.covered_lines == reference.covered_lines, backend
            assert (result.bug_summaries()
                    == reference.bug_summaries()), backend


@pytest.mark.parametrize("program, workers", [
    (single_branch_program, 4),
    (lambda: branchy_program(3), 1),
    (lambda: branchy_program(3), 2),
    (lambda: branchy_program(3), 3),
    (lambda: branchy_program(3), 4),
], ids=["single_branch-4", "branchy3-1", "branchy3-2", "branchy3-3",
        "branchy3-4"])
def test_static_matches_single(program, workers):
    """The static bootstrap runs in the coordinator; whatever it finishes
    (all of ``single_branch_program`` with 4 workers) must be counted
    exactly once next to what the members explore."""
    test = SymbolicTest("t", program(), use_posix_model=False)
    reference = test.run()
    result = test.run(backend="static", workers=workers)
    assert result.exhausted
    assert _fork_traces(result) == _fork_traces(reference)
    assert result.paths_completed == reference.paths_completed
