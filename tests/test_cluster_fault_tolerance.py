"""Fault tolerance, elastic membership and checkpoint/resume (§2.3).

Covers the frontier ledger, member-death recovery (SIGKILL mid-run,
respawn and failure budgets on the process cluster; a raising in-process
worker on the cluster and threaded backends), clean teardown of stuck and
killed workers, elastic add/remove on every backend, and checkpoint/resume
equivalence with uninterrupted runs.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro import lang as L
from repro.api import ExplorationLimits
from repro.cluster.checkpoint import ClusterCheckpoint
from repro.cluster.coordinator import ClusterConfig
from repro.cluster.jobs import Job, JobTree
from repro.cluster.ledger import FrontierLedger, RecoveryJob
from repro.cluster.load_balancer import LoadBalancer, TransferCommand
from repro.cluster.worker import Worker
from repro.distrib import specs
from repro.distrib.cluster import (
    ProcessCloud9Cluster,
    ProcessClusterConfig,
    WorkerProcessError,
)
from repro.distrib.messages import ExploreCommand, SeedCommand
from repro.distrib.worker import DistribWorker
from repro.engine.config import EngineConfig
from repro.testing.symbolic_test import SymbolicTest

from conftest import branchy_program, make_executor

LIMITS = ExplorationLimits(max_rounds=500)

fork_available = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not fork_available,
    reason="runtime-registered specs reach child processes only under fork")


def _buggy_program(buffer_size=3):
    """branchy plus a deterministic assertion bug on the all-'A' paths."""
    return L.program(
        "ft-buggy",
        L.func(
            "main", [],
            L.decl("buf", L.call("cloud9_symbolic_buffer", buffer_size,
                                 L.strconst("input"))),
            L.decl("i", 0),
            L.decl("acc", 0),
            L.while_(L.lt(L.var("i"), buffer_size),
                L.decl("c", L.index(L.var("buf"), L.var("i"))),
                L.if_(L.eq(L.var("c"), ord("A")),
                      [L.assign("acc", L.add(L.var("acc"), 1))],
                      [L.if_(L.eq(L.var("c"), ord("B")),
                             [L.assign("acc", L.add(L.var("acc"), 3))])]),
                L.assign("i", L.add(L.var("i"), 1)),
            ),
            L.assert_(L.ne(L.var("acc"), buffer_size), "all-A input"),
            L.ret(L.var("acc")),
        ),
    )


def _buggy_spec_test(buffer_size=3):
    return SymbolicTest(name="ft-buggy", program=_buggy_program(buffer_size),
                        use_posix_model=False)


def _spin_program():
    """A concrete infinite loop: a worker exploring it never yields."""
    return L.program(
        "spin",
        L.func(
            "main", [],
            L.decl("x", 0),
            L.while_(L.lt(0, 1), L.assign("x", L.add(L.var("x"), 1))),
            L.ret(0),
        ),
    )


def _spin_spec_test():
    return SymbolicTest(name="spin", program=_spin_program(),
                        use_posix_model=False, engine_config=EngineConfig())


# Registered at import time: "fork" children inherit the registry.
specs.register_spec("test-ft-buggy", _buggy_spec_test, replace=True)
specs.register_spec("test-ft-spin", _spin_spec_test, replace=True)


# -- frontier ledger -------------------------------------------------------------------


class TestFrontierLedger:
    def test_seed_then_transfer_tracks_territory(self):
        ledger = FrontierLedger()
        ledger.register(1)
        ledger.register(2)
        ledger.acquire(1, ())
        ledger.cede(1, (0,))
        ledger.acquire(2, (0,))
        assert ledger.recovery_jobs(1) == [RecoveryJob((), fences=((0,),))]
        assert ledger.recovery_jobs(2) == [RecoveryJob((0,))]

    def test_bounced_job_restores_territory(self):
        ledger = FrontierLedger()
        ledger.acquire(1, ())
        ledger.cede(1, (0, 1))
        ledger.acquire(1, (0, 1))  # the job came back
        assert ledger.recovery_jobs(1) == [RecoveryJob(())]

    def test_nested_cede_inside_reacquired_subtree(self):
        ledger = FrontierLedger()
        ledger.acquire(1, ())
        ledger.cede(1, (0,))
        ledger.acquire(1, (0, 1))  # re-imported a piece of the ceded subtree
        jobs = ledger.recovery_jobs(1)
        assert RecoveryJob((), fences=((0,),)) in jobs
        assert RecoveryJob((0, 1)) in jobs

    def test_export_of_whole_owned_root_clears_it(self):
        ledger = FrontierLedger()
        ledger.acquire(1, (2,))
        ledger.cede(1, (2,))
        assert ledger.recovery_jobs(1) == []

    def test_forget_drops_worker(self):
        ledger = FrontierLedger()
        ledger.acquire(3, ())
        ledger.forget(3)
        assert ledger.recovery_jobs(3) == []
        assert 3 not in ledger.worker_ids


# -- checkpoint serialization ----------------------------------------------------------


class TestClusterCheckpoint:
    def _checkpoint(self):
        return ClusterCheckpoint(
            round_index=6,
            frontier_paths=[(0, 1), (2,)],
            coverage_bits=0b1011,
            line_count=10,
            paths_completed=4,
            useful_instructions=100,
            replay_instructions=20,
            worker_stats={1: {"paths_completed": 4}},
            strategy_seeds={1: 1, 2: 2},
            spec_name="test-ft-buggy",
        )

    def test_json_round_trip(self):
        checkpoint = self._checkpoint()
        restored = ClusterCheckpoint.from_json(checkpoint.to_json())
        assert restored == checkpoint
        assert restored.frontier_paths == [(0, 1), (2,)]
        assert restored.strategy_seeds == {1: 1, 2: 2}

    def test_save_load_and_coerce(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        checkpoint = self._checkpoint()
        checkpoint.save(path)
        assert ClusterCheckpoint.load(path) == checkpoint
        assert ClusterCheckpoint.coerce(path) == checkpoint
        assert ClusterCheckpoint.coerce(checkpoint) is checkpoint
        with pytest.raises(TypeError, match="resume_from"):
            ClusterCheckpoint.coerce(42)

    def test_coverage_helpers(self):
        checkpoint = self._checkpoint()
        assert checkpoint.covered_lines() == {0, 1, 3}
        assert checkpoint.coverage_percent == 30.0

    def test_save_killed_midway_keeps_previous_checkpoint(self, tmp_path,
                                                          monkeypatch):
        """A coordinator killed while writing a checkpoint must leave the
        previous snapshot loadable -- and resumable."""
        path = str(tmp_path / "ckpt.json")
        test = specs.resolve_test("test-ft-buggy")
        options = dict(workers=2, instructions_per_round=40)
        test.run(backend="cluster", checkpoint_every=1, checkpoint_path=path,
                 limits=ExplorationLimits(max_rounds=2), **options)
        before = open(path).read()
        assert ClusterCheckpoint.load(path).round_index == 2

        def killed(fd):
            raise KeyboardInterrupt("coordinator killed mid-write")

        # Dies after the new snapshot's bytes were written, before they
        # were durable -- the last point an in-place rewrite could survive.
        monkeypatch.setattr("repro.cluster.checkpoint.os.fsync", killed)
        with pytest.raises(KeyboardInterrupt):
            self._checkpoint().save(path)
        monkeypatch.undo()
        assert open(path).read() == before
        assert os.listdir(str(tmp_path)) == ["ckpt.json"]  # no stray temp
        resumed = test.run(backend="cluster", resume_from=path, limits=LIMITS,
                           **options)
        assert resumed.exhausted and resumed.resumed_from_round == 2
        full = test.run(backend="cluster", limits=LIMITS, **options)
        assert resumed.paths_completed == full.paths_completed


# -- load balancer transfer cancellation ------------------------------------------------


class TestCancelTransfer:
    def test_cancel_rolls_back_estimates(self):
        lb = LoadBalancer(line_count=10)
        lb.receive_status(1, queue_length=10, useful_instructions=0,
                          coverage_bits=0)
        lb.receive_status(2, queue_length=0, useful_instructions=0,
                          coverage_bits=0)
        commands = lb.balance()
        assert len(commands) == 1
        command = commands[0]
        assert lb.reports[1].queue_length == 10 - command.job_count
        lb.cancel_transfer(command)
        assert lb.reports[1].queue_length == 10
        assert lb.reports[2].queue_length == 0

    def test_cancel_tolerates_departed_workers(self):
        lb = LoadBalancer(line_count=10)
        lb.receive_status(1, queue_length=4, useful_instructions=0,
                          coverage_bits=0)
        lb.cancel_transfer(TransferCommand(source=9, destination=1, job_count=2))
        assert lb.reports[1].queue_length == 2


# -- fence-aware import (worker side of recovery) ---------------------------------------


class TestRecoveredImport:
    def test_fences_exclude_live_workers_subtrees(self):
        executor = make_executor(branchy_program(2))
        worker = Worker(1, executor, lambda e: e.make_initial_state())
        tree = JobTree.from_jobs([Job(())])
        imported = worker.import_jobs(tree, fence_paths=[(0,)], recovered=True)
        assert imported == 1
        assert worker.stats.jobs_recovered == 1
        while worker.has_work:
            worker.explore(1000)
        # branchy(2) has 9 paths; the fenced first-byte=='A' subtree holds 3.
        assert worker.paths_completed == 6

    def test_recovered_root_import_replays_the_seed(self):
        executor = make_executor(branchy_program(2))
        worker = Worker(1, executor, lambda e: e.make_initial_state())
        worker.import_jobs(JobTree.from_jobs([Job(())]), recovered=True)
        while worker.has_work:
            worker.explore(1000)
        assert worker.paths_completed == 9

    def test_recovery_into_entangled_tree_counts_each_path_once(self):
        """Regression for the deep-spine recovery bugs: the survivor's tree
        holds replay fence shells *inside* the dead worker's territory (for
        jobs the dead worker once ceded back) plus its own explored work at
        the fence paths.  Recovery must re-explore exactly the non-fenced
        part -- the old code either skipped the fence shells (losing the
        dead worker's completed paths) or revived the survivor's completed
        subtrees (counting them twice)."""
        from repro.targets import printf
        test = printf.make_symbolic_test(format_length=2)
        single = test.run(backend="single").paths_completed

        def mkworker(worker_id):
            return Worker(worker_id, test.build_executor(),
                          test.build_initial_state)

        w1, w2 = mkworker(1), mkworker(2)
        w1.seed()
        # Grow a deep candidate D and hand its whole subtree to w2.
        deep = None
        while w1.has_work and deep is None:
            w1.explore(40)
            candidates = [p for p in w1.frontier_paths() if len(p) >= 8]
            if candidates:
                deep = sorted(candidates)[-1]
        assert deep is not None
        node = next(n for n in w1.candidates.values()
                    if tuple(n.path_from_root()) == deep)
        node.mark_fence()
        w1._remove_candidate(node)
        w2.import_jobs(JobTree.from_jobs([Job(deep)]))
        # w2 explores partway down the spine, ceding deep jobs back to w1;
        # w1 replays them (leaving fence shells on the spine) and finishes.
        for _ in range(4):
            if w2.has_work:
                w2.explore(30)
        ceded_back = w2.export_jobs(3)
        fence_paths = [job.path for job in ceded_back.jobs()]
        assert fence_paths, "w2 had nothing to cede; tune the budgets"
        w1.import_jobs(ceded_back)
        while w1.has_work:
            w1.explore(2000)
        # w2 dies; its territory (root D, minus what it ceded) is requeued.
        w1.import_jobs(JobTree.from_jobs([Job(deep)]),
                       fence_paths=fence_paths, recovered=True)
        while w1.has_work:
            w1.explore(2000)
        assert w1.paths_completed == single
        assert w1.stats.jobs_recovered == 1


# -- process-backend fault tolerance ----------------------------------------------------


def _pconfig(**kw):
    kw.setdefault("num_workers", 2)
    kw.setdefault("instructions_per_round", 40)
    kw.setdefault("reply_timeout", 1.0)
    kw.setdefault("shutdown_timeout", 2.0)
    return ProcessClusterConfig(**kw)


def _kill_hook(target_round=2):
    """A round hook that SIGKILLs the last worker once it has work."""
    killed = {}

    def hook(round_index, cluster):
        if killed or round_index < target_round or len(cluster.handles) < 2:
            return
        victim = cluster.handles[-1]
        if victim.queue_length == 0:
            return  # wait until it owns territory worth recovering
        killed["pid"] = victim.process.pid
        os.kill(victim.process.pid, signal.SIGKILL)

    hook.killed = killed
    return hook


@needs_fork
class TestProcessFaultTolerance:
    @pytest.fixture(scope="class")
    def baseline(self):
        test = specs.resolve_test("test-ft-buggy")
        result = test.run(backend="process", workers=2, limits=LIMITS,
                          instructions_per_round=40, reply_timeout=1.0)
        assert result.exhausted
        assert result.worker_failures == 0
        assert result.found_bug
        return result

    def test_sigkill_between_rounds_recovers_and_matches_baseline(self, baseline):
        cluster = ProcessCloud9Cluster("test-ft-buggy", config=_pconfig())
        hook = _kill_hook()
        cluster.round_hook = hook
        result = cluster.run(limits=LIMITS)
        assert hook.killed, "the victim never owned work; tune the target"
        assert result.worker_failures == 1
        assert result.jobs_recovered > 0
        assert result.exhausted
        # Deterministic target: recovery re-explores the dead worker's
        # territory, so the killed run converges to the crash-free outcome.
        assert result.paths_completed == baseline.paths_completed
        assert (sorted(b.summary() for b in result.bugs)
                == sorted(b.summary() for b in baseline.bugs))
        assert result.covered_lines == baseline.covered_lines
        # The dead worker's last-known counters are kept, separate from totals.
        assert set(result.failed_worker_stats) == {2}

    def test_sigkill_mid_explore_recovers(self, baseline):
        # Big per-round budget: round 0 lasts long enough for the timer to
        # land while the explore replies are still outstanding.
        cluster = ProcessCloud9Cluster(
            "test-ft-buggy", config=_pconfig(instructions_per_round=2000))
        killed = {}
        timers = []

        def kill(pid):
            try:
                os.kill(pid, signal.SIGKILL)
                killed["pid"] = pid
            except ProcessLookupError:  # pragma: no cover - run won the race
                pass

        def hook(round_index, cl):
            if round_index == 0 and not timers and len(cl.handles) == 2:
                timer = threading.Timer(0.003, kill,
                                        (cl.handles[-1].process.pid,))
                timer.start()
                timers.append(timer)

        cluster.round_hook = hook
        result = cluster.run(limits=LIMITS)
        for timer in timers:
            timer.join()
        assert killed, "the kill landed after the run already finished"
        assert result.worker_failures == 1
        assert result.exhausted
        assert result.paths_completed == baseline.paths_completed

    def test_respawn_replaces_the_dead_worker(self, baseline):
        cluster = ProcessCloud9Cluster(
            "test-ft-buggy",
            config=_pconfig(respawn=True, max_worker_failures=3))
        hook = _kill_hook()
        cluster.round_hook = hook
        result = cluster.run(limits=LIMITS)
        assert hook.killed
        assert result.worker_failures == 1
        assert result.respawns == 1
        assert result.num_workers == 2  # back at configured size
        assert result.exhausted
        assert result.paths_completed == baseline.paths_completed
        # The replacement got a fresh id and reported its own final stats.
        assert 3 in result.worker_stats

    def test_late_kill_on_deep_tree_matches_baseline(self):
        """End-to-end variant of the deep-spine regression: printf's tree
        produces long transfer spines; a late kill (after real territory has
        bounced both ways) must still converge to the crash-free outcome."""
        config = _pconfig(instructions_per_round=100)
        baseline = ProcessCloud9Cluster(
            "printf", spec_params={"format_length": 2},
            config=config).run(limits=LIMITS)
        assert baseline.exhausted

        cluster = ProcessCloud9Cluster(
            "printf", spec_params={"format_length": 2},
            config=_pconfig(instructions_per_round=100))
        hook = _kill_hook(target_round=4)
        cluster.round_hook = hook
        result = cluster.run(limits=LIMITS)
        assert hook.killed
        assert result.worker_failures == 1
        assert result.jobs_recovered > 0
        assert result.exhausted
        assert result.paths_completed == baseline.paths_completed
        assert result.covered_lines == baseline.covered_lines

    def test_failure_budget_zero_restores_old_behavior(self):
        cluster = ProcessCloud9Cluster(
            "test-ft-buggy", config=_pconfig(max_worker_failures=0))
        hook = _kill_hook(target_round=1)
        cluster.round_hook = hook
        with pytest.raises(WorkerProcessError, match="failure budget"):
            cluster.run(limits=LIMITS)

    def test_no_orphan_processes_after_recovered_run(self):
        cluster = ProcessCloud9Cluster("test-ft-buggy", config=_pconfig())
        pids = []
        hook = _kill_hook()
        original_hook = hook

        def wrapper(round_index, cl):
            for handle in cl.handles:
                if handle.process.pid not in pids:
                    pids.append(handle.process.pid)
            original_hook(round_index, cl)

        cluster.round_hook = wrapper
        cluster.run(limits=LIMITS)
        assert cluster.handles == []
        assert len(pids) >= 2
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            alive = [pid for pid in pids if _pid_alive(pid)]
            if not alive:
                break
            time.sleep(0.05)
        assert not alive, "worker processes leaked: %r" % alive

    def test_wedged_worker_teardown_escalates(self):
        """A worker stuck in an unbounded explore never reads StopCommand;
        teardown must terminate (or kill) it without leaking processes."""
        config = _pconfig(num_workers=1, shutdown_timeout=0.5)
        cluster = ProcessCloud9Cluster("test-ft-spin", config=config)
        cluster._start_members()
        handle = cluster.handles[0]
        cluster._send(handle, SeedCommand())
        cluster._receive(handle)
        # An effectively unbounded budget on a concrete infinite loop.
        cluster._send(handle, ExploreCommand(budget=10 ** 9))
        time.sleep(0.2)  # let it get properly stuck
        pid = handle.process.pid
        assert _pid_alive(pid)
        cluster._shutdown_members()
        assert cluster.handles == []
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and _pid_alive(pid):
            time.sleep(0.05)
        assert not _pid_alive(pid)


class TestInProcessFaultTolerance:
    """An exception inside an in-process worker is a member failure like a
    dead process: its territory is recovered from the ledger and the run
    still explores every path exactly once."""

    @staticmethod
    def _traces(result):
        return sorted(tuple(case.fork_trace) for case in result.test_cases)

    @pytest.mark.parametrize("backend", ["cluster", "threaded"])
    def test_raising_worker_is_recovered(self, backend, monkeypatch):
        test = _buggy_spec_test(buffer_size=4)
        options = dict(workers=3, instructions_per_round=30, limits=LIMITS)
        crash_free = test.run(backend=backend, **options)
        assert crash_free.exhausted and crash_free.worker_failures == 0

        original = DistribWorker.handle
        explores = {}

        def handle(worker, command):
            if isinstance(command, ExploreCommand) and worker.worker_id == 2:
                explores[2] = explores.get(2, 0) + 1
                if explores[2] == 4 and worker.worker.queue_length:
                    raise RuntimeError("injected worker crash")
            return original(worker, command)

        monkeypatch.setattr(DistribWorker, "handle", handle)
        result = test.run(backend=backend, **options)
        assert explores[2] >= 4
        assert result.exhausted
        assert result.worker_failures == 1
        assert result.jobs_recovered > 0
        assert 2 in result.failed_worker_stats
        assert self._traces(result) == self._traces(crash_free)
        assert result.covered_lines == crash_free.covered_lines
        assert result.bug_summaries() == crash_free.bug_summaries()


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - different uid
        return True
    # Still a zombie or running: try to reap our own children.
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        pass
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


# -- checkpoint / resume ----------------------------------------------------------------


@needs_fork
class TestProcessCheckpointResume:
    def test_stale_overlay_interval_does_not_lose_coverage(self, tmp_path):
        """Regression: with status_update_interval > 1 the LB overlay lags;
        checkpoints must fold in the freshly collected coverage bits or
        lines covered on completed paths are lost forever on resume."""
        test = specs.resolve_test("test-ft-buggy")
        kwargs = dict(instructions_per_round=40, reply_timeout=1.0,
                      status_update_interval=3)
        full = test.run(backend="process", workers=2, limits=LIMITS, **kwargs)
        assert full.exhausted

        path = str(tmp_path / "ckpt.json")
        test.run(backend="process", workers=2,
                 limits=ExplorationLimits(max_rounds=2),
                 checkpoint_every=2, checkpoint_path=path, **kwargs)
        resumed = test.run(backend="process", workers=2, limits=LIMITS,
                           resume_from=path, **kwargs)
        assert resumed.exhausted
        assert resumed.covered_lines == full.covered_lines
        assert resumed.paths_completed == full.paths_completed

    def test_checkpoint_carries_identity_and_seeds(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        test = specs.resolve_test("test-ft-buggy")
        test.run(backend="process", workers=2,
                 limits=ExplorationLimits(max_rounds=2),
                 instructions_per_round=40, reply_timeout=1.0,
                 checkpoint_every=1, checkpoint_path=path)
        checkpoint = ClusterCheckpoint.load(path)
        assert checkpoint.spec_name == "test-ft-buggy"
        assert checkpoint.backend == "process"
        assert checkpoint.strategy_seeds == {1: 1, 2: 2}
        assert checkpoint.frontier_paths  # mid-run: work outstanding
        assert checkpoint.line_count == test.program.line_count


class TestInProcessCheckpointResume:
    def test_resume_matches_uninterrupted_run(self):
        test = _buggy_spec_test()
        config = ClusterConfig(num_workers=2, instructions_per_round=30)
        full = test.build_cluster(config).run(limits=LIMITS)
        assert full.exhausted

        interrupted = test.build_cluster(
            ClusterConfig(num_workers=2, instructions_per_round=30,
                          checkpoint_every=2))
        partial = interrupted.run(limits=ExplorationLimits(max_rounds=4))
        checkpoint = interrupted.last_checkpoint
        assert checkpoint is not None and checkpoint.round_index == 4
        assert not partial.exhausted

        resumed_cluster = test.build_cluster(config)
        resumed = resumed_cluster.run(limits=LIMITS, resume_from=checkpoint)
        assert resumed.exhausted
        assert resumed.resumed_from_round == 4
        assert resumed.coverage_percent == full.coverage_percent
        assert resumed.paths_completed == full.paths_completed

    def test_resumed_timeline_counts_checkpointed_paths(self):
        """Regression: the in-process round loop used to count only live
        workers' paths, ignoring the resumed-from base, so max_paths goals
        and timeline snapshots undercounted after a resume."""
        test = _buggy_spec_test()
        interrupted = test.build_cluster(
            ClusterConfig(num_workers=2, instructions_per_round=100,
                          checkpoint_every=2))
        interrupted.run(limits=ExplorationLimits(max_rounds=6))
        checkpoint = interrupted.last_checkpoint
        assert checkpoint is not None and checkpoint.paths_completed > 0

        resumed = test.build_cluster(
            ClusterConfig(num_workers=2, instructions_per_round=100))
        result = resumed.run(limits=ExplorationLimits(max_rounds=1),
                             resume_from=checkpoint)
        assert (result.timeline.snapshots[0].paths_completed
                >= checkpoint.paths_completed)


class TestCheckpointResume:
    @pytest.mark.parametrize(
        "backend", ["cluster", pytest.param("process", marks=needs_fork)])
    def test_resume_via_api_runner(self, backend, tmp_path):
        test = specs.resolve_test("test-ft-buggy")
        kwargs = dict(workers=2, instructions_per_round=40)
        if backend == "process":
            kwargs["reply_timeout"] = 1.0
        full = test.run(backend=backend, limits=LIMITS, **kwargs)
        assert full.exhausted

        path = str(tmp_path / "ckpt.json")
        partial = test.run(backend=backend,
                           limits=ExplorationLimits(max_rounds=2),
                           checkpoint_every=1, checkpoint_path=path, **kwargs)
        assert not partial.exhausted  # killed mid-way (by budget)
        assert os.path.exists(path)

        resumed = test.run(backend=backend, limits=LIMITS, resume_from=path,
                           **kwargs)
        assert resumed.exhausted
        assert resumed.resumed_from_round == 2
        assert resumed.coverage_percent == full.coverage_percent
        assert resumed.covered_lines == full.covered_lines
        assert resumed.paths_completed == full.paths_completed


# -- elastic membership ------------------------------------------------------------------


class TestInProcessElasticity:
    def _single_baseline(self):
        test = _buggy_spec_test()
        return test.run(backend="single", limits=ExplorationLimits())

    def test_add_worker_between_runs(self):
        """Members live for one run(), so a worker joins between rounds of a
        running cluster, from round_hook."""
        test = _buggy_spec_test()
        cluster = test.build_cluster(
            ClusterConfig(num_workers=2, instructions_per_round=30))
        joined = []

        def hook(round_index, cl):
            if round_index == 3 and not joined:
                joined.append(cl.add_worker())

        cluster.round_hook = hook
        result = cluster.run(limits=LIMITS)
        assert joined == [3]
        assert result.exhausted
        assert result.num_workers == 3
        assert set(result.worker_stats) == {1, 2, 3}
        assert result.paths_completed == self._single_baseline().paths_completed

    def test_add_worker_outside_a_run_is_refused(self):
        test = _buggy_spec_test()
        cluster = test.build_cluster(ClusterConfig(num_workers=2))
        with pytest.raises(RuntimeError, match="round_hook"):
            cluster.add_worker()

    def test_remove_worker_guards(self):
        test = _buggy_spec_test()
        cluster = test.build_cluster(ClusterConfig(num_workers=1))
        raised = []

        def hook(round_index, cl):
            if round_index == 0:
                for worker_id, match in ((1, "last worker"),
                                         (99, "no live worker")):
                    with pytest.raises(ValueError, match=match):
                        cl.remove_worker(worker_id)
                    raised.append(worker_id)

        cluster.round_hook = hook
        cluster.run(limits=ExplorationLimits(max_rounds=1))
        assert raised == [1, 99]


class TestElasticity:
    @pytest.mark.parametrize(
        "backend", ["cluster", pytest.param("process", marks=needs_fork)])
    def test_add_then_remove_mid_run(self, backend):
        if backend == "process":
            cluster = ProcessCloud9Cluster("test-ft-buggy", config=_pconfig())
        else:
            cluster = _buggy_spec_test().build_cluster(
                ClusterConfig(num_workers=2, instructions_per_round=40))
        events = []

        def hook(round_index, cl):
            if round_index == 1 and "added" not in events:
                events.append("added")
                events.append(cl.add_worker())
            elif round_index == 4 and "removed" not in events:
                events.append("removed")
                cl.remove_worker(events[1])

        cluster.round_hook = hook
        result = cluster.run(limits=LIMITS)
        assert events and events[0] == "added" and "removed" in events
        assert result.exhausted
        assert result.worker_failures == 0
        assert result.workers_added == 1 and result.workers_removed == 1
        assert result.num_workers == 2
        # The guest worker's contributions are merged into the result.
        assert events[1] in result.worker_stats
        test = specs.resolve_test("test-ft-buggy")
        single = test.run(backend="single", limits=ExplorationLimits())
        assert result.paths_completed == single.paths_completed
