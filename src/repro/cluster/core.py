"""The one coordinator: the §3 worker/load-balancer protocol over any carrier.

Cloud9's workers and load balancer speak one protocol (§3): workers report
their queue length and coverage, the balancer decides transfers, and jobs
move between workers as path-encoded trees that the destination replays.
:class:`CoordinatorCore` is its only implementation.  It drives every
member with the command/reply messages of :mod:`repro.distrib.messages`
over a :class:`~repro.net.transport.Transport`, and owns, for every backend:

* the round loop -- hooks, autoscaler, exploration, status merge into the
  :class:`~repro.cluster.load_balancer.LoadBalancer` (and merged coverage
  back out, §3.3), brokered job transfers, per-round recording;
* elastic membership (:meth:`add_worker` / :meth:`remove_worker`, the
  incremental drain) and the membership trace events;
* fault tolerance (§2.3): a :class:`~repro.cluster.ledger.FrontierLedger`
  of the territory each member owns, so a member that dies -- a crashed
  process, a lost agent, an exception inside an in-process worker -- has
  its territory requeued to the survivors;
* checkpoint write and ``resume_from=`` restore;
* termination (coverage / path / bug goals, exhaustion, budgets) and
  result finalization, including bug dedup, coverage/test-case merging and
  solver-cache aggregation;
* tracing (``run_started`` ... ``run_finished``), the live
  :class:`~repro.obs.status.StatusServer` and the round wall-time /
  solver-latency histograms.

A backend only says how to launch one member (:meth:`CoordinatorCore._launch`):
an in-process :class:`~repro.distrib.worker.DistribWorker` behind an
:class:`~repro.net.transport.InProcTransport` (``cluster``, ``threaded``), a
forked worker process on a queue pair (``process``), or an admitted TCP
agent (``tcp``).  Members live for one :meth:`~CoordinatorCore.run`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Protocol, Sequence,
                    Set, Tuple, Union, cast)

from repro.cluster.autoscale import AutoscalePolicy, Autoscaler
from repro.cluster.checkpoint import ClusterCheckpoint
from repro.cluster.jobs import Job, JobTree
from repro.cluster.ledger import FrontierLedger, RecoveryJob
from repro.cluster.load_balancer import LoadBalancer, TransferCommand
from repro.cluster.stats import ClusterTimeline, RoundSnapshot, TransferCost, WorkerStats
from repro.distrib.messages import (
    DrainStatusCommand,
    ErrorReply,
    ExploreCommand,
    ExportCommand,
    ExportReply,
    FinalizeCommand,
    FinalReply,
    ImportCommand,
    ImportReply,
    ReadyReply,
    SeedCommand,
    StatusReply,
    StopCommand,
)
from repro.engine.errors import BugReport
from repro.engine.limits import UNLIMITED, ExplorationLimits
from repro.engine.result import RunResult
from repro.engine.test_case import TestCase
from repro.net.transport import ReceiveTimeout, Transport, TransportError, reap_process
from repro.obs import schema as trace_schema
from repro.obs.metrics import Histogram
from repro.obs.status import StatusServer
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer

from repro.solver.cache import aggregate_cache_counters

__all__ = ["Member", "MemberFailure", "RoundWork", "CoordinatorConfig",
           "CoordinatorCore", "WorkerProcessError",
           "backend_hook", "_dedupe_bugs"]

_Hook = Callable[..., Any]


def backend_hook(method: _Hook) -> _Hook:
    """Mark a method as part of the backend hook surface.

    The core owns the round protocol; backends may only override methods
    carrying this marker.  The ``CORE`` checker family
    (:mod:`repro.analysis.hooks`) enforces both directions statically:
    a concrete backend must implement every abstract hook, and must never
    shadow an un-marked (core-owned) method.
    """
    setattr(method, "__backend_hook__", True)
    return method


class WorkerProcessError(RuntimeError):
    """A member failed and the run could not (or was configured not to)
    recover: startup failure, failure budget exhausted, or no survivors."""


class Member:
    """Coordinator-side bookkeeping for one member, behind its transport."""

    def __init__(self, worker_id: int, transport: Transport,
                 agent_process=None):
        self.worker_id = worker_id
        self.transport = transport
        #: The loopback agent process, when the coordinator spawned one
        #: itself (``spawn_local_agents=True``); None otherwise.
        self.agent_process = agent_process
        self.queue_length = 0
        self.paths_completed = 0
        self.bugs_found = 0
        self.useful_instructions = 0
        self.replay_instructions = 0
        #: Merged coverage bits to piggyback on the next explore command.
        self.pending_coverage_bits: Optional[int] = None
        #: Last-known solver/cache counters, piggybacked on every status
        #: reply: when this member dies before its FinalReply, these still
        #: enter the run's aggregated cache statistics.
        self.cache_counters: Dict[str, int] = {}

    @property
    def process(self):
        """The member's process on this host, where one exists (the
        mp-queue pair's child, or a coordinator-spawned loopback agent);
        None for an in-process member or a remote agent."""
        return getattr(self.transport, "process", None) or self.agent_process


class MemberFailure(Exception):
    """A member died or misbehaved mid-protocol (the member, not the run,
    is lost): a transport error, a crash report, or a wrong reply."""

    def __init__(self, member: Member, reason: str):
        super().__init__(reason)
        self.member = member
        self.reason = reason


@dataclass
class RoundWork:
    """What one round of exploration produced."""

    useful_delta: int = 0
    replay_delta: int = 0
    #: Per-worker ``{"useful": .., "replay": .., "queue": ..}`` for the
    #: ``round_completed`` trace event.
    detail: Dict[int, Dict[str, int]] = field(default_factory=dict)


class CoordinatorConfig(Protocol):
    """The config surface the coordinator reads.

    ``ClusterConfig`` and ``ProcessClusterConfig`` both satisfy it; the
    process config adds the knobs of its carriers (reply timeouts, respawn,
    TCP listener) that only its backend consumes.
    """

    num_workers: int
    instructions_per_round: int
    status_update_interval: int
    balance_interval: int
    delta: float
    min_transfer: int
    strategy: Optional[str]
    load_balancing_enabled: bool
    disable_balancing_after_round: Optional[int]
    max_rounds: int
    checkpoint_every: Optional[int]
    checkpoint_path: Optional[str]
    autoscale: Optional[AutoscalePolicy]
    drain_chunk: int
    status_listen: Optional[str]


def _job_paths(encoded: object) -> List[Tuple[int, ...]]:
    """The job paths of a JobTree as it crosses the wire (``encode()``d)."""
    return [job.path
            for job in JobTree.decode(cast(Sequence[object], encoded)).jobs()]


def _dedupe_bugs(bugs: Sequence[BugReport]) -> List[BugReport]:
    seen: Set[Tuple[object, ...]] = set()
    unique: List[BugReport] = []
    for bug in bugs:
        key = (bug.kind, bug.message, bug.function, bug.line)
        if key not in seen:
            seen.add(key)
            unique.append(bug)
    return unique


class CoordinatorCore:
    """The §3 protocol, shared by every backend.

    Subclasses construct the core with their config and the program's line
    count, and implement :meth:`_launch`; the round loop, membership,
    transfers, failure recovery, checkpoints, termination and finalization
    live here and only here.
    """

    #: Name this backend reports in trace/status events and checkpoints;
    #: every subclass defines it (the process backend as a
    #: transport-dependent property).
    backend_name: str

    def __init__(self, config: CoordinatorConfig, line_count: int,
                 spec_name: Optional[str] = None,
                 spec_params: Optional[Dict[str, object]] = None):
        self.config = config
        #: Line count of the program under test (the coverage denominator).
        self.line_count = line_count
        #: The registered spec the members rebuild, when there is one.
        self.spec_name = spec_name
        self.spec_params: Dict[str, object] = dict(spec_params or {})
        #: Optional callback invoked at the start of every round as
        #: ``round_hook(round_index, cluster)`` -- the supported place to
        #: exercise elastic membership (add/remove workers) mid-run.
        self.round_hook: Optional[Callable[[int, Any], None]] = None
        #: The Autoscaler driving the current run (None unless
        #: ``config.autoscale`` is set; fresh per ``run()`` call).
        self.autoscaler: Optional[Autoscaler] = None
        #: Most recent checkpoint written by this run (None until the first).
        self.last_checkpoint: Optional[ClusterCheckpoint] = None
        #: Structured event trace of the current run (:mod:`repro.obs.trace`);
        #: the no-op tracer outside a traced ``run()``.
        self.tracer: Union[Tracer, NullTracer] = NULL_TRACER
        #: Live-status endpoint of the current run (None unless
        #: ``config.status_listen`` is set; fresh per ``run()``).
        self.status_server: Optional[StatusServer] = None
        #: Recovery policy: member failures tolerated before the run raises
        #: (None = any, while a survivor remains), whether a dead member is
        #: replaced, how long a dead member's in-flight replies may still
        #: drain, and the per-step teardown grace.  The process backend
        #: takes these from its config.
        self.max_worker_failures: Optional[int] = None
        self.respawn = False
        self.reply_timeout = 30.0
        self.shutdown_timeout = 5.0
        #: The live (exploring) members of the current run.
        self.handles: List[Member] = []
        # Members retiring incrementally: no longer exploring or balanced,
        # handing over drain_chunk jobs per round until empty.
        self._draining: List[Member] = []
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        """Fresh per-run bookkeeping: members live for one ``run()``."""
        self.load_balancer = LoadBalancer(line_count=self.line_count,
                                          delta=self.config.delta,
                                          min_transfer=self.config.min_transfer)
        #: Which execution-tree territory each member owns (for recovery).
        self.ledger = FrontierLedger()
        self.messages_sent = 0
        self._next_worker_id = 1
        self._result: Optional[RunResult] = None
        self._pending_recovery: List[RecoveryJob] = []
        self._pending_respawns = 0
        self._departed_finals: List[FinalReply] = []
        self._round_statuses: Dict[int, StatusReply] = {}
        # Dead members' last-known cache counters: the run's cache aggregate
        # must include members that never finalized.
        self._failed_cache_counters: Dict[int, Dict[str, int]] = {}
        self._heartbeat_misses = 0
        self._agents_reconnected = 0
        # Elastic-membership accounting (reported on RunResult).
        self._workers_added = 0
        self._workers_removed = 0
        self._peak_workers = 0
        # Carried-over counters when resuming from a checkpoint.
        self._base_paths = 0
        self._base_useful = 0
        self._base_replay = 0
        self._base_wall = 0.0
        self._base_covered: Set[int] = set()
        self._base_bugs: List[BugReport] = []
        self._base_tests: List[TestCase] = []
        self._resumed_from_round: Optional[int] = None
        self._run_started = 0.0
        # Round wall-time distribution of the current run (p50/p99 on
        # ``run_finished``).
        self._round_seconds = Histogram("round_seconds")
        # Solver-query latency merged across members in _finalize (p50/p99
        # on the final ``solver_query`` event).
        self._member_latency: Optional[Histogram] = None

    # -- shared membership surface -------------------------------------------------------

    @property
    def live_worker_ids(self) -> List[int]:
        """Ids of the live (exploring) members, excluding draining ones."""
        return [m.worker_id for m in self.handles]

    @property
    def status_address(self) -> Optional[Tuple[str, int]]:
        """``(host, port)`` of the live-status endpoint, if one is running."""
        return self.status_server.address if self.status_server else None

    def add_worker(self) -> int:
        """Join a fresh, empty member; the load balancer will feed it.

        Returns the new worker id.  Callable between rounds of a running
        cluster, i.e. from ``round_hook``.
        """
        if not self.handles:
            raise RuntimeError("add_worker() requires a running cluster "
                               "(call it from round_hook)")
        member = self._admit_member()
        self._workers_added += 1
        self._peak_workers = max(self._peak_workers, len(self.handles))
        self.tracer.emit(trace_schema.WORKER_JOINED, worker=member.worker_id,
                         workers=len(self.handles))
        return member.worker_id

    def remove_worker(self, worker_id: int) -> int:
        """Start retiring a member, handing its frontier over incrementally.

        The member immediately stops exploring and leaves the load
        balancer's view, but its frontier drains in ``drain_chunk``-sized
        job exports across the following rounds (it stays a *draining*
        member until empty), so removal never stalls a round.  Its results
        (paths, bugs, coverage, stats) still count toward the run's
        :class:`~repro.engine.result.RunResult`.  Returns the number of jobs
        handed over in the first drain chunk.
        """
        member = next((m for m in self.handles if m.worker_id == worker_id),
                      None)
        if member is None:
            raise ValueError("no live worker with id %d" % worker_id)
        if len(self.handles) == 1:
            raise ValueError("cannot remove the last worker")
        self.handles.remove(member)
        self._draining.append(member)
        self._workers_removed += 1
        self.tracer.emit(trace_schema.WORKER_DRAINING, worker=worker_id,
                         queue=member.queue_length)
        self.load_balancer.deregister_worker(worker_id)
        return self._drain_member(member)

    def check_frontier_invariants(self) -> Tuple[bool, str]:
        """Disjointness of member frontiers (§3.2 Summary): no path is a
        candidate on two members at once.

        Asks every live and draining member for its frontier, so call it
        between rounds of a running cluster (e.g. from ``round_hook``).
        Completeness is checked by the integration tests, by comparing
        explored paths against a single-node exhaustive run.
        """
        seen: Dict[Tuple[int, ...], int] = {}
        for member in self.handles + self._draining:
            try:
                self._send(member, DrainStatusCommand(report_frontier=True))
                status = self._receive_status(member)
            except MemberFailure as failure:
                self._recover(failure)
                continue
            self._apply_status(member, status)
            for path in _job_paths(status.frontier):
                if path in seen:
                    return False, ("path %s is a candidate on workers %d "
                                   "and %d" % (path, seen[path],
                                               member.worker_id))
                seen[path] = member.worker_id
        return True, ""

    # -- member lifecycle ----------------------------------------------------------------

    def _check_ready(self, member: Member) -> None:
        """Wait for the ReadyReply and enroll the member; MemberFailure on death."""
        ready = self._receive(member)
        if not isinstance(ready, ReadyReply):
            raise WorkerProcessError(
                "worker %d sent %r instead of ReadyReply"
                % (member.worker_id, ready))
        if ready.line_count != self.line_count:
            raise WorkerProcessError(
                "worker %d compiled a program with %d lines, coordinator "
                "expected %d -- the spec factory is not deterministic"
                % (member.worker_id, ready.line_count, self.line_count))
        self.handles.append(member)
        self.load_balancer.register_worker(member.worker_id)
        self.ledger.register(member.worker_id)

    def _launch_next(self) -> Member:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        return self._launch(worker_id)

    def _start_members(self) -> None:
        launched = [self._launch_next() for _ in range(self.config.num_workers)]
        for member in launched:
            try:
                self._check_ready(member)
            except MemberFailure as failure:
                # Startup failures are configuration errors, not churn.
                raise WorkerProcessError(
                    "worker %d %s" % (failure.member.worker_id,
                                      failure.reason)) from None

    def _spawn_member(self) -> Member:
        """Start one member and wait for it (respawn / elastic join path)."""
        # Seed the newcomer's balancer report with the mean queue length:
        # until its first real status arrives, a fabricated zero would skew
        # queue_length_spread() and draw spurious transfers (computed before
        # registration so the newcomer's own empty report is excluded).
        seed_length = round(self.load_balancer.mean_queue_length())
        member = self._launch_next()
        self._check_ready(member)
        if member.transport.kind == "tcp":
            # Every admission past the initial membership is an agent
            # (re)connecting into a running cluster: a respawn replacement
            # or an elastic join.
            self._agents_reconnected += 1
        self.load_balancer.register_worker(member.worker_id,
                                           queue_length=seed_length)
        # A joining member starts from the merged global coverage (§3.3).
        bits = self.load_balancer.overlay.global_vector.as_int()
        if bits:
            member.pending_coverage_bits = bits
        return member

    def _release(self, member: Member) -> None:
        """Tear down a member's channel (alive, stuck, or dead).

        The transport owns the escalation: the queue pair reaps its child
        process (join -> terminate -> kill) and drains its queues; the TCP
        transport grants a drain window for a graceful hang-up, then cuts
        the socket; the in-process carrier drops the worker.  A
        coordinator-spawned loopback agent process is reaped here too.
        """
        member.transport.close(timeout=self.shutdown_timeout)
        if member.agent_process is not None:
            reap_process(member.agent_process, timeout=self.shutdown_timeout)

    def _shutdown_members(self) -> None:
        everyone = self.handles + self._draining
        for member in everyone:
            if member.transport.is_alive():
                try:
                    member.transport.send(StopCommand())
                except TransportError:  # pragma: no cover - channel torn down
                    pass
        for member in everyone:
            self._release(member)
        self.handles = []
        self._draining = []

    # -- messaging -----------------------------------------------------------------------

    def _send(self, member: Member, command) -> None:
        try:
            member.transport.send(command)
        except TransportError as exc:
            raise MemberFailure(member, str(exc)) from None
        self.messages_sent += 1

    def _receive(self, member: Member):
        transport = member.transport
        death_deadline: Optional[float] = None
        while True:
            try:
                reply = transport.recv(timeout=0.5)
            except ReceiveTimeout:
                if transport.is_alive():
                    # Still computing; a long round is legitimate.  Total run
                    # time is bounded by limits, not by this loop.
                    continue
                # Dead peer (process exit, connection lost, or heartbeats
                # missed): give in-flight replies a grace period to drain,
                # then report the death.
                if death_deadline is None:
                    death_deadline = time.monotonic() + self.reply_timeout
                if time.monotonic() >= death_deadline:
                    raise MemberFailure(
                        member, transport.liveness_error()) from None
                continue
            except TransportError as exc:
                # The channel itself broke (peer hung up, corrupt or
                # oversized frame, in-process worker raised): this member
                # is lost, the run is not.
                raise MemberFailure(member, str(exc)) from None
            if isinstance(reply, ErrorReply):
                raise MemberFailure(member, "failed:\n%s" % reply.details)
            return reply

    # Typed receives: a member answering with the wrong reply class is a
    # protocol violation, handled like any other member failure instead of
    # crashing the coordinator with an AttributeError three frames later.

    def _receive_status(self, member: Member) -> StatusReply:
        reply = self._receive(member)
        if not isinstance(reply, StatusReply):
            raise MemberFailure(
                member, "sent %r instead of StatusReply" % (reply,))
        return reply

    def _receive_export(self, member: Member) -> ExportReply:
        reply = self._receive(member)
        if not isinstance(reply, ExportReply):
            raise MemberFailure(
                member, "sent %r instead of ExportReply" % (reply,))
        return reply

    def _receive_import(self, member: Member) -> ImportReply:
        reply = self._receive(member)
        if not isinstance(reply, ImportReply):
            raise MemberFailure(
                member, "sent %r instead of ImportReply" % (reply,))
        return reply

    def _receive_final(self, member: Member) -> FinalReply:
        reply = self._receive(member)
        if not isinstance(reply, FinalReply):
            raise MemberFailure(
                member, "sent %r instead of FinalReply" % (reply,))
        return reply

    def _import_into(self, member: Member, command: ImportCommand) -> int:
        """Send one ImportCommand and keep the balancer's view of the
        receiver fresh within the round; returns jobs imported."""
        self._send(member, command)
        imported = self._receive_import(member).imported
        member.queue_length += imported
        report = self.load_balancer.reports.get(member.worker_id)
        if report is not None:
            report.queue_length = member.queue_length
        return imported

    # -- fault tolerance -----------------------------------------------------------------

    def _handle_failure(self, failure: MemberFailure, result: RunResult,
                        requeue: bool = True) -> None:
        """Mark a member dead and stage its territory for recovery.

        Covers live and draining members alike (a member can die mid-drain;
        its not-yet-exported territory is requeued from the ledger exactly
        like any other death).  Raises :class:`WorkerProcessError` when the
        failure budget is exhausted.  The staged recovery jobs (and the
        replacement member, under ``respawn``) materialize at the next
        :meth:`_flush_recovery` call -- a point where no commands are
        outstanding, so request/reply pairing stays intact.
        """
        member = failure.member
        was_draining = member in self._draining
        if was_draining:
            self._draining.remove(member)
        elif member in self.handles:
            self.handles.remove(member)
        else:
            return  # already accounted
        result.worker_failures += 1
        if getattr(member.transport, "heartbeat_missed", False):
            # Death detected by heartbeat silence (vs. connection loss or
            # process exit) -- kept as its own counter on the result.
            self._heartbeat_misses += 1
            self.tracer.emit(trace_schema.HEARTBEAT_MISS,
                             worker=member.worker_id)
        self.tracer.emit(trace_schema.WORKER_DIED, worker=member.worker_id,
                         reason=failure.reason, draining=was_draining)
        if member.cache_counters:
            # Its FinalReply will never arrive; the last piggybacked
            # counters keep the run's cache aggregate honest.
            self._failed_cache_counters[member.worker_id] = dict(
                member.cache_counters)
        result.failed_worker_stats[member.worker_id] = WorkerStats(
            worker_id=member.worker_id,
            useful_instructions=member.useful_instructions,
            replay_instructions=member.replay_instructions,
            paths_completed=member.paths_completed)
        self.load_balancer.deregister_worker(member.worker_id)
        budget = self.max_worker_failures
        if budget is not None and result.worker_failures > budget:
            self._release(member)
            raise WorkerProcessError(
                "worker %d %s; failure budget exhausted "
                "(max_worker_failures=%d)"
                % (member.worker_id, failure.reason, budget)) from None
        if requeue:
            self._pending_recovery.extend(
                self.ledger.recovery_jobs(member.worker_id))
            # A draining member was leaving anyway: recover its territory
            # but do not respawn a replacement for it.
            if self.respawn and not was_draining:
                self._pending_respawns += 1
        self.ledger.forget(member.worker_id)
        self._release(member)

    def _flush_recovery(self, result: RunResult) -> None:
        """Respawn replacements and requeue dead members' territories.

        Only called at protocol barriers (every outstanding command has been
        answered or its member declared dead).
        """
        while self._pending_respawns or self._pending_recovery:
            if self._pending_respawns:
                self._pending_respawns -= 1
                try:
                    replacement = self._spawn_member()
                    result.respawns += 1
                    self.tracer.emit(trace_schema.WORKER_RESPAWNED,
                                     worker=replacement.worker_id)
                except MemberFailure as failure:
                    result.worker_failures += 1
                    budget = self.max_worker_failures
                    if (budget is not None
                            and result.worker_failures > budget):
                        raise WorkerProcessError(
                            "respawned worker %d %s; failure budget "
                            "exhausted (max_worker_failures=%d)"
                            % (failure.member.worker_id, failure.reason,
                               budget)) from None
                    self._release(failure.member)
                continue
            if not self.handles:
                raise WorkerProcessError(
                    "every worker died and respawn is disabled; "
                    "%d recovery job(s) have nowhere to go"
                    % len(self._pending_recovery))
            job = self._pending_recovery.pop(0)
            member = min(self.handles, key=lambda m: m.queue_length)
            self.ledger.acquire(member.worker_id, job.root)
            for fence in job.fences:
                self.ledger.cede(member.worker_id, fence)
            tree = JobTree.from_jobs([Job(job.root)])
            try:
                imported = self._import_into(member, ImportCommand(
                    encoded_jobs=tree.encode(), fence_paths=job.fences,
                    recovered=True))
            except MemberFailure as failure:
                # The survivor died too; its ledger now includes this job,
                # so _handle_failure re-stages it (budget permitting).
                self._handle_failure(failure, result)
                continue
            result.jobs_recovered += 1
            self.tracer.emit(trace_schema.JOBS_RECOVERED,
                             worker=member.worker_id, jobs=imported)

    def _recover(self, failure: MemberFailure) -> None:
        """Handle a failure outside the explore barrier, then requeue."""
        assert self._result is not None
        self._handle_failure(failure, self._result)
        self._flush_recovery(self._result)

    # -- the incremental drain -------------------------------------------------------------

    def _advance_drains(self) -> None:
        for member in list(self._draining):
            self._drain_member(member)

    def _drain_member(self, member: Member) -> int:
        """Export one drain chunk from a draining member to the least-loaded
        survivor; retire it (collect its final results, stop it) once its
        frontier is empty.  Returns jobs moved."""
        if not self.handles:
            # Nobody to hand jobs to; try again once a survivor exists.
            return 0
        try:
            self._send(member, ExportCommand(count=self.config.drain_chunk))
            export = self._receive_export(member)
        except MemberFailure as failure:
            # Died mid-drain: its remaining territory is recovered from the
            # ledger like any other member death.
            self._recover(failure)
            return 0
        moved = 0
        if export.encoded_jobs is not None:
            target = min(self.handles, key=lambda m: m.queue_length)
            for path in _job_paths(export.encoded_jobs):
                self.ledger.cede(member.worker_id, path)
                # Acquire before the import so a target that dies
                # mid-handover is recovered with these jobs included.
                self.ledger.acquire(target.worker_id, path)
            try:
                moved = self._import_into(
                    target, ImportCommand(encoded_jobs=export.encoded_jobs))
            except MemberFailure as failure:
                self._recover(failure)
        # An export smaller than the chunk means the frontier is empty now.
        if export.job_count < self.config.drain_chunk:
            member.queue_length = 0
        else:
            member.queue_length = max(0, member.queue_length
                                      - export.job_count)
        if member.queue_length == 0:
            self._retire_draining(member)
        return moved

    def _retire_draining(self, member: Member) -> None:
        """Collect a drained member's final results and stop it."""
        try:
            self._send(member, FinalizeCommand())
            final = self._receive_final(member)
        except MemberFailure as failure:
            self._recover(failure)
            return
        self._departed_finals.append(final)
        self._draining.remove(member)
        self.tracer.emit(trace_schema.WORKER_LEFT, worker=member.worker_id,
                         workers=len(self.handles))
        self.ledger.forget(member.worker_id)
        try:
            self._send(member, StopCommand())
        except MemberFailure:  # pragma: no cover - channel torn down
            pass
        self._release(member)

    # -- the round protocol --------------------------------------------------------------

    def run(self, limits: Optional[ExplorationLimits] = None,
            resume_from: Optional[Union[ClusterCheckpoint, str]] = None
            ) -> RunResult:
        """Run rounds until exhaustion, a goal, or a budget is spent.

        ``limits.max_rounds`` defaults to ``config.max_rounds``;
        ``limits.max_steps`` does not apply to cluster runs.

        ``resume_from`` (a :class:`~repro.cluster.checkpoint.ClusterCheckpoint`
        or a path to a saved one) restores a checkpointed frontier, coverage
        and counters instead of starting from the seed job.

        ``limits.trace_path`` turns on structured event tracing for the run,
        and ``config.status_listen`` serves a live status snapshot
        (:mod:`repro.obs`) on every backend; both are torn down when the
        run returns.
        """
        lim = limits if limits is not None else UNLIMITED
        tracer = Tracer(lim.trace_path) if lim.trace_path else NULL_TRACER
        self.tracer = tracer
        if self.config.status_listen is not None:
            self.status_server = StatusServer(self.config.status_listen)
        try:
            return self._run(lim, resume_from)
        finally:
            try:
                self._shutdown_members()
                self._teardown_run()
            finally:
                self.tracer = NULL_TRACER
                tracer.close()
                if self.status_server is not None:
                    self.status_server.close()
                    self.status_server = None

    def _run(self, lim: ExplorationLimits,
             resume_from: Optional[Union[ClusterCheckpoint, str]]
             ) -> RunResult:
        config = self.config
        limit = lim.max_rounds if lim.max_rounds is not None else config.max_rounds
        start = time.monotonic()
        instructions_executed = 0
        policy = config.autoscale
        self.autoscaler = Autoscaler(policy) if policy is not None else None

        line_count = self.line_count
        timeline = ClusterTimeline()
        result = RunResult(backend=self.backend_name,
                           test_name=self.spec_name or "",
                           num_workers=config.num_workers,
                           line_count=line_count, timeline=timeline)
        self._begin_run(result, resume_from)
        states_transferred_total = 0

        tracer = self.tracer
        tracer.emit(trace_schema.RUN_STARTED, backend=self.backend_name,
                    workers=len(self.handles),
                    test=self.spec_name, line_count=line_count,
                    resumed_from_round=self._resumed_from_round)
        traced_bugs = 0

        round_index = 0
        while round_index < limit:
            if self.round_hook is not None:
                self.round_hook(round_index, self)
            if self.autoscaler is not None:
                self.autoscaler(round_index, self)
            if not self.handles:
                raise WorkerProcessError("no live workers left")
            self._peak_workers = max(self._peak_workers, len(self.handles))
            balancing = self._balancing_active(round_index)
            # Unified checkpoint cadence across backends: a snapshot lands
            # after every checkpoint_every *completed* rounds.
            checkpoint_due = bool(
                config.checkpoint_every
                and (round_index + 1) % config.checkpoint_every == 0)
            failures_before = result.worker_failures
            round_started = time.monotonic()

            # 1. Explore one round of virtual time on every member.
            work = self._explore_phase(result, round_index, checkpoint_due)
            instructions_executed += work.useful_delta + work.replay_delta

            # 2. Status updates into the load balancer (+ merged coverage
            # back out to the members, §3.3).
            if round_index % config.status_update_interval == 0:
                self._status_phase(round_index)

            # 3. Balancing decisions, brokered before the next round; drain
            # chunks move once transfers have settled the queues.
            states_transferred = 0
            if balancing and round_index % config.balance_interval == 0:
                for command in self.load_balancer.balance(round_index):
                    states_transferred += self._execute_transfer(
                        command, round_index)
            self._advance_drains()

            # 4. Record the round.
            live = self.handles
            covered_count = self.load_balancer.overlay.covered_count
            coverage_percent = (100.0 * covered_count / line_count
                                if line_count else 0.0)
            paths_completed = self._paths_completed()
            bugs_found = self._bugs_found()
            candidates = self._total_candidates()
            elapsed = time.monotonic() - start
            queues = {m.worker_id: m.queue_length for m in live}
            timeline.record(RoundSnapshot(
                round_index=round_index,
                queue_lengths=dict(queues),
                total_candidates=candidates,
                states_transferred=states_transferred,
                useful_instructions=work.useful_delta,
                replay_instructions=work.replay_delta,
                covered_lines=covered_count,
                coverage_percent=coverage_percent,
                paths_completed=paths_completed,
                bugs_found=bugs_found,
                load_balancing_enabled=balancing,
                num_workers=len(live),
                elapsed=elapsed,
            ))
            states_transferred_total += states_transferred
            if tracer.enabled:
                if bugs_found > traced_bugs:
                    tracer.emit(trace_schema.BUG_FOUND, round=round_index,
                                bugs=bugs_found, new=bugs_found - traced_bugs)
                    traced_bugs = bugs_found
                tracer.emit(
                    trace_schema.ROUND_COMPLETED, round=round_index,
                    elapsed=round(elapsed, 6),
                    coverage_percent=round(coverage_percent, 3),
                    covered_lines=covered_count, paths=paths_completed,
                    candidates=candidates,
                    workers=len(live),
                    useful=work.useful_delta, replay=work.replay_delta,
                    transferred=states_transferred,
                    queues=queues, workers_detail=work.detail)
            if self.status_server is not None:
                self.status_server.update({
                    "backend": self.backend_name,
                    "round": round_index,
                    "elapsed": round(elapsed, 3),
                    "coverage_percent": round(coverage_percent, 3),
                    "covered_lines": covered_count,
                    "paths_completed": paths_completed,
                    "bugs_found": bugs_found,
                    "candidates": candidates,
                    "live_workers": len(live),
                    "draining_workers": len(self._draining),
                    "queues": dict(queues),
                })
            self._round_seconds.observe(time.monotonic() - round_started)
            round_index += 1

            # 4b. Periodic checkpoint (between rounds, after status merge);
            # skipped when this round lost a member, so a snapshot never
            # captures a half-recovered frontier.
            if checkpoint_due and result.worker_failures == failures_before:
                self._write_checkpoint(round_index)
                tracer.emit(trace_schema.CHECKPOINT_WRITTEN, round=round_index,
                            path=config.checkpoint_path)

            # 5. Termination checks.  Exhaustion is recorded whether or not
            # a goal was met in the same round.
            result.states_remaining = candidates
            result.exhausted = candidates == 0
            if (lim.coverage_target is not None
                    and coverage_percent >= lim.coverage_target):
                result.goal_reached = True
                break
            if lim.max_paths is not None and paths_completed >= lim.max_paths:
                result.goal_reached = True
                break
            if lim.stop_on_first_bug and bugs_found:
                result.goal_reached = True
                break
            if result.exhausted:
                break
            # Budget limits (spent, not reached: goal_reached stays False).
            if (lim.max_instructions is not None
                    and instructions_executed >= lim.max_instructions):
                break
            if (lim.max_wall_time is not None
                    and time.monotonic() - start >= lim.max_wall_time):
                break

        # Cumulative across resume_from= segments: the checkpoint carries the
        # wall time already spent, this run adds its own elapsed time.
        result.wall_time = self._base_wall + (time.monotonic() - start)
        result.states_transferred = states_transferred_total
        final = self._finalize(result, round_index)
        if tracer.enabled:
            payload: Dict[str, Any] = {
                k: v for k, v in final.cache_stats.items()
                if isinstance(v, int) and v}
            latency = self._member_latency
            if latency is not None and latency.count:
                p50 = latency.percentile(50.0)
                p99 = latency.percentile(99.0)
                payload["latency_count"] = latency.count
                payload["latency_p50"] = round(p50 or 0.0, 6)
                payload["latency_p99"] = round(p99 or 0.0, 6)
            tracer.emit(trace_schema.SOLVER_QUERY, **payload)
            round_p50 = self._round_seconds.percentile(50.0)
            round_p99 = self._round_seconds.percentile(99.0)
            tracer.emit(trace_schema.RUN_FINISHED, rounds=final.rounds_executed,
                        paths=final.paths_completed,
                        coverage_percent=round(final.coverage_percent, 3),
                        bugs=len(final.bugs),
                        useful=final.useful_instructions,
                        replay=final.replay_instructions,
                        exhausted=final.exhausted,
                        goal_reached=final.goal_reached,
                        wall_time=round(final.wall_time, 6),
                        round_time_p50=(None if round_p50 is None
                                        else round(round_p50, 6)),
                        round_time_p99=(None if round_p99 is None
                                        else round(round_p99, 6)))
        return final

    def _begin_run(self, result: RunResult,
                   resume_from: Optional[Union[ClusterCheckpoint, str]]
                   ) -> None:
        self._reset_run_state()
        self._run_started = time.monotonic()
        self._result = result
        checkpoint: Optional[ClusterCheckpoint] = None
        if resume_from is not None:
            checkpoint = ClusterCheckpoint.coerce(resume_from)
            if checkpoint.line_count != self.line_count:
                raise WorkerProcessError(
                    "checkpoint was taken against a %d-line program, this "
                    "cluster's program has %d lines -- wrong spec?"
                    % (checkpoint.line_count, self.line_count))
        self._start_members()
        self._peak_workers = len(self.handles)
        if checkpoint is not None:
            self._restore(checkpoint)
            return
        # The first member to join receives the seed job (§3.1).
        seed_member = self.handles[0]
        self.ledger.acquire(seed_member.worker_id, ())
        try:
            self._send(seed_member, SeedCommand())
            self._apply_status(seed_member, self._receive_status(seed_member))
        except MemberFailure as failure:
            self._recover(failure)

    def _explore_phase(self, result: RunResult, round_index: int,
                       checkpoint_due: bool) -> RoundWork:
        # One round of exploration on every live member (concurrently,
        # where the carrier allows).  Draining members take part with a
        # status-only heartbeat: they no longer explore, but their replies
        # keep queue lengths fresh and carry their frontier into checkpoints.
        round_members = list(self.handles)
        drain_members = list(self._draining)
        previous = {m.worker_id: (m.useful_instructions,
                                  m.replay_instructions)
                    for m in round_members}
        for member in round_members:
            self._send(member, ExploreCommand(
                budget=self.config.instructions_per_round,
                global_coverage_bits=member.pending_coverage_bits,
                report_frontier=checkpoint_due,
                trace=self.tracer.enabled))
            member.pending_coverage_bits = None
        for member in drain_members:
            self._send(member, DrainStatusCommand(
                report_frontier=checkpoint_due))
        statuses: Dict[int, StatusReply] = {}
        work = RoundWork()
        for member in round_members + drain_members:
            try:
                status = self._receive_status(member)
            except MemberFailure as failure:
                self._handle_failure(failure, result)
                continue
            statuses[member.worker_id] = status
            self._apply_status(member, status)
        # Requeue dead members' territories / respawn replacements now that
        # every outstanding command has been resolved.
        self._flush_recovery(result)
        for worker_id, status in statuses.items():
            prev_useful, prev_replay = previous.get(
                worker_id, (status.useful_instructions,
                            status.replay_instructions))
            useful = status.useful_instructions - prev_useful
            replay = status.replay_instructions - prev_replay
            work.useful_delta += useful
            work.replay_delta += replay
            work.detail[worker_id] = {"useful": useful, "replay": replay,
                                      "queue": status.queue_length}
        self._round_statuses = statuses
        return work

    def _status_phase(self, round_index: int) -> None:
        # Live members only: draining members left the balancer's view
        # when their removal began.
        for member in self.handles:
            status = self._round_statuses.get(member.worker_id)
            if status is None:
                continue
            member.pending_coverage_bits = self.load_balancer.receive_status(
                worker_id=member.worker_id,
                queue_length=member.queue_length,
                useful_instructions=status.useful_instructions,
                coverage_bits=status.coverage_bits,
                round_index=round_index)

    def _execute_transfer(self, command: TransferCommand,
                          round_index: int) -> int:
        """Broker one source->destination job transfer; returns jobs moved."""
        by_id = {m.worker_id: m for m in self.handles}
        source = by_id.get(command.source)
        destination = by_id.get(command.destination)
        if source is None or destination is None:
            # One end died or departed after the balance decision.
            self.load_balancer.cancel_transfer(command)
            return 0
        try:
            self._send(source, ExportCommand(count=command.job_count))
            export = self._receive_export(source)
        except MemberFailure as failure:
            self.load_balancer.cancel_transfer(command)
            self._recover(failure)
            return 0
        source.queue_length -= export.job_count
        report = self.load_balancer.reports.get(source.worker_id)
        if report is not None:
            report.queue_length = source.queue_length
        if export.encoded_jobs is None:
            return 0
        for path in _job_paths(export.encoded_jobs):
            self.ledger.cede(command.source, path)
            self.ledger.acquire(command.destination, path)
        try:
            imported = self._import_into(
                destination, ImportCommand(encoded_jobs=export.encoded_jobs))
        except MemberFailure as failure:
            # The jobs are in the dead destination's territory already, so
            # recovery requeues them; nothing is lost.
            self._recover(failure)
            return 0
        if imported:
            self.tracer.emit(trace_schema.JOB_TRANSFERRED, round=round_index,
                             source=command.source,
                             destination=command.destination, jobs=imported)
        return imported

    def _apply_status(self, member: Member, status: StatusReply) -> None:
        member.queue_length = status.queue_length
        member.paths_completed = status.paths_completed
        member.bugs_found = status.bugs_found
        member.useful_instructions = status.useful_instructions
        member.replay_instructions = status.replay_instructions
        if status.cache_counters is not None:
            member.cache_counters = dict(status.cache_counters)
        if status.events:
            # Worker-side buffered events (explore spans, ...) merge into
            # the single coordinator-owned trace file.
            self.tracer.ingest(status.events, worker=member.worker_id)

    # -- what the recorder reports ---------------------------------------------------------

    def _balancing_active(self, round_index: int) -> bool:
        if not self.config.load_balancing_enabled:
            return False
        cutoff = self.config.disable_balancing_after_round
        if cutoff is not None and round_index >= cutoff:
            return False
        return True

    def _total_candidates(self) -> int:
        # Draining members' outstanding jobs count: they are still part of
        # the global frontier (survivors receive them chunk by chunk).
        return sum(m.queue_length for m in self.handles + self._draining)

    def _paths_completed(self) -> int:
        return (self._base_paths
                + sum(m.paths_completed for m in self.handles + self._draining)
                + sum(f.paths_completed for f in self._departed_finals))

    def _bugs_found(self) -> int:
        # Departed members' bugs keep counting: a retiring member must not
        # make the round's bug count drop.
        return (sum(m.bugs_found for m in self.handles + self._draining)
                + sum(len(f.bugs) for f in self._departed_finals))

    # -- checkpoint / resume -------------------------------------------------------------

    def _write_checkpoint(self, round_index: int) -> ClusterCheckpoint:
        statuses = self._round_statuses
        frontier: List[Tuple[int, ...]] = []
        # Frontiers come from every status: a member that finished draining
        # after the statuses were collected listed its final chunk's jobs,
        # which the receiving survivor's (earlier) status does not -- the
        # union still holds each job exactly once.
        for status in statuses.values():
            if status.frontier is None:
                continue
            frontier.extend(_job_paths(status.frontier))
        # Counters and results are different: a member retired between
        # status collection and this snapshot already moved its totals into
        # _departed_finals, so summing its status too would double count.
        active_ids = {m.worker_id for m in self.handles + self._draining}
        statuses = {worker_id: status
                    for worker_id, status in statuses.items()
                    if worker_id in active_ids}
        departed = self._departed_finals
        # The overlay lags by up to status_update_interval rounds; fold in
        # the coverage bits just collected so lines covered on completed
        # paths (never re-explored on resume) cannot be lost.
        coverage_bits = self.load_balancer.overlay.global_vector.as_int()
        for status in statuses.values():
            coverage_bits |= status.coverage_bits
        # Self-contained resume: bug reports and generated inputs found
        # before the snapshot travel with it (members attach them to their
        # status replies on checkpoint rounds only).
        bugs = list(self._base_bugs)
        test_cases = list(self._base_tests)
        for final in departed:
            bugs.extend(final.bugs)
            test_cases.extend(final.test_cases)
        for status in statuses.values():
            bugs.extend(status.bugs or ())
            test_cases.extend(status.test_cases or ())
        checkpoint = ClusterCheckpoint(
            round_index=round_index,
            frontier_paths=sorted(frontier),
            coverage_bits=coverage_bits,
            line_count=self.line_count,
            paths_completed=(self._base_paths
                             + sum(f.paths_completed for f in departed)
                             + sum(s.paths_completed
                                   for s in statuses.values())),
            useful_instructions=(self._base_useful
                                 + sum(f.stats.useful_instructions
                                       for f in departed)
                                 + sum(s.useful_instructions
                                       for s in statuses.values())),
            replay_instructions=(self._base_replay
                                 + sum(f.stats.replay_instructions
                                       for f in departed)
                                 + sum(s.replay_instructions
                                       for s in statuses.values())),
            wall_time=(self._base_wall
                       + (time.monotonic() - self._run_started)),
            bug_reports=[ClusterCheckpoint.encode_bug(b)
                         for b in _dedupe_bugs(bugs)],
            test_cases=[ClusterCheckpoint.encode_test_case(t)
                        for t in test_cases],
            worker_stats={
                worker_id: {
                    "useful_instructions": s.useful_instructions,
                    "replay_instructions": s.replay_instructions,
                    "paths_completed": s.paths_completed,
                    "queue_length": s.queue_length,
                }
                for worker_id, s in statuses.items()},
            strategy_seeds={m.worker_id: m.worker_id for m in self.handles},
            spec_name=self.spec_name,
            spec_params=dict(self.spec_params),
            backend=self.backend_name,
        )
        if self.config.checkpoint_path:
            checkpoint.save(self.config.checkpoint_path)
        self.last_checkpoint = checkpoint
        return checkpoint

    def _restore(self, checkpoint: ClusterCheckpoint) -> None:
        bits = checkpoint.coverage_bits
        self.load_balancer.overlay.merge_from_worker(bits)
        live = list(self.handles)
        shares: Dict[int, List[Tuple[int, ...]]] = {
            m.worker_id: [] for m in live}
        for index, path in enumerate(sorted(checkpoint.frontier_paths)):
            shares[live[index % len(live)].worker_id].append(tuple(path))
        for member in live:
            share = shares[member.worker_id]
            member.pending_coverage_bits = bits or None
            if not share:
                continue
            for path in share:
                self.ledger.acquire(member.worker_id, path)
            tree = JobTree.from_jobs([Job(p) for p in share])
            try:
                self._import_into(member,
                                  ImportCommand(encoded_jobs=tree.encode()))
            except MemberFailure as failure:
                self._recover(failure)
        self._base_paths = checkpoint.paths_completed
        self._base_useful = checkpoint.useful_instructions
        self._base_replay = checkpoint.replay_instructions
        self._base_wall = checkpoint.wall_time
        self._base_covered = checkpoint.covered_lines()
        self._base_bugs = checkpoint.decode_bugs()
        self._base_tests = checkpoint.decode_test_cases()
        self._resumed_from_round = checkpoint.round_index

    # -- finalization --------------------------------------------------------------------

    def _collect_finals(self, result: RunResult) -> List[FinalReply]:
        """Every member's final accounting (live, draining and departed)."""
        finals: List[FinalReply] = []
        # Members still draining when the run ends are finalized like live
        # ones: their results count, and any jobs left on them were already
        # counted as unexplored candidates by the termination checks.
        for member in self.handles + self._draining:
            try:
                self._send(member, FinalizeCommand())
                finals.append(self._receive_final(member))
            except MemberFailure as failure:
                # Too late to re-explore; keep its last-known counters.
                self._handle_failure(failure, result, requeue=False)
        finals.extend(self._departed_finals)
        return finals

    def _finalize(self, result: RunResult, rounds: int) -> RunResult:
        finals = self._collect_finals(result)
        live = self.handles
        result.num_workers = len(live) or result.num_workers
        result.rounds_executed = rounds
        result.resumed_from_round = self._resumed_from_round
        result.workers_added = self._workers_added
        result.workers_removed = self._workers_removed
        result.peak_workers = max(self._peak_workers, len(live))
        result.paths_completed = (self._base_paths
                                  + sum(f.paths_completed for f in finals))
        result.useful_instructions = self._base_useful + sum(
            f.stats.useful_instructions for f in finals)
        result.replay_instructions = self._base_replay + sum(
            f.stats.replay_instructions for f in finals)
        covered: Set[int] = set(self._base_covered)
        all_bugs: List[BugReport] = list(self._base_bugs)
        result.test_cases.extend(self._base_tests)
        worker_stats: Dict[int, WorkerStats] = {}
        latency = Histogram("solver_query_seconds")
        for final in finals:
            covered.update(final.covered_lines)
            all_bugs.extend(final.bugs)
            result.test_cases.extend(final.test_cases)
            worker_stats[final.worker_id] = final.stats
            if final.latency is not None:
                latency.merge_from(final.latency)
        self._member_latency = latency
        result.covered_lines = covered
        result.bugs = _dedupe_bugs(all_bugs)
        result.worker_stats = worker_stats
        result.transfer_cost = TransferCost.from_worker_stats(
            worker_stats.values())
        # Dead members never sent a FinalReply; their last piggybacked
        # counters (from the status replies) still enter the aggregate so
        # the run's cache hit rates reflect the whole fleet.
        finalized_ids = {f.worker_id for f in finals}
        counter_maps: List[Dict[str, int]] = [
            dict(f.cache_counters) for f in finals]
        counter_maps.extend(
            counters for worker_id, counters
            in self._failed_cache_counters.items()
            if worker_id not in finalized_ids)
        result.cache_stats = aggregate_cache_counters(counter_maps)
        result.heartbeat_misses = self._heartbeat_misses
        result.agents_reconnected = self._agents_reconnected
        result.messages_sent = self.messages_sent
        return result

    # -- backend hooks -------------------------------------------------------------------

    @backend_hook
    def _launch(self, worker_id: int) -> Member:
        """Provision one member without waiting for it: its first reply on
        the returned member's transport is a ReadyReply (or ErrorReply)."""
        raise NotImplementedError

    @backend_hook
    def _admit_member(self) -> Member:
        """Join one fresh member mid-run (``add_worker``)."""
        try:
            return self._spawn_member()
        except MemberFailure as failure:
            # The newcomer died during startup; it owned nothing yet.
            self._release(failure.member)
            raise WorkerProcessError(
                "worker %d %s while joining"
                % (failure.member.worker_id, failure.reason)) from None

    @backend_hook
    def _teardown_run(self) -> None:
        """End-of-run plumbing after the members stopped (thread pools,
        listeners, ...)."""
