"""Outside-in layer tracing: span recording around the program's public entry points.

Nothing here edits the program.  :func:`install` replaces a fixed set of
public functions and methods with timing wrappers, in the process that is
about to run an exploration.  Each wrapper records one span (name, start,
end, parent) in memory; :meth:`SpanRecorder.write_spans` writes them out once
the run is over.  Alongside the spans the recorder keeps running totals per
span name -- calls, inclusive seconds and *self* seconds (a span's duration
minus the time covered by the spans nested inside it) -- so the per-layer
metrics need no second pass over the spans.

Wrappers are kept lean because ``select`` and ``step`` each run ~43 k times
on the largest workload: the hot path is two clock reads, a few array
appends and dict updates on locals bound at wrap time.  A wrapper marked
``outermost`` calls straight through when the innermost open span already has
its name, so delegating calls (``is_satisfiable`` -> ``check``,
``InterleavedStrategy.select`` -> a member's ``select``) count once.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import time
from array import array
from typing import Callable, Dict, List, Optional

#: Span names, one per wrapped layer boundary.
SELECT = "strategies.select"
STEP = "engine.step"
SOLVER = "solver.query"
TESTCASE = "testcase.gen"
REPLAY = "replay.path"
EXPLORE = "worker.explore"
EXPORT = "jobs.export"
IMPORT = "jobs.import"
ENCODE = "jobs.encode"
DECODE = "jobs.decode"
BALANCE = "lb.balance"
CHECKPOINT = "checkpoint.save"
SEND = "net.send"
RECV = "net.recv"
#: The recorder's own measuring work (pickling messages to size them), kept
#: as a span so it is attributed rather than left in ``unattributed_s``.
SIZING = "trace.sizing"


class SpanRecorder:
    """Spans plus per-name totals for one process.

    Spans live in flat arrays rather than as one tuple each: arrays hold no
    objects the cyclic garbage collector tracks, so a run's ~10^5 spans do
    not make the collector run more often over the program's own objects.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        # Open spans, innermost last: [span index, child seconds, name].
        self.stack: List[list] = []
        self.calls: Dict[str, int] = {}
        self.total_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        #: Summed per-call measures (frontier sizes, bytes), by span name.
        self.measured: Dict[str, float] = {}
        #: Inclusive seconds of spans that have no parent.
        self.top_s = [0.0]

    def reset(self) -> None:
        """Forget everything recorded so far (a forked worker starts clean).

        Clears in place: the wrappers hold references to these containers.
        """
        for column in (self.span_name, self.span_start, self.span_end,
                       self.span_parent):
            del column[:]
        self.stack.clear()
        for table in (self.calls, self.total_s, self.self_s, self.measured):
            for name in table:
                table[name] = 0
        self.top_s[0] = 0.0

    def wrap(self, name: str, fn: Callable,
             measure: Optional[Callable] = None,
             outermost: bool = False) -> Callable:
        """Return ``fn`` wrapped to record a ``name`` span per call.

        ``measure(args, kwargs, returned)`` is called after a successful call
        and its value summed into ``measured[name]``.
        """
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        span_name, span_start = self.span_name, self.span_start
        span_end, span_parent = self.span_end, self.span_parent
        stack, top_s = self.stack, self.top_s
        calls, total_s, self_s, measured = (self.calls, self.total_s,
                                            self.self_s, self.measured)
        for table in (calls, total_s, self_s, measured):
            table.setdefault(name, 0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost and stack and stack[-1][2] == name:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [len(span_start), 0.0, name]
            span_name.append(code)
            span_parent.append(parent[0] if parent is not None else -1)
            stack.append(frame)
            start = clock()
            span_start.append(start)
            span_end.append(start)
            try:
                returned = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_end[frame[0]] = end
                duration = end - start
                calls[name] += 1
                total_s[name] += duration
                self_s[name] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                else:
                    top_s[0] += duration
            if measure is not None:
                measured[name] += measure(args, kwargs, returned)
            return returned

        return traced

    def totals(self) -> Dict[str, object]:
        return {"calls": dict(self.calls), "total_s": dict(self.total_s),
                "self_s": dict(self.self_s), "measured": dict(self.measured),
                "top_s": self.top_s[0], "spans": len(self.span_start)}

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span: name, start, end, parent index
        (-1 for a top-level span); times are ``perf_counter`` seconds."""
        names = self.names
        with open(path, "w") as out:
            for code, start, end, parent in zip(self.span_name, self.span_start,
                                                self.span_end, self.span_parent):
                out.write("%s\t%.9f\t%.9f\t%d\n" % (names[code], start, end, parent))


def _wrap_method(recorder: SpanRecorder, cls, attr: str, name: str,
                 **options) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(recorder.wrap(name, raw.__func__, **options)))
    else:
        setattr(cls, attr, recorder.wrap(name, raw, **options))


def _defining_classes(root, attr: str):
    """``root`` and every subclass that defines ``attr`` itself."""
    seen, pending, found = set(), [root], []
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if attr in cls.__dict__:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def watch_first_bug(executor_module) -> List[float]:
    """Note when the first test case carrying an error is generated.

    A thin wrapper on the public ``generate_test_case`` as the executor module
    calls it; the returned list receives one ``perf_counter`` timestamp.  Cheap
    enough (one call per completed path) to stay on in untraced runs.
    """
    original = executor_module.generate_test_case
    first: List[float] = []

    @functools.wraps(original)
    def noted(*args, **kwargs):
        case = original(*args, **kwargs)
        summary = kwargs.get("error_summary", args[2] if len(args) > 2 else None)
        if summary is not None and not first:
            first.append(time.perf_counter())
        return case

    executor_module.generate_test_case = noted
    return first


def install(recorder: SpanRecorder, worker_dir: Optional[str]) -> bool:
    """Wrap every traced entry point; return whether worker processes are traced.

    Worker processes of the process backend are traced only when they start
    with ``fork``: they then inherit these wrappers, and the wrapped
    ``worker_main`` writes each worker's totals to ``worker_dir`` when it
    returns.  Under ``spawn`` they would start from a fresh import, so their
    layers are reported as unavailable rather than as zero.
    """
    from repro.cluster import checkpoint, jobs, load_balancer
    from repro.cluster import worker as cluster_worker
    from repro.distrib import cluster as distrib_cluster
    from repro.engine import executor, strategies
    from repro.net import transport
    from repro.solver.solver import Solver

    wrap = recorder.wrap

    def frontier(args, kwargs, returned):
        return len(args[2])

    for cls in _defining_classes(strategies.SearchStrategy, "select"):
        _wrap_method(recorder, cls, "select", SELECT, measure=frontier,
                     outermost=True)
    _wrap_method(recorder, executor.SymbolicExecutor, "step", STEP)
    for attr in ("check", "is_satisfiable", "get_model"):
        _wrap_method(recorder, Solver, attr, SOLVER, outermost=True)
    executor.generate_test_case = wrap(TESTCASE, executor.generate_test_case)
    cluster_worker.replay_path = wrap(REPLAY, cluster_worker.replay_path)
    _wrap_method(recorder, cluster_worker.Worker, "explore", EXPLORE)
    _wrap_method(recorder, cluster_worker.Worker, "export_jobs", EXPORT)
    _wrap_method(recorder, cluster_worker.Worker, "import_jobs", IMPORT)
    _wrap_method(recorder, load_balancer.LoadBalancer, "balance", BALANCE)
    _wrap_method(recorder, jobs.JobTree, "encode", ENCODE)
    _wrap_method(recorder, jobs.JobTree, "decode", DECODE)

    def checkpoint_bytes(args, kwargs, returned):
        return os.path.getsize(args[1])

    _wrap_method(recorder, checkpoint.ClusterCheckpoint, "save", CHECKPOINT,
                 measure=checkpoint_bytes)

    sized = wrap(SIZING, lambda message: len(pickle.dumps(message)))
    for cls in _defining_classes(transport.Transport, "send"):
        _wrap_method(recorder, cls, "send", SEND,
                     measure=lambda args, kwargs, returned: sized(args[1]))
    for cls in _defining_classes(transport.Transport, "recv"):
        _wrap_method(recorder, cls, "recv", RECV,
                     measure=lambda args, kwargs, returned: sized(returned))

    if distrib_cluster.default_start_method() != "fork" or worker_dir is None:
        return False
    original_main = distrib_cluster.worker_main

    @functools.wraps(original_main)
    def traced_worker_main(worker_id, *args, **kwargs):
        recorder.reset()
        try:
            return original_main(worker_id, *args, **kwargs)
        finally:
            stem = os.path.join(worker_dir, "worker-%d-%d" % (worker_id, os.getpid()))
            recorder.write_spans(stem + ".spans.tsv")
            with open(stem + ".json", "w") as out:
                json.dump(recorder.totals(), out)

    distrib_cluster.worker_main = traced_worker_main
    return True
