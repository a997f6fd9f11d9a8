"""Cluster checkpoints: enough state to resume a killed run.

A running cluster's durable state is small: the global exploration frontier
(as path-encoded jobs, the same representation transfers use, §3.2), the
global coverage bit vector (§3.3), cumulative result counters, and the
per-worker strategy seeds.  Program states are deliberately excluded -- a
resumed cluster re-materializes the frontier by replaying the paths, exactly
as a job transfer would.

Checkpoints serialize to plain JSON so a resumed run needs nothing beyond
the spec registry (process backend) or the test object (in-process backends)
to rebuild its programs.  They are *self-contained*: bug reports and
generated test-case inputs found before the snapshot are persisted alongside
the frontier (``bug_reports`` / ``test_cases``), and the elapsed wall time
is carried in ``wall_time``, so a ``resume_from=`` run's final result
reports the pre-crash bugs and cumulative timing instead of only what the
resumed segment re-finds.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.engine.errors import BugKind, BugReport
from repro.engine.test_case import TestCase

__all__ = ["ClusterCheckpoint"]


@dataclass
class ClusterCheckpoint:
    """A resumable snapshot of one cluster run, taken between rounds."""

    #: Virtual-time round after which the snapshot was taken.
    round_index: int
    #: The global exploration frontier: every live worker's candidate paths.
    frontier_paths: List[Tuple[int, ...]]
    #: The load balancer's merged coverage bit vector, packed into an int.
    coverage_bits: int
    line_count: int
    #: Cumulative counters at checkpoint time (including any earlier resume).
    paths_completed: int = 0
    useful_instructions: int = 0
    replay_instructions: int = 0
    #: Cumulative wall-clock seconds spent exploring up to this snapshot
    #: (including segments before any earlier resume); a resumed run adds
    #: its own elapsed time on top when reporting ``RunResult.wall_time``.
    wall_time: float = 0.0
    #: Bug reports found before the snapshot, JSON-encoded via
    #: :meth:`encode_bug` (the nested test case, if any, is dropped; the
    #: generated inputs live in ``test_cases``).
    bug_reports: List[Dict[str, Any]] = field(default_factory=list)
    #: Generated test cases (concrete inputs) found before the snapshot,
    #: JSON-encoded via :meth:`encode_test_case`.
    test_cases: List[Dict[str, Any]] = field(default_factory=list)
    #: Per-worker counter snapshots (informational; not restored into workers).
    worker_stats: Dict[int, Dict[str, int]] = field(default_factory=dict)
    #: Search-strategy seeds per worker, recorded so an identical cluster can
    #: be rebuilt (workers deterministically seed by their worker id, so a
    #: same-shape resume reproduces them; the seeds are not pushed into the
    #: resumed workers).
    strategy_seeds: Dict[int, int] = field(default_factory=dict)
    #: Identity of the test this checkpoint belongs to, when known.
    spec_name: Optional[str] = None
    spec_params: Dict[str, object] = field(default_factory=dict)
    test_name: Optional[str] = None
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        self.frontier_paths = [tuple(int(i) for i in path)
                               for path in self.frontier_paths]
        self.worker_stats = {int(k): dict(v)
                             for k, v in self.worker_stats.items()}
        self.strategy_seeds = {int(k): int(v)
                               for k, v in self.strategy_seeds.items()}
        self.bug_reports = [dict(b) for b in self.bug_reports]
        self.test_cases = [dict(t) for t in self.test_cases]

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> str:
        payload = asdict(self)
        payload["frontier_paths"] = [list(p) for p in self.frontier_paths]
        # JSON keys are strings; __post_init__ re-ints them on load.
        payload["coverage_bits"] = hex(self.coverage_bits)
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ClusterCheckpoint":
        payload = json.loads(text)
        payload["coverage_bits"] = int(payload["coverage_bits"], 16)
        return cls(**payload)

    def save(self, path: str) -> None:
        """Write the snapshot crash-safely.

        The JSON goes to a temporary file in the target's directory, is
        flushed and fsynced, and then atomically replaces ``path``: a
        coordinator killed mid-write leaves the previous checkpoint intact
        (plus, at worst, a stray temporary file) instead of a truncated one.
        """
        directory = os.path.dirname(os.path.abspath(path))
        fd, temp_path = tempfile.mkstemp(
            prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(self.to_json())
                handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path: str) -> "ClusterCheckpoint":
        with open(path) as handle:
            return cls.from_json(handle.read())

    @classmethod
    def coerce(cls, value: Union["ClusterCheckpoint", str]) -> "ClusterCheckpoint":
        """Accept either a checkpoint object or a path to a saved one."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.load(value)
        raise TypeError("resume_from must be a ClusterCheckpoint or a path, "
                        "got %r" % (type(value).__name__,))

    # -- bug / test-case payloads (self-contained resume) --------------------------

    @staticmethod
    def encode_bug(bug: BugReport) -> Dict[str, object]:
        """JSON-safe form of a bug report (nested test case dropped)."""
        return {"kind": bug.kind.value, "message": bug.message,
                "state_id": bug.state_id, "line": bug.line,
                "function": bug.function}

    def decode_bugs(self) -> List[BugReport]:
        return [BugReport(kind=BugKind(str(entry["kind"])),
                          message=str(entry.get("message", "")),
                          state_id=int(entry.get("state_id", -1)),
                          line=entry.get("line"),
                          function=entry.get("function"))
                for entry in self.bug_reports]

    @staticmethod
    def encode_test_case(case: TestCase) -> Dict[str, object]:
        """JSON-safe form of a generated test case (bytes as hex)."""
        return {"state_id": case.state_id,
                "inputs": {name: value.hex()
                           for name, value in case.inputs.items()},
                "path_length": case.path_length,
                "fork_trace": list(case.fork_trace),
                "exit_code": case.exit_code,
                "is_error": case.is_error,
                "error_summary": case.error_summary}

    def decode_test_cases(self) -> List[TestCase]:
        cases: List[TestCase] = []
        for entry in self.test_cases:
            cases.append(TestCase(
                state_id=int(entry.get("state_id", -1)),
                inputs={name: bytes.fromhex(value) for name, value
                        in dict(entry.get("inputs", {})).items()},
                path_length=int(entry.get("path_length", 0)),
                fork_trace=[int(i) for i in entry.get("fork_trace", [])],
                exit_code=entry.get("exit_code"),
                is_error=bool(entry.get("is_error", False)),
                error_summary=entry.get("error_summary")))
        return cases

    # -- convenience --------------------------------------------------------------

    @property
    def coverage_percent(self) -> float:
        if not self.line_count:
            return 0.0
        return 100.0 * bin(self.coverage_bits).count("1") / self.line_count

    def covered_lines(self) -> Set[int]:
        return {i for i in range(self.line_count)
                if self.coverage_bits >> i & 1}
