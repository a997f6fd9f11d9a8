"""The benchmark workloads and the check every run's output must pass.

Every workload is a complete exhaustive exploration, so its path set is fixed
whatever the seed or the backend; each starts from a registered spec via
``repro.distrib.specs.resolve_test`` and runs through the public
``SymbolicTest.run(backend=...)``.  Why each was chosen is in README.md.
``printf-single`` is not in BENCHMARK.json: at ~20 s a sample it fits too few
times into a run to give a steady median, so it is kept for runs by hand.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")


@dataclass(frozen=True)
class Workload:
    name: str
    spec: str
    params: Dict[str, object]
    backend: str
    #: Key of the pinned outputs in expected.json; workloads exploring the
    #: same program share it, so their path sets must be identical.
    expect: str
    #: Loose backend options passed to ``test.run``.
    options: Dict[str, object] = field(default_factory=dict)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("printf-single", "printf", {"format_length": 4}, "single",
             "printf-4"),
    Workload("udp-hang-single", "memcached-udp-hang", {"datagram_size": 4},
             "single", "memcached-udp-hang-4"),
    Workload("printf-process", "printf", {"format_length": 4}, "process",
             "printf-4", {"workers": 2, "transport": "mp"}),
    Workload("memcached-cluster", "memcached-packets", {"packet_size": 5},
             "cluster", "memcached-packets-5",
             {"workers": 4, "checkpoint_every": 1}),
)}


def observe(result) -> Dict[str, object]:
    """The run's output identity: what the check compares, never input bytes.

    Concrete inputs are left out on purpose: the solver's model choice depends
    on its cache state, so the bytes differ between backends and seeds while
    the set of explored paths (their fork traces) does not.
    """
    traces = sorted(tuple(case.fork_trace) for case in result.test_cases)
    digest = hashlib.sha256(repr(traces).encode()).hexdigest()
    return {
        "exhausted": bool(result.exhausted),
        "paths": result.paths_completed,
        "test_cases": len(traces),
        "distinct_paths": len(set(traces)),
        "path_digest": digest,
        "covered_lines": sorted(result.covered_lines),
        "bugs": result.bug_summaries(),
    }


def load_expected() -> Dict[str, Dict[str, object]]:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def check(observed: Dict[str, object], expected: Dict[str, object]) -> List[str]:
    """Every way ``observed`` falls short of the pinned outputs (empty: pass)."""
    problems = []
    if not observed["exhausted"]:
        problems.append("exploration did not exhaust")
    if observed["test_cases"] != observed["paths"]:
        problems.append("%d test cases for %d completed paths"
                        % (observed["test_cases"], observed["paths"]))
    if observed["distinct_paths"] != observed["test_cases"]:
        problems.append("%d test cases share a fork trace"
                        % (observed["test_cases"] - observed["distinct_paths"]))
    for key in ("paths", "path_digest", "covered_lines", "bugs"):
        if observed[key] != expected[key]:
            problems.append("%s differs from the pinned value" % key)
    return problems
