"""Single-node symbolic execution engine (the KLEE analogue of the paper).

The engine interprets compiled programs (:mod:`repro.lang`) over states that
carry symbolic memory, multiple processes/threads and a path constraint.  It
provides:

* forking at symbolic branches with feasibility checks (:mod:`repro.engine.interpreter`),
* an address-space model with copy-on-write domains and a per-state
  deterministic allocator (:mod:`repro.engine.memory`, paper §4.2 and §6),
* a cooperative thread scheduler with optional schedule forking and hang
  detection (:mod:`repro.engine.scheduler`),
* the symbolic system-call primitives of Table 1 (:mod:`repro.engine.syscalls`),
* the execution tree with node pins and layers (:mod:`repro.engine.tree`, §6),
* search strategies including random-path and coverage-optimized
  (:mod:`repro.engine.strategies`, §7),
* the uniform exploration limits shared by every backend
  (:mod:`repro.engine.limits`, re-exported as :mod:`repro.api.limits`),
* the one result type every backend returns (:mod:`repro.engine.result`,
  re-exported as :mod:`repro.api.result`),
* a single-node exploration driver (:mod:`repro.engine.executor`).
"""

from repro.engine.config import EngineConfig
from repro.engine.errors import BugKind, BugReport
from repro.engine.executor import SymbolicExecutor, StepResult
from repro.engine.limits import ExplorationLimits
from repro.engine.result import RunResult
from repro.engine.state import ExecutionState, StateStatus
from repro.engine.strategies import (
    BfsStrategy,
    CoverageOptimizedStrategy,
    DfsStrategy,
    InterleavedStrategy,
    RandomPathStrategy,
    RandomStateStrategy,
    make_strategy,
)
from repro.engine.coverage import CoverageBitVector
from repro.engine.test_case import TestCase
from repro.engine.tree import NodeLife, NodeStatus, TreeNode

__all__ = [
    "EngineConfig",
    "BugKind",
    "BugReport",
    "ExplorationLimits",
    "RunResult",
    "SymbolicExecutor",
    "StepResult",
    "ExecutionState",
    "StateStatus",
    "BfsStrategy",
    "CoverageOptimizedStrategy",
    "DfsStrategy",
    "InterleavedStrategy",
    "RandomPathStrategy",
    "RandomStateStrategy",
    "make_strategy",
    "CoverageBitVector",
    "TestCase",
    "NodeLife",
    "NodeStatus",
    "TreeNode",
]
