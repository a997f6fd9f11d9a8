"""Cloud9 reproduction: parallel symbolic execution for automated software testing.

This package reproduces the system described in "Parallel Symbolic Execution
for Automated Real-World Software Testing" (Bucur, Ureche, Zamfir, Candea --
EuroSys 2011) as a pure-Python library:

* :mod:`repro.solver`  -- bitvector constraint solving substrate.
* :mod:`repro.lang`    -- the small imperative language of programs under test.
* :mod:`repro.engine`  -- the single-node symbolic execution engine (KLEE analogue).
* :mod:`repro.posix`   -- the symbolic POSIX environment model (§4).
* :mod:`repro.cluster` -- cluster-parallel exploration with dynamic load
  balancing (§3), the paper's core contribution.
* :mod:`repro.distrib` -- the same protocol across worker processes (real
  cores): path-encoded job shipping between private engines.
* :mod:`repro.testing` -- the symbolic-test platform API (§5).
* :mod:`repro.api`     -- the unified exploration API: one ``run`` surface,
  uniform limits, backend registry, unified results, batch campaigns.
* :mod:`repro.targets` -- models of the real-world systems evaluated in §7
  (memcached, lighttpd, printf, test, curl, Coreutils, Bandicoot, and a
  producer-consumer benchmark).

Quickstart -- the same symbolic test scales transparently from one engine to
a cluster, which is the paper's core pitch::

    from repro import lang as L
    from repro.testing import SymbolicTest

    program = L.program("demo",
        L.func("main", [],
            L.decl("buf", L.call("cloud9_symbolic_buffer", 2, L.strconst("input"))),
            L.if_(L.eq(L.index(L.var("buf"), 0), ord("!")), [L.ret(1)], [L.ret(0)]),
        ),
    )
    test = SymbolicTest("demo", program)
    print(test.run().paths_completed)                       # one engine: 2 paths
    print(test.run(backend="cluster", workers=4).paths_completed)

Every backend (``"single"``, ``"cluster"``, ``"static"``, ``"threaded"``,
``"process"``, ``"tcp"``) accepts the same
:class:`~repro.api.limits.ExplorationLimits` -- either as a ``limits=``
bundle or as direct kwargs -- and returns the same
:class:`~repro.api.result.RunResult`, built by the engine itself::

    from repro.api import ExplorationLimits

    limits = ExplorationLimits(max_paths=100, stop_on_first_bug=True)
    for backend in ("single", "cluster"):
        result = test.run(backend=backend, limits=limits)
        print(backend, result.paths_completed, result.coverage_percent)

Batches of tests (or one test across a grid of configurations) run through
:class:`~repro.api.campaign.Campaign`::

    from repro.api import Campaign

    campaign = Campaign("scalability", limits=ExplorationLimits(max_rounds=50))
    campaign.add_grid(test, [{"backend": "cluster", "workers": w}
                             for w in (1, 2, 4, 8)])
    outcome = campaign.run()
    print(outcome.summary_rows())
"""

from repro import api, cluster, engine, lang, posix, solver, testing
from repro.api import (
    Campaign,
    CampaignResult,
    ExplorationLimits,
    RunResult,
    available_backends,
    run_test,
)
from repro.cluster import Cloud9Cluster, ClusterConfig
from repro.engine import (
    BugKind,
    BugReport,
    EngineConfig,
    SymbolicExecutor,
    TestCase,
)
from repro.testing import SymbolicTest, SymbolicTestSuite

__version__ = "0.2.0"

__all__ = [
    "api",
    "cluster",
    "engine",
    "lang",
    "posix",
    "solver",
    "testing",
    "Campaign",
    "CampaignResult",
    "ExplorationLimits",
    "RunResult",
    "available_backends",
    "run_test",
    "Cloud9Cluster",
    "ClusterConfig",
    "BugKind",
    "BugReport",
    "EngineConfig",
    "SymbolicExecutor",
    "TestCase",
    "SymbolicTest",
    "SymbolicTestSuite",
    "__version__",
]
