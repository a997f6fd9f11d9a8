"""The unified exploration API (one front end over every backend).

This package is the single supported way to execute symbolic tests:

* :class:`~repro.api.limits.ExplorationLimits` -- one bag of budgets/goals
  accepted uniformly by every backend (and by the lower-level ``run``
  methods of the engine and both clusters).
* :mod:`~repro.api.runner` -- the backend registry (``"single"``,
  ``"cluster"``, ``"static"``, ``"threaded"``, ``"process"``) behind
  ``SymbolicTest.run(backend=...)``.
* :class:`~repro.api.result.RunResult` -- the one result type, built by
  every engine itself, so backends compare field for field.
* :class:`~repro.api.campaign.Campaign` -- batch execution of many tests
  and/or configuration grids with aggregated coverage, bugs and timelines.
"""

from repro.api.limits import UNLIMITED, ExplorationLimits
from repro.api.result import RunResult
from repro.api.runner import (
    ClusterRunner,
    ProcessRunner,
    Runner,
    SingleRunner,
    StaticPartitionRunner,
    ThreadedRunner,
    available_backends,
    get_runner,
    register_runner,
    run_test,
)
from repro.api.campaign import Campaign, CampaignEntry, CampaignResult

__all__ = [
    "ExplorationLimits",
    "UNLIMITED",
    "RunResult",
    "Runner",
    "SingleRunner",
    "ClusterRunner",
    "StaticPartitionRunner",
    "ThreadedRunner",
    "ProcessRunner",
    "available_backends",
    "get_runner",
    "register_runner",
    "run_test",
    "Campaign",
    "CampaignEntry",
    "CampaignResult",
]
