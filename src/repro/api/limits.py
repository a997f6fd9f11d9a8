"""Public home of the uniform exploration limits.

The implementation lives in :mod:`repro.engine.limits` so the engine and
cluster layers can use it without importing :mod:`repro.api` back (the
package init pulls in the cluster layer).  Import from here in user code.
"""

from repro.engine.limits import UNLIMITED, ExplorationLimits

__all__ = ["ExplorationLimits", "UNLIMITED"]
