"""Public home of the one result type every backend returns.

The implementation lives in :mod:`repro.engine.result` so the engine and
cluster layers can build it without importing :mod:`repro.api` back (the
package init pulls in the cluster layer).  Import from here in user code.
"""

from repro.engine.result import RunResult

__all__ = ["RunResult"]
