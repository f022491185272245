"""Named monotonic counters, grouped by scope.

Counters complement the event stream: an :class:`~repro.obs.events.EventLog`
answers *when and in what order*, counters answer *how many in total*
without the per-event cost.  A :class:`CounterRegistry` is a plain
two-level dict — scope (a host stack, the fault injector...) to counter
name to integer — with merge-add semantics so repeated collections from
the same scope accumulate.

The registry itself is passive: it never hooks the simulator.  The
``events`` probe pulls each stack's counters at collect time from
:meth:`~repro.mptcp.stack.MptcpStack.counters`, which keeps the hot path
completely untouched when observability is off.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

__all__ = ["CounterRegistry"]


class CounterRegistry:
    """Monotonic counters keyed by ``scope`` then counter name.

    ``record`` merges with addition, so collecting the same scope twice
    accumulates; ``snapshot`` returns a fully sorted nested dict,
    suitable for byte-stable JSON export.
    """

    def __init__(self) -> None:
        self._scopes: Dict[str, Dict[str, int]] = {}

    def record(self, scope: str, counters: Mapping[str, Any]) -> None:
        """Merge-add ``counters`` into ``scope`` (values coerced to int)."""
        bucket = self._scopes.setdefault(scope, {})
        for name, value in counters.items():
            bucket[name] = bucket.get(name, 0) + int(value)

    def scope(self, name: str) -> Dict[str, int]:
        """A copy of one scope's counters (empty dict when unknown)."""
        return dict(self._scopes.get(name, {}))

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """All counters as a sorted ``{scope: {name: value}}`` dict."""
        return {
            scope: dict(sorted(counters.items()))
            for scope, counters in sorted(self._scopes.items())
        }

