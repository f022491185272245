"""Discrete-event simulation engine.

This package is the bottom layer of the reproduction: a deterministic,
seeded, callback-based event loop on which every other subsystem (links,
TCP timers, the Netlink channel, subflow controllers, applications) is
scheduled.  Nothing in the repository uses wall-clock time or threads.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, imported on first attribute access.
_EXPORTS = {
    "Simulator": "repro.sim.engine",
    "ScheduledEvent": "repro.sim.engine",
    "SimulationError": "repro.sim.engine",
    "Timer": "repro.sim.timers",
    "PeriodicTimer": "repro.sim.timers",
    "RandomSource": "repro.sim.randomness",
    "derive_seed": "repro.sim.randomness",
    "LatencyModel": "repro.sim.latency",
    "ConstantLatency": "repro.sim.latency",
    "NormalLatency": "repro.sim.latency",
    "LogNormalLatency": "repro.sim.latency",
    "ShiftedLatency": "repro.sim.latency",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
