"""Experiment presets: one module per figure of the paper's evaluation.

Each module exposes a ``run_*`` function that composes the relevant
workload × scenario × controller × probes through the unified harness
(:mod:`repro.workloads`) and returns a result object with a
``format_report()`` method printing the same series the paper's figure
shows.  The :mod:`repro.experiments.runner` module wraps them in a
command-line interface (``smapp-experiments``).
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, imported on first attribute access.
_EXPORTS = {
    "run_fig2a": "repro.experiments.fig2a_backup",
    "Fig2aResult": "repro.experiments.fig2a_backup",
    "run_fig2b": "repro.experiments.fig2b_streaming",
    "Fig2bResult": "repro.experiments.fig2b_streaming",
    "run_fig2c": "repro.experiments.fig2c_loadbalance",
    "Fig2cResult": "repro.experiments.fig2c_loadbalance",
    "run_fig3": "repro.experiments.fig3_pm_delay",
    "Fig3Result": "repro.experiments.fig3_pm_delay",
    "run_longlived": "repro.experiments.longlived",
    "LongLivedResult": "repro.experiments.longlived",
    "quick_grid": "repro.experiments.grids",
    "default_grid": "repro.experiments.grids",
    "full_grid": "repro.experiments.grids",
    "workloads_grid": "repro.experiments.grids",
    "figure_campaigns": "repro.experiments.grids",
    "named_grid": "repro.experiments.grids",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
