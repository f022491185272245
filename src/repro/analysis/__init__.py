"""Analysis utilities: CDFs, summary statistics, traces and reports."""

from repro._lazy import lazy_exports

#: Public name -> defining module, imported on first attribute access.
_EXPORTS = {
    "Cdf": "repro.analysis.cdf",
    "SummaryStats": "repro.analysis.stats",
    "summarize": "repro.analysis.stats",
    "SubflowSequenceTrace": "repro.analysis.trace",
    "SequencePoint": "repro.analysis.trace",
    "extract_sequence_trace": "repro.analysis.trace",
    "payload_byte_totals": "repro.analysis.trace",
    "syn_join_delays": "repro.analysis.trace",
    "format_table": "repro.analysis.report",
    "format_cdf_table": "repro.analysis.report",
    "format_comparison_table": "repro.analysis.report",
    "group_cells": "repro.analysis.aggregate",
    "metric_values": "repro.analysis.aggregate",
    "summarize_groups": "repro.analysis.aggregate",
    "cdfs_by": "repro.analysis.aggregate",
    "worst_cell_deltas": "repro.analysis.deltas",
    "summarize_drift_by_axis": "repro.analysis.deltas",
    "out_of_tolerance_counts_by_axis": "repro.analysis.deltas",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
