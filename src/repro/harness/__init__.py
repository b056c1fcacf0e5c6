"""The experiment harness: regenerates every table and figure.

* :mod:`repro.harness.suite` -- standard application suite construction
  with fixed-total-input scaling across cluster sizes (the paper runs
  the same inputs on 16 and 32 nodes).
* :mod:`repro.harness.sweeps` -- LogGP parameter sweeps producing
  slowdown curves (Figures 5-8).
* :mod:`repro.harness.parallel` -- the one crash-safe task runner
  behind sweep points, campaigns and whole-experiment fan-out
  (bit-identical to serial execution).
* :mod:`repro.harness.runcache` -- content-addressed on-disk cache of
  completed runs, so regenerating artifacts skips known points.
* :mod:`repro.harness.store` / :mod:`repro.harness.campaign` -- the
  sqlite result store and the resumable campaign manager layered on
  the cache: argument-product specs, crash-safe execution, and
  query-side artifact generation.
* :mod:`repro.harness.experiments` -- one entry point per table/figure
  of the paper's evaluation (plus Figure 11, the open-system serving
  artifact over :mod:`repro.serve`).
* :mod:`repro.harness.report` -- ASCII tables and line plots.
"""

from repro.harness.suite import suite_for, REFERENCE_NODES
from repro.harness.sweeps import (SweepPoint, SweepResult, run_sweep,
                                  overhead_sweep, gap_sweep, latency_sweep,
                                  bulk_bandwidth_sweep, fault_sweep,
                                  spike_decay_sweep)
from repro.harness.parallel import run_experiments_parallel
from repro.harness.runcache import RunCache
from repro.harness.store import ResultStore
from repro.harness.campaign import (CampaignSpec, CampaignReport,
                                    CampaignInterrupted, EnsembleSweep,
                                    ensemble_from_store, run_campaign,
                                    sweep_from_store, figure_from_store,
                                    render_campaign, CAMPAIGN_DIALS,
                                    SERVING_CAMPAIGN_DIALS)
from repro.harness.report import ascii_plot, render_table
from repro.harness.config import ExperimentConfig
from repro.harness.surface import sensitivity_surface, overhead_gap_surface
from repro.harness.export import (write_matrix_csv, write_rows_csv,
                                  write_series_csv)

__all__ = ["suite_for", "REFERENCE_NODES", "SweepPoint", "SweepResult",
           "run_sweep", "overhead_sweep", "gap_sweep", "latency_sweep",
           "bulk_bandwidth_sweep", "fault_sweep", "spike_decay_sweep",
           "run_experiments_parallel", "RunCache", "ResultStore",
           "CampaignSpec", "CampaignReport", "CampaignInterrupted",
           "run_campaign", "sweep_from_store", "figure_from_store",
           "CAMPAIGN_DIALS", "SERVING_CAMPAIGN_DIALS",
           "EnsembleSweep", "ensemble_from_store",
           "render_campaign", "ascii_plot",
           "render_table", "ExperimentConfig", "sensitivity_surface",
           "overhead_gap_surface", "write_rows_csv", "write_matrix_csv",
           "write_series_csv"]
