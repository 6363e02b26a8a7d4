"""OPTWIN core: the paper's primary contribution.

Public surface:

* :class:`repro.core.optwin.Optwin` — the detector itself.
* :class:`repro.core.config.OptwinConfig` — validated parameters.
* :class:`repro.core.base.DriftDetector` — the interface every detector
  (OPTWIN and the baselines in :mod:`repro.detectors`) implements.
* :mod:`repro.core.optimal_cut` — the data-independent optimal-cut search.
* :mod:`repro.core.ppf_tables` — its results for one configuration, as
  arrays indexed by window length, read by both of OPTWIN's update paths.
"""

from repro.core.base import (
    SNAPSHOT_SCHEMA_VERSION,
    BatchResult,
    DetectionResult,
    DriftDetector,
    DriftType,
)
from repro.core.config import OptwinConfig
from repro.core.optimal_cut import (
    SplitSpec,
    detectable_rho,
    minimum_solvable_length,
    optimal_split,
    rho_temp,
    welch_df_upper_bound,
)
from repro.core.optwin import Optwin
from repro.core.ppf_tables import CutTable, get_cut_table

__all__ = [
    "Optwin",
    "OptwinConfig",
    "SNAPSHOT_SCHEMA_VERSION",
    "DriftDetector",
    "DetectionResult",
    "BatchResult",
    "DriftType",
    "SplitSpec",
    "optimal_split",
    "detectable_rho",
    "rho_temp",
    "welch_df_upper_bound",
    "minimum_solvable_length",
    "CutTable",
    "get_cut_table",
]
