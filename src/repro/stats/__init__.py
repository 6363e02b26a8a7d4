"""Statistical substrate shared by the drift detectors and the evaluation code.

The sub-modules are deliberately small and self-contained:

* :mod:`repro.stats.incremental` — prefix statistics over a sliding window.
* :mod:`repro.stats.distributions` — t and F probability point functions.
* :mod:`repro.stats.welch` — Welch unequal-variance t-test.
* :mod:`repro.stats.ftest` — one-sided F-test for variances.
* :mod:`repro.stats.proportions` — equality-of-proportions test (STEPD).
* :mod:`repro.stats.ewma` — EWMA estimator and control limits (ECDD).
* :mod:`repro.stats.wilcoxon` — one-tailed Wilcoxon signed-rank test.
"""

from repro.stats.distributions import f_cdf, f_ppf, normal_cdf, normal_ppf, t_cdf, t_ppf
from repro.stats.ewma import EwmaEstimator, ecdd_control_limit
from repro.stats.ftest import FTestResult, f_statistic, f_test
from repro.stats.incremental import PrefixStats
from repro.stats.proportions import ProportionTestResult, equal_proportions_test
from repro.stats.welch import (
    WelchResult,
    welch_degrees_of_freedom,
    welch_statistic,
    welch_t_test,
)
from repro.stats.wilcoxon import WilcoxonResult, wilcoxon_signed_rank

__all__ = [
    "PrefixStats",
    "t_ppf",
    "f_ppf",
    "t_cdf",
    "f_cdf",
    "normal_ppf",
    "normal_cdf",
    "WelchResult",
    "welch_statistic",
    "welch_degrees_of_freedom",
    "welch_t_test",
    "FTestResult",
    "f_statistic",
    "f_test",
    "ProportionTestResult",
    "equal_proportions_test",
    "EwmaEstimator",
    "ecdd_control_limit",
    "WilcoxonResult",
    "wilcoxon_signed_rank",
]
