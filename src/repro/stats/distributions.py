"""Quantile (PPF) and distribution (CDF) functions of the t, F and normal laws.

OPTWIN's optimal-cut equation (Equation 1 in the paper) is written in terms of
``t_ppf`` and ``f_ppf``, the inverse CDFs of the Student-t and F distributions.
The t and F functions delegate to :mod:`scipy.special` and validate their
arguments with library-specific exceptions; they keep no cache (OPTWIN's cut
tables store what they need, see :mod:`repro.core.ppf_tables`).  The normal
CDF and PPF are computed here, from ``math.erf`` and Acklam's approximation.

:mod:`scipy.special` is imported on the first t or F call, not with this
module: importing it takes about 0.3 s and 20 MB, and a serving process
needs none of it, because its hubs build OPTWIN's cut tables in a forked
child (:func:`repro.core.ppf_tables.build_in_child`).
"""

from __future__ import annotations

import math
from typing import Any

from repro.exceptions import ConfigurationError

__all__ = [
    "t_ppf",
    "f_ppf",
    "t_cdf",
    "f_cdf",
    "normal_ppf",
    "normal_cdf",
]


_SPECIAL: Any = None


def _special() -> Any:
    """:mod:`scipy.special`, imported on first use."""
    global _SPECIAL
    if _SPECIAL is None:
        from scipy import special

        _SPECIAL = special
    return _SPECIAL


def _validate_confidence(confidence: float) -> None:
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(f"confidence must be in (0, 1), got {confidence}")


def normal_cdf(x: float) -> float:
    """CDF of the standard normal distribution."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def normal_ppf(p: float) -> float:
    """Inverse CDF of the standard normal distribution.

    Uses Acklam's rational approximation (maximum absolute error about 1e-9),
    which is more than accurate enough for threshold computation.
    """
    _validate_confidence(p)
    # Coefficients of Acklam's approximation.
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low = 0.02425
    p_high = 1.0 - p_low
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p <= p_high:
        q = p - 0.5
        r = q * q
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    q = math.sqrt(-2.0 * math.log(1.0 - p))
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)


def t_ppf(confidence: float, df: float) -> float:
    """PPF of the Student-t distribution at ``confidence`` with ``df`` d.o.f.

    Parameters
    ----------
    confidence:
        Cumulative probability in ``(0, 1)``.
    df:
        Degrees of freedom, must be positive.  Fractional values are allowed
        (Welch's correction produces non-integer degrees of freedom).
    """
    _validate_confidence(confidence)
    if df <= 0:
        raise ConfigurationError(f"degrees of freedom must be > 0, got {df}")
    # scipy.special.stdtrit is the direct (and much faster) equivalent of
    # scipy.stats.t.ppf for scalar arguments.
    return float(_special().stdtrit(df, confidence))


def f_ppf(confidence: float, dfn: float, dfd: float) -> float:
    """PPF of the F distribution.

    Parameters
    ----------
    confidence:
        Cumulative probability in ``(0, 1)``.
    dfn, dfd:
        Numerator and denominator degrees of freedom, both positive.
    """
    _validate_confidence(confidence)
    if dfn <= 0 or dfd <= 0:
        raise ConfigurationError(
            f"degrees of freedom must be > 0, got dfn={dfn}, dfd={dfd}"
        )
    return float(_special().fdtri(dfn, dfd, confidence))


def t_cdf(x: float, df: float) -> float:
    """CDF of the Student-t distribution."""
    if df <= 0:
        raise ConfigurationError(f"degrees of freedom must be > 0, got {df}")
    return float(_special().stdtr(df, x))


def f_cdf(x: float, dfn: float, dfd: float) -> float:
    """CDF of the F distribution."""
    if dfn <= 0 or dfd <= 0:
        raise ConfigurationError(
            f"degrees of freedom must be > 0, got dfn={dfn}, dfd={dfd}"
        )
    if x <= 0:
        return 0.0
    return float(_special().fdtr(dfn, dfd, x))
