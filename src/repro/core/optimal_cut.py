"""Optimal-cut machinery (Equations 1, 2, and 13 of the OPTWIN paper).

For a sliding window of ``length`` elements, OPTWIN splits it into a
historical part of ``n_hist`` elements and a new part of ``n_new = length -
n_hist`` elements.  Equation 1 of the paper relates the user-supplied
robustness ``rho`` to the smallest mean shift (in units of ``sigma_hist``)
that the combination of Welch t-test and F-test is guaranteed to flag with
confidence ``delta'`` for a given split.  The *optimal* split is the largest
``nu = n_hist / length`` whose guaranteed-detectable shift is still at most
``rho`` — it maximises the historical window (stable statistics) while keeping
the new window just large enough to detect drifts of the requested magnitude,
which minimises the detection delay.

Everything in this module depends only on ``length``, ``rho`` and ``delta'``
(never on the data), which is what makes the paper's pre-computation of the
cut tables possible (Section 3.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.stats.distributions import f_ppf, t_ppf

__all__ = [
    "SplitSpec",
    "detectable_rho",
    "welch_df_upper_bound",
    "optimal_split",
    "rho_temp",
    "minimum_solvable_length",
]

#: Each sub-window needs at least this many elements for both tests to be
#: defined (variance needs two observations, F-test dof must be >= 1).
_MIN_SUBWINDOW = 2


@dataclass(frozen=True)
class SplitSpec:
    """Pre-computable quantities for one window length.

    Attributes
    ----------
    length:
        Window length ``|W|`` the spec was computed for.
    nu_split:
        Number of elements in ``W_hist`` (``floor(nu * |W|)``).
    nu:
        The splitting fraction ``nu_split / length``.
    t_critical:
        ``t_ppf(delta', df)`` with ``df`` from Equation 2, evaluated at the
        split.
    f_critical:
        ``f_ppf(delta', n_new - 1, n_hist - 1)`` — the F-test threshold used
        on Line 11 of Algorithm 1 (numerator dof from ``W_new``).
    degrees_of_freedom:
        The Welch degrees-of-freedom upper bound of Equation 2.
    solved:
        ``True`` when ``nu`` is an actual root of Equation 1; ``False`` when
        the window is still too small and the 50/50 fallback split was used.
    """

    length: int
    nu_split: int
    nu: float
    t_critical: float
    f_critical: float
    degrees_of_freedom: float
    solved: bool

    @property
    def n_hist(self) -> int:
        """Number of elements in the historical sub-window."""
        return self.nu_split

    @property
    def n_new(self) -> int:
        """Number of elements in the new sub-window."""
        return self.length - self.nu_split


def welch_df_upper_bound(n_hist: int, n_new: int, f_factor: float) -> float:
    """Equation 2: Welch degrees of freedom with ``sigma_new`` at its F-bound.

    Substituting ``sigma_new^2 <= sigma_hist^2 * f_factor`` into the Welch
    formula cancels ``sigma_hist`` and leaves an expression that depends only
    on the sub-window sizes and the F-test threshold.
    """
    if n_hist < 1 or n_new < 1:
        raise ConfigurationError("both sub-windows need at least one element")
    term_hist = 1.0 / n_hist
    term_new = f_factor / n_new
    numerator = (term_hist + term_new) ** 2
    denom_hist = (term_hist ** 2) / max(n_hist - 1, 1)
    denom_new = (term_new ** 2) / max(n_new - 1, 1)
    denominator = denom_hist + denom_new
    if denominator <= 0.0:
        return float(max(n_hist + n_new - 2, 1))
    return max(numerator / denominator, 1.0)


#: One split's ``(f_critical, degrees_of_freedom, t_critical, detectable
#: shift)``: the F threshold, the Equation-2 bound, the t threshold and the
#: right-hand side of Equation 1.
_Evaluation = Tuple[float, float, float, float]


def _evaluate_split(n_hist: int, n_new: int, confidence: float) -> _Evaluation:
    """Equations 1 and 2 at one split: two PPF evaluations."""
    f_factor = f_ppf(confidence, n_hist - 1, n_new - 1)
    df = welch_df_upper_bound(n_hist, n_new, f_factor)
    t_critical = t_ppf(confidence, df)
    detectable = t_critical * math.sqrt(1.0 / n_hist + f_factor / n_new)
    return f_factor, df, t_critical, detectable


def detectable_rho(n_hist: int, n_new: int, confidence: float) -> float:
    """Right-hand side of Equation 1 for a concrete integer split.

    Returns the smallest mean shift (in units of ``sigma_hist``) that the
    Welch t-test is guaranteed to flag with the given per-test ``confidence``
    when the F-test bounds ``sigma_new`` by ``sigma_hist * sqrt(f_factor)``.
    """
    if n_hist < _MIN_SUBWINDOW or n_new < _MIN_SUBWINDOW:
        raise ConfigurationError(
            f"both sub-windows need >= {_MIN_SUBWINDOW} elements, "
            f"got n_hist={n_hist}, n_new={n_new}"
        )
    return _evaluate_split(n_hist, n_new, confidence)[3]


def rho_temp(length: int, confidence: float) -> float:
    """Equation 13: the detectable shift for the 50/50 fallback split."""
    n_hist = length // 2
    n_new = length - n_hist
    return detectable_rho(n_hist, n_new, confidence)


def _spec_for_split(
    length: int,
    n_hist: int,
    confidence: float,
    solved: bool,
    evaluation: Optional[_Evaluation] = None,
) -> SplitSpec:
    if evaluation is None:
        evaluation = _evaluate_split(n_hist, length - n_hist, confidence)
    f_factor, df, t_critical, _ = evaluation
    # Line 11 of Algorithm 1 takes the F threshold with dof
    # (nu*|W| - 1, (1 - nu)*|W| - 1), i.e. the *historical* window first, even
    # though W_new's variance sits in the numerator of the statistic.  With
    # the historical window being the larger one this is the more conservative
    # of the two orderings and is what keeps OPTWIN's false-positive rate low;
    # we follow the paper literally (it also makes f_critical identical to the
    # f_factor of Equation 1).
    return SplitSpec(
        length=length,
        nu_split=n_hist,
        nu=n_hist / length,
        t_critical=t_critical,
        f_critical=f_factor,
        degrees_of_freedom=df,
        solved=solved,
    )


def optimal_split(
    length: int,
    rho: float,
    confidence: float,
    hint: Optional[int] = None,
) -> SplitSpec:
    """Find the optimal split of a window of ``length`` elements.

    The optimal split is the *largest* ``n_hist`` such that
    ``detectable_rho(n_hist, length - n_hist) <= rho``; if no split satisfies
    the inequality the window is too small and the 50/50 fallback is returned
    with ``solved=False`` (Section 3.3: "Otherwise, it is set to nu = 0.5").

    Parameters
    ----------
    length:
        Current window size ``|W|`` (must be at least ``2 * _MIN_SUBWINDOW``).
    rho:
        Robustness parameter.
    confidence:
        Per-test confidence ``delta'``.
    hint:
        Optional warm-start value of ``n_hist`` (e.g. the optimal split of the
        previous window length).  The search walks locally from the hint,
        which makes the amortised cost O(1) when lengths are visited in order.
    """
    if length < 2 * _MIN_SUBWINDOW:
        raise ConfigurationError(
            f"window length must be >= {2 * _MIN_SUBWINDOW}, got {length}"
        )
    if rho <= 0.0:
        raise ConfigurationError(f"rho must be > 0, got {rho}")

    lo = _MIN_SUBWINDOW
    hi = length - _MIN_SUBWINDOW

    # Each candidate is evaluated once; the searches below may probe one
    # twice, and the result is built from its evaluation.
    evaluated: Dict[int, _Evaluation] = {}

    def evaluate(n_hist: int) -> _Evaluation:
        if n_hist not in evaluated:
            evaluated[n_hist] = _evaluate_split(n_hist, length - n_hist, confidence)
        return evaluated[n_hist]

    def feasible(n_hist: int) -> bool:
        return evaluate(n_hist)[3] <= rho

    def split(n_hist: int, solved: bool = True) -> SplitSpec:
        return _spec_for_split(length, n_hist, confidence, solved, evaluate(n_hist))

    if hint is not None:
        start = min(max(hint, lo), hi)
        if feasible(start):
            # Walk right while the next split is still feasible.
            n_hist = start
            while n_hist < hi and feasible(n_hist + 1):
                n_hist += 1
            return split(n_hist)
        # Walk left until a feasible split is found (or none exists).
        n_hist = start - 1
        while n_hist >= lo:
            if feasible(n_hist):
                return split(n_hist)
            n_hist -= 1
        return split(length // 2, solved=False)

    # No hint: binary search on the right (increasing) branch.  The function
    # detectable_rho(nu) is U-shaped in nu; its largest feasible point, when
    # one exists, lies on the increasing branch, so we first check whether any
    # point is feasible by probing the 50/50 split and a coarse grid.
    probe_points = sorted({length // 2, lo, hi, (length * 3) // 4, length // 4})
    feasible_probe = None
    for probe in probe_points:
        if lo <= probe <= hi and feasible(probe):
            feasible_probe = probe
            break
    if feasible_probe is None:
        # Fine scan as a last resort (cheap for the small lengths where this
        # can happen); otherwise fall back to the 50/50 split.
        step = max(1, length // 64)
        for probe in range(lo, hi + 1, step):
            if feasible(probe):
                feasible_probe = probe
                break
        if feasible_probe is None:
            return split(length // 2, solved=False)

    # Binary search for the largest feasible n_hist in [feasible_probe, hi].
    low, high = feasible_probe, hi
    while low < high:
        mid = (low + high + 1) // 2
        if feasible(mid):
            low = mid
        else:
            high = mid - 1
    return split(low)


def minimum_solvable_length(rho: float, confidence: float, max_length: int = 100_000) -> int:
    """Return the smallest window length whose Equation 1 has a solution.

    This is the paper's ``w_proof``: below it OPTWIN falls back to the 50/50
    split and the weaker ``rho_temp`` guarantee.
    """
    if rho <= 0.0:
        raise ConfigurationError(f"rho must be > 0, got {rho}")
    for length in range(2 * _MIN_SUBWINDOW, max_length + 1):
        n_new = length - length // 2
        n_hist = length - n_new
        if n_hist < _MIN_SUBWINDOW:
            continue
        if detectable_rho(n_hist, n_new, confidence) <= rho:
            return length
    raise ConfigurationError(
        f"no window length up to {max_length} admits a solution for rho={rho}"
    )
