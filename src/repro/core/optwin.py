"""OPTWIN — the OPTimal WINdow concept-drift detector (Algorithm 1).

OPTWIN keeps a sliding window ``W`` of the error values produced by an online
learner.  At every new element it:

1. looks up the optimal split ``nu`` of the current window length (the largest
   historical window that still guarantees detection of a mean shift of
   ``rho * sigma_hist`` — Equation 1 of the paper),
2. splits ``W`` into ``W_hist`` and ``W_new`` at that point,
3. runs the one-sided F-test on the sub-window variances (Line 11) and the
   Welch t-test on the sub-window means (Line 14), each at the per-test
   confidence ``delta' = delta ** (1/4)``,
4. flags a drift and resets itself when either test rejects.

The split and the test thresholds depend only on the window length, so both
the scalar and the batched path read them from one process-wide table of
arrays indexed by ``|W|`` (:mod:`repro.core.ppf_tables`), keeping the
per-element cost O(1) amortised.

Example
-------
>>> from repro.core import Optwin
>>> detector = Optwin(delta=0.99, rho=0.5, w_max=1000)
>>> import random
>>> rng = random.Random(7)
>>> drift_points = []
>>> for i in range(2000):
...     error = rng.gauss(0.2, 0.05) if i < 1000 else rng.gauss(0.8, 0.05)
...     if detector.update(error).drift_detected:
...         drift_points.append(i)
>>> len(drift_points) >= 1
True
"""

from __future__ import annotations

import math
from typing import Any, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.base import DetectionResult, DriftDetector, DriftType
from repro.core.config import OptwinConfig
from repro.core.optimal_cut import SplitSpec, detectable_rho
from repro.core.ppf_tables import CutTable, get_cut_table
from repro.exceptions import ConfigurationError
from repro.stats.incremental import PrefixStats
from repro.stats.welch import welch_statistic

__all__ = ["Optwin"]

#: Window contents retained after a drift: drop everything (Algorithm 1's
#: ``reset()``) or keep the post-drift sub-window as the new history.
_RESET_MODES = ("full", "keep_new")


class Optwin(DriftDetector):
    """Optimal-window drift detector of Tosi & Theobald (ICDE 2024).

    Parameters
    ----------
    delta:
        Overall confidence level of the detection, in ``(0, 1)``.
    rho:
        Robustness: minimum shift of the new mean, in units of the historical
        standard deviation, that should count as a drift.
    w_min:
        Minimum number of elements before drifts can be flagged.
    w_max:
        Maximum sliding-window size.
    one_sided:
        Only flag drifts where the monitored value (an error or loss)
        *increased*; this is the behaviour used in the paper's experiments.
    warning_delta:
        Confidence of the relaxed tests that define the warning zone; pass
        ``0.0`` to disable warnings or ``None`` for the default
        ``0.96 * delta``.
    require_magnitude:
        Require the observed mean shift to be at least ``rho * sigma_hist``
        (the paper's definition of robustness) on top of the t-test; this is
        what keeps the false-positive rate low.
    skip_variance_on_binary:
        Skip the F-test while the input looks like a 0/1 error-indicator
        stream (the Bernoulli variance is determined by the mean, so the
        F-test would only add false positives there); real-valued inputs are
        unaffected.
    reset_mode:
        ``"full"`` clears the window after a drift (Algorithm 1); ``"keep_new"``
        keeps ``W_new`` as the new history, which lowers the delay for closely
        spaced drifts.
    config:
        Alternatively, pass a fully built :class:`OptwinConfig`; it overrides
        the individual keyword arguments.

    Notes
    -----
    The detector feeds on any real-valued, per-example measure of learner
    quality: a 0/1 misclassification indicator, a regression loss, or a batch
    loss.  Values do not need to be bounded.
    """

    def __init__(
        self,
        delta: float = 0.99,
        rho: float = 0.5,
        w_min: int = 30,
        w_max: int = 25_000,
        one_sided: bool = True,
        warning_delta: Optional[float] = None,
        require_magnitude: bool = True,
        skip_variance_on_binary: bool = True,
        reset_mode: str = "full",
        config: Optional[OptwinConfig] = None,
    ) -> None:
        super().__init__()
        if config is None:
            config = OptwinConfig(
                delta=delta,
                rho=rho,
                w_min=w_min,
                w_max=w_max,
                one_sided=one_sided,
                warning_delta=warning_delta,
                require_magnitude=require_magnitude,
                skip_variance_on_binary=skip_variance_on_binary,
            )
        if reset_mode not in _RESET_MODES:
            raise ConfigurationError(
                f"reset_mode must be one of {_RESET_MODES}, got {reset_mode!r}"
            )
        self._config = config
        self._reset_mode = reset_mode
        warning = config.warning_delta_prime if config.warning_enabled else None
        self._cut_table: CutTable = get_cut_table(
            config.rho, config.delta_prime, warning
        )
        self._init_state()

    def _init_state(self) -> None:
        self._window = PrefixStats()
        self._all_values_binary = True

    # ----------------------------------------------------------- properties

    @property
    def config(self) -> OptwinConfig:
        """The validated configuration of this detector."""
        return self._config

    @property
    def window_size(self) -> int:
        """Current number of elements in the sliding window."""
        return len(self._window)

    @property
    def window_mean(self) -> float:
        """Mean of the whole sliding window."""
        return self._window.mean(0, len(self._window))

    @property
    def window_std(self) -> float:
        """Standard deviation of the whole sliding window."""
        return self._window.std(0, len(self._window))

    def current_split(self) -> Optional[SplitSpec]:
        """The split that would be used right now (``None`` if below w_min)."""
        length = len(self._window)
        if length < self._config.w_min:
            return None
        return self._cut_table.split(length)

    # ------------------------------------------------------------- updates

    def _update_one(self, value: float) -> DetectionResult:
        config = self._config
        window = self._window
        window.append(value)
        if self._all_values_binary and value not in (0.0, 1.0):
            self._all_values_binary = False

        if len(window) < config.w_min:
            return DetectionResult(statistics={"window_size": float(len(window))})
        if len(window) > config.w_max:
            window.popleft()

        length = len(window)
        table = self._cut_table
        if length > table.max_length:
            table.grow(length)
        n_hist = table.n_hist.item(length)
        n_new = length - n_hist
        f_critical = table.f_critical.item(length)
        t_critical = table.t_critical.item(length)

        mean_hist = window.mean(0, n_hist)
        mean_new = window.mean(n_hist, length)
        var_hist = window.variance(0, n_hist)
        var_new = window.variance(n_hist, length)
        std_hist = math.sqrt(var_hist)
        std_new = math.sqrt(var_new)

        direction_ok = (not config.one_sided) or mean_new >= mean_hist

        f_num = std_new + config.eta
        f_den = std_hist + config.eta
        f_stat = (f_num * f_num) / (f_den * f_den)
        t_stat = welch_statistic(mean_hist, var_hist, n_hist, mean_new, var_new, n_new)

        statistics = {
            "window_size": float(length),
            "nu_split": float(n_hist),
            "mean_hist": mean_hist,
            "mean_new": mean_new,
            "std_hist": std_hist,
            "std_new": std_new,
            "f_statistic": f_stat,
            "f_critical": f_critical,
            "t_statistic": t_stat,
            "t_critical": t_critical,
        }

        mean_shift = abs(mean_new - mean_hist)
        magnitude_ok = (not config.require_magnitude) or (
            mean_shift >= config.rho * std_hist
        )
        # For 0/1 error indicators the variance is a function of the mean, so
        # the F-test would only duplicate (and mis-calibrate) the mean test.
        variance_test_enabled = not (
            config.skip_variance_on_binary and self._all_values_binary
        )

        drift_type: Optional[DriftType] = None
        if variance_test_enabled and direction_ok and f_stat > f_critical:
            drift_type = DriftType.VARIANCE
        elif direction_ok and magnitude_ok and abs(t_stat) > t_critical:
            drift_type = DriftType.MEAN

        if drift_type is not None:
            self._apply_reset(n_hist, length)
            return DetectionResult(
                drift_detected=True,
                warning_detected=True,
                drift_type=drift_type,
                statistics=statistics,
            )

        warning = False
        if config.warning_enabled and direction_ok:
            f_warn = table.f_warning.item(length)
            t_warn = table.t_warning.item(length)
            warning = (variance_test_enabled and f_stat > f_warn) or abs(
                t_stat
            ) > t_warn
            statistics["f_warning_critical"] = f_warn
            statistics["t_warning_critical"] = t_warn

        return DetectionResult(warning_detected=warning, statistics=statistics)

    def _apply_reset(self, n_hist: int, length: int) -> None:
        """Shrink the window after a drift according to ``reset_mode``."""
        if self._reset_mode == "full":
            self._window.clear()
            return
        # keep_new: drop the historical sub-window, keep the recent one.
        self._window.popleft_many(n_hist)

    # ------------------------------------------------------- batched updates

    def precompute_tables(self, max_length: Optional[int] = None) -> None:
        """Eagerly fill the cut table (the paper's offline step).

        Both update paths grow the table lazily as the window grows; calling
        this first (e.g. before timing a benchmark) moves that one-time cost
        out of the measured region, matching the paper's Section-3.4 setting
        where all thresholds are pre-computed before the stream starts.
        """
        config = self._config
        limit = config.w_max if max_length is None else min(max_length, config.w_max)
        self._cut_table.grow(max(limit, config.w_min))

    def _table_demand(self) -> Tuple[CutTable, int]:
        config = self._config
        return self._cut_table, max(config.w_min, config.w_max)

    def _batch_kernel(
        self,
        values: "np.ndarray",
        position: int,
        limit: int,
        drifts: List[int],
        warnings: List[int],
    ) -> Tuple[int, int, Optional[DriftType]]:
        """Vectorise one between-reset segment starting at ``values[position]``.

        The F/t statistics of every element in the segment are computed at
        once from the window's cumulative sums, with the splits and thresholds
        gathered from the cut table's arrays; a drift ends the segment and
        resets the window exactly like :meth:`_update_one`.  The segment is
        capped so that the storage compaction point can never fall inside it:
        the element whose eviction triggers the compaction runs through
        :meth:`_update_one` by itself.  Scalar and batched execution then
        drive :class:`PrefixStats` through exactly the same sequence of
        states, which is what makes the reported indices (and all downstream
        statistics) bit-identical.
        """
        config = self._config
        window = self._window
        if (
            len(window) >= config.w_max
            and window.dead_prefix == PrefixStats._COMPACT_THRESHOLD - 1
        ):
            # This element's eviction triggers the storage compaction
            # (slice-and-rebase) *before* its statistics are computed.  Run
            # it through the scalar path so the rebase happens at exactly
            # the same point as in scalar mode — one scalar element per
            # compaction period keeps the two modes bit-identical even when
            # rebasing perturbs prefix ulps.
            outcome = self._update_one(float(values[position]))
            if outcome.drift_detected:
                drifts.append(position)
            if outcome.warning_detected:
                warnings.append(position)
            return 1, limit, outcome.drift_type
        w0 = len(window)
        remaining = values.shape[0] - position
        # Strictly below the compaction threshold: after this segment's
        # evictions the dead prefix is at most COMPACT_THRESHOLD - 1, so no
        # rebase happens while the segment's statistics are outstanding.
        seg = min(
            remaining,
            limit,
            (config.w_max - w0)
            + (PrefixStats._COMPACT_THRESHOLD - 1 - window.dead_prefix),
        )
        chunk = values[position : position + seg]

        # Track the "every value so far is 0/1" flag exactly like the scalar
        # path: the flag for element j includes element j itself.
        binary_chunk = np.logical_or(chunk == 0.0, chunk == 1.0)
        if self._all_values_binary:
            all_binary = np.logical_and.accumulate(binary_chunk)
        else:
            all_binary = np.zeros(seg, dtype=bool)

        max_len = min(w0 + seg, config.w_max)
        start_valid = max(0, config.w_min - w0 - 1)
        window.append_many(chunk)
        if start_valid >= seg:
            # The whole segment is below w_min: no tests, no evictions.
            self._all_values_binary = bool(all_binary[-1])
            return seg, self._segment_limit(limit * 4), None

        table = self._cut_table
        table.grow(max_len)
        prefix, prefix_sq, _, end = window.raw_arrays()
        e0 = end - seg

        jj = np.arange(start_valid, seg, dtype=np.int64)
        total = w0 + 1 + jj
        lens = np.minimum(total, config.w_max)
        hi = e0 + 1 + jj
        lo = hi - lens
        n_hist = table.n_hist[lens]
        cut = lo + n_hist

        nh_f = n_hist.astype(np.float64)
        nn_f = (lens - n_hist).astype(np.float64)
        sum_hist = prefix[cut] - prefix[lo]
        sum_new = prefix[hi] - prefix[cut]
        sumsq_hist = prefix_sq[cut] - prefix_sq[lo]
        sumsq_new = prefix_sq[hi] - prefix_sq[cut]
        mean_hist = sum_hist / nh_f
        mean_new = sum_new / nn_f
        var_hist = np.maximum(
            (sumsq_hist - nh_f * mean_hist * mean_hist) / (nh_f - 1.0), 0.0
        )
        var_new = np.maximum(
            (sumsq_new - nn_f * mean_new * mean_new) / (nn_f - 1.0), 0.0
        )
        std_hist = np.sqrt(var_hist)
        std_new = np.sqrt(var_new)

        if config.one_sided:
            direction_ok = mean_new >= mean_hist
        else:
            direction_ok = np.ones(jj.shape[0], dtype=bool)

        f_num = std_new + config.eta
        f_den = std_hist + config.eta
        f_stat = (f_num * f_num) / (f_den * f_den)

        # Welch statistic, replicating welch_statistic()'s degenerate handling.
        pooled = var_hist / nh_f + var_new / nn_f
        diff = mean_hist - mean_new
        with np.errstate(divide="ignore", invalid="ignore"):
            t_stat = diff / np.sqrt(pooled)
        degenerate = pooled <= 0.0
        if degenerate.any():
            tolerance = 1e-9 * np.maximum(
                1.0, np.maximum(np.abs(mean_hist), np.abs(mean_new))
            )
            t_degenerate = np.where(
                np.abs(diff) <= tolerance,
                0.0,
                np.where(diff > 0.0, np.inf, -np.inf),
            )
            t_stat = np.where(degenerate, t_degenerate, t_stat)
        abs_t = np.abs(t_stat)

        if config.require_magnitude:
            magnitude_ok = np.abs(mean_new - mean_hist) >= config.rho * std_hist
        else:
            magnitude_ok = np.ones(jj.shape[0], dtype=bool)
        if config.skip_variance_on_binary:
            variance_enabled = ~all_binary[start_valid:]
        else:
            variance_enabled = np.ones(jj.shape[0], dtype=bool)

        variance_drift = (
            variance_enabled & direction_ok & (f_stat > table.f_critical[lens])
        )
        mean_drift = (
            ~variance_drift
            & direction_ok
            & magnitude_ok
            & (abs_t > table.t_critical[lens])
        )
        drift = variance_drift | mean_drift

        if config.warning_enabled:
            warning = (
                ~drift
                & direction_ok
                & (
                    (variance_enabled & (f_stat > table.f_warning[lens]))
                    | (abs_t > table.t_warning[lens])
                )
            )
        else:
            warning = np.zeros(jj.shape[0], dtype=bool)

        base = position + start_valid
        drift_positions = np.flatnonzero(drift)
        if drift_positions.size == 0:
            warnings.extend((np.flatnonzero(warning) + base).tolist())
            evicted = w0 + seg - config.w_max
            if evicted > 0:
                window.popleft_many(evicted)
            self._all_values_binary = bool(all_binary[-1])
            return seg, self._segment_limit(limit * 4), None

        drift_rel_valid = int(drift_positions[0])
        drift_rel = start_valid + drift_rel_valid
        consumed = drift_rel + 1
        warnings.extend(
            (np.flatnonzero(warning[:drift_rel_valid]) + base).tolist()
        )
        drifts.append(position + drift_rel)
        warnings.append(position + drift_rel)
        drift_type = (
            DriftType.VARIANCE if variance_drift[drift_rel_valid] else DriftType.MEAN
        )
        length_at_drift = int(lens[drift_rel_valid])
        n_hist_at_drift = int(n_hist[drift_rel_valid])

        # Rewind the storage to the scalar-mode state at the drift element,
        # then apply the reset exactly like _update_one would.
        window.truncate_last(seg - consumed)
        evicted = w0 + consumed - length_at_drift
        if evicted > 0:
            window.popleft_many(evicted)
        self._apply_reset(n_hist_at_drift, length_at_drift)
        self._all_values_binary = bool(all_binary[drift_rel])
        return consumed, self._segment_limit(w0 + consumed), drift_type

    # ---------------------------------------------------- snapshot / restore

    def _config_dict(self) -> dict:
        config = self._config
        return {
            "delta": config.delta,
            "rho": config.rho,
            "w_min": config.w_min,
            "w_max": config.w_max,
            "eta": config.eta,
            "one_sided": config.one_sided,
            "warning_delta": config.warning_delta,
            "require_magnitude": config.require_magnitude,
            "skip_variance_on_binary": config.skip_variance_on_binary,
            "reset_mode": self._reset_mode,
        }

    @classmethod
    def from_config_dict(cls, config: Mapping[str, Any]) -> "Optwin":
        # eta is an OptwinConfig field but not an Optwin keyword, so the
        # snapshot config is rebuilt through an explicit OptwinConfig.
        kwargs = dict(config)
        reset_mode = kwargs.pop("reset_mode", "full")
        return cls(config=OptwinConfig(**kwargs), reset_mode=reset_mode)

    def _state_dict(self) -> dict:
        # The cut table is data-independent (shared per configuration), so
        # only the window storage and the binary-input flag are serialized.
        # The window's prefix arrays must be captured verbatim — see
        # PrefixStats.state_dict — for restored detections to stay bit-exact.
        return {
            "window": self._window.state_dict(),
            "all_values_binary": self._all_values_binary,
        }

    def _load_state(self, state: dict) -> None:
        self._window.load_state_dict(state["window"])
        self._all_values_binary = bool(state["all_values_binary"])

    # ------------------------------------------------------------ analysis

    def detectable_shift(self) -> Optional[float]:
        """Smallest guaranteed-detectable mean shift at the current length.

        Returns the right-hand side of Equation 1 at the current split, i.e.
        the shift (in units of ``sigma_hist``) that the configuration
        guarantees to flag, or ``None`` while the window is below ``w_min``.
        """
        spec = self.current_split()
        if spec is None:
            return None
        return detectable_rho(spec.n_hist, spec.n_new, self._config.delta_prime)

    def memory_bytes(self) -> int:
        """Rough upper bound of the detector's resident memory (Section 3.4)."""
        floats_per_entry = 4  # value + prefix sums + spec share, as in the paper
        return self._config.w_max * floats_per_entry * 8

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cfg = self._config
        return (
            f"Optwin(delta={cfg.delta}, rho={cfg.rho}, w_min={cfg.w_min}, "
            f"w_max={cfg.w_max}, window_size={self.window_size})"
        )
