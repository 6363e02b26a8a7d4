"""Integration tests for the per-table/figure experiment drivers (small scale)."""

import numpy as np
import pytest

from repro import Optwin
from repro.evaluation.reporting import format_accuracy_table, format_detection_rows
from repro.experiments import ablations, figures, runtime, significance, table1, table2


@pytest.fixture(scope="module")
def small_sudden_binary():
    return table1.run_sudden_binary(n_repetitions=2, segment_length=1_200, w_max=5_000)


class TestTable1Drivers:
    def test_sudden_binary_rows(self, small_sudden_binary):
        rows = table1.summaries_to_rows(small_sudden_binary)
        assert len(rows) == 8  # 5 baselines + 3 OPTWIN configurations
        names = {row["detector"] for row in rows}
        assert {"ADWIN", "DDM", "EDDM", "STEPD", "ECDD"} <= names
        for row in rows:
            assert 0.0 <= row["f1"] <= 1.0
        text = format_detection_rows(rows, title="sudden binary")
        assert "OPTWIN" in text

    def test_optwin_f1_competitive(self, small_sudden_binary):
        rows = {r["detector"]: r for r in table1.summaries_to_rows(small_sudden_binary)}
        best_optwin = max(
            rows[name]["f1"] for name in rows if name.startswith("OPTWIN")
        )
        assert best_optwin >= rows["ECDD"]["f1"]
        assert best_optwin >= rows["EDDM"]["f1"]

    def test_nonbinary_excludes_binary_only_detectors(self):
        summaries = table1.run_sudden_nonbinary(
            n_repetitions=1, segment_length=800, w_max=5_000
        )
        assert "DDM" not in summaries and "ECDD" not in summaries
        assert "ADWIN" in summaries and "STEPD" in summaries

    def test_classification_block_small(self):
        summaries = table1.run_stagger(
            n_repetitions=1,
            n_instances=6_000,
            drift_every=2_000,
            w_max=5_000,
        )
        rows = {r["detector"]: r for r in table1.summaries_to_rows(summaries)}
        optwin = rows["OPTWIN rho=0.5"]
        assert optwin["recall"] >= 0.5
        assert optwin["f1"] >= 0.5


class TestTable2Driver:
    def test_small_grid(self):
        builders = table2.dataset_builders(n_instances=3_000, drift_every=1_500)
        subset = {name: builders[name] for name in ("STAGGER (sudden)", "Electricity")}
        accuracies = table2.run_table2(
            n_instances=3_000,
            drift_every=1_500,
            n_repetitions=1,
            w_max=5_000,
            datasets=subset,
        )
        assert "No drift detector" in accuracies
        for per_dataset in accuracies.values():
            assert set(per_dataset) == {"STAGGER (sudden)", "Electricity"}
            for accuracy in per_dataset.values():
                assert 0.3 <= accuracy <= 1.0
        # Drift-aware configurations beat the static baseline on STAGGER.
        static = accuracies["No drift detector"]["STAGGER (sudden)"]
        optwin = accuracies["OPTWIN rho=0.5"]["STAGGER (sudden)"]
        assert optwin >= static
        text = format_accuracy_table(
            accuracies, dataset_order=["STAGGER (sudden)", "Electricity"]
        )
        assert "No drift detector" in text


class TestFigureDrivers:
    def test_figure2_series(self):
        series = figures.run_figure2(segment_length=1_200, n_drifts=2, w_max=5_000)
        assert "OPTWIN rho=0.5" in series
        optwin = series["OPTWIN rho=0.5"]
        assert optwin.true_drifts == [1_200, 2_400]
        assert optwin.evaluation.true_positives >= 1
        row = optwin.as_row()
        assert {"detector", "tp", "fp", "mean_delay"} <= set(row)

    def test_figure3_series(self):
        series = figures.run_figure3(
            segment_length=1_500, n_drifts=1, width=400, w_max=5_000
        )
        for detection_series in series.values():
            assert detection_series.true_drifts
        assert series["OPTWIN rho=0.5"].evaluation.true_positives >= 1

    def test_false_positive_positions_disjoint_from_matches(self):
        series = figures.run_figure2(segment_length=1_200, n_drifts=2, w_max=5_000)
        for detection_series in series.values():
            matched = {
                match.detection_position
                for match in detection_series.evaluation.matches
                if match.detected
            }
            assert set(detection_series.false_positive_positions).isdisjoint(matched)


class TestAblationsAndRuntime:
    def test_ftest_ablation_shows_value_of_variance_test(self):
        summaries = ablations.run_ftest_ablation(n_repetitions=2, segment_length=1_500)
        with_f = summaries["OPTWIN (t + F tests)"].aggregate
        without_f = summaries["OPTWIN (t test only)"].aggregate
        assert with_f.recall > without_f.recall

    def test_optimal_cut_ablation_runs(self):
        summaries = ablations.run_optimal_cut_ablation(
            n_repetitions=2, segment_length=1_000
        )
        optimal = summaries["OPTWIN (optimal cut)"].aggregate
        fixed = summaries["OPTWIN (fixed 50/50 cut)"].aggregate
        assert fixed.recall > 0.0
        assert optimal.recall >= fixed.recall
        assert optimal.mean_delay <= fixed.mean_delay

    def test_fixed_split_variant_scalar_equals_batch(self):
        stream = ablations._mean_shift_binary_stream(seed=1, segment_length=3_000)
        values = np.asarray(stream.values, dtype=float)
        scalar = ablations._FixedSplitOptwin(rho=0.5)
        outcomes = [scalar.update(value) for value in values]
        batch = ablations._FixedSplitOptwin(rho=0.5).update_batch(values)
        drifts = [i for i, outcome in enumerate(outcomes) if outcome.drift_detected]
        warnings = [i for i, o in enumerate(outcomes) if o.warning_detected]
        assert drifts and drifts == list(batch.drift_indices)
        assert warnings == list(batch.warning_indices)
        # The variant reads its own 50/50 table; the shared table is untouched.
        assert scalar._cut_table.n_hist[1_001] == 500
        assert Optwin(rho=0.5)._cut_table is not scalar._cut_table

    def test_rho_sensitivity_orders_delay(self):
        summaries = ablations.run_rho_sensitivity(
            rhos=[0.1, 1.0], n_repetitions=2, segment_length=1_500
        )
        delay_small_rho = summaries["OPTWIN rho=0.1"].aggregate.mean_delay
        delay_large_rho = summaries["OPTWIN rho=1.0"].aggregate.mean_delay
        assert delay_large_rho <= delay_small_rho

    def test_magnitude_gate_reduces_false_positives(self):
        summaries = ablations.run_magnitude_gate_ablation(
            n_repetitions=3, segment_length=2_500
        )
        gated = summaries["OPTWIN (with magnitude gate)"]
        ungated = summaries["OPTWIN (significance only)"]
        assert gated.mean_false_positives <= ungated.mean_false_positives

    def test_runtime_measurements(self):
        measurements = runtime.run_runtime_comparison(stream_lengths=(1_000,), seed=1)
        names = {m.detector_name for m in measurements}
        assert {
            "OPTWIN rho=0.5",
            "ADWIN",
            "DDM",
            "EDDM",
            "STEPD",
            "ECDD",
            "Page-Hinkley",
            "KSWIN",
            "RDDM",
            "HDDM-A",
        } == names
        assert all(m.seconds_per_element > 0 for m in measurements)
        # Every detector in the line-up now has a vectorised fast path and is
        # measured in both modes.
        modes = {(m.detector_name, m.mode) for m in measurements}
        for name in names:
            assert (name, "scalar") in modes
            assert (name, "batch") in modes

    def test_runtime_measurements_scalar_only(self):
        measurements = runtime.run_runtime_comparison(
            stream_lengths=(1_000,), seed=1, include_batch=False
        )
        assert all(m.mode == "scalar" for m in measurements)


class TestSignificanceDriver:
    def test_collect_and_compare(self):
        scores = significance.collect_f1_scores(
            n_repetitions=4, segment_length=900, w_max=5_000
        )
        assert any(name.startswith("OPTWIN") for name in scores)
        comparisons = significance.run_significance_analysis(scores)
        assert comparisons
        for comparison in comparisons:
            assert comparison.detector_a.startswith("OPTWIN")
            assert comparison.detector_b in ("ADWIN", "STEPD")
