"""Unit tests for :mod:`repro.stats.incremental`."""

import numpy as np
import pytest

from repro.exceptions import NotEnoughDataError
from repro.stats.incremental import PrefixStats


class TestPrefixStats:
    def test_range_statistics_match_numpy(self, rng):
        values = rng.random(200).tolist()
        prefix = PrefixStats()
        for value in values:
            prefix.append(value)
        assert len(prefix) == 200
        assert prefix.mean(0, 200) == pytest.approx(np.mean(values))
        assert prefix.variance(50, 150) == pytest.approx(
            np.var(values[50:150], ddof=1)
        )
        assert prefix.std(10, 60) == pytest.approx(np.std(values[10:60], ddof=1))
        assert prefix.range_sum(5, 15) == pytest.approx(sum(values[5:15]))

    def test_popleft_shifts_window(self):
        prefix = PrefixStats()
        for value in [1.0, 2.0, 3.0, 4.0]:
            prefix.append(value)
        assert prefix.popleft() == 1.0
        assert len(prefix) == 3
        assert prefix.to_list() == [2.0, 3.0, 4.0]
        assert prefix.mean(0, 3) == pytest.approx(3.0)
        assert prefix.value_at(0) == 2.0

    def test_popleft_empty_raises(self):
        prefix = PrefixStats()
        with pytest.raises(NotEnoughDataError):
            prefix.popleft()

    def test_invalid_range_raises(self):
        prefix = PrefixStats()
        prefix.append(1.0)
        with pytest.raises(IndexError):
            prefix.range_sum(0, 2)
        with pytest.raises(IndexError):
            prefix.value_at(5)

    def test_empty_range_statistics(self):
        prefix = PrefixStats()
        prefix.append(1.0)
        assert prefix.mean(0, 0) == 0.0
        assert prefix.variance(0, 1) == 0.0

    def test_compaction_preserves_values(self):
        prefix = PrefixStats()
        threshold = PrefixStats._COMPACT_THRESHOLD
        for value in range(threshold + 100):
            prefix.append(float(value))
        for _ in range(threshold + 10):
            prefix.popleft()
        expected = [float(v) for v in range(threshold + 10, threshold + 100)]
        assert prefix.to_list() == expected
        assert prefix.mean(0, len(expected)) == pytest.approx(np.mean(expected))

    def test_clear(self):
        prefix = PrefixStats()
        prefix.append(1.0)
        prefix.clear()
        assert len(prefix) == 0

    def test_append_many_matches_scalar_appends_bitwise(self, rng):
        values = rng.random(1_000)
        scalar = PrefixStats()
        for value in values:
            scalar.append(float(value))
        batched = PrefixStats()
        batched.append_many(values[:137])
        batched.append_many(values[137:560])
        for value in values[560:700]:
            batched.append(float(value))
        batched.append_many(values[700:])
        assert len(batched) == len(scalar)
        # Bit-identical, not approximately equal: the batched cumulative sum
        # must perform the same addition sequence as scalar appends.
        for start, stop in [(0, 1000), (3, 997), (400, 600), (999, 1000)]:
            assert batched.range_sum(start, stop) == scalar.range_sum(start, stop)
            assert batched.range_sum_sq(start, stop) == scalar.range_sum_sq(
                start, stop
            )

    def test_append_many_empty_chunk(self):
        prefix = PrefixStats()
        prefix.append_many(np.empty(0))
        assert len(prefix) == 0
        prefix.append(1.0)
        prefix.append_many(np.empty(0))
        assert prefix.to_list() == [1.0]

    def test_popleft_many_matches_repeated_popleft(self):
        threshold = PrefixStats._COMPACT_THRESHOLD
        values = np.arange(threshold + 500, dtype=np.float64)
        one_by_one = PrefixStats()
        one_by_one.append_many(values)
        many = PrefixStats()
        many.append_many(values)
        for _ in range(threshold + 123):
            one_by_one.popleft()
        many.popleft_many(threshold + 123)  # crosses the compaction point
        assert many.to_list() == one_by_one.to_list()
        assert many.range_sum(0, len(many)) == one_by_one.range_sum(
            0, len(one_by_one)
        )
        assert many.dead_prefix == one_by_one.dead_prefix

    def test_popleft_many_validates(self):
        prefix = PrefixStats()
        prefix.append(1.0)
        with pytest.raises(NotEnoughDataError):
            prefix.popleft_many(2)
        with pytest.raises(NotEnoughDataError):
            prefix.popleft_many(-1)

    def test_truncate_last(self):
        prefix = PrefixStats()
        prefix.append_many(np.asarray([1.0, 2.0, 3.0, 4.0, 5.0]))
        prefix.truncate_last(2)
        assert prefix.to_list() == [1.0, 2.0, 3.0]
        assert prefix.range_sum(0, 3) == 6.0
        # Appending after a truncation continues from the surviving prefix.
        prefix.append(10.0)
        assert prefix.to_list() == [1.0, 2.0, 3.0, 10.0]
        assert prefix.range_sum(0, 4) == 16.0
        with pytest.raises(NotEnoughDataError):
            prefix.truncate_last(9)

    def test_compact_rebases_instead_of_recomputing(self, rng):
        threshold = PrefixStats._COMPACT_THRESHOLD
        values = rng.random(threshold + 200)
        prefix = PrefixStats()
        prefix.append_many(values)
        prefix.popleft_many(threshold)  # triggers the slice-and-rebase compact
        assert prefix.dead_prefix == 0
        remaining = values[threshold:]
        assert prefix.mean(0, len(remaining)) == pytest.approx(np.mean(remaining))
        assert prefix.variance(0, len(remaining)) == pytest.approx(
            np.var(remaining, ddof=1)
        )

    def test_raw_arrays_views(self):
        prefix = PrefixStats()
        prefix.append_many(np.asarray([1.0, 2.0, 3.0]))
        prefix.popleft()
        prefix_sums, prefix_sq, offset, end = prefix.raw_arrays()
        assert end - offset == 2
        assert prefix_sums[end] - prefix_sums[offset] == pytest.approx(5.0)
        assert prefix_sq[end] - prefix_sq[offset] == pytest.approx(13.0)

    def test_to_array(self):
        prefix = PrefixStats()
        prefix.append_many(np.asarray([1.0, 2.0, 3.0]))
        prefix.popleft()
        np.testing.assert_array_equal(prefix.to_array(), [2.0, 3.0])

    def test_capacity_growth_preserves_contents(self):
        prefix = PrefixStats(capacity=4)
        values = [float(v) for v in range(1_000)]
        for value in values[:500]:
            prefix.append(value)
        prefix.append_many(np.asarray(values[500:]))
        assert prefix.to_list() == values
        assert prefix.range_sum(0, 1_000) == pytest.approx(sum(values))
