"""Unit tests for the cut table (:mod:`repro.core.ppf_tables`).

Every entry must be bit-equal to an unhinted :func:`optimal_split` of its
length and to the warning-confidence F/t PPFs of that split, whatever order
the table was grown in.
"""

import gc
import sys
import threading

import numpy as np
import pytest

from repro.core.optimal_cut import optimal_split
from repro.core.ppf_tables import CutTable, get_cut_table
from repro.exceptions import ConfigurationError
from repro.stats.distributions import f_ppf, t_ppf

CONFIDENCE = 0.99 ** 0.25
WARNING_CONFIDENCE = (0.96 * 0.99) ** 0.25
ARRAYS = ("n_hist", "f_critical", "t_critical", "f_warning", "t_warning")


def _assert_entries_match(table, lengths):
    for length in lengths:
        spec = optimal_split(length, table.rho, table.confidence, hint=None)
        assert table.n_hist[length] == spec.nu_split, length
        assert table.f_critical[length] == spec.f_critical, length
        assert table.t_critical[length] == spec.t_critical, length
        if table.warning_confidence is None:
            assert table.f_warning[length] == 0.0
            assert table.t_warning[length] == 0.0
        else:
            f_warn = f_ppf(table.warning_confidence, spec.n_new - 1, spec.n_hist - 1)
            t_warn = t_ppf(table.warning_confidence, spec.degrees_of_freedom)
            assert table.f_warning[length] == f_warn, length
            assert table.t_warning[length] == t_warn, length


@pytest.mark.parametrize("rho", [0.1, 0.25, 0.5, 0.6, 1.0, 2.0])
def test_every_length_matches_unhinted_search(rho):
    table = get_cut_table(rho, CONFIDENCE, WARNING_CONFIDENCE)
    table.grow(2_000)
    _assert_entries_match(table, range(4, 2_001))


@pytest.mark.parametrize(
    "delta, warning_delta",
    [(0.95, 0.96 * 0.95), (0.99, 0.9), (0.99, 0.0)],
    ids=["delta=0.95", "warning_delta=0.9", "warnings-off"],
)
def test_every_length_matches_for_other_confidences(delta, warning_delta):
    warning = warning_delta ** 0.25 if warning_delta > 0.0 else None
    table = get_cut_table(0.5, delta ** 0.25, warning)
    table.grow(2_000)
    _assert_entries_match(table, range(4, 2_001))


@pytest.mark.parametrize("rho", [0.5, 1.0])
def test_sampled_lengths_match_up_to_25k(rho):
    table = get_cut_table(rho, CONFIDENCE, WARNING_CONFIDENCE)
    table.grow(25_000)
    rng = np.random.default_rng(21)
    lengths = sorted(set(rng.integers(2_001, 25_001, size=150).tolist()) | {25_000})
    _assert_entries_match(table, lengths)


def test_growth_keeps_earlier_entries():
    table = CutTable(0.5, CONFIDENCE, WARNING_CONFIDENCE)
    table.grow(100)
    assert table.max_length == 100
    before = {name: getattr(table, name)[:101].copy() for name in ARRAYS}
    for length in range(101, 300):  # one length at a time, like a scalar window
        table.grow(length)
    table.grow(1_000)
    assert table.max_length == 1_000
    straight = CutTable(0.5, CONFIDENCE, WARNING_CONFIDENCE)
    straight.grow(1_000)
    for name, earlier in before.items():
        assert getattr(table, name)[:101].tobytes() == earlier.tobytes()
        assert (
            getattr(table, name)[:1_001].tobytes()
            == getattr(straight, name)[:1_001].tobytes()
        )
    table.grow(50)  # already covered: nothing changes
    assert table.max_length == 1_000


def test_concurrent_growth_and_reads_see_final_entries():
    reference = get_cut_table(0.5, CONFIDENCE, WARNING_CONFIDENCE)
    reference.grow(1_000)
    table = CutTable(0.5, CONFIDENCE, WARNING_CONFIDENCE)
    done = threading.Event()
    mismatches = []

    def read():
        # Entries up to max_length are final, so a lock-free reader may use them.
        while not done.is_set():
            length = table.max_length
            if length >= 4 and (
                table.n_hist[length] != reference.n_hist[length]
                or table.t_warning[length] != reference.t_warning[length]
            ):
                mismatches.append(length)

    reader = threading.Thread(target=read)
    growers = [
        threading.Thread(target=table.grow, args=(target,))
        for target in (150, 600, 300, 1_000, 450, 800, 20, 999)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reader.start()
        for thread in growers:
            thread.start()
        for thread in growers:
            thread.join(timeout=60)
    finally:
        done.set()
        reader.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in growers + [reader])
    assert mismatches == []
    assert table.max_length == 1_000
    for name in ARRAYS:
        assert (
            getattr(table, name)[:1_001].tobytes()
            == getattr(reference, name)[:1_001].tobytes()
        )


def test_one_configuration_shares_one_table():
    first = get_cut_table(0.5, CONFIDENCE, WARNING_CONFIDENCE)
    assert get_cut_table(0.5, CONFIDENCE, WARNING_CONFIDENCE) is first
    assert get_cut_table(1.0, CONFIDENCE, WARNING_CONFIDENCE) is not first
    assert get_cut_table(0.5, CONFIDENCE, None) is not first


def test_length_below_four_raises():
    table = CutTable(0.5, CONFIDENCE, WARNING_CONFIDENCE)
    with pytest.raises(ConfigurationError):
        table.grow(3)


def test_building_a_table_leaves_no_tracked_objects():
    # The arrays are not tracked by the collector; nothing per length may be.
    table = CutTable(0.75, CONFIDENCE, WARNING_CONFIDENCE)
    gc.collect()
    before = len(gc.get_objects())
    table.grow(2_000)
    gc.collect()
    assert len(gc.get_objects()) - before < 100


def test_nu_split_monotone_trend():
    # As the window grows the optimal historical share should not shrink by
    # more than a couple of elements (it is essentially non-decreasing).
    table = get_cut_table(0.5, CONFIDENCE, WARNING_CONFIDENCE)
    table.grow(400)
    steps = np.diff(table.n_hist[200:401])
    assert steps.min() >= -2
