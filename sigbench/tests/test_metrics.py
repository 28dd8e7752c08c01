"""Metric arithmetic: the tail-percentile rule and how failed ops count."""

import statistics

import pytest

from metrics import OpRecord, best_ops_per_s, summarize, tail


def test_tail_omitted_below_twenty_ops():
    assert tail([1.0] * 19) is None
    assert "op_tail_s" not in summarize([OpRecord(1.0)] * 19, 19.0)


def test_tail_at_twenty_ops_is_the_median_rung():
    times = [float(i) for i in range(1, 21)]
    assert tail(times) == (50.0, 10.0, 10)


@pytest.mark.parametrize("n, percentile, beyond", [
    (20, 50.0, 10), (39, 50.0, 19), (40, 75.0, 10), (99, 80.0, 19),
    (100, 90.0, 10), (199, 90.0, 19), (200, 95.0, 10), (1000, 99.0, 10),
    (10_000, 99.9, 10),
])
def test_tail_is_highest_rung_with_ten_ops_beyond(n, percentile, beyond):
    times = [float(i) for i in range(n)]
    got_percentile, value, got_beyond = tail(times)
    assert (got_percentile, got_beyond) == (percentile, beyond)
    assert sum(1 for t in times if t > value) == beyond >= 10


def test_tail_value_is_nearest_rank_of_unsorted_input():
    times = [float(i) for i in range(100)][::-1]
    assert tail(times) == (90.0, 89.0, 10)


def test_failed_op_counts_in_p50_at_its_time_to_failure():
    records = [OpRecord(1.0), OpRecord(2.0), OpRecord(9.0, "RankDeficient")]
    out = summarize(records, 12.0)
    assert out["op_p50_s"] == statistics.median([1.0, 2.0, 9.0]) == 2.0
    records = [OpRecord(1.0), OpRecord(7.0, "BudgetExhausted"), OpRecord(9.0, "RankDeficient")]
    assert summarize(records, 17.0)["op_p50_s"] == 7.0


def test_failed_op_counts_in_failed_frac_with_its_type():
    records = [OpRecord(1.0), OpRecord(1.0, "RankDeficient"),
               OpRecord(1.0, "BudgetExhausted"), OpRecord(1.0, "RankDeficient")]
    out = summarize(records, 4.0)
    assert out["attempted"] == 4 and out["failed"] == 3
    assert out["failed_frac"] == 0.75
    assert out["failures_by_type"] == {"BudgetExhausted": 1, "RankDeficient": 2}


def test_failed_op_never_counts_in_ops_per_s():
    ok_only = summarize([OpRecord(1.0)] * 4, 10.0)["ops_per_s"]
    with_failures = summarize([OpRecord(1.0)] * 4 + [OpRecord(0.01, "exit 3")] * 6, 10.0)
    assert ok_only == with_failures["ops_per_s"] == 0.4
    assert summarize([OpRecord(1.0, "exit 3")], 1.0)["ops_per_s"] == 0.0


def test_best_ops_per_s_takes_each_position_at_its_fastest_repeat():
    records = [OpRecord(2.0, position=0), OpRecord(3.0, position=1),
               OpRecord(1.0, position=0), OpRecord(5.0, position=1)]
    assert best_ops_per_s(records) == 2 / (1.0 + 3.0)
    assert summarize(records, 11.0)["best_ops_per_s"] == 0.5


def test_failed_position_costs_its_time_and_counts_no_op_in_best_ops_per_s():
    records = [OpRecord(1.0, position=0), OpRecord(4.0, "RankDeficient", position=1),
               OpRecord(1.0, position=0), OpRecord(3.0, "RankDeficient", position=1)]
    assert best_ops_per_s(records) == 1 / (1.0 + 3.0)
    flaky = [OpRecord(1.0, position=0), OpRecord(1.0, "exit 1", position=0)]
    assert best_ops_per_s(flaky) == 0.0


def test_retries_are_reported_but_do_not_fail_the_op():
    out = summarize([OpRecord(3.0, None, ["RankDeficient", "RankDeficient"])], 3.0)
    assert out["failed"] == 0 and out["ops_per_s"] == pytest.approx(1 / 3)
    assert out["retries_by_type"] == {"RankDeficient": 2}


def test_no_ops_is_an_error():
    with pytest.raises(ValueError):
        summarize([], 1.0)
