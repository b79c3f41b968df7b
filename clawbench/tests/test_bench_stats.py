from fractions import Fraction

import stats


def test_failed_ops_rank_after_every_success():
    samples = [(0.5, True), (0.001, False), (0.2, True), (0.002, False), (0.9, True)]
    ranked = stats.rank(samples)
    assert ranked == [(0.2, True), (0.5, True), (0.9, True), (0.001, False), (0.002, False)]
    assert stats.percentile(ranked, 50) == (0.9, True)
    # Failures tie: a rank among them reads their median latency.
    assert stats.percentile(ranked, 100) == (0.001, False)
    assert stats.percentile(ranked, 80) == (0.001, False)


def test_tail_uses_highest_percentile_with_ten_samples_beyond():
    ranked = stats.rank([(i / 1000, True) for i in range(1, 201)])
    t = stats.tail(ranked)
    assert t["percentile"] == 95.0 and t["beyond"] == 10 and t["value"] == 0.19
    # Failures land in the tail even though they were fast.
    fast_failures = [(0.0001 * i, False) for i in range(1, 21)]
    ranked = stats.rank([(i / 1000, True) for i in range(1, 181)] + fast_failures)
    t = stats.tail(ranked)
    assert t["percentile"] == 95.0 and t["ok"] is False and t["value"] == 0.001


def test_tail_falls_back_to_the_median_on_few_samples():
    ranked = stats.rank([(float(i), True) for i in range(1, 13)])
    t = stats.tail(ranked)
    assert t["percentile"] == 50.0 and t["value"] == 6.0 and t["beyond"] == 6 and t["samples"] == 12


def test_geometric_mean_is_exact_on_large_rationals():
    big = Fraction(3 ** 400, 2 ** 600)
    assert abs(stats.geometric_mean([big, 1 / big]) - 1.0) < 1e-12
    assert abs(stats.geometric_mean([Fraction(2), Fraction(8)]) - 4.0) < 1e-12
    assert stats.geometric_mean([]) is None
