from fractions import Fraction

import pytest

from cubeprob import (
    BlockAggregates,
    BoundTuple,
    Bucket,
    BucketBias,
    BucketQuery,
    InfeasibleError,
    biased_estimate,
    cva_estimate,
    sum_case2,
    sum_case3,
)

F = Fraction


def test_cva_delegates_to_joint_sum_estimate():
    bucket = Bucket(2, 1, 2)
    est = cva_estimate(bucket, BucketQuery(1, touches_low=True))
    assert est.mean == 1
    assert est == sum_case2(BlockAggregates(2, 1, 2, 1))


def test_cva_full_bucket_is_exact():
    est = cva_estimate(Bucket(3, 2, 7), BucketQuery(3, touches_low=True, touches_high=True), want_pmf=True)
    assert est.mean == 7 and est.variance == 0 and est.max_error == 0
    assert est.pmf.support == ((7, F(1)),)


@pytest.mark.parametrize("bias", [BucketBias.LOW, BucketBias.BOTH], ids=["low", "both"])
def test_biased_full_bucket_is_exact(bias):
    query = BucketQuery(3, touches_low=True, touches_high=True)
    est = biased_estimate(Bucket(3, 2, 7, bias), query, want_pmf=True)
    assert est.mean == 7 and est.variance == 0 and est.max_error == 0
    assert est.pmf.support == ((7, F(1)),)


def test_cva_empty_bucket():
    est = cva_estimate(Bucket(4, 0, 0), BucketQuery(2, touches_low=True))
    assert est.mean == 0 and est.variance == 0


def test_two_sided_bucket_query_at_low_extreme():
    bucket = Bucket(3, 2, 3, BucketBias.BOTH)
    est = biased_estimate(bucket, BucketQuery(1, touches_low=True), want_pmf=True)
    assert est.mean == F(3, 2)
    assert est.variance == F(1, 4)
    assert est.pmf.support == ((1, F(1, 2)), (2, F(1, 2)))


def test_low_biased_query_covering_the_extreme():
    bucket = Bucket(2, 1, 2, BucketBias.LOW)
    est = biased_estimate(bucket, BucketQuery(1, touches_low=True))
    assert est.mean == 2
    assert est.variance == 0


def test_low_biased_interior_query_mean():
    b, t, s, b_in = 6, 3, 9, 2
    bucket = Bucket(b, t, s, BucketBias.LOW)
    est = biased_estimate(bucket, BucketQuery(b_in))
    assert est.mean == b_in * F(s, t) * F(t - 1, b - 1)


def test_high_bias_mirrors_low_bias():
    low = Bucket(5, 3, 8, BucketBias.LOW)
    high = Bucket(5, 3, 8, BucketBias.HIGH)
    assert biased_estimate(high, BucketQuery(2, touches_high=True)) == biased_estimate(
        low, BucketQuery(2, touches_low=True)
    )
    assert biased_estimate(high, BucketQuery(2)) == biased_estimate(low, BucketQuery(2))


def test_dense_bucket_biased_and_cva_means_coincide():
    bucket_plain = Bucket(4, 4, 9)
    bucket_biased = Bucket(4, 4, 9, BucketBias.BOTH)
    q = BucketQuery(2, touches_low=True)
    assert cva_estimate(bucket_plain, q).mean == F(2 * 9, 4)
    assert biased_estimate(bucket_biased, q).mean == F(2 * 9, 4)


@pytest.mark.parametrize(
    "bias,touches,bounds",
    [
        (BucketBias.LOW, (True, False), (1, 1)),
        (BucketBias.LOW, (False, False), (0, 1)),
        (BucketBias.BOTH, (True, False), (1, 2)),
        (BucketBias.BOTH, (False, False), (0, 2)),
    ],
)
def test_bias_cases_map_onto_constrained_estimator(bias, touches, bounds):
    b, t, s, b_in = 6, 4, 9, 3
    t_lo_in, t_lo_blk = bounds
    bucket = Bucket(b, t, s, bias)
    q = BucketQuery(b_in, touches_low=touches[0], touches_high=touches[1])
    bt = BoundTuple(t_lo_in, b_in, t_lo_blk, b, b_in, b)
    assert biased_estimate(bucket, q, want_pmf=True) == sum_case3(bt, t, s, want_pmf=True)


def test_biased_estimate_needs_bias():
    with pytest.raises(InfeasibleError):
        biased_estimate(Bucket(4, 2, 5), BucketQuery(2, touches_low=True))


def test_bucket_validation():
    with pytest.raises(InfeasibleError):
        Bucket(4, 0, 0, BucketBias.LOW)  # biased buckets hold a non-null extreme
    with pytest.raises(InfeasibleError):
        Bucket(4, 1, 3, BucketBias.BOTH)  # two extremes need two non-nulls
    with pytest.raises(InfeasibleError):
        Bucket(4, 5, 5)


def test_query_flag_consistency():
    bucket = Bucket(4, 2, 5, BucketBias.LOW)
    with pytest.raises(InfeasibleError):
        biased_estimate(bucket, BucketQuery(4, touches_low=True, touches_high=False))
    with pytest.raises(InfeasibleError):
        biased_estimate(bucket, BucketQuery(2, touches_low=True, touches_high=True))
    with pytest.raises(InfeasibleError):
        biased_estimate(bucket, BucketQuery(0))
