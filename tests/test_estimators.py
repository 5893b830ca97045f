import hashlib
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cubeprob import (
    BlockAggregates,
    BoundTuple,
    ConstraintError,
    InfeasibleError,
    JointPmf,
    Pmf,
    PmfBudgetError,
    binom,
    compositions_count,
    count_case1,
    count_case2,
    count_case3,
    joint_case2,
    joint_case3,
    n_config_count,
    q_config_count,
    sum_case1,
    sum_case2,
    sum_case3,
)
from cubeprob.estimators import (
    _LAWS,
    Estimate,
    _binomials,
    _convolve,
    _count_ends,
    _count_kernel,
    _count_weights,
    _error,
    _joint_rows,
    _joint_weights,
    _placements,
    _shifted_coordinates,
    _sum_case1_kernel,
    _sum_case1_weights,
    _sum_kernel,
    _sum_weights,
)

from conftest import region_error_reference

F = Fraction


# ---------------------------------------------------------------------------
# Combinatorics kernel.
# ---------------------------------------------------------------------------


def test_binom_basics():
    assert binom(4, 2) == 6
    assert binom(0, 0) == 1
    assert all(binom(n, 0) == 1 for n in range(10))
    assert binom(5, -1) == 0
    assert binom(5, 6) == 0
    assert binom(-1, 0) == 0


def test_compositions_count_edges():
    assert compositions_count(0, 0) == 1
    assert compositions_count(0, 3) == 0
    assert compositions_count(3, 0) == 1
    assert compositions_count(4, 2) == binom(5, 2)


def brute_q(x, y, z):
    return sum(
        1
        for vec in product(range(z + 1), repeat=x)
        if sum(vec) == z and sum(1 for v in vec if v) == y
    )


def test_q_config_count_examples():
    assert q_config_count(7, 0, 0) == 1
    assert q_config_count(2, 1, 2) == 2
    assert q_config_count(2, 3, 5) == 0


@pytest.mark.parametrize("x", range(0, 5))
def test_q_config_count_brute_force(x):
    for y in range(0, x + 2):
        for z in range(0, 6):
            assert q_config_count(x, y, z) == brute_q(x, y, z), (x, y, z)


def brute_n(t_hi, t, s, t_lo):
    # the t_lo located non-nulls sit (wlog) at the first positions
    total = 0
    for vec in product(range(s + 1), repeat=t_hi):
        if sum(vec) != s:
            continue
        if sum(1 for v in vec if v) != t:
            continue
        if any(vec[i] == 0 for i in range(t_lo)):
            continue
        total += 1
    return total


def test_n_config_count_examples():
    assert n_config_count(3, 2, 3, 1) == 4
    assert n_config_count(9, 0, 0, 0) == 1
    assert n_config_count(2, 3, 3, 0) == 0
    assert n_config_count(3, 0, 0, 1) == 0  # located non-null contradicts t=0


@pytest.mark.parametrize("t_hi", range(0, 5))
def test_n_config_count_brute_force(t_hi):
    for t_lo in range(0, t_hi + 1):
        for t in range(0, t_hi + 1):
            for s in range(0, 6):
                assert n_config_count(t_hi, t, s, t_lo) == brute_n(t_hi, t, s, t_lo)


# ---------------------------------------------------------------------------
# Case 1.
# ---------------------------------------------------------------------------


def test_count_case1_worked_example():
    est = count_case1(BlockAggregates(4, 2, 2, 2), want_pmf=True)
    assert est.pmf.support == ((0, F(1, 6)), (1, F(2, 3)), (2, F(1, 6)))
    assert est.mean == 1
    assert est.variance == F(1, 3)
    assert est.max_error == 1


def test_count_case1_empty_block():
    est = count_case1(BlockAggregates(5, 0, 0, 2), want_pmf=True)
    assert est.pmf == Pmf.point(0)
    assert (est.mean, est.variance, est.max_error) == (0, 0, 0)


def test_count_case1_full_block():
    est = count_case1(BlockAggregates(5, 5, 5, 2), want_pmf=True)
    assert est.pmf == Pmf.point(2)
    assert est.variance == 0 and est.max_error == 0


def test_count_case1_variance_symmetries():
    for b, t, b_in in [(10, 3, 4), (7, 2, 5)]:
        v = count_case1(BlockAggregates(b, t, t, b_in)).variance
        assert v == count_case1(BlockAggregates(b, b - t, b - t, b_in)).variance
        assert v == count_case1(BlockAggregates(b, t, t, b - b_in)).variance


def test_sum_case1_worked_example():
    est = sum_case1(BlockAggregates(2, 1, 2, 1), want_pmf=True)
    assert est.pmf.support == ((0, F(1, 3)), (1, F(1, 3)), (2, F(1, 3)))
    assert est.mean == 1
    assert est.variance == F(2, 3)
    assert est.max_error == 1


def test_sum_case1_zero_sum():
    est = sum_case1(BlockAggregates(4, 0, 0, 2), want_pmf=True)
    assert est.pmf == Pmf.point(0)
    assert est.mean == 0 and est.variance == 0


def test_sum_case1_large_block_mean():
    est = sum_case1(BlockAggregates(1000, 1000, 1000, 500))
    assert est.mean == 500


def test_sum_case1_variance_increases_with_sum():
    last = F(-1)
    for s in range(0, 30):
        v = sum_case1(BlockAggregates(10, min(s, 10), s, 5)).variance
        assert v > last
        last = v


# ---------------------------------------------------------------------------
# Case 2.
# ---------------------------------------------------------------------------


def test_joint_case2_worked_example():
    j = joint_case2(BlockAggregates(2, 1, 2, 1))
    assert j.support == (((0, 0), F(1, 2)), ((1, 2), F(1, 2)))


def test_joint_case2_all_ones_block():
    j = joint_case2(BlockAggregates(5, 5, 5, 3))
    assert j.support == (((3, 3), F(1)),)


def test_joint_case2_count_marginal_matches_case1():
    agg = BlockAggregates(4, 2, 7, 2)
    assert joint_case2(agg).marginal_count() == count_case1(agg, want_pmf=True).pmf


def test_count_case2_equals_case1():
    agg = BlockAggregates(5, 3, 9, 2)
    assert count_case2(agg, want_pmf=True) == count_case1(agg, want_pmf=True)


def test_count_case2_ignores_sum():
    est = count_case2(BlockAggregates(2, 1, 99, 1), want_pmf=True)
    assert est.pmf.support == ((0, F(1, 2)), (1, F(1, 2)))


def test_sum_case2_worked_examples():
    est = sum_case2(BlockAggregates(2, 1, 2, 1))
    assert (est.mean, est.variance, est.max_error) == (1, 1, 1)
    assert sum_case2(BlockAggregates(2, 2, 2, 1)).variance == 0


def test_sum_case2_all_ones_matches_count_variance():
    agg = BlockAggregates(6, 4, 4, 2)
    assert sum_case2(agg).variance == count_case1(agg).variance


def test_sum_case2_variance_decreases_in_t():
    b, s, b_in = 10, 20, 5
    values = [sum_case2(BlockAggregates(b, t, s, b_in)).variance for t in range(1, b + 1)]
    assert all(a >= b2 for a, b2 in zip(values, values[1:]))
    assert values[0] > values[-1]


def test_sum_case2_pmf_moments_match_closed_form():
    agg = BlockAggregates(5, 2, 6, 2)
    est = sum_case2(agg, want_pmf=True)
    assert est.pmf.mean() == est.mean
    assert est.pmf.variance() == est.variance


# ---------------------------------------------------------------------------
# Case 3.
# ---------------------------------------------------------------------------


def test_joint_case3_worked_example():
    bt = BoundTuple(1, 1, 1, 3, 1, 3)
    j = joint_case3(bt, 2, 3)
    assert j.support == (((1, 1), F(1, 2)), ((1, 2), F(1, 2)))


def test_joint_case3_trivial_bounds_reduce_to_case2():
    for b, t, s, b_in in [(4, 2, 5, 2), (5, 3, 3, 1), (3, 1, 4, 2)]:
        agg = BlockAggregates(b, t, s, b_in)
        assert joint_case3(BoundTuple.trivial(b_in, b), t, s) == joint_case2(agg)


def test_joint_case3_located_count_is_deterministic():
    # every cell located: 2 non-nulls fixed, one of them inside the query
    bt = BoundTuple(1, 1, 2, 2, 1, 2)
    j = joint_case3(bt, 2, 3)
    assert j.marginal_count() == Pmf.point(1)


def test_count_case3_worked_example():
    est = count_case3(BoundTuple(1, 1, 1, 3, 1, 3), 2, want_pmf=True)
    assert est.mean == 1 and est.variance == 0
    assert est.pmf == Pmf.point(1)


def test_count_case3_trivial_bounds_match_case1():
    agg = BlockAggregates(4, 2, 2, 2)
    est3 = count_case3(BoundTuple.trivial(2, 4), 2, want_pmf=True)
    est1 = count_case1(agg, want_pmf=True)
    assert est3 == est1


def test_count_case3_fully_located():
    est = count_case3(BoundTuple(1, 1, 2, 2, 1, 2), 2, want_pmf=True)
    assert est.pmf == Pmf.point(1)
    assert est.variance == 0 and est.max_error == 0


def test_sum_case3_worked_example():
    est = sum_case3(BoundTuple(1, 1, 1, 3, 1, 3), 2, 3, want_pmf=True)
    assert est.mean == F(3, 2)
    assert est.variance == F(1, 4)
    assert est.pmf.support == ((1, F(1, 2)), (2, F(1, 2)))


def test_sum_case3_fully_located_degenerate_branch():
    # both cells of a 2-cell block are non-null; query covers one of them
    est = sum_case3(BoundTuple(1, 1, 2, 2, 1, 2), 2, 3, want_pmf=True)
    assert est.mean == F(3, 2)
    assert est.variance == F(1, 4)
    assert est.pmf.support == ((1, F(1, 2)), (2, F(1, 2)))


def test_sum_case3_mean_without_nonnull_bounds_ignores_t():
    # only null-location knowledge: the mean depends on the upper bounds alone
    bt = BoundTuple(0, 2, 0, 5, 3, 6)
    means = {sum_case3(bt, t, 7).mean for t in range(1, 6)}
    assert means == {F(2 * 7, 5)}


def test_case3_infeasible_inputs():
    with pytest.raises(InfeasibleError):
        joint_case3(BoundTuple(1, 1, 2, 2, 1, 2), 1, 3)  # t below the lower bound
    with pytest.raises(InfeasibleError):
        count_case3(BoundTuple(0, 1, 0, 1, 1, 2), 2, False)  # t above the upper bound
    with pytest.raises(InfeasibleError):
        sum_case3(BoundTuple(0, 1, 0, 2, 1, 2), 2, 1, False)  # s below t


def test_block_aggregates_validation():
    with pytest.raises(InfeasibleError):
        BlockAggregates(4, 5, 5, 2)  # t > b
    with pytest.raises(InfeasibleError):
        BlockAggregates(4, 2, 1, 2)  # s < t
    with pytest.raises(InfeasibleError):
        BlockAggregates(4, 0, 3, 2)  # positive sum with no non-nulls
    with pytest.raises(InfeasibleError):
        BlockAggregates(4, 2, 2, 4)  # full-block query
    with pytest.raises(InfeasibleError):
        BlockAggregates(4, 2, 2, 0)


# ---------------------------------------------------------------------------
# Pmf container and budgets.
# ---------------------------------------------------------------------------


def test_an_estimate_of_other_numbers_holds_fractions():
    est = Estimate(3, 2, 1)
    assert (est.mean, est.variance, est.max_error) == (3, 2, 1)
    assert all(type(x) is Fraction for x in (est.mean, est.variance, est.max_error))
    assert type(Estimate(F(1, 2), 0.25, F(1)).variance) is Fraction
    with pytest.raises(ValueError, match="negative variance"):
        Estimate(F(1), F(-1, 3), F(0))
    with pytest.raises(ValueError, match="negative variance"):
        Estimate(1, -1, 0)
    with pytest.raises(ValueError, match="negative max error"):
        Estimate(1, 0, -1)


def test_pmf_must_normalize():
    with pytest.raises(ValueError):
        Pmf(((0, F(1, 2)),))
    with pytest.raises(ValueError):
        Pmf(((1, F(1, 2)), (0, F(1, 2))))  # out of order


def test_pmf_budget_refusal():
    big = BlockAggregates(20001, 3, 3, 10)
    with pytest.raises(PmfBudgetError):
        count_case1(big, want_pmf=True)
    assert count_case1(big).mean == F(10 * 3, 20001)
    assert count_case1(big, want_pmf=True, pmf_budget=None).pmf is not None


def test_count_pmf_ignores_sum_budget():
    # the count law does not depend on s, so only the block size is budgeted
    agg = BlockAggregates(10, 3, 20001, 4)
    expected = count_case3(BoundTuple.trivial(4, 10), 3, want_pmf=True)
    assert len(expected.pmf.support) == 4
    assert count_case1(agg, want_pmf=True) == expected
    assert count_case2(agg, want_pmf=True) == expected


def test_prob_looks_up_the_support():
    pmf = Pmf(((-2, F(1, 4)), (1, F(1, 2)), (5, F(1, 4))))
    assert [pmf.prob(v) for v in (-3, -2, 0, 1, 2, 5, 6)] == [0, F(1, 4), 0, F(1, 2), 0, F(1, 4), 0]
    j = joint_case3(BoundTuple(1, 1, 1, 3, 1, 3), 2, 3)
    keys = ((0, 0), (1, 0), (1, 1), (1, 2), (1, 3), (2, 1))
    assert [j.prob(*k) for k in keys] == [0, 0, F(1, 2), F(1, 2), 0, 0]


@pytest.mark.parametrize("make", [Pmf, JointPmf], ids=["pmf", "joint"])
@pytest.mark.parametrize(
    "probs, keys, match",
    [
        ((F(0), F(1)), (0, 1), "positive"),
        ((F(-1, 2), F(3, 2)), (0, 1), "positive"),
        ((F(1, 2), F(1, 2) + F(1, 10**40)), (0, 1), "exactly 1"),
        ((F(1, 2), F(1, 2) - F(1, 10**40)), (0, 1), "exactly 1"),
        ((F(1, 2), F(1, 2)), (1, 0), "increase"),
        ((F(1, 2), F(1, 2)), (1, 1), "increase"),
        ((0.1, 0.2, 0.7), (0, 1, 2), "exactly 1"),
        ((0.1, 0.9), (0, 1), "exactly 1"),
        ((F(1, 2), F(1, 2)), (1.5, 2.9), "keys must be integers"),
        ((F(1),), ("3",), "keys must be integers"),
    ],
    ids=[
        "zero", "negative", "above-1", "below-1", "decreasing", "repeated", "floats", "float-pair",
        "float-keys", "string-key",
    ],
)
def test_pmf_types_refuse_an_invalid_law(make, probs, keys, match):
    if make is JointPmf:
        keys = [(k, k) for k in keys]
    with pytest.raises(ValueError, match=match):
        make(tuple(zip(keys, probs)))


@pytest.mark.parametrize("key", [(1, 2, 3), 3], ids=["triple", "int"])
def test_joint_pmf_keys_must_be_count_sum_pairs(key):
    with pytest.raises(ValueError, match=r"keys must be \(count, sum\) pairs"):
        JointPmf(((key, 1),))


def test_pmf_types_accept_exact_probabilities_of_any_number_type():
    # binary floats that sum to 1 exactly, ints and Fractions are all exact
    pmf = Pmf(((0, 0.5), (1, 0.25), (2, F(1, 4))))
    assert pmf.support == ((0, F(1, 2)), (1, F(1, 4)), (2, F(1, 4)))
    assert JointPmf((((2, 3), 1),)).support == (((2, 3), F(1)),)


def _fraction_mean(support) -> Fraction:
    return sum((p * v for v, p in support), F(0))


def _fraction_variance(support) -> Fraction:
    mu = _fraction_mean(support)
    return sum((p * v * v for v, p in support), F(0)) - mu * mu


def _fraction_marginal(support, axis: int) -> tuple:
    acc: dict[int, Fraction] = {}
    for key, p in support:
        acc[key[axis]] = acc.get(key[axis], F(0)) + p
    return tuple(sorted(acc.items()))


weight_maps = st.dictionaries(st.integers(-30, 30), st.integers(1, 10**6), min_size=1, max_size=12)
joint_weight_maps = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 30)), st.integers(1, 10**6), min_size=1, max_size=12
)


@settings(deadline=None, max_examples=80)
@given(weight_maps, joint_weight_maps, st.integers(1, 10**12))
def test_integer_weight_laws_agree_with_their_fraction_support(weights, joint_weights, k):
    """Scaled weights give an equal law; the support rebuilds it; the integer
    moments and marginals equal their Fraction sums over the support."""
    pmf, joint = Pmf.from_weights(weights), JointPmf.from_weights(joint_weights)
    for law, raw in ((pmf, weights), (joint, joint_weights)):
        scaled = type(law).from_weights({key: k * w for key, w in raw.items()})
        assert scaled == law and hash(scaled) == hash(law)
        assert type(law)(law.support) == law
        assert sum(p for _, p in law.support) == 1
    assert pmf.mean() == _fraction_mean(pmf.support)
    assert pmf.variance() == _fraction_variance(pmf.support)
    assert pmf.shifted(-7).support == tuple((v - 7, p) for v, p in pmf.support)
    for axis, marginal in enumerate((joint.marginal_count(), joint.marginal_sum())):
        assert marginal.support == _fraction_marginal(joint.support, axis)
        assert marginal.mean() == _fraction_mean(marginal.support)
        assert marginal.variance() == _fraction_variance(marginal.support)


aggregates = st.tuples(st.integers(2, 6), st.integers(0, 6), st.integers(0, 8), st.integers(1, 5)).map(
    lambda raw: (raw[0], min(raw[1], raw[0]), raw[2], min(raw[3], raw[0] - 1))
).filter(lambda raw: raw[1] <= raw[2] <= 8 and (raw[1] > 0 or raw[2] == 0))


@settings(deadline=None, max_examples=80)
@given(aggregates)
def test_pmf_moments_equal_closed_forms(raw):
    b, t, s, b_in = raw
    agg = BlockAggregates(b, t, s, b_in)
    for fn in (count_case1, sum_case1, sum_case2):
        est = fn(agg, want_pmf=True)
        assert est.pmf.mean() == est.mean
        assert est.pmf.variance() == est.variance


def sum_case2_closed_form(b, t, s, b_in):
    """The paper's case-2 sum law: mean, variance and worst-case error.

    Mean (b_in/b)*s as in case 1; variance
    s*b_in*(b-b_in) / (b^2*(b-1)*(t+1)) * [b*(2s - t + 1) - s*(t + 1)];
    at least max(0, t-(b-b_in)) non-nulls (each worth >= 1) sit inside the
    query and at least max(0, t-b_in) outside.
    """
    mean = F(b_in * s, b)
    variance = F(
        s * b_in * (b - b_in) * (b * (2 * s - t + 1) - s * (t + 1)),
        b * b * (b - 1) * (t + 1),
    )
    lo = max(0, t - (b - b_in))
    hi = s - max(0, t - b_in)
    return mean, variance, max(mean - lo, hi - mean)


@st.composite
def large_aggregates(draw):
    b = draw(st.integers(2, 200))
    b_in = draw(st.integers(1, b - 1))
    t = draw(st.integers(0, b))
    s = draw(st.integers(t, 2000)) if t else 0
    return b, t, s, b_in


@settings(deadline=None, max_examples=300)
@given(large_aggregates())
def test_sum_case2_matches_paper_closed_form(raw):
    est = sum_case2(BlockAggregates(*raw))
    assert (est.mean, est.variance, est.max_error) == sum_case2_closed_form(*raw)


def sum_case3_alpha_beta(bt, t, s):
    """Mean and variance from the alpha/beta formula of sum_case3's docstring (n > 1)."""
    l = bt.t_hi_in - bt.t_lo_in
    n = bt.t_hi_blk - bt.t_lo_blk
    m = t - bt.t_lo_blk
    tl_in = bt.t_lo_in
    alpha = F(s * (s + 1), t * (t + 1))
    beta = F(s * (s - t), t * (t + 1))
    mean = tl_in * F(s, t) + l * F(s, t) * F(m, n)
    variance = (
        alpha * l * F(m, n) * (1 + (l - 1) * F(m - 1, n - 1))
        + (beta + 2 * alpha * tl_in) * l * F(m, n)
        + alpha * tl_in * tl_in
        + beta * tl_in
        - mean * mean
    )
    return mean, variance


@st.composite
def constrained_blocks(draw):
    b = draw(st.integers(2, 200))
    b_in = draw(st.integers(1, b - 1))
    tl_in = draw(st.integers(0, b_in))
    th_in = draw(st.integers(tl_in, b_in))
    tl_out = draw(st.integers(0, b - b_in))
    th_out = draw(st.integers(tl_out, b - b_in))
    bt = BoundTuple(tl_in, th_in, tl_in + tl_out, th_in + th_out, b_in, b)
    assume(bt.t_hi_blk - bt.t_lo_blk > 1)
    t = draw(st.integers(max(1, bt.t_lo_blk), bt.t_hi_blk))
    return bt, t, draw(st.integers(t, 2000))


@settings(deadline=None, max_examples=300)
@given(constrained_blocks())
def test_sum_case3_matches_alpha_beta_formula(raw):
    bt, t, s = raw
    est = sum_case3(bt, t, s)
    assert (est.mean, est.variance) == sum_case3_alpha_beta(bt, t, s)


# ---------------------------------------------------------------------------
# Sum laws built on the count draw, against the bound-tuple formulas they replace.
# ---------------------------------------------------------------------------


def sum_case3_by_branches(bt, t, s):
    """Mean, variance and max_error of sum_case3 as three branches on n.

    n > 1 is the law of total variance with d = n; n = 0, and n = 1 with t
    at the lower bound, pin the count inside at t_lo_in; n = 1 with t at the
    upper bound pins it at t_hi_in.  The extremes are read in bound-tuple
    coordinates.
    """
    n, m, l = bt.t_hi_blk - bt.t_lo_blk, t - bt.t_lo_blk, bt.t_hi_in - bt.t_lo_in
    tl_in, tu_in = bt.t_lo_in, bt.t_hi_in
    if t == 0:
        return F(0), F(0), F(0)
    c = tl_in * n + l * m
    mean = F(s * c, t * n) if n else F(s * tl_in, t)
    if n > 1:
        variance = F(
            s * ((s - t) * c * (t * n - c) * (n - 1) + t * (s + 1) * l * m * (n - l) * (n - m)),
            t * t * (t + 1) * n * n * (n - 1),
        )
    elif n == 0 or t == bt.t_lo_blk:
        variance = F(s * tl_in * (t - tl_in) * (s - t), t * t * (t + 1))
    else:
        variance = F(s * tu_in * (t - tu_in) * (s - t), t * t * (t + 1))
    count_lo = max(tl_in, t - bt.t_hi_out)
    count_hi = min(tu_in, t - bt.t_lo_out)
    lo = s if count_lo == t else count_lo
    hi = 0 if count_hi == 0 else s - (t - count_hi)
    return mean, variance, max(mean - lo, hi - mean)


def joint_weights_by_bounds(bt, t, s):
    """(count, sum) weights and their total, looping over bound-tuple counts."""
    tu_in, tl_in, tu_out, tl_out = bt.t_hi_in, bt.t_lo_in, bt.t_hi_out, bt.t_lo_out
    weights = {}
    for k in range(max(tl_in, t - tu_out, 0), min(tu_in, t - tl_out, t) + 1):
        t_out = t - k
        placements = binom(tu_in - tl_in, k - tl_in) * binom(tu_out - tl_out, t_out - tl_out)
        for v in range(k, s - t_out + 1):
            w = placements * compositions_count(k, v - k) * compositions_count(
                t_out, s - v - t_out
            )
            if w:
                weights[(k, v)] = w
    return weights, n_config_count(bt.t_hi_blk, t, s, bt.t_lo_blk)


@st.composite
def located_blocks(draw, max_b=200, max_s=2000):
    """A block split into located and free cells, with t and s it can carry.

    In about half the examples the block keeps n = 0 or 1 free cells and t
    sits at one end of its bounds, where the count inside is pinned down.
    """
    b = draw(st.integers(2, max_b))
    b_in = draw(st.integers(1, b - 1))
    b_out = b - b_in
    if draw(st.booleans()):
        n = draw(st.integers(0, 1))
        free_in = draw(st.integers(max(0, n - b_out), min(n, b_in)))
        free_out = n - free_in
    else:
        free_in, free_out = draw(st.integers(0, b_in)), draw(st.integers(0, b_out))
    tl_in = draw(st.integers(0, b_in - free_in))  # located non-nulls inside
    tl_blk = tl_in + draw(st.integers(0, b_out - free_out))
    bt = BoundTuple(tl_in, tl_in + free_in, tl_blk, tl_blk + free_in + free_out, b_in, b)
    ends = st.sampled_from((bt.t_lo_blk, bt.t_hi_blk))
    t = draw(ends | st.integers(bt.t_lo_blk, bt.t_hi_blk))
    s = draw(st.integers(t, max(t, max_s))) if t else 0
    return bt, t, s


@settings(deadline=None, max_examples=400)
@given(located_blocks())
def test_sum_case3_matches_branch_formulas(raw):
    est = sum_case3(*raw)
    assert (est.mean, est.variance, est.max_error) == sum_case3_by_branches(*raw)


@settings(deadline=None, max_examples=150)
@given(located_blocks(max_b=40, max_s=60))
def test_joint_weights_match_bound_tuple_loop(raw):
    bt, t, s = raw
    draw = _shifted_coordinates(bt, t, s)
    assert _joint_weights(*draw, t, s) == joint_weights_by_bounds(bt, t, s)


@settings(deadline=None, max_examples=200)
@given(located_blocks(max_b=40, max_s=60))
@example((BoundTuple.trivial(2, 5), 0, 0))  # t = 0
@example((BoundTuple(0, 0, 0, 3, 2, 5), 2, 6))  # l = 0, so every count inside is k = 0
@example((BoundTuple(2, 3, 2, 3, 3, 5), 3, 7))  # t_out = 0: no non-null outside
@example((BoundTuple(1, 2, 2, 3, 2, 4), 3, 5))  # n = 1
@example((BoundTuple(1, 1, 1, 1, 2, 4), 1, 4))  # n = 0
def test_sum_weights_are_the_count_marginal_of_the_bound_tuple_loop(raw):
    bt, t, s = raw
    joint, total = joint_weights_by_bounds(bt, t, s)
    marginal = {}
    for (_, v), w in joint.items():
        marginal[v] = marginal.get(v, 0) + w
    assert _sum_weights(*_shifted_coordinates(bt, t, s), t, s) == (marginal, total)


def summed_rows(n, m, l, shift, t, s):
    """The case-2/3 sum weights as the rows of ``_joint_rows`` added along the count."""
    weights = [0] * (s + 1)
    for k, row in _joint_rows(n, m, l, shift, t, s):
        for j, w in enumerate(row):
            weights[k + j] += w
    return {v: w for v, w in enumerate(weights) if w}, binom(n, m) * compositions_count(t, s - t)


def test_sum_weights_are_the_summed_joint_rows_for_every_small_draw():
    # every (m, l, shift) of n <= 10 free cells, with up to one located
    # non-null outside, and every s up to t + 12
    for n in range(11):
        for m, l, shift, outside in product(range(n + 1), range(n + 1), range(3), range(2)):
            t = m + shift + outside
            for s in range(t, t + 13) if t else (0,):
                assert _sum_weights(n, m, l, shift, t, s) == summed_rows(n, m, l, shift, t, s)


@st.composite
def sum_draws(draw):
    """A case-2/3 draw (n, m, l, shift, t, s) of up to 40 free cells, often at an edge:
    t in {0, 1, 2}, t = s, l in {1, n - 1}, m = n, or located non-nulls inside and out."""
    n = draw(st.integers(0, 40))
    l = draw(st.sampled_from([x for x in (1, n - 1) if 0 <= x <= n] or [0]) | st.integers(0, n))
    if draw(st.booleans()):
        t = draw(st.integers(0, 2))
        m = draw(st.integers(0, min(n, t)))
        shift = draw(st.integers(0, t - m))
    else:
        m = draw(st.just(n) | st.integers(0, n))
        shift = draw(st.integers(0, 4))
        t = m + shift + draw(st.integers(0, 4))
    s = draw(st.just(t) | st.integers(t, t + 80)) if t else 0
    return n, m, l, shift, t, s


@settings(deadline=None, max_examples=300)
@given(sum_draws())
@example((0, 0, 0, 0, 0, 0))  # an empty block
@example((0, 0, 0, 1, 1, 5))  # one located non-null inside: the sum inside is s
@example((5, 5, 4, 0, 5, 5))  # m = n and t = s: each non-null holds 1
@example((6, 2, 1, 0, 2, 30))  # t = 2: one count in the middle
@example((6, 3, 5, 2, 7, 9))  # located non-nulls inside and out
def test_sum_weights_are_the_summed_joint_rows(raw):
    assert _sum_weights(*raw) == summed_rows(*raw)


@settings(deadline=None, max_examples=200)
@given(sum_draws())
def test_every_sum_weight_divides_exactly(raw):
    # C(s-2, t-2) times the convolution at v is a multiple of C(s-2, v-1)
    n, m, l, shift, t, s = raw
    assume(t >= 2)
    ways = _binomials(t - 2)
    middle = [(shift + h, w * ways[shift + h - 1]) for h, w in _placements(n, m, l) if 1 <= shift + h <= t - 1]
    assume(middle)
    sums = _convolve([w for _, w in middle], _binomials(s - t))
    scale, divisors = binom(s - 2, t - 2), _binomials(s - 2)
    first = middle[0][0]
    assert len(sums) == len(middle) + s - t
    assert all(scale * x % divisors[v - 1] == 0 for v, x in enumerate(sums, start=first))


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.integers(0, 1 << 200) | st.integers(0, 3), min_size=1, max_size=30),
    st.lists(st.integers(0, 1 << 90) | st.just(0), min_size=1, max_size=30),
)
def test_packed_convolution_equals_the_schoolbook_one(a, b):
    expected = [sum(a[j] * b[i - j] for j in range(len(a)) if 0 <= i - j < len(b)) for i in range(len(a) + len(b) - 1)]
    assert _convolve(a, b) == expected
    assert _binomials(7) == [comb(7, j) for j in range(8)] and _binomials(0) == [1]


def compositions_by_comb(cells, total):
    return comb(cells + total - 1, total) if cells else int(total == 0)


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n), st.integers(0, n), st.integers(0, 3), st.integers(0, 60)
)))
@example((0, 0, 0, 0, 0))
@example((1, 1, 0, 0, 5))
@example((1, 0, 1, 2, 5))
@example((3, 3, 3, 0, 4))
def test_stepped_weights_equal_their_comb_product_formulas(raw):
    n, m, l, shift, s = raw
    # the count law reads no t or s, and the case-1 sum reads no count
    assert _count_weights(n, m, l, shift, m, s) == (
        {shift + h: comb(l, h) * comb(n - l, m - h) for h in range(m + 1) if h <= l and m - h <= n - l},
        comb(n, m),
    )
    assert _sum_case1_weights(n, m, l, shift, m, s) == (
        {v: compositions_by_comb(l, v) * compositions_by_comb(n - l, s - v) for v in range(s + 1)},
        compositions_by_comb(n, s),
    )


def pmf_grid_text():
    """Every law's exact pmf, joint included, one line each, over small blocks and bound tuples."""
    lines = []

    def emit(name, args, law):
        lines.append(f"{name}{args} " + " ".join(f"{k}:{p}" for k, p in law.support))

    for b in range(2, 6):
        for b_in, t in product(range(1, b), range(b + 1)):
            for s in range(t, t + 4) if t else (0,):
                agg = BlockAggregates(b, t, s, b_in)
                for fn in (count_case1, count_case2, sum_case1, sum_case2):
                    emit(fn.__name__, (b, t, s, b_in), fn(agg, want_pmf=True).pmf)
                emit("joint_case2", (b, t, s, b_in), joint_case2(agg))
        for bounds in product(range(b + 1), repeat=4):
            for b_in in range(1, b):
                try:
                    bt = BoundTuple(*bounds, b_in, b)
                except ConstraintError:
                    continue
                for t in range(bt.t_lo_blk, bt.t_hi_blk + 1):
                    emit("count_case3", (*bounds, b_in, b, t), count_case3(bt, t, want_pmf=True).pmf)
                    for s in range(t, t + 3) if t else (0,):
                        emit("sum_case3", (*bounds, b_in, b, t, s), sum_case3(bt, t, s, want_pmf=True).pmf)
                        emit("joint_case3", (*bounds, b_in, b, t, s), joint_case3(bt, t, s))
    return "\n".join(lines)


def test_every_law_pmf_is_pinned():
    # 6,607 laws; the digest was taken from the comb-per-term builders that
    # the stepped ones replaced, so any change to a weight or a support shows
    text = pmf_grid_text()
    assert len(text.splitlines()) == 6607
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b3764bef91d69bb09e3c6daa4c9c374d8d645f5a99bbe47f43e64ce527fb7539"
    )


@settings(deadline=None, max_examples=200)
@given(located_blocks(max_b=30, max_s=45))
def test_sum_case3_max_error_is_attained(raw):
    bt, t, s = raw
    est = sum_case3(bt, t, s, want_pmf=True)
    assert est.pmf.mean() == est.mean and est.pmf.variance() == est.variance
    lo, hi = est.pmf.min_value(), est.pmf.max_value()
    assert est.max_error == max(est.mean - lo, hi - est.mean)
    count = count_case3(bt, t, want_pmf=True).pmf
    # the fewest non-nulls inside, each worth 1, give the smallest sum, unless all t are inside
    assert lo == (s if count.min_value() == t else count.min_value())
    assert hi == (0 if count.max_value() == 0 else s - (t - count.max_value()))


# ---------------------------------------------------------------------------
# Integer moment kernels, as the planner calls them, against the estimators.
# ---------------------------------------------------------------------------


def as_fractions(moments):
    mean_num, mean_den, var_num, var_den, err_num, err_den = moments
    return F(mean_num, mean_den), F(var_num, var_den), F(err_num, err_den)


def fields(est):
    return est.mean, est.variance, est.max_error


def test_region_error_rules_equal_the_scalar_ends_for_every_small_block():
    # every block of b <= 12 cells, t in 0..b and s up to t + 3, at every share
    # clip/width with width | b; one block at a time and as strided columns
    for b in range(2, 13):
        blocks = [(b, t, s) for t in range(b + 1) for s in (range(t, t + 4) if t else (0,))]
        # the summary's columns: sizes, counts, sums, and each block's mu = min(t, b - t) and b - mu
        low = [min(t, b - t) for _, t, _ in blocks]
        columns = (*(list(col) for col in zip(*blocks)), low, [b - mu for mu in low])
        for width in (w for w in range(2, b + 1) if b % w == 0):
            for clip, (kind, case) in product(range(1, width), [("count", 1), ("sum", 1), ("sum", 2)]):
                rule = _LAWS[kind, case].error
                for i, (_, t, s) in enumerate(blocks):
                    x = t if kind == "count" else s
                    got = rule(clip, width, x, columns, [slice(i, i + 1)])
                    assert got == region_error_reference(kind, case, clip, width, [blocks[i]])
                middle = len(blocks) // 2  # t near b/2: an error of every law
                for cut in (slice(None), slice(1, None, 2), slice(0, 0)):
                    lines = [cut, slice(middle, middle + 1)]
                    chosen = [blk for line in lines for blk in blocks[line]]
                    values = sum(t if kind == "count" else s for _, t, s in chosen)
                    got = rule(clip, width, values, columns, lines)
                    assert got == region_error_reference(kind, case, clip, width, chosen)


def test_the_count_kernel_error_is_the_region_rule():
    # the count error is one rule: at (width, clip) = (n, l) it is the kernel's,
    # located non-nulls inside (shift) and outside included
    for n in range(13):
        for m, l, shift, outside in product(range(n + 1), range(n + 1), range(3), range(2)):
            t = m + shift + outside
            mean_num, mean_den, _, _, err, err_den = _count_kernel(n, m, l, shift, t, 0)
            assert err_den == mean_den
            assert err == _error(mean_num, mean_den, *_count_ends(n, m, l, shift, t, 0))


@settings(deadline=None, max_examples=300)
@given(large_aggregates())
def test_moment_kernels_equal_the_case1_and_case2_estimators(raw):
    b, t, s, b_in = raw
    agg = BlockAggregates(*raw)
    assert as_fractions(_count_kernel(b, t, b_in, 0, t, s)) == fields(count_case1(agg))
    assert as_fractions(_sum_case1_kernel(b, t, b_in, 0, t, s)) == fields(sum_case1(agg))
    assert as_fractions(_sum_kernel(b, t, b_in, 0, t, s)) == fields(sum_case2(agg))


@st.composite
def kernel_blocks(draw):
    """A bound tuple with t and s, b <= 200; half the draws have n in {0, 1} and t in {0, b}."""
    if draw(st.booleans()):
        return draw(located_blocks())
    b = draw(st.integers(2, 200))
    b_in = draw(st.integers(1, b - 1))
    n = draw(st.integers(0, 1))
    free_in = draw(st.integers(max(0, n - (b - b_in)), min(n, b_in)))
    if draw(st.booleans()):  # every cell but the free ones located null
        return BoundTuple(0, free_in, 0, n, b_in, b), 0, 0
    # every cell but the free ones located non-null, and all b non-null
    return BoundTuple(b_in - free_in, b_in, b - n, b, b_in, b), b, draw(st.integers(b, 2000))


@settings(deadline=None, max_examples=400)
@given(kernel_blocks())
def test_moment_kernels_equal_the_case3_estimators(raw):
    bt, t, s = raw
    draw = _shifted_coordinates(bt, t, s)
    assert as_fractions(_count_kernel(*draw, t, s)) == fields(count_case3(bt, t))
    assert as_fractions(_sum_kernel(*draw, t, s)) == fields(sum_case3(bt, t, s))
