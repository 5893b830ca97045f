from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubeprob import (
    BlockAggregates,
    BoundTuple,
    InfeasibleError,
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
    _count_kernel,
    _joint_weights,
    _shifted_coordinates,
    _sum_case1_kernel,
    _sum_kernel,
)

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
