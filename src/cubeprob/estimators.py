"""Single-block distributions for count and sum range queries.

Every estimator answers the same question: a block of ``b`` cells is known
only through aggregates (and possibly integrity constraints), a query covers
``b_in`` of its cells, and the answer inside the query is a random variable
over all datacubes compatible with that knowledge.  Three nested levels of
knowledge are supported:

* case 1 -- count queries use the block's non-null count ``t`` alone
  (hypergeometric placements); sum queries use the block sum ``s`` alone
  (stars-and-bars compositions).
* case 2 -- ``t`` and ``s`` jointly.  This is case 3 with no constraint
  information, and it is computed as case 3 under ``BoundTuple.trivial``:
  the count law is case 1's, the sum law tightens.
* case 3 -- ``t``, ``s`` plus lower/upper bounds on non-null counts derived
  from integrity constraints (a :class:`~cubeprob.constraints.BoundTuple`).

Every law reads one hypergeometric draw (n, m, l, shift) in shifted
coordinates: cases 1-2 draw (b, t, b_in, 0) and case 3 removes the located
cells first.  The law table ``_LAWS`` is the one place where a (kind, case)
picks its law, an integer moment kernel paired with an integer pmf-weights
builder; the public estimators and the planner both answer through it, and
exact pmfs divide their weights once at the end.

All probabilities, means, variances and maximum-error bounds are exact
rationals over arbitrary-precision integers; float views are provided at the
boundary.  Requesting an exact pmf is refused above a size budget
(``DEFAULT_PMF_BUDGET``): the closed-form moments are always available, and
``pmf_budget=None`` lifts the budget.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import comb, sqrt
from operator import itemgetter
from typing import Callable, Iterator, Mapping, NamedTuple

from .constraints import BoundTuple
from .core import _check_realizable
from .errors import InfeasibleError, PmfBudgetError

DEFAULT_PMF_BUDGET = 10_000

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Combinatorics kernel.
# ---------------------------------------------------------------------------


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); zero outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def compositions_count(cells: int, total: int) -> int:
    """Number of length-``cells`` vectors of naturals (>= 0) summing to ``total``.

    Equals C(cells + total - 1, total); the empty vector counts once for
    total 0 and never otherwise.
    """
    if cells < 0 or total < 0:
        return 0
    if cells == 0:
        return 1 if total == 0 else 0
    return binom(cells + total - 1, total)


def q_config_count(x: int, y: int, z: int) -> int:
    """Vectors of length x with exactly y non-null naturals summing to z.

    Choose the y non-null positions, then compose z into y positive parts:
    C(x, y) * C(z - 1, z - y), which is :func:`n_config_count` with no
    located non-nulls.
    """
    return n_config_count(x, y, z, 0) if x >= 0 else 0


def n_config_count(t_hi: int, t: int, s: int, t_lo: int) -> int:
    """Configurations of t_hi free-or-fixed slots holding t non-nulls with sum s.

    ``t_lo`` of the non-nulls sit at known positions, so only t - t_lo
    placements among t_hi - t_lo free slots remain:
    C(t_hi - t_lo, t - t_lo) * C(s - 1, s - t).  Infeasible demands (more
    non-nulls than slots or than located ones allow, sum below the count,
    positive sum with no non-nulls) count zero.
    """
    if not 0 <= t_lo <= t_hi:
        raise ValueError(f"located count {t_lo} outside [0..{t_hi}]")
    if t < t_lo or s < 0:
        return 0
    if t > t_hi or t > s:
        return 0
    if t == 0:
        return 1 if s == 0 else 0
    return binom(t_hi - t_lo, t - t_lo) * binom(s - 1, s - t)


# ---------------------------------------------------------------------------
# Distribution containers.
# ---------------------------------------------------------------------------


class _ExactLaw:
    """Validation, integer-weight construction and lookup shared by the pmf types.

    Subclasses are frozen dataclasses whose ``support`` holds
    ``(key, probability)`` pairs in strictly increasing key order; ``_key``
    coerces a key and ``_name`` names the type in error messages.
    """

    support: tuple
    _name = "pmf"
    _key = int

    def __post_init__(self) -> None:
        entries = tuple((self._key(k), Fraction(p)) for k, p in self.support)
        object.__setattr__(self, "support", entries)
        if not entries:
            raise ValueError(f"a {self._name} needs at least one support point")
        keys = [k for k, _ in entries]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError(f"{self._name} support must strictly increase")
        if any(p <= 0 for _, p in entries):
            raise ValueError(f"{self._name} probabilities must be positive")
        if sum(p for _, p in entries) != 1:
            raise ValueError(f"{self._name} probabilities must sum to exactly 1")

    @classmethod
    def from_weights(cls, weights: Mapping, denominator: int | None = None):
        total = sum(weights.values()) if denominator is None else denominator
        if total <= 0:
            raise InfeasibleError("empty distribution: no compatible configuration")
        return cls(tuple((k, Fraction(w, total)) for k, w in sorted(weights.items()) if w))

    def _prob(self, key) -> Fraction:
        i = bisect_left(self.support, key, key=itemgetter(0))
        if i < len(self.support) and self.support[i][0] == key:
            return self.support[i][1]
        return _ZERO


@dataclass(frozen=True)
class Pmf(_ExactLaw):
    """Exact probability mass function over integer values."""

    support: tuple[tuple[int, Fraction], ...]

    @classmethod
    def point(cls, value: int) -> "Pmf":
        return cls(((value, Fraction(1)),))

    def prob(self, value: int) -> Fraction:
        return self._prob(value)

    def mean(self) -> Fraction:
        return sum((p * v for v, p in self.support), _ZERO)

    def variance(self) -> Fraction:
        mu = self.mean()
        return sum((p * v * v for v, p in self.support), _ZERO) - mu * mu

    def min_value(self) -> int:
        return self.support[0][0]

    def max_value(self) -> int:
        return self.support[-1][0]

    def shifted(self, delta: int) -> "Pmf":
        return Pmf(tuple((v + delta, p) for v, p in self.support))


@dataclass(frozen=True)
class JointPmf(_ExactLaw):
    """Exact joint distribution of (count, sum) inside a query range."""

    support: tuple[tuple[tuple[int, int], Fraction], ...]
    _name = "joint pmf"

    @staticmethod
    def _key(key: tuple[int, int]) -> tuple[int, int]:
        t_in, s_in = key
        return int(t_in), int(s_in)

    def _marginal(self, axis: int) -> Pmf:
        acc: dict[int, Fraction] = {}
        for key, p in self.support:
            acc[key[axis]] = acc.get(key[axis], _ZERO) + p
        return Pmf(tuple(sorted(acc.items())))

    def marginal_count(self) -> Pmf:
        return self._marginal(0)

    def marginal_sum(self) -> Pmf:
        return self._marginal(1)

    def prob(self, t_in: int, s_in: int) -> Fraction:
        return self._prob((t_in, s_in))


@dataclass(frozen=True)
class Estimate:
    """Mean, variance and a worst-case error bound; optionally the full pmf.

    ``max_error`` is exact (a rational): it equals the largest possible
    |true answer - mean| over the compatible population, and is attained by
    some member of it.
    """

    mean: Fraction
    variance: Fraction
    max_error: Fraction
    pmf: Pmf | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", Fraction(self.mean))
        object.__setattr__(self, "variance", Fraction(self.variance))
        object.__setattr__(self, "max_error", Fraction(self.max_error))
        if self.variance < 0:
            raise ValueError(f"negative variance {self.variance}")
        if self.max_error < 0:
            raise ValueError(f"negative max error {self.max_error}")
        if self.pmf is not None and not (
            self.pmf.min_value() <= self.mean <= self.pmf.max_value()
        ):
            raise ValueError(f"mean {self.mean} outside the pmf support range")

    @property
    def mean_float(self) -> float:
        return float(self.mean)

    @property
    def variance_float(self) -> float:
        return float(self.variance)

    @property
    def stddev(self) -> float:
        return sqrt(float(self.variance))


@dataclass(frozen=True)
class BlockAggregates:
    """Aggregates of one block plus the size of the query range inside it."""

    b: int
    t: int
    s: int
    b_in: int

    def __post_init__(self) -> None:
        if self.b < 1:
            raise InfeasibleError(f"block size {self.b} must be >= 1")
        _check_realizable(self.b, self.t, self.s)
        if not 1 <= self.b_in < self.b:
            raise InfeasibleError(
                f"query size {self.b_in} must satisfy 1 <= b_in < b (b={self.b}); "
                "full-block queries are exact and belong to the planner"
            )


def _check_pmf_budget(b: int, s: int, budget: int | None) -> None:
    if budget is not None and (b > budget or s > budget):
        raise PmfBudgetError(
            f"exact pmf refused for b={b}, s={s} (budget {budget}); "
            "use the closed-form moments, or pass pmf_budget=None"
        )


# ---------------------------------------------------------------------------
# The laws: each reads one hypergeometric draw in shifted coordinates.
# ---------------------------------------------------------------------------

# A law pairs a moment kernel with a pmf-weights builder, both called with the
# draw (n, m, l, shift) and the block's count t and sum s.  A kernel returns
# the mean, variance and max error as unreduced integer ratios (mean_num,
# mean_den, var_num, var_den, err_num, err_den): the public estimators wrap
# them in an Estimate, and the planner adds their numerators over a query's
# partial blocks and divides once per moment.  A builder returns integer
# weights by value and their total, which the pmf divides by once.
_Draw = tuple[int, int, int, int]
_Moments = tuple[int, int, int, int, int, int]
_Weights = tuple[dict, int]


def _ends(n: int, m: int, l: int) -> tuple[int, int]:
    """The least and greatest value h of the draw: max(0, m-(n-l)) and min(l, m)."""
    lo = m - (n - l)
    return lo if lo > 0 else 0, l if l < m else m


def _placements(n: int, m: int, l: int) -> Iterator[tuple[int, int]]:
    """(h, C(l, h) * C(n - l, m - h)) for h between the :func:`_ends`; the weights total C(n, m)."""
    lo, hi = _ends(n, m, l)
    return ((h, binom(l, h) * binom(n - l, m - h)) for h in range(lo, hi + 1))


def _moments(n: int, m: int, l: int, shift: int) -> tuple[int, int, int, int]:
    """Integers (d, c, e, vk) with E[K] = c/d and Var K = vk/(d^2*e).

    ``m`` free non-nulls sit uniformly among ``n`` free cells, ``l`` of which
    lie inside the query, and the query also holds ``shift`` located
    non-nulls, so K = shift + h with P(h) = C(l, h) * C(n - l, m - h) / C(n, m).
    d = n or 1 (n = 0 forces m = l = 0 and K = shift), c = shift*d + l*m,
    e = n-1, or 1 when n <= 1, and vk = l*m*(n-l)*(n-m), which is 0 whenever n <= 1.
    """
    d = n or 1
    return d, shift * d + l * m, n - 1 if n > 1 else 1, l * m * (n - l) * (n - m)


def _count_kernel(n: int, m: int, l: int, shift: int, t: int, s: int) -> _Moments:
    """Moments of the count K of :func:`_moments`; the count law reads neither t nor s.

    The max error is the larger distance from E[K] to an end of the
    support, where d*(K - E[K]) = h*d - l*m.
    """
    d, c, e, vk = _moments(n, m, l, shift)
    lo, hi = _ends(n, m, l)
    below, above = l * m - lo * d, hi * d - l * m
    return c, d, vk, d * d * e, below if below > above else above, d


def _count_weights(n: int, m: int, l: int, shift: int, t: int, s: int) -> _Weights:
    """Weights of the count K: shift + h -> C(l, h) * C(n - l, m - h), totalling C(n, m)."""
    return {shift + h: w for h, w in _placements(n, m, l)}, binom(n, m)


def _sum_case1_kernel(n: int, m: int, l: int, shift: int, t: int, s: int) -> _Moments:
    """The case-1 sum of :func:`sum_case1`: s spread over n = b cells, l = b_in of them inside."""
    inside, outside = l * s, (n - l) * s
    return (
        inside, n, inside * (n - l) * (n + s), n * n * (n + 1),
        inside if inside > outside else outside, n,
    )


def _sum_case1_weights(n: int, m: int, l: int, shift: int, t: int, s: int) -> _Weights:
    """Weights of the case-1 sum: v -> compositions of v inside times of s - v outside."""
    weights = {v: compositions_count(l, v) * compositions_count(n - l, s - v) for v in range(s + 1)}
    return weights, compositions_count(n, s)


def _sum_kernel(n: int, m: int, l: int, shift: int, t: int, s: int) -> _Moments:
    """The case-2/3 sum of :func:`sum_case3` for the draw (n, m, l, shift); 0 when t = 0."""
    if t == 0:
        return 0, 1, 0, 1, 0, 1
    d, c, e, vk = _moments(n, m, l, shift)
    mean_num, mean_den = s * c, t * d
    # Extremes of the achievable sum.  Generally the minimum sum puts the
    # fewest possible non-nulls inside (each worth 1) and the maximum leaves
    # the fewest outside; but when the count inside is pinned to t (every
    # non-null inside) the sum is constantly s, and when pinned to 0 it is
    # constantly 0 -- without these corners the bound would not be attained.
    h_lo, h_hi = _ends(n, m, l)
    count_lo, count_hi = shift + h_lo, shift + h_hi
    lo = s if count_lo == t else count_lo
    hi = 0 if count_hi == 0 else s - (t - count_hi)
    below, above = mean_num - lo * mean_den, hi * mean_den - mean_num
    return (
        mean_num, mean_den,
        s * ((s - t) * c * (t * d - c) * e + t * (s + 1) * vk), t * t * (t + 1) * d * d * e,
        below if below > above else above, mean_den,
    )


def _joint_weights(n: int, m: int, l: int, shift: int, t: int, s: int) -> _Weights:
    """Integer weights of (count, sum) inside the query, and their total.

    The draw places k = shift + h of the t non-nulls inside the query in
    C(l, h) * C(n - l, m - h) ways; the k inside then take a sum v >= k and
    the t - k outside take s - v, each split into positive values.  The
    weights total C(n, m) * C(s - 1, s - t), counting the empty split once.
    """
    weights: dict[tuple[int, int], int] = {}
    for h, placements in _placements(n, m, l):
        k = shift + h
        t_out = t - k
        for v in range(k, s - t_out + 1):
            w = placements * compositions_count(k, v - k) * compositions_count(
                t_out, s - v - t_out
            )
            if w:
                weights[(k, v)] = w
    return weights, binom(n, m) * compositions_count(t, s - t)


def _sum_weights(n: int, m: int, l: int, shift: int, t: int, s: int) -> _Weights:
    """Weights of the case-2/3 sum: :func:`_joint_weights` summed over the count."""
    joint, total = _joint_weights(n, m, l, shift, t, s)
    weights: dict[int, int] = {}
    for (_, v), w in joint.items():
        weights[v] = weights.get(v, 0) + w
    return weights, total


class _Law(NamedTuple):
    """A moment kernel, a pmf-weights builder, and ``sizes(b, t, s)``: the block
    size and sum that the exact pmf of a block of b cells is budgeted by."""

    kernel: Callable[[int, int, int, int, int, int], _Moments]
    weights: Callable[[int, int, int, int, int, int], _Weights]
    sizes: Callable[[int, int, int], tuple[int, int]]


_COUNT = _Law(_count_kernel, _count_weights, lambda b, t, s: (b, 0))
# Knowing t = 0 pins the case-2/3 sum at 0: that point mass is served at any block size.
_SUM = _Law(_sum_kernel, _sum_weights, lambda b, t, s: (b, s) if t else (0, 0))
# The case-2/3 law with (count, sum) weights, budgeted by b and s even when t = 0.
_JOINT = _Law(_sum_kernel, _joint_weights, lambda b, t, s: (b, s))

# The law of each (kind, case), and the one place where the case picks it:
# case 2 is case 3 under BoundTuple.trivial, and count case 2 is count case 1.
_LAWS: dict[tuple[str, int], _Law] = {
    ("count", 1): _COUNT,
    ("count", 2): _COUNT,
    ("count", 3): _COUNT,
    ("sum", 1): _Law(_sum_case1_kernel, _sum_case1_weights, lambda b, t, s: (b, s)),
    ("sum", 2): _SUM,
    ("sum", 3): _SUM,
}


def _law_weights(law: _Law, draw: _Draw, t: int, s: int, b: int, pmf_budget: int | None) -> _Weights:
    """``law``'s pmf weights for ``draw``, refused when its sizes for b cells exceed the budget."""
    _check_pmf_budget(*law.sizes(b, t, s), pmf_budget)
    return law.weights(*draw, t, s)


def _answer(
    law: _Law, draw: _Draw, t: int, s: int, want_pmf: bool, b: int, pmf_budget: int | None
) -> Estimate:
    """``law``'s Estimate for ``draw`` in a block of b cells; the exact pmf when ``want_pmf``."""
    pmf = Pmf.from_weights(*_law_weights(law, draw, t, s, b, pmf_budget)) if want_pmf else None
    mean_num, mean_den, var_num, var_den, err_num, err_den = law.kernel(*draw, t, s)
    return Estimate(
        Fraction(mean_num, mean_den), Fraction(var_num, var_den), Fraction(err_num, err_den), pmf
    )


# ---------------------------------------------------------------------------
# Case 1: count via t alone, sum via s alone.
# ---------------------------------------------------------------------------


def count_case1(
    agg: BlockAggregates, want_pmf: bool = False, *, pmf_budget: int | None = DEFAULT_PMF_BUDGET
) -> Estimate:
    """Count query knowing only the block's non-null count.

    The count inside the query follows the hypergeometric law of drawing
    ``b_in`` of ``b`` cells when ``t`` are non-null:

        P(count = k) = C(b_in, k) * C(b - b_in, t - k) / C(b, t)

    with mean (b_in/b)*t and variance t*(b-t)*b_in*(b-b_in) / (b^2*(b-1)).
    """
    draw = agg.b, agg.t, agg.b_in, 0
    return _answer(_LAWS["count", 1], draw, agg.t, agg.s, want_pmf, agg.b, pmf_budget)


def sum_case1(
    agg: BlockAggregates, want_pmf: bool = False, *, pmf_budget: int | None = DEFAULT_PMF_BUDGET
) -> Estimate:
    """Sum query knowing only the block's total sum.

    Compatible blocks are the compositions of ``s`` over ``b`` natural-valued
    cells, so the query sum has

        P(sum = v) = C(b_in+v-1, v) * C(b-b_in+s-v-1, s-v) / C(b+s-1, s)

    with mean (b_in/b)*s and variance b_in*s*(b-b_in)*(b+s) / (b^2*(b+1)).
    The answer can be anything from 0 to s, so the worst-case error is
    max(mean, s - mean).
    """
    draw = agg.b, agg.t, agg.b_in, 0
    return _answer(_LAWS["sum", 1], draw, agg.t, agg.s, want_pmf, agg.b, pmf_budget)


# ---------------------------------------------------------------------------
# Case 2: t and s jointly, i.e. case 3 with no constraint information.
# ---------------------------------------------------------------------------


def joint_case2(
    agg: BlockAggregates, *, pmf_budget: int | None = DEFAULT_PMF_BUDGET
) -> JointPmf:
    """Joint law of (count, sum) inside the query given both t and s:

        P(count = k, sum = v) =
            Q(b_in, k, v) * Q(b - b_in, t - k, s - v) / Q(b, t, s)

    where Q is :func:`q_config_count`; computed by :func:`joint_case3` under
    trivial bounds.
    """
    return joint_case3(BoundTuple.trivial(agg.b_in, agg.b), agg.t, agg.s, pmf_budget=pmf_budget)


def count_case2(
    agg: BlockAggregates, want_pmf: bool = False, *, pmf_budget: int | None = DEFAULT_PMF_BUDGET
) -> Estimate:
    """Count query knowing t and s: identical in law to :func:`count_case1`.

    Knowing the block sum adds nothing about where non-nulls sit, so the
    distribution, moments and the error bound coincide with case 1.
    """
    return count_case1(agg, want_pmf, pmf_budget=pmf_budget)


def sum_case2(
    agg: BlockAggregates, want_pmf: bool = False, *, pmf_budget: int | None = DEFAULT_PMF_BUDGET
) -> Estimate:
    """Sum query knowing both t and s: :func:`sum_case3` under trivial bounds.

    The mean is (b_in/b)*s as in case 1, but knowing t tightens the variance
    and sharpens the extremes: at least max(0, t-(b-b_in)) non-nulls must sit
    inside the query (each worth >= 1) and at least max(0, t-b_in) outside.
    """
    return sum_case3(
        BoundTuple.trivial(agg.b_in, agg.b), agg.t, agg.s, want_pmf, pmf_budget=pmf_budget
    )


# ---------------------------------------------------------------------------
# Case 3: t, s and integrity-constraint bounds.
# ---------------------------------------------------------------------------


def _shifted_coordinates(bt: BoundTuple, t: int, s: int | None = None) -> _Draw:
    """Check t (and s) against ``bt``; return the draw's coordinates (n, m, l, shift).

    n = t_hi_blk - t_lo_blk free block cells hold m = t - t_lo_blk free
    non-nulls; l = t_hi_in - t_lo_in of those cells lie inside the query,
    which also holds shift = t_lo_in located non-nulls.
    """
    if not bt.t_lo_blk <= t <= bt.t_hi_blk:
        raise InfeasibleError(
            f"block count {t} violates constraint bounds [{bt.t_lo_blk}..{bt.t_hi_blk}]"
        )
    if s is not None:
        _check_realizable(bt.b_blk, t, s)
    return bt.t_hi_blk - bt.t_lo_blk, t - bt.t_lo_blk, bt.t_hi_in - bt.t_lo_in, bt.t_lo_in


def joint_case3(
    bt: BoundTuple, t: int, s: int, *, pmf_budget: int | None = DEFAULT_PMF_BUDGET
) -> JointPmf:
    """Joint law of (count, sum) inside the query under constraint bounds.

    With N = :func:`n_config_count` and the complement region carrying
    t - count non-nulls and sum s - v:

        P(count = k, sum = v) =
            N(t_hi_in, k, v, t_lo_in) * N(t_hi_out, t-k, s-v, t_lo_out)
            / N(t_hi_blk, t, s, t_lo_blk)

    Trivial bounds give case 2 (:func:`joint_case2`).
    """
    draw = _shifted_coordinates(bt, t, s)
    return JointPmf.from_weights(*_law_weights(_JOINT, draw, t, s, bt.b_blk, pmf_budget))


def count_case3(
    bt: BoundTuple, t: int, want_pmf: bool = False, *, pmf_budget: int | None = DEFAULT_PMF_BUDGET
) -> Estimate:
    """Count query under constraint bounds.

    Removing the located cells leaves a hypergeometric draw in shifted
    coordinates (:func:`_moments`): l = t_hi_in - t_lo_in free query slots
    out of n = t_hi_blk - t_lo_blk free block slots hold h of the
    m = t - t_lo_blk free non-nulls, and the count is t_lo_in + h.
    """
    draw = _shifted_coordinates(bt, t)
    # the count law reads no sum, so 0 stands in for the unknown s
    return _answer(_LAWS["count", 3], draw, t, 0, want_pmf, bt.b_blk, pmf_budget)


def sum_case3(
    bt: BoundTuple, t: int, s: int, want_pmf: bool = False, *, pmf_budget: int | None = DEFAULT_PMF_BUDGET
) -> Estimate:
    """Sum query under constraint bounds.

    With l, n, m as in :func:`count_case3` and the moment helpers
    alpha = s*(s+1)/(t*(t+1)), beta = s*(s-t)/(t*(t+1)), the paper gives for n > 1

        mean = t_lo_in*(s/t) + l*(s/t)*(m/n)
        variance = alpha*l*(m/n)*[1 + (l-1)*(m-1)/(n-1)]
                   + (beta + 2*alpha*t_lo_in)*l*(m/n) + alpha*t_lo_in^2 + beta*t_lo_in - mean^2

    For every n the variance is one integer ratio by the law of total
    variance over the count K inside the query (:func:`_moments`: E[K] = c/d,
    and Var K = 0 when n <= 1).  Given K the sum has mean K*s/t and variance
    K*(t-K)*s*(s-t)/(t^2*(t+1)), so mean = s*c/(t*d) and

        variance = s*(s-t)*c*(t*d-c)/(t^2*(t+1)*d^2) + Var K * s*(s+1)/(t*(t+1)).
    """
    draw = _shifted_coordinates(bt, t, s)
    return _answer(_LAWS["sum", 3], draw, t, s, want_pmf, bt.b_blk, pmf_budget)
