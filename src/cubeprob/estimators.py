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
builder and one max-error rule over a region's blocks, and ``_compose``
builds every answer made of block draws: an exact shift plus one independent
draw of that law per block.  The public estimators (one draw), the planner's
per-block path (one per partial block, in case 3 and for pmfs) and the
histogram (none for a full bucket) answer through it, and it holds the pmf
rule: an exact pmf keeps its stepped integer weights over their one total.
The planner's case-1/2 walk over a query box never builds a pmf; it reads
the law's ``spread`` tables and applies its ``error`` rule over the flat
block columns of sizes, counts, sums and mirrored counts, a region at a
time, and divides its own sums into the Estimate.  A case-2/3 sum pmf comes
from one convolution of packed big ints (Kronecker substitution); the
(count, sum) rows of ``_joint_rows`` serve joint pmfs only.

All probabilities, means, variances and maximum-error bounds are exact
rationals over arbitrary-precision integers; float views are provided at the
boundary.  Requesting an exact pmf of a non-empty block is refused above a
size budget (``DEFAULT_PMF_BUDGET``): the closed-form moments are always
available, and ``pmf_budget=None`` lifts the budget.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import comb, gcd, lcm, sqrt
from operator import floordiv, index, lt, mul, sub
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .constraints import BoundTuple
from .core import _check_realizable
from .errors import InfeasibleError, PmfBudgetError

DEFAULT_PMF_BUDGET = 10_000


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


@dataclass(frozen=True, init=False)
class _ExactLaw:
    """Validation, construction and lookup shared by the pmf types.

    A law is integer ``weights`` at strictly increasing integer ``keys`` over
    their sum ``total``, all divided by their gcd so that equal laws have
    equal fields; ``support`` holds its (key, probability) pairs, built on
    first read.  ``_key`` coerces a key and ``_name`` names the type in errors.
    """

    keys: tuple
    weights: tuple[int, ...]
    total: int
    _name = "pmf"
    _key = index

    def __init__(self, support: tuple) -> None:
        probs = [Fraction(p) for _, p in support]
        common = lcm(*(p.denominator for p in probs))
        self._set([k for k, _ in support], [p.numerator * common // p.denominator for p in probs], common)

    def _set(self, keys, weights, total: int):
        """Check the law in integers, store it divided by the weights' gcd, return it."""
        try:
            keys = tuple(map(self._key, keys))
        except TypeError:
            raise ValueError(f"{self._name} keys must be integers") from None
        if not keys:
            raise ValueError(f"a {self._name} needs at least one support point")
        if not all(map(lt, keys, keys[1:])):
            raise ValueError(f"{self._name} support must strictly increase")
        if min(weights) <= 0:
            raise ValueError(f"{self._name} probabilities must be positive")
        if sum(weights) != total:
            raise ValueError(f"{self._name} probabilities must sum to exactly 1")
        g = gcd(*weights)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "weights", tuple(w // g for w in weights))
        object.__setattr__(self, "total", total // g)
        return self

    @classmethod
    def from_weights(cls, weights: Mapping, denominator: int | None = None):
        total = sum(weights.values()) if denominator is None else denominator
        if total <= 0:
            raise InfeasibleError("empty distribution: no compatible configuration")
        keys = sorted(k for k, w in weights.items() if w)
        return cls.__new__(cls)._set(keys, [weights[k] for k in keys], total)

    @cached_property
    def support(self) -> tuple:
        return tuple((k, Fraction(w, self.total)) for k, w in zip(self.keys, self.weights))

    def _prob(self, key) -> Fraction:
        i = bisect_left(self.keys, key)
        found = i < len(self.keys) and self.keys[i] == key
        return Fraction(self.weights[i] if found else 0, self.total)


class Pmf(_ExactLaw):
    """Exact probability mass function over integer values."""

    @classmethod
    def point(cls, value: int) -> "Pmf":
        return cls.from_weights({value: 1})

    def prob(self, value: int) -> Fraction:
        return self._prob(value)

    def mean(self) -> Fraction:
        return Fraction(sum(map(mul, self.keys, self.weights)), self.total)

    def variance(self) -> Fraction:
        first = sum(map(mul, self.keys, self.weights))
        second = sum(map(mul, self.keys, map(mul, self.keys, self.weights)))
        return Fraction(second * self.total - first * first, self.total * self.total)

    def min_value(self) -> int:
        return self.keys[0]

    def max_value(self) -> int:
        return self.keys[-1]

    def shifted(self, delta: int) -> "Pmf":
        return Pmf.__new__(Pmf)._set([v + delta for v in self.keys], self.weights, self.total)


class JointPmf(_ExactLaw):
    """Exact joint distribution of (count, sum) inside a query range."""

    _name = "joint pmf"

    @staticmethod
    def _key(key: tuple[int, int]) -> tuple[int, int]:
        try:
            t_in, s_in = key
        except (TypeError, ValueError):
            raise ValueError(f"joint pmf keys must be (count, sum) pairs, got {key!r}") from None
        return index(t_in), index(s_in)

    def _marginal(self, axis: int) -> Pmf:
        acc: dict[int, int] = {}
        for key, w in zip(self.keys, self.weights):
            acc[key[axis]] = acc.get(key[axis], 0) + w
        return Pmf.from_weights(acc, self.total)

    def marginal_count(self) -> Pmf:
        return self._marginal(0)

    def marginal_sum(self) -> Pmf:
        return self._marginal(1)

    def prob(self, t_in: int, s_in: int) -> Fraction:
        return self._prob((t_in, s_in))


@dataclass(frozen=True)
class Estimate:
    """Mean, variance and a worst-case error bound; optionally the full pmf.

    ``max_error`` is the sum of the blocks' bounds on |true answer - mean|.
    It dominates every member of the compatible population and, for one
    block, is attained by one; over several it is attained only when every
    block's worse side (above or below its mean) is the same side.
    """

    mean: Fraction
    variance: Fraction
    max_error: Fraction
    pmf: Pmf | None = None

    def __post_init__(self) -> None:
        # _compose and the planner's walk hand over Fractions; only other numbers are converted
        if type(self.mean) is not Fraction:
            object.__setattr__(self, "mean", Fraction(self.mean))
        if type(self.variance) is not Fraction:
            object.__setattr__(self, "variance", Fraction(self.variance))
        if type(self.max_error) is not Fraction:
            object.__setattr__(self, "max_error", Fraction(self.max_error))
        # a Fraction's sign is its numerator's: no Fraction comparison needed
        if self.variance.numerator < 0:
            raise ValueError(f"negative variance {self.variance}")
        if self.max_error.numerator < 0:
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


# ---------------------------------------------------------------------------
# The laws: each reads one hypergeometric draw in shifted coordinates.
# ---------------------------------------------------------------------------

# A law pairs a moment kernel with a pmf-weights builder, both called with the
# draw (n, m, l, shift) and the block's count t and sum s.  A kernel returns
# the mean, variance and max error as unreduced integer ratios
# (mean_num, mean_den, var_num, var_den, err_num, err_den): _compose adds
# their numerators over a query's blocks and divides once per moment.  A builder returns integer weights by value and their total, which
# the pmf keeps, divided by their gcd.
_Draw = tuple[int, int, int, int]
_Moments = tuple[int, int, int, int, int, int]
_Weights = tuple[dict, int]
# The sizes, counts and sums of a summary's blocks, in row-major order, then each
# block's mu = min(t, b - t) and b - mu.
_Columns = tuple[Sequence[int], Sequence[int], Sequence[int], Sequence[int], Sequence[int]]


def _ends(n: int, m: int, l: int) -> tuple[int, int]:
    """The least and greatest value h of the draw: max(0, m-(n-l)) and min(l, m)."""
    lo = m - (n - l)
    return lo if lo > 0 else 0, l if l < m else m


def _placements(n: int, m: int, l: int) -> Iterator[tuple[int, int]]:
    """(h, C(l, h) * C(n - l, m - h)) for h between the :func:`_ends`; the weights total C(n, m).
    Each is the last times (l - h)(m - h) / ((h + 1)(n - l - m + h + 1)), exact at every step."""
    lo, hi = _ends(n, m, l)
    w = binom(l, lo) * binom(n - l, m - lo)
    for h in range(lo, hi + 1):
        yield h, w
        w = w * (l - h) * (m - h) // ((h + 1) * (n - l - m + h + 1))


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


def _error(mean_num: int, mean_den: int, lo: int, hi: int) -> int:
    """The larger distance from the mean ``mean_num/mean_den`` to ``lo`` or ``hi``, over ``mean_den``."""
    below, above = mean_num - lo * mean_den, hi * mean_den - mean_num
    return below if below > above else above


def _count_ends(n: int, m: int, l: int, shift: int, t: int, s: int) -> tuple[int, int]:
    """The least and greatest count K of :func:`_moments`: shift plus the :func:`_ends` of h,
    inlined, as it runs once per shell block."""
    lo = m - (n - l)
    return shift + (lo if lo > 0 else 0), shift + (l if l < m else m)


def _count_error(clip: int, width: int, values: int, columns: _Columns, slices: Iterable[slice]) -> int:
    """The count law's max error over ``width``, summed over the blocks at ``slices`` of
    the ``columns``: blocks of b cells and t non-nulls that each hold the share
    p = clip/width of their cells inside the query (a draw (b, t, b*p, any shift)).

    With Q = max(clip, width - clip) and mu = min(t, b - t), a block's error is
    min(Q*mu, (width - Q)*(b - mu)) / width.  Swapping nulls for non-nulls, or the
    outside for the inside, mirrors the count about its mean, so take t = mu <= b/2
    non-nulls and the larger share Q/width: the count then runs from
    max(0, mu - b*(width - Q)/width) up to mu, and the mean Q*mu/width is nearer
    the top.  One integer loop over the columns of mu and b - mu, with no call per block.
    """
    low, high = columns[3:]
    q = clip if clip + clip > width else width - clip
    rest = width - q
    err = 0
    for line in slices:
        for mu, nu in zip(low[line], high[line]):
            top, bottom = q * mu, rest * nu
            err += top if top < bottom else bottom
    return err


def _count_kernel(n: int, m: int, l: int, shift: int, t: int, s: int) -> _Moments:
    """Moments of the count K of :func:`_moments`; the count law reads neither t nor s.

    The max error is :func:`_count_error` of one block of n cells, m non-nulls
    and the share l/n inside: the shift moves the mean and the ends alike.
    """
    d, c, e, vk = _moments(n, m, l, shift)
    mu = m if m + m <= n else n - m
    return c, d, vk, d * d * e, _count_error(l, n, m, ((n,), (m,), (), (mu,), (n - mu,)), (slice(None),)), d


def _count_weights(n: int, m: int, l: int, shift: int, t: int, s: int) -> _Weights:
    """Weights of the count K: shift + h -> C(l, h) * C(n - l, m - h), totalling C(n, m)."""
    return {shift + h: w for h, w in _placements(n, m, l)}, binom(n, m)


def _sum_case1_error(
    clip: int, width: int, values: int, columns: _Columns | None = None, slices: Iterable[slice] = ()
) -> int:
    """The case-1 sum law's max error over ``width`` for blocks that each hold the share
    p = clip/width of their cells inside the query and whose sums add up to ``values``.

    A block's sum inside can be anything from 0 to s, and its mean is p*s, so its
    error is max(p, 1 - p)*s: the region's error is that share of ``values``.
    """
    return (clip if clip + clip > width else width - clip) * values


def _sum_case1_kernel(n: int, m: int, l: int, shift: int, t: int, s: int) -> _Moments:
    """The case-1 sum of :func:`sum_case1`: s spread over n = b cells, l = b_in of them inside."""
    inside = l * s
    return inside, n, inside * (n - l) * (n + s), n * n * (n + 1), _sum_case1_error(l, n, s), n


def _stepped_compositions(cells: int, top: int) -> list[int]:
    """:func:`compositions_count` of ``cells`` for totals 0..top, by ratio recurrence:
    C(cells + j, j + 1) = C(cells + j - 1, j) * (cells + j) / (j + 1), exact at every step."""
    return list(accumulate(range(top), lambda c, j: c * (cells + j) // (j + 1), initial=1))


def _sum_case1_weights(n: int, m: int, l: int, shift: int, t: int, s: int) -> _Weights:
    """Weights of the case-1 sum: v -> compositions of v inside times of s - v outside."""
    inside, outside = _stepped_compositions(l, s), _stepped_compositions(n - l, s)
    return dict(enumerate(map(mul, inside, reversed(outside)))), compositions_count(n, s)


def _sum_ends(n: int, m: int, l: int, shift: int, t: int, s: int) -> tuple[int, int]:
    """The least and greatest case-2/3 sum inside the query; both 0 when t = 0.

    Generally the minimum sum puts the fewest possible non-nulls inside (each
    worth 1) and the maximum leaves the fewest outside; but when the count
    inside is pinned to t (every non-null inside) the sum is constantly s, and
    when pinned to 0 it is constantly 0 -- without these corners the bound
    would not be attained.
    """
    count_lo, count_hi = _count_ends(n, m, l, shift, t, s)
    return s if count_lo == t else count_lo, 0 if count_hi == 0 else s - (t - count_hi)


def _sum_error(clip: int, width: int, values: int, columns: _Columns, slices: Iterable[slice]) -> int:
    """The case-2/3 sum law's max error over ``width``, summed over the blocks at ``slices``
    of the ``columns``, each drawn as (b, t, l, 0) with l = b*clip/width < b.

    These are :func:`_sum_ends` with no located cells: at least t - (b - l) of the
    non-nulls sit inside and at least t - l outside, each worth 1, so the sum
    inside runs from max(0, t - (b - l)) to s - max(0, t - l).  Times ``width``,
    where l*width = b*clip, the distances from the mean s*clip are
    clip*s - max(0, width*t - b*(width - clip)) and
    (width - clip)*s - max(0, width*t - b*clip).  One integer loop, with no call per block.
    """
    sizes, counts, sums = columns[:3]
    rest = width - clip
    err = 0
    for line in slices:
        for b, t, s in zip(sizes[line], counts[line], sums[line]):
            wt = width * t
            below = clip * s - (wt - b * rest if wt > b * rest else 0)
            above = rest * s - (wt - b * clip if wt > b * clip else 0)
            err += below if below > above else above
    return err


def _sum_kernel(n: int, m: int, l: int, shift: int, t: int, s: int) -> _Moments:
    """The case-2/3 sum of :func:`sum_case3` for the draw (n, m, l, shift); 0 when t = 0."""
    if t == 0:
        return 0, 1, 0, 1, 0, 1
    d, c, e, vk = _moments(n, m, l, shift)
    mean_num, mean_den = s * c, t * d
    return (
        mean_num, mean_den,
        s * ((s - t) * c * (t * d - c) * e + t * (s + 1) * vk), t * t * (t + 1) * d * d * e,
        _error(mean_num, mean_den, *_sum_ends(n, m, l, shift, t, s)), mean_den,
    )


def _joint_rows(n: int, m: int, l: int, shift: int, t: int, s: int) -> Iterator[tuple[int, list[int]]]:
    """(k, row) for each count k inside the query; row[j] weighs (count, sum) = (k, k + j).

    The draw places k = shift + h of the t non-nulls inside the query in
    C(l, h) * C(n - l, m - h) ways; the k inside then take a sum v = k + j
    and the t - k outside take s - v, each split into positive values, in
    compositions_count(k, j) * compositions_count(t - k, s - t - j) ways.
    The first row's counts are stepped along j by ratio recurrence; the next
    row's inside counts are the last row's prefix sums (the hockey-stick
    identity) and its outside counts their differences: no term takes a binomial.
    """
    top = s - t
    k = shift + _ends(n, m, l)[0]
    inside, outside = _stepped_compositions(k, top), _stepped_compositions(t - k, top)
    for h, placements in _placements(n, m, l):
        yield shift + h, [placements * w for w in map(mul, inside, reversed(outside))]
        inside = list(accumulate(inside))
        outside = list(map(sub, outside, [0, *outside[:-1]]))


def _joint_weights(n: int, m: int, l: int, shift: int, t: int, s: int) -> _Weights:
    """Weights of (count, sum) from :func:`_joint_rows`; they total C(n, m) * C(s - 1, s - t)."""
    rows = _joint_rows(n, m, l, shift, t, s)
    weights = {(k, k + j): w for k, row in rows for j, w in enumerate(row) if w}
    return weights, binom(n, m) * compositions_count(t, s - t)


def _binomials(r: int) -> list[int]:
    """C(r, j) for j = 0..r, each the last times (r - j)/(j + 1), exact at every step."""
    return list(accumulate(range(r), lambda c, j: c * (r - j) // (j + 1), initial=1))


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """c[i] = the sum of a[j] * b[i - j] over two non-empty lists of naturals, by
    multipoint Kronecker substitution (Harvey, "Faster polynomial multiplication
    via multipoint Kronecker substitution", 2009: KS2).

    Read as polynomials, the lists are packed into big ints at x = 2^N and at
    x = -2^N, each in slots of N = 8*``half`` bits, and multiplied there: two
    products of half the size that x = 2^(2N) would take.  Half their sum holds
    the even-indexed c[i], and half their difference the odd-indexed ones, in
    slots of 2N bits, where 2N exceeds the bits of any c[i] (at most
    min(len(a), len(b)) * max(a) * max(b)), so no slot carries into the next.
    """
    bits = max(a).bit_length() + max(b).bit_length() + min(len(a), len(b)).bit_length()
    half = bits // 16 + 1  # bytes

    def pack(xs: list[int]) -> int:
        return int.from_bytes(b"".join(x.to_bytes(2 * half, "little") for x in xs), "little")

    def unpack(x: int, count: int) -> list[int]:
        raw = x.to_bytes(2 * half * count, "little")
        return [int.from_bytes(raw[i:i + 2 * half], "little") for i in range(0, len(raw), 2 * half)]

    a_even, a_odd = pack(a[0::2]), pack(a[1::2]) << 8 * half
    b_even, b_odd = pack(b[0::2]), pack(b[1::2]) << 8 * half
    plus, minus = (a_even + a_odd) * (b_even + b_odd), (a_even - a_odd) * (b_even - b_odd)
    c = [0] * (len(a) + len(b) - 1)
    c[0::2] = unpack((plus + minus) >> 1, (len(c) + 1) // 2)
    c[1::2] = unpack((plus - minus) >> (8 * half + 1), len(c) // 2)
    return c


def _sum_weights(n: int, m: int, l: int, shift: int, t: int, s: int) -> _Weights:
    """Weights of the case-2/3 sum: the rows of :func:`_joint_rows` added along the
    count, by one convolution.

    The draw puts k = shift + h of the t non-nulls inside the query in P(k) =
    C(l, h) * C(n - l, m - h) ways (:func:`_placements`).  With none inside the
    sum inside is 0, and with all t inside it is s; either way the t non-nulls
    split s in C(s - 1, t - 1) ways.  For 1 <= k <= t - 1, the sum v inside and
    s - v outside split in C(v - 1, k - 1) * C(s - v - 1, t - k - 1) ways, which
    hypergeometric symmetry turns into
    C(s - 2, t - 2) * C(t - 2, k - 1) * C(s - t, v - k) / C(s - 2, v - 1).
    So each v in 1..s-1 weighs C(s - 2, t - 2) times the convolution of
    A[k] = P(k) * C(t - 2, k - 1) with the row C(s - t, .) at v, divided exactly
    by C(s - 2, v - 1).
    """
    splits = compositions_count(t, s - t)
    total = binom(n, m) * splits
    if t == 0:  # an empty block: the sum inside is 0
        return {0: total}, total
    lo = shift + _ends(n, m, l)[0]
    placements = [p for _, p in _placements(n, m, l)]
    hi = lo + len(placements) - 1
    weights = [0] * (s + 1)
    if lo == 0:
        weights[0] = placements[0] * splits
    if hi == t:
        weights[s] = placements[-1] * splits
    first, last = max(lo, 1), min(hi, t - 1)
    if first <= last:
        ways = _binomials(t - 2)
        sums = _convolve(
            [placements[k - lo] * ways[k - 1] for k in range(first, last + 1)], _binomials(s - t)
        )
        scale, divisors = binom(s - 2, t - 2), _binomials(s - 2)
        weights[first:first + len(sums)] = map(
            floordiv, map(scale.__mul__, sums), divisors[first - 1:first - 1 + len(sums)]
        )
    return {v: w for v, w in enumerate(weights) if w}, total


def _count_spread(b: int, t: int, s: int) -> tuple[int, int]:
    """g = t*(b-t)/(b-1) of the count law, 0 for one cell."""
    return t * (b - t), b - 1 if b > 1 else 1


def _sum_case1_spread(b: int, t: int, s: int) -> tuple[int, int]:
    """g = s*(b+s)/(b+1) of the case-1 sum law."""
    return s * (b + s), b + 1


def _sum_spread(b: int, t: int, s: int) -> tuple[int, int]:
    """g = s*((s-t)*(b-1) + (s+1)*(b-t)) / ((t+1)*(b-1)) of the case-2/3 sum law, 0 when
    t = 0 or for one cell: :func:`_sum_kernel` at (b, t, l, 0), divided by p*(1-p)."""
    if t == 0 or b == 1:
        return 0, 1
    return s * ((s - t) * (b - 1) + (s + 1) * (b - t)), (t + 1) * (b - 1)


class _Law(NamedTuple):
    """A moment kernel, a pmf-weights builder, and the law's shape under trivial bounds.

    A block of b cells with count t and sum s drawn as (b, t, l, 0), as cases 1-2
    draw it, has mean p*x and variance p*(1-p)*g for its share p = l/b inside the
    query, where x is s when ``of_sum`` and t otherwise, and ``spread(b, t, s)`` is g
    as (numerator, denominator).  Its max error is not linear in p, and
    ``error(clip, width, values, columns, slices)`` is the law's one rule for it:
    the sum over ``width`` of the errors of the blocks at ``slices`` of the
    ``columns`` (sizes, counts, sums, mu = min(t, b - t), b - mu), which all hold
    p = clip/width and whose x add up to ``values``.
    """

    kernel: Callable[[int, int, int, int, int, int], _Moments]
    weights: Callable[[int, int, int, int, int, int], _Weights]
    error: Callable[[int, int, int, _Columns, Iterable[slice]], int]
    spread: Callable[[int, int, int], tuple[int, int]]
    of_sum: bool


_COUNT = _Law(_count_kernel, _count_weights, _count_error, _count_spread, False)
_SUM = _Law(_sum_kernel, _sum_weights, _sum_error, _sum_spread, True)
# The case-2/3 law with (count, sum) weights.
_JOINT = _SUM._replace(weights=_joint_weights)

# The law of each (kind, case), and the one place where the case picks it:
# case 2 is case 3 under BoundTuple.trivial, and count case 2 is count case 1.
_LAWS: dict[tuple[str, int], _Law] = {
    ("count", 1): _COUNT,
    ("count", 2): _COUNT,
    ("count", 3): _COUNT,
    ("sum", 1): _Law(_sum_case1_kernel, _sum_case1_weights, _sum_case1_error, _sum_case1_spread, True),
    ("sum", 2): _SUM,
    ("sum", 3): _SUM,
}


def _law_weights(law: _Law, draw: _Draw, t: int, s: int, b: int, pmf_budget: int | None) -> _Weights:
    """``law``'s pmf weights for ``draw``, refused when the block's b cells, or its sum s
    for a law of the sum, exceed the budget; an empty block (t = 0) is a point mass
    under every law, served at any size."""
    s_budgeted = s if law.of_sum else 0
    if t and pmf_budget is not None and (b > pmf_budget or s_budgeted > pmf_budget):
        raise PmfBudgetError(
            f"exact pmf refused for b={b}, s={s_budgeted} (budget {pmf_budget}); "
            "use the closed-form moments, or pass pmf_budget=None"
        )
    return law.weights(*draw, t, s)


def _compose(
    law: _Law,
    draws: list[tuple[_Draw, int, int, int]],
    shift: int,
    want_pmf: bool,
    pmf_budget: int | None,
) -> Estimate:
    """The Estimate of ``shift`` plus one independent draw of ``law`` per (draw, t, s, b) in
    ``draws``.

    Each block's kernel numerators add per denominator, and each moment becomes one
    exact fraction.  When ``want_pmf``, the pmf is the point mass at ``shift`` with no
    draw, the one draw's law (budgeted for its b cells) moved by ``shift`` with one,
    and None with more.
    """
    # numerators of each moment, keyed by their denominator
    mean, variance, max_error = {1: shift}, {}, {}
    kernel = law.kernel
    for draw, t, s, _ in draws:
        mean_num, mean_den, var_num, var_den, err_num, err_den = kernel(*draw, t, s)
        mean[mean_den] = mean.get(mean_den, 0) + mean_num
        variance[var_den] = variance.get(var_den, 0) + var_num
        max_error[err_den] = max_error.get(err_den, 0) + err_num
    pmf = None
    if want_pmf and not draws:
        pmf = Pmf.point(shift)
    elif want_pmf and len(draws) == 1:
        pmf = Pmf.from_weights(*_law_weights(law, *draws[0], pmf_budget))
        pmf = pmf.shifted(shift) if shift else pmf
    return Estimate(_ratio(mean), _ratio(variance), _ratio(max_error), pmf)


def _ratio(parts: dict[int, int]) -> Fraction:
    """The sum of ``numerator/denominator`` over ``parts``, over their least common multiple."""
    common = lcm(*parts)
    total = 0
    for den, num in parts.items():  # a plain loop: a generator costs more on a few parts
        total += num * (common // den)
    return Fraction(total, common)


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
    draws = [((agg.b, agg.t, agg.b_in, 0), agg.t, agg.s, agg.b)]
    return _compose(_LAWS["count", 1], draws, 0, want_pmf, pmf_budget)


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
    draws = [((agg.b, agg.t, agg.b_in, 0), agg.t, agg.s, agg.b)]
    return _compose(_LAWS["sum", 1], draws, 0, want_pmf, pmf_budget)


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
    # the count law reads no sum, so 0 stands in for the unknown s
    draws = [(_shifted_coordinates(bt, t), t, 0, bt.b_blk)]
    return _compose(_LAWS["count", 3], draws, 0, want_pmf, pmf_budget)


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
    draws = [(_shifted_coordinates(bt, t, s), t, s, bt.b_blk)]
    return _compose(_LAWS["sum", 3], draws, 0, want_pmf, pmf_budget)
