"""Forecast-accuracy metrics and the Wilcoxon signed-rank test.

MAPE excludes points whose actual value is exactly zero and reports how many
were excluded; percentage errors at zero are undefined and KPI series
routinely sit at zero overnight.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from itertools import compress, islice, repeat
from typing import Sequence

from .errors import DegenerateVariance, EmptyInput, TooFewPairs

ALTERNATIVES = ("less", "greater", "two_sided")
_NAN_DIFFERENCE = "a difference is NaN; the errors cannot be ranked"


@dataclass(frozen=True)
class EvalPairs:
    actual: tuple[float, ...]
    predicted: tuple[float, ...]

    def __init__(self, actual: Sequence[float], predicted: Sequence[float]):
        object.__setattr__(self, "actual", tuple(map(float, actual)))
        object.__setattr__(self, "predicted", tuple(map(float, predicted)))
        if len(self.actual) != len(self.predicted):
            raise ValueError(
                f"length mismatch: {len(self.actual)} actual vs "
                f"{len(self.predicted)} predicted"
            )
        if not self.actual:
            raise EmptyInput("no evaluation pairs")

    def __len__(self) -> int:
        return len(self.actual)


@dataclass(frozen=True)
class MetricsReport:
    mae: float
    mse: float
    rmse: float
    mape: float
    r2: float
    mape_excluded_count: int


def evaluate(pairs: EvalPairs) -> MetricsReport:
    """MAE, MSE, RMSE, MAPE (percent) and R^2 over paired points."""
    n = len(pairs)
    y_sum = 0.0
    abs_sum = 0.0
    sq_sum = 0.0
    mape_sum = 0.0
    excluded = 0
    # every sum runs left to right: from 3.12 on, the built-in sum() of
    # floats is compensated and would round some means differently
    for y, y_hat in zip(pairs.actual, pairs.predicted):
        y_sum += y
        err = y - y_hat
        abs_sum += abs(err)
        sq_sum += err * err
        if y != 0.0:
            mape_sum += abs(err) / abs(y)
        else:
            excluded += 1
    y_mean = y_sum / n
    ss_tot = 0.0
    for y in pairs.actual:
        dev = y - y_mean
        ss_tot += dev * dev
    if ss_tot == 0.0:
        if n > 1:
            raise DegenerateVariance(
                "actual values are all identical; R^2 is undefined"
            )
        r2 = math.nan  # a single point carries no variance to explain
    else:
        r2 = 1.0 - sq_sum / ss_tot
    scored = n - excluded
    return MetricsReport(
        mae=abs_sum / n,
        mse=sq_sum / n,
        rmse=math.sqrt(sq_sum / n),
        mape=100.0 * mape_sum / scored if scored else math.nan,
        r2=r2,
        mape_excluded_count=excluded,
    )


def _exact_tail_probs(ranks: Sequence[int], w_plus: int) -> tuple[float, float]:
    """P(W >= w) and P(W <= w) over the 2^n equally likely sign assignments,
    with every rank and w doubled to an integer (a tie group's average rank
    is a half-integer). The assignments are counted per rank sum, subset-sum
    style, in O(n * sum(ranks)) integer additions: the counts, and so the
    p-values, are those that enumerating every assignment gives."""
    counts = [1] + [0] * sum(ranks)  # counts[s]: assignments whose sum is s
    for r in ranks:
        counts[r:] = [a + b for a, b in zip(counts[r:], counts)]
    total = 1 << len(ranks)
    return sum(counts[w_plus:]) / total, sum(counts[: w_plus + 1]) / total


def _rank_sums(ordered: list[float]) -> tuple[int, int, Sequence[int]]:
    """Doubled ``w_plus`` (the sum of the average ranks of |d| over the
    positive differences), the tie sum of t^3 - t over the groups of t equal
    |d|, and every difference's doubled rank in |d| order, from the
    differences sorted by |d|. A NaN difference raises ValueError.

    Doubled, every average rank is an integer (a tie group's is a
    half-integer), so the sums are exact in any order and equal what
    per-index ranks give. Each step is a C-level pass over the sorted list;
    only a tie group costs Python steps, one per group.
    """
    n = len(ordered)
    mags = list(map(abs, ordered))
    # rising[i]: |d| at i is below |d| at i + 1. A run of 0s is a tie group,
    # unless its values are not all equal (list.count matches a NaN only to
    # itself): then it holds a NaN, which compares below nothing and which
    # the sort may leave anywhere
    rising = bytes(map(operator.lt, mags, islice(mags, 1, None)))
    ranks: Sequence[int] = range(2, 2 * n + 1, 2)
    ties = 0
    i = rising.find(0)
    if i >= 0:
        ranks = array("q", ranks)
    while i >= 0:  # the group [i, j)
        j = rising.find(1, i)
        j = n if j < 0 else j + 1
        t = j - i
        if mags[i:j].count(mags[i]) != t:
            raise ValueError(_NAN_DIFFERENCE)
        ties += t * t * t - t
        ranks[i:j] = array("q", (i + j + 1,)) * t
        i = rising.find(0, j)
    w2_plus = sum(compress(ranks, map(operator.lt, repeat(0.0), ordered)))
    return w2_plus, ties, ranks


def _approx_tail_probs(n: int, w_plus: float, ties: int) -> tuple[float, float]:
    """Normal approximation with tie and continuity corrections."""
    mu = n * (n + 1) / 4
    var = n * (n + 1) * (2 * n + 1) / 24 - ties / 48
    sd = math.sqrt(var)
    p_ge = 0.5 * math.erfc((w_plus - mu - 0.5) / (sd * math.sqrt(2)))
    p_le = 0.5 * math.erfc((mu - w_plus - 0.5) / (sd * math.sqrt(2)))
    return p_ge, p_le


def wilcoxon_signed_rank(
    errors_a: Sequence[float],
    errors_b: Sequence[float],
    alternative: str = "two_sided",
    mode: str = "auto",
) -> float:
    """Paired signed-rank test on errors_a - errors_b.

    ``alternative="greater"`` tests whether a tends to exceed b, ``"less"``
    the reverse. Zero differences are dropped; at least five informative
    pairs must remain. Up to 12 pairs the p-value is exact, counted over all
    2^n sign assignments of the observed ranks; beyond that it comes from
    the normal approximation with tie and continuity corrections (``mode``
    forces one branch; a forced exact test costs O(n^3)). A NaN difference,
    such as inf - inf, has no rank: ValueError.
    """
    if alternative not in ALTERNATIVES:
        raise ValueError(f"alternative must be one of {ALTERNATIVES}")
    if mode not in ("auto", "exact", "approx"):
        raise ValueError(f"mode must be auto, exact, or approx, got {mode!r}")
    if len(errors_a) != len(errors_b):
        raise ValueError(
            f"length mismatch: {len(errors_a)} vs {len(errors_b)} errors"
        )
    # filter(None, ...) drops +-0.0 and keeps NaN; the sort boxes each
    # difference once, and no other copy of them is made
    ordered = sorted(filter(None, map(operator.sub, errors_a, errors_b)), key=abs)
    n = len(ordered)
    if n < 5:
        if any(map(math.isnan, ordered)):
            raise ValueError(_NAN_DIFFERENCE)
        raise TooFewPairs(
            f"{n} non-zero differences; need at least 5 informative pairs"
        )
    w2_plus, ties, ranks = _rank_sums(ordered)
    if mode == "exact" or (mode == "auto" and n <= 12):
        p_ge, p_le = _exact_tail_probs(ranks, w2_plus)
    else:
        p_ge, p_le = _approx_tail_probs(n, w2_plus / 2, ties)
    if alternative == "greater":
        return p_ge
    if alternative == "less":
        return p_le
    return min(1.0, 2.0 * min(p_ge, p_le))
