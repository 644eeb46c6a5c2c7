"""Forecast-accuracy metrics and the Wilcoxon signed-rank test.

MAPE excludes points whose actual value is exactly zero and reports how many
were excluded; percentage errors at zero are undefined and KPI series
routinely sit at zero overnight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateVariance, EmptyInput, TooFewPairs

ALTERNATIVES = ("less", "greater", "two_sided")


@dataclass(frozen=True)
class EvalPairs:
    actual: tuple[float, ...]
    predicted: tuple[float, ...]

    def __init__(self, actual: Sequence[float], predicted: Sequence[float]):
        object.__setattr__(self, "actual", tuple(float(v) for v in actual))
        object.__setattr__(self, "predicted", tuple(float(v) for v in predicted))
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
    abs_sum = 0.0
    sq_sum = 0.0
    mape_sum = 0.0
    excluded = 0
    for y, y_hat in zip(pairs.actual, pairs.predicted):
        err = y - y_hat
        abs_sum += abs(err)
        sq_sum += err * err
        if y != 0.0:
            mape_sum += abs(err) / abs(y)
        else:
            excluded += 1
    y_mean = sum(pairs.actual) / n
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


def _rank_sums(diffs: Sequence[float]) -> tuple[float, int, list[tuple[int, int]]]:
    """``w_plus``, the sum of the average ranks of |d| over the positive
    differences, the tie sum of t^3 - t over the groups of t equal |d|, and
    each such group's ``(start, end)`` positions in |d| order, in one walk
    over the differences sorted by |d|.

    Ranks are half-integers, so their sums are exact in any order, and each
    tie group has its own average rank: both equal what per-index ranks give.
    """
    ordered = sorted(diffs, key=abs)
    n = len(ordered)
    w_plus = 0.0
    ties = 0
    groups = []
    i = 0
    while i < n:
        d = ordered[i]
        size = abs(d)
        j = i + 1
        # a group of one, rank j: nearly every group when the errors are
        # continuous, so it skips the group bookkeeping
        if j == n or abs(ordered[j]) != size:
            if d > 0:
                w_plus += j
            i = j
            continue
        j += 1
        while j < n and abs(ordered[j]) == size:
            j += 1
        t = j - i
        ties += t * t * t - t
        groups.append((i, j))
        positives = sum(1 for e in ordered[i:j] if e > 0)
        w_plus += positives * ((i + j + 1) / 2)  # 1-based average rank
        i = j
    return w_plus, ties, groups


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
    diffs = [a - b for a, b in zip(errors_a, errors_b) if a - b != 0.0]
    if any(map(math.isnan, diffs)):  # NaN passes the zero filter
        raise ValueError("a difference is NaN; the errors cannot be ranked")
    n = len(diffs)
    if n < 5:
        raise TooFewPairs(
            f"{n} non-zero differences; need at least 5 informative pairs"
        )
    w_plus, ties, groups = _rank_sums(diffs)
    if mode == "exact" or (mode == "auto" and n <= 12):
        # doubled ranks in |d| order: the tail sums ignore order
        ranks = list(range(2, 2 * n + 1, 2))
        for i, j in groups:
            ranks[i:j] = [i + j + 1] * (j - i)
        p_ge, p_le = _exact_tail_probs(ranks, int(2 * w_plus))
    else:
        p_ge, p_le = _approx_tail_probs(n, w_plus, ties)
    if alternative == "greater":
        return p_ge
    if alternative == "less":
        return p_le
    return min(1.0, 2.0 * min(p_ge, p_le))
