"""``wilcoxon_signed_rank`` pinned bit for bit against the per-index
formulas written out here: an average rank for every difference, ``w_plus``
summed over the positive ones in input order, and the tie term counted per
distinct rank. The p-values are compared by ``repr`` for every alternative:
under ``mode="approx"`` for n from 13 to 500, under ``"auto"`` for n from 5
to 500, and under ``"exact"`` for n from 5 to 12."""

import math
import random

import pytest

from qbsd.errors import TooFewPairs
from qbsd.metrics import ALTERNATIVES, wilcoxon_signed_rank


def ref_average_ranks(values):
    n = len(values)
    order = sorted(range(n), key=values.__getitem__)
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j + 2) / 2
        for idx in order[i : j + 1]:
            ranks[idx] = rank
        i = j + 1
    return ranks


def ref_exact_tail_probs(ranks, w_plus):
    n = len(ranks)
    ge = le = 0
    for mask in range(1 << n):
        w = 0.0
        for idx in range(n):
            if mask >> idx & 1:
                w += ranks[idx]
        ge += w >= w_plus
        le += w <= w_plus
    return ge / (1 << n), le / (1 << n)


def ref_approx_tail_probs(ranks, w_plus):
    n = len(ranks)
    mu = n * (n + 1) / 4
    tie_counts = {}
    for r in ranks:
        tie_counts[r] = tie_counts.get(r, 0) + 1
    tie_term = sum(t**3 - t for t in tie_counts.values()) / 48
    var = n * (n + 1) * (2 * n + 1) / 24 - tie_term
    sd = math.sqrt(var)
    p_ge = 0.5 * math.erfc((w_plus - mu - 0.5) / (sd * math.sqrt(2)))
    p_le = 0.5 * math.erfc((mu - w_plus - 0.5) / (sd * math.sqrt(2)))
    return p_ge, p_le


def ref_wilcoxon(errors_a, errors_b, alternative, mode):
    diffs = [a - b for a, b in zip(errors_a, errors_b) if a - b != 0.0]
    n = len(diffs)
    if n < 5:
        raise TooFewPairs(n)
    ranks = ref_average_ranks([abs(d) for d in diffs])
    w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    if mode == "exact" or (mode == "auto" and n <= 12):
        p_ge, p_le = ref_exact_tail_probs(ranks, w_plus)
    else:
        p_ge, p_le = ref_approx_tail_probs(ranks, w_plus)
    if alternative == "greater":
        return p_ge
    if alternative == "less":
        return p_le
    return min(1.0, 2.0 * min(p_ge, p_le))


def outcome(fn, *args):
    try:
        return repr(fn(*args))
    except TooFewPairs:
        return TooFewPairs


def samples(n, rng):
    """Paired errors of n entries, of every kind the test meets."""
    yield [rng.gauss(10.0, 3.0) for _ in range(n)], [rng.gauss(10.5, 3.0) for _ in range(n)]
    # heavy ties: a few distinct |d|, many equal to each other
    yield ([float(rng.randint(0, 4)) for _ in range(n)],
           [float(rng.randint(0, 3)) for _ in range(n)])
    signed = (0.0, -0.0, 0.5, -0.5, 1.0, -1.0)
    yield [rng.choice(signed) for _ in range(n)], [rng.choice(signed) for _ in range(n)]
    huge = (1e300, -1e300, 2e300, 0.0, -0.0)
    yield ([rng.choice(huge) * rng.choice((1.0, 0.5)) for _ in range(n)],
           [rng.choice(huge) for _ in range(n)])
    # mostly distinct |d| with a sprinkle of ties: the one-element fast path
    a = [rng.uniform(0.0, 100.0) for _ in range(n)]
    b = [x + rng.choice((1.0, -1.0, 2.0, rng.uniform(-3.0, 3.0))) for x in a]
    yield a, b
    if n % 20 == 0:
        # mostly zero differences: too few pairs, or few enough for the
        # exact branch under "auto"
        b = list(a)
        for i in rng.sample(range(n), rng.randint(3, 14)):
            b[i] += rng.choice((1.0, -1.0, 2.0))
        yield a, b


N_RANGES = {"approx": range(13, 501), "auto": range(5, 501), "exact": range(5, 13)}


@pytest.mark.parametrize("mode", N_RANGES)
def test_p_values_match_the_reference_bit_for_bit(mode):
    rng = random.Random(20230607)
    seen = {"approx": 0, "exact": 0, "too few": 0}
    for n in N_RANGES[mode]:
        for errors_a, errors_b in samples(n, rng):
            informative = sum(a - b != 0.0 for a, b in zip(errors_a, errors_b))
            for alternative in ALTERNATIVES:
                got = outcome(wilcoxon_signed_rank, errors_a, errors_b, alternative, mode)
                want = outcome(ref_wilcoxon, errors_a, errors_b, alternative, mode)
                assert got == want, (n, alternative, errors_a, errors_b)
            exact = mode == "exact" or (mode == "auto" and informative <= 12)
            seen["too few" if informative < 5 else "exact" if exact else "approx"] += 1
    assert seen["too few"] > 0, seen
    assert (seen["approx"] > 2000) == (mode != "exact"), seen
    assert (seen["exact"] > 0) == (mode != "approx"), seen


def edge_samples(rng):
    """Paired errors whose differences run in long ties, cancel to signed
    zeros, or reach +-inf."""
    # long tie runs of either sign, with a few distinct |d| between them
    for n in (10, 13, 60, 400):
        diffs = [rng.choice((1.0, -1.0, 2.0, -2.0)) for _ in range(n)]
        diffs[rng.randrange(n)] = rng.uniform(0.1, 3.0)
        yield diffs, [0.0] * n
        yield [5.0 + d for d in diffs], [5.0] * n
    # one tie run over every pair, and all but one pair tied
    for n in (12, 40):
        yield [3.0] * n, [0.0] * (n // 2) + [6.0] * (n - n // 2)
        yield [3.0] * (n - 1) + [1.0], [0.0] * n
    # signed zeros: +-0.0 - +-0.0 is a zero difference and is dropped
    for n in (5, 7, 30):
        zeros = (0.0, -0.0)
        a = [rng.choice(zeros) for _ in range(n)] + [rng.uniform(-2.0, 2.0) for _ in range(n)]
        b = [rng.choice(zeros) for _ in range(n)] + [rng.choice(zeros) for _ in range(n)]
        yield a, b
    # +-inf differences tie with each other, above every finite |d|
    inf = math.inf
    for n in (6, 25, 80):
        a = [rng.choice((inf, 1.0, 2.5, -inf)) for _ in range(n)]
        b = [rng.choice((0.0, 1.0, 3.0)) for _ in range(n)]
        yield a, b
        yield b, a


@pytest.mark.parametrize("mode", ["auto", "approx", "exact"])
def test_ties_signed_zeros_and_infinities_match_the_reference(mode):
    rng = random.Random(20231019)
    compared = 0
    for errors_a, errors_b in edge_samples(rng):
        informative = sum(a - b != 0.0 for a, b in zip(errors_a, errors_b))
        if mode == "exact" and informative > 12:
            continue  # the reference enumerates all 2^n sign assignments
        for alternative in ALTERNATIVES:
            got = outcome(wilcoxon_signed_rank, errors_a, errors_b, alternative, mode)
            want = outcome(ref_wilcoxon, errors_a, errors_b, alternative, mode)
            assert got == want, (alternative, errors_a, errors_b)
        compared += 1
    assert compared >= 6, compared


def test_a_nan_difference_raises_wherever_it_ranks():
    """A NaN has no place in the |d| order, so the sort may leave it, and
    the values around it, anywhere: next to a tie run, at either end, among
    infinities. Each case raises, however few pairs are informative."""
    rng = random.Random(7)
    inf, nan = math.inf, math.nan
    for n in (1, 4, 5, 6, 13, 50, 300):
        for _ in range(20):
            a = [rng.choice((1.0, -1.0, 2.0, 3.0, inf, -inf, rng.uniform(-5.0, 5.0)))
                 for _ in range(n)]
            b = [0.0] * n
            where = rng.randrange(n)
            if rng.random() < 0.5:
                a[where] = nan
            else:  # inf - inf
                a[where], b[where] = inf, inf
            for mode in ("auto", "approx", "exact"):
                if mode == "exact" and n > 50:
                    continue
                with pytest.raises(ValueError, match="NaN"):
                    wilcoxon_signed_rank(a, b, "two_sided", mode)
