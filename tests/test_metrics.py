import itertools
import math
import random

import pytest

from qbsd.errors import DegenerateVariance, EmptyInput, TooFewPairs
from qbsd.metrics import EvalPairs, evaluate, wilcoxon_signed_rank


def naive_sum(terms):
    """Left-to-right float sum. The built-in sum() compensates from Python
    3.12 on, which would make the oracle's rounding depend on the version."""
    total = 0.0
    for term in terms:
        total += term
    return total


def ref_metrics(actual, predicted):
    """Naive-summation oracle, written directly from the metric formulas.

    Squares are spelled as products: float `x ** 2` routes through libm pow,
    which may differ from x*x by an ulp and would blur the comparison."""
    n = len(actual)
    mae = naive_sum(abs(y - p) for y, p in zip(actual, predicted)) / n
    mse = naive_sum((y - p) * (y - p) for y, p in zip(actual, predicted)) / n
    rmse = mse**0.5
    nonzero = [(y, p) for y, p in zip(actual, predicted) if y != 0]
    mape = 100 * naive_sum(abs(y - p) / abs(y) for y, p in nonzero) / len(nonzero)
    y_bar = naive_sum(actual) / n
    r2 = 1 - naive_sum((y - p) * (y - p) for y, p in zip(actual, predicted)) / naive_sum(
        (y - y_bar) * (y - y_bar) for y in actual
    )
    return mae, mse, rmse, mape, r2


def ref_wilcoxon(errors_a, errors_b, alternative):
    """Enumeration oracle over all sign assignments of the ranked |diffs|."""
    diffs = [a - b for a, b in zip(errors_a, errors_b) if a != b]
    n = len(diffs)
    magnitudes = sorted(abs(d) for d in diffs)
    ranks = []
    for d in diffs:
        matches = [i + 1 for i, m in enumerate(magnitudes) if m == abs(d)]
        ranks.append(sum(matches) / len(matches))
    w_obs = sum(r for r, d in zip(ranks, diffs) if d > 0)
    ge = le = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        ge += w >= w_obs
        le += w <= w_obs
    p_ge = ge / 2**n
    p_le = le / 2**n
    if alternative == "greater":
        return p_ge
    if alternative == "less":
        return p_le
    return min(1.0, 2 * min(p_ge, p_le))


class TestEvaluate:
    def test_perfect_prediction(self):
        r = evaluate(EvalPairs([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]))
        assert r.mae == 0 and r.mse == 0 and r.rmse == 0
        assert r.mape == 0
        assert r.r2 == 1.0
        assert r.mape_excluded_count == 0

    def test_single_point(self):
        r = evaluate(EvalPairs([100.0], [90.0]))
        assert r.mae == 10.0
        assert r.mse == 100.0
        assert r.rmse == 10.0
        assert r.mape == 10.0
        assert math.isnan(r.r2)  # one point has no variance to explain

    def test_mean_predictor_gives_zero_r2(self):
        r = evaluate(EvalPairs([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]))
        assert r.mae == pytest.approx(2 / 3)
        assert r.mse == pytest.approx(2 / 3)
        assert r.r2 == pytest.approx(0.0)

    def test_zero_actuals_excluded_and_counted(self):
        r = evaluate(EvalPairs([0.0, 10.0, 0.0, 20.0], [1.0, 11.0, 2.0, 22.0]))
        assert r.mape_excluded_count == 2
        assert r.mape == pytest.approx(100 * (0.1 + 0.1) / 2)

    def test_all_zero_actuals_mape_nan(self):
        r = evaluate(EvalPairs([0.0], [1.0]))
        assert r.mape_excluded_count == 1
        assert math.isnan(r.mape)

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVariance):
            evaluate(EvalPairs([5.0, 5.0, 5.0], [1.0, 2.0, 3.0]))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            EvalPairs([], [])
        with pytest.raises(ValueError):
            EvalPairs([1.0], [1.0, 2.0])

    def test_matches_naive_oracle_on_random_pairs(self):
        rng = random.Random(42)
        for _ in range(1000):
            n = rng.randint(2, 50)
            actual = [rng.uniform(-100, 100) for _ in range(n)]
            actual[0] += 1e-3  # ensure non-degenerate variance
            predicted = [rng.uniform(-100, 100) for _ in range(n)]
            got = evaluate(EvalPairs(actual, predicted))
            mae, mse, rmse, mape, r2 = ref_metrics(actual, predicted)
            assert got.mae == pytest.approx(mae, abs=1e-12)
            assert got.mse == pytest.approx(mse, abs=1e-12)
            assert got.rmse == pytest.approx(rmse, abs=1e-12)
            assert got.mape == pytest.approx(mape, abs=1e-9)
            assert got.r2 == pytest.approx(r2, abs=1e-12)
            assert got.rmse**2 == pytest.approx(got.mse, rel=1e-12)
            assert got.mae <= got.rmse + 1e-15

    def test_mean_sums_left_to_right(self):
        # left to right these actuals sum to -6.0, so the mean is -1.2; a
        # compensated sum (the built-in sum() from Python 3.12 on) gives -5.0
        actual = [1e16, 1.0, -1e16, -3.0, -3.0]
        predicted = [-3.0, 1.0, 5.0, -5.0, -2.0]
        got = evaluate(EvalPairs(actual, predicted))
        assert got.r2 == ref_metrics(actual, predicted)[4]
        sq = naive_sum((y - p) * (y - p) for y, p in zip(actual, predicted))
        exact_mean = math.fsum(actual) / len(actual)
        assert got.r2 != 1 - sq / naive_sum((y - exact_mean) * (y - exact_mean) for y in actual)

    def test_permutation_invariance(self):
        actual = [3.0, 1.0, 4.0, 1.5]
        predicted = [2.0, 2.0, 5.0, 1.0]
        base = evaluate(EvalPairs(actual, predicted))
        perm = [2, 0, 3, 1]
        shuffled = evaluate(
            EvalPairs([actual[i] for i in perm], [predicted[i] for i in perm])
        )
        assert shuffled == base

    def test_translation_and_scale_behavior(self):
        actual = [1.0, 2.0, 5.0]
        predicted = [1.5, 1.0, 6.0]
        base = evaluate(EvalPairs(actual, predicted))
        shifted = evaluate(
            EvalPairs([y + 10 for y in actual], [p + 10 for p in predicted])
        )
        assert shifted.mae == pytest.approx(base.mae, abs=1e-12)
        assert shifted.rmse == pytest.approx(base.rmse, abs=1e-12)
        scaled = evaluate(
            EvalPairs([y * 3 for y in actual], [p * 3 for p in predicted])
        )
        assert scaled.mse == pytest.approx(base.mse * 9, rel=1e-12)


class TestWilcoxon:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match=r"^mode must be auto, exact, or approx, got 'bogus'$"):
            wilcoxon_signed_rank([1.0, 2.0, 3.0], [2.0, 3.0, 4.0], mode="bogus")

    def test_all_zero_differences_rejected(self):
        with pytest.raises(TooFewPairs):
            wilcoxon_signed_rank([1.0] * 6, [1.0] * 6)

    def test_five_positive_pairs_exact(self):
        a = [2.0, 3.0, 4.0, 5.0, 6.0]
        b = [1.0, 1.0, 1.0, 1.0, 1.0]
        assert wilcoxon_signed_rank(a, b, alternative="greater") == 0.03125

    def test_symmetric_differences_two_sided(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        b = [2.0, 1.0, 4.0, 3.0, 6.0, 5.0]
        p = wilcoxon_signed_rank(a, b, alternative="two_sided")
        assert p >= 0.5
        assert p == pytest.approx(ref_wilcoxon(a, b, "two_sided"), abs=1e-12)

    def test_matches_enumeration_oracle_randomized(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(5, 10)
            a = [rng.uniform(0, 10) for _ in range(n)]
            b = [rng.uniform(0, 10) for _ in range(n)]
            for alt in ("less", "greater", "two_sided"):
                got = wilcoxon_signed_rank(a, b, alternative=alt)
                assert got == pytest.approx(ref_wilcoxon(a, b, alt), abs=1e-12)

    def test_ties_match_oracle(self):
        a = [5.0, 5.0, 5.0, 5.0, 1.0, 9.0]
        b = [4.0, 4.0, 6.0, 6.0, 3.0, 4.0]
        for alt in ("less", "greater", "two_sided"):
            got = wilcoxon_signed_rank(a, b, alternative=alt)
            assert got == pytest.approx(ref_wilcoxon(a, b, alt), abs=1e-12)

    def test_exact_and_approx_agree_in_overlap(self):
        rng = random.Random(21)
        for _ in range(100):
            n = rng.randint(10, 12)
            a = [rng.uniform(0, 10) for _ in range(n)]
            b = [rng.uniform(0, 10) for _ in range(n)]
            for alt in ("less", "greater", "two_sided"):
                exact = wilcoxon_signed_rank(a, b, alternative=alt, mode="exact")
                approx = wilcoxon_signed_rank(a, b, alternative=alt, mode="approx")
                assert abs(exact - approx) < 0.02

    def test_exact_matches_brute_force_at_16(self):
        # half-unit offsets keep every difference non-zero; the small integer
        # range makes many |d| ties, so ranks are half-integers
        rng = random.Random(16)
        a = [float(rng.randint(0, 6)) for _ in range(16)]
        b = [rng.randint(0, 6) + 0.5 for _ in range(16)]
        for alt in ("less", "greater", "two_sided"):
            assert wilcoxon_signed_rank(a, b, alternative=alt, mode="exact") == ref_wilcoxon(
                a, b, alt
            )

    def test_exact_at_40_agrees_with_approx(self):
        # 2^40 sign assignments: counted per rank sum, not enumerated
        rng = random.Random(40)
        for shift in (0.0, 0.3, 1.0):
            a = [rng.gauss(shift, 1.0) for _ in range(40)]
            b = [rng.gauss(0.0, 1.0) for _ in range(40)]
            for alt in ("less", "greater", "two_sided"):
                exact = wilcoxon_signed_rank(a, b, alternative=alt, mode="exact")
                approx = wilcoxon_signed_rank(a, b, alternative=alt, mode="approx")
                assert abs(exact - approx) < 0.02

    def test_large_n_uses_approximation(self):
        rng = random.Random(3)
        a = [rng.uniform(0, 10) + 5.0 for _ in range(40)]
        b = [rng.uniform(0, 10) for _ in range(40)]
        p = wilcoxon_signed_rank(a, b, alternative="greater")
        assert 0.0 < p < 0.05
        assert p == wilcoxon_signed_rank(a, b, alternative="greater", mode="approx")

    def test_validation(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0] * 5, [2.0] * 5, alternative="bogus")
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0] * 5, [2.0] * 4)
        with pytest.raises(TooFewPairs):
            wilcoxon_signed_rank([1.0, 2.0], [0.0, 0.0])

    @pytest.mark.parametrize("mode", ["auto", "exact", "approx"])
    def test_nan_difference_rejected(self, mode):
        # inf - inf is NaN, which passes the zero filter but has no rank
        inf = math.inf
        with pytest.raises(ValueError, match="NaN"):
            wilcoxon_signed_rank([inf] * 8, [inf] * 8, alternative="less", mode=mode)
        a = [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, math.nan]
        with pytest.raises(ValueError, match="NaN"):
            wilcoxon_signed_rank(a, [1.0] * 7, mode=mode)
