import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbsd.core import (
    ForecastOutput,
    QbsdConfig,
    Quartiles,
    compute_quartiles,
    compute_residuals,
    contingency_constant,
    interpolated_percentile,
    qbsd_step,
)
from qbsd.errors import ConfigError, DataError, EmptyInput, InsufficientHistory, InvalidConstant
from qbsd.timegrid import DAILY, HOURLY, default_weekly_scheme, weekly_plus_yearly_scheme


def ref_percentile(values, fraction):
    """Brute-force interpolated percentile: position fraction*(n-1) on the
    sorted sample, written independently of the implementation."""
    ordered = sorted(values)
    n = len(ordered)
    pos = fraction * (n - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return float(ordered[lo])
    return ordered[lo] * (hi - pos) + ordered[hi] * (pos - lo)


def step(values, cfg):
    """``qbsd_step`` over the values sorted as floats, from a subset two
    samples larger than the values present."""
    return qbsd_step(sorted(float(v) for v in values), len(values) + 2, cfg)


SCHEME = default_weekly_scheme(4, 1, DAILY)


class TestQuartiles:
    def test_nine_point_sample(self):
        q = compute_quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9])
        assert q.q1 == 3 and q.q3 == 7 and q.iqr == 4

    def test_constant_sample(self):
        q = compute_quartiles([5, 5, 5, 5])
        assert q.q1 == 5 and q.q3 == 5 and q.iqr == 0

    def test_interpolated_positions(self):
        q = compute_quartiles([1, 2, 3, 4])
        assert q.q1 == pytest.approx(1.75, abs=1e-12)
        assert q.q3 == pytest.approx(3.25, abs=1e-12)
        assert q.iqr == pytest.approx(1.5, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            compute_quartiles([])

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(1234)
        for _ in range(1000):
            n = rng.randint(1, 100)
            if rng.random() < 0.3:
                # adversarial duplicates from a tiny value pool
                values = [rng.choice([0.0, 1.0, 2.5]) for _ in range(n)]
            else:
                values = [rng.uniform(-1e3, 1e3) for _ in range(n)]
            got = compute_quartiles(values)
            assert got.q1 == pytest.approx(ref_percentile(values, 0.25), abs=1e-12)
            assert got.q3 == pytest.approx(ref_percentile(values, 0.75), abs=1e-12)

    def test_interpolated_percentile_bounds(self):
        with pytest.raises(ValueError):
            interpolated_percentile([1.0], 1.5)
        assert interpolated_percentile([3.0, 1.0, 2.0], 0.0) == 1.0
        assert interpolated_percentile([3.0, 1.0, 2.0], 1.0) == 3.0

    def test_interpolated_percentile_of_nothing_rejected(self):
        with pytest.raises(EmptyInput, match=r"^percentile of an empty sample$"):
            interpolated_percentile([], 0.5)

    def test_q1_above_q3_rejected(self):
        with pytest.raises(ValueError, match=r"^q1 \(2\.0\) must not exceed q3 \(1\.0\)$"):
            Quartiles(2.0, 1.0)


class TestForecastFromSubset:
    """The forecast of ``qbsd_step`` over a subset's sorted values."""

    CFG = QbsdConfig(scheme=SCHEME, c=1.0, min_samples=3)

    def test_interior_mean(self):
        fo = qbsd_step(list(range(1, 10)), 9, self.CFG)
        assert fo.forecast == 5.0
        assert fo.fallback_used is False

    def test_constant_falls_back_to_median(self):
        fo = qbsd_step([7.5] * 6, 6, self.CFG)
        assert fo.forecast == 7.5
        assert fo.fallback_used is True

    def test_four_point_interior(self):
        fo = qbsd_step([1, 2, 3, 4], 4, self.CFG)
        assert fo.forecast == 2.5
        assert fo.fallback_used is False

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
    def test_forecast_bounded_by_sample_extremes(self, values):
        if len(values) < self.CFG.min_samples:
            with pytest.raises(InsufficientHistory):
                qbsd_step(sorted(values), 60, self.CFG)
            return
        fo = qbsd_step(sorted(values), 60, self.CFG)
        assert min(values) <= fo.forecast <= max(values)


class TestResiduals:
    FO = ForecastOutput(forecast=5.0, q1=3.0, q3=7.0, iqr=4.0, sample_count=9, fallback_used=False)

    def test_zero_when_actual_matches(self):
        r = compute_residuals(5.0, self.FO, c=1.0)
        assert r.difference == 0.0 and r.normalized == 0.0

    def test_direct_formula(self):
        r = compute_residuals(10.0, self.FO, c=1.0)
        assert r.difference == 5.0
        assert r.normalized == 1.25

    def test_constant_guards_zero_iqr(self):
        fo = ForecastOutput(5.0, 5.0, 5.0, 0.0, 9, True)
        r = compute_residuals(10.0, fo, c=2.0)
        assert r.difference == 5.0
        assert r.normalized == 2.5

    def test_nonpositive_constant_rejected(self):
        with pytest.raises(InvalidConstant):
            compute_residuals(1.0, self.FO, c=0.0)
        with pytest.raises(InvalidConstant):
            compute_residuals(1.0, self.FO, c=-3.0)


class TestContingencyConstant:
    def test_floor_applies_on_zero_data(self):
        assert contingency_constant([0.0] * 50, floor=1.0) == 1.0

    def test_percentile_of_ramp(self):
        values = [float(v) for v in range(1001)]
        assert contingency_constant(values, floor=1e-6) == 10.0

    def test_absolute_value_of_percentile(self):
        assert contingency_constant([-50.0] * 20, floor=1.0) == 50.0

    def test_overflow_is_a_data_error(self):
        with pytest.raises(DataError, match="overflows to inf"):
            contingency_constant([-1e308] + [1e308] * 50, floor=1.0)
        with pytest.raises(InvalidConstant, match="floor must be finite"):
            contingency_constant([1.0], floor=math.inf)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 400).flatmap(
            lambda n: st.lists(
                st.one_of(
                    st.sampled_from([0.0, -0.0, 2.5, -2.5, math.inf, -math.inf]),
                    st.floats(-1e6, 1e6),
                ),
                min_size=n,
                max_size=n,
            )
        ),
        st.sampled_from([1e-6, 1.0]),
    )
    def test_matches_percentile_of_full_sort(self, values, floor):
        """Selecting the few smallest values gives the constant that sorting
        them all gives, bit for bit, with ties, signed zeros and infinities."""
        expected = max(abs(interpolated_percentile(values, 0.01)), floor)
        if expected == math.inf:
            with pytest.raises(DataError):
                contingency_constant(values, floor)
        else:
            assert repr(contingency_constant(values, floor)) == repr(expected)

    def test_errors(self):
        with pytest.raises(EmptyInput):
            contingency_constant([], floor=1.0)
        with pytest.raises(InvalidConstant):
            contingency_constant([1.0], floor=0.0)


class TestQbsdStep:
    def test_full_subset(self):
        cfg = QbsdConfig(scheme=SCHEME, c=1.0, min_samples=4)
        out = step(range(1, 10), cfg)
        assert out == ForecastOutput(5.0, 3.0, 7.0, 4.0, 9, False)

    def test_below_threshold(self):
        cfg = QbsdConfig(scheme=SCHEME, c=1.0, min_samples=4)
        with pytest.raises(InsufficientHistory):
            step([1.0, 2.0], cfg)

    def test_constant_subset(self):
        cfg = QbsdConfig(scheme=SCHEME, c=1.0, min_samples=4)
        out = step([3.25] * 7, cfg)
        assert out == ForecastOutput(3.25, 3.25, 3.25, 0.0, 7, True)

    def test_config_validation(self):
        with pytest.raises(InvalidConstant):
            QbsdConfig(scheme=SCHEME, c=0.0)
        with pytest.raises(ConfigError):
            QbsdConfig(scheme=SCHEME, min_samples=2)
        # weekly4 at k=1 draws 9 samples; a threshold above that is never met
        nine = default_weekly_scheme(4, 1, HOURLY)
        assert QbsdConfig(scheme=nine, min_samples=9).min_samples == 9
        with pytest.raises(ConfigError, match="^min_samples 100 is above the scheme's "
                           "subset size of 9 samples"):
            QbsdConfig(scheme=nine, min_samples=100)
        # weekly_plus_yearly at k=0 draws 2 samples, below the least default
        with pytest.raises(ConfigError, match="^the default min_samples of 3 is above "
                           "the scheme's subset size of 2 samples"):
            QbsdConfig(scheme=weekly_plus_yearly_scheme(0, HOURLY))
        assert QbsdConfig(scheme=SCHEME).k == 1

    @pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_constant_rejected(self, c):
        with pytest.raises(InvalidConstant, match="must be finite and > 0"):
            QbsdConfig(scheme=SCHEME, c=c)

    def test_interior_mean_adds_left_to_right(self):
        """Ten 0.1s between Q1 = 0.05 and Q3 = 1.0 add to 0.9999999999999999
        left to right; the compensated sum() of 3.12 and later gives 1.0. The
        forecast is the same float on every Python."""
        ordered = [0.0] * 7 + [0.1] * 10 + [1.0] * 10
        cfg = QbsdConfig(scheme=default_weekly_scheme(4, 4, HOURLY))
        out = qbsd_step(ordered, len(ordered), cfg)
        assert (out.q1, out.q3, out.fallback_used) == (0.05, 1.0, False)
        assert repr(out.forecast) == "0.09999999999999999"



# Equivariance is exact over the reals; the strategies stick to domains where
# float arithmetic is exact too (integer values/shifts, power-of-two scales)
# so strict-interior membership cannot flip on rounding noise.


@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(st.integers(-10**6, 10**6), min_size=4, max_size=40),
    shift=st.integers(-10**6, 10**6),
)
def test_shift_equivariance(values, shift):
    cfg = QbsdConfig(scheme=SCHEME, c=1.0, min_samples=4)
    base = step(values, cfg)
    moved = step([v + shift for v in values], cfg)
    assert moved.forecast == pytest.approx(base.forecast + shift, abs=1e-7)
    assert moved.q1 == pytest.approx(base.q1 + shift, abs=1e-9)
    assert moved.q3 == pytest.approx(base.q3 + shift, abs=1e-9)
    assert moved.iqr == pytest.approx(base.iqr, abs=1e-9)
    assert moved.fallback_used == base.fallback_used


@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(st.integers(-10**6, 10**6), min_size=4, max_size=40),
    log2_scale=st.integers(-10, 10),
    actual=st.integers(-10**6, 10**6),
)
def test_scale_equivariance(values, log2_scale, actual):
    scale = 2.0**log2_scale
    cfg = QbsdConfig(scheme=SCHEME, c=1.0, min_samples=4)
    base = step(values, cfg)
    scaled = step([v * scale for v in values], cfg)
    assert scaled.forecast == base.forecast * scale
    assert scaled.q1 == base.q1 * scale
    assert scaled.q3 == base.q3 * scale
    assert scaled.iqr == base.iqr * scale
    # normalized residual is invariant when c scales along with the data
    r_base = compute_residuals(actual, base, c=1.0)
    r_scaled = compute_residuals(actual * scale, scaled, c=scale)
    assert r_scaled.normalized == pytest.approx(r_base.normalized, rel=1e-12)
    assert math.isfinite(r_scaled.normalized)
