import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbsd.errors import InvalidWindow, SeriesTooShort
from qbsd.smoothing import (
    MAX_SAVGOL_POLYORDER,
    MAX_SAVGOL_WINDOW,
    MovingAverage,
    SavitzkyGolay,
    StreamingSmoother,
    savgol_coefficients,
    smooth,
)


@functools.cache
def exact_rows(window_length, polyorder):
    """Every row of the exact hat matrix, by the normal equations in
    rational arithmetic: solve (A^T A) C = A^T for the coefficient matrix C;
    row p is the fitted polynomial at offset p - half, sum_i x^i C[i]."""
    half = window_length // 2
    offsets = range(-half, half + 1)
    a = [[Fraction(x) ** p for p in range(polyorder + 1)] for x in offsets]
    m = polyorder + 1
    ata = [
        [sum(a[r][i] * a[r][j] for r in range(window_length)) for j in range(m)]
        for i in range(m)
    ]
    at = [[a[r][i] for r in range(window_length)] for i in range(m)]
    # Gauss-Jordan on [ata | at]
    aug = [ata[i] + at[i] for i in range(m)]
    for col in range(m):
        pivot = next(r for r in range(col, m) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    coef = [row[m:] for row in aug]
    return [
        [sum(a[p][i] * coef[i][j] for i in range(m)) for j in range(window_length)]
        for p in range(window_length)
    ]


def float_rows(window_length, polyorder):
    return [[float(w) for w in row] for row in exact_rows(window_length, polyorder)]


# A batch implementation independent of the streamer, its reference: the
# exact rows rounded to floats and dotted by fsum, which is correctly
# rounded, so any correct implementation gives these floats to the last
# bit; and a clipped moving-average loop over fsum means.
def _ma_bounds(window: int) -> tuple[int, int]:
    left = window // 2
    return left, window - 1 - left


def reference_smooth(series, spec) -> list[float]:
    values = [float(v) for v in series]
    if spec is None:
        return values
    n = len(values)
    if isinstance(spec, MovingAverage):
        w = spec.window
        if n < w:
            raise SeriesTooShort(f"series of {n} points is shorter than window {w}")
        left, right = _ma_bounds(w)
        out = []
        for i in range(n):
            chunk = values[max(0, i - left) : min(n, i + right + 1)]
            out.append(math.fsum(chunk) / len(chunk))
        return out
    wl = spec.window_length
    if n < wl:
        raise SeriesTooShort(f"series of {n} points is shorter than window {wl}")
    half = wl // 2
    rows = float_rows(wl, spec.polyorder)

    def dot(row, window):
        return math.fsum(w * v for w, v in zip(row, window))

    return (
        [dot(rows[p], values[:wl]) for p in range(half)]
        + [dot(rows[half], values[i - half : i + half + 1]) for i in range(half, n - half)]
        + [dot(rows[p], values[n - wl :]) for p in range(half + 1, wl)]
    )


class TestCoefficients:
    def test_classic_5_2(self):
        got = savgol_coefficients(5, 2)
        expected = [-3 / 35, 12 / 35, 17 / 35, 12 / 35, -3 / 35]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_linear_3_point_is_mean(self):
        assert savgol_coefficients(3, 1) == pytest.approx([1 / 3] * 3, abs=1e-12)

    def test_interpolating_window_is_identity(self):
        assert savgol_coefficients(5, 4) == pytest.approx(
            [0, 0, 1, 0, 0], abs=1e-9
        )

    @pytest.mark.parametrize("wl,p", [(5, 2), (7, 3), (9, 2), (11, 3)])
    def test_matches_rational_oracle(self, wl, p):
        got = savgol_coefficients(wl, p)
        want = [float(w) for w in exact_rows(wl, p)[wl // 2]]
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("wl,p", [(5, 2), (11, 3), (21, 19), (25, 14)])
    def test_every_weight_is_the_exact_weight_rounded(self, wl, p):
        """Smoothing the unit vector e_j over one window gives column j of
        the weight table, edge rows included: each weight times 1.0, plus
        zeros, summed exactly."""
        want = float_rows(wl, p)
        assert savgol_coefficients(wl, p) == want[wl // 2]
        for j in range(wl):
            unit = [float(i == j) for i in range(wl)]
            assert smooth(unit, SavitzkyGolay(wl, p)) == [row[j] for row in want]

    def test_weights_sum_to_one(self):
        for wl, p in [(5, 2), (7, 3), (11, 3), (21, 5), (21, 19)]:
            assert math.fsum(savgol_coefficients(wl, p)) == pytest.approx(1.0, abs=1e-12)

    def test_table_size_is_capped(self):
        assert MAX_SAVGOL_WINDOW == 101 and MAX_SAVGOL_POLYORDER == 20
        SavitzkyGolay(101, 20)  # the largest table accepted
        with pytest.raises(InvalidWindow, match="window_length must be at most 101, got 103"):
            SavitzkyGolay(103, 3)
        with pytest.raises(InvalidWindow, match="polyorder must be at most 20, got 21"):
            SavitzkyGolay(23, 21)
        with pytest.raises(InvalidWindow, match="at most 101"):
            savgol_coefficients(201, 150)

    def test_coefficients_are_a_fresh_list(self):
        savgol_coefficients(5, 2)[0] = 99.0
        assert savgol_coefficients(5, 2)[0] == -3 / 35

    def test_validation(self):
        with pytest.raises(InvalidWindow):
            savgol_coefficients(4, 2)
        with pytest.raises(InvalidWindow):
            savgol_coefficients(5, 5)
        with pytest.raises(InvalidWindow):
            SavitzkyGolay(4, 2)
        with pytest.raises(InvalidWindow, match="odd integer >= 3, got 1"):
            SavitzkyGolay(1, 0)
        with pytest.raises(InvalidWindow, match="0 <= polyorder < window_length, got -1"):
            SavitzkyGolay(5, -1)
        with pytest.raises(InvalidWindow):
            MovingAverage(0)


class TestSmooth:
    def test_polynomial_reproduced_including_edges(self):
        for coeffs in ([2.0], [1.0, -3.0], [0.5, 1.0, -0.25], [1.0, 0.0, 2.0, -0.1]):
            series = [math.fsum(c * x**p for p, c in enumerate(coeffs)) for x in range(40)]
            out = smooth(series, SavitzkyGolay(11, 3))
            assert max(abs(a - b) for a, b in zip(out, series)) < 1e-9

    def test_constant_preserved(self):
        series = [7.25] * 30
        for spec in (SavitzkyGolay(11, 3), MovingAverage(5), MovingAverage(4)):
            assert smooth(series, spec) == pytest.approx(series, abs=1e-12)

    def test_moving_average_window_one_is_identity(self):
        series = [1.0, 5.0, -2.0, 8.0]
        assert smooth(series, MovingAverage(1)) == series

    def test_none_is_identity(self):
        series = [1.0, 2.0, 3.0]
        assert smooth(series, None) == series

    def test_moving_average_values(self):
        out = smooth([1.0, 2.0, 3.0, 4.0, 5.0], MovingAverage(3))
        assert out == pytest.approx([1.5, 2.0, 3.0, 4.0, 4.5])

    def test_moving_average_sums_left_to_right(self):
        # [1e16, 1.0, -1e16] sums to 0.0 left to right; a compensated sum
        # (the built-in sum() from Python 3.12 on) gives 1.0. The windows are
        # the head's two, one full window and the tail's one.
        series = [0.0, 1e16, 1.0, -1e16]
        windows = [series[:2], series[:3], series[1:], series[2:]]
        means = []
        for window in windows:
            total = 0.0
            for v in window:
                total += v
            means.append(total / len(window))
        assert smooth(series, MovingAverage(3)) == means
        assert means[2] == 0.0

    def test_length_never_changes(self):
        rng = random.Random(0)
        series = [rng.gauss(0.0, 1.0) for _ in range(37)]
        for spec in (SavitzkyGolay(11, 3), SavitzkyGolay(5, 2), MovingAverage(6), None):
            assert len(smooth(series, spec)) == len(series)

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            smooth([1.0, 2.0], SavitzkyGolay(5, 2))
        with pytest.raises(SeriesTooShort):
            smooth([1.0, 2.0], MovingAverage(3))

    def test_savgol_matches_three_point_moving_average(self):
        rng = random.Random(3)
        series = [rng.gauss(0.0, 1.0) for _ in range(25)]
        sg = smooth(series, SavitzkyGolay(3, 1))
        ma = smooth(series, MovingAverage(3))
        # identical in the interior; edges differ by design (poly fit vs clip)
        assert sg[1:-1] == pytest.approx(ma[1:-1], abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(st.floats(-1e3, 1e3), min_size=11, max_size=60),
    spec=st.sampled_from(
        [SavitzkyGolay(11, 3), SavitzkyGolay(5, 2), MovingAverage(4), MovingAverage(7)]
    ),
)
def test_streaming_matches_batch(data, spec):
    batch = reference_smooth(data, spec)
    streamer = StreamingSmoother(spec)
    got = []
    for value in data:
        got.extend(streamer.push(value))
    got.extend(streamer.finish())
    if isinstance(spec, SavitzkyGolay):
        assert got == batch
    else:
        assert got == pytest.approx(batch, abs=1e-12)
    assert smooth(data, spec) == got


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=80),
    spec=st.sampled_from(
        [SavitzkyGolay(3, 1), SavitzkyGolay(5, 2), SavitzkyGolay(11, 3),
         SavitzkyGolay(17, 4), SavitzkyGolay(33, 2), SavitzkyGolay(21, 19),
         SavitzkyGolay(25, 14)]
    ),
)
def test_streaming_savgol_is_exact_reference(data, spec):
    """Each push returns nothing before a full window, then the first half
    window and its centre, then one value; with finish() they equal, to the
    last bit, the exact rows rounded to floats and dotted by fsum."""
    wl = spec.window_length
    streamer = StreamingSmoother(spec)
    got = []
    for i, value in enumerate(data):
        out = streamer.push(value)
        assert len(out) == (0 if i + 1 < wl else wl // 2 + 1 if i + 1 == wl else 1)
        got.extend(out)
    if len(data) < wl:
        with pytest.raises(SeriesTooShort):
            streamer.finish()
        return
    got.extend(streamer.finish())
    assert got == reference_smooth(data, spec)


@pytest.mark.parametrize(
    "spec", [SavitzkyGolay(MAX_SAVGOL_WINDOW, MAX_SAVGOL_POLYORDER), MovingAverage(101)]
)
def test_largest_window_over_a_long_segment(spec):
    """About 400 steady-state pushes, each dropping the oldest value of a
    full 101-value window, then the tail: Savitzky-Golay equals the
    reference to the last bit, the moving average to rounding."""
    rng = random.Random(101)
    data = [rng.uniform(-1e3, 1e3) for _ in range(500)]
    got = smooth(data, spec)
    if isinstance(spec, SavitzkyGolay):
        assert got == reference_smooth(data, spec)
    else:
        assert got == pytest.approx(reference_smooth(data, spec), abs=1e-12)


def test_windows_fsum_rejects_do_not_raise():
    """fsum raises on inf + -inf; such a window sums to nan."""
    out = smooth([math.inf, -math.inf] * 6, SavitzkyGolay(5, 2))
    assert len(out) == 12 and all(math.isnan(v) for v in out)


def test_overflowing_partial_sums_give_the_exact_sum():
    """fsum raises when a partial sum of finite products leaves the float
    range; such a window gets the exact sum of the same products, rounded
    once, which is finite here in every cell."""
    values = [1.7e308] * 12
    rows = float_rows(11, 3)

    def exact_dot(row, window):
        return float(sum(Fraction(w * v) for w, v in zip(row, window)))

    expected = (
        [exact_dot(rows[p], values[:11]) for p in range(5)]
        + [exact_dot(rows[5], values[i - 5 : i + 6]) for i in (5, 6)]
        + [exact_dot(rows[p], values[1:]) for p in range(6, 11)]
    )
    out = smooth(values, SavitzkyGolay(11, 3))
    assert all(math.isfinite(v) for v in out)
    assert out == expected


def test_out_of_range_exact_sum_is_signed_inf():
    """The first row of a 5-point line fit weighs (3, 2, 1, 0, -1) / 5: on
    (M, M, M, 0, -M) it sums to 1.4 M, beyond the float range for M = 1.7e308,
    so that cell is inf, and -inf on the negated window; the second row's
    exact sum, 0.9 M, stays finite. An inf product decides its cell whatever
    the finite ones sum to: -inf, where a left-to-right sum gives nan."""
    m = 1.7e308
    assert smooth([m, m, m, 0.0, -m], SavitzkyGolay(5, 1))[:2] == [math.inf, 1.53e308]
    assert smooth([-m, -m, -m, 0.0, m], SavitzkyGolay(5, 1))[:2] == [-math.inf, -1.53e308]
    assert smooth([m, m, m, 0.0, math.inf], SavitzkyGolay(5, 1))[0] == -math.inf


def test_streaming_too_short():
    streamer = StreamingSmoother(SavitzkyGolay(5, 2))
    assert streamer.push(1.0) == []
    with pytest.raises(SeriesTooShort):
        streamer.finish()
