from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbsd.errors import InvalidWindow, SeriesTooShort
from qbsd.smoothing import (
    MovingAverage,
    SavitzkyGolay,
    StreamingSmoother,
    savgol_coefficients,
    smooth,
)


def ref_savgol_weights(window_length, polyorder):
    """Exact least-squares weights via the normal equations in rational
    arithmetic: solve (A^T A) C = A^T for the coefficient matrix C, whose
    row 0 gives the fitted value at the window center."""
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
    return [aug[0][m + j] for j in range(window_length)]


# A batch implementation independent of the streamer, its reference:
# np.correlate in the interior, its own edge fits and a clipped
# moving-average loop over numpy means.
def _edge_poly(window_values: np.ndarray, polyorder: int):
    xs = np.arange(len(window_values), dtype=float)
    return np.polynomial.Polynomial.fit(xs, window_values, polyorder)


def _ma_bounds(window: int) -> tuple[int, int]:
    left = window // 2
    return left, window - 1 - left


def reference_smooth(series, spec) -> np.ndarray:
    arr = np.asarray(series, dtype=float)
    if spec is None:
        return arr.copy()
    n = arr.size
    if isinstance(spec, MovingAverage):
        w = spec.window
        if n < w:
            raise SeriesTooShort(f"series of {n} points is shorter than window {w}")
        left, right = _ma_bounds(w)
        out = np.empty(n)
        for i in range(n):
            chunk = arr[max(0, i - left) : min(n, i + right + 1)]
            out[i] = chunk.mean()
        return out
    wl = spec.window_length
    if n < wl:
        raise SeriesTooShort(f"series of {n} points is shorter than window {wl}")
    half = wl // 2
    weights = savgol_coefficients(wl, spec.polyorder)
    out = np.empty(n)
    out[half : n - half] = np.correlate(arr, weights, mode="valid")
    head = _edge_poly(arr[:wl], spec.polyorder)
    out[:half] = head(np.arange(half, dtype=float))
    tail = _edge_poly(arr[n - wl :], spec.polyorder)
    out[n - half :] = tail(np.arange(wl - half, wl, dtype=float))
    return out


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
        want = [float(w) for w in ref_savgol_weights(wl, p)]
        assert got == pytest.approx(want, abs=1e-12)

    def test_weights_sum_to_one(self):
        for wl, p in [(5, 2), (7, 3), (11, 3), (21, 5)]:
            assert savgol_coefficients(wl, p).sum() == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidWindow):
            savgol_coefficients(4, 2)
        with pytest.raises(InvalidWindow):
            savgol_coefficients(5, 5)
        with pytest.raises(InvalidWindow):
            SavitzkyGolay(4, 2)
        with pytest.raises(InvalidWindow):
            MovingAverage(0)


class TestSmooth:
    def test_polynomial_reproduced_including_edges(self):
        xs = np.arange(40, dtype=float)
        for coeffs in ([2.0], [1.0, -3.0], [0.5, 1.0, -0.25], [1.0, 0.0, 2.0, -0.1]):
            series = np.polynomial.polynomial.polyval(xs, coeffs)
            out = smooth(series, SavitzkyGolay(11, 3))
            assert np.abs(out - series).max() < 1e-9

    def test_constant_preserved(self):
        series = [7.25] * 30
        for spec in (SavitzkyGolay(11, 3), MovingAverage(5), MovingAverage(4)):
            assert smooth(series, spec) == pytest.approx(series, abs=1e-12)

    def test_moving_average_window_one_is_identity(self):
        series = [1.0, 5.0, -2.0, 8.0]
        assert smooth(series, MovingAverage(1)).tolist() == series

    def test_none_is_identity(self):
        series = [1.0, 2.0, 3.0]
        assert smooth(series, None).tolist() == series

    def test_moving_average_values(self):
        out = smooth([1.0, 2.0, 3.0, 4.0, 5.0], MovingAverage(3))
        assert out == pytest.approx([1.5, 2.0, 3.0, 4.0, 4.5])

    def test_length_never_changes(self):
        rng = np.random.default_rng(0)
        series = rng.normal(size=37)
        for spec in (SavitzkyGolay(11, 3), SavitzkyGolay(5, 2), MovingAverage(6), None):
            assert smooth(series, spec).shape == series.shape

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            smooth([1.0, 2.0], SavitzkyGolay(5, 2))
        with pytest.raises(SeriesTooShort):
            smooth([1.0, 2.0], MovingAverage(3))

    def test_savgol_matches_three_point_moving_average(self):
        rng = np.random.default_rng(3)
        series = rng.normal(size=25)
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
    assert got == pytest.approx(batch.tolist(), abs=1e-12)
    assert smooth(data, spec).tolist() == got


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=80),
    spec=st.sampled_from(
        [SavitzkyGolay(3, 1), SavitzkyGolay(5, 2), SavitzkyGolay(11, 3),
         SavitzkyGolay(17, 4), SavitzkyGolay(33, 2)]
    ),
)
def test_streaming_interior_is_exact_dot(data, spec):
    """Each interior value equals, to the last bit, the weights dotted with
    an array of the last window_length values."""
    wl = spec.window_length
    weights = savgol_coefficients(wl, spec.polyorder)
    streamer = StreamingSmoother(spec)
    for i, value in enumerate(data):
        out = streamer.push(value)
        if i + 1 < wl:
            assert out == []
            continue
        expected = float(np.dot(weights, np.array(data[i + 1 - wl : i + 1])))
        assert out[-1] == expected


def test_streaming_too_short():
    streamer = StreamingSmoother(SavitzkyGolay(5, 2))
    assert streamer.push(1.0) == []
    with pytest.raises(SeriesTooShort):
        streamer.finish()
