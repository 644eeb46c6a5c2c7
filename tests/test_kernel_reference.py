"""``qbsd_step`` and ``compute_residuals`` pinned bit for bit against the
kernel's formulas written out here: type-7 percentiles at 0.25, 0.75 and
0.5, the bisect interior mean added left to right, the median fallback,
keyword construction and ``max(iqr, c)``. Every float field is compared by
``repr``, so a change of sign on a zero, a NaN where a number was, or one
ulp of difference fails."""

import math
import random
from bisect import bisect_left, bisect_right

from qbsd import core
from qbsd.core import ForecastOutput, QbsdConfig, Residuals, compute_residuals, qbsd_step
from qbsd.core import compute_quartiles, interpolated_percentile
from qbsd.datasets import replay
from qbsd.engine import RollingForecaster
from qbsd.errors import DataError, InsufficientHistory, InvalidConstant
from qbsd.timegrid import HOURLY, weekly_plus_yearly_scheme
from qbsd.timegrid import default_weekly_scheme

INF, NAN = math.inf, math.nan


def ref_percentile(ordered, fraction):
    pos = fraction * (len(ordered) - 1)
    lo = int(pos)
    rem = pos - lo
    if rem == 0.0:
        return float(ordered[lo])
    return ordered[lo] + rem * (ordered[lo + 1] - ordered[lo])


def ref_step(ordered, requested_size, min_samples):
    present = len(ordered)
    if present < min_samples:
        raise InsufficientHistory(f"{present} of {requested_size}")
    q1 = ref_percentile(ordered, 0.25)
    q3 = ref_percentile(ordered, 0.75)
    if q1 > q3:
        raise DataError(f"q1 ({q1}) must not exceed q3 ({q3})")
    lo = bisect_right(ordered, q1)
    hi = bisect_left(ordered, q3, lo)
    if lo < hi:
        total = 0.0
        for value in ordered[lo:hi]:  # left to right, not sum()'s compensated total
            total += value
        forecast, fallback_used = total / (hi - lo), False
    else:
        forecast, fallback_used = ref_percentile(ordered, 0.5), True
    return ForecastOutput(
        forecast=forecast,
        q1=q1,
        q3=q3,
        iqr=q3 - q1,
        sample_count=present,
        fallback_used=fallback_used,
    )


def ref_residuals(actual, fo, c):
    if not c > 0:
        raise InvalidConstant(f"contingency constant must be > 0, got {c}")
    difference = actual - fo.forecast
    return Residuals(difference=difference, normalized=difference / max(fo.iqr, c))


def outcome(fn, *args):
    """What a call gives, as comparable text: the repr of every float field
    and the exact ints and bools, or the exception type."""
    try:
        out = fn(*args)
    except Exception as exc:
        return type(exc)
    if isinstance(out, Residuals):
        return repr(out.difference), repr(out.normalized)
    return (repr(out.forecast), repr(out.q1), repr(out.q3), repr(out.iqr),
            out.sample_count, out.fallback_used)


def subsets():
    """Sorted subsets, n = 3..70, of every kind the kernel meets."""
    rng = random.Random(20230609)
    specials = [0.0, -0.0, NAN, INF, -INF, 1e308, -1e308, 5e-324]
    for n in range(3, 71):
        yield [rng.gauss(100.0, 30.0) for _ in range(n)]
        yield [float(rng.randint(0, 3)) for _ in range(n)]  # ties
        yield [rng.choice([0.0, -0.0, 1.0, -1.0]) for _ in range(n)]
        yield [2.5] * n  # constant: the fallback
        yield [rng.choice([1.0, 2.0]) for _ in range(n)]  # two-valued
        yield [rng.choice([rng.uniform(-5.0, 5.0), rng.choice(specials)])
               for _ in range(n)]
        yield [rng.uniform(-1e-300, 1e-300) for _ in range(n)]
        mixed = [rng.uniform(0.0, 10.0) for _ in range(n)]
        mixed[rng.randrange(n)] = rng.choice([NAN, INF, -INF])
        yield mixed


CONFIGS = [
    QbsdConfig(scheme=weekly_plus_yearly_scheme(16, HOURLY), c=1.0, min_samples=m)
    for m in (3, 5, 40)
]


def test_qbsd_step_matches_the_reference_bit_for_bit():
    seen = {"fallback": 0, "interior": 0, DataError: 0, InsufficientHistory: 0}
    cases = 0
    for values in subsets():
        ordered = sorted(values)
        for cfg in CONFIGS:
            got = outcome(qbsd_step, ordered, 66, cfg)
            want = outcome(ref_step, ordered, 66, cfg.min_samples)
            assert got == want, (ordered, cfg.min_samples)
            if isinstance(want, tuple):
                seen["fallback" if want[5] else "interior"] += 1
            else:
                seen[want] += 1
            cases += 1
    assert cases > 1500
    assert all(count > 0 for count in seen.values()), seen


def residual_cases():
    """(actual, ForecastOutput, c) covering an IQR that is NaN, equal to c,
    below c and above it, with non-finite and signed-zero actuals."""
    rng = random.Random(1306)
    actuals = [0.0, -0.0, 3.25, -7.5, 1e308, -1e308, INF, -INF, NAN]
    for values in subsets():
        ordered = sorted(values)
        try:
            fo = qbsd_step(ordered, 66, CONFIGS[0])
        except (DataError, InsufficientHistory):
            continue
        iqr = fo.iqr
        cs = [1.0, 1, 1e-6, 2.0 * abs(iqr) + 1.0 if iqr == iqr else 1.0]
        if iqr > 0:
            cs += [iqr, iqr / 2.0, math.nextafter(iqr, INF), math.nextafter(iqr, 0.0)]
        for c in cs:
            yield rng.choice(actuals + [rng.gauss(0.0, 50.0)]), fo, c
    for iqr in (NAN, 0.0, 1.0, 4.0, INF):
        fo = ForecastOutput(2.0, 1.0, 1.0 + iqr, iqr, 9, False)
        for c in (1.0, 1, 4.0, 0.5, INF):
            for actual in actuals:
                yield actual, fo, c
    nan_fo = ForecastOutput(NAN, NAN, NAN, NAN, 9, False)
    for c in (0.0, -0.0, -1.0, NAN, -INF, 1.0):  # the first five are rejected
        yield 1.0, nan_fo, c


def test_compute_residuals_matches_the_reference_bit_for_bit():
    seen = {"nan iqr": 0, "iqr == c": 0, "iqr < c": 0, "iqr > c": 0, "rejected": 0}
    for actual, fo, c in residual_cases():
        got = outcome(compute_residuals, actual, fo, c)
        want = outcome(ref_residuals, actual, fo, c)
        assert got == want, (actual, fo, c)
        if want is InvalidConstant:
            seen["rejected"] += 1
            continue
        iqr = fo.iqr
        seen["nan iqr" if iqr != iqr else "iqr == c" if iqr == c
             else "iqr < c" if iqr < c else "iqr > c"] += 1
    assert all(count > 0 for count in seen.values()), seen



def test_qbsd_step_matches_the_reference_cold_and_planned(monkeypatch):
    """Counts 3..70, each twice, in shuffled order against an empty plan
    table: a count's first subset reads positions planned on that call,
    the others read them from the table."""
    monkeypatch.setattr(core, "_PLANS", {})
    rng = random.Random(370)
    counts = list(range(3, 71)) * 2
    rng.shuffle(counts)
    seen = {"cold": 0, "planned": 0, "fallback": 0, "interior": 0}
    for n in counts:
        kinds = [
            [rng.gauss(100.0, 30.0) for _ in range(n)],
            [float(rng.randint(0, 3)) for _ in range(n)],
            [rng.choice([1.0, 2.0]) for _ in range(n)],  # two-valued: the fallback
            [rng.choice([0.0, -0.0, 1e308, -1e308, INF]) for _ in range(n)],
        ]
        rng.shuffle(kinds)
        for values in kinds:
            seen["planned" if n in core._PLANS else "cold"] += 1
            ordered = sorted(values)
            want = outcome(ref_step, ordered, 66, 3)
            assert outcome(qbsd_step, ordered, 66, CONFIGS[0]) == want, ordered
            if isinstance(want, tuple):
                seen["fallback" if want[5] else "interior"] += 1
    assert sorted(core._PLANS) == list(range(3, 71))
    assert seen["cold"] == 68 and seen["planned"] == 68 * 7
    assert seen["fallback"] > 0 and seen["interior"] > 0


def test_percentiles_match_the_reference_for_every_count():
    rng = random.Random(71)
    for n in range(1, 71):
        for values in ([rng.gauss(0.0, 1e3) for _ in range(n)],
                       [float(rng.randint(-2, 2)) for _ in range(n)],
                       [rng.randint(-5, 5) for _ in range(n)]):
            ordered = sorted(values)
            for fraction in (0.0, 0.01, 0.25, 0.5, 0.75, 1.0):
                got = interpolated_percentile(values, fraction)
                assert repr(got) == repr(ref_percentile(ordered, fraction)), (n, fraction)
            q = compute_quartiles(values)
            assert (repr(q.q1), repr(q.q3)) == (repr(ref_percentile(ordered, 0.25)),
                                                repr(ref_percentile(ordered, 0.75)))


def test_positions_are_planned_once_per_present_count(monkeypatch):
    """A 2,000-slot replay with gaps meets many present counts; each one's
    positions are computed on its first forecast only."""
    planned = []
    plan = core._plan

    def counting_plan(n):
        planned.append(n)
        return plan(n)

    monkeypatch.setattr(core, "_PLANS", {})
    monkeypatch.setattr(core, "_plan", counting_plan)
    # weekly4 at k=4: 27 samples in 4 lag groups, so consecutive targets slide
    cfg = QbsdConfig(scheme=default_weekly_scheme(4, 4, HOURLY), min_samples=3)
    rng = random.Random(2000)
    rows = [(s + 2, s, None if rng.random() < 0.35 else rng.gauss(100.0, 30.0))
            for s in range(2000)]
    records = list(replay(RollingForecaster(cfg, HOURLY), rows, "rows"))
    counts = [r.sample_count for r in records if r.sample_count is not None]
    assert len(counts) > 1000
    assert sorted(planned) == sorted(set(counts))
    assert len(planned) > 5
