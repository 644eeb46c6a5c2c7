"""Rolling seasonal forecasting with quartile operating bounds.

For each incoming timestamp the forecaster produces a forecast, the
time-varying expected operating range (Q1/Q3/IQR of a calendar-aware
contextual subset), and difference/normalized residuals, with no separate
fit stage: model state is just a FIFO history window.
"""

from .core import (
    ForecastOutput,
    QbsdConfig,
    Quartiles,
    Residuals,
    compute_quartiles,
    compute_residuals,
    contingency_constant,
    interpolated_percentile,
    qbsd_step,
)
from .engine import MultiSeriesEngine, RollingForecaster
from .errors import (
    ConfigError,
    DataError,
    DegenerateVariance,
    DuplicateTimestamp,
    EmptyInput,
    GridMisaligned,
    InsufficientHistory,
    InsufficientSpan,
    InvalidConstant,
    InvalidScheme,
    InvalidWindow,
    ParseError,
    QbsdError,
    SeriesTooShort,
    StaleSlot,
    TooFewPairs,
)
from .datasets import (
    DatasetDescriptor,
    SeriesFrame,
    SynthSpec,
    builtin_descriptors,
    generate_synthetic,
    get_descriptor,
    load_csv,
    rolling_evaluate,
)
from .metrics import EvalPairs, MetricsReport, evaluate, wilcoxon_signed_rank
from .smoothing import savgol_coefficients, smooth
from .timegrid import (
    Granularity,
    SeasonalityScheme,
    SlotCoord,
    align,
    default_weekly_scheme,
    resolve_subset_slots,
    weekly_plus_yearly_scheme,
)

__version__ = "0.1.0"
