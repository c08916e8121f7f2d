"""Market-level statistics: staleness, popularity, update cadence,
price dispersion, seasonal decomposition, power-law fits, and the
Yule association of attribute-change events.
"""

from __future__ import annotations

import bisect
import datetime as dt
import math
import statistics
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import (
    DegenerateTailError,
    InsufficientDataError,
    InvalidInputError,
)
from .model import AttributeKind, DownloadBucket, PopularityClass
from .timeline import AppTimeline

if TYPE_CHECKING:
    import numpy as np

#: Class boundaries on the download-bucket lower bound (half-open).
POPULAR_MIN_DOWNLOADS = 1_000
MOST_POPULAR_MIN_DOWNLOADS = 100_000

DEFAULT_STALENESS_WINDOW_DAYS = 365


class Staleness(str, Enum):
    ACTIVE = "Active"
    STALE = "Stale"


@dataclass(frozen=True)
class StalenessVerdict:
    status: Staleness
    window_days: int
    reference: dt.date

    @property
    def is_stale(self) -> bool:
        return self.status is Staleness.STALE


def classify_staleness(
    last_updated: dt.date,
    reference: dt.date,
    window_days: int = DEFAULT_STALENESS_WINDOW_DAYS,
) -> StalenessVerdict:
    """Stale iff the app went more than ``window_days`` without an update.

    The window is inclusive: a gap of exactly ``window_days`` is Active.
    """
    if last_updated > reference:
        raise InvalidInputError(
            f"last_updated {last_updated} after reference {reference}"
        )
    gap = (reference - last_updated).days
    status = Staleness.STALE if gap > window_days else Staleness.ACTIVE
    return StalenessVerdict(status=status, window_days=window_days, reference=reference)


def classify_popularity(bucket: DownloadBucket) -> PopularityClass:
    """Class by download-bucket lower bound, half-open at 10^3 and 10^5."""
    if bucket.lo < POPULAR_MIN_DOWNLOADS:
        return PopularityClass.UNPOPULAR
    if bucket.lo < MOST_POPULAR_MIN_DOWNLOADS:
        return PopularityClass.POPULAR
    return PopularityClass.MOST_POPULAR


# --- update cadence -----------------------------------------------------------


@dataclass(frozen=True)
class UpdateStats:
    update_count: int
    aui_days: float | None  # mean gap between consecutive update days


def update_stats(timeline: AppTimeline) -> UpdateStats:
    """Update count and average update interval of one app.

    The AUI is undefined (None) below two updates.
    """
    days = timeline.update_days
    if len(days) < 2:
        return UpdateStats(update_count=len(days), aui_days=None)
    gaps = [(b - a).days for a, b in zip(days, days[1:])]
    return UpdateStats(update_count=len(days), aui_days=sum(gaps) / len(gaps))


# --- price statistics ---------------------------------------------------------


def price_change_ccdf(per_app_change_counts: Sequence[int]) -> list[tuple[int, float]]:
    """(x, sqrt(#apps whose change count exceeds x)) for x = 0..max count."""
    if any(c < 0 for c in per_app_change_counts):
        raise InvalidInputError("change counts must be non-negative")
    if not per_app_change_counts:
        return []
    counts = sorted(per_app_change_counts)
    n = len(counts)
    series = []
    for x in range(counts[-1] + 1):
        exceeding = n - bisect.bisect_right(counts, x)
        series.append((x, math.sqrt(exceeding)))
    return series


def price_dispersion_cov(prices: Sequence[int | float]) -> float | None:
    """Coefficient of variation (population sigma / mean) of prices.

    None when undefined (no prices, or zero mean). Free apps must be
    excluded by the caller.
    """
    if any(p < 0 for p in prices):
        raise InvalidInputError("prices must be non-negative")
    if not prices:
        return None
    mean = sum(prices) / len(prices)
    if mean == 0:
        return None
    sigma = statistics.pstdev(prices)
    return sigma / mean


@dataclass(frozen=True)
class PriceMedians:
    """Median price over all paid apps vs over active paid apps only."""

    all_paid_cents: float | None
    active_paid_cents: float | None


def median_price_split(
    priced: Sequence[tuple[int, dt.date]],
    reference: dt.date,
    window_days: int = DEFAULT_STALENESS_WINDOW_DAYS,
) -> PriceMedians:
    """Medians of (price_cents, last_updated) pairs, all vs active-only."""
    all_prices = [p for p, _ in priced]
    active_prices = [
        p
        for p, last_updated in priced
        if not classify_staleness(last_updated, reference, window_days).is_stale
    ]
    return PriceMedians(
        all_paid_cents=statistics.median(all_prices) if all_prices else None,
        active_paid_cents=statistics.median(active_prices) if active_prices else None,
    )


# --- seasonal decomposition ---------------------------------------------------


@dataclass(frozen=True)
class Decomposition:
    """Classical additive decomposition: observed = trend + seasonal + remainder.

    ``trend`` and ``remainder`` are NaN at the floor(period/2) edge points
    on each side where the centered moving average is undefined.
    ``seasonal`` repeats one zero-sum period, ``seasonal[:period]``.
    """

    observed: np.ndarray
    trend: np.ndarray
    seasonal: np.ndarray
    remainder: np.ndarray
    period: int


def seasonal_trend_decompose(
    series: Sequence[float] | np.ndarray, period: int
) -> Decomposition:
    """Additive decomposition with a centered moving-average trend.

    The seasonal component is the per-period-index mean of the detrended
    series, normalized to sum to zero over one period. The remainder is
    exactly observed - trend - seasonal wherever the trend is defined.
    """
    import numpy as np

    if period < 2:
        raise InvalidInputError("period must be >= 2")
    x = np.asarray(series, dtype=float)
    n = len(x)
    if n < 2 * period:
        raise InsufficientDataError(
            f"need at least {2 * period} points for period {period}, got {n}"
        )
    half = period // 2
    trend = np.full(n, np.nan)
    if period % 2 == 1:
        kernel = np.full(period, 1.0 / period)
        trend[half : n - half] = np.convolve(x, kernel, mode="valid")
    else:
        # 2 x period MA: half weights at both ends over period + 1 points
        kernel = np.full(period + 1, 1.0 / period)
        kernel[0] = kernel[-1] = 0.5 / period
        trend[half : n - half] = np.convolve(x, kernel, mode="valid")
    detrended = x - trend
    profile = np.empty(period)
    for i in range(period):
        values = detrended[i::period]
        values = values[~np.isnan(values)]
        profile[i] = values.mean() if len(values) else 0.0
    profile -= profile.mean()
    reps = -(-n // period)  # ceil
    seasonal = np.tile(profile, reps)[:n]
    # single rounding so (trend + seasonal) + remainder == observed bitwise
    remainder = x - (trend + seasonal)
    return Decomposition(
        observed=x, trend=trend, seasonal=seasonal, remainder=remainder, period=period
    )


# --- power-law fitting --------------------------------------------------------


@dataclass(frozen=True)
class PowerLawFit:
    alpha: float
    x_min: float
    n_tail: int
    ks_distance: float


def fit_power_law(
    samples: Sequence[float] | np.ndarray, x_min: float = 1.0
) -> PowerLawFit:
    """Continuous maximum-likelihood power-law fit of the tail >= x_min.

    alpha = 1 + n / sum(ln(x_i / x_min)); the KS distance is the sup gap
    between the empirical tail CDF and the fitted model CDF.
    """
    import numpy as np

    if not 0 < x_min < math.inf:
        raise InvalidInputError(f"x_min must be positive and finite, got {x_min}")
    x = np.asarray(samples, dtype=float)
    tail = np.sort(x[x >= x_min])
    n = len(tail)
    if n < 2:
        raise InsufficientDataError(
            f"need at least 2 samples >= x_min={x_min}, got {n}"
        )
    log_sum = float(np.log(tail / x_min).sum())
    if log_sum == 0.0:
        raise DegenerateTailError(f"all {n} tail samples equal x_min={x_min}")
    alpha = 1.0 + n / log_sum
    model_cdf = 1.0 - (tail / x_min) ** (1.0 - alpha)
    steps = np.arange(1, n + 1) / n
    ks = float(
        np.maximum(np.abs(steps - model_cdf), np.abs(steps - 1.0 / n - model_cdf)).max()
    )
    return PowerLawFit(alpha=alpha, x_min=x_min, n_tail=n, ks_distance=ks)


def downloads_ratings_slope(
    points: Sequence[tuple[float, float]],
) -> float | None:
    """Least-squares slope through the origin of rating count vs downloads."""
    if len(points) < 2:
        raise InsufficientDataError("need at least 2 points")
    sum_xy = sum(x * y for x, y in points)
    sum_xx = sum(x * x for x, _ in points)
    if sum_xx == 0:
        return None
    return sum_xy / sum_xx


# --- attribute-change association ---------------------------------------------


@dataclass(frozen=True)
class AttributeEventSet:
    """The (day, app) tuples on which one attribute moved one way."""

    kind: AttributeKind
    members: frozenset


def yule_q(a: int, b: int, c: int, d: int) -> float | None:
    """Yule's Q = (ad - bc) / (ad + bc) over 2x2 contingency counts.

    None (undefined) when ad + bc = 0.
    """
    if min(a, b, c, d) < 0:
        raise InvalidInputError("contingency counts must be non-negative")
    num = a * d - b * c
    den = a * d + b * c
    if den == 0:
        return None
    return num / den


def yule_association(
    a_set: AttributeEventSet,
    b_set: AttributeEventSet,
    universe: frozenset | set,
) -> float | None:
    """Yule's Q between two attribute-event sets over a (day, app) universe."""
    members_a, members_b = a_set.members, b_set.members
    if not members_a <= universe or not members_b <= universe:
        raise InvalidInputError("event sets must be subsets of the universe")
    a = len(members_a & members_b)
    b = len(members_a - members_b)
    c = len(members_b - members_a)
    d = len(universe) - a - b - c
    return yule_q(a, b, c, d)


#: Row/column order of the association matrix, mirroring the attribute table.
ASSOCIATION_KINDS: tuple[AttributeKind, ...] = (
    AttributeKind.DOWNLOADS_UP,
    AttributeKind.PRICE_DOWN,
    AttributeKind.PRICE_UP,
    AttributeKind.REVIEW_COUNT_UP,
    AttributeKind.VERSION_UP,
    AttributeKind.PERMISSIONS_DOWN,
    AttributeKind.PERMISSIONS_UP,
    AttributeKind.CATEGORY_CHANGE,
)


@dataclass(frozen=True)
class AssociationMatrix:
    """Symmetric table of Yule Q values keyed by attribute-kind pairs."""

    kinds: tuple[AttributeKind, ...]
    values: dict
    universe_size: int

    def q(self, a: AttributeKind, b: AttributeKind) -> float | None:
        return self.values[(a, b)]


def attribute_event_sets(
    timelines: Iterable[AppTimeline],
) -> tuple[dict, frozenset]:
    """Per-kind (day, app) event sets plus the changed-tuple universe."""
    sets: dict = {kind: set() for kind in ASSOCIATION_KINDS}
    universe = set()
    for timeline in timelines:
        for event in timeline.events:
            key = (event.day, event.app)
            universe.add(key)
            if event.kind in sets:
                sets[event.kind].add(key)
    return (
        {
            kind: AttributeEventSet(kind=kind, members=frozenset(s))
            for kind, s in sets.items()
        },
        frozenset(universe),
    )


def association_matrix(timelines: Iterable[AppTimeline]) -> AssociationMatrix:
    """Pairwise Yule Q over all attribute kinds.

    The universe is every (day, app) tuple with at least one change of
    any kind.
    """
    kinds = ASSOCIATION_KINDS
    event_sets, universe = attribute_event_sets(timelines)
    values = {}
    for i, ka in enumerate(kinds):
        for kb in kinds[i:]:
            q = yule_association(event_sets[ka], event_sets[kb], universe)
            values[(ka, kb)] = q
            values[(kb, ka)] = q
    return AssociationMatrix(kinds=kinds, values=values, universe_size=len(universe))
