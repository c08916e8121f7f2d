"""Shared fixtures and record factories."""

from __future__ import annotations

import datetime as dt

import numpy as np
import pytest

from marketpulse.errors import DegenerateTailError, InsufficientDataError
from marketpulse.metrics import PowerLawFit, fit_power_law
from marketpulse.model import (
    AppSnapshot,
    DownloadBucket,
    ListType,
    ReviewRecord,
    TopKObservation,
    date_to_epoch,
    timeline_state,
)
from marketpulse.store import AppSeries, AppStates, DatasetManifest, SnapStore

DAY0 = dt.date(2012, 4, 1)


def make_snapshot(
    app: str = "com.example.app",
    day: dt.date = DAY0,
    hour: int = 12,
    **overrides,
) -> AppSnapshot:
    fields = dict(
        app=app,
        fetch_time=date_to_epoch(day) + hour * 3600,
        title="Example App",
        developer="Example Dev",
        category="Tools",
        price_cents=0,
        free=True,
        downloads=DownloadBucket(1_000, 5_000),
        rating_avg=4.2,
        rating_count=120,
        version="1.0.0",
        last_updated=day - dt.timedelta(days=30),
        size_bytes=1_800_000,
        permissions=frozenset({"INTERNET", "VIBRATE"}),
    )
    fields.update(overrides)
    if "price_cents" in overrides and "free" not in overrides:
        fields["free"] = fields["price_cents"] == 0
    return AppSnapshot(**fields)


def states_of(series: AppSeries) -> AppStates:
    """The state series ``build_app_timeline`` folds, from decoded snapshots."""
    return AppStates(
        series.app,
        tuple(s.fetch_time for s in series.snapshots),
        tuple(timeline_state(s) for s in series.snapshots),
    )


def scan_x_min(samples, min_tail: int = 10, max_candidates: int = 200) -> PowerLawFit:
    """Reference power-law fit: pick x_min by minimizing the KS distance
    over sample values.

    Candidate x_min values are the unique sample values (all but the
    largest), thinned to at most ``max_candidates``. Tails smaller than
    ``min_tail`` are skipped to keep the KS statistic meaningful.
    """
    x = np.asarray(samples, dtype=float)
    candidates = np.unique(x)[:-1]
    if len(candidates) == 0:
        raise InsufficientDataError("need at least two distinct sample values")
    if len(candidates) > max_candidates:
        idx = np.linspace(0, len(candidates) - 1, max_candidates).astype(int)
        candidates = candidates[idx]
    best: PowerLawFit | None = None
    for x_min in candidates:
        if x_min <= 0:
            continue
        try:
            fit = fit_power_law(x, x_min=float(x_min))
        except (DegenerateTailError, InsufficientDataError):
            continue
        if fit.n_tail < min_tail:
            continue
        if best is None or fit.ks_distance < best.ks_distance:
            best = fit
    if best is None:
        raise InsufficientDataError("no candidate x_min left a usable tail")
    return best


def make_review(
    app: str = "com.example.app",
    review_id: str = "r1",
    rating: int = 5,
    day: dt.date = DAY0,
    **overrides,
) -> ReviewRecord:
    fields = dict(
        app=app,
        review_id=review_id,
        reviewer_id="u1",
        date=day,
        rating=rating,
        title="nice",
        text="works great",
    )
    fields.update(overrides)
    return ReviewRecord(**fields)


def make_topk(
    ranking,
    hour: int = 0,
    list_type: ListType = ListType.FREE,
    day: dt.date = DAY0,
) -> TopKObservation:
    return TopKObservation(
        list_type=list_type,
        fetch_time=date_to_epoch(day) + hour * 3600,
        ranking=tuple(ranking),
    )


@pytest.fixture(scope="module")
def market():
    """A small simulated market with a top-k list."""
    from marketpulse import simgen
    from marketpulse.simgen import TopKListConfig

    return simgen.generate(
        simgen.MarketScript(
            seed=11,
            n_developers=30,
            observation_days=12,
            topk_lists={ListType.FREE: TopKListConfig(length=10)},
        )
    )


def ingest_market(root, market, days=None) -> SnapStore:
    """Ingest ``market`` into a new store at ``root`` (only the first ``days``
    snapshot days when given) and return the store."""
    store = SnapStore.create(root, market.manifest)
    snapshots = market.snapshots
    if days is not None:
        cutoff = min(s.fetch_time for s in snapshots) + days * 86400
        snapshots = [s for s in snapshots if s.fetch_time < cutoff]
    store.ingest_records("snapshots", snapshots)
    store.ingest_records("reviews", market.reviews)
    store.ingest_records("topk", market.topk)
    return store


@pytest.fixture
def manifest() -> DatasetManifest:
    return DatasetManifest(
        name="test-dataset",
        currency="USD",
        observation_start=DAY0,
        observation_end=DAY0 + dt.timedelta(days=59),
        snapshot_cadence_hint="daily",
    )


@pytest.fixture
def store(tmp_path, manifest) -> SnapStore:
    return SnapStore.create(tmp_path / "store", manifest)
