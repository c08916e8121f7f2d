"""Shared domain types: snapshots, reviews, ranked lists, and their validation.

All values are immutable. Timestamps are UTC epoch seconds, dates are UTC
calendar days, and prices are integer cents (one currency per dataset,
recorded in the dataset manifest).
"""

from __future__ import annotations

import datetime as dt
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

SECONDS_PER_DAY = 86400
SECONDS_PER_HOUR = 3600

#: Maximum ranking length (20 pages of 24 entries).
MAX_RANKING_LENGTH = 480


class ListType(str, Enum):
    """The five ranked lists published by the market."""

    FREE = "Free"
    PAID = "Paid"
    GROSS = "Gross"
    NEW_FREE = "NewFree"
    NEW_PAID = "NewPaid"


class PopularityClass(str, Enum):
    """Download-count classes partitioning all apps."""

    UNPOPULAR = "Unpopular"
    POPULAR = "Popular"
    MOST_POPULAR = "MostPopular"


class AttributeKind(str, Enum):
    """Directions of tracked per-day attribute changes.

    Download and review counts only move up in market metadata, so no
    "down" kinds exist for them. Price and permission-count moves in
    opposite directions are mutually exclusive within one (day, app).
    """

    DOWNLOADS_UP = "downloads_up"
    PRICE_DOWN = "price_down"
    PRICE_UP = "price_up"
    REVIEW_COUNT_UP = "review_count_up"
    VERSION_UP = "version_up"
    PERMISSIONS_DOWN = "permissions_down"
    PERMISSIONS_UP = "permissions_up"
    CATEGORY_CHANGE = "category_change"


#: Download-range ladder used by the market ("10-100", "1K-5K", ...).
DOWNLOAD_LADDER: tuple[tuple[int, int], ...] = (
    (0, 1),
    (1, 5),
    (5, 10),
    (10, 50),
    (50, 100),
    (100, 500),
    (500, 1_000),
    (1_000, 5_000),
    (5_000, 10_000),
    (10_000, 50_000),
    (50_000, 100_000),
    (100_000, 500_000),
    (500_000, 1_000_000),
    (1_000_000, 5_000_000),
    (5_000_000, 10_000_000),
    (10_000_000, 50_000_000),
    (50_000_000, 100_000_000),
    (100_000_000, 500_000_000),
)


@dataclass(frozen=True, order=True)
class DownloadBucket:
    """A download-count range as exposed by the market (lo inclusive)."""

    lo: int
    hi: int

    def midpoint(self) -> float:
        return (self.lo + self.hi) / 2.0


@dataclass(frozen=True)
class AppSnapshot:
    """One timestamped observation of one app's market metadata."""

    app: str
    fetch_time: int
    title: str
    developer: str
    category: str
    price_cents: int
    free: bool
    downloads: DownloadBucket
    rating_avg: float
    rating_count: int
    version: str
    last_updated: dt.date
    size_bytes: int
    permissions: frozenset[str] = field(default_factory=frozenset)


class TimelineState(NamedTuple):
    """The fields of a snapshot that its app's timeline reads: the ones
    change events diff, plus last_updated for update days."""

    price_cents: int
    downloads: DownloadBucket
    rating_count: int
    version: str
    category: str
    permissions: frozenset[str]
    last_updated: dt.date


def timeline_state(s: AppSnapshot) -> TimelineState:
    return TimelineState(
        s.price_cents,
        s.downloads,
        s.rating_count,
        s.version,
        s.category,
        s.permissions,
        s.last_updated,
    )


@dataclass(frozen=True)
class ReviewRecord:
    """One user review; ``review_id`` is unique within an app."""

    app: str
    review_id: str
    reviewer_id: str
    date: dt.date
    rating: int
    title: str
    text: str


@dataclass(frozen=True)
class TopKObservation:
    """One hourly observation of a ranked list (rank 1 first)."""

    list_type: ListType
    fetch_time: int
    ranking: tuple[str, ...]


# --- date/time helpers -------------------------------------------------------


def parse_date(text: str) -> dt.date:
    return dt.date.fromisoformat(text)


def date_to_epoch(day: dt.date) -> int:
    """Epoch seconds of UTC midnight starting ``day``."""
    return int(
        dt.datetime(day.year, day.month, day.day, tzinfo=dt.timezone.utc).timestamp()
    )


def epoch_to_date(ts: int) -> dt.date:
    return dt.datetime.fromtimestamp(ts, tz=dt.timezone.utc).date()


_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()


def epoch_day_to_date(day: int) -> dt.date:
    """UTC date of epoch day ``day``: ``epoch_to_date(ts)`` for any ``ts``
    with ``ts // SECONDS_PER_DAY == day``."""
    return dt.date.fromordinal(_EPOCH_ORDINAL + day)


# --- validation --------------------------------------------------------------


# for str patterns ``\s`` matches exactly the characters str.isspace() accepts
_WHITESPACE = re.compile(r"\s")


def validate_app_id(app: str) -> list[str]:
    if not app:
        return ["app id empty"]
    if _WHITESPACE.search(app):
        return ["app id contains whitespace"]
    return []


def validate_snapshot(s: AppSnapshot) -> list[str]:
    """Every violated invariant of ``s``; the snapshot is valid iff empty."""
    violations = validate_app_id(s.app)
    if s.price_cents < 0:
        violations.append("price_cents negative")
    if s.free != (s.price_cents == 0):
        violations.append("free flag inconsistent with price_cents")
    if not (0.0 <= s.rating_avg <= 5.0):
        violations.append("rating_avg out of [0,5]")
    if s.rating_count < 0:
        violations.append("rating_count negative")
    if s.downloads.lo < 0:
        violations.append("downloads lower bound negative")
    if s.downloads.lo >= s.downloads.hi:
        violations.append("downloads bucket empty (lo >= hi)")
    if s.size_bytes < 0:
        violations.append("size_bytes negative")
    if date_to_epoch(s.last_updated) > s.fetch_time:
        violations.append("last_updated in future")
    return violations


def validate_review(r: ReviewRecord) -> list[str]:
    violations = validate_app_id(r.app)
    if not r.review_id:
        violations.append("review_id empty")
    if r.rating not in (1, 2, 3, 4, 5):
        violations.append("rating out of range")
    return violations


def validate_topk(o: TopKObservation) -> list[str]:
    violations = []
    if len(o.ranking) > MAX_RANKING_LENGTH:
        violations.append(f"ranking longer than {MAX_RANKING_LENGTH}")
    if len(set(o.ranking)) != len(o.ranking):
        violations.append("duplicate app in ranking")
    if o.fetch_time % SECONDS_PER_HOUR != 0:
        violations.append("fetch_time not aligned to the hour")
    for app in o.ranking:
        bad = validate_app_id(app)
        if bad:
            violations.extend(f"ranking entry: {v}" for v in bad)
            break
    return violations


# --- record codecs (flat JSON dicts, the wire schema of the store logs) ------


def snapshot_to_record(s: AppSnapshot) -> dict:
    return {
        "app": s.app,
        "fetch_time": s.fetch_time,
        "title": s.title,
        "developer": s.developer,
        "category": s.category,
        "price_cents": s.price_cents,
        "free": s.free,
        "downloads_lo": s.downloads.lo,
        "downloads_hi": s.downloads.hi,
        "rating_avg": s.rating_avg,
        "rating_count": s.rating_count,
        "version": s.version,
        "last_updated": s.last_updated.isoformat(),
        "size_bytes": s.size_bytes,
        "permissions": sorted(s.permissions),
    }


def snapshot_from_record(rec: dict) -> AppSnapshot:
    """Decode one snapshots.jsonl record. Raises ValueError on bad shape."""
    try:
        permissions = rec["permissions"]
        if not isinstance(permissions, list) or not all(
            isinstance(p, str) for p in permissions
        ):
            raise ValueError("permissions must be an array of strings")
        if len(set(permissions)) != len(permissions):
            raise ValueError("permissions has duplicates")
        return AppSnapshot(
            app=_expect_str(rec, "app"),
            fetch_time=_expect_int(rec, "fetch_time"),
            title=_expect_str(rec, "title"),
            developer=_expect_str(rec, "developer"),
            category=_expect_str(rec, "category"),
            price_cents=_expect_int(rec, "price_cents"),
            free=_expect_bool(rec, "free"),
            downloads=DownloadBucket(
                _expect_int(rec, "downloads_lo"), _expect_int(rec, "downloads_hi")
            ),
            rating_avg=float(_expect_number(rec, "rating_avg")),
            rating_count=_expect_int(rec, "rating_count"),
            version=_expect_str(rec, "version"),
            last_updated=parse_date(_expect_str(rec, "last_updated")),
            size_bytes=_expect_int(rec, "size_bytes"),
            permissions=frozenset(permissions),
        )
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]!r}") from None


def review_to_record(r: ReviewRecord) -> dict:
    return {
        "app": r.app,
        "review_id": r.review_id,
        "reviewer_id": r.reviewer_id,
        "date": r.date.isoformat(),
        "rating": r.rating,
        "title": r.title,
        "text": r.text,
    }


def review_from_record(rec: dict) -> ReviewRecord:
    try:
        return ReviewRecord(
            app=_expect_str(rec, "app"),
            review_id=_expect_str(rec, "review_id"),
            reviewer_id=_expect_str(rec, "reviewer_id"),
            date=parse_date(_expect_str(rec, "date")),
            rating=_expect_int(rec, "rating"),
            title=_expect_str(rec, "title"),
            text=_expect_str(rec, "text"),
        )
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]!r}") from None


def topk_to_record(o: TopKObservation) -> dict:
    return {
        "list_type": o.list_type.value,
        "fetch_time": o.fetch_time,
        "ranking": list(o.ranking),
    }


def topk_from_record(rec: dict) -> TopKObservation:
    try:
        list_type = ListType(_expect_str(rec, "list_type"))
    except ValueError:
        raise ValueError(f"unknown list_type {rec.get('list_type')!r}") from None
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]!r}") from None
    try:
        ranking = rec["ranking"]
        if not isinstance(ranking, list) or not all(
            isinstance(a, str) for a in ranking
        ):
            raise ValueError("ranking must be an array of strings")
        return TopKObservation(
            list_type=list_type,
            fetch_time=_expect_int(rec, "fetch_time"),
            ranking=tuple(ranking),
        )
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]!r}") from None


# trusted decoders: no per-field type checks, for lines this package wrote
# and validated at ingest; constructed via __dict__ to skip frozen-dataclass
# per-field __setattr__ overhead on bulk reads


def snapshot_from_trusted_record(rec: dict) -> AppSnapshot:
    snap = object.__new__(AppSnapshot)
    snap.__dict__.update(
        app=rec["app"],
        fetch_time=rec["fetch_time"],
        title=rec["title"],
        developer=rec["developer"],
        category=rec["category"],
        price_cents=rec["price_cents"],
        free=rec["free"],
        downloads=DownloadBucket(rec["downloads_lo"], rec["downloads_hi"]),
        rating_avg=rec["rating_avg"],
        rating_count=rec["rating_count"],
        version=rec["version"],
        last_updated=dt.date.fromisoformat(rec["last_updated"]),
        size_bytes=rec["size_bytes"],
        permissions=frozenset(rec["permissions"]),
    )
    return snap


def review_from_trusted_record(rec: dict) -> ReviewRecord:
    review = object.__new__(ReviewRecord)
    review.__dict__.update(
        app=rec["app"],
        review_id=rec["review_id"],
        reviewer_id=rec["reviewer_id"],
        date=dt.date.fromisoformat(rec["date"]),
        rating=rec["rating"],
        title=rec["title"],
        text=rec["text"],
    )
    return review


def topk_from_trusted_record(rec: dict) -> TopKObservation:
    obs = object.__new__(TopKObservation)
    obs.__dict__.update(
        list_type=ListType(rec["list_type"]),
        fetch_time=rec["fetch_time"],
        ranking=tuple(rec["ranking"]),
    )
    return obs


def _expect_str(rec: dict, key: str) -> str:
    value = rec[key]
    if not isinstance(value, str):
        raise ValueError(f"field {key!r} must be a string")
    return value


def _expect_int(rec: dict, key: str) -> int:
    value = rec[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"field {key!r} must be an integer")
    return value


def _expect_bool(rec: dict, key: str) -> bool:
    value = rec[key]
    if not isinstance(value, bool):
        raise ValueError(f"field {key!r} must be a boolean")
    return value


def _expect_number(rec: dict, key: str) -> float:
    value = rec[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"field {key!r} must be a number")
    return value
