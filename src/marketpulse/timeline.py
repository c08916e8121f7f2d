"""Diff snapshot series into per-day change events and review timelines.

Change events are keyed by (day, app): the event day is the UTC date of
the later snapshot, and when several snapshots fall on one day only the
last one counts, so each day yields at most one event per attribute.
Update days (last_updated transitions) are tracked separately from
version-string changes, which can move independently. Both are computed
from snapshot states (``TimelineState``), the fields a timeline reads,
which the store keeps interned in its index.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Any, Sequence

from .errors import InvalidInputError
from .model import (
    SECONDS_PER_DAY,
    AttributeKind,
    ReviewRecord,
    TimelineState,
    epoch_day_to_date,
)
from .store import AppStates


@dataclass(frozen=True)
class ChangeEvent:
    """One attribute change of one app on one UTC day.

    ``old``/``new`` hold the attribute values (ints, strings, download
    buckets, or permission frozensets depending on ``kind``).
    """

    app: str
    day: dt.date
    kind: AttributeKind
    old: Any
    new: Any

    @property
    def added_permissions(self) -> frozenset[str]:
        if self.kind in (AttributeKind.PERMISSIONS_UP, AttributeKind.PERMISSIONS_DOWN):
            return frozenset(self.new) - frozenset(self.old)
        return frozenset()

    @property
    def removed_permissions(self) -> frozenset[str]:
        if self.kind in (AttributeKind.PERMISSIONS_UP, AttributeKind.PERMISSIONS_DOWN):
            return frozenset(self.old) - frozenset(self.new)
        return frozenset()


@dataclass(frozen=True)
class AppTimeline:
    """Ordered change events plus update days for one app."""

    app: str
    events: tuple[ChangeEvent, ...]
    update_days: tuple[dt.date, ...]


@dataclass(frozen=True)
class DayReviewCounts:
    day: dt.date
    positive: int
    negative: int
    neutral: int


@dataclass(frozen=True)
class ReviewTimeline:
    """Per-day review polarity counts; days without reviews are implicit zeros."""

    app: str
    days: tuple[DayReviewCounts, ...]


# review polarity: a rating of at least this is positive, at most that negative
_POSITIVE_MIN = 4
_NEGATIVE_MAX = 2


def diff_states(
    app: str, day: dt.date, prev: TimelineState, next: TimelineState
) -> list[ChangeEvent]:
    """Typed change events of ``app`` on ``day`` between two states.

    Only upward moves of the monotone counters (downloads bucket, rating
    count) are classified; a decrease has no attribute kind and emits
    nothing. Permission changes are classified by total count, carrying
    the old and new permission sets; a same-count swap emits nothing.
    """
    events = []

    def emit(kind: AttributeKind, old, new):
        events.append(ChangeEvent(app=app, day=day, kind=kind, old=old, new=new))

    if next.price_cents != prev.price_cents:
        kind = (
            AttributeKind.PRICE_UP
            if next.price_cents > prev.price_cents
            else AttributeKind.PRICE_DOWN
        )
        emit(kind, prev.price_cents, next.price_cents)
    if next.downloads.lo > prev.downloads.lo:
        emit(AttributeKind.DOWNLOADS_UP, prev.downloads, next.downloads)
    if next.rating_count > prev.rating_count:
        emit(AttributeKind.REVIEW_COUNT_UP, prev.rating_count, next.rating_count)
    if next.version != prev.version:
        emit(AttributeKind.VERSION_UP, prev.version, next.version)
    if len(next.permissions) != len(prev.permissions):
        kind = (
            AttributeKind.PERMISSIONS_UP
            if len(next.permissions) > len(prev.permissions)
            else AttributeKind.PERMISSIONS_DOWN
        )
        emit(kind, prev.permissions, next.permissions)
    if next.category != prev.category:
        emit(AttributeKind.CATEGORY_CHANGE, prev.category, next.category)
    return events


def build_app_timeline(series: AppStates) -> AppTimeline:
    """Fold an app's snapshot states into its change-event timeline.

    Days with several snapshots count first-vs-last: each day is
    represented by its last snapshot, and the very first day's opening
    snapshot anchors the sequence so a change within that day is still
    one event. An update day is a day on which the observed last_updated
    value changed.
    """
    times, states = series.times, series.states
    if not times:
        return AppTimeline(app=series.app, events=(), update_days=())
    # epoch day and state of the last snapshot of each day
    days: list[int] = []
    daily: list[TimelineState] = []
    for time, state in zip(times, states):
        day = time // SECONDS_PER_DAY
        if days and days[-1] == day:
            daily[-1] = state
        else:
            days.append(day)
            daily.append(state)
    # several snapshots on the first day: its opening one is the anchor
    if len(times) > 1 and times[1] // SECONDS_PER_DAY == days[0]:
        days.insert(0, days[0])
        daily.insert(0, states[0])
    events: list[ChangeEvent] = []
    update_days: list[dt.date] = []
    for prev, cur, day in zip(daily, daily[1:], days[1:]):
        if cur == prev:
            continue
        date = epoch_day_to_date(day)
        events.extend(diff_states(series.app, date, prev, cur))
        if cur.last_updated != prev.last_updated:
            update_days.append(date)
    return AppTimeline(
        app=series.app, events=tuple(events), update_days=tuple(update_days)
    )


def build_review_timeline(
    reviews: Sequence[ReviewRecord], app: str | None = None
) -> ReviewTimeline:
    """Per-day positive/negative/neutral counts for one app's reviews."""
    if app is None:
        app = reviews[0].app if reviews else ""
    counts: dict[dt.date, list[int]] = {}
    for review in reviews:
        if review.app != app:
            raise InvalidInputError(
                f"mixed app ids in review timeline: {review.app!r} vs {app!r}"
            )
        bucket = counts.setdefault(review.date, [0, 0, 0])
        if review.rating >= _POSITIVE_MIN:
            bucket[0] += 1
        elif review.rating <= _NEGATIVE_MAX:
            bucket[1] += 1
        else:
            bucket[2] += 1
    days = tuple(
        DayReviewCounts(day, pos, neg, neu)
        for day, (pos, neg, neu) in sorted(counts.items())
    )
    return ReviewTimeline(app=app, days=days)


def format_event_value(value: Any) -> str:
    """Render an event's old/new value for CSV export."""
    if isinstance(value, frozenset):
        return ";".join(sorted(value))
    if hasattr(value, "lo") and hasattr(value, "hi"):
        return f"{value.lo}-{value.hi}"
    return str(value)


def timeline_csv_rows(timeline: AppTimeline) -> list[tuple[str, str, str, str, str]]:
    """Rows (app, day, kind, old, new) for the timeline CSV export."""
    return [
        (
            event.app,
            event.day.isoformat(),
            event.kind.value,
            format_event_value(event.old),
            format_event_value(event.new),
        )
        for event in timeline.events
    ]
