import datetime as dt
import json

import pytest
from hypothesis import given, settings, strategies as st

from marketpulse.errors import InvalidInputError
from marketpulse.model import (
    AppSnapshot,
    AttributeKind,
    DOWNLOAD_LADDER,
    DownloadBucket,
)
from marketpulse.store import AppSeries, AppStates, SnapStore
from marketpulse.timeline import (
    AppTimeline,
    ChangeEvent,
    build_app_timeline,
    build_review_timeline,
    timeline_csv_rows,
)

from conftest import (
    DAY0,
    InvalidPairError,
    diff_snapshots,
    epoch_to_date,
    ingest_lines,
    ingest_market,
    ingest_records,
    make_review,
    make_snapshot,
    snapshot_to_record,
    states_of,
)


def day(n: int) -> dt.date:
    return DAY0 + dt.timedelta(days=n)


class TestDiffSnapshots:
    def test_price_drop(self):
        prev = make_snapshot(day=day(0), price_cents=199)
        cur = make_snapshot(day=day(1), price_cents=99)
        events = diff_snapshots(prev, cur)
        assert [e.kind for e in events] == [AttributeKind.PRICE_DOWN]
        assert (events[0].old, events[0].new) == (199, 99)
        assert events[0].day == day(1)

    def test_identical_snapshots_give_no_events(self):
        prev = make_snapshot(day=day(0))
        cur = make_snapshot(day=day(1))
        assert diff_snapshots(prev, cur) == []

    def test_permission_change_without_version_change(self):
        prev = make_snapshot(day=day(0), permissions=frozenset("AB"))
        cur = make_snapshot(day=day(1), permissions=frozenset("ACD"))
        events = diff_snapshots(prev, cur)
        assert [e.kind for e in events] == [AttributeKind.PERMISSIONS_UP]
        event = events[0]
        assert event.added_permissions == frozenset("CD")
        assert event.removed_permissions == frozenset("B")
        # the version did not change, so no version event accompanies it
        assert AttributeKind.VERSION_UP not in {e.kind for e in events}

    def test_permission_drop(self):
        prev = make_snapshot(day=day(0), permissions=frozenset("ABC"))
        cur = make_snapshot(day=day(1), permissions=frozenset("A"))
        events = diff_snapshots(prev, cur)
        assert [e.kind for e in events] == [AttributeKind.PERMISSIONS_DOWN]

    def test_counter_decreases_emit_nothing(self):
        # downloads and rating counts only have "up" kinds
        prev = make_snapshot(
            day=day(0), downloads=DownloadBucket(5_000, 10_000), rating_count=50
        )
        cur = make_snapshot(
            day=day(1), downloads=DownloadBucket(1_000, 5_000), rating_count=10
        )
        assert diff_snapshots(prev, cur) == []

    def test_multiple_changes_one_event_each(self):
        prev = make_snapshot(day=day(0), price_cents=99, version="1.0.0")
        cur = make_snapshot(
            day=day(1), price_cents=199, version="1.1.0", category="Casual"
        )
        kinds = {e.kind for e in diff_snapshots(prev, cur)}
        assert kinds == {
            AttributeKind.PRICE_UP,
            AttributeKind.VERSION_UP,
            AttributeKind.CATEGORY_CHANGE,
        }

    def test_app_mismatch_raises(self):
        with pytest.raises(InvalidPairError):
            diff_snapshots(make_snapshot(app="com.a"), make_snapshot(app="com.b", hour=13))

    def test_non_increasing_time_raises(self):
        snap = make_snapshot()
        with pytest.raises(InvalidPairError):
            diff_snapshots(snap, snap)


class TestBuildAppTimeline:
    def _series(self, snaps):
        return states_of(AppSeries(app=snaps[0].app, snapshots=tuple(snaps)))

    def test_update_count_from_last_updated_transitions(self):
        d1, d2, d3 = day(-40), day(-20), day(-5)
        last_updates = [d1, d1, d2, d2, d3]
        snaps = [
            make_snapshot(day=day(i), last_updated=lu)
            for i, lu in enumerate(last_updates)
        ]
        timeline = build_app_timeline(self._series(snaps))
        assert len(timeline.update_days) == 2
        assert timeline.update_days == (day(2), day(4))

    def test_single_snapshot_no_events(self):
        timeline = build_app_timeline(self._series([make_snapshot()]))
        assert timeline.events == ()
        assert timeline.update_days == ()

    def test_empty_series(self):
        timeline = build_app_timeline(AppStates(app="com.x", times=(), states=()))
        assert timeline.events == ()

    def test_same_day_snapshots_collapse_to_last(self):
        # a price spike that reverts within one day is invisible
        snaps = [
            make_snapshot(day=day(0), hour=1, price_cents=99),
            make_snapshot(day=day(1), hour=1, price_cents=999),
            make_snapshot(day=day(1), hour=23, price_cents=99),
        ]
        timeline = build_app_timeline(self._series(snaps))
        assert timeline.events == ()

    def test_same_day_last_wins_against_next_day(self):
        snaps = [
            make_snapshot(day=day(0), hour=1, price_cents=99),
            make_snapshot(day=day(0), hour=23, price_cents=199),
            make_snapshot(day=day(1), hour=1, price_cents=199),
        ]
        timeline = build_app_timeline(self._series(snaps))
        assert [e.kind for e in timeline.events] == [AttributeKind.PRICE_UP]
        assert timeline.events[0].day == day(0)

    def test_price_up_and_down_never_same_day(self):
        snaps = [
            make_snapshot(day=day(i), price_cents=p)
            for i, p in enumerate([100, 200, 50, 300])
        ]
        timeline = build_app_timeline(self._series(snaps))
        by_day = {}
        for e in timeline.events:
            by_day.setdefault(e.day, set()).add(e.kind)
        for kinds in by_day.values():
            assert not (
                AttributeKind.PRICE_UP in kinds and AttributeKind.PRICE_DOWN in kinds
            )

    def test_csv_rows(self):
        snaps = [
            make_snapshot(day=day(0), price_cents=199),
            make_snapshot(day=day(1), price_cents=99),
        ]
        rows = timeline_csv_rows(build_app_timeline(self._series(snaps)))
        assert rows == [
            ("com.example.app", day(1).isoformat(), "price_down", "199", "99")
        ]


# fold property: replaying events over the first snapshot reproduces the last
@st.composite
def monotone_histories(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    price = draw(st.sampled_from([0, 99, 199]))
    ladder_start = draw(st.integers(min_value=0, max_value=len(DOWNLOAD_LADDER) - 2))
    ladder_idx = ladder_start
    rating_count = draw(st.integers(min_value=0, max_value=100))
    version = 0
    perms = set(draw(st.sets(st.sampled_from("ABCDEF"), min_size=1, max_size=4)))
    category = "Tools"
    snaps = []
    for i in range(n):
        action = draw(
            st.sampled_from(
                ["none", "price", "downloads", "rating", "version", "perm_add", "perm_del", "category"]
            )
        )
        if i > 0:
            if action == "price":
                price = price + draw(st.sampled_from([-50, 50, 100])) if price else 99
                price = max(0, price)
            elif action == "downloads" and ladder_idx + 1 < len(DOWNLOAD_LADDER):
                ladder_idx += 1
            elif action == "rating":
                rating_count += draw(st.integers(min_value=1, max_value=10))
            elif action == "version":
                version += 1
            elif action == "perm_add":
                perms = perms | {draw(st.sampled_from("GHIJKL"))}
            elif action == "perm_del" and len(perms) > 1:
                perms = set(sorted(perms)[1:])
            elif action == "category":
                category = draw(st.sampled_from(["Casual", "Social", "Tools"]))
        snaps.append(
            make_snapshot(
                day=DAY0 + dt.timedelta(days=i),
                price_cents=price,
                downloads=DownloadBucket(*DOWNLOAD_LADDER[ladder_idx]),
                rating_count=rating_count,
                version=f"1.{version}",
                permissions=frozenset(perms),
                category=category,
            )
        )
    return snaps


def apply_events(snapshot: AppSnapshot, events) -> dict:
    """Replay ``events`` over a snapshot's tracked fields.

    Returns the resulting field dict {price_cents, downloads, rating_count,
    version, permissions, category}; used to check that a timeline folds
    back to the final observed state.
    """
    state = {
        "price_cents": snapshot.price_cents,
        "downloads": snapshot.downloads,
        "rating_count": snapshot.rating_count,
        "version": snapshot.version,
        "permissions": snapshot.permissions,
        "category": snapshot.category,
    }
    field_of = {
        AttributeKind.PRICE_UP: "price_cents",
        AttributeKind.PRICE_DOWN: "price_cents",
        AttributeKind.DOWNLOADS_UP: "downloads",
        AttributeKind.REVIEW_COUNT_UP: "rating_count",
        AttributeKind.VERSION_UP: "version",
        AttributeKind.PERMISSIONS_UP: "permissions",
        AttributeKind.PERMISSIONS_DOWN: "permissions",
        AttributeKind.CATEGORY_CHANGE: "category",
    }
    for event in events:
        state[field_of[event.kind]] = event.new
    return state


def tracked_fields(snapshot: AppSnapshot) -> dict:
    """The field dict ``apply_events`` reproduces."""
    return apply_events(snapshot, ())


@settings(max_examples=120, deadline=None)
@given(monotone_histories())
def test_fold_property(snaps):
    series = AppSeries(app=snaps[0].app, snapshots=tuple(snaps))
    timeline = build_app_timeline(states_of(series))
    assert timeline == oracle_timeline(series)
    assert apply_events(snaps[0], timeline.events) == tracked_fields(snaps[-1])


@settings(max_examples=60, deadline=None)
@given(monotone_histories())
def test_diff_self_is_empty(snaps):
    base = snaps[0]
    shifted = make_snapshot(
        day=DAY0 + dt.timedelta(days=30),
        price_cents=base.price_cents,
        downloads=base.downloads,
        rating_count=base.rating_count,
        version=base.version,
        permissions=base.permissions,
        category=base.category,
    )
    assert diff_snapshots(base, shifted) == []


# --- oracle: the fold over decoded snapshots ---------------------------------------
#
# Timelines used to be folded over decoded AppSnapshots, with this diff;
# build_app_timeline now folds the states the store keeps in its index.
# Both must give the same timeline for every series.


def _oracle_diff(prev: AppSnapshot, next: AppSnapshot) -> list[ChangeEvent]:
    day = epoch_to_date(next.fetch_time)
    events = []

    def emit(kind, old, new):
        events.append(ChangeEvent(app=next.app, day=day, kind=kind, old=old, new=new))

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


def oracle_timeline(series: AppSeries) -> AppTimeline:
    if not series.snapshots:
        return AppTimeline(app=series.app, events=(), update_days=())
    daily: list[AppSnapshot] = []
    for snap in series.snapshots:
        day = epoch_to_date(snap.fetch_time)
        if daily and epoch_to_date(daily[-1].fetch_time) == day:
            daily[-1] = snap
        else:
            daily.append(snap)
    first = series.snapshots[0]
    if daily[0] is not first:
        daily.insert(0, first)
    events: list[ChangeEvent] = []
    update_days: list[dt.date] = []
    for prev, cur in zip(daily, daily[1:]):
        events.extend(_oracle_diff(prev, cur))
        if cur.last_updated != prev.last_updated:
            update_days.append(epoch_to_date(cur.fetch_time))
    return AppTimeline(app=series.app, events=tuple(events), update_days=tuple(update_days))


@st.composite
def hourly_histories(draw):
    """Snapshots at distinct hours over a few days, several on some days,
    each field drawn from a small set so states repeat."""
    hours = draw(st.lists(st.integers(0, 24 * 6 - 1), min_size=1, max_size=12, unique=True))
    snaps = []
    for hour in sorted(hours):
        day = DAY0 + dt.timedelta(days=hour // 24)
        snaps.append(
            make_snapshot(
                day=day,
                hour=hour % 24,
                price_cents=draw(st.sampled_from([0, 99, 199])),
                downloads=DownloadBucket(*DOWNLOAD_LADDER[draw(st.integers(3, 5))]),
                rating_count=draw(st.integers(0, 3)),
                version=draw(st.sampled_from(["1.0", "1.1"])),
                category=draw(st.sampled_from(["Tools", "Casual"])),
                permissions=frozenset(draw(st.sets(st.sampled_from("ABC")))),
                last_updated=DAY0 - dt.timedelta(days=draw(st.integers(0, 2))),
            )
        )
    return snaps


@settings(max_examples=200, deadline=None)
@given(hourly_histories())
def test_state_fold_matches_snapshot_fold(snaps):
    series = AppSeries(app=snaps[0].app, snapshots=tuple(snaps))
    assert build_app_timeline(states_of(series)) == oracle_timeline(series)


def _timelines_match_oracle(store: SnapStore) -> int:
    """Check every app's timeline from the store's states against the
    oracle fold over its decoded snapshots; returns the event count."""
    events = 0
    apps = store.apps()
    assert apps
    for app in apps:
        expected = oracle_timeline(store.query_app_series(app))
        assert build_app_timeline(store.app_states(app)) == expected, app
        events += len(expected.events)
    return events


def test_store_states_fold_like_snapshots_with_sidecar(tmp_path, market):
    root = tmp_path / "store"
    ingest_market(root, market)
    store = SnapStore.open(root)
    assert store._index("snapshots").sidecar_bytes == (root / "snapshots.jsonl").stat().st_size
    assert _timelines_match_oracle(store) > 0


def test_store_states_fold_like_snapshots_without_sidecar(tmp_path, market):
    root = tmp_path / "store"
    ingest_market(root, market)
    (root / "snapshots.idx").unlink()
    store = SnapStore.open(root)
    assert store._index("snapshots").sidecar_bytes == 0
    assert _timelines_match_oracle(store) > 0


def test_store_states_fold_like_snapshots_with_stale_sidecar(tmp_path, market):
    root = tmp_path / "store"
    ingest_market(root, market, days=5)
    old_sidecar = (root / "snapshots.idx").read_bytes()
    covered = (root / "snapshots.jsonl").stat().st_size
    ingest_records(SnapStore.open(root), "snapshots", market.snapshots)
    (root / "snapshots.idx").write_bytes(old_sidecar)
    store = SnapStore.open(root)
    index = store._index("snapshots")
    assert index.sidecar_bytes == covered < index.scanned_bytes
    assert _timelines_match_oracle(store) > 0


def test_store_states_fold_like_snapshots_after_another_handle_ingests(tmp_path, market):
    root = tmp_path / "store"
    first = ingest_market(root, market, days=5)
    _timelines_match_oracle(first)
    second = SnapStore.open(root)
    second.app_states(first.apps()[0])
    ingest_records(second, "snapshots", market.snapshots)
    # the first handle catches up at its next ingest, of no lines
    ingest_lines(first, "snapshots", [])
    # the writer's states come from its commits, the reader's from a scan
    for store in (first, second, SnapStore.open(root)):
        assert _timelines_match_oracle(store) > 0


def test_store_states_fold_like_snapshots_over_hand_written_lines(tmp_path, manifest):
    root = tmp_path / "store"
    SnapStore.create(root, manifest)
    snaps = []
    for day, hour, price, perms, version in [
        (0, 1, 99, ("VIBRATE", "INTERNET"), "1.0"),
        (0, 9, 199, ("INTERNET", "VIBRATE"), "1.0"),
        (0, 23, 299, ("CAMERA", "VIBRATE", "INTERNET"), "1.1"),
        (1, 2, 299, ("INTERNET", "CAMERA", "VIBRATE"), "1.1"),
        (1, 20, 99, ("VIBRATE", "INTERNET"), "1.2"),
        (3, 12, 99, ("INTERNET", "VIBRATE"), "1.2"),
        (3, 13, 99, ("INTERNET",), "1.3"),
    ]:
        rec = snapshot_to_record(
            make_snapshot(
                day=DAY0 + dt.timedelta(days=day),
                hour=hour,
                price_cents=price,
                version=version,
                last_updated=DAY0 - dt.timedelta(days=1 - day // 2),
            )
        )
        rec["permissions"] = list(perms)
        snaps.append(rec)
    # written by hand: key order and permission order as given, not canonical
    with open(root / "snapshots.jsonl", "w", encoding="utf-8") as f:
        for rec in snaps:
            f.write(json.dumps(dict(reversed(list(rec.items())))) + "\n")
    store = SnapStore.open(root)
    assert _timelines_match_oracle(store) > 0
    # the states survive a sidecar round trip (an ingest writes one)
    ingest_lines(store, "snapshots", [])
    reopened = SnapStore.open(root)
    assert reopened._index("snapshots").sidecar_bytes > 0
    assert reopened._index("snapshots").table.keys() == store._index("snapshots").table.keys()
    assert _timelines_match_oracle(reopened) > 0


class TestReviewTimeline:
    def test_three_positive_reviews_one_day(self):
        reviews = [make_review(review_id=f"r{i}", rating=5) for i in range(3)]
        timeline = build_review_timeline(reviews)
        assert len(timeline.days) == 1
        entry = timeline.days[0]
        assert (entry.positive, entry.negative, entry.neutral) == (3, 0, 0)

    def test_default_polarity_split(self):
        reviews = [
            make_review(review_id=f"r{r}", rating=r) for r in (1, 2, 3, 4, 5)
        ]
        timeline = build_review_timeline(reviews)
        entry = timeline.days[0]
        assert (entry.positive, entry.negative, entry.neutral) == (2, 2, 1)

    def test_no_reviews(self):
        timeline = build_review_timeline([])
        assert timeline.days == ()

    def test_mixed_apps_raise(self):
        reviews = [make_review(app="com.a"), make_review(app="com.b")]
        with pytest.raises(InvalidInputError):
            build_review_timeline(reviews)

    def test_days_sorted(self):
        reviews = [
            make_review(review_id="r1", day=day(5)),
            make_review(review_id="r2", day=day(1)),
        ]
        timeline = build_review_timeline(reviews)
        assert [d.day for d in timeline.days] == [day(1), day(5)]
