import datetime as dt
import json
import sys

import pytest
from hypothesis import given, strategies as st

from marketpulse.model import (
    DOWNLOAD_LADDER,
    DownloadBucket,
    ListType,
    review_from_record,
    review_to_record,
    snapshot_from_record,
    snapshot_to_record,
    topk_from_record,
    topk_to_record,
    validate_review,
    validate_app_id,
    validate_snapshot,
    validate_topk,
)

from conftest import DAY0, make_review, make_snapshot, make_topk


class TestValidateSnapshot:
    def test_consistent_free_app_is_ok(self):
        assert validate_snapshot(make_snapshot(price_cents=0, free=True)) == []

    def test_rating_avg_out_of_bounds(self):
        violations = validate_snapshot(make_snapshot(rating_avg=5.7))
        assert violations == ["rating_avg out of [0,5]"]

    def test_last_updated_one_day_after_fetch(self):
        snap = make_snapshot(last_updated=DAY0 + dt.timedelta(days=1))
        assert "last_updated in future" in validate_snapshot(snap)

    def test_last_updated_same_day_is_fine(self):
        # midnight of the fetch day is not in the future of a noon fetch
        snap = make_snapshot(last_updated=DAY0, hour=12)
        assert validate_snapshot(snap) == []

    def test_free_price_mismatch(self):
        snap = make_snapshot(price_cents=199, free=True)
        assert "free flag inconsistent with price_cents" in validate_snapshot(snap)

    def test_inverted_bucket(self):
        snap = make_snapshot(downloads=DownloadBucket(500, 100))
        assert "downloads bucket empty (lo >= hi)" in validate_snapshot(snap)

    def test_whitespace_app_id(self):
        snap = make_snapshot(app="com.bad app")
        assert "app id contains whitespace" in validate_snapshot(snap)

    def test_multiple_violations_all_reported(self):
        snap = make_snapshot(app="", rating_avg=-1.0, rating_count=-5)
        violations = validate_snapshot(snap)
        assert len(violations) == 3


def _per_character_validate_app_id(app):
    # the original definition, kept as the reference
    violations = []
    if not app:
        violations.append("app id empty")
    elif any(c.isspace() for c in app):
        violations.append("app id contains whitespace")
    return violations


_SPACES = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


class TestValidateAppId:
    @given(st.text())
    def test_agrees_with_per_character_definition(self, app):
        assert validate_app_id(app) == _per_character_validate_app_id(app)

    @given(st.text(), st.sampled_from(_SPACES), st.text())
    def test_agrees_around_every_whitespace_character(self, head, space, tail):
        app = head + space + tail
        assert validate_app_id(app) == _per_character_validate_app_id(app)

    def test_every_code_point_classified_alike(self):
        flagged = [
            c for c in range(sys.maxunicode + 1) if validate_app_id("a" + chr(c)) != []
        ]
        assert flagged == [ord(space) for space in _SPACES]


class TestValidateReview:
    @pytest.mark.parametrize("rating", [1, 2, 3, 4, 5])
    def test_valid_ratings(self, rating):
        assert validate_review(make_review(rating=rating)) == []

    @pytest.mark.parametrize("rating", [0, 6, -1])
    def test_rating_out_of_range(self, rating):
        assert "rating out of range" in validate_review(make_review(rating=rating))


class TestValidateTopk:
    def test_ok(self):
        assert validate_topk(make_topk(["a", "b", "c"])) == []

    def test_duplicate_entry(self):
        assert "duplicate app in ranking" in validate_topk(make_topk(["a", "b", "a"]))

    def test_not_hour_aligned(self):
        obs = make_topk(["a"])
        bad = type(obs)(
            list_type=obs.list_type, fetch_time=obs.fetch_time + 7, ranking=obs.ranking
        )
        assert "fetch_time not aligned to the hour" in validate_topk(bad)

    def test_too_long(self):
        ranking = [f"app{i}" for i in range(481)]
        assert any("longer" in v for v in validate_topk(make_topk(ranking)))


def test_download_ladder_is_sane():
    for lo, hi in DOWNLOAD_LADDER:
        assert lo < hi
    los = [lo for lo, _ in DOWNLOAD_LADDER]
    assert los == sorted(los)


# --- serialization round-trips ---------------------------------------------------

_app_ids = st.from_regex(r"[a-z]{2,4}(\.[a-z0-9]{1,8}){1,3}", fullmatch=True)
_texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=40,
)
_dates = st.dates(min_value=dt.date(2000, 1, 1), max_value=dt.date(2015, 12, 31))


@st.composite
def snapshots(draw):
    day = draw(_dates)
    lo, hi = draw(st.sampled_from(DOWNLOAD_LADDER))
    price = draw(st.sampled_from([0, 0, 99, 199, 2999]))
    return make_snapshot(
        app=draw(_app_ids),
        day=day + dt.timedelta(days=40),
        title=draw(_texts),
        developer=draw(_texts),
        category=draw(_texts),
        price_cents=price,
        downloads=DownloadBucket(lo, hi),
        rating_avg=draw(
            st.floats(min_value=0, max_value=5, allow_nan=False).map(
                lambda x: round(x, 2)
            )
        ),
        rating_count=draw(st.integers(min_value=0, max_value=10**7)),
        version=draw(_texts),
        last_updated=day,
        size_bytes=draw(st.integers(min_value=0, max_value=10**9)),
        permissions=frozenset(
            draw(st.lists(st.from_regex(r"[A-Z_]{3,20}", fullmatch=True), max_size=6))
        ),
    )


@given(snapshots())
def test_snapshot_record_round_trip(snap):
    rec = snapshot_to_record(snap)
    assert snapshot_from_record(json.loads(json.dumps(rec))) == snap


@given(
    _app_ids,
    st.integers(min_value=1, max_value=5),
    _texts,
    _dates,
)
def test_review_record_round_trip(app, rating, text, day):
    review = make_review(app=app, rating=rating, text=text, day=day)
    rec = review_to_record(review)
    assert review_from_record(json.loads(json.dumps(rec))) == review


@given(st.lists(_app_ids, max_size=30, unique=True), st.sampled_from(list(ListType)))
def test_topk_record_round_trip(ranking, list_type):
    obs = make_topk(ranking, list_type=list_type)
    rec = topk_to_record(obs)
    assert topk_from_record(json.loads(json.dumps(rec))) == obs


def test_decode_rejects_missing_field():
    rec = snapshot_to_record(make_snapshot())
    del rec["price_cents"]
    with pytest.raises(ValueError, match="price_cents"):
        snapshot_from_record(rec)


def test_decode_rejects_duplicate_permissions():
    rec = snapshot_to_record(make_snapshot())
    rec["permissions"] = ["CAMERA", "CAMERA"]
    with pytest.raises(ValueError, match="duplicates"):
        snapshot_from_record(rec)


@given(snapshots())
def test_validate_accepts_factory_snapshots(snap):
    # generator produces only invariant-satisfying snapshots
    assert validate_snapshot(snap) == []
