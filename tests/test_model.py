import datetime as dt
import itertools
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from marketpulse.model import (
    DOWNLOAD_LADDER,
    AppSnapshot,
    DownloadBucket,
    ListType,
    SnapshotLineReader,
    canonical_json,
    canonical_snapshot_line,
    date_to_epoch,
    read_review_line,
    read_topk_line,
    review_line,
    snapshot_line,
    topk_line,
    validate_app_id,
)

from conftest import (
    DAY0,
    NONCANONICAL_TEXT_EDITS,
    TO_RECORD,
    make_review,
    make_snapshot,
    make_topk,
    reference_line,
    review_from_record,
    review_to_record,
    snapshot_from_record,
    snapshot_to_record,
    topk_from_record,
    topk_to_record,
    validate_review,
    validate_snapshot,
    validate_topk,
)


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


# --- line codecs against the reference path ------------------------------------

_LINE_CODECS = {"snapshots": snapshot_line, "reviews": review_line, "topk": topk_line}


def _reference_outcome(kind, rec):
    try:
        return reference_line(kind, rec)
    except ValueError as exc:
        return str(exc)


def _decoded_key(kind, rec):
    """The record's identity: (entity, order value)."""
    if kind == "reviews":
        return (rec["app"],), rec["review_id"]
    return (rec["list_type" if kind == "topk" else "app"],), rec["fetch_time"]


def _codec_outcome(kind, rec):
    """The canonical line and state key the codec of ``kind`` returns for
    ``rec``, once its key is checked to be the record's key; or its
    rejection text."""
    try:
        key, line, state = _LINE_CODECS[kind](rec)
    except ValueError as exc:
        return str(exc)
    assert key == _decoded_key(kind, rec)
    return line, state


def _assert_codec_matches_reference(kind, rec):
    # the codecs read what json.loads returns
    rec = json.loads(json.dumps(rec))
    expected = _reference_outcome(kind, rec)
    assert _codec_outcome(kind, rec) == expected


# a fresh line reader of each kind; the snapshot reader's state table is
# the states it admits
_READERS = {
    "snapshots": lambda: SnapshotLineReader(lambda state: state),
    "reviews": lambda: read_review_line,
    "topk": lambda: read_topk_line,
}


def _read(kind, line):
    """What a fresh line reader of ``kind`` returns for ``line``."""
    raw = (line if line.endswith("\n") else line + "\n").encode("utf-8", "surrogatepass")
    return _READERS[kind]()(line, raw)


def _assert_line_matches_reference(kind, line):
    """json.loads and the codec give the reference outcome of ``line``, and
    so does a fresh line reader: the line's canonical form, its state and
    its decoded (entity, order value) key, or the same rejection text. The
    codec's key is the decoded key of every record it accepts."""
    try:
        rec = json.loads(line)
    except ValueError as exc:
        expected = str(exc)
    else:
        expected = _reference_outcome(kind, rec)
        assert _codec_outcome(kind, rec) == expected
    try:
        key, canonical, state = _read(kind, line)
    except ValueError as exc:
        assert str(exc) == expected
    else:
        assert (canonical, state) == expected
        assert key == _decoded_key(kind, rec)


_RANKING_481 = [f"com.app{i}" for i in range(481)]
_odd_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**6), max_value=10**12),
    st.floats(),
    st.text(max_size=5),
    st.lists(st.text(max_size=3), max_size=3),
)
_odd_texts = st.text(max_size=8) | st.lists(
    st.sampled_from(
        ["\ud800", "\udfff", "\u00e9", "\u65e5", " ", "\t", "a", "A", "/", "\b", "\x7f", "\\", '"']
    ),
    max_size=5,
).map("".join)
_odd_dates = st.dates().map(dt.date.isoformat) | st.sampled_from(
    ["2012-13-01", "2012-02-30", "20120401", "2012-W14-1", "2012-4-1", "", "2012-04-01T00:00"]
)


@st.composite
def _mutated(draw, rec):
    """The canonical line of ``rec`` after up to four random edits of its
    fields, then up to two edits of the text into a form the encoder never
    writes, with or without its newline."""
    rec = dict(rec)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        key = draw(st.sampled_from(sorted(rec) or ["app"]))
        edit = draw(st.sampled_from(["drop", "odd", "text", "int", "date", "list", "extra"]))
        if edit == "drop":
            rec.pop(key, None)
        elif edit == "odd":
            rec[key] = draw(_odd_values)
        elif edit == "text":
            rec[key] = draw(_odd_texts)
        elif edit == "int":
            rec[key] = draw(st.integers(min_value=-5, max_value=10**10) | st.just(rec.get(key, 0)))
            if key == "fetch_time" and isinstance(rec[key], int) and draw(st.booleans()):
                rec[key] += draw(st.integers(min_value=1, max_value=3599))
        elif edit == "date":
            rec[key] = draw(_odd_dates)
        elif edit == "list":
            items = rec[key] if isinstance(rec.get(key), list) else ["a"]
            rec[key] = draw(
                st.sampled_from(
                    [items + items[:1], items[::-1], [*items, 7], items + [""], items + ["x y"]]
                )
                | st.just(_RANKING_481)
            )
        else:
            rec[draw(st.text(max_size=5))] = draw(_odd_values)
    line = canonical_json(rec)
    edits = st.lists(st.sampled_from(list(NONCANONICAL_TEXT_EDITS.values())), max_size=2)
    for edit in draw(edits):
        line = edit(line)
    return line + draw(st.sampled_from(["\n", ""]))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_line_codecs_match_the_reference_path(market, data):
    # same acceptance, message text, canonical bytes and state key
    kind = data.draw(st.sampled_from(sorted(_LINE_CODECS)))
    records = {"snapshots": market.snapshots, "reviews": market.reviews, "topk": market.topk}
    rec = TO_RECORD[kind](data.draw(st.sampled_from(records[kind])))
    _assert_line_matches_reference(kind, data.draw(_mutated(rec)))


_SNAPSHOT = snapshot_to_record(make_snapshot())
_REVIEW = review_to_record(make_review())
_TOPK = topk_to_record(make_topk(["a", "b"]))


@pytest.mark.parametrize(
    "kind, rec",
    [
        ("snapshots", _SNAPSHOT),
        ("snapshots", {k: v for k, v in _SNAPSHOT.items() if k != "size_bytes"}),
        ("snapshots", {**_SNAPSHOT, "price_cents": True}),
        ("snapshots", {**_SNAPSHOT, "rating_count": "12"}),
        ("snapshots", {**_SNAPSHOT, "size_bytes": 1.0}),
        ("snapshots", {**_SNAPSHOT, "free": 1}),
        ("snapshots", {**_SNAPSHOT, "rating_avg": 4}),
        ("snapshots", {**_SNAPSHOT, "rating_avg": True}),
        ("snapshots", {**_SNAPSHOT, "rating_count": -1, "size_bytes": -1, "app": "a b"}),
        ("snapshots", {**_SNAPSHOT, "downloads_lo": -5, "price_cents": -1}),
        ("snapshots", {**_SNAPSHOT, "last_updated": "20120401"}),
        ("snapshots", {**_SNAPSHOT, "last_updated": "2012-W14-1"}),
        ("snapshots", {**_SNAPSHOT, "last_updated": "2012-02-30", "size_bytes": None}),
        ("snapshots", {**_SNAPSHOT, "last_updated": "2099-01-01"}),
        ("snapshots", {**_SNAPSHOT, "permissions": ["VIBRATE", "INTERNET"]}),
        ("snapshots", {**_SNAPSHOT, "permissions": ["A", "A"], "app": 7}),
        ("snapshots", {**_SNAPSHOT, "permissions": ["A", 1]}),
        ("snapshots", {**_SNAPSHOT, "extra": [1, 2]}),
        ("snapshots", {**_SNAPSHOT, "title": "caf\u00e9 \ud800 \u65e5"}),
        ("snapshots", {**_SNAPSHOT, "rating_avg": float("nan")}),
        ("reviews", _REVIEW),
        ("reviews", {**_REVIEW, "rating": 0, "review_id": "", "app": ""}),
        ("reviews", {**_REVIEW, "date": "2012-13-01"}),
        ("reviews", {**_REVIEW, "date": "20120401"}),
        ("reviews", {**_REVIEW, "date": "2012-W14-1"}),
        ("reviews", {**_REVIEW, "text": "\udfff", "extra": 1}),
        ("topk", _TOPK),
        ("topk", {**_TOPK, "list_type": 3}),
        ("topk", {**_TOPK, "list_type": "free"}),
        ("topk", {k: v for k, v in _TOPK.items() if k != "list_type"}),
        ("topk", {**_TOPK, "ranking": _RANKING_481}),
        ("topk", {**_TOPK, "ranking": ["a", "a", "b c"], "fetch_time": _TOPK["fetch_time"] + 60}),
        ("topk", {**_TOPK, "ranking": "a"}),
        ("topk", {**_TOPK, "fetch_time": None}),
        ("snapshots", {**_SNAPSHOT, "permissions": ["INTERNET", "INTERNET"]}),
        ("topk", {**_TOPK, "ranking": ["a", "a b"]}),
        ("topk", {**_TOPK, "ranking": ["a", "\xa0"]}),
        ("topk", {**_TOPK, "ranking": ["a", "b\u2028", ""]}),
    ],
)
def test_line_codec_matches_the_reference_path_on_named_cases(kind, rec):
    _assert_line_matches_reference(kind, canonical_json(rec))


@pytest.mark.parametrize("field", ["price_cents", "downloads_hi", "rating_count"])
def test_state_numbers_are_bounded_to_the_signed_64_bit_range(field):
    # the index keeps them in signed 64-bit columns; the codec and the line
    # reader accept the top of the range and reject one past it by name
    price = {"free": False} if field == "price_cents" else {}
    top, past = (
        canonical_json({**_SNAPSHOT, **price, field: value}) for value in (2**63 - 1, 2**63)
    )
    state = snapshot_line(json.loads(top))[2]
    assert _read("snapshots", top) == (
        ((_SNAPSHOT["app"],), _SNAPSHOT["fetch_time"]), (top + "\n").encode(), state
    )
    assert 2**63 - 1 in (state.price_cents, state.downloads.hi, state.rating_count)
    for read in (lambda line: snapshot_line(json.loads(line)), lambda line: _read("snapshots", line)):
        with pytest.raises(ValueError, match=f"^{field} past the signed 64-bit range$"):
            read(past)
    for line in (top, past):
        _assert_line_matches_reference("snapshots", line)


# records whose canonical lines hold every text that NONCANONICAL_TEXT_EDITS
# rewrites: characters the encoder escapes, a 0, a rating, dates and ints
_ESCAPED_TEXT = "Caf\u00e9/A\x7f\b"
_RICH_LINES = {
    "snapshots": canonical_json({**_SNAPSHOT, "title": _ESCAPED_TEXT}),
    "reviews": canonical_json({**_REVIEW, "text": _ESCAPED_TEXT}),
}


@pytest.mark.parametrize(
    "edit", NONCANONICAL_TEXT_EDITS.values(), ids=NONCANONICAL_TEXT_EDITS.keys()
)
def test_text_the_encoder_never_writes_gives_the_reference_outcome(edit):
    edited = {kind: edit(line) for kind, line in _RICH_LINES.items()}
    assert edited != _RICH_LINES
    for kind, line in edited.items():
        _assert_line_matches_reference(kind, line)


@pytest.mark.parametrize("kind, valid", [("snapshots", _SNAPSHOT), ("reviews", _REVIEW), ("topk", _TOPK)])
def test_line_codec_names_the_same_field_when_two_are_bad(kind, valid):
    # the order in which fields are checked decides the message
    for bad in (None, True, "7", 1.5, []):
        for a, b in itertools.combinations(valid, 2):
            _assert_codec_matches_reference(kind, {**valid, a: bad, b: bad})
            _assert_codec_matches_reference(kind, {k: v for k, v in valid.items() if k != a} | {b: bad})


def test_huge_integer_rating_avg_is_a_violation_not_an_overflow():
    rec = {**_SNAPSHOT, "rating_avg": 10**400}
    with pytest.raises(OverflowError):
        reference_line("snapshots", rec)
    with pytest.raises(ValueError, match=r"^rating_avg out of \[0,5\]$"):
        snapshot_line(rec)


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text()
    | st.lists(st.sampled_from(["\ud800", "\udbff\udc00", "\x7f", "\u2028", "\x00"])).map("".join),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@given(_json_values)
def test_canonical_json_is_json_dumps_with_sorted_keys(value):
    assert canonical_json(value) == json.dumps(value, sort_keys=True, separators=(",", ":"))


# strings with what the encoder escapes: quotes, backslashes, control
# characters, non-ASCII text, U+2028 and lone surrogates
_ANY_TEXT = st.text(st.characters(blacklist_categories=())) | st.lists(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\ud800", "\udc00", "a"])
).map("".join)
# integers at and past both ends of the signed 64-bit range
_ANY_INT = st.integers() | st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 10**40])
_ANY_RATING = st.floats() | st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 5.0]
)


@given(
    st.builds(
        AppSnapshot,
        app=_ANY_TEXT,
        fetch_time=_ANY_INT,
        title=_ANY_TEXT,
        developer=_ANY_TEXT,
        category=_ANY_TEXT,
        price_cents=_ANY_INT,
        free=st.booleans(),
        downloads=st.builds(DownloadBucket, _ANY_INT, _ANY_INT),
        rating_avg=_ANY_RATING,
        rating_count=_ANY_INT,
        version=_ANY_TEXT,
        last_updated=st.dates(),
        size_bytes=_ANY_INT,
        permissions=st.frozensets(_ANY_TEXT, max_size=4),
    )
)
def test_canonical_snapshot_line_is_the_canonical_json_of_the_record(snap):
    assert canonical_snapshot_line(snap) == canonical_json(snapshot_to_record(snap)) + "\n"


def test_canonical_snapshot_line_on_named_cases():
    for rating, text in [
        (float("nan"), "NaN"),
        (float("inf"), "Infinity"),
        (float("-inf"), "-Infinity"),
        (-0.0, "-0.0"),
        (5e-324, "5e-324"),
        (5.0, "5.0"),
    ]:
        snap = make_snapshot(rating_avg=rating, permissions=frozenset(), title='"\\\u2028\ud800')
        line = canonical_snapshot_line(snap)
        assert line == canonical_json(snapshot_to_record(snap)) + "\n"
        assert f'"rating_avg":{text},' in line and '"permissions":[],' in line
        assert '"title":"\\"\\\\\\u2028\\ud800"' in line


def _utc_midnight_timestamp(day):
    return int(dt.datetime(day.year, day.month, day.day, tzinfo=dt.timezone.utc).timestamp())


@given(st.dates())
def test_date_to_epoch_is_the_timestamp_of_utc_midnight(day):
    assert date_to_epoch(day) == _utc_midnight_timestamp(day)


def test_date_to_epoch_at_both_ends_of_the_date_range():
    for day in (dt.date.min, dt.date(1969, 12, 31), dt.date(1970, 1, 1), dt.date.max):
        assert date_to_epoch(day) == _utc_midnight_timestamp(day)
