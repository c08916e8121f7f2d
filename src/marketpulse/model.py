"""Shared domain types: snapshots, reviews, ranked lists, and their validation.

All values are immutable. Timestamps are UTC epoch seconds, dates are UTC
calendar days, and prices are integer cents (one currency per dataset,
recorded in the dataset manifest).
"""

from __future__ import annotations

import datetime as dt
import json
import re
from enum import Enum
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Callable, NamedTuple

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


class DownloadBucket(NamedTuple):
    """A download-count range as exposed by the market (lo inclusive)."""

    lo: int
    hi: int

    def midpoint(self) -> float:
        return (self.lo + self.hi) / 2.0


class AppSnapshot(NamedTuple):
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
    permissions: frozenset[str] = frozenset()


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


class ReviewRecord(NamedTuple):
    """One user review; ``review_id`` is unique within an app."""

    app: str
    review_id: str
    reviewer_id: str
    date: dt.date
    rating: int
    title: str
    text: str


class TopKObservation(NamedTuple):
    """One hourly observation of a ranked list (rank 1 first)."""

    list_type: ListType
    fetch_time: int
    ranking: tuple[str, ...]


# --- date/time helpers -------------------------------------------------------


def parse_date(text: str) -> dt.date:
    return dt.date.fromisoformat(text)


_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()


def date_to_epoch(day: dt.date) -> int:
    """Epoch seconds of UTC midnight starting ``day``."""
    return (day.toordinal() - _EPOCH_ORDINAL) * SECONDS_PER_DAY


def epoch_day_to_date(day: int) -> dt.date:
    """UTC date of epoch day ``day``: the UTC date of every epoch second
    ``ts`` with ``ts // SECONDS_PER_DAY == day``."""
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


# --- canonical lines (the wire schema of the store logs) ----------------------


# the C encoder json.dumps builds on every call, built once; its arguments:
# markers (None: no cycle check), default, str encoder, indent, key separator,
# item separator, sort_keys, skipkeys, allow_nan
_encode_json = c_make_encoder(
    None, json.JSONEncoder().default, encode_basestring_ascii, None, ":", ",", True, False, True
)


def canonical_json(value) -> str:
    """``json.dumps(value, sort_keys=True, separators=(",", ":"))``: the
    encoding of every JSONL line the package writes."""
    return _encode_json(value, 0)[0]


# A line codec checks a json.loads record dict field by field in a fixed order
# and raises ValueError naming the first field missing or of the wrong JSON
# type (an int is no boolean), then one listing every violated invariant.
# Per field type: the JSON types it may have, how an error names them, and
# the parse its value goes through (dates are ISO strings).
_STR = ((str,), "a string", None)
_INT = ((int,), "an integer", None)
_BOOL = ((bool,), "a boolean", None)
_NUMBER = ((int, float), "a number", None)
_DATE = ((str,), "a string", parse_date)

_SNAPSHOT_FIELDS = (
    ("app", _STR), ("fetch_time", _INT), ("title", _STR), ("developer", _STR),
    ("category", _STR), ("price_cents", _INT), ("free", _BOOL),
    ("downloads_lo", _INT), ("downloads_hi", _INT), ("rating_avg", _NUMBER),
    ("rating_count", _INT), ("version", _STR), ("last_updated", _DATE),
    ("size_bytes", _INT),
)
_REVIEW_FIELDS = (
    ("app", _STR), ("review_id", _STR), ("reviewer_id", _STR), ("date", _DATE),
    ("rating", _INT), ("title", _STR), ("text", _STR),
)
_LIST_TYPES = frozenset(t.value for t in ListType)
# fetch times, and the state numbers (price_cents, downloads_lo and _hi,
# rating_count), are stored in signed 64-bit columns of the index sidecar
_FETCH_TIME_RANGE = range(-(2**63), 2**63)
_INT64_MAX = 2**63 - 1


def _fields(rec: dict, fields: tuple) -> dict:
    """The values of ``fields`` in ``rec``, checked in order, dates parsed."""
    out = {}
    for name, (types, noun, parse) in fields:
        try:
            value = rec[name]
        except KeyError:
            raise ValueError(f"missing field {name!r}") from None
        if type(value) not in types:
            raise ValueError(f"field {name!r} must be {noun}")
        out[name] = value if parse is None else parse(value)
    return out


def _strings(rec: dict, name: str) -> list:
    try:
        value = rec[name]
    except KeyError:
        raise ValueError(f"missing field {name!r}") from None
    if type(value) is not list or not all(type(v) is str for v in value):
        raise ValueError(f"{name} must be an array of strings")
    return value


def _snapshot_violations(
    app, fetch_time, price, free, rating_avg, rating_count, lo, hi, size, updated
) -> list[str]:
    """Every invariant a snapshot violates; ``updated`` is last_updated."""
    violations = validate_app_id(app)
    if fetch_time not in _FETCH_TIME_RANGE:
        violations.append("fetch_time outside the signed 64-bit range")
    if price < 0:
        violations.append("price_cents negative")
    if price > _INT64_MAX:
        violations.append("price_cents past the signed 64-bit range")
    if free != (price == 0):
        violations.append("free flag inconsistent with price_cents")
    if not 0.0 <= rating_avg <= 5.0:
        violations.append("rating_avg out of [0,5]")
    if rating_count < 0:
        violations.append("rating_count negative")
    if rating_count > _INT64_MAX:
        violations.append("rating_count past the signed 64-bit range")
    if lo < 0:
        violations.append("downloads lower bound negative")
    if lo >= hi:
        violations.append("downloads bucket empty (lo >= hi)")
    if hi > _INT64_MAX:
        violations.append("downloads_hi past the signed 64-bit range")
    if size < 0:
        violations.append("size_bytes negative")
    if date_to_epoch(updated) > fetch_time:
        violations.append("last_updated in future")
    return violations


def _review_violations(app, review_id, rating) -> list[str]:
    """Every invariant a review violates."""
    violations = validate_app_id(app)
    if not review_id:
        violations.append("review_id empty")
    if rating not in (1, 2, 3, 4, 5):
        violations.append("rating out of range")
    return violations


def snapshot_line(rec: dict) -> tuple[tuple, bytes, TimelineState]:
    """The ((app,), fetch_time) key of a snapshots.jsonl record, its
    canonical line and its ``TimelineState``."""
    permissions = _strings(rec, "permissions")
    permission_set = frozenset(permissions)
    if len(permission_set) != len(permissions):
        raise ValueError("permissions has duplicates")
    s = _fields(rec, _SNAPSHOT_FIELDS)
    price, lo, hi = s["price_cents"], s["downloads_lo"], s["downloads_hi"]
    violations = _snapshot_violations(
        s["app"], s["fetch_time"], price, s["free"], s["rating_avg"], s["rating_count"],
        lo, hi, s["size_bytes"], s["last_updated"],
    )
    if violations:
        raise ValueError("; ".join(violations))
    # in [0,5] now, so float() of an integer cannot overflow
    s["rating_avg"] = float(s["rating_avg"])
    state = tuple.__new__(TimelineState, (
        price, tuple.__new__(DownloadBucket, (lo, hi)), s["rating_count"], s["version"],
        s["category"], permission_set, s["last_updated"],
    ))
    s["last_updated"] = s["last_updated"].isoformat()
    s["permissions"] = sorted(permissions)
    return ((s["app"],), s["fetch_time"]), (canonical_json(s) + "\n").encode("utf-8"), state


def review_line(rec: dict) -> tuple[tuple, bytes, int]:
    """The ((app,), review_id) key of a reviews.jsonl record, its canonical
    line and, as its state, its date epoch."""
    r = _fields(rec, _REVIEW_FIELDS)
    violations = _review_violations(r["app"], r["review_id"], r["rating"])
    if violations:
        raise ValueError("; ".join(violations))
    day = date_to_epoch(r["date"])
    r["date"] = r["date"].isoformat()
    return ((r["app"],), r["review_id"]), (canonical_json(r) + "\n").encode("utf-8"), day


# A line reader admits one line of its kind: ``read(line, raw)``, where
# ``raw`` is the line's UTF-8 bytes with its newline, returns what json.loads
# and the kind's codec return for the line, or raises what they raise. A line
# in the canonical text of its kind (the line canonical_json writes for a
# record the codec accepts whose strings need no escape: its keys in sorted
# order, no spaces, only printable ASCII) is admitted by its pattern and is
# its own canonical line, with no decode and no encode; no string the
# patterns match holds an escape, so the text of every string is its value.
# Any other line is left to json.loads and the codec.
_STR_CHARS = r"[ !#-\[\]-~]*+"
_STR_TEXT = '"(' + _STR_CHARS + ')"'
_INT_TEXT = r"(0|-?[1-9][0-9]*+)"
_DATE_TEXT = r'"([0-9]{4}-[0-9]{2}-[0-9]{2})"'
# the snapshot pattern comes in two parts: the head runs through fetch_time,
# which is all a twin (see SnapshotLineReader) needs matched
_SNAPSHOT_HEAD = re.compile(
    r'\{"app":' + _STR_TEXT
    + ',"category":' + _STR_TEXT
    + ',"developer":' + _STR_TEXT
    + ',"downloads_hi":' + _INT_TEXT
    + ',"downloads_lo":' + _INT_TEXT
    # at most 19 digits: int() of it never raises
    + ',"fetch_time":(0|-?[1-9][0-9]{0,18}),'
)
_SNAPSHOT_REST = re.compile(
    '"free":(true|false)'
    + ',"last_updated":' + _DATE_TEXT
    + r',"permissions":\[((?:"' + _STR_CHARS + '"(?:,"' + _STR_CHARS + r'")*+)?)\]'
    + ',"price_cents":' + _INT_TEXT
    + ',"rating_avg":([-+.0-9eE]++)'
    + ',"rating_count":' + _INT_TEXT
    + ',"size_bytes":' + _INT_TEXT
    + ',"title":' + _STR_TEXT
    + ',"version":' + _STR_TEXT
    + r"\}\n?"
)
_REVIEW_TEXT = re.compile(
    r'\{"app":' + _STR_TEXT
    + ',"date":' + _DATE_TEXT
    + ',"rating":' + _INT_TEXT
    + ',"review_id":' + _STR_TEXT
    + ',"reviewer_id":' + _STR_TEXT
    + ',"text":' + _STR_TEXT
    + ',"title":' + _STR_TEXT
    + r"\}\n?"
)


def _record(line: str) -> dict:
    """The JSON object of ``line``; raises ValueError for any other line."""
    rec = json.loads(line)
    if not isinstance(rec, dict):
        raise ValueError("record must be a JSON object")
    return rec


def _snapshot_text_state(head: re.Match) -> TimelineState:
    """What ``snapshot_line`` returns as the state of the line of ``head``,
    which is then its canonical line; raises ValueError when it is not."""
    rest = _SNAPSHOT_REST.fullmatch(head.string, head.end())
    if rest is None:
        raise ValueError("not in canonical text")
    free, updated, permissions, price, rating_avg, rating_count, size, _, version = rest.groups()
    app, category, _, hi, lo, fetch_time = head.groups()
    hi, lo, fetch_time, price, rating_count, size = (
        int(hi), int(lo), int(fetch_time), int(price), int(rating_count), int(size)
    )
    rating = float(rating_avg)
    if repr(rating) != rating_avg:
        raise ValueError("rating_avg not in its shortest form")
    # a YYYY-MM-DD text that parses is the ISO form of its date
    updated = dt.date.fromisoformat(updated)
    permissions = permissions[1:-1].split('","') if permissions else []
    permission_set = frozenset(permissions)
    if sorted(permission_set) != permissions:
        raise ValueError("permissions not sorted and unique")
    if _snapshot_violations(
        app, fetch_time, price, free == "true", rating, rating_count, lo, hi, size, updated
    ):
        raise ValueError("snapshot violates an invariant")
    return tuple.__new__(TimelineState, (
        price, tuple.__new__(DownloadBucket, (lo, hi)), rating_count, version, category,
        permission_set, updated,
    ))


class SnapshotLineReader:
    """The line reader of snapshots.jsonl, which checks a line in canonical
    text in full only when it is the first of a run of its app's lines
    that differ in ``fetch_time`` alone.

    Per app it keeps the last line that passed the full check, with its
    fetch_time digits (head group 6) cut out, and that line's state.
    Every check but two reads only the cut text, so a line whose cut text
    equals its app's (a twin) is the canonical line of a valid record
    exactly when its fetch_time is in the signed 64-bit range and not
    before the last_updated day; it then takes the kept state after those
    two checks. Any other line in canonical text, or a twin that fails
    either, takes the full check, and only a line that passes it is kept.
    A line that fails it, or is not in canonical text, goes to json.loads
    and ``snapshot_line``.

    The cut texts and the states are two dicts keyed by app, so the reader
    adds no object the garbage collector tracks per app or per line. A
    state is kept as ``shared`` returns it: the equal state the caller holds
    already (its index's table), so the objects the full check built for
    each line are freed, not kept.
    """

    __slots__ = ("_texts", "_states", "_shared")

    def __init__(self, shared: Callable[[TimelineState], TimelineState]):
        self._texts: dict[str, str] = {}
        self._states: dict[str, TimelineState] = {}
        self._shared = shared

    def __call__(self, line: str, raw: bytes) -> tuple[tuple, bytes, TimelineState]:
        head = _SNAPSHOT_HEAD.match(line)
        if head is not None:
            start, end = head.span(6)
            cut = line[:start] + line[end:]
            app, fetch_time = head[1], int(head[6])
            if self._texts.get(app) == cut:
                state = self._states[app]
                if fetch_time in _FETCH_TIME_RANGE and (
                    date_to_epoch(state.last_updated) <= fetch_time
                ):
                    return ((app,), fetch_time), raw, state
            try:
                state = _snapshot_text_state(head)
            except ValueError:
                pass  # decoded below, where the codec names the fault
            else:
                state = self._states[app] = self._shared(state)
                self._texts[app] = cut
                return ((app,), fetch_time), raw, state
        return snapshot_line(_record(line))


def read_review_line(line: str, raw: bytes) -> tuple[tuple, bytes, int]:
    """The line reader of reviews.jsonl."""
    text = _REVIEW_TEXT.fullmatch(line)
    if text is not None:
        app, day, rating, review_id = text.group(1, 2, 3, 4)
        try:
            if not _review_violations(app, review_id, int(rating)):
                # a YYYY-MM-DD text that parses is the ISO form of its date
                return ((app,), review_id), raw, date_to_epoch(dt.date.fromisoformat(day))
        except ValueError:
            pass  # decoded below, where the codec names the fault
    return review_line(_record(line))


def read_topk_line(line: str, raw: bytes) -> tuple[tuple, bytes, None]:
    """The line reader of topk.jsonl: every line is decoded."""
    return topk_line(_record(line))


def topk_line(rec: dict) -> tuple[tuple, bytes, None]:
    """The ((list_type,), fetch_time) key of a topk.jsonl record and its
    canonical line (top-k records have no state)."""
    if "list_type" not in rec:
        raise ValueError("missing field 'list_type'")
    list_type = rec["list_type"]
    if type(list_type) is not str or list_type not in _LIST_TYPES:
        raise ValueError(f"unknown list_type {list_type!r}")
    ranking = _strings(rec, "ranking")
    o = _fields(rec, (("fetch_time", _INT),))
    o["list_type"], o["ranking"] = list_type, ranking
    violations = []
    if len(ranking) > MAX_RANKING_LENGTH:
        violations.append(f"ranking longer than {MAX_RANKING_LENGTH}")
    if len(set(ranking)) != len(ranking):
        violations.append("duplicate app in ranking")
    if o["fetch_time"] not in _FETCH_TIME_RANGE:
        violations.append("fetch_time outside the signed 64-bit range")
    if o["fetch_time"] % SECONDS_PER_HOUR != 0:
        violations.append("fetch_time not aligned to the hour")
    # one test of the whole ranking (str.split() splits at exactly the
    # characters _WHITESPACE matches); the entries are walked only to name
    # the first bad one
    joined = "".join(ranking)
    if "" in ranking or "".join(joined.split()) != joined:
        bad = next(filter(None, map(validate_app_id, ranking)))
        violations.extend(f"ranking entry: {v}" for v in bad)
    if violations:
        raise ValueError("; ".join(violations))
    return ((list_type,), o["fetch_time"]), (canonical_json(o) + "\n").encode("utf-8"), None


# --- canonical lines of typed records -----------------------------------------


_INFINITY = float("inf")


def _json_float(x: float) -> str:
    """The text json writes for the float ``x``."""
    if x != x:
        return "NaN"
    if x == _INFINITY:
        return "Infinity"
    if x == -_INFINITY:
        return "-Infinity"
    return float.__repr__(x)


def canonical_snapshot_line(s: AppSnapshot) -> str:
    """The canonical line of ``s`` with its newline: what ``canonical_json``
    writes for the snapshot's record (downloads as downloads_lo and _hi,
    last_updated as its ISO date, permissions sorted), built straight from
    the fields with the keys in sorted order."""
    e = encode_basestring_ascii
    permissions = ",".join(map(e, sorted(s.permissions)))
    return (
        f'{{"app":{e(s.app)},"category":{e(s.category)},"developer":{e(s.developer)}'
        f',"downloads_hi":{s.downloads.hi},"downloads_lo":{s.downloads.lo}'
        f',"fetch_time":{s.fetch_time},"free":{"true" if s.free else "false"}'
        f',"last_updated":{e(s.last_updated.isoformat())},"permissions":[{permissions}]'
        f',"price_cents":{s.price_cents},"rating_avg":{_json_float(s.rating_avg)}'
        f',"rating_count":{s.rating_count},"size_bytes":{s.size_bytes}'
        f',"title":{e(s.title)},"version":{e(s.version)}}}\n'
    )


# trusted decoders: no per-field type checks, for store lines validated at
# ingest and for simulator records; each builds its record with
# tuple.__new__, in field order, which skips the named tuple's Python-level
# __new__


def snapshot_from_trusted_record(rec: dict) -> AppSnapshot:
    return tuple.__new__(AppSnapshot, (
        rec["app"],
        rec["fetch_time"],
        rec["title"],
        rec["developer"],
        rec["category"],
        rec["price_cents"],
        rec["free"],
        tuple.__new__(DownloadBucket, (rec["downloads_lo"], rec["downloads_hi"])),
        rec["rating_avg"],
        rec["rating_count"],
        rec["version"],
        dt.date.fromisoformat(rec["last_updated"]),
        rec["size_bytes"],
        frozenset(rec["permissions"]),
    ))


def review_from_trusted_record(rec: dict) -> ReviewRecord:
    return tuple.__new__(ReviewRecord, (
        rec["app"],
        rec["review_id"],
        rec["reviewer_id"],
        dt.date.fromisoformat(rec["date"]),
        rec["rating"],
        rec["title"],
        rec["text"],
    ))


def topk_from_trusted_record(rec: dict) -> TopKObservation:
    return tuple.__new__(TopKObservation, (
        ListType(rec["list_type"]), rec["fetch_time"], tuple(rec["ranking"])
    ))
