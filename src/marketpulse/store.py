"""Append-log store for snapshots, reviews and top-k observations.

Three newline-delimited JSON logs plus a JSON manifest live in one
directory, and the logs are the only source of truth. Ingest and the log
scan admit a line by one rule (``_admit``): its kind's line codec must
accept it, and a line in its kind's canonical text is admitted by its
pattern with no decode or encode. The index of each log holds every
admitted line (the first one of each entity and time) and skips and counts
any other. In memory the index is columns with one row per line: time
key, byte offset and length, then the review id (reviews) or the id of the
snapshot's timeline state (the fields change events and update days are
computed from), with the distinct states and review ids in tables in order
of first use in the log. Each entity maps to its rows in key order: time,
and for reviews (date, review id). Those rows are the one lookup structure:
a line's key is found by bisection in its entity's rows, and app timelines
and the newest state of every app are read without decoding a log line.
Ingest reads a line given as str as its UTF-8 bytes. It reads the committed
log alongside the lines it is given, so that a re-ingest of lines in the
order they were committed is deduplicated by comparing bytes
(``_CommittedLines``), a block of whole lines at a time where ``ingest_dir``
reads them from a file; any other line is admitted first, and then one
lookup of its key finds a stored copy.

After every ingest the writer persists the index as a ``<kind>.idx``
sidecar (layout ``MPX7``: row counts per entity, then the columns in
entity order, each entity's rows in key order, and for snapshots the state
table as binary columns), which names the log prefix it covers and a digest
of those bytes. Opening a log loads the sidecar's columns as they are,
verifies the digest and every length and id range, and scans only the log
past the covered prefix; the state keys and ``TimelineState`` values are
built from the table's columns when a command first needs them. A missing
or mismatched sidecar, or one of an earlier layout, means scanning the
whole log, so a reader always gets the index a full scan would build
(README "Store layout" says why each earlier layout is ignored). Readers
never write to the store directory. Single writer, any number of readers;
queries return immutable values. A reader scans a log under a shared
``flock``, which the writer holds exclusively from a batch's write to its
fsync, so a reader indexes only fsynced lines.
"""

from __future__ import annotations

import bisect
import datetime as dt
import fcntl
import hashlib
import io
import itertools
import json
import operator
import os
import struct
import threading
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator

from .errors import (
    ConcurrentWriteError,
    InvalidWindowError,
    StoreIOError,
)
from .model import (
    AppSnapshot,
    DownloadBucket,
    ListType,
    ReviewRecord,
    SnapshotStateMemo,
    TimelineState,
    TopKObservation,
    parse_date,
    review_from_trusted_record,
    review_line,
    review_text,
    review_text_state,
    snapshot_from_trusted_record,
    snapshot_line,
    snapshot_text,
    topk_from_trusted_record,
    topk_line,
)

SNAPSHOTS = "snapshots"
REVIEWS = "reviews"
TOPK = "topk"
KINDS = (SNAPSHOTS, REVIEWS, TOPK)

_LOG_FILES = {kind: f"{kind}.jsonl" for kind in KINDS}
_SIDECAR_FILES = {kind: f"{kind}.idx" for kind in KINDS}
_MANIFEST_FILE = "manifest.json"
_BATCH_LINES = 1000
# ingest_dir reads a data file in blocks of this many bytes, each carried on
# to the end of the line it stops in
_BLOCK_BYTES = 1 << 20

# A <kind>.idx sidecar is a header, the entry count of each entity, one
# column per entry field in entity order (each entity's entries in key
# order), the state table (snapshots only), then the entity names and, for
# reviews, the distinct review ids in order of first use in the log, each
# followed by a byte that UTF-8 never uses. Columns are arrays in native
# byte order: a sidecar from a machine of the other byte order fails the
# magic check and is ignored, as does one in an earlier layout. The digest
# is sha1 over the covered log bytes followed by everything after the
# header, so a change to either makes readers scan the log instead.
_SIDECAR_MAGIC = 0x4D505837
# magic, covered log bytes, digest, entries, entities, skipped corrupt lines,
# state table bytes
_SIDECAR_HEADER = struct.Struct("=IQ20sQQQQ")
# per entry: time key, offset and length of the line, then the timeline
# state id (snapshots) or the name id of the review id (reviews)
_ENTRY_CODES = {SNAPSHOTS: "qQII", REVIEWS: "qQII", TOPK: "qQI"}
_NAME_END = b"\xff"
# The state table is a header of four counts and the type code of each
# column, then one column per field of the state keys in id order:
# price_cents, downloads_lo, downloads_hi and rating_count, the string ids
# of version and category, the id of the permission set and the
# last_updated ordinal. Then come the name count of each permission set and
# the string ids of the names of every set in turn, sorted by name, and
# last the strings, each followed by the byte that ends a name. Each column
# is written in the narrowest of 8, 16 or 32 unsigned bits, or 64 signed
# bits, that holds its largest item.
# states, permission sets, permission names over all sets, strings, codes
_TABLE_HEADER = struct.Struct("=QQQQ10s")
_STATE_COLUMNS = 8
_TABLE_CODES = "BHIq"
_ORDINALS = range(1, dt.date.max.toordinal() + 1)


@dataclass(frozen=True)
class DatasetManifest:
    """Dataset-level metadata recorded once, not per record."""

    name: str
    currency: str
    observation_start: dt.date
    observation_end: dt.date
    snapshot_cadence_hint: str = ""

    def __post_init__(self):
        if self.observation_start > self.observation_end:
            raise ValueError("observation_start after observation_end")

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "currency": self.currency,
            "observation_start": self.observation_start.isoformat(),
            "observation_end": self.observation_end.isoformat(),
            "snapshot_cadence_hint": self.snapshot_cadence_hint,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "DatasetManifest":
        return cls(
            name=rec["name"],
            currency=rec["currency"],
            observation_start=parse_date(rec["observation_start"]),
            observation_end=parse_date(rec["observation_end"]),
            snapshot_cadence_hint=rec.get("snapshot_cadence_hint", ""),
        )


@dataclass(frozen=True)
class TimeWindow:
    """Inclusive [start, end] range in epoch seconds."""

    start: int
    end: int

    def __post_init__(self):
        if self.end < self.start:
            raise InvalidWindowError(f"window end {self.end} before start {self.start}")

    def contains(self, ts: int) -> bool:
        return self.start <= ts <= self.end


@dataclass(frozen=True)
class AppSeries:
    """All snapshots of one app, strictly increasing in fetch_time."""

    app: str
    snapshots: tuple[AppSnapshot, ...]

    def __len__(self) -> int:
        return len(self.snapshots)


@dataclass(frozen=True)
class AppStates:
    """The timeline states of one app's snapshots with their fetch times,
    in fetch_time order."""

    app: str
    times: tuple[int, ...]
    states: tuple[TimelineState, ...]


@dataclass(frozen=True)
class RankedListSeries:
    """All observations of one list type, strictly increasing in fetch_time."""

    list_type: ListType
    observations: tuple[TopKObservation, ...]

    def __len__(self) -> int:
        return len(self.observations)


@dataclass
class Rejection:
    kind: str
    line_no: int
    reason: str


@dataclass
class IngestReport:
    """Outcome counts of one ingest call, per record kind."""

    accepted: dict = field(default_factory=lambda: {k: 0 for k in KINDS})
    deduplicated: dict = field(default_factory=lambda: {k: 0 for k in KINDS})
    rejected: list = field(default_factory=list)
    # malformed committed lines the index of each log skipped; kept out of
    # to_record() so the ingest summary format stays as it was
    skipped_corrupt: dict = field(default_factory=lambda: {k: 0 for k in KINDS})

    def merge(self, other: "IngestReport") -> None:
        for kind in KINDS:
            self.accepted[kind] += other.accepted[kind]
            self.deduplicated[kind] += other.deduplicated[kind]
            self.skipped_corrupt[kind] += other.skipped_corrupt[kind]
        self.rejected.extend(other.rejected)

    @property
    def total_accepted(self) -> int:
        return sum(self.accepted.values())

    @property
    def total_rejected(self) -> int:
        return len(self.rejected)

    def to_record(self) -> dict:
        return {
            "accepted": dict(self.accepted),
            "deduplicated": dict(self.deduplicated),
            "rejected": [
                {"kind": r.kind, "line_no": r.line_no, "reason": r.reason}
                for r in self.rejected
            ],
        }


# per-kind line codecs: record dict -> ((entity, time) key, canonical line,
# state key or None); they raise ValueError naming what is wrong with the record
_CODECS: dict[str, Callable] = {
    SNAPSHOTS: snapshot_line,
    REVIEWS: review_line,
    TOPK: topk_line,
}
# store-owned lines were validated at ingest; queries skip the field checks
_TRUSTED_DECODERS: dict[str, Callable] = {
    SNAPSHOTS: snapshot_from_trusted_record,
    REVIEWS: review_from_trusted_record,
    TOPK: topk_from_trusted_record,
}
# per-kind readers of a line in its kind's canonical text, without json.loads
# (see model): line -> ((entity, time) key, head match) or None, and, made
# once per ingest or log scan from the log's index, head match -> state key,
# raising ValueError unless the line is the canonical line of a record the
# codec accepts. Snapshot states go through a memo per app (see model) that
# keeps the index table's state keys.
_TEXT_READERS: dict[str, tuple[Callable, Callable]] = {
    SNAPSHOTS: (snapshot_text, lambda index: SnapshotStateMemo(index.table_value)),
    REVIEWS: (review_text, lambda index: review_text_state),
    # top-k lines are always decoded
    TOPK: (lambda line: None, lambda index: None),
}


def _admit(kind: str, line: str, raw: bytes | None, head, read_state) -> tuple:
    """The (entity, time) key, canonical line and state key of ``line``, a
    line the kind's codec accepts; raises ValueError, TypeError or
    RecursionError, with the rejection text, for any other line.

    ``head`` is what the kind's text reader returned for the line, and
    ``raw`` the line's bytes with its newline when ``head`` is not None: a
    line in canonical text is its own canonical line. ``read_state`` is the
    kind's state reader of this ingest or scan.
    """
    if head is not None:
        try:
            return head[0], raw, read_state(head[1])
        except ValueError:
            pass  # decoded below, where the codec names the fault
    rec = json.loads(line)
    if not isinstance(rec, dict):
        raise ValueError("record must be a JSON object")
    return _CODECS[kind](rec)


def _same_payload(kind: str, committed: bytes, line: bytes) -> bool:
    """Whether a committed log line holds the same record as canonical ``line``.

    Lines this store writes are canonical already; a line written another
    way is canonicalised by the kind's codec, which accepts every line the
    index holds.
    """
    return committed == line or _CODECS[kind](json.loads(committed))[1] == line


def _whole_line_blocks(f: BinaryIO) -> Iterator[tuple[bytes, Iterable[bytes]]]:
    """Blocks of about ``_BLOCK_BYTES`` of ``f``, each carried on to the end
    of the line it stops in, with their lines: cut at b"\\n" only, as
    iterating ``f`` cuts them. Only the last block may end without a
    newline."""
    while block := f.read(_BLOCK_BYTES):
        if not block.endswith(b"\n"):
            block += f.readline()
        yield block, io.BytesIO(block)


def _fsync_path(path: Path, flags: int = os.O_RDONLY) -> None:
    fd = os.open(path, flags, 0o644)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _hash_prefix(path: Path, length: int):
    """sha1 state over the first ``length`` bytes of ``path``, or None if
    the file is shorter or cannot be read."""
    sha = hashlib.sha1()
    try:
        with open(path, "rb") as f:
            while length:
                chunk = f.read(min(length, 1 << 20))
                if not chunk:
                    return None
                sha.update(chunk)
                length -= len(chunk)
    except OSError:
        return None
    return sha


def _at(column: array, rows) -> Iterable[int]:
    """The values of ``column`` at ``rows``; a range of rows is a slice."""
    if type(rows) is range:
        return column[rows.start:rows.stop]
    return map(column.__getitem__, rows)


def _read_columns(data: memoryview, pos: int, columns: list, sizes: list) -> int:
    """Fill each of ``columns`` with ``sizes[i]`` items from ``data``, one
    after the other from ``pos``; returns the position past the last, or
    raises ValueError if ``data`` ends first."""
    for column, size in zip(columns, sizes):
        end = pos + column.itemsize * size
        column.frombytes(data[pos:end])
        if len(column) != size:
            raise ValueError("sidecar column cut short")
        pos = end
    return pos


def _past(column, bound: int) -> bool:
    """Whether an item of ``column`` is ``bound`` or more."""
    return max(column, default=-1) >= bound


def _narrowest(column: array) -> array:
    """``column``, of items none below 0, in the narrowest of the codes
    ``_TABLE_CODES`` that holds its largest item."""
    top = max(column, default=0)
    code = next(
        (code for code in _TABLE_CODES[:-1] if top < 1 << 8 * array(code).itemsize),
        _TABLE_CODES[-1],
    )
    return column if column.typecode == code else array(code, column)


class _Table:
    """Distinct values, each with an id: its place in ``keys()``, the values
    in order of first use. The inverse map ``ids()`` is built on first use.
    """

    def __init__(self, keys: list | None = None):
        self._keys = [] if keys is None else keys
        self._ids: dict | None = None

    def __len__(self) -> int:
        return len(self._keys)

    def keys(self) -> list:
        """The value of every id."""
        return self._keys

    def ids(self) -> dict:
        """Value -> its id."""
        if self._ids is None:
            self._ids = {key: i for i, key in enumerate(self.keys())}
        return self._ids

    def tag(self, value) -> int:
        """The id of ``value``; a value that ``ids`` does not hold is added
        as the next id."""
        ids = self.ids()
        tag = ids.get(value)
        if tag is None:
            tag = ids[value] = len(self)
            self.append(value)
        return tag

    def append(self, value) -> None:
        """Add ``value``, which ``ids`` does not hold, as the next id; the
        caller enters it in ``ids``."""
        self._keys.append(value)


class _StateTable(_Table):
    """The distinct timeline-state keys of a snapshot log, a ``_Table`` in
    order of first use, as the sidecar holds them: one column per key field,
    with version and category as ids into the ``strings`` table and the
    permission set as an id of a run of name ids (``sets``). The state keys
    and the ``TimelineState`` values are built from the columns on first
    use. In memory the columns are 64 bits wide, so a new state is written
    into them as it is added; ``to_bytes`` writes each in the narrowest
    type that holds it.
    """

    def __init__(self):
        super().__init__()
        self.columns = [array("q") for _ in range(_STATE_COLUMNS)]
        self.strings = _Table()
        # the name count of each permission set, and the string ids of the
        # names of every set in turn
        self.sets = [array("q"), array("q")]
        # built on first use: the state key of each id, the table of
        # permission sets, and the TimelineState of each id
        self._keys: list[tuple] | None = None
        self._sets: _Table | None = None
        self._values: list[TimelineState] = []

    def __len__(self) -> int:
        return len(self.columns[0])

    @classmethod
    def from_bytes(cls, data: memoryview) -> "_StateTable":
        """The table ``to_bytes`` wrote; raises ValueError unless every
        length and every id is in range."""
        states, sets, names, strings, codes = _TABLE_HEADER.unpack_from(data)
        codes = codes.decode("ascii")
        if not set(codes) <= set(_TABLE_CODES):
            raise ValueError("state table column of an unknown type")
        table = cls()
        columns = [array(code) for code in codes]
        pos = _read_columns(
            data, _TABLE_HEADER.size, columns, [states] * _STATE_COLUMNS + [sets, names]
        )
        text = bytes(data[pos:]).split(_NAME_END)
        if len(text) != strings + 1 or text[-1]:
            raise ValueError("state table strings do not match their count")
        table.strings = _Table([name.decode("utf-8", "surrogatepass") for name in text[:-1]])
        versions, categories, permissions, days, sizes, set_names = columns[4:]
        if (
            _past(versions, strings)
            or _past(categories, strings)
            or _past(permissions, sets)
            or _past(set_names, strings)
            or sum(sizes) != names
            or (states and (min(days) < _ORDINALS.start or _past(days, _ORDINALS.stop)))
        ):
            raise ValueError("state table id out of range")
        wide = [array("q", column) for column in columns]
        table.columns, table.sets = wide[:-2], wide[-2:]
        return table

    def to_bytes(self) -> bytes:
        """The table as the sidecar holds it, each column in the narrowest
        type that holds it."""
        columns = list(map(_narrowest, [*self.columns, *self.sets]))
        counts = (len(self), len(self.sets[0]), len(self.sets[1]), len(self.strings))
        codes = "".join(column.typecode for column in columns).encode("ascii")
        return (
            _TABLE_HEADER.pack(*counts, codes)
            + b"".join(column.tobytes() for column in columns)
            + b"".join(
                name.encode("utf-8", "surrogatepass") + _NAME_END
                for name in self.strings.keys()
            )
        )

    def _permission_sets(self) -> _Table:
        sets = self._sets
        if sets is None:
            strings, (sizes, names) = self.strings.keys(), self.sets
            sets = self._sets = _Table([
                frozenset(map(strings.__getitem__, names[start:end]))
                for start, end in itertools.pairwise(itertools.accumulate(sizes, initial=0))
            ])
        return sets

    def _rows(self, first: int) -> list[tuple]:
        """The state keys of the ids from ``first`` on, built from the
        columns."""
        strings, sets = self.strings.keys(), self._permission_sets().keys()
        return [
            (price, lo, hi, ratings, strings[version], strings[category], sets[permissions], day)
            for price, lo, hi, ratings, version, category, permissions, day in zip(
                *(column[first:] for column in self.columns)
            )
        ]

    def keys(self) -> list[tuple]:
        """The state key of every id."""
        if self._keys is None:
            self._keys = self._rows(0)
        return self._keys

    def append(self, key: tuple) -> None:
        """Write ``key``, a state key that ``ids`` does not hold, into the
        columns as the next id; the caller enters it in ``ids``."""
        keys, sets, string_tag = self.keys(), self._permission_sets(), self.strings.tag
        price, lo, hi, ratings, version, category, permissions, day = key
        version, category = string_tag(version), string_tag(category)
        new_set = len(sets)
        set_tag = sets.tag(permissions)
        if set_tag == new_set:
            self.sets[0].append(len(permissions))
            self.sets[1].extend([string_tag(name) for name in sorted(permissions)])
        items = (price, lo, hi, ratings, version, category, set_tag, day)
        for column, item in zip(self.columns, items):
            column.append(item)
        keys.append(key)

    def values(self) -> list[TimelineState]:
        """The ``TimelineState`` of every id."""
        values = self._values
        if len(values) < len(self):
            values.extend(
                TimelineState(
                    price,
                    DownloadBucket(lo, hi),
                    ratings,
                    version,
                    category,
                    permissions,
                    dt.date.fromordinal(day),
                )
                for price, lo, hi, ratings, version, category, permissions, day in self._rows(
                    len(values)
                )
            )
        return values


class _LogIndex:
    """Committed records of one log, as columns of rows grouped by entity.

    Row ``r`` is one indexed line: ``times[r]`` is its time key,
    ``offsets[r]`` and ``lengths[r]`` locate it in the log, and ``tags[r]``
    (not kept for top-k) is an id into ``table``: a ``_StateTable`` of the
    distinct state keys ``snapshot_line`` returned (snapshots) or a
    ``_Table`` of the distinct review ids (reviews), each in order of first
    use in the log. ``rows`` maps each
    entity (app or list type) to its row numbers in key order: time, and
    (date, review id) for reviews. It is the only lookup structure: ``find``
    bisects it, and an entity's newest line is its last row. It holds a
    ``range`` for the rows a sidecar held, a list once a line is added.
    ``digest`` is the sha1 state over the first ``scanned_bytes`` bytes of
    the log; ``sidecar_bytes`` is the prefix the sidecar on disk covers.
    """

    def __init__(self, kind: str):
        self.kind = kind
        # the four columns of the snapshot and review logs; top-k keeps no tags
        self.times, self.offsets, self.lengths, self.tags = map(array, "qQII")
        self._time_at = self.times.__getitem__
        self.table = _StateTable() if kind == SNAPSHOTS else _Table()
        # entity -> its row numbers in key order
        self.rows: dict = {}
        self.digest = hashlib.sha1()
        self.scanned_bytes = 0
        self.sidecar_bytes = 0
        self.skipped_tail = 0
        self.skipped_corrupt = 0

    def table_value(self, value: tuple) -> tuple:
        """The state key of ``table`` equal to ``value``, or ``value`` if
        there is none."""
        table = self.table
        tag = table.ids().get(value)
        return value if tag is None else table.keys()[tag]

    def _review_place(self, rows, time_key: int, review_id: str) -> int:
        """The position in ``rows``, the rows of an app's reviews, of the
        first row whose key is not before (``time_key``, ``review_id``):
        one bisection in (time, review id) order that compares review ids
        only within the span of ``time_key``, at most two comparisons per
        step, so that many reviews of one date cost no more than others."""
        times, review_ids, tags = self.times, self.table.keys(), self.tags
        lo, hi = 0, len(rows)
        while lo < hi:
            mid = (lo + hi) // 2
            row = rows[mid]
            time = times[row]
            if time == time_key:
                before = review_ids[tags[row]] < review_id
            else:
                before = time < time_key
            if before:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def find(self, key: tuple) -> int | None:
        """The row of the line indexed under ``key``, an (entity, time key)
        pair, or None; first line wins, since ``_scan`` indexes no later
        line of a key. The rows a sidecar held are a range, bisected in
        ``times`` itself."""
        entity, time_key = key
        rows = self.rows.get(entity[0])
        if rows is None:
            return None
        times = self.times
        if times[rows[-1]] < time_key:
            # past the entity's newest line, as a line in time order is
            return None
        if self.kind == REVIEWS:
            place = self._review_place(rows, time_key, entity[1])
        elif type(rows) is range:
            row = bisect.bisect_left(times, time_key, rows.start, rows.stop)
            return row if row < rows.stop and times[row] == time_key else None
        else:
            place = bisect.bisect_left(rows, time_key, key=self._time_at)
        if place == len(rows):
            return None
        row = rows[place]
        if times[row] != time_key:
            return None
        if self.kind == REVIEWS and self.table.keys()[self.tags[row]] != entity[1]:
            return None
        return row

    def extend(self, keys: Iterable, offsets: Iterable, lengths: Iterable, states: list) -> None:
        """Index a batch of lines in log order: the i-th line, at the i-th
        of ``offsets`` with the i-th of ``lengths``, under the i-th of
        ``keys``, its (entity, time key) pair, which neither ``find`` nor
        another line of the batch holds; ``states[i]`` is its state key, as
        the kind's codec returned it. The lines lie past every indexed one."""
        first = len(self.times)
        times = self.times
        times.extend([key[1] for key in keys])
        self.offsets.extend(offsets)
        self.lengths.extend(lengths)
        reviews = self.kind == REVIEWS
        if reviews:
            # a review's tag is its review id
            states = [entity[1] for entity, _ in keys]
            review_ids = self.table.keys()
        tags = self.tags
        if self.kind != TOPK:
            tags.extend(map(self.table.tag, states))
        rows_of = self.rows
        for row, (entity, time_key) in zip(itertools.count(first), keys):
            group = entity[0]
            rows = rows_of.get(group)
            if rows is None:
                rows_of[group] = [row]
                continue
            if type(rows) is range:
                rows = rows_of[group] = list(rows)
            last = times[rows[-1]]
            if last < time_key or (
                reviews and last == time_key and review_ids[tags[rows[-1]]] < entity[1]
            ):
                rows.append(row)
            elif reviews:
                # a line appended out of key order goes to its key's place
                rows.insert(self._review_place(rows, time_key, entity[1]), row)
            else:
                rows.insert(bisect.bisect_left(rows, time_key, key=self._time_at), row)

    def _gather(self) -> Callable:
        """column -> its values at every entity's rows in turn."""
        order = list(itertools.chain.from_iterable(self.rows.values()))
        if len(order) > 1:
            return operator.itemgetter(*order)
        # itemgetter of one item returns it bare
        return lambda column: [column[r] for r in order]

    def to_sidecar(self) -> bytes:
        """The sidecar covering the first ``scanned_bytes`` of the log."""
        codes = _ENTRY_CODES[self.kind]
        table = self.table.to_bytes() if self.kind == SNAPSHOTS else b""
        gather = self._gather()
        columns = [
            array(code, gather(column))
            for code, column in zip(codes, (self.times, self.offsets, self.lengths, self.tags))
        ]
        names = list(self.rows)
        if self.kind == REVIEWS:
            names += self.table.keys()
        body = (
            array("I", map(len, self.rows.values())).tobytes()
            + b"".join(column.tobytes() for column in columns)
            + table
            + b"".join(name.encode("utf-8", "surrogatepass") + _NAME_END for name in names)
        )
        sha = self.digest.copy()
        sha.update(body)
        header = _SIDECAR_HEADER.pack(
            _SIDECAR_MAGIC,
            self.scanned_bytes,
            sha.digest(),
            len(self.times),
            len(self.rows),
            self.skipped_corrupt,
            len(table),
        )
        return header + body

    @classmethod
    def from_sidecar(cls, kind: str, sidecar: Path, log: Path) -> "_LogIndex | None":
        """The index persisted in ``sidecar``, or None unless the sidecar is
        intact, every length and id in it is in range, and ``log`` still
        begins with the bytes it covers. No state key is built."""
        try:
            data = sidecar.read_bytes()
            magic, covered, digest, count, n_groups, skipped, table_bytes = (
                _SIDECAR_HEADER.unpack_from(data)
            )
        except (OSError, struct.error):
            return None
        if magic != _SIDECAR_MAGIC:
            return None
        index = cls(kind)
        body = memoryview(data)[_SIDECAR_HEADER.size:]
        counts = array("I")
        try:
            pos = _read_columns(
                body,
                0,
                [counts, index.times, index.offsets, index.lengths, index.tags],
                [n_groups] + [count] * len(_ENTRY_CODES[kind]),
            )
            if sum(counts) != count or 0 in counts:
                return None
            if kind == SNAPSHOTS:
                index.table = _StateTable.from_bytes(body[pos:pos + table_bytes])
            elif table_bytes:
                return None
            pos += table_bytes
            names = bytes(body[pos:]).split(_NAME_END)
            if len(names) <= n_groups or names[-1]:
                return None
            names = [name.decode("utf-8", "surrogatepass") for name in names[:-1]]
            groups, review_ids = names[:n_groups], names[n_groups:]
            if kind == REVIEWS:
                index.table = _Table(review_ids)
            elif review_ids:
                return None
            if _past(index.tags, len(index.table)):
                return None
        except (ValueError, struct.error):
            return None
        sha = _hash_prefix(log, covered)
        if sha is None:
            return None
        index.digest = sha.copy()
        sha.update(body)
        if sha.digest() != digest:
            return None
        bounds = list(itertools.accumulate(counts, initial=0))
        index.rows = dict(zip(groups, map(range, bounds, bounds[1:])))
        index.scanned_bytes = index.sidecar_bytes = covered
        index.skipped_corrupt = skipped
        return index

    def newest(self) -> list[tuple]:
        """(entity, row) of every entity's newest line, in (time, offset)
        order."""
        times, offsets = self.times, self.offsets
        newest = [(group, rows[-1]) for group, rows in self.rows.items()]
        newest.sort(key=lambda pair: (times[pair[1]], offsets[pair[1]]))
        return newest


class _CommittedLines:
    """The committed lines of a log in log order, read alongside the lines
    of an ingest, so that a re-ingest of lines in the order they were
    committed costs a byte comparison per line, or per block of lines read
    from a file. It is read only over a log whose index holds every
    committed line, so a line equal to the next committed line is a copy of
    a stored record: it is deduplicated with no decode and no lookup. A line
    that differs leaves the cursor where it is, so the lines after it can
    still meet theirs. Only the log prefix the index covered when the ingest
    began is read, through the read handle, in chunks."""

    _CHUNK = 1 << 20

    def __init__(self, fd: int, end: int):
        self._fd, self._end = fd, end
        # log bytes from the cursor on, and the cursor's place in them and
        # in the log
        self._buffer, self._pos, self._offset = b"", 0, 0

    def take(self, line: bytes) -> bool:
        """Whether ``line``, ending in its only newline, is the committed
        line at the cursor; the cursor then passes it."""
        if not self._at_cursor(line) or line.find(b"\n") != len(line) - 1:
            return False
        self._pos += len(line)
        self._offset += len(line)
        return True

    def take_block(self, block: bytes) -> bool:
        """Whether ``block``, whole lines each ending in a newline, is the
        committed bytes at the cursor; the cursor then passes them. The
        cursor is at the start of a committed line, so equal bytes are the
        same lines."""
        if not self._at_cursor(block):
            return False
        self._pos += len(block)
        self._offset += len(block)
        return True

    def _at_cursor(self, data: bytes) -> bool:
        """Whether ``data``, ending in a newline, is the committed bytes at
        the cursor; the cursor stays where it is."""
        size = len(data)
        if not data.endswith(b"\n") or self._offset + size > self._end:
            return False
        if self._pos + size > len(self._buffer):
            self._buffer = os.pread(
                self._fd, min(self._end - self._offset, max(size, self._CHUNK)), self._offset
            )
            self._pos = 0
        return self._buffer.startswith(data, self._pos)


class SnapStore:
    """Directory-backed append-log store. See module docstring."""

    def __init__(self, root: Path | str, manifest: DatasetManifest):
        self.root = Path(root)
        self.manifest = manifest
        self._indexes: dict[str, _LogIndex | None] = {k: None for k in KINDS}
        self._io_lock = threading.Lock()
        self._read_handles: dict[str, object] = {}

    # -- lifecycle -------------------------------------------------------

    @classmethod
    def create(cls, root: Path | str, manifest: DatasetManifest) -> "SnapStore":
        """Create the logs (kept if present) and then the manifest, which
        marks ``root`` as a store. Each is fsynced and so is the directory,
        and the manifest is renamed into place whole: after a crash there
        is either no manifest or a complete one over durable logs."""
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        for kind in KINDS:
            _fsync_path(root / _LOG_FILES[kind], os.O_WRONLY | os.O_CREAT)
        manifest_path = root / _MANIFEST_FILE
        tmp = manifest_path.with_name(manifest_path.name + ".tmp")
        try:
            tmp.write_text(
                json.dumps(manifest.to_record(), sort_keys=True, indent=2) + "\n",
                encoding="utf-8",
            )
            _fsync_path(tmp)
            os.replace(tmp, manifest_path)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise
        _fsync_path(root)
        return cls(root, manifest)

    @classmethod
    def open(cls, root: Path | str) -> "SnapStore":
        root = Path(root)
        manifest_path = root / _MANIFEST_FILE
        if not manifest_path.exists():
            raise FileNotFoundError(f"no store at {root} ({_MANIFEST_FILE} missing)")
        manifest = DatasetManifest.from_record(
            json.loads(manifest_path.read_text(encoding="utf-8"))
        )
        return cls(root, manifest)

    def _log_path(self, kind: str) -> Path:
        return self.root / _LOG_FILES[kind]

    def _sidecar_path(self, kind: str) -> Path:
        return self.root / _SIDECAR_FILES[kind]

    # -- indexing ---------------------------------------------------------

    def _index(self, kind: str) -> _LogIndex:
        """Per-log index, loaded once per store object.

        A sidecar that still matches the log stands in for scanning the
        prefix it covers. A store object caches its view of the committed
        log; appends made through the same object keep the index current,
        while appends from other handles become visible after ``refresh()``,
        reopening, or at this object's next ingest.
        """
        index = self._indexes[kind]
        if index is None:
            index = _LogIndex.from_sidecar(
                kind, self._sidecar_path(kind), self._log_path(kind)
            ) or _LogIndex(kind)
            self._scan(kind, index)
            self._indexes[kind] = index
        return index

    def refresh(self) -> None:
        """Pick up records committed by other writers since the last scan."""
        for kind, index in self._indexes.items():
            if index is not None:
                self._scan(kind, index)

    def _scan(self, kind: str, index: _LogIndex, wait: bool = False) -> None:
        """Index the committed lines past ``index.scanned_bytes``.

        A line is indexed only when ``_admit`` admits it, as ingest does.
        Any other committed line is skipped and counted, and so is a line
        whose (entity, time) an earlier line holds: the first line wins, as
        ingest would have kept it. A last line without its newline is an
        uncommitted tail and stays unindexed. Admitted lines are indexed in
        batches of up to ``_BATCH_LINES``.

        The log is read under a shared ``flock``; unless ``wait`` is set, a
        scan that finds a batch holding it (``_commit``) keeps its prefix.
        """
        path = self._log_path(kind)
        if not path.exists():
            return
        index.skipped_tail = 0
        if path.stat().st_size <= index.scanned_bytes:
            return
        read_text, state_reader = _TEXT_READERS[kind]
        read_state = state_reader(index)
        # (entity, time) -> offset of each admitted line not yet indexed, and
        # the lengths and state keys of those lines in the same order
        pending: dict[tuple, int] = {}
        lengths: list[int] = []
        states: list = []
        with self._io_lock, open(path, "rb") as f:
            try:
                fcntl.flock(f, fcntl.LOCK_SH if wait else fcntl.LOCK_SH | fcntl.LOCK_NB)
            except BlockingIOError:
                return
            f.seek(index.scanned_bytes)
            offset = index.scanned_bytes
            for raw in f:
                length = len(raw)
                if not raw.endswith(b"\n"):
                    # uncommitted tail from an interrupted write: not indexed
                    index.skipped_tail = length
                    break
                index.digest.update(raw)
                try:
                    line = raw.decode("utf-8")
                    key, _, state = _admit(kind, line, raw, read_text(line), read_state)
                except (TypeError, ValueError, RecursionError):
                    key = None
                if key is None or key in pending or index.find(key) is not None:
                    index.skipped_corrupt += 1
                else:
                    pending[key] = offset
                    lengths.append(length)
                    states.append(state)
                    if len(pending) >= _BATCH_LINES:
                        index.extend(pending, pending.values(), lengths, states)
                        pending.clear()
                        lengths.clear()
                        states.clear()
                offset += length
            index.extend(pending, pending.values(), lengths, states)
            index.scanned_bytes = offset

    def _read_fd(self, kind: str) -> int:
        fd = self._read_handles.get(kind)
        if fd is None:
            fd = os.open(self._log_path(kind), os.O_RDONLY)
            self._read_handles[kind] = fd
        return fd

    def _read_records(self, kind: str, rows) -> list:
        """Decode the records at the index ``rows``, in the order given."""
        index = self._index(kind)
        offsets, lengths = index.offsets, index.lengths
        decoder = _TRUSTED_DECODERS[kind]
        fd = self._read_fd(kind)
        return [
            decoder(json.loads(os.pread(fd, lengths[r], offsets[r]).decode("utf-8")))
            for r in rows
        ]

    def close(self) -> None:
        for fd in self._read_handles.values():
            os.close(fd)
        self._read_handles.clear()

    # -- ingest -----------------------------------------------------------

    def ingest_lines(self, kind: str, lines: Iterable[str | bytes]) -> IngestReport:
        """Validate, dedup and append raw JSONL ``lines`` of one ``kind``.

        A line given as str is read as its UTF-8 bytes, and a line that is
        not UTF-8 is rejected. A line that is the next committed line, read
        in log order alongside ``lines`` (``_CommittedLines``), is
        deduplicated at once. Every other line is admitted by ``_admit``, or
        rejected with its text, and then one lookup of its (entity, time)
        finds a stored copy: a line that holds the stored record
        (``_same_payload``) is deduplicated, and any other is rejected as a
        conflict. Writes are committed in batches; on an I/O failure the
        log is cut back to the end of the last committed batch. The index
        sidecar is rewritten after the last one.
        """
        return self._ingest(kind, lines, in_blocks=False)

    def _ingest(self, kind: str, lines: Iterable, in_blocks: bool) -> IngestReport:
        """``ingest_lines`` of ``lines``. With ``in_blocks``, ``lines`` is a
        binary file, and while the committed lines are read alongside it is
        read in blocks of whole lines (``_whole_line_blocks``): a block that
        is the committed bytes at the cursor is deduplicated whole, and any
        other is cut into lines at its newlines, each of which takes the
        path of a line of ``ingest_lines``."""
        if kind not in KINDS:
            raise ValueError(f"unknown record kind {kind!r}")
        report = IngestReport()
        read_text, state_reader = _TEXT_READERS[kind]
        lock_path = self.root / ".ingest.lock"
        with open(lock_path, "w") as lock_file:
            try:
                fcntl.flock(lock_file, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                raise ConcurrentWriteError(
                    "another ingest is in progress on this store"
                ) from None
            # catch up under the lock: records other handles committed since
            # this one last looked must take part in the dedup (no batch of
            # another writer holds the log now, so the scan never skips)
            index = self._index(kind)
            self._scan(kind, index, wait=True)
            read_state = state_reader(index)
            report.skipped_corrupt[kind] = index.skipped_corrupt
            if index.skipped_tail:
                # drop the uncommitted tail of an interrupted write so new
                # records never glue onto a partial line
                with self._io_lock, open(self._log_path(kind), "r+b") as f:
                    fcntl.flock(f, fcntl.LOCK_EX)
                    f.truncate(index.scanned_bytes)
                index.skipped_tail = 0
            # (entity, time_key) -> canonical line, not yet committed, and
            # the state keys of snapshot lines in the same order
            batch: dict[tuple, bytes] = {}
            states: list[tuple] = []

            find, lengths, offsets = index.find, index.lengths, index.offsets
            fd = self._read_fd(kind)
            # every committed line is indexed unless the scan skipped one
            committed = None
            if index.scanned_bytes and not index.skipped_corrupt:
                committed = _CommittedLines(fd, index.scanned_bytes)

            def stored(key) -> bytes | None:
                """The committed or batch line under ``key``, if any (a key
                is in the batch only while it is not committed)."""
                row = find(key)
                if row is None:
                    return batch.get(key)
                return os.pread(fd, lengths[row], offsets[row])

            # (bytes of a block of whole lines, or None, and its lines)
            blocks: Iterable[tuple[bytes | None, Iterable]] = [(None, lines)]
            if in_blocks and committed is not None:
                blocks = _whole_line_blocks(lines)
            line_no = 0
            for block, block_lines in blocks:
                if block is not None and committed.take_block(block):
                    passed = block.count(b"\n")
                    report.deduplicated[kind] += passed
                    line_no += passed
                    continue
                for line_no, raw in enumerate(block_lines, start=line_no + 1):
                    try:
                        # a str line is its UTF-8 bytes, so both take one path
                        if type(raw) is str:
                            raw = raw.encode("utf-8")
                        if committed is not None and committed.take(raw):
                            report.deduplicated[kind] += 1
                            continue
                        line = raw.decode("utf-8")
                    except UnicodeError as exc:
                        report.rejected.append(
                            Rejection(kind, line_no, f"line is not valid UTF-8: {exc}")
                        )
                        continue
                    head = read_text(line)
                    if head is None and not line.strip():
                        continue
                    if not raw.endswith(b"\n"):
                        raw += b"\n"
                    try:
                        key, canonical, state = _admit(kind, line, raw, head, read_state)
                    except (ValueError, TypeError, RecursionError) as exc:
                        report.rejected.append(Rejection(kind, line_no, str(exc)))
                        continue
                    previous = stored(key)
                    if previous is None:
                        batch[key] = canonical
                        states.append(state)
                        report.accepted[kind] += 1
                        if len(batch) >= _BATCH_LINES:
                            self._commit(kind, index, batch, states)
                            batch.clear()
                            states.clear()
                    elif _same_payload(kind, previous, canonical):
                        report.deduplicated[kind] += 1
                    else:
                        entity, time_key = key
                        report.rejected.append(
                            Rejection(
                                kind,
                                line_no,
                                "conflicting payload for existing record "
                                f"(entity {entity}, time {time_key})",
                            )
                        )
            if batch:
                self._commit(kind, index, batch, states)
            self._write_sidecar(kind, index)
        return report

    def _commit(self, kind: str, index: _LogIndex, batch: dict, states: list) -> None:
        """Append and fsync ``batch``; on failure no byte of it stays.
        ``states`` holds the state key of each line (None but for snapshots)."""
        data = b"".join(batch.values())
        path = self._log_path(kind)
        with self._io_lock:
            fd = os.open(path, os.O_WRONLY | os.O_APPEND)
            try:
                # held until the batch is fsynced or cut back (see _scan)
                fcntl.flock(fd, fcntl.LOCK_EX)
                offset = os.lseek(fd, 0, os.SEEK_END)
                try:
                    pending = memoryview(data)
                    while pending:
                        pending = pending[os.write(fd, pending):]
                    os.fsync(fd)
                except OSError as exc:
                    os.ftruncate(fd, offset)
                    raise StoreIOError(
                        f"failed to commit batch to {path}: {exc}"
                    ) from exc
            finally:
                os.close(fd)
        index.digest.update(data)
        lengths = list(map(len, batch.values()))
        offsets = list(itertools.accumulate(lengths, initial=offset))
        index.extend(batch, offsets[:-1], lengths, states)
        index.scanned_bytes = offsets[-1]

    def _write_sidecar(self, kind: str, index: _LogIndex) -> None:
        """Persist ``index`` next to its log; called under the ingest lock.

        The sidecar is replaced atomically but not fsynced: after a crash a
        torn or stale one fails verification or covers a shorter prefix,
        and readers scan the rest of the log. For the same reason a failed
        write only leaves the previous sidecar in place.
        """
        if index.sidecar_bytes == index.scanned_bytes:
            return
        data = index.to_sidecar()
        path = self._sidecar_path(kind)
        tmp = path.with_name(path.name + ".tmp")
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            return
        index.sidecar_bytes = index.scanned_bytes

    def ingest_dir(self, data_dir: Path | str) -> IngestReport:
        """Ingest the standard three JSONL logs found under ``data_dir``,
        each read in blocks of whole lines while the committed lines are
        read alongside it (``_ingest``)."""
        data_dir = Path(data_dir)
        report = IngestReport()
        for kind in KINDS:
            path = data_dir / _LOG_FILES[kind]
            if not path.exists():
                continue
            # read as bytes: ingest_lines rejects a line that is not UTF-8
            with open(path, "rb") as f:
                report.merge(self._ingest(kind, f, in_blocks=True))
        return report

    # -- queries ----------------------------------------------------------

    def apps(self) -> list[str]:
        """All app ids with at least one snapshot, sorted."""
        return sorted(self._index(SNAPSHOTS).rows)

    def reviewed_apps(self) -> list[str]:
        return sorted(self._index(REVIEWS).rows)

    def query_app_series(
        self, app: str, window: TimeWindow | None = None
    ) -> AppSeries:
        """Snapshots of ``app`` within ``window``, sorted by fetch_time."""
        index = self._index(SNAPSHOTS)
        rows = [
            r
            for r in index.rows.get(app, ())
            if window is None or window.contains(index.times[r])
        ]
        return AppSeries(app=app, snapshots=tuple(self._read_records(SNAPSHOTS, rows)))

    def app_states(self, app: str) -> AppStates:
        """Fetch times and timeline states of ``app``'s snapshots in
        fetch_time order, from the index: no log line is read."""
        index = self._index(SNAPSHOTS)
        rows = index.rows.get(app, ())
        values = index.table.values()
        return AppStates(
            app=app,
            times=tuple(_at(index.times, rows)),
            states=tuple(map(values.__getitem__, _at(index.tags, rows))),
        )

    def latest_snapshots(self) -> dict[str, AppSnapshot]:
        """The newest snapshot of every app, in (fetch_time, offset) order."""
        newest = [r for _, r in self._index(SNAPSHOTS).newest()]
        return {snap.app: snap for snap in self._read_records(SNAPSHOTS, newest)}

    def latest_states(self) -> dict[str, TimelineState]:
        """The timeline state of every app's newest snapshot, in the order
        of ``latest_snapshots``, from the index: no log line is read."""
        index = self._index(SNAPSHOTS)
        values, tags = index.table.values(), index.tags
        return {app: values[tags[r]] for app, r in index.newest()}

    def query_reviews(self, app: str) -> list[ReviewRecord]:
        """Reviews of ``app`` sorted by (date, review_id): the key order of
        the app's rows."""
        return self._read_records(REVIEWS, self._index(REVIEWS).rows.get(app, ()))

    def review_counts(self) -> dict[str, int]:
        """Number of stored reviews per app (no payload decoding)."""
        index = self._index(REVIEWS)
        return {app: len(rows) for app, rows in sorted(index.rows.items())}

    def query_list_series(self, list_type: ListType) -> RankedListSeries:
        """Observations of one list type, time-sorted."""
        rows = self._index(TOPK).rows.get(list_type.value, ())
        return RankedListSeries(
            list_type=list_type,
            observations=tuple(self._read_records(TOPK, rows)),
        )
