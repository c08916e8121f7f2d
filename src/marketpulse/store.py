"""Append-log store for snapshots, reviews and top-k observations.

Three newline-delimited JSON logs plus a JSON manifest live in one
directory, and the logs are the only source of truth. Ingest and the log
scan admit a line through its kind's line reader (``_READERS``, defined in
``model``), which returns what json.loads and the kind's codec return for
it, or raises their rejection. A line's key is its record's identity,
(entity, order value): ((app,), fetch_time) for a snapshot, ((app,),
review_id) for a review and ((list_type,), fetch_time) for a top-k list.
The index of each log holds every admitted line (the first one of each
key) and skips and counts any other. In memory the index is columns with
one row per line: time (a review's date), byte offset and length, then the
review id (reviews) or the id of the snapshot's timeline state (the fields
change events and update days are computed from), with the distinct states
and review ids in tables in order of first use in the log. Each entity
maps to its rows in order of their order values. Those rows are the one
lookup structure: a line's key is found by one bisection in its entity's
rows, and app timelines and the newest state of every app are read
without decoding a log line.
Ingest reads each data file as bytes alongside the committed log, so that a
re-ingest of lines in the order they were committed is deduplicated by
comparing bytes, a block of whole lines at a time (``_CommittedLines``); any
other line is admitted first, and then one lookup of its key finds a stored
copy.

After every ingest the writer persists the index as a ``<kind>.idx``
sidecar (layout ``MPXA``: row counts per entity, then every entity's row
numbers in key order, the columns in log order, for snapshots the state
table's columns, and last every string), which names the log prefix it
covers and a digest of those bytes. Every column is stored as memory holds
it, in a type fixed per column. Opening a log loads the sidecar's columns
as they are, verifies the digest and every length and id range, and scans
only the log past the covered prefix; the ``TimelineState``s are built
from the table's columns when a command first needs them. A missing
or mismatched sidecar, or one of an earlier layout, means scanning the
whole log, so a reader always gets the index a full scan would build.
Readers never write to the store directory. Single writer, any number of
readers; queries return immutable values. A reader scans a log under a
shared ``flock``, which the writer holds exclusively from a batch's write
to its fsync, so a reader indexes only fsynced lines.
"""

from __future__ import annotations

import bisect
import datetime as dt
import fcntl
import hashlib
import io
import itertools
import json
import os
import struct
import threading
import weakref
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
    SnapshotLineReader,
    TimelineState,
    TopKObservation,
    parse_date,
    read_review_line,
    read_topk_line,
    review_from_trusted_record,
    snapshot_from_trusted_record,
    topk_from_trusted_record,
)

SNAPSHOTS = "snapshots"
REVIEWS = "reviews"
TOPK = "topk"
KINDS = (SNAPSHOTS, REVIEWS, TOPK)

_LOG_FILES = {kind: f"{kind}.jsonl" for kind in KINDS}
_SIDECAR_FILES = {kind: f"{kind}.idx" for kind in KINDS}
_MANIFEST_FILE = "manifest.json"
_BATCH_LINES = 1000
# while the committed lines are read alongside a data file, ingest reads it
# in blocks of this many bytes, each carried on to the end of the line it
# stops in
_BLOCK_BYTES = 1 << 20

# A <kind>.idx sidecar is a header, its counts, the entry count of each
# entity, the row numbers of every entity in turn (each entity's in key
# order), one column per entry field in log order, the state table's columns
# (snapshots only), then the strings: the entity names, then the strings of
# the index's table (the review ids, or the state table's strings), each
# followed by a byte that UTF-8 never uses. Columns are arrays in native
# byte order, as ``_LogIndex`` and ``_StateTable`` hold them: a sidecar from
# a machine of the other byte order fails the magic check and is ignored, as
# does one in an earlier layout. The digest is sha1 over the covered log
# bytes followed by everything after the header, the counts too, so a change
# to either makes readers scan the log instead.
_SIDECAR_MAGIC = 0x4D505841
# magic, covered log bytes, digest
_SIDECAR_HEADER = struct.Struct("=IQ20s")
# entries, entities, skipped corrupt lines, then states, permission sets and
# permission names over all sets (all three 0 but for snapshots)
_SIDECAR_COUNTS = struct.Struct("=QQQQQQ")
_NAME_END = b"\xff"
# The type of each state table column, in sidecar order: price_cents,
# downloads_lo, downloads_hi and rating_count, which the codec bounds to
# signed 64 bits; the string ids of version and category, the permission-set
# id and the last_updated ordinal; then the name count of each permission set
# and the string ids of the names of every set in turn, sorted by name.
_STATE_CODES = "qqqqIIIIII"
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


@dataclass
class Rejection:
    kind: str
    line_no: int
    reason: str


@dataclass
class IngestReport:
    """Outcome counts of one ingest, per record kind."""

    accepted: dict = field(default_factory=lambda: {k: 0 for k in KINDS})
    deduplicated: dict = field(default_factory=lambda: {k: 0 for k in KINDS})
    rejected: list = field(default_factory=list)
    # malformed committed lines the index of each log skipped; kept out of
    # to_record() so the ingest summary format stays as it was
    skipped_corrupt: dict = field(default_factory=lambda: {k: 0 for k in KINDS})

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


# store-owned lines were validated at ingest; queries skip the field checks
_TRUSTED_DECODERS: dict[str, Callable] = {
    SNAPSHOTS: snapshot_from_trusted_record,
    REVIEWS: review_from_trusted_record,
    TOPK: topk_from_trusted_record,
}
# per-kind line readers (see model), each made once per ingest or log scan
# from the log's index: (line, its bytes with the newline) -> ((entity, order
# value) key, canonical line, state: a snapshot's TimelineState, a review's
# date epoch, or None for top-k), raising ValueError, TypeError or
# RecursionError with the rejection text. The snapshot reader keeps the
# index table's states.
_READERS: dict[str, Callable[[_LogIndex], Callable]] = {
    SNAPSHOTS: lambda index: SnapshotLineReader(index.table_value),
    REVIEWS: lambda index: read_review_line,
    TOPK: lambda index: read_topk_line,
}


def _same_payload(read: Callable, committed: bytes, line: bytes) -> bool:
    """Whether a committed log line holds the same record as canonical ``line``.

    Lines this store writes are canonical already; a line written another
    way is canonicalised by ``read``, the kind's line reader, which admits
    every line the index holds.
    """
    return committed == line or read(committed.decode("utf-8"), committed)[1] == line


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
    """The distinct ``TimelineState``s of a snapshot log, a ``_Table`` in
    order of first use, as memory and the sidecar hold them: one column per
    field (downloads as lo and hi, last_updated as its ordinal), with
    version and category as ids into the ``strings`` table and the
    permission set as an id of a run of name ids (``sets``), each column of
    the type ``_STATE_CODES`` gives it. The states are built from the
    columns on first use; a new state is written into the columns as it is
    added.
    """

    def __init__(self):
        super().__init__()
        # the name count of each permission set, and the string ids of the
        # names of every set in turn
        *self.columns, sizes, names = map(array, _STATE_CODES)
        self.sets = [sizes, names]
        self.strings = _Table()
        # built on first use: the state of each id and the table of
        # permission sets
        self._keys: list[TimelineState] | None = None
        self._sets: _Table | None = None

    def __len__(self) -> int:
        return len(self.columns[0])

    def in_range(self) -> bool:
        """Whether every id in the columns is in range, the set sizes add up
        to the name count and every ordinal is a date."""
        strings, (sizes, names) = len(self.strings), self.sets
        versions, categories, permissions, days = self.columns[4:]
        return not (
            _past(versions, strings)
            or _past(categories, strings)
            or _past(permissions, len(sizes))
            or _past(names, strings)
            or sum(sizes) != len(names)
            or (days and (min(days) < _ORDINALS.start or _past(days, _ORDINALS.stop)))
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

    def keys(self) -> list[TimelineState]:
        """The state of every id."""
        if self._keys is None:
            strings, sets = self.strings.keys(), self._permission_sets().keys()
            prices, los, his, ratings, versions, categories, permissions, days = self.columns
            # tuple.__new__ skips the named tuples' Python-level __new__, so
            # map and zip build every state in C
            new = tuple.__new__
            self._keys = list(map(new, itertools.repeat(TimelineState), zip(
                prices, map(new, itertools.repeat(DownloadBucket), zip(los, his)), ratings,
                map(strings.__getitem__, versions), map(strings.__getitem__, categories),
                map(sets.__getitem__, permissions), map(dt.date.fromordinal, days),
            )))
        return self._keys

    def append(self, state: TimelineState) -> None:
        """Write ``state``, which ``ids`` does not hold, into the columns as
        the next id; the caller enters it in ``ids``."""
        keys, sets, string_tag = self.keys(), self._permission_sets(), self.strings.tag
        price, (lo, hi), ratings, version, category, permissions, updated = state
        version, category = string_tag(version), string_tag(category)
        new_set = len(sets)
        set_tag = sets.tag(permissions)
        if set_tag == new_set:
            self.sets[0].append(len(permissions))
            self.sets[1].extend([string_tag(name) for name in sorted(permissions)])
        items = (price, lo, hi, ratings, version, category, set_tag, updated.toordinal())
        for column, item in zip(self.columns, items):
            column.append(item)
        keys.append(state)


class _LogIndex:
    """Committed records of one log, as columns of rows grouped by entity.

    Row ``r`` is one indexed line, in log order: ``times[r]`` is its time
    (a review's date epoch), ``offsets[r]`` and ``lengths[r]`` locate it
    in the log, and ``tags[r]`` (not kept for top-k) is an id into
    ``table``: a ``_StateTable`` of the distinct states ``snapshot_line``
    returned (snapshots) or a ``_Table`` of the distinct review ids
    (reviews), each in order of first use in the log. ``rows`` maps each
    entity (app or list type) to an ``array("I")`` of its row numbers
    sorted by ``row_key``: time, and review id for reviews. It is the only
    lookup structure: ``find`` bisects it, and the newest line of an app's
    snapshots or of a list type is its last row. The sidecar holds these
    arrays and columns as they are, then the entity names and ``strings``:
    the state table's strings (snapshots) or the review ids (reviews).
    ``digest`` is the sha1
    state over the first ``scanned_bytes`` bytes of the log;
    ``sidecar_bytes`` is the prefix the sidecar on disk covers.
    """

    def __init__(self, kind: str):
        self.kind = kind
        # the four columns of the snapshot and review logs; top-k keeps no
        # tags, so its tag column stays empty
        self.times, self.offsets, self.lengths, self.tags = map(array, "qQII")
        self.table = _StateTable() if kind == SNAPSHOTS else _Table()
        # the table's strings; top-k's table stays empty
        self.strings = self.table.strings if kind == SNAPSHOTS else self.table
        # the order value of a row, by which its entity's rows are sorted:
        # its time, or a review's review id
        self.row_key = self.times.__getitem__
        if kind == REVIEWS:
            review_ids, tags = self.table.keys(), self.tags
            self.row_key = lambda row: review_ids[tags[row]]
        # entity -> its row numbers in key order
        self.rows: dict = {}
        self.digest = hashlib.sha1()
        self.scanned_bytes = 0
        self.sidecar_bytes = 0
        self.skipped_tail = 0
        self.skipped_corrupt = 0

    def table_value(self, value: TimelineState) -> TimelineState:
        """The state of ``table`` equal to ``value``, or ``value`` if there
        is none."""
        table = self.table
        tag = table.ids().get(value)
        return value if tag is None else table.keys()[tag]

    def find(self, key: tuple) -> int | None:
        """The row of the line indexed under ``key``, an (entity, order
        value) pair, or None: one comparison with the entity's last row
        and, unless the key is past it, one bisection of its rows by
        ``row_key``. First line wins, since ``_scan`` indexes no later line
        of a key."""
        entity, value = key
        rows = self.rows.get(entity[0])
        if rows is None:
            return None
        row_key = self.row_key
        if row_key(rows[-1]) < value:
            # past the last row, as most lines of an ingest are
            return None
        # the first row not before ``value``, or else the last
        row = rows[bisect.bisect_left(rows, value, 0, len(rows) - 1, key=row_key)]
        return row if row_key(row) == value else None

    def extend(self, keys: Iterable, offsets: Iterable, lengths: Iterable, states: list) -> None:
        """Index a batch of lines in log order: the i-th line, at the i-th
        of ``offsets`` with the i-th of ``lengths``, under the i-th of
        ``keys``, its (entity, order value) pair, which neither ``find``
        nor another line of the batch holds; ``states[i]`` is its state, as
        the kind's codec returned it: a review's date goes to ``times`` and
        its review id to ``tags``. The lines lie past every indexed one."""
        first = len(self.times)
        values = [key[1] for key in keys]
        times, tagged = (states, values) if self.kind == REVIEWS else (values, states)
        self.times.extend(times)
        self.offsets.extend(offsets)
        self.lengths.extend(lengths)
        if self.kind != TOPK:
            self.tags.extend(map(self.table.tag, tagged))
        rows_of, row_key = self.rows, self.row_key
        for row, (entity, value) in zip(itertools.count(first), keys):
            rows = rows_of.get(entity[0])
            if rows is None:
                rows_of[entity[0]] = array("I", (row,))
            elif row_key(rows[-1]) < value:
                rows.append(row)
            else:
                # a line appended out of key order goes to its key's place
                rows.insert(bisect.bisect_left(rows, value, key=row_key), row)

    def columns(self) -> list[array]:
        """Every column the sidecar holds, in its order: the entry columns,
        then the state table's (snapshots)."""
        columns = [self.times, self.offsets, self.lengths, self.tags]
        if self.kind == SNAPSHOTS:
            columns += [*self.table.columns, *self.table.sets]
        return columns

    def to_sidecar(self) -> bytes:
        """The sidecar covering the first ``scanned_bytes`` of the log."""
        table = (0, 0, 0)
        if self.kind == SNAPSHOTS:
            table = (len(self.table), *map(len, self.table.sets))
        body = (
            _SIDECAR_COUNTS.pack(len(self.times), len(self.rows), self.skipped_corrupt, *table)
            + array("I", map(len, self.rows.values())).tobytes()
            + b"".join(rows.tobytes() for rows in self.rows.values())
            + b"".join(column.tobytes() for column in self.columns())
            + b"".join(
                name.encode("utf-8", "surrogatepass") + _NAME_END
                for name in itertools.chain(self.rows, self.strings.keys())
            )
        )
        sha = self.digest.copy()
        sha.update(body)
        return _SIDECAR_HEADER.pack(_SIDECAR_MAGIC, self.scanned_bytes, sha.digest()) + body

    @classmethod
    def from_sidecar(cls, kind: str, sidecar: Path, log: Path) -> "_LogIndex | None":
        """The index persisted in ``sidecar``, or None unless the sidecar is
        intact, every length and id in it is in range, and ``log`` still
        begins with the bytes it covers. No state is built."""
        try:
            data = sidecar.read_bytes()
            magic, covered, digest = _SIDECAR_HEADER.unpack_from(data)
            count, n_groups, skipped, states, sets, set_names = _SIDECAR_COUNTS.unpack_from(
                data, _SIDECAR_HEADER.size
            )
        except (OSError, struct.error):
            return None
        if magic != _SIDECAR_MAGIC or (kind != SNAPSHOTS and (states or sets or set_names)):
            return None
        index = cls(kind)
        body = memoryview(data)[_SIDECAR_HEADER.size:]
        counts, order = array("I"), array("I")
        try:
            pos = _read_columns(
                body,
                _SIDECAR_COUNTS.size,
                [counts, order, *index.columns()],
                [n_groups, count, count, count, count, count if kind != TOPK else 0]
                + [states] * (len(_STATE_CODES) - 2)
                + [sets, set_names],
            )
            if sum(counts) != count or 0 in counts or _past(order, count):
                return None
            names = bytes(body[pos:]).split(_NAME_END)
            if len(names) <= n_groups or names[-1]:
                return None
            names = [name.decode("utf-8", "surrogatepass") for name in names[:-1]]
            groups, strings = names[:n_groups], names[n_groups:]
            if kind == TOPK and strings:
                return None
            # filled in place, as ``row_key`` reads the review ids
            index.strings.keys().extend(strings)
            if _past(index.tags, len(index.table)):
                return None
            if kind == SNAPSHOTS and not index.table.in_range():
                return None
        except ValueError:
            return None
        sha = _hash_prefix(log, covered)
        if sha is None:
            return None
        index.digest = sha.copy()
        sha.update(body)
        if sha.digest() != digest:
            return None
        bounds = list(itertools.accumulate(counts, initial=0))
        index.rows = {group: order[a:b] for group, a, b in zip(groups, bounds, bounds[1:])}
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
    """The committed lines of a log in log order, read alongside a data
    file, so that a re-ingest of lines in the order they were committed
    costs a byte comparison per block of lines. It is read only over a log
    whose index holds every committed line, so lines equal to the committed
    bytes at the cursor are copies of stored records: they are deduplicated
    with no decode and no lookup. Lines that differ leave the cursor where
    it is, so the lines after them can still meet theirs. Only the log
    prefix the index covered when the ingest began is compared, through the
    read handle, read in chunks."""

    _CHUNK = 1 << 20

    def __init__(self, fd: int, end: int):
        self._fd, self._end = fd, end
        # log bytes from the cursor on, and the cursor's place in them and
        # in the log
        self._buffer, self._pos, self._offset = b"", 0, 0

    def take(self, data: bytes) -> bool:
        """Whether ``data``, whole lines cut at b"\\n" and ending in one, is
        the committed bytes at the cursor; the cursor then passes them. The
        cursor is at the start of a committed line, so equal bytes are the
        same lines."""
        size = len(data)
        if not data.endswith(b"\n") or self._offset + size > self._end:
            return False
        if self._pos + size > len(self._buffer):
            # may read past the prefix: the bound above keeps to it
            self._buffer = os.pread(self._fd, max(size, self._CHUNK), self._offset)
            self._pos = 0
        if not self._buffer.startswith(data, self._pos):
            return False
        self._pos += size
        self._offset += size
        return True


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
        while appends from other handles become visible at this object's
        next ingest, or to a store object opened after them.
        """
        index = self._indexes[kind]
        if index is None:
            index = _LogIndex.from_sidecar(
                kind, self._sidecar_path(kind), self._log_path(kind)
            ) or _LogIndex(kind)
            self._scan(kind, index)
            self._indexes[kind] = index
        return index

    def _scan(self, kind: str, index: _LogIndex, wait: bool = False) -> None:
        """Index the committed lines past ``index.scanned_bytes``.

        A line is indexed only when the kind's line reader admits it, as
        ingest does. Any other committed line is skipped and counted, and so
        is a line whose key an earlier line holds (a review of the same app
        and review_id on any date): the first line wins, as ingest would
        have kept it. A last line without its newline is an uncommitted tail
        and stays unindexed. Admitted lines are indexed in batches of up to
        ``_BATCH_LINES``.

        The log is read under a shared ``flock``; unless ``wait`` is set, a
        scan that finds a batch holding it (``_commit``) keeps its prefix.
        """
        path = self._log_path(kind)
        if not path.exists():
            return
        index.skipped_tail = 0
        if path.stat().st_size <= index.scanned_bytes:
            return
        read = _READERS[kind](index)
        # key -> offset of each admitted line not yet indexed, and the
        # lengths and states of those lines in the same order
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
                    key, _, state = read(raw.decode("utf-8"), raw)
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
            weakref.finalize(self, os.close, fd)
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

    # -- ingest -----------------------------------------------------------

    def _ingest(self, kind: str, data: BinaryIO, report: IngestReport) -> None:
        """Validate, dedup and append the JSONL lines of ``data``, a binary
        file of one ``kind``, counting each outcome in ``report``.

        A line that is not UTF-8 is rejected. While the committed lines are
        read alongside ``data`` (``_CommittedLines``), it is read in blocks
        of whole lines (``_whole_line_blocks``): a block that is the
        committed bytes at the cursor is deduplicated whole, and any other is
        cut into lines at b"\n", each deduplicated at once when it is the
        next committed line. Every other line goes through the kind's line
        reader: a line it rejects is rejected with its text, or skipped when
        blank, and one it admits is looked up by its key once. A line that
        holds the stored record (``_same_payload``) is deduplicated, and any
        other is rejected as a conflict. Writes are committed in batches; on
        an I/O failure the log is cut back to the end of the last committed
        batch. The index sidecar is rewritten after the last one.
        """
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
            read = _READERS[kind](index)
            report.skipped_corrupt[kind] = index.skipped_corrupt
            if index.skipped_tail:
                # drop the uncommitted tail of an interrupted write so new
                # records never glue onto a partial line
                with self._io_lock, open(self._log_path(kind), "r+b") as f:
                    fcntl.flock(f, fcntl.LOCK_EX)
                    f.truncate(index.scanned_bytes)
                index.skipped_tail = 0
            # key -> canonical line, not yet committed, and the states of
            # those lines in the same order
            batch: dict[tuple, bytes] = {}
            states: list = []

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

            # (bytes of a block of whole lines, or None, and its lines): with
            # no cursor, a bulk load does no block work
            blocks: Iterable[tuple[bytes | None, Iterable]] = [(None, data)]
            if committed is not None:
                blocks = _whole_line_blocks(data)
            line_no = 0
            for block, block_lines in blocks:
                if block is not None and committed.take(block):
                    passed = block.count(b"\n")
                    report.deduplicated[kind] += passed
                    line_no += passed
                    continue
                for line_no, raw in enumerate(block_lines, start=line_no + 1):
                    if committed is not None and committed.take(raw):
                        report.deduplicated[kind] += 1
                        continue
                    try:
                        line = raw.decode("utf-8")
                    except UnicodeError as exc:
                        report.rejected.append(
                            Rejection(kind, line_no, f"line is not valid UTF-8: {exc}")
                        )
                        continue
                    if not raw.endswith(b"\n"):
                        raw += b"\n"
                    try:
                        key, canonical, state = read(line, raw)
                    except (ValueError, TypeError, RecursionError) as exc:
                        if line.strip():
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
                    elif _same_payload(read, previous, canonical):
                        report.deduplicated[kind] += 1
                    else:
                        entity, value = key
                        noun = "review_id" if kind == REVIEWS else "time"
                        report.rejected.append(
                            Rejection(
                                kind,
                                line_no,
                                "conflicting payload for existing record "
                                f"(entity {entity}, {noun} {value!r})",
                            )
                        )
            if batch:
                self._commit(kind, index, batch, states)
            self._write_sidecar(kind, index)

    def _commit(self, kind: str, index: _LogIndex, batch: dict, states: list) -> None:
        """Append and fsync ``batch``; on failure no byte of it stays.
        ``states`` holds the state of each line, as its codec returned it."""
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
        each read as bytes (``_ingest``), into one report."""
        data_dir = Path(data_dir)
        report = IngestReport()
        for kind in KINDS:
            path = data_dir / _LOG_FILES[kind]
            if not path.exists():
                continue
            with open(path, "rb") as f:
                self._ingest(kind, f, report)
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
        times, tags, states = index.times, index.tags, index.table.keys()
        return AppStates(
            app=app,
            times=tuple([times[r] for r in rows]),
            states=tuple([states[tags[r]] for r in rows]),
        )

    def latest_snapshots(self) -> dict[str, AppSnapshot]:
        """The newest snapshot of every app, in (fetch_time, offset) order."""
        newest = [r for _, r in self._index(SNAPSHOTS).newest()]
        return {snap.app: snap for snap in self._read_records(SNAPSHOTS, newest)}

    def latest_states(self) -> dict[str, TimelineState]:
        """The timeline state of every app's newest snapshot, in the order
        of ``latest_snapshots``, from the index: no log line is read."""
        index = self._index(SNAPSHOTS)
        states, tags = index.table.keys(), index.tags
        return {app: states[tags[r]] for app, r in index.newest()}

    def query_reviews(self, app: str) -> list[ReviewRecord]:
        """Reviews of ``app`` sorted by review_id: the order of the app's
        rows."""
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
