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

After every ingest the writer persists the index as a ``<kind>.idx``
sidecar (layout ``MPX6``: row counts per entity, then the columns in
entity order, each entity's rows in key order), which names the log prefix
it covers and a digest of those bytes. Opening a log loads the sidecar's
columns as they are, verifies the digest and scans only the log past the
covered prefix. A missing or mismatched sidecar, or one of an earlier
layout, means scanning the whole log, so a reader always gets the index a
full scan would build. Sidecars up to ``MPX3`` are ignored because the
code that wrote them indexed lines the codec rejects, ``MPX4`` because it
kept an entity's rows in log order, and ``MPX5`` because it kept an
app's reviews of one date in log order, not in review id order. Readers
never write to the store directory. Single writer, any number of readers;
queries return immutable values.
"""

from __future__ import annotations

import bisect
import datetime as dt
import fcntl
import hashlib
import itertools
import json
import operator
import os
import struct
import threading
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

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

# A <kind>.idx sidecar is a header, the entry count of each entity, one
# column per entry field in entity order (each entity's entries in key
# order), the state table (snapshots only), then the entity names and, for
# reviews, the distinct review ids in order of first use in the log, each
# followed by a byte that UTF-8 never uses. Columns are arrays in native
# byte order: a sidecar from a machine of the other byte order fails the
# magic check and is ignored, as does one in an earlier layout. The digest
# is sha1 over the covered log bytes followed by everything after the
# header, so a change to either makes readers scan the log instead.
_SIDECAR_MAGIC = 0x4D505836
# magic, covered log bytes, digest, entries, entities, skipped corrupt lines,
# state table bytes
_SIDECAR_HEADER = struct.Struct("=IQ20sQQQQ")
# per entry: time key, offset and length of the line, then the timeline
# state id (snapshots) or the name id of the review id (reviews). The state
# table is compact JSON, {"permission_names": [name, ...], "permissions":
# [[name id, ...], ...], "states": [[price_cents, downloads_lo,
# downloads_hi, rating_count, version, category, permission set id,
# last_updated ordinal], ...]}.
_ENTRY_CODES = {SNAPSHOTS: "qQII", REVIEWS: "qQII", TOPK: "qQI"}
_NAME_END = b"\xff"


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


class _LogIndex:
    """Committed records of one log, as columns of rows grouped by entity.

    Row ``r`` is one indexed line: ``times[r]`` is its time key,
    ``offsets[r]`` and ``lengths[r]`` locate it in the log, and ``tags[r]``
    (not kept for top-k) is an id into ``table``, the distinct state keys
    ``snapshot_line`` returned (snapshots) or the distinct review ids
    (reviews), each in order of first use in the log. ``rows`` maps each
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
        self.table: list = []
        # table value -> id, built on first use by a scan or a writer
        self._table_lookup: dict | None = None
        # TimelineState of each state id, built on first use by a query
        self._state_values: list[TimelineState] = []
        # entity -> its row numbers in key order
        self.rows: dict = {}
        self.digest = hashlib.sha1()
        self.scanned_bytes = 0
        self.sidecar_bytes = 0
        self.skipped_tail = 0
        self.skipped_corrupt = 0

    def _table_ids(self) -> dict:
        """``table`` value -> its id."""
        lookup = self._table_lookup
        if lookup is None:
            lookup = self._table_lookup = {v: i for i, v in enumerate(self.table)}
        return lookup

    def table_value(self, value):
        """The value of ``table`` equal to ``value``, or ``value`` if
        there is none."""
        tag = self._table_ids().get(value)
        return value if tag is None else self.table[tag]

    def state_values(self) -> list[TimelineState]:
        """The ``TimelineState`` of every state id."""
        values = self._state_values
        values.extend(
            TimelineState(
                price,
                DownloadBucket(lo, hi),
                ratings,
                version,
                category,
                permissions,
                dt.date.fromordinal(updated),
            )
            for price, lo, hi, ratings, version, category, permissions, updated in (
                self.table[len(values):]
            )
        )
        return values

    def _review_order(self, row: int) -> tuple:
        return self.times[row], self.table[self.tags[row]]

    def _order(self, key: tuple) -> tuple:
        """The place of ``key``, an (entity, time key) pair, in the key
        order of its entity's rows, and the function giving a row's."""
        entity, time_key = key
        if self.kind == REVIEWS:
            return (time_key, entity[1]), self._review_order
        return time_key, self.times.__getitem__

    def find(self, key: tuple) -> int | None:
        """The row of the line indexed under ``key``, an (entity, time key)
        pair, or None; first line wins, since ``_scan`` indexes no later
        line of a key."""
        rows = self.rows.get(key[0][0])
        if rows is None:
            return None
        place, order = self._order(key)
        if order(rows[-1]) < place:
            return None
        row = rows[bisect.bisect_left(rows, place, key=order)]
        return row if order(row) == place else None

    def extend(self, keys: Iterable, offsets: Iterable, lengths: Iterable, states: list) -> None:
        """Index a batch of lines in log order: the i-th line, at the i-th
        of ``offsets`` with the i-th of ``lengths``, under the i-th of
        ``keys``, its (entity, time key) pair, which neither ``find`` nor
        another line of the batch holds; ``states[i]`` is its state key, as
        the kind's codec returned it. The lines lie past every indexed one."""
        first = len(self.times)
        self.times.extend([key[1] for key in keys])
        self.offsets.extend(offsets)
        self.lengths.extend(lengths)
        if self.kind == REVIEWS:
            # a review's tag is its review id, and its place (date, review id)
            states = [entity[1] for entity, _ in keys]
            order, places = self._review_order, list(zip(self.times[first:], states))
        else:
            order, places = self.times.__getitem__, self.times[first:]
        if self.kind != TOPK:
            lookup, table, tags = self._table_ids(), self.table, self.tags
            for value in states:
                tag = lookup.get(value)
                if tag is None:
                    tag = lookup[value] = len(table)
                    table.append(value)
                tags.append(tag)
        rows_of = self.rows
        for row, key, place in zip(itertools.count(first), keys, places):
            group = key[0][0]
            rows = rows_of.get(group)
            if rows is None:
                rows_of[group] = [row]
                continue
            if type(rows) is range:
                rows = rows_of[group] = list(rows)
            if order(rows[-1]) < place:
                rows.append(row)
            else:
                # a line appended out of key order goes to its key's place
                rows.insert(bisect.bisect_left(rows, place, key=order), row)

    def _gather(self) -> Callable:
        """column -> its values at every entity's rows in turn."""
        order = list(itertools.chain.from_iterable(self.rows.values()))
        if len(order) > 1:
            return operator.itemgetter(*order)
        # itemgetter of one item returns it bare
        return lambda column: [column[r] for r in order]

    def _state_table(self) -> bytes:
        name_ids: dict[str, int] = {}
        permission_ids: dict[frozenset, int] = {}
        states = [
            [*key[:6], permission_ids.setdefault(key[6], len(permission_ids)), key[7]]
            for key in self.table
        ]
        permissions = [
            [name_ids.setdefault(name, len(name_ids)) for name in sorted(p)]
            for p in permission_ids
        ]
        return json.dumps(
            {
                "permission_names": list(name_ids),
                "permissions": permissions,
                "states": states,
            },
            separators=(",", ":"),
        ).encode("ascii")

    def to_sidecar(self) -> bytes:
        """The sidecar covering the first ``scanned_bytes`` of the log."""
        codes = _ENTRY_CODES[self.kind]
        gather = self._gather()
        columns = [
            array(code, gather(column))
            for code, column in zip(codes, (self.times, self.offsets, self.lengths, self.tags))
        ]
        names = list(self.rows)
        if self.kind == REVIEWS:
            names += self.table
        table = self._state_table() if self.kind == SNAPSHOTS else b""
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
        intact and ``log`` still begins with the bytes it covers."""
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
        columns = [counts, index.times, index.offsets, index.lengths, index.tags]
        pos = 0
        try:
            for column, size in zip(columns, [n_groups] + [count] * len(_ENTRY_CODES[kind])):
                end = pos + column.itemsize * size
                column.frombytes(body[pos:end])
                if len(column) != size:
                    return None
                pos = end
            if sum(counts) != count or 0 in counts:
                return None
            if kind == SNAPSHOTS:
                table = json.loads(bytes(body[pos:pos + table_bytes]))
                names = table["permission_names"]
                permission_sets = [
                    frozenset([names[i] for i in p]) for p in table["permissions"]
                ]
                index.table = [
                    (*row[:6], permission_sets[row[6]], row[7]) for row in table["states"]
                ]
            elif table_bytes:
                return None
            pos += table_bytes
            names = bytes(body[pos:]).split(_NAME_END)
            if len(names) <= n_groups or names[-1]:
                return None
            names = [name.decode("utf-8", "surrogatepass") for name in names[:-1]]
            groups, review_ids = names[:n_groups], names[n_groups:]
            if kind == REVIEWS:
                index.table = review_ids
            elif review_ids:
                return None
            if max(index.tags, default=-1) >= len(index.table):
                return None
        except (ValueError, TypeError, KeyError, IndexError):
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

    def _scan(self, kind: str, index: _LogIndex) -> None:
        """Index the committed lines past ``index.scanned_bytes``.

        A line is indexed only when ``_admit`` admits it, as ingest does.
        Any other committed line is skipped and counted, and so is a line
        whose (entity, time) an earlier line holds: the first line wins, as
        ingest would have kept it. A last line without its newline is an
        uncommitted tail and stays unindexed. Admitted lines are indexed in
        batches of up to ``_BATCH_LINES``.
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

        A line given as bytes must be UTF-8. A line byte-identical to the
        stored line under the key its canonical-text head names is
        deduplicated at once. Every other line is admitted by ``_admit``,
        or rejected with its text; a record whose (entity, time) is already
        stored is then deduplicated when it holds the stored record
        (``_same_payload``) and rejected as a conflict otherwise. Writes are
        committed in batches; on an I/O failure the log is cut back to the
        end of the last committed batch. The index sidecar is rewritten
        after the last one.
        """
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
            # this one last looked must take part in the dedup
            index = self._index(kind)
            self._scan(kind, index)
            read_state = state_reader(index)
            report.skipped_corrupt[kind] = index.skipped_corrupt
            if index.skipped_tail:
                # drop the uncommitted tail of an interrupted write so new
                # records never glue onto a partial line
                with self._io_lock, open(self._log_path(kind), "r+b") as f:
                    f.truncate(index.scanned_bytes)
                index.skipped_tail = 0
            # (entity, time_key) -> canonical line, not yet committed, and
            # the state keys of snapshot lines in the same order
            batch: dict[tuple, bytes] = {}
            states: list[tuple] = []

            def stored(key) -> bytes | None:
                """The committed or batch line under ``key``, if any (a key
                is in the batch only while it is not committed)."""
                row = index.find(key)
                if row is None:
                    return batch.get(key)
                return os.pread(self._read_fd(kind), index.lengths[row], index.offsets[row])

            for line_no, line in enumerate(lines, start=1):
                if type(line) is bytes:
                    try:
                        line = line.decode("utf-8")
                    except UnicodeDecodeError as exc:
                        report.rejected.append(
                            Rejection(kind, line_no, f"line is not valid UTF-8: {exc}")
                        )
                        continue
                head = read_text(line)
                raw = previous = None
                if head is not None:
                    # past its ASCII head a line may hold a lone surrogate,
                    # which the codec accepts
                    raw = (line if line.endswith("\n") else line + "\n").encode(
                        "utf-8", "surrogatepass"
                    )
                    previous = stored(head[0])
                    if previous == raw:
                        report.deduplicated[kind] += 1
                        continue
                elif not line.strip():
                    continue
                try:
                    key, canonical, state = _admit(kind, line, raw, head, read_state)
                except (ValueError, TypeError, RecursionError) as exc:
                    report.rejected.append(Rejection(kind, line_no, str(exc)))
                    continue
                if head is None or key != head[0]:
                    # _admit touches neither the batch nor the index, so the
                    # line stored under the head's key is still current
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
        path = self._sidecar_path(kind)
        tmp = path.with_name(path.name + ".tmp")
        try:
            tmp.write_bytes(index.to_sidecar())
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            return
        index.sidecar_bytes = index.scanned_bytes

    def ingest_dir(self, data_dir: Path | str) -> IngestReport:
        """Ingest the standard three JSONL logs found under ``data_dir``."""
        data_dir = Path(data_dir)
        report = IngestReport()
        for kind in KINDS:
            path = data_dir / _LOG_FILES[kind]
            if not path.exists():
                continue
            # read as bytes: ingest_lines rejects a line that is not UTF-8
            with open(path, "rb") as f:
                report.merge(self.ingest_lines(kind, f))
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
        values = index.state_values()
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
        values, tags = index.state_values(), index.tags
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
