import datetime as dt
import errno
import fcntl
import hashlib
import io
import itertools
import json
import math
import os
import random
import select
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from marketpulse.errors import ConcurrentWriteError, InvalidWindowError, StoreIOError
from marketpulse.model import DownloadBucket, ListType, date_to_epoch
from marketpulse import simgen
from marketpulse import store as store_mod
from marketpulse.store import KINDS, DatasetManifest, IngestReport, SnapStore, TimeWindow
from marketpulse.timeline import build_app_timeline

from conftest import (
    DAY0,
    NONCANONICAL_TEXT_EDITS,
    generate,
    ingest_market,
    ingest_records,
    make_review,
    make_snapshot,
    make_topk,
    market_script,
    reference_line,
    review_to_record,
    snapshot_state_key,
    snapshot_to_record,
    topk_to_record,
)


def _lines(records, encoder):
    return [json.dumps(encoder(r)) for r in records]


class TestIngest:
    def test_same_line_twice_dedupes(self, store):
        line = json.dumps(snapshot_to_record(make_snapshot()))
        report = store.ingest_lines("snapshots", [line, line])
        assert report.accepted["snapshots"] == 1
        assert report.deduplicated["snapshots"] == 1
        assert report.total_rejected == 0

    def test_reingesting_later_also_dedupes(self, store):
        line = json.dumps(snapshot_to_record(make_snapshot()))
        store.ingest_lines("snapshots", [line])
        report = store.ingest_lines("snapshots", [line])
        assert report.accepted["snapshots"] == 0
        assert report.deduplicated["snapshots"] == 1

    def test_rating_out_of_range_rejected(self, store):
        rec = review_to_record(make_review())
        rec["rating"] = 6
        report = store.ingest_lines("reviews", [json.dumps(rec)])
        assert report.accepted["reviews"] == 0
        assert len(report.rejected) == 1
        assert "rating out of range" in report.rejected[0].reason
        assert report.rejected[0].line_no == 1

    def test_malformed_line_rejected_with_line_number(self, store):
        good = json.dumps(snapshot_to_record(make_snapshot()))
        report = store.ingest_lines("snapshots", [good, "{not json"])
        assert report.accepted["snapshots"] == 1
        assert report.rejected[0].line_no == 2

    def test_conflicting_payload_rejected(self, store):
        snap = make_snapshot()
        changed = make_snapshot(rating_count=999)
        report = store.ingest_lines(
            "snapshots",
            _lines([snap, changed], snapshot_to_record),
        )
        assert report.accepted["snapshots"] == 1
        assert len(report.rejected) == 1
        assert "conflicting payload" in report.rejected[0].reason

    def test_review_id_conflict_rejected(self, store):
        a = make_review(review_id="r1", rating=5)
        b = make_review(review_id="r1", rating=1)
        report = store.ingest_lines("reviews", _lines([a, b], review_to_record))
        assert report.accepted["reviews"] == 1
        assert "conflicting payload" in report.rejected[0].reason

    def test_ingest_persists_across_reopen(self, store):
        snaps = [make_snapshot(day=DAY0 + dt.timedelta(days=i)) for i in range(3)]
        ingest_records(store, "snapshots", snaps)
        reopened = SnapStore.open(store.root)
        series = reopened.query_app_series("com.example.app")
        assert len(series) == 3

    def test_unknown_kind_raises(self, store):
        with pytest.raises(ValueError):
            store.ingest_lines("nonsense", [])


class TestQueries:
    def test_window_filters_snapshots(self, store):
        days = [DAY0 + dt.timedelta(days=i) for i in range(3)]
        ingest_records(store, "snapshots", [make_snapshot(day=d) for d in days])
        window = TimeWindow(date_to_epoch(days[0]), date_to_epoch(days[1]) + 86399)
        series = store.query_app_series("com.example.app", window)
        assert len(series) == 2

    def test_inverted_window_raises(self, store):
        with pytest.raises(InvalidWindowError):
            store.query_app_series("com.example.app", TimeWindow(100, 50))

    def test_unknown_app_gives_empty_series(self, store):
        series = store.query_app_series("com.absent")
        assert series.app == "com.absent"
        assert len(series) == 0

    def test_empty_store_gives_empty_list_series(self, store):
        assert len(store.query_list_series(ListType.PAID)) == 0

    def test_latest_snapshots(self, store):
        ingest_records(
            store,
            "snapshots",
            [
                make_snapshot(day=DAY0, rating_count=1),
                make_snapshot(day=DAY0 + dt.timedelta(days=5), rating_count=9),
            ],
        )
        latest = store.latest_snapshots()
        assert latest["com.example.app"].rating_count == 9

    def test_review_counts_and_query(self, store):
        reviews = [make_review(review_id=f"r{i}") for i in range(4)]
        ingest_records(store, "reviews", reviews)
        assert store.review_counts() == {"com.example.app": 4}
        assert len(store.query_reviews("com.example.app")) == 4


# --- property tests --------------------------------------------------------------


@st.composite
def snapshot_batches(draw):
    n_apps = draw(st.integers(min_value=1, max_value=4))
    apps = [f"com.app.a{i}" for i in range(n_apps)]
    snaps = []
    for app in apps:
        day_offsets = draw(
            st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=8, unique=True)
        )
        for off in day_offsets:
            snaps.append(
                make_snapshot(app=app, day=DAY0 + dt.timedelta(days=off), rating_count=off)
            )
    order = draw(st.permutations(snaps))
    return list(order)


@settings(max_examples=25, deadline=None)
@given(snapshot_batches())
def test_double_ingest_is_idempotent(tmp_path_factory, snaps):
    manifest = DatasetManifest(
        name="t", currency="USD", observation_start=DAY0, observation_end=DAY0
    )
    root = tmp_path_factory.mktemp("dstore")
    store = SnapStore.create(root, manifest)
    ingest_records(store, "snapshots", snaps)
    first = {
        app: SnapStore.open(root).query_app_series(app).snapshots
        for app in store.apps()
    }
    ingest_records(store, "snapshots", snaps)
    for app, snapshots in first.items():
        assert store.query_app_series(app).snapshots == snapshots


@settings(max_examples=25, deadline=None)
@given(snapshot_batches(), st.integers(min_value=0, max_value=40))
def test_split_window_equals_full_window(tmp_path_factory, snaps, split_day):
    manifest = DatasetManifest(
        name="t", currency="USD", observation_start=DAY0, observation_end=DAY0
    )
    store = SnapStore.create(tmp_path_factory.mktemp("wstore"), manifest)
    ingest_records(store, "snapshots", snaps)
    lo = date_to_epoch(DAY0)
    hi = date_to_epoch(DAY0 + dt.timedelta(days=41))
    mid = date_to_epoch(DAY0 + dt.timedelta(days=split_day))
    for app in store.apps():
        full = store.query_app_series(app, TimeWindow(lo, hi)).snapshots
        left = store.query_app_series(app, TimeWindow(lo, mid)).snapshots
        right = store.query_app_series(app, TimeWindow(mid + 1, hi)).snapshots
        assert left + right == full


@settings(max_examples=25, deadline=None)
@given(snapshot_batches())
def test_series_strictly_increasing_regardless_of_ingest_order(
    tmp_path_factory, snaps
):
    manifest = DatasetManifest(
        name="t", currency="USD", observation_start=DAY0, observation_end=DAY0
    )
    store = SnapStore.create(tmp_path_factory.mktemp("ostore"), manifest)
    ingest_records(store, "snapshots", snaps)
    for app in store.apps():
        times = [s.fetch_time for s in store.query_app_series(app).snapshots]
        assert all(a < b for a, b in zip(times, times[1:]))


@settings(max_examples=20, deadline=None)
@given(st.permutations(list(range(8))))
def test_shuffled_topk_ingest_returns_sorted(tmp_path_factory, hour_order):
    manifest = DatasetManifest(
        name="t", currency="USD", observation_start=DAY0, observation_end=DAY0
    )
    store = SnapStore.create(tmp_path_factory.mktemp("tstore"), manifest)
    observations = [make_topk(["a", "b"], hour=h) for h in hour_order]
    ingest_records(store, "topk", observations)
    series = store.query_list_series(ListType.FREE)
    times = [o.fetch_time for o in series.observations]
    assert times == sorted(times)
    assert all(a < b for a, b in zip(times, times[1:]))


def test_partial_tail_ignored_and_truncated_on_next_ingest(tmp_path, manifest):
    store = SnapStore.create(tmp_path / "tstore", manifest)
    ingest_records(store, "snapshots", [make_snapshot(day=DAY0)])
    # simulate an interrupted write: a trailing line without newline
    with open(store.root / "snapshots.jsonl", "ab") as f:
        f.write(b'{"app": "com.broken"')
    reopened = SnapStore.open(store.root)
    assert reopened.apps() == ["com.example.app"]
    report = ingest_records(
        reopened, "snapshots", [make_snapshot(day=DAY0 + dt.timedelta(days=1))]
    )
    assert report.accepted["snapshots"] == 1
    fresh = SnapStore.open(store.root)
    series = fresh.query_app_series("com.example.app")
    assert len(series) == 2
    assert "com.broken" not in fresh.apps()


def test_thousand_simgen_snapshots_all_accepted(tmp_path, manifest):
    from marketpulse import simgen

    market = generate(
        simgen.MarketScript(seed=3, n_developers=80, observation_days=15)
    )
    assert len(market.snapshots) >= 1000
    store = SnapStore.create(tmp_path / "bulk", manifest)
    lines = [
        json.dumps(snapshot_to_record(s)) for s in market.snapshots[:1000]
    ]
    report = store.ingest_lines("snapshots", lines)
    assert report.accepted["snapshots"] == 1000
    assert report.total_rejected == 0


# --- writer correctness ------------------------------------------------------------


def test_refresh_picks_up_commits_of_another_handle(store):
    other = SnapStore.open(store.root)
    assert store.apps() == []
    ingest_records(other, "snapshots", [make_snapshot()])
    assert store.apps() == []
    store.refresh()
    assert store.apps() == ["com.example.app"]


def test_stale_handle_does_not_append_a_duplicate(store):
    first, second = make_snapshot(day=DAY0), make_snapshot(day=DAY0 + dt.timedelta(days=1))
    other = SnapStore.open(store.root)
    ingest_records(store, "snapshots", [first])
    assert ingest_records(other, "snapshots", [second]).accepted["snapshots"] == 1
    report = ingest_records(store, "snapshots", [second])
    assert report.accepted["snapshots"] == 0
    assert report.deduplicated["snapshots"] == 1
    times = [
        s.fetch_time
        for s in SnapStore.open(store.root).query_app_series("com.example.app").snapshots
    ]
    assert times == [first.fetch_time, second.fetch_time]


def test_ingest_while_another_holds_the_lock_raises_and_writes_nothing(
    store, tmp_path, capsys
):
    from marketpulse.cli import main

    ingest_records(store, "snapshots", [make_snapshot(day=DAY0)])
    later = make_snapshot(day=DAY0 + dt.timedelta(days=1))
    data = tmp_path / "data"
    data.mkdir()
    (data / "snapshots.jsonl").write_text(json.dumps(snapshot_to_record(later)) + "\n")

    def store_files():
        return {
            p.name: p.read_bytes() for p in store.root.iterdir() if p.name != ".ingest.lock"
        }

    before = store_files()
    assert {"snapshots.jsonl", "snapshots.idx"} <= set(before)
    # a second open file description of the lock file stands for another writer
    with open(store.root / ".ingest.lock", "w") as holder:
        fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
        with pytest.raises(ConcurrentWriteError, match="another ingest is in progress"):
            ingest_records(store, "snapshots", [later])
        assert store_files() == before
        capsys.readouterr()
        assert main(["ingest", "--data", str(data), "--store", str(store.root)]) == 1
        assert capsys.readouterr().err == (
            "error: another ingest is in progress on this store\n"
        )
        assert store_files() == before
    # with the lock released the same ingest goes through
    assert ingest_records(store, "snapshots", [later]).accepted["snapshots"] == 1


def _torn_write(real_write):
    calls = []

    def write(fd, data):
        # half the batch reaches the file, then the disk fills up
        calls.append(fd)
        if len(calls) == 1:
            return real_write(fd, data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    return write


def _failing_fsync(fd):
    raise OSError(errno.EIO, "Input/output error")


@pytest.mark.parametrize("failure", ["write", "fsync"])
def test_failed_commit_leaves_no_part_of_the_batch(store, monkeypatch, failure):
    ingest_records(store, "snapshots", [make_snapshot(day=DAY0)])
    log, sidecar = store.root / "snapshots.jsonl", store.root / "snapshots.idx"
    committed, committed_sidecar = log.read_bytes(), sidecar.read_bytes()
    later = [make_snapshot(day=DAY0 + dt.timedelta(days=i)) for i in range(1, 4)]
    with monkeypatch.context() as patch:
        if failure == "write":
            patch.setattr(os, "write", _torn_write(os.write))
        else:
            patch.setattr(os, "fsync", _failing_fsync)
        with pytest.raises(StoreIOError):
            ingest_records(store, "snapshots", later)
    assert log.read_bytes() == committed
    assert sidecar.read_bytes() == committed_sidecar
    assert ingest_records(store, "snapshots", later).accepted["snapshots"] == 3
    data = log.read_bytes()
    assert data.startswith(committed) and data.endswith(b"\n")
    assert len([json.loads(line) for line in data.splitlines()]) == 4
    fresh = SnapStore.open(store.root)
    assert len(fresh.query_app_series("com.example.app")) == 4
    assert fresh._index("snapshots").skipped_corrupt == 0


def _app_lines(apps):
    return [_canonical(snapshot_to_record(make_snapshot(app=f"com.app{i}"))) + "\n" for i in apps]


def _assert_reader_matches_a_fresh_handle(store, reader):
    assert store.ingest_lines("snapshots", _app_lines(range(100, 120))).accepted["snapshots"] == 20
    reader.refresh()
    fresh = SnapStore.open(store.root)
    assert reader.apps() == fresh.apps()
    assert _entity_rows(reader._index("snapshots")) == _entity_rows(fresh._index("snapshots"))
    assert reader.latest_snapshots() == fresh.latest_snapshots()


def test_reader_that_scans_a_batch_whose_fsync_fails_matches_a_fresh_handle(store, monkeypatch):
    assert store.ingest_lines("snapshots", _app_lines(range(10))).accepted["snapshots"] == 10
    reader = SnapStore.open(store.root)
    assert len(reader.apps()) == 10

    def refresh_then_fail(fd):
        reader.refresh()
        _failing_fsync(fd)

    with monkeypatch.context() as patch:
        patch.setattr(store_mod.os, "fsync", refresh_then_fail)
        with pytest.raises(StoreIOError):
            store.ingest_lines("snapshots", _app_lines(range(10, 20)))
    assert reader.apps() == SnapStore.open(store.root).apps()
    _assert_reader_matches_a_fresh_handle(store, reader)


# A writer in another process: its batch is written and the log held
# exclusively when it prints "ready"; once stdin closes, its fsync fails and
# the batch is cut back.
_WRITER_WHOSE_FSYNC_FAILS = """
import errno, json, os, sys
from marketpulse.errors import StoreIOError
from marketpulse.store import SnapStore

def hold_then_fail(fd):
    print("ready", flush=True)
    sys.stdin.read()
    raise OSError(errno.EIO, "Input/output error")

os.fsync = hold_then_fail
try:
    SnapStore.open(sys.argv[1]).ingest_lines("snapshots", json.loads(sys.argv[2]))
except StoreIOError:
    sys.exit(0)
sys.exit(1)
"""


def test_reader_in_another_process_skips_a_batch_held_by_the_writer(store):
    assert store.ingest_lines("snapshots", _app_lines(range(10))).accepted["snapshots"] == 10
    reader = SnapStore.open(store.root)
    apps = reader.apps()
    assert len(apps) == 10
    src = str(Path(store_mod.__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    writer = subprocess.Popen(
        [
            sys.executable, "-c", _WRITER_WHOSE_FSYNC_FAILS,
            str(store.root), json.dumps(_app_lines(range(10, 20))),
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    try:
        assert select.select([writer.stdout], [], [], 60)[0], "the writer never got ready"
        assert writer.stdout.readline() == "ready\n"
        # the batch is in the log, and the reader's scan finds it held
        log_size = (store.root / "snapshots.jsonl").stat().st_size
        assert log_size > reader._index("snapshots").scanned_bytes
        reader.refresh()
        assert reader.apps() == apps
        writer.communicate("", timeout=60)
    finally:
        writer.kill()
        writer.wait(timeout=60)
    assert writer.returncode == 0
    assert reader.apps() == SnapStore.open(store.root).apps()
    _assert_reader_matches_a_fresh_handle(store, reader)


# An ingest_dir in another process, of a data directory into a store:
# ``hold`` holds its first batch, written and not yet fsynced, with the log
# and the ingest lock, from printing "ready" until stdin closes; ``tear``
# commits batches of 100 lines, writes its second batch up to the middle of
# a line and is killed. It prints "busy" and exits 3 on ConcurrentWriteError,
# else prints its report.
_INGEST_IN_A_CHILD = """
import json, os, signal, sys
from marketpulse import store
from marketpulse.errors import ConcurrentWriteError

root, data, mode = sys.argv[1:]
fsync, write = os.fsync, os.write

def hold(fd):
    os.fsync = fsync
    print("ready", flush=True)
    sys.stdin.read()
    fsync(fd)

writes = []

def tear(fd, data):
    writes.append(fd)
    if len(writes) == 1:
        return write(fd, data)
    data = bytes(data)
    write(fd, data[: data.index(b"\\n") // 2])
    os.kill(os.getpid(), signal.SIGKILL)

if mode == "hold":
    os.fsync = hold
elif mode == "tear":
    store._BATCH_LINES = 100
    os.write = tear
try:
    report = store.SnapStore.open(root).ingest_dir(data)
except ConcurrentWriteError:
    print("busy", flush=True)
    sys.exit(3)
print(json.dumps(report.to_record()), flush=True)
"""


def _ingest_in_a_child(root, data, mode, **popen):
    src = str(Path(store_mod.__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.Popen(
        [sys.executable, "-c", _INGEST_IN_A_CHILD, str(root), str(data), mode],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        **popen,
    )


def _logs(root):
    return {kind: (root / f"{kind}.jsonl").read_bytes() for kind in KINDS}


def test_two_processes_racing_an_ingest_store_each_record_once(tmp_path, market):
    data = tmp_path / "data"
    simgen.write_dataset(market_script(), data)
    root = tmp_path / "store"
    SnapStore.create(root, market.manifest)
    first = _ingest_in_a_child(root, data, "hold", stdin=subprocess.PIPE)
    try:
        assert select.select([first.stdout], [], [], 60)[0], "the first writer never got ready"
        assert first.stdout.readline() == "ready\n"
        second = _ingest_in_a_child(root, data, "plain")
        assert second.communicate(timeout=60)[0] == "busy\n"
        assert second.returncode == 3
        out = first.communicate("", timeout=60)[0]
    finally:
        first.kill()
        first.wait(timeout=60)
    assert first.returncode == 0
    accepted = json.loads(out)["accepted"]
    assert all(accepted.values()) and not json.loads(out)["rejected"]
    retry = _ingest_in_a_child(root, data, "plain")
    report = json.loads(retry.communicate(timeout=60)[0])
    assert retry.returncode == 0
    assert report["deduplicated"] == accepted
    assert not any(report["accepted"].values()) and not report["rejected"]
    # every data line is in its log once: the logs are the data files
    assert _logs(root) == {kind: (data / f"{kind}.jsonl").read_bytes() for kind in KINDS}


def test_ingest_after_a_writer_killed_mid_line_appends_the_rest_once(
    tmp_path, market, monkeypatch
):
    data = tmp_path / "data"
    simgen.write_dataset(market_script(), data)
    root = tmp_path / "store"
    SnapStore.create(root, market.manifest)
    writer = _ingest_in_a_child(root, data, "tear")
    writer.communicate(timeout=60)
    assert writer.returncode == -signal.SIGKILL
    lines = (data / "snapshots.jsonl").read_bytes().splitlines(keepends=True)
    committed = b"".join(lines[:100])
    torn = (root / "snapshots.jsonl").read_bytes()
    assert torn.startswith(committed) and len(committed) < len(torn) < len(b"".join(lines[:101]))
    # a reader sees the first batch and nothing of the torn one
    reader = SnapStore.open(root)
    assert len(reader._index("snapshots").times) == 100
    assert sorted(reader.apps()) == sorted({json.loads(line)["app"] for line in lines[:100]})
    # the next ingest cuts the torn tail, passes the committed lines in
    # blocks and appends the rest once
    taken_alone = []
    take = store_mod._CommittedLines.take

    def counted(self, line):
        taken = take(self, line)
        taken_alone.append(taken)
        return taken

    monkeypatch.setattr(store_mod, "_BLOCK_BYTES", 4096)
    monkeypatch.setattr(store_mod._CommittedLines, "take", counted)
    report = SnapStore.open(root).ingest_dir(data)
    assert report.deduplicated == {"snapshots": 100, "reviews": 0, "topk": 0}
    assert report.accepted["snapshots"] == len(lines) - 100 and report.total_rejected == 0
    assert sum(taken_alone) < 20
    assert _logs(root) == {kind: (data / f"{kind}.jsonl").read_bytes() for kind in KINDS}
    assert len(SnapStore.open(root)._index("snapshots").times) == len(lines)


def test_malformed_committed_line_is_skipped_and_counted(store):
    ingest_records(store, "snapshots", [make_snapshot(day=DAY0)])
    with open(store.root / "snapshots.jsonl", "ab") as f:
        f.write(b'{"app": 7}\n')
    report = ingest_records(
        SnapStore.open(store.root), "snapshots", [make_snapshot(day=DAY0 + dt.timedelta(days=1))]
    )
    assert report.skipped_corrupt == {"snapshots": 1, "reviews": 0, "topk": 0}
    assert set(report.to_record()) == {"accepted", "deduplicated", "rejected"}
    fresh = SnapStore.open(store.root)
    assert fresh._index("snapshots").skipped_corrupt == 1
    assert len(fresh.query_app_series("com.example.app")) == 2


def _canonical(rec) -> str:
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def test_duplicate_key_in_committed_log_keeps_the_first_line(tmp_path, manifest):
    # a log written outside ingest, with two lines for one (app, fetch_time)
    store = SnapStore.create(tmp_path / "store", manifest)
    first, second = (
        _canonical(snapshot_to_record(make_snapshot(price_cents=price)))
        for price in (99, 199)
    )
    (store.root / "snapshots.jsonl").write_text(first + "\n" + second + "\n")
    reopened = SnapStore.open(store.root)
    series = reopened.query_app_series("com.example.app")
    assert [s.price_cents for s in series.snapshots] == [99]
    assert build_app_timeline(reopened.app_states("com.example.app")).events == ()
    assert reopened._index("snapshots").skipped_corrupt == 1
    # ingest keeps the first line too: the second is a conflict
    report = reopened.ingest_lines("snapshots", [second])
    assert report.accepted["snapshots"] == 0
    assert [r.reason for r in report.rejected] == [
        f"conflicting payload for existing record (entity ('com.example.app',), "
        f"time {make_snapshot().fetch_time})"
    ]
    loaded = SnapStore.open(store.root)
    assert _sidecar_bytes(loaded)["snapshots"] == _log_sizes(store.root)["snapshots"]
    scanned = _full_scan(store.root, tmp_path)
    assert _index_state(loaded) == _index_state(scanned)
    assert _query_results(loaded) == _query_results(scanned)


# --- re-ingest -----------------------------------------------------------------------


def _refuse(*args, **kwargs):
    raise AssertionError("a duplicate line was decoded, validated or encoded")


def test_reingest_of_a_market_decodes_and_encodes_no_line(tmp_path, monkeypatch):
    from marketpulse import simgen
    from marketpulse.simgen import TopKListConfig

    data = tmp_path / "data"
    simgen.write_dataset(
        simgen.MarketScript(
            seed=11,
            n_developers=30,
            observation_days=12,
            topk_lists={ListType.FREE: TopKListConfig(length=10)},
        ),
        data,
    )
    manifest = DatasetManifest.from_record(json.loads((data / "manifest.json").read_text()))
    store = SnapStore.create(tmp_path / "store", manifest)
    first = store.ingest_dir(data)
    assert first.total_rejected == 0
    logs = {p.name: p.read_bytes() for p in store.root.iterdir()}
    last = (data / "snapshots.jsonl").read_text().splitlines()[-1]
    # the manifest and the sidecar state table are JSON: open the store and
    # load its indexes before json.loads is refused
    reopened = SnapStore.open(store.root)
    for kind in ("snapshots", "reviews", "topk"):
        assert reopened._index(kind).sidecar_bytes > 0
    for kind in ("snapshots", "reviews"):
        monkeypatch.setitem(store_mod._CODECS, kind, _refuse)
    monkeypatch.setattr(json, "dumps", _refuse)
    # snapshots and reviews are not even decoded; top-k lists are decoded
    # and run their codec, and their canonical line equals the stored one
    report = IngestReport()
    with monkeypatch.context() as refusing:
        refusing.setattr(json, "loads", _refuse)
        for kind in ("snapshots", "reviews"):
            with open(data / f"{kind}.jsonl", encoding="utf-8") as f:
                report.merge(reopened.ingest_lines(kind, f))
        # a line without its newline is a byte-identical copy too
        assert reopened.ingest_lines("snapshots", [last]).deduplicated["snapshots"] == 1
    with open(data / "topk.jsonl", encoding="utf-8") as f:
        report.merge(reopened.ingest_lines("topk", f))
    assert report.accepted == {"snapshots": 0, "reviews": 0, "topk": 0}
    assert report.deduplicated == first.accepted
    assert all(report.deduplicated.values())
    assert report.rejected == []
    assert {p.name: p.read_bytes() for p in store.root.iterdir()} == logs


def test_reingest_of_lines_with_escapes_outside_their_keys_decodes_no_line(store, monkeypatch):
    # canonical lines escape quotes, backslashes and every non-ASCII character
    ingest_records(store, "snapshots", [make_snapshot(title='Café "Olé", \\ 東京')])
    ingest_records(store, "reviews", [make_review(text='naïve "review", \\')])
    lines = {kind: (store.root / f"{kind}.jsonl").read_text() for kind in ("snapshots", "reviews")}
    assert all("\\u" in line and '\\"' in line for line in lines.values())
    monkeypatch.setattr(json, "loads", _refuse)
    for kind, line in lines.items():
        report = store.ingest_lines(kind, [line])
        assert (report.accepted[kind], report.deduplicated[kind]) == (0, 1)


def test_bulk_ingest_of_a_market_decodes_no_snapshot_or_review_line(tmp_path, market, monkeypatch):
    data = tmp_path / "data"
    simgen.write_dataset(market_script(), data)
    lines = {
        kind: (data / f"{kind}.jsonl").read_text().splitlines(keepends=True) for kind in KINDS
    }
    expected = {
        kind: b"".join(reference_line(kind, json.loads(line))[0] for line in lines[kind])
        for kind in KINDS
    }
    store = SnapStore.create(tmp_path / "store", market.manifest)
    with monkeypatch.context() as refusing:
        refusing.setattr(json, "loads", _refuse)
        for kind in ("snapshots", "reviews"):
            assert store.ingest_lines(kind, lines[kind]).accepted[kind] == len(lines[kind]) > 0
    store.ingest_lines("topk", lines["topk"])
    assert {kind: (store.root / f"{kind}.jsonl").read_bytes() for kind in KINDS} == expected
    # the same logs and index sidecars as a store filled from typed records
    by_records = ingest_market(tmp_path / "by_records", market)
    for name in (f"{kind}{suffix}" for kind in KINDS for suffix in (".jsonl", ".idx")):
        assert (store.root / name).read_bytes() == (by_records.root / name).read_bytes()
    # and a full scan of those logs decodes none of their lines either
    for path in store.root.glob("*.idx"):
        path.unlink()
    rescanned = SnapStore.open(store.root)
    with monkeypatch.context() as refusing:
        refusing.setattr(json, "loads", _refuse)
        for kind in ("snapshots", "reviews"):
            rescanned._index(kind)
    assert _index_state(rescanned) == _index_state(by_records)


def test_ingest_of_new_canonical_lines_looks_up_each_key_once(tmp_path, market, monkeypatch):
    # a new line is looked up once, by its admitted key
    data = tmp_path / "data"
    simgen.write_dataset(market_script(), data)
    lines = {
        kind: (data / f"{kind}.jsonl").read_text().splitlines(keepends=True) for kind in KINDS
    }
    calls = dict.fromkeys(KINDS, 0)
    real_find = store_mod._LogIndex.find

    def counting_find(index, key):
        calls[index.kind] += 1
        return real_find(index, key)

    monkeypatch.setattr(store_mod._LogIndex, "find", counting_find)
    store = SnapStore.create(tmp_path / "store", market.manifest)
    for kind in KINDS:
        assert store.ingest_lines(kind, lines[kind]).accepted[kind] == len(lines[kind]) > 0
    assert calls == {kind: len(lines[kind]) for kind in KINDS}


def _reordered_with_spaces(rec):
    return json.dumps(dict(reversed(list(rec.items()))), separators=(" , ", " : "))


def _padded(rec):
    return "  " + _canonical(rec) + " \t"


@pytest.mark.parametrize("form", [_reordered_with_spaces, _padded], ids=lambda f: f.__name__)
def test_non_canonical_copy_of_a_stored_record_dedupes(store, form):
    rec = snapshot_to_record(make_snapshot())
    store.ingest_lines("snapshots", [_canonical(rec)])
    log = (store.root / "snapshots.jsonl").read_bytes()
    report = SnapStore.open(store.root).ingest_lines("snapshots", [form(rec)])
    assert (report.accepted["snapshots"], report.deduplicated["snapshots"]) == (0, 1)
    assert report.rejected == []
    assert (store.root / "snapshots.jsonl").read_bytes() == log


def test_changed_copy_of_a_stored_or_batched_record_is_a_conflict(store):
    snap = make_snapshot()
    line = _canonical(snapshot_to_record(snap))
    changed = _canonical(snapshot_to_record(make_snapshot(rating_count=999)))
    reason = (
        "conflicting payload for existing record "
        f"(entity ('com.example.app',), time {snap.fetch_time})"
    )
    # against the batch, then against the committed log
    report = store.ingest_lines("snapshots", [line, changed])
    assert [(r.line_no, r.reason) for r in report.rejected] == [(2, reason)]
    report = SnapStore.open(store.root).ingest_lines("snapshots", [changed])
    assert [(r.line_no, r.reason) for r in report.rejected] == [(1, reason)]
    review = review_to_record(make_review())
    store.ingest_lines("reviews", [_canonical(review)])
    report = store.ingest_lines("reviews", [_canonical({**review, "text": "changed"})])
    assert [r.reason for r in report.rejected] == [
        "conflicting payload for existing record "
        f"(entity ('com.example.app', 'r1'), time {date_to_epoch(DAY0)})"
    ]


@pytest.mark.parametrize("given_as", [str, bytes], ids=lambda t: t.__name__)
def test_duplicates_in_a_batch_and_line_endings_count_as_before(store, given_as):
    a = _canonical(snapshot_to_record(make_snapshot(day=DAY0)))
    b = _canonical(snapshot_to_record(make_snapshot(day=DAY0 + dt.timedelta(days=1))))
    # a blank line is skipped; b is a last line without "\n"
    lines = [a + "\n", a + "\n", a + "\r\n", "", a, b]
    if given_as is bytes:
        lines = [line.encode() for line in lines]
    report = store.ingest_lines("snapshots", lines)
    assert (report.accepted["snapshots"], report.deduplicated["snapshots"]) == (2, 3)
    assert report.rejected == []
    log = (store.root / "snapshots.jsonl").read_bytes()
    assert log == (a + "\n" + b + "\n").encode()
    report = SnapStore.open(store.root).ingest_lines("snapshots", lines)
    assert (report.accepted["snapshots"], report.deduplicated["snapshots"]) == (0, 5)
    assert report.rejected == []
    assert (store.root / "snapshots.jsonl").read_bytes() == log


def _assert_raw_lone_surrogate_rejected_and_its_escape_dedupes(store, dumps):
    # a str line is its UTF-8 bytes, and a raw lone surrogate has none: the
    # line is rejected as its bytes would be; its escape is a valid line
    rec = {**_SNAPSHOT, "title": "broken \ud800 title"}
    report = store.ingest_lines("snapshots", [dumps(rec, ensure_ascii=False)])
    assert [r.reason.startswith("line is not valid UTF-8: ") for r in report.rejected] == [True]
    assert report.accepted["snapshots"] == report.deduplicated["snapshots"] == 0
    assert (store.root / "snapshots.jsonl").read_bytes() == b""
    line = dumps(rec)
    assert "\\ud800" in line
    for reingest in range(2):
        report = store.ingest_lines("snapshots", [line, line])
        assert report.accepted["snapshots"] == 1 - reingest
        assert report.deduplicated["snapshots"] == 1 + reingest
        assert report.rejected == []


def test_line_with_a_lone_surrogate_dedupes_like_any_other(store):
    _assert_raw_lone_surrogate_rejected_and_its_escape_dedupes(store, json.dumps)


def test_line_with_a_lone_surrogate_after_a_canonical_head_dedupes(store):
    # the line begins as a canonical snapshot line does
    def dumps(rec, **kwargs):
        return json.dumps(rec, **kwargs, sort_keys=True, separators=(",", ":"))

    _assert_raw_lone_surrogate_rejected_and_its_escape_dedupes(store, dumps)


def _without(rec, field):
    return {k: v for k, v in rec.items() if k != field}


_SNAPSHOT = snapshot_to_record(make_snapshot())
_REVIEW = review_to_record(make_review())
_TOPK = topk_to_record(make_topk(["a", "b"]))


@pytest.mark.parametrize(
    "kind, rec, reason",
    [
        ("snapshots", _without(_SNAPSHOT, "app"), "missing field 'app'"),
        ("snapshots", _without(_SNAPSHOT, "fetch_time"), "missing field 'fetch_time'"),
        ("snapshots", _without(_SNAPSHOT, "title"), "missing field 'title'"),
        ("snapshots", {**_SNAPSHOT, "app": 7}, "field 'app' must be a string"),
        (
            "snapshots",
            {**_SNAPSHOT, "fetch_time": float(_SNAPSHOT["fetch_time"])},
            "field 'fetch_time' must be an integer",
        ),
        ("snapshots", {**_SNAPSHOT, "fetch_time": True}, "field 'fetch_time' must be an integer"),
        ("snapshots", {**_SNAPSHOT, "price_cents": -1, "free": False}, "price_cents negative"),
        ("reviews", _without(_REVIEW, "review_id"), "missing field 'review_id'"),
        ("reviews", _without(_REVIEW, "date"), "missing field 'date'"),
        ("reviews", {**_REVIEW, "date": 20120401}, "field 'date' must be a string"),
        ("reviews", {**_REVIEW, "date": "2012-13-01"}, "month must be in 1..12"),
        ("reviews", {**_REVIEW, "review_id": None}, "field 'review_id' must be a string"),
        ("topk", _without(_TOPK, "list_type"), "missing field 'list_type'"),
        ("topk", {**_TOPK, "list_type": 3}, "unknown list_type 3"),
        ("topk", _without(_TOPK, "fetch_time"), "missing field 'fetch_time'"),
    ],
)
def test_line_with_a_bad_key_or_field_keeps_its_rejection_text(store, kind, rec, reason):
    # the valid record under the same key is stored already
    valid = {"snapshots": _SNAPSHOT, "reviews": _REVIEW, "topk": _TOPK}[kind]
    store.ingest_lines(kind, [_canonical(valid)])
    report = store.ingest_lines(kind, [_canonical(rec)])
    assert [(r.kind, r.line_no, r.reason) for r in report.rejected] == [(kind, 1, reason)]
    assert report.accepted[kind] == report.deduplicated[kind] == 0


def test_copy_of_a_committed_line_the_codec_rejects_is_rejected(store):
    # a hand-written committed line that ingest validation would reject
    rec = {**_SNAPSHOT, "price_cents": -5, "free": False}
    line = _canonical(rec)
    (store.root / "snapshots.jsonl").write_text(line + "\n")
    log = (store.root / "snapshots.jsonl").read_bytes()
    # neither a byte-identical nor a reformatted copy is deduplicated
    for copy in (line, json.dumps(rec)):
        report = SnapStore.open(store.root).ingest_lines("snapshots", [copy])
        assert [r.reason for r in report.rejected] == ["price_cents negative"]
        assert report.accepted["snapshots"] == report.deduplicated["snapshots"] == 0
        assert report.skipped_corrupt["snapshots"] == 1
    assert (store.root / "snapshots.jsonl").read_bytes() == log
    # and the line is served to no query
    reopened = SnapStore.open(store.root)
    assert reopened.apps() == []
    assert reopened.latest_snapshots() == {}
    assert len(reopened.query_app_series(rec["app"])) == 0


def test_copy_of_a_hand_written_line_dedupes_against_its_canonical_form(store):
    # unsorted permissions and an integer rating_avg: valid, but not canonical
    rec = {**_SNAPSHOT, "permissions": ["VIBRATE", "INTERNET"], "rating_avg": 4}
    (store.root / "snapshots.jsonl").write_text(_canonical(rec) + "\n")
    log = (store.root / "snapshots.jsonl").read_bytes()
    canonical = _canonical({**rec, "permissions": ["INTERNET", "VIBRATE"], "rating_avg": 4.0})
    for line in (json.dumps(rec), canonical):
        report = SnapStore.open(store.root).ingest_lines("snapshots", [line])
        assert (report.accepted["snapshots"], report.deduplicated["snapshots"]) == (0, 1)
        assert report.rejected == []
    assert (store.root / "snapshots.jsonl").read_bytes() == log


# Lines of each kind: records under two keys with two payloads each, then
# an edit that keeps the record valid but not canonical, makes the codec
# reject it or makes it no JSON object, in a canonical or spaced form.
_RECORDS = {
    "snapshots": st.builds(
        lambda app, day, ratings: {
            **_SNAPSHOT, "app": app, "fetch_time": _SNAPSHOT["fetch_time"] + day * 86400,
            "rating_count": ratings,
        },
        st.sampled_from(["com.a", "com.b"]),
        st.integers(0, 1),
        st.sampled_from([120, 121]),
    ),
    "reviews": st.builds(
        lambda app, review_id, text: {**_REVIEW, "app": app, "review_id": review_id, "text": text},
        st.sampled_from(["com.a", "com.b"]),
        st.sampled_from(["r1", "r2"]),
        st.sampled_from(["ok", "meh"]),
    ),
    "topk": st.builds(
        lambda list_type, hour, ranking: {
            **_TOPK, "list_type": list_type, "fetch_time": _TOPK["fetch_time"] + hour * 3600,
            "ranking": ranking,
        },
        st.sampled_from(["Free", "Paid"]),
        st.integers(0, 1),
        st.sampled_from([["a", "b"], ["b", "a"]]),
    ),
}
_EDITS = {
    "snapshots": [
        lambda rec: {**rec, "rating_avg": 4},
        lambda rec: {**rec, "permissions": rec["permissions"][::-1]},
        lambda rec: {**rec, "price_cents": -5, "free": False},
        lambda rec: _without(rec, "title"),
        lambda rec: {**rec, "app": "com a"},
        # traps for the key read from a line's text before it is decoded
        lambda rec: {**rec, "app": rec["app"] + '"\\'},
        lambda rec: {**rec, "title": f'x","fetch_time":{rec["fetch_time"] + 86400},"y":"'},
        lambda rec: {**rec, "fetch_time": -rec["fetch_time"], "last_updated": "1900-01-01"},
        lambda rec: {**rec, "fetch_time": 2**64},
        # characters the encoder escapes, which the text edits unescape
        lambda rec: {**rec, "title": "Caf\u00e9/\x7f\b"},
        lambda rec: {**rec, "permissions": rec["permissions"] + rec["permissions"][:1]},
    ],
    "reviews": [
        lambda rec: {**rec, "date": rec["date"].replace("-", "")},
        lambda rec: {**rec, "rating": 9},
        lambda rec: _without(rec, "text"),
        lambda rec: {**rec, "review_id": 7},
        lambda rec: {**rec, "app": rec["app"] + '"'},
        lambda rec: {**rec, "review_id": rec["review_id"] + "\\"},
        lambda rec: {**rec, "date": "1960-01-01"},
        lambda rec: {**rec, "text": "Caf\u00e9/\x7f\b"},
    ],
    "topk": [
        lambda rec: {**rec, "fetch_time": rec["fetch_time"] + 1},
        lambda rec: {**rec, "ranking": ["a", "a"]},
        lambda rec: {**rec, "list_type": "Bogus"},
        lambda rec: {**rec, "fetch_time": -rec["fetch_time"]},
        lambda rec: {**rec, "fetch_time": 2**64},
    ],
}
_ANY_KIND_EDITS = [lambda rec: rec, lambda rec: {**rec, "extra": 1}, lambda rec: [rec]]
# the field whose other value gives a record a different key
_KEY_FIELDS = {"snapshots": "app", "reviews": "review_id", "topk": "list_type"}
_OTHER_VALUE = {"com.a": "com.b", "com.b": "com.a", "r1": "r2", "r2": "r1", "Free": "Paid"}


def _with_decoy_keys(kind):
    """Canonical JSON of the record after the keys of another record: a line
    whose first key fields are not the ones ``json.loads`` keeps."""

    def serialize(rec):
        if not isinstance(rec, dict) or not isinstance(rec.get(_KEY_FIELDS[kind]), str):
            return _canonical(rec)
        field = _KEY_FIELDS[kind]
        decoy = {**rec, field: _OTHER_VALUE.get(rec[field], "Free")}
        return _canonical(decoy)[:-1] + "," + _canonical(rec)[1:]

    return serialize


@st.composite
def _log_lines(draw, kind):
    rec = draw(st.sampled_from(_EDITS[kind] + _ANY_KIND_EDITS))(draw(_RECORDS[kind]))
    edit = draw(st.sampled_from(list(NONCANONICAL_TEXT_EDITS.values())))
    forms = [
        _canonical,
        json.dumps,
        lambda rec: json.dumps(rec, sort_keys=True, separators=(", ", ":")),
        _with_decoy_keys(kind),
        # text json.loads reads but the encoder never writes
        lambda rec: edit(_canonical(rec)),
    ]
    return draw(st.sampled_from(forms))(rec)


def _reference_key(kind, canonical):
    rec = json.loads(canonical)
    if kind == "reviews":
        return (rec["app"], rec["review_id"]), date_to_epoch(dt.date.fromisoformat(rec["date"]))
    return (rec["list_type" if kind == "topk" else "app"],), rec["fetch_time"]


def _reference_ingest(kind, log, lines):
    """What ingest of ``lines`` into a log of the committed lines ``log``
    gives by the reference path, every line decoded, validated and encoded
    (``reference_line``) and no raw-byte shortcut: the report record, the
    committed lines skipped and the log after."""
    stored, skipped = {}, 0
    for line in log:
        try:
            canonical = reference_line(kind, json.loads(line))[0]
        except (TypeError, ValueError):
            skipped += 1
            continue
        key = _reference_key(kind, canonical)
        if key in stored:
            skipped += 1
        else:
            stored[key] = canonical
    accepted = deduplicated = 0
    rejected, after = [], "".join(log)
    for line_no, line in enumerate(lines, start=1):
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise ValueError("record must be a JSON object")
            canonical = reference_line(kind, rec)[0]
        except ValueError as exc:
            rejected.append({"kind": kind, "line_no": line_no, "reason": str(exc)})
            continue
        key = _reference_key(kind, canonical)
        if key not in stored:
            stored[key] = canonical
            accepted += 1
            after += canonical.decode()
        elif stored[key] == canonical:
            deduplicated += 1
        else:
            entity, time_key = key
            reason = f"conflicting payload for existing record (entity {entity}, time {time_key})"
            rejected.append({"kind": kind, "line_no": line_no, "reason": reason})
    counts = dict.fromkeys(("snapshots", "reviews", "topk"), 0)
    report = {
        "accepted": {**counts, kind: accepted},
        "deduplicated": {**counts, kind: deduplicated},
        "rejected": rejected,
    }
    return report, skipped, after


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ingest_gives_what_the_reference_path_gives_without_the_raw_byte_shortcut(data):
    kind = data.draw(st.sampled_from(["snapshots", "reviews", "topk"]))
    log = [line + "\n" for line in data.draw(st.lists(_log_lines(kind), max_size=6))]
    # byte-identical copies of committed lines, with and without the newline
    copies = st.sampled_from(log).flatmap(lambda line: st.sampled_from([line, line[:-1]]))
    lines = data.draw(st.lists(_log_lines(kind) | (copies if log else st.nothing()), max_size=6))
    manifest = DatasetManifest(
        name="t", currency="USD", observation_start=DAY0, observation_end=DAY0
    )
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        SnapStore.create(root, manifest)
        path = root / f"{kind}.jsonl"
        path.write_text("".join(log), encoding="utf-8")
        # from a full scan of the log, then from the sidecar that ingest wrote
        for _ in range(2):
            expected = _reference_ingest(kind, log, lines)
            report = SnapStore.open(root).ingest_lines(kind, lines)
            after = path.read_text(encoding="utf-8")
            assert (report.to_record(), report.skipped_corrupt[kind], after) == expected
            log = after.splitlines(keepends=True)


@st.composite
def _replayed(draw, kind, log):
    """``log``'s lines in log order, each dropped, taken once or twice, cut
    from its newline or glued to the next, with drawn lines between them:
    lines of a re-ingest that keep or break the committed order."""
    lines = []
    for i, line in enumerate(log):
        for _ in range(draw(st.integers(0, 2))):
            form = draw(st.sampled_from(["whole", "cut", "glued"]))
            if form == "cut":
                line = line[:-1]
            elif form == "glued":
                line += log[(i + 1) % len(log)]
            lines.append(line)
        if draw(st.booleans()):
            lines.append(draw(_log_lines(kind)) + draw(st.sampled_from(["", "\n"])))
    return lines


def _as_bytes(line):
    """``line`` as the bytes ingest reads from a file, when it is UTF-8."""
    try:
        return line.encode("utf-8")
    except UnicodeEncodeError:
        return line


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_replayed_committed_lines_give_what_the_reference_path_gives(data):
    kind = data.draw(st.sampled_from(["snapshots", "reviews", "topk"]))
    log = [line + "\n" for line in data.draw(st.lists(_log_lines(kind), max_size=6))]
    manifest = DatasetManifest(
        name="t", currency="USD", observation_start=DAY0, observation_end=DAY0
    )
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        SnapStore.create(root, manifest)
        path = root / f"{kind}.jsonl"
        path.write_text("".join(log), encoding="utf-8")
        # from a full scan of the log, then from the sidecar that ingest wrote
        for _ in range(2):
            lines = data.draw(_replayed(kind, log))
            expected = _reference_ingest(kind, log, lines)
            report = SnapStore.open(root).ingest_lines(kind, map(_as_bytes, lines))
            after = path.read_text(encoding="utf-8")
            assert (report.to_record(), report.skipped_corrupt[kind], after) == expected
            log = after.splitlines(keepends=True)


def test_reingest_in_committed_order_reads_no_key(tmp_path, market, monkeypatch):
    # a re-ingest of the files a store was filled from meets each line as
    # the next committed line: no head is read and no key looked up, and a
    # top-k list is not decoded either
    data = tmp_path / "data"
    simgen.write_dataset(market_script(), data)
    store = SnapStore.create(tmp_path / "store", market.manifest)
    first = store.ingest_dir(data)
    assert first.total_rejected == 0
    logs = {p.name: p.read_bytes() for p in store.root.glob("*.jsonl")}
    reopened = SnapStore.open(store.root)
    for kind in KINDS:
        reopened._index(kind)
        monkeypatch.setitem(store_mod._TEXT_READERS, kind, (_refuse, lambda index: _refuse))
    monkeypatch.setitem(store_mod._CODECS, "topk", _refuse)
    monkeypatch.setattr(store_mod._LogIndex, "find", _refuse)
    report = reopened.ingest_dir(data)
    assert report.deduplicated == first.accepted and all(report.deduplicated.values())
    assert sum(report.accepted.values()) == report.total_rejected == 0
    assert {p.name: p.read_bytes() for p in store.root.glob("*.jsonl")} == logs


@pytest.mark.parametrize("block_bytes", [100, store_mod._BLOCK_BYTES])
def test_reingest_through_ingest_dir_passes_blocks_with_no_line_work(
    tmp_path, market, monkeypatch, block_bytes
):
    # a file that repeats its log is deduplicated a block at a time: no
    # line is admitted and none is taken on its own
    data = tmp_path / "data"
    simgen.write_dataset(market_script(), data)
    store = SnapStore.create(tmp_path / "store", market.manifest)
    first = store.ingest_dir(data)
    logs = {p.name: p.read_bytes() for p in store.root.iterdir()}
    reopened = SnapStore.open(store.root)
    for kind in KINDS:
        reopened._index(kind)
    monkeypatch.setattr(store_mod, "_BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(store_mod, "_admit", _refuse)
    monkeypatch.setattr(store_mod._CommittedLines, "take", _refuse)
    report = reopened.ingest_dir(data)
    assert report.deduplicated == first.accepted and all(report.deduplicated.values())
    assert sum(report.accepted.values()) == report.total_rejected == 0
    assert {p.name: p.read_bytes() for p in store.root.iterdir()} == logs


def _split_lines(data: bytes) -> list[bytes]:
    """The lines of ``data`` cut at b"\\n" only, as iterating a file cuts
    them."""
    return list(io.BytesIO(data))


def _edit_line(lines, i, edit):
    """``lines`` with its ``i``-th line, if there is one, replaced by
    ``edit`` of it."""
    return lines[:i] + [edit(line) for line in lines[i:i + 1]] + lines[i + 1:]


# Edits of a data file that began as a copy of its log: each takes the
# file's lines, a drawn line and a drawn place, and returns the new lines.
_FILE_EDITS = {
    "changed line": lambda lines, new, i: _edit_line(lines, i, lambda line: new),
    "CRLF": lambda lines, new, i: _edit_line(lines, i, lambda line: line[:-1] + "\r\n"),
    "lone CR": lambda lines, new, i: _edit_line(
        lines, i, lambda line: line[: len(line) // 2] + "\r" + line[len(line) // 2:]
    ),
    "blank line": lambda lines, new, i: lines[:i] + ["\n"] + lines[i:],
    "longer": lambda lines, new, i: lines + [new],
    "shorter": lambda lines, new, i: lines[:-1],
}


@pytest.mark.parametrize("first_edit", sorted(_FILE_EDITS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_ingest_dir_gives_what_its_lines_give_one_by_one(first_edit, data):
    kind = data.draw(st.sampled_from(["snapshots", "reviews", "topk"]))
    drawn = [_canonical(data.draw(_RECORDS[kind]))]
    drawn += data.draw(st.lists(_log_lines(kind), max_size=7))
    manifest = DatasetManifest(
        name="t", currency="USD", observation_start=DAY0, observation_end=DAY0
    )
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        # the log holds the drawn lines that ingest, and a corrupt line or not
        SnapStore.create(tmp / "a", manifest).ingest_lines(kind, drawn)
        log = (tmp / "a" / f"{kind}.jsonl").read_text(encoding="utf-8")
        if data.draw(st.booleans()):
            with open(tmp / "a" / f"{kind}.jsonl", "a", encoding="utf-8") as f:
                f.write('{"corrupt": true}\n')
        if data.draw(st.booleans()):
            (tmp / "a" / f"{kind}.idx").unlink(missing_ok=True)
        shutil.copytree(tmp / "a", tmp / "b")
        lines = [line + "\n" for line in log.split("\n")[:-1]]
        edits = [first_edit] + data.draw(st.lists(st.sampled_from(sorted(_FILE_EDITS)), max_size=2))
        for edit in edits:
            new = data.draw(_log_lines(kind)) + "\n"
            lines = _FILE_EDITS[edit](lines, new, data.draw(st.integers(0, len(lines))))
        text = "".join(lines)
        if text and data.draw(st.booleans()):
            text = text[:-1]  # no final newline
        (tmp / "data").mkdir()
        (tmp / "data" / f"{kind}.jsonl").write_bytes(text.encode("utf-8", "surrogatepass"))
        block_bytes = data.draw(st.sampled_from([1, 5, 64, 300, store_mod._BLOCK_BYTES]))
        # from the log as it was, then once more from what the first ingest left
        for _ in range(2):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(store_mod, "_BLOCK_BYTES", block_bytes)
                report = SnapStore.open(tmp / "a").ingest_dir(tmp / "data")
            expected = SnapStore.open(tmp / "b").ingest_lines(
                kind, _split_lines((tmp / "data" / f"{kind}.jsonl").read_bytes())
            )
            assert (report.to_record(), report.skipped_corrupt) == (
                expected.to_record(),
                expected.skipped_corrupt,
            )
            assert {p.name: p.read_bytes() for p in (tmp / "a").iterdir()} == {
                p.name: p.read_bytes() for p in (tmp / "b").iterdir()
            }


def test_blocks_are_compared_only_with_the_prefix_the_ingest_began_with(store, monkeypatch):
    # the lines an ingest appends are not read back as committed lines: a
    # second copy of them in the file is admitted and found by its key
    old, new = _app_lines(range(3)), _app_lines(range(3, 7))
    store.ingest_lines("snapshots", old)
    data = store.root.parent / "data"
    data.mkdir()
    (data / "snapshots.jsonl").write_text("".join(old + new + new))
    admitted = []
    admit = store_mod._admit

    def counted(kind, line, *args):
        admitted.append(line)
        return admit(kind, line, *args)

    monkeypatch.setattr(store_mod, "_BATCH_LINES", 2)
    monkeypatch.setattr(store_mod, "_BLOCK_BYTES", 1)
    monkeypatch.setattr(store_mod, "_admit", counted)
    report = SnapStore.open(store.root).ingest_dir(data)
    assert report.accepted["snapshots"] == 4 and report.deduplicated["snapshots"] == 7
    assert admitted == new + new


def test_block_of_lines_is_not_one_line_of_ingest_lines(store):
    # ingest_lines takes each item it is given as one line: two committed
    # lines given as one str are not deduplicated, and a file holding them
    # is cut into its two lines
    lines = _app_lines(range(2))
    store.ingest_lines("snapshots", lines)
    report = SnapStore.open(store.root).ingest_lines("snapshots", ["".join(lines)])
    assert report.deduplicated["snapshots"] == 0
    assert [r.line_no for r in report.rejected] == [1]
    data = store.root.parent / "data"
    data.mkdir()
    (data / "snapshots.jsonl").write_text("".join(lines))
    report = SnapStore.open(store.root).ingest_dir(data)
    assert report.deduplicated["snapshots"] == 2 and report.total_rejected == 0


def _last_updated_epoch(rec):
    return date_to_epoch(dt.date.fromisoformat(rec["last_updated"]))


def _at_64_bits(field, value):
    """The edit of a snapshot record that sets the state number ``field``
    to ``value`` (a price with its free flag)."""
    return {field: value, "free": False} if field == "price_cents" else {field: value}


# Twins of a valid snapshot record: the first ones differ from it in
# fetch_time alone (later, earlier, equal, at and before the start of the
# last_updated day, at both ends of the signed 64-bit range and past them
# with 19 digits), the others in one more field too (a conflict, a new
# state, a state number at the top of the signed 64-bit range, or a record
# the codec rejects).
_TWIN_EDITS = [
    lambda rec: {**rec, "fetch_time": rec["fetch_time"] + 3600},
    lambda rec: {**rec, "fetch_time": rec["fetch_time"] + 86400},
    lambda rec: {**rec, "fetch_time": rec["fetch_time"] - 3600},
    lambda rec: rec,
    lambda rec: {**rec, "fetch_time": _last_updated_epoch(rec)},
    lambda rec: {**rec, "fetch_time": _last_updated_epoch(rec) - 1},
    lambda rec: {**rec, "fetch_time": 2**63 - 1},
    lambda rec: {**rec, "fetch_time": 2**63},
    lambda rec: {**rec, "fetch_time": -(2**63)},
    lambda rec: {**rec, "fetch_time": 10**19 - 1},
    lambda rec: {**rec, "fetch_time": -(10**19 - 1)},
    lambda rec: {**rec, "rating_count": rec["rating_count"] + 1},
    lambda rec: {**rec, "fetch_time": rec["fetch_time"] + 7200, "version": "1.0.1"},
    lambda rec: {**rec, "fetch_time": rec["fetch_time"] + 7200, "price_cents": -5, "free": False},
    lambda rec: {**rec, "fetch_time": rec["fetch_time"] + 7200, "last_updated": "2030-01-01"},
    *(
        lambda rec, edit=edit: {**rec, "fetch_time": rec["fetch_time"] + 10800, **edit}
        for field in ("price_cents", "downloads_hi", "rating_count")
        for edit in (_at_64_bits(field, 2**63 - 1), _at_64_bits(field, 2**63))
    ),
]


@st.composite
def _fetch_time_twin_lines(draw):
    """Canonical lines of 2-3 apps, interleaved: per app, one or two valid
    records, each followed by some of its twins in drawn order."""
    queues = []
    for app in ["com.a", "com.b", "com.c"][: draw(st.integers(2, 3))]:
        queue = []
        for _ in range(draw(st.integers(1, 2))):
            rec = {
                **_SNAPSHOT,
                "app": app,
                "fetch_time": _SNAPSHOT["fetch_time"] + draw(st.integers(0, 2)) * 86400,
                "rating_count": draw(st.sampled_from([120, 121])),
            }
            queue.append(rec)
            queue += [edit(rec) for edit in draw(st.lists(st.sampled_from(_TWIN_EDITS), max_size=6))]
        queues.append(queue)
    lines = []
    while any(queues):
        queue = draw(st.sampled_from([q for q in queues if q]))
        lines.append(_canonical(queue.pop(0)) + "\n")
    return lines


@settings(max_examples=150, deadline=None)
@given(_fetch_time_twin_lines())
def test_fetch_time_twins_give_what_the_reference_path_gives(lines):
    # the state of a twin comes from its app's last admitted line, after
    # the checks that read fetch_time
    manifest = DatasetManifest(
        name="t", currency="USD", observation_start=DAY0, observation_end=DAY0
    )
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        SnapStore.create(root, manifest)
        path, log = root / "snapshots.jsonl", []
        # into the fresh store, then through a handle that loads the sidecar
        # and one that scans the log
        for reopened_by in ("create", "sidecar", "scan"):
            if reopened_by == "scan":
                (root / "snapshots.idx").unlink(missing_ok=True)
            expected = _reference_ingest("snapshots", log, lines)
            handle = SnapStore.open(root)
            report = handle.ingest_lines("snapshots", lines)
            after = path.read_text(encoding="utf-8")
            assert (report.to_record(), report.skipped_corrupt["snapshots"], after) == expected
            log = after.splitlines(keepends=True)
            assert _index_state(handle) == _index_state(_full_scan(root, Path(tmp)))


def test_scan_skips_a_fetch_time_twin_before_its_last_updated_day(tmp_path, manifest):
    # the second valid line and the twin repeat the first but for fetch_time
    later = {**_SNAPSHOT, "fetch_time": _SNAPSHOT["fetch_time"] + 86400}
    valid = [_canonical(_SNAPSHOT) + "\n", _canonical(later) + "\n"]
    twin = _canonical({**_SNAPSHOT, "fetch_time": _last_updated_epoch(_SNAPSHOT) - 1}) + "\n"
    scanned = SnapStore.create(tmp_path / "scanned", manifest)
    (scanned.root / "snapshots.jsonl").write_text("".join(valid) + twin)
    index = SnapStore.open(scanned.root)._index("snapshots")
    assert (index.sidecar_bytes, index.skipped_corrupt) == (0, 1)
    ingested = SnapStore.create(tmp_path / "ingested", manifest)
    assert ingested.ingest_lines("snapshots", valid).accepted["snapshots"] == 2
    expected = ingested._index("snapshots")
    assert _entity_rows(index) == _entity_rows(expected)
    assert index.table.keys() == expected.table.keys()
    assert index.table.values() == expected.table.values()


# --- index sidecar -----------------------------------------------------------------


def _full_scan(root, tmp_path):
    """A handle on a copy of the store without sidecars: it scans every log."""
    copy = tmp_path / "full-scan"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(root, copy)
    for path in copy.glob("*.idx"):
        path.unlink()
    return SnapStore.open(copy)


def _entity_rows(index):
    """(entity, time, offset, length, state key or review id) of every line
    ``index`` holds, entity by entity, each entity's lines in row order."""
    values = index.table.keys()
    return [
        (
            group,
            index.times[r],
            index.offsets[r],
            index.lengths[r],
            values[index.tags[r]] if index.kind != "topk" else None,
        )
        for group, rows in index.rows.items()
        for r in rows
    ]


def _index_state(store):
    state = {}
    for kind in ("snapshots", "reviews", "topk"):
        index = store._index(kind)
        rows = _entity_rows(index)
        # (entity, time) -> (offset, length) of its line
        keys = {
            ((group, tag) if kind == "reviews" else (group,), time): (offset, length)
            for group, time, offset, length, tag in rows
        }
        # each entity's lines in key order: time, and (date, review id) for
        # reviews; one line per key, which find gives
        order = [(group, time, tag if kind == "reviews" else "") for group, time, _, _, tag in rows]
        assert all(a[1:] < b[1:] for a, b in zip(order, order[1:]) if a[0] == b[0])
        assert len(keys) == len(rows)
        for key, place in keys.items():
            row = index.find(key)
            assert (index.offsets[row], index.lengths[row]) == place
        state[kind] = (
            rows,
            keys,
            index.table.keys() if kind == "snapshots" else None,
            index.table.values() if kind == "snapshots" else None,
            index.scanned_bytes,
            index.skipped_corrupt,
            index.digest.digest(),
        )
    return state


def _query_results(store):
    return (
        store.apps(),
        store.reviewed_apps(),
        store.review_counts(),
        store.latest_snapshots(),
        [store.query_app_series(app) for app in store.apps()],
        [store.query_reviews(app) for app in store.reviewed_apps()],
        [store.query_list_series(list_type) for list_type in ListType],
    )


def _sidecar_bytes(store):
    return {kind: store._index(kind).sidecar_bytes for kind in ("snapshots", "reviews", "topk")}


def _log_sizes(root):
    return {
        kind: (root / f"{kind}.jsonl").stat().st_size
        for kind in ("snapshots", "reviews", "topk")
    }


def test_sidecar_index_equals_full_scan(tmp_path, market):
    root = tmp_path / "store"
    ingest_market(root, market)
    assert sorted(p.name for p in root.glob("*.idx")) == [
        "reviews.idx",
        "snapshots.idx",
        "topk.idx",
    ]
    loaded, scanned = SnapStore.open(root), _full_scan(root, tmp_path)
    assert _sidecar_bytes(loaded) == _log_sizes(root)
    assert _sidecar_bytes(scanned) == {"snapshots": 0, "reviews": 0, "topk": 0}
    assert _index_state(loaded) == _index_state(scanned)
    assert _query_results(loaded) == _query_results(scanned)
    # per entry 24 bytes (snapshots, reviews) or 20 (top-k), plus 4 per entity
    for kind, per_entry in (("snapshots", 24), ("reviews", 24), ("topk", 20)):
        index = loaded._index(kind)
        entries = _entity_rows(index)
        names = list(index.rows)
        if kind == "reviews":
            names += dict.fromkeys(e[4] for e in entries)
        header = store_mod._SIDECAR_HEADER
        table = header.unpack_from((root / f"{kind}.idx").read_bytes())[-1]
        columns = (
            (root / f"{kind}.idx").stat().st_size
            - header.size
            - table
            - sum(len(name.encode()) + 1 for name in names)
        )
        assert columns == per_entry * len(entries) + 4 * len(index.rows)
    # the distinct timeline states are few next to the snapshots
    snapshots = loaded._index("snapshots")
    table = snapshots.table
    assert 0 < len(table) < len(snapshots.times) / 2
    # the state table is binary: its header, each state's eight columns and
    # each of the two permission-set columns in the type its header names,
    # the narrowest that holds the column, then the strings; smaller than
    # the JSON table of MPX6
    data = (root / "snapshots.idx").read_bytes()
    at = store_mod._SIDECAR_HEADER.size + 4 * len(snapshots.rows) + 24 * len(snapshots.times)
    codes = store_mod._TABLE_HEADER.unpack_from(data, at)[-1].decode()
    assert all(array(code, [max(column, default=0)]) for code, column in zip(codes, table.columns))
    width = [array(code).itemsize for code in codes]
    assert store_mod._SIDECAR_HEADER.unpack_from(data)[-1] == (
        store_mod._TABLE_HEADER.size
        + sum(width[:8]) * len(table)
        + width[8] * len(table.sets[0])
        + width[9] * len(table.sets[1])
        + sum(len(string.encode()) + 1 for string in table.strings.keys())
    )
    assert sum(width[:8]) < 48
    assert store_mod._SIDECAR_HEADER.unpack_from(data)[-1] < len(_json_state_table(table.keys()))


def test_index_of_several_batches_equals_full_scan(tmp_path, manifest):
    # new apps keep appearing after the first batch of 1,000 lines
    root = tmp_path / "store"
    reviews = [make_review(app=f"com.app{i // 100}", review_id=f"r{i}") for i in range(2500)]
    snapshots = [
        make_snapshot(app=f"com.app{i // 100}", day=DAY0 + dt.timedelta(days=i % 100))
        for i in range(2500)
    ]
    store = SnapStore.create(root, manifest)
    assert ingest_records(store, "reviews", reviews).accepted["reviews"] == 2500
    assert ingest_records(store, "snapshots", snapshots).accepted["snapshots"] == 2500
    loaded, scanned = SnapStore.open(root), _full_scan(root, tmp_path)
    assert _sidecar_bytes(loaded) == _log_sizes(root)
    assert _index_state(loaded) == _index_state(scanned)
    assert _index_state(store) == _index_state(scanned)


def _id_columns(data):
    """(offset of its first item, type code, an id just out of range) of
    each id column of the snapshots sidecar ``data``."""
    header, table_header = store_mod._SIDECAR_HEADER, store_mod._TABLE_HEADER
    _, _, _, entries, entities, _, _ = header.unpack_from(data)
    tags = header.size + 4 * entities + 20 * entries
    at = tags + 4 * entries
    states, sets, _, strings, codes = table_header.unpack_from(data, at)
    codes = codes.decode()
    starts = list(itertools.accumulate(
        (array(code).itemsize * (states if i < 8 else sets) for i, code in enumerate(codes)),
        initial=at + table_header.size,
    ))
    return {
        "state id": (tags, "I", states),
        "version": (starts[4], codes[4], strings),
        "category": (starts[5], codes[5], strings),
        "permission set": (starts[6], codes[6], sets),
        "last_updated ordinal": (starts[7], codes[7], 0),
        "permission name": (starts[9], codes[9], strings),
    }


def _with_item(data, log, offset, code, value):
    """The sidecar ``data`` with the item at ``offset`` set to ``value``
    and its digest recomputed over ``log``, so that it is intact."""
    header = store_mod._SIDECAR_HEADER
    data = bytearray(data)
    struct.pack_into("=" + code, data, offset, value)
    covered = header.unpack_from(data)[1]
    sha = hashlib.sha1(log.read_bytes()[:covered])
    sha.update(data[header.size:])
    struct.pack_into("=20s", data, 12, sha.digest())
    return bytes(data)


@pytest.mark.parametrize(
    "column",
    [
        "state id",
        "version",
        "category",
        "permission set",
        "permission name",
        "last_updated ordinal",
    ],
)
def test_intact_sidecar_with_an_id_out_of_range_is_rejected_at_open(tmp_path, market, column):
    root = tmp_path / "store"
    ingest_market(root, market)
    sidecar, log = root / "snapshots.idx", root / "snapshots.jsonl"
    data = sidecar.read_bytes()
    offset, code, bad = _id_columns(data)[column]
    # the item rewritten as it was: the recomputed digest holds
    same = struct.unpack_from("=" + code, data, offset)[0]
    assert _with_item(data, log, offset, code, same) == data
    sidecar.write_bytes(_with_item(data, log, offset, code, bad))
    loaded = SnapStore.open(root)
    assert _sidecar_bytes(loaded)["snapshots"] == 0
    scanned = _full_scan(root, tmp_path)
    assert _index_state(loaded) == _index_state(scanned)
    assert _query_results(loaded) == _query_results(scanned)


def _table_codes(table):
    """The type codes of the state table's columns as its sidecar holds them."""
    return store_mod._TABLE_HEADER.unpack_from(table.to_bytes())[4].decode("ascii")


def test_state_table_columns_widen_for_larger_items(tmp_path, manifest):
    # the first sidecar holds the state columns in 8 and 16 bits but the
    # ordinal; a handle over it adds items that need 16, 32 and 64 bits
    store = SnapStore.create(tmp_path / "store", manifest)
    ingest_records(store, "snapshots", [make_snapshot()])
    handle = SnapStore.open(store.root)
    assert _table_codes(handle._index("snapshots").table) == "BHHBBBBIBB"
    big = make_snapshot(
        day=DAY0 + dt.timedelta(days=1),
        price_cents=70_000,
        downloads=DownloadBucket(5_000_000_000, 10_000_000_000),
        rating_count=300,
        version="2.0.0",
        permissions=frozenset(f"P{i}" for i in range(300)),
    )
    assert ingest_records(handle, "snapshots", [big]).accepted["snapshots"] == 1
    assert _table_codes(SnapStore.open(store.root)._index("snapshots").table) == "IqqHBBBIHH"
    scanned = _full_scan(store.root, tmp_path)
    for reader in (handle, SnapStore.open(store.root)):
        assert _index_state(reader) == _index_state(scanned)
        assert _query_results(reader) == _query_results(scanned)


def test_state_with_a_number_past_64_bits_keeps_the_previous_sidecar(tmp_path, manifest):
    # the rejected line appends nothing, so the sidecar already covers the log
    store = SnapStore.create(tmp_path / "store", manifest)
    ingest_records(store, "snapshots", [make_snapshot()])
    sidecar = (store.root / "snapshots.idx").read_bytes()
    logs = {p.name: p.read_bytes() for p in store.root.glob("*.jsonl")}
    before = store.latest_states()
    later = make_snapshot(day=DAY0 + dt.timedelta(days=1))
    big = {**snapshot_to_record(later), "price_cents": 2**64, "free": False}
    report = store.ingest_lines("snapshots", [_canonical(big)])
    assert [r.reason for r in report.rejected] == ["price_cents past the signed 64-bit range"]
    assert report.accepted["snapshots"] == 0
    assert (store.root / "snapshots.idx").read_bytes() == sidecar
    assert {p.name: p.read_bytes() for p in store.root.glob("*.jsonl")} == logs
    assert store.latest_states() == before
    reopened = SnapStore.open(store.root)
    index = reopened._index("snapshots")
    assert index.sidecar_bytes == index.scanned_bytes == _log_sizes(store.root)["snapshots"]
    scanned = _full_scan(store.root, tmp_path)
    for reader in (store, reopened):
        assert _index_state(reader) == _index_state(scanned)
        assert _query_results(reader) == _query_results(scanned)
        assert reader.latest_states() == scanned.latest_states()


@pytest.mark.parametrize("field", ["price_cents", "downloads_hi", "rating_count"])
def test_state_with_a_number_past_64_bits_is_rejected_and_the_sidecar_covers_the_log(
    tmp_path, manifest, field
):
    # the state table keeps the state numbers in signed 64-bit columns
    store = SnapStore.create(tmp_path / "store", manifest)
    ingest_records(store, "snapshots", [make_snapshot()])
    later = snapshot_to_record(make_snapshot(day=DAY0 + dt.timedelta(days=1)))
    top, past = ({**later, **_at_64_bits(field, value)} for value in (2**63 - 1, 2**63))
    report = store.ingest_lines("snapshots", [_canonical(past), _canonical(top)])
    assert [r.reason for r in report.rejected] == [f"{field} past the signed 64-bit range"]
    assert report.accepted["snapshots"] == 1
    assert snapshot_to_record(store.latest_snapshots()[later["app"]])[field] == 2**63 - 1
    reopened = SnapStore.open(store.root)
    index = reopened._index("snapshots")
    assert index.sidecar_bytes == index.scanned_bytes == _log_sizes(store.root)["snapshots"]
    scanned = _full_scan(store.root, tmp_path)
    for reader in (store, reopened):
        assert _index_state(reader) == _index_state(scanned)
        assert _query_results(reader) == _query_results(scanned)
        assert reader.latest_states() == scanned.latest_states()


def _remove(path):
    path.unlink()


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _garble_body(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def _garble_header(path):
    path.write_bytes(b"\x00" * 8 + path.read_bytes()[8:])


@pytest.mark.parametrize(
    "damage", [_remove, _truncate, _garble_body, _garble_header], ids=lambda f: f.__name__
)
def test_damaged_sidecar_falls_back_to_full_scan(tmp_path, market, damage):
    root = tmp_path / "store"
    ingest_market(root, market)
    for kind in ("snapshots", "reviews", "topk"):
        damage(root / f"{kind}.idx")
    loaded = SnapStore.open(root)
    assert _sidecar_bytes(loaded) == {"snapshots": 0, "reviews": 0, "topk": 0}
    scanned = _full_scan(root, tmp_path)
    assert _index_state(loaded) == _index_state(scanned)
    assert _query_results(loaded) == _query_results(scanned)


def test_stale_sidecar_scans_only_the_tail(tmp_path, market):
    root = tmp_path / "store"
    ingest_market(root, market, days=5)
    old_sidecar = (root / "snapshots.idx").read_bytes()
    covered = (root / "snapshots.jsonl").stat().st_size
    ingest_records(SnapStore.open(root), "snapshots", market.snapshots)
    (root / "snapshots.idx").write_bytes(old_sidecar)
    loaded = SnapStore.open(root)
    assert loaded._index("snapshots").sidecar_bytes == covered
    assert loaded._index("snapshots").scanned_bytes > covered
    scanned = _full_scan(root, tmp_path)
    assert _index_state(loaded) == _index_state(scanned)
    assert _query_results(loaded) == _query_results(scanned)


def test_log_edited_in_place_fails_the_digest(tmp_path, market):
    root = tmp_path / "store"
    ingest_market(root, market)
    log = root / "snapshots.jsonl"
    data = log.read_bytes()
    at = data.index(b'"rating_count":') + len(b'"rating_count":')
    digit = data[at : at + 1]
    assert digit.isdigit()
    edited = data[:at] + (b"9" if digit != b"9" else b"8") + data[at + 1 :]
    log.write_bytes(edited)
    loaded = SnapStore.open(root)
    assert loaded._index("snapshots").sidecar_bytes == 0
    scanned = _full_scan(root, tmp_path)
    assert _index_state(loaded) == _index_state(scanned)
    assert _query_results(loaded) == _query_results(scanned)


def test_read_only_store_serves_every_query(tmp_path, market):
    root = tmp_path / "store"
    ingest_market(root, market, days=5)
    old_sidecar = (root / "snapshots.idx").read_bytes()
    ingest_records(SnapStore.open(root), "snapshots", market.snapshots)
    (root / "snapshots.idx").write_bytes(old_sidecar)
    expected = _query_results(_full_scan(root, tmp_path))
    before = {p.name: p.read_bytes() for p in root.iterdir()}
    paths = [root, *root.iterdir()]
    for path in paths:
        path.chmod(0o555 if path.is_dir() else 0o444)
    try:
        assert _query_results(SnapStore.open(root)) == expected
        assert {p.name: p.read_bytes() for p in root.iterdir()} == before
    finally:
        for path in paths:
            path.chmod(0o755 if path.is_dir() else 0o644)


_MPX1, _MPX2, _MPX3, _MPX4, _MPX5, _MPX6 = (
    0x4D505831, 0x4D505832, 0x4D505833, 0x4D505834, 0x4D505835, 0x4D505836
)


def _log_order_records(index):
    """(entity, time, offset, length, state key) of every line ``index``
    holds, in log order."""
    records = [
        ((group,) if index.kind != "reviews" else (group, tag), time, offset, length,
         tag if index.kind == "snapshots" else None)
        for group, time, offset, length, tag in _entity_rows(index)
    ]
    return sorted(records, key=lambda record: record[2])


def _json_state_table(states):
    """The state table of the layouts ``MPX2`` to ``MPX6`` for the state
    keys ``states``: compact JSON, {"permission_names": [name, ...],
    "permissions": [[name id, ...], ...], "states": [[price_cents,
    downloads_lo, downloads_hi, rating_count, version, category, permission
    set id, last_updated ordinal], ...]}."""
    name_ids, permission_ids = {}, {}
    rows = [
        [*key[:6], permission_ids.setdefault(key[6], len(permission_ids)), key[7]]
        for key in states
    ]
    permissions = [
        [name_ids.setdefault(n, len(name_ids)) for n in sorted(p)] for p in permission_ids
    ]
    return json.dumps(
        {"permission_names": list(name_ids), "permissions": permissions, "states": rows},
        separators=(",", ":"),
    ).encode("ascii")


def _earlier_layout_sidecar(kind, magic, log, records, skipped=0):
    """A sidecar of a layout before MPX4 over the whole of ``log`` that
    indexes ``records`` (as ``_log_order_records`` gives them), with a
    valid digest. Both layouts hold per record, in log order, the name id of
    the entity, the name id + 1 of its second part (0 when it has none), the
    time key and the line's offset and length (28 bytes), then the names.
    ``MPX1`` has a six-field header; ``MPX2`` and ``MPX3`` add the state
    table bytes to it, and snapshots add a state id per record and the
    state table."""
    names, states = {}, {}
    columns = [[], [], [], [], [], []]
    for entity, time, offset, length, state in records:
        columns[0].append(names.setdefault(entity[0], len(names)))
        columns[1].append(names.setdefault(entity[1], len(names)) + 1 if len(entity) > 1 else 0)
        columns[2].append(time)
        columns[3].append(offset)
        columns[4].append(length)
        columns[5].append(states.setdefault(state, len(states)))
    with_states = kind == "snapshots" and magic != _MPX1
    table = _json_state_table(states) if with_states else b""
    codes = "IIqQII" if with_states else "IIqQI"
    body = b"".join(array(code, column).tobytes() for code, column in zip(codes, columns))
    body += table + b"".join(name.encode() + b"\xff" for name in names)
    sha = hashlib.sha1(log.read_bytes())
    sha.update(body)
    fields = (magic, log.stat().st_size, sha.digest(), len(records), len(names), skipped)
    if magic == _MPX1:
        return struct.pack("=IQ20sQQQ", *fields) + body
    return struct.pack("=IQ20sQQQQ", *fields, len(table)) + body


def _json_table_sidecar(index, magic=_MPX6, order=None):
    """The sidecar the ``MPX4``, ``MPX5`` or ``MPX6`` code wrote for
    ``index``, with a valid digest (it does not cover the header): the
    layout of ``MPX7`` with the state table in JSON, each entity's entries
    in key order or, given ``order``, sorted by it."""
    rows = [sorted(r, key=order) if order else list(r) for r in index.rows.values()]
    flat = [r for group in rows for r in group]
    columns = zip(
        store_mod._ENTRY_CODES[index.kind], (index.times, index.offsets, index.lengths, index.tags)
    )
    names = list(index.rows) + (index.table.keys() if index.kind == "reviews" else [])
    table = _json_state_table(index.table.keys()) if index.kind == "snapshots" else b""
    body = (
        array("I", map(len, rows)).tobytes()
        + b"".join(array(code, [column[r] for r in flat]).tobytes() for code, column in columns)
        + table
        + b"".join(name.encode("utf-8", "surrogatepass") + b"\xff" for name in names)
    )
    sha = index.digest.copy()
    sha.update(body)
    header = struct.pack(
        "=IQ20sQQQQ", magic, index.scanned_bytes, sha.digest(), len(flat), len(rows),
        index.skipped_corrupt, len(table),
    )
    return header + body


def _reordered_sidecar(index, magic):
    """The sidecar the ``MPX4`` or ``MPX5`` code wrote for ``index``, with
    each entity's entries in log order (``MPX4``) or in (time, offset)
    order (``MPX5``) rather than key order."""
    def order(r):
        return index.offsets[r] if magic == _MPX4 else (index.times[r], index.offsets[r])

    return _json_table_sidecar(index, magic, order)


def _assert_reingest_appends_nothing(root):
    """Every committed line, ingested once more through one new handle,
    is deduplicated; the logs keep their bytes and the sidecar of every
    log with a line takes the current layout."""
    store, logs = SnapStore.open(root), {p.name: p.read_bytes() for p in root.glob("*.jsonl")}
    for kind in ("snapshots", "reviews", "topk"):
        lines = logs[f"{kind}.jsonl"].splitlines(keepends=True)
        report = store.ingest_lines(kind, lines)
        assert (report.accepted[kind], report.deduplicated[kind], report.rejected) == (
            0, len(lines), []
        )
        if lines:
            current = struct.unpack_from("=I", (root / f"{kind}.idx").read_bytes())[0]
            assert current == store_mod._SIDECAR_MAGIC == 0x4D505837
    assert {p.name: p.read_bytes() for p in root.glob("*.jsonl")} == logs


def test_previous_format_sidecar_is_ignored_then_replaced(tmp_path, market):
    root = tmp_path / "store"
    ingest_market(root, market)
    scanned = _full_scan(root, tmp_path)
    for magic in (_MPX1, _MPX3, _MPX4, _MPX5):
        for kind in ("snapshots", "reviews", "topk"):
            index = SnapStore.open(root)._index(kind)
            records = _log_order_records(index)
            old = _reordered_sidecar(index, magic) if magic >= _MPX4 else _earlier_layout_sidecar(
                kind, magic, root / f"{kind}.jsonl", records, index.skipped_corrupt
            )
            (root / f"{kind}.idx").write_bytes(old)
        loaded = SnapStore.open(root)
        assert _sidecar_bytes(loaded) == {"snapshots": 0, "reviews": 0, "topk": 0}
        assert _index_state(loaded) == _index_state(scanned)
        assert _query_results(loaded) == _query_results(scanned)
        # a re-ingest through a handle over the old sidecar finds every
        # line and writes the current layout
        _assert_reingest_appends_nothing(root)
        reopened = SnapStore.open(root)
        assert _sidecar_bytes(reopened) == _log_sizes(root)
        assert _index_state(reopened) == _index_state(scanned)


def test_sidecar_of_the_mpx6_layout_is_ignored_and_the_log_scanned(tmp_path, market):
    # MPX6 held the state table as JSON; its sidecars are ignored, then
    # replaced by the next ingest
    root = tmp_path / "store"
    ingest_market(root, market)
    scanned = _full_scan(root, tmp_path)
    for kind in ("snapshots", "reviews", "topk"):
        (root / f"{kind}.idx").write_bytes(_json_table_sidecar(scanned._index(kind)))
    loaded = SnapStore.open(root)
    assert _sidecar_bytes(loaded) == {"snapshots": 0, "reviews": 0, "topk": 0}
    assert _index_state(loaded) == _index_state(scanned)
    assert _query_results(loaded) == _query_results(scanned)
    _assert_reingest_appends_nothing(root)
    reopened = SnapStore.open(root)
    assert _sidecar_bytes(reopened) == _log_sizes(root)
    assert _index_state(reopened) == _index_state(scanned)


def _out_of_order_store(root, manifest):
    """A store whose logs hold, for one app, a snapshot and a review that
    were appended after newer ones, a review logged after the ones of its
    date whose ids sort after its own, and the sidecars written before the
    out-of-order snapshot and review."""
    store = SnapStore.create(root, manifest)
    def snapshot(day):
        return make_snapshot(day=DAY0 + dt.timedelta(days=day))

    def review(review_id, day):
        return make_review(review_id=review_id, day=DAY0 + dt.timedelta(days=day))

    ingest_records(store, "snapshots", [snapshot(0), snapshot(2)])
    ingest_records(store, "reviews", [review("r1", 5), review("r2", 5), review("r0", 5)])
    sidecars = {kind: (root / f"{kind}.idx").read_bytes() for kind in ("snapshots", "reviews")}
    # an older fetch_time and an earlier review date, appended later; then
    # one more review on each date
    ingest_records(store, "snapshots", [snapshot(1)])
    ingest_records(store, "reviews", [review("r0", 3), review("r3", 3), review("r4", 5)])
    return store, sidecars


def test_lines_appended_out_of_time_order_are_read_in_time_order(tmp_path, manifest):
    root = tmp_path / "store"
    store, old_sidecars = _out_of_order_store(root, manifest)
    app = "com.example.app"
    times = tuple(make_snapshot(day=DAY0 + dt.timedelta(days=d)).fetch_time for d in range(3))
    loaded, scanned = SnapStore.open(root), _full_scan(root, tmp_path)
    assert _sidecar_bytes(loaded) == _log_sizes(root)
    for handle in (store, loaded, scanned):
        assert _index_state(handle) == _index_state(scanned)
        assert _query_results(handle) == _query_results(scanned)
        assert handle.app_states(app).times == times
        assert tuple(s.fetch_time for s in handle.query_app_series(app).snapshots) == times
        # the newest snapshot is the latest fetch_time, not the last line
        assert handle.latest_snapshots()[app].fetch_time == times[-1]
        expected = ["r0", "r3", "r0", "r1", "r2", "r4"]
        assert [r.review_id for r in handle.query_reviews(app)] == expected
        # rows in key order: reviews of one date in review id order
        rows = _entity_rows(handle._index("reviews"))
        assert [row[4] for row in rows] == expected
    # a sidecar from before the out-of-order lines: the tail scan places them
    for kind, sidecar in old_sidecars.items():
        (root / f"{kind}.idx").write_bytes(sidecar)
    tail = SnapStore.open(root)
    for kind in old_sidecars:
        index = tail._index(kind)
        assert 0 < index.sidecar_bytes < index.scanned_bytes == _log_sizes(root)[kind]
    assert _index_state(tail) == _index_state(scanned)
    assert _query_results(tail) == _query_results(scanned)
    # the sidecars the MPX4 and MPX5 code wrote kept the lines in log
    # order and in (time, offset) order: ignored, or a re-ingest of the
    # review r0 of the last date would miss its stored copy
    for magic in (_MPX4, _MPX5):
        for kind in ("snapshots", "reviews"):
            (root / f"{kind}.idx").write_bytes(_reordered_sidecar(scanned._index(kind), magic))
        ignored = SnapStore.open(root)
        assert _sidecar_bytes(ignored) == {"snapshots": 0, "reviews": 0, "topk": 0}
        assert _index_state(ignored) == _index_state(scanned)
        assert _query_results(ignored) == _query_results(scanned)
        _assert_reingest_appends_nothing(root)
    _assert_rebuilt_on_next_ingest(store, tmp_path)


# Canonical lines of few enough keys that draws repeat them: a snapshot's
# price and a review's rating change its line but not its key, so a repeat
# is a duplicate or a conflict. Days drawn at random append older fetch
# times and dates after newer ones, and review ids of one date in any order.
_APPS = st.sampled_from(["com.a", "com.b"])
_SEQUENCE_LINES = {
    "snapshots": st.builds(
        lambda app, day, price: _canonical(
            snapshot_to_record(
                make_snapshot(
                    app=app, day=DAY0 + dt.timedelta(days=day), price_cents=price, free=price == 0
                )
            )
        ),
        _APPS,
        st.integers(0, 3),
        st.sampled_from([0, 99]),
    ),
    "reviews": st.builds(
        lambda app, review_id, day, rating: _canonical(
            review_to_record(
                make_review(
                    app=app, review_id=review_id, day=DAY0 + dt.timedelta(days=day), rating=rating
                )
            )
        ),
        _APPS,
        st.sampled_from(["r0", "r1", "r10", "r2"]),
        st.integers(0, 2),
        st.sampled_from([1, 5]),
    ),
}


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.sampled_from(["snapshots", "reviews"]).flatmap(
            lambda kind: st.tuples(st.just(kind), st.lists(_SEQUENCE_LINES[kind], max_size=8))
        ),
        min_size=1,
        max_size=5,
    )
)
def test_ingest_sequence_matches_a_dict_model_and_a_full_scan(batches):
    manifest = DatasetManifest(
        name="t", currency="USD", observation_start=DAY0, observation_end=DAY0
    )
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        SnapStore.create(root, manifest)
        logs = {"snapshots": [], "reviews": []}
        # each batch through a new handle, which loads the sidecar the last wrote
        for kind, lines in batches:
            expected = _reference_ingest(kind, logs[kind], lines)
            handle = SnapStore.open(root)
            report = handle.ingest_lines(kind, lines)
            after = (root / f"{kind}.jsonl").read_text(encoding="utf-8")
            assert (report.to_record(), report.skipped_corrupt[kind], after) == expected
            logs[kind] = after.splitlines(keepends=True)
            scanned = _full_scan(root, Path(tmp))
            for reader in (handle, SnapStore.open(root)):
                assert _index_state(reader) == _index_state(scanned)
                assert _query_results(reader) == _query_results(scanned)


# Canonical lines for ``find``: snapshots of two apps on seven days, and
# reviews of two apps with 31 ids on two dates, so that one date holds many
# reviews of one app. Draws repeat keys, and days and ids come in any order.
_FIND_LINES = {
    "snapshots": st.builds(
        lambda app, day: _canonical(
            snapshot_to_record(make_snapshot(app=app, day=DAY0 + dt.timedelta(days=day)))
        ),
        _APPS,
        st.integers(0, 6),
    ),
    "reviews": st.builds(
        lambda app, n, day: _canonical(
            review_to_record(
                make_review(app=app, review_id=f"r{n}", day=DAY0 + dt.timedelta(days=day))
            )
        ),
        _APPS,
        st.integers(0, 30),
        st.integers(0, 1),
    ),
}


def _find_probes(kind):
    """Every key a line of ``_FIND_LINES[kind]`` can have, and keys next to
    them that none has: another app, times just off, ids before, between
    and after the drawn ones, dates before and after."""
    apps = ["com.a", "com.b", "com.c"]
    if kind == "snapshots":
        times = [make_snapshot(day=DAY0 + dt.timedelta(days=d)).fetch_time for d in range(7)]
        times += [times[0] - 1] + [t + 1 for t in times]
        return [((app,), t) for app in apps for t in times]
    dates = [date_to_epoch(DAY0 + dt.timedelta(days=d)) for d in range(-1, 3)]
    ids = [f"r{n}" for n in range(31)] + ["r", "r00", "r99", "s"]
    return [((app, i), t) for app in apps for i in ids for t in dates]


def _assert_find_matches(store, kind, model):
    """``find`` gives, for every probe key, the row of the line ``model``
    holds under it, or None when it holds none."""
    index = store._index(kind)
    log = (store.root / f"{kind}.jsonl").read_bytes()
    for key in _find_probes(kind):
        row = index.find(key)
        if key not in model:
            assert row is None
            continue
        assert row is not None
        assert log[index.offsets[row]:index.offsets[row] + index.lengths[row]] == model[key]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["snapshots", "reviews"]).flatmap(
        lambda kind: st.tuples(
            st.just(kind),
            st.lists(st.lists(_FIND_LINES[kind], max_size=40), min_size=1, max_size=4),
        )
    )
)
def test_find_matches_a_dict_model_over_sidecar_and_appended_rows(case):
    kind, batches = case
    manifest = DatasetManifest(
        name="t", currency="USD", observation_start=DAY0, observation_end=DAY0
    )
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        SnapStore.create(root, manifest)
        # (entity, time) -> the line stored under it: the first of its key
        model = {}
        for lines in batches:
            # a new handle holds the rows of the sidecar as ranges
            handle = SnapStore.open(root)
            assert all(type(rows) is range for rows in handle._index(kind).rows.values())
            _assert_find_matches(handle, kind, model)
            handle.ingest_lines(kind, lines)
            keys = [_reference_key(kind, line) for line in lines]
            # the entities the batch added a line to hold lists
            appended = {key[0][0] for key in keys if key not in model}
            for key, line in zip(keys, lines):
                model.setdefault(key, (line + "\n").encode())
            rows = handle._index(kind).rows
            assert all(type(rows[entity]) is list for entity in appended)
            _assert_find_matches(handle, kind, model)


_COMPARISONS = [0]


def _counted(base):
    """A subclass of ``base`` whose every comparison adds one to
    ``_COMPARISONS``; it takes part in comparisons with plain ``base``
    values on either side, since Python tries a subclass's reflected
    method first."""
    def compare(name):
        method = getattr(base, name)

        def counted(self, other):
            _COMPARISONS[0] += 1
            return method(self, other)

        return counted

    names = ("__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__")
    methods = {name: compare(name) for name in names}
    return type(f"Counted{base.__name__}", (base,), {**methods, "__hash__": base.__hash__})


_CountedInt, _CountedStr = _counted(int), _counted(str)


def test_find_among_many_same_day_reviews_of_one_app_makes_about_2_log2_n_comparisons(
    tmp_path, manifest
):
    n = 5000
    ids = [f"r{i:04d}" for i in range(n)]
    random.Random(3).shuffle(ids)
    root = tmp_path / "store"
    SnapStore.create(root, manifest).ingest_lines(
        "reviews", [_canonical(review_to_record(make_review(review_id=i))) for i in ids]
    )
    app, day = "com.example.app", date_to_epoch(DAY0)
    later = ("r", "r2500a", "r5000")
    bound = 2 * math.ceil(math.log2(n + len(later))) + 3
    handle = SnapStore.open(root)
    for kind_of_rows in (range, list):
        index = handle._index("reviews")
        assert type(index.rows[app]) is kind_of_rows
        for review_id in ("r0000", "r1234", "r2500", "r4999", "r", "r2500a", "r5000"):
            _COMPARISONS[0] = 0
            row = index.find(((app, _CountedStr(review_id)), _CountedInt(day)))
            assert math.log2(n) <= _COMPARISONS[0] <= bound
            if kind_of_rows is range and review_id in later:
                assert row is None
            else:
                assert row is not None and index.table.keys()[index.tags[row]] == review_id
        # more reviews of the date turn the app's rows into a list
        handle.ingest_lines(
            "reviews", [_canonical(review_to_record(make_review(review_id=i))) for i in later]
        )


def _hand_written_snapshot_log(store, snapshots):
    """Write ``snapshots`` as canonical lines to the snapshot log of
    ``store`` and return, per line, its (entity, time, offset, length,
    state key)."""
    lines = [_canonical(snapshot_to_record(snap)) + "\n" for snap in snapshots]
    (store.root / "snapshots.jsonl").write_text("".join(lines))
    offsets = itertools.accumulate(map(len, lines[:-1]), initial=0)
    return [
        ((snap.app,), snap.fetch_time, offset, len(line), snapshot_state_key(snap))
        for snap, line, offset in zip(snapshots, lines, offsets)
    ]


def _assert_rebuilt_on_next_ingest(store, tmp_path):
    log = store.root / "snapshots.jsonl"
    SnapStore.open(store.root).ingest_lines("snapshots", [])
    sidecar = (store.root / "snapshots.idx").read_bytes()
    assert struct.unpack_from("=I", sidecar)[0] == store_mod._SIDECAR_MAGIC
    loaded = SnapStore.open(store.root)
    assert _sidecar_bytes(loaded)["snapshots"] == log.stat().st_size
    assert _index_state(loaded) == _index_state(_full_scan(store.root, tmp_path))


def test_sidecar_of_the_previous_magic_over_a_duplicate_key_is_rebuilt(tmp_path, manifest):
    # a log with two lines for one (app, fetch_time), and the sidecar the
    # MPX2 code wrote over it, which indexed both lines
    store = SnapStore.create(tmp_path / "store", manifest)
    snapshots = [make_snapshot(price_cents=price) for price in (99, 199)]
    records = _hand_written_snapshot_log(store, snapshots)
    log = store.root / "snapshots.jsonl"
    (store.root / "snapshots.idx").write_bytes(
        _earlier_layout_sidecar("snapshots", _MPX2, log, records)
    )
    reopened = SnapStore.open(store.root)
    series = reopened.query_app_series("com.example.app")
    assert [s.price_cents for s in series.snapshots] == [99]
    assert reopened._index("snapshots").sidecar_bytes == 0
    _assert_rebuilt_on_next_ingest(store, tmp_path)


def test_sidecar_of_the_previous_magic_over_a_rejected_line_is_rebuilt(tmp_path, manifest):
    # the MPX3 code indexed a committed line the codec rejects; the index
    # of today skips it
    store = SnapStore.create(tmp_path / "store", manifest)
    valid = make_snapshot(day=DAY0)
    rejected = make_snapshot(day=DAY0 + dt.timedelta(days=1), price_cents=-5, free=False)
    records = _hand_written_snapshot_log(store, [valid, rejected])
    log = store.root / "snapshots.jsonl"
    (store.root / "snapshots.idx").write_bytes(
        _earlier_layout_sidecar("snapshots", _MPX3, log, records)
    )
    reopened = SnapStore.open(store.root)
    series = reopened.query_app_series("com.example.app")
    assert series.snapshots == (valid,)
    assert len(reopened.app_states("com.example.app").states) == 1
    index = reopened._index("snapshots")
    assert (index.sidecar_bytes, index.skipped_corrupt) == (0, 1)
    _assert_rebuilt_on_next_ingest(store, tmp_path)


@pytest.mark.parametrize(
    "kind, field",
    [
        ("snapshots", "fetch_time"),
        ("snapshots", "price_cents"),
        ("snapshots", "downloads_hi"),
        ("snapshots", "rating_count"),
        ("topk", "fetch_time"),
    ],
)
def test_committed_fetch_time_beyond_64_bits_is_skipped_and_the_sidecar_covers_the_log(
    tmp_path, manifest, kind, field
):
    # the sidecar keeps fetch times, and the state numbers of its state
    # table, in signed 64-bit columns
    store = SnapStore.create(tmp_path / "store", manifest)
    rec = _SNAPSHOT if kind == "snapshots" else _TOPK
    if field == "fetch_time":
        # the first hour past the range
        past = {"fetch_time": (2**63 // 3600 + 1) * 3600}
        reason = "fetch_time outside the signed 64-bit range"
    else:
        past = _at_64_bits(field, 2**63)
        reason = f"{field} past the signed 64-bit range"
    too_far = _canonical({**rec, **past})
    report = store.ingest_lines(kind, [too_far])
    assert [r.reason for r in report.rejected] == [reason]
    log = store.root / f"{kind}.jsonl"
    log.write_text(_canonical(rec) + "\n" + too_far + "\n")
    reopened = SnapStore.open(store.root)
    index = reopened._index(kind)
    assert (index.sidecar_bytes, index.skipped_corrupt) == (0, 1)
    assert len(index.times) == 1
    other = {**rec, "fetch_time": rec["fetch_time"] + 3600}
    assert reopened.ingest_lines(kind, [_canonical(other)]).accepted[kind] == 1
    covered = SnapStore.open(store.root)._index(kind)
    assert covered.sidecar_bytes == log.stat().st_size
    assert (len(covered.times), covered.skipped_corrupt) == (2, 1)


def test_create_fsyncs_the_logs_the_manifest_and_the_directory(tmp_path, manifest, monkeypatch):
    synced = []
    fsync = os.fsync

    def recording_fsync(fd):
        synced.append(os.fstat(fd).st_ino)
        fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    root = tmp_path / "store"
    SnapStore.create(root, manifest)
    assert sorted(synced) == sorted(p.stat().st_ino for p in [root, *root.iterdir()])


class _Crash(BaseException):
    """Stands in for the process dying: no handler runs."""


@pytest.mark.parametrize("failure", [OSError, _Crash])
def test_failed_manifest_write_leaves_no_manifest(tmp_path, manifest, monkeypatch, failure):
    write_text = Path.write_text
    written = []

    def torn_write(path, data, *args, **kwargs):
        written.append(path.name)
        write_text(path, data[: len(data) // 2], *args, **kwargs)
        raise failure(errno.ENOSPC, "injected: no space left on device")

    monkeypatch.setattr(Path, "write_text", torn_write)
    root = tmp_path / "store"
    with pytest.raises(failure, match="injected"):
        SnapStore.create(root, manifest)
    assert "manifest.json" not in written
    logs = ["reviews.jsonl", "snapshots.jsonl", "topk.jsonl"]
    # an OSError removes the temp file; after a crash it may stay behind
    left = sorted(p.name for p in root.iterdir())
    assert left == logs if failure is OSError else sorted(logs + written)
    with pytest.raises(FileNotFoundError):
        SnapStore.open(root)
    # a retry creates the store over the logs
    monkeypatch.setattr(Path, "write_text", write_text)
    store = SnapStore.create(root, manifest)
    assert SnapStore.open(root).manifest == store.manifest == manifest
    assert sorted(p.name for p in root.iterdir()) == ["manifest.json"] + logs
