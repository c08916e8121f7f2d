"""Ingest micro-benchmarks, kept out of the default test run.

pytest collects ``test_*.py`` only, so run this file by name:

    PYTHONPATH=src python -m pytest tests/bench_ingest.py --benchmark-only

Every case but two ingests bytes lines through the ``ingest_lines``
helper of ``conftest``, which joins them into a file in memory and ingests
it as ``ingest_dir`` ingests a data file; the two others call
``ingest_dir`` itself. Two cases ingest the same 10k canonical snapshot lines,
as a simulated dataset holds them: once more into a store that already
has every one of them (all deduplicated), and into an empty store (all
accepted). A third re-ingests those lines in shuffled order, so that no
line meets its committed copy in log order and each one is admitted and
then looked up. A fourth re-ingests the reviews of a simulated dataset
into a store that has them all, and a fifth loads 10k canonical review
lines into an empty store. A sixth ingests 10k new canonical snapshot
lines into a store that holds the 60k before them, the shape of a daily
crawl's ingest, where each line pays its admission and then the lookup of
its key. A seventh ingests a simulated dataset of all three record kinds
into an empty store. An eighth loads the 1,440 top-k lists of that
dataset into an empty store, and a ninth ingests them once more into a
store that has them all.
Two more open a store of those 10k snapshots and list its apps, once from
the index sidecar and once by a full scan of the log, with no sidecar.
Two more load 20k reviews of one app on one day, their ids in shuffled
order, into an empty store and once more into a store that has them all:
each line goes to its review id place among the app's rows.
Five more take a week of a 10k-app market, the shape of a daily crawl
merged into its history, where most states and permission sets are
distinct: one re-ingests all its snapshots through a new handle each round,
so that the sidecar load is timed with the lookups; one does the same
through ``ingest_dir`` from a file that repeats the log, which it passes a
block of lines at a time; one does the same from that file with a blank
line inserted as its second line, so that every line after it is admitted
and looked up; one ingests the last day into a store of the six days
before it; and one ingests the whole week from one file into a store of
those six days, which passes them as a prefix of the log and admits the
last day. One more reads the states of every app of that week
(``app_states``) from a store opened from its sidecar, the read that pays
for each entity's rows being one array of row numbers. A last one opens
that store and reads the newest state of every app (``latest_states``):
the sidecar load, with its checks, and the build of the state table.
"""

import itertools
import random
import shutil

import pytest

from marketpulse import simgen
from marketpulse.model import ListType, canonical_json
from marketpulse.simgen import TopKListConfig
from marketpulse.store import KINDS, DatasetManifest, SnapStore

from conftest import (
    DAY0,
    generate,
    ingest_lines,
    make_review,
    review_to_record,
    snapshot_to_record,
)

N_LINES = 10_000


@pytest.fixture(scope="module")
def market():
    return generate(
        simgen.MarketScript(seed=5, n_developers=300, observation_days=30)
    )


@pytest.fixture(scope="module")
def lines(market):
    assert len(market.snapshots) >= N_LINES
    return [
        (canonical_json(snapshot_to_record(s)) + "\n").encode()
        for s in market.snapshots[:N_LINES]
    ]


def test_reingest_of_stored_lines(benchmark, tmp_path, market, lines):
    root = tmp_path / "store"
    ingest_lines(SnapStore.create(root, market.manifest), "snapshots", lines)

    def reingest():
        return ingest_lines(SnapStore.open(root), "snapshots", lines)

    report = benchmark(reingest)
    assert report.deduplicated["snapshots"] == N_LINES
    assert report.accepted["snapshots"] == report.total_rejected == 0


def test_reingest_of_stored_lines_in_shuffled_order(benchmark, tmp_path, market, lines):
    root = tmp_path / "store"
    ingest_lines(SnapStore.create(root, market.manifest), "snapshots", lines)
    shuffled = list(lines)
    random.Random(5).shuffle(shuffled)

    def reingest():
        return ingest_lines(SnapStore.open(root), "snapshots", shuffled)

    report = benchmark(reingest)
    assert report.deduplicated["snapshots"] == N_LINES
    assert report.accepted["snapshots"] == report.total_rejected == 0


def test_bulk_ingest_into_empty_store(benchmark, tmp_path, market, lines):
    fresh = itertools.count()

    def empty_store():
        return (SnapStore.create(tmp_path / f"store{next(fresh)}", market.manifest),), {}

    def ingest(store):
        return ingest_lines(store, "snapshots", lines)

    report = benchmark.pedantic(ingest, setup=empty_store, rounds=5)
    assert report.accepted["snapshots"] == N_LINES
    assert report.deduplicated["snapshots"] == report.total_rejected == 0


@pytest.fixture(scope="module")
def large_market():
    """A simulated market of at least 70k snapshots and 10k reviews."""
    market = generate(
        simgen.MarketScript(seed=5, n_developers=1_500, observation_days=30)
    )
    assert len(market.snapshots) >= 7 * N_LINES and len(market.reviews) >= N_LINES
    return market


def test_bulk_ingest_of_reviews_into_empty_store(benchmark, tmp_path, large_market):
    reviews = [
        (canonical_json(review_to_record(r)) + "\n").encode()
        for r in large_market.reviews[:N_LINES]
    ]
    fresh = itertools.count()

    def empty_store():
        return (SnapStore.create(tmp_path / f"store{next(fresh)}", large_market.manifest),), {}

    def ingest(store):
        return ingest_lines(store, "reviews", reviews)

    report = benchmark.pedantic(ingest, setup=empty_store, rounds=5)
    assert report.accepted["reviews"] == N_LINES
    assert report.deduplicated["reviews"] == report.total_rejected == 0


def test_ingest_of_new_snapshots_into_a_populated_store(benchmark, tmp_path, large_market):
    lines = [
        (canonical_json(snapshot_to_record(s)) + "\n").encode()
        for s in large_market.snapshots[: 7 * N_LINES]
    ]
    template = tmp_path / "template"
    ingest_lines(SnapStore.create(template, large_market.manifest), "snapshots", lines[:-N_LINES])
    fresh = itertools.count()

    def populated_store():
        root = tmp_path / f"store{next(fresh)}"
        shutil.copytree(template, root)
        return (SnapStore.open(root),), {}

    def ingest(store):
        return ingest_lines(store, "snapshots", lines[-N_LINES:])

    report = benchmark.pedantic(ingest, setup=populated_store, rounds=5)
    assert report.accepted["snapshots"] == N_LINES
    assert report.deduplicated["snapshots"] == report.total_rejected == 0


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    data = tmp_path_factory.mktemp("data")
    simgen.write_dataset(
        simgen.MarketScript(
            seed=5,
            n_developers=300,
            observation_days=30,
            topk_lists={
                ListType.FREE: TopKListConfig(length=100),
                ListType.PAID: TopKListConfig(length=100),
            },
        ),
        data,
    )
    return data


def test_reingest_of_stored_reviews(benchmark, tmp_path, market, dataset):
    reviews = (dataset / "reviews.jsonl").read_bytes().splitlines(keepends=True)
    root = tmp_path / "store"
    ingest_lines(SnapStore.create(root, market.manifest), "reviews", reviews)

    def reingest():
        return ingest_lines(SnapStore.open(root), "reviews", reviews)

    report = benchmark(reingest)
    assert report.deduplicated["reviews"] == len(reviews) > 0
    assert report.accepted["reviews"] == report.total_rejected == 0


def test_ingest_dir_of_three_kinds_into_empty_store(benchmark, tmp_path, market, dataset):
    fresh = itertools.count()

    def empty_store():
        return (SnapStore.create(tmp_path / f"store{next(fresh)}", market.manifest),), {}

    def ingest(store):
        return store.ingest_dir(dataset)

    report = benchmark.pedantic(ingest, setup=empty_store, rounds=5)
    for kind in KINDS:
        lines = (dataset / f"{kind}.jsonl").read_text().splitlines()
        assert report.accepted[kind] == len(lines) > 0
    assert sum(report.deduplicated.values()) == report.total_rejected == 0


def test_bulk_ingest_of_topk_lists_into_empty_store(benchmark, tmp_path, market, dataset):
    topk = (dataset / "topk.jsonl").read_bytes().splitlines(keepends=True)
    fresh = itertools.count()

    def empty_store():
        return (SnapStore.create(tmp_path / f"store{next(fresh)}", market.manifest),), {}

    def ingest(store):
        return ingest_lines(store, "topk", topk)

    report = benchmark.pedantic(ingest, setup=empty_store, rounds=5)
    assert report.accepted["topk"] == len(topk) > 0
    assert report.deduplicated["topk"] == report.total_rejected == 0


def test_reingest_of_stored_topk_lists(benchmark, tmp_path, market, dataset):
    topk = (dataset / "topk.jsonl").read_bytes().splitlines(keepends=True)
    root = tmp_path / "store"
    ingest_lines(SnapStore.create(root, market.manifest), "topk", topk)

    def reingest():
        return ingest_lines(SnapStore.open(root), "topk", topk)

    report = benchmark(reingest)
    assert report.deduplicated["topk"] == len(topk) > 0
    assert report.accepted["topk"] == report.total_rejected == 0


@pytest.fixture(scope="module")
def snapshot_store(tmp_path_factory, market, lines):
    root = tmp_path_factory.mktemp("snapshots") / "store"
    ingest_lines(SnapStore.create(root, market.manifest), "snapshots", lines)
    return root


def _open_and_list_apps(root):
    return SnapStore.open(root).apps()


def test_open_and_list_apps_from_the_sidecar(benchmark, snapshot_store):
    assert (snapshot_store / "snapshots.idx").exists()
    apps = benchmark(_open_and_list_apps, snapshot_store)
    assert SnapStore.open(snapshot_store)._index("snapshots").sidecar_bytes > 0
    assert len(apps) > 0


def test_open_and_list_apps_by_a_full_scan(benchmark, tmp_path, snapshot_store):
    root = tmp_path / "store"
    shutil.copytree(snapshot_store, root)
    for path in root.glob("*.idx"):
        path.unlink()
    apps = benchmark(_open_and_list_apps, root)
    assert not list(root.glob("*.idx"))
    assert apps == _open_and_list_apps(snapshot_store)


N_SAME_DAY = 20_000


@pytest.fixture(scope="module")
def same_day_reviews():
    ids = [f"r{i}" for i in range(N_SAME_DAY)]
    random.Random(5).shuffle(ids)
    return [
        (canonical_json(review_to_record(make_review(review_id=i))) + "\n").encode() for i in ids
    ]


def _one_day_manifest():
    return DatasetManifest(
        name="same-day", currency="USD", observation_start=DAY0, observation_end=DAY0
    )


def test_bulk_ingest_of_same_day_reviews_in_shuffled_id_order(
    benchmark, tmp_path, same_day_reviews
):
    fresh = itertools.count()

    def empty_store():
        return (SnapStore.create(tmp_path / f"store{next(fresh)}", _one_day_manifest()),), {}

    def ingest(store):
        return ingest_lines(store, "reviews", same_day_reviews)

    report = benchmark.pedantic(ingest, setup=empty_store, rounds=5)
    assert report.accepted["reviews"] == N_SAME_DAY
    assert report.deduplicated["reviews"] == report.total_rejected == 0


def test_reingest_of_same_day_reviews_in_shuffled_id_order(benchmark, tmp_path, same_day_reviews):
    root = tmp_path / "store"
    ingest_lines(SnapStore.create(root, _one_day_manifest()), "reviews", same_day_reviews)

    def reingest():
        return ingest_lines(SnapStore.open(root), "reviews", same_day_reviews)

    report = benchmark(reingest)
    assert report.deduplicated["reviews"] == N_SAME_DAY
    assert report.accepted["reviews"] == report.total_rejected == 0


@pytest.fixture(scope="module")
def crawl_week():
    """The snapshot lines of a week of a 10k-app market, and the time
    before which the first six days lie."""
    market = generate(simgen.MarketScript(seed=7, n_developers=6_000, observation_days=7))
    assert len({s.app for s in market.snapshots}) >= N_LINES
    last_day = max(s.fetch_time for s in market.snapshots) // 86400 * 86400
    lines = [(canonical_json(snapshot_to_record(s)) + "\n").encode() for s in market.snapshots]
    return market.manifest, lines, [s.fetch_time < last_day for s in market.snapshots]


def test_reingest_of_a_week_of_a_10k_app_market_through_a_new_handle(
    benchmark, tmp_path, crawl_week
):
    manifest, lines, _ = crawl_week
    root = tmp_path / "store"
    ingest_lines(SnapStore.create(root, manifest), "snapshots", lines)

    def reingest():
        return ingest_lines(SnapStore.open(root), "snapshots", lines)

    report = benchmark.pedantic(reingest, rounds=7)
    assert report.deduplicated["snapshots"] == len(lines)
    assert report.accepted["snapshots"] == report.total_rejected == 0


def test_reingest_of_a_week_of_a_10k_app_market_from_a_file(benchmark, tmp_path, crawl_week):
    manifest, lines, _ = crawl_week
    root = tmp_path / "store"
    ingest_lines(SnapStore.create(root, manifest), "snapshots", lines)
    data = tmp_path / "data"
    data.mkdir()
    (data / "snapshots.jsonl").write_bytes(b"".join(lines))

    def reingest():
        return SnapStore.open(root).ingest_dir(data)

    report = benchmark.pedantic(reingest, rounds=7)
    assert report.deduplicated["snapshots"] == len(lines)
    assert report.accepted["snapshots"] == report.total_rejected == 0


def test_reingest_of_a_week_with_a_blank_second_line_from_a_file(benchmark, tmp_path, crawl_week):
    manifest, lines, _ = crawl_week
    root = tmp_path / "store"
    ingest_lines(SnapStore.create(root, manifest), "snapshots", lines)
    data = tmp_path / "data"
    data.mkdir()
    (data / "snapshots.jsonl").write_bytes(b"".join([lines[0], b"\n", *lines[1:]]))

    def reingest():
        return SnapStore.open(root).ingest_dir(data)

    report = benchmark.pedantic(reingest, rounds=7)
    assert report.deduplicated["snapshots"] == len(lines)
    assert report.accepted["snapshots"] == report.total_rejected == 0


def test_ingest_of_a_week_into_a_store_of_its_first_six_days_from_a_file(
    benchmark, tmp_path, crawl_week
):
    manifest, lines, before_last_day = crawl_week
    days = [line for line, before in zip(lines, before_last_day) if before]
    assert lines[: len(days)] == days
    template = tmp_path / "template"
    ingest_lines(SnapStore.create(template, manifest), "snapshots", days)
    data = tmp_path / "data"
    data.mkdir()
    (data / "snapshots.jsonl").write_bytes(b"".join(lines))
    fresh = itertools.count()

    def populated_store():
        root = tmp_path / f"store{next(fresh)}"
        shutil.copytree(template, root)
        return (SnapStore.open(root),), {}

    def ingest(store):
        return store.ingest_dir(data)

    report = benchmark.pedantic(ingest, setup=populated_store, rounds=7)
    assert report.deduplicated["snapshots"] == len(days)
    assert report.accepted["snapshots"] == len(lines) - len(days)
    assert report.total_rejected == 0


def test_ingest_of_one_day_into_a_10k_app_store(benchmark, tmp_path, crawl_week):
    manifest, lines, before_last_day = crawl_week
    days = [line for line, before in zip(lines, before_last_day) if before]
    last_day = [line for line, before in zip(lines, before_last_day) if not before]
    assert len(last_day) >= N_LINES
    template = tmp_path / "template"
    ingest_lines(SnapStore.create(template, manifest), "snapshots", days)
    fresh = itertools.count()

    def populated_store():
        root = tmp_path / f"store{next(fresh)}"
        shutil.copytree(template, root)
        return (SnapStore.open(root),), {}

    def ingest(store):
        return ingest_lines(store, "snapshots", last_day)

    report = benchmark.pedantic(ingest, setup=populated_store, rounds=7)
    assert report.accepted["snapshots"] == len(last_day)
    assert report.deduplicated["snapshots"] == report.total_rejected == 0


def test_app_states_of_every_app_of_a_store_opened_from_its_sidecar(
    benchmark, tmp_path, crawl_week
):
    manifest, lines, _ = crawl_week
    root = tmp_path / "store"
    ingest_lines(SnapStore.create(root, manifest), "snapshots", lines)

    def opened_store():
        store = SnapStore.open(root)
        # loads the index from the sidecar and builds the state table
        store.latest_states()
        return (store,), {}

    def read(store):
        return [store.app_states(app) for app in store.apps()]

    states = benchmark.pedantic(read, setup=opened_store, rounds=7)
    assert SnapStore.open(root)._index("snapshots").sidecar_bytes > 0
    assert sum(len(s.times) for s in states) == len(lines)


def test_latest_states_of_a_store_opened_from_its_sidecar(benchmark, tmp_path, crawl_week):
    manifest, lines, _ = crawl_week
    root = tmp_path / "store"
    ingest_lines(SnapStore.create(root, manifest), "snapshots", lines)

    def read():
        return SnapStore.open(root).latest_states()

    states = benchmark.pedantic(read, rounds=7)
    store = SnapStore.open(root)
    assert store._index("snapshots").sidecar_bytes > 0
    assert list(states) == list(store.latest_states()) and len(states) == len(store.apps())
