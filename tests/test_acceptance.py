"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion. The end-to-end market (criteria 5, 6, 10) is generated
once per session and reused; the determinism check re-runs the whole
chain into a second directory and byte-compares every output file.
"""

import datetime as dt
import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from marketpulse import simgen
from marketpulse.anomaly import (
    DangerousPermissionPolicy,
    PermissionFlagKind,
    permission_flags,
    permission_version_decoupling_rate,
)
from marketpulse.cli import main
from marketpulse.harvester import (
    CrawlConfig,
    DictMarket,
    crawl,
    parse_page,
)
from marketpulse.metrics import (
    AttributeEventSet,
    Staleness,
    classify_popularity,
    classify_staleness,
    fit_power_law,
    seasonal_trend_decompose,
    yule_association,
    yule_q,
)
from marketpulse.model import (
    AttributeKind,
    DownloadBucket,
    ListType,
    PopularityClass,
)
from marketpulse.simgen import (
    MarketScript,
    PermissionChangeModel,
    TopKListConfig,
    UpdateGapModel,
    keyed_rng,
    script_from_record,
)
from marketpulse.store import AppSeries, DatasetManifest, SnapStore, TimeWindow
from marketpulse.timeline import build_app_timeline
from marketpulse.topk import inverse_rank_measure, lifecycle_summaries

from conftest import (
    DAY0,
    generate,
    ingest_records,
    make_snapshot,
    make_topk,
    power_law_samples,
    states_of,
)
from test_topk import oracle_inverse_rank, series_of


def _ok(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n} PASS — {text}")


# --- the shared end-to-end market (criteria 5, 6, 10) -------------------------

BIG_SEED = 20120401

METRIC_COMMANDS = ["staleness", "popularity", "updates", "price", "association", "powerlaw"]
TOPK_COMMANDS = ["lifecycle", "similarity", "overlap", "occupancy", "lifetime"]
ANOMALY_COMMANDS = ["reviews", "permissions", "scam", "decoupling"]


BIG_SCRIPT = {
    "seed": BIG_SEED,
    "n_developers": 6000,
    "observation_days": 30,
    "topk_lists": {
        "Free": {"length": 100, "churn_lo": 0.002, "churn_hi": 0.06},
        "Paid": {"length": 100, "churn_lo": 0.004, "churn_hi": 0.08},
    },
    "fraud_campaigns": [
        {"app": 0, "polarity": "positive", "start_day": 10, "duration_days": 5, "daily_volume": 200},
        {"app": 1, "polarity": "negative", "start_day": 15, "duration_days": 4, "daily_volume": 150},
        {"app": 2, "polarity": "positive", "start_day": 20, "duration_days": 3, "daily_volume": 300},
    ],
    "stale_fraction": 0.3,
}


def big_script() -> MarketScript:
    return script_from_record(BIG_SCRIPT)


def run_chain(root: Path, script_path: Path) -> float:
    """simulate -> ingest -> full metric/topk/anomaly suite; wall seconds.

    Commands run in-process through the CLI entry point; one command per
    invocation, as a shell user would drive it.
    """
    started = time.monotonic()
    data, store, reports = root / "data", root / "store", root / "reports"
    assert main(["simulate", "--script", str(script_path), "--out", str(data)]) == 0
    assert main(["ingest", "--data", str(data), "--store", str(store)]) == 0
    for what in METRIC_COMMANDS:
        assert main(["metrics", what, "--store", str(store), "--out", str(reports)]) == 0
    for what in TOPK_COMMANDS:
        for list_name in ("Free", "Paid"):
            assert (
                main(
                    ["topk", what, "--list", list_name, "--store", str(store), "--out", str(reports)]
                )
                == 0
            )
    for what in ANOMALY_COMMANDS:
        assert main(["anomaly", what, "--store", str(store), "--out", str(reports)]) == 0
    return time.monotonic() - started


@pytest.fixture(scope="session")
def big_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    script_path = root / "script.json"
    script_path.write_text(json.dumps(BIG_SCRIPT, sort_keys=True))
    elapsed = run_chain(root / "a", script_path)
    return {"root": root, "script_path": script_path, "a": root / "a", "elapsed": elapsed}


# --- criterion 1: inverse rank measure ----------------------------------------


def test_criterion_01_inverse_rank_measure_oracle():
    started = time.monotonic()
    for k in (1, 2, 7, 50):
        ranking = [f"a{i}" for i in range(k)]
        assert inverse_rank_measure(ranking, ranking).m == 1.0
        other = [f"b{i}" for i in range(k)]
        assert inverse_rank_measure(ranking, other).m == 0.0
    rng = random.Random(42)
    universe = [f"app{i}" for i in range(130)]
    for _ in range(1000):
        len_prev, len_next = rng.randint(1, 50), rng.randint(1, 50)
        if rng.random() < 0.4:
            base = rng.sample(universe, max(len_prev, len_next))
            prev, cur = base[:len_prev], base[:len_next]
            rng.shuffle(cur)
        else:
            prev = rng.sample(universe, len_prev)
            cur = rng.sample(universe, len_next)
        got = inverse_rank_measure(prev, cur).m
        want = oracle_inverse_rank(prev, cur)
        assert abs(got - want) <= 1e-12, (prev, cur)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _ok(1, f"inverse rank measure matches oracle on 1000 pairs in {elapsed:.2f}s")


# --- criterion 2: Yule association ---------------------------------------------


def test_criterion_02_yule_association():
    assert yule_q(9, 0, 0, 1) == 1.0
    assert yule_q(0, 3, 2, 0) == -1.0
    assert yule_q(3, 1, 1, 3) == 0.8
    rng = random.Random(63)
    universe = frozenset(range(60))
    for _ in range(10_000):
        members_a = frozenset(x for x in universe if rng.random() < 0.4)
        members_b = frozenset(x for x in universe if rng.random() < 0.4)
        a = AttributeEventSet(AttributeKind.PRICE_UP, members_a)
        b = AttributeEventSet(AttributeKind.VERSION_UP, members_b)
        q_ab = yule_association(a, b, universe)
        assert q_ab == yule_association(b, a, universe)
        if q_ab is not None:
            assert -1.0 <= q_ab <= 1.0
    # mutually exclusive attribute pairs: both non-empty, never co-occurring
    for _ in range(200):
        split = frozenset(x for x in universe if rng.random() < 0.5)
        rest = universe - split
        if not split or not rest:
            continue
        up = AttributeEventSet(AttributeKind.PRICE_UP, split)
        down = AttributeEventSet(AttributeKind.PRICE_DOWN, rest)
        assert yule_association(up, down, universe) == -1.0
    _ok(2, "contingency examples exact; symmetry/bounds on 10^4 pairs; exclusives -1")


# --- criterion 3: power-law round trip ------------------------------------------


def test_criterion_03_power_law_round_trip():
    samples = power_law_samples(keyed_rng(BIG_SEED, "alpha-oracle"), 2.5, 1.0, 100_000)
    fit = fit_power_law(samples, x_min=1.0)
    assert abs(fit.alpha - 2.5) <= 0.05, fit.alpha
    hand = fit_power_law([1, 1, 1, 2, 3], x_min=1.0)
    expected = 1.0 + 5.0 / (math.log(2) + math.log(3))
    assert abs(hand.alpha - expected) <= 1e-9
    _ok(3, f"10^5-sample fit alpha={fit.alpha:.4f}; hand MLE alpha={hand.alpha:.6f}")


# --- criterion 4: lifecycle six-tuple --------------------------------------------


def test_criterion_04_lifecycle_six_tuple():
    filler = [f"f{i}" for i in range(12)]
    rankings = [filler] * 5
    for rank_x in (10, 4, 7):
        ranking = list(filler)
        ranking.insert(rank_x - 1, "x")
        rankings.append(ranking)
    summary = {s.app: s for s in lifecycle_summaries(series_of(rankings))}["x"]
    assert (
        summary.debut,
        summary.hrs2peak,
        summary.peak,
        summary.tothrs,
        summary.exit,
        summary.rankdyn,
    ) == (10, 2, 4, 3, 7, 3)

    # debut-hour peak: HRS2PEAK = 1
    rankings = [["a", "b"], ["x", "a"], ["a", "x"]]
    summary = {s.app: s for s in lifecycle_summaries(series_of(rankings))}["x"]
    assert summary.hrs2peak == 1

    # debut censoring: first-observation apps never summarized
    rankings = [["a", "b"], ["b", "x"], ["x", "b"]]
    assert {s.app for s in lifecycle_summaries(series_of(rankings))} == {"x"}

    # conservation on synthetic series: sum TOTHRS == sum of list lengths
    # after dropping censored apps from both sides
    for seed in (1, 2, 3):
        script = MarketScript(
            seed=seed,
            n_developers=150,
            observation_days=4,
            topk_lists={
                ListType.FREE: TopKListConfig(length=30, churn_lo=0.01, churn_hi=0.2)
            },
        )
        market = generate(script)
        observations = tuple(o for o in market.topk if o.list_type is ListType.FREE)
        from marketpulse.store import RankedListSeries

        series = RankedListSeries(list_type=ListType.FREE, observations=observations)
        summaries = lifecycle_summaries(series)
        censored = set(observations[0].ranking)
        list_length_sum = sum(
            sum(1 for app in o.ranking if app not in censored) for o in observations
        )
        assert sum(s.tothrs for s in summaries) == list_length_sum
        assert all(s.rankdyn <= s.tothrs for s in summaries)
    _ok(4, "hand-traced six-tuples exact; TOTHRS conservation on 3 seeded series")


# --- criterion 5: closed-loop popularity and staleness ----------------------------


def test_criterion_05_popularity_staleness_closed_loop(big_run):
    script = big_script()
    reports = big_run["a"] / "reports"
    popularity = json.loads((reports / "popularity.json").read_text())
    assert popularity["apps"] >= 10_000
    for klass, target in script.popularity_mix.items():
        got = popularity["shares"][klass.value]
        assert abs(got - target) <= 0.005, (klass, got, target)
    staleness = json.loads((reports / "staleness.json").read_text())
    assert abs(staleness["stale_share"] - script.stale_fraction) <= 0.005

    # boundary rules
    reference = dt.date(2012, 11, 1)
    gap = lambda d: classify_staleness(reference - dt.timedelta(days=d), reference, 365)
    assert gap(364).status is Staleness.ACTIVE
    assert gap(365).status is Staleness.ACTIVE
    assert gap(366).status is Staleness.STALE
    assert classify_popularity(DownloadBucket(1_000, 5_000)) is PopularityClass.POPULAR
    assert (
        classify_popularity(DownloadBucket(100_000, 500_000))
        is PopularityClass.MOST_POPULAR
    )
    _ok(
        5,
        f"shares within 0.5% at {popularity['apps']} apps; "
        f"stale {staleness['stale_share']:.4f} vs {script.stale_fraction}; boundaries exact",
    )


# --- criterion 6: fraud indicators -------------------------------------------------


def test_criterion_06_fraud_indicators(big_run):
    # spike detection recovers exactly the labeled campaign days
    reports = big_run["a"] / "reports"
    truth = json.loads((big_run["a"] / "data" / "ground_truth.json").read_text())
    labeled = {
        (app, fraud["day"], fraud["polarity"])
        for app, t in truth["apps"].items()
        for fraud in t["fraud_days"]
    }
    assert labeled
    rows = (reports / "review_spikes.csv").read_text().splitlines()[1:]
    flagged = set()
    for row in rows:
        app, day, polarity, *_ = row.split(",")
        flagged.add((app, day, polarity))
    assert flagged == labeled  # precision = recall = 1.0

    # decoupling rate at >= 10^4 permission events, within one percentage point
    script = MarketScript(
        seed=88,
        n_developers=2600,
        observation_days=30,
        stale_fraction=0.0,
        decoupling_rate=0.05,
        update_gap_model={k: UpdateGapModel(1.0, 3, 6) for k in PopularityClass},
        permission_change_model=PermissionChangeModel(change_fraction=1.0, max_events=4),
        permission_churn_apps=2,
        review_rates={k: 0.0 for k in PopularityClass},
    )
    market = generate(script)
    by_app = {}
    for snap in market.snapshots:
        by_app.setdefault(snap.app, []).append(snap)
    timelines = [
        build_app_timeline(states_of(AppSeries(app=app, snapshots=tuple(snaps))))
        for app, snaps in sorted(by_app.items())
    ]
    total_events = sum(p.permission_events for p in market.plan.apps)
    assert total_events >= 10_000
    rate = permission_version_decoupling_rate(timelines)
    assert abs(rate - 0.05) <= 0.01, rate

    # the remove-then-re-add-within-one-day churn pattern is flagged
    policy = DangerousPermissionPolicy.default()
    churned_apps = set()
    for timeline in timelines:
        for flag in permission_flags(timeline, policy):
            if flag.kind is PermissionFlagKind.CHURN_WITHIN_WINDOW:
                churned_apps.add(timeline.app)
    assert len(churned_apps) >= 2
    _ok(
        6,
        f"spikes exact on {len(labeled)} labeled days; decoupling {rate:.4f} "
        f"over {total_events} events; churn pattern flagged",
    )


# --- criterion 7: harvester ---------------------------------------------------------


def test_criterion_07_harvester():
    started = time.monotonic()
    script = MarketScript(seed=11, n_developers=330, observation_days=2)
    market = generate(script)
    latest = {}
    for snap in market.snapshots:
        latest[snap.app] = snap
    apps = sorted(latest)[:500]
    assert len(apps) == 500, f"market too small: {len(latest)}"
    mock = simgen.render_mock_market([latest[a] for a in apps], n_seeds=5, seed=11)

    # parse(render(.)) round-trips every snapshot field
    for app in apps:
        parsed = parse_page(mock.pages[app])
        assert parsed.snapshot == latest[app]

    result = crawl(
        mock.seeds,
        DictMarket(mock.pages),
        CrawlConfig(workers=1, politeness_delay_ms=0),
    )
    assert result.report.snapshots_emitted == 500
    assert result.report.attempts == 500  # each app fetched exactly once
    assert result.report.frontier_exhausted
    assert result.report.workers_banned == 0
    assert len({s.app for s in result.snapshots}) == 500

    banned = crawl(
        ["a", "b", "c", "d"],
        DictMarket({}),
        CrawlConfig(workers=1, ban_threshold=3, politeness_delay_ms=0),
    )
    assert banned.workers[0].attempts == 3
    assert not banned.workers[0].active
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _ok(7, f"500-app crawl exact-once, ban after 3, round-trip OK in {elapsed:.2f}s")


# --- criterion 8: seasonal decomposition ----------------------------------------------


def test_criterion_08_decomposition():
    period = 7
    constant = seasonal_trend_decompose([4.5] * 42, period)
    interior = ~np.isnan(constant.trend)
    assert np.abs(constant.remainder[interior]).max() < 1e-9
    assert np.allclose(constant.trend[interior], 4.5)

    t = np.arange(63)
    profile = np.array([2.0, -1.5, 0.5, 3.0, -2.0, 1.0, -3.0])
    signal = 0.25 * t + 5 + profile[t % period]
    mixed = seasonal_trend_decompose(signal, period)
    interior = ~np.isnan(mixed.trend)
    assert np.abs(mixed.remainder[interior]).max() < 1e-9
    assert abs(mixed.seasonal[:period].sum()) < 1e-9

    # reconstruction: bitwise on well-scaled data, and always far inside
    # 1e-12 even when observations sit near zero (IEEE reassembly rounds
    # once, so bitwise equality is unattainable for arbitrary scales)
    mask = ~np.isnan(mixed.trend)
    recomposed = (mixed.trend[mask] + mixed.seasonal[mask]) + mixed.remainder[mask]
    assert np.array_equal(recomposed, signal[mask])
    rng = np.random.default_rng(5)
    noisy = seasonal_trend_decompose(rng.random(40) * 7, 4)
    assert abs(noisy.seasonal[:4].sum()) < 1e-9
    mask = ~np.isnan(noisy.trend)
    recomposed = (noisy.trend[mask] + noisy.seasonal[mask]) + noisy.remainder[mask]
    assert np.abs(recomposed - noisy.observed[mask]).max() <= 1e-12
    _ok(8, "remainders < 1e-9, seasonal zero-sum, reconstruction exact")


# --- criterion 9: store properties ------------------------------------------------------


def _fresh_store(tmp_path_factory) -> SnapStore:
    manifest = DatasetManifest(
        name="acceptance", currency="USD", observation_start=DAY0, observation_end=DAY0
    )
    return SnapStore.create(tmp_path_factory.mktemp("accstore"), manifest)


@st.composite
def _snapshot_batch(draw):
    snaps = []
    for a in range(draw(st.integers(1, 3))):
        offsets = draw(
            st.lists(st.integers(0, 30), min_size=1, max_size=6, unique=True)
        )
        snaps.extend(
            make_snapshot(app=f"com.acc.a{a}", day=DAY0 + dt.timedelta(days=off))
            for off in offsets
        )
    return draw(st.permutations(snaps))


@settings(max_examples=25, deadline=None)
@given(_snapshot_batch())
def test_criterion_09a_double_ingest_idempotent(tmp_path_factory, snaps):
    store = _fresh_store(tmp_path_factory)
    ingest_records(store, "snapshots", snaps)
    before = {app: store.query_app_series(app).snapshots for app in store.apps()}
    report = ingest_records(store, "snapshots", snaps)
    assert report.total_accepted == 0
    for app, snapshots in before.items():
        assert store.query_app_series(app).snapshots == snapshots


@settings(max_examples=25, deadline=None)
@given(_snapshot_batch(), st.integers(0, 30))
def test_criterion_09b_split_window_equivalence(tmp_path_factory, snaps, split):
    store = _fresh_store(tmp_path_factory)
    ingest_records(store, "snapshots", snaps)
    from marketpulse.model import date_to_epoch

    lo, hi = date_to_epoch(DAY0), date_to_epoch(DAY0 + dt.timedelta(days=31))
    mid = date_to_epoch(DAY0 + dt.timedelta(days=split))
    for app in store.apps():
        full = store.query_app_series(app, TimeWindow(lo, hi)).snapshots
        halves = (
            store.query_app_series(app, TimeWindow(lo, mid)).snapshots
            + store.query_app_series(app, TimeWindow(mid + 1, hi)).snapshots
        )
        assert halves == full


@settings(max_examples=25, deadline=None)
@given(_snapshot_batch(), st.permutations(list(range(6))))
def test_criterion_09c_strict_ordering(tmp_path_factory, snaps, hours):
    store = _fresh_store(tmp_path_factory)
    ingest_records(store, "snapshots", snaps)
    ingest_records(store, "topk", [make_topk(["a", "b"], hour=h) for h in hours])
    for app in store.apps():
        times = [s.fetch_time for s in store.query_app_series(app).snapshots]
        assert all(a < b for a, b in zip(times, times[1:]))
    series = store.query_list_series(ListType.FREE)
    times = [o.fetch_time for o in series.observations]
    assert all(a < b for a, b in zip(times, times[1:]))


def test_criterion_09_report():
    _ok(9, "idempotence, split-window, ordering (property-tested above)")


# --- criterion 10: end-to-end CLI determinism ---------------------------------------------


def test_criterion_10_end_to_end_cli(big_run):
    elapsed = big_run["elapsed"]
    assert elapsed < 120.0, f"chain took {elapsed:.1f}s"
    rerun = run_chain(big_run["root"] / "b", big_run["script_path"])
    a_root, b_root = big_run["a"], big_run["root"] / "b"
    compared = 0
    for sub in ("data", "reports"):
        a_files = sorted((a_root / sub).rglob("*"))
        rel = [p.relative_to(a_root / sub) for p in a_files if p.is_file()]
        b_rel = [
            p.relative_to(b_root / sub)
            for p in sorted((b_root / sub).rglob("*"))
            if p.is_file()
        ]
        assert rel == b_rel
        for r in rel:
            assert (a_root / sub / r).read_bytes() == (b_root / sub / r).read_bytes(), r
            compared += 1
    assert compared >= 30
    _ok(
        10,
        f"chain {elapsed:.1f}s (< 120s); re-run byte-identical across {compared} files",
    )
