import copy
import datetime as dt
import itertools
import json
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from marketpulse import simgen
from marketpulse.anomaly import (
    DangerousPermissionPolicy,
    PermissionFlagKind,
    detect_review_spikes,
    permission_flags,
)
from marketpulse.errors import ConfigError
from marketpulse.harvester import CrawlConfig, DictMarket, crawl, parse_page
from marketpulse.metrics import (
    classify_popularity,
    downloads_ratings_slope,
    fit_power_law,
    update_stats,
)
from marketpulse.model import (
    AttributeKind,
    ListType,
    PopularityClass,
    canonical_json,
    canonical_snapshot_line,
    snapshot_from_trusted_record,
)
from marketpulse.simgen import (
    FraudCampaign,
    MarketScript,
    PermissionChangeModel,
    PriceChangeModel,
    ScamDeveloperScript,
    TopKListConfig,
    UpdateGapModel,
    discrete_power_law_samples,
    keyed_rng,
    load_script,
    render_mock_market,
    script_from_record,
    write_dataset,
)
from marketpulse.store import AppSeries
from marketpulse.timeline import (
    build_app_timeline,
    build_review_timeline,
    format_event_value,
)
from marketpulse.topk import lifetime_at_rank, rank_occupancy

from conftest import (
    DAY0,
    generate,
    make_snapshot,
    power_law_samples,
    reference_review_lines,
    reference_snapshot_lines,
    review_to_record,
    scan_x_min,
    snapshot_to_record,
    states_of,
)


def small_script(**overrides):
    fields = dict(seed=7, n_developers=40, observation_days=15)
    fields.update(overrides)
    return MarketScript(**fields)


def series_by_app(snapshots):
    by_app = {}
    for snap in snapshots:
        by_app.setdefault(snap.app, []).append(snap)
    return {
        app: states_of(
            AppSeries(app=app, snapshots=tuple(sorted(snaps, key=lambda s: s.fetch_time)))
        )
        for app, snaps in by_app.items()
    }


def planned_events(p) -> list:
    """(day, kind, old, new) of each planned change of ``p``, as the
    timeline CSV writes the values."""
    return [
        (c.day, c.kind.value, format_event_value(c.old), format_event_value(c.new))
        for c in p.changes
    ]


def planned_fraud_days(plan) -> dict:
    """App id -> sorted (day, polarity, volume) of each day of its fraud
    campaigns."""
    start = plan.script.observation_start
    return {
        p.app: sorted(
            (start + dt.timedelta(days=offset), c.polarity, c.daily_volume)
            for c in p.campaigns
            for offset in range(c.start_day, c.start_day + c.duration_days)
        )
        for p in plan.apps
    }


class TestDeterminism:
    def test_same_seed_same_streams(self):
        script = small_script()
        a, b = generate(script), generate(script)
        assert a.snapshots == b.snapshots
        assert a.reviews == b.reviews
        assert a.topk == b.topk

    def test_same_seed_byte_identical_files(self, tmp_path):
        script = small_script(
            topk_lists={ListType.FREE: TopKListConfig(length=15)},
            fraud_campaigns=(FraudCampaign(app=0),),
        )
        write_dataset(script, tmp_path / "a", render_market_seeds=3)
        write_dataset(script, tmp_path / "b", render_market_seeds=3)
        for name in (
            "manifest.json",
            "snapshots.jsonl",
            "reviews.jsonl",
            "topk.jsonl",
            "ground_truth.json",
            "market_pages.jsonl",
            "seeds.txt",
        ):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name

    def test_different_seeds_differ(self):
        a = generate(small_script(seed=1))
        b = generate(small_script(seed=2))
        assert a.snapshots != b.snapshots

    def test_adding_entities_keeps_existing_streams(self):
        # per-app keyed RNG: the same app id draws the same plan
        base = generate(small_script(n_developers=20))
        more = generate(small_script(n_developers=30))
        shared = {p.app for p in base.plan.apps} & {p.app for p in more.plan.apps}
        assert shared
        base_by = {s.app: s for s in base.snapshots if s.app in shared}
        more_by = {s.app: s for s in more.snapshots if s.app in shared}
        for app in sorted(shared)[:20]:
            assert base_by[app] == more_by[app]


@st.composite
def line_scripts(draw):
    """Small scripts over every script key that shapes snapshot or review
    lines; fraud campaigns may overlap, and scam developer names need
    escaping in JSON."""
    days = draw(st.integers(1, 16))
    cadence = draw(st.integers(1, 4))
    campaigns = []
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, days - 1))
        campaigns.append(
            FraudCampaign(
                app=draw(st.integers(0, 3)),
                polarity=draw(st.sampled_from(("positive", "negative"))),
                start_day=start,
                duration_days=draw(st.integers(1, days - start)),
                daily_volume=draw(st.integers(1, 30)),
            )
        )
    scams = draw(
        st.lists(
            st.builds(
                ScamDeveloperScript,
                developer=st.text(alphabet='aZ09 "\\\u00e9\u6771-', max_size=6),
                n_clones=st.integers(1, 3),
                price_cents=st.integers(1, 999),
            ),
            max_size=2,
        )
    )
    churn = draw(st.integers(0, 2)) if cadence == 1 and days >= 4 else 0
    return small_script(
        seed=draw(st.integers(0, 2**32)),
        n_developers=draw(st.integers(4, 10)),
        observation_days=days,
        snapshot_cadence_days=cadence,
        fraud_campaigns=tuple(campaigns),
        scam_developers=tuple(scams),
        permission_churn_apps=churn,
        stale_fraction=draw(st.floats(0.0, 1.0)),
    )


class TestLines:
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    @given(script=line_scripts())
    def test_written_lines_equal_the_record_dict_path(self, script):
        try:
            plan = simgen.plan_market(script)
        except ConfigError:
            # too few apps or days for the permission churn, or two scam
            # developers whose names give the same app ids
            assume(False)
        snapshots = reference_snapshot_lines(plan)
        reviews = reference_review_lines(plan)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            write_dataset(script, out, render_market_seeds=2)
            assert (out / "snapshots.jsonl").read_text() == "".join(snapshots)
            assert (out / "reviews.jsonl").read_text() == "".join(reviews)
            # the pages render the last snapshot day, decoded
            last_day = [
                snapshot_from_trusted_record(json.loads(line))
                for line in snapshots[-len(plan.apps) :]
            ]
            market = render_mock_market(last_day, n_seeds=2, seed=script.seed)
            assert (out / "market_pages.jsonl").read_text() == "".join(
                canonical_json({"app": app, "page": market.pages[app]}) + "\n"
                for app in sorted(market.pages)
            )
        # the test helper generate() decodes the same lines
        market = generate(script)
        assert [canonical_json(snapshot_to_record(s)) + "\n" for s in market.snapshots] == snapshots
        assert [canonical_json(review_to_record(r)) + "\n" for r in market.reviews] == reviews

    def test_each_app_state_is_encoded_once(self, monkeypatch):
        script = small_script(n_developers=60, observation_days=30, permission_churn_apps=2)
        plan = simgen.plan_market(script)
        calls = []

        def counting_canonical_snapshot_line(snap):
            calls.append(snap)
            return canonical_snapshot_line(snap)

        monkeypatch.setattr(simgen, "canonical_snapshot_line", counting_canonical_snapshot_line)
        lines = [line for day_lines in simgen._snapshot_lines(plan) for line in day_lines]
        # every change and update lands on a snapshot day; an app's changes
        # of one day make one new state
        states = len(plan.apps) + sum(
            len({c.day for c in p.changes} | set(p.update_days)) for p in plan.apps
        )
        assert sum(1 for p in plan.apps if p.changes) > 10
        assert len(calls) == states < len(lines) == len(plan.apps) * 30
        assert lines == reference_snapshot_lines(plan)

    def test_draws_on_the_rating_cdf_map_as_generator_choice_maps_them(self, monkeypatch):
        # a draw equal to a cdf value takes the next rating (side="right")
        cdf = np.cumsum(simgen._RATING_WEIGHTS)
        cdf /= cdf[-1]
        boundaries = np.concatenate(([0.0], cdf[:-1]))

        class BoundaryGenerator(np.random.Generator):
            """Draws 0 and the rating cdf's values, in turn."""

            drawn = 0

            def random(self, size=None, dtype=np.float64, out=None):
                n = int(np.prod(size))
                picked = boundaries[(self.drawn + np.arange(n)) % len(boundaries)]
                self.drawn += n
                return picked.reshape(size)

        plan = simgen.plan_market(
            small_script(fraud_campaigns=(FraudCampaign(app=0, daily_volume=1),))
        )
        real_rng = simgen.keyed_rng
        monkeypatch.setattr(
            simgen,
            "keyed_rng",
            lambda seed, label: BoundaryGenerator(real_rng(seed, label).bit_generator),
        )
        lines = simgen._review_lines(plan)
        assert {json.loads(line)["rating"] for line in lines} == {1, 2, 3, 4, 5}
        assert lines == reference_review_lines(plan)

    def test_review_ids_past_a_million_sort_as_strings(self):
        # "r1000000" sorts between "r100000" and "r100001", as the review
        # id strings of the store's key do; one app's burst of 10^6 + 1
        # reviews on one day crosses that width
        script = small_script(
            n_developers=1,
            observation_days=1,
            fraud_campaigns=(
                FraudCampaign(app=0, start_day=0, duration_days=1, daily_volume=10**6 + 1),
            ),
        )
        plan = simgen.plan_market(script)
        prefix = f'{{"app":"{plan.apps[0].app}"'
        ids = [
            line[line.index('"review_id":"') + 13 : line.index('","reviewer_id"')]
            for line in simgen._review_lines(plan)
            if line.startswith(prefix)
        ]
        assert len(ids) > 10**6
        assert ids == sorted(ids)
        assert ids.index("r1000000") == ids.index("r100000") + 1


class TestScriptCodec:
    def test_round_trip(self):
        # every script key, each nested type in its JSON form
        rec = {
            "seed": 7,
            "name": "round-trip",
            "currency": "EUR",
            "n_developers": 40,
            "observation_start": "2013-02-03",
            "observation_days": 15,
            "snapshot_cadence_days": 2,
            "topk_lists": {"Free": {"length": 10, "churn_lo": 0.01, "churn_hi": 0.1}},
            "fraud_campaigns": [
                {
                    "app": 2,
                    "polarity": "negative",
                    "start_day": 3,
                    "duration_days": 4,
                    "daily_volume": 50,
                },
                {"app": "com.sim.d00001.a00"},
            ],
            "scam_developers": [
                {"developer": "CloneWorks", "n_clones": 4, "price_cents": 299}
            ],
            "decoupling_rate": 0.1,
            "popularity_mix": {"Unpopular": 0.5, "Popular": 0.25, "MostPopular": 0.25},
            "stale_fraction": 0.2,
            "update_gap_model": {
                "Unpopular": {"update_fraction": 0.5, "gap_days_lo": 5, "gap_days_hi": 20},
                "Popular": {"update_fraction": 0.9, "gap_days_lo": 3, "gap_days_hi": 10},
                "MostPopular": {"update_fraction": 0.9, "gap_days_lo": 3, "gap_days_hi": 10},
            },
            "price_change_model": {
                "paid_fraction": 0.3,
                "change_fraction": 0.1,
                "max_changes": 2,
                "down_bias": 0.5,
                "version_coupling": 0.8,
            },
            "permission_change_model": {"change_fraction": 0.2, "max_events": 2},
            "permission_churn_apps": 1,
            "review_rates": {"Unpopular": 0.1, "Popular": 1.0, "MostPopular": 3.0},
        }
        assert script_from_record(json.loads(json.dumps(rec))) == MarketScript(
            seed=7,
            name="round-trip",
            currency="EUR",
            n_developers=40,
            observation_start=dt.date(2013, 2, 3),
            observation_days=15,
            snapshot_cadence_days=2,
            topk_lists={ListType.FREE: TopKListConfig(length=10, churn_lo=0.01, churn_hi=0.1)},
            fraud_campaigns=(
                FraudCampaign(
                    app=2, polarity="negative", start_day=3, duration_days=4, daily_volume=50
                ),
                FraudCampaign(app="com.sim.d00001.a00"),
            ),
            scam_developers=(
                ScamDeveloperScript(developer="CloneWorks", n_clones=4, price_cents=299),
            ),
            decoupling_rate=0.1,
            popularity_mix={
                PopularityClass.UNPOPULAR: 0.5,
                PopularityClass.POPULAR: 0.25,
                PopularityClass.MOST_POPULAR: 0.25,
            },
            stale_fraction=0.2,
            update_gap_model={
                PopularityClass.UNPOPULAR: UpdateGapModel(0.5, 5, 20),
                PopularityClass.POPULAR: UpdateGapModel(0.9, 3, 10),
                PopularityClass.MOST_POPULAR: UpdateGapModel(0.9, 3, 10),
            },
            price_change_model=PriceChangeModel(
                paid_fraction=0.3,
                change_fraction=0.1,
                max_changes=2,
                down_bias=0.5,
                version_coupling=0.8,
            ),
            permission_change_model=PermissionChangeModel(change_fraction=0.2, max_events=2),
            permission_churn_apps=1,
            review_rates={
                PopularityClass.UNPOPULAR: 0.1,
                PopularityClass.POPULAR: 1.0,
                PopularityClass.MOST_POPULAR: 3.0,
            },
        )

    def test_load_script_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"seed": 7, "n_developers": 40, "observation_days": 15}))
        assert load_script(path) == small_script()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown script keys"):
            script_from_record({"seed": 1, "bogus": 2})

    @pytest.mark.parametrize(
        "rec, message",
        [
            ({"topk_lists": {"Free": {"lenght": 5}}}, "'lenght'"),
            ({"topk_lists": [5]}, "items"),
            ({"fraud_campaigns": [{"ap": 1}]}, "'ap'"),
            ({"observation_start": 20141024}, "str"),
            ({"n_developers": "5"}, "^script key 'n_developers' must be of type int$"),
            ({"seed": "x"}, "^script key 'seed' must be of type int$"),
            ({"seed": 1.5}, "^script key 'seed' must be of type int$"),
            ({"seed": True}, "^script key 'seed' must be of type int$"),
            ({"observation_days": 2.5}, "^script key 'observation_days' must be of type int$"),
            ({"n_developers": 3.5}, "^script key 'n_developers' must be of type int$"),
            ({"snapshot_cadence_days": "2"}, "'snapshot_cadence_days' must be of type int$"),
            ({"permission_churn_apps": 1.5}, "'permission_churn_apps' must be of type int$"),
            ({"name": 5}, "^script key 'name' must be of type str$"),
            ({"decoupling_rate": "0.1"}, "^script key 'decoupling_rate' must be of type float$"),
            ({"stale_fraction": False}, "^script key 'stale_fraction' must be of type float$"),
            ([1, 2], "^script must be a JSON object$"),
        ],
        ids=[
            "topk_key", "topk_lists_type", "campaign_key", "date_type", "int_type",
            "seed_str", "seed_float", "seed_bool", "days_float", "developers_float",
            "cadence_str", "churn_float", "name_int", "rate_str", "rate_bool", "list",
        ],
    )
    def test_malformed_script_is_a_config_error(self, rec, message):
        with pytest.raises(ConfigError, match=message):
            script_from_record(rec)

    def test_a_number_of_either_json_type_is_a_float_value(self):
        script = script_from_record({"decoupling_rate": 0, "stale_fraction": 1})
        assert (script.decoupling_rate, script.stale_fraction) == (0, 1)

    def test_bad_mix_rejected(self):
        with pytest.raises(ConfigError, match="popularity_mix"):
            script_from_record(
                {"popularity_mix": {"Unpopular": 0.5, "Popular": 0.3, "MostPopular": 0.1}}
            )

    def test_scam_developers_sharing_app_ids_rejected(self):
        # both names reduce to the app ids com.scam.cloneworks.cNN
        scams = [{"developer": "CloneWorks"}, {"developer": "clone-works!"}]
        with pytest.raises(ConfigError, match="com.scam.cloneworks"):
            script_from_record({"scam_developers": scams})

    def test_campaign_outside_window_rejected(self):
        with pytest.raises(ConfigError, match="campaign"):
            small_script(
                fraud_campaigns=(FraudCampaign(app=0, start_day=12, duration_days=9),)
            ).validate()


class TestGroundTruthClosure:
    def test_events_and_update_days_recovered_exactly(self):
        script = small_script(
            n_developers=60,
            permission_churn_apps=1,
            fraud_campaigns=(FraudCampaign(app=0),),
        )
        market = generate(script)
        plans = {p.app: p for p in market.plan.apps}
        total_events = 0
        for app, series in series_by_app(market.snapshots).items():
            timeline = build_app_timeline(series)
            got = sorted(
                (e.day, e.kind.value, format_event_value(e.old), format_event_value(e.new))
                for e in timeline.events
            )
            want = sorted(planned_events(plans[app]))
            assert got == want, app
            assert list(timeline.update_days) == plans[app].update_days, app
            total_events += len(want)
        assert total_events > 0

    def test_an_app_with_scripted_changes_matches_kind_for_kind(self):
        script = small_script(n_developers=80)
        market = generate(script)
        series = series_by_app(market.snapshots)
        richest = max(market.plan.apps, key=lambda p: len(p.changes))
        assert len(richest.changes) >= 2
        timeline = build_app_timeline(series[richest.app])
        assert [e.kind.value for e in timeline.events] == [
            c.kind.value for c in richest.changes
        ]

    def test_aui_matches_scripted_gaps(self):
        script = small_script(
            n_developers=60,
            observation_days=30,
            update_gap_model={
                PopularityClass.UNPOPULAR: UpdateGapModel(1.0, 4, 9),
                PopularityClass.POPULAR: UpdateGapModel(1.0, 4, 9),
                PopularityClass.MOST_POPULAR: UpdateGapModel(1.0, 4, 9),
            },
            stale_fraction=0.0,
        )
        market = generate(script)
        series = series_by_app(market.snapshots)
        checked = 0
        for p in market.plan.apps:
            if len(p.update_days) < 2:
                continue
            stats = update_stats(build_app_timeline(series[p.app]))
            gaps = [(b - a).days for a, b in zip(p.update_days, p.update_days[1:])]
            assert stats.update_count == len(p.update_days)
            assert stats.aui_days == pytest.approx(sum(gaps) / len(gaps))
            checked += 1
        assert checked > 5

    def test_popularity_labels_match_pipeline(self):
        market = generate(small_script(n_developers=80))
        latest = {}
        for snap in market.snapshots:
            latest[snap.app] = snap
        for p in market.plan.apps:
            assert classify_popularity(latest[p.app].downloads) is p.klass


def test_ground_truth_file_records_the_plan(tmp_path):
    # overlapping campaigns on one app, scam clones and permission churn
    # give every field of the record a value
    script = small_script(
        n_developers=30,
        permission_churn_apps=1,
        fraud_campaigns=(
            FraudCampaign(app=0, polarity="negative", start_day=6, duration_days=3),
            FraudCampaign(app=0, start_day=2, duration_days=5, daily_volume=40),
            FraudCampaign(app=4, start_day=9),
        ),
        scam_developers=(ScamDeveloperScript(developer="CloneWorks", n_clones=3),),
    )
    returned = write_dataset(script, tmp_path)
    text = (tmp_path / "ground_truth.json").read_text()
    truth = json.loads(text)
    assert truth == returned
    assert text == json.dumps(returned, sort_keys=True, indent=1) + "\n"

    plan = simgen.plan_market(script)
    assert truth["app_ids"] == [p.app for p in plan.apps]
    assert truth["dev_app_counts"] == Counter(p.first.developer for p in plan.apps)
    assert sorted(truth["apps"]) == sorted(truth["app_ids"])
    fraud_days = planned_fraud_days(plan)
    for p in plan.apps:
        record = truth["apps"][p.app]
        assert record["events"] == [
            {"day": day.isoformat(), "kind": kind, "old": old, "new": new}
            for day, kind, old, new in planned_events(p)
        ], p.app
        assert record["update_days"] == [d.isoformat() for d in p.update_days]
        assert record["fraud_days"] == [
            {"day": day.isoformat(), "polarity": polarity, "volume": volume}
            for day, polarity, volume in fraud_days[p.app]
        ]
        assert (
            record["developer"],
            record["class"],
            record["stale"],
            record["scam_cluster"],
            record["permission_events"],
            record["decoupled_events"],
        ) == (
            p.first.developer,
            p.klass.value,
            p.stale,
            p.scam_cluster,
            p.permission_events,
            p.decoupled_events,
        )
    # the two campaigns of app 0 overlap on days 6 and 7, in day order
    first = truth["apps"][plan.apps[0].app]["fraud_days"]
    assert [f["day"] for f in first] == sorted(f["day"] for f in first)
    assert len(first) == 8
    assert sum(bool(r["events"]) for r in truth["apps"].values()) > 5
    assert sum(r["scam_cluster"] == "CloneWorks" for r in truth["apps"].values()) == 3
    assert sum(r["permission_events"] for r in truth["apps"].values()) >= 2


class TestSamplers:
    def test_continuous_sampler_recovered_by_fitter(self):
        rng = keyed_rng(99, "power-law-oracle")
        samples = power_law_samples(rng, alpha=2.5, x_min=1.0, n=100_000)
        fit = fit_power_law(samples, x_min=1.0)
        assert fit.alpha == pytest.approx(2.5, abs=0.05)

    def test_discrete_sampler_shape(self):
        rng = keyed_rng(4, "disc")
        samples = discrete_power_law_samples(rng, alpha=2.5, n=50_000, x_max=100)
        counts = Counter(samples.tolist())
        assert counts[1] > counts[2] > counts[4]
        assert samples.max() <= 100
        assert samples.min() >= 1

    def test_dev_count_fit_closes_loop(self):
        # discrete dev app counts, recovered with the KS-scanning slow path
        rng = keyed_rng(9, "developers")
        counts = discrete_power_law_samples(rng, 2.5, 10_000, x_max=5000)
        fit = scan_x_min(counts.astype(float), min_tail=50)
        assert 2.35 <= fit.alpha <= 2.65

    def test_keyed_rng_stable(self):
        a = keyed_rng(5, "label").random(4)
        b = keyed_rng(5, "label").random(4)
        c = keyed_rng(5, "other").random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestFraudCampaigns:
    def test_bursts_recovered_with_perfect_precision_recall(self):
        script = small_script(
            n_developers=120,
            observation_days=30,
            fraud_campaigns=(
                FraudCampaign(app=0, polarity="positive", start_day=10, duration_days=5, daily_volume=200),
                FraudCampaign(app=1, polarity="negative", start_day=18, duration_days=3, daily_volume=120),
            ),
        )
        market = generate(script)
        reviews_by_app = {}
        for review in market.reviews:
            reviews_by_app.setdefault(review.app, []).append(review)
        flagged = set()
        for app, reviews in reviews_by_app.items():
            timeline = build_review_timeline(reviews, app=app)
            for spike in detect_review_spikes(timeline):
                flagged.add((app, spike.day, spike.polarity.value))
        labeled = {
            (app, day, polarity)
            for app, days in planned_fraud_days(market.plan).items()
            for day, polarity, _ in days
        }
        assert labeled
        assert flagged == labeled  # precision = recall = 1.0

    def test_campaign_by_app_id(self):
        target = simgen.plan_market(small_script()).apps[3].app
        script = small_script(fraud_campaigns=(FraudCampaign(app=target),))
        assert planned_fraud_days(simgen.plan_market(script))[target]

    def test_bad_campaign_index(self):
        with pytest.raises(ConfigError, match="out of range"):
            simgen.plan_market(small_script(fraud_campaigns=(FraudCampaign(app=10**6),)))


class TestDecoupling:
    def test_rate_recovered(self):
        script = small_script(
            seed=13,
            n_developers=260,
            observation_days=30,
            stale_fraction=0.0,
            decoupling_rate=0.05,
            update_gap_model={
                klass: UpdateGapModel(1.0, 3, 8) for klass in PopularityClass
            },
            permission_change_model=PermissionChangeModel(
                change_fraction=1.0, max_events=4
            ),
        )
        market = generate(script)
        total = sum(p.permission_events for p in market.plan.apps)
        decoupled = sum(p.decoupled_events for p in market.plan.apps)
        assert total > 500
        # scripted rate honored by the generator itself
        assert decoupled / total == pytest.approx(0.05, abs=0.02)
        # and recovered by the analysis pipeline
        from marketpulse.anomaly import permission_version_decoupling_rate

        timelines = [
            build_app_timeline(series)
            for series in series_by_app(market.snapshots).values()
        ]
        rate = permission_version_decoupling_rate(timelines)
        assert rate == decoupled / total

    def test_churn_pattern_flagged(self):
        script = small_script(n_developers=60, permission_churn_apps=2)
        market = generate(script)
        series = series_by_app(market.snapshots)
        policy = DangerousPermissionPolicy.default()
        churn_flagged = set()
        for p in market.plan.apps:
            timeline = build_app_timeline(series[p.app])
            for flag in permission_flags(timeline, policy):
                if flag.kind is PermissionFlagKind.CHURN_WITHIN_WINDOW:
                    churn_flagged.add(p.app)
        assert len(churn_flagged) >= 2

    def test_churn_needs_room(self):
        with pytest.raises(ConfigError, match="churn"):
            simgen.plan_market(small_script(observation_days=1, permission_churn_apps=1))

    @pytest.mark.parametrize(
        "script",
        [
            MarketScript(seed=4, n_developers=100, observation_days=180, permission_churn_apps=146),
            MarketScript(seed=10, n_developers=40, observation_days=180, permission_churn_apps=20),
        ],
        ids=["seed4", "seed10"],
    )
    def test_permission_events_chain_from_the_first_snapshot(self, script, tmp_path):
        # a churn app that lacks dangerous permissions at first is given
        # some only when its pattern is injected
        truth = write_dataset(script, tmp_path)
        with open(tmp_path / "snapshots.jsonl", encoding="utf-8") as f:
            first_day = [json.loads(line) for line in itertools.islice(f, len(truth["app_ids"]))]
        first = {rec["app"]: ";".join(rec["permissions"]) for rec in first_day}
        olds = {
            app: [e["old"] for e in record["events"] if e["kind"].startswith("permissions")]
            for app, record in truth["apps"].items()
        }
        assert sum(bool(o) for o in olds.values()) > 10
        assert {app: o[0] for app, o in olds.items() if o} == {
            app: first[app] for app, o in olds.items() if o
        }
        for p in simgen.plan_market(script).apps:
            permissions = p.first.permissions
            for change in p.changes:
                if change.field == "permissions":
                    assert change.old == permissions, p.app
                    permissions = change.new

    def test_churn_skips_an_app_whose_planned_permissions_start_narrower(self):
        # widening the first set to two dangerous permissions would break
        # the chain into the planned change of day 1
        days = [DAY0 + dt.timedelta(days=i) for i in range(5)]
        held = frozenset({"CAMERA", "INTERNET", "VIBRATE"})
        plan = simgen._AppPlan(
            app="com.example.app",
            first=make_snapshot(fetch_time=0, permissions=held),
            klass=PopularityClass.POPULAR,
            stale=False,
            changes=[
                simgen._PlannedChange(
                    days[1], AttributeKind.PERMISSIONS_UP, "permissions",
                    held, held | {"ACCESS_COARSE_LOCATION"},
                )
            ],
        )
        before = copy.deepcopy(plan)
        assert not simgen._inject_permission_churn(plan, days)
        assert plan == before


class TestScamDevelopers:
    def test_clusters_in_ground_truth_and_scan(self):
        from marketpulse.anomaly import scam_pattern_scan

        script = small_script(
            scam_developers=(
                ScamDeveloperScript(developer="CloneWorks", n_clones=10, price_cents=199),
            )
        )
        market = generate(script)
        latest = {}
        for snap in market.snapshots:
            latest[snap.app] = snap
        clusters = scam_pattern_scan(latest.values())
        assert any(
            c.developer == "CloneWorks" and len(c.apps) == 10 for c in clusters
        )
        labeled = {p.app for p in market.plan.apps if p.scam_cluster == "CloneWorks"}
        scanned = next(c for c in clusters if c.developer == "CloneWorks")
        assert set(scanned.apps) == labeled

    def test_organic_developers_not_clustered(self):
        from marketpulse.anomaly import scam_pattern_scan

        market = generate(small_script(n_developers=150))
        latest = {}
        for snap in market.snapshots:
            latest[snap.app] = snap
        assert scam_pattern_scan(latest.values()) == []


class TestTopKStream:
    def _series(self, market, list_type):
        from marketpulse.store import RankedListSeries

        observations = tuple(
            o for o in market.topk if o.list_type is list_type
        )
        return RankedListSeries(list_type=list_type, observations=observations)

    def test_static_list_never_changes(self):
        script = small_script(
            topk_lists={ListType.GROSS: TopKListConfig(length=10, churn_lo=0.0, churn_hi=0.0)}
        )
        market = generate(script)
        series = self._series(market, ListType.GROSS)
        assert len({o.ranking for o in series.observations}) == 1

    def test_churn_increases_with_rank(self):
        script = small_script(
            seed=3,
            n_developers=400,
            observation_days=10,
            topk_lists={
                ListType.FREE: TopKListConfig(length=60, churn_lo=0.001, churn_hi=0.12)
            },
        )
        market = generate(script)
        series = self._series(market, ListType.FREE)
        occupancy = rank_occupancy(series)
        top_third = np.mean([occupancy[r] for r in range(1, 21)])
        bottom_third = np.mean([occupancy[r] for r in range(41, 61)])
        assert bottom_third > top_third
        lifetimes = lifetime_at_rank(series, [1, 60])
        assert np.mean(lifetimes[1]) > np.mean(lifetimes[60])

    def test_rankings_are_valid_observations(self):
        script = small_script(
            topk_lists={ListType.FREE: TopKListConfig(length=12, churn_lo=0.01, churn_hi=0.2)}
        )
        market = generate(script)
        from conftest import validate_topk

        for obs in market.topk:
            assert validate_topk(obs) == []

    def test_hourly_cadence(self):
        script = small_script(
            observation_days=2,
            topk_lists={ListType.FREE: TopKListConfig(length=5)},
        )
        market = generate(script)
        times = [o.fetch_time for o in market.topk]
        assert len(times) == 48
        assert all(b - a == 3600 for a, b in zip(times, times[1:]))


class TestMockMarket:
    def test_all_apps_reachable_from_seeds(self):
        market = generate(small_script(n_developers=260, observation_days=3))
        latest = {s.app: s for s in market.snapshots}
        mock = render_mock_market(list(latest.values()), n_seeds=5, seed=11)
        result = crawl(
            mock.seeds, DictMarket(mock.pages), CrawlConfig(workers=1, politeness_delay_ms=0)
        )
        assert result.report.snapshots_emitted == len(latest)
        assert result.report.frontier_exhausted

    def test_pages_round_trip_snapshot_fields(self):
        market = generate(small_script(n_developers=30, observation_days=3))
        latest = {s.app: s for s in market.snapshots}
        mock = render_mock_market(list(latest.values()), n_seeds=2, seed=5)
        for app, page in mock.pages.items():
            parsed = parse_page(page)
            assert parsed.snapshot == latest[app]
            assert list(parsed.similar) == mock.graph[app]

    def test_leaf_pages_allowed(self):
        market = generate(small_script(n_developers=10, observation_days=2))
        latest = {s.app: s for s in market.snapshots}
        mock = render_mock_market(list(latest.values()), n_seeds=1, seed=4, extra_links=0)
        leaves = [app for app, sim in mock.graph.items() if not sim]
        assert leaves  # tree with no extra links has leaves

    @pytest.mark.parametrize("n_seeds", [0, -3])
    def test_fewer_than_one_seed_is_a_config_error(self, n_seeds):
        market = generate(small_script(n_developers=10, observation_days=2))
        with pytest.raises(ConfigError, match=f"at least one seed, not {n_seeds}"):
            render_mock_market(market.snapshots, n_seeds=n_seeds)

    def test_slope_closure(self):
        market = generate(small_script(seed=20120401, n_developers=700, observation_days=2))
        latest = {s.app: s for s in market.snapshots}
        points = [(s.downloads.midpoint(), s.rating_count) for s in latest.values()]
        slope = downloads_ratings_slope(points)
        assert slope == pytest.approx(1.0 / 300.0, rel=0.05)


def test_scripted_price_version_coupling_drives_association():
    from marketpulse.metrics import association_matrix

    script = small_script(
        seed=31,
        n_developers=150,
        observation_days=30,
        stale_fraction=0.0,
        update_gap_model={
            klass: UpdateGapModel(1.0, 5, 10) for klass in PopularityClass
        },
        price_change_model=PriceChangeModel(
            paid_fraction=0.6, change_fraction=1.0, max_changes=3,
            down_bias=1.0, version_coupling=1.0,
        ),
    )
    market = generate(script)
    timelines = [
        build_app_timeline(series)
        for series in series_by_app(market.snapshots).values()
    ]
    matrix = association_matrix(timelines)
    q = matrix.q(AttributeKind.PRICE_DOWN, AttributeKind.VERSION_UP)
    assert q is not None and q > 0.8
