import datetime as dt
import statistics
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import marketpulse
from marketpulse.anomaly import (
    DangerousPermissionPolicy,
    Polarity,
    PermissionFlagKind,
    ScamParams,
    SpikeEvent,
    SpikeParams,
    detect_review_spikes,
    join_external_flags,
    permission_flags,
    permission_version_decoupling_rate,
    scam_pattern_scan,
)
from marketpulse.errors import ConfigError, ParseError
from marketpulse.model import AttributeKind
from marketpulse.timeline import (
    AppTimeline,
    ChangeEvent,
    DayReviewCounts,
    ReviewTimeline,
)

from conftest import DAY0, make_snapshot, reference_scam_scan


def day(n):
    return DAY0 + dt.timedelta(days=n)


def review_timeline(counts_by_offset, polarity="positive"):
    days = []
    for offset, count in sorted(counts_by_offset.items()):
        pos = count if polarity == "positive" else 0
        neg = count if polarity == "negative" else 0
        days.append(DayReviewCounts(day=day(offset), positive=pos, negative=neg, neutral=0))
    return ReviewTimeline(app="com.x", days=days and tuple(days) or ())


class TestSpikes:
    def test_flat_with_one_burst(self):
        counts = {i: 10 for i in range(60)}
        counts[40] = 200
        spikes = detect_review_spikes(review_timeline(counts))
        assert [(s.day, s.polarity) for s in spikes] == [(day(40), Polarity.POSITIVE)]
        spike = spikes[0]
        assert spike.count == 200
        assert spike.baseline == 10
        assert spike.score == 20.0

    def test_all_zero_no_spikes(self):
        assert detect_review_spikes(review_timeline({i: 0 for i in range(30)})) == []

    def test_empty_timeline(self):
        assert detect_review_spikes(ReviewTimeline(app="com.x", days=())) == []

    def test_sustained_low_with_bursts(self):
        # the qualitative regime: long low-volume stretches, >200/day bursts
        counts = {i: 10 + (i % 7) for i in range(90)}
        for burst_day in (20, 21, 55):
            counts[burst_day] = 230
        spikes = detect_review_spikes(review_timeline(counts))
        assert {s.day for s in spikes} == {day(20), day(21), day(55)}

    def test_prefix_days_use_bare_floor(self):
        # day 0 has no trailing window: only the absolute floor applies,
        # and a constant window keeps MAD at 0, so counts at the median
        # and above the floor stay flagged on every later day too
        counts = {i: 30 for i in range(40)}
        spikes = detect_review_spikes(review_timeline(counts))
        assert [s.day for s in spikes] == [day(i) for i in range(40)]
        below_floor = detect_review_spikes(review_timeline({i: 19 for i in range(40)}))
        assert below_floor == []

    def test_min_abs_floor(self):
        # small counts never spike below the absolute floor
        counts = {i: 0 for i in range(40)}
        counts[20] = 19
        assert detect_review_spikes(review_timeline(counts)) == []
        counts[20] = 20
        assert len(detect_review_spikes(review_timeline(counts))) == 1

    def test_negative_polarity(self):
        counts = {i: 2 for i in range(50)}
        counts[30] = 25
        spikes = detect_review_spikes(review_timeline(counts, polarity="negative"))
        assert [(s.day, s.polarity) for s in spikes] == [(day(30), Polarity.NEGATIVE)]

    def test_monotone_in_count(self):
        counts = {i: 10 for i in range(60)}
        counts[40] = 60
        base_spikes = detect_review_spikes(review_timeline(counts))
        assert day(40) in {s.day for s in base_spikes}
        counts[40] = 61
        raised = detect_review_spikes(review_timeline(counts))
        assert day(40) in {s.day for s in raised}

    def test_gap_days_count_as_zero(self):
        # sparse timeline: days between entries are implicit zeros
        counts = {0: 10, 45: 25}
        spikes = detect_review_spikes(review_timeline(counts))
        assert {s.day for s in spikes} == {day(45)}

    def test_window_excludes_candidate_day(self):
        # a lone huge day cannot raise its own threshold
        counts = {i: 0 for i in range(35)}
        counts[34] = 1000
        spikes = detect_review_spikes(review_timeline(counts))
        assert {s.day for s in spikes} == {day(34)}

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            SpikeParams(window_days=0)
        for mad_k in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="^invalid spike detection parameters$"):
                SpikeParams(mad_k=mad_k)

    @settings(max_examples=200, deadline=None)
    @given(
        counts=st.lists(
            st.tuples(st.sampled_from([0, 0, 1, 2, 3, 20, 25]), st.integers(0, 40)),
            max_size=70,
        ),
        window_days=st.integers(1, 10),
        mad_k=st.sampled_from([0.0, 0.5, 5.0]),
        min_abs=st.sampled_from([0, 1, 2, 20]),
    )
    def test_spikes_equal_the_window_statistics_of_every_day(
        self, counts, window_days, mad_k, min_abs
    ):
        # few distinct counts, so windows hold ties; gaps are zero days
        timeline = ReviewTimeline(
            app="com.x",
            days=tuple(
                DayReviewCounts(day=day(2 * i), positive=pos, negative=neg, neutral=0)
                for i, (pos, neg) in enumerate(counts)
            ),
        )
        params = SpikeParams(window_days=window_days, mad_k=mad_k, min_abs=min_abs)
        assert detect_review_spikes(timeline, params) == _reference_spikes(timeline, params)


def _dense_daily_counts(timeline):
    """(day, positive, negative) for every day from first to last, zeros filled."""
    if not timeline.days:
        return []
    by_day = {d.day: (d.positive, d.negative) for d in timeline.days}
    first = timeline.days[0].day
    last = timeline.days[-1].day
    out = []
    day = first
    while day <= last:
        pos, neg = by_day.get(day, (0, 0))
        out.append((day, pos, neg))
        day += dt.timedelta(days=1)
    return out


def _reference_spikes(timeline, params):
    """``detect_review_spikes`` computing the window median and MAD of every
    day, spike or not."""
    dense = _dense_daily_counts(timeline)
    spikes = []
    for polarity, column in ((Polarity.POSITIVE, 1), (Polarity.NEGATIVE, 2)):
        counts = [row[column] for row in dense]
        for i, (spike_day, *_) in enumerate(dense):
            count = counts[i]
            window = counts[max(0, i - params.window_days) : i]
            if window:
                baseline = statistics.median(window)
                mad = statistics.median([abs(v - baseline) for v in window])
            else:
                baseline, mad = 0.0, 0.0
            threshold = max(params.min_abs, baseline + params.mad_k * mad)
            if count >= threshold and count > 0:
                spikes.append(
                    SpikeEvent(
                        app=timeline.app,
                        day=spike_day,
                        polarity=polarity,
                        count=count,
                        baseline=float(baseline),
                        score=count / max(baseline, 1.0),
                    )
                )
    spikes.sort(key=lambda s: (s.day, s.polarity.value))
    return spikes


def _perm_event(offset, old, new):
    kind = (
        AttributeKind.PERMISSIONS_UP
        if len(new) > len(old)
        else AttributeKind.PERMISSIONS_DOWN
    )
    return ChangeEvent(
        app="com.x", day=day(offset), kind=kind, old=frozenset(old), new=frozenset(new)
    )


def _version_event(offset):
    return ChangeEvent(
        app="com.x",
        day=day(offset),
        kind=AttributeKind.VERSION_UP,
        old="1.0",
        new="1.1",
    )


def timeline_of(*events):
    return AppTimeline(app="com.x", events=tuple(events), update_days=())


POLICY = DangerousPermissionPolicy(dangerous=frozenset({"CAMERA", "READ_SMS"}))


class TestPermissionFlags:
    def test_remove_then_readd_next_day(self):
        events = [
            _perm_event(3, {"CAMERA", "READ_SMS", "X"}, {"X"}),
            _perm_event(4, {"X"}, {"CAMERA", "READ_SMS", "X"}),
        ]
        flags = permission_flags(timeline_of(*events), POLICY)
        kinds = [f.kind for f in flags]
        assert PermissionFlagKind.CHURN_WITHIN_WINDOW in kinds
        churn = [f for f in flags if f.kind is PermissionFlagKind.CHURN_WITHIN_WINDOW][0]
        assert churn.detail == ("CAMERA", "READ_SMS")
        assert churn.day == day(4)

    def test_readd_outside_window_not_churn(self):
        events = [
            _perm_event(3, {"CAMERA", "X"}, {"X"}),
            _perm_event(20, {"X"}, {"CAMERA", "X"}),
        ]
        flags = permission_flags(timeline_of(*events), POLICY, churn_window_days=7)
        assert PermissionFlagKind.CHURN_WITHIN_WINDOW not in {f.kind for f in flags}

    def test_change_without_version_change(self):
        events = [_perm_event(3, {"X"}, {"X", "Y"})]
        flags = permission_flags(timeline_of(*events), POLICY)
        assert [f.kind for f in flags] == [
            PermissionFlagKind.CHANGE_WITHOUT_VERSION_CHANGE
        ]

    def test_change_with_version_change_not_flagged(self):
        events = [_version_event(3), _perm_event(3, {"X"}, {"X", "Y"})]
        flags = permission_flags(timeline_of(*events), POLICY)
        assert flags == []

    def test_dangerous_added(self):
        events = [_version_event(5), _perm_event(5, {"X"}, {"X", "CAMERA"})]
        flags = permission_flags(timeline_of(*events), POLICY)
        assert [f.kind for f in flags] == [PermissionFlagKind.DANGEROUS_ADDED]
        assert flags[0].detail == ("CAMERA",)

    def test_no_permission_events_no_flags(self):
        assert permission_flags(timeline_of(_version_event(1)), POLICY) == []

    def test_empty_policy_raises(self):
        with pytest.raises(ConfigError):
            permission_flags(timeline_of(), DangerousPermissionPolicy(frozenset()))

    def test_default_policy_loads(self):
        policy = DangerousPermissionPolicy.default()
        assert "CAMERA" in policy.dangerous
        assert len(policy.dangerous) >= 10
        packaged = Path(marketpulse.__file__).parent / "data" / "dangerous_permissions.txt"
        assert policy == DangerousPermissionPolicy.load(packaged)

    def test_policy_file_load(self, tmp_path):
        p = tmp_path / "policy.txt"
        p.write_text("# comment\nFOO\nBAR\n\n")
        policy = DangerousPermissionPolicy.load(p)
        assert policy.dangerous == frozenset({"FOO", "BAR"})

    def test_pure_function_reproducible(self):
        events = [
            _perm_event(3, {"CAMERA", "X"}, {"X"}),
            _perm_event(4, {"X"}, {"CAMERA", "X"}),
        ]
        timeline = timeline_of(*events)
        assert permission_flags(timeline, POLICY) == permission_flags(timeline, POLICY)


class TestDecouplingRate:
    def test_all_coupled(self):
        timelines = [
            timeline_of(_version_event(3), _perm_event(3, {"X"}, {"X", "Y"}))
        ]
        assert permission_version_decoupling_rate(timelines) == 0.0

    def test_no_version_changes_at_all(self):
        timelines = [timeline_of(_perm_event(3, {"X"}, {"X", "Y"}))]
        assert permission_version_decoupling_rate(timelines) == 1.0

    def test_no_permission_events_undefined(self):
        assert permission_version_decoupling_rate([timeline_of(_version_event(1))]) is None

    def test_mixed_rate(self):
        timelines = [
            timeline_of(_version_event(1), _perm_event(1, {"X"}, {"X", "Y"})),
            timeline_of(_perm_event(2, {"X"}, {"X", "Y"})),
            timeline_of(_version_event(3), _perm_event(3, {"X"}, {"X", "Z"})),
            timeline_of(_perm_event(4, {"X", "Y"}, {"X"})),
        ]
        assert permission_version_decoupling_rate(timelines) == 0.5


class TestScamScan:
    def _clone(self, i, developer="CloneWorks", price=199, base=None):
        base = base or f"{developer} Premium Puzzle Mania Deluxe Edition"
        return make_snapshot(
            app=f"com.scam.c{i:02d}",
            title=f"{base} {i + 1:02d}",
            developer=developer,
            price_cents=price,
        )

    def test_near_identical_titles_cluster(self):
        # the bare title shares fewer trigrams: the clones must still link
        for base in (None, "Premium Puzzle Mania Deluxe Edition"):
            snaps = [self._clone(i, base=base) for i in range(10)]
            clusters = scam_pattern_scan(snaps)
            assert len(clusters) == 1
            cluster = clusters[0]
            assert cluster.developer == "CloneWorks"
            assert len(cluster.apps) == 10
            assert cluster.price_mean_cents == 199

    def test_dissimilar_free_apps_no_cluster(self):
        titles = [
            "Alpha Weather Station",
            "Bravo Racing Legends",
            "Charlie Note Keeper",
            "Delta Photo Studio",
            "Echo Music Box",
            "Foxtrot Budget Planner",
            "Golf Recipe Book",
            "Hotel Quiz Night",
            "India Task List",
            "Juliet Cloud Sync",
        ]
        snaps = [
            make_snapshot(
                app=f"com.free.a{i}", title=t, developer="FreeWorks", price_cents=0
            )
            for i, t in enumerate(titles)
        ]
        assert scam_pattern_scan(snaps) == []

    def test_below_min_cluster(self):
        snaps = [self._clone(i) for i in range(2)]
        assert scam_pattern_scan(snaps) == []

    def test_price_band_filter(self):
        snaps = [self._clone(i, price=999) for i in range(10)]
        assert scam_pattern_scan(snaps) == []
        assert len(scam_pattern_scan(snaps, ScamParams(price_band_cents=(500, 2000)))) == 1

    def test_clusters_isolated_per_developer(self):
        snaps = [self._clone(i, developer="DevA") for i in range(5)]
        snaps += [self._clone(i, developer="DevB") for i in range(5)]
        clusters = scam_pattern_scan(snaps)
        assert sorted(c.developer for c in clusters) == ["DevA", "DevB"]

    def test_an_app_linked_only_to_a_grouped_app_joins_the_group(self):
        # c0 links c1 and c2; c3 links only c1, a pair the scan reaches
        # after c1 and c2 are already grouped
        titles = [
            "puzzle mania puzzle mania",
            "mania puzzle zap mania",
            "mania zap puzzle",
            "mania puzzle deluxe zap",
        ]
        snaps = [
            make_snapshot(app=f"com.c{i}", title=title, developer="Dev", price_cents=199)
            for i, title in enumerate(titles)
        ]
        params = ScamParams(min_cluster=4, title_similarity=0.5)
        clusters = scam_pattern_scan(snaps, params)
        assert [c.apps for c in clusters] == [("com.c0", "com.c1", "com.c2", "com.c3")]
        assert clusters == reference_scam_scan(snaps, params)

    @settings(max_examples=300, deadline=None)
    @given(
        titles=st.lists(
            st.tuples(
                st.sampled_from(["Dev A", "Dev B"]),
                st.one_of(
                    # clone-like: titles from a few shared words, so that
                    # pairs link in chains as well as in cliques
                    st.lists(
                        st.sampled_from(["puzzle", "mania", "pro", "zap", "deluxe"]),
                        min_size=1,
                        max_size=4,
                    ).map(" ".join),
                    # distinct: free text
                    st.text("abcdefgh ", max_size=12),
                ),
                # mostly within the default band of 100-299 cents
                st.sampled_from([0, 150, 199, 299, 450]),
            ),
            max_size=24,
        ),
        min_cluster=st.integers(1, 5),
        similarity=st.sampled_from([0.0, 0.3, 0.5, 0.6, 0.8, 1.0]),
    )
    def test_skipping_linked_pairs_gives_the_clusters_of_the_full_scan(
        self, titles, min_cluster, similarity
    ):
        snaps = [
            make_snapshot(app=f"com.c{i:02d}", title=title, developer=dev, price_cents=price)
            for i, (dev, title, price) in enumerate(titles)
        ]
        params = ScamParams(min_cluster=min_cluster, title_similarity=similarity)
        assert scam_pattern_scan(snaps, params) == reference_scam_scan(snaps, params)


class TestExternalFlags:
    def test_selection_rule(self):
        rows = ["app,flag_count", "com.a,3", "com.b,2", "com.c,5"]
        counts = {"com.a": 12, "com.b": 50, "com.c": 4}
        joined = join_external_flags(rows, counts)
        selected = {f.app: f.selected for f in joined}
        assert selected == {"com.a": True, "com.b": False, "com.c": False}

    def test_no_header_accepted(self):
        joined = join_external_flags(["com.a,4"], {"com.a": 11})
        assert joined[0].selected

    def test_malformed_row_raises_with_line(self):
        with pytest.raises(ParseError) as exc:
            join_external_flags(["com.a,4", "com.b,notanumber"], {})
        assert exc.value.line_no == 2

    def test_wrong_column_count(self):
        with pytest.raises(ParseError):
            join_external_flags(["com.a,4,9"], {})

    def test_csv_file(self, tmp_path):
        p = tmp_path / "flags.csv"
        p.write_text("app,flag_count\ncom.a,3\n")
        joined = join_external_flags(p, {"com.a": 10})
        assert joined[0].selected
