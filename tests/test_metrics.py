import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from marketpulse.errors import (
    DegenerateTailError,
    InsufficientDataError,
    InvalidInputError,
)
from marketpulse.metrics import (
    ASSOCIATION_KINDS,
    AttributeEventSet,
    Staleness,
    association_matrix,
    classify_popularity,
    classify_staleness,
    downloads_ratings_slope,
    fit_power_law,
    median_price_split,
    price_change_ccdf,
    price_dispersion_cov,
    seasonal_trend_decompose,
    update_stats,
    yule_association,
    yule_q,
)
from marketpulse.model import AttributeKind, DownloadBucket, PopularityClass
from marketpulse.timeline import AppTimeline, ChangeEvent

from conftest import DAY0, scan_x_min


class TestStaleness:
    REF = dt.date(2012, 11, 1)

    def _gap(self, days):
        return classify_staleness(self.REF - dt.timedelta(days=days), self.REF, 365)

    def test_gap_364_active(self):
        assert self._gap(364).status is Staleness.ACTIVE

    def test_gap_365_active_inclusive_window(self):
        assert self._gap(365).status is Staleness.ACTIVE

    def test_gap_366_stale(self):
        assert self._gap(366).status is Staleness.STALE

    def test_future_last_updated_raises(self):
        with pytest.raises(InvalidInputError):
            classify_staleness(self.REF + dt.timedelta(days=1), self.REF)


class TestPopularity:
    def test_thresholds(self):
        assert classify_popularity(DownloadBucket(500, 1000)) is PopularityClass.UNPOPULAR
        assert classify_popularity(DownloadBucket(1_000, 5_000)) is PopularityClass.POPULAR
        assert (
            classify_popularity(DownloadBucket(100_000, 500_000))
            is PopularityClass.MOST_POPULAR
        )

    def test_boundary_is_half_open(self):
        assert classify_popularity(DownloadBucket(999, 1000)) is PopularityClass.UNPOPULAR
        assert classify_popularity(DownloadBucket(99_999, 100_000)) is PopularityClass.POPULAR

    @given(st.integers(min_value=0, max_value=10**9))
    def test_total_function_partition(self, lo):
        klass = classify_popularity(DownloadBucket(lo, lo + 1))
        assert klass in (
            PopularityClass.UNPOPULAR,
            PopularityClass.POPULAR,
            PopularityClass.MOST_POPULAR,
        )


def _timeline_with_updates(days):
    return AppTimeline(app="com.x", events=(), update_days=tuple(days))


class TestUpdateStats:
    def test_uniform_gaps(self):
        days = [DAY0 + dt.timedelta(days=d) for d in (0, 10, 20)]
        stats = update_stats(_timeline_with_updates(days))
        assert stats.update_count == 3
        assert stats.aui_days == 10.0

    def test_single_update_no_aui(self):
        stats = update_stats(_timeline_with_updates([DAY0]))
        assert stats.update_count == 1
        assert stats.aui_days is None

    def test_scripted_gaps(self):
        days = [DAY0]
        for gap in (7, 14, 21):
            days.append(days[-1] + dt.timedelta(days=gap))
        stats = update_stats(_timeline_with_updates(days))
        assert stats.update_count == 4
        assert stats.aui_days == 14.0


class TestPriceChangeCcdf:
    def test_hand_example(self):
        series = price_change_ccdf([0, 0, 1, 2, 5])
        assert series[0] == (0, math.sqrt(3))
        assert series[-1] == (5, 0.0)

    def test_all_zeros(self):
        assert price_change_ccdf([0, 0, 0]) == [(0, 0.0)]

    def test_empty(self):
        assert price_change_ccdf([]) == []

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=50))
    def test_monotone_non_increasing(self, counts):
        ys = [y for _, y in price_change_ccdf(counts)]
        assert all(a >= b for a, b in zip(ys, ys[1:]))


class TestPriceDispersion:
    def test_constant_prices(self):
        assert price_dispersion_cov([500, 500, 500]) == 0.0

    def test_hand_computation(self):
        # mean 2, population sigma 1
        assert price_dispersion_cov([1, 3]) == pytest.approx(0.5)

    def test_empty_is_undefined(self):
        assert price_dispersion_cov([]) is None

    def test_all_zero_is_undefined(self):
        assert price_dispersion_cov([0, 0]) is None

    def test_negative_raises(self):
        with pytest.raises(InvalidInputError):
            price_dispersion_cov([-1, 5])


class TestMedianSplit:
    def test_all_vs_active(self):
        reference = dt.date(2012, 11, 1)
        stale_date = reference - dt.timedelta(days=800)
        fresh_date = reference - dt.timedelta(days=10)
        priced = [
            (99, stale_date),
            (99, stale_date),
            (99, stale_date),
            (131, fresh_date),
            (131, fresh_date),
        ]
        medians = median_price_split(priced, reference)
        assert medians.all_paid_cents == 99
        assert medians.active_paid_cents == 131


class TestDecomposition:
    def test_constant_series(self):
        x = [5.0] * 30
        decomposition = seasonal_trend_decompose(x, period=7)
        interior = slice(3, 27)
        assert np.allclose(decomposition.trend[interior], 5.0)
        assert np.allclose(decomposition.seasonal, 0.0, atol=1e-12)
        assert np.allclose(decomposition.remainder[interior], 0.0, atol=1e-12)

    def test_linear_plus_periodic_interior_remainder(self):
        period = 7
        n = 70
        t = np.arange(n)
        seasonal_true = np.array([3.0, -1.0, 0.5, 2.0, -2.5, 1.0, -3.0])
        x = 0.3 * t + 10 + seasonal_true[t % period]
        decomposition = seasonal_trend_decompose(x, period)
        interior = ~np.isnan(decomposition.trend)
        assert np.abs(decomposition.remainder[interior]).max() < 1e-9

    def test_even_period(self):
        period = 4
        n = 32
        t = np.arange(n)
        seasonal_true = np.array([1.0, -2.0, 3.0, -2.0])
        x = 0.5 * t + seasonal_true[t % period]
        decomposition = seasonal_trend_decompose(x, period)
        interior = ~np.isnan(decomposition.trend)
        assert np.abs(decomposition.remainder[interior]).max() < 1e-9
        assert np.isnan(decomposition.trend[:2]).all()
        assert np.isnan(decomposition.trend[-2:]).all()

    def test_seasonal_zero_sum(self):
        rng = np.random.default_rng(3)
        x = rng.random(40) * 10
        decomposition = seasonal_trend_decompose(x, period=5)
        assert abs(decomposition.seasonal[: decomposition.period].sum()) < 1e-9

    def test_exact_reconstruction_where_trend_defined(self):
        rng = np.random.default_rng(4)
        x = rng.random(45) * 3 + np.arange(45) * 0.1
        decomposition = seasonal_trend_decompose(x, period=9)
        mask = ~np.isnan(decomposition.trend)
        recomposed = (
            decomposition.trend[mask] + decomposition.seasonal[mask]
        ) + decomposition.remainder[mask]
        assert np.array_equal(recomposed, decomposition.observed[mask])

    def test_edge_gap_width(self):
        decomposition = seasonal_trend_decompose(np.arange(30.0), period=7)
        assert np.isnan(decomposition.trend[:3]).all()
        assert not np.isnan(decomposition.trend[3])

    def test_too_short_raises(self):
        with pytest.raises(InsufficientDataError):
            seasonal_trend_decompose([1.0] * 13, period=7)


class TestPowerLaw:
    def test_hand_computed_mle(self):
        fit = fit_power_law([1, 1, 1, 2, 3], x_min=1.0)
        expected = 1 + 5 / (math.log(2) + math.log(3))
        assert fit.alpha == pytest.approx(expected, abs=1e-9)
        assert fit.n_tail == 5

    def test_degenerate_tail(self):
        with pytest.raises(DegenerateTailError):
            fit_power_law([4.0, 4.0, 4.0], x_min=4.0)

    @pytest.mark.parametrize("x_min", [-1.0, 0.0, math.nan, math.inf])
    def test_x_min_not_positive_and_finite_is_rejected(self, x_min):
        with pytest.raises(InvalidInputError, match="x_min must be positive and finite"):
            fit_power_law([1.0, 2.0, 3.0], x_min=x_min)

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            fit_power_law([5.0], x_min=1.0)

    def test_sampling_oracle_recovers_alpha(self):
        # inverse-CDF oracle: x = xmin * (1-u)^(-1/(alpha-1))
        rng = np.random.default_rng(12345)
        u = rng.random(100_000)
        samples = (1.0 - u) ** (-1.0 / 1.5)  # alpha = 2.5, xmin = 1
        fit = fit_power_law(samples, x_min=1.0)
        assert 2.45 <= fit.alpha <= 2.55
        assert fit.ks_distance < 0.01

    def test_alpha_tracks_tail_heaviness(self):
        # heavier tails (smaller true alpha) give smaller estimates
        rng = np.random.default_rng(7)
        u = rng.random(20_000)
        estimates = []
        for true_alpha in (1.8, 2.5, 3.5):
            samples = (1.0 - u) ** (-1.0 / (true_alpha - 1.0))
            estimates.append(fit_power_law(samples, x_min=1.0).alpha)
        assert estimates == sorted(estimates)
        assert all(a > 1.0 for a in estimates)

    def test_ks_distance_within_unit_interval(self):
        rng = np.random.default_rng(9)
        samples = (1.0 - rng.random(500)) ** (-1.0 / 1.4)
        fit = fit_power_law(samples, x_min=1.0)
        assert 0.0 <= fit.ks_distance <= 1.0

    def test_scan_x_min_prefers_true_cutoff(self):
        # power law only above x=5; noise below
        rng = np.random.default_rng(21)
        tail = 5.0 * (1.0 - rng.random(4000)) ** (-1.0 / 1.5)
        body = rng.uniform(1.0, 5.0, 6000)
        fit = scan_x_min(np.concatenate([body, tail]), min_tail=100)
        assert fit.x_min >= 4.0
        assert fit.alpha == pytest.approx(2.5, abs=0.15)


class TestSlope:
    def test_exact_line(self):
        points = [(x, 0.5 * x) for x in (1.0, 2.0, 10.0)]
        assert downloads_ratings_slope(points) == pytest.approx(0.5)

    def test_all_zero_x_undefined(self):
        assert downloads_ratings_slope([(0.0, 1.0), (0.0, 2.0)]) is None

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            downloads_ratings_slope([(1.0, 2.0)])


class TestYule:
    def test_perfect_positive(self):
        assert yule_q(9, 0, 0, 1) == 1.0

    def test_perfect_negative(self):
        assert yule_q(0, 3, 2, 0) == -1.0

    def test_hand_example(self):
        assert yule_q(3, 1, 1, 3) == pytest.approx(0.8)

    def test_undefined(self):
        assert yule_q(0, 5, 0, 0) is None

    def test_set_form_matches_counts(self):
        universe = frozenset(range(10))
        a = AttributeEventSet(AttributeKind.PRICE_UP, frozenset({0, 1, 2, 3}))
        b = AttributeEventSet(AttributeKind.VERSION_UP, frozenset({2, 3, 4, 5}))
        # a=2 (2,3), b=2 (0,1), c=2 (4,5), d=4
        assert yule_association(a, b, universe) == pytest.approx(
            yule_q(2, 2, 2, 4)
        )

    def test_not_subset_raises(self):
        a = AttributeEventSet(AttributeKind.PRICE_UP, frozenset({99}))
        b = AttributeEventSet(AttributeKind.PRICE_DOWN, frozenset())
        with pytest.raises(InvalidInputError):
            yule_association(a, b, frozenset({1, 2}))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_symmetry_and_bounds(self, data):
        universe = frozenset(range(40))
        members_a = frozenset(data.draw(st.sets(st.integers(0, 39), max_size=40)))
        members_b = frozenset(data.draw(st.sets(st.integers(0, 39), max_size=40)))
        a = AttributeEventSet(AttributeKind.PRICE_UP, members_a)
        b = AttributeEventSet(AttributeKind.PRICE_DOWN, members_b)
        q_ab = yule_association(a, b, universe)
        q_ba = yule_association(b, a, universe)
        assert q_ab == q_ba
        if q_ab is not None:
            assert -1.0 <= q_ab <= 1.0

    def test_self_association_is_one(self):
        universe = frozenset(range(10))
        a = AttributeEventSet(AttributeKind.PRICE_UP, frozenset({1, 2}))
        assert yule_association(a, a, universe) == 1.0


def _event(app, day_offset, kind):
    return ChangeEvent(
        app=app, day=DAY0 + dt.timedelta(days=day_offset), kind=kind, old=1, new=2
    )


class TestAssociationMatrix:
    def test_mutually_exclusive_pairs_give_minus_one(self):
        timelines = [
            AppTimeline(
                app="com.a",
                events=(
                    _event("com.a", 1, AttributeKind.PRICE_UP),
                    _event("com.a", 2, AttributeKind.PRICE_DOWN),
                ),
                update_days=(),
            ),
            AppTimeline(
                app="com.b",
                events=(
                    _event("com.b", 1, AttributeKind.PRICE_DOWN),
                    _event("com.b", 3, AttributeKind.PERMISSIONS_UP),
                    _event("com.b", 4, AttributeKind.PERMISSIONS_DOWN),
                ),
                update_days=(),
            ),
        ]
        matrix = association_matrix(timelines)
        assert matrix.q(AttributeKind.PRICE_UP, AttributeKind.PRICE_DOWN) == -1.0
        assert (
            matrix.q(AttributeKind.PERMISSIONS_UP, AttributeKind.PERMISSIONS_DOWN)
            == -1.0
        )

    def test_matrix_symmetric(self):
        timelines = [
            AppTimeline(
                app=f"com.a{i}",
                events=(
                    _event(f"com.a{i}", i, AttributeKind.PRICE_DOWN),
                    _event(f"com.a{i}", i, AttributeKind.VERSION_UP),
                ),
                update_days=(),
            )
            for i in range(5)
        ]
        matrix = association_matrix(timelines)
        for ka in ASSOCIATION_KINDS:
            for kb in ASSOCIATION_KINDS:
                assert matrix.q(ka, kb) == matrix.q(kb, ka)

    def test_coupled_events_associate_positively(self):
        # version bumps always co-occur with price decreases; add some
        # independent tuples so neither set covers the universe
        timelines = []
        for i in range(20):
            events = [
                _event(f"com.c{i}", 1, AttributeKind.PRICE_DOWN),
                _event(f"com.c{i}", 1, AttributeKind.VERSION_UP),
                _event(f"com.c{i}", 2, AttributeKind.DOWNLOADS_UP),
            ]
            timelines.append(
                AppTimeline(app=f"com.c{i}", events=tuple(events), update_days=())
            )
        matrix = association_matrix(timelines)
        assert matrix.q(AttributeKind.PRICE_DOWN, AttributeKind.VERSION_UP) == 1.0

    def test_universe_is_changed_tuples(self):
        timelines = [
            AppTimeline(
                app="com.a",
                events=(_event("com.a", 1, AttributeKind.PRICE_UP),),
                update_days=(),
            )
        ]
        matrix = association_matrix(timelines)
        assert matrix.universe_size == 1
