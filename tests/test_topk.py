import random

import pytest

from marketpulse.errors import InsufficientDataError, InvalidInputError
from marketpulse.model import ListType
from marketpulse.store import RankedListSeries
from marketpulse.topk import (
    consecutive_similarity,
    inverse_rank_measure,
    lifecycle_summaries,
    lifetime_at_rank,
    overlap_stats,
    rank_occupancy,
)

from conftest import in_unit_range, make_topk


def series_of(rankings, list_type=ListType.FREE):
    observations = tuple(
        make_topk(ranking, hour=h, list_type=list_type)
        for h, ranking in enumerate(rankings)
    )
    return RankedListSeries(list_type=list_type, observations=observations)


# --- independent oracle: direct summation over the Z/S/T partition ------------


def oracle_inverse_rank(prev: list, next: list):
    """Direct set-partition evaluation of the similarity formula."""
    rank_prev = {app: i + 1 for i, app in enumerate(prev)}
    rank_next = {app: i + 1 for i, app in enumerate(next)}
    common = set(rank_prev) & set(rank_next)
    left = set(rank_prev) - set(rank_next)
    entered = set(rank_next) - set(rank_prev)
    gone_next = 1.0 / (len(next) + 1)
    gone_prev = 1.0 / (len(prev) + 1)
    n = sum(abs(1.0 / rank_prev[i] - 1.0 / rank_next[i]) for i in sorted(common))
    n += sum(abs(1.0 / rank_prev[i] - gone_next) for i in sorted(left))
    n += sum(abs(1.0 / rank_next[i] - gone_prev) for i in sorted(entered))
    n_max = sum(abs(1.0 / i - gone_next) for i in range(1, len(prev) + 1))
    n_max += sum(abs(1.0 / i - gone_prev) for i in range(1, len(next) + 1))
    return 1.0 - n / n_max


class TestInverseRankMeasure:
    def test_identical_lists_exactly_one(self):
        for k in (1, 3, 10, 50):
            ranking = [f"a{i}" for i in range(k)]
            assert inverse_rank_measure(ranking, ranking).m == 1.0

    def test_disjoint_equal_length_exactly_zero(self):
        for k in (1, 2, 5, 24, 50):
            prev = [f"a{i}" for i in range(k)]
            cur = [f"b{i}" for i in range(k)]
            assert inverse_rank_measure(prev, cur).m == 0.0

    def test_hand_evaluated_swap(self):
        result = inverse_rank_measure(["a", "b", "c"], ["b", "a", "c"])
        assert result.n_raw == pytest.approx(1.0, abs=1e-15)
        assert result.n_max == pytest.approx(13.0 / 6.0, abs=1e-15)
        assert result.m == pytest.approx(1.0 - 6.0 / 13.0, abs=1e-12)

    def test_empty_ranking_raises(self):
        with pytest.raises(InvalidInputError):
            inverse_rank_measure([], ["a"])

    def test_matches_oracle_on_seeded_random_pairs(self):
        rng = random.Random(20120901)
        universe = [f"app{i}" for i in range(120)]
        for _ in range(1000):
            len_prev = rng.randint(1, 50)
            len_next = rng.randint(1, 50)
            overlap_bias = rng.random()
            if overlap_bias < 0.3:  # force heavy overlap
                base = rng.sample(universe, max(len_prev, len_next))
                prev = base[:len_prev]
                cur = base[:len_next]
                rng.shuffle(cur)
            else:
                prev = rng.sample(universe, len_prev)
                cur = rng.sample(universe, len_next)
            got = inverse_rank_measure(prev, cur)
            assert got.m == pytest.approx(oracle_inverse_rank(prev, cur), abs=1e-12)

    def test_equal_length_measure_stays_in_unit_range(self):
        rng = random.Random(77)
        universe = [f"app{i}" for i in range(80)]
        for _ in range(500):
            k = rng.randint(1, 40)
            base = rng.sample(universe, 2 * k)
            cut = rng.randint(0, k)
            prev = base[:k]
            cur = base[k - cut : 2 * k - cut]
            rng.shuffle(cur)
            result = inverse_rank_measure(prev, cur)
            assert in_unit_range(result)

    def test_observation_rankings(self):
        a = make_topk(["a", "b"], hour=0)
        b = make_topk(["b", "a"], hour=1)
        assert inverse_rank_measure(a.ranking, b.ranking).m == pytest.approx(
            oracle_inverse_rank(["a", "b"], ["b", "a"])
        )


class TestLifecycle:
    def test_hand_traced_summary(self):
        # app "x" present at hours 5,6,7 with ranks 10,4,7
        rankings = []
        filler = [f"f{i}" for i in range(12)]
        for h in range(5):
            rankings.append(filler)
        for rank_x, _ in ((10, None), (4, None), (7, None)):
            ranking = [a for a in filler]
            ranking.insert(rank_x - 1, "x")
            rankings.append(ranking)
        summaries = lifecycle_summaries(series_of(rankings))
        s = {s.app: s for s in summaries}["x"]
        assert (s.debut, s.peak, s.hrs2peak, s.tothrs, s.exit, s.rankdyn) == (
            10,
            4,
            2,
            3,
            7,
            3,
        )

    def test_debut_at_peak_gives_hrs2peak_one(self):
        rankings = [
            ["a", "b", "c"],
            ["x", "a", "b"],  # x debuts at rank 1, its best
            ["a", "x", "b"],
        ]
        summaries = {s.app: s for s in lifecycle_summaries(series_of(rankings))}
        assert summaries["x"].hrs2peak == 1
        assert summaries["x"].debut == 1
        assert summaries["x"].peak == 1

    def test_first_observation_apps_excluded(self):
        rankings = [["a", "b"], ["a", "x"], ["x", "a"]]
        summaries = lifecycle_summaries(series_of(rankings))
        assert {s.app for s in summaries} == {"x"}

    def test_gap_does_not_reset_debut(self):
        rankings = [
            ["a", "b"],
            ["x", "a"],  # debut rank 1
            ["a", "b"],  # x absent
            ["a", "x"],  # re-entry rank 2
        ]
        summaries = {s.app: s for s in lifecycle_summaries(series_of(rankings))}
        s = summaries["x"]
        assert (s.debut, s.tothrs, s.exit) == (1, 2, 2)

    def test_per_episode_mode(self):
        rankings = [
            ["a", "b"],
            ["x", "a"],
            ["a", "b"],
            ["a", "x"],
        ]
        episodes = lifecycle_summaries(series_of(rankings), per_episode=True)
        x_episodes = [s for s in episodes if s.app == "x"]
        assert len(x_episodes) == 2
        assert [e.debut for e in x_episodes] == [1, 2]
        assert all(e.tothrs == 1 for e in x_episodes)

    def test_tothrs_conservation(self):
        rankings = [
            ["a", "b", "c"],
            ["d", "a", "b"],
            ["d", "e", "a"],
            ["e", "d", "f"],
        ]
        series = series_of(rankings)
        summaries = lifecycle_summaries(series)
        censored = set(rankings[0])
        expected = sum(
            sum(1 for app in ranking if app not in censored) for ranking in rankings
        )
        assert sum(s.tothrs for s in summaries) == expected

    def test_rankdyn_bounded_by_tothrs(self):
        rankings = [
            [f"a{i}" for i in range(5)],
            ["b0", "a0", "a1", "a2", "a3"],
            ["a0", "b0", "b1", "a1", "a2"],
            ["b1", "b0", "a0", "b2", "a1"],
        ]
        for s in lifecycle_summaries(series_of(rankings)):
            assert s.rankdyn <= s.tothrs
            assert s.peak <= s.debut
            assert s.peak <= s.exit

    def test_needs_two_observations(self):
        with pytest.raises(InsufficientDataError):
            lifecycle_summaries(series_of([["a"]]))


class TestOverlapStats:
    def test_static_list(self):
        ranking = [f"a{i}" for i in range(30)]
        series = series_of([ranking] * 5)
        stats = overlap_stats(series, 1, 24)
        assert stats.o_mean == 24
        assert stats.o_min == 24
        assert stats.m_mean == 1.0
        assert stats.m_sd == 0.0
        assert stats.o_first_last == 24
        assert stats.item_count == 24

    def test_full_turnover(self):
        rankings = [[f"g{h}_{i}" for i in range(10)] for h in range(4)]
        stats = overlap_stats(series_of(rankings), 1, 10)
        assert stats.o_mean == 0
        assert stats.o_min == 0
        assert stats.m_mean == 0.0
        assert stats.o_first_last == 0
        assert stats.item_count == 40

    def test_slice_bounds(self):
        ranking = [f"a{i}" for i in range(30)]
        series = series_of([ranking] * 3)
        stats = overlap_stats(series, 6, 30)
        assert stats.item_count == 25
        with pytest.raises(InvalidInputError):
            overlap_stats(series, 5, 4)
        with pytest.raises(InvalidInputError):
            overlap_stats(series, 100, 120)

    def test_invariant_chain(self):
        rng = random.Random(5)
        pool = [f"p{i}" for i in range(40)]
        rankings = []
        current = pool[:20]
        for _ in range(6):
            rankings.append(list(current))
            for _ in range(3):
                current[rng.randrange(20)] = rng.choice(pool)
            seen = []
            current = [x for x in current if not (x in seen or seen.append(x))]
            while len(current) < 20:
                extra = rng.choice(pool)
                if extra not in current:
                    current.append(extra)
        stats = overlap_stats(series_of(rankings), 1, 20)
        assert 0 <= stats.o_min <= stats.o_mean <= 20


class TestOccupancy:
    def test_static_list(self):
        ranking = ["a", "b", "c"]
        occupancy = rank_occupancy(series_of([ranking] * 4))
        assert occupancy == {1: 1, 2: 1, 3: 1}

    def test_swap(self):
        occupancy = rank_occupancy(series_of([["a", "b"], ["b", "a"]]))
        assert occupancy == {1: 2, 2: 2}

    def test_empty_series_raises(self):
        with pytest.raises(InvalidInputError):
            rank_occupancy(RankedListSeries(list_type=ListType.FREE, observations=()))


class TestLifetimeAtRank:
    def test_ten_consecutive_hours(self):
        rankings = [["x", "y"]] * 10
        dist = lifetime_at_rank(series_of(rankings), [1, 2])
        assert dist[1] == [10]
        assert dist[2] == [10]

    def test_absent_rank_empty(self):
        dist = lifetime_at_rank(series_of([["a"], ["a"]]), [50])
        assert dist[50] == []

    def test_total_hours_split_across_occupants(self):
        rankings = [["a"], ["b"], ["a"], ["a"]]
        dist = lifetime_at_rank(series_of(rankings), [1])
        assert sorted(dist[1]) == [1, 3]

    def test_rank_below_one_raises(self):
        # rank 0 or -1 would read from the end of each list
        for ranks in ([0], [1, -1]):
            with pytest.raises(InvalidInputError, match="below 1"):
                lifetime_at_rank(series_of([["a", "b"]]), ranks)


def test_consecutive_similarity_static():
    ranking = [f"s{i}" for i in range(8)]
    pairs = consecutive_similarity(series_of([ranking] * 4))
    assert len(pairs) == 3
    assert all(m == 1.0 for _, m in pairs)


def test_consecutive_similarity_leaves_out_pairs_with_an_empty_ranking():
    # as overlap_stats leaves them out of m_mean
    abc = ["a", "b", "c"]
    series = series_of([abc, abc, [], abc, ["c", "b", "a"]])
    times = [obs.fetch_time for obs in series.observations]
    pairs = consecutive_similarity(series)
    assert [t for t, _ in pairs] == [times[1], times[4]]
    assert pairs[0][1] == 1.0 and pairs[1][1] < 1.0
    assert consecutive_similarity(series_of([[], abc, [], abc])) == []
    assert overlap_stats(series_of([[], abc, [], abc]), 1, 3).o_mean == 0


def test_lifetime_list_mode_counts_whole_presence():
    rankings = [["a", "b"], ["b", "a"], ["a", "c"]]
    at_rank = lifetime_at_rank(series_of(rankings), [1])
    whole = lifetime_at_rank(series_of(rankings), [1], mode="list_lifetime")
    assert at_rank[1] == [1, 2]  # a held rank 1 twice, b once
    assert whole[1] == [2, 3]  # b present 2 hours total, a present 3

    with pytest.raises(InvalidInputError):
        lifetime_at_rank(series_of(rankings), [1], mode="bogus")
