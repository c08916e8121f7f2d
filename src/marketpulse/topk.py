"""Ranked-list dynamics: lifecycle six-tuples, the inverse rank measure,
overlap statistics, rank occupancy, and lifetime-at-rank distributions.

Smaller rank numbers are better everywhere (rank 1 is the top).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InsufficientDataError, InvalidInputError
from .store import RankedListSeries


@dataclass(frozen=True)
class LifecycleSummary:
    """One app's life on one ranked list.

    debut/peak/exit are rank positions; hrs2peak and tothrs count
    observations in which the app is present (one per hour at the
    nominal cadence); rankdyn is the number of distinct ranks occupied.
    """

    app: str
    debut: int
    hrs2peak: int
    peak: int
    tothrs: int
    exit: int
    rankdyn: int


def _episode_summary(app: str, appearances: list[tuple[int, int]]) -> LifecycleSummary:
    ranks = [rank for _, rank in appearances]
    peak = min(ranks)
    first_peak_pos = ranks.index(peak)
    return LifecycleSummary(
        app=app,
        debut=ranks[0],
        hrs2peak=first_peak_pos + 1,
        peak=peak,
        tothrs=len(appearances),
        exit=ranks[-1],
        rankdyn=len(set(ranks)),
    )


def lifecycle_summaries(
    series: RankedListSeries, per_episode: bool = False
) -> list[LifecycleSummary]:
    """Six-tuple summaries for every app whose debut was observed.

    Apps already present in the first observation are excluded: their
    true debut is unobservable. By default one summary spans an app's
    whole observed life (exit and re-entry do not reset the debut);
    ``per_episode`` instead summarizes each contiguous presence run.
    """
    if len(series.observations) < 2:
        raise InsufficientDataError("need at least 2 observations")
    censored = set(series.observations[0].ranking)
    appearances: dict[str, list[tuple[int, int]]] = {}
    for n, obs in enumerate(series.observations):
        for i, app in enumerate(obs.ranking):
            if app in censored:
                continue
            appearances.setdefault(app, []).append((n, i + 1))
    summaries = []
    for app in sorted(appearances):
        runs: list[list[tuple[int, int]]]
        if per_episode:
            runs = []
            for n, rank in appearances[app]:
                if runs and runs[-1][-1][0] == n - 1:
                    runs[-1].append((n, rank))
                else:
                    runs.append([(n, rank)])
        else:
            runs = [appearances[app]]
        summaries.extend(_episode_summary(app, run) for run in runs)
    return summaries


@dataclass(frozen=True)
class SimilarityResult:
    """Inverse rank measure between two rankings: m = 1 - n_raw / n_max.

    m is 1 for identical lists and 0 for disjoint equal-length lists.
    For unequal lengths m is not proven to stay within [0, 1], so the
    raw numerator and normalizer are kept and m is never clamped.
    """

    m: float
    n_raw: float
    n_max: float


def inverse_rank_measure(
    prev_ranking: Sequence[str], next_ranking: Sequence[str]
) -> SimilarityResult:
    """Top-weighted similarity between consecutive rankings.

    Common items contribute the change in their reciprocal ranks;
    items that left or entered contribute against a virtual rank one
    past the other list's end. The normalizer is the largest value the
    numerator can attain at these two list lengths.
    """
    if not prev_ranking or not next_ranking:
        raise InvalidInputError("rankings must be non-empty")
    prev_rank = {app: i + 1 for i, app in enumerate(prev_ranking)}
    next_rank = {app: i + 1 for i, app in enumerate(next_ranking)}
    len_prev, len_next = len(prev_ranking), len(next_ranking)
    out_next = 1.0 / (len_next + 1)  # virtual rank for items that left
    out_prev = 1.0 / (len_prev + 1)  # virtual rank for items that entered
    # single accumulators in matching term order, so fully disjoint
    # equal-length lists make n_raw bit-identical to n_max (M = 0 exactly)
    n_raw = 0.0
    for app, rank in prev_rank.items():
        other = next_rank.get(app)
        if other is not None:
            n_raw += abs(1.0 / rank - 1.0 / other)
        else:
            n_raw += abs(1.0 / rank - out_next)
    for app, rank in next_rank.items():
        if app not in prev_rank:
            n_raw += abs(1.0 / rank - out_prev)
    n_max = 0.0
    for i in range(1, len_prev + 1):
        n_max += abs(1.0 / i - out_next)
    for i in range(1, len_next + 1):
        n_max += abs(1.0 / i - out_prev)
    return SimilarityResult(m=1.0 - n_raw / n_max, n_raw=n_raw, n_max=n_max)


@dataclass(frozen=True)
class OverlapStats:
    """Stability of one rank slice over a series of observations."""

    o_mean: float
    o_min: int
    m_mean: float
    m_sd: float
    o_first_last: int
    item_count: int


def overlap_stats(series: RankedListSeries, first: int, last: int) -> OverlapStats:
    """Consecutive-pair overlap and similarity within rank positions
    [first, last] (1-based, inclusive).

    Each observation is restricted to the slice and re-indexed as a
    standalone ranking before the inverse rank measure is applied.
    """
    if len(series.observations) < 2:
        raise InsufficientDataError("need at least 2 observations")
    if first < 1 or last < first:
        raise InvalidInputError(f"empty rank slice [{first}, {last}]")
    sliced = [obs.ranking[first - 1 : last] for obs in series.observations]
    if all(len(s) == 0 for s in sliced):
        raise InvalidInputError(
            f"rank slice [{first}, {last}] beyond every observation"
        )
    overlaps = []
    m_values = []
    for a, b in zip(sliced, sliced[1:]):
        overlaps.append(len(set(a) & set(b)))
        if a and b:
            m_values.append(inverse_rank_measure(a, b).m)
    m_mean = sum(m_values) / len(m_values) if m_values else float("nan")
    if m_values:
        m_sd = (sum((m - m_mean) ** 2 for m in m_values) / len(m_values)) ** 0.5
    else:
        m_sd = float("nan")
    items = set()
    for s in sliced:
        items.update(s)
    return OverlapStats(
        o_mean=sum(overlaps) / len(overlaps),
        o_min=min(overlaps),
        m_mean=m_mean,
        m_sd=m_sd,
        o_first_last=len(set(sliced[0]) & set(sliced[-1])),
        item_count=len(items),
    )


def rank_occupancy(series: RankedListSeries) -> dict[int, int]:
    """Number of distinct apps ever observed at each rank position."""
    if not series.observations:
        raise InvalidInputError("series is empty")
    occupants: dict[int, set[str]] = {}
    for obs in series.observations:
        for i, app in enumerate(obs.ranking):
            occupants.setdefault(i + 1, set()).add(app)
    return {rank: len(apps) for rank, apps in sorted(occupants.items())}


def lifetime_at_rank(
    series: RankedListSeries,
    ranks: Sequence[int],
    mode: str = "at_rank",
) -> dict[int, list[int]]:
    """Hours associated with each requested rank position, per occupant.

    In the default ``at_rank`` mode each app that ever occupied rank r
    contributes the total number of observations it spent exactly there.
    The ``list_lifetime`` mode instead credits each such app with its
    total observations anywhere on the list (the other reading of
    "lifetime of apps at a rank"). Ranks beyond the lists give empty
    distributions.
    """
    if not series.observations:
        raise InvalidInputError("series is empty")
    if mode not in ("at_rank", "list_lifetime"):
        raise InvalidInputError(f"unknown lifetime mode {mode!r}")
    wanted = set(ranks)
    if min(wanted, default=1) < 1:
        raise InvalidInputError(f"rank {min(wanted)} below 1")
    occupants: dict[int, dict[str, int]] = {r: {} for r in wanted}
    presence: dict[str, int] = {}
    for obs in series.observations:
        if mode == "list_lifetime":
            for app in obs.ranking:
                presence[app] = presence.get(app, 0) + 1
        for r in wanted:
            if r - 1 < len(obs.ranking):
                app = obs.ranking[r - 1]
                occupants[r][app] = occupants[r].get(app, 0) + 1
    if mode == "at_rank":
        return {r: sorted(per_app.values()) for r, per_app in sorted(occupants.items())}
    return {
        r: sorted(presence[app] for app in per_app)
        for r, per_app in sorted(occupants.items())
    }


def consecutive_similarity(series: RankedListSeries) -> list[tuple[int, float]]:
    """(fetch_time of the later observation, M) for each consecutive pair
    whose rankings are both non-empty: M is not defined for an empty
    ranking, and ``overlap_stats`` leaves such pairs out of its mean too."""
    if len(series.observations) < 2:
        raise InsufficientDataError("need at least 2 observations")
    return [
        (cur.fetch_time, inverse_rank_measure(prev.ranking, cur.ranking).m)
        for prev, cur in zip(series.observations, series.observations[1:])
        if prev.ranking and cur.ranking
    ]
