"""Fraud and malware indicators: review spikes, permission-timeline flags,
scam-clone clusters, and external scan-flag joins.

All detectors are pure functions of their inputs; thresholds are explicit
parameters, not tuned claims.
"""

from __future__ import annotations

import csv
import datetime as dt
import statistics
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable

from .errors import ConfigError, ParseError
from .model import AppSnapshot, AttributeKind
from .timeline import AppTimeline, ReviewTimeline


class Polarity(str, Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class SpikeParams:
    """A day spikes when its count >= max(min_abs, median + mad_k * MAD)
    over the trailing window of that polarity's daily counts."""

    window_days: int = 30
    mad_k: float = 5.0
    min_abs: int = 20

    def __post_init__(self):
        if self.window_days < 1 or not 0 <= self.mad_k < float("inf") or self.min_abs < 0:
            raise ConfigError("invalid spike detection parameters")


@dataclass(frozen=True)
class SpikeEvent:
    app: str
    day: dt.date
    polarity: Polarity
    count: int
    baseline: float  # trailing-window median
    score: float  # count / max(baseline, 1)


def detect_review_spikes(
    timeline: ReviewTimeline, params: SpikeParams = SpikeParams()
) -> list[SpikeEvent]:
    """Days whose positive or negative review count breaks out of the
    trailing window's median + k * MAD envelope (absolute floor min_abs).

    The window excludes the candidate day itself; early days use the
    available prefix, so the very first day is tested against the bare
    min_abs floor.
    """
    if not timeline.days:
        return []
    first = timeline.days[0].day.toordinal()
    size = timeline.days[-1].day.toordinal() - first + 1
    positive, negative = [0] * size, [0] * size
    for d in timeline.days:
        offset = d.day.toordinal() - first
        positive[offset], negative[offset] = d.positive, d.negative
    spikes = []
    for polarity, counts in ((Polarity.POSITIVE, positive), (Polarity.NEGATIVE, negative)):
        for i, count in enumerate(counts):
            if count <= 0 or count < params.min_abs:
                # below the threshold whatever the window holds
                continue
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
                        day=dt.date.fromordinal(first + i),
                        polarity=polarity,
                        count=count,
                        baseline=float(baseline),
                        score=count / max(baseline, 1.0),
                    )
                )
    spikes.sort(key=lambda s: (s.day, s.polarity.value))
    return spikes


# --- permission flags ----------------------------------------------------------


class PermissionFlagKind(str, Enum):
    DANGEROUS_ADDED = "DangerousAdded"
    CHURN_WITHIN_WINDOW = "ChurnWithinWindow"
    CHANGE_WITHOUT_VERSION_CHANGE = "ChangeWithoutVersionChange"


@dataclass(frozen=True)
class PermissionFlag:
    app: str
    day: dt.date
    kind: PermissionFlagKind
    detail: tuple[str, ...]  # permission names involved, sorted


@dataclass(frozen=True)
class DangerousPermissionPolicy:
    """Names classified as dangerous, loaded from a one-per-line config file."""

    dangerous: frozenset[str] = field(default_factory=frozenset)

    @classmethod
    def load(cls, path: Path | str) -> "DangerousPermissionPolicy":
        return cls._parse(Path(path).read_text(encoding="utf-8"))

    @classmethod
    def default(cls) -> "DangerousPermissionPolicy":
        return cls._parse(
            resources.files("marketpulse.data")
            .joinpath("dangerous_permissions.txt")
            .read_text(encoding="utf-8")
        )

    @classmethod
    def _parse(cls, text: str) -> "DangerousPermissionPolicy":
        """One name per line; blank lines and ``#`` comments are skipped."""
        names = (line.strip() for line in text.splitlines())
        return cls(dangerous=frozenset(n for n in names if n and not n.startswith("#")))


_PERMISSION_KINDS = (AttributeKind.PERMISSIONS_UP, AttributeKind.PERMISSIONS_DOWN)


def permission_flags(
    timeline: AppTimeline,
    policy: DangerousPermissionPolicy,
    churn_window_days: int = 7,
) -> list[PermissionFlag]:
    """Suspicious permission-timeline patterns for one app.

    Flags dangerous additions (per policy), permissions removed and
    re-added (or added and removed) within ``churn_window_days``, and
    permission changes on days without a version change.
    """
    if not policy.dangerous:
        raise ConfigError("dangerous-permission policy is empty")
    flags = []
    version_days = {
        e.day for e in timeline.events if e.kind is AttributeKind.VERSION_UP
    }
    added_at: dict[str, dt.date] = {}
    removed_at: dict[str, dt.date] = {}
    for event in timeline.events:
        if event.kind not in _PERMISSION_KINDS:
            continue
        added = event.added_permissions
        removed = event.removed_permissions
        dangerous_added = added & policy.dangerous
        if dangerous_added:
            flags.append(
                PermissionFlag(
                    app=timeline.app,
                    day=event.day,
                    kind=PermissionFlagKind.DANGEROUS_ADDED,
                    detail=tuple(sorted(dangerous_added)),
                )
            )
        churned = set()
        for name in added:
            when = removed_at.get(name)
            if when is not None and 0 < (event.day - when).days <= churn_window_days:
                churned.add(name)
            added_at[name] = event.day
        for name in removed:
            when = added_at.get(name)
            if when is not None and 0 < (event.day - when).days <= churn_window_days:
                churned.add(name)
            removed_at[name] = event.day
        if churned:
            flags.append(
                PermissionFlag(
                    app=timeline.app,
                    day=event.day,
                    kind=PermissionFlagKind.CHURN_WITHIN_WINDOW,
                    detail=tuple(sorted(churned)),
                )
            )
        if event.day not in version_days:
            flags.append(
                PermissionFlag(
                    app=timeline.app,
                    day=event.day,
                    kind=PermissionFlagKind.CHANGE_WITHOUT_VERSION_CHANGE,
                    detail=tuple(sorted(added | removed)),
                )
            )
    flags.sort(key=lambda f: (f.day, f.kind.value))
    return flags


def permission_version_decoupling_rate(
    timelines: Iterable[AppTimeline],
) -> float | None:
    """Fraction of permission-change (day, app) events with no same-day
    version change. None when there are no permission events at all."""
    total = 0
    decoupled = 0
    for timeline in timelines:
        version_days = {
            e.day for e in timeline.events if e.kind is AttributeKind.VERSION_UP
        }
        for event in timeline.events:
            if event.kind in _PERMISSION_KINDS:
                total += 1
                if event.day not in version_days:
                    decoupled += 1
    if total == 0:
        return None
    return decoupled / total


# --- scam-clone clusters ---------------------------------------------------------


@dataclass(frozen=True)
class ScamParams:
    min_cluster: int = 5
    price_band_cents: tuple[int, int] = (100, 299)
    title_similarity: float = 0.8


@dataclass(frozen=True)
class ScamCluster:
    developer: str
    apps: tuple[str, ...]
    price_min_cents: int
    price_max_cents: int
    price_mean_cents: float


def _title_trigrams(title: str) -> frozenset[str]:
    normalized = " ".join(title.lower().split())
    if len(normalized) < 3:
        return frozenset([normalized]) if normalized else frozenset()
    return frozenset(normalized[i : i + 3] for i in range(len(normalized) - 2))


def scam_pattern_scan(
    snapshots: Iterable[AppSnapshot], params: ScamParams = ScamParams()
) -> list[ScamCluster]:
    """Per-developer clusters of near-identically titled paid apps.

    Candidates are the latest snapshots of paid apps priced within the
    band; titles are linked when their trigram Jaccard similarity meets
    the threshold, and connected groups of at least ``min_cluster`` apps
    are reported. A pair already in one group is not compared: linking it
    could not change the groups, which are listed in order of their first
    app, whatever their union-find root.
    """
    lo, hi = params.price_band_cents
    by_dev: dict[str, list[AppSnapshot]] = {}
    for snap in snapshots:
        if not snap.free and lo <= snap.price_cents <= hi:
            by_dev.setdefault(snap.developer, []).append(snap)
    clusters = []
    for developer in sorted(by_dev):
        candidates = sorted(by_dev[developer], key=lambda s: s.app)
        trigrams = [_title_trigrams(s.title) for s in candidates]
        parent = list(range(len(candidates)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(len(candidates)):
            for j in range(i + 1, len(candidates)):
                root_i, root_j = find(i), find(j)
                if root_i == root_j:
                    continue
                ta, tb = trigrams[i], trigrams[j]
                union = len(ta | tb)
                sim = len(ta & tb) / union if union else 0.0
                if sim >= params.title_similarity:
                    parent[root_i] = root_j
        groups: dict[int, list[AppSnapshot]] = {}
        for i, snap in enumerate(candidates):
            groups.setdefault(find(i), []).append(snap)
        for group in groups.values():
            if len(group) < params.min_cluster:
                continue
            prices = [s.price_cents for s in group]
            clusters.append(
                ScamCluster(
                    developer=developer,
                    apps=tuple(sorted(s.app for s in group)),
                    price_min_cents=min(prices),
                    price_max_cents=max(prices),
                    price_mean_cents=sum(prices) / len(prices),
                )
            )
    return clusters


# --- external scan flags ----------------------------------------------------------

# an app is selected for scanning with this many flags and stored reviews
_MIN_FLAGS = 3
_MIN_REVIEWS = 10


@dataclass(frozen=True)
class FlaggedApp:
    app: str
    flag_count: int
    review_count: int
    selected: bool


def join_external_flags(
    flag_rows: Iterable[str] | Path | str,
    review_counts: dict[str, int],
) -> list[FlaggedApp]:
    """Join an external scanner's flag CSV (columns: app, flag_count)
    against stored review counts, marking apps selected for scanning.

    An app is selected when it has at least ``_MIN_FLAGS`` flags and at
    least ``_MIN_REVIEWS`` stored reviews.
    """
    if isinstance(flag_rows, (Path, str)):
        lines = Path(flag_rows).read_text(encoding="utf-8").splitlines()
    else:
        lines = list(flag_rows)
    reader = csv.reader(lines)
    out = []
    for line_no, row in enumerate(reader, start=1):
        if not row:
            continue
        if line_no == 1 and [c.strip().lower() for c in row] == ["app", "flag_count"]:
            continue
        if len(row) != 2:
            raise ParseError(f"expected 2 columns, got {len(row)}", line_no=line_no)
        app = row[0].strip()
        if not app:
            raise ParseError("empty app id", line_no=line_no)
        try:
            flag_count = int(row[1])
        except ValueError:
            raise ParseError(
                f"flag_count {row[1]!r} is not an integer", line_no=line_no
            ) from None
        n_reviews = review_counts.get(app, 0)
        out.append(
            FlaggedApp(
                app=app,
                flag_count=flag_count,
                review_count=n_reviews,
                selected=flag_count >= _MIN_FLAGS and n_reviews >= _MIN_REVIEWS,
            )
        )
    out.sort(key=lambda f: f.app)
    return out
