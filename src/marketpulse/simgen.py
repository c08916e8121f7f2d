"""Seeded synthetic market generator with exact ground truth.

Every stream is deterministic for a fixed script: each entity draws from
its own counter-based RNG stream keyed by (seed, entity label), so adding
apps or lists never perturbs existing entities' randomness. All scripted
changes land on snapshot days after the first one, which makes the
planned change events exactly recoverable by the snapshot-diff pipeline.
"""

from __future__ import annotations

import bisect
import datetime as dt
import hashlib
import json
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError
from .metrics import DEFAULT_STALENESS_WINDOW_DAYS, classify_popularity
from .model import (
    AppSnapshot,
    AttributeKind,
    DOWNLOAD_LADDER,
    DownloadBucket,
    ListType,
    PopularityClass,
    canonical_json,
    canonical_snapshot_line,
    date_to_epoch,
    parse_date,
)
from .store import DatasetManifest
from .timeline import format_event_value

_MASK64 = (1 << 64) - 1

_SNAPSHOT_HOUR_OFFSET = 12 * 3600  # snapshots fetched at noon UTC

CATEGORIES = (
    "Arcade & Action",
    "Books & Reference",
    "Business",
    "Casual",
    "Comics",
    "Communication",
    "Education",
    "Entertainment",
    "Finance",
    "Health & Fitness",
    "Libraries & Demo",
    "Lifestyle",
    "Media & Video",
    "Medical",
    "Music & Audio",
    "Personalization",
    "Photography",
    "Productivity",
    "Social",
    "Sports",
    "Tools",
    "Travel & Local",
    "Weather",
)

REGULAR_PERMISSIONS = (
    "ACCESS_NETWORK_STATE",
    "ACCESS_WIFI_STATE",
    "BLUETOOTH",
    "FLASHLIGHT",
    "INTERNET",
    "NFC",
    "RECEIVE_BOOT_COMPLETED",
    "SET_WALLPAPER",
    "VIBRATE",
    "WAKE_LOCK",
)

DANGEROUS_PERMISSIONS = (
    "ACCESS_COARSE_LOCATION",
    "ACCESS_FINE_LOCATION",
    "BODY_SENSORS",
    "CALL_PHONE",
    "CAMERA",
    "GET_ACCOUNTS",
    "PROCESS_OUTGOING_CALLS",
    "READ_CALENDAR",
    "READ_CALL_LOG",
    "READ_CONTACTS",
    "READ_EXTERNAL_STORAGE",
    "READ_PHONE_STATE",
    "READ_SMS",
    "RECEIVE_SMS",
    "RECORD_AUDIO",
    "SEND_SMS",
    "WRITE_CALENDAR",
    "WRITE_CALL_LOG",
    "WRITE_CONTACTS",
    "WRITE_EXTERNAL_STORAGE",
)

_TITLE_WORDS = (
    "Super", "Mega", "Pocket", "Daily", "Smart", "Fast", "Magic", "Tiny",
    "Ultra", "Photo", "Music", "Puzzle", "Race", "Chat", "Weather", "Note",
    "Budget", "Yoga", "Recipe", "Quiz", "Galaxy", "Pixel", "Cloud", "Task",
    "Timer", "Scanner", "Keyboard", "Wallpaper", "Runner", "Garden",
)

_PRICE_LADDER_CENTS = (99, 149, 199, 249, 299, 399, 499, 699, 999, 1499, 1999, 2999)

_RATING_WEIGHTS = (0.08, 0.07, 0.10, 0.25, 0.50)  # ratings 1..5

_CLASS_ORDER = (
    PopularityClass.UNPOPULAR,
    PopularityClass.POPULAR,
    PopularityClass.MOST_POPULAR,
)

# ladder index ranges per class (lower bound below 10^3, 10^3..10^5, above)
_CLASS_BUCKETS = {
    PopularityClass.UNPOPULAR: tuple(range(3, 7)),
    PopularityClass.POPULAR: tuple(range(7, 11)),
    PopularityClass.MOST_POPULAR: tuple(range(11, 16)),
}


def stable_hash64(text: str) -> int:
    """Platform-independent 64-bit hash (unlike builtin hash())."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def keyed_rng(seed: int, label: str) -> np.random.Generator:
    """Counter-based RNG stream for one entity, keyed by (seed, label)."""
    key = np.array([seed & _MASK64, stable_hash64(label)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def discrete_power_law_samples(
    rng: np.random.Generator, alpha: float, n: int, x_max: int = 1000
) -> np.ndarray:
    """Inverse-transform samples from the zeta-normalized pmf ~ k^-alpha,
    truncated at x_max."""
    if alpha <= 1.0:
        raise ConfigError("power-law exponent must exceed 1")
    if x_max < 2:
        raise ConfigError("x_max must be at least 2")
    ks = np.arange(1, x_max + 1, dtype=float)
    pmf = ks**-alpha
    cdf = np.cumsum(pmf / pmf.sum())
    u = rng.random(n)
    return (np.searchsorted(cdf, u) + 1).astype(int)


# --- script -------------------------------------------------------------------


@dataclass(frozen=True)
class TopKListConfig:
    length: int = 100
    churn_lo: float = 0.002  # hourly replacement probability at rank 1
    churn_hi: float = 0.05  # at the bottom rank


@dataclass(frozen=True)
class FraudCampaign:
    app: int | str  # index into generation order, or an explicit app id
    polarity: str = "positive"
    start_day: int = 10  # offset from observation start
    duration_days: int = 5
    daily_volume: int = 200


@dataclass(frozen=True)
class ScamDeveloperScript:
    developer: str
    n_clones: int = 10
    price_cents: int = 199


@dataclass(frozen=True)
class UpdateGapModel:
    update_fraction: float
    gap_days_lo: int
    gap_days_hi: int


@dataclass(frozen=True)
class PriceChangeModel:
    paid_fraction: float = 0.25
    change_fraction: float = 0.0514
    max_changes: int = 4
    down_bias: float = 0.6
    version_coupling: float = 0.7  # chance a price change lands on an update day


@dataclass(frozen=True)
class PermissionChangeModel:
    change_fraction: float = 0.10
    max_events: int = 3


def _default_update_gap_model() -> dict:
    return {
        PopularityClass.UNPOPULAR: UpdateGapModel(0.15, 30, 120),
        PopularityClass.POPULAR: UpdateGapModel(0.6, 7, 60),
        PopularityClass.MOST_POPULAR: UpdateGapModel(0.8, 14, 60),
    }


def _default_popularity_mix() -> dict:
    # 74.14 / 24.1 / 0.7 scaled up to sum to one (validate() requires it);
    # the raw shares leave 1.06% unassigned
    total = 0.7414 + 0.241 + 0.007
    return {
        PopularityClass.UNPOPULAR: 0.7414 / total,
        PopularityClass.POPULAR: 0.241 / total,
        PopularityClass.MOST_POPULAR: 0.007 / total,
    }


def _default_review_rates() -> dict:
    return {
        PopularityClass.UNPOPULAR: 0.05,
        PopularityClass.POPULAR: 0.8,
        PopularityClass.MOST_POPULAR: 4.0,
    }


# fixed generator parameters (not script keys)
DEV_APP_ALPHA = 2.5  # power-law exponent of apps per developer
MAX_APPS_PER_DEVELOPER = 50
FRAUD_BASELINE_DAILY = 5.0  # organic daily reviews of a fraud-campaign target
CATEGORY_CHANGE_FRACTION = 0.019
DOWNLOADS_GROWTH_FRACTION = 0.05
RATING_DOWNLOAD_RATIO = 1.0 / 300.0


@dataclass(frozen=True)
class MarketScript:
    """Full recipe for one synthetic market; see write_dataset()."""

    seed: int = 0
    name: str = "synthetic-market"
    currency: str = "USD"
    n_developers: int = 100
    observation_start: dt.date = dt.date(2014, 10, 24)
    observation_days: int = 30
    snapshot_cadence_days: int = 1
    topk_lists: dict = field(default_factory=dict)
    fraud_campaigns: tuple = ()
    scam_developers: tuple = ()
    decoupling_rate: float = 0.05
    popularity_mix: dict = field(default_factory=_default_popularity_mix)
    stale_fraction: float = 0.3
    update_gap_model: dict = field(default_factory=_default_update_gap_model)
    price_change_model: PriceChangeModel = PriceChangeModel()
    permission_change_model: PermissionChangeModel = PermissionChangeModel()
    permission_churn_apps: int = 0

    review_rates: dict = field(default_factory=_default_review_rates)

    @property
    def observation_end(self) -> dt.date:
        return self.observation_start + dt.timedelta(days=self.observation_days - 1)

    def validate(self) -> None:
        if self.n_developers < 1:
            raise ConfigError("n_developers must be >= 1")
        if self.observation_days < 1:
            raise ConfigError("observation_days must be >= 1")
        if self.snapshot_cadence_days < 1:
            raise ConfigError("snapshot_cadence_days must be >= 1")
        mix_total = sum(self.popularity_mix.get(c, 0.0) for c in _CLASS_ORDER)
        if abs(mix_total - 1.0) > 1e-9:
            raise ConfigError(f"popularity_mix must sum to 1, got {mix_total}")
        for klass, gap_model in self.update_gap_model.items():
            if not 0.0 <= gap_model.update_fraction <= 1.0:
                raise ConfigError(f"update_fraction out of [0, 1] for {klass.value}")
            if not 1 <= gap_model.gap_days_lo <= gap_model.gap_days_hi:
                raise ConfigError(f"bad update gap range for {klass.value}")
        for rate_name in ("decoupling_rate", "stale_fraction"):
            rate = getattr(self, rate_name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{rate_name} must be within [0, 1], got {rate}")
        for list_type, config in self.topk_lists.items():
            if not isinstance(list_type, ListType):
                raise ConfigError(f"unknown list type {list_type!r}")
            if config.length < 1 or config.length > 480:
                raise ConfigError("top-k list length must be in 1..480")
            if not (0 <= config.churn_lo <= 1 and 0 <= config.churn_hi <= 1):
                raise ConfigError("churn probabilities must be within [0, 1]")
        for campaign in self.fraud_campaigns:
            if campaign.polarity not in ("positive", "negative"):
                raise ConfigError(f"unknown campaign polarity {campaign.polarity!r}")
            if campaign.start_day < 0 or (
                campaign.start_day + campaign.duration_days > self.observation_days
            ):
                raise ConfigError("fraud campaign outside the observation window")
            if campaign.daily_volume < 1:
                raise ConfigError("fraud campaign daily_volume must be >= 1")
        slugs = set()
        for scam in self.scam_developers:
            slug = _scam_slug(scam)
            if slug in slugs:
                raise ConfigError(
                    f"two scam developers would share the app ids com.scam.{slug}.*"
                )
            slugs.add(slug)
            if scam.n_clones < 1:
                raise ConfigError("scam developer needs at least one clone")
            if scam.price_cents < 1:
                raise ConfigError("scam clones must be paid apps")


def _scam_slug(scam: ScamDeveloperScript) -> str:
    """The part of a scam developer's app ids that its name sets."""
    return "".join(ch.lower() for ch in scam.developer if ch.isalnum()) or "scam"


def _per_class(convert):
    """Converter of a {popularity class: value} mapping."""
    return lambda rec: {PopularityClass(klass): convert(v) for klass, v in rec.items()}


# script key -> converter from its JSON form; any other key is taken as it is
_SCRIPT_VALUES = {
    "observation_start": parse_date,
    "topk_lists": lambda rec: {ListType(k): TopKListConfig(**v) for k, v in rec.items()},
    "fraud_campaigns": lambda recs: tuple(FraudCampaign(**c) for c in recs),
    "scam_developers": lambda recs: tuple(ScamDeveloperScript(**s) for s in recs),
    "popularity_mix": _per_class(float),
    "review_rates": _per_class(float),
    "update_gap_model": _per_class(lambda v: UpdateGapModel(**v)),
    "price_change_model": lambda v: PriceChangeModel(**v),
    "permission_change_model": lambda v: PermissionChangeModel(**v),
}


def script_from_record(rec: dict) -> MarketScript:
    """Build a MarketScript from its JSON dict form (unknown keys rejected)."""
    if not isinstance(rec, dict):
        raise ConfigError("script must be a JSON object")
    known = {f.name for f in dataclass_fields(MarketScript)}
    unknown = set(rec) - known
    if unknown:
        raise ConfigError(f"unknown script keys: {sorted(unknown)}")
    # a scalar value has its default's type; a boolean is no int, and a
    # float may be given as any number
    for f in dataclass_fields(MarketScript):
        want = type(f.default)
        if f.name in rec and want in (int, float, str):
            given = type(rec[f.name])
            if given is not want and (want, given) != (float, int):
                raise ConfigError(f"script key {f.name!r} must be of type {want.__name__}")
    kwargs = dict(rec)
    try:
        for key, convert in _SCRIPT_VALUES.items():
            if key in kwargs:
                kwargs[key] = convert(kwargs[key])
        script = MarketScript(**kwargs)
        script.validate()
    except (TypeError, AttributeError) as exc:
        raise ConfigError(str(exc)) from None
    return script


def load_script(path: Path | str) -> MarketScript:
    return script_from_record(json.loads(Path(path).read_text(encoding="utf-8")))


# --- planning -----------------------------------------------------------------


@dataclass
class _PlannedChange:
    day: dt.date
    kind: AttributeKind
    field: str  # the AppSnapshot field it changes
    old: object
    new: object


@dataclass
class _AppPlan:
    app: str
    first: AppSnapshot  # the state on the first snapshot day, fetch_time 0
    klass: PopularityClass
    stale: bool
    update_days: list = field(default_factory=list)
    changes: list = field(default_factory=list)  # _PlannedChange, sorted by day
    review_base_daily: float = 0.0
    campaigns: list = field(default_factory=list)
    scam_cluster: str | None = None
    permission_events: int = 0
    decoupled_events: int = 0


@dataclass
class _MarketPlan:
    script: MarketScript
    apps: list  # _AppPlan, generation order
    snapshot_days: list
    manifest: DatasetManifest


def _choice(rng: np.random.Generator, seq: Sequence):
    return seq[int(rng.integers(0, len(seq)))]


def _version_string(n: int) -> str:
    return f"1.{n}.0" if n else "1.0.0"


def _pick_days(
    rng: np.random.Generator, pool: list, count: int
) -> list:
    """Up to ``count`` distinct days drawn from ``pool`` (kept sorted)."""
    count = min(count, len(pool))
    if count == 0:
        return []
    idx = rng.choice(len(pool), size=count, replace=False)
    return sorted(pool[int(i)] for i in idx)


def _plan_app(
    script: MarketScript,
    app_id: str,
    developer: str,
    scam: ScamDeveloperScript | None,
    clone_index: int,
    snapshot_days: list,
) -> _AppPlan:
    rng = keyed_rng(script.seed, f"app:{app_id}")
    mix = [script.popularity_mix.get(c, 0.0) for c in _CLASS_ORDER]
    klass = _CLASS_ORDER[int(rng.choice(len(_CLASS_ORDER), p=mix))]
    bucket0 = DownloadBucket(*DOWNLOAD_LADDER[_choice(rng, _CLASS_BUCKETS[klass])])

    end = script.observation_end
    window = DEFAULT_STALENESS_WINDOW_DAYS
    stale = bool(rng.random() < script.stale_fraction)
    if stale:
        age = window + 30 + int(rng.integers(0, 365))
        last_updated0 = end - dt.timedelta(days=age)
    else:
        span = (end - script.observation_start).days
        off_max = max(1, window - span)
        last_updated0 = script.observation_start - dt.timedelta(
            days=int(rng.integers(0, off_max))
        )

    if scam is not None:
        base = f"{scam.developer} Premium Puzzle Mania Deluxe Edition"
        title = f"{base} {clone_index + 1:02d}"
        paid = True
        price0 = scam.price_cents
    else:
        words = [_choice(rng, _TITLE_WORDS) for _ in range(3)]
        title = " ".join(words)
        paid = bool(rng.random() < script.price_change_model.paid_fraction)
        price0 = int(_choice(rng, _PRICE_LADDER_CENTS)) if paid else 0

    n_permissions = int(rng.integers(3, 7))
    pool = list(REGULAR_PERMISSIONS + DANGEROUS_PERMISSIONS)
    permissions0 = frozenset(
        pool[int(i)] for i in rng.choice(len(pool), size=n_permissions, replace=False)
    )

    rating_count0 = max(
        0, int(round(bucket0.midpoint() * RATING_DOWNLOAD_RATIO * rng.uniform(0.9, 1.1)))
    )

    # keyword arguments are evaluated in the order written: the draws of
    # category, rating_avg and size_bytes come in that order
    first = AppSnapshot(
        app=app_id, fetch_time=0, title=title, developer=developer,
        category=_choice(rng, CATEGORIES), price_cents=price0, free=price0 == 0,
        downloads=bucket0, rating_avg=round(float(rng.uniform(2.5, 5.0)), 1),
        rating_count=rating_count0, version=_version_string(0),
        size_bytes=int(rng.integers(300_000, 80_000_000)),
        last_updated=last_updated0, permissions=permissions0,
    )
    plan = _AppPlan(
        app=app_id, first=first, klass=klass, stale=stale,
        review_base_daily=script.review_rates.get(klass, 0.1),
        scam_cluster=scam.developer if scam is not None else None,
    )

    eligible = snapshot_days[1:]
    if not eligible:
        return plan

    # update schedule: version bump + last_updated move on each update day
    gap_model = script.update_gap_model.get(klass)
    if not stale and gap_model is not None and rng.random() < gap_model.update_fraction:
        day = script.observation_start
        eligible_set = set(eligible)
        while True:
            gap = int(rng.integers(gap_model.gap_days_lo, gap_model.gap_days_hi + 1))
            day = day + dt.timedelta(days=gap)
            snapped = _snap_to_cadence(day, script, snapshot_days)
            if snapped is None:
                break
            if snapped in eligible_set and (
                not plan.update_days or snapped > plan.update_days[-1]
            ):
                plan.update_days.append(snapped)
            if snapped >= snapshot_days[-1]:
                break

    update_set = set(plan.update_days)
    non_update_days = [d for d in eligible if d not in update_set]

    changes: list[_PlannedChange] = []
    version_n = 0
    for day in plan.update_days:
        version_n += 1
        changes.append(
            _PlannedChange(
                day=day,
                kind=AttributeKind.VERSION_UP,
                field="version",
                old=_version_string(version_n - 1),
                new=_version_string(version_n),
            )
        )

    # price changes, mostly coupled to update days
    pcm = script.price_change_model
    if paid and scam is None and rng.random() < pcm.change_fraction:
        n_changes = int(rng.integers(1, pcm.max_changes + 1))
        coupled_pool = list(plan.update_days)
        free_pool = list(non_update_days)
        days: list[dt.date] = []
        for _ in range(n_changes):
            use_coupled = coupled_pool and rng.random() < pcm.version_coupling
            pool_days = coupled_pool if use_coupled else free_pool
            if not pool_days:
                pool_days = free_pool or coupled_pool
            if not pool_days:
                break
            day = pool_days.pop(int(rng.integers(0, len(pool_days))))
            days.append(day)
        price = price0
        for day in sorted(days):
            down = rng.random() < pcm.down_bias
            delta = int(_choice(rng, (50, 100, 200)))
            new_price = max(49, price - delta) if down else price + delta
            if new_price == price:
                continue
            kind = (
                AttributeKind.PRICE_DOWN
                if new_price < price
                else AttributeKind.PRICE_UP
            )
            changes.append(
                _PlannedChange(day=day, kind=kind, field="price_cents", old=price, new=new_price)
            )
            price = new_price

    # permission events: coupled ones land on update days. Only apps whose
    # update and non-update day pools can absorb a full draw host events,
    # so the realized decoupled share is an unbiased sample of the rate.
    perm_model = script.permission_change_model
    if (
        len(plan.update_days) >= perm_model.max_events
        and len(non_update_days) >= perm_model.max_events
        and rng.random() < perm_model.change_fraction
    ):
        n_events = int(rng.integers(1, perm_model.max_events + 1))
        coupled_pool = list(plan.update_days)
        free_pool = list(non_update_days)
        chosen: list[tuple[dt.date, bool]] = []
        for _ in range(n_events):
            decoupled = bool(rng.random() < script.decoupling_rate)
            pool_days = free_pool if decoupled else coupled_pool
            day = pool_days.pop(int(rng.integers(0, len(pool_days))))
            chosen.append((day, decoupled))
        current = set(permissions0)
        full_pool = set(pool)
        for day, decoupled in sorted(chosen):
            can_add = sorted(full_pool - current)
            if len(current) <= 2:
                adding = True
            elif len(current) >= 8 or not can_add:
                adding = False
            else:
                adding = bool(rng.random() < 0.5)
            if adding:
                k = min(int(rng.integers(1, 3)), len(can_add))
                picked = [
                    can_add[int(i)]
                    for i in rng.choice(len(can_add), size=k, replace=False)
                ]
                new_set = current | set(picked)
                kind = AttributeKind.PERMISSIONS_UP
            else:
                removable = sorted(current)
                k = min(int(rng.integers(1, 3)), len(removable) - 1)
                if k < 1:
                    continue
                picked = [
                    removable[int(i)]
                    for i in rng.choice(len(removable), size=k, replace=False)
                ]
                new_set = current - set(picked)
                kind = AttributeKind.PERMISSIONS_DOWN
            changes.append(
                _PlannedChange(
                    day=day,
                    kind=kind,
                    field="permissions",
                    old=frozenset(current),
                    new=frozenset(new_set),
                )
            )
            plan.permission_events += 1
            if decoupled:
                plan.decoupled_events += 1
            current = set(new_set)

    # one within-class downloads bump for a small share of apps
    if rng.random() < DOWNLOADS_GROWTH_FRACTION:
        idx = DOWNLOAD_LADDER.index((bucket0.lo, bucket0.hi))
        if idx + 1 < len(DOWNLOAD_LADDER):
            next_bucket = DownloadBucket(*DOWNLOAD_LADDER[idx + 1])
            if classify_popularity(next_bucket) is klass and non_update_days:
                day = _choice(rng, non_update_days)
                changes.append(
                    _PlannedChange(
                        day=day,
                        kind=AttributeKind.DOWNLOADS_UP,
                        field="downloads",
                        old=bucket0,
                        new=next_bucket,
                    )
                )

    # rating-count bumps
    if rating_count0 > 0 and rng.random() < 0.15:
        bump_days = _pick_days(rng, eligible, int(rng.integers(1, 3)))
        count = rating_count0
        for day in bump_days:
            delta = max(1, int(round(count * rng.uniform(0.02, 0.08))))
            changes.append(
                _PlannedChange(
                    day=day,
                    kind=AttributeKind.REVIEW_COUNT_UP,
                    field="rating_count",
                    old=count,
                    new=count + delta,
                )
            )
            count += delta

    # rare category change
    if rng.random() < CATEGORY_CHANGE_FRACTION and eligible:
        day = _choice(rng, eligible)
        others = [c for c in CATEGORIES if c != first.category]
        changes.append(
            _PlannedChange(
                day=day,
                kind=AttributeKind.CATEGORY_CHANGE,
                field="category",
                old=first.category,
                new=_choice(rng, others),
            )
        )

    changes.sort(key=lambda c: (c.day, c.field))
    plan.changes = changes
    return plan


def _snap_to_cadence(
    day: dt.date, script: MarketScript, snapshot_days: list
) -> dt.date | None:
    """The first snapshot day >= day, or None past the observation end."""
    if day > snapshot_days[-1]:
        return None
    offset = (day - script.observation_start).days
    cadence = script.snapshot_cadence_days
    snapped = script.observation_start + dt.timedelta(
        days=-(-offset // cadence) * cadence
    )
    return snapped if snapped <= snapshot_days[-1] else None


def _inject_permission_churn(plan: _AppPlan, snapshot_days: list) -> bool:
    """Script the remove-then-re-add-next-day dangerous permission pattern.

    An app that holds fewer than two dangerous permissions at first gets
    the first ones it lacks, which only an app without planned permission
    changes can take: theirs chain from its first set. The plan is edited
    only when the pattern is injected."""
    eligible = snapshot_days[1:]
    if len(eligible) < 2:
        return False
    planned = [c for c in plan.changes if c.field == "permissions"]
    permissions = plan.first.permissions
    held = len(permissions & set(DANGEROUS_PERMISSIONS))
    if held < 2:
        if planned:
            return False
        extra = [p for p in DANGEROUS_PERMISSIONS if p not in permissions]
        permissions = permissions | set(extra[: 2 - held])
    pair = sorted(permissions & set(DANGEROUS_PERMISSIONS))[:2]
    taken = {c.day for c in planned}
    day_remove = None
    for i in range(len(eligible) - 1):
        a, b = eligible[i], eligible[i + 1]
        if (b - a).days == 1 and a not in taken and b not in taken:
            day_remove = a
            day_readd = b
            break
    if day_remove is None:
        return False
    # keep the pattern clean: skip apps with later permission events
    if any(c.day >= day_remove for c in planned):
        return False
    # the live set on day_remove
    current = set(planned[-1].new if planned else permissions)
    if not set(pair) <= current or len(current) - 2 < 1:
        return False
    after_remove = frozenset(current - set(pair))
    after_readd = frozenset(after_remove | set(pair))
    inject = [
        _PlannedChange(
            day=day_remove,
            kind=AttributeKind.PERMISSIONS_DOWN,
            field="permissions",
            old=frozenset(current),
            new=after_remove,
        ),
        _PlannedChange(
            day=day_readd,
            kind=AttributeKind.PERMISSIONS_UP,
            field="permissions",
            old=after_remove,
            new=after_readd,
        ),
    ]
    plan.first = replace(plan.first, permissions=permissions)
    plan.changes = sorted(
        plan.changes + inject, key=lambda c: (c.day, c.field)
    )
    update_days = set(plan.update_days)
    for change in inject:
        plan.permission_events += 1
        if change.day not in update_days:
            plan.decoupled_events += 1
    return True


def plan_market(script: MarketScript) -> _MarketPlan:
    """Deterministic full plan: apps, their scripted changes, manifest."""
    script.validate()
    start = script.observation_start
    snapshot_days = []
    day = start
    while day <= script.observation_end:
        snapshot_days.append(day)
        day += dt.timedelta(days=script.snapshot_cadence_days)

    dev_rng = keyed_rng(script.seed, "developers")
    counts = discrete_power_law_samples(
        dev_rng, DEV_APP_ALPHA, script.n_developers, x_max=MAX_APPS_PER_DEVELOPER
    )
    plans: list[_AppPlan] = []
    for di in range(script.n_developers):
        developer = f"dev-{di:05d}"
        for j in range(int(counts[di])):
            app_id = f"com.sim.d{di:05d}.a{j:02d}"
            plans.append(
                _plan_app(script, app_id, developer, None, 0, snapshot_days)
            )
    for scam in script.scam_developers:
        slug = _scam_slug(scam)
        for j in range(scam.n_clones):
            app_id = f"com.scam.{slug}.c{j:02d}"
            plans.append(
                _plan_app(script, app_id, scam.developer, scam, j, snapshot_days)
            )

    # resolve fraud campaigns onto apps and pin their review baseline
    by_id = {p.app: p for p in plans}
    for campaign in script.fraud_campaigns:
        if isinstance(campaign.app, int):
            if not 0 <= campaign.app < len(plans):
                raise ConfigError(f"fraud campaign app index {campaign.app} out of range")
            target = plans[campaign.app]
        else:
            target = by_id.get(campaign.app)
            if target is None:
                raise ConfigError(f"fraud campaign app {campaign.app!r} unknown")
        target.campaigns.append(campaign)
        target.review_base_daily = FRAUD_BASELINE_DAILY

    churned = 0
    for plan in plans:
        if churned >= script.permission_churn_apps:
            break
        if plan.campaigns or plan.scam_cluster:
            continue
        if _inject_permission_churn(plan, snapshot_days):
            churned += 1
    if churned < script.permission_churn_apps:
        raise ConfigError(
            f"could only script {churned} of {script.permission_churn_apps} "
            "permission-churn apps (observation too short or too few apps)"
        )

    manifest = DatasetManifest(
        name=script.name,
        currency=script.currency,
        observation_start=start,
        observation_end=script.observation_end,
        snapshot_cadence_hint=f"every {script.snapshot_cadence_days} day(s)",
    )
    return _MarketPlan(
        script=script, apps=plans, snapshot_days=snapshot_days, manifest=manifest
    )


# --- rendering ----------------------------------------------------------------


def _app_states(plan: _AppPlan, days: list) -> list[tuple[int, AppSnapshot]]:
    """The snapshot-day index and snapshot (``fetch_time`` 0) of each state
    of ``plan``, in day order, from ``plan.first`` on day 0.

    A change takes effect on the first snapshot day on or after its day
    (plans put each on a snapshot day after the first); within one day the
    changes apply in plan order, then the update days.
    """
    updates: dict[int, list] = {}
    for change in plan.changes:
        updates.setdefault(bisect.bisect_left(days, change.day), []).append(
            (change.field, change.new)
        )
    for day in plan.update_days:
        updates.setdefault(bisect.bisect_left(days, day), []).append(("last_updated", day))
    states = [(0, plan.first)]
    for i in sorted(updates):
        new = dict(updates[i])
        snap = states[-1][1]
        states.append(
            (i, replace(snap, **new, free=new.get("price_cents", snap.price_cents) == 0))
        )
    return states


def _snapshot_lines(plan: _MarketPlan) -> Iterator[list[str]]:
    """Canonical snapshot lines: one list per snapshot day, in day order,
    each sorted by app.

    Between two of its state changes an app's lines differ only in
    ``fetch_time``, so each state of an app is encoded once, and a line is
    that text with the day's fetch time put in.
    """
    days = plan.snapshot_days
    texts = []  # (head, tail) of each app's state on the current day
    switches: dict[int, list] = {}  # day index -> [(app position, (head, tail))]
    for pos, p in enumerate(sorted(plan.apps, key=lambda p: p.app)):
        (_, first), *later = _app_states(p, days)
        texts.append(_snapshot_text(first))
        for i, snap in later:
            switches.setdefault(i, []).append((pos, _snapshot_text(snap)))
    for i, day in enumerate(days):
        for pos, text in switches.get(i, ()):
            texts[pos] = text
        fetch_time = str(date_to_epoch(day) + _SNAPSHOT_HOUR_OFFSET)
        yield [head + fetch_time + tail for head, tail in texts]


def _snapshot_text(snap: AppSnapshot) -> tuple[str, str]:
    """The canonical line of ``snap``, whose ``fetch_time`` is 0, split
    around its ``fetch_time`` value. A quote inside a JSON string is
    escaped, so the first ``"fetch_time":`` is the key."""
    head, tail = canonical_snapshot_line(snap).split('"fetch_time":0,', 1)
    return head + '"fetch_time":', "," + tail


def _review_lines(plan: _MarketPlan) -> list[str]:
    """Canonical review lines sorted by (date, app, review id)."""
    script = plan.script
    n_days = script.observation_days
    dates = [
        (script.observation_start + dt.timedelta(days=offset)).isoformat()
        for offset in range(n_days)
    ]
    # Generator.choice(..., p=_RATING_WEIGHTS) maps rng.random(k) through
    # this cdf, so one draw for all of an app's days continues the same stream
    cdf = np.cumsum(_RATING_WEIGHTS)
    cdf /= cdf[-1]
    by_day: list[list] = [[] for _ in range(n_days)]  # (app, review id, line)
    for p in sorted(plan.apps, key=lambda p: p.app):
        rng = keyed_rng(script.seed, f"reviews:{p.app}")
        organic = rng.poisson(p.review_base_daily, n_days)
        draws = rng.random(int(organic.sum()))
        ratings = (cdf.searchsorted(draws, side="right") + 1).tolist()
        burst = [0] * n_days
        burst_rating = {}
        for campaign in p.campaigns:
            rating = 5 if campaign.polarity == "positive" else 1
            for offset in range(campaign.start_day, campaign.start_day + campaign.duration_days):
                burst[offset] += campaign.daily_volume
                burst_rating[offset] = rating
        app_json = canonical_json(p.app)
        app_text = app_json[1:-1]
        seq = drawn = 0
        for offset, k in enumerate(organic.tolist()):
            day_ratings = ratings[drawn : drawn + k]
            drawn += k
            if burst[offset]:
                day_ratings += [burst_rating[offset]] * burst[offset]
            prefix = f'{{"app":{app_json},"date":"{dates[offset]}","rating":'
            for rating in day_ratings:
                review_id = f"r{seq:06d}"
                by_day[offset].append(
                    (
                        p.app,
                        review_id,
                        f'{prefix}{rating},"review_id":"{review_id}",'
                        f'"reviewer_id":"u{seq:06d}",'
                        f'"text":"synthetic review {seq} of {app_text}",'
                        f'"title":"review {seq}"}}\n',
                    )
                )
                seq += 1
    lines = []
    for day_reviews in by_day:
        day_reviews.sort()
        lines.extend(line for _, _, line in day_reviews)
    return lines


def _iter_topk_records(plan: _MarketPlan) -> Iterator[dict]:
    script = plan.script
    if not script.topk_lists:
        return iter(())
    pool = sorted(
        plan.apps, key=lambda p: (-p.first.downloads.lo, p.app)
    )  # best candidates first
    pool_ids = [p.app for p in pool]
    hours = script.observation_days * 24
    start_epoch = date_to_epoch(script.observation_start)
    streams = []
    for list_type in sorted(script.topk_lists, key=lambda lt: lt.value):
        config = script.topk_lists[list_type]
        length = min(config.length, len(pool_ids))
        if length == 0:
            continue
        rng = keyed_rng(script.seed, f"topk:{list_type.value}")
        current = list(pool_ids[:length])
        off_list = list(pool_ids[length:])
        if length > 1:
            churn = config.churn_lo + (config.churn_hi - config.churn_lo) * (
                np.arange(length) / (length - 1)
            )
        else:
            churn = np.array([config.churn_lo])
        rows = []
        for h in range(hours):
            rows.append(
                {
                    "list_type": list_type.value,
                    "fetch_time": start_epoch + h * 3600,
                    "ranking": list(current),
                }
            )
            u = rng.random(length)
            dead_positions = np.flatnonzero(u < churn).tolist()
            if len(dead_positions) > len(off_list):
                dead_positions = dead_positions[: len(off_list)]
            if not dead_positions:
                continue
            entrants = []
            for _ in dead_positions:
                pick = int(rng.integers(0, len(off_list)))
                off_list[pick], off_list[-1] = off_list[-1], off_list[pick]
                entrants.append(off_list.pop())
            dead_set = set(dead_positions)
            survivors = [current[i] for i in range(length) if i not in dead_set]
            off_list.extend(current[i] for i in dead_positions)
            current = survivors + entrants
        streams.append(rows)
    merged = [row for rows in streams for row in rows]
    merged.sort(key=lambda r: (r["fetch_time"], r["list_type"]))
    return iter(merged)


def _truth_record(plan: _MarketPlan) -> dict:
    """The ground_truth.json record: each app's planned labels, change
    events and fraud days, with the app ids in generation order and the
    number of apps of each developer."""
    start = plan.script.observation_start
    dev_app_counts: dict[str, int] = {}
    apps = {}
    for p in plan.apps:
        developer = p.first.developer
        dev_app_counts[developer] = dev_app_counts.get(developer, 0) + 1
        fraud_days = sorted(
            (start + dt.timedelta(days=offset), c.polarity, c.daily_volume)
            for c in p.campaigns
            for offset in range(c.start_day, c.start_day + c.duration_days)
        )
        apps[p.app] = {
            "developer": developer,
            "class": p.klass.value,
            "stale": p.stale,
            "update_days": [d.isoformat() for d in p.update_days],
            "events": [
                {
                    "day": c.day.isoformat(),
                    "kind": c.kind.value,
                    "old": format_event_value(c.old),
                    "new": format_event_value(c.new),
                }
                for c in p.changes
            ],
            "fraud_days": [
                {"day": d.isoformat(), "polarity": polarity, "volume": volume}
                for d, polarity, volume in fraud_days
            ],
            "scam_cluster": p.scam_cluster,
            "permission_events": p.permission_events,
            "decoupled_events": p.decoupled_events,
        }
    return {
        "app_ids": [p.app for p in plan.apps],
        "dev_app_counts": dev_app_counts,
        "apps": apps,
    }


def write_dataset(
    script: MarketScript,
    out_dir: Path | str,
    render_market_seeds: int = 0,
) -> dict:
    """Stream the market to ``out_dir`` in the store's JSONL schemas.

    Writes manifest.json, snapshots.jsonl, reviews.jsonl, topk.jsonl and
    ground_truth.json; with ``render_market_seeds`` > 0 also renders
    market_pages.jsonl plus a seeds.txt so a crawl can run against the
    market of the last snapshot day: each app's last planned state,
    fetched that day. Every line is in the store's canonical text,
    so an ingest stores it as it is: snapshot lines come from
    ``canonical_snapshot_line``, as the crawl writes them, and the other
    lines from ``canonical_json``. Returns the ground-truth record.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    plan = plan_market(script)
    (out / "manifest.json").write_text(
        json.dumps(plan.manifest.to_record(), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    with open(out / "snapshots.jsonl", "w", encoding="utf-8") as f:
        for lines in _snapshot_lines(plan):
            f.writelines(lines)
    with open(out / "reviews.jsonl", "w", encoding="utf-8") as f:
        f.writelines(_review_lines(plan))
    with open(out / "topk.jsonl", "w", encoding="utf-8") as f:
        for rec in _iter_topk_records(plan):
            f.write(canonical_json(rec) + "\n")
    truth = _truth_record(plan)
    (out / "ground_truth.json").write_text(
        json.dumps(truth, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    if render_market_seeds:
        days = plan.snapshot_days
        fetch_time = date_to_epoch(days[-1]) + _SNAPSHOT_HOUR_OFFSET
        market = render_mock_market(
            [replace(_app_states(p, days)[-1][1], fetch_time=fetch_time) for p in plan.apps],
            n_seeds=render_market_seeds,
            seed=script.seed,
        )
        with open(out / "market_pages.jsonl", "w", encoding="utf-8") as f:
            for app in sorted(market.pages):
                f.write(canonical_json({"app": app, "page": market.pages[app]}) + "\n")
        (out / "seeds.txt").write_text(
            "\n".join(market.seeds) + "\n", encoding="utf-8"
        )
    return truth


# --- mock market rendering ------------------------------------------------------


@dataclass
class MockMarketData:
    pages: dict  # app id -> page text
    graph: dict  # app id -> similar app ids, document order
    seeds: list


def render_mock_market(
    snapshots: Sequence[AppSnapshot],
    n_seeds: int = 5,
    seed: int = 0,
    extra_links: int = 2,
) -> MockMarketData:
    """Render one page per snapshot and a similar-apps graph.

    Every app is reachable from the seed set: each non-seed app is linked
    from some earlier-placed app. ``extra_links`` adds up to that many
    random extra anchors per page.
    """
    from .harvester import render_page  # only --render-market needs the harvester

    if not snapshots:
        raise ConfigError("render_mock_market needs at least one snapshot")
    if n_seeds < 1:
        raise ConfigError(f"render_mock_market needs at least one seed, not {n_seeds}")
    by_id = {s.app: s for s in snapshots}
    apps = sorted(by_id)
    n_seeds = min(n_seeds, len(apps))
    seeds = apps[:n_seeds]
    rng = keyed_rng(seed, "mock-market")
    graph: dict[str, list[str]] = {app: [] for app in apps}
    placed = list(seeds)
    rest = apps[n_seeds:]
    order = [rest[int(i)] for i in rng.permutation(len(rest))]
    for app in order:
        parent = placed[int(rng.integers(0, len(placed)))]
        graph[parent].append(app)
        placed.append(app)
    for app in apps:
        k = int(rng.integers(0, extra_links + 1))
        for _ in range(k):
            target = apps[int(rng.integers(0, len(apps)))]
            if target != app and target not in graph[app]:
                graph[app].append(target)
    pages = {app: render_page(by_id[app], graph[app]) for app in apps}
    return MockMarketData(pages=pages, graph=graph, seeds=list(seeds))
