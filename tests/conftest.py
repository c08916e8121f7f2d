"""Shared fixtures and record factories."""

from __future__ import annotations

import datetime as dt
import json
import re
from dataclasses import dataclass

import numpy as np
import pytest

from marketpulse.anomaly import ScamCluster, ScamParams, _title_trigrams
from marketpulse.errors import (
    ConfigError,
    DegenerateTailError,
    InsufficientDataError,
    InvalidInputError,
    MalformedDocumentError,
)
from marketpulse.harvester import unescape_attr
from marketpulse.metrics import PowerLawFit, fit_power_law
from marketpulse.model import (
    MAX_RANKING_LENGTH,
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    AppSnapshot,
    DownloadBucket,
    ListType,
    ReviewRecord,
    TimelineState,
    TopKObservation,
    canonical_json,
    date_to_epoch,
    epoch_day_to_date,
    parse_date,
    review_from_trusted_record,
    snapshot_from_trusted_record,
    topk_from_trusted_record,
    validate_app_id,
)
from marketpulse.store import AppSeries, AppStates, DatasetManifest, SnapStore
from marketpulse.timeline import ChangeEvent, diff_states
from marketpulse.topk import SimilarityResult

DAY0 = dt.date(2012, 4, 1)


def epoch_to_date(ts: int) -> dt.date:
    """UTC date of the epoch second ``ts``."""
    return epoch_day_to_date(ts // SECONDS_PER_DAY)


def make_snapshot(
    app: str = "com.example.app",
    day: dt.date = DAY0,
    hour: int = 12,
    **overrides,
) -> AppSnapshot:
    fields = dict(
        app=app,
        fetch_time=date_to_epoch(day) + hour * 3600,
        title="Example App",
        developer="Example Dev",
        category="Tools",
        price_cents=0,
        free=True,
        downloads=DownloadBucket(1_000, 5_000),
        rating_avg=4.2,
        rating_count=120,
        version="1.0.0",
        last_updated=day - dt.timedelta(days=30),
        size_bytes=1_800_000,
        permissions=frozenset({"INTERNET", "VIBRATE"}),
    )
    fields.update(overrides)
    if "price_cents" in overrides and "free" not in overrides:
        fields["free"] = fields["price_cents"] == 0
    return AppSnapshot(**fields)


def timeline_state(s: AppSnapshot) -> TimelineState:
    """The fields of ``s`` that its app's timeline reads."""
    return TimelineState(
        s.price_cents,
        s.downloads,
        s.rating_count,
        s.version,
        s.category,
        s.permissions,
        s.last_updated,
    )


class InvalidPairError(InvalidInputError):
    """Snapshot pair cannot be diffed (app mismatch or non-increasing time)."""


def diff_snapshots(prev: AppSnapshot, next: AppSnapshot) -> list[ChangeEvent]:
    """Typed change events between two snapshots of the same app, dated
    on the later one's UTC day; see ``diff_states``."""
    if prev.app != next.app:
        raise InvalidPairError(f"app mismatch: {prev.app!r} vs {next.app!r}")
    if prev.fetch_time >= next.fetch_time:
        raise InvalidPairError("snapshots must be strictly increasing in fetch_time")
    return diff_states(
        next.app,
        epoch_to_date(next.fetch_time),
        timeline_state(prev),
        timeline_state(next),
    )


def in_unit_range(result: SimilarityResult) -> bool:
    """Whether an inverse rank measure lies in [0, 1], up to rounding."""
    return -1e-12 <= result.m <= 1.0 + 1e-12


def reference_scam_scan(snapshots, params: ScamParams = ScamParams()) -> list[ScamCluster]:
    """Reference ``scam_pattern_scan``: every candidate pair of a developer
    is compared, linked ones included."""
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
                ta, tb = trigrams[i], trigrams[j]
                union = len(ta | tb)
                sim = len(ta & tb) / union if union else 0.0
                if sim >= params.title_similarity:
                    parent[find(i)] = find(j)
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


def states_of(series: AppSeries) -> AppStates:
    """The state series ``build_app_timeline`` folds, from decoded snapshots."""
    return AppStates(
        series.app,
        tuple(s.fetch_time for s in series.snapshots),
        tuple(timeline_state(s) for s in series.snapshots),
    )


def scan_x_min(samples, min_tail: int = 10, max_candidates: int = 200) -> PowerLawFit:
    """Reference power-law fit: pick x_min by minimizing the KS distance
    over sample values.

    Candidate x_min values are the unique sample values (all but the
    largest), thinned to at most ``max_candidates``. Tails smaller than
    ``min_tail`` are skipped to keep the KS statistic meaningful.
    """
    x = np.asarray(samples, dtype=float)
    candidates = np.unique(x)[:-1]
    if len(candidates) == 0:
        raise InsufficientDataError("need at least two distinct sample values")
    if len(candidates) > max_candidates:
        idx = np.linspace(0, len(candidates) - 1, max_candidates).astype(int)
        candidates = candidates[idx]
    best: PowerLawFit | None = None
    for x_min in candidates:
        if x_min <= 0:
            continue
        try:
            fit = fit_power_law(x, x_min=float(x_min))
        except (DegenerateTailError, InsufficientDataError):
            continue
        if fit.n_tail < min_tail:
            continue
        if best is None or fit.ks_distance < best.ks_distance:
            best = fit
    if best is None:
        raise InsufficientDataError("no candidate x_min left a usable tail")
    return best


def make_review(
    app: str = "com.example.app",
    review_id: str = "r1",
    rating: int = 5,
    day: dt.date = DAY0,
    **overrides,
) -> ReviewRecord:
    fields = dict(
        app=app,
        review_id=review_id,
        reviewer_id="u1",
        date=day,
        rating=rating,
        title="nice",
        text="works great",
    )
    fields.update(overrides)
    return ReviewRecord(**fields)


def make_topk(
    ranking,
    hour: int = 0,
    list_type: ListType = ListType.FREE,
    day: dt.date = DAY0,
) -> TopKObservation:
    return TopKObservation(
        list_type=list_type,
        fetch_time=date_to_epoch(day) + hour * 3600,
        ranking=tuple(ranking),
    )


def market_script():
    """The script of the ``market`` fixture."""
    from marketpulse import simgen
    from marketpulse.simgen import TopKListConfig

    return simgen.MarketScript(
        seed=11,
        n_developers=30,
        observation_days=12,
        topk_lists={ListType.FREE: TopKListConfig(length=10)},
    )


@dataclass
class GeneratedMarket:
    """A simulated market in memory: the plan, whose apps hold the ground
    truth, and the decoded records ``write_dataset`` writes for it."""

    plan: object  # simgen._MarketPlan
    snapshots: list
    reviews: list
    topk: list

    @property
    def manifest(self) -> DatasetManifest:
        return self.plan.manifest


def generate(script) -> GeneratedMarket:
    """Plan ``script`` and decode the lines of its simulated market."""
    from marketpulse import simgen

    plan = simgen.plan_market(script)
    return GeneratedMarket(
        plan=plan,
        snapshots=[
            snapshot_from_trusted_record(json.loads(line))
            for day_lines in simgen._snapshot_lines(plan)
            for line in day_lines
        ],
        reviews=[
            review_from_trusted_record(json.loads(line))
            for line in simgen._review_lines(plan)
        ],
        topk=[topk_from_trusted_record(r) for r in simgen._iter_topk_records(plan)],
    )


def power_law_samples(rng, alpha: float, x_min: float, n: int) -> np.ndarray:
    """Continuous inverse-CDF samples with density ~ x^-alpha for x >= x_min."""
    if alpha <= 1.0:
        raise ConfigError("power-law exponent must exceed 1")
    u = rng.random(n)
    return x_min * (1.0 - u) ** (-1.0 / (alpha - 1.0))


@pytest.fixture(scope="module")
def market():
    """A small simulated market with a top-k list."""
    return generate(market_script())


def snapshot_to_record(s: AppSnapshot) -> dict:
    """Reference record dict of a snapshot: ``canonical_json`` of it plus a
    newline is ``model.canonical_snapshot_line(s)``."""
    return {
        "app": s.app,
        "fetch_time": s.fetch_time,
        "title": s.title,
        "developer": s.developer,
        "category": s.category,
        "price_cents": s.price_cents,
        "free": s.free,
        "downloads_lo": s.downloads.lo,
        "downloads_hi": s.downloads.hi,
        "rating_avg": s.rating_avg,
        "rating_count": s.rating_count,
        "version": s.version,
        "last_updated": s.last_updated.isoformat(),
        "size_bytes": s.size_bytes,
        "permissions": sorted(s.permissions),
    }


def review_to_record(r: ReviewRecord) -> dict:
    return {
        "app": r.app,
        "review_id": r.review_id,
        "reviewer_id": r.reviewer_id,
        "date": r.date.isoformat(),
        "rating": r.rating,
        "title": r.title,
        "text": r.text,
    }


def topk_to_record(o: TopKObservation) -> dict:
    return {
        "list_type": o.list_type.value,
        "fetch_time": o.fetch_time,
        "ranking": list(o.ranking),
    }


TO_RECORD = {  # kind -> typed record to record dict
    "snapshots": snapshot_to_record,
    "reviews": review_to_record,
    "topk": topk_to_record,
}


def ingest_records(store: SnapStore, kind: str, records):
    """Ingest typed records of ``kind`` through ``store.ingest_lines``."""
    to_record = TO_RECORD[kind]
    return store.ingest_lines(kind, (canonical_json(to_record(r)) for r in records))


def ingest_market(root, market, days=None) -> SnapStore:
    """Ingest ``market`` into a new store at ``root`` (only the first ``days``
    snapshot days when given) and return the store."""
    store = SnapStore.create(root, market.manifest)
    snapshots = market.snapshots
    if days is not None:
        cutoff = min(s.fetch_time for s in snapshots) + days * 86400
        snapshots = [s for s in snapshots if s.fetch_time < cutoff]
    ingest_records(store, "snapshots", snapshots)
    ingest_records(store, "reviews", market.reviews)
    ingest_records(store, "topk", market.topk)
    return store


@pytest.fixture
def manifest() -> DatasetManifest:
    return DatasetManifest(
        name="test-dataset",
        currency="USD",
        observation_start=DAY0,
        observation_end=DAY0 + dt.timedelta(days=59),
        snapshot_cadence_hint="daily",
    )


@pytest.fixture
def store(tmp_path, manifest) -> SnapStore:
    return SnapStore.create(tmp_path / "store", manifest)


# --- reference record path -----------------------------------------------------
# The reference for the line codecs of marketpulse.model: decode the record
# dict into a dataclass with per-field checks, validate the dataclass, turn
# it back into a dict and dump that.


def _expect_str(rec: dict, key: str) -> str:
    value = rec[key]
    if not isinstance(value, str):
        raise ValueError(f"field {key!r} must be a string")
    return value


def _expect_int(rec: dict, key: str) -> int:
    value = rec[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"field {key!r} must be an integer")
    return value


def _expect_bool(rec: dict, key: str) -> bool:
    value = rec[key]
    if not isinstance(value, bool):
        raise ValueError(f"field {key!r} must be a boolean")
    return value


def _expect_number(rec: dict, key: str) -> float:
    value = rec[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"field {key!r} must be a number")
    return value


def snapshot_from_record(rec: dict) -> AppSnapshot:
    """Decode one snapshots.jsonl record. Raises ValueError on bad shape."""
    try:
        permissions = rec["permissions"]
        if not isinstance(permissions, list) or not all(
            isinstance(p, str) for p in permissions
        ):
            raise ValueError("permissions must be an array of strings")
        if len(set(permissions)) != len(permissions):
            raise ValueError("permissions has duplicates")
        return AppSnapshot(
            app=_expect_str(rec, "app"),
            fetch_time=_expect_int(rec, "fetch_time"),
            title=_expect_str(rec, "title"),
            developer=_expect_str(rec, "developer"),
            category=_expect_str(rec, "category"),
            price_cents=_expect_int(rec, "price_cents"),
            free=_expect_bool(rec, "free"),
            downloads=DownloadBucket(
                _expect_int(rec, "downloads_lo"), _expect_int(rec, "downloads_hi")
            ),
            rating_avg=float(_expect_number(rec, "rating_avg")),
            rating_count=_expect_int(rec, "rating_count"),
            version=_expect_str(rec, "version"),
            last_updated=parse_date(_expect_str(rec, "last_updated")),
            size_bytes=_expect_int(rec, "size_bytes"),
            permissions=frozenset(permissions),
        )
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]!r}") from None


def review_from_record(rec: dict) -> ReviewRecord:
    try:
        return ReviewRecord(
            app=_expect_str(rec, "app"),
            review_id=_expect_str(rec, "review_id"),
            reviewer_id=_expect_str(rec, "reviewer_id"),
            date=parse_date(_expect_str(rec, "date")),
            rating=_expect_int(rec, "rating"),
            title=_expect_str(rec, "title"),
            text=_expect_str(rec, "text"),
        )
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]!r}") from None


def topk_from_record(rec: dict) -> TopKObservation:
    try:
        list_type = ListType(_expect_str(rec, "list_type"))
    except ValueError:
        raise ValueError(f"unknown list_type {rec.get('list_type')!r}") from None
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]!r}") from None
    try:
        ranking = rec["ranking"]
        if not isinstance(ranking, list) or not all(
            isinstance(a, str) for a in ranking
        ):
            raise ValueError("ranking must be an array of strings")
        return TopKObservation(
            list_type=list_type,
            fetch_time=_expect_int(rec, "fetch_time"),
            ranking=tuple(ranking),
        )
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]!r}") from None


def validate_snapshot(s: AppSnapshot) -> list[str]:
    """Every violated invariant of ``s``; the snapshot is valid iff empty."""
    violations = validate_app_id(s.app)
    if not -(2**63) <= s.fetch_time < 2**63:
        violations.append("fetch_time outside the signed 64-bit range")
    if s.price_cents < 0:
        violations.append("price_cents negative")
    if s.price_cents >= 2**63:
        violations.append("price_cents past the signed 64-bit range")
    if s.free != (s.price_cents == 0):
        violations.append("free flag inconsistent with price_cents")
    if not (0.0 <= s.rating_avg <= 5.0):
        violations.append("rating_avg out of [0,5]")
    if s.rating_count < 0:
        violations.append("rating_count negative")
    if s.rating_count >= 2**63:
        violations.append("rating_count past the signed 64-bit range")
    if s.downloads.lo < 0:
        violations.append("downloads lower bound negative")
    if s.downloads.lo >= s.downloads.hi:
        violations.append("downloads bucket empty (lo >= hi)")
    if s.downloads.hi >= 2**63:
        violations.append("downloads_hi past the signed 64-bit range")
    if s.size_bytes < 0:
        violations.append("size_bytes negative")
    if date_to_epoch(s.last_updated) > s.fetch_time:
        violations.append("last_updated in future")
    return violations


def validate_review(r: ReviewRecord) -> list[str]:
    violations = validate_app_id(r.app)
    if not r.review_id:
        violations.append("review_id empty")
    if r.rating not in (1, 2, 3, 4, 5):
        violations.append("rating out of range")
    return violations


def validate_topk(o: TopKObservation) -> list[str]:
    violations = []
    if len(o.ranking) > MAX_RANKING_LENGTH:
        violations.append(f"ranking longer than {MAX_RANKING_LENGTH}")
    if len(set(o.ranking)) != len(o.ranking):
        violations.append("duplicate app in ranking")
    if not -(2**63) <= o.fetch_time < 2**63:
        violations.append("fetch_time outside the signed 64-bit range")
    if o.fetch_time % SECONDS_PER_HOUR != 0:
        violations.append("fetch_time not aligned to the hour")
    for app in o.ranking:
        bad = validate_app_id(app)
        if bad:
            violations.extend(f"ranking entry: {v}" for v in bad)
            break
    return violations


def snapshot_state_key(s: AppSnapshot) -> tuple:
    return (
        s.price_cents,
        s.downloads.lo,
        s.downloads.hi,
        s.rating_count,
        s.version,
        s.category,
        s.permissions,
        s.last_updated.toordinal(),
    )


_REFERENCE_PATHS = {
    "snapshots": (snapshot_from_record, validate_snapshot, snapshot_to_record),
    "reviews": (review_from_record, validate_review, review_to_record),
    "topk": (topk_from_record, validate_topk, topk_to_record),
}


def reference_line(kind: str, rec: dict) -> tuple[bytes, tuple | None]:
    """The canonical line and state key the line codec of ``kind``
    (``marketpulse.model.snapshot_line``, ``review_line`` or ``topk_line``)
    returns for ``rec``, by the reference path; raises ValueError with the
    same message."""
    decode, validate, encode = _REFERENCE_PATHS[kind]
    record = decode(rec)
    violations = validate(record)
    if violations:
        raise ValueError("; ".join(violations))
    line = json.dumps(encode(record), sort_keys=True, separators=(",", ":")) + "\n"
    state = snapshot_state_key(record) if kind == "snapshots" else None
    return line.encode("utf-8"), state


# --- reference simulated lines ------------------------------------------------
# The reference for marketpulse.simgen's line generators: one record dict per
# snapshot and per review, each through canonical_json, and one
# Generator.choice draw per app-day that has organic reviews.


def reference_snapshot_lines(plan) -> list[str]:
    """Canonical snapshot lines of ``plan`` sorted by (fetch_time, app)."""
    from marketpulse.simgen import _SNAPSHOT_HOUR_OFFSET

    apps = sorted(plan.apps, key=lambda p: p.app)
    states = {}
    pointers = {}
    for p in apps:
        states[p.app] = {
            "price_cents": p.price0,
            "downloads": p.bucket0,
            "rating_count": p.rating_count0,
            "version": p.version0,
            "permissions": p.permissions0,
            "category": p.category,
            "last_updated": p.last_updated0,
        }
        pointers[p.app] = 0
    update_pointers = {p.app: 0 for p in apps}
    lines = []
    for day in plan.snapshot_days:
        fetch_time = date_to_epoch(day) + _SNAPSHOT_HOUR_OFFSET
        for p in apps:
            state = states[p.app]
            i = pointers[p.app]
            while i < len(p.changes) and p.changes[i].day <= day:
                state[p.changes[i].field] = p.changes[i].new
                i += 1
            pointers[p.app] = i
            j = update_pointers[p.app]
            while j < len(p.update_days) and p.update_days[j] <= day:
                state["last_updated"] = p.update_days[j]
                j += 1
            update_pointers[p.app] = j
            rec = {
                "app": p.app,
                "fetch_time": fetch_time,
                "title": p.title,
                "developer": p.developer,
                "category": state["category"],
                "price_cents": state["price_cents"],
                "free": state["price_cents"] == 0,
                "downloads_lo": state["downloads"].lo,
                "downloads_hi": state["downloads"].hi,
                "rating_avg": p.rating_avg,
                "rating_count": state["rating_count"],
                "version": state["version"],
                "last_updated": state["last_updated"].isoformat(),
                "size_bytes": p.size_bytes,
                "permissions": sorted(state["permissions"]),
            }
            lines.append(canonical_json(rec) + "\n")
    return lines


def _reference_review_record(app: str, day: dt.date, rating: int, seq: int) -> dict:
    return {
        "app": app,
        "review_id": f"r{seq:06d}",
        "reviewer_id": f"u{seq:06d}",
        "date": day.isoformat(),
        "rating": rating,
        "title": f"review {seq}",
        "text": f"synthetic review {seq} of {app}",
    }


def reference_review_lines(plan) -> list[str]:
    """Canonical review lines of ``plan`` sorted by (date, app, review id)."""
    from marketpulse.simgen import _RATING_WEIGHTS, keyed_rng

    script = plan.script
    records = []
    for app_plan in sorted(plan.apps, key=lambda p: p.app):
        rng = keyed_rng(script.seed, f"reviews:{app_plan.app}")
        n_days = script.observation_days
        organic = rng.poisson(app_plan.review_base_daily, n_days)
        burst = np.zeros(n_days, dtype=int)
        burst_rating = {}
        for campaign in app_plan.campaigns:
            rating = 5 if campaign.polarity == "positive" else 1
            for offset in range(campaign.start_day, campaign.start_day + campaign.duration_days):
                burst[offset] += campaign.daily_volume
                burst_rating[offset] = rating
        seq = 0
        ratings_pool = np.arange(1, 6)
        for offset in range(n_days):
            day = script.observation_start + dt.timedelta(days=offset)
            k = int(organic[offset])
            if k:
                ratings = rng.choice(ratings_pool, size=k, p=_RATING_WEIGHTS)
            else:
                ratings = ()
            for rating in ratings:
                records.append(_reference_review_record(app_plan.app, day, int(rating), seq))
                seq += 1
            for _ in range(int(burst[offset])):
                records.append(
                    _reference_review_record(app_plan.app, day, burst_rating[offset], seq)
                )
                seq += 1
    records.sort(key=lambda r: (r["date"], r["app"], r["review_id"]))
    return [canonical_json(rec) + "\n" for rec in records]


# --- text the encoder never writes ----------------------------------------------
# Edits of a canonical line into text that json.loads accepts (or, for the
# integers too long for int(), rejects) but that canonical_json never
# writes: other escapes of the same characters, raw characters the encoder
# escapes, and other spellings of a number or a date. An edit that finds
# nothing to change leaves the line as it was.


def _week_date(match) -> str:
    try:
        year, week, weekday = dt.date.fromisoformat(match[1]).isocalendar()
    except ValueError:
        return match[0]
    return f'"{year}-W{week:02d}-{weekday}"'


NONCANONICAL_TEXT_EDITS = {
    "escaped slash": lambda line: line.replace("/", "\\/"),
    "upper-case hex escape": lambda line: line.replace("\\u00e9", "\\u00E9"),
    "escaped printable": lambda line: line.replace("A", "\\u0041", 1),
    "hex escape of backspace": lambda line: line.replace("\\b", "\\u0008"),
    "raw DEL": lambda line: line.replace("\\u007f", "\x7f"),
    "raw non-ASCII": lambda line: line.replace("\\u00e9", "\u00e9"),
    "minus zero": lambda line: re.sub(r":0([,}])", r":-0\1", line),
    "trailing zero": lambda line: re.sub(r'("rating_avg":-?[0-9]+\.[0-9]+)', r"\g<1>0", line),
    "exponent": lambda line: re.sub(r'("rating_avg":[-0-9.]+)', r"\g<1>e0", line),
    "upper-case exponent": lambda line: re.sub(r'"rating_avg":[^,}]+', '"rating_avg":1E0', line),
    "basic date": lambda line: re.sub(
        r'"([0-9]{4})-([0-9]{2})-([0-9]{2})"', r'"\1\2\3"', line
    ),
    "week date": lambda line: re.sub(r'"([0-9]{4}-[0-9]{2}-[0-9]{2})"', _week_date, line),
    "fetch_time beyond int()": lambda line: re.sub(
        r'"fetch_time":-?[0-9]+', '"fetch_time":' + "1" * 4400, line
    ),
    "other int beyond int()": lambda line: re.sub(
        r'"(size_bytes|rating)":-?[0-9]+', r'"\1":' + "2" * 4400, line
    ),
}


# --- reference page tokenizer ---------------------------------------------------
# A character scanner of the market page grammar: the tokens the compiled
# patterns of harvester._page_tokens must give, and the pages they must reject.


def _reference_tag(tag: str) -> tuple[str, dict[str, str], bool]:
    """(name, attributes, is_closing) of one tag body (no angle brackets)."""
    tag = tag.strip()
    closing = tag.startswith("/")
    if closing:
        tag = tag[1:]
    i = 0
    while i < len(tag) and not tag[i].isspace():
        i += 1
    name = tag[:i]
    if not name:
        raise MalformedDocumentError("empty tag")
    attrs: dict[str, str] = {}
    while i < len(tag):
        while i < len(tag) and tag[i].isspace():
            i += 1
        if i >= len(tag):
            break
        j = i
        while j < len(tag) and tag[j] not in "= \t":
            j += 1
        attr = tag[i:j]
        while j < len(tag) and tag[j].isspace():
            j += 1
        if j >= len(tag) or tag[j] != "=":
            raise MalformedDocumentError(f"attribute {attr!r} has no value")
        j += 1
        if j >= len(tag) or tag[j] != '"':
            raise MalformedDocumentError(f"attribute {attr!r} value not quoted")
        j += 1
        end = tag.find('"', j)
        if end < 0:
            raise MalformedDocumentError(f"attribute {attr!r} value unterminated")
        attrs[attr] = unescape_attr(tag[j:end])
        i = end + 1
    return name, attrs, closing


def reference_page_tokens(raw: str) -> list[tuple[str, dict[str, str], bool]]:
    """The tags of ``raw`` in order; raises MalformedDocumentError on text
    outside the tags or a malformed tag."""
    tokens = []
    pos = 0
    while True:
        start = raw.find("<", pos)
        if start < 0:
            if raw[pos:].strip():
                raise MalformedDocumentError("stray text outside tags")
            return tokens
        if raw[pos:start].strip():
            raise MalformedDocumentError("stray text between tags")
        end = raw.find(">", start)
        if end < 0:
            raise MalformedDocumentError("unterminated tag")
        tokens.append(_reference_tag(raw[start + 1 : end]))
        pos = end + 1
