"""Command-line surface: simulate, ingest, crawl, and report commands.

All reports are plot-data files (JSON/CSV), deterministic for a given
store and flags. Exit codes: 0 success, 1 validation/usage error, 2 I/O
error.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import MarketPulseError, StoreIOError
from .model import (
    SECONDS_PER_DAY,
    ListType,
    canonical_snapshot_line,
    epoch_day_to_date,
    parse_date,
)

if TYPE_CHECKING:
    from .store import SnapStore

STORE_ENV_VAR = "MARKETPULSE_STORE"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _count(noun: str, least: int = 0):
    """The argparse type of a count of ``noun``: a whole number, ``least``
    or more."""

    def parse(text: str) -> int:
        try:
            count = int(text)
        except ValueError:
            count = least - 1
        if count < least:
            raise argparse.ArgumentTypeError(
                f"expected a whole number of {noun}, {least} or more: {text!r}"
            )
        return count

    return parse


def _factor(text: str) -> float:
    """The argparse type of a finite number, 0 or more."""
    try:
        factor = float(text)
    except ValueError:
        factor = -1.0
    if not 0 <= factor < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a finite number, 0 or more: {text!r}")
    return factor


def _ranks(text: str) -> list[int]:
    """The argparse type of ``--ranks``: one or more comma-separated whole
    numbers. A rank below 1 passes here; the report refuses it."""
    try:
        return [int(rank) for rank in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected one or more comma-separated whole numbers: {text!r}"
        ) from None


def _replace_file(path: Path, write) -> None:
    """Run ``write(f)`` on a temp file beside ``path``, then rename it over
    ``path``: a failed write leaves the previous file whole."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path: Path, payload) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _replace_file(path, lambda f: f.write(text))


def _report(path: Path, payload, summary=None) -> None:
    """Write ``payload`` to ``path`` and print ``summary``, or the payload
    when there is none, as one line of JSON."""
    _write_json(path, payload)
    print(json.dumps(payload if summary is None else summary, sort_keys=True))


def _write_csv(path: Path, header: list[str], rows) -> None:
    def write(f):
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)

    _replace_file(path, write)


def _fmt(value) -> str:
    if value is None:
        return "Undefined"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _histogram(values, bins: int = 50) -> list[tuple[float, float, int]]:
    """(bin_lo, bin_hi, count) rows over equal-width bins."""
    values = list(values)
    if not values:
        return []
    lo, hi = min(values), max(values)
    if lo == hi:
        return [(float(lo), float(hi), len(values))]
    width = (hi - lo) / bins
    counts = [0] * bins
    for v in values:
        i = min(int((v - lo) / width), bins - 1)
        counts[i] += 1
    return [
        (lo + i * width, lo + (i + 1) * width, counts[i]) for i in range(bins)
    ]


def _store_path(args) -> Path:
    store_path = args.store or os.environ.get(STORE_ENV_VAR)
    if not store_path:
        raise _UsageError(f"--store is required (or set {STORE_ENV_VAR})")
    return Path(store_path)


def _open_store(args) -> SnapStore:
    from .store import SnapStore

    return SnapStore.open(_store_path(args))


# Each command imports only the layers it uses. The timeline builders are
# globals of this module, bound the first time a command needs them, and
# every command calls them through these globals, so a builder rebound on
# this module (the benchmark's tracer wraps them) is the one called.
_TIMELINE_NAMES = ("build_app_timeline", "build_review_timeline", "timeline_csv_rows")


def _import_timeline() -> None:
    from . import timeline

    for name in _TIMELINE_NAMES:
        globals().setdefault(name, getattr(timeline, name))


def __getattr__(name: str):
    # PEP 562: a builder read as an attribute before any command bound it
    if name not in _TIMELINE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _import_timeline()
    return globals()[name]


def _timelines(store: SnapStore):
    _import_timeline()
    return [build_app_timeline(store.app_states(app)) for app in store.apps()]


# --- subcommands ----------------------------------------------------------------


def cmd_simulate(args) -> int:
    # simgen needs numpy; commands that never simulate skip importing it
    from . import simgen

    script = simgen.load_script(args.script)
    truth = simgen.write_dataset(
        script, args.out, render_market_seeds=args.render_market
    )
    summary = {
        "apps": len(truth["app_ids"]),
        "developers": len(truth["dev_app_counts"]),
        "out": str(args.out),
    }
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_ingest(args) -> int:
    from .store import DatasetManifest, SnapStore

    data_dir = Path(args.data)
    if not data_dir.is_dir():
        raise FileNotFoundError(f"data directory {data_dir} does not exist")
    store_path = _store_path(args)
    manifest_path = data_dir / "manifest.json"
    if (store_path / "manifest.json").exists():
        store = SnapStore.open(store_path)
    elif manifest_path.exists():
        manifest = DatasetManifest.from_record(
            json.loads(manifest_path.read_text(encoding="utf-8"))
        )
        store = SnapStore.create(store_path, manifest)
    else:
        # no manifest shipped with the data: fixed placeholder dates keep
        # store creation deterministic
        store = SnapStore.create(
            store_path,
            DatasetManifest(
                name="dataset",
                currency="USD",
                observation_start=dt.date(1970, 1, 1),
                observation_end=dt.date(1970, 1, 1),
            ),
        )
    report = store.ingest_dir(data_dir)
    print(json.dumps(report.to_record(), sort_keys=True))
    return EXIT_OK


def cmd_crawl(args) -> int:
    from . import harvester

    seeds = [
        line.strip()
        for line in Path(args.seeds).read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    # an existing path is a dataset directory or a pages file; any other
    # value whose text after its last colon is all digits is host:port, and
    # the rest are pages files
    market_arg = str(args.market)
    market_path = Path(market_arg)
    host, colon, port = market_arg.rpartition(":")
    if market_path.is_dir():
        market = harvester.DictMarket.load(str(market_path / "market_pages.jsonl"))
    elif colon and port.isascii() and port.isdigit() and not market_path.exists():
        market = harvester.RemoteMarket(host, int(port))
    else:
        market = harvester.DictMarket.load(market_arg)
    # flags left unset keep CrawlConfig's defaults
    given = {
        "ban_threshold": args.ban_threshold,
        "politeness_delay_ms": args.politeness_delay_ms,
    }
    config = harvester.CrawlConfig(
        workers=args.workers,
        **{name: value for name, value in given.items() if value is not None},
    )
    result = harvester.crawl(seeds, market, config)
    out = Path(args.out)

    def write_snapshots(f):
        # sorted so multi-worker crawls stay byte-deterministic; a crawl
        # fetches an app once, so no two lines share (fetch_time, app)
        lines = sorted(
            (snap.fetch_time, snap.app, canonical_snapshot_line(snap))
            for snap in result.snapshots
        )
        f.writelines(line for _, _, line in lines)

    _replace_file(out / "snapshots.jsonl", write_snapshots)
    _report(out / "crawl_report.json", result.report.to_record())
    return EXIT_OK


def cmd_timeline(args) -> int:
    _import_timeline()
    store = _open_store(args)
    timeline = build_app_timeline(store.app_states(args.app))
    rows = timeline_csv_rows(timeline)
    writer = csv.writer(sys.stdout)
    writer.writerow(["app", "day", "kind", "old", "new"])
    writer.writerows(rows)
    if args.out:
        _write_csv(Path(args.out), ["app", "day", "kind", "old", "new"], rows)
    return EXIT_OK


def _reference_date(args, store: SnapStore):
    """``--reference``, or else the later of the manifest's observation_end
    and the UTC day of the newest snapshot fetch_time."""
    if args.reference:
        return parse_date(args.reference)
    end, newest = store.manifest.observation_end, store.newest_fetch_day()
    return end if newest is None else max(end, newest)


def cmd_metrics(args) -> int:
    # each report command imports only its own layer
    from . import metrics

    store = _open_store(args)
    out = Path(args.out)
    if args.what == "staleness":
        reference = _reference_date(args, store)
        rows = []
        n_stale = 0
        for app, state in store.latest_states().items():
            verdict = metrics.classify_staleness(
                state.last_updated, reference, args.window_days
            )
            n_stale += verdict.is_stale
            rows.append((app, state.last_updated.isoformat(), verdict.status.value))
        _write_csv(out / "staleness.csv", ["app", "last_updated", "status"], rows)
        payload = {
            "apps": len(rows),
            "stale": n_stale,
            "stale_share": n_stale / len(rows) if rows else None,
            "window_days": args.window_days,
            "reference": reference.isoformat(),
        }
        _report(out / "staleness.json", payload)
    elif args.what == "popularity":
        counts = {klass.value: 0 for klass in metrics.PopularityClass}
        rows = []
        for app, state in store.latest_states().items():
            klass = metrics.classify_popularity(state.downloads)
            counts[klass.value] += 1
            rows.append((app, state.downloads.lo, state.downloads.hi, klass.value))
        total = len(rows)
        _write_csv(
            out / "popularity.csv",
            ["app", "downloads_lo", "downloads_hi", "class"],
            rows,
        )
        payload = {
            "apps": total,
            "counts": counts,
            "shares": {
                k: (v / total if total else None) for k, v in counts.items()
            },
        }
        _report(out / "popularity.json", payload)
    elif args.what == "updates":
        rows = []
        update_counts = []
        for timeline in _timelines(store):
            stats = metrics.update_stats(timeline)
            update_counts.append(stats.update_count)
            rows.append(
                (timeline.app, stats.update_count, _fmt(stats.aui_days))
            )
        _write_csv(out / "updates.csv", ["app", "update_count", "aui_days"], rows)
        _write_csv(
            out / "updates_hist.csv",
            ["bin_lo", "bin_hi", "count"],
            [(a, b, c) for a, b, c in _histogram(update_counts)],
        )
        updated = sum(1 for c in update_counts if c > 0)
        payload = {
            "apps": len(update_counts),
            "updated_at_least_once": updated,
            "updated_share": updated / len(update_counts) if update_counts else None,
        }
        _report(out / "updates.json", payload)
    elif args.what == "price":
        return _metrics_price(args, store, out)
    elif args.what == "association":
        matrix = metrics.association_matrix(_timelines(store))
        kinds = [k.value for k in matrix.kinds]
        rows = []
        for ka in matrix.kinds:
            row = [ka.value]
            for kb in matrix.kinds:
                row.append(_fmt(matrix.q(ka, kb)))
            rows.append(row)
        _write_csv(out / "association.csv", ["kind"] + kinds, rows)
        payload = {
            "universe_size": matrix.universe_size,
            "q": {
                f"{ka.value}|{kb.value}": matrix.q(ka, kb)
                for ka in matrix.kinds
                for kb in matrix.kinds
            },
        }
        _report(
            out / "association.json",
            payload,
            {"universe_size": matrix.universe_size, "kinds": kinds},
        )
    elif args.what == "powerlaw":
        latest = store.latest_snapshots()
        apps_per_dev: dict[str, int] = {}
        ratings_per_dev: dict[str, int] = {}
        for snap in latest.values():
            apps_per_dev[snap.developer] = apps_per_dev.get(snap.developer, 0) + 1
            ratings_per_dev[snap.developer] = (
                ratings_per_dev.get(snap.developer, 0) + snap.rating_count
            )
        payload = {}
        for name, samples in (
            ("apps_per_developer", list(apps_per_dev.values())),
            ("ratings_per_developer", [v for v in ratings_per_dev.values() if v > 0]),
        ):
            try:
                fit = metrics.fit_power_law(samples, x_min=args.xmin)
                payload[name] = {
                    "alpha": fit.alpha,
                    "x_min": fit.x_min,
                    "n_tail": fit.n_tail,
                    "ks_distance": fit.ks_distance,
                }
            except MarketPulseError as exc:
                payload[name] = {"error": str(exc)}
        points = [
            (snap.downloads.midpoint(), snap.rating_count)
            for snap in latest.values()
        ]
        try:
            payload["downloads_ratings_slope"] = metrics.downloads_ratings_slope(
                points
            )
        except MarketPulseError:
            payload["downloads_ratings_slope"] = None
        _report(out / "powerlaw.json", payload)
    return EXIT_OK


def _metrics_price(args, store: SnapStore, out: Path) -> int:
    import statistics

    from . import metrics

    _import_timeline()
    reference = _reference_date(args, store)
    # a stored snapshot is free exactly when its price is 0 (checked at ingest)
    paid_latest = [
        (s.price_cents, s.last_updated)
        for s in store.latest_states().values()
        if s.price_cents
    ]
    medians = metrics.median_price_split(paid_latest, reference, args.window_days)
    cov = metrics.price_dispersion_cov([p for p, _ in paid_latest])
    change_counts = []
    # epoch day -> prices of the paid snapshots fetched that day
    daily_prices: dict[int, list[int]] = {}
    for app in store.apps():
        series = store.app_states(app)
        timeline = build_app_timeline(series)
        n_changes = sum(
            1
            for e in timeline.events
            if e.kind.value in ("price_up", "price_down")
        )
        if any(s.price_cents for s in series.states):
            change_counts.append(n_changes)
        for time, state in zip(series.times, series.states):
            if state.price_cents:
                daily_prices.setdefault(time // SECONDS_PER_DAY, []).append(
                    state.price_cents
                )
    ccdf = metrics.price_change_ccdf(change_counts)
    _write_csv(
        out / "price_ccdf.csv",
        ["changes_exceeding", "sqrt_apps"],
        [(x, repr(y)) for x, y in ccdf],
    )
    day_keys = sorted(daily_prices)
    avg_series = [statistics.fmean(daily_prices[d]) for d in day_keys]
    days = [epoch_day_to_date(d) for d in day_keys]
    decomposition_rows = []
    decomposition_error = None
    try:
        decomposition = metrics.seasonal_trend_decompose(avg_series, args.period)
        for i, day in enumerate(days):
            decomposition_rows.append(
                (
                    day.isoformat(),
                    repr(decomposition.observed[i]),
                    _nan_fmt(decomposition.trend[i]),
                    repr(decomposition.seasonal[i]),
                    _nan_fmt(decomposition.remainder[i]),
                )
            )
    except MarketPulseError as exc:
        decomposition_error = str(exc)
    _write_csv(
        out / "price_decomposition.csv",
        ["day", "observed", "trend", "seasonal", "remainder"],
        decomposition_rows,
    )
    payload = {
        "paid_apps": len(paid_latest),
        "cov": cov,
        "median_all_paid_cents": medians.all_paid_cents,
        "median_active_paid_cents": medians.active_paid_cents,
        "apps_with_price_change": sum(1 for c in change_counts if c > 0),
        "price_changer_share": (
            sum(1 for c in change_counts if c > 0) / len(change_counts)
            if change_counts
            else None
        ),
        "decomposition_period": args.period,
        "decomposition_error": decomposition_error,
    }
    _report(out / "price.json", payload)
    return EXIT_OK


def _nan_fmt(x: float) -> str:
    import math

    return "" if math.isnan(x) else repr(x)


def _parse_slice(text: str, series) -> tuple[int, int]:
    if text == "top24":
        return 1, 24
    if text == "last25":
        # no observations: overlap_stats reports that itself
        length = max((len(o.ranking) for o in series.observations), default=0)
        return max(1, length - 24), length
    lo, sep, hi = text.partition("..")
    if not sep:
        raise _UsageError(f"bad --slice {text!r} (use top24, last25, or a..b)")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise _UsageError(f"bad --slice {text!r}") from None


def cmd_topk(args) -> int:
    from . import topk as topk_mod

    store = _open_store(args)
    out = Path(args.out)
    list_type = ListType(args.list)
    series = store.query_list_series(list_type)
    tag = list_type.value.lower()
    if args.what == "lifecycle":
        summaries = topk_mod.lifecycle_summaries(series, per_episode=args.per_episode)
        rows = [
            (s.app, s.debut, s.hrs2peak, s.peak, s.tothrs, s.exit, s.rankdyn)
            for s in summaries
        ]
        _write_csv(
            out / f"lifecycle_{tag}.csv",
            ["app", "debut", "hrs2peak", "peak", "tothrs", "exit", "rankdyn"],
            rows,
        )
        for metric in ("debut", "hrs2peak", "peak", "tothrs", "exit", "rankdyn"):
            values = [getattr(s, metric) for s in summaries]
            _write_csv(
                out / f"lifecycle_{tag}_hist_{metric}.csv",
                ["bin_lo", "bin_hi", "count"],
                _histogram(values),
            )
        print(json.dumps({"list": list_type.value, "apps": len(summaries)}))
    elif args.what == "similarity":
        pairs = topk_mod.consecutive_similarity(series)
        _write_csv(
            out / f"similarity_{tag}.csv",
            ["fetch_time", "m"],
            [(t, repr(m)) for t, m in pairs],
        )
        print(
            json.dumps(
                {
                    "list": list_type.value,
                    "pairs": len(pairs),
                    "m_mean": sum(m for _, m in pairs) / len(pairs) if pairs else None,
                }
            )
        )
    elif args.what == "overlap":
        first, last = _parse_slice(args.slice, series)
        stats = topk_mod.overlap_stats(series, first, last)
        payload = {
            "list": list_type.value,
            "slice": [first, last],
            "item_count": stats.item_count,
            "o_mean": stats.o_mean,
            "o_min": stats.o_min,
            "m_mean": stats.m_mean,
            "m_sd": stats.m_sd,
            "o_first_last": stats.o_first_last,
        }
        _report(out / f"overlap_{tag}_{first}_{last}.json", payload)
    elif args.what == "occupancy":
        occupancy = topk_mod.rank_occupancy(series)
        _write_csv(
            out / f"occupancy_{tag}.csv",
            ["rank", "distinct_apps"],
            sorted(occupancy.items()),
        )
        print(json.dumps({"list": list_type.value, "ranks": len(occupancy)}))
    elif args.what == "lifetime":
        dist = topk_mod.lifetime_at_rank(series, args.ranks, mode=args.lifetime_mode)
        rows = []
        means = {}
        for rank in sorted(dist):
            hours = dist[rank]
            means[rank] = sum(hours) / len(hours) if hours else None
            rows.extend((rank, h) for h in hours)
        _write_csv(out / f"lifetime_{tag}.csv", ["rank", "hours"], rows)
        payload = {
            "list": list_type.value,
            "mean_hours": {str(r): means[r] for r in sorted(means)},
        }
        _report(out / f"lifetime_{tag}.json", payload)
    return EXIT_OK


def cmd_anomaly(args) -> int:
    from . import anomaly as anomaly_mod

    store = _open_store(args)
    out = Path(args.out)
    if args.what == "reviews":
        _import_timeline()
        params = anomaly_mod.SpikeParams(
            window_days=args.window_days, mad_k=args.mad_k, min_abs=args.min_abs
        )
        all_spikes = []
        for app in store.reviewed_apps():
            reviews = store.query_reviews(app)
            timeline = build_review_timeline(reviews, app=app)
            all_spikes.extend(anomaly_mod.detect_review_spikes(timeline, params))
        rows = [
            (
                s.app,
                s.day.isoformat(),
                s.polarity.value,
                s.count,
                repr(s.baseline),
                repr(s.score),
            )
            for s in all_spikes
        ]
        _write_csv(
            out / "review_spikes.csv",
            ["app", "day", "polarity", "count", "baseline", "score"],
            rows,
        )
        per_app: dict[str, list] = {}
        for s in all_spikes:
            per_app.setdefault(s.app, []).append(
                {
                    "day": s.day.isoformat(),
                    "polarity": s.polarity.value,
                    "count": s.count,
                    "baseline": s.baseline,
                    "score": s.score,
                }
            )
        payload = {"spikes": len(all_spikes), "apps": per_app}
        _report(out / "review_spikes.json", payload, {"spikes": len(all_spikes)})
    elif args.what == "permissions":
        policy = (
            anomaly_mod.DangerousPermissionPolicy.load(args.policy)
            if args.policy
            else anomaly_mod.DangerousPermissionPolicy.default()
        )
        flags = []
        for timeline in _timelines(store):
            flags.extend(
                anomaly_mod.permission_flags(
                    timeline, policy, churn_window_days=args.churn_window_days
                )
            )
        rows = [
            (f.app, f.day.isoformat(), f.kind.value, ";".join(f.detail))
            for f in flags
        ]
        _write_csv(
            out / "permission_flags.csv", ["app", "day", "kind", "detail"], rows
        )
        per_app = {}
        for f in flags:
            per_app.setdefault(f.app, []).append(
                {"day": f.day.isoformat(), "kind": f.kind.value, "detail": list(f.detail)}
            )
        payload = {"flags": len(flags), "apps": per_app}
        _report(out / "permission_flags.json", payload, {"flags": len(flags)})
    elif args.what == "decoupling":
        rate = anomaly_mod.permission_version_decoupling_rate(_timelines(store))
        payload = {"decoupling_rate": rate}
        _report(out / "decoupling.json", payload)
    elif args.what == "scam":
        clusters = anomaly_mod.scam_pattern_scan(store.latest_snapshots().values())
        payload = {
            "clusters": [
                {
                    "developer": c.developer,
                    "apps": list(c.apps),
                    "price_min_cents": c.price_min_cents,
                    "price_max_cents": c.price_max_cents,
                    "price_mean_cents": c.price_mean_cents,
                }
                for c in clusters
            ]
        }
        _report(out / "scam_clusters.json", payload, {"clusters": len(clusters)})
    elif args.what == "flags":
        if not args.flags:
            raise _UsageError("anomaly flags requires --flags FILE")
        joined = anomaly_mod.join_external_flags(args.flags, store.review_counts())
        rows = [
            (f.app, f.flag_count, f.review_count, int(f.selected)) for f in joined
        ]
        _write_csv(
            out / "external_flags.csv",
            ["app", "flag_count", "review_count", "selected"],
            rows,
        )
        payload = {"apps": len(joined), "selected": sum(f.selected for f in joined)}
        _report(out / "external_flags.json", payload)
    return EXIT_OK


# --- parser wiring ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="marketpulse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", help="generate a synthetic market dataset")
    p.add_argument("--script", required=True, help="MarketScript JSON file")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument(
        "--render-market",
        type=_count("seeds"),
        default=0,
        metavar="N_SEEDS",
        help="also render crawlable market pages with this many seeds",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ingest", help="ingest a dataset directory into a store")
    p.add_argument("--data", required=True)
    p.add_argument("--store", default=None)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("crawl", help="crawl a market endpoint from seed apps")
    p.add_argument("--seeds", required=True, help="file with one app id per line")
    p.add_argument(
        "--market",
        required=True,
        help="a dataset directory, a market_pages.jsonl file, or host:port "
        "(a value that is no existing path and ends in a colon and digits)",
    )
    p.add_argument("--workers", type=int, default=1)
    # unset means the harvester's default, applied in cmd_crawl so that
    # building the parser does not import the harvester
    p.add_argument("--ban-threshold", type=int, default=None)
    p.add_argument("--politeness-delay-ms", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_crawl)

    p = sub.add_parser("timeline", help="export one app's change-event CSV")
    p.add_argument("--store", default=None)
    p.add_argument("--app", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser("metrics", help="market statistics reports")
    p.add_argument(
        "what",
        choices=["staleness", "popularity", "updates", "price", "association", "powerlaw"],
    )
    p.add_argument("--store", default=None)
    p.add_argument("--out", default="reports")
    p.add_argument("--window-days", type=_count("days"), default=365)
    p.add_argument(
        "--reference",
        default=None,
        help="staleness and price: the day to measure from, YYYY-MM-DD (default: the "
        "later of the manifest's observation_end and the UTC day of the newest snapshot)",
    )
    p.add_argument("--xmin", type=float, default=1.0)
    p.add_argument("--period", type=int, default=7)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("topk", help="ranked-list dynamics reports")
    p.add_argument(
        "what",
        choices=["lifecycle", "similarity", "overlap", "occupancy", "lifetime"],
    )
    p.add_argument("--store", default=None)
    p.add_argument("--out", default="reports")
    p.add_argument("--list", required=True, choices=[lt.value for lt in ListType])
    p.add_argument("--slice", default="top24", help="top24 | last25 | a..b")
    p.add_argument(
        "--ranks",
        type=_ranks,
        default="1,50,100,200,400",
        help="lifetime: one or more comma-separated rank positions (default %(default)s)",
    )
    p.add_argument("--per-episode", action="store_true")
    p.add_argument(
        "--lifetime-mode", choices=["at_rank", "list_lifetime"], default="at_rank"
    )
    p.set_defaults(func=cmd_topk)

    p = sub.add_parser("anomaly", help="fraud/malware indicator reports")
    p.add_argument(
        "what", choices=["reviews", "permissions", "scam", "decoupling", "flags"]
    )
    p.add_argument("--store", default=None)
    p.add_argument("--out", default="reports")
    p.add_argument("--policy", default=None, help="dangerous-permission list file")
    p.add_argument("--flags", default=None, help="external flags CSV (app,flag_count)")
    p.add_argument("--mad-k", type=_factor, default=5.0)
    p.add_argument("--min-abs", type=_count("reviews"), default=20)
    p.add_argument("--window-days", type=_count("days", least=1), default=30)
    p.add_argument("--churn-window-days", type=_count("days"), default=7)
    p.set_defaults(func=cmd_anomaly)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (StoreIOError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (MarketPulseError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
