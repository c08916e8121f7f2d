"""Per-layer metrics derived from the traced run's spans.

A span's self time is its duration minus the durations of its child
spans; children run on their parent's thread, so they never overlap.
Layers are the package's modules. Every metric is reported on every
workload; one a workload never reaches reads 0.
"""

from __future__ import annotations

import collections
import math
import statistics

# command ids of the report groups, as run.py names them
TIMELINE_REPORTS = (
    "metrics_updates",
    "metrics_price",
    "metrics_association",
    "anomaly_permissions",
    "anomaly_decoupling",
)
LATEST_REPORTS = ("metrics_staleness", "metrics_popularity", "metrics_powerlaw", "anomaly_scam")
REVIEW_REPORTS = ("anomaly_reviews",)
TOPK_REPORTS = tuple(
    f"topk_{what}_{list_name}"
    for what in ("lifecycle", "similarity", "overlap", "occupancy", "lifetime")
    for list_name in ("Free", "Paid")
)
# every report command of the acceptance chain, in its order
REPORTS = (
    tuple(
        f"metrics_{what}"
        for what in ("staleness", "popularity", "updates", "price", "association", "powerlaw")
    )
    + TOPK_REPORTS
    + tuple(f"anomaly_{what}" for what in ("reviews", "permissions", "scam", "decoupling"))
)
COMMANDS = ("ingest", "ingest_crawl", "ingest_dedup", "crawl") + REPORTS

_COUNTS = (
    "store.records_decoded",
    "store.ingest_accepted",
    "store.ingest_deduplicated",
    "store.ingest_rejected",
    "store.fsyncs",
    "timeline.builds",
    "timeline.events",
    "topk.observations_decoded",
    "anomaly.scam_candidates_max",
    "harvester.pages",
)
_RATIOS = ("store.decodes_per_record", "timeline.builds_per_app", "harvester.connections_per_page")
_SECONDS = (
    "simgen.plan_s",
    "simgen.write_s",
    "store.open_s",
    "store.first_query_s",
    "store.query_s",
    "store.ingest_s",
    "store.fsync_s",
    "timeline.build_s",
    "timeline.review_build_s",
    "metrics.compute_s",
    "metrics.association_s",
    "anomaly.permissions_s",
    "anomaly.spikes_s",
    "anomaly.scam_s",
    "topk.compute_s",
    "topk.similarity_s",
    "harvester.fetch_p50_s",
    "harvester.fetch_tail_s",
    "harvester.parse_s",
    "cli.import_s",
    "cli.report_write_s",
    "cli.timeline_reports_s",
    "cli.latest_reports_s",
    "cli.review_reports_s",
    "cli.topk_reports_s",
    "bench.trace_overhead_s",
) + tuple(f"cli.cmd.{cmd}_s" for cmd in COMMANDS)

# (name, unit, better) of every per-layer metric, in BENCHMARK.json order
PER_LAYER = (
    [(name, "s", "lower") for name in _SECONDS]
    + [(name, "count", "higher" if name == "harvester.pages" else "lower") for name in _COUNTS]
    + [(name, "ratio", "lower") for name in _RATIOS]
    + [
        ("store.bytes_appended", "bytes", "lower"),
        ("cli.report_bytes", "bytes", "lower"),
        ("cli.crawl_pages_per_s", "1/s", "higher"),
        ("store.ingest_records_per_s", "1/s", "higher"),
    ]
)


def tail_percentile(n: int) -> float:
    """Highest of p50, p90, p99, p99.9, p99.99 with at least 10 of ``n`` samples beyond it."""
    p = 50.0
    for beyond, candidate in ((10, 90.0), (100, 99.0), (1000, 99.9), (10000, 99.99)):
        if n // beyond >= 10:
            p = candidate
    return p


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def derive(
    spans: list[dict],
    untraced: dict[str, float],
    traced: dict[str, float],
    stored_records: int,
    accepts: int,
    import_s: float,
) -> tuple[dict[str, float], dict]:
    """Per-layer metrics and notes from one traced run.

    ``untraced`` and ``traced`` map command id to wall seconds of the
    same measured commands run in-process without and with wrappers.
    ``accepts`` is the market server's connection count during the
    traced crawl.
    """
    children = collections.defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] += span["end"] - span["start"]
    by_name = collections.defaultdict(list)
    for span in spans:
        span["dur"] = span["end"] - span["start"]
        span["self"] = span["dur"] - children[span["id"]]
        by_name[span["name"]].append(span)

    def total(name, key="dur"):
        return sum(s[key] for s in by_name[name])

    def prefixed(prefix, key="self"):
        return sum(s[key] for n, group in by_name.items() if n.startswith(prefix) for s in group)

    def attr_sum(name, key):
        return sum(s["attrs"][key] for s in by_name[name] if "attrs" in s)

    queries = [
        s for n, group in by_name.items() if n.startswith("store.") for s in group
        if "first" in s.get("attrs", {})
    ]
    builds = [s for s in by_name["timeline.build_app_timeline"] if "attrs" in s]
    fetches = [s["dur"] for s in by_name["harvester.fetch"]]
    tail_p = tail_percentile(len(fetches))
    measured = sorted(set(untraced) & set(traced))
    records_decoded = sum(s["attrs"]["records"] for s in queries)
    crawl_pages = len(by_name["harvester.parse_page"])
    ingest_s = total("store.ingest_dir")
    ingest_handled = sum(
        attr_sum("store.ingest_dir", key) for key in ("accepted", "deduplicated", "rejected")
    )

    def group_s(ids):
        return sum(untraced.get(cmd, 0.0) for cmd in ids)

    m = {
        "simgen.plan_s": total("simgen.plan_market", "self"),
        "simgen.write_s": total("simgen.write_dataset", "self"),
        "store.open_s": total("store.open") + total("store.create"),
        "store.first_query_s": sum(s["self"] for s in queries if s["attrs"]["first"]),
        "store.query_s": sum(s["self"] for s in queries if not s["attrs"]["first"]),
        "store.records_decoded": records_decoded,
        "store.decodes_per_record": records_decoded / stored_records if stored_records else 0.0,
        "store.ingest_s": ingest_s,
        "store.ingest_records_per_s": ingest_handled / ingest_s if ingest_s else 0.0,
        "store.ingest_accepted": attr_sum("store.ingest_dir", "accepted"),
        "store.ingest_deduplicated": attr_sum("store.ingest_dir", "deduplicated"),
        "store.ingest_rejected": attr_sum("store.ingest_dir", "rejected"),
        "store.bytes_appended": attr_sum("store.ingest_dir", "bytes_appended"),
        "store.fsyncs": len(by_name["store.fsync"]),
        "store.fsync_s": total("store.fsync"),
        "timeline.build_s": total("timeline.build_app_timeline", "self"),
        "timeline.builds": len(builds),
        "timeline.builds_per_app": (
            len(builds) / len({s["attrs"]["app"] for s in builds}) if builds else 0.0
        ),
        "timeline.events": sum(s["attrs"]["events"] for s in builds),
        "timeline.review_build_s": total("timeline.build_review_timeline", "self"),
        "metrics.compute_s": prefixed("metrics."),
        "metrics.association_s": total("metrics.association_matrix"),
        "anomaly.permissions_s": total("anomaly.permission_flags"),
        "anomaly.spikes_s": total("anomaly.detect_review_spikes"),
        "anomaly.scam_s": total("anomaly.scam_pattern_scan"),
        "anomaly.scam_candidates_max": max(
            (s["attrs"]["candidates_max"] for s in by_name["anomaly.scam_pattern_scan"]),
            default=0,
        ),
        "topk.compute_s": prefixed("topk."),
        "topk.similarity_s": total("topk.consecutive_similarity"),
        "topk.observations_decoded": attr_sum("store.query_list_series", "records"),
        "harvester.fetch_p50_s": percentile(fetches, 50.0) if fetches else 0.0,
        "harvester.fetch_tail_s": percentile(fetches, tail_p) if fetches else 0.0,
        "harvester.parse_s": total("harvester.parse_page"),
        "harvester.pages": crawl_pages,
        "harvester.connections_per_page": accepts / crawl_pages if crawl_pages else 0.0,
        "cli.import_s": import_s,
        "cli.report_write_s": total("cli.write_report"),
        "cli.report_bytes": attr_sum("cli.write_report", "bytes"),
        "cli.timeline_reports_s": group_s(TIMELINE_REPORTS),
        "cli.latest_reports_s": group_s(LATEST_REPORTS),
        "cli.review_reports_s": group_s(REVIEW_REPORTS),
        "cli.topk_reports_s": group_s(TOPK_REPORTS),
        "cli.crawl_pages_per_s": (
            crawl_pages / untraced["crawl"] if crawl_pages and "crawl" in untraced else 0.0
        ),
        "bench.trace_overhead_s": (
            sum(traced[c] for c in measured) - sum(untraced[c] for c in measured)
        ),
    }
    for cmd in COMMANDS:
        m[f"cli.cmd.{cmd}_s"] = untraced.get(cmd, 0.0)
    missing = {name for name, _, _ in PER_LAYER} ^ set(m)
    if missing:
        raise AssertionError(f"per-layer metric set mismatch: {sorted(missing)}")
    notes = {
        "spans": len(spans),
        "fetch_samples": len(fetches),
        "fetch_tail_percentile": tail_p,
        "fetch_mean_s": statistics.fmean(fetches) if fetches else None,
    }
    return m, notes
