"""In-process chain runner for the benchmark's traced run.

Runs a plan of CLI commands through ``marketpulse.cli.main`` in this one
process and times each command. With ``--wrap`` it first wraps the public
functions each layer exposes, records one span per call (name, start,
end, parent span, command id, counters) and writes the spans as JSON
lines when the plan ends. Nothing under ``src/`` is changed: every
wrapper is installed here, by attribute assignment.

    python3 perfbench/tracer.py --plan plan.json [--wrap]

The plan is a JSON object ``{"src", "commands": [{"id", "argv"}],
"results", "spans"}``; results are written as a JSON list of
``{"id", "rc", "wall_s", "stdout"}``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import io
import itertools
import json
import os
import sys
import threading
import time
import traceback
import weakref
from pathlib import Path


class Tracer:
    """In-memory span recorder; safe to call from several threads."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.cmd = None
        self.cmd_span = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, attrs=None):
        """Run ``fn`` inside a span; ``attrs(args, kwargs, result)`` adds counters.

        A span opened on a thread with no open span (a crawl worker) is a
        child of the running command.
        """
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else self.cmd_span
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            span = {
                "id": span_id,
                "parent": parent,
                "name": name,
                "cmd": self.cmd,
                "start": start,
                "end": end,
            }
            self.spans.append(span)
        if attrs is not None:
            span["attrs"] = attrs(args, kwargs, result)
        return result

    def wrap(self, owner, attr, name, attrs=None, static=False):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)

        setattr(owner, attr, staticmethod(traced) if static else traced)

    @contextlib.contextmanager
    def command(self, cmd_id):
        self.cmd, self.cmd_span = cmd_id, next(self._ids)
        stack = self._stack()
        stack.append(self.cmd_span)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                {
                    "id": self.cmd_span,
                    "parent": None,
                    "name": "cli.command",
                    "cmd": cmd_id,
                    "start": start,
                    "end": end,
                }
            )


def _log_bytes(root) -> int:
    return sum(p.stat().st_size for p in Path(root).glob("*.jsonl"))


def install(tracer: Tracer) -> None:
    """Wrap the calls into each layer that the CLI makes."""
    from marketpulse import anomaly, cli, harvester, metrics, simgen, topk
    from marketpulse.store import SnapStore

    # simgen: write_dataset calls plan_market through the module global
    tracer.wrap(simgen, "plan_market", "simgen.plan_market")
    tracer.wrap(simgen, "write_dataset", "simgen.write_dataset")

    # store: handles, queries (the first one per handle scans the log), ingest
    tracer.wrap(SnapStore, "open", "store.open", static=True)
    tracer.wrap(SnapStore, "create", "store.create", static=True)
    queried = weakref.WeakSet()

    def query_attrs(count):
        def attrs(args, kwargs, result):
            store = args[0]
            first = store not in queried
            queried.add(store)
            return {"first": first, "records": count(result)}

        return attrs

    queries = {
        "apps": lambda r: 0,
        "reviewed_apps": lambda r: 0,
        "review_counts": lambda r: 0,
        "query_app_series": lambda r: len(r.snapshots),
        "latest_snapshots": len,
        "query_reviews": len,
        "query_list_series": lambda r: len(r.observations),
    }
    for method, count in queries.items():
        tracer.wrap(SnapStore, method, f"store.{method}", attrs=query_attrs(count))

    ingest_dir = SnapStore.ingest_dir

    def traced_ingest_dir(self, data_dir):
        before = _log_bytes(self.root)

        def attrs(args, kwargs, report):
            return {
                "accepted": report.total_accepted,
                "deduplicated": sum(report.deduplicated.values()),
                "rejected": report.total_rejected,
                "bytes_appended": _log_bytes(self.root) - before,
            }

        return tracer.call("store.ingest_dir", ingest_dir, (self, data_dir), {}, attrs)

    SnapStore.ingest_dir = traced_ingest_dir
    tracer.wrap(os, "fsync", "store.fsync")

    # timeline: the CLI imported the builders into its own namespace
    tracer.wrap(
        cli,
        "build_app_timeline",
        "timeline.build_app_timeline",
        attrs=lambda a, k, r: {"app": r.app, "events": len(r.events)},
    )
    tracer.wrap(cli, "build_review_timeline", "timeline.build_review_timeline")

    for name in (
        "classify_staleness",
        "classify_popularity",
        "update_stats",
        "median_price_split",
        "price_dispersion_cov",
        "price_change_ccdf",
        "seasonal_trend_decompose",
        "fit_power_law",
        "downloads_ratings_slope",
        "association_matrix",
    ):
        tracer.wrap(metrics, name, f"metrics.{name}")

    for name in (
        "lifecycle_summaries",
        "consecutive_similarity",
        "overlap_stats",
        "rank_occupancy",
        "lifetime_at_rank",
    ):
        tracer.wrap(topk, name, f"topk.{name}")

    for name in (
        "detect_review_spikes",
        "permission_flags",
        "permission_version_decoupling_rate",
    ):
        tracer.wrap(anomaly, name, f"anomaly.{name}")
    scam_scan = anomaly.scam_pattern_scan

    def traced_scam_scan(snapshots, *args, **kwargs):
        snapshots = list(snapshots)
        params = args[0] if args else kwargs.get("params", anomaly.ScamParams())
        lo, hi = params.price_band_cents
        per_dev = collections.Counter(
            s.developer for s in snapshots if not s.free and lo <= s.price_cents <= hi
        )
        candidates_max = max(per_dev.values(), default=0)
        return tracer.call(
            "anomaly.scam_pattern_scan",
            scam_scan,
            (snapshots, *args),
            kwargs,
            lambda a, k, r: {"candidates_max": candidates_max},
        )

    anomaly.scam_pattern_scan = traced_scam_scan

    # harvester: one connection per fetch; parse_page is a module global
    tracer.wrap(harvester.RemoteMarket, "fetch", "harvester.fetch")
    tracer.wrap(harvester, "parse_page", "harvester.parse_page")

    # cli: report writers
    def report_attrs(args, kwargs, result):
        return {"bytes": Path(args[0]).stat().st_size}

    tracer.wrap(cli, "_write_json", "cli.write_report", attrs=report_attrs)
    tracer.wrap(cli, "_write_csv", "cli.write_report", attrs=report_attrs)


def run_plan(plan: dict, wrap: bool) -> None:
    sys.path.insert(0, plan["src"])
    from marketpulse import cli

    tracer = Tracer()
    if wrap:
        install(tracer)
    results = []
    for command in plan["commands"]:
        out = io.StringIO()
        start = time.perf_counter()
        with tracer.command(command["id"]), contextlib.redirect_stdout(out):
            try:
                rc = cli.main(command["argv"])
            except Exception:
                # keep running the plan; the failed command is reported
                traceback.print_exc()
                rc = -1
        results.append(
            {
                "id": command["id"],
                "rc": rc,
                "wall_s": time.perf_counter() - start,
                "stdout": out.getvalue(),
            }
        )
    Path(plan["results"]).write_text(json.dumps(results), encoding="utf-8")
    with open(plan["spans"], "w", encoding="utf-8") as f:
        for span in tracer.spans:
            f.write(json.dumps(span, separators=(",", ":")) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--wrap", action="store_true", help="install the layer wrappers")
    args = parser.parse_args()
    run_plan(json.loads(Path(args.plan).read_text(encoding="utf-8")), args.wrap)


if __name__ == "__main__":
    main()
