"""The benchmark's traced run (perfbench/tracer.py) wraps names in src by
attribute assignment. This runs it against src, so a change that deletes a
wrapped name, or stops calling one through the wrapped module global,
fails here rather than only in the benchmark."""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# spans the CLI must produce through the wrapped module globals
EXPECTED_SPANS = {
    "simgen.plan_market",
    "simgen.write_dataset",
    "store.create",
    "store.open",
    "store.ingest_dir",
    "store.fsync",
    "store.latest_snapshots",
    "store.query_list_series",
    "store.query_reviews",
    "timeline.build_app_timeline",
    "timeline.build_review_timeline",
    "metrics.update_stats",
    "metrics.association_matrix",
    "topk.overlap_stats",
    "anomaly.detect_review_spikes",
    "anomaly.permission_flags",
    "anomaly.scam_pattern_scan",
    "harvester.parse_page",
    "cli.write_report",
}


def test_traced_plan_wraps_every_layer(tmp_path):
    script = tmp_path / "script.json"
    script.write_text(
        json.dumps(
            {
                "seed": 3,
                "n_developers": 20,
                "observation_days": 8,
                "topk_lists": {"Free": {"length": 10}},
            }
        )
    )
    data, store, reports = tmp_path / "data", tmp_path / "store", tmp_path / "reports"
    commands = [
        ["simulate", "--script", str(script), "--out", str(data), "--render-market", "2"],
        ["ingest", "--data", str(data), "--store", str(store)],
        [
            "crawl",
            "--seeds", str(data / "seeds.txt"),
            "--market", str(data),
            "--workers", "2",
            "--politeness-delay-ms", "0",
            "--out", str(tmp_path / "crawled"),
        ],
        ["metrics", "updates"],
        ["metrics", "association"],
        ["topk", "overlap", "--list", "Free"],
        ["anomaly", "reviews"],
        ["anomaly", "permissions"],
        ["anomaly", "scam"],
    ]
    for argv in commands[3:]:
        argv += ["--store", str(store), "--out", str(reports)]
    plan = {
        "src": str(REPO / "src"),
        "commands": [{"id": str(i), "argv": argv} for i, argv in enumerate(commands)],
        "results": str(tmp_path / "results.json"),
        "spans": str(tmp_path / "spans.jsonl"),
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "tracer.py"), "--plan", str(plan_path), "--wrap"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads((tmp_path / "results.json").read_text())
    assert [r["rc"] for r in results] == [0] * len(commands), proc.stderr
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert EXPECTED_SPANS <= {s["name"] for s in spans}
