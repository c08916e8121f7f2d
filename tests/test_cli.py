import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from marketpulse import cli
from marketpulse import store as store_mod
from marketpulse.cli import main
from marketpulse.store import SnapStore

from conftest import (
    epoch_to_date,
    ingest_records,
    make_snapshot,
    snapshot_to_record,
    timeline_state,
)
from test_timeline import oracle_timeline


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A small simulated dataset plus an ingested store, shared per module."""
    root = tmp_path_factory.mktemp("cli")
    script = {
        "seed": 23,
        "n_developers": 60,
        "observation_days": 20,
        "topk_lists": {
            "Free": {"length": 15, "churn_lo": 0.01, "churn_hi": 0.15},
            "Paid": {"length": 10, "churn_lo": 0.0, "churn_hi": 0.0},
        },
        "fraud_campaigns": [{"app": 0, "start_day": 8, "duration_days": 3}],
        "scam_developers": [{"developer": "CloneWorks", "n_clones": 6}],
        "permission_churn_apps": 1,
    }
    script_path = root / "script.json"
    script_path.write_text(json.dumps(script))
    data = root / "data"
    store = root / "store"
    assert main(["simulate", "--script", str(script_path), "--out", str(data), "--render-market", "3"]) == 0
    assert main(["ingest", "--data", str(data), "--store", str(store)]) == 0
    return {"root": root, "script": script_path, "data": data, "store": store}


def run(dataset, *argv):
    out = dataset["root"] / "reports"
    return main([*argv, "--store", str(dataset["store"]), "--out", str(out)]), out


class TestPipelineCommands:
    def test_metrics_staleness(self, dataset):
        code, out = run(dataset, "metrics", "staleness")
        assert code == 0
        payload = json.loads((out / "staleness.json").read_text())
        assert payload["apps"] > 0
        assert 0 <= payload["stale_share"] <= 1

    def test_metrics_popularity(self, dataset):
        code, out = run(dataset, "metrics", "popularity")
        assert code == 0
        payload = json.loads((out / "popularity.json").read_text())
        assert sum(payload["counts"].values()) == payload["apps"]

    def test_metrics_updates(self, dataset):
        code, out = run(dataset, "metrics", "updates")
        assert code == 0
        assert (out / "updates.csv").exists()
        assert (out / "updates_hist.csv").exists()

    def test_metrics_price(self, dataset):
        code, out = run(dataset, "metrics", "price")
        assert code == 0
        payload = json.loads((out / "price.json").read_text())
        assert payload["paid_apps"] > 0
        assert (out / "price_ccdf.csv").exists()
        assert (out / "price_decomposition.csv").exists()

    def test_metrics_association(self, dataset):
        code, out = run(dataset, "metrics", "association")
        assert code == 0
        payload = json.loads((out / "association.json").read_text())
        assert payload["universe_size"] > 0

    def test_metrics_powerlaw(self, dataset):
        code, out = run(dataset, "metrics", "powerlaw")
        assert code == 0
        payload = json.loads((out / "powerlaw.json").read_text())
        assert "apps_per_developer" in payload

    def test_topk_lifecycle(self, dataset):
        code, out = run(dataset, "topk", "lifecycle", "--list", "Free")
        assert code == 0
        assert (out / "lifecycle_free.csv").exists()
        assert (out / "lifecycle_free_hist_debut.csv").exists()

    def test_topk_similarity_static_list_all_ones(self, dataset):
        code, out = run(dataset, "topk", "similarity", "--list", "Paid")
        assert code == 0
        rows = (out / "similarity_paid.csv").read_text().splitlines()[1:]
        assert rows
        assert all(row.split(",")[1] == "1.0" for row in rows)

    def test_topk_overlap(self, dataset):
        code, out = run(dataset, "topk", "overlap", "--list", "Free", "--slice", "1..10")
        assert code == 0
        payload = json.loads((out / "overlap_free_1_10.json").read_text())
        assert 0 <= payload["o_min"] <= payload["o_mean"] <= 10

    def test_topk_occupancy_and_lifetime(self, dataset):
        code, out = run(dataset, "topk", "occupancy", "--list", "Free")
        assert code == 0
        code, out = run(
            dataset, "topk", "lifetime", "--list", "Free", "--ranks", "1,5,15"
        )
        assert code == 0
        payload = json.loads((out / "lifetime_free.json").read_text())
        assert set(payload["mean_hours"]) == {"1", "5", "15"}

    def test_anomaly_reviews_recovers_campaign(self, dataset):
        code, out = run(dataset, "anomaly", "reviews")
        assert code == 0
        payload = json.loads((out / "review_spikes.json").read_text())
        assert payload["spikes"] == 3  # 3-day scripted campaign

    def test_anomaly_permissions(self, dataset):
        code, out = run(dataset, "anomaly", "permissions")
        assert code == 0
        rows = (out / "permission_flags.csv").read_text().splitlines()
        assert any("ChurnWithinWindow" in row for row in rows)

    def test_anomaly_decoupling(self, dataset):
        code, out = run(dataset, "anomaly", "decoupling")
        assert code == 0
        payload = json.loads((out / "decoupling.json").read_text())
        assert payload["decoupling_rate"] is None or 0 <= payload["decoupling_rate"] <= 1

    def test_anomaly_scam(self, dataset):
        code, out = run(dataset, "anomaly", "scam")
        assert code == 0
        payload = json.loads((out / "scam_clusters.json").read_text())
        assert any(c["developer"] == "CloneWorks" for c in payload["clusters"])

    def test_anomaly_external_flags(self, dataset):
        flags = dataset["root"] / "flags.csv"
        apps = json.loads((dataset["data"] / "ground_truth.json").read_text())["app_ids"]
        flags.write_text("app,flag_count\n" + f"{apps[0]},5\n{apps[1]},1\n")
        out = dataset["root"] / "reports"
        code = main(
            [
                "anomaly",
                "flags",
                "--store",
                str(dataset["store"]),
                "--out",
                str(out),
                "--flags",
                str(flags),
            ]
        )
        assert code == 0
        assert (out / "external_flags.csv").exists()

    def test_timeline_command(self, dataset, capsys):
        apps = json.loads((dataset["data"] / "ground_truth.json").read_text())["app_ids"]
        code = main(["timeline", "--store", str(dataset["store"]), "--app", apps[0]])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "app,day,kind,old,new"

    def test_crawl_against_rendered_market(self, dataset):
        out = dataset["root"] / "crawl"
        code = main(
            [
                "crawl",
                "--seeds",
                str(dataset["data"] / "seeds.txt"),
                "--market",
                str(dataset["data"]),
                "--workers",
                "2",
                "--ban-threshold",
                "10",
                "--politeness-delay-ms",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "crawl_report.json").read_text())
        apps = json.loads((dataset["data"] / "ground_truth.json").read_text())["app_ids"]
        assert report["snapshots_emitted"] == len(apps)
        # crawl output is itself ingestible
        store2 = dataset["root"] / "store2"
        code = main(["ingest", "--data", str(out), "--store", str(store2)])
        assert code == 0


def test_committed_line_without_a_title_is_skipped_by_every_report(store, tmp_path):
    valid = [make_snapshot(app=f"com.valid{i}") for i in range(2)]
    ingest_records(store, "snapshots", valid)
    rec = snapshot_to_record(make_snapshot(app="com.untitled"))
    del rec["title"]
    with open(store.root / "snapshots.jsonl", "a") as f:
        f.write(json.dumps(rec) + "\n")
    out = tmp_path / "reports"
    assert main(["metrics", "staleness", "--store", str(store.root), "--out", str(out)]) == 0
    assert json.loads((out / "staleness.json").read_text())["apps"] == 2
    with open(out / "staleness.csv", newline="") as f:
        assert [row["app"] for row in csv.DictReader(f)] == ["com.valid0", "com.valid1"]
    assert SnapStore.open(store.root)._index("snapshots").skipped_corrupt == 1


def test_committed_line_nested_too_deep_to_decode_is_skipped_and_rejected(store, tmp_path):
    # json.loads raises RecursionError, not ValueError, on such a line
    nested = "[" * 100_000
    ingest_records(store, "snapshots", [make_snapshot(app="com.valid")])
    with open(store.root / "snapshots.jsonl", "a") as f:
        f.write(nested + "\n")
    out = tmp_path / "reports"
    assert main(["metrics", "staleness", "--store", str(store.root), "--out", str(out)]) == 0
    assert json.loads((out / "staleness.json").read_text())["apps"] == 1
    assert SnapStore.open(store.root)._index("snapshots").skipped_corrupt == 1
    report = SnapStore.open(store.root).ingest_lines("reviews", [nested])
    assert [r.line_no for r in report.rejected] == [1]
    assert "recursion" in report.rejected[0].reason


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert main(["metrics", "staleness", "--bogus"]) == 1

    def test_missing_store_is_validation_error(self, monkeypatch, tmp_path):
        monkeypatch.delenv("MARKETPULSE_STORE", raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(["metrics", "staleness"]) == 1
        # ingest resolves the store the same way: nothing lands in the cwd
        assert main(["ingest", "--data", str(tmp_path)]) == 1
        assert list(tmp_path.iterdir()) == []

    def test_nonexistent_store_is_io_error(self, tmp_path):
        assert main(["metrics", "staleness", "--store", str(tmp_path / "nope")]) == 2

    def test_bad_script_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"seed": 1, "wrong_key": True}))
        assert main(["simulate", "--script", str(bad), "--out", str(tmp_path / "o")]) == 1

    def test_env_var_default_store(self, dataset, monkeypatch, tmp_path):
        monkeypatch.setenv("MARKETPULSE_STORE", str(dataset["store"]))
        code = main(["metrics", "popularity", "--out", str(tmp_path / "r")])
        assert code == 0

    def test_all_free_dataset_price_degenerate_ok(self, tmp_path):
        script = {
            "seed": 5,
            "n_developers": 12,
            "observation_days": 16,
            "price_change_model": {"paid_fraction": 0.0},
        }
        script_path = tmp_path / "s.json"
        script_path.write_text(json.dumps(script))
        data, store = tmp_path / "d", tmp_path / "st"
        assert main(["simulate", "--script", str(script_path), "--out", str(data)]) == 0
        assert main(["ingest", "--data", str(data), "--store", str(store)]) == 0
        out = tmp_path / "r"
        code = main(
            ["metrics", "price", "--store", str(store), "--out", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "price.json").read_text())
        assert payload["cov"] is None
        assert payload["paid_apps"] == 0


def test_ingest_missing_data_dir_is_io_error(tmp_path):
    assert main(["ingest", "--data", str(tmp_path / "absent"), "--store", str(tmp_path / "s")]) == 2


def test_ingest_rejects_a_line_that_is_not_utf8_and_ingests_the_rest(dataset, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("manifest.json", "snapshots.jsonl", "reviews.jsonl", "topk.jsonl"):
        shutil.copy(dataset["data"] / name, data / name)
    reviews = (data / "reviews.jsonl").read_bytes().splitlines(keepends=True)
    assert len(reviews) > 3
    reviews[2] = reviews[2].replace(b"review", b"rev\xffiew", 1)
    (data / "reviews.jsonl").write_bytes(b"".join(reviews))
    capsys.readouterr()
    assert main(["ingest", "--data", str(data), "--store", str(tmp_path / "store")]) == 0
    report = json.loads(capsys.readouterr().out)
    lines = {
        kind: len((data / f"{kind}.jsonl").read_bytes().splitlines())
        for kind in ("snapshots", "topk")
    }
    assert report["accepted"] == {**lines, "reviews": len(reviews) - 1}
    [rejection] = report["rejected"]
    assert (rejection["kind"], rejection["line_no"]) == ("reviews", 3)
    assert "UTF-8" in rejection["reason"]


def test_overlap_on_empty_list_is_too_few_observations(tmp_path, capsys):
    empty, store = tmp_path / "empty", tmp_path / "store"
    empty.mkdir()
    assert main(["ingest", "--data", str(empty), "--store", str(store)]) == 0
    for slice_ in ("top24", "last25"):
        argv = ["topk", "overlap", "--list", "Free", "--slice", slice_]
        assert main([*argv, "--store", str(store), "--out", str(tmp_path / "r")]) == 1
        assert "need at least 2 observations" in capsys.readouterr().err


def test_failed_report_write_keeps_previous_file(tmp_path, monkeypatch):
    out = tmp_path / "reports"
    csv_path, json_path = out / "updates.csv", out / "updates.json"
    cli._write_csv(csv_path, ["app"], [("com.a",)])
    cli._write_json(json_path, {"apps": 1})
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def rows():
        yield ("com.b",)
        raise OSError("injected write failure")

    with pytest.raises(OSError):
        cli._write_csv(csv_path, ["app"], rows())

    def failing_replace(src, dst):
        raise OSError("injected rename failure")

    monkeypatch.setattr(cli.os, "replace", failing_replace)
    with pytest.raises(OSError):
        cli._write_json(json_path, {"apps": 2})
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


_COMMAND_LAYERS = (
    "numpy",
    "statistics",
    "marketpulse.simgen",
    "marketpulse.harvester",
    "marketpulse.anomaly",
    "marketpulse.metrics",
    "marketpulse.topk",
    "marketpulse.store",
    "marketpulse.timeline",
)


def _layers_imported_by(statements: str) -> list[str]:
    """The command layers in sys.modules after a new interpreter runs
    ``statements``."""
    src = Path(cli.__file__).resolve().parent.parent
    code = (
        "import json, sys\n"
        f"{statements}"
        f"print(json.dumps([m for m in {_COMMAND_LAYERS!r} if m in sys.modules]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def test_cli_import_leaves_out_numpy_simgen_and_harvester(tmp_path):
    # only simulate needs simgen (and numpy), only crawl the harvester, and
    # each report command imports its own layer
    assert _layers_imported_by(
        "import marketpulse.cli as cli\n"
        "cli.build_parser().parse_args(['crawl', '--seeds', 's', '--market', 'm', '--out', 'o'])\n"
    ) == []
    # a crawl loads no store and no timeline, and an ingest no timeline and
    # no statistics
    from marketpulse.harvester import render_page

    market, seeds = tmp_path / "pages.jsonl", tmp_path / "seeds.txt"
    page = render_page(make_snapshot(), [])
    market.write_text(json.dumps({"app": "com.example.app", "page": page}) + "\n")
    seeds.write_text("com.example.app\n")
    out, store = tmp_path / "out", tmp_path / "store"
    commands = {
        "crawl": ["crawl", "--seeds", str(seeds), "--market", str(market), "--out", str(out)],
        "ingest": ["ingest", "--data", str(out), "--store", str(store)],
    }
    for name, layers in (("crawl", ["marketpulse.harvester"]), ("ingest", ["marketpulse.store"])):
        assert _layers_imported_by(
            "import contextlib, io\n"
            "import marketpulse.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({commands[name]!r}) == 0\n"
        ) == layers
    assert len(SnapStore.open(store).apps()) == 1
    # of simulate, only --render-market renders pages with the harvester
    assert "marketpulse.harvester" not in _layers_imported_by("import marketpulse.simgen\n")
    # the package's re-exports load their module on first use
    assert _layers_imported_by("from marketpulse import ListType\n") == []
    assert _layers_imported_by(
        "import marketpulse\nassert 'SnapStore' in marketpulse.__all__\nmarketpulse.SnapStore\n"
    ) == ["marketpulse.store"]


def test_timeline_reports_decode_no_snapshot(dataset, monkeypatch):
    # the five timeline reports fold the states in the index, and the
    # latest-state reports read each app's newest state from it
    def refuse(rec):
        raise AssertionError("a timeline or latest-state report decoded a snapshot")

    monkeypatch.setitem(store_mod._TRUSTED_DECODERS, "snapshots", refuse)
    for argv in (
        ("metrics", "updates"),
        ("metrics", "association"),
        ("metrics", "staleness"),
        ("metrics", "popularity"),
        ("metrics", "price"),
        ("anomaly", "permissions"),
        ("anomaly", "decoupling"),
    ):
        assert run(dataset, *argv)[0] == 0
    store = SnapStore.open(dataset["store"])
    app = store.apps()[0]
    assert main(["timeline", "--store", str(dataset["store"]), "--app", app]) == 0


def test_dedup_only_ingest_decodes_no_state(dataset, tmp_path, monkeypatch):
    # every line of a re-ingest into the store that holds them all is
    # deduplicated before admission, so the snapshot sidecar's state table
    # is loaded and checked but no state key or TimelineState is built
    store = tmp_path / "store"
    shutil.copytree(dataset["store"], store)
    logs = {p.name: p.read_bytes() for p in store.glob("*.jsonl")}

    def reports(root):
        out = tmp_path / f"reports-{root.name}"
        for argv in (("metrics", "staleness"), ("metrics", "updates")):
            assert main([*argv, "--store", str(root), "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    def refuse(table, first):
        raise AssertionError("a dedup-only ingest built a state from the state table")

    with monkeypatch.context() as patched:
        patched.setattr(store_mod._StateTable, "_rows", refuse)
        report = SnapStore.open(store).ingest_dir(dataset["data"])
    assert report.deduplicated == {
        kind: logs[f"{kind}.jsonl"].count(b"\n") for kind in store_mod.KINDS
    }
    assert sum(report.accepted.values()) == 0 and report.rejected == []
    assert {p.name: p.read_bytes() for p in store.glob("*.jsonl")} == logs
    # the reports equal those of a full scan of the logs
    scanned = tmp_path / "scanned"
    shutil.copytree(store, scanned)
    for path in scanned.glob("*.idx"):
        path.unlink()
    assert reports(store) == reports(scanned)


def test_latest_states_are_the_states_of_the_latest_snapshots(dataset):
    store = SnapStore.open(dataset["store"])
    latest = store.latest_snapshots()
    expected = [(app, timeline_state(snap)) for app, snap in latest.items()]
    assert list(store.latest_states().items()) == expected
    # in (fetch_time, offset) order
    times = [snap.fetch_time for snap in latest.values()]
    assert times == sorted(times) and len(latest) == len(store.apps()) > 0


def test_failed_crawl_write_keeps_previous_output(dataset, tmp_path, monkeypatch):
    pages = (dataset["data"] / "market_pages.jsonl").read_text().splitlines()[:8]
    market, seeds, out = tmp_path / "pages.jsonl", tmp_path / "seeds.txt", tmp_path / "crawl"
    market.write_text("\n".join(pages) + "\n")
    seeds.write_text("".join(json.loads(page)["app"] + "\n" for page in pages))
    argv = [
        "crawl",
        "--seeds", str(seeds),
        "--market", str(market),
        "--ban-threshold", "1000",
        "--politeness-delay-ms", "0",
        "--out", str(out),
    ]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["crawl_report.json", "snapshots.jsonl"]
    assert len(before["snapshots.jsonl"].splitlines()) == 8
    calls = []
    encode = cli.canonical_snapshot_line

    def failing(snap):
        calls.append(snap.app)
        if len(calls) == 4:
            raise OSError("injected write failure")
        return encode(snap)

    monkeypatch.setattr(cli, "canonical_snapshot_line", failing)
    assert main(argv) == 2
    assert len(calls) == 4
    # same bytes, and no temp file left beside them
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_crawled_price_past_64_bits_is_rejected_at_ingest(tmp_path, capsys):
    # a page may name any price; the store keeps prices in a signed 64-bit
    # column, so ingest rejects the crawled line with the codec's reason
    from marketpulse.harvester import render_page

    snap = make_snapshot(price_cents=2**63)
    page = render_page(snap, [])
    assert '<meta name="price" content="9223372036854775808">' in page
    market, seeds, out = tmp_path / "pages.jsonl", tmp_path / "seeds.txt", tmp_path / "crawl"
    market.write_text(json.dumps({"app": snap.app, "page": page}) + "\n")
    seeds.write_text(snap.app + "\n")
    crawl = ["crawl", "--seeds", str(seeds), "--market", str(market), "--out", str(out)]
    assert main([*crawl, "--politeness-delay-ms", "0"]) == 0
    assert json.loads((out / "snapshots.jsonl").read_text())["price_cents"] == 2**63
    capsys.readouterr()
    assert main(["ingest", "--data", str(out), "--store", str(tmp_path / "store")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["accepted"]["snapshots"] == 0
    assert report["rejected"] == [
        {"kind": "snapshots", "line_no": 1, "reason": "price_cents past the signed 64-bit range"}
    ]


def test_metrics_price_matches_decoded_snapshots(dataset):
    # the price report reads states; recompute it from decoded snapshots
    code, out = run(dataset, "metrics", "price")
    assert code == 0
    store = SnapStore.open(dataset["store"])
    change_counts, daily = [], {}
    for app in store.apps():
        series = store.query_app_series(app)
        if all(s.free for s in series.snapshots):
            continue
        events = oracle_timeline(series).events
        change_counts.append(sum(e.kind.value in ("price_up", "price_down") for e in events))
        for snap in series.snapshots:
            if not snap.free:
                daily.setdefault(epoch_to_date(snap.fetch_time), []).append(snap.price_cents)
    payload = json.loads((out / "price.json").read_text())
    changers = sum(1 for c in change_counts if c > 0)
    assert changers > 0
    assert payload["apps_with_price_change"] == changers
    assert payload["price_changer_share"] == changers / len(change_counts)
    with open(out / "price_decomposition.csv", newline="") as f:
        rows = list(csv.reader(f))[1:]
    # observed is the repr of a numpy float
    observed = [
        (day, float(value.removeprefix("np.float64(").removesuffix(")")))
        for day, value, *_ in rows
    ]
    assert observed == [
        (day.isoformat(), statistics.fmean(daily[day])) for day in sorted(daily)
    ]
