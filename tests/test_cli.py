import json
import pytest

from marketpulse import cli, simgen
from marketpulse.cli import main
from marketpulse.model import ListType
from marketpulse.simgen import (
    FraudCampaign,
    MarketScript,
    ScamDeveloperScript,
    TopKListConfig,
    script_to_record,
)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A small simulated dataset plus an ingested store, shared per module."""
    root = tmp_path_factory.mktemp("cli")
    script = MarketScript(
        seed=23,
        n_developers=60,
        observation_days=20,
        topk_lists={
            ListType.FREE: TopKListConfig(length=15, churn_lo=0.01, churn_hi=0.15),
            ListType.PAID: TopKListConfig(length=10, churn_lo=0.0, churn_hi=0.0),
        },
        fraud_campaigns=(FraudCampaign(app=0, start_day=8, duration_days=3),),
        scam_developers=(ScamDeveloperScript(developer="CloneWorks", n_clones=6),),
        permission_churn_apps=1,
    )
    script_path = root / "script.json"
    script_path.write_text(json.dumps(script_to_record(script)))
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
        script = MarketScript(
            seed=5,
            n_developers=12,
            observation_days=16,
            price_change_model=simgen.PriceChangeModel(paid_fraction=0.0),
        )
        script_path = tmp_path / "s.json"
        script_path.write_text(json.dumps(script_to_record(script)))
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
