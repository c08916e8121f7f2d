"""simulate micro-benchmarks, kept out of the default test run.

pytest collects ``test_*.py`` only, so run this file by name:

    PYTHONPATH=src python -m pytest tests/bench_simgen.py --benchmark-only

All cases use perfbench's market-30d script: the acceptance suite's
big_script() market at 1,500 developers (2,428 apps, 30 days). The first
two write its whole dataset, as ``marketpulse simulate`` does, the second
with the mock market of ``--render-market 5`` (market_pages.jsonl and
seeds.txt); the other two build only its 72,840 snapshot lines and its
review lines from a plan made once.
"""

import itertools

import pytest

from marketpulse import simgen

MARKET_30D = {
    "seed": 20120401,
    "n_developers": 1500,
    "observation_days": 30,
    "topk_lists": {
        "Free": {"length": 100, "churn_lo": 0.002, "churn_hi": 0.06},
        "Paid": {"length": 100, "churn_lo": 0.004, "churn_hi": 0.08},
    },
    "fraud_campaigns": [
        {"app": 0, "polarity": "positive", "start_day": 10, "duration_days": 5, "daily_volume": 200},
        {"app": 1, "polarity": "negative", "start_day": 15, "duration_days": 4, "daily_volume": 150},
        {"app": 2, "polarity": "positive", "start_day": 20, "duration_days": 3, "daily_volume": 300},
    ],
    "stale_fraction": 0.3,
}


@pytest.fixture(scope="module")
def script():
    return simgen.script_from_record(MARKET_30D)


@pytest.fixture(scope="module")
def plan(script):
    return simgen.plan_market(script)


def test_write_dataset(benchmark, tmp_path, script):
    fresh = itertools.count()

    def write():
        return simgen.write_dataset(script, tmp_path / f"data{next(fresh)}")

    truth = benchmark.pedantic(write, rounds=3)
    assert len(truth["app_ids"]) == 2_428


def test_write_dataset_render_market(benchmark, tmp_path, script):
    fresh = itertools.count()

    def write():
        return simgen.write_dataset(
            script, tmp_path / f"data{next(fresh)}", render_market_seeds=5
        )

    truth = benchmark.pedantic(write, rounds=3)
    assert len(truth["app_ids"]) == 2_428
    assert (tmp_path / "data0" / "market_pages.jsonl").stat().st_size > 0


def test_snapshot_lines(benchmark, plan):
    def lines():
        return sum(len(day_lines) for day_lines in simgen._snapshot_lines(plan))

    assert benchmark(lines) == 72_840


def test_review_lines(benchmark, plan):
    assert len(benchmark(simgen._review_lines, plan)) > 10_000
