"""Ingest micro-benchmarks, kept out of the default test run.

pytest collects ``test_*.py`` only, so run this file by name:

    PYTHONPATH=src python -m pytest tests/bench_ingest.py --benchmark-only

Both cases ingest the same 10k canonical snapshot lines, as a simulated
dataset holds them: once more into a store that already has every one of
them (all deduplicated), and into an empty store (all accepted).
"""

import itertools
import json

import pytest

from marketpulse import simgen
from marketpulse.model import snapshot_to_record
from marketpulse.store import SnapStore

N_LINES = 10_000


@pytest.fixture(scope="module")
def market():
    return simgen.generate(
        simgen.MarketScript(seed=5, n_developers=300, observation_days=30)
    )


@pytest.fixture(scope="module")
def lines(market):
    assert len(market.snapshots) >= N_LINES
    return [
        json.dumps(snapshot_to_record(s), sort_keys=True, separators=(",", ":")) + "\n"
        for s in market.snapshots[:N_LINES]
    ]


def test_reingest_of_stored_lines(benchmark, tmp_path, market, lines):
    root = tmp_path / "store"
    SnapStore.create(root, market.manifest).ingest_lines("snapshots", lines)

    def reingest():
        return SnapStore.open(root).ingest_lines("snapshots", lines)

    report = benchmark(reingest)
    assert report.deduplicated["snapshots"] == N_LINES
    assert report.accepted["snapshots"] == report.total_rejected == 0


def test_bulk_ingest_into_empty_store(benchmark, tmp_path, market, lines):
    fresh = itertools.count()

    def empty_store():
        return (SnapStore.create(tmp_path / f"store{next(fresh)}", market.manifest),), {}

    def ingest(store):
        return store.ingest_lines("snapshots", lines)

    report = benchmark.pedantic(ingest, setup=empty_store, rounds=5)
    assert report.accepted["snapshots"] == N_LINES
    assert report.deduplicated["snapshots"] == report.total_rejected == 0
