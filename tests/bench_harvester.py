"""Page-parse micro-benchmark, kept out of the default test run.

pytest collects ``test_*.py`` only, so run this file by name:

    PYTHONPATH=src python -m pytest tests/bench_harvester.py --benchmark-only

The first case parses 2,000 market pages as ``simulate --render-market``
renders them: one page per app, each linking up to five similar apps. Those
pages take the whole-page layout match. The second case parses the same
pages with CRLF line ends, which miss the layout, so it times the tokenizer
path that every page off the layout takes. The third runs the ``crawl``
command over those pages from a market_pages.jsonl file, with one worker
and no politeness delay: it builds each page's snapshot and writes its
canonical line to snapshots.jsonl.
"""

import json

import pytest

from marketpulse import cli, simgen
from marketpulse import harvester
from marketpulse.harvester import parse_page, render_page

from conftest import generate

N_PAGES = 2_000


@pytest.fixture(scope="module")
def pages():
    market = generate(simgen.MarketScript(seed=5, n_developers=1200, observation_days=1))
    snapshots = market.snapshots[:N_PAGES]
    assert len(snapshots) == N_PAGES
    apps = [s.app for s in snapshots]
    return [render_page(s, apps[i + 1 : i + 6]) for i, s in enumerate(snapshots)]


def test_parse_rendered_pages(benchmark, pages):
    def parse_all():
        return [parse_page(page) for page in pages]

    parsed = benchmark(parse_all)
    assert len(parsed) == N_PAGES


def test_parse_pages_off_the_layout(benchmark, pages):
    crlf_pages = [page.replace("\n", "\r\n") for page in pages]
    assert not any(harvester._layout_parts(page) for page in crlf_pages)

    def parse_all():
        return [parse_page(page) for page in crlf_pages]

    parsed = benchmark(parse_all)
    assert [p.snapshot for p in parsed] == [parse_page(page).snapshot for page in pages]


def test_crawl_builds_and_writes_rendered_pages(benchmark, tmp_path, pages):
    apps = [parse_page(page).snapshot.app for page in pages]
    market, seeds, out = tmp_path / "pages.jsonl", tmp_path / "seeds.txt", tmp_path / "crawl"
    market.write_text(
        "".join(json.dumps({"app": app, "page": page}) + "\n" for app, page in zip(apps, pages))
    )
    seeds.write_text("".join(app + "\n" for app in apps))
    argv = [
        "crawl", "--seeds", str(seeds), "--market", str(market),
        "--politeness-delay-ms", "0", "--out", str(out),
    ]

    assert benchmark(cli.main, argv) == 0
    assert len((out / "snapshots.jsonl").read_bytes().splitlines()) == N_PAGES
