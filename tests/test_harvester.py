import pytest
from hypothesis import given, settings, strategies as st

from marketpulse.errors import (
    CrawlFailedError,
    InvalidInputError,
    MalformedDocumentError,
    MissingFieldError,
)
from marketpulse.harvester import (
    CrawlConfig,
    DictMarket,
    Frontier,
    MarketServer,
    RemoteMarket,
    crawl,
    parse_page,
    render_page,
)
from conftest import make_snapshot


def page_for(app, similar=(), **overrides):
    return render_page(make_snapshot(app=app, **overrides), list(similar))


class TestParsePage:
    def test_golden_round_trip_with_duplicate_similar(self):
        snap = make_snapshot(app="com.a")
        page = render_page(snap, ["com.b", "com.c", "com.b"])
        parsed = parse_page(page)
        assert parsed.snapshot == snap
        assert parsed.similar == ("com.b", "com.c")

    def test_missing_price_field(self):
        page = page_for("com.a")
        broken = "\n".join(
            line for line in page.splitlines() if 'name="price"' not in line
        )
        with pytest.raises(MissingFieldError) as exc:
            parse_page(broken)
        assert exc.value.name == "price"

    def test_empty_similar_block(self):
        parsed = parse_page(page_for("com.a", similar=()))
        assert parsed.similar == ()

    def test_empty_page(self):
        with pytest.raises(MalformedDocumentError):
            parse_page("")

    def test_missing_similar_block(self):
        page = page_for("com.a")
        broken = page.replace("<similar>\n</similar>\n", "")
        with pytest.raises(MalformedDocumentError):
            parse_page(broken)

    def test_truncated_page(self):
        page = page_for("com.a")
        with pytest.raises(MalformedDocumentError):
            parse_page(page[: len(page) // 2])

    def test_stray_text_rejected(self):
        page = page_for("com.a")
        with pytest.raises(MalformedDocumentError):
            parse_page(page.replace("<metadata>", "<metadata>oops"))

    def test_bad_numeric_field(self):
        page = page_for("com.a").replace(
            'name="size_bytes" content="1800000"', 'name="size_bytes" content="huge"'
        )
        with pytest.raises(MalformedDocumentError):
            parse_page(page)

    @settings(max_examples=60, deadline=None)
    @given(
        st.text(
            alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00\r\n"),
            min_size=0,
            max_size=30,
        ),
        st.sets(st.from_regex(r"[A-Z_<>&\"]{1,12}", fullmatch=True), max_size=5),
    )
    def test_attribute_escaping_round_trip(self, title, permissions):
        snap = make_snapshot(title=title, permissions=frozenset(permissions))
        parsed = parse_page(render_page(snap, []))
        assert parsed.snapshot.title == title
        assert parsed.snapshot.permissions == frozenset(permissions)


class TestFrontier:
    def test_enqueue_once_ever(self):
        frontier = Frontier()
        assert frontier.try_enqueue("a")
        assert not frontier.try_enqueue("a")
        assert frontier.pop() == "a"
        # popped items stay seen
        assert not frontier.try_enqueue("a")
        assert frontier.pop() is None

    def test_fifo_order(self):
        frontier = Frontier()
        for x in "abc":
            frontier.try_enqueue(x)
        assert [frontier.pop() for _ in range(3)] == ["a", "b", "c"]


def chain_market(graph):
    pages = {app: page_for(app, similar) for app, similar in graph.items()}
    return DictMarket(pages)


class TestCrawl:
    GRAPH = {
        "com.a": ["com.b", "com.c"],
        "com.b": ["com.d"],
        "com.c": ["com.e", "com.a"],
        "com.d": [],
        "com.e": ["com.b"],
    }

    def test_single_worker_bfs_order(self):
        market = chain_market(self.GRAPH)
        result = crawl(["com.a"], market, CrawlConfig(workers=1, politeness_delay_ms=0))
        order = [s.app for s in result.snapshots]
        assert order == ["com.a", "com.b", "com.c", "com.d", "com.e"]
        assert result.report.frontier_exhausted

    def test_no_app_fetched_twice(self):
        market = chain_market(self.GRAPH)
        for workers in (1, 3):
            result = crawl(
                ["com.a", "com.b"],
                market,
                CrawlConfig(workers=workers, politeness_delay_ms=0),
            )
            apps = [s.app for s in result.snapshots]
            assert len(apps) == len(set(apps)) == 5
            assert result.report.attempts == 5

    def test_seed_with_no_similar_links(self):
        market = chain_market({"com.solo": []})
        result = crawl(["com.solo"], market, CrawlConfig(politeness_delay_ms=0))
        assert result.report.snapshots_emitted == 1
        assert result.report.frontier_exhausted

    def test_all_404_bans_worker_after_threshold(self):
        market = DictMarket({})
        result = crawl(
            ["a", "b", "c", "d", "e"],
            market,
            CrawlConfig(workers=1, ban_threshold=3, politeness_delay_ms=0),
        )
        worker = result.workers[0]
        assert worker.attempts == 3
        assert not worker.active
        assert worker.consecutive_404 == 3
        assert result.report.workers_banned == 1
        assert not result.report.frontier_exhausted

    def test_success_resets_consecutive_404(self):
        pages = {"ok1": page_for("ok1", ["gone1", "ok2"]), "ok2": page_for("ok2", ["gone2"])}
        market = DictMarket(pages)
        result = crawl(
            ["gone0", "ok1"],
            market,
            CrawlConfig(workers=1, ban_threshold=2, politeness_delay_ms=0),
        )
        # misses never accumulate to the threshold thanks to interleaved hits
        assert result.workers[0].active
        assert result.report.snapshots_emitted == 2
        assert result.report.not_found == 3

    def test_banned_workers_stop_multithreaded(self):
        market = DictMarket({})
        result = crawl(
            [f"x{i}" for i in range(100)],
            market,
            CrawlConfig(workers=4, ban_threshold=3, politeness_delay_ms=0),
        )
        assert result.report.workers_banned == 4
        assert result.report.attempts == 12
        assert not result.report.frontier_exhausted

    def test_empty_seeds_raise(self):
        with pytest.raises(InvalidInputError):
            crawl([], DictMarket({}), CrawlConfig(politeness_delay_ms=0))

    def test_parse_errors_do_not_count_toward_ban(self):
        pages = {f"p{i}": "<garbage" for i in range(5)}
        market = DictMarket(pages)
        result = crawl(
            [f"p{i}" for i in range(5)],
            market,
            CrawlConfig(workers=1, ban_threshold=3, politeness_delay_ms=0),
        )
        assert result.report.parse_errors == 5
        assert result.workers[0].active

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            CrawlConfig(workers=0)
        with pytest.raises(InvalidInputError):
            CrawlConfig(ban_threshold=0)


class TestRemoteTransport:
    def test_tcp_round_trip(self):
        graph = {"com.a": ["com.b"], "com.b": []}
        pages = {app: page_for(app, sim) for app, sim in graph.items()}
        with MarketServer(pages) as server:
            host, port = server.address
            market = RemoteMarket(host, port)
            result = crawl(
                ["com.a", "com.miss"],
                market,
                CrawlConfig(workers=2, politeness_delay_ms=0),
            )
            assert result.report.snapshots_emitted == 2
            assert result.report.not_found == 1

    def test_unreachable_endpoint_fails_fast(self):
        with MarketServer({}) as server:
            host, port = server.address
        market = RemoteMarket(host, port, timeout=0.5)
        with pytest.raises(CrawlFailedError):
            crawl(["a"], market, CrawlConfig(politeness_delay_ms=0))

    def test_mid_crawl_errors_count_toward_ban(self):
        class FlakyMarket:
            def ping(self):
                return None

            def fetch(self, app):
                raise ConnectionResetError("boom")

        result = crawl(
            ["a", "b", "c"],
            FlakyMarket(),
            CrawlConfig(workers=1, ban_threshold=2, politeness_delay_ms=0),
        )
        assert result.report.fetch_errors == 2
        assert result.report.workers_banned == 1
