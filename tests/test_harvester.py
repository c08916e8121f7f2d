import json
import random
import re
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from marketpulse import harvester
from marketpulse.cli import main
from marketpulse.errors import (
    CrawlFailedError,
    InvalidInputError,
    MalformedDocumentError,
    MissingFieldError,
)
from marketpulse.harvester import (
    CrawlConfig,
    DictMarket,
    MarketServer,
    RemoteMarket,
    crawl,
    parse_page,
    render_page,
)
from marketpulse.model import DownloadBucket
from conftest import make_snapshot, reference_page_tokens


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


# --- pattern tokenizer against the reference scanner ---------------------------


def _outcome(page):
    """The parsed page, or the type of the error that rejects it."""
    try:
        return parse_page(page)
    except Exception as exc:
        return type(exc)


def _reference_outcome(page):
    """What ``parse_page`` gives when the reference scanner tokenizes."""
    with mock.patch.object(harvester, "_page_tokens", reference_page_tokens):
        return _outcome(page)


def _tokens_or_rejection(tokenize, page):
    try:
        return tokenize(page)
    except MalformedDocumentError:
        return "rejected"


_RENDERED_TAG = re.compile(r'<(/?)([^ >]*)((?: [^ =]+="[^"]*")*)>')
_RENDERED_ATTR = re.compile(r' [^ =]+="[^"]*"')
# rewrites of one rendered tag: (slash, name, its attributes each with
# the leading space) -> tag text
_TAG_EDITS = [
    lambda slash, name, attrs: f"<{slash}{name}{''.join(reversed(attrs))}>",
    lambda slash, name, attrs: f"<{slash}{name}{''.join(attrs + attrs[:1])}>",
    lambda slash, name, attrs: f'<{slash}{name}{"".join(attrs)} name="other">',
    lambda slash, name, attrs: f'<{slash}{name}{"".join(attrs)} extra="1">',
    lambda slash, name, attrs: f"<{slash}{name}{''.join(a[1:] for a in attrs)}>",
    lambda slash, name, attrs: f"<{slash}{name}{''.join(attrs).replace(' ', chr(9))}>",
    lambda slash, name, attrs: f"<{slash}{name}{''.join(attrs).replace(' ', chr(10))}>",
    lambda slash, name, attrs: f"<{slash}{name}{''.join(attrs).replace(' ', chr(0x2003))}>",
    lambda slash, name, attrs: f"<{slash}{name}{''.join(attrs).replace('=', ' =')}>",
    lambda slash, name, attrs: f"<{slash}{name}{''.join(attrs).replace('=', '= ')}>",
    lambda slash, name, attrs: f"< \t{slash}{name}{''.join(attrs)} \n>",
    lambda slash, name, attrs: f"<{slash} {name}{''.join(attrs)}>",
    lambda slash, name, attrs: f"</{''.join(attrs)}>",
    lambda slash, name, attrs: f"<{slash}{''.join(attrs)}>",
    lambda slash, name, attrs: "<>",
    lambda slash, name, attrs: "< >",
]
_EDIT_CHARS = '<>="/&; \t\n\x0b\u2003a'


def _edit_page(page, edit):
    what, where, arg = edit
    if what == "insert":
        at = where % (len(page) + 1)
        return page[:at] + arg + page[at:]
    if what == "delete":
        at = where % len(page)
        return page[:at] + page[at + 1:]
    lines = page.split("\n")
    at = where % len(lines)
    tag = _RENDERED_TAG.fullmatch(lines[at])
    if tag is None:
        return page
    attrs = _RENDERED_ATTR.findall(tag[3])
    if what == "tag":
        lines[at] = _TAG_EDITS[arg % len(_TAG_EDITS)](tag[1], tag[2], attrs)
    elif what == "swap":
        other = arg % len(lines)
        lines[at], lines[other] = lines[other], lines[at]
    else:  # duplicate the line
        lines.insert(at, lines[at])
    return "\n".join(lines)


_PAGE_EDITS = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 10**6), st.sampled_from(_EDIT_CHARS)),
    st.tuples(st.just("delete"), st.integers(0, 10**6), st.none()),
    st.tuples(st.sampled_from(["tag", "swap", "repeat"]), st.integers(0, 10**6), st.integers(0, 99)),
)


class TestPatternTokenizer:
    def test_rendered_pages_are_tokenized_by_the_patterns(self):
        page = page_for("com.a", ["com.b", "com.c"], title='A "quoted" <b> & title')
        assert harvester._page_tokens(page) == reference_page_tokens(page)
        assert len(harvester._page_tokens(page)) == 20

    def test_raw_angle_bracket_in_attribute_value(self):
        page = page_for("com.a", ["com.b"], title="a<b").replace("&lt;", "<")
        assert 'content="a<b"' in page
        assert harvester._page_tokens(page) == reference_page_tokens(page)
        assert _outcome(page) == _reference_outcome(page)
        assert parse_page(page).snapshot.title == "a<b"

    @settings(max_examples=400, deadline=None)
    @given(
        title=st.text(alphabet='ab&;"<>= /\t', max_size=8),
        similar=st.lists(st.sampled_from(["com.b", "com.c", "com.b&c", 'com."q"']), max_size=3),
        edits=st.lists(_PAGE_EDITS, max_size=3),
    )
    def test_edited_pages_parse_as_the_scanner_parses_them(self, title, similar, edits):
        page = page_for("com.a", similar, title=title)
        for edit in edits:
            page = _edit_page(page, edit)
        assert _tokens_or_rejection(harvester._page_tokens, page) == (
            _tokens_or_rejection(reference_page_tokens, page)
        )
        assert _outcome(page) == _reference_outcome(page)


# --- the layout match against the tokenizer path -------------------------------


def _conversion(parts_of, page):
    """The page built from ``parts_of(page)``, or the type and text of the
    error that rejects it."""
    try:
        return harvester._build_page(*parts_of(page))
    except Exception as exc:
        return type(exc), str(exc)


def _both_ways(page):
    """(match path, tokenizer path) outcomes of a page in the layout."""
    assert harvester._layout_parts(page) is not None, "page is off the layout"
    return (
        _conversion(harvester._layout_parts, page),
        _conversion(harvester._scanned_parts, page),
    )


_AWKWARD_TEXT = st.text(
    alphabet=st.sampled_from('ab &"<>;=/\t\néü中\u2028\u2029\x85😀'), max_size=12
)
_AWKWARD_APPS = st.sampled_from(
    ["com.a", "com.b", "com.b&c", 'com."q"', "com.<x>", "com.b&amp;c", "com.ü"]
)


@st.composite
def _snapshots(draw):
    price = draw(st.integers(0, 10**6))
    lo = draw(st.integers(0, 10**9))
    return make_snapshot(
        app=draw(_AWKWARD_APPS),
        fetch_time=draw(st.integers(0, 2**40)),
        title=draw(_AWKWARD_TEXT),
        developer=draw(_AWKWARD_TEXT),
        price_cents=price,
        downloads=DownloadBucket(lo, lo + draw(st.integers(0, 10**9))),
        rating_avg=draw(st.floats(0, 5, allow_nan=False)),
        rating_count=draw(st.integers(0, 10**7)),
        version=draw(_AWKWARD_TEXT),
        last_updated=draw(st.dates()),
        size_bytes=draw(st.integers(0, 10**10)),
        permissions=frozenset(draw(st.sets(_AWKWARD_TEXT, max_size=4))),
    )


class TestLayoutMatch:
    @settings(max_examples=300, deadline=None)
    @given(snapshot=_snapshots(), similar=st.lists(_AWKWARD_APPS, max_size=6))
    def test_rendered_pages_parse_as_the_tokenizer_path_parses_them(self, snapshot, similar):
        page = render_page(snapshot, similar)
        matched, scanned = _both_ways(page)
        assert matched == scanned
        assert parse_page(page) == matched

    def test_every_page_of_a_rendered_market_parses_without_the_tokenizer(self, tmp_path):
        script = tmp_path / "script.json"
        script.write_text(json.dumps({
            "seed": 5,
            "n_developers": 80,
            "observation_days": 2,
            "scam_developers": [{"developer": "CloneWorks", "n_clones": 6}],
        }))
        data = tmp_path / "data"
        argv = ["simulate", "--script", str(script), "--out", str(data), "--render-market", "3"]
        assert main(argv) == 0
        market = DictMarket.load(str(data / "market_pages.jsonl"))
        seeds = (data / "seeds.txt").read_text(encoding="utf-8").split()
        config = CrawlConfig(workers=2, politeness_delay_ms=0)
        with mock.patch.object(harvester, "_page_tokens", side_effect=AssertionError):
            result = crawl(seeds, market, config)
        assert result.report.snapshots_emitted == len(market.pages) > 100
        assert result.report.parse_errors == 0

    @pytest.mark.parametrize(
        "edit",
        [
            lambda page: page.replace("\n", "\r\n"),
            lambda page: page.replace(
                '<meta name="title" content="A &lt;b&gt; app">\n<meta name="developer" content="Dev">',
                '<meta name="developer" content="Dev">\n<meta name="title" content="A &lt;b&gt; app">',
            ),
            lambda page: page.replace("<meta name=", "<meta  name=", 1),
            lambda page: page.replace("&lt;", "<"),
        ],
        ids=["crlf", "swapped-metas", "space-in-tag", "raw-angle-bracket"],
    )
    def test_pages_just_off_the_layout_take_the_tokenizer(self, edit):
        page = page_for("com.a", ["com.b", "com.c", "com.b"], title="A <b> app", developer="Dev")
        edited = edit(page)
        assert edited != page and harvester._layout_parts(edited) is None
        with mock.patch.object(
            harvester, "_page_tokens", wraps=harvester._page_tokens
        ) as tokens:
            parsed = parse_page(edited)
        tokens.assert_called_once_with(edited)
        assert parsed == parse_page(page)
        assert parsed.similar == ("com.b", "com.c")

    @pytest.mark.parametrize(
        "name, value",
        [
            ("price", "1x"),
            ("downloads", "1000"),
            ("rating_avg", "4.2.1"),
            ("rating_count", ""),
            ("last_updated", "2012-13-01"),
            ("fetch_time", "1e9"),
        ],
    )
    def test_a_bad_value_in_the_layout_is_rejected_as_the_tokenizer_rejects_it(self, name, value):
        page = re.sub(
            f'<meta name="{name}" content="[^"]*">',
            f'<meta name="{name}" content="{value}">',
            page_for("com.a", ["com.b"]),
        )
        matched, scanned = _both_ways(page)
        assert matched == scanned
        assert matched[0] is MalformedDocumentError
        with pytest.raises(MalformedDocumentError) as exc:
            parse_page(page)
        assert str(exc.value) == matched[1]


class TestDictMarket:
    def test_load_keeps_line_separators_inside_json_strings(self, tmp_path):
        pages = {
            "com.a": page_for("com.a", title="one\u2028two\u2029three\x85four"),
            "com.b": page_for("com.b", ["com.a"]),
        }
        path = tmp_path / "market_pages.jsonl"
        path.write_text(
            "".join(
                json.dumps({"app": app, "page": page}, ensure_ascii=False) + "\n"
                for app, page in pages.items()
            ),
            encoding="utf-8",
        )
        assert "\u2028" in path.read_text(encoding="utf-8")
        market = DictMarket.load(str(path))
        assert market.pages == pages
        assert parse_page(market.fetch("com.a")).snapshot.title == "one\u2028two\u2029three\x85four"


def chain_market(graph):
    pages = {app: page_for(app, similar) for app, similar in graph.items()}
    return DictMarket(pages)


def crawl_within(seconds, *args):
    """``crawl(*args)`` in a thread joined with a timeout, so that a crawl
    that hangs fails the test instead of stalling the run."""
    outcome = {}

    def target():
        try:
            outcome["result"] = crawl(*args)
        except Exception as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"crawl still running after {seconds}s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


class UndecodableMarket(DictMarket):
    """Serves its pages, but the reply for "bad" is not UTF-8."""

    def fetch(self, app):
        if app == "bad":
            b"\xff".decode("utf-8")
        return super().fetch(app)


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

    def test_politeness_delay_after_every_fetch_of_an_active_worker(self):
        market = chain_market({"com.a": [], "com.b": []})
        with mock.patch.object(harvester.time, "sleep") as sleep:
            result = crawl(
                ["gone0", "com.a", "gone1", "gone2", "com.b"],
                market,
                CrawlConfig(workers=1, ban_threshold=2, politeness_delay_ms=7),
            )
        # a sleep after the 404, the page and the 404 that follow; none
        # after the 404 that bans the worker, and no fetch after that
        assert result.workers[0].attempts == 4
        assert not result.workers[0].active
        assert sleep.call_args_list == [mock.call(0.007)] * 3

    def test_undecodable_reply_is_a_fetch_error(self):
        market = UndecodableMarket({app: page_for(app) for app in ("com.a", "com.b")})
        for workers in (1, 2):
            result = crawl_within(
                10, ["com.a", "bad", "com.b"], market,
                CrawlConfig(workers=workers, politeness_delay_ms=0),
            )
            assert result.report.attempts == 3
            assert result.report.fetch_errors == 1
            assert result.report.snapshots_emitted == 2
            assert result.report.frontier_exhausted

    def test_undecodable_replies_count_toward_the_ban(self):
        result = crawl(
            ["bad", "com.a"],
            UndecodableMarket({"com.a": page_for("com.a")}),
            CrawlConfig(workers=1, ban_threshold=1, politeness_delay_ms=0),
        )
        assert result.report.workers_banned == 1
        assert result.report.attempts == 1

    def test_unexpected_worker_error_is_raised_after_every_worker_stops(self):
        class BrokenMarket(DictMarket):
            def fetch(self, app):
                if app == "com.b":
                    raise RuntimeError("market bug")
                return super().fetch(app)

        market = BrokenMarket({f"com.{x}": page_for(f"com.{x}") for x in "abcd"})
        for workers in (1, 3):
            with pytest.raises(RuntimeError, match="market bug"):
                crawl_within(
                    10, ["com.a", "com.b", "com.c", "com.d"], market,
                    CrawlConfig(workers=workers, politeness_delay_ms=0),
                )

    def test_many_workers_fetch_each_reachable_app_once(self):
        rng = random.Random(5)
        apps = [f"com.app{i}" for i in range(300)]
        graph = {app: rng.sample(apps, 4) + [f"gone.{app}"] for app in apps}
        market = chain_market(graph)
        fetched = []
        serve = market.fetch

        def fetch(app):
            fetched.append(app)
            return serve(app)

        market.fetch = fetch
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = crawl_within(
                60, apps[:3], market,
                CrawlConfig(workers=8, ban_threshold=10**6, politeness_delay_ms=0),
            )
        finally:
            sys.setswitchinterval(interval)
        reachable = set(apps[:3])
        stack = list(reachable)
        while stack:
            for linked in graph.get(stack.pop(), ()):
                if linked not in reachable:
                    reachable.add(linked)
                    stack.append(linked)
        assert sorted(fetched) == sorted(reachable)
        report = result.report
        assert report.attempts == len(reachable) == sum(w.attempts for w in result.workers)
        assert report.snapshots_emitted + report.not_found == report.attempts
        assert sorted(s.app for s in result.snapshots) == sorted(reachable & set(apps))
        assert report.frontier_exhausted

    def test_config_validation(self):
        with pytest.raises(InvalidInputError, match="^workers must be >= 1$"):
            CrawlConfig(workers=0)
        with pytest.raises(InvalidInputError, match="^ban_threshold must be >= 1$"):
            CrawlConfig(ban_threshold=0)
        with pytest.raises(InvalidInputError, match="^politeness_delay_ms must be >= 0$"):
            CrawlConfig(politeness_delay_ms=-1)
        with pytest.raises(InvalidInputError, match="^workers must be >= 1$"):
            CrawlConfig(0, 3, 0)
        config = CrawlConfig(workers=2)
        assert config == (2, harvester.DEFAULT_BAN_THRESHOLD, harvester.DEFAULT_POLITENESS_MS)
        for name in ("workers", "extra"):
            with pytest.raises(AttributeError):
                setattr(config, name, 1)


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
