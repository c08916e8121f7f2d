"""Crawl engine with ban detection, plus the market page grammar.

The market speaks a one-line request protocol: the client sends an app
id line, the server answers with either a page document or a "404"
status line. Pages are an HTML-like subset: a metadata block of
``<meta name="..." content="...">`` tags and a similar-apps block of
``<a class="similar" href="APPID">`` anchors.

``parse_page`` has two ways in and one builder. A page in exactly
``render_page``'s layout is read by one whole-page match of a pattern built
from the same tuple of meta names, which yields the app, the meta values
and the similar-app hrefs. Any other page goes through the tokenizer and
the block state machine, the only reader that rejects a page's structure.
Both ways hand those parts to one builder, which converts the field values
and rejects a value that does not convert, so a page gives the same result
or the same error either way.

One compiled pattern tokenizes a page, and a second splits the attributes
of each tag it matched. A page is tags with only whitespace between them.
A tag is "<", optional whitespace, an optional "/", a name of one or more
characters other than whitespace and ">", then any number of attributes,
optional whitespace and ">". An attribute is optional whitespace, a name
(possibly empty) of characters other than "=", space, tab and ">",
optional whitespace, "=" and a double-quoted value holding neither '"'
nor ">"; ``&amp;``, ``&quot;``, ``&lt;`` and ``&gt;`` in a value are
unescaped. A page that is not all tags and whitespace is malformed.
"""

from __future__ import annotations

import json
import re
import socket
import socketserver
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Protocol, Sequence

from .errors import (
    CrawlFailedError,
    InvalidInputError,
    MalformedDocumentError,
    MissingFieldError,
)
from .model import AppSnapshot, DownloadBucket, parse_date

NOT_FOUND = "404"

DEFAULT_BAN_THRESHOLD = 50
DEFAULT_POLITENESS_MS = 100

_ESCAPES = (("&", "&amp;"), ("\"", "&quot;"), ("<", "&lt;"), (">", "&gt;"))


def escape_attr(value: str) -> str:
    for raw, entity in _ESCAPES:
        value = value.replace(raw, entity)
    return value


def unescape_attr(value: str) -> str:
    for raw, entity in reversed(_ESCAPES):
        value = value.replace(entity, raw)
    return value


# --- page rendering -----------------------------------------------------------

# meta tag name -> snapshot field renderer
_META_ORDER = (
    "title",
    "developer",
    "category",
    "price",
    "downloads",
    "rating_avg",
    "rating_count",
    "version",
    "last_updated",
    "size_bytes",
    "permissions",
    "fetch_time",
)


def render_page(snapshot: AppSnapshot, similar: Sequence[str]) -> str:
    """One market page in the crawl grammar; inverse of ``parse_page``."""
    values = {
        "title": snapshot.title,
        "developer": snapshot.developer,
        "category": snapshot.category,
        "price": str(snapshot.price_cents),
        "downloads": f"{snapshot.downloads.lo}-{snapshot.downloads.hi}",
        "rating_avg": repr(snapshot.rating_avg),
        "rating_count": str(snapshot.rating_count),
        "version": snapshot.version,
        "last_updated": snapshot.last_updated.isoformat(),
        "size_bytes": str(snapshot.size_bytes),
        "permissions": ";".join(sorted(snapshot.permissions)),
        "fetch_time": str(snapshot.fetch_time),
    }
    lines = [f'<market-page app="{escape_attr(snapshot.app)}">', "<metadata>"]
    lines.extend(
        f'<meta name="{name}" content="{escape_attr(values[name])}">'
        for name in _META_ORDER
    )
    lines.append("</metadata>")
    lines.append("<similar>")
    lines.extend(f'<a class="similar" href="{escape_attr(app)}">' for app in similar)
    lines.append("</similar>")
    lines.append("</market-page>")
    return "\n".join(lines) + "\n"


# --- page parsing -------------------------------------------------------------


# Possessive quantifiers keep each pattern from reading a tag any way but
# one. For str patterns ``\s`` matches exactly what str.isspace() treats as
# whitespace. A tag cannot hold ">", so a match ends at the first ">" after
# its "<". ``split`` gives the text before each tag, then its slash, name and
# attribute text, then the text after the last tag.
_PAGE_TAGS = re.compile(
    r'<\s*+(/?+)([^\s>]++)((?:\s*+[^= \t>]*+\s*+="[^">]*+")*+)\s*+>'
)
_TAG_ATTRS = re.compile(r'\s*+([^= \t]*+)\s*+="([^"]*+)"')


def _page_tokens(raw: str) -> list[tuple[str, dict[str, str], bool]]:
    """(name, attributes, is_closing) of each tag of ``raw``, in order.

    Raises MalformedDocumentError when anything but whitespace lies
    outside the tags, which is also how a malformed tag shows.
    """
    parts = _PAGE_TAGS.split(raw)
    if "".join(parts[::4]).strip():
        raise MalformedDocumentError("malformed tag or text outside tags")
    tokens = []
    for slash, name, attr_text in zip(parts[1::4], parts[2::4], parts[3::4]):
        attrs = {}
        if attr_text:
            for attr, value in _TAG_ATTRS.findall(attr_text):
                attrs[attr] = unescape_attr(value) if "&" in value else value
        tokens.append((name, attrs, bool(slash)))
    return tokens


@dataclass(frozen=True)
class ParsedPage:
    snapshot: AppSnapshot
    similar: tuple[str, ...]


def parse_page(raw: str) -> ParsedPage:
    """Extract the snapshot and the ordered, deduplicated similar-app list.

    Raises MissingFieldError when a required meta tag is absent and
    MalformedDocumentError when the block structure is broken or a field
    value does not convert.
    """
    parts = _layout_parts(raw)
    if parts is None:
        parts = _scanned_parts(raw)
    return _build_page(*parts)


# render_page's exact layout, one group per value. No value holds '"', "<"
# or ">", so the tokenizer would read each tag of a matching page the same
# way and find only the "\n" between tags: both ways give the same parts.
_PAGE_LAYOUT = re.compile(
    '<market-page app="([^"<>]*+)">\n<metadata>\n'
    + "".join(
        f'<meta name="{re.escape(name)}" content="([^"<>]*+)">\n' for name in _META_ORDER
    )
    + '</metadata>\n<similar>\n((?:<a class="similar" href="[^"<>]*+">\n)*+)'
    '</similar>\n</market-page>\n'
)
_SIMILAR_HREF = re.compile('<a class="similar" href="([^"<>]*+)">\n')


def _layout_parts(raw: str) -> tuple[str, dict[str, str], list[str]] | None:
    """(app, metas, similar hrefs) of a page in render_page's layout, or
    None for any other page."""
    page = _PAGE_LAYOUT.fullmatch(raw)
    if page is None:
        return None
    app, *values, block = page.groups()
    similar = _SIMILAR_HREF.findall(block)
    if "&" in raw:
        app, *values = [unescape_attr(v) if "&" in v else v for v in (app, *values)]
        similar = [unescape_attr(v) if "&" in v else v for v in similar]
    return app, dict(zip(_META_ORDER, values)), similar


def _scanned_parts(raw: str) -> tuple[str, dict[str, str], list[str]]:
    """(app, metas, similar hrefs) of any page, from the tokenizer and the
    block state machine; the only reader that rejects a page's structure."""
    if not raw or not raw.strip():
        raise MalformedDocumentError("empty page")
    app: str | None = None
    metas: dict[str, str] = {}
    similar: list[str] = []
    # block state machine: expect market-page > metadata > similar > close
    state = "start"
    for name, attrs, closing in _page_tokens(raw):
        if state == "start":
            if closing or name != "market-page":
                raise MalformedDocumentError("page must open with market-page")
            app = attrs.get("app")
            if app is None:
                raise MissingFieldError("app")
            state = "before-metadata"
        elif state == "before-metadata":
            if closing or name != "metadata":
                raise MalformedDocumentError("expected metadata block")
            state = "metadata"
        elif state == "metadata":
            if closing and name == "metadata":
                state = "before-similar"
            elif not closing and name == "meta":
                if "name" not in attrs or "content" not in attrs:
                    raise MalformedDocumentError("meta tag needs name and content")
                metas[attrs["name"]] = attrs["content"]
            else:
                raise MalformedDocumentError(f"unexpected tag {name!r} in metadata")
        elif state == "before-similar":
            if closing or name != "similar":
                raise MalformedDocumentError("expected similar block")
            state = "similar"
        elif state == "similar":
            if closing and name == "similar":
                state = "end"
            elif not closing and name == "a":
                if attrs.get("class") != "similar" or "href" not in attrs:
                    raise MalformedDocumentError("anchor must be class=similar with href")
                similar.append(attrs["href"])
            else:
                raise MalformedDocumentError(f"unexpected tag {name!r} in similar")
        elif state == "end":
            if not (closing and name == "market-page"):
                raise MalformedDocumentError("expected closing market-page")
            state = "done"
        else:
            raise MalformedDocumentError("content after closing market-page")
    if state != "done":
        raise MalformedDocumentError(f"page truncated (in {state})")
    return app, metas, similar


def _build_page(app: str, metas: dict[str, str], similar: list[str]) -> ParsedPage:
    """The page of ``parse_page``'s parts: the one place that converts
    field values. Fields are read in a fixed order, so the first absent
    one is the MissingFieldError and the first bad value the
    MalformedDocumentError."""
    try:
        lo_text, _, hi_text = metas["downloads"].partition("-")
        # the bucket, the snapshot and the page are set through __dict__, as
        # model.snapshot_from_trusted_record sets a snapshot: their __init__
        # checks nothing, and a frozen dataclass's costs a third of a parse
        downloads = object.__new__(DownloadBucket)
        downloads.__dict__.update(lo=int(lo_text), hi=int(hi_text))
        price_cents = int(metas["price"])
        snapshot = object.__new__(AppSnapshot)
        snapshot.__dict__.update(
            app=app,
            fetch_time=int(metas["fetch_time"]),
            title=metas["title"],
            developer=metas["developer"],
            category=metas["category"],
            price_cents=price_cents,
            free=price_cents == 0,
            downloads=downloads,
            rating_avg=float(metas["rating_avg"]),
            rating_count=int(metas["rating_count"]),
            version=metas["version"],
            last_updated=parse_date(metas["last_updated"]),
            size_bytes=int(metas["size_bytes"]),
            permissions=frozenset(p for p in metas["permissions"].split(";") if p),
        )
    except KeyError as exc:
        raise MissingFieldError(exc.args[0]) from None
    except ValueError as exc:
        raise MalformedDocumentError(f"bad field value: {exc}") from None
    page = object.__new__(ParsedPage)
    page.__dict__.update(snapshot=snapshot, similar=tuple(dict.fromkeys(similar)))
    return page


# --- market endpoints -----------------------------------------------------------


class MarketEndpoint(Protocol):
    """Anything that answers an app-id request with a page or "404"."""

    def fetch(self, app: str) -> str: ...

    def ping(self) -> None: ...


class DictMarket:
    """In-memory market endpoint serving pre-rendered pages."""

    def __init__(self, pages: dict[str, str]):
        self.pages = pages

    def fetch(self, app: str) -> str:
        return self.pages.get(app, NOT_FOUND)

    def ping(self) -> None:
        return None

    @classmethod
    def load(cls, path: str) -> "DictMarket":
        """Load from a market_pages.jsonl file ({"app": ..., "page": ...})."""
        pages = {}
        # split at "\n" only: str.splitlines also breaks at U+2028, U+2029
        # and U+0085, which a JSON string may hold raw
        for line in Path(path).read_text(encoding="utf-8").split("\n"):
            if line.strip():
                rec = json.loads(line)
                pages[rec["app"]] = rec["page"]
        return cls(pages)


class MarketServer:
    """TCP server speaking the one-line request protocol over localhost."""

    def __init__(self, pages: dict[str, str], host: str = "127.0.0.1", port: int = 0):
        market = DictMarket(pages)

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                app = self.rfile.readline().decode("utf-8").strip()
                self.wfile.write(market.fetch(app).encode("utf-8"))

        self._server = socketserver.ThreadingTCPServer((host, port), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    def __enter__(self) -> "MarketServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()


class RemoteMarket:
    """Client for a MarketServer-style endpoint; one connection per fetch."""

    def __init__(self, host: str, port: int, timeout: float = 5.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    def ping(self) -> None:
        with socket.create_connection((self.host, self.port), timeout=self.timeout):
            pass

    def fetch(self, app: str) -> str:
        with socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        ) as conn:
            conn.sendall((app + "\n").encode("utf-8"))
            conn.shutdown(socket.SHUT_WR)
            chunks = []
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        return b"".join(chunks).decode("utf-8")


# --- crawl ---------------------------------------------------------------------


@dataclass
class WorkerState:
    worker_id: int
    consecutive_404: int = 0
    active: bool = True
    attempts: int = 0


@dataclass(frozen=True)
class CrawlConfig:
    workers: int = 1
    ban_threshold: int = DEFAULT_BAN_THRESHOLD
    politeness_delay_ms: int = DEFAULT_POLITENESS_MS

    def __post_init__(self):
        if self.workers < 1:
            raise InvalidInputError("workers must be >= 1")
        if self.ban_threshold < 1:
            raise InvalidInputError("ban_threshold must be >= 1")
        if self.politeness_delay_ms < 0:
            raise InvalidInputError("politeness_delay_ms must be >= 0")


@dataclass
class CrawlReport:
    attempts: int = 0
    pages_fetched: int = 0
    snapshots_emitted: int = 0
    not_found: int = 0
    fetch_errors: int = 0
    parse_errors: int = 0
    workers_banned: int = 0
    frontier_exhausted: bool = False

    def to_record(self) -> dict:
        return asdict(self)


@dataclass
class CrawlResult:
    snapshots: list[AppSnapshot]
    report: CrawlReport
    workers: list[WorkerState]


def _visit(market: MarketEndpoint, app: str) -> tuple[str, ParsedPage | None]:
    """Fetch and parse ``app``'s page: the CrawlReport counter its outcome
    adds to, and the parsed page when there is one."""
    try:
        response = market.fetch(app)
    except (OSError, UnicodeDecodeError):
        # a transport error or an undecodable reply counts toward the ban
        return "fetch_errors", None
    if response.strip() == NOT_FOUND:
        return "not_found", None
    try:
        return "snapshots_emitted", parse_page(response)
    except (MissingFieldError, MalformedDocumentError):
        return "parse_errors", None


def crawl(
    seeds: Sequence[str],
    market: MarketEndpoint,
    config: CrawlConfig = CrawlConfig(),
) -> CrawlResult:
    """Fetch every app reachable from ``seeds`` through similar-app links.

    Each app is fetched at most once per crawl. A worker deactivates for
    the rest of the crawl once it sees ``ban_threshold`` consecutive
    not-found (or fetch-error) responses; a page, even one that does not
    parse, resets its counter. With one worker the crawl order is exactly
    breadth-first from the seeds.

    One condition guards the queue, the seen set, the report, the
    snapshots and the count of fetches in flight; workers fetch and parse
    outside it. A worker that finds the queue empty waits until it fills
    or no fetch is in flight, since a fetch in flight may enqueue more
    apps. The first exception a worker did not expect is raised once
    every worker has stopped.
    """
    if not seeds:
        raise InvalidInputError("seeds must be non-empty")
    try:
        market.ping()
    except OSError as exc:
        raise CrawlFailedError(f"market endpoint unreachable: {exc}") from exc
    queue = deque(dict.fromkeys(seeds))
    seen = set(queue)
    snapshots: list[AppSnapshot] = []
    report = CrawlReport()
    in_flight = 0
    failures: list[BaseException] = []
    cond = threading.Condition()

    def record(worker: WorkerState, outcome: str, parsed: ParsedPage | None) -> None:
        report.attempts += 1
        setattr(report, outcome, getattr(report, outcome) + 1)
        if outcome in ("fetch_errors", "not_found"):
            worker.consecutive_404 += 1
            if worker.consecutive_404 >= config.ban_threshold:
                worker.active = False
                report.workers_banned += 1
            return
        worker.consecutive_404 = 0
        report.pages_fetched += 1
        if parsed is not None:
            snapshots.append(parsed.snapshot)
            for similar in parsed.similar:
                if similar not in seen:
                    seen.add(similar)
                    queue.append(similar)

    def work(worker: WorkerState) -> None:
        nonlocal in_flight
        while worker.active:
            with cond:
                while not queue and in_flight:
                    cond.wait()
                if not queue:
                    return
                app = queue.popleft()
                in_flight += 1
            worker.attempts += 1
            outcome = None
            try:
                outcome, parsed = _visit(market, app)
            finally:
                with cond:
                    in_flight -= 1
                    if outcome is not None:
                        record(worker, outcome, parsed)
                    cond.notify_all()
            if worker.active and config.politeness_delay_ms:
                time.sleep(config.politeness_delay_ms / 1000.0)

    def run(worker: WorkerState) -> None:
        try:
            work(worker)
        except BaseException as exc:
            with cond:
                failures.append(exc)
                queue.clear()  # the crawl fails: stop the other workers
                cond.notify_all()

    workers = [WorkerState(worker_id=i) for i in range(config.workers)]
    threads = [threading.Thread(target=run, args=(w,), daemon=True) for w in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise failures[0]
    report.frontier_exhausted = not queue
    # snapshots stay in emission order: with one worker that is BFS order
    return CrawlResult(snapshots=snapshots, report=report, workers=workers)
