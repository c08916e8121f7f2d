"""Crawl-frontier engine with ban detection, plus the market page grammar.

The market speaks a one-line request protocol: the client sends an app
id line, the server answers with either a page document or a "404"
status line. Pages are an HTML-like subset: a metadata block of
``<meta name="..." content="...">`` tags and a similar-apps block of
``<a class="similar" href="APPID">`` anchors.

A page is tokenized by two compiled patterns, one over the tags of the page
and one over the attributes of a tag. They accept only what the character
scanner below (``_tokenize``, ``_parse_tag``) accepts, and read it the same
way; a page they reject goes to that scanner, which raises the error. So
the grammar, the tokens and every error message stay the scanner's.
"""

from __future__ import annotations

import json
import re
import socket
import socketserver
import threading
import time
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

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


def _parse_tag(tag: str) -> tuple[str, dict[str, str], bool]:
    """(name, attributes, is_closing) of one tag body (no angle brackets)."""
    tag = tag.strip()
    closing = tag.startswith("/")
    if closing:
        tag = tag[1:]
    i = 0
    while i < len(tag) and not tag[i].isspace():
        i += 1
    name = tag[:i]
    if not name:
        raise MalformedDocumentError("empty tag")
    attrs: dict[str, str] = {}
    while i < len(tag):
        while i < len(tag) and tag[i].isspace():
            i += 1
        if i >= len(tag):
            break
        j = i
        while j < len(tag) and tag[j] not in "= \t":
            j += 1
        attr = tag[i:j]
        while j < len(tag) and tag[j].isspace():
            j += 1
        if j >= len(tag) or tag[j] != "=":
            raise MalformedDocumentError(f"attribute {attr!r} has no value")
        j += 1
        if j >= len(tag) or tag[j] != '"':
            raise MalformedDocumentError(f"attribute {attr!r} value not quoted")
        j += 1
        end = tag.find('"', j)
        if end < 0:
            raise MalformedDocumentError(f"attribute {attr!r} value unterminated")
        attrs[attr] = unescape_attr(tag[j:end])
        i = end + 1
    return name, attrs, closing


def _tokenize(raw: str):
    pos = 0
    while True:
        start = raw.find("<", pos)
        if start < 0:
            if raw[pos:].strip():
                raise MalformedDocumentError("stray text outside tags")
            return
        if raw[pos:start].strip():
            raise MalformedDocumentError("stray text between tags")
        end = raw.find(">", start)
        if end < 0:
            raise MalformedDocumentError("unterminated tag")
        yield _parse_tag(raw[start + 1 : end])
        pos = end + 1


# The patterns mirror the scanner step by step; possessive quantifiers keep
# them from reading a tag any other way than its greedy loops do. For str
# patterns ``\s`` matches exactly what str.isspace() and str.strip() treat as
# whitespace. A tag is "<", the body ``_parse_tag`` strips (an optional "/",
# the name up to whitespace, then attributes: a name up to "=", space or tab,
# optional whitespace, "=" and a quoted value up to the next quote), ">".
# Bodies holding "<" or ">" are left to the scanner. ``split`` gives the text
# before each tag, then its slash, name and attribute text, then the text
# after the last tag.
_PAGE_TAGS = re.compile(
    r'<\s*+(/?+)([^\s<>]++)((?:\s*+[^= \t<>]*+\s*+="[^"<>]*+")*+)\s*+>'
)
_TAG_ATTRS = re.compile(r'\s*+([^= \t]*+)\s*+="([^"]*+)"')


def _page_tokens(raw: str) -> list | None:
    """The tokens ``_tokenize`` yields for ``raw``, or None when the patterns
    reject it, which they do for every page the scanner fails on."""
    parts = _PAGE_TAGS.split(raw)
    if "".join(parts[::4]).strip():
        return None
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
    MalformedDocumentError when the block structure is broken.
    """
    if not raw or not raw.strip():
        raise MalformedDocumentError("empty page")
    app: str | None = None
    metas: dict[str, str] = {}
    similar: list[str] = []
    seen_similar: set[str] = set()
    # block state machine: expect market-page > metadata > similar > close
    state = "start"
    tokens = _page_tokens(raw)
    for name, attrs, closing in _tokenize(raw) if tokens is None else tokens:
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
                target = attrs["href"]
                if target not in seen_similar:
                    seen_similar.add(target)
                    similar.append(target)
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

    def need(name: str) -> str:
        if name not in metas:
            raise MissingFieldError(name)
        return metas[name]

    downloads = need("downloads")
    try:
        lo_text, _, hi_text = downloads.partition("-")
        bucket = DownloadBucket(int(lo_text), int(hi_text))
        price_cents = int(need("price"))
        snapshot = AppSnapshot(
            app=app,
            fetch_time=int(need("fetch_time")),
            title=need("title"),
            developer=need("developer"),
            category=need("category"),
            price_cents=price_cents,
            free=price_cents == 0,
            downloads=bucket,
            rating_avg=float(need("rating_avg")),
            rating_count=int(need("rating_count")),
            version=need("version"),
            last_updated=parse_date(need("last_updated")),
            size_bytes=int(need("size_bytes")),
            permissions=frozenset(p for p in need("permissions").split(";") if p),
        )
    except MissingFieldError:
        raise
    except ValueError as exc:
        raise MalformedDocumentError(f"bad field value: {exc}") from None
    return ParsedPage(snapshot=snapshot, similar=tuple(similar))


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
    def load(cls, pages_jsonl: str | Iterable[str]) -> "DictMarket":
        """Load from a market_pages.jsonl file ({"app": ..., "page": ...})."""
        from pathlib import Path

        lines = (
            Path(pages_jsonl).read_text(encoding="utf-8").splitlines()
            if isinstance(pages_jsonl, str)
            else pages_jsonl
        )
        pages = {}
        for line in lines:
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


# --- frontier and crawl -----------------------------------------------------------


class Frontier:
    """FIFO crawl queue with an ever-growing seen set.

    The seen check and the enqueue happen under one lock, so concurrent
    discoveries of the same app cannot double-enqueue it.
    """

    def __init__(self):
        self._queue: list[str] = []
        self._head = 0
        self._seen: set[str] = set()
        self._lock = threading.Lock()

    def try_enqueue(self, app: str) -> bool:
        with self._lock:
            if app in self._seen:
                return False
            self._seen.add(app)
            self._queue.append(app)
            return True

    def pop(self) -> str | None:
        with self._lock:
            if self._head >= len(self._queue):
                return None
            app = self._queue[self._head]
            self._head += 1
            return app

    def pending(self) -> int:
        with self._lock:
            return len(self._queue) - self._head


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
        return {
            "attempts": self.attempts,
            "pages_fetched": self.pages_fetched,
            "snapshots_emitted": self.snapshots_emitted,
            "not_found": self.not_found,
            "fetch_errors": self.fetch_errors,
            "parse_errors": self.parse_errors,
            "workers_banned": self.workers_banned,
            "frontier_exhausted": self.frontier_exhausted,
        }


@dataclass
class CrawlResult:
    snapshots: list[AppSnapshot]
    report: CrawlReport
    workers: list[WorkerState]


class _CrawlRun:
    """Shared state of one crawl; workers call ``process_one``."""

    def __init__(self, market: MarketEndpoint, config: CrawlConfig):
        self.market = market
        self.config = config
        self.frontier = Frontier()
        self.snapshots: list[AppSnapshot] = []
        self.report = CrawlReport()
        self._lock = threading.Lock()

    def process_one(self, worker: WorkerState, app: str) -> None:
        worker.attempts += 1
        try:
            response = self.market.fetch(app)
        except OSError:
            # endpoint errors count toward the 404/ban logic
            with self._lock:
                self.report.attempts += 1
                self.report.fetch_errors += 1
            worker.consecutive_404 += 1
            self._maybe_ban(worker)
            return
        if response.strip() == NOT_FOUND:
            with self._lock:
                self.report.attempts += 1
                self.report.not_found += 1
            worker.consecutive_404 += 1
            self._maybe_ban(worker)
            return
        worker.consecutive_404 = 0
        try:
            parsed = parse_page(response)
        except (MissingFieldError, MalformedDocumentError):
            with self._lock:
                self.report.attempts += 1
                self.report.pages_fetched += 1
                self.report.parse_errors += 1
            return
        with self._lock:
            self.report.attempts += 1
            self.report.pages_fetched += 1
            self.report.snapshots_emitted += 1
            self.snapshots.append(parsed.snapshot)
        for similar in parsed.similar:
            self.frontier.try_enqueue(similar)

    def _maybe_ban(self, worker: WorkerState) -> None:
        if worker.consecutive_404 >= self.config.ban_threshold:
            worker.active = False
            with self._lock:
                self.report.workers_banned += 1


def crawl(
    seeds: Sequence[str],
    market: MarketEndpoint,
    config: CrawlConfig = CrawlConfig(),
) -> CrawlResult:
    """Fetch every app reachable from ``seeds`` through similar-app links.

    Each app is fetched at most once per crawl. A worker deactivates for
    the rest of the crawl once it sees ``ban_threshold`` consecutive
    not-found (or transport-error) responses; a successful fetch resets
    its counter. With one worker the crawl order is exactly breadth-first
    from the seeds.
    """
    if not seeds:
        raise InvalidInputError("seeds must be non-empty")
    try:
        market.ping()
    except OSError as exc:
        raise CrawlFailedError(f"market endpoint unreachable: {exc}") from exc
    run = _CrawlRun(market, config)
    for seed in seeds:
        run.frontier.try_enqueue(seed)
    workers = [WorkerState(worker_id=i) for i in range(config.workers)]
    _crawl_threaded(run, workers)
    run.report.frontier_exhausted = run.frontier.pending() == 0
    # snapshots stay in emission order: with one worker that is BFS order
    return CrawlResult(snapshots=run.snapshots, report=run.report, workers=workers)


def _crawl_threaded(run: _CrawlRun, workers: list[WorkerState]) -> None:
    in_flight = [0]
    active = [len(workers)]
    cond = threading.Condition()

    def loop(worker: WorkerState) -> None:
        while True:
            app = None
            with cond:
                while worker.active and active[0] > 0:
                    app = run.frontier.pop()
                    if app is not None:
                        in_flight[0] += 1
                        break
                    if in_flight[0] == 0:
                        break
                    cond.wait(timeout=0.05)
                if app is None:
                    return
            run.process_one(worker, app)
            with cond:
                in_flight[0] -= 1
                if not worker.active:
                    active[0] -= 1
                cond.notify_all()
            if worker.active and run.config.politeness_delay_ms:
                time.sleep(run.config.politeness_delay_ms / 1000.0)

    threads = [
        threading.Thread(target=loop, args=(worker,), daemon=True)
        for worker in workers
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
