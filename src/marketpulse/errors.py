"""Exception types shared across the package."""


class MarketPulseError(Exception):
    """Base class for all package-specific errors."""


class InvalidWindowError(MarketPulseError):
    """Query window has end before start."""


class InvalidInputError(MarketPulseError):
    """Operation received arguments that violate its preconditions."""


class InsufficientDataError(MarketPulseError):
    """Not enough observations to compute the requested statistic."""


class DegenerateTailError(MarketPulseError):
    """Power-law tail carries no information (all samples equal x_min)."""


class ConfigError(MarketPulseError):
    """Invalid configuration (script, policy, or CLI parameters)."""


class ParseError(MarketPulseError):
    """A structured input file could not be parsed.

    ``line_no`` is 1-based when known.
    """

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


class MissingFieldError(ParseError):
    """A required field is absent from a market page."""

    def __init__(self, name: str):
        super().__init__(f"missing field {name!r}")
        self.name = name


class MalformedDocumentError(ParseError):
    """Market page block structure is broken."""


class CrawlFailedError(MarketPulseError):
    """The market endpoint was unreachable when the crawl started."""


class StoreIOError(MarketPulseError):
    """An ingest batch could not be committed; the store holds the last committed prefix."""


class ConcurrentWriteError(MarketPulseError):
    """A second writer tried to ingest while another ingest held the lock."""
