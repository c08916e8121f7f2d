"""marketpulse: longitudinal app-market analytics.

Ingests time-series snapshots of app metadata, reviews and ranked
top-k lists, diffs them into event timelines, and computes market
statistics, list dynamics, and fraud/malware indicators. A seeded
synthetic market generator provides ground truth for every pipeline.
"""

import importlib

__version__ = "0.1.0"

# each re-export and the module that defines it; the module is imported on
# first use of one of its names (PEP 562), so that importing a submodule,
# as each CLI command does, loads only the layers that command uses
_EXPORTS = {
    "AppSnapshot": "model",
    "AppSeries": "store",
    "AttributeKind": "model",
    "DatasetManifest": "store",
    "DownloadBucket": "model",
    "ListType": "model",
    "PopularityClass": "model",
    "RankedListSeries": "store",
    "ReviewRecord": "model",
    "SnapStore": "store",
    "TimeWindow": "store",
    "TopKObservation": "model",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
