"""Per-process import micro-benchmark, kept out of the default test run.

pytest collects ``test_*.py`` only, so run this file by name:

    PYTHONPATH=src python -m pytest tests/bench_startup.py --benchmark-only

Every CLI command runs in a process of its own, so each one pays the
import of ``marketpulse.cli`` and of its command group's modules. Each
case copies the package without its ``__pycache__`` and, per round,
starts a fresh interpreter with ``PYTHONDONTWRITEBYTECODE=1`` that
imports ``marketpulse.cli`` plus one group's modules: every module of
the package is compiled from source in every child, as in a run from a
fresh checkout that writes no bytecode. The timed value is the child's
wall time, interpreter start-up included; ``extra_info["import_ms"]``
holds the median time of the imports alone, taken inside the child.
"""

import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "marketpulse"
ROUNDS = 15

# the modules each group of commands imports besides marketpulse.cli
GROUPS = {
    "ingest": ("store",),
    "crawl": ("harvester",),
    "timeline": ("store", "timeline"),
    "metrics": ("store", "timeline", "metrics"),
    "anomaly": ("store", "timeline", "anomaly"),
    "topk": ("store", "topk"),
}


@pytest.fixture(scope="module")
def src(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup")
    shutil.copytree(PACKAGE, root / "marketpulse", ignore=shutil.ignore_patterns("__pycache__"))
    return root


@pytest.mark.parametrize("group", list(GROUPS))
def test_import_command_group(benchmark, src, group):
    modules = ", ".join(f"marketpulse.{m}" for m in ("cli", *GROUPS[group]))
    code = (
        "import time\n"
        "start = time.perf_counter()\n"
        f"import {modules}\n"
        "print(time.perf_counter() - start)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    imports = []

    def child():
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        imports.append(float(out.stdout))

    benchmark.pedantic(child, rounds=ROUNDS)
    benchmark.extra_info["import_ms"] = round(statistics.median(imports) * 1000, 2)
    assert not (src / "marketpulse" / "__pycache__").exists()
