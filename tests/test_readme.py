"""The README's code examples run as written."""

import json
import re
from pathlib import Path

from marketpulse import simgen
from marketpulse.store import DatasetManifest, SnapStore

from conftest import market_script

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_api_example() -> str:
    """The ```python block under the README heading "Python API"."""
    text = README.read_text(encoding="utf-8")
    body = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", body, re.S).group(1)


def test_python_api_example_runs_on_a_simulated_store(tmp_path, monkeypatch):
    data = tmp_path / "data"
    simgen.write_dataset(market_script(), data)
    manifest = DatasetManifest.from_record(json.loads((data / "manifest.json").read_text()))
    SnapStore.create(tmp_path / "store", manifest).ingest_dir(data)
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(_python_api_example(), scope)
    assert len(scope["timelines"]) == len(scope["store"].apps()) > 0
    assert 0.0 <= scope["m"] <= 1.0
