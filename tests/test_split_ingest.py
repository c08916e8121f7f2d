"""Split invariance: a dataset ingested in day slices, in order, gives the
store and the reports that one ingest of the whole dataset gives.

A small simulated market with top-k lists and reviews is cut at drawn days
(each the fetch day of a snapshot or list, or the date of a review), and
its slices are ingested in order into one store, each with the dataset's
manifest or with none. The logs, the ``.idx`` sidecars, the manifest and
the output of all 20 report commands, run through ``cli.main``, must be
byte-identical to those of one ingest of the whole dataset. A re-ingest of
the whole dataset into the split store then deduplicates every line with no
line read, and changes no byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from marketpulse import store as store_mod
from marketpulse.cli import main
from marketpulse.model import SECONDS_PER_DAY, date_to_epoch, parse_date
from marketpulse.store import KINDS, SnapStore

SCRIPT = {
    "seed": 11,
    "n_developers": 8,
    "observation_days": 9,
    "topk_lists": {
        "Free": {"length": 12, "churn_lo": 0.01, "churn_hi": 0.2},
        "Paid": {"length": 8, "churn_lo": 0.01, "churn_hi": 0.2},
    },
    "fraud_campaigns": [
        {"app": 0, "polarity": "positive", "start_day": 4, "duration_days": 2, "daily_volume": 40}
    ],
    "scam_developers": [{"developer": "CloneWorks", "n_clones": 4}],
    "permission_churn_apps": 1,
}

REPORTS = (
    [
        ["metrics", what]
        for what in ("staleness", "popularity", "updates", "price", "association", "powerlaw")
    ]
    + [
        ["topk", what, "--list", name]
        for what in ("lifecycle", "similarity", "overlap", "occupancy", "lifetime")
        for name in ("Free", "Paid")
    ]
    + [["anomaly", what] for what in ("reviews", "permissions", "scam", "decoupling")]
)


def _line_day(kind: str, line: bytes) -> int:
    """The epoch day a data line belongs to: a snapshot's or list's fetch
    day, or a review's date."""
    rec = json.loads(line)
    if kind == "reviews":
        return date_to_epoch(parse_date(rec["date"])) // SECONDS_PER_DAY
    return rec["fetch_time"] // SECONDS_PER_DAY


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def _reports(store: Path, out: Path) -> tuple:
    """Exit code, stdout and files of every report command on ``store``."""
    results = []
    for argv in REPORTS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([*argv, "--store", str(store), "--out", str(out / "_".join(argv))])
        results.append((argv, code, stdout.getvalue()))
    return tuple(results), {
        str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
    }


@pytest.fixture(scope="module")
def whole(tmp_path_factory):
    """The dataset with its lines by day, and per manifest mode the data
    directory, the store of one ingest and that store's reports."""
    root = tmp_path_factory.mktemp("split")
    script = root / "script.json"
    script.write_text(json.dumps(SCRIPT))
    data = root / "data"
    assert main(["simulate", "--script", str(script), "--out", str(data)]) == 0
    lines = {
        kind: [
            (_line_day(kind, line), line)
            for line in (data / f"{kind}.jsonl").read_bytes().splitlines(keepends=True)
        ]
        for kind in KINDS
    }
    modes = {}
    for mode in ("manifest", "none"):
        mode_data = root / f"data-{mode}"
        mode_data.mkdir()
        names = [f"{kind}.jsonl" for kind in KINDS]
        for name in names + (["manifest.json"] if mode == "manifest" else []):
            shutil.copy(data / name, mode_data / name)
        store = root / f"store-{mode}"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["ingest", "--data", str(mode_data), "--store", str(store)]) == 0
        reports = _reports(store, root / f"reports-{mode}")
        # the default reference of staleness and price lies in the data's span
        assert [code for _, code, _ in reports[0]] == [0] * len(REPORTS)
        modes[mode] = (mode_data, _files(store), reports)
    days = sorted({day for kind in KINDS for day, _ in lines[kind]})
    return {"lines": lines, "days": days, "modes": modes}


def _refuse(*args, **kwargs):
    raise AssertionError("a line of the re-ingest was read")


@pytest.mark.parametrize("mode", ["manifest", "none"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_ingest_in_day_slices_gives_the_store_and_reports_of_one_ingest(whole, mode, data):
    cuts = sorted(data.draw(st.lists(st.sampled_from(whole["days"][1:]), max_size=4, unique=True)))
    mode_data, store_files, reports = whole["modes"][mode]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        store = tmp / "store"
        for i, (low, high) in enumerate(zip([None, *cuts], [*cuts, None])):
            piece = tmp / f"slice{i}"
            piece.mkdir()
            if mode == "manifest":
                shutil.copy(mode_data / "manifest.json", piece)
            for kind in KINDS:
                (piece / f"{kind}.jsonl").write_bytes(
                    b"".join(
                        line
                        for day, line in whole["lines"][kind]
                        if (low is None or day >= low) and (high is None or day < high)
                    )
                )
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["ingest", "--data", str(piece), "--store", str(store)]) == 0
        assert _files(store) == store_files
        assert _reports(store, tmp / "reports") == reports
        # the whole dataset again: every line is a stored one, passed unread
        with pytest.MonkeyPatch.context() as patch:
            for kind in KINDS:
                patch.setitem(store_mod._READERS, kind, lambda index: _refuse)
            report = SnapStore.open(store).ingest_dir(mode_data)
        assert report.deduplicated == {kind: len(whole["lines"][kind]) for kind in KINDS}
        assert report.total_accepted == report.total_rejected == 0
        assert _files(store) == store_files
