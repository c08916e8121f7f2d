"""marketpulse benchmark: batch workloads driven through the CLI.

    python3 perfbench/run.py --workload market-30d --seed 20120401 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed). Setup builds the workload's inputs from
``--seed``; the measured part then runs whole passes of CLI commands,
each command as its own child process, until at least ``--seconds``
have passed. Every pass is checked for correctness. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``; per-layer metrics
from an in-process traced run with ``--trace 1``). Earlier lines
prefixed ``#`` carry run facts and per-command times; failed checks are
printed to stderr. See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"
BIG_SEED = 20120401
SETUP_REPEATS = 2
IMPORT_REPEATS = 3
LOGS = ("snapshots.jsonl", "reviews.jsonl", "topk.jsonl")
SCAM_DEVELOPER = "CloneWorks"
SCAM_CLONES = 1500

# (name, unit, better, bound) of every end-to-end metric
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("chain_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("store_bytes_ratio", "ratio", "lower", 0.25),
    ("ok_ops_share", "ratio", "higher", 0.01),
)


class SetupError(Exception):
    pass


# --- small helpers ----------------------------------------------------------


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digest_dir(path: Path, names=None) -> dict[str, str]:
    """sha256 of every regular file under ``path`` (or of ``names`` only)."""
    files = [path / n for n in names] if names else sorted(p for p in path.rglob("*") if p.is_file())
    return {str(p.relative_to(path)): sha256_file(p) for p in files if p.is_file()}


def count_lines(path: Path) -> int:
    with open(path, "rb") as f:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: f.read(1 << 20), b""))


def log_sizes(data: Path) -> dict[str, dict]:
    return {
        p.name: {"records": count_lines(p), "bytes": p.stat().st_size}
        for p in sorted(data.glob("*.jsonl"))
    }


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def last_json(text: str):
    lines = [line for line in text.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def median(values):
    return statistics.median(values)


def reset(*paths: Path) -> None:
    for path in paths:
        shutil.rmtree(path, ignore_errors=True)


# --- the program under test -------------------------------------------------


class Bench:
    """One benchmark run: work directory, child environment and failures."""

    def __init__(self, workload: str, seed: int, record_golden: bool = False):
        self.workload = workload
        self.seed = seed
        self.record_golden = record_golden
        self.work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.data = self.work / "data"
        self.store = self.work / "store"
        self.reports = self.work / "reports"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )
        self.failures: list[tuple[str, str]] = []

    def fail(self, op: str, reason: str) -> None:
        self.failures.append((op, reason))
        print(f"check failed: {op}: {reason}", file=sys.stderr)

    def cli(self, args: list[str], name: str) -> dict:
        """Run one CLI command as a child process; wall time and peak RSS."""
        out_path = self.work / "logs" / f"{name}.out"
        err_path = out_path.with_suffix(".err")
        out_path.parent.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, "-m", "marketpulse.cli", *args]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.work)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        if rc != 0:
            tail = err_path.read_text(encoding="utf-8", errors="replace")[-500:]
            print(f"{name}: exit {rc}: {tail}", file=sys.stderr)
        return {
            "id": name,
            "rc": rc,
            "wall_s": wall,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
        }

    def setup_cli(self, args: list[str], name: str) -> dict:
        result = self.cli(args, name)
        if result["rc"] != 0:
            raise SetupError(f"setup command {name} exited {result['rc']}")
        return result

    def simulate(self, script: dict, out: Path, render_market: int = 0) -> int:
        """Write ``script`` and generate its dataset; returns the app count."""
        reset(out)
        script_path = self.work / "script.json"
        script_path.write_text(json.dumps(script, sort_keys=True), encoding="utf-8")
        args = ["simulate", "--script", str(script_path), "--out", str(out)]
        if render_market:
            args += ["--render-market", str(render_market)]
        return last_json(self.setup_cli(args, "simulate")["stdout"])["apps"]


def check_bulk_ingest(bench: Bench, op: str, stdout: str, sizes: dict) -> None:
    """An ingest into an empty store accepts every generated line."""
    report = last_json(stdout)
    for log, size in sizes.items():
        kind = log.removesuffix(".jsonl")
        if report["accepted"][kind] != size["records"] or report["deduplicated"][kind]:
            bench.fail(op, f"{kind}: {report['accepted'][kind]} accepted, "
                           f"{report['deduplicated'][kind]} deduplicated, "
                           f"expected {size['records']} accepted")
    if report["rejected"]:
        bench.fail(op, f"{len(report['rejected'])} records rejected")


# --- workloads --------------------------------------------------------------


def market_script(seed: int, n_developers: int) -> dict:
    """The acceptance suite's big_script() market with ``n_developers``."""
    return {
        "seed": seed,
        "n_developers": n_developers,
        "observation_days": 30,
        "topk_lists": {
            "Free": {"length": 100, "churn_lo": 0.002, "churn_hi": 0.06},
            "Paid": {"length": 100, "churn_lo": 0.004, "churn_hi": 0.08},
        },
        "fraud_campaigns": [
            {"app": 0, "polarity": "positive", "start_day": 10, "duration_days": 5, "daily_volume": 200},
            {"app": 1, "polarity": "negative", "start_day": 15, "duration_days": 4, "daily_volume": 150},
            {"app": 2, "polarity": "positive", "start_day": 20, "duration_days": 3, "daily_volume": 300},
        ],
        "stale_fraction": 0.3,
    }


def report_commands(bench: Bench, ids) -> list[tuple[str, list[str]]]:
    """(id, CLI args) of report commands; each writes to its own directory."""
    commands = []
    for cmd in ids:
        group, what, *rest = cmd.split("_")
        args = [group, what, "--store", str(bench.store), "--out", str(bench.reports / cmd)]
        if rest:
            args += ["--list", rest[0]]
        commands.append((cmd, args))
    return commands


class Workload:
    """Setup, per-pass commands and checks of one workload."""

    render_market = 0
    min_passes = 1
    store_writer = "ingest"  # the command whose store-log digests are checked

    def __init__(self, bench: Bench):
        self.bench = bench
        self.apps = 0
        self.sizes: dict = {}

    def setup(self) -> None:
        bench = self.bench
        self.apps = bench.simulate(self.script(bench.seed), bench.data, self.render_market)
        self.sizes = log_sizes(bench.data)

    def serving(self):
        return contextlib.nullcontext()

    def prepare_pass(self) -> None:
        reset(self.bench.reports)

    def commands(self) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def outputs(self) -> dict[str, dict[str, str]]:
        """Digests of every output of one pass, keyed by the command that wrote it."""
        bench = self.bench
        out = {
            cmd: digest_dir(bench.reports / cmd)
            for cmd in sorted(p.name for p in bench.reports.glob("*"))
        }
        out[self.store_writer] = digest_dir(bench.store, ["manifest.json", *LOGS])
        return out

    def check(self, results: dict[str, dict]) -> None:
        pass

    def input_bytes(self) -> int:
        return sum(size["bytes"] for size in self.sizes.values())


class Market30d(Workload):
    n_developers = 1500

    def script(self, seed):
        return market_script(seed, self.n_developers)

    def prepare_pass(self):
        reset(self.bench.reports, self.bench.store)

    def commands(self):
        bench = self.bench
        ingest = ("ingest", ["ingest", "--data", str(bench.data), "--store", str(bench.store)])
        return [ingest, *report_commands(bench, layers.REPORTS)]

    def check(self, results):
        bench = self.bench
        check_bulk_ingest(bench, "ingest", results["ingest"]["stdout"], self.sizes)
        for cmd in ("metrics_staleness", "metrics_popularity", "metrics_updates"):
            apps = last_json(results[cmd]["stdout"])["apps"]
            if apps != self.apps:
                bench.fail(cmd, f"reports {apps} apps, the market has {self.apps}")


class Market30dFull(Market30d):
    n_developers = 6000


class Topk480Clones(Workload):
    min_passes = 2
    store_writer = "setup_ingest"

    def script(self, seed):
        return {
            "seed": seed,
            "n_developers": 400,
            "observation_days": 60,
            "snapshot_cadence_days": 10,
            "topk_lists": {
                "Free": {"length": 480, "churn_lo": 0.002, "churn_hi": 0.06},
                "Paid": {"length": 480, "churn_lo": 0.004, "churn_hi": 0.08},
            },
            "scam_developers": [
                {"developer": SCAM_DEVELOPER, "n_clones": SCAM_CLONES, "price_cents": 199}
            ],
        }

    def setup(self):
        super().setup()
        bench = self.bench
        reset(bench.store)
        result = bench.setup_cli(
            ["ingest", "--data", str(bench.data), "--store", str(bench.store)], "setup_ingest"
        )
        check_bulk_ingest(bench, "setup_ingest", result["stdout"], self.sizes)

    def commands(self):
        ids = [
            *layers.TOPK_REPORTS,
            "metrics_staleness",
            "metrics_popularity",
            "metrics_powerlaw",
            "anomaly_scam",
        ]
        return report_commands(self.bench, ids)

    def check(self, results):
        bench = self.bench
        clusters = json.loads(
            (bench.reports / "anomaly_scam" / "scam_clusters.json").read_text(encoding="utf-8")
        )["clusters"]
        if not any(
            c["developer"] == SCAM_DEVELOPER and len(c["apps"]) == SCAM_CLONES for c in clusters
        ):
            bench.fail("anomaly_scam", f"no {SCAM_CLONES}-app cluster of {SCAM_DEVELOPER}")
        apps = last_json(results["metrics_staleness"]["stdout"])["apps"]
        if apps != self.apps:
            bench.fail("metrics_staleness", f"reports {apps} apps, the market has {self.apps}")


class Crawl7d(Workload):
    render_market = 5
    min_passes = 2
    store_writer = "ingest_dedup"
    remote = False  # crawl the rendered pages file, not a MarketServer

    def script(self, seed):
        return {"seed": seed, "n_developers": 6000, "observation_days": 7}

    def setup(self):
        super().setup()
        bench = self.bench
        # days 1-6 plus every review go into the template store; the crawl
        # then brings the last day
        days16 = bench.work / "data_days1-6"
        reset(days16, bench.work / "template")
        days16.mkdir()
        for name in ("manifest.json", "reviews.jsonl", "topk.jsonl"):
            shutil.copy(bench.data / name, days16 / name)
        lines = (bench.data / "snapshots.jsonl").read_bytes().splitlines(keepends=True)
        times = [json.loads(line)["fetch_time"] for line in lines]
        last = max(times)
        with open(days16 / "snapshots.jsonl", "wb") as f:
            f.writelines(line for line, t in zip(lines, times) if t != last)
        result = bench.setup_cli(
            ["ingest", "--data", str(days16), "--store", str(bench.work / "template")],
            "setup_ingest",
        )
        check_bulk_ingest(bench, "setup_ingest", result["stdout"], log_sizes(days16))
        self.pages_path = bench.data / "market_pages.jsonl"
        self.n_pages = self.sizes["market_pages.jsonl"]["records"]

    def serving(self):
        return self._served() if self.remote else contextlib.nullcontext()

    @contextlib.contextmanager
    def _served(self):
        from marketpulse import harvester

        server = harvester.MarketServer(harvester.DictMarket.load(str(self.pages_path)).pages)
        # count accepted connections in the server's accept thread
        tcp = server._server
        process_request = tcp.process_request
        self.accepts = 0

        def counted(request, address):
            self.accepts += 1
            process_request(request, address)

        tcp.process_request = counted
        with server:
            self.address = "%s:%d" % server.address
            yield

    def prepare_pass(self):
        bench = self.bench
        reset(bench.store, bench.work / "crawled", bench.reports)
        shutil.copytree(bench.work / "template", bench.store)

    def commands(self):
        bench = self.bench
        crawled = str(bench.work / "crawled")
        market = self.address if self.remote else str(self.pages_path)
        return [
            (
                "crawl",
                [
                    "crawl",
                    "--seeds", str(bench.data / "seeds.txt"),
                    "--market", market,
                    "--workers", "2",
                    "--politeness-delay-ms", "0",
                    "--out", crawled,
                ],
            ),
            ("ingest_crawl", ["ingest", "--data", crawled, "--store", str(bench.store)]),
            ("ingest_dedup", ["ingest", "--data", str(bench.data), "--store", str(bench.store)]),
        ]

    def outputs(self):
        out = super().outputs()
        out["crawl"] = digest_dir(self.bench.work / "crawled")
        return out

    def input_bytes(self):
        return sum(size["bytes"] for log, size in self.sizes.items() if log in LOGS)

    def check(self, results):
        bench = self.bench
        crawl = last_json(results["crawl"]["stdout"])
        expected = {
            "attempts": self.n_pages,
            "pages_fetched": self.n_pages,
            "snapshots_emitted": self.n_pages,
            "not_found": 0,
            "fetch_errors": 0,
            "parse_errors": 0,
            "workers_banned": 0,
            "frontier_exhausted": True,
        }
        for key, value in expected.items():
            if crawl[key] != value:
                bench.fail("crawl", f"{key} is {crawl[key]}, expected {value}")
        report = last_json(results["ingest_crawl"]["stdout"])
        if report["accepted"] != {"snapshots": crawl["pages_fetched"], "reviews": 0, "topk": 0}:
            bench.fail("ingest_crawl", f"accepted {report['accepted']}")
        if any(report["deduplicated"].values()) or report["rejected"]:
            bench.fail("ingest_crawl", "deduplicated or rejected records")
        report = last_json(results["ingest_dedup"]["stdout"])
        for log in LOGS:
            kind = log.removesuffix(".jsonl")
            if report["deduplicated"][kind] != self.sizes[log]["records"]:
                bench.fail("ingest_dedup", f"{kind}: {report['deduplicated'][kind]} "
                                           f"deduplicated of {self.sizes[log]['records']}")
        if any(report["accepted"].values()) or report["rejected"]:
            bench.fail("ingest_dedup", "accepted or rejected records on a full re-ingest")


class Crawl7dTcp(Crawl7d):
    """crawl-7d with the pages served over TCP, one connection per page."""

    remote = True


WORKLOADS = {
    "market-30d": Market30d,
    "crawl-7d": Crawl7d,
    # not in BENCHMARK.json; see perfbench/README.md
    "topk480-clones": Topk480Clones,
    "crawl-7d-tcp": Crawl7dTcp,
    "market-30d-full": Market30dFull,
}


# --- checks shared by the measured and the traced run -----------------------


def check_pass(bench: Bench, wl: Workload, results: list[dict], first_outputs) -> dict:
    """Check one pass; returns its output digests."""
    by_id = {r["id"]: r for r in results}
    for r in results:
        if r["rc"] != 0:
            bench.fail(r["id"], f"exit code {r['rc']}")
        else:
            try:
                last_json(r["stdout"])
            except json.JSONDecodeError:
                bench.fail(r["id"], "stdout does not end in a JSON line")
    if any(r["rc"] != 0 for r in results):
        return {}
    wl.check(by_id)
    outputs = wl.outputs()
    if not bench.record_golden:
        check_golden(bench, outputs)
    if first_outputs is not None:
        compare_outputs(bench, outputs, first_outputs, "the first pass's")
    return outputs


def check_golden(bench: Bench, outputs: dict) -> None:
    """Default seed: byte-identical to the golden digests; other seeds: same file names."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    expected = golden.get(bench.workload)
    if expected is None:
        bench.fail("golden", f"no golden digests for {bench.workload} in {GOLDEN.name}")
    elif bench.seed == BIG_SEED:
        compare_outputs(bench, outputs, expected, "the seed commit's")
    else:
        for op, files in expected.items():
            if set(outputs.get(op, ())) != set(files):
                bench.fail(op, f"wrote {sorted(outputs.get(op, ()))}, expected {sorted(files)}")


def compare_outputs(bench: Bench, outputs: dict, expected: dict, what: str) -> None:
    for op in sorted(set(outputs) | set(expected)):
        got, want = outputs.get(op, {}), expected.get(op, {})
        differing = sorted(n for n in set(got) | set(want) if got.get(n) != want.get(n))
        if differing:
            bench.fail(op, f"outputs differ from {what}: {', '.join(differing)}")


def fetch_counts(results: dict) -> tuple[int, int]:
    """(attempted, failed) crawl fetches of one pass."""
    if "crawl" not in results or results["crawl"]["rc"] != 0:
        return 0, 0
    crawl = last_json(results["crawl"]["stdout"])
    return crawl["attempts"], crawl["fetch_errors"] + crawl["parse_errors"] + crawl["not_found"]


def op_counts(bench: Bench, commands_run: int, fetches: tuple[int, int]) -> tuple[int, int]:
    failed_ops = {op for op, _ in bench.failures}
    attempted = commands_run + len(failed_ops - set(layers.COMMANDS)) + fetches[0]
    return attempted, len(failed_ops) + fetches[1]


# --- measured run (--trace 0) -----------------------------------------------


def measure(bench: Bench, wl: Workload, seconds: float) -> dict:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - start)
    passes = []
    first_outputs = None
    commands_run = 0
    fetch_attempts = fetch_failures = 0
    with wl.serving():
        start = time.perf_counter()
        while len(passes) < wl.min_passes or time.perf_counter() - start < seconds:
            wl.prepare_pass()
            results = [bench.cli(args, cmd) for cmd, args in wl.commands()]
            commands_run += len(results)
            by_id = {r["id"]: r for r in results}
            attempts, failures = fetch_counts(by_id)
            fetch_attempts += attempts
            fetch_failures += failures
            outputs = check_pass(bench, wl, results, first_outputs)
            first_outputs = first_outputs or outputs
            passes.append(
                {
                    "chain_s": sum(r["wall_s"] for r in results),
                    "peak_rss_mb": max(r["rss_mb"] for r in results),
                    "store_bytes_ratio": dir_bytes(bench.store) / wl.input_bytes(),
                    "commands": {r["id"]: r["wall_s"] for r in results},
                }
            )
            print("# pass " + json.dumps(passes[-1], sort_keys=True))
    attempted, failed = op_counts(bench, commands_run, (fetch_attempts, fetch_failures))
    values = {
        "setup_s": median(setup_times),
        "chain_s": sum(
            median(p["commands"][cmd] for p in passes) for cmd in passes[0]["commands"]
        ),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
        "store_bytes_ratio": median(p["store_bytes_ratio"] for p in passes),
        "ok_ops_share": (attempted - failed) / attempted,
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END},
        "facts": {"setup_times_s": setup_times, "passes": len(passes), "golden": first_outputs},
    }


# --- traced run (--trace 1) -------------------------------------------------


def import_seconds(bench: Bench) -> float:
    """Median time to import marketpulse.cli in a fresh process."""
    code = "import time; t = time.perf_counter(); import marketpulse.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code], env=bench.env, capture_output=True, text=True, check=True
        )
        times.append(float(out.stdout))
    return median(times)


def run_in_process(bench: Bench, commands: list, name: str, wrap: bool) -> tuple[list, list]:
    """Run ``commands`` in one child through cli.main; (results, spans)."""
    plan = {
        "src": str(SRC),
        "commands": [{"id": cmd, "argv": args} for cmd, args in commands],
        "results": str(bench.work / f"{name}.results.json"),
        "spans": str(bench.work / f"{name}.spans.jsonl"),
    }
    plan_path = bench.work / f"{name}.plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    argv = [sys.executable, str(BENCH_DIR / "tracer.py"), "--plan", str(plan_path)]
    subprocess.run(argv + (["--wrap"] if wrap else []), env=bench.env, cwd=bench.work, check=True)
    results = json.loads(Path(plan["results"]).read_text(encoding="utf-8"))
    with open(plan["spans"], encoding="utf-8") as f:
        spans = [json.loads(line) for line in f]
    return results, spans


def trace(bench: Bench, wl: Workload) -> dict:
    wl.setup()
    import_s = import_seconds(bench)
    script_path = bench.work / "script.json"
    simulate = (
        "simulate",
        ["simulate", "--script", str(script_path), "--out", str(bench.work / "traced_data")]
        + (["--render-market", str(wl.render_market)] if wl.render_market else []),
    )
    walls, spans = {}, {}
    first_outputs = None
    commands_run = 0
    fetches = (0, 0)
    with wl.serving():
        for name, wrap in (("untraced", False), ("traced", True)):
            wl.prepare_pass()
            accepts_before = getattr(wl, "accepts", 0)
            commands = wl.commands()
            # both runs start with the same simulate, which also warms the heap
            results, spans[name] = run_in_process(bench, [simulate, *commands], name, wrap)
            measured = [r for r in results if r["id"] != "simulate"]
            commands_run += len(measured)
            by_id = {r["id"]: r for r in measured}
            attempts, failures = fetch_counts(by_id)
            fetches = (fetches[0] + attempts, fetches[1] + failures)
            first_outputs = check_pass(bench, wl, measured, first_outputs)
            walls[name] = {r["id"]: r["wall_s"] for r in measured}
        accepts = getattr(wl, "accepts", 0) - accepts_before
    stored = sum(count_lines(bench.store / log) for log in LOGS if (bench.store / log).exists())
    values, notes = layers.derive(
        spans["traced"], walls["untraced"], walls["traced"], stored, accepts, import_s
    )
    attempted, failed = op_counts(bench, commands_run, fetches)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in layers.PER_LAYER},
        "facts": notes,
    }


# --- run facts ----------------------------------------------------------------


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def filesystem(path: Path) -> str | None:
    """Type of the filesystem holding ``path``, from /proc/mounts."""
    best, fstype = "", None
    try:
        with open("/proc/mounts", encoding="utf-8") as f:
            for line in f:
                _, mount, kind, *_ = line.split()
                inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, kind
    except OSError:
        return None
    return fstype


def run_facts(bench: Bench, wl: Workload, args) -> dict:
    from marketpulse import store

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "src_sha256": hashlib.sha256(
            json.dumps(digest_dir(SRC / "marketpulse"), sort_keys=True).encode()
        ).hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
        "work_filesystem": filesystem(bench.work),
        "flush_policy": f"fsync after each ingest batch of {store._BATCH_LINES} lines",
        "apps": wl.apps,
        "sizes": wl.sizes,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="marketpulse benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=BIG_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-golden",
        action="store_true",
        help="store this run's output digests as the golden ones (seed commit, default seed only)",
    )
    args = parser.parse_args()
    if not (SRC / "marketpulse" / "cli.py").is_file():
        print(f"error: no marketpulse sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_golden and (args.seed != BIG_SEED or args.trace):
        parser.error("--record-golden needs the default seed and --trace 0")
    sys.path.insert(0, str(SRC))
    bench = Bench(args.workload, args.seed, args.record_golden)
    wl = WORKLOADS[args.workload](bench)
    reset(bench.work)
    bench.work.mkdir(parents=True)
    try:
        result = trace(bench, wl) if args.trace else measure(bench, wl, args.seconds)
        facts = run_facts(bench, wl, args)
    except (SetupError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        reset(bench.work)
    golden = result["facts"].pop("golden", None)
    if args.record_golden:
        recorded = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
        recorded[args.workload] = golden
        GOLDEN.write_text(json.dumps(recorded, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print("# facts " + json.dumps({**facts, **result["facts"]}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not bench.failures and result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
