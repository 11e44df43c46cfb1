"""Seeded end-to-end and per-layer benchmark of ``esgsent run``.

From the repository root::

    python3 bench/run.py --workload bulk-tweets --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload is generated from the seed into a scratch directory inside
the checkout, and the program sees only those files. With ``--trace 0``
the end-to-end metrics are measured on single-threaded ``python -m
esgsent`` subprocesses, untraced, and scaled by the machine's current
speed as measured by ``calibrate.py``; with ``--trace 1`` a traced run
(``traced.py``) and a throughput pass (``throughput.py``) give the
per-layer metrics. Every run's outputs are checked, and the golden
fixture run is compared with ``tests/golden/``. Human-readable lines come
first; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Metric names and units come
from ``BENCHMARK.json``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from check import check_expected, check_golden, digest_tree
from generate import PAPER_TICKERS, PAPER_WINDOW, WORKLOADS, generate
from reference import load_word_lists
from traced import layer_metrics, span_table

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_work"
CALL_TIMEOUT_S = 150
MIN_ROUNDS = 3
MIN_TRACED = 2
# One round: calibrate.py, a run, calibrate.py again, then reports and
# --version calls, which cost a fraction of a run and so get more samples.
REPORTS_PER_ROUND = 2
VERSIONS_PER_ROUND = 5
# calibrate.py's time on the machine this benchmark was written on, when
# idle; timings are scaled to a machine that runs it this fast.
CAL_REF_S = 0.32

ESGSENT = ["-m", "esgsent"]
RUN = [*ESGSENT, "run", "--config", "run_config.json"]
REPORT = [*ESGSENT, "report", "--config", "run_config.json"]
VERSION = [*ESGSENT, "--version"]
CALIBRATE = [str(BENCH_DIR / "calibrate.py")]


@dataclass
class Call:
    wall_s: float
    rss_mb: float
    ok: bool


class Runner:
    """Program calls made for one workload, with failures counted."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        # The bytecode cache is always on, so set-up time does not depend on
        # whether the caller's environment disables it; the warm-up call fills it.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def spawn(self, argv: list[str]) -> dict:
        """Run `python <argv>` in the workdir through spawn.py; return its report."""
        report = self.workdir / "call.json"
        report.unlink(missing_ok=True)
        with open(self.workdir / "stdout.txt", "wb") as out, open(self.workdir / "stderr.txt", "wb") as err:
            subprocess.run(
                [sys.executable, str(BENCH_DIR / "spawn.py"), "--report", str(report),
                 "--timeout", str(CALL_TIMEOUT_S), "--", sys.executable, *argv],
                cwd=self.workdir, env=self.env, stdout=out, stderr=err, timeout=CALL_TIMEOUT_S + 30,
            )
        return json.loads(report.read_text(encoding="utf-8"))

    def call(self, argv: list[str], check=None) -> Call:
        """One program call, counted as attempted, failed if it exits non-zero or `check` objects."""
        self.attempted += 1
        result = self.spawn(argv)
        if result["exit"] != 0:
            stderr = (self.workdir / "stderr.txt").read_text(encoding="utf-8", errors="replace")
            problems = [f"{' '.join(argv[:3])}: exit {result['exit']}: {stderr.strip()[-300:]}"]
        else:
            try:
                problems = check() if check else []
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"{' '.join(argv[:3])}: output unreadable: {exc!r}"]
        if problems:
            self.failed += 1
            self.errors.extend(problems)
        return Call(result["wall_s"], result["rss_mb"], not problems)

    def stdout(self) -> str:
        return (self.workdir / "stdout.txt").read_text(encoding="utf-8")


def describe(values: list[float]) -> str:
    """Sample count, median, and the highest percentile with ten samples beyond it."""
    text = f"n={len(values)}, median {statistics.median(values):.4f}"
    if len(values) >= 20:
        pct = int(100 * (1 - 10 / len(values)))
        text += f", p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.4f}"
    return text


def calibration_s(runner: Runner) -> float:
    """Wall time of one calibrate.py call."""
    result = runner.spawn(CALIBRATE)
    if result["exit"] != 0:
        raise SystemExit(f"error: calibrate.py exited with {result['exit']}")
    return result["wall_s"]


def bench_workload(name: str, seed: int, seconds: float, trace: bool, work: Path, units: dict) -> dict:
    workdir = work / name
    workdir.mkdir()
    started = perf_counter()
    expected = generate(name, seed, workdir, load_word_lists(ROOT))
    print(f"{name} seed {seed}: {expected.raw_records} raw records, "
          f"{len(expected.verdicts)} kept, generated in {perf_counter() - started:.2f} s")

    runner = Runner(workdir)
    golden_out = workdir / "golden_out"
    runner.call(
        [*ESGSENT, "run", "--fixtures", str(ROOT / "fixtures"), "--out", str(golden_out),
         "--window", f"{PAPER_WINDOW[0]}:{PAPER_WINDOW[1]}", "--tickers", ",".join(PAPER_TICKERS)],
        lambda: check_golden(golden_out, ROOT / "tests" / "golden"),
    )

    out = workdir / "out"
    verified: dict[str, str] = {}

    def check_out() -> list[str]:
        if verified:
            return [] if digest_tree(out) == verified else ["outputs differ from the first checked run"]
        errors = check_expected(out, expected)
        if not errors:
            verified.update(digest_tree(out))
        return errors

    def fresh_run(argv: list[str]) -> Call:
        shutil.rmtree(out, ignore_errors=True)
        return runner.call(argv, check_out)

    runner.call(VERSION)  # warm-up: fills the bytecode cache
    deadline = perf_counter() + seconds
    if trace:
        metrics = traced_metrics(runner, fresh_run, deadline)
    else:
        rounds = []
        round_s = 0.0
        while len(rounds) < MIN_ROUNDS or perf_counter() + round_s < deadline:
            started = perf_counter()
            before = calibration_s(runner)
            run = fresh_run(RUN)
            scale = CAL_REF_S / ((before + calibration_s(runner)) / 2)
            calls = {
                "run_s": [run],
                "report_s": [runner.call(REPORT, check_out) for _ in range(REPORTS_PER_ROUND)],
                "setup_s": [runner.call(VERSION) for _ in range(VERSIONS_PER_ROUND)],
            }
            rounds.append((scale, calls))
            round_s = perf_counter() - started
        scales = [scale for scale, _ in rounds]
        print(f"  speed scale  {statistics.median(scales):10.4f}     "
              f"(calibration reference / calibration time; {describe(scales)})")
        metrics = {}
        for key in ("setup_s", "run_s", "report_s"):
            raw = [c.wall_s for _, calls in rounds for c in calls[key]]
            scaled = [scale * c.wall_s for scale, calls in rounds for c in calls[key]]
            metrics[key] = statistics.median(scaled)
            print(f"  {key:<12} {metrics[key]:10.4f} {units[key]:<3} "
                  f"(scaled; {describe(scaled)}; raw {describe(raw)}, min {min(raw):.4f})")
        rss = [calls["run_s"][0].rss_mb for _, calls in rounds]
        metrics["peak_rss_mb"] = statistics.median(rss)
        print(f"  {'peak_rss_mb':<12} {metrics['peak_rss_mb']:10.4f} {units['peak_rss_mb']:<3} ({describe(rss)})")
        print(f"  {'error_rate':<12} {runner.failed / runner.attempted:10.4f} {'':<3} "
              f"({runner.failed} of {runner.attempted} program calls)")

    for error in dict.fromkeys(runner.errors):
        print(f"  error: {error}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def traced_metrics(runner: Runner, fresh_run, deadline: float) -> dict[str, float]:
    """Alternate untraced and traced runs, then run the throughput pass."""
    traced_argv = [str(BENCH_DIR / "traced.py"), "--config", "run_config.json", "--spans", "spans.json"]
    untraced, traced, traces = [], [], []
    round_s = 0.0
    while len(traces) < MIN_TRACED or perf_counter() + round_s < deadline:
        started = perf_counter()
        untraced.append(fresh_run(RUN))
        spans = runner.workdir / "spans.json"
        spans.unlink(missing_ok=True)
        traced.append(fresh_run(traced_argv))
        if not spans.exists():
            break
        traces.append(json.loads(spans.read_text(encoding="utf-8")))
        round_s = perf_counter() - started

    metrics: dict[str, float] = {}
    if traces:
        per_run = [layer_metrics(t) for t in traces]
        metrics = {key: statistics.median_low(m[key] for m in per_run) for key in per_run[0]}
        metrics["trace.overhead_frac"] = statistics.median(
            t.wall_s / u.wall_s for u, t in zip(untraced, traced)) - 1
        signatures = {json.dumps([sorted(span_calls(t).items()), sorted(t["counters"].items())]) for t in traces}
        if len(signatures) > 1:
            runner.failed += 1
            runner.errors.append("call counts differ between traced runs")
        if traces[0]["unpatched"]:
            print(f"  not traced (name not found): {', '.join(traces[0]['unpatched'])}")
        print(f"  {'span':<28} {'calls':>6} {'total_s':>9} {'self_s':>9}   (run 1 of {len(traces)} traced)")
        for span, calls, total, self_time in span_table(traces[0]):
            print(f"  {span:<28} {calls:6d} {total:9.4f} {self_time:9.4f}")

    if runner.call([str(BENCH_DIR / "throughput.py"), "--workdir", "."]).ok:
        metrics.update(json.loads(runner.stdout()))
    return metrics


def span_calls(trace: dict) -> Counter:
    return Counter(span for span, *_ in trace["spans"])


def select_metrics(measured: dict[str, float], specs: list[dict]) -> dict[str, dict]:
    """The metrics BENCHMARK.json lists, with their units; missing ones are an error."""
    missing = [spec["name"] for spec in specs if spec["name"] not in measured]
    if missing:
        raise SystemExit(f"error: metrics not measured: {', '.join(missing)}")
    return {spec["name"]: {"value": measured[spec["name"]], "unit": spec["unit"]} for spec in specs}


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of esgsent run (see bench/README.md)")
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run instead of end-to-end ones")
    args = parser.parse_args()

    if not (ROOT / "src" / "esgsent" / "__init__.py").is_file():
        print(f"error: no esgsent sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    specs = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = specs["per_layer" if args.trace else "end_to_end"]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = {spec["name"]: spec["unit"] for spec in specs}
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        results = {}
        for name in names:
            result = bench_workload(name, args.seed, args.seconds, bool(args.trace), work, units)
            result["metrics"] = select_metrics(result["metrics"], specs)
            results[name] = result
            if len(names) > 1:
                print(json.dumps({"workload": name, **result}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": value for name, r in results.items()
                        for key, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
