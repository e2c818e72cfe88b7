"""End-to-end and per-layer benchmark of the sleepy-tob simulator.

Run from the root of a source checkout (stdlib only, nothing to build):

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload scenarios --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --sweep --seed 1 --seconds 300

Users of sleepy-tob run adversarial campaigns, long runs and the shipped
scenarios, then wait for the verdicts, so the benchmark measures host time per
verified run and checks that the verdicts stay correct.  Each workload is a
closed loop: one process, one run at a time, fresh inputs for each run.

Workloads (the seed drives ``campaign`` and ``long_horizon``):

* ``campaign``: generated bounded-churn schedules with the defaults of
  ``sleepy-tob campaign`` (n=20, H=20, tau=eta=4, pi=2, gamma=1/10,
  n_byz=4), r_a in {6, 7} and strategies ``prop1``/``split_decision``, each
  run through ``cli.run_scenario`` without writing a trace.  The only
  workload that exercises ``generate_schedule``, ``model_checks`` and the
  asynchronous delivery filters.  A run fails if it raises, is not in
  model, or lists failures.
* ``long_horizon``: a fault-free constant schedule, n=20, H=32, tau=eta=4,
  cycling over six lottery seeds.  Logs grow by one value per view, so
  ``ga.tally`` prefix expansion and the pairwise oracle checks dominate.
  A run fails if it raises, exits nonzero, or its report differs from an
  earlier run with the same seed.
* ``scenarios``: the six shipped scenario files through
  ``cli.main(["run", file, "--out", dir])``, in whole passes.  Trace
  serialization costs about as much as simulation here.  A run fails if its
  exit code is not the expected one, its ``report.json`` does not match the
  golden sha256 prefix, or its ``trace.jsonl`` differs from the first pass.

``--trace 0`` prints the end-to-end metrics.  The four times are given at a
reference host speed, because on a shared host the CPU's speed drifts by
tens of percent between processes and the simulator slows in step with a
fixed pure-Python calibration unit.  A helper process times that unit
between runs (about 15 % of the loop) and before each set-up probe, so the
program's garbage-collector settings and heap cannot change the unit's speed
and the unit adds nothing to ``peak_rss_mb``.  Each run's time is scaled
by ``CAL_REF_S`` over the mean of the unit times just before and just after
it, and each set-up probe by ``CAL_REF_S`` over the unit time just before
it.  The info line prints the raw times and the loop's overall factor.

* ``setup_s``: median over fresh processes of the time from process start
  to ready for the first timed run: imports, loading the workload's
  scenarios or parameters, and one warm-up run of ``sync_faultfree``.
* ``runs_per_s``: runs completed per second of loop time spent in the
  program (the benchmark's own output checks between runs are excluded).
* ``run_p50_ms``: median wall time of one run.
* ``run_tail_ms``: the 11th-slowest run, i.e. the highest percentile with
  at least 10 runs beyond it, but never below the p90 (interpolated), so
  the figure moves smoothly with the run count under 100 runs; the info
  line prints the percentile and the sample count.
* ``peak_rss_mb``: ``ru_maxrss`` of the benchmark process.
* ``output_bytes``: bytes a user gets per run, averaged over the workload's
  fixed first runs: ``trace.jsonl`` plus ``report.json`` on ``scenarios``,
  and the report as ``run`` would write it on the two workloads that write
  no trace.

``--trace 1`` runs the workload's fixed first runs untraced, then again with
every layer wrapped from outside (see ``layers.py``), checks that the traced
reports equal the untraced ones and that the exact counts repeat on a second
traced pass, and prints the per-layer metrics: self seconds and exact counts
summed over those runs, ``trace_overhead_frac`` (traced over untraced time,
minus one) and ``unattributed_frac`` (share of the runs' time in no span).

The line before the final JSON line carries the CPU count, the Python
version, the git SHA, the failure fraction with its base, the tail
percentile, and a digest of the reports of the fixed first runs, which is
the same for the same seed on any commit that keeps results unchanged.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
SCENARIO_DIR = ROOT / "scenarios"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 15
#: Seconds one calibration unit takes at the reference host speed, the share
#: of each run's time spent calibrating after it, and the calibration time
#: before each set-up probe.
CAL_REF_S = 0.010
CAL_SHARE = 0.15
CAL_PROBE_S = 0.03

#: Expected ``run`` exit code and first 16 hex digits of the sha256 of
#: report.json and trace.jsonl for each shipped scenario.  The trace column
#: is informational: a deliberate trace-format change replaces it.
GOLDEN = {
    "prop1_baseline": (1, "3c15a622f1fea58b", "db3db457bb6ab6b2"),
    "prop1_expiring": (0, "8336d6af4f488323", "ce6e912d9ba28be5"),
    "split_decision_eta0": (1, "b58322772f586e04", "63c70948980f5156"),
    "split_decision_eta2": (0, "1836facf6f02d65a", "ee702c79eee539ce"),
    "stall_participation_drop": (0, "ccb9169d3a61bd3a", "38c07dde8e19674d"),
    "sync_faultfree": (0, "fda45c4855c02d40", "fd33763b31157f02"),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "runs_per_s": "1/s",
    "run_p50_ms": "ms",
    "run_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "output_bytes": "B",
}

#: Per-layer metrics: layers whose self time is reported, exact counts summed
#: over the traced runs, and largest values seen in one run.
SELF_TIMES = [
    "ga.tally", "ga.merge_latest", "ga.grade",
    "oracle.check_ga_properties", "oracle.check_safety_after",
    "oracle.check_liveness_after", "oracle.check_async_resilience",
    "oracle.check_healing",
    "world.step_round", "tob.absorb", "tob.latest_unexpired",
    "tob.step_round1", "tob.step_round2",
    "world.generate_schedule", "model_checks.check_all",
    "cli.trace_lines", "cli.record_to_json", "cli.cmd_run", "cli.run_scenario",
]
COUNTS = [
    "ga.tally.calls", "ga.tally.prefix_updates", "core.prefix_ops.calls",
    "oracle.check_ga_properties.calls", "world.step_round.calls",
    "tob.absorb.calls", "tob.latest_unexpired.votes", "model_checks.check_all.calls",
]
MAXIMA = ["core.log_len.max", "world.pending.max"]
TRACE_KINDS = ["send", "deliver", "decide", "ga_record"]


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import sleepy_tob from this checkout's ``src`` and nowhere else."""
    if not (SRC / "sleepy_tob" / "__init__.py").is_file():
        fail_setup(f"no sleepy_tob sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import sleepy_tob
    from sleepy_tob import cli

    if Path(sleepy_tob.__file__).resolve().parent != (SRC / "sleepy_tob").resolve():
        fail_setup(f"imported sleepy_tob from {sleepy_tob.__file__}, not {SRC}")
    return cli


def canonical(report: dict) -> bytes:
    return json.dumps(report, sort_keys=True, separators=(",", ":")).encode()


def report_file_bytes(report: dict) -> int:
    """Size of report.json as ``sleepy-tob run`` writes it."""
    return len((json.dumps(report, sort_keys=True, indent=2) + "\n").encode())


# ---------------------------------------------------------------------------
# workloads
#
# Each workload yields inputs by index, runs one (the timed call), and checks
# one result outside the timed region, returning (failure or None, bytes that
# enter the report digest, output bytes).


class Campaign:
    name = "campaign"
    batch = 1
    fixed_runs = 30  # digest, output_bytes and the traced run use these
    recheck_runs = 2

    def __init__(self, cli, seed: int) -> None:
        self.cli = cli
        self.base = seed * 100_000

    def input(self, i: int):
        return self.cli.Scenario(
            name=f"campaign-{i}",
            n=20,
            horizon=20,
            tau=4,
            eta=4,
            pi=2,
            gamma=Fraction(1, 10),
            beta=Fraction(1, 3),
            r_a=6 + (i // 2) % 2,
            seed=self.base + i,
            schedule_spec={"generate": {"n_byz": 4}},
            adversary=("prop1", "split_decision")[i % 2],
        )

    def run(self, scenario):
        return self.cli.run_scenario(scenario)[1]

    def check(self, i: int, report: dict):
        blob, size = canonical(report), report_file_bytes(report)
        if not report["in_model"]:
            return "not in model", blob, size
        if report["failures"]:
            return f"failures {report['failures']}", blob, size
        return None, blob, size


class LongHorizon:
    name = "long_horizon"
    batch = 1
    lottery_seeds = 6
    recheck_runs = 1

    def __init__(
        self, cli, seed: int, n: int = 20, horizon: int = 32, fixed_runs: int = 6
    ) -> None:
        self.cli = cli
        self.base = seed * 100
        self.n, self.horizon, self.fixed_runs = n, horizon, fixed_runs
        self.seen: dict[int, bytes] = {}

    def input(self, i: int):
        return self.cli.Scenario(
            name="long-horizon",
            n=self.n,
            horizon=self.horizon,
            tau=4,
            eta=4,
            pi=0,
            gamma=Fraction(0),
            beta=Fraction(1, 3),
            r_a=None,
            seed=self.base + i % self.lottery_seeds,
            schedule_spec={"constant": {"n_byz": 0}},
            adversary="none",
        )

    def run(self, scenario):
        return self.cli.run_scenario(scenario)[1]

    def check(self, i: int, report: dict):
        blob = canonical(report)
        size = report_file_bytes(report)
        if report["exit_code"] != 0:
            return f"exit code {report['exit_code']}", blob, size
        first = self.seen.setdefault(i % self.lottery_seeds, blob)
        if first != blob:
            return "report differs from an earlier run with the same seed", blob, size
        return None, blob, size


class Scenarios:
    name = "scenarios"
    fixed_runs = 3 * len(GOLDEN)
    recheck_runs = len(GOLDEN)

    def __init__(self, cli, seed: int) -> None:
        self.cli = cli
        self.files = []
        for name in sorted(GOLDEN):
            path = SCENARIO_DIR / f"{name}.json"
            cli.load_scenario(path)  # fails set-up if a file is missing or malformed
            self.files.append(path)
        self.batch = len(self.files)
        self.first_trace: dict[str, str] = {}
        self.trace_golden: dict[str, bool] = {}

    def input(self, i: int) -> Path:
        return self.files[i % len(self.files)]

    def run(self, path: Path) -> int:
        return self.cli.main(["run", str(path), "--out", str(OUT_DIR / path.stem)])

    def check(self, i: int, rc: int):
        """Check one run's exit code and files, then remove them, so that no
        run reads what an earlier one left behind."""
        path = self.input(i)
        out = OUT_DIR / path.stem
        try:
            want_rc, report_hash, trace_hash = GOLDEN[path.stem]
            if rc != want_rc:
                return f"{path.stem}: exit code {rc}, expected {want_rc}", b"", 0
            try:
                trace = (out / "trace.jsonl").read_bytes()
                report = (out / "report.json").read_bytes()
            except OSError as exc:
                return f"{path.stem}: {exc}", b"", 0
        finally:
            shutil.rmtree(out, ignore_errors=True)
        size = len(trace) + len(report)
        trace_sha = hashlib.sha256(trace).hexdigest()
        first = self.first_trace.setdefault(path.stem, trace_sha)
        self.trace_golden[path.stem] = trace_sha[:16] == trace_hash
        if hashlib.sha256(report).hexdigest()[:16] != report_hash:
            return f"{path.stem}: report.json differs from the golden hash", report, size
        if first != trace_sha:
            return f"{path.stem}: trace.jsonl differs from the first pass", report, size
        return None, report, size


WORKLOADS = {w.name: w for w in (Campaign, LongHorizon, Scenarios)}


def make_workload(name: str, seed: int):
    cli = import_program()
    os.environ.pop("SLEEPY_TOB_SEED", None)  # the golden hashes need the files' own seeds
    workload = WORKLOADS[name](cli, seed)
    warm = SCENARIO_DIR / "sync_faultfree.json"
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["run", str(warm), "--out", str(OUT_DIR / "warm-up")])
    return workload


# ---------------------------------------------------------------------------
# measurement


def calibration_unit() -> float:
    """Seconds taken by a fixed pure-Python unit of dict and tuple work."""
    t0 = time.perf_counter()
    table: dict[tuple[int, int, int], int] = {}
    for i in range(20_000):
        key = (i, i % 7, i % 13)
        table[key] = table.get(key, 0) + hash(key) % 5
    return time.perf_counter() - t0


def serve_calibration() -> None:
    """Helper process: for each budget in seconds read from stdin, time
    calibration units for at least that long (one at least) and write their
    times as one JSON line."""
    for line in sys.stdin:
        budget, spent, times = float(line), 0.0, []
        while not times or spent < budget:
            times.append(calibration_unit())
            spent += times[-1]
        print(json.dumps(times), flush=True)


class HostSpeed:
    """Speed of the host while the benchmark runs, from the calibration unit
    timed in a helper process (see the module docstring).

    Use as a context manager: leaving it stops the helper and waits for it.
    """

    def __enter__(self) -> "HostSpeed":
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--serve-calibration"],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def sample(self, budget_s: float) -> list[float]:
        """Times of calibration units run for at least ``budget_s``."""
        self.proc.stdin.write(f"{budget_s!r}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the calibration helper process ended")
        return json.loads(line)


class Loop:
    """Closed loop over a workload's inputs, one run at a time."""

    def __init__(self, workload, host: HostSpeed | None = None) -> None:
        self.workload = workload
        self.host = host
        self.attempted = 0
        self.times: list[float] = []  # of the runs that did not raise
        self.scaled: list[float] = []  # the same at the reference host speed
        if host is not None:
            self.unit_s = statistics.fmean(host.sample(CAL_PROBE_S))
        self.failures: list[str] = []
        self.digest = hashlib.sha256()
        self.output_bytes = 0

    def one(self, i: int) -> None:
        w = self.workload
        inp = w.input(i)
        sink = io.StringIO()
        self.attempted += 1
        try:
            with contextlib.redirect_stdout(sink):
                t0 = time.perf_counter()
                out = w.run(inp)
                dt = time.perf_counter() - t0
        except Exception as exc:  # a raising run counts as failed; the loop goes on
            self.failures.append(f"run {i} raised {type(exc).__name__}: {exc}")
            return
        self.times.append(dt)
        if self.host is not None:
            after = statistics.fmean(self.host.sample(CAL_SHARE * dt))
            self.scaled.append(dt * CAL_REF_S / ((self.unit_s + after) / 2))
            self.unit_s = after
        failure, blob, size = w.check(i, out)
        if failure is not None:
            self.failures.append(f"run {i}: {failure}")
        if i < w.fixed_runs:
            self.digest.update(hashlib.sha256(blob).digest())
            self.output_bytes += size

    def until(self, seconds: float) -> None:
        w = self.workload
        deadline = time.perf_counter() + seconds
        i = 0
        while i < w.fixed_runs or i % w.batch or time.perf_counter() < deadline:
            self.one(i)
            i += 1


def tail(times: list[float]) -> tuple[float, str]:
    """The 11th-slowest run (10 beyond it) and its percentile, or the p90,
    interpolated, when that is higher (below 100 runs)."""
    ordered = sorted(times)
    n = len(ordered)
    if n >= 100:
        return ordered[n - 11], f"p{100 * (n - 10) / n:.1f} of {n}"
    if n == 1:
        return ordered[0], "the only run"
    return statistics.quantiles(ordered, n=10, method="inclusive")[-1], f"p90 of {n}"


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def meta() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


def measure_setup(name: str, seed: int, host: HostSpeed) -> tuple[float, float]:
    """Median over fresh processes of the time from spawn to ready, each
    scaled by the calibration unit timed just before it; and the raw median."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        unit_s = statistics.fmean(host.sample(CAL_PROBE_S))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", name, "--seed", str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or proc.stdout.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        raw.append(elapsed)
        scaled.append(elapsed * CAL_REF_S / unit_s)
    return statistics.median(scaled), statistics.median(raw)


def emit(info: dict, correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )


def end_to_end(name: str, seed: int, seconds: float) -> None:
    workload = make_workload(name, seed)
    with HostSpeed() as host:
        setup_s, raw_setup_s = measure_setup(name, seed, host)
        loop = Loop(workload, host)
        loop.until(seconds)
    times, scaled = loop.times, loop.scaled
    attempted, failed = loop.attempted, len(loop.failures)
    if not times:
        raise RuntimeError(f"every run failed: {loop.failures[:3]}")
    raw = {
        "setup_s": raw_setup_s,
        "runs_per_s": len(times) / sum(times),
        "run_p50_ms": statistics.median(times) * 1000,
        "run_tail_ms": tail(times)[0] * 1000,
    }
    tail_s, tail_at = tail(scaled)
    values = {
        "setup_s": setup_s,
        "runs_per_s": len(scaled) / sum(scaled),
        "run_p50_ms": statistics.median(scaled) * 1000,
        "run_tail_ms": tail_s * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "output_bytes": loop.output_bytes / workload.fixed_runs,
    }
    info = {
        "workload": name,
        "seed": seed,
        "meta": meta(),
        "host_factor": sum(scaled) / sum(times),
        "raw": raw,
        "runs": attempted,
        "failed_frac": f"{failed}/{attempted}",
        "failures": loop.failures[:5],
        "tail": tail_at,
        "report_digest": f"{loop.digest.hexdigest()[:16]} over runs 0..{workload.fixed_runs - 1}",
    }
    if isinstance(workload, Scenarios):
        info["trace_matches_golden"] = workload.trace_golden
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    emit(info, failed == 0, attempted, failed, metrics)


def traced_pass(fresh, k: int):
    """Trace runs 0..k-1 of a fresh workload from ``fresh()``, then trace its
    first ``recheck_runs`` again; return the loops, totals, problems and the
    tracer's warnings.
    A fresh workload keeps the long_horizon and scenarios comparisons within
    the traced pass."""
    from layers import Tracer

    workload = fresh()
    tracer = Tracer()
    tracer.install()
    try:
        loop = Loop(workload)
        per_run = []
        for i in range(k):
            loop.one(i)
            per_run.append(tracer.end_run())
        totals = (Counter(tracer.self_s), Counter(tracer.totals), dict(tracer.maxima))
        root_s = tracer.root_s
        recheck = Loop(workload)
        again = []
        for i in range(workload.recheck_runs):
            recheck.one(i)
            again.append(tracer.end_run())
    finally:
        tracer.restore()
    problems = list(loop.failures) + list(recheck.failures)
    if again != per_run[: len(again)]:
        problems.append("exact counts differ between two traced passes of the same runs")
    return loop, recheck, totals, root_s, problems, sorted(tracer.warnings)


def layer_metrics(totals, traced_s: float, plain_s: float, root_s: float) -> dict:
    self_s, counts, maxima = totals
    inner = counts["model_checks.check_all.in_generate"]
    values = {f"{n}.self_s": (self_s[n], "s") for n in SELF_TIMES}
    values.update({n: (counts[n], "count") for n in COUNTS})
    values.update({n: (maxima.get(n, 0), "count") for n in MAXIMA})
    values["model_checks.accept_ratio"] = (
        counts["world.generate_schedule.returned"] / inner if inner else 0.0,
        "ratio",
    )
    for kind in TRACE_KINDS:
        values[f"cli.trace_bytes.{kind}"] = (counts[f"cli.trace_bytes.{kind}"], "B")
    values["trace_overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    values["unattributed_frac"] = ((traced_s - root_s) / traced_s, "ratio")
    return {n: {"value": v, "unit": u} for n, (v, u) in values.items()}


def per_layer(name: str, seed: int) -> None:
    workload = make_workload(name, seed)
    k = workload.fixed_runs
    plain = Loop(workload)
    for i in range(k):
        plain.one(i)
    loop, recheck, totals, root_s, problems, warnings = traced_pass(
        lambda: WORKLOADS[name](workload.cli, seed), k
    )
    problems = list(plain.failures) + problems + warnings
    if loop.digest.digest() != plain.digest.digest():
        problems.append("traced reports differ from untraced reports")
    if isinstance(workload, Scenarios) and loop.workload.first_trace != workload.first_trace:
        problems.append("traced trace.jsonl differs from untraced trace.jsonl")
    plain_s, traced_s = sum(plain.times), sum(loop.times)
    info = {
        "workload": name,
        "seed": seed,
        "meta": meta(),
        "traced_runs": k,
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "bench_hook_s": totals[0]["bench.hook"],
        "problems": problems[:5],
        "warnings": warnings,
        "report_digest": f"{plain.digest.hexdigest()[:16]} over runs 0..{k - 1}",
    }
    attempted = plain.attempted + loop.attempted + recheck.attempted
    failed = len(plain.failures) + len(loop.failures) + len(recheck.failures)
    emit(info, not problems, attempted, failed, layer_metrics(totals, traced_s, plain_s, root_s))


# ---------------------------------------------------------------------------
# opt-in n x H sweep (not scored)


def sweep(seed: int, seconds: float) -> None:
    """One untraced and one traced long_horizon run per cell of n, H in
    {20, 40, 80}, cheapest first, skipping cells predicted not to fit in
    ``seconds``.  Times are raw."""
    cli = import_program()
    cells = sorted(
        ((n, h) for n in (20, 40, 80) for h in (20, 40, 80)),
        key=lambda c: (c[0] / 20) ** 1.6 * (c[1] / 20) ** 2.3,
    )
    start = time.perf_counter()
    unit = None  # seconds per unit of the cost model, from the cells measured
    rows, skipped, problems = [], [], []
    for n, h in cells:
        cost = (n / 20) ** 1.6 * (h / 20) ** 2.3
        left = seconds - (time.perf_counter() - start)
        # a cell runs once untraced and twice traced (pass and recheck)
        if unit is not None and 4 * unit * cost > left:
            skipped.append(f"n{n}-h{h}")
            continue
        plain = Loop(LongHorizon(cli, seed, n, h, fixed_runs=1))
        plain.one(0)
        loop, _, totals, root_s, cell_problems, warnings = traced_pass(
            lambda: LongHorizon(cli, seed, n, h, fixed_runs=1), 1
        )
        if loop.digest.digest() != plain.digest.digest():
            cell_problems.append("traced report differs from untraced report")
        problems += [f"n{n}-h{h}: {p}" for p in plain.failures + cell_problems + warnings]
        if not plain.times or not loop.times:
            continue
        run_s, traced_s = plain.times[0], sum(loop.times)
        unit = max(unit or 0.0, run_s / cost)
        layers = layer_metrics(totals, traced_s, run_s, root_s)
        row = {
            "n": n,
            "horizon": h,
            "runs_per_s": 1 / run_s,
            "self_s": {k: v["value"] for k, v in layers.items() if k.endswith(".self_s")},
        }
        rows.append(row)
        print(json.dumps(row, sort_keys=True), flush=True)
    print(json.dumps({"meta": meta(), "seed": seed, "skipped": skipped, "problems": problems}))
    print(json.dumps({"sweep": rows, "correct": not problems}))


def run_all(seed: int, seconds: float, trace: int) -> None:
    """Each workload in turn, each from its own fresh process."""
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
        proc = subprocess.run(
            [sys.executable, __file__, *argv, "--trace", str(trace)], cwd=ROOT, timeout=900
        )
        if proc.returncode != 0:
            sys.exit(proc.returncode)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", action="store_true", help="opt-in n x H grid, not scored")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--serve-calibration", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.serve_calibration:
        serve_calibration()
        return
    if not args.sweep and args.workload is None:
        parser.error("--workload is required unless --sweep is given")
    try:
        if args.setup_probe:
            make_workload(args.workload, args.seed)
            print("ready")
        elif args.workload == "all":
            run_all(args.seed, args.seconds, args.trace)
        elif args.sweep:
            sweep(args.seed, args.seconds)
        elif args.trace:
            per_layer(args.workload, args.seed)
        else:
            end_to_end(args.workload, args.seed, args.seconds)
    finally:
        if not args.setup_probe:
            shutil.rmtree(OUT_DIR, ignore_errors=True)


if __name__ == "__main__":
    main()
