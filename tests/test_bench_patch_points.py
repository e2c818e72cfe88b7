"""The benchmark's per-layer tracer (``perfbench/layers.py``) patches
functions of the package by name; a refactor that renames or moves one of
them must fail here, not only when the benchmark runs."""

import ast
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import GOLDEN

from sleepy_tob import cli, ga

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_every_patch_point_exists_and_is_restored():
    original = ga.tally
    tracer = load_tracer()
    tracer.install()
    try:
        assert tracer.warnings == set()
    finally:
        tracer.restore()
    assert ga.tally is original


def test_traced_run_counts_without_warnings():
    scenario = cli.load_scenario(LAYERS.parent.parent / "scenarios" / "sync_faultfree.json")
    tracer = load_tracer()
    tracer.install()
    try:
        cli.run_scenario(scenario)
        counts = tracer.end_run()
    finally:
        tracer.restore()
    assert tracer.warnings == set()
    assert counts["ga.tally.calls"] > 0
    assert counts["ga.tally.prefix_updates"] > 0


def test_traced_cli_run_counts_trace_bytes_of_every_kind(tmp_path, monkeypatch):
    # the tracer reads the event kind out of each line cli.trace_lines writes
    monkeypatch.delenv("SLEEPY_TOB_SEED", raising=False)
    scenario = LAYERS.parent.parent / "scenarios" / "sync_faultfree.json"
    tracer = load_tracer()
    tracer.install()
    try:
        assert cli.main(["run", str(scenario), "--out", str(tmp_path)]) == 0
        counts = tracer.end_run()
    finally:
        tracer.restore()
    assert tracer.warnings == set()
    for kind in ("log", "send", "deliver", "decide", "ga_record"):
        assert counts[f"cli.trace_bytes.{kind}"] > 0, kind


@pytest.fixture(scope="module")
def traced_counts(tmp_path_factory):
    """Counts and tracer warnings of one traced ``run`` of a shipped
    scenario plus one default ``campaign`` seed."""
    scenario = LAYERS.parent.parent / "scenarios" / "prop1_expiring.json"
    tracer = load_tracer()
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("SLEEPY_TOB_SEED", raising=False)
        tracer.install()
        try:
            out = tmp_path_factory.mktemp("run")
            assert cli.main(["run", str(scenario), "--out", str(out)]) == 0
            assert cli.main(["campaign", "--seeds", "1"]) == 0
            counts = tracer.end_run()
        finally:
            tracer.restore()
    return counts, tracer.warnings


def benchmark_metrics(unit: str) -> list[str]:
    benchmark = json.loads((LAYERS.parent.parent / "BENCHMARK.json").read_text())
    return [m["name"] for m in benchmark["per_layer"] if m["unit"] == unit]


def test_every_timed_layer_is_called(traced_counts):
    """A refactor may keep a patched name but stop calling it; that layer
    would then read 0 in the benchmark without a tracer warning."""
    counts, warnings = traced_counts
    layers = [name.removesuffix(".self_s") for name in benchmark_metrics("s")
              if name.endswith(".self_s")]
    assert warnings == set()
    assert layers
    assert [layer for layer in layers if counts.get(f"{layer}.calls", 0) < 1] == []


def test_every_counted_metric_is_positive(traced_counts):
    """Likewise for the exact counts: a count whose hook still runs but no
    longer sees the work would read 0 without a warning."""
    counts, warnings = traced_counts
    metrics = benchmark_metrics("count")
    assert warnings == set()
    assert metrics
    assert [name for name in metrics if counts.get(name, 0) < 1] == []


def test_benchmark_golden_reports_match_the_golden_table():
    """``perfbench/run.py`` counts a scenario run whose exit code or
    ``report.json`` hash is not in its own ``GOLDEN`` table as failed.  Its
    trace column is informational and left out here."""
    tree = ast.parse((LAYERS.parent / "run.py").read_text())
    [table] = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", "") == "GOLDEN" for target in node.targets)
    ]
    bench = ast.literal_eval(table)
    assert {name: (code, report) for name, (code, report, _trace) in bench.items()} == {
        name: (code, report) for name, (code, _trace, report) in GOLDEN.items()
    }


@pytest.mark.parametrize("workload, digest", [("long_horizon", "37bb25a8a60d3e60"),
                                              ("scenarios", "adf17b6c85f4b120")],
                         ids=["long_horizon", "scenarios"])
def test_traced_benchmark_run_is_correct(tmp_path, workload, digest):
    """One traced pass of a workload, run from a copy of the checkout so that
    nothing is written into it: the benchmark's own checks (traced against
    untraced reports, exact counts of a repeated pass, the report digest)
    must all hold, with no tracer warning.  On scenarios they also compare
    the traced ``trace.jsonl`` with the untraced one, and count the bytes of
    every line by its kind."""
    root = LAYERS.parent.parent
    for name in ("src", "scenarios", "perfbench"):
        shutil.copytree(root / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--trace", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    info, result = (json.loads(line) for line in done.stdout.splitlines())
    assert info["warnings"] == [] and info["problems"] == []
    assert info["report_digest"].split()[0] == digest
    assert result["correct"] is True and result["failed"] == 0
