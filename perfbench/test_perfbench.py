"""Self-tests of the benchmark: tracer, output checks and metric names.

    PYTHONPATH=src python3 -m pytest -q perfbench

None of these runs a full workload; the run.py tests replace the child
process with a fake record.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import check
import run
import tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def reference_text(workload: str = "mc_single_cell", seed: int = 1) -> str:
    with open(check.reference_path(workload, seed), encoding="utf-8", newline="") as fh:
        return fh.read()


def perturb_first(text: str, column: str, factor: float) -> str:
    lines = text.split("\n")
    header = lines[0].split(",")
    cells = lines[1].split(",")
    index = header.index(column)
    cells[index] = repr(float(cells[index]) * factor)
    lines[1] = ",".join(cells)
    return "\n".join(lines)


def _bindings(modules, names):
    return {(m.__name__, n): vars(m)[n] for m in modules for n in names if n in vars(m)}


def test_tracer_restores_original_functions(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    import numpy.linalg
    import scipy.linalg

    from rician_mimo import channel, cli, combining, spectral_efficiency

    modules = [m for n, m in sys.modules.items() if n.startswith("rician_mimo")]
    modules += [numpy.linalg, scipy.linalg]
    names = {fn.split(".")[0] for fns in tracer.LAYERS.values() for fn in fns}
    names |= {fn for _, fn in tracer.LINALG}
    before = _bindings(modules, names)
    sqrt_r = vars(channel.UserLinkProfile)["sqrt_r"]

    t = tracer.Tracer()
    t.install()
    try:
        assert spectral_efficiency.conventional_combiner is combining.conventional_combiner
        assert combining.conventional_combiner is not before[("rician_mimo.combining", "conventional_combiner")]
        assert numpy.linalg.inv is not before[("numpy.linalg", "inv")]
        assert vars(channel.UserLinkProfile)["sqrt_r"] is not sqrt_r
        with pytest.raises(RuntimeError):
            t.install()
    finally:
        t.restore()
    after = _bindings(modules, names)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert vars(channel.UserLinkProfile)["sqrt_r"] is sqrt_r
    assert cli.main is before[("rician_mimo.cli", "main")]


def test_tracer_counts_a_small_command(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    from rician_mimo import cli

    scenario = tmp_path / "s.ini"
    scenario.write_text(
        "layout = three_cell_edge\nl = 3\nn = 8\nk = 2\nt = 50\ntrials = 3\n"
        "correlation = exponential\nsnr_grid_db = 0,10\nseed = 5\n"
    )
    argv = ["simulate", "--scenario", str(scenario), "--workers", "1", "--out", str(tmp_path / "o.csv")]
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.main(argv) == 0
    finally:
        t.restore()
    metrics = tracer.layer_metrics(t.spans, t.counters)
    assert set(metrics) | set(tracer.RUN_METRICS) == set(tracer.metric_units())
    trial_points = 3 * 2 * 3  # trials x SNR points x cells
    assert metrics["combining.conventional_combiner.calls"] == trial_points
    assert metrics["spectral_efficiency.trial_points"] == trial_points
    assert metrics["cli.main.calls"] == 1
    assert metrics["training.solve_tau_star.calls"] == 0
    assert metrics["asymptotics.build_q_multicell.calls"] == 0
    assert metrics["estimation.build_estimator_multicell.calls"] == 2 * 3 * 2  # keys x BS x users
    assert metrics["estimation.builds_per_distinct_key"] == 1.0
    assert metrics["results.bytes"] == (tmp_path / "o.csv").stat().st_size
    total = metrics["cli.main.total_s"]
    assert 0 <= metrics["cli.main.self_s"] <= total
    assert metrics["sweeps.run_sweep.total_s"] <= total


def test_check_accepts_reference_and_flags_perturbed_value():
    workload = WORKLOADS["mc_single_cell"]
    text = reference_text()
    assert check.output_problems(text, workload, 1) == []
    assert check.output_problems(perturb_first(text, "se_value", 1 + 1e-4), workload, 1)
    # well inside the tolerance: the drift that BLAS threading causes
    assert check.output_problems(perturb_first(text, "se_value", 1 + 1e-8), workload, 1) == []


def test_check_flags_changed_channel_draw():
    # the held-out seed's values under the default seed's label
    workload = WORKLOADS["mc_single_cell"]
    text = reference_text(seed=4242).replace(",4242\n", ",1\n")
    assert check.invariant_problems(text, workload, 1) == []
    assert check.output_problems(text, workload, 1)


def test_check_flags_nonzero_exit_missing_output_and_byte_change():
    workload = WORKLOADS["mc_single_cell"]
    text = reference_text()
    assert check.command_problems(0, text, None, workload, 1) == []
    assert check.command_problems(0, text, text, workload, 1) == []
    assert check.command_problems(2, text, None, workload, 1) == ["exit code 2"]
    assert check.command_problems(None, None, None, workload, 1)
    assert check.command_problems(0, None, None, workload, 1)
    changed = perturb_first(text, "se_stderr", 1 + 1e-9)
    assert check.command_problems(0, changed, text, workload, 1)


def test_check_invariants_at_other_seeds():
    workload = WORKLOADS["mc_single_cell"]
    text = reference_text().replace(",1\n", ",77\n")
    assert check.output_problems(text, workload, 77) == []
    assert check.invariant_problems(text, workload, 78)  # seed column
    negative = perturb_first(text, "se_value", -1.0)
    assert check.invariant_problems(negative, workload, 77)
    dropped = "\n".join(text.split("\n")[:-2]) + "\n"
    assert check.invariant_problems(dropped, workload, 77)
    nan = perturb_first(text, "se_value", float("nan"))
    assert check.invariant_problems(nan, workload, 77)


def fake_child(cli_argv, deadline, trace=False, blas_threads=None):
    """Stands in for a child process: writes a reference CSV as output."""
    record = {"rc": 0, "setup_s": 1.0, "peak_rss_mb": 100.0, "facts": {}}
    if cli_argv:
        out = cli_argv[cli_argv.index("--out") + 1]
        shutil.copyfile(check.reference_path("mc_single_cell", 1), out)
        record["wall_s"] = 0.01
        if trace:
            record["spans"] = [["cli.main", -1, 0.0, 0.01]]
            record["layers"] = tracer.layer_metrics(
                record["spans"], {"trial_points": 0, "result_bytes": 0, "estimator_keys": set()}
            )
    return record, 0.01


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(monkeypatch, capsys, tmp_path, trace):
    monkeypatch.setattr(run, "run_child", fake_child)
    monkeypatch.setattr(run, "WORK_DIR", str(tmp_path))
    argv = ["--workload", "mc_single_cell", "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = benchmark_json()
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared


def test_tracing_overhead_pairs_each_traced_command_with_an_untraced_one(monkeypatch, capsys, tmp_path):
    # the machine slows down by 1 s before every untraced command; tracing
    # costs 0.25 s
    started = []

    def drifting_child(cli_argv, deadline, trace=False, blas_threads=None):
        record, elapsed = fake_child(cli_argv, deadline, trace, blas_threads)
        if cli_argv:
            started.append(trace)
            record["wall_s"] = started.count(False) + (0.25 if trace else 0.0)
        return record, elapsed

    monkeypatch.setattr(run, "run_child", drifting_child)
    monkeypatch.setattr(run, "WORK_DIR", str(tmp_path))
    assert run.main(["--workload", "mc_single_cell", "--seconds", "0", "--trace", "1"]) == 0
    metrics = json.loads(capsys.readouterr().out.strip().split("\n")[-1])["metrics"]
    assert started == [False] + [False, True] * run.MIN_PAIRS  # BLAS-1 baseline first
    assert metrics["tracing.overhead_s"]["value"] == pytest.approx(0.25)
    assert metrics["tracing.traced_wall_s"]["value"] > metrics["tracing.untraced_wall_s"]["value"]


def test_failing_command_is_counted(monkeypatch, capsys, tmp_path):
    def failing_child(cli_argv, deadline, trace=False, blas_threads=None):
        record, elapsed = fake_child(cli_argv, deadline, trace, blas_threads)
        if cli_argv:
            record["rc"] = 2
        return record, elapsed

    monkeypatch.setattr(run, "run_child", failing_child)
    monkeypatch.setattr(run, "WORK_DIR", str(tmp_path))
    assert run.main(["--workload", "mc_single_cell", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == run.MIN_COMMANDS


def test_benchmark_json_follows_its_schema():
    spec = benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    metrics = spec["end_to_end"] + spec["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    for m in metrics:
        assert name.match(m["name"]) and unit.match(m["unit"]) and m["better"] in ("lower", "higher")
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_single_cell", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
