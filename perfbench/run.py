"""Benchmark of the rician-mimo command line, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One parent process runs CLI commands one at a time, each in a fresh
interpreter (`perfbench/child.py`) with an empty output directory: a closed
loop with one client.  It writes the workload's scenario file from `--seed`,
starts commands until `--seconds` of them have run (at least three), checks
every command's CSV and prints, as its last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

--trace 0  end-to-end metrics, tracing off:
           wall_s       median wall time of `cli.main` over the commands
           setup_s      median time for a fresh interpreter to import
                        `rician_mimo.cli` (numpy and scipy included), over
                        dedicated import-only starts and every command
           peak_rss_mb  median peak resident memory of a command
--trace 1  per-layer metrics (see tracer.py) from traced commands, plus
           the tracing overhead (median over pairs of an untraced command
           and the traced command after it, of traced minus untraced
           `wall_s`) and a wall time with BLAS pinned to 1 thread.

Inherited BLAS thread settings are cleared so the program runs with its own
default.  Spans, per-command samples and machine facts go to
`.perfbench/<workload>.seed<N>.trace<T>.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from check import command_problems
from tracer import metric_units
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(HERE, "child.py")

DEFAULT_SEED = 1
MIN_COMMANDS = 3
SETUP_PROBES = 2
# untraced/traced command pairs in a traced run
MIN_PAIRS = 2
# every command is killed by this many seconds after the run started, so
# the run ends well inside its 180-second limit
HARD_LIMIT_S = 150.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Deadline(Exception):
    pass


def child_env(blas_threads: int | None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    if blas_threads is not None:
        env.update({k: str(blas_threads) for k in BLAS_ENV})
    return env


def run_child(cli_argv: list[str], deadline: float, trace: bool = False, blas_threads: int | None = None):
    """Start one fresh interpreter; returns (record or None, elapsed seconds).

    The record is None when the child died before writing it.
    """
    fd, result_path = tempfile.mkstemp(suffix=".json", dir=WORK_DIR)
    os.close(fd)
    try:
        spawned_at = time.perf_counter()
        cmd = [sys.executable, CHILD, "--result", result_path, "--spawned-at", repr(spawned_at)]
        if trace:
            cmd.append("--trace")
        proc = subprocess.Popen(
            cmd + ["--"] + cli_argv,
            cwd=ROOT,
            env=child_env(blas_threads),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        try:
            _, err = proc.communicate(timeout=max(deadline - time.perf_counter(), 0.1))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise Deadline
        elapsed = time.perf_counter() - spawned_at
        if os.path.getsize(result_path) == 0:
            sys.stderr.write(err.decode(errors="replace")[-2000:])
            return None, elapsed
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh), elapsed
    finally:
        os.unlink(result_path)


class Run:
    """The commands of one benchmark run and their verdicts."""

    def __init__(self, workload, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.scenario = os.path.join(WORK_DIR, f"{workload.name}.seed{seed}.ini")
        with open(self.scenario, "w", encoding="utf-8") as fh:
            fh.write(workload.scenario_text(seed))
        self.commands: list[dict] = []
        self.first_csv: str | None = None

    def command(self, kind: str, trace: bool = False, blas_threads: int | None = None) -> dict:
        out_dir = tempfile.mkdtemp(dir=WORK_DIR)
        try:
            out = os.path.join(out_dir, "out.csv")
            argv = self.workload.cli_argv(self.scenario, out)
            try:
                record, elapsed = run_child(argv, self.deadline, trace, blas_threads)
            except Deadline:
                record, elapsed = None, None
            text = None
            if os.path.exists(out):
                with open(out, encoding="utf-8", newline="") as fh:
                    text = fh.read()
        finally:
            shutil.rmtree(out_dir)
        rc = record["rc"] if record else None
        same_threads = blas_threads is None
        problems = command_problems(
            rc, text, self.first_csv if same_threads else None, self.workload, self.seed
        )
        if elapsed is None:
            problems.insert(0, f"killed at the run's {HARD_LIMIT_S:.0f} s limit")
        if not problems and same_threads and self.first_csv is None:
            self.first_csv = text
        entry = {"id": len(self.commands), "kind": kind, "elapsed_s": elapsed, "problems": problems, "record": record}
        self.commands.append(entry)
        if problems:
            sys.stderr.write(f"command {entry['id']} ({kind}) failed: {problems[:3]}\n")
        return entry

    def loop(self, seconds: float, step, minimum: int = MIN_COMMANDS) -> list[list[dict]]:
        """Rounds of `step()` until `seconds` have passed (at least `minimum`).

        A round is the list of command entries one `step()` returns.  A
        round is started only if the median round so far fits in the
        remaining time, so the run ends close to `seconds`.
        """
        start = time.perf_counter()
        rounds = []
        while True:
            entries = step()
            rounds.append(entries)
            if any(e["elapsed_s"] is None for e in entries):
                break
            now = time.perf_counter()
            typical = statistics.median(sum(e["elapsed_s"] for e in r) for r in rounds)
            if now + typical > self.deadline:
                break
            if len(rounds) >= minimum and now - start + typical > seconds:
                break
        return rounds

    @property
    def failed(self) -> int:
        return sum(1 for e in self.commands if e["problems"])


def good(entries: list[dict], field: str) -> list[float]:
    return [e["record"][field] for e in entries if e["record"] and field in e["record"]]


def source_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def machine_facts(entries: list[dict]) -> dict:
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }
    for entry in entries:
        if entry["record"] and entry["kind"] != "blas1":
            facts.update(entry["record"]["facts"])
            break
    return facts


def percentile_note(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n <= 10:
        return f"n={n}; too few samples for a tail percentile"
    q = (n - 10) / n
    tail = sorted(values)[n - 11]
    return f"n={n}; p{100 * q:.0f}={tail:.4f}"


def untraced(run: Run, seconds: float) -> dict:
    probes = []
    for i in range(SETUP_PROBES + 1):
        try:
            record, _ = run_child([], run.deadline)
        except Deadline:
            break
        # the first start compiles bytecode and warms the file cache
        if record and i > 0:
            probes.append(record["setup_s"])
    commands = [e for r in run.loop(seconds, lambda: [run.command("timed")]) for e in r]
    walls = good(commands, "wall_s")
    setups = probes + good(commands, "setup_s")
    rss = good(commands, "peak_rss_mb")
    if not walls:
        # no command finished: report what the parent saw, so the run still
        # prints a result, marked incorrect
        walls = [e["elapsed_s"] or HARD_LIMIT_S for e in commands]
        setups = setups or walls
        rss = rss or [0.0]
    print(f"wall_s       {statistics.median(walls):.4f} s      ({percentile_note(walls)})")
    print(f"setup_s      {statistics.median(setups):.4f} s      ({percentile_note(setups)})")
    print(f"peak_rss_mb  {statistics.median(rss):.1f} MB")
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }


def traced(run: Run, seconds: float) -> tuple[dict, list]:
    start = time.perf_counter()
    blas1 = run.command("blas1", blas_threads=1)
    remaining = seconds - (time.perf_counter() - start)
    # untraced and traced commands alternate, so each traced command has an
    # untraced neighbour measured under nearly the same machine load
    pairs = run.loop(
        remaining, lambda: [run.command("untraced"), run.command("traced", trace=True)], minimum=MIN_PAIRS
    )
    plain = [u for u, _ in pairs]
    commands = [t for _, t in pairs if t["record"]]
    spans = [[e["id"], *span] for e in commands for span in e["record"].pop("spans")]
    layers = [e["record"]["layers"] for e in commands]
    # counts must repeat exactly; a command whose counts differ from the
    # first traced command's fails
    for entry, values in zip(commands[1:], layers[1:]):
        for name, value in values.items():
            if not name.endswith("_s") and value != layers[0][name]:
                entry["problems"].append(f"{name} = {value}, first traced command {layers[0][name]}")
    overheads = [t["record"]["wall_s"] - u["record"]["wall_s"] for u, t in pairs if u["record"] and t["record"]]
    samples = {
        "tracing.traced_wall_s": good(commands, "wall_s"),
        "tracing.untraced_wall_s": good(plain, "wall_s"),
        "tracing.overhead_s": overheads,
        "baseline.blas1_wall_s": good([blas1], "wall_s"),
    }
    values = {name: statistics.median(v) if v else 0.0 for name, v in samples.items()}
    metrics = {}
    for name, unit in metric_units().items():
        if name in values:
            value = values[name]
        elif not layers:
            value = 0.0
        elif unit == "s":
            value = statistics.median(m[name] for m in layers)
        else:
            value = layers[0][name]
        metrics[name] = {"value": value, "unit": unit}
    return metrics, spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "rician_mimo", "cli.py")):
        sys.stderr.write(f"no rician_mimo sources under {os.path.join(ROOT, 'src')}; nothing to measure\n")
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    run = Run(WORKLOADS[args.workload], args.seed, time.perf_counter() + HARD_LIMIT_S)
    spans = []
    if args.trace:
        metrics, spans = traced(run, args.seconds)
    else:
        metrics = untraced(run, args.seconds)
    facts = machine_facts(run.commands)
    print("facts " + json.dumps(facts, sort_keys=True))
    record_path = os.path.join(WORK_DIR, f"{args.workload}.seed{args.seed}.trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "facts": facts,
                "metrics": metrics,
                "commands": run.commands,
                "spans": spans,
            },
            fh,
        )
    attempted = len(run.commands)
    failed = run.failed
    print(f"error_rate   {failed / attempted:.4f} ratio  ({failed}/{attempted} commands failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
