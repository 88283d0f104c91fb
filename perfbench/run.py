#!/usr/bin/env python3
"""mirsim benchmark: experiment wall time, GA throughput and per-layer spans.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, untraced then traced
    python3 perfbench/run.py --smoke    # the same checks on small sizes

Each workload runs the real command line (``python -m mirsim ...``) in child
processes, one at a time, repeated for ``--seconds``; every repetition is a
fresh output directory.  The first repetition's outputs are checked against
an independent reference model and the method's properties (checks.py); the
others must be byte-identical to it.  ``--trace 0`` reports the end-to-end
metrics from untraced children.  ``--trace 1`` alternates untraced and
traced children (tracer.py wraps the layer functions) and reports per-layer
metrics derived from the spans.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.  See README.md here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
CPUS = sorted(os.sched_getaffinity(0))
DEADLINE_S = 170.0
MIN_REPS = 3
SETUP_PROBES = 11
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
SETUP_CODE = "import sys, mirsim; mirsim.load_config(sys.argv[1])"


@dataclass(frozen=True)
class Workload:
    """One set of inputs: a config document, a seed count and a command shape."""

    config: dict
    seeds: int
    via_trace: bool = False  # export the trace, then `run --trace` on it

    def yaml(self) -> str:
        return "".join(f"{key}: {value}\n" for key, value in self.config.items())


# Full sizes.  The three stress different layers; README.md gives the why.
WORKLOADS = {
    "paper-default": Workload(
        config={"num_users": 10, "num_slots": 5, "population_size": 50,
                "max_iterations": 50},
        seeds=2),
    "dense-crowd": Workload(
        config={"num_users": 301, "num_slots": 5, "population_size": 200,
                "max_iterations": 6},
        seeds=1),
    "long-horizon": Workload(
        config={"num_users": 200, "num_slots": 30, "population_size": 8,
                "max_iterations": 4},
        seeds=1, via_trace=True),
}

# Smoke sizes: the same command shapes and checks, in seconds.
SMOKE = {
    "paper-default": Workload(
        config={"num_users": 10, "num_slots": 3, "population_size": 10,
                "max_iterations": 5},
        seeds=2),
    "dense-crowd": Workload(
        config={"num_users": 31, "num_slots": 2, "population_size": 20,
                "max_iterations": 3},
        seeds=1),
    "long-horizon": Workload(
        config={"num_users": 20, "num_slots": 6, "population_size": 4,
                "max_iterations": 2},
        seeds=1, via_trace=True),
}


class BenchError(Exception):
    """A child failed or an output check failed."""


@dataclass
class Child:
    exit_code: int
    wall_s: float
    maxrss_kb: int


def child_env() -> dict:
    """Hermetic child environment: no inherited Python or seed settings."""
    env = {k: v for k, v in os.environ.items()
           if k != "MIRSIM_SEED" and not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in THREAD_VARS})
    return env


class Runner:
    """Spawns children one at a time and kills any still running at the deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()

    def spawn(self, argv: list[str], cwd: Path, log: Path, turn: int) -> Child:
        """Run one child to its exit; it starts on CPU number `turn` (mod count).

        The child keeps the full CPU mask, so it may use every core; only its
        starting CPU is chosen, by pinning this process while it forks.
        Children otherwise all start on the same CPU, and on a host whose
        cores slow down independently that CPU's state would set every round.
        """
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        os.sched_setaffinity(0, {CPUS[turn % len(CPUS)]})
        try:
            with open(log, "w") as fh:
                start = time.perf_counter()
                proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=self.env,
                                        stdout=fh, stderr=subprocess.STDOUT)
            try:
                os.sched_setaffinity(proc.pid, CPUS)
            except ProcessLookupError:  # already exited; wait4 still reaps it
                pass
        finally:
            os.sched_setaffinity(0, CPUS)
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_maxrss)

    def mirsim(self, args: list[str], cwd: Path, log: Path, turn: int, ok=(0,),
               spans_file: Path | None = None) -> Child:
        argv = (["-m", "mirsim"] if spans_file is None
                else [str(HERE / "tracer.py"), str(spans_file)]) + args
        child = self.spawn(argv, cwd, log, turn)
        if child.exit_code not in ok:
            tail = log.read_text()[-2000:]
            raise BenchError(f"mirsim {' '.join(args)} exited {child.exit_code}:\n{tail}")
        return child


def commands(w: Workload, cfg: Path, seed: int, out: Path) -> list[tuple[list[str], tuple]]:
    """The workload's CLI invocations with their successful exit codes.

    `run` exits 3 when some slot leaves every user below the SINR threshold,
    which the default 20 dB threshold makes the expected outcome.
    """
    common = ["--config", str(cfg), "--seed", str(seed), "--out", str(out)]
    run = ["run", *common, "--seeds", str(w.seeds)]
    if not w.via_trace:
        return [(run, (0, 3))]
    return [(["trace", *common], (0,)), ([*run, "--trace", str(out / "trace.csv")], (0, 3))]


@dataclass
class Rep:
    wall_s: float
    maxrss_kb: int
    exit_code: int
    out: Path
    spans: list[Path]


def run_rep(runner: Runner, w: Workload, cfg: Path, seed: int, rep_dir: Path,
            traced: bool, turn: int) -> Rep:
    out = rep_dir / "out"
    out.mkdir(parents=True)
    wall, rss, code, span_files = 0.0, 0, 0, []
    for i, (args, ok) in enumerate(commands(w, cfg, seed, out)):
        spans_file = rep_dir / f"spans-{i}.npz" if traced else None
        child = runner.mirsim(args, rep_dir, rep_dir / f"cmd-{i}.log", turn, ok, spans_file)
        wall += child.wall_s
        rss = max(rss, child.maxrss_kb)
        code = child.exit_code
        if spans_file is not None:
            span_files.append(spans_file)
    return Rep(wall, rss, code, out, span_files)


def digest(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def check_first(runner: Runner, w: Workload, cfg_path: Path, seed: int,
                rep: Rep, run_dir: Path) -> dict:
    """Full correctness checks on the first repetition; returns results.json."""
    results = checks.load_results(rep.out / "results.json")
    cfg = results["config"]
    for key, value in w.config.items():
        checks.require(cfg[key] == value, f"config snapshot {key}={cfg[key]} != {value}")
    if w.via_trace:
        trace_csv = rep.out / "trace.csv"
        direct = run_dir / "direct"
        runner.mirsim(["run", "--config", str(cfg_path), "--seed", str(seed),
                       "--seeds", "1", "--out", str(direct)],
                      run_dir, run_dir / "direct.log", 0, (0, 3))
        via_trace = {k: v for k, v in digest(rep.out).items() if k != "trace.csv"}
        checks.require(digest(direct) == via_trace,
                       "run --trace on the exported trace differs from a direct run")
    else:
        exported = run_dir / "trace"
        runner.mirsim(["trace", "--config", str(cfg_path), "--seed", str(seed),
                       "--out", str(exported)], run_dir, run_dir / "trace.log", 0)
        trace_csv = exported / "trace.csv"
    positions = checks.read_trace(trace_csv)
    checks.check_trace(cfg, positions)
    seeds = [seed + i for i in range(w.seeds)]
    checks.check_run(rep.out, results, cfg, seeds, positions, rep.exit_code)
    return results


def measure_setup(runner: Runner, cfg_path: Path, run_dir: Path) -> float:
    """Median wall time of a fresh interpreter importing mirsim and loading the config."""
    times = []
    for i in range(SETUP_PROBES + 1):  # probe 0 fills the bytecode and file caches
        child = runner.spawn(["-c", SETUP_CODE, str(cfg_path)], run_dir,
                             run_dir / "setup.log", i)
        if child.exit_code != 0:
            raise BenchError(f"setup probe exited {child.exit_code}: "
                             + (run_dir / "setup.log").read_text()[-2000:])
        if i:
            times.append(child.wall_s)
    return statistics.median(times)


def run_workload(name: str, w: Workload, seed: int, seconds: float, traced: bool,
                 min_reps: int, runner: Runner) -> tuple[dict, list[float]]:
    """Run one workload for `seconds`; returns (metrics, untraced round walls)."""
    run_dir = WORK / f"{name}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cfg_path = run_dir / "config.yaml"
    cfg_path.write_text(w.yaml())
    setup_s = None if traced else measure_setup(runner, cfg_path, run_dir)

    plain: list[Rep] = []
    traced_walls: list[float] = []
    layers: list[dict] = []
    reference = results = None
    start = time.monotonic()
    while True:
        rep = run_rep(runner, w, cfg_path, seed, run_dir / f"rep-{len(plain)}", False,
                      len(plain))
        if reference is None:
            results = check_first(runner, w, cfg_path, seed, rep, run_dir)
            reference = digest(rep.out)
        plain.append(rep)
        new = [rep]
        if traced:
            rep_t = run_rep(runner, w, cfg_path, seed,
                            run_dir / f"rep-{len(layers)}-traced", True, len(layers))
            layers.append(spans.layer_metrics(rep_t.spans, rep_t.wall_s, rep_t.out,
                                              results["config"]))
            traced_walls.append(rep_t.wall_s)
            new.append(rep_t)
        for r in new:
            checks.require(digest(r.out) == reference,
                           f"{r.out.parent.name}: outputs differ from the first repetition")
            if len(plain) > 1:  # the first pair stays on disk for inspection
                shutil.rmtree(r.out.parent)
        if len(plain) >= min_reps and time.monotonic() - start >= seconds:
            break

    wall = statistics.median(r.wall_s for r in plain)
    if traced:
        metrics = {key: (statistics.median(m[key][0] for m in layers), unit)
                   for key, (_, unit) in layers[0].items()}
        metrics["tracing_overhead_s"] = (statistics.median(traced_walls) - wall, "s")
    else:
        m_irs = results["avg_sum_rate"]["M-IRS-NOMA"]
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (setup_s, "s"),
            "evals_per_s": (results["ga_evaluations"] / wall, "1/s"),
            "peak_rss_mb": (statistics.median(r.maxrss_kb for r in plain) / 1024.0, "MB"),
            "sum_rate": (sum(m_irs) / len(m_irs), "bits/s/Hz"),
        }
    return metrics, [r.wall_s for r in plain]


def machine() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1,
                        help="first mirsim master seed (default 1)")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measured time per workload and mode (default 35)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default with --workload all: both)")
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, one repetition: the benchmark's own test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mirsim" / "__init__.py").is_file():
        print(f"error: no mirsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    table = SMOKE if args.smoke else WORKLOADS
    names = list(table) if args.workload == "all" else [args.workload]
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    runner = Runner(time.monotonic() + DEADLINE_S * len(names) * len(modes))
    print("machine: " + json.dumps(machine()))

    combined = len(names) * len(modes) > 1
    metrics: dict[str, dict] = {}
    correct, attempted = True, 0
    for name in names:
        for traced in modes:
            try:
                found, walls = run_workload(
                    name, table[name], args.seed, 0.0 if args.smoke else args.seconds,
                    traced, 1 if args.smoke else MIN_REPS, runner)
            except (BenchError, checks.CheckError) as exc:
                print(f"FAIL {name} trace={int(traced)}: {exc}", file=sys.stderr)
                correct = False
                continue
            attempted += len(walls)
            print(f"{name} seed {args.seed} trace {int(traced)}: {len(walls)} rounds, "
                  f"untraced wall_s " + " ".join(f"{t:.3f}" for t in walls))
            for key, (value, unit) in found.items():
                print(f"  {key:36s} {value:14.6g} {unit}")
                metrics[f"{name}.{key}" if combined else key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": 0 if correct else 1, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
