"""Experiment runner and command-line interface.

``run_experiment`` reproduces the benchmark protocol: one shared mobility
trace per seed, then every (seed, scenario) job's per-slot placement
searches, fed lazily to ``optimizer.optimize_jobs`` (which stacks them in
lockstep and bounds its own memory), whose final generations score the
slots, averaged across seeds; ``converge`` is a one-seed, one-scenario run.
``SCENARIOS`` is the one place a scenario is defined, as an
``optimizer.Variant(surface, access)``:

* M-IRS-NOMA  -- joint UAV + vehicle placement every slot
* S-IRS-NOMA  -- vehicle frozen at the slot-1 joint optimum (or configured point)
* No-IRS-NOMA -- UAV only, no reflected link
* M-IRS-OMA   -- joint placement under the orthogonal-access baseline

Each ExperimentReport field is the results.json key of the same name; the
report's per-user and power-fraction rows are built here from each slot's
``noma.SlotResult``.  ``emit_outputs`` writes results.json plus plot-ready
CSVs with stable, documented schemas.  Exit codes: 0 success, 1 when the
outputs cannot be written, 2 config/usage error (an unreadable config or
trace file included), 3 when some slot's best placement leaves every user
below the SINR threshold (reported in the outputs, not fatal).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import channel, mobility, optimizer, scenario
from .optimizer import Variant
from .scenario import ConfigError, ScenarioConfig

#: scenario name -> Variant(surface, access)
SCENARIOS: dict[str, Variant] = {
    "M-IRS-NOMA": Variant("mobile", "noma"),
    "S-IRS-NOMA": Variant("static", "noma"),
    "No-IRS-NOMA": Variant("none", "noma"),
    "M-IRS-OMA": Variant("mobile", "oma"),
}

RATES_COLUMNS = ["slot", "scenario", "sum_rate"]
FRACTIONS_COLUMNS = ["slot", "pair", "alpha_weak", "alpha_strong"]
TRAJECTORY_COLUMNS = ["slot", "entity", "x", "y", "z"]
CONVERGENCE_COLUMNS = ["scenario", "slot", "generation", "best_fitness", "mean_fitness"]
USERS_COLUMNS = ["slot", "scenario", "user", "pair_id", "alpha", "sinr_db", "rate"]


@dataclass
class ExperimentReport:
    """A run's results; results.json holds each field under its own name."""

    config: dict = field(default_factory=dict)
    seeds: list[int] = field(default_factory=list)
    scenarios: list[str] = field(default_factory=list)
    num_slots: int = 0
    avg_sum_rate: dict[str, list[float]] = field(default_factory=dict)
    per_seed_sum_rate: dict[str, list[list[float]]] = field(default_factory=dict)
    improvement_pct: dict[str, dict] = field(default_factory=dict)
    power_fractions: list[dict] = field(default_factory=list)
    fractions_scenario: Optional[str] = None
    trajectories: dict[str, list[dict]] = field(default_factory=dict)
    convergence: dict[str, list[dict]] = field(default_factory=dict)
    per_user: dict = field(default_factory=lambda: {"columns": USERS_COLUMNS, "rows": []})
    infeasible_slots: list[dict] = field(default_factory=list)
    ga_evaluations: int = 0


def _headline_scenario(names) -> Optional[str]:
    """M-IRS-NOMA if names hold it, else the first name (None for no names)."""
    return "M-IRS-NOMA" if "M-IRS-NOMA" in names else next(iter(names), None)


def resolve_scenarios(names) -> list[str]:
    """Canonicalize scenario names, preserving order; unknown names are errors."""
    canonical = {k.lower(): k for k in SCENARIOS}
    out: list[str] = []
    for name in names:
        key = name.strip().lower()
        if key not in canonical:
            raise ConfigError(
                f"unknown scenario {name!r}; choose from {', '.join(SCENARIOS)}")
        if canonical[key] not in out:
            out.append(canonical[key])
    if not out:
        raise ConfigError("at least one scenario required")
    return out


def run_experiment(cfg: ScenarioConfig, scenarios, seeds,
                   trace: Optional[mobility.MobilityTrace] = None) -> ExperimentReport:
    """Run every (seed, scenario) job and aggregate; deterministic given inputs.

    A given trace replaces the generated one for every seed; its user count
    must equal num_users.
    """
    names = resolve_scenarios(scenarios)
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ConfigError("at least one seed required")
    if trace is not None and trace.num_users != cfg.num_users:
        where = f"{trace.source}: " if trace.source is not None else ""
        raise ConfigError(f"{where}trace has {trace.num_users} users but "
                          f"num_users is {cfg.num_users}")

    report = ExperimentReport(
        config=scenario.config_to_dict(cfg), seeds=seeds, scenarios=names,
        num_slots=trace.num_slots if trace is not None else cfg.num_slots,
        per_seed_sum_rate={name: [] for name in names},
        fractions_scenario=_headline_scenario(
            [n for n in names if SCENARIOS[n].access == "noma"]),
    )

    # Lazy: a seed's trace is made when optimize_jobs pulls the seed's first job.
    traces = (trace if trace is not None else mobility.generate_trace(
        cfg, scenario.stream(seed, scenario.MOBILITY_STREAM)) for seed in seeds)
    jobs = ((seed_trace, seed, SCENARIOS[name])
            for seed_trace, seed in zip(traces, seeds) for name in names)
    outcomes = optimizer.optimize_jobs(jobs, cfg)
    for seed_index, seed in enumerate(seeds):
        for name in names:
            records = next(outcomes)
            report.ga_evaluations += len(records) * cfg.population_size * (cfg.max_iterations + 1)
            for slot, record in enumerate(records):
                if not record.result.feasible.any():
                    report.infeasible_slots.append(
                        {"scenario": name, "seed": seed, "slot": slot})
                if seed_index == 0:
                    _record_first_seed_detail(report, name, slot, record)
            report.per_seed_sum_rate[name].append([r.result.sum_rate for r in records])

    for name in names:
        per_seed = np.asarray(report.per_seed_sum_rate[name])
        report.avg_sum_rate[name] = [float(v) for v in per_seed.mean(axis=0)]

    base = _headline_scenario(names)
    for other in names:
        if other == base:
            continue
        per_slot = [100.0 * (a - b) / b if b != 0 else None
                    for a, b in zip(report.avg_sum_rate[base], report.avg_sum_rate[other])]
        mean = float(np.mean(per_slot)) if None not in per_slot else None
        report.improvement_pct[f"{base} vs {other}"] = {
            "baseline": other, "per_slot": per_slot, "mean": mean}
    return report


def _record_first_seed_detail(report, name, slot, record):
    """Trajectories, convergence, per-user rows, and fractions from the first seed."""
    placement, result = record.placement, record.result
    entry = {"slot": slot,
             "uav": [float(v) for v in placement.uav],
             "irs": None if placement.irs is None else [float(v) for v in placement.irs]}
    report.trajectories.setdefault(name, []).append(entry)
    report.convergence.setdefault(name, []).append({
        "slot": slot,
        "best": [float(v) for v in record.best_fitness],
        "mean": [float(v) for v in record.mean_fitness],
    })
    for user, (pair, sinr) in enumerate(zip(result.pair_id.tolist(), result.sinr.tolist())):
        report.per_user["rows"].append(
            [slot, name, user, pair, float(result.alpha[user]),
             float(scenario.linear_to_db(sinr)) if sinr > 0 else float("-inf"),
             float(result.rate[user])])
    if name == report.fractions_scenario:
        pairs = list(zip(result.weak.tolist(), result.strong.tolist()))
        if result.mid is not None:
            pairs.append((result.mid, None))
        for k, (weak, strong) in enumerate(pairs):
            report.power_fractions.append({
                "scenario": name, "slot": slot, "pair": k,
                "weak_user": weak, "strong_user": strong,
                "alpha_weak": float(result.alpha[weak]),
                "alpha_strong": 0.0 if strong is None else float(result.alpha[strong]),
            })


def _write_csv(path: Path, header: list[str], rows) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def emit_outputs(report: ExperimentReport, out_dir: str | Path) -> dict[str, Path]:
    """Write results.json and the CSV set; rerunning is byte-identical.

    A non-finite number in the report raises ValueError before any file is
    written.
    """
    # The indenting encoder yields ~10^5 small chunks per MB of text; joining them
    # a batch at a time holds one batch of chunk objects, not all of them.
    chunks = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False).iterencode(vars(report))
    text = "".join(map("".join, iter(lambda: list(itertools.islice(chunks, 4096)), []))) + "\n"
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / f"{name}.csv" for name in
             ("rates", "fractions", "trajectory", "convergence", "users")}
    paths["results"] = out / "results.json"

    try:
        paths["results"].write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write {paths['results']}: {exc}") from exc

    rate_rows = []
    for slot in range(report.num_slots):
        for name in report.scenarios:
            rate_rows.append([slot, name, report.avg_sum_rate[name][slot]])
    _write_csv(paths["rates"], RATES_COLUMNS, rate_rows)

    fraction_rows = [[f["slot"], f["pair"], f["alpha_weak"], f["alpha_strong"]]
                     for f in report.power_fractions]
    _write_csv(paths["fractions"], FRACTIONS_COLUMNS, fraction_rows)

    trajectory_rows = []
    main_scenario = _headline_scenario(report.trajectories)
    if main_scenario is not None:
        irs_height = report.config.get("irs_height_m", 0.0)
        for entry in report.trajectories[main_scenario]:
            x, y, z = entry["uav"]
            trajectory_rows.append([entry["slot"], "uav", x, y, z])
            if entry["irs"] is not None:
                trajectory_rows.append(
                    [entry["slot"], "irs", entry["irs"][0], entry["irs"][1], irs_height])
    _write_csv(paths["trajectory"], TRAJECTORY_COLUMNS, trajectory_rows)

    convergence_rows = []
    for name in report.scenarios:
        for rec in report.convergence.get(name, []):
            for gen, (best, mean) in enumerate(zip(rec["best"], rec["mean"])):
                convergence_rows.append([name, rec["slot"], gen, best, mean])
    _write_csv(paths["convergence"], CONVERGENCE_COLUMNS, convergence_rows)

    _write_csv(paths["users"], USERS_COLUMNS, report.per_user["rows"])
    return paths


def _parse_floats(text: str, count: int, flag: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != count:
        raise ConfigError(f"{flag}: expected {count} comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def _load_cfg(args) -> ScenarioConfig:
    return scenario.load_config(args.config) if args.config else ScenarioConfig()


def _cmd_run(args) -> int:
    cfg = _load_cfg(args)
    base_seed = scenario.resolve_master_seed(cfg, args.seed)
    num_seeds = args.seeds if args.seeds is not None else cfg.num_seeds
    if not 1 <= num_seeds <= scenario.MAX_SEEDS:
        raise ConfigError("--seeds: must be in [1, 10^4]")
    seeds = [base_seed + i for i in range(num_seeds)]
    names = list(SCENARIOS) if args.scenarios is None \
        else resolve_scenarios(args.scenarios.split(",") if args.scenarios else [])
    trace = mobility.load_trace(args.trace, cfg.region) if args.trace else None

    report = run_experiment(cfg, names, seeds, trace=trace)
    paths = emit_outputs(report, args.out)

    print(f"seeds {seeds[0]}..{seeds[-1]} ({len(seeds)}), "
          f"slots {report.num_slots}, scenarios {', '.join(names)}")
    for name in names:
        rates = " ".join(f"{v:.4f}" for v in report.avg_sum_rate[name])
        print(f"  {name:12s} avg sum rate per slot: {rates}")
    for label, imp in report.improvement_pct.items():
        if imp["mean"] is not None:
            print(f"  {label}: {imp['mean']:+.2f}% mean")
    if report.infeasible_slots:
        print(f"  {len(report.infeasible_slots)} slot(s) with no user meeting the "
              f"SINR threshold (details in results.json)")
    print(f"wrote {paths['results'].parent}/: "
          + ", ".join(sorted(p.name for p in paths.values())))
    return 3 if report.infeasible_slots else 0


def _cmd_trace(args) -> int:
    cfg = _load_cfg(args)
    seed = scenario.resolve_master_seed(cfg, args.seed)
    trace = mobility.generate_trace(cfg, scenario.stream(seed, scenario.MOBILITY_STREAM))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "trace.csv"
    mobility.save_trace(trace, path)
    print(f"wrote {path} ({trace.num_slots} slots x {trace.num_users} users)")
    return 0


def _cmd_inspect_channel(args) -> int:
    cfg = _load_cfg(args)
    seed = scenario.resolve_master_seed(cfg, args.seed)
    trace = mobility.generate_trace(cfg, scenario.stream(seed, scenario.MOBILITY_STREAM))
    if not 0 <= args.slot < trace.num_slots:
        raise ConfigError(f"--slot: must be in [0, {trace.num_slots - 1}]")
    r = cfg.region
    center = ((r.x_min + r.x_max) / 2.0, (r.y_min + r.y_max) / 2.0)
    placement = channel.Placement(
        uav=_parse_floats(args.uav, 3, "--uav") if args.uav else (*center, cfg.uav_alt_min_m),
        irs=_parse_floats(args.irs, 2, "--irs") if args.irs else center)
    try:
        channel.validate_placement(placement, cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = channel.channel_debug_table(placement, trace.positions[args.slot], cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "channel.csv"
    header = list(rows[0].keys()) if rows else []
    _write_csv(path, header, [[row[k] for k in header] for row in rows])
    print(f"wrote {path} ({len(rows)} users)")
    return 0


def _cmd_converge(args) -> int:
    cfg = _load_cfg(args)
    seed = scenario.resolve_master_seed(cfg, args.seed)
    name = resolve_scenarios([args.scenario])[0]
    if not 0 <= args.slot < cfg.num_slots:
        raise ConfigError(f"--slot: must be in [0, {cfg.num_slots - 1}]")
    record = run_experiment(cfg, [name], [seed]).convergence[name][args.slot]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "convergence.csv"
    rows = [[gen, *pair] for gen, pair in enumerate(zip(record["best"], record["mean"]))]
    _write_csv(path, ["generation", "best_fitness", "mean_fitness"], rows)
    print(f"wrote {path} ({len(rows)} generations)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirsim",
        description="UAV + mobile reflecting-surface network simulator and optimizer")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", help="config document (YAML)")
        p.add_argument("--seed", type=int, metavar="N", help="master seed override")
        p.add_argument("--out", default="out", metavar="DIR", help="output directory")

    run_p = sub.add_parser("run", help="run the full multi-seed experiment")
    common(run_p)
    run_p.add_argument("--seeds", type=int, metavar="N",
                       help="number of seeds to average (default: config num_seeds)")
    run_p.add_argument("--scenarios", metavar="LIST",
                       help="comma-separated scenario names (default: all)")
    run_p.add_argument("--trace", metavar="PATH",
                       help="externally supplied mobility trace CSV")
    run_p.set_defaults(func=_cmd_run)

    trace_p = sub.add_parser("trace", help="generate and export a mobility trace")
    common(trace_p)
    trace_p.set_defaults(func=_cmd_trace)

    inspect_p = sub.add_parser("inspect-channel", help="dump per-user channel internals")
    common(inspect_p)
    inspect_p.add_argument("--slot", type=int, default=0, metavar="T")
    inspect_p.add_argument("--uav", metavar="X,Y,Z", help="UAV position (default: center)")
    inspect_p.add_argument("--irs", metavar="X,Y", help="vehicle position (default: center)")
    inspect_p.set_defaults(func=_cmd_inspect_channel)

    conv_p = sub.add_parser("converge", help="export one slot's GA convergence curve")
    common(conv_p)
    conv_p.add_argument("--slot", type=int, default=0, metavar="T")
    conv_p.add_argument("--scenario", default="M-IRS-NOMA", metavar="NAME")
    conv_p.set_defaults(func=_cmd_converge)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
