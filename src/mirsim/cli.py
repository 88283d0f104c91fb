"""Experiment runner and command-line interface.

``run_experiment`` reproduces the benchmark protocol: one shared mobility
trace per seed, then every (seed, scenario) job's per-slot placement
searches, fed lazily to ``optimizer.optimize_jobs`` (which stacks them in
lockstep and bounds its own memory), whose winning placements'
``noma.SlotResult.of`` evaluations score the slots, averaged across seeds;
``converge`` is a one-seed, one-scenario run.  ``SCENARIOS`` is the one
place a scenario is defined, as an ``optimizer.Variant(surface, access)``:

* M-IRS-NOMA  -- joint UAV + vehicle placement every slot
* S-IRS-NOMA  -- vehicle frozen at the slot-1 joint optimum (or configured point)
* No-IRS-NOMA -- UAV only, no reflected link
* M-IRS-OMA   -- joint placement under the orthogonal-access baseline

Each ExperimentReport field is the results.json key of the same name; the
report's per-user and power-fraction rows are built here from each slot's
``noma.SlotResult``.  ``emit_outputs`` writes plot-ready CSVs and results.json,
exactly ``json.dumps(report, indent=2, sort_keys=True)`` plus a newline.  json.dumps
writes the document except its two big tables, per-user rows and power fractions,
which are formatted column by column, once for the JSON and for their CSV copies.  Exit
codes: 0 success, 1 when the outputs cannot be written, 2 config/usage error (an
unreadable config or trace file included), 3 when some slot's best placement
leaves every user below the SINR threshold (reported in the outputs, not fatal).
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from json.encoder import encode_basestring_ascii
from operator import itemgetter
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
_BLOCK_ROWS = 512  # table rows formatted at once: bounds the tokens held


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
    must equal num_users, and its slot count obeys num_slots' GA cap.
    """
    names = resolve_scenarios(scenarios)
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ConfigError("at least one seed required")
    if trace is not None:
        where = f"{trace.source}: " if trace.source is not None else ""
        if trace.num_users != cfg.num_users:
            raise ConfigError(f"{where}trace has {trace.num_users} users but "
                              f"num_users is {cfg.num_users}")
        scenario.check_slot_generations(cfg, trace.num_slots,
                                        f"{where}trace has {trace.num_slots} slots; ")

    report = ExperimentReport(
        config=asdict(cfg), seeds=seeds, scenarios=names,
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
        report.avg_sum_rate[name] = np.mean(report.per_seed_sum_rate[name], axis=0).tolist()

    base = _headline_scenario(names)
    for other in [name for name in names if name != base]:
        per_slot = [100.0 * (a - b) / b if b != 0 else None
                    for a, b in zip(report.avg_sum_rate[base], report.avg_sum_rate[other])]
        mean = float(np.mean(per_slot)) if None not in per_slot else None
        report.improvement_pct[f"{base} vs {other}"] = {
            "baseline": other, "per_slot": per_slot, "mean": mean}
    return report


def _record_first_seed_detail(report, name, slot, record):
    """Trajectories, convergence, per-user rows, and fractions from the first seed."""
    placement, result = record.placement, record.result
    report.trajectories.setdefault(name, []).append({
        "slot": slot, "uav": list(placement.uav),
        "irs": None if placement.irs is None else list(placement.irs)})
    report.convergence.setdefault(name, []).append(
        {"slot": slot, "best": record.best_fitness, "mean": record.mean_fitness})
    # validate() keeps every SINR > 0, so each has a finite dB value.
    sinr_db = scenario.linear_to_db(result.sinr)
    report.per_user["rows"].extend(map(list, zip(
        itertools.repeat(slot), itertools.repeat(name), itertools.count(), result.pair_id.tolist(),
        result.alpha.tolist(), sinr_db.tolist(), result.rate.tolist())))
    if name == report.fractions_scenario:
        pairs = list(zip(result.weak.tolist(), result.strong.tolist()))
        if result.mid is not None:
            pairs.append((result.mid, None))
        alpha = result.alpha.tolist()
        report.power_fractions.extend(
            {"scenario": name, "slot": slot, "pair": k, "weak_user": weak, "strong_user": strong,
             "alpha_weak": alpha[weak], "alpha_strong": 0.0 if strong is None else alpha[strong]}
            for k, (weak, strong) in enumerate(pairs))


def _write_text(path: Path, pieces) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _csv_text(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


def _column(values: list, nl: str) -> tuple[list[str], list[str]]:
    """A column's JSON tokens at the indent nl carries, and its cells as csv.writer writes
    them in rows of two or more; a number's token is also its cell."""
    kinds = set(map(type, values))
    if kinds == {int} or kinds == {float} and all(map(math.isfinite, values)):
        tokens = list(map(repr, values))
        return tokens, tokens
    if kinds == {str}:
        cells = {value: _csv_text([[value, 0]])[:-4] for value in set(values)}
        return list(map(encode_basestring_ascii, values)), list(map(cells.__getitem__, values))
    tokens = [json.dumps(value, indent=2, sort_keys=True, allow_nan=False).replace("\n", nl)
              for value in values]  # json rejects NaN and inf
    return tokens, [_csv_text([[value, 0]])[:-4] for value in values]


def _table(rows: list, nl: str, csv_keys) -> tuple[list[str], list[str]]:
    """(JSON pieces, CSV pieces) of a table of list rows of one width or dict rows of one key set.

    The JSON is json.dumps(rows, indent=2, sort_keys=True, allow_nan=False) at the indent nl
    carries; the CSV holds the csv_keys columns.  Both are formatted column by column,
    _BLOCK_ROWS rows at a time.
    """
    if not rows:
        return ["[]"], []
    kinds = set(map(type, rows))
    shapes = (set(map(len, rows)) if kinds == {list} else
              set(map(tuple, map(sorted, rows))) if kinds == {dict} else set())
    if len(shapes) != 1 or not (shape := shapes.pop()):
        raise TypeError("a table needs list rows of one width or dict rows of one key set")
    named = kinds == {dict}
    keys, inner, cell = shape if named else range(shape), nl + "  ", nl + "    "
    row = ",".join(f"{cell}{encode_basestring_ascii(key).replace('%', '%%')}: %s" if named
                   else cell + "%s" for key in keys)
    row = f"{{{row}{inner}}}" if named else f"[{row}{inner}]"
    json_pieces, csv_pieces = [], []
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        columns = {key: _column(list(map(itemgetter(key), block)), cell) for key in keys}
        json_pieces.append(("," if start else "[") + inner + ("," + inner).join(
            map(row.__mod__, zip(*(columns[key][0] for key in keys)))))
        csv_pieces.append("\r\n".join(map(",".join, zip(*(columns[key][1] for key in csv_keys))))
                          + "\r\n")
    return [*json_pieces, nl + "]"], csv_pieces


def emit_outputs(report: ExperimentReport, out_dir: str | Path) -> dict[str, Path]:
    """Write results.json and the CSV set; rerunning is byte-identical.

    results.json is json.dumps(report, indent=2, sort_keys=True) plus a newline.  A
    non-finite number in the report raises ValueError before any file is written.
    """
    users_json, users = _table(report.per_user["rows"], "\n    ", range(len(USERS_COLUMNS)))
    fractions_json, fractions = _table(report.power_fractions, "\n  ", FRACTIONS_COLUMNS)
    # No report value holds a NUL; sorted keys put per_user before power_fractions.
    mark = "\0table"
    head, middle, tail = json.dumps(
        {**vars(report), "per_user": {**report.per_user, "rows": mark}, "power_fractions": mark},
        indent=2, sort_keys=True, allow_nan=False).split(json.dumps(mark))
    results = [head, *users_json, middle, *fractions_json, tail, "\n"]
    trajectory = [TRAJECTORY_COLUMNS]
    for entry in report.trajectories.get(_headline_scenario(report.trajectories), []):
        trajectory.append([entry["slot"], "uav", *entry["uav"]])
        if entry["irs"] is not None:
            trajectory.append([entry["slot"], "irs", *entry["irs"], report.config["irs_height_m"]])
    texts = {
        "results.json": results,
        "users.csv": [_csv_text([USERS_COLUMNS]), *users],
        "fractions.csv": [_csv_text([FRACTIONS_COLUMNS]), *fractions],
        "rates.csv": [_csv_text([RATES_COLUMNS, *([slot, name, report.avg_sum_rate[name][slot]]
                      for slot in range(report.num_slots) for name in report.scenarios)])],
        "trajectory.csv": [_csv_text(trajectory)],
        "convergence.csv": [_csv_text([CONVERGENCE_COLUMNS, *(
            [name, rec["slot"], gen, best, mean] for name in report.scenarios
            for rec in report.convergence.get(name, [])
            for gen, (best, mean) in enumerate(zip(rec["best"], rec["mean"])))])]}
    for name, pieces in texts.items():
        _write_text(Path(out_dir) / name, pieces)
    return {name.split(".")[0]: Path(out_dir) / name for name in texts}


def _parse_floats(text: str, count: int, flag: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != count:
        raise ConfigError(f"{flag}: expected {count} comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def _cmd_run(args, cfg: ScenarioConfig, seed: int) -> int:
    num_seeds = args.seeds if args.seeds is not None else cfg.num_seeds
    if not 1 <= num_seeds <= scenario.MAX_SEEDS:
        raise ConfigError("--seeds: must be in [1, 10^4]")
    seeds = [seed + i for i in range(num_seeds)]
    trace = mobility.load_trace(args.trace, cfg.region) if args.trace else None

    report = run_experiment(cfg, args.scenarios, seeds, trace=trace)
    paths = emit_outputs(report, args.out)

    print(f"seeds {seeds[0]}..{seeds[-1]} ({len(seeds)}), "
          f"slots {report.num_slots}, scenarios {', '.join(report.scenarios)}")
    for name in report.scenarios:
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


def _cmd_trace(args, cfg: ScenarioConfig, seed: int) -> int:
    trace = mobility.generate_trace(cfg, scenario.stream(seed, scenario.MOBILITY_STREAM))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "trace.csv"
    mobility.save_trace(trace, path)
    print(f"wrote {path} ({trace.num_slots} slots x {trace.num_users} users)")
    return 0


def _cmd_inspect_channel(args, cfg: ScenarioConfig, seed: int) -> int:
    trace = mobility.generate_trace(cfg, scenario.stream(seed, scenario.MOBILITY_STREAM))
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
    path = Path(args.out) / "channel.csv"
    header = list(rows[0].keys()) if rows else []
    _write_text(path, [_csv_text([header, *([row[k] for k in header] for row in rows)])])
    print(f"wrote {path} ({len(rows)} users)")
    return 0


def _cmd_converge(args, cfg: ScenarioConfig, seed: int) -> int:
    report = run_experiment(cfg, [args.scenario], [seed])
    record = report.convergence[report.scenarios[0]][args.slot]
    path = Path(args.out) / "convergence.csv"
    rows = [[gen, *pair] for gen, pair in enumerate(zip(record["best"], record["mean"]))]
    _write_text(path, [_csv_text([["generation", "best_fitness", "mean_fitness"], *rows])])
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
    run_p.add_argument("--scenarios", metavar="LIST", default=list(SCENARIOS),
                       type=lambda text: text.split(",") if text else [],
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
    args = build_parser().parse_args(argv)
    try:
        cfg = scenario.load_config(args.config) if args.config else ScenarioConfig()
        seed = scenario.resolve_master_seed(cfg, args.seed)
        if "slot" in args and not 0 <= args.slot < cfg.num_slots:  # converge, inspect-channel
            raise ConfigError(f"--slot: must be in [0, {cfg.num_slots - 1}]")
        return args.func(args, cfg, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
