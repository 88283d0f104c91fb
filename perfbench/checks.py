"""Correctness checks on one mirsim run's output directory.

``check_run`` raises ``CheckError`` naming the first violated property.  It
recomputes every ``users.csv`` row with the independent reference model and
checks the properties the method must satisfy (README of this directory,
"Correctness checks").  Nothing is compared against stored output.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import reference

# scenario -> (surface: "mobile" | "static" | None, access)
SCENARIOS = {
    "M-IRS-NOMA": ("mobile", "noma"),
    "S-IRS-NOMA": ("static", "noma"),
    "No-IRS-NOMA": (None, "noma"),
    "M-IRS-OMA": ("mobile", "oma"),
}
OUTPUT_FILES = ("results.json", "rates.csv", "fractions.csv", "trajectory.csv",
                "convergence.csv", "users.csv")
REL = 1e-9


class CheckError(Exception):
    """An output violates a property of the method."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def close(a: float, b: float, rel: float = REL) -> bool:
    return math.isclose(a, b, rel_tol=rel)


def _reject_constant(token):
    raise CheckError(f"results.json: non-standard JSON constant {token}")


def load_results(path: Path) -> dict:
    """Parse results.json as strict JSON (no NaN or Infinity tokens)."""
    try:
        return json.loads(path.read_text(), parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"results.json: not valid JSON: {exc}") from exc


def read_csv(path: Path, columns: list[str]) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    require(bool(rows) and rows[0] == columns, f"{path.name}: header {rows[:1]} != {columns}")
    return rows[1:]


def read_trace(path: Path) -> np.ndarray:
    """Trace CSV -> positions, shape (slots, users, 2)."""
    rows = read_csv(path, ["slot", "user_id", "x", "y"])
    slots = 1 + max(int(r[0]) for r in rows)
    users = 1 + max(int(r[1]) for r in rows)
    require(len(rows) == slots * users, f"{path.name}: {len(rows)} rows for "
            f"{slots} slots x {users} users")
    positions = np.full((slots, users, 2), np.nan)
    for r in rows:
        positions[int(r[0]), int(r[1])] = float(r[2]), float(r[3])
    require(not np.isnan(positions).any(), f"{path.name}: missing (slot, user) entries")
    return positions


def check_trace(cfg: dict, positions: np.ndarray) -> None:
    """Positions stay in the region and move at most speed_max x slot_duration."""
    require(positions.shape[:2] == (cfg["num_slots"], cfg["num_users"]),
            f"trace shape {positions.shape[:2]} != (num_slots, num_users)")
    x, y = positions[..., 0], positions[..., 1]
    require(bool(np.all((x >= cfg["region_x_min"]) & (x <= cfg["region_x_max"])
                        & (y >= cfg["region_y_min"]) & (y <= cfg["region_y_max"]))),
            "trace: a position lies outside the region")
    x0, y0 = x[0], y[0]
    require(bool(np.all((x0 >= cfg["init_x_min"]) & (x0 <= cfg["init_x_max"])
                        & (y0 >= cfg["init_y_min"]) & (y0 <= cfg["init_y_max"]))),
            "trace: a slot-0 position lies outside the initial subregion")
    hop = np.hypot(np.diff(x, axis=0), np.diff(y, axis=0))
    limit = cfg["speed_max_mps"] * cfg["slot_duration_s"]
    require(bool(np.all(hop <= limit * (1 + 1e-12) + 1e-9)),
            f"trace: a user moved {hop.max()} m in one slot, limit {limit} m")


def check_run(out: Path, results: dict, cfg: dict, seeds: list[int],
              positions: np.ndarray, exit_code: int) -> None:
    """Property and reference-model checks on one `mirsim run` output."""
    for name in OUTPUT_FILES:
        require((out / name).is_file(), f"missing output {name}")
    names = results["scenarios"]
    slots = results["num_slots"]
    require(results["seeds"] == seeds, f"seeds {results['seeds']} != {seeds}")
    require(list(names) == list(SCENARIOS), f"scenarios {names}")
    require(slots == cfg["num_slots"], f"num_slots {slots} != {cfg['num_slots']}")
    require((exit_code == 3) == bool(results["infeasible_slots"]),
            f"exit code {exit_code} disagrees with infeasible_slots")

    expected = (cfg["population_size"] * (cfg["max_iterations"] + 1)
                * slots * len(names) * len(seeds))
    require(results["ga_evaluations"] == expected,
            f"ga_evaluations {results['ga_evaluations']} != {expected}")

    _check_rates(out, results, names, slots, len(seeds))
    _check_improvements(results, names)
    _check_placements(results, cfg, names, slots)
    _check_convergence(results, names, slots, cfg["max_iterations"])
    _check_fractions(out, results)
    _check_users(out, results, cfg, names, positions)


def _check_rates(out, results, names, slots, num_seeds):
    rates = read_csv(out / "rates.csv", ["slot", "scenario", "sum_rate"])
    require(len(rates) == slots * len(names), "rates.csv: wrong row count")
    for slot_s, name, value_s in rates:
        slot, value = int(slot_s), float(value_s)
        per_seed = results["per_seed_sum_rate"][name]
        require(len(per_seed) == num_seeds, f"{name}: {len(per_seed)} seed rows")
        column = [row[slot] for row in per_seed]
        require(all(math.isfinite(v) and v > 0 for v in column),
                f"{name} slot {slot}: a per-seed rate is not finite and > 0")
        require(close(value, math.fsum(column) / num_seeds),
                f"rates.csv {name} slot {slot}: {value} != mean over seeds")
        require(value == results["avg_sum_rate"][name][slot],
                f"rates.csv {name} slot {slot} differs from results.json")


def _check_improvements(results, names):
    base = "M-IRS-NOMA"
    for other in names[1:]:
        imp = results["improvement_pct"][f"{base} vs {other}"]
        a_rates, b_rates = results["avg_sum_rate"][base], results["avg_sum_rate"][other]
        per_slot = [100.0 * (a - b) / b for a, b in zip(a_rates, b_rates)]
        mean = math.fsum(per_slot) / len(per_slot)
        require(all(math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12)
                    for x, y in zip(imp["per_slot"], per_slot)),
                f"improvement_pct {base} vs {other}: per-slot values do not recompute")
        require(math.isclose(imp["mean"], mean, rel_tol=1e-12, abs_tol=1e-12),
                f"improvement_pct {base} vs {other}: mean does not recompute")


def _check_placements(results, cfg, names, slots):
    traj = results["trajectories"]
    for name in names:
        require(len(traj[name]) == slots, f"{name}: {len(traj[name])} trajectory entries")
        for entry in traj[name]:
            x, y, z = entry["uav"]
            where = f"{name} slot {entry['slot']}"
            require(cfg["region_x_min"] <= x <= cfg["region_x_max"]
                    and cfg["region_y_min"] <= y <= cfg["region_y_max"],
                    f"{where}: UAV outside the region")
            require(cfg["uav_alt_min_m"] <= z <= cfg["uav_alt_max_m"],
                    f"{where}: UAV altitude {z} outside the band")
            if SCENARIOS[name][0] is None:
                require(entry["irs"] is None, f"{where}: No-IRS has a surface position")
            else:
                ix, iy = entry["irs"]
                require(cfg["region_x_min"] <= ix <= cfg["region_x_max"]
                        and cfg["region_y_min"] <= iy <= cfg["region_y_max"],
                        f"{where}: vehicle outside the region")
    static = [e["irs"] for e in traj["S-IRS-NOMA"]]
    require(all(p == static[0] for p in static), "S-IRS vehicle moves between slots")
    if cfg["s_irs_x"] is None:
        require(static[0] == traj["M-IRS-NOMA"][0]["irs"],
                "S-IRS vehicle differs from the M-IRS slot-0 vehicle")


def _check_convergence(results, names, slots, generations):
    for name in names:
        curves = results["convergence"][name]
        require(len(curves) == slots, f"{name}: {len(curves)} convergence curves")
        for curve in curves:
            best = curve["best"]
            require(len(best) == generations + 1,
                    f"{name} slot {curve['slot']}: {len(best)} generations")
            require(all(b >= a for a, b in zip(best, best[1:])),
                    f"{name} slot {curve['slot']}: best fitness decreases")


def _check_fractions(out, results):
    rows = read_csv(out / "fractions.csv", ["slot", "pair", "alpha_weak", "alpha_strong"])
    require(len(rows) == len(results["power_fractions"]), "fractions.csv row count")
    for row, entry in zip(rows, results["power_fractions"]):
        aw, a_s = float(row[2]), float(row[3])
        require(aw == entry["alpha_weak"] and a_s == entry["alpha_strong"],
                "fractions.csv differs from results.json")
        require(abs(aw + a_s - 1.0) <= 1e-12 and aw >= a_s,
                f"slot {row[0]} pair {row[1]}: alpha_weak {aw}, alpha_strong {a_s}")


def _check_users(out, results, cfg, names, positions):
    """Recompute every users.csv row of the first seed with the reference model."""
    columns = ["slot", "scenario", "user", "pair_id", "alpha", "sinr_db", "rate"]
    rows = read_csv(out / "users.csv", columns)
    require([[str(v) for v in r] for r in results["per_user"]["rows"]] == rows,
            "users.csv differs from results.json per_user")
    table = {(int(r[0]), r[1], int(r[2])): r for r in rows}
    users = cfg["num_users"]
    require(len(table) == len(rows) == len(names) * results["num_slots"] * users,
            "users.csv: wrong or duplicate rows")
    for name in names:
        access = SCENARIOS[name][1]
        for entry in results["trajectories"][name]:
            slot = entry["slot"]
            expected = reference.slot_users(cfg, positions[slot], entry["uav"],
                                            entry["irs"], access)
            total = []
            for user, (pair, alpha, sinr, rate) in enumerate(expected):
                row = table[(slot, name, user)]
                where = f"users.csv {name} slot {slot} user {user}"
                got_rate = float(row[6])
                require(int(row[3]) == pair, f"{where}: pair {row[3]} != {pair}")
                require(close(float(row[4]), alpha), f"{where}: alpha {row[4]} != {alpha}")
                require(abs(float(row[5]) - 10.0 * math.log10(sinr)) <= 1e-7,
                        f"{where}: sinr_db {row[5]} != {10.0 * math.log10(sinr)}")
                require(math.isfinite(got_rate) and got_rate > 0 and close(got_rate, rate),
                        f"{where}: rate {row[6]} != {rate}")
                total.append(got_rate)
            seed_rate = results["per_seed_sum_rate"][name][0][slot]
            require(close(seed_rate, math.fsum(total)),
                    f"{name} slot {slot}: first-seed sum rate {seed_rate} != "
                    f"sum of its users' rates {math.fsum(total)}")
