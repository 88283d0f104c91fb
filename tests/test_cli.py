import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import typing
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from mirsim import channel, cli, mobility, noma, optimizer, scenario
from mirsim.channel import Placement
from mirsim.scenario import ConfigError

from testutil import config_yaml, small_config


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_resolve_scenarios_is_case_insensitive_and_deduplicates():
    names = cli.resolve_scenarios(["m-irs-noma", "M-IRS-NOMA", " no-irs-noma "])
    assert names == ["M-IRS-NOMA", "No-IRS-NOMA"]
    with pytest.raises(ConfigError, match="unknown scenario"):
        cli.resolve_scenarios(["X-IRS"])
    with pytest.raises(ConfigError):
        cli.resolve_scenarios([])


def test_minimal_experiment_shapes(tmp_path):
    cfg = small_config(num_slots=1)
    report = cli.run_experiment(cfg, ["No-IRS-NOMA"], [1])
    assert report.num_slots == 1
    assert list(report.avg_sum_rate) == ["No-IRS-NOMA"]
    assert len(report.avg_sum_rate["No-IRS-NOMA"]) == 1
    paths = cli.emit_outputs(report, tmp_path)
    rates = _read_csv(paths["rates"])
    assert rates[0] == cli.RATES_COLUMNS
    assert len(rates) == 2  # header + 1 scenario x 1 slot


def test_rates_csv_row_count_is_slots_times_scenarios(tmp_path):
    cfg = small_config(num_slots=3)
    names = ["M-IRS-NOMA", "S-IRS-NOMA", "No-IRS-NOMA"]
    report = cli.run_experiment(cfg, names, [1, 2])
    paths = cli.emit_outputs(report, tmp_path)
    assert len(_read_csv(paths["rates"])) == 1 + 3 * 3


def test_empty_report_writes_headers_only(tmp_path):
    paths = cli.emit_outputs(cli.ExperimentReport(), tmp_path)
    for name, columns in [("rates", cli.RATES_COLUMNS),
                          ("fractions", cli.FRACTIONS_COLUMNS),
                          ("trajectory", cli.TRAJECTORY_COLUMNS),
                          ("convergence", cli.CONVERGENCE_COLUMNS),
                          ("users", cli.USERS_COLUMNS)]:
        rows = _read_csv(paths[name])
        assert rows == [columns]
    assert json.loads(paths["results"].read_text())["scenarios"] == []


def test_rerun_is_byte_identical(tmp_path):
    cfg = small_config()
    names = ["M-IRS-NOMA", "No-IRS-NOMA"]
    a = cli.emit_outputs(cli.run_experiment(cfg, names, [1, 2]), tmp_path / "a")
    b = cli.emit_outputs(cli.run_experiment(cfg, names, [1, 2]), tmp_path / "b")
    for key in a:
        assert a[key].read_bytes() == b[key].read_bytes()


def test_improvements_recompute_from_reported_rates():
    cfg = small_config(num_slots=2)
    report = cli.run_experiment(cfg, ["M-IRS-NOMA", "No-IRS-NOMA"], [1, 2])
    label = "M-IRS-NOMA vs No-IRS-NOMA"
    base = report.avg_sum_rate["M-IRS-NOMA"]
    other = report.avg_sum_rate["No-IRS-NOMA"]
    for slot, value in enumerate(report.improvement_pct[label]["per_slot"]):
        assert value == 100.0 * (base[slot] - other[slot]) / other[slot]


def test_reported_trajectories_respect_bounds():
    cfg = small_config(num_slots=2)
    report = cli.run_experiment(cfg, ["M-IRS-NOMA"], [1])
    for entry in report.trajectories["M-IRS-NOMA"]:
        x, y, z = entry["uav"]
        assert cfg.region.contains(x, y)
        assert cfg.uav_alt_min_m <= z <= cfg.uav_alt_max_m
        assert cfg.region.contains(*entry["irs"])


def test_fraction_rows_are_normalized():
    cfg = small_config(num_slots=2, num_users=4)
    report = cli.run_experiment(cfg, ["M-IRS-NOMA"], [1])
    assert report.fractions_scenario == "M-IRS-NOMA"
    assert len(report.power_fractions) == 2 * 2  # slots x pairs
    for row in report.power_fractions:
        assert abs(row["alpha_weak"] + row["alpha_strong"] - 1.0) <= 1e-12
        assert row["alpha_weak"] >= row["alpha_strong"]


def test_fractions_match_users_csv_with_odd_count_and_favor_strong(tmp_path):
    cfg = small_config(num_slots=2, num_users=5, ftpa_favor_strong=True)
    report = cli.run_experiment(cfg, ["M-IRS-NOMA"], [1])
    paths = cli.emit_outputs(report, tmp_path)
    fractions = json.loads(paths["results"].read_text())["power_fractions"]
    users = {(int(row[0]), int(row[2])): row for row in _read_csv(paths["users"])[1:]}
    assert [(f["slot"], f["pair"]) for f in fractions] == [(s, k) for s in (0, 1) for k in (0, 1, 2)]
    for f in fractions:
        if f["pair"] == 2:
            assert f["strong_user"] is None
            assert (f["alpha_weak"], f["alpha_strong"]) == (1.0, 0.0)
        else:
            assert f["alpha_weak"] < f["alpha_strong"]
        for role in ("weak", "strong"):
            if f[f"{role}_user"] is not None:
                row = users[f["slot"], f[f"{role}_user"]]
                assert int(row[3]) == f["pair"]
                assert float(row[4]) == f[f"alpha_{role}"]


def test_headline_scenario_falls_back_without_m_irs_noma(tmp_path):
    cfg = small_config(num_slots=2)
    report = cli.run_experiment(cfg, ["M-IRS-OMA", "S-IRS-NOMA"], [1])
    assert report.fractions_scenario == "S-IRS-NOMA"
    assert list(report.improvement_pct) == ["M-IRS-OMA vs S-IRS-NOMA"]
    paths = cli.emit_outputs(report, tmp_path)
    fractions = json.loads(paths["results"].read_text())["power_fractions"]
    assert fractions and {f["scenario"] for f in fractions} == {"S-IRS-NOMA"}
    expected = []
    for entry in report.trajectories["M-IRS-OMA"]:
        expected.append([entry["slot"], "uav", *entry["uav"]])
        expected.append([entry["slot"], "irs", *entry["irs"], cfg.irs_height_m])
    rows = [[int(r[0]), r[1], *map(float, r[2:])] for r in _read_csv(paths["trajectory"])[1:]]
    assert rows == expected


def test_user_rows_cover_first_seed(tmp_path):
    cfg = small_config(num_slots=2, num_users=4)
    names = ["M-IRS-NOMA", "M-IRS-OMA"]
    report = cli.run_experiment(cfg, names, [1, 2])
    assert len(report.per_user["rows"]) == len(names) * 2 * 4
    paths = cli.emit_outputs(report, tmp_path)
    users = _read_csv(paths["users"])
    assert users[0] == cli.USERS_COLUMNS
    assert len(users) == 1 + len(report.per_user["rows"])


def test_user_rows_format():
    cfg = small_config(num_slots=2)
    report = cli.run_experiment(cfg, ["M-IRS-NOMA"], [1])
    trace = mobility.generate_trace(cfg, scenario.stream(1, scenario.MOBILITY_STREAM))
    rows = report.per_user["rows"]
    assert [row[:3] for row in rows] == [[s, "M-IRS-NOMA", u] for s in (0, 1) for u in range(4)]
    for slot, entry in enumerate(report.trajectories["M-IRS-NOMA"]):
        placement = Placement(uav=tuple(entry["uav"]), irs=tuple(entry["irs"]))
        result = noma.SlotResult.of(placement, trace.positions[slot], cfg, "noma")
        for user, row in enumerate(rows[4 * slot:4 * slot + 4]):
            _, _, _, pair_id, alpha, sinr_db, rate = row
            assert (pair_id, alpha, rate) == (result.pair_id[user], result.alpha[user],
                                              result.rate[user])
            assert math.isclose(sinr_db, 10.0 * math.log10(result.sinr[user]), rel_tol=1e-12)


def test_user_rows_match_the_per_element_oracle():
    cfg = small_config(num_users=5)
    trace = mobility.generate_trace(cfg, scenario.stream(3, scenario.MOBILITY_STREAM))
    result = noma.SlotResult.of(Placement(uav=(100.0, 100.0, 50.0), irs=(20.0, 30.0)),
                                trace.positions[0], cfg, "noma")
    # validate() keeps every SINR > 0: the least a float allows, and a vanishing one
    result.sinr[[0, 3]] = [5e-324, 1e-300]
    record = optimizer.GaRunRecord(Placement(uav=(100.0, 100.0, 50.0), irs=None), [0.0], [0.0],
                                   result)
    report = cli.ExperimentReport(fractions_scenario="M-IRS-NOMA")
    cli._record_first_seed_detail(report, "M-IRS-NOMA", 4, record)
    oracle = [[4, "M-IRS-NOMA", user, pair, float(result.alpha[user]),
               float(scenario.linear_to_db(sinr)), float(result.rate[user])]
              for user, (pair, sinr) in enumerate(zip(result.pair_id.tolist(),
                                                      result.sinr.tolist()))]
    rows = report.per_user["rows"]
    assert rows == oracle and math.isfinite(rows[0][5]) and rows[3][5] == -3000.0
    assert [[type(cell) for cell in row] for row in rows] == \
        [[type(cell) for cell in row] for row in oracle]
    assert [(f["weak_user"], f["strong_user"], f["alpha_weak"], f["alpha_strong"])
            for f in report.power_fractions] == [
        *((w, s, float(result.alpha[w]), float(result.alpha[s]))
          for w, s in zip(result.weak.tolist(), result.strong.tolist())),
        (result.mid, None, float(result.alpha[result.mid]), 0.0)]


def test_seed_results_do_not_depend_on_the_other_seeds():
    cfg = small_config(num_slots=3, population_size=12, max_iterations=6)
    names = list(cli.SCENARIOS)
    pair = cli.run_experiment(cfg, names, [7, 8])
    alone = cli.run_experiment(cfg, names, [8])
    first = cli.run_experiment(cfg, names, [8, 7])
    for name in names:
        assert pair.per_seed_sum_rate[name][1] == alone.per_seed_sum_rate[name][0]
        assert first.per_seed_sum_rate[name][0] == alone.per_seed_sum_rate[name][0]

    def seed_8_rows(report):
        return [row for row in report.infeasible_slots if row["seed"] == 8]

    assert seed_8_rows(pair) == seed_8_rows(alone) == seed_8_rows(first)
    # first-seed detail: seed 8 leading [8, 7] reports what seed 8 alone reports
    for key in ("trajectories", "convergence", "per_user", "power_fractions"):
        assert getattr(first, key) == getattr(alone, key)


def _report_of(**overrides) -> dict:
    """A small four-scenario report's fields, all but the config it echoes."""
    cfg = small_config(num_slots=2, population_size=6, max_iterations=3, **overrides)
    report = vars(cli.run_experiment(cfg, list(cli.SCENARIOS), [7, 8]))
    return {key: value for key, value in report.items() if key != "config"}


@pytest.mark.parametrize("one, other", [
    # The transmit SNR is their difference, exact at whole dB.
    (dict(uav_tx_power_dbm=36.0, noise_power_dbm=-80.0),
     dict(uav_tx_power_dbm=46.0, noise_power_dbm=-70.0)),
    # The reflected gain scales by N^2 times the coefficient: 1.0 exactly in both.
    (dict(irs_elements_per_user=1, irs_reflection_coeff=1.0),
     dict(irs_elements_per_user=2, irs_reflection_coeff=0.25)),
])
def test_configs_that_state_one_link_budget_give_one_report(one, other):
    # Metamorphic relations: two ways to write the same link budget.
    assert _report_of(**one) == _report_of(**other)


def test_run_experiment_takes_numpy_seeds_and_refuses_none(tmp_path):
    cfg = small_config(num_slots=1, population_size=4, max_iterations=1)
    with pytest.raises(ConfigError, match="seed"):
        cli.run_experiment(cfg, ["No-IRS-NOMA"], [])
    cli.emit_outputs(cli.run_experiment(cfg, ["No-IRS-NOMA"], np.arange(2, 4)), tmp_path)
    assert json.loads((tmp_path / "results.json").read_text())["seeds"] == [2, 3]


def test_seed_stacks_do_not_change_the_report(monkeypatch):
    cfg = small_config(num_slots=2, population_size=6, max_iterations=3)
    names = list(cli.SCENARIOS)
    whole = cli.run_experiment(cfg, names, [7, 8, 9])
    monkeypatch.setattr(optimizer, "_STACK_NUMBERS", 1)  # one job per lockstep stack
    assert vars(cli.run_experiment(cfg, names, [7, 8, 9])) == vars(whole)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_worker_count_does_not_change_the_report(monkeypatch, workers):
    cfg = small_config(num_slots=2, population_size=6, max_iterations=3)
    names = list(cli.SCENARIOS)
    whole = cli.run_experiment(cfg, names, [7, 8, 9])
    monkeypatch.setattr(optimizer, "_STACK_NUMBERS", 1)  # twelve one-job stacks
    monkeypatch.setattr(optimizer, "_WORKERS", workers)
    assert vars(cli.run_experiment(cfg, names, [7, 8, 9])) == vars(whole)


def test_external_trace_reproduces_internal_run(tmp_path):
    cfg = small_config(num_slots=2)
    internal = cli.run_experiment(cfg, ["No-IRS-NOMA"], [7])
    trace = mobility.generate_trace(cfg, scenario.stream(7, scenario.MOBILITY_STREAM))
    path = tmp_path / "trace.csv"
    mobility.save_trace(trace, path)
    external = cli.run_experiment(cfg, ["No-IRS-NOMA"], [7],
                                  trace=mobility.load_trace(path, cfg.region))
    assert external.avg_sum_rate == internal.avg_sum_rate


def test_run_experiment_rejects_trace_with_other_user_count():
    trace = mobility.generate_trace(small_config(num_users=3),
                                    scenario.stream(7, scenario.MOBILITY_STREAM))
    with pytest.raises(ConfigError, match="^trace has 3 users but num_users is 4$"):
        cli.run_experiment(small_config(), ["No-IRS-NOMA"], [7], trace=trace)


def _write_small_config(tmp_path, **overrides) -> Path:
    cfg = small_config(**overrides)
    path = tmp_path / "config.yaml"
    path.write_text(config_yaml(cfg))
    return path


def test_cli_run_writes_outputs_and_reports_infeasibility(tmp_path, capsys):
    cfg_path = _write_small_config(tmp_path, snr_threshold_db=200.0, num_slots=1)
    rc = cli.main(["run", "--config", str(cfg_path), "--seeds", "1",
                   "--scenarios", "No-IRS-NOMA", "--out", str(tmp_path / "out")])
    assert rc == 3  # nobody can reach a 200 dB SINR threshold
    assert (tmp_path / "out" / "results.json").exists()
    assert "No-IRS-NOMA" in capsys.readouterr().out


def test_cli_run_success_exit_code(tmp_path):
    cfg_path = _write_small_config(tmp_path, snr_threshold_db=-200.0, num_slots=1)
    rc = cli.main(["run", "--config", str(cfg_path), "--seeds", "1",
                   "--scenarios", "M-IRS-NOMA", "--out", str(tmp_path / "out")])
    assert rc == 0


def test_cli_rejects_unknown_scenario(tmp_path, capsys):
    cfg_path = _write_small_config(tmp_path)
    rc = cli.main(["run", "--config", str(cfg_path), "--seeds", "1",
                   "--scenarios", "W-IRS-NOMA", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("speed_min_mps: 5.0\nspeed_max_mps: 1.0\n")
    rc = cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "speed_min" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("uav_tx_power_dbm", ".nan"),
    ("region_x_max", ".inf"),
    ("region_x_max", "-.inf"),
    ("noise_power_dbm", "1" + "0" * 400),
    ("uav_tx_power_dbm", "1.0e+10"),
    ("noise_power_dbm", "-1.0e+10"),
    ("snr_threshold_db", "1.0e+10"),
    ("region_x_max", "1.0e+300"),
    ("nlos_slope", "1.0e+10"),
    ("los_intercept_db", "1.0e+10"),
    ("los_intercept_db", "-1.0e+10"),
    ("nlos_intercept_db", "-1.0e+10"),
])
def test_cli_rejects_non_finite_config_numbers(tmp_path, capsys, key, value):
    bad = tmp_path / "bad.yaml"
    bad.write_text(f"{key}: {value}\n")
    rc = cli.main(["run", "--config", str(bad), "--seeds", "1",
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert key in err and "finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, keys", [
    # the UAV can sit on the surface: zero UAV-to-surface distance
    ("irs_uav_leg_enabled: true\nirs_height_m: 100\nbits_per_coordinate: 1\n",
     ["irs_height_m", "uav_alt_min_m", "irs_uav_leg_enabled"]),
    # N^2 overflows a float
    (f"irs_elements_per_user: {10**180}\n", ["irs_elements_per_user"]),
    # 4 x 10^10 mobility sub-steps
    ("slot_duration_s: 1.0e+10\n", ["slot_duration_s", "substep_duration_s"]),
    # no mobility sub-step per slot
    ("slot_duration_s: 1.0e-10\n", ["slot_duration_s", "substep_duration_s"]),
    ("substep_duration_s: 1.0e+12\n", ["slot_duration_s", "substep_duration_s"]),
    # int64 decode weights overflow
    ("bits_per_coordinate: 64\n", ["bits_per_coordinate"]),
    # size caps: 1.001 x 10^6 users x population, 1.01 x 10^5 trace rows,
    # 2 x 10^8 user-steps, 10^4 + 1 generations and seeds
    ("num_users: 1001\npopulation_size: 1000\n", ["num_users", "population_size"]),
    ("num_users: 1000\nnum_slots: 101\n", ["num_users", "num_slots"]),
    ("num_users: 1000\nnum_slots: 3\nslot_duration_s: 100000\n",
     ["num_users", "num_slots", "slot_duration_s", "substep_duration_s"]),
    ("max_iterations: 10001\n", ["max_iterations"]),
    ("num_seeds: 10001\n", ["num_seeds"]),
    # one job's tournament keys, (population_size)^2 doubles per generation
    ("population_size: 1001\n", ["population_size"]),
    # overflow in the blockage exponent and the sigmoid's exp; a LoS probability above 1
    ("blocker_density_per_m2: 1.0e+300\nblocker_height_m: 1.0e+300\n",
     ["blocker_density_per_m2", "blocker_height_m"]),
    ("los_model: sigmoid\nsigmoid_alpha: 1.0e+300\n", ["sigmoid_alpha", "sigmoid_beta"]),
    ("los_model: sigmoid\nsigmoid_alpha: -1\n", ["sigmoid_alpha", "sigmoid_beta"]),
    # seed streams take no negative seed
    ("master_seed: -1\n", ["master_seed"]),
    # 10^5 slots x 10,001 generations: 2 x 10^9 fitness values in one job's records
    ("num_users: 1\nnum_slots: 100000\nslot_duration_s: 1\nmax_iterations: 10000\n"
     "population_size: 3\n", ["num_slots", "max_iterations"]),
    # N^2 overflows a float, though a surface 10^25 m up keeps N^2 x its gain, and that
    # over the weakest direct gain, finite
    (f"irs_elements_per_user: {10**180}\nirs_height_m: 1.0e+25\n", ["irs_elements_per_user"]),
    # a NOMA pair's FTPA ratio: 2 x 10^300 at 100 m (direct plus reflected) over 6 x 10^-55
    # at the 768 m corner overflows, though each gain alone is finite
    ("los_intercept_db: -11000\nnlos_intercept_db: -11000\nlos_slope: 400\nnlos_slope: 400\n"
     "irs_height_m: 100\nuav_tx_power_dbm: 0\nnoise_power_dbm: 0\nftpa_favor_strong: true\n",
     ["los_intercept_db", "los_slope", "nlos_intercept_db", "nlos_slope", "irs_height_m",
      "region_x_max", "uav_alt_min_m", "uav_alt_max_m"]),
    # a 10^-310 transmit SNR is > 0, but its reciprocal, the noise floor of a weak
    # NOMA user's SINR, overflows to inf
    ("uav_tx_power_dbm: -1600\nnoise_power_dbm: 1500\n", ["uav_tx_power_dbm", "noise_power_dbm"]),
    # gains of about 10^-205 times a 10^-150 SNR: every SINR underflows to 0
    ("los_intercept_db: 2000\nnlos_intercept_db: 2000\nuav_tx_power_dbm: -1500\n"
     "noise_power_dbm: 0\n", ["los_intercept_db", "nlos_intercept_db", "ftpa_decay",
                              "ftpa_favor_strong", "uav_tx_power_dbm", "noise_power_dbm"]),
    # near-flat laws keep every gain finite, but the kernels' squared link lengths
    # overflow: a 10^155 m square region, a 10^200 m ceiling, a 10^200 m high surface
    ("region_x_max: 1.0e+155\nregion_y_max: 1.0e+155\nlos_slope: 0.001\nnlos_slope: 0.001\n"
     "num_slots: 2\nmax_iterations: 3\npopulation_size: 8\n",
     ["region_x_max", "region_y_max", "uav_alt_max_m"]),
    ("uav_alt_max_m: 1.0e+200\nlos_slope: 0.001\nnlos_slope: 0.001\n"
     "num_slots: 2\nmax_iterations: 3\npopulation_size: 8\n", ["uav_alt_max_m"]),
    ("irs_height_m: 1.0e+200\nlos_slope: 0.001\nnlos_slope: 0.001\n"
     "num_slots: 2\nmax_iterations: 3\npopulation_size: 8\n", ["irs_height_m"]),
    # a sigmoid exponent of 10 x 70.99 = 709.9 at the horizon, past exp's 709.78 limit
    ("los_model: sigmoid\nsigmoid_alpha: 10\nsigmoid_beta: 70.99\n",
     ["sigmoid_alpha", "sigmoid_beta"]),
])
def test_cli_rejects_config_it_cannot_run(tmp_path, capsys, doc, keys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(doc)
    rc = cli.main(["run", "--config", str(bad), "--seeds", "1",
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert all(key in err for key in keys) and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rows, message", [
    ("slot,user,x,y\n0,0,1.0,1.0\n", "line 1: expected header"),
    ("slot,user_id,x,y\n0,0,1.0,abc\n", "line 2: could not convert"),
    ("slot,user_id,x,y\n0,zero,1.0,1.0\n", "line 2: invalid literal"),
    ("slot,user_id,x,y\n0,0,1.0,1.0\n0,1,2.0\n", "line 3: expected 4 fields, got 3"),
    ("slot,user_id,x,y\n0,0,nan,1.0\n", "line 2: position (nan, 1.0) is not finite"),
    ("slot,user_id,x,y\n0,0,1.0,inf\n", "line 2: position (1.0, inf) is not finite"),
    ("slot,user_id,x,y\n-1,0,1.0,1.0\n", "line 2: slot and user_id must be >= 0"),
    ("slot,user_id,x,y\n0,0,1.0,1.0\n0,0,2.0,2.0\n", "line 3: duplicate entry"),
    ("slot,user_id,x,y\n0,0,1.0,1.0\n1000000000,0,1.0,1.0\n",
     "missing entry for slot 1, user 0"),
    ("slot,user_id,x,y\n0,0,600.0,10.0\n", "outside region"),
    ("slot,user_id,x,y\n", "empty trace"),
    ("slot,user_id,x,y\n0,0,\xff,1.0\n", "not a readable CSV text file"),
    ("slot,user_id,x,y\n0,0,1.0," + "9" * 200_000 + "\n", "not a readable CSV text file"),
    ("slot,user_id,x,y\n0,0,1.0,1.0\n", "trace has 1 users but num_users is 4"),
    # 10 users x 10,001 slots: one entry past the cap of 10^5
    ("slot,user_id,x,y\n" + "".join(f"{slot},{user},1.0,1.0\n" for slot in range(10_001)
                                    for user in range(10)),
     "line 100002: more than 10^5 entries"),
])
def test_cli_rejects_malformed_trace_csv(tmp_path, capsys, rows, message):
    cfg_path = _write_small_config(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(rows.encode("latin-1"))
    rc = cli.main(["run", "--config", str(cfg_path), "--seeds", "1",
                   "--scenarios", "No-IRS-NOMA", "--trace", str(bad),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{bad}: " in err and message in err
    assert not (tmp_path / "out").exists()


_TRACE_JUNK = st.one_of(
    st.sampled_from(["", "-1", "3", "1e400", "nan", "-inf", "600.0", "abc", '"', "\x00"]),
    st.text(st.characters(max_codepoint=255), max_size=4))


@st.composite
def _trace_csvs(draw) -> bytes:
    """A trace CSV for up to 3 slots of mostly 2 users, often with a cell, row or line broken."""
    coordinate = st.floats(0.0, 500.0).map(repr)
    num_users = draw(st.sampled_from([2, 2, 1, 3]))
    rows = [["slot", "user_id", "x", "y"]] + [
        [str(slot), str(user), draw(coordinate), draw(coordinate)]
        for slot in range(draw(st.integers(1, 3))) for user in range(num_users)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        row = draw(st.integers(0, len(rows) - 1))
        fault = draw(st.sampled_from(["cell", "drop", "repeat", "short"]))
        if fault == "cell" and rows[row]:
            rows[row][draw(st.integers(0, len(rows[row]) - 1))] = draw(_TRACE_JUNK)
        elif fault == "drop":
            del rows[row]
        elif fault == "repeat":
            rows.append(list(rows[row]))
        else:
            rows[row] = rows[row][:draw(st.integers(0, 3))]
        if not rows:
            break
    return "".join(",".join(row) + "\n" for row in rows).encode("latin-1")


@settings(max_examples=100, deadline=None)
@given(_trace_csvs())
def test_cli_run_survives_fuzzed_trace_csv(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "config.yaml"
        cfg_path.write_text(config_yaml(small_config(num_users=2, population_size=4,
                                                     max_iterations=1, bits_per_coordinate=4)))
        trace_path = Path(tmp) / "trace.csv"
        trace_path.write_bytes(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(["run", "--config", str(cfg_path), "--seeds", "1", "--trace",
                           str(trace_path), "--out", str(Path(tmp) / "out")])
        assert rc in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()


def test_emit_outputs_writes_nothing_for_non_finite_values(tmp_path):
    # One place per writing path: each table's formatter, a curve and a headline rate.
    places = {
        "per_user": lambda v: {"columns": cli.USERS_COLUMNS,
                               "rows": [[0, "M-IRS-NOMA", 0, 0, 0.5, 3.0, 1.0],
                                        [0, "M-IRS-NOMA", 1, 0, 0.5, v, 1.0]]},
        "power_fractions": lambda v: [{"scenario": "M-IRS-NOMA", "slot": 0, "pair": 0,
                                       "weak_user": 0, "strong_user": 1,
                                       "alpha_weak": v, "alpha_strong": 0.8}],
        "convergence": lambda v: {"M-IRS-NOMA": [{"slot": 0, "best": [1.0, v],
                                                  "mean": [0.5, 0.7]}]},
        "avg_sum_rate": lambda v: {"M-IRS-NOMA": [v]},
    }
    report = cli.ExperimentReport(scenarios=["M-IRS-NOMA"], num_slots=1,
                                  avg_sum_rate={"M-IRS-NOMA": [1.0]})
    for (name, place), bad in itertools.product(places.items(),
                                                [math.nan, math.inf, -math.inf]):
        out = tmp_path / f"{name}-{bad}"
        with pytest.raises(ValueError, match="JSON compliant"):
            cli.emit_outputs(dataclasses.replace(report, **{name: place(bad)}), out)
        assert not out.exists() or not any(out.iterdir()), (name, bad)


@pytest.mark.parametrize("name", ["missing.csv", "a_directory"])
def test_cli_rejects_unreadable_trace(tmp_path, capsys, name):
    (tmp_path / "a_directory").mkdir()
    path = tmp_path / name
    rc = cli.main(["run", "--config", str(_write_small_config(tmp_path)), "--seeds", "1",
                   "--trace", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"cannot read trace {path}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_caps_a_trace_slot_count_times_generations(tmp_path, capsys):
    # 10^4 generations pass with 5 configured slots, but a 101-slot trace makes
    # 101 x 10,001 > 10^6; 99 slots would stay within the cap.
    cfg_path = _write_small_config(tmp_path, num_users=1, max_iterations=10_000)
    trace = tmp_path / "trace.csv"
    trace.write_text("slot,user_id,x,y\n" + "".join(f"{slot},0,1.0,1.0\n" for slot in range(101)))
    rc = cli.main(["run", "--config", str(cfg_path), "--seeds", "1", "--trace", str(trace),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert (f"config error: {trace}: trace has 101 slots; num_slots/max_iterations: "
            "num_slots x (max_iterations + 1)") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, key, line", [
    ("num_users: 10\nnum_users: 20\n", "num_users", 2),
    ("num_slots: 3\npopulation_size: 8\n\n'num_slots': 4\n", "num_slots", 4),
    ("<<: {num_users: 2, num_users: 3}\n", "num_users", 1),
])
def test_cli_rejects_a_repeated_config_key(tmp_path, capsys, doc, key, line):
    bad = tmp_path / "bad.yaml"
    bad.write_text(doc)
    rc = cli.main(["trace", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: config key {key!r} repeated at line {line}\n"
    assert not (tmp_path / "out").exists()


def test_cli_accepts_merge_keys_that_an_explicit_key_overrides(tmp_path):
    doc = tmp_path / "merge.yaml"
    doc.write_text("<<: [{num_users: 2, num_slots: 2}, {num_users: 4}]\nnum_slots: 3\n")
    assert cli.main(["trace", "--config", str(doc), "--out", str(tmp_path / "out")]) == 0
    trace = mobility.load_trace(tmp_path / "out" / "trace.csv", scenario.ScenarioConfig().region)
    assert (trace.num_slots, trace.num_users) == (3, 2)


def test_cli_rejects_empty_scenario_list(tmp_path, capsys):
    rc = cli.main(["run", "--config", str(_write_small_config(tmp_path)), "--seeds", "1",
                   "--scenarios", "", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "at least one scenario required" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_exits_1_when_outputs_cannot_be_written(tmp_path, capsys):
    blocked = tmp_path / "file"
    blocked.write_text("")
    rc = cli.main(["converge", "--config", str(_write_small_config(tmp_path)),
                   "--out", str(blocked)])
    assert rc == 1
    assert str(blocked) in capsys.readouterr().err


def _child_env() -> dict:
    """This environment without MIRSIM_SEED, with the package's source on PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k != scenario.ENV_SEED_VAR}
    src = str(Path(cli.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point_runs(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "mirsim", "converge", "--out", str(tmp_path)],
                          env=_child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert _read_csv(tmp_path / "convergence.csv")[0] == [
        "generation", "best_fitness", "mean_fitness"]


def test_console_script_passes_the_exit_code_through(tmp_path):
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    target = re.search(r'^\[project\.scripts\]\nmirsim = "([^"]*)"$', pyproject, re.M)
    assert target is not None and target[1] == "mirsim.cli:entrypoint"
    module, function = target[1].split(":")
    proc = subprocess.run([sys.executable, "-c", f"import {module}; {module}.{function}()",
                           "run", "--seeds", "0", "--out", str(tmp_path / "out")],
                          env=_child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr and "Traceback" not in proc.stderr


def test_cli_run_with_external_trace(tmp_path):
    cfg_path = _write_small_config(tmp_path, num_slots=2)
    rc = cli.main(["trace", "--config", str(cfg_path), "--seed", "5",
                   "--out", str(tmp_path / "t")])
    assert rc == 0
    rc = cli.main(["run", "--config", str(cfg_path), "--seeds", "1",
                   "--scenarios", "No-IRS-NOMA", "--trace", str(tmp_path / "t" / "trace.csv"),
                   "--out", str(tmp_path / "out")])
    assert rc in (0, 3)
    assert (tmp_path / "out" / "rates.csv").exists()


def test_cli_rejects_subregion_outside_region_also_under_trace(tmp_path, capsys):
    rc = cli.main(["trace", "--config", str(_write_small_config(tmp_path)),
                   "--out", str(tmp_path / "t")])
    assert rc == 0
    bad = tmp_path / "bad.yaml"  # the trace's positions lie inside the region
    bad.write_text(yaml.safe_dump({**dataclasses.asdict(small_config()),
                                   "init_x_max": 600.0}))
    for trace in ([], ["--trace", str(tmp_path / "t" / "trace.csv")]):
        rc = cli.main(["run", "--config", str(bad), "--seeds", "1", *trace,
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "init_x_*/init_y_*: initial subregion must lie inside the region" \
            in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, env_seed, flag", [
    (["run", "--seed", "-1", "--seeds", "1"], None, "--seed"),
    (["trace"], "-3", "MIRSIM_SEED"),
    (["run", "--seeds", "10001"], None, "--seeds"),
    (["run", "--seeds", "0"], None, "--seeds"),
])
def test_cli_rejects_out_of_range_seeds(tmp_path, capsys, monkeypatch, argv, env_seed, flag):
    if env_seed is not None:
        monkeypatch.setenv(scenario.ENV_SEED_VAR, env_seed)
    cfg_path = _write_small_config(tmp_path)
    rc = cli.main([*argv, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{flag}: must be" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_seed_precedence(tmp_path, monkeypatch):
    cfg_path = _write_small_config(tmp_path)
    monkeypatch.setenv(scenario.ENV_SEED_VAR, "11")
    assert cli.main(["trace", "--config", str(cfg_path), "--out", str(tmp_path / "env")]) == 0
    monkeypatch.delenv(scenario.ENV_SEED_VAR)
    assert cli.main(["trace", "--config", str(cfg_path), "--seed", "11",
                     "--out", str(tmp_path / "flag")]) == 0
    assert cli.main(["trace", "--config", str(cfg_path), "--seed", "12",
                     "--out", str(tmp_path / "other")]) == 0
    env_trace = (tmp_path / "env" / "trace.csv").read_bytes()
    assert env_trace == (tmp_path / "flag" / "trace.csv").read_bytes()
    assert env_trace != (tmp_path / "other" / "trace.csv").read_bytes()
    monkeypatch.setenv(scenario.ENV_SEED_VAR, "11")
    assert cli.main(["trace", "--config", str(cfg_path), "--seed", "12",
                     "--out", str(tmp_path / "flagwins")]) == 0
    assert (tmp_path / "flagwins" / "trace.csv").read_bytes() \
        == (tmp_path / "other" / "trace.csv").read_bytes()


def test_cli_inspect_channel(tmp_path, capsys):
    cfg_path = _write_small_config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["inspect-channel", "--config", str(cfg_path), "--seed", "1",
                   "--uav", "100,100,150", "--irs", "50,50", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out / "channel.csv")
    assert rows[0] == ["user", "x", "y", "distance_3d_m", "horizontal_m", "p_los",
                       "avg_pathloss_db", "uav_gain", "irs_gain"]
    assert len(rows) == 1 + small_config().num_users

    for uav in ("1,2", "a,1,2"):  # too few numbers; not a number
        rc = cli.main(["inspect-channel", "--config", str(cfg_path), "--uav", uav,
                       "--out", str(out)])
        assert rc == 2
        assert "--uav: " in capsys.readouterr().err
    rc = cli.main(["inspect-channel", "--config", str(cfg_path), "--slot", "99",
                   "--out", str(out)])
    assert rc == 2
    rc = cli.main(["inspect-channel", "--config", str(cfg_path),
                   "--uav", "100,100,50", "--out", str(out)])
    assert rc == 2  # below the altitude floor


@pytest.mark.parametrize("los_model", ["blockage", "sigmoid"])
def test_inspect_channel_rows_are_the_ga_kernels_bits(tmp_path, los_model):
    # channel.csv states each user's channel at one placement by the laws the GA
    # scores candidates with: its gains equal a stacked link_gains call's bits for
    # that placement among others, and its q and LoS probability are the kernel's.
    cfg_path = _write_small_config(tmp_path, los_model=los_model, irs_uav_leg_enabled=True)
    out = tmp_path / "out"
    assert cli.main(["inspect-channel", "--config", str(cfg_path), "--seed", "4", "--slot", "1",
                     "--uav", "120.5,300.25,150", "--irs", "40,410.75", "--out", str(out)]) == 0
    header, *rows = _read_csv(out / "channel.csv")
    table = {key: np.array([float(row[k]) for row in rows]) for k, key in enumerate(header)}
    cfg = small_config(los_model=los_model, irs_uav_leg_enabled=True)
    users = mobility.generate_trace(cfg, scenario.stream(4, scenario.MOBILITY_STREAM)).positions[1]
    uav = np.array([[[10.0, 20.0, 110.0], [120.5, 300.25, 150.0], [480.0, 5.0, 300.0]]])
    irs = np.array([[[1.0, 2.0], [40.0, 410.75], [3.0, 4.0]]])
    gu, gi = channel.link_gains(uav, irs, users[None, None], cfg)
    assert np.array_equal(table["uav_gain"], gu[0, 1])
    assert np.array_equal(table["irs_gain"], gi[0, 1])
    assert np.array_equal(table["avg_pathloss_db"],
                          channel.uav_link_pathloss(uav, users[None, None], cfg)[0, 1])
    dx, dy = 120.5 - users[:, 0], 300.25 - users[:, 1]
    assert np.array_equal(table["horizontal_m"], np.sqrt(dx * dx + dy * dy))
    assert np.array_equal(table["p_los"], channel.los_probability(
        table["horizontal_m"], np.full((1, 1), 150.0), cfg)[0])


def test_cli_converge(tmp_path):
    cfg_path = _write_small_config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["converge", "--config", str(cfg_path), "--seed", "1",
                   "--scenario", "No-IRS-NOMA", "--slot", "1", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out / "convergence.csv")
    assert rows[0] == ["generation", "best_fitness", "mean_fitness"]
    assert len(rows) == 1 + small_config().max_iterations + 1


@pytest.mark.parametrize("name", ["S-IRS-NOMA", "No-IRS-NOMA", "M-IRS-OMA"])
def test_cli_one_scenario_reproduces_its_rows_of_the_full_run(tmp_path, name):
    # A job's results do not depend on which jobs share the GA stack, nor on
    # where the full run lists its scenario: the stack holds its jobs in access
    # order, so an OMA-first list is reordered inside it.  A lone No-IRS-NOMA
    # stack passes link_gains no surface at all, and reproduces the rows that
    # the mixed stack scores with zeroed reflected gains.  A lone M-IRS-OMA
    # stack has one access mode and a surface.
    cfg_path = _write_small_config(tmp_path, num_users=5, num_slots=3,
                                   max_slot_displacement_m=40.0)
    common = ["run", "--config", str(cfg_path), "--seeds", "2", "--seed", "3"]
    assert cli.main(common + ["--out", str(tmp_path / "all")]) in (0, 3)
    assert cli.main(common + ["--scenarios", name,
                              "--out", str(tmp_path / "one")]) in (0, 3)
    assert cli.main(common + ["--scenarios", "M-IRS-OMA,No-IRS-NOMA,S-IRS-NOMA,M-IRS-NOMA",
                              "--out", str(tmp_path / "oma-first")]) in (0, 3)
    both = {}
    for run in ("all", "one", "oma-first"):
        out = tmp_path / run
        doc = json.loads((out / "results.json").read_text())
        both[run] = (
            [row for row in _read_csv(out / "rates.csv") if row[1] == name],
            [row for row in _read_csv(out / "users.csv") if row[1] == name],
            [row for row in _read_csv(out / "convergence.csv") if row[0] == name],
            [row for row in doc["infeasible_slots"] if row["scenario"] == name],
            doc["per_seed_sum_rate"][name], doc["trajectories"][name])
    assert all(both["one"][:3])
    assert both["all"] == both["one"]
    assert both["oma-first"] == both["one"]
    docs = [json.loads((tmp_path / run / "results.json").read_text())
            for run in ("all", "oma-first")]
    for key in ("per_seed_sum_rate", "trajectories", "convergence"):
        assert docs[0][key] == docs[1][key], key


def test_cli_outputs_are_deterministic(tmp_path):
    cfg_path = _write_small_config(tmp_path, num_slots=2)
    common = ["run", "--config", str(cfg_path), "--seeds", "2",
              "--scenarios", "M-IRS-NOMA,No-IRS-NOMA"]
    assert cli.main(common + ["--out", str(tmp_path / "a")]) in (0, 3)
    assert cli.main(common + ["--out", str(tmp_path / "b")]) in (0, 3)
    for name in ("results.json", "rates.csv", "fractions.csv", "trajectory.csv",
                 "convergence.csv", "users.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    # An independent oracle: parsing results.json and dumping it again gives its text.
    text = (tmp_path / "a" / "results.json").read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_results_json_structure(tmp_path):
    cfg = small_config(num_slots=2)
    report = cli.run_experiment(cfg, ["M-IRS-NOMA", "S-IRS-NOMA"], [1])
    paths = cli.emit_outputs(report, tmp_path)
    doc = json.loads(paths["results"].read_text())
    assert doc["scenarios"] == ["M-IRS-NOMA", "S-IRS-NOMA"]
    assert doc["seeds"] == [1]
    assert len(doc["avg_sum_rate"]["M-IRS-NOMA"]) == 2
    assert doc["config"]["num_users"] == cfg.num_users
    assert "M-IRS-NOMA vs S-IRS-NOMA" in doc["improvement_pct"]
    assert doc["per_user"]["columns"] == cli.USERS_COLUMNS
    assert set(doc) == {"config", "seeds", "scenarios", "num_slots", "avg_sum_rate",
                        "per_seed_sum_rate", "improvement_pct", "power_fractions",
                        "fractions_scenario", "trajectories", "convergence", "per_user",
                        "infeasible_slots", "ga_evaluations"}


@pytest.mark.parametrize("trace_slots", [None, 3])
def test_ga_evaluations_count_every_fitness_value(tmp_path, trace_slots):
    cfg = small_config(population_size=7)  # odd: the GA drops a trailing child
    argv = ["run", "--config", str(_write_small_config(tmp_path, population_size=7)),
            "--seeds", "2", "--scenarios", "M-IRS-NOMA,No-IRS-NOMA,M-IRS-OMA",
            "--out", str(tmp_path / "out")]
    slots = cfg.num_slots
    if trace_slots is not None:  # the trace, not num_slots, sets the slot count
        trace = mobility.generate_trace(small_config(num_slots=trace_slots),
                                        scenario.stream(5, scenario.MOBILITY_STREAM))
        mobility.save_trace(trace, tmp_path / "trace.csv")
        argv += ["--trace", str(tmp_path / "trace.csv")]
        slots = trace_slots
    assert cli.main(argv) in (0, 3)
    doc = json.loads((tmp_path / "out" / "results.json").read_text())
    assert doc["ga_evaluations"] == 7 * (cfg.max_iterations + 1) * slots * 3 * 2


# Every float key.
_FUZZ_KEYS = sorted(key for key, kind in typing.get_type_hints(scenario.ScenarioConfig).items()
                    if kind in (float, Optional[float]))
_FUZZ_VALUES = (st.sampled_from([1e300, -1e300, 1e10, -1e10, 0.0])
                | st.floats(min_value=-1e3, max_value=1e3))


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in results.json")


def _run_fuzzed_config(overrides):
    """Run a small config with overrides through cli.main: a clean exit, finite outputs."""
    doc = dict(num_users=3, num_slots=2, slot_duration_s=10.0, population_size=4,
               max_iterations=2, bits_per_coordinate=4)
    doc.update(overrides)
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(doc))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(["run", "--config", str(cfg_path), "--seeds", "1", "--out", str(out)])
        assert rc in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if rc != 2:
            json.loads((out / "results.json").read_text(), parse_constant=_reject_constant)


def test_cli_runs_configs_whose_gain_over_noise_overflows(tmp_path):
    # Nothing forms a gain over the noise power (or its inverse) since FTPA takes one
    # power per pair, so these run finite: a 10^16 gain against 10^-300 mW of noise,
    # and a 10^-15.6 gain against 10^300 mW.
    for name, doc in [("quiet", {"los_intercept_db": -200.0, "noise_power_dbm": -3000.0,
                                 "uav_tx_power_dbm": -3000.0}),
                      ("loud", {"uav_tx_power_dbm": 3100.0, "noise_power_dbm": 3000.0})]:
        path = _write_small_config(tmp_path, **doc)
        rc = cli.main(["run", "--config", str(path), "--seeds", "1",
                       "--out", str(tmp_path / name)])
        assert rc in (0, 3), name
        results = json.loads((tmp_path / name / "results.json").read_text(),
                             parse_constant=_reject_constant)
        assert results["scenarios"] == list(cli.SCENARIOS), name


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.sampled_from(_FUZZ_KEYS), _FUZZ_VALUES, min_size=1, max_size=2),
       st.sampled_from(["blockage", "sigmoid"]))
@example({"blocker_density_per_m2": 1e300, "blocker_height_m": 1e300}, "blockage")
@example({"sigmoid_alpha": 1e300}, "sigmoid")
@example({"sigmoid_alpha": -1.0}, "sigmoid")
def test_cli_run_survives_extreme_config_numbers(overrides, los_model):
    _run_fuzzed_config({**overrides, "los_model": los_model})


# Every integer key of the GA and of the problem size: small values, and
# values outside their ranges or beyond the size caps (only small draws pass
# validation, so accepted draws stay cheap).
_INT_FUZZ = {
    "num_users": [1, 2, 5, -1, 0, 10**5 + 1, 10**400],
    "num_slots": [1, 3, 0, 10**5 + 1, 10**400],
    "population_size": [2, 3, 7, 1, 1001, 10**6 + 1, 10**400],
    "max_iterations": [1, 3, 0, 10**4 + 1, 10**400],
    "tournament_size": [1, 2, 3, 0, 10**6 + 1],
    "elitism_count": [0, 1, 2, -1, 10**6 + 1],
    "bits_per_coordinate": [1, 2, 53, 0, 54, 64, 10**400],
    "irs_elements_per_user": [1, 30, 10**9, 0, 10**180, 10**400],
}


@settings(max_examples=150, deadline=None)
@given(st.fixed_dictionaries(
    {}, optional={key: st.sampled_from(values) for key, values in _INT_FUZZ.items()}),
    st.sampled_from(["blockage", "sigmoid"]))
def test_cli_run_survives_extreme_config_integers(overrides, los_model):
    _run_fuzzed_config({**overrides, "los_model": los_model})
