"""The paper's first claim: dynamic (FTPA) power allocation beats a fixed split.

Runs the README recipe as written: M-IRS-NOMA on the default configuration,
seeds 1 to 10, with ftpa_decay 0.28 (FTPA) against 0 (every pair's power
split equally), then compares each run's results.json.
"""

import json

from mirsim import cli


def _recipe_run(tmp_path, name, decay):
    cfg_path = tmp_path / f"{name}.yaml"
    cfg_path.write_text(f"ftpa_decay: {decay}\n")
    out = tmp_path / f"out-{name}"
    rc = cli.main(["run", "--config", str(cfg_path), "--scenarios", "M-IRS-NOMA",
                   "--seeds", "10", "--seed", "1", "--out", str(out)])
    assert rc in (0, 3)
    return json.loads((out / "results.json").read_text())


def test_ftpa_beats_the_equal_split(tmp_path):
    ftpa = _recipe_run(tmp_path, "ftpa", 0.28)
    fixed = _recipe_run(tmp_path, "fixed", 0)
    rates, equal = ftpa["avg_sum_rate"]["M-IRS-NOMA"], fixed["avg_sum_rate"]["M-IRS-NOMA"]
    assert sum(rates) / len(rates) > sum(equal) / len(equal)
    assert all(a > b for a, b in zip(rates, equal, strict=True)), (rates, equal)
    assert len(ftpa["infeasible_slots"]) <= len(fixed["infeasible_slots"])
