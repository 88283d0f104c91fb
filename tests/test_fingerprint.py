"""A fingerprint of one tiny run: placements and counts exactly, rates to 1e-12.

The values were recorded from the code as it stood when this test was
written.  Any change that is meant to keep every output byte (a refactor, a
speedup) must leave this test passing untouched.  A change that moves the
outputs on purpose, such as drawing the GA's randomness in another order or
computing a distance with other floating-point operations, must update the
values here in the same change and say so.

Rates are compared within 1e-12 relative rather than bit for bit: numpy's
SIMD exp, log and power can differ by one ulp between CPUs.  The placements
are decoded from genomes with plain arithmetic, so they are pinned exactly.
"""

import pytest

from mirsim import cli

from testutil import small_config

TRAJECTORIES = {
    "M-IRS-NOMA": [([47.61904761904761, 119.04761904761904, 207.93650793650795],
                    [396.8253968253968, 468.25396825396825]),
                   ([15.873015873015872, 87.30158730158729, 106.34920634920636],
                    [396.8253968253968, 468.25396825396825])],
    "S-IRS-NOMA": [([47.61904761904761, 119.04761904761904, 207.93650793650795],
                    [396.8253968253968, 468.25396825396825]),
                   ([15.873015873015872, 87.30158730158729, 106.34920634920636],
                    [396.8253968253968, 468.25396825396825])],
    "No-IRS-NOMA": [([47.61904761904761, 119.04761904761904, 207.93650793650795], None),
                    ([15.873015873015872, 87.30158730158729, 106.34920634920636], None)],
    "M-IRS-OMA": [([63.49206349206349, 55.55555555555555, 112.6984126984127],
                   [277.77777777777777, 190.47619047619045]),
                  ([47.61904761904761, 23.809523809523807, 112.6984126984127],
                   [325.3968253968254, 103.17460317460316])],
}

INFEASIBLE = [("M-IRS-NOMA", 1, 0), ("S-IRS-NOMA", 1, 0), ("No-IRS-NOMA", 1, 0)]

PER_SEED_SUM_RATE = {
    "M-IRS-NOMA": [[7.812459378640222, 12.236253351864566],
                   [10.464238365653978, 12.17860815152211]],
    "S-IRS-NOMA": [[7.812459378640222, 12.236253351864566],
                   [10.464238365653978, 12.17860815152211]],
    "No-IRS-NOMA": [[7.812143514406443, 12.236121326037297],
                    [10.463813110953662, 12.178233541569874]],
    "M-IRS-OMA": [[10.526682011856549, 11.115578333892353],
                  [9.321101405118547, 10.757012491103032]],
}


def test_a_tiny_run_keeps_its_fingerprint():
    # A 10 dB threshold leaves some slots feasible and some not; the
    # displacement limit brings the previous placement into the fitness.
    cfg = small_config(num_users=5, num_slots=2, population_size=8, max_iterations=3,
                       bits_per_coordinate=6, snr_threshold_db=10.0,
                       max_slot_displacement_m=100.0)
    report = cli.run_experiment(cfg, list(cli.SCENARIOS), [1, 2])

    assert {name: [(t["uav"], t["irs"]) for t in slots]
            for name, slots in report.trajectories.items()} == TRAJECTORIES
    assert [(s["scenario"], s["seed"], s["slot"])
            for s in report.infeasible_slots] == INFEASIBLE
    assert report.ga_evaluations == 8 * (3 + 1) * 2 * 4 * 2
    assert report.per_seed_sum_rate.keys() == PER_SEED_SUM_RATE.keys()
    for name, rates in PER_SEED_SUM_RATE.items():
        for got, want in zip(report.per_seed_sum_rate[name], rates, strict=True):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), name
