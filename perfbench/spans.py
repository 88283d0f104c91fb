"""Per-layer metrics from the spans tracer.py writes.

A span's self time is its duration minus the time its direct children
cover; a layer's self time sums the self times of its functions' spans.
Time of the traced repetition that no span covers (interpreter start,
imports) is reported as ``uncovered_s``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from checks import OUTPUT_FILES

LAYERS = ("scenario", "mobility", "channel", "noma", "optimizer", "cli")


class Spans:
    """Spans of one or more traced processes, concatenated in start order."""

    def __init__(self, files: list[Path]):
        names: list[str] = []
        fid, parent, dur, size = [], [], [], []
        self.distinct = self.scored = 0
        offset = 0
        for path in files:
            with np.load(path) as data:
                local = [str(n) for n in data["names"]]
                for n in local:
                    if n not in names:
                        names.append(n)
                remap = np.array([names.index(n) for n in local], dtype=np.int64)
                fid.append(remap[data["name_id"]])
                p = data["parent"].astype(np.int64)
                parent.append(np.where(p >= 0, p + offset, -1))
                dur.append((data["end"] - data["start"]) / 1e9)
                size.append(data["size"])
                self.distinct += int(data["distinct"])
                self.scored += int(data["scored"])
                offset += len(p)
        self.names = names
        self.fid = np.concatenate(fid)
        self.parent = np.concatenate(parent)
        self.dur = np.concatenate(dur)
        self.size = np.concatenate(size)
        n = len(self.fid)
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                              minlength=n)
        self.self_time = self.dur - covered

    def of(self, qualname: str) -> np.ndarray:
        """Mask of the spans of one function."""
        if qualname not in self.names:
            return np.zeros(len(self.fid), dtype=bool)
        return self.fid == self.names.index(qualname)

    def within(self, mask: np.ndarray) -> np.ndarray:
        """Mask of the spans that have an ancestor in `mask`."""
        inside = [False] * len(self.fid)
        flag = mask.tolist()
        for i, p in enumerate(self.parent.tolist()):
            if p >= 0:
                inside[i] = inside[p] or flag[p]
        return np.array(inside, dtype=bool)

    def layer_self_time(self) -> dict[str, float]:
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names] or [0])
        totals = np.bincount(layer_of[self.fid], weights=self.self_time,
                             minlength=len(LAYERS))
        return dict(zip(LAYERS, totals.tolist()))


def _ratio(num: float, den: float) -> float:
    return float(num / den) if den else 0.0


def layer_metrics(files: list[Path], wall_s: float, out: Path, cfg: dict) -> dict:
    """Metric name -> (value, unit) for one traced repetition."""
    s = Spans(files)
    dur = s.dur

    def seconds(*qualnames, mask=None):
        m = np.zeros(len(dur), dtype=bool)
        for q in qualnames:
            m |= s.of(q)
        return float(dur[m if mask is None else m & mask].sum())

    search = s.of("optimizer.optimize_slot")
    inside = s.within(search)
    gains, batch = s.of("channel.link_gains"), s.of("noma.evaluate_batch")
    loads = s.of("scenario.load_config")
    generate = s.of("mobility.generate_trace")
    steps = (cfg["num_users"] * round(cfg["slot_duration_s"] / cfg["substep_duration_s"])
             * (cfg["num_slots"] - 1) * int(generate.sum()))
    trace_csv = out / "trace.csv"

    m = {
        "scenario.load_config_ms": (float(dur[loads].mean() * 1e3) if loads.any() else 0.0,
                                    "ms"),
        "mobility.generate_trace_s": (seconds("mobility.generate_trace"), "s"),
        "mobility.user_steps_per_s": (_ratio(steps, seconds("mobility.generate_trace")),
                                      "1/s"),
        "mobility.save_trace_s": (seconds("mobility.save_trace"), "s"),
        "mobility.load_trace_s": (seconds("mobility.load_trace"), "s"),
        "mobility.trace_bytes": (trace_csv.stat().st_size if trace_csv.exists() else 0,
                                 "bytes"),
        "channel.link_gains_s": (seconds("channel.link_gains"), "s"),
        "channel.link_gains_calls": (int(gains.sum()), "count"),
        "channel.candidates_per_call": (_ratio(s.size[gains].sum(), gains.sum()), "count"),
        "channel.us_per_candidate": (_ratio(1e6 * dur[gains].sum(), s.size[gains].sum()),
                                     "us"),
        "noma.evaluate_batch_s": (seconds("noma.evaluate_batch"), "s"),
        "noma.us_per_candidate": (_ratio(1e6 * dur[batch].sum(), s.size[batch].sum()), "us"),
        "noma.slot_eval_s": (seconds("noma.slot_sum_rate", "noma.oma_slot_sum_rate"), "s"),
        "optimizer.optimize_slot_s": (seconds("optimizer.optimize_slot"), "s"),
        "optimizer.slot_searches": (int(search.sum()), "count"),
        "optimizer.breeding_s": (float(s.self_time[search].sum())
                                 + seconds("optimizer.tournament_select", "optimizer.crossover",
                                           "optimizer.mutate", mask=inside), "s"),
        "optimizer.selection_calls": (int(s.of("optimizer.tournament_select").sum()), "count"),
        "optimizer.mutation_calls": (int(s.of("optimizer.mutate").sum()), "count"),
        "optimizer.fitness_s": (seconds("channel.link_gains", "noma.evaluate_batch",
                                        mask=inside), "s"),
        "optimizer.distinct_candidate_share": (_ratio(s.distinct, s.scored), "ratio"),
        "cli.run_experiment_s": (seconds("cli.run_experiment"), "s"),
        "cli.emit_outputs_s": (seconds("cli.emit_outputs"), "s"),
        "cli.output_bytes": (sum((out / f).stat().st_size for f in OUTPUT_FILES), "bytes"),
    }
    for layer, value in s.layer_self_time().items():
        m[f"{layer}.self_s"] = (value, "s")
    m["uncovered_s"] = (wall_s - float(dur[s.parent < 0].sum()), "s")
    return m
