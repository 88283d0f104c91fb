"""Run one mirsim command with its layer functions wrapped in timing spans.

Usage: python tracer.py SPANS_FILE MIRSIM_ARGS...

Every public function defined in the layer modules (scenario, mobility,
channel, noma, optimizer, cli) is replaced, on its module and on every
other mirsim module that imported it by name, with a wrapper that records
a span: function, start, end (ns) and the index of the enclosing span.
Nothing in the package is edited; the patching happens here, before
``cli.main`` runs.  Spans stay in memory and are written to SPANS_FILE
(``numpy.savez``) when the command returns; the process exits with the
command's exit code.

Two calls get extra bookkeeping, for per-layer ratios:

* ``channel.link_gains`` and ``noma.evaluate_batch`` record how many
  candidate placements the call scored;
* inside each ``optimizer.optimize_slot`` span, the distinct (UAV, vehicle)
  placements passed to ``channel.link_gains`` are counted, so the share of
  repeated candidates in a slot search can be derived.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("scenario", "mobility", "channel", "noma", "optimizer", "cli")

# mobility.step advances one user by one sub-step and is called only by
# generate_trace, in the same layer: about 1.7 million times per
# long-horizon run.  A span on it would more than double that run and
# changes no layer's self time, so it is left unwrapped.
UNWRAPPED = {"mobility.step"}


def _first_two(args, kwargs, names):
    """The first two arguments of a call, whether passed by position or name."""
    return [*args, *(kwargs[n] for n in names[len(args):2])][:2]


def _batch_size(array_like) -> int:
    shape = np.shape(array_like)
    return shape[0] if len(shape) >= 2 else 1


class Recorder:
    """Spans in flat typed arrays; index i is the i-th span started."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.size = array("q")
        self.stack = [-1]
        self.search_seen: set | None = None
        self.distinct = 0
        self.scored = 0

    def wrap(self, qualname, fn, on_enter=None, on_exit=None):
        fid = len(self.names)
        self.names.append(qualname)
        rec = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(rec.name_id)
            rec.name_id.append(fid)
            rec.parent.append(rec.stack[-1])
            rec.size.append(on_enter(args, kwargs) if on_enter else 0)
            rec.end.append(0)
            rec.stack.append(i)
            rec.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end[i] = clock()
                rec.stack.pop()
                if on_exit:
                    on_exit()

        return wrapper

    # -- per-call bookkeeping -------------------------------------------
    def enter_search(self, args, kwargs):
        self.search_seen = set()
        return 0

    def exit_search(self):
        self.distinct += len(self.search_seen)
        self.search_seen = None

    def enter_link_gains(self, args, kwargs):
        uav_xyz, irs_xy = _first_two(args, kwargs, ("uav_xyz", "irs_xy"))
        uav = np.atleast_2d(np.asarray(uav_xyz, dtype=float))
        if self.search_seen is not None:
            irs = np.broadcast_to(np.atleast_2d(np.asarray(irs_xy, dtype=float)),
                                  (uav.shape[0], 2))
            rows = np.ascontiguousarray(np.hstack([uav, irs]))
            self.search_seen.update(map(bytes, rows))
            self.scored += rows.shape[0]
        return uav.shape[0]

    def enter_evaluate_batch(self, args, kwargs):
        return _batch_size(_first_two(args, kwargs, ("uav_gain", "irs_gain"))[0])

    def save(self, path):
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end), size=np.asarray(self.size),
                 distinct=self.distinct, scored=self.scored)


def install(rec: Recorder):
    """Wrap the public functions of every layer module; returns the cli module."""
    modules = {layer: importlib.import_module(f"mirsim.{layer}") for layer in LAYERS}
    hooks = {
        "optimizer.optimize_slot": (rec.enter_search, rec.exit_search),
        "channel.link_gains": (rec.enter_link_gains, None),
        "noma.evaluate_batch": (rec.enter_evaluate_batch, None),
    }
    replaced = {}
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            qualname = f"{layer}.{name}"
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__ or qualname in UNWRAPPED):
                continue
            replaced[id(obj)] = rec.wrap(qualname, obj, *hooks.get(qualname, (None, None)))
    # Rebind every module-level reference, including `from .x import f` copies.
    for mod in [importlib.import_module("mirsim"), *modules.values()]:
        for name, obj in list(vars(mod).items()):
            if id(obj) in replaced and inspect.isfunction(obj):
                setattr(mod, name, replaced[id(obj)])
    return modules["cli"]


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS_FILE MIRSIM_ARGS...", file=sys.stderr)
        return 2
    rec = Recorder()
    cli = install(rec)
    try:
        return cli.main(argv[1:])
    finally:
        rec.save(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
