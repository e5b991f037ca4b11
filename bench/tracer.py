"""Spans and counters attached to stormlab from outside, at run time.

Nothing here edits the library. The wrappers replace public functions and
methods in the namespaces the library calls them through:

* problem oracles are methods, so they are wrapped on their classes;
* `optimizers` imports the estimator and schedule functions by name, so they
  are wrapped in the `stormlab.optimizers` namespace, not in their own
  modules (a wrapper there would never be called by a run loop);
* runners are looked up in `optimizers.ALGORITHMS`, so that dict's entries
  are replaced;
* `harness` and `cli` import `run_grid`, `write_outputs`, `summarize` and
  `fit_loglog_slope` by name, so they are wrapped in those namespaces.

A rate-grid round makes about two million wrapped calls, too many to keep
span by span. Each span is therefore folded into per-name totals as it
closes: calls, inclusive time, self time (inclusive time minus the time of
the child spans inside it) and calls made directly inside a span of the same
group. The totals stay in memory and are written out when the round ends.

Pool workers are forked from the workload process, so they inherit the
wrappers. After the fork a worker clears what it inherited and appends each
cell's record to a spool file, because pool workers leave without running
exit handlers.
"""

from __future__ import annotations

import functools
import json
import os
import time

DRAWS = ("draw", "draw_inner", "draw_outer")
ORACLES = ("grad_at", "component_grad", "inner_value", "inner_jac", "outer_grad")
UPDATES = (
    "storm_update",
    "comp_inner_update",
    "comp_grad_update",
    "finite_sum_update",
    "svrg_update",
)
INITS = ("storm_init", "take_snapshot")
RATES = ("ada_lr", "finite_sum_lr", "storm_original_params")


class Tracer:
    """Per-name span totals: [calls, inclusive s, self s, same-group nested calls]."""

    def __init__(self):
        self.stats = {}
        self.counters = {}
        self._stack = []

    def reset(self):
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0, 0]
        self.counters.clear()
        self._stack.clear()

    def snapshot(self):
        return {name: list(stat) for name, stat in self.stats.items()}, dict(self.counters)

    def since(self, snap):
        """Totals accrued since `snapshot()` returned `snap`."""
        stats0, counters0 = snap
        stats = {}
        for name, stat in self.stats.items():
            before = stats0.get(name, [0, 0.0, 0.0, 0])
            if stat[0] != before[0]:
                stats[name] = [a - b for a, b in zip(stat, before)]
        counters = {
            k: v - counters0.get(k, 0)
            for k, v in self.counters.items()
            if v != counters0.get(k, 0)
        }
        return stats, counters

    def wrap(self, name, group, fn, count=None):
        """Return fn wrapped in a span; `count(args, kwargs)` may add to a counter."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, group]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
                    if parent[1] == group:
                        stat[3] += 1
                if count is not None:
                    key, amount = count(args, kwargs)
                    counters[key] = counters.get(key, 0) + amount

        return functools.update_wrapper(traced, fn)


def _trace_rows(args, kwargs):
    record = args[0]
    thin = kwargs.get("thin", args[2] if len(args) > 2 else 1)
    return "trace_rows", len(range(0, record.T, thin))


def _table_bytes(args, _kwargs):
    return "table_bytes", args[0].entries.nbytes


def install_tracer(tracer, lib):
    """Wrap every layer's public entry points; `lib` maps module names to modules."""
    problems, optimizers, estimators = lib["problems"], lib["optimizers"], lib["estimators"]
    harness, cli = lib["harness"], lib["cli"]
    groups = [(DRAWS, "draw"), (ORACLES, "oracle"), (("value_and_grad",), "measure"),
              (("full_grad",), "full_pass")]
    for cls in (problems.StochasticProblem, problems.NoisyQuadratic,
                problems.NonconvexSmooth, problems.FiniteSumProblem,
                problems.CompositionalProblem):
        for methods, group in groups:
            for meth in methods:
                if meth in cls.__dict__:
                    setattr(cls, meth, tracer.wrap(f"problems.{meth}", group, cls.__dict__[meth]))

    table = estimators.GradientTable
    table.updated = tracer.wrap("estimators.GradientTable.updated", "table",
                                table.__dict__["updated"], count=_table_bytes)
    table.from_full_pass = classmethod(tracer.wrap(
        "estimators.GradientTable.from_full_pass", "init",
        table.__dict__["from_full_pass"].__func__))
    for names, group, layer in ((UPDATES, "update", "estimators"), (INITS, "init", "estimators"),
                                (RATES, "rate", "schedules")):
        for name in names:
            setattr(optimizers, name,
                    tracer.wrap(f"{layer}.{name}", group, getattr(optimizers, name)))
    for key, (runner, families) in list(optimizers.ALGORITHMS.items()):
        optimizers.ALGORITHMS[key] = (
            tracer.wrap(f"optimizers.{runner.__name__}", "runner", runner), families)

    harness.summarize = tracer.wrap("analysis.summarize", "analysis", harness.summarize)
    harness.fit_loglog_slope = tracer.wrap(
        "analysis.fit_loglog_slope", "analysis", harness.fit_loglog_slope)
    harness.parse_config = tracer.wrap("harness.parse_config", "harness", harness.parse_config)
    harness.write_trace_csv = tracer.wrap(
        "harness.write_trace_csv", "harness", harness.write_trace_csv, count=_trace_rows)
    harness.run_algorithm = tracer.wrap("harness.cell", "cell", harness.run_algorithm)
    for module in (harness, cli):
        module.run_grid = tracer.wrap("harness.run_grid", "grid", module.run_grid)
        module.write_outputs = tracer.wrap("harness.write_outputs", "harness", module.write_outputs)


class SetupDone(Exception):
    """Raised at the first grid entry when only set-up is being timed."""


class CellLog:
    """Wall time of every cell, with oracle counts and span totals when kept.

    Always installed, traced or not: two clock reads per cell. Cells run in
    a forked pool worker go to `<spool>/cells-<pid>.jsonl`, one line each.
    """

    def __init__(self, spool, tracer=None, stop_at_first_grid=False):
        self.spool = spool
        self.tracer = tracer
        self.stop_at_first_grid = stop_at_first_grid
        self.cells = []
        self.oracle_counts = None
        self.first_grid = None
        self.in_worker = False
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self):
        self.in_worker = True
        self.cells = []
        if self.tracer is not None:
            self.tracer.reset()

    def count_oracles(self, problems):
        """Count finite-sum component gradients and full passes per cell."""
        counts = self.oracle_counts = {"component_grad": 0, "full_grad": 0}
        cls = problems.FiniteSumProblem
        for meth in counts:
            fn = cls.__dict__[meth]

            def counted(*args, _fn=fn, _key=meth, **kwargs):
                counts[_key] += 1
                return _fn(*args, **kwargs)

            setattr(cls, meth, functools.update_wrapper(counted, fn))

    def wrap_cell(self, run_algorithm):
        clock = time.perf_counter

        def cell(name, problem, T, seed, **params):
            if self.oracle_counts is not None:
                for key in self.oracle_counts:
                    self.oracle_counts[key] = 0
            snap = self.tracer.snapshot() if self.tracer is not None else None
            start = clock()
            record = run_algorithm(name, problem, T, seed, **params)
            elapsed = clock() - start
            entry = {"algorithm": name, "params": params, "problem": dict(problem.spec),
                     "T": int(T), "seed": int(seed), "s": elapsed}
            if self.oracle_counts is not None:
                entry["oracle"] = dict(self.oracle_counts)
            if snap is not None:
                entry["spans"], entry["counters"] = self.tracer.since(snap)
            if self.in_worker:
                path = os.path.join(self.spool, f"cells-{os.getpid()}.jsonl")
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(entry) + "\n")
            else:
                self.cells.append(entry)
            return record

        return functools.update_wrapper(cell, run_algorithm)

    def wrap_grid(self, run_grid):
        """Stamp the first grid entry: the end of set-up."""

        def grid(*args, **kwargs):
            if self.first_grid is None:
                self.first_grid = time.monotonic()
                if self.stop_at_first_grid:
                    raise SetupDone
            return run_grid(*args, **kwargs)

        return functools.update_wrapper(grid, run_grid)

    def worker_cells(self):
        """Cells spooled by pool workers, in file order."""
        out = []
        for name in sorted(os.listdir(self.spool)):
            if name.startswith("cells-") and name.endswith(".jsonl"):
                with open(os.path.join(self.spool, name), encoding="utf-8") as fh:
                    out.extend(json.loads(line) for line in fh if line.strip())
        return out
