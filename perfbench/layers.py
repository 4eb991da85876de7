"""Layer boundaries of the simulator and a span tracer that wraps them.

Each boundary is a public function of one ``multicast_mimo`` module. The
tracer replaces that function in every ``multicast_mimo`` module namespace
that holds it, which is where its callers look it up, so nothing under
``src/`` is edited. A boundary the code no longer has is reported as absent.

This module imports nothing from numpy or the simulator, so the parent
process can read the tables without loading them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# layer (= module of multicast_mimo) -> wrapped public functions
LAYERS = {
    "channel": ("drop_large_scale", "local_scattering_covariance",
                "psd_sqrt_factor", "complex_normal"),
    "estimation": ("error_correlation", "composite_gain_matrix"),
    # "evaluate" is the closure that subgroup_sinr_evaluator returns
    "performance": ("draw_batch", "subgroup_sinr_evaluator", "evaluate",
                    "estimate_gains"),
    "precoding": ("zf_precoders_batch",),
    "power_control": ("fractional_dl_power", "intra_subgroup_mmf",
                      "inter_subgroup_mmf", "feasibility_check"),
    "subgrouping": ("similarity_matrix", "partition_users"),
    "harness": ("run_snapshot", "run_campaign", "write_outputs"),
}
CLOSURES = {"performance.evaluate": "performance.subgroup_sinr_evaluator"}

BOUNDARIES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items()
                   for fn in fns)

# name -> (unit, what it divides by)
RATIOS = {
    "power_control.intra_subgroup_mmf.accept_ratio":
        ("ratio", "IntraMmfResult.n_accepted / n_evals"),
    "power_control.intra_subgroup_mmf.n_evals":
        ("1/snapshot", "Algorithm-1 passes, the base of accept_ratio"),
    "power_control.feasibility_check.feasible_ratio":
        ("ratio", "feasible verdicts / feasibility_check calls"),
    "power_control.inter_subgroup_mmf.iterations":
        ("1/call", "bisection steps / inter_subgroup_mmf calls"),
    "estimation.composite_gain_matrix.calls_per_subgroup":
        ("1/subgroup", "composite_gain_matrix calls / sum of G over "
                       "strategies and snapshots"),
    "estimation.composite_gain_matrix.subgroups":
        ("1/snapshot", "sum of G over strategies, the base of "
                       "calls_per_subgroup"),
}


def span_cost(n_calls: int = 20_000) -> float:
    """Seconds one wrapped call adds, from timing a wrapped no-op. Times
    the tracing cost apart from the host's speed drift, which swamps the
    difference between an untraced and a traced run."""
    def noop():
        return None
    wrapped = Tracer()._wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(n_calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(n_calls):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / n_calls


def per_layer_metric_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for name in (*LAYERS, *BOUNDARIES):
        units[f"{name}.self_s"] = "s/snapshot"
        units[f"{name}.calls"] = "1/snapshot"
    for name, (unit, _) in RATIOS.items():
        units[name] = unit
    units["trace.snapshots"] = "count"
    units["trace.snapshots_per_s_untraced"] = "1/s"
    units["trace.snapshots_per_s_traced"] = "1/s"
    units["trace.overhead_snapshots_per_s"] = "1/s"
    units["trace.span_overhead_s"] = "s/snapshot"
    return units


class Tracer:
    """Records one span per boundary call: name, start, end, parent span
    and snapshot index, kept in memory until ``write_spans``."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent id, snapshot]
        self.absent = []
        self.counters = {"intra_accepted": 0, "intra_evals": 0,
                         "feasible": 0, "inter_iterations": 0}
        self._stack = []
        self._snapshot = None

    def install(self) -> None:
        """Wrap every boundary found in the imported multicast_mimo modules."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "multicast_mimo"
                   or name.startswith("multicast_mimo.")]
        for name in BOUNDARIES:
            if name in CLOSURES:
                continue
            layer, fn_name = name.split(".")
            try:
                home = importlib.import_module(f"multicast_mimo.{layer}")
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(home, fn_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules + [home]:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        self.absent += [name for name, factory in CLOSURES.items()
                        if factory in self.absent]

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "harness.run_snapshot":
                self._snapshot = kwargs.get(
                    "index", args[1] if len(args) > 1 else None)
            span_id = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else None, self._snapshot])
            stack.append(span_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[span_id][2] = time.perf_counter()
                if name == "harness.run_snapshot":
                    self._snapshot = None
            return self._observe(name, out)

        return wrapper

    def _observe(self, name, out):
        """Update the waste counters from a boundary's return value."""
        c = self.counters
        if name == "power_control.intra_subgroup_mmf":
            c["intra_accepted"] += int(getattr(out, "n_accepted", 0))
            c["intra_evals"] += int(getattr(out, "n_evals", 0))
        elif name == "power_control.feasibility_check":
            if isinstance(out, tuple) and out:
                c["feasible"] += bool(out[0])
        elif name == "power_control.inter_subgroup_mmf":
            c["inter_iterations"] += int(getattr(out, "iterations", 0))
        elif name == "performance.subgroup_sinr_evaluator" and callable(out):
            return self._wrap("performance.evaluate", out)
        return out

    def totals(self) -> dict:
        """Per boundary: calls and self seconds (span minus child spans)."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0} for name in BOUNDARIES}
        for (name, start, end, _, _), inner in zip(self.spans, child_s):
            out[name]["calls"] += 1
            out[name]["self_s"] += (end - start) - inner
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, snapshot in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent,
                                     "snapshot": snapshot}) + "\n")


def per_layer_metrics(totals: dict, counters: dict, n_snapshots: int,
                      subgroups_per_snapshot: int) -> dict:
    """Fold a traced child's totals into the per-layer metric values."""
    n = max(n_snapshots, 1)
    values = {}
    for layer, fns in LAYERS.items():
        names = [f"{layer}.{fn}" for fn in fns]
        for name in names:
            values[f"{name}.self_s"] = totals[name]["self_s"] / n
            values[f"{name}.calls"] = totals[name]["calls"] / n
        values[f"{layer}.self_s"] = sum(totals[m]["self_s"] for m in names) / n
        values[f"{layer}.calls"] = sum(totals[m]["calls"] for m in names) / n

    def ratio(num, den):
        return num / den if den else 0.0

    values["power_control.intra_subgroup_mmf.accept_ratio"] = ratio(
        counters["intra_accepted"], counters["intra_evals"])
    values["power_control.intra_subgroup_mmf.n_evals"] = \
        counters["intra_evals"] / n
    values["power_control.feasibility_check.feasible_ratio"] = ratio(
        counters["feasible"], totals["power_control.feasibility_check"]["calls"])
    values["power_control.inter_subgroup_mmf.iterations"] = ratio(
        counters["inter_iterations"],
        totals["power_control.inter_subgroup_mmf"]["calls"])
    values["estimation.composite_gain_matrix.calls_per_subgroup"] = ratio(
        totals["estimation.composite_gain_matrix"]["calls"],
        subgroups_per_snapshot * n)
    values["estimation.composite_gain_matrix.subgroups"] = \
        float(subgroups_per_snapshot)
    return values
