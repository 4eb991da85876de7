"""Benchmark of the multicast-MIMO simulator: one figure recipe per workload.

    python3 perfbench/run.py --workload many-subgroups --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload mixed-precoders --trace 1
    python3 perfbench/run.py --selfcheck

Every measurement runs in a fresh single-process child (child.py) that calls
``harness.run_campaign(config, workers=1, out_dir=<tmp>)`` with BLAS pinned
to one thread; this process only starts children and does the arithmetic.

--trace 0 prints the end-to-end metrics: it starts SETUP_PROBES children
that stop at the first run_snapshot call (set-up time), then one timed
child that runs snapshots 0, 1, ... of the recipe's campaign for --seconds.
--trace 1 runs the workload's fixed traced snapshot count twice, untraced
and then with every layer boundary wrapped, and prints the per-layer
metrics and the tracing overhead. --selfcheck runs a one-snapshot traced
smoke run of each workload twice and checks that every boundary is hit and
that all counts repeat exactly.

Each outcome (snapshot, strategy) is checked: SE values finite and
non-negative, min_user_se <= every subgroup SE, gamma_star >= 0, and at the
reference seed sum_se within references.json's relative tolerance.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Outputs go to perfbench/_runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import BOUNDARIES, RATIOS, per_layer_metric_units, \
    per_layer_metrics  # noqa: E402

# Each workload stresses different layers (see README.md). trace_snapshots
# is fixed, not timed, so every traced count repeats exactly for a seed;
# zero_calls are boundaries the workload is predicted never to reach.
WORKLOADS = {
    "many-subgroups": {"recipe": "fig5", "trace_snapshots": 1,
                       "zero_calls": ("precoding.zf_precoders_batch",)},
    "mixed-precoders": {"recipe": "fig7", "trace_snapshots": 4,
                        "zero_calls": ()},
}
CAMPAIGN_SNAPSHOTS = 100   # the recipes' campaign length; a run times a prefix
SETUP_PROBES = 6
RUN_LIMIT_S = 170          # hard cap on one invocation's children
END_TO_END_UNITS = {"snapshots_per_s": "1/s", "snapshot_s_p50": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}
REFERENCES = HERE / "references.json"
RUNS = HERE / "_runs"


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong answer)."""


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "multicast_mimo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Clock:
    """The invocation's deadline, shared by all children it starts."""

    def __init__(self, limit_s: float):
        self.end = time.monotonic() + limit_s

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run limit exceeded")
        return left


def run_child(clock: Clock, work: Path, tag: str, recipe: str, seed: int,
              snapshots: int, *extra: str) -> dict:
    """Start child.py, wait for it, and return its record. Adds setup_s:
    seconds from just before the spawn to its first run_snapshot call
    (time.perf_counter is CLOCK_MONOTONIC, shared across processes)."""
    out = work / f"{tag}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--recipe", recipe,
           "--seed", str(seed), "--snapshots", str(snapshots),
           "--out", str(out), "--work", str(work / tag), *extra]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=clock.left())
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {tag} ran past the run limit") from None
    if proc.returncode != 0:
        raise BenchError(f"child {tag} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    with open(out) as fh:
        record = json.load(fh)
    if record["setup_end"] is None:
        raise BenchError(f"child {tag} never reached run_snapshot")
    record["setup_s"] = record["setup_end"] - started
    return record


def load_references() -> dict:
    if not REFERENCES.exists():
        return {}
    with open(REFERENCES) as fh:
        return json.load(fh)


def outcome_problems(o: dict, ref: float | None, rel_tol: float) -> list:
    """Why one (snapshot, strategy) outcome is wrong; empty if it is fine."""
    if o["error"] is not None:
        return [f"error: {o['error']}"]
    values = [o["sum_se"], o["min_user_se"], o["gamma_star"],
              *o["se_subgroup"], *o["se_user"]]
    if not all(isinstance(v, (int, float)) and math.isfinite(v) and v >= 0
               for v in values):
        return ["SE or gamma_star not finite and non-negative"]
    problems = []
    if not o["se_subgroup"] or o["min_user_se"] > min(o["se_subgroup"]):
        problems.append("min_user_se exceeds a subgroup SE")
    if ref is not None and abs(o["sum_se"] - ref) > rel_tol * abs(ref):
        problems.append(f"sum_se {o['sum_se']!r} vs reference {ref!r} "
                        f"(rel {abs(o['sum_se'] - ref) / abs(ref):.2e})")
    return problems


def check_outcomes(workload: str, seed: int, outcomes: list):
    """Return (attempted, failed, number checked against a reference,
    lines describing failures)."""
    refs = load_references()
    rel_tol = refs.get("rel_tol", 0.0)
    table = (refs.get("workloads", {}).get(workload, {}).get("sum_se", [])
             if refs.get("seed") == seed else [])
    failed, with_ref, lines = 0, 0, []
    for o in outcomes:
        i = o["snapshot"]
        ref = table[i].get(o["strategy"]) if i < len(table) else None
        with_ref += ref is not None
        problems = outcome_problems(o, ref, rel_tol)
        if problems:
            failed += 1
            lines.append(f"  FAIL snapshot {i} {o['strategy']}: "
                         + "; ".join(problems))
    return len(outcomes), failed, with_ref, lines


def provenance(seed: int, record: dict) -> dict:
    return {"git_commit": git_commit(), "src_sha256": source_hash(),
            **record["libraries"], "blas_env": record["blas_env"],
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "seed": seed, "snapshot_indices": record["indices"]}


def describe(workload: str, seed: int, trace: int, record: dict) -> str:
    shape = record["shape"]
    return (f"perfbench {workload} ({WORKLOADS[workload]['recipe']}, "
            f"K={shape['K']}, M={shape['M']}, n_mc={shape['n_mc']}, "
            f"{len(record['strategies'])} strategies, workers=1) "
            f"seed={seed} trace={trace}")


def print_cache_tie(workload: str) -> None:
    tie = load_references().get("workloads", {}).get(workload, {}) \
        .get("cache_tie")
    if tie:
        print(f"  seed-1 references vs {tie['file']}: max rel diff "
              f"{tie['max_rel_diff']:.2e} over {tie['snapshots']} snapshots "
              f"(read-only)")


def metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def timed_run(workload: str, seed: int, seconds: float, work: Path):
    recipe = WORKLOADS[workload]["recipe"]
    clock = Clock(RUN_LIMIT_S)
    setups = [run_child(clock, work, f"setup{i}", recipe, seed,
                        CAMPAIGN_SNAPSHOTS, "--setup-only")["setup_s"]
              for i in range(SETUP_PROBES)]
    rec = run_child(clock, work, "timed", recipe, seed, CAMPAIGN_SNAPSHOTS,
                    "--seconds", str(seconds))
    setups.append(rec["setup_s"])
    n = len(rec["snapshot_s"])
    values = {"snapshots_per_s": n / rec["campaign_s"],
              "snapshot_s_p50": statistics.median(rec["snapshot_s"]),
              "setup_s": statistics.median(setups),
              "peak_rss_mb": rec["peak_rss_mb"]}
    attempted, failed, with_ref, lines = check_outcomes(
        workload, seed, rec["outcomes"])

    print(describe(workload, seed, 0, rec))
    print(f"  snapshots_per_s  {values['snapshots_per_s']:.5f} 1/s  "
          f"({n} snapshots in {rec['campaign_s']:.3f} s of run_campaign)")
    print(f"  snapshot_s_p50   {values['snapshot_s_p50']:.4f} s  (n={n})")
    print(f"  setup_s          {values['setup_s']:.4f} s  "
          f"(median of n={len(setups)} child set-ups)")
    print(f"  peak_rss_mb      {values['peak_rss_mb']:.1f} MB  "
          f"(n=1, ru_maxrss of the timed child)")
    print(f"  failed_frac      {failed / attempted:.4f}  ({failed} of "
          f"{attempted} (snapshot, strategy) outcomes; {with_ref} checked "
          f"against a reference sum_se)")
    return rec, values, END_TO_END_UNITS, attempted, failed, lines


def traced_run(workload: str, seed: int, work: Path):
    spec = WORKLOADS[workload]
    clock = Clock(RUN_LIMIT_S)
    n = spec["trace_snapshots"]
    plain = run_child(clock, work, "untraced", spec["recipe"], seed, n)
    rec = run_child(clock, work, "traced", spec["recipe"], seed, n,
                    "--trace", "--spans", str(work / "spans.jsonl"))
    values = per_layer_metrics(rec["totals"], rec["counters"], n,
                               rec["subgroups_per_snapshot"])
    sps_plain = n / plain["campaign_s"]
    sps_traced = n / rec["campaign_s"]
    values.update({"trace.snapshots": n,
                   "trace.snapshots_per_s_untraced": sps_plain,
                   "trace.snapshots_per_s_traced": sps_traced,
                   "trace.overhead_snapshots_per_s": sps_plain - sps_traced,
                   "trace.span_overhead_s":
                       rec["span_cost_s"] * rec["spans"] / n})
    attempted, failed, with_ref, lines = check_outcomes(
        workload, seed, rec["outcomes"])
    if rec["outcomes"] != plain["outcomes"]:
        failed = attempted
        lines.append("  FAIL traced outcomes differ from untraced ones")

    units = per_layer_metric_units()
    print(describe(workload, seed, 1, rec))
    print(f"  {n} snapshots per child; per-layer values are per snapshot; "
          f"self = span minus child spans")
    for name in units:
        if name.startswith("trace."):
            continue
        print(f"  {name:<56} {values[name]:.6g} {units[name]}")
    for name, (_, base) in RATIOS.items():
        print(f"  base of {name}: {base}")
    if rec["absent"]:
        print(f"  absent boundaries (reported as 0): {', '.join(rec['absent'])}")
    print(f"  tracing overhead: untraced {sps_plain:.5f} - traced "
          f"{sps_traced:.5f} = {sps_plain - sps_traced:.5f} snapshots/s "
          f"({(sps_plain - sps_traced) / sps_plain:+.2%}, n={n} each, "
          f"host speed drift included)")
    print(f"  span cost: {rec['span_cost_s'] * 1e6:.2f} us x "
          f"{rec['spans'] / n:.0f} spans per snapshot = "
          f"{values['trace.span_overhead_s']:.5f} s/snapshot "
          f"({values['trace.span_overhead_s'] * sps_traced:.3%} of a traced "
          f"snapshot)")
    print(f"  failed_frac      {failed / attempted:.4f}  ({failed} of "
          f"{attempted} outcomes; {with_ref} checked against a reference)")
    print(f"  spans: {work / 'spans.jsonl'}")
    return rec, values, units, attempted, failed, lines


def selfcheck(workloads) -> int:
    """Two one-snapshot traced runs per workload: every boundary reached
    (except the predicted zero-call ones), all counts identical, answers
    right. Also checks BENCHMARK.json's metric names, when present."""
    ok = True
    for workload in workloads:
        spec = WORKLOADS[workload]
        clock = Clock(RUN_LIMIT_S)
        work = RUNS / f"{workload}-selfcheck"
        work.mkdir(parents=True, exist_ok=True)
        runs = [run_child(clock, work, f"smoke{i}", spec["recipe"], 1, 1,
                          "--trace") for i in range(2)]
        counts = []
        for rec in runs:
            values = per_layer_metrics(rec["totals"], rec["counters"], 1,
                                       rec["subgroups_per_snapshot"])
            counts.append({k: v for k, v in values.items()
                           if not k.endswith(".self_s")})
        problems = [f"absent: {name}" for name in runs[0]["absent"]]
        for name in BOUNDARIES:
            calls = runs[0]["totals"][name]["calls"]
            if name in spec["zero_calls"] and calls:
                problems.append(f"{name}: {calls} calls, predicted none")
            elif name not in spec["zero_calls"] and not calls:
                problems.append(f"{name}: never called")
        if counts[0] != counts[1]:
            diff = [k for k in counts[0] if counts[0][k] != counts[1][k]]
            problems.append(f"counts differ between runs: {diff}")
        for rec in runs:
            problems += check_outcomes(workload, 1, rec["outcomes"])[3]
        print(f"selfcheck {workload}: {'ok' if not problems else 'FAILED'} "
              f"({len(BOUNDARIES) - len(spec['zero_calls'])} boundaries hit, "
              f"{len(counts[0])} counts identical across 2 runs)")
        for p in problems:
            print(f"  {p}")
        ok &= not problems
    declared = ROOT / "BENCHMARK.json"
    if declared.exists():
        with open(declared) as fh:
            bench = json.load(fh)
        want = {m["name"]: m["unit"] for m in bench["per_layer"]}
        e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        names_ok = (want == per_layer_metric_units()
                    and e2e == END_TO_END_UNITS
                    and [w["name"] for w in bench["workloads"]]
                    == list(WORKLOADS))
        print(f"selfcheck BENCHMARK.json names and units: "
              f"{'ok' if names_ok else 'FAILED'}")
        ok &= names_ok
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="smoke-run every workload (or --workload) twice")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "multicast_mimo" / "__init__.py").exists():
        print(f"no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck([args.workload] if args.workload else WORKLOADS)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    work = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            rec, values, units, attempted, failed, lines = traced_run(
                args.workload, args.seed, work)
        else:
            rec, values, units, attempted, failed, lines = timed_run(
                args.workload, args.seed, args.seconds, work)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print_cache_tie(args.workload)
    prov = provenance(args.seed, rec)
    print("  provenance: " + json.dumps(prov, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metric_block(values, units)}
    with open(work / "result.json", "w") as fh:
        json.dump({**result, "provenance": prov}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
