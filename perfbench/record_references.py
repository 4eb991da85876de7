"""Record the seed-1 reference sum_se of every workload into references.json.

    python3 perfbench/record_references.py [--workload NAME]

Runs snapshots 0..N-1 of each workload's recipe at seed 1 in the same
pinned single-process child the benchmark uses, and stores sum_se per
(snapshot, strategy). It then compares them, read-only, with the matching
acceptance-campaign cache entries (tests/_campaign_cache/<recipe>-*.json),
which hold the same snapshot streams, and stores the largest relative
difference. Re-run it only when a change to the numerics is accepted.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import REFERENCES, ROOT, RUNS, WORKLOADS, Clock, provenance, \
    run_child  # noqa: E402

SEED = 1
# The relative tolerance of the answer check: ROADMAP item 2's gate allows
# a numerics change to drift sum SE by at most 1e-9 relative.
REL_TOL = 1e-9
# Enough snapshots to cover a timed seed-1 run after a several-fold speed-up.
REFERENCE_SNAPSHOTS = {"many-subgroups": 16, "mixed-precoders": 40}


def cache_tie(recipe: str, sum_se: list) -> dict | None:
    """Largest relative difference between the references and the cached
    acceptance campaign of the same recipe and seed, if one is cached."""
    paths = sorted((ROOT / "tests" / "_campaign_cache").glob(f"{recipe}-*.json"))
    if not paths:
        return None
    with open(paths[0]) as fh:
        cached = json.load(fh)["strategies"]
    worst, compared = 0.0, 0
    for label, entry in cached.items():
        if entry["errors"]:
            continue  # cached sum_se skips failed snapshots: indices shift
        for i, row in enumerate(sum_se[:len(entry["sum_se"])]):
            if label in row:
                ref = row[label]
                worst = max(worst, abs(entry["sum_se"][i] - ref) / abs(ref))
                compared += 1
    return {"file": str(paths[0].relative_to(ROOT)), "max_rel_diff": worst,
            "snapshots": len(sum_se), "outcomes": compared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    refs = {"seed": SEED, "rel_tol": REL_TOL, "workloads": {}}
    if REFERENCES.exists():
        with open(REFERENCES) as fh:
            refs = json.load(fh)
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        recipe = WORKLOADS[name]["recipe"]
        n = REFERENCE_SNAPSHOTS[name]
        work = RUNS / f"{name}-references"
        work.mkdir(parents=True, exist_ok=True)
        rec = run_child(Clock(60.0 * n), work, "references", recipe, SEED, n)
        sum_se = [{} for _ in range(n)]
        for o in rec["outcomes"]:
            if o["error"] is not None:
                print(f"{name}: snapshot {o['snapshot']} {o['strategy']} "
                      f"failed: {o['error']}", file=sys.stderr)
                return 1
            sum_se[o["snapshot"]][o["strategy"]] = o["sum_se"]
        tie = cache_tie(recipe, sum_se)
        refs["workloads"][name] = {"recipe": recipe, "sum_se": sum_se,
                                   "cache_tie": tie,
                                   "provenance": provenance(SEED, rec)}
        print(f"{name}: {n} snapshots recorded"
              + (f"; max rel diff vs {tie['file']}: {tie['max_rel_diff']:.2e}"
                 if tie else "; no cached campaign"))
    refs["seed"], refs["rel_tol"] = SEED, REL_TOL
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
