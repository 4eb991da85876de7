"""One child process of the benchmark: a single-process campaign run.

Runs ``multicast_mimo.harness.run_campaign(config, workers=1, out_dir=...)``
on a figure recipe in a fresh interpreter with BLAS pinned to one thread,
and writes what it observed as JSON to ``--out``. ``run.py`` starts it;
see ``run.py --help`` for the benchmark itself.

Modes:
  --setup-only   stop at the first run_snapshot call (set-up time only)
  --seconds S    start a snapshot only if at least half of it (by the
                 median so far) fits in S seconds (the timed run)
  --trace        wrap every layer boundary and write spans to --spans
"""

import os

# Pin BLAS before numpy is imported: on small matrices threaded OpenBLAS is
# slower, and the thread count changes the last bits of the results.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import Tracer, span_cost  # noqa: E402


class _Stop(Exception):
    """Raised from the run_snapshot wrapper to end the campaign early."""


class SnapshotRecorder:
    """Wraps harness.run_snapshot with one timer per call and keeps every
    result. With a time budget it starts a snapshot only if, by the median
    so far, at least half of it fits, so a run lasts the budget on average."""

    def __init__(self, run_snapshot, setup_only=False, seconds=None):
        self._run_snapshot = run_snapshot
        self._setup_only = setup_only
        self._seconds = seconds
        self.first_call = None
        self.last_end = None
        self.snapshot_s = []
        self.results = []

    def __call__(self, config, index):
        now = time.perf_counter()
        if self.first_call is None:
            self.first_call = now
            if self._setup_only:
                raise _Stop
        elif self._seconds is not None and (
                now - self.first_call + statistics.median(self.snapshot_s) / 2
                > self._seconds):
            raise _Stop
        result = self._run_snapshot(config, index)
        self.last_end = time.perf_counter()
        self.snapshot_s.append(self.last_end - now)
        self.results.append(result)
        return result


def _outcome_record(index, label, out):
    def num(x):
        return x if math.isfinite(x) else repr(x)
    return {"snapshot": index, "strategy": label,
            "sum_se": num(out.sum_se), "min_user_se": num(out.min_user_se),
            "gamma_star": num(out.gamma_star),
            "se_subgroup": [num(v) for v in out.se_subgroup],
            "se_user": [num(v) for v in out.se_user],
            "error": out.error}


def _library_versions():
    import numpy
    import scipy
    blas = {}
    for lib in (numpy, scipy):
        try:
            dep = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas[lib.__name__] = (f"{dep.get('name')} {dep.get('version')} "
                                  f"({dep.get('openblas configuration', '')})")
        except (TypeError, KeyError, ValueError) as exc:
            blas[lib.__name__] = f"unknown ({type(exc).__name__})"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--recipe", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--snapshots", type=int, required=True,
                        help="campaign length (n_snapshots)")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--work", required=True,
                        help="directory for the campaign's out_dir")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import multicast_mimo
    from multicast_mimo import harness
    from multicast_mimo.recipes import figure_recipes
    if Path(multicast_mimo.__file__).resolve().parent != src / "multicast_mimo":
        print(f"imported {multicast_mimo.__file__}, not the checkout's src/",
              file=sys.stderr)
        return 2

    config = figure_recipes(args.recipe, seed=args.seed,
                            n_snapshots=args.snapshots)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    recorder = SnapshotRecorder(harness.run_snapshot, args.setup_only,
                                args.seconds)
    harness.run_snapshot = recorder
    out_dir = Path(args.work) / "campaign"

    t0 = time.perf_counter()
    try:
        harness.run_campaign(config, workers=1, out_dir=out_dir)
        t1 = time.perf_counter()
    except _Stop:
        t1 = recorder.last_end
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    k = config.geometry.n_users
    record = {
        "setup_end": recorder.first_call,
        "campaign_s": None if t1 is None else t1 - t0,
        "snapshot_s": recorder.snapshot_s,
        "indices": [r.index for r in recorder.results],
        "outcomes": [_outcome_record(r.index, label, out)
                     for r in recorder.results
                     for label, out in r.outcomes.items()],
        "strategies": [s.label for s in config.strategies],
        "shape": {"K": k, "M": config.channel.n_antennas,
                  "n_mc": config.n_mc},
        "subgroups_per_snapshot": sum(s.resolve_g(k)
                                      for s in config.strategies),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "libraries": _library_versions(),
    }
    if tracer is not None:
        record["totals"] = tracer.totals()
        record["counters"] = tracer.counters
        record["absent"] = tracer.absent
        record["spans"] = len(tracer.spans)
        record["span_cost_s"] = span_cost()
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
