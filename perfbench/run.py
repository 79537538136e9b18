"""defectwalk benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/`` directory.  The run

1. sets up the workload (fresh import of defectwalk, input generation from
   the seed, a warm-up through all five layers at tiny sizes);
2. repeats one pass over the workload's items for ``--seconds`` seconds,
   timing every item and every pass, and checks every output against its
   independent route after the pass, untimed; between passes it sets up
   again, at even intervals, and reports the median set-up as ``setup_s``;
3. with ``--trace 1``, spends the first half of the time on untraced passes
   and the second half on passes traced at every layer boundary, and reports
   the per-layer metrics and the tracing overhead instead.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
An item that raises or misses a tolerance is a failed operation; ``correct``
is false only when the program returned an output that missed a tolerance.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from tracing import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPS = 21

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("item_p50_ms", "ms"),
              ("item_p99_ms", "ms"), ("peak_rss_mb", "MB"))

# Functions whose own time and call count are reported, with extra counters.
FUNCTIONS = {
    "walk.time_average": (), "series.psi_origin_sequence": (),
    "series.rstar": (), "series.path_oracle_first_return": (),
    "spectral.singular_points": ("errors",),
    "spectral.residue_norms_origin": (), "spectral.xi_tilde0_series": (),
    "limits.mu_inf": (), "limits.total_point_mass": (),
}

# Walk steps each call into the walk layer requests.
STEP_WORK = {
    "walk.time_average": lambda a: a["T"] - 1,
    "walk.evolve": lambda a: a["n"],
    "walk.return_probability": lambda a: a["n"],
    "walk.step": lambda a: 1,
}


def per_layer_specs():
    """(name, unit) of every per-layer metric, in report order."""
    specs = []
    for layer in LAYERS:
        specs += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s"),
                  (f"{layer}.share", "fraction")]
    for name, extra in FUNCTIONS.items():
        specs += [(f"{name}.s", "s"), (f"{name}.calls", "count")]
        specs += [(f"{name}.{key}", "count") for key in extra]
    specs += [("walk.steps", "count"), ("trace.spans", "count"),
              ("trace.wall_s", "s"), ("trace.unattributed_s", "s"),
              ("trace.overhead_s", "s")]
    return specs


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def environment(seed):
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS if var in os.environ},
    }


def import_defectwalk():
    """Fresh import of the package from the checkout's src/."""
    for name in [m for m in sys.modules if m == "defectwalk" or m.startswith("defectwalk.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    dw = importlib.import_module("defectwalk")
    if Path(dw.__file__).resolve().parent != (SRC / "defectwalk").resolve():
        raise ImportError(f"defectwalk imported from {dw.__file__}, not from {SRC}")
    importlib.import_module("defectwalk.cli")
    return dw


def set_up(workload, seed, sizes=None):
    """Import, generate the pass and warm up.

    Returns (set-up seconds, package, items).
    """
    import workloads  # imports numpy, so only after pin_threads

    gc.collect()  # every set-up starts from the same heap state
    start = time.perf_counter()
    dw = import_defectwalk()
    items = workloads.WORKLOADS[workload](dw, random.Random(seed), **(sizes or {}))
    workloads.warm_up(dw, random.Random(seed))
    return time.perf_counter() - start, dw, items


@dataclass
class Passes:
    """What a series of passes measured."""

    walls: list = field(default_factory=list)
    # Each item's fastest run so far.  Keeping every run would make peak_rss_mb
    # grow with the number of passes, that is with the program's speed.
    best: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    misses: int = 0
    errors: Counter = field(default_factory=Counter)
    first_failures: list = field(default_factory=list)
    max_err: float = 0.0
    traces: list = field(default_factory=list)


def run_passes(items, seconds, tracer=None, between=None):
    """Repeat the pass over ``items`` while the next one fits in ``seconds``
    (at least once).  Only the program calls are timed.  ``between`` is
    called after each pass with the seconds elapsed."""
    out = Passes()
    clock = time.perf_counter
    begin = clock()
    walls = out.walls
    while not walls or clock() - begin + statistics.median(walls) <= seconds:
        outputs = []
        latencies = []
        pass_start = clock()
        for item in items:
            start = clock()
            try:
                outputs.append(item.run())
            except Exception as exc:
                outputs.append(exc)
            latencies.append(clock() - start)
        walls.append(clock() - pass_start)
        out.best = list(map(min, out.best, latencies)) if out.best else latencies
        if between is not None:
            between(clock() - begin)
        if tracer is not None:
            out.traces.append(tracer.collect())
        for item, result in zip(items, outputs):
            out.attempted += 1
            if isinstance(result, Exception):
                kind = type(result).__name__
                out.errors[kind] += 1
                reason = f"raised {kind}: {result}"
            else:
                err, misses = item.check(result)
                out.max_err = max(out.max_err, err)
                if not misses:
                    continue
                out.misses += 1
                reason = "; ".join(misses)
            out.failed += 1
            if len(out.first_failures) < 3:
                out.first_failures.append(f"{item.name}: {reason}")
    return out


def rank(n, p):
    """1-based nearest rank of the p-th percentile of n values."""
    return max(1, -(-n * p // 100))


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with p% of values at or below it."""
    return sorted(values)[rank(len(values), p) - 1]


def end_to_end_metrics(setup_s, passes):
    """Timings use each item's fastest run over the passes; ``wall_s`` is
    their sum, the pass with every item at its fastest.  On a shared machine,
    bursts of contention lasting seconds slow whole passes by up to 80 %, so
    medians over passes, and even the fastest pass, move with the contention
    and not with the program."""
    best = passes.best
    return {
        "setup_s": setup_s,
        "wall_s": math.fsum(best),
        "item_p50_ms": 1e3 * statistics.median(best),
        "item_p99_ms": 1e3 * percentile(best, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(untraced, traced):
    """Per-layer metrics for one traced pass, averaged over traced passes."""
    npass = len(traced.traces)
    layers = {name: {"calls": 0, "self_s": 0.0} for name in LAYERS}
    functions = {}
    for pass_layers, pass_functions in traced.traces:
        for name, agg in pass_layers.items():
            for key, value in agg.items():
                layers[name][key] += value
        for name, agg in pass_functions.items():
            total = functions.setdefault(name, dict.fromkeys(agg, 0))
            for key, value in agg.items():
                total[key] += value
    wall = statistics.mean(traced.walls)
    metrics = {}
    for name in LAYERS:
        metrics[f"{name}.calls"] = layers[name]["calls"] / npass
        metrics[f"{name}.self_s"] = layers[name]["self_s"] / npass
        metrics[f"{name}.share"] = metrics[f"{name}.self_s"] / wall
    for name, extra in FUNCTIONS.items():
        agg = functions[name]
        metrics[f"{name}.s"] = agg["s"] / npass
        metrics[f"{name}.calls"] = agg["calls"] / npass
        for key in extra:
            metrics[f"{name}.{key}"] = agg[key] / npass
    metrics["walk.steps"] = sum(
        agg["work"] for name, agg in functions.items() if name.startswith("walk.")
    ) / npass
    metrics["trace.spans"] = sum(metrics[f"{name}.calls"] for name in LAYERS)
    metrics["trace.wall_s"] = wall
    metrics["trace.unattributed_s"] = wall - sum(
        metrics[f"{name}.self_s"] for name in LAYERS)
    metrics["trace.overhead_s"] = min(traced.walls) - min(untraced.walls)
    return {name: int(v) if name.endswith((".calls", ".errors", ".steps", ".spans"))
            and float(v).is_integer() else v for name, v in metrics.items()}


def measure(workload, seed, seconds, trace, sizes=None, setup=None):
    """Run one workload; returns the printed result plus a ``report`` of
    human-readable lines.

    ``setup`` is the result of ``set_up`` when the caller made it already.
    The passes use its items; the later set-ups only time themselves.
    """
    first, dw, items = setup or set_up(workload, seed, sizes)
    gc.collect()
    if not trace:
        # Set-ups spread over the run, so that setup_s samples the whole run
        # and not only the machine's state at its start.
        setups = [first]

        def set_up_again(elapsed):
            if len(setups) < SETUP_REPS and elapsed >= len(setups) * seconds / SETUP_REPS:
                setups.append(set_up(workload, seed, sizes)[0])

        untraced = run_passes(items, seconds, between=set_up_again)
        setup_s = statistics.median(setups)
        runs = [untraced]
        values = end_to_end_metrics(setup_s, untraced)
        specs = END_TO_END
        n = len(items)
        report = [f"setup_s {setup_s:.6f} s (median of {len(setups)} set-ups,"
                  " spread over the run)",
                  f"wall_s {values['wall_s']:.6f} s (each of {n} items at its fastest"
                  f" of {len(untraced.walls)} passes; fastest whole pass"
                  f" {min(untraced.walls):.6f} s, median"
                  f" {statistics.median(untraced.walls):.6f} s)",
                  f"item_p50_ms {values['item_p50_ms']:.4f} ms, item_p99_ms "
                  f"{values['item_p99_ms']:.4f} ms (nearest rank over the {n} items'"
                  f" fastest runs, {n - rank(n, 99)} beyond p99)",
                  f"peak_rss_mb {values['peak_rss_mb']:.2f} MB"]
    else:
        untraced = run_passes(items, seconds / 2)
        tracer = Tracer(dw, work=STEP_WORK)
        tracer.install()
        try:
            traced = run_passes(items, seconds / 2, tracer=tracer)
        finally:
            tracer.uninstall()
        runs = [untraced, traced]
        values = per_layer_metrics(untraced, traced)
        specs = per_layer_specs()
        report = [f"traced {len(traced.walls)} passes, untraced {len(untraced.walls)};"
                  " values per pass"]
        report += [f"{name} {values[name]!r}" for name, _ in specs]
    attempted = sum(p.attempted for p in runs)
    failed = sum(p.failed for p in runs)
    misses = sum(p.misses for p in runs)
    errors = sum((p.errors for p in runs), Counter())
    report.append(f"ops {attempted}, failed {failed} (raised {dict(errors)},"
                  f" missed tolerance {misses}), max error vs independent route"
                  f" {max(p.max_err for p in runs):.3e}")
    report += [f"failed: {line}" for p in runs for line in p.first_failures]
    return {
        "report": report,
        "correct": misses == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in specs},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("cesaro", "renewal", "sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "defectwalk" / "__init__.py").is_file():
        print(f"error: no defectwalk package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    pin_threads()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    for line in result.pop("report"):
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
