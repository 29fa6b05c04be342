#!/usr/bin/env python3
"""The g2modpoly benchmark: seeded curve workloads, timed and checked.

    python3 perfbench/run.py --workload eval-cli-300 --seed 601 --seconds 50 --trace 0

Runs one workload in this process with one thread, in a closed loop: the
next curve starts when the previous one is done and checked, until
``--seconds`` have passed.  Every output is checked (``workloads.py``).
Times are scaled to a nominal machine speed measured in the same run
(``yardstick.py``).  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` every curve runs twice, once plain
and once with spans recorded at the module boundaries (``spans.py``), and
the last line carries the per-layer metrics.  The line before it is a
summary with the environment stamp, the unscaled figures and the metrics
that are not gated.  Run from the root of a source checkout; files go to
``.perfbench-out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_SAMPLES = 5          # set-up is timed this many times; setup_s is the median
P90_MIN_OPS = 100          # curve_s_p90 needs ten samples beyond it

E2E_UNITS = {"curves_per_s": "1/s", "curve_s_p50": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="curve seed (default: the seed the references were recorded at)")
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up, print the seconds, and exit")
    return ap.parse_args(argv)


def setup(name: str, seed: int, directory: str, import_s: float):
    """Draw the curves and write their files.

    Returns the set-up seconds, the pool, and the coefficients of the curves
    the conditioning screen resampled.  ``import_s`` is the time the caller
    spent importing the library, which counts as set-up.
    """
    import workloads

    start = time.perf_counter()
    screened = []
    pool = workloads.prepare(name, seed, directory, screened)
    return import_s + time.perf_counter() - start, pool, screened


def setup_probe(name: str, seed: int, trace: int) -> float:
    """One set-up in a fresh interpreter, so the library import is paid again."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", name,
         "--seed", str(seed), "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return float(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import mpmath

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def timed(workload, curve, path):
    """Wall seconds of one operation, its result, and the traceback if it raised."""
    start = time.perf_counter()
    try:
        raw, err = workload.run(curve, path), None
    except Exception:                       # counted as a failed op, never dropped
        raw, err = None, traceback.format_exc()
    return time.perf_counter() - start, raw, err


def checked(workload, raw, err, ref):
    """The op's outcome: its check's verdict, or the failure if it raised."""
    import workloads

    if err is not None:
        return workloads.Outcome(False, err)
    try:
        return workload.check(raw, ref)
    except Exception:                       # output the check cannot even parse
        return workloads.Outcome(False, traceback.format_exc())


def measure(workload, pool, refs, seconds, tracer):
    """Closed loop over the pool until ``seconds`` pass.

    Returns one record per op and the reference kernel's samples, taken
    before the first op, between ops (``yardstick.SHARE`` of the time), and
    after the last one.
    """
    import workloads
    import yardstick

    if tracer is not None:
        # first calls fill mpmath's constant caches; keep that cost out of
        # the traced/untraced comparison
        timed(workload, *pool[0])
    records = []
    kernel = [yardstick.kernel()]
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        while sum(kernel) < yardstick.SHARE * (time.perf_counter() - start):
            kernel.append(yardstick.kernel())
        k = i % len(pool)
        curve, path = pool[k]
        ref = refs[k] if k < len(refs) else workloads.MISSING
        rec = {"op": i, "curve": k}
        if tracer is None:
            rec["s"], raw, err = timed(workload, curve, path)
            outcome = checked(workload, raw, err, ref)
        else:
            # the same curve with and without spans; alternate which goes
            # first so that warm-up favours neither side
            results = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    with tracer.patched(i):
                        rec["traced_s"], raw, err = timed(workload, curve, path)
                else:
                    rec["s"], raw, err = timed(workload, curve, path)
                results[traced] = checked(workload, raw, err, ref)
            outcome = workloads.Outcome(results[True].solved,
                                        results[True].error or results[False].error)
        rec["solved"], rec["error"] = outcome.solved, outcome.error
        if rec["error"]:
            print(f"op {i} (curve {k}) failed: {rec['error']}", file=sys.stderr)
        records.append(rec)
        i += 1
    kernel.append(yardstick.kernel())
    return records, kernel


def end_to_end(records, setup_s, scale):
    """The gated metrics; times are multiplied by the machine-speed ``scale``."""
    times = [r["s"] * scale for r in records]
    done = [r for r in records if not r["error"]]
    return {
        "curves_per_s": len(done) / sum(times),
        "curve_s_p50": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s * scale,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "g2modpoly", "__init__.py")):
        print(f"no g2modpoly sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    start = time.perf_counter()
    import workloads                        # first import of the library: set-up
    import_s = time.perf_counter() - start

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    tag = f"{args.workload}-seed{seed}-trace{args.trace}"
    if args.setup_only:
        seconds, _, _ = setup(args.workload, seed, os.path.join(OUT, f"probe-{tag}"), import_s)
        print(repr(seconds))
        return 0
    return run(args, seed, tag, import_s)


def run(args, seed, tag, import_s) -> int:
    import workloads
    import g2modpoly

    if not os.path.abspath(g2modpoly.__file__).startswith(SRC + os.sep):
        print(f"g2modpoly imported from {g2modpoly.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    first, pool, screened = setup(args.workload, seed, os.path.join(OUT, f"curves-{tag}"), import_s)
    samples = [first] + [setup_probe(args.workload, seed, args.trace)
                         for _ in range(SETUP_SAMPLES - 1)]
    refs = workloads.load_reference(args.workload, seed)
    env = environment()
    if env["backend"] != "python":
        print(f"WARNING: mpmath backend is {env['backend']!r}, not 'python'; "
              "figures are not comparable with pure-Python runs", file=sys.stderr)

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    records, kernel = measure(workload, pool, refs, args.seconds, tracer)
    import yardstick
    scale = yardstick.NOMINAL_S / statistics.median(kernel)

    failed = sum(1 for r in records if r["error"])
    times = [r["s"] for r in records]
    summary = {
        "workload": args.workload, "seed": seed, "trace": args.trace,
        "env": dict(env, backend_flag=env["backend"] != "python"),
        "ops": len(records),
        "screened_out": [list(c) for c in screened],
        "solved_frac": sum(1 for r in records if r["solved"]) / len(records),
        "failed_frac": failed / len(records),
        "curve_s_p90": (statistics.quantiles(times, n=10)[8] * scale
                        if len(times) >= P90_MIN_OPS else None),
        "kernel_s_median": statistics.median(kernel),
        "speed_scale": scale,
        "setup_samples_s": samples,
        "unscaled": end_to_end(records, statistics.median(samples), 1.0),
    }
    e2e = end_to_end(records, statistics.median(samples), scale)
    if tracer is None:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    else:
        import spans
        layer = spans.layer_metrics(tracer, [r["traced_s"] for r in records],
                                    [r["s"] for r in records],
                                    [r["solved"] for r in records])
        metrics = {k: {"value": v * scale if spans.LAYER_UNITS[k] == "s" else v,
                       "unit": spans.LAYER_UNITS[k]} for k, v in layer.items()}
        summary["end_to_end"] = e2e
        tracer.write(os.path.join(OUT, f"spans-{tag}.jsonl"))
    summary["metrics"] = metrics
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(dict(summary, kernel_s=kernel, records=records), fh, indent=1)
        fh.write("\n")
    print("# " + json.dumps(summary))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
