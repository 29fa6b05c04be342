#!/usr/bin/env python3
"""Record the reference outputs of the default seed into ``reference.json``.

    python3 perfbench/record_reference.py

Runs the first curves of every workload's default-seed pool and stores, per
curve, the eval-cli-300 p2 (real parts, 50 digits) or the digest of the
certified rationals (null for a refusal).  A benchmark run on the default
seed then counts any op whose output differs as failed.  Record only at a
commit whose outputs are trusted, and say so when the file changes.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: curves recorded per workload: more than one run of the benchmark reaches
COUNTS = {"eval-cli-300": 100, "recon-ladder-800": 16, "refuse-ladder-256": 48}


def main() -> int:
    seed = workloads.DEFAULT_SEED
    doc = {"seed": seed, "workloads": {}}
    for name, count in COUNTS.items():
        w = workloads.WORKLOADS[name]
        pool = workloads.prepare(name, seed, os.path.join(
            os.path.dirname(HERE), ".perfbench-out", f"reference-{name}"))[:count]
        entries = []
        for k, (curve, path) in enumerate(pool):
            raw = w.run(curve, path)
            outcome = w.check(raw, workloads.MISSING)
            if outcome.error:
                print(f"{name} curve {k}: {outcome.error}", file=sys.stderr)
                return 1
            entries.append(w.reference(raw))
            print(f"{name} {k + 1}/{len(pool)}", file=sys.stderr)
        doc["workloads"][name] = entries
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
