"""Write the benchmark's reference outputs (``reference.json``).

    python3 perfbench/make_reference.py            # all workloads, full size
    python3 perfbench/make_reference.py --size tiny --out perfbench/.runs/tiny.json

Each workload runs at every input seed of the pool.  If the outputs of all
seeds agree to far below the tolerance, one reference (seed 0) serves every
seed; otherwise (cli-sweep: the ordered environment's DMRG lands on
seed-dependent states) each input seed stores its own.  A truncated workload
(every one except oracle-replay) runs again at ``TIGHT_CUTOFF``, and each
trace's tolerance is the largest |dS| between the two: its own truncation
error.  oracle-replay truncates nothing and gets ``harness.FLOAT_NOISE_TOL``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import harness

TIGHT_CUTOFF = 1e-8


def _traces(workload: str, size: str, seed: int, cutoff: float | None) -> dict:
    run_dir = harness.fresh_dir(f"reference-{workload}")
    result = harness.launch(workload, "run", seed, run_dir, size, cutoff)
    return harness.read_traces(workload, run_dir, result)


def _max_gap(a: dict, b: dict) -> float:
    if sorted(a) != sorted(b):
        return float("inf")
    return max(abs(x[2] - y[2]) for name in a for x, y in zip(a[name], b[name]))


def _entry(workload: str, size: str, seed: int, base: dict) -> dict:
    if workload == "oracle-replay":
        tols = {name: harness.FLOAT_NOISE_TOL for name in base}
    else:
        tight = _traces(workload, size, seed, TIGHT_CUTOFF)
        tols = {name: max(_max_gap({name: base[name]}, {name: tight[name]}),
                          harness.FLOAT_NOISE_TOL) for name in base}
    return {
        "tight_cutoff": None if workload == "oracle-replay" else TIGHT_CUTOFF,
        "traces": {name: {"rows": rows, "tol": tols[name]} for name, rows in base.items()},
    }


def reference_for(workload: str, size: str) -> dict:
    bases = [_traces(workload, size, seed, None) for seed in range(harness.SEED_POOL)]
    spread = max(_max_gap(bases[0], other) for other in bases[1:])
    first = _entry(workload, size, 0, bases[0])
    floor = min(t["tol"] for t in first["traces"].values())
    seeds = {"0": first}
    if spread > 0.1 * floor:
        for seed in range(1, harness.SEED_POOL):
            seeds[str(seed)] = _entry(workload, size, seed, bases[seed])
    return {"seed_spread": spread, "seeds": seeds}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", default=harness.REFERENCE)
    args = ap.parse_args(argv)
    os.makedirs(harness.RUNS, exist_ok=True)
    try:
        data = harness.load_reference(args.out)
    except OSError:
        data = {}
    section = data.setdefault(args.size, {})
    for workload in harness.WORKLOADS:
        section[workload] = reference_for(workload, args.size)
        entry = section[workload]
        tols = [t["tol"] for s in entry["seeds"].values() for t in s["traces"].values()]
        print(f"{workload}: {len(entry['seeds'])} reference(s), tolerance "
              f"{min(tols):.3e}..{max(tols):.3e}, seed spread {entry['seed_spread']:.3e}",
              flush=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
