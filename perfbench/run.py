"""evapchain benchmark: time one workload from outside and check its output.

    python3 perfbench/run.py --workload desk-page --seed 1 --seconds 15 --trace 0

Workloads: desk-page, paper-onset, oracle-replay, cli-sweep (see README.md).
Each iteration is a fresh process with BLAS and OpenMP pinned to one thread.
A run repeats iterations while another one fits in ``--seconds`` (at least
one), and also times a few set-up-only processes.  ``--trace 1`` alternates
untraced and traced iterations and reports per-layer metrics plus the
tracing overhead.  The last line of standard output is the result object;
the lines before it are details (machine facts, per-iteration figures, every
per-layer figure), also saved under ``perfbench/.runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

import harness

SETUP_SAMPLES = 4

# name -> unit, printed with --trace 0.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "interval_s": "s",
    "trace_error": "1",
    "peak_rss_mb": "MB",
}

# name -> (unit, in the result line).  Layers that do not run on every
# workload report their times only in the details, so that a time printed in
# the result line is never an unmeasured zero.
PER_LAYER = {
    "tensor.svd.calls": ("count", True),
    "tensor.svd.self_s": ("s", True),
    "tensor.svd.kept_ratio": ("1", True),
    "tensor.svd.gflop": ("GFLOP", True),
    "tensor.qr.calls": ("count", True),
    "tensor.qr.self_s": ("s", True),
    "tensor.contract.calls": ("count", True),
    "tensor.contract.self_s": ("s", True),
    "mps.two_site.calls": ("count", True),
    "mps.two_site.self_s": ("s", True),
    "mps.one_site.calls": ("count", True),
    "mps.one_site.self_s": ("s", True),
    "mps.gauge.shifts": ("count", True),
    "mps.gauge.self_s": ("s", True),
    "mps.entropy.self_s": ("s", True),
    "mps.max_bond": ("count", True),
    "model.gates.calls": ("count", True),
    "model.gates.self_s": ("s", True),
    "dmrg.total_s": ("s", False),
    "dmrg.self_s": ("s", False),
    "dmrg.sweeps": ("count", True),
    "dmrg.contract.calls": ("count", True),
    "evolve.env_ground.total_s": ("s", True),
    "evolve.interval.total_s": ("s", True),
    "evolve.interval.self_s": ("s", True),
    "oracle.propagate.calls": ("count", True),
    "oracle.propagate.self_s": ("s", False),
    "oracle.ground.self_s": ("s", False),
    "trace.csv.calls": ("count", True),
    "trace.csv.self_s": ("s", False),
    "trace.csv.bytes": ("B", True),
    "cli.jobs": ("count", True),
    "cli.pool.busy_s": ("s", False),
    "cli.pool.idle_s": ("s", False),
    "bench.traced_wall_s": ("s", True),
    "bench.overhead_pct": ("%", True),
}

# Counts that repeat exactly between traced runs at one seed (the self-test
# asserts it; a run reports it as ``counts_repeat``).
COUNTS = tuple(k for k, (unit, _) in PER_LAYER.items() if unit in ("count", "B"))


def _iteration(args, reference: dict, mode: str, tag: str) -> dict:
    """One fresh workload process, checked against the reference."""
    run_dir = harness.fresh_dir(f"{args.workload}-{tag}")
    record = {"mode": mode, "passed": False}
    try:
        result = harness.launch(args.workload, mode, harness.input_seed(args.seed),
                                run_dir, args.size)
        traces = harness.read_traces(args.workload, run_dir, result)
        passed, drift, message = harness.check(traces, reference)
        validated = time.monotonic()
        record.update(
            drift=drift,
            message=message,
            wall_s=validated - result["launch"],
            setup_s=result["setup_s"],
            peak_rss_mb=result["peak_rss_mb"],
            cpu_s=result["cpu_s"],
            trace_error=harness.trace_error(args.workload, traces),
        )
        if mode == "run":
            record["interval_s"] = _interval_s(run_dir, result["passes"])
        else:
            record["layers"] = _layers(args.workload, run_dir, result, validated)
        record["passed"] = passed
    except (harness.ChildFailed, OSError, KeyError, ValueError, TypeError) as exc:
        record["message"] = f"{type(exc).__name__}: {exc}"
    if record["passed"]:
        shutil.rmtree(run_dir)  # failed iterations keep their output for a look
    return record


def _interval_s(run_dir: str, passes: int) -> float:
    """Time inside ``step_interval`` per pass of the workload; median over passes."""
    with open(os.path.join(run_dir, "intervals.txt"), encoding="utf-8") as fh:
        times = [float(x) for x in fh]
    size = len(times) // passes
    return statistics.median(sum(times[k * size:(k + 1) * size]) for k in range(passes))


def _merge(tables) -> tuple[dict, dict]:
    spans: dict[str, list] = {}
    extra: dict[str, float] = {}
    for table in tables:
        for name, (calls, total, child) in table["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += child
        for name, value in table["extra"].items():
            if name == "mps.max_bond":
                extra[name] = max(extra.get(name, 0), value)
            else:
                extra[name] = extra.get(name, 0.0) + value
    return spans, extra


def _layers(workload: str, run_dir: str, result: dict, validated: float) -> dict:
    """Per-layer figures of one traced iteration, with the self-time check."""
    main_spans, _ = _merge([result["table"]])
    jobs = []
    for name in sorted(os.listdir(run_dir)):
        if name.startswith("spans-"):
            with open(os.path.join(run_dir, name), encoding="utf-8") as fh:
                jobs.append(json.load(fh))
    if workload == "cli-sweep" and not jobs:
        # Workers inherit the wrappers only when the pool forks.
        raise ValueError("no span tables from the pool workers")
    spans, extra = _merge([result["table"]] + jobs)

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        s = spans.get(name, [0, 0.0, 0.0])
        return s[1] - s[2]

    wall = validated - result["launch"]
    startup = result["root_start"] - result["launch"]
    teardown = validated - result["root_end"]
    main_self = sum(s[1] - s[2] for s in main_spans.values())
    gap = startup + main_self + teardown - wall
    # Spans in pool workers nest under their job span, whose totals are busy time.
    job_spans, _ = _merge(jobs)
    busy = sum((j["spans"].get("cli.job", [0, 0.0])[1] for j in jobs), 0.0)
    worker_gap = sum(s[1] - s[2] for s in job_spans.values()) - busy
    # The root span's own entry and exit fall outside it: allow a millisecond.
    if abs(gap) > 1e-3 + 1e-6 * wall or abs(worker_gap) > 1e-6 * max(busy, 1.0):
        raise ValueError(f"span self times do not add up: gap {gap:.3e} s, "
                         f"worker gap {worker_gap:.3e} s")
    pool_wall = self_s("cli.pool")  # the CLI process waiting on its pool
    workers = 2 if workload == "cli-sweep" else 0
    computed = extra.get("tensor.svd.computed_rank", 0.0)
    layers = {
        "tensor.svd.calls": calls("tensor.svd"),
        "tensor.svd.self_s": self_s("tensor.svd"),
        "tensor.svd.kept_ratio": extra.get("tensor.svd.kept_rank", 0.0) / computed
        if computed else 0.0,
        "tensor.svd.gflop": extra.get("tensor.svd.gflop", 0.0),
        "tensor.qr.calls": calls("tensor.qr"),
        "tensor.qr.self_s": self_s("tensor.qr"),
        "tensor.contract.calls": calls("tensor.contract"),
        "tensor.contract.self_s": self_s("tensor.contract"),
        "mps.two_site.calls": calls("mps.two_site"),
        "mps.two_site.self_s": self_s("mps.two_site"),
        "mps.one_site.calls": calls("mps.one_site"),
        "mps.one_site.self_s": self_s("mps.one_site"),
        "mps.gauge.shifts": calls("mps.gauge"),
        "mps.gauge.self_s": self_s("mps.gauge"),
        "mps.entropy.self_s": self_s("mps.entropy"),
        "mps.max_bond": int(extra.get("mps.max_bond", 0)),
        "model.gates.calls": calls("model.gates"),
        "model.gates.self_s": self_s("model.gates"),
        "dmrg.total_s": total("dmrg"),
        "dmrg.self_s": self_s("dmrg"),
        "dmrg.sweeps": int(extra.get("dmrg.sweeps", 0)),
        "dmrg.contract.calls": int(extra.get("dmrg.contract.calls", 0)),
        "evolve.env_ground.total_s": total("evolve.env_ground"),
        "evolve.interval.total_s": total("evolve.interval"),
        "evolve.interval.self_s": self_s("evolve.interval"),
        "oracle.propagate.calls": calls("oracle.propagate"),
        "oracle.propagate.self_s": self_s("oracle.propagate"),
        "oracle.ground.self_s": self_s("oracle.ground"),
        "trace.csv.calls": calls("trace.csv"),
        "trace.csv.self_s": self_s("trace.csv"),
        "trace.csv.bytes": int(extra.get("trace.csv.bytes", 0)),
        "cli.jobs": calls("cli.job"),
        "cli.pool.busy_s": busy,
        "cli.pool.idle_s": workers * pool_wall - busy if workers else 0.0,
    }
    self_times = {f"self.{k}": s[1] - s[2] for k, s in sorted(spans.items())}
    self_times.update({"self.bench.startup": startup, "self.bench.teardown": teardown})
    return {"metrics": layers, "self": self_times}


def _median(records, key):
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else None


def _run(args, reference: dict) -> tuple[list, list]:
    """Set-up samples, then iterations until --seconds is used up."""
    seed = harness.input_seed(args.seed)
    harness.launch(args.workload, "setup", seed, harness.fresh_dir("warm"), args.size)
    setups = []
    for k in range(SETUP_SAMPLES):
        res = harness.launch(args.workload, "setup", seed,
                             harness.fresh_dir(f"setup{k}"), args.size)
        setups.append(res["setup_s"])
    modes = ("run", "trace") if args.trace else ("run",)
    records = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        for mode in modes:
            records.append(_iteration(args, reference, mode, f"{mode}{len(records)}"))
        took = time.monotonic() - t0
        if time.monotonic() - start + took > args.seconds:
            break
    return setups, records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=harness.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the self-test's shrunken workloads")
    ap.add_argument("--reference", default=harness.REFERENCE)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(harness.ROOT, "src", "evapchain", "__init__.py")):
        print("error: no evapchain sources under src/ next to the benchmark",
              file=sys.stderr)
        return 2
    try:
        reference = harness.reference_for(
            harness.load_reference(args.reference), args.size, args.workload, args.seed)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: no reference for {args.workload} ({exc})", file=sys.stderr)
        return 2
    os.makedirs(harness.RUNS, exist_ok=True)

    try:
        facts = harness.launch(args.workload, "facts", 0,
                               harness.fresh_dir("facts"), args.size)
        setups, records = _run(args, reference)
    except harness.ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for key in ("launch", "peak_rss_mb", "cpu_s"):
        facts.pop(key)
    print("facts: " + json.dumps(facts, sort_keys=True))
    for r in records:
        brief = {k: v for k, v in r.items() if k != "layers"}
        print("iteration: " + json.dumps(brief, sort_keys=True))

    attempted = len(records)
    failed = sum(not r["passed"] for r in records)
    # A run that fails the reference check is still measured: it counts in
    # ``failed`` and the result says ``correct: false``.
    untraced = [r for r in records if r["mode"] == "run" and "wall_s" in r]
    traced = [r for r in records if r["mode"] == "trace" and "layers" in r]
    if not untraced or (args.trace and not traced):
        print("error: no iteration was measured; see perfbench/.runs/", file=sys.stderr)
        for r in records:
            print(f"  {r['mode']}: {r.get('message')}", file=sys.stderr)
        return 1

    details = {
        "setup_samples_s": setups,
        "drift_max": max(r["drift"] for r in records if "drift" in r),
        "untraced_walls_s": [r["wall_s"] for r in untraced],
    }
    if args.trace:
        first = traced[0]["layers"]["metrics"]
        layers = {
            name: value if name in COUNTS
            else statistics.median(r["layers"]["metrics"][name] for r in traced)
            for name, value in first.items()
        }
        wall_untraced = _median(untraced, "wall_s")
        wall_traced = _median(traced, "wall_s")
        layers["bench.traced_wall_s"] = wall_traced
        layers["bench.overhead_pct"] = 100.0 * (wall_traced - wall_untraced) / wall_untraced
        repeat = all(r["layers"]["metrics"][k] == first[k]
                     for r in traced for k in COUNTS if k in first)
        details.update(counts_repeat=repeat, traced_walls_s=[r["wall_s"] for r in traced],
                       self_times_s=traced[0]["layers"]["self"])
        for name, value in layers.items():
            print(f"layer: {name} = {value!r} {PER_LAYER[name][0]}")
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, (u, shown) in PER_LAYER.items() if shown}
    else:
        values = {
            "wall_s": _median(untraced, "wall_s"),
            "setup_s": statistics.median(setups + [r["setup_s"] for r in untraced]),
            "interval_s": _median(untraced, "interval_s"),
            "trace_error": _median(untraced, "trace_error"),
            "peak_rss_mb": _median(untraced, "peak_rss_mb"),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    print("details: " + json.dumps(details, sort_keys=True))

    out = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": metrics}
    with open(os.path.join(harness.RUNS, f"result-{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"result": out, "facts": facts, "details": details,
                   "iterations": records, "seed": args.seed}, fh, indent=1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
