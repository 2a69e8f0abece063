"""Process launching, output reading and reference checks (standard library only).

Every workload iteration is a fresh ``child.py`` process with BLAS and OpenMP
pinned to one thread.  The harness takes the launch time, waits for the
process with ``os.wait4`` (which also yields its peak resident memory,
including reaped pool workers), reads the traces it produced and checks them
against the stored reference.  Wall time runs from launch to the end of that
check.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(HERE, ".runs")
REFERENCE = os.path.join(HERE, "reference.json")
CHILD = os.path.join(HERE, "child.py")

WORKLOADS = ("desk-page", "paper-onset", "oracle-replay", "cli-sweep")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_TIMEOUT_S = 150.0

# oracle-replay truncates nothing: its tolerance is float noise only.
FLOAT_NOISE_TOL = 1e-9

# The workload seed picks one of SEED_POOL inputs (the DMRG start state), so
# that every input has a stored reference.
SEED_POOL = 4


def input_seed(seed: int) -> int:
    return seed % SEED_POOL


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({k: "1" for k in THREAD_VARS})
    return env


def fresh_dir(name: str) -> str:
    path = os.path.join(RUNS, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def launch(workload: str, mode: str, seed: int, run_dir: str, size: str = "full",
           cutoff: float | None = None) -> dict:
    """Run one child process to completion.

    Returns its ``result.json`` plus ``launch`` (monotonic start time),
    ``peak_rss_mb`` and ``cpu_s`` (user + system time, pool workers
    included); raises ``ChildFailed`` on a nonzero exit, a timeout or a
    missing result.
    """
    cmd = [sys.executable, CHILD, workload, "--mode", mode, "--seed", str(seed),
           "--size", size, "--dir", run_dir]
    if cutoff is not None:
        cmd += ["--cutoff", repr(cutoff)]
    log_path = os.path.join(run_dir, "child.log")
    with open(log_path, "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            cmd + ["--launch", repr(t0)], stdout=log, stderr=subprocess.STDOUT,
            env=child_env(), cwd=ROOT, start_new_session=True,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # pool workers left behind by a crash, if any
    if proc.returncode != 0:
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise ChildFailed(f"{workload} {mode} exited with {proc.returncode}:\n{tail}")
    try:
        with open(os.path.join(run_dir, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ChildFailed(f"{workload} {mode} left no result: {exc}") from None
    result["launch"] = t0
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    return result


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def read_traces(workload: str, run_dir: str, result: dict) -> dict:
    """The workload's traces: from the result, or from the CSVs the CLI wrote."""
    if workload != "cli-sweep":
        return result["traces"]
    out = os.path.join(run_dir, "out")
    if not os.path.isfile(os.path.join(out, "run-manifest.txt")):
        raise ChildFailed("cli-sweep wrote no run-manifest.txt")
    traces = {}
    for name in sorted(os.listdir(out)):
        if name.endswith(".csv"):
            with open(os.path.join(out, name), newline="", encoding="utf-8") as fh:
                traces[name[:-4]] = [
                    [float(r["t"]), int(r["N"]), float(r["S_env"]),
                     float(r["discarded_weight"])]
                    for r in csv.DictReader(fh)
                ]
    return traces


def load_reference(path: str = REFERENCE) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def reference_for(reference: dict, size: str, workload: str, seed: int) -> dict:
    """The stored reference of one workload input.

    A workload whose output does not depend on the seed stores one reference
    (under "0"); the others store one per input seed.
    """
    seeds = reference[size][workload]["seeds"]
    return seeds["0"] if len(seeds) == 1 else seeds[str(input_seed(seed))]


def check(traces: dict, reference: dict) -> tuple[bool, float, str]:
    """Compare traces with one workload's reference.

    Every trace must be present with the same events (t, N), and each
    entropy must lie within that trace's stored tolerance.  Returns
    (passed, drift, message), where drift is the largest |dS| / tolerance.
    """
    expected = reference["traces"]
    if sorted(traces) != sorted(expected):
        return False, float("inf"), f"traces {sorted(traces)} != {sorted(expected)}"
    drift = 0.0
    for name, ref in expected.items():
        rows, tol = traces[name], ref["tol"]
        if [r[:2] for r in rows] != [r[:2] for r in ref["rows"]]:
            return False, float("inf"), f"{name}: events differ from the reference"
        for row, ref_row in zip(rows, ref["rows"]):
            gap = abs(row[2] - ref_row[2])
            if not gap <= tol:  # also catches NaN
                return False, gap / tol, (
                    f"{name} t={row[0]}: |dS| = {gap:.3e} exceeds {tol:.3e}")
            drift = max(drift, gap / tol)
    return True, drift, "ok"


def trace_error(workload: str, traces: dict) -> float:
    """The workload's own accuracy figure (lower is better).

    oracle-replay: max |S_tebd - S_exact| over events, in nats.  Every other
    workload: cumulative discarded weight, summed over its traces.
    """
    if workload == "oracle-replay":
        return max(abs(a[2] - b[2]) for a, b in zip(traces["tebd"], traces["exact"]))
    return sum(rows[-1][3] for rows in traces.values())
