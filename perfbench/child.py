"""One workload process: set up, run the engine calls, write ``result.json``.

Usage (the harness starts it; it is not meant to be run by hand)::

    python3 perfbench/child.py <workload> --mode run|trace|setup|facts \
        --seed S --size full|tiny --launch T --dir RUN_DIR [--cutoff C]

``--launch`` is the ``time.monotonic()`` reading the harness took just before
starting this process, so set-up time includes interpreter start and imports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)



def _import_checked():
    import evapchain

    where = os.path.dirname(os.path.abspath(evapchain.__file__))
    if where != os.path.join(SRC, "evapchain"):
        raise SystemExit(f"evapchain imported from {where}, not from {SRC}")


def _blas_libraries() -> list[dict]:
    """Version and live thread count of every OpenBLAS loaded in this process."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    info["threads"] = threads()
                    info["config"] = config().decode()
        found.append(info)
    return found


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def _source_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "evapchain")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def machine_facts() -> dict:
    import platform

    import harness

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401 - loads scipy's own BLAS

    try:
        import matplotlib  # noqa: F401

        has_mpl = True
    except ImportError:
        has_mpl = False
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_libraries(),
        "thread_env": {k: os.environ.get(k) for k in harness.THREAD_VARS},
        "matplotlib_imports": has_mpl,
        "git_commit": _git_commit(),
        "source_sha256_16": _source_digest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--mode", choices=("run", "trace", "setup", "facts"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--launch", type=float, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--cutoff", type=float, default=None)
    args = ap.parse_args(argv)
    result_path = os.path.join(args.dir, "result.json")

    _import_checked()
    if args.mode == "facts":
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(machine_facts(), fh)
        return 0

    import spans
    import workloads

    if args.mode == "trace":
        tracer = spans.install(args.dir)
    elif args.mode == "run":
        spans.install_interval_probe(os.path.join(args.dir, "intervals.txt"))
    if args.workload == "cli-sweep":
        run = workloads.prepare_cli_sweep(
            args.seed, args.size, args.cutoff, os.path.join(args.dir, "out")
        )
    else:
        run = workloads.PREPARE[args.workload](args.seed, args.size, args.cutoff)
    setup_end = spans.clock()
    passes = workloads.PAPER_PASSES if args.workload == "paper-onset" else 1
    result = {"setup_s": setup_end - args.launch, "passes": passes}
    if args.mode != "setup":
        if args.mode == "trace":
            result["root_start"] = spans.clock()
            result["traces"] = tracer.root("bench.run", run)
            result["root_end"] = spans.clock()
            result["table"] = tracer.table()
        else:
            result["traces"] = run()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
