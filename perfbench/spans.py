"""Aggregated span timers installed around evapchain's functions from outside.

The benchmark never edits the package.  It replaces module attributes (and
``MpsState`` methods) with thin wrappers, so every caller that looks the name
up at call time goes through the wrapper.  Hot primitives run about a million
times per workload, so a wrapper keeps no record per call: it adds to three
numbers per span name (calls, total seconds, seconds covered by child spans).
A span's self time is its total minus its children; summed over all names the
self times add up to the root span, which is how the benchmark checks that no
layer goes missing.

``install`` patches the package; ``install_interval_probe`` is the cheap
timer of untraced runs, which wraps only ``evolve.step_interval`` (at most a
few dozen calls per run).
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

clock = time.monotonic

# (span name, module, attribute or "Class.method").  Functions imported by
# name into other modules are replaced there too.  Both gauge directions
# report as one span; the RQ direction factorizes inline, so the span's self
# time holds the RQ itself.
SPANS = (
    ("tensor.contract", "tensor", "contract"),
    ("tensor.svd", "tensor", "svd_truncate"),
    ("tensor.qr", "tensor", "qr_split"),
    ("mps.two_site", "mps", "MpsState.apply_two_site_gate"),
    ("mps.one_site", "mps", "MpsState.apply_single_site_gate"),
    ("mps.gauge", "mps", "MpsState._push_right"),
    ("mps.gauge", "mps", "MpsState._push_left"),
    ("mps.entropy", "mps", "MpsState.entropy_at"),
    ("model.gates", "model", "trotter_layers"),
    ("model.initial_state", "model", "initial_state"),
    ("dmrg", "dmrg", "ground_state"),
    ("evolve.env_ground", "evolve", "environment_ground"),
    ("evolve.interval", "evolve", "step_interval"),
    ("evolve.run", "evolve", "run_evaporation"),
    ("oracle.ground", "oracle", "exact_ground"),
    ("oracle.propagate", "oracle", "exact_propagate"),
    ("oracle.replay", "oracle", "protocol_replay"),
    ("trace.csv", "trace", "EntropyTrace.write_csv"),
    ("report.figure", "report", "save_trace_figure"),
    ("cli.main", "cli", "main"),
    ("cli.pool", "cli", "_execute_traces"),
    ("cli.job", "cli", "_run_planned"),
)


def _svd_shape_counts(args, out, extra):
    t, split = args[0], args[1]
    m = n = 1
    for k, d in enumerate(t.shape):
        if k < split:
            m *= d
        else:
            n *= d
    big, small = max(m, n), min(m, n)
    extra["tensor.svd.computed_rank"] += small
    extra["tensor.svd.kept_rank"] += out.s.size
    # Golub & Van Loan R-SVD count for U, S and V (6 m n^2 + 20 n^3 real
    # flops), times 4 for complex arithmetic: computed, not measured.
    extra["tensor.svd.gflop"] += 4.0 * (6.0 * big * small**2 + 20.0 * small**3) / 1e9


def _interval_counts(args, out, extra):
    extra["mps.max_bond"] = max(extra["mps.max_bond"], args[0].max_bond())


def _dmrg_counts(args, out, extra):
    extra["dmrg.sweeps"] += len(out[1].sweep_energies)


def _csv_counts(args, out, extra):
    extra["trace.csv.bytes"] += os.path.getsize(args[1])


AFTER = {
    "tensor.svd": _svd_shape_counts,
    "evolve.interval": _interval_counts,
    "dmrg": _dmrg_counts,
    "trace.csv": _csv_counts,
}


class Tracer:
    """Per-process span table; one instance per traced process."""

    def __init__(self, dump_dir: str):
        self.dump_dir = dump_dir
        self.pid = os.getpid()
        self.stats: dict[str, list] = {}
        self.extra: defaultdict[str, float] = defaultdict(float)
        self.stack: list[list[float]] = []
        self.depth: defaultdict[str, int] = defaultdict(int)
        self.jobs = 0

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        depth = self.depth
        extra = self.extra
        after = AFTER.get(name)
        count_in_dmrg = name == "tensor.contract"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[name] -= 1
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += frame[0]
                if stack:
                    stack[-1][0] += dt
            if count_in_dmrg and depth["dmrg"]:
                extra["dmrg.contract.calls"] += 1
            if after is not None:
                after(args, out, extra)
            return out

        return wrapper

    def root(self, name: str, fn):
        """Run ``fn`` as the outermost span of this process."""
        return self.wrap(name, fn)()

    def reset(self) -> None:
        """Forget everything inherited from the parent of a forked worker."""
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.extra.clear()
        self.stack.clear()
        self.depth.clear()

    def table(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.stats.items() if v[0]},
            "extra": dict(self.extra),
        }

    def dump(self, tag: str) -> None:
        path = os.path.join(self.dump_dir, f"spans-{os.getpid()}-{tag}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.table(), fh)


def _patch(evapchain_modules: dict, module: str, attr: str, wrapper_for) -> None:
    """Replace ``module.attr`` and every other module's alias of it."""
    mod = evapchain_modules[module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        setattr(cls, meth, wrapper_for(getattr(cls, meth)))
        return
    original = getattr(mod, attr)
    wrapper = wrapper_for(original)
    for other in evapchain_modules.values():
        for key, value in list(vars(other).items()):
            if value is original:
                setattr(other, key, wrapper)


def _modules() -> dict:
    import importlib

    names = ("tensor", "mps", "model", "dmrg", "evolve", "oracle", "trace",
             "report", "presets", "config", "cli")
    return {n: importlib.import_module(f"evapchain.{n}") for n in names}


def install(dump_dir: str) -> Tracer:
    """Wrap every span of ``SPANS``; forked CLI workers dump one file per job."""
    tracer = Tracer(dump_dir)
    modules = _modules()
    for name, module, attr in SPANS:
        if name == "cli.job":
            _patch(modules, module, attr, lambda fn: _job_wrapper(tracer, fn))
        else:
            _patch(modules, module, attr, functools.partial(tracer.wrap, name))
    return tracer


def _job_wrapper(tracer: Tracer, fn):
    """One CLI trace job.  In a pool worker it is the root span of that job."""
    inner = tracer.wrap("cli.job", fn)

    @functools.wraps(fn)
    def job(*args, **kwargs):
        if os.getpid() == tracer.pid:
            return inner(*args, **kwargs)
        tracer.jobs += 1
        tracer.reset()
        try:
            return inner(*args, **kwargs)
        finally:
            tracer.dump(f"job{tracer.jobs}")

    return job


def install_interval_probe(path: str) -> None:
    """Time ``evolve.step_interval`` calls, appending one line per call to ``path``.

    The file is opened in append mode on every call, so forked CLI workers
    report their intervals to the same place as the process that started them.
    """
    from evapchain import evolve

    original = evolve.step_interval

    @functools.wraps(original)
    def step_interval(*args, **kwargs):
        t0 = clock()
        out = original(*args, **kwargs)
        dt = clock() - t0
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{dt!r}\n")
        return out

    evolve.step_interval = step_interval
