"""The four benchmark workloads, as seen from a user of evapchain.

Each ``prepare_*`` function builds a workload's inputs (the set-up the
benchmark times as ``setup_s``) and returns a callable that makes the engine
calls and returns the workload's output traces as
``{name: [[t, n_sys, entropy, cumulative discarded weight], ...]}``.  The
cli-sweep callable runs the command in-process and leaves its output on
disk; the harness reads the CSV files it wrote.

``size="tiny"`` shrinks every workload for the benchmark's self-test;
``cutoff`` overrides the truncation cutoff when the reference is made.
"""

from __future__ import annotations

from dataclasses import replace

from evapchain import evolve, model, oracle
from evapchain.config import ExperimentConfig
from evapchain.dmrg import DmrgConfig
from evapchain.model import EvaporationSchedule, TfimParams
from evapchain.tensor import TruncationPolicy

NAMES = ("desk-page", "paper-onset", "oracle-replay", "cli-sweep")

# Interval passes per paper-onset iteration (see prepare_paper_onset).
PAPER_PASSES = 3

CLI_PRESET = "fig5-criticality"
CLI_WORKERS = 2


def _rows(trace) -> list:
    return [[r.t, r.n_sys, r.entropy, r.discarded_weight] for r in trace.rows]


def prepare_desk_page(seed: int, size: str, cutoff: float | None):
    cfg = ExperimentConfig(seed=seed).at_scale("desk")
    if size == "tiny":
        cfg = replace(cfg, n_init=3, m_init=6, period=1.0)
    if cutoff is not None:
        cfg = replace(cfg, cutoff=cutoff)
    run_config = cfg.run_config()

    def run():
        return {"page": _rows(evolve.run_evaporation(run_config))}

    return run


def prepare_paper_onset(seed: int, size: str, cutoff: float | None):
    """The first interval of the 15+150 run, through the calls run_evaporation makes.

    The interval runs ``PAPER_PASSES`` times from the same initial state, so
    that its time is a median of several samples; the passes must agree
    exactly.
    """
    cfg = ExperimentConfig(seed=seed).at_scale("paper")
    if size == "tiny":
        cfg = replace(cfg, n_init=4, m_init=12, period=1.0, dmrg_sweeps=2)
    if cutoff is not None:
        cfg = replace(cfg, cutoff=cutoff)
    run_config = cfg.run_config()
    params = run_config.params
    sched = run_config.schedule

    def run():
        env, _ = evolve.environment_ground(run_config)
        gates = model.trotter_layers(params, params.n_init, sched.tau)
        rows = []
        for _ in range(PAPER_PASSES):
            psi = model.initial_state(params, env.copy(), run_config.initial_state)
            weight, _ = evolve.step_interval(
                psi, gates, sched.steps_per_interval, run_config.policy
            )
            entropy = psi.entropy_at(params.n_init - 1)
            rows.append([sched.period, params.n_init, entropy, weight])
        if any(row != rows[0] for row in rows):
            raise RuntimeError(f"repeated intervals disagree: {rows}")
        return {"onset": rows[:1]}

    return run


def prepare_oracle_replay(seed: int, size: str, cutoff: float | None):
    """Truncation-free 4+6 protocol, then its statevector replay."""
    params = TfimParams(n_init=4, m_init=6)
    sched = EvaporationSchedule(params=params, period=5.0, tau=0.01)
    if size == "tiny":
        sched = EvaporationSchedule(
            params=TfimParams(n_init=2, m_init=4), period=0.5, tau=0.05
        )
    # The seed would only pick the DMRG start; the exact environment has none.
    run_config = evolve.RunConfig(
        schedule=sched,
        policy=TruncationPolicy(max_bond=64, cutoff=0.0),
        env_ground="exact",
        dmrg=DmrgConfig(seed=seed),
    )

    def run():
        tebd = evolve.run_evaporation(run_config)
        exact = oracle.protocol_replay(run_config)
        return {"tebd": _rows(tebd), "exact": _rows(exact)}

    return run


def cli_argv(seed: int, size: str, cutoff: float | None, out: str) -> list[str]:
    argv = ["run", CLI_PRESET, "--set", "n_init=6", "--set", "m_init=14",
            "--workers", str(CLI_WORKERS), "--seed", str(seed), "--out", out]
    if size == "tiny":
        argv[2:6] = ["--set", "n_init=2", "--set", "m_init=4", "--set", "period=1.0"]
    if cutoff is not None:
        argv += ["--set", f"cutoff={cutoff!r}"]
    return argv


def prepare_cli_sweep(seed: int, size: str, cutoff: float | None, out: str):
    from evapchain import cli

    argv = cli_argv(seed, size, cutoff, out)

    def run():
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"evapchain {' '.join(argv)} exited with {code}")
        return None

    return run


PREPARE = {
    "desk-page": prepare_desk_page,
    "paper-onset": prepare_paper_onset,
    "oracle-replay": prepare_oracle_replay,
}
