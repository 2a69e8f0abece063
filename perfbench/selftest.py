"""Quick self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

It makes a tiny reference, then for every workload asserts that:

- an untraced run passes and prints exactly the ``end_to_end`` metrics of
  BENCHMARK.json, each with its unit;
- a run against a perturbed reference counts every iteration as failed;
- two traced runs at one seed print exactly the ``per_layer`` metrics, and
  their counts (``tensor.svd.calls`` and the like) repeat exactly.

It also asserts that the benchmark refuses to run, printing no result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import harness
import make_reference
import run

TINY = os.path.join(harness.RUNS, "selftest-reference.json")


def _bench(workload: str, trace: int, reference: str, cwd: str = harness.ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "0.1",
         "--trace", str(trace), "--size", "tiny", "--reference", reference],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return proc


def _result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
    return result


def _assert_metrics(result: dict, spec: list) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"metrics {got} != {want}"
    for name, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float)), (name, value)


def _perturbed(reference: dict) -> dict:
    bad = copy.deepcopy(reference)
    for workload in bad["tiny"].values():
        for entry in workload["seeds"].values():
            trace = next(iter(entry["traces"].values()))
            trace["rows"][0][2] += 2 * trace["tol"] + 1e-6
    return bad


def _refuses_without_program() -> None:
    bare = os.path.join(harness.RUNS, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(harness.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), bare)
    proc = _bench("desk-page", 0, os.path.join(bare, "perfbench", "reference.json"), bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    shutil.rmtree(bare)


def main() -> int:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert {m["name"] for m in spec["per_layer"]} \
        == {k for k, (_, shown) in run.PER_LAYER.items() if shown}

    os.makedirs(harness.RUNS, exist_ok=True)
    if os.path.exists(TINY):
        os.remove(TINY)
    make_reference.main(["--size", "tiny", "--out", TINY])
    bad_path = os.path.join(harness.RUNS, "selftest-perturbed.json")
    with open(bad_path, "w", encoding="utf-8") as fh:
        json.dump(_perturbed(harness.load_reference(TINY)), fh)

    for workload in harness.WORKLOADS:
        good = _result(_bench(workload, 0, TINY))
        assert good["correct"] and good["failed"] == 0 and good["attempted"] >= 1, good
        _assert_metrics(good, spec["end_to_end"])

        bad = _result(_bench(workload, 0, bad_path))
        assert not bad["correct"] and bad["failed"] == bad["attempted"] >= 1, bad

        first, second = (_result(_bench(workload, 1, TINY)) for _ in range(2))
        for traced in (first, second):
            assert traced["correct"], traced
            _assert_metrics(traced, spec["per_layer"])
        for name in run.COUNTS:
            if name in first["metrics"]:
                a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
                assert a == b, f"{workload} {name}: {a} != {b} between traced runs"
        print(f"{workload}: ok", flush=True)

    _refuses_without_program()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
