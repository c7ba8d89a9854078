"""Tests of the benchmark itself, on the tiny --smoke sizes.

Run with:  python3 -m pytest -q perfbench
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DETERMINISTIC = ("expaction.matvecs", "expaction.taylor_budget", "stiefel.rank_k_sum",
                 "stiefel.expm_calls", "expaction.exhaustive_norm_applies",
                 "quotient.ode_fallbacks")


def bench(*args, cwd=ROOT, check=True):
    done = subprocess.run([sys.executable, RUN, "--smoke", "--seconds", "0.3", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    if check:
        assert done.returncode == 0, done.stderr
    return done


def result(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    res = result(bench("--workload", workload, "--seed", "3", "--trace", str(trace)))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in res["metrics"].items()}
    for m in res["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_corrupted_output_is_counted_as_failure():
    code = f"""
import os, sys
sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, {HERE!r}]
from manitrans import flag_grassmann
original = flag_grassmann.grassmann_transport
flag_grassmann.grassmann_transport = lambda *a, **k: original(*a, **k) + 1e-3
import run
run.main(["--workload", "oneshot", "--seed", "3", "--seconds", "0.3", "--trace", "1",
          "--smoke"])
"""
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    res = result(done)
    samples = json.loads(next(line[len("# samples "):] for line in done.stdout.splitlines()
                              if line.startswith("# samples ")))
    passes = samples["passes_untraced"] + samples["passes_traced"]
    per_pass = samples["calls_per_pass_by_family"]["grassmann"]
    assert not res["correct"]
    # every corrupted timed call, plus the Grassmann oracle comparison
    assert res["failed"] == passes * per_pass + 1
    assert res["attempted"] == passes * samples["calls_per_pass"] + 3
    assert res["metrics"]["failed_ratio"]["value"] == res["failed"] / res["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_the_same_seed(workload):
    runs = [result(bench("--workload", workload, "--seed", "5", "--trace", "1"))
            for _ in range(2)]
    for name in DETERMINISTIC:
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name], name
    assert all(r["correct"] for r in runs)


def test_tracer_restores_the_library_and_adds_up(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(HERE)
    import numpy as np
    import tracer as tracing
    import workloads
    from manitrans import expaction, stiefel
    original = (expaction.expa, stiefel.decompose_tangent)
    calls = workloads.oneshot(7, smoke=True).calls
    plain = [call.run() for call in calls]
    t = tracing.Tracer()
    with tracing.installed(t):
        assert expaction.expa is not original[0]
        for call in calls:
            root = t.open_call(call.family)
            out = call.run()
            t.close(root)
            assert np.array_equal(out, plain[calls.index(call)])
    assert (expaction.expa, stiefel.decompose_tangent) == original
    roots = [i for i, n in enumerate(t.names) if n.startswith("call.")]
    wall = sum(t.end[i] - t.start[i] for i in roots)
    assert len(roots) == len(calls)
    assert abs(t.self_times().sum() - wall) <= 1e-9 * wall


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oneshot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
