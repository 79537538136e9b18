"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_harness.py

Not part of the tier-1 suite (pyproject's testpaths is ``tests``).
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def tiny_setup(workload, seed=1):
    return run.set_up(workload, seed, workloads.TINY[workload])


def tiny_measure(workload, trace, setup):
    return run.measure(workload, 1, 0.0, trace, sizes=workloads.TINY[workload],
                       setup=setup)


def declared(kind):
    return [(m["name"], m["unit"]) for m in SPEC[kind]]


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(workload, trace):
    setup = tiny_setup(workload)
    dw = setup[1]
    originals = {name: getattr(dw.walk, name) for name in ("step", "time_average")}
    result = tiny_measure(workload, trace, setup)
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    assert got == declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] is True
    assert result["attempted"] >= len(setup[2])
    if workload != "sweep":  # the sweep's phi = 0 point may fail; it is counted
        assert result["failed"] == 0
    assert {name: getattr(dw.walk, name) for name in originals} == originals


def test_end_to_end_metrics_are_positive():
    result = tiny_measure("sweep", 0, tiny_setup("sweep"))
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_trace_counts_exact_walk_steps():
    result = tiny_measure("cesaro", 1, tiny_setup("cesaro"))
    m = {name: v["value"] for name, v in result["metrics"].items()}
    # one compare, so one time_average(T=200), per localization region
    assert m["walk.steps"] == 3 * 199
    assert m["walk.time_average.calls"] == 3
    assert m["cli.calls"] == 3
    shares = sum(m[f"{layer}.share"] for layer in ("cli", "walk", "series",
                                                   "spectral", "limits"))
    assert 0.5 < shares <= 1.0


def _shifted(func, delta):
    def wrong(*args, **kwargs):
        return func(*args, **kwargs) + delta
    return wrong


@pytest.mark.parametrize("workload, module, name, delta", [
    ("cesaro", "limits", "mu_inf", 0.1),
    ("renewal", "spectral", "xi_tilde0_series", 1e-6),
    ("sweep", "limits", "mu_inf_origin", 1e-9),
])
def test_wrong_reference_is_a_failed_op(monkeypatch, workload, module, name, delta):
    setup = tiny_setup(workload)
    target = getattr(setup[1], module)
    monkeypatch.setattr(target, name, _shifted(getattr(target, name), delta))
    result = tiny_measure(workload, 0, setup)
    assert result["correct"] is False
    assert result["failed"] >= 1
    if workload == "renewal":
        # only the psi item uses xi_tilde0_series; r* and the oracle still pass
        assert result["failed"] == result["attempted"] // len(setup[2])
    else:
        assert result["failed"] == result["attempted"]


def test_same_seed_same_inputs():
    dw = run.import_defectwalk()
    for workload in NAMES:
        first = [item.name for item in workloads.WORKLOADS[workload](dw, random.Random(7))]
        again = [item.name for item in workloads.WORKLOADS[workload](dw, random.Random(7))]
        assert first == again
    names = [item.name for item in workloads.sweep(dw, random.Random(7))]
    assert len(names) == 1000 + 20 + 1 and names[-1] == "sweep phi=0.0"
    # the band-edge points, which fail, are the same for every seed
    other = [item.name for item in workloads.sweep(dw, random.Random(8))]
    assert names[-21:] == other[-21:] and names[:-21] != other[:-21]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_command_line_prints_result_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "2",
         "--seconds", "0.5", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == declared("end_to_end")
    env = json.loads(next(ln for ln in lines if ln.startswith("env "))[4:])
    assert env["seed"] == 2 and env["threads"]["OMP_NUM_THREADS"] == "1"
