"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"seed": 3, "seconds": 0.5, "scale": 0.05}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_appears_with_its_unit(workload, trace):
    result = run.run(workload, trace=trace, **TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: v["unit"] for n, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_wrong_expectation_is_counted_not_fatal():
    result = run.run("chain_large", trace=False, expected_gap_modes={"ssh": 0}, **TINY)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]  # fail_frac > 0, the run went on


def test_spans_wrap_every_binding_and_self_times_add_up():
    run.import_bandrec()
    import tracing
    from bandrec import reconstruct

    original = reconstruct.reconstruct_bands
    tracer = tracing.Tracer()
    with tracer.installed():
        start = perf_counter()
        with tracer.root():
            reconstruct.run_scenario({"scenario": "compact_defect", "n": 40})
        wall = perf_counter() - start
    assert reconstruct.reconstruct_bands is original
    edges = tracer.edges
    assert edges[("reconstruct.reconstruct_bands", "spectra.hermitian_eigen")] == 1
    assert edges[("reconstruct.reconstruct_bands", "transform.discrete_quasiperiodicity")] == 40
    assert edges[("spectra.hermitian_eigen", "transform.polarize")] == 40
    assert edges[("symbols.band_functions", "transform.polarize")] > 0
    assert edges[("reconstruct.run_scenario", "matrices.compact_perturbation")] == 1
    assert tracer.counts["symbols.evaluate_symbol"] == reconstruct.DEFAULT_GRID
    assert sum(tracer.self_s.values()) == pytest.approx(wall, rel=0.05)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "sweep_small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
