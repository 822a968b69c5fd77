"""The benchmark's own tests: smoke runs with the full checks, plus its helpers.

    python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--smoke", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracing.LAYER_METRICS)
    assert SPEC["command"] == ["python3", "benchmarks/run.py"] and SPEC["paths"] == ["benchmarks"]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "null_design", "--smoke", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_reference_mismatch_is_reported():
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))["null_design"][0]
    assert workloads.compare_digest(ref, ref) is None
    moved = {**ref, "vis": [ref["vis"][0] + 1e-6]}
    assert "vis[0]" in workloads.compare_digest(moved, ref)


def test_prepare_removes_previous_output(tmp_path):
    sweep = workloads.DeepSweep()
    sweep.setup(tmp_path)
    sweep.out.write_text("stale", encoding="utf-8")
    argv = sweep.prepare(next(sweep.inputs(np.random.default_rng(0))))
    with pytest.raises(FileNotFoundError):
        sweep.check(argv, None)


def test_tracer_wraps_every_binding():
    import atomfringe as af
    from atomfringe import compensation, fitkit

    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = af.fringe.averaged_fringe
        assert wrapped is fitkit.averaged_fringe is compensation.averaged_fringe is af.averaged_fringe
        assert hasattr(wrapped, "__wrapped__")
        af.visibility_ratio([af.DispersivePhaseTerm(-5.0, 1)], af.BeamModel(u=1000.0, s_parallel=8.0))
    finally:
        tracer.uninstall()
    assert not hasattr(fitkit.averaged_fringe, "__wrapped__")
    names = [s.name for s in tracer.spans]
    assert names.count("fringe.averaged_fringe") == 1 and names.count("beam.velocity_pdf") == 2
    outer = next(s for s in tracer.spans if s.name == "fringe.averaged_fringe")
    inner = sum(s.duration for s in tracer.spans if s.parent is outer)
    assert outer.self_s == pytest.approx(outer.duration - inner)


def _record(workload, seed, value):
    metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    return {"workload": workload, "seed": seed, "trace": 0,
            "result": {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}}


def test_compare_verdicts():
    metric = {"name": "op_s_p50", "better": "lower", "bound": 0.1}
    parent = [_record("w", s, 1.0 + 0.001 * s) for s in range(10)]
    faster = [_record("w", s, 0.8 + 0.001 * s) for s in range(10)]
    slower = [_record("w", s, 1.2 + 0.001 * s) for s in range(10)]
    noisy = [_record("w", s, 1.0 + 0.1 * (s % 4)) for s in range(10)]
    assert compare.verdict(metric, parent, faster)["verdict"] == "gain"
    assert compare.verdict(metric, parent, slower)["verdict"] == "regression"
    assert compare.verdict(metric, parent, parent)["verdict"] == "same"
    assert compare.verdict(metric, parent, noisy)["verdict"] == "unresolved"
