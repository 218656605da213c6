"""Smoke tests of the benchmark runner, kept out of the package's test suite.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.  The
workload runs use ``--size smoke`` (tiny grids, one operation), so they check
the result schema and metric names, not timings or accuracy.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_matches_runner():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    for w in SPEC["workloads"]:
        assert NAME.match(w["name"]) and len(w["why"]) <= 200 and "\n" not in w["why"]


def test_check_kinds():
    assert run.Check("a", 1e-4, 1e-3).ok
    assert not run.Check("a", 2e-3, 1e-3).ok
    assert not run.Check("a", math.nan, 1e-3).ok
    assert run.Check("a", 0.6, 0.5, "min").ok
    assert not run.Check("a", 0.4, 0.5, "min").ok
    assert run.Check("a", math.nan, math.nan, "record").ok


def test_operator_and_kernel_checks(tmp_path):
    good = {"mass_error_max": 1e-12, "self_adjointness_residual": 2e-8,
            "duality_residual_max": 4e-9, "fixed_point_residual": 1.5e-7,
            "iteration_anomaly": False}
    (tmp_path / "operator_report.json").write_text(json.dumps(good))
    assert all(c.ok for c in run.check_quartic_operator(tmp_path))
    (tmp_path / "operator_report.json").write_text(json.dumps(good | {"iteration_anomaly": True}))
    assert not all(c.ok for c in run.check_quartic_operator(tmp_path))

    kernel = {"hs_norm_sq": 21.85, "hs_norm_sq_momentum": 21.8505, "sum_mu_sq": 21.82,
              "hs_bound_from_determinants": 156.6}
    (tmp_path / "kernel_report.json").write_text(json.dumps(kernel))
    assert all(c.ok for c in run.check_quartic_kernel(tmp_path))
    (tmp_path / "kernel_report.json").write_text(json.dumps(kernel | {"sum_mu_sq": 22.0}))
    assert not all(c.ok for c in run.check_quartic_kernel(tmp_path))


def test_sampler_distance_is_recorded_not_gated(tmp_path):
    (tmp_path / "sampler_report.json").write_text(
        json.dumps({"acceptance_rate": 0.9, "sup_distance": 5.0}))
    assert all(c.ok for c in run.check_quartic_sampler(tmp_path))


def _span(i, layer, start, end, parent=None):
    return {"id": i, "name": f"ns.{layer}", "layer": layer, "start": start, "end": end,
            "parent": parent, "run": "r"}


def test_layer_self_time_and_nesting():
    spans = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "operator.assemble_transfer", 1.0, 6.0, 0),
        _span(2, "dynamics.flow_batch", 1.5, 2.5, 1),
        _span(3, "operator.iterate", 6.0, 9.0, 0),
        # a layer re-entered below itself counts once in .s
        _span(4, "dynamics.flow_batch", 2.0, 2.2, 2),
    ]
    trace = {"spans": spans, "counts": {"operator.iterate.steps": 300}, "values": {},
             "missing": ["hmctransfer.cli.gone"]}
    m = run.layer_metrics(trace)
    assert m["operator.assemble_transfer.s"] == pytest.approx(5.0)
    assert m["operator.assemble_transfer.self_s"] == pytest.approx(4.0)
    assert m["dynamics.flow_batch.s"] == pytest.approx(1.0)
    assert m["dynamics.flow_batch.calls"] == 2
    assert m["trace.unattributed_s"] == pytest.approx(2.0)
    assert m["operator.iterate.s_per_step"] == pytest.approx(0.01)
    assert m["tangent.tangent_batch.points_per_s"] == 0.0
    assert m["trace.missing_hooks"] == 1
    assert set(m) == set(run.PER_LAYER)


def test_missing_hook_is_reported(monkeypatch):
    monkeypatch.setattr(tracer, "HOOKS", (("json", "no_such_function", "x.y"),))
    monkeypatch.setattr(tracer, "POTENTIAL_FACTORIES", (("no_such_module_xyz", "f"),))
    rec = tracer.Recorder("r")
    tracer.install(rec)
    assert rec.missing == ["json.no_such_function", "no_such_module_xyz.f"]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_workload_smoke(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads((run.WORK / f"{workload}-seed7-trace{trace}" / "result.json").read_text())
    assert record["environment"]["nproc"] >= 1
    assert all(op["checks"] or op["error"] for op in record["ops"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "quartic-kernel", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
