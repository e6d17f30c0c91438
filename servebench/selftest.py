"""Small-scale self-test of the serving benchmark.

Runs every workload at ``--scale small`` for one second, untraced and
traced, from the repository root, and checks the output contract::

    python3 -m pytest servebench/selftest.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SEED = 3


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path("servebench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


_CACHE: dict[tuple[str, int], tuple[subprocess.CompletedProcess, dict]] = {}


def run_small(workload: str, trace: int):
    """One small-scale run (cached per workload and trace mode)."""
    key = (workload, trace)
    if key not in _CACHE:
        proc = _run(
            ROOT, "--workload", workload, "--seed", str(SEED), "--seconds", "1",
            "--trace", str(trace), "--scale", "small",
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        results = json.loads(
            (ROOT / ".servebench" / "results" / f"{workload}-seed{SEED}-trace{trace}.json").read_text()
        )
        _CACHE[key] = (proc, results[workload])
    return _CACHE[key]


def _last_line(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_contract_line(workload, trace):
    proc, _ = run_small(workload, trace)
    line = _last_line(proc)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_report_has_class_metrics_and_zero_failed_share(workload):
    _, result = run_small(workload, 0)
    e2e = result["end_to_end"]
    assert e2e["failed_share"]["value"] == 0
    for name, m in LAYERS["end_to_end_reported"]["metrics"].items():
        if workload in m["workloads"]:
            assert e2e[name]["unit"] == m["unit"], name
    prov = result["provenance"]
    for key in ("seed", "nproc", "cpu_model", "python", "numpy", "scipy",
                "server_argv", "matrix_shapes", "store_bytes"):
        assert prov[key] is not None, key
    for info in result["classes"].values():
        assert info["samples"] >= 1 and "highest_percentile" in info


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest_with_nonnegative_self_time(workload):
    run_small(workload, 1)
    path = ROOT / ".servebench" / "spans" / f"{workload}-seed{SEED}.jsonl"
    spans = {s["id"]: s for s in map(json.loads, path.read_text().splitlines())}
    assert any(s["name"].startswith("server:") for s in spans.values())
    assert any(s["name"].startswith("probe:") for s in spans.values())
    eps = 1e-9
    for s in spans.values():
        assert s["end"] >= s["start"] - eps, s
        assert s["self"] >= -eps, s
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["start"] - eps <= s["start"] and s["end"] <= parent["end"] + eps, (s, parent)


def test_expected_counters():
    for workload, expected in LAYERS["expected_counters"]["registry.hit_ratio"].items():
        proc, _ = run_small(workload, 1)
        assert _last_line(proc)["metrics"]["registry.hit_ratio"]["value"] == expected
    proc, _ = run_small("cold-rotate", 1)
    assert _last_line(proc)["metrics"]["registry.evictions_per_req"]["value"] == pytest.approx(1.0, abs=0.05)


def test_layer_catalog_matches_benchmark_json():
    catalog = LAYERS["per_layer"]
    assert set(catalog) == {m["name"] for m in BENCHMARK["per_layer"]}
    gated = {m["name"] for m in BENCHMARK["end_to_end"]}
    reported = set(LAYERS["end_to_end_reported"]["metrics"])
    assert not gated & reported
    e2e = gated | reported
    for name, m in catalog.items():
        for metric, workload in m["moves"]:
            assert metric in e2e and workload in WORKLOADS, (name, metric, workload)
    assert set(LAYERS["workloads"]) == set(WORKLOADS)


def test_fails_without_the_program():
    bare = ROOT / ".servebench" / "bare-check"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "servebench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = _run(bare, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
