"""Tests of the benchmark itself: output check, seeds, tracing, manifest file.

Run from the repository root: ``python3 -m pytest bench -q`` (about a minute).
"""

import json
import shutil
import subprocess
import sys

import pytest

import probe
import run
from check import load_reference, manifest_problems

NAMED_COUNTS = (
    "ring.mul.calls",
    "snf.calls",
    "patch.metric_at.calls",
    "tensors.point_tensors.calls",
    "tractor.det.calls",
)
EXTRA_SEED = 5


def _run_bench(workload, seed, trace, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One passing manifest per workload at EXTRA_SEED, with its argv."""
    out = {}
    for workload in run.WORKLOADS:
        work = tmp_path_factory.mktemp(workload)
        argv, files, seed = run.workload_inputs(workload, EXTRA_SEED)
        for name, text in files.items():
            (work / name).write_text(text)
        record, err = run.run_child(work, argv, False, 120)
        assert record is not None and record["exit"] == 0, err
        assert record["probe"]["main_s"] > 0 and record["probe"]["samples"] > 0
        out[workload] = (work / run.MANIFEST, argv, seed)
    return out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_extra_seed_passes(outputs, workload):
    path, argv, seed = outputs[workload]
    assert manifest_problems(path, argv, seed, load_reference(workload)) == []


def _rewrite(outputs, workload, tmp_path, edit):
    path, argv, seed = outputs[workload]
    manifest = json.loads(path.read_text())
    edit(manifest)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest_problems(bad, argv, seed, load_reference(workload))


def test_changed_exact_witness_fails(outputs, tmp_path):
    def edit(m):
        m["reports"][0]["witnesses"][0]["ratio"] = "1/2"

    assert any("report" in p for p in _rewrite(outputs, "spherical-sweep", tmp_path, edit))


def test_dropped_report_fails(outputs, tmp_path):
    assert any("missing report" in p for p in _rewrite(
        outputs, "verify-all", tmp_path, lambda m: m["reports"].pop()))


def test_numeric_bound_violation_fails(outputs, tmp_path):
    def edit(m):
        m["reports"][0]["witnesses"][0]["maxima"]["divergence"] = 0.5

    problems = _rewrite(outputs, "curvature-batch", tmp_path, edit)
    assert any("divergence" in p for p in problems)


def test_wrong_seed_fails(outputs, tmp_path):
    assert any("seed" in p for p in _rewrite(
        outputs, "verify-all", tmp_path, lambda m: m.update(seed=EXTRA_SEED + 1)))


def test_corrupted_and_empty_manifests_fail(outputs, tmp_path):
    path, argv, seed = outputs["spherical-sweep"]
    reference = load_reference("spherical-sweep")
    truncated = tmp_path / "truncated.json"
    truncated.write_text(path.read_text()[:5000])
    empty = tmp_path / "empty.json"
    empty.write_text("")
    for bad in (truncated, empty, tmp_path / "missing.json"):
        assert manifest_problems(bad, argv, seed, reference)


def test_exit_zero_without_output_counts_as_failed(monkeypatch, tmp_path):
    def silent_child(work, argv, trace, timeout):
        return {"exit": 0, "wall_s": 0.1, "setup_s": 0.1, "cpu_s": 0.1,
                "peak_rss_kib": 1024, "trace": None}, ""

    monkeypatch.setattr(run, "run_child", silent_child)
    argv, _files, seed = run.workload_inputs("spherical-sweep", 0)
    rep = run.repetition(tmp_path, argv, seed, load_reference("spherical-sweep"), False, 10)
    assert rep["problems"] == ["no manifest written"]


def test_times_are_divided_by_the_probe_slowdown():
    record = {"wall_s": 3.0, "setup_s": 0.2,
              "probe": {"setup_s": 4 * probe.REFERENCE_S, "main_s": 2 * probe.REFERENCE_S, "samples": 9}}
    assert run.wall_at_reference(record) == pytest.approx(1.5)
    assert run.setup_at_reference(record) == pytest.approx(0.05)
    record["probe"]["setup_s"] = None
    assert run.setup_at_reference(record) == pytest.approx(0.1)


def test_benchmark_json_names_what_run_reports():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)


def test_every_binding_is_patched():
    code = (
        "import sys, crchern.cli\n"
        "from spans import Tracer\n"
        "from crchern.cohomology.ring import RingElement\n"
        "Tracer().install()\n"
        "assert RingElement.__rmul__.__wrapped__ and RingElement.__radd__.__wrapped__\n"
        "wrapped = {id(f.__wrapped__) for m in list(sys.modules.values()) if m.__name__.startswith('crchern')"
        " for f in vars(m).values() if hasattr(f, '__wrapped__')}\n"
        "left = [f'{m.__name__}.{k}' for m in list(sys.modules.values()) if m.__name__.startswith('crchern')"
        " for k, f in vars(m).items() if id(f) in wrapped]\n"
        "assert not left, left\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=run.BENCH, env=run.child_env(),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_trace_counts_repeat_and_spans_cover_wall(workload):
    results = []
    for _ in range(2):
        proc = _run_bench(workload, EXTRA_SEED, 1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"], proc.stdout
        results.append({k: v["value"] for k, v in result["metrics"].items()})
    first, second = results
    for name in NAMED_COUNTS:
        assert first[name] == second[name], name
    assert first["trace.coverage_frac"] >= 0.9
    assert "trace.overhead_frac" in first
    assert first["cli.reports"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("spherical-sweep", 0, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
