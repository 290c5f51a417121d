"""crchern benchmark: three CLI workloads, end-to-end and per-layer metrics.

Usage, from the repository root::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop with one client: repetitions run strictly one after another,
each in a fresh interpreter (``child.py``), until ``--seconds`` have passed.
Every repetition's manifest is checked (``check.py``).  With ``--trace 0``
the end-to-end metrics are reported; with ``--trace 1`` repetitions
alternate between untraced and traced (``spans.py``) and the per-layer
metrics are reported.  Timings are medians over repetitions, each
repetition's time divided by how much slower than reference speed the
machine ran while it was taken (``probe.py``).

The last line of standard output is the result object; the line before it
is the run record (machine, versions, sample counts).  A readable table of
every metric goes to standard error.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
from check import load_reference, manifest_problems

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
MANIFEST = "manifest.json"
SCENARIO = "scenario.json"
OUTPUT_FLAGS = ["--format", "json", "--no-timestamp", "--out", MANIFEST]
DEADLINE_S = 165  # a run must end within 180 s
BLAS_THREADS = "1"

WORKLOADS = ("spherical-sweep", "curvature-batch", "verify-all")

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("ring.mul.calls", "count"),
    ("ring.mul.self_s", "s"),
    ("ring.mul.term_pairs", "count"),
    ("ring.mul.terms_out", "count"),
    ("ring.add.calls", "count"),
    ("ring.add.self_s", "s"),
    ("ring.pow.calls", "count"),
    ("ring.pow.self_s", "s"),
    ("ring.element.calls", "count"),
    ("ring.element.self_s", "s"),
    ("ring.evaluate.calls", "count"),
    ("ring.evaluate.self_s", "s"),
    ("gysin.cup_matrix.calls", "count"),
    ("gysin.cup_matrix.self_s", "s"),
    ("gysin.cup_matrix.cells", "count"),
    ("gysin.membership.calls", "count"),
    ("gysin.membership.self_s", "s"),
    ("gysin.cokernel.calls", "count"),
    ("gysin.cokernel.self_s", "s"),
    ("snf.calls", "count"),
    ("snf.self_s", "s"),
    ("snf.cells", "count"),
    ("snf.max_side", "count"),
    ("bundles.self_s", "s"),
    ("checks.self_s", "s"),
    ("spherical.verify.calls", "count"),
    ("spherical.verify.self_s", "s"),
    ("spherical.residual.calls", "count"),
    ("spherical.residual.self_s", "s"),
    ("tractor.check.calls", "count"),
    ("tractor.check.self_s", "s"),
    ("tractor.det.calls", "count"),
    ("tractor.det.self_s", "s"),
    ("spaceform.calibrate.calls", "count"),
    ("spaceform.calibrate.self_s", "s"),
    ("spaceform.metric.calls", "count"),
    ("spaceform.metric.self_s", "s"),
    ("patch.metric_at.calls", "count"),
    ("patch.metric_at.self_s", "s"),
    ("patch.metric_at.per_point", "calls/point"),
    ("tensors.metric_derivatives.calls", "count"),
    ("tensors.metric_derivatives.self_s", "s"),
    ("tensors.point_tensors.calls", "count"),
    ("tensors.point_tensors.self_s", "s"),
    ("tensors.point_tensors.per_point", "calls/point"),
    ("tensors.divergence.calls", "count"),
    ("tensors.divergence.self_s", "s"),
    ("tensors.curvature_at.calls", "count"),
    ("tensors.curvature_at.self_s", "s"),
    ("tensors.oracle.self_s", "s"),
    ("scenario.run_batch.calls", "count"),
    ("scenario.run_batch.self_s", "s"),
    ("scenario.convergence.self_s", "s"),
    ("scenario.points", "count"),
    ("cli.main.self_s", "s"),
    ("cli.build_manifest.self_s", "s"),
    ("cli.manifest_bytes", "bytes"),
    ("cli.reports", "count"),
    ("proc.cpu_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
)


def workload_inputs(name: str, seed: int) -> tuple[list[str], dict[str, str], int]:
    """(argv, files to write next to it, seed the manifest must record)."""
    if name == "spherical-sweep":
        return ["verify", "thm-1-2", "--n-max", "28", *OUTPUT_FLAGS], {}, 0
    if name == "curvature-batch":
        doc = {"factors": [{"dim": 3, "hsc": "1"}, {"dim": 3, "hsc": "-1"}], "samples": 4, "seed": seed}
        return ["scenario", SCENARIO, *OUTPUT_FLAGS], {SCENARIO: json.dumps(doc)}, seed
    if name == "verify-all":
        argv = ["verify", "all", "--n-max", "24", "--samples", "2", "--seed", str(seed), *OUTPUT_FLAGS]
        return argv, {}, seed
    raise ValueError(f"unknown workload {name!r}")


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") and k != "CRCHERN_SEED"}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS=BLAS_THREADS,
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    return env


def run_child(work: Path, argv: list[str], trace: bool, timeout: float) -> tuple[dict | None, str]:
    """Run one repetition; return its record (None if it did not finish) and stderr."""
    record_path = work / "record.json"
    for stale in (record_path, work / MANIFEST):
        stale.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(record_path), "1" if trace else "0", *argv]
    try:
        proc = subprocess.run(
            cmd, cwd=work, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not record_path.exists():
        return None, proc.stderr.strip()[-2000:] or f"exit code {proc.returncode}"
    return json.loads(record_path.read_text()), proc.stderr


def repetition(work, argv, seed, reference, trace, timeout) -> dict:
    record, err = run_child(work, argv, trace, timeout)
    if record is None:
        return {"record": None, "problems": [f"child failed: {err}"]}
    problems = [] if record["exit"] == 0 else [f"exit code {record['exit']}: {err.strip()[-500:]}"]
    problems += manifest_problems(work / MANIFEST, argv, seed, reference)
    manifest = work / MANIFEST
    record["manifest_bytes"] = manifest.stat().st_size if manifest.exists() else 0
    if not problems:
        record["reports"] = len(json.loads(manifest.read_text())["reports"])
    return {"record": record, "problems": problems}


def median_of(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def slowdown(record: dict, phase: str) -> float:
    """How many times slower than reference speed the machine ran in a phase."""
    probes = record["probe"]
    return (probes[phase] or probes["main_s"]) / probe.REFERENCE_S


def wall_at_reference(record: dict) -> float:
    return record["wall_s"] / slowdown(record, "main_s")


def setup_at_reference(record: dict) -> float:
    return record["setup_s"] / slowdown(record, "setup_s")


def end_to_end(reps: list[dict]) -> dict[str, tuple[float, int]]:
    recs = [r["record"] for r in reps if r["record"] is not None]
    return {
        "wall_s": (median_of([wall_at_reference(r) for r in recs]), len(recs)),
        "setup_s": (median_of([setup_at_reference(r) for r in recs]), len(recs)),
        "peak_rss_mb": (median_of([r["peak_rss_kib"] / 1024 for r in recs]), len(recs)),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, tuple[float, int]]:
    plain = [r["record"] for r in plain if r["record"] is not None]
    traced = [r["record"] for r in traced if r["record"] is not None]

    def over(records, fn) -> tuple[float, int]:
        return median_of([fn(r) for r in records]), len(records)

    def span(r, name, field):
        return r["trace"]["spans"].get(name, [0, 0.0])[field]

    def per_point(r, name):
        points = r["trace"]["counters"]["scenario.points"]
        return span(r, name, 0) / points if points else 0.0

    traced_wall = median_of([wall_at_reference(r) for r in traced])
    plain_wall = median_of([wall_at_reference(r) for r in plain])
    special = {
        "cli.manifest_bytes": over(plain, lambda r: r["manifest_bytes"]),
        "cli.reports": over(plain, lambda r: r.get("reports", 0)),
        "proc.cpu_s": over(plain, lambda r: r["cpu_s"]),
        "trace.wall_s": (traced_wall, len(traced)),
        "trace.overhead_frac": (
            traced_wall / plain_wall - 1 if plain_wall else 0.0, min(len(traced), len(plain))
        ),
        # Share of traced wall time spent inside the layer spans the CLI
        # calls into: everything but cli.main's own parsing and serialization.
        "trace.coverage_frac": over(traced, lambda r: 1 - span(r, "cli.main", 1) / r["wall_s"]),
    }
    out = {}
    for metric, _unit in PER_LAYER:
        base, _, last = metric.rpartition(".")
        if metric in special:
            out[metric] = special[metric]
        elif last == "calls":
            out[metric] = over(traced, lambda r: span(r, base, 0))
        elif last == "self_s":
            out[metric] = over(traced, lambda r: span(r, base, 1))
        elif last == "per_point":
            out[metric] = over(traced, lambda r: per_point(r, base))
        else:
            out[metric] = over(traced, lambda r: r["trace"]["counters"][metric])
    return out


def git_commit() -> str | None:
    git_dir = ROOT / ".git"
    if not git_dir.is_dir():
        return None
    try:
        return subprocess.run(
            ["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "crchern" / "cli.py").is_file():
        print(f"crchern sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        argv, files, manifest_seed = workload_inputs(args.workload, args.seed)
        for name, text in files.items():
            (work / name).write_text(text)
        reference = load_reference(args.workload)

        # Compile the package's bytecode once, as an installed package has it.
        warm, err = run_child(work, ["--version"], False, 120)
        if warm is None:
            print(f"cannot run crchern: {err}", file=sys.stderr)
            return 1

        plain, traced = [], []
        i = 0
        while i == 0 or time.monotonic() - started < args.seconds:
            modes = (False, True) if args.trace else (False,)
            for trace in modes if i % 2 == 0 else modes[::-1]:
                left = DEADLINE_S - (time.monotonic() - started)
                rep = repetition(work, argv, manifest_seed, reference, trace, max(left, 1))
                (traced if trace else plain).append(rep)
            i += 1
            longest = max((r["record"] or {}).get("wall_s", 0) for r in plain + traced)
            if time.monotonic() - started + 3 * longest + 5 > DEADLINE_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps = plain + traced
    failures = [r["problems"] for r in reps if r["problems"]]
    if all(r["record"] is None for r in reps):
        print("no repetition finished:", failures[0], file=sys.stderr)
        return 1
    if args.trace:
        metrics, units = per_layer(plain, traced), dict(PER_LAYER)
    else:
        metrics, units = end_to_end(plain), dict(END_TO_END)
    failed_frac = len(failures) / len(reps)

    records = [r["record"] for r in reps if r["record"] is not None]
    versions = records[0]["versions"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": args.workload != "spherical-sweep",
        "argv": argv,
        "trace": args.trace,
        "seconds": args.seconds,
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "failed_frac": failed_frac,
        "failures": failures[:3],
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": versions["python"],
        "numpy": versions["numpy"],
        "samples": {name: count for name, (_value, count) in metrics.items()},
        "measured": {
            "wall_s": median_of([r["wall_s"] for r in records]),
            "setup_s": median_of([r["setup_s"] for r in records]),
            "slowdown": median_of([slowdown(r, "main_s") for r in records]),
            "probe_reference_s": probe.REFERENCE_S,
        },
    }
    for name, (value, count) in [*metrics.items(), ("failed_frac", (failed_frac, len(reps)))]:
        unit = units.get(name, "ratio")
        print(f"{name:36s} {value:>16.6g} {unit:12s} n={count}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(reps),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _n) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
