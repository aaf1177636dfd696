"""End-to-end and per-layer benchmark of argmine on the bundled Boston table.

Usage, from the root of the repository:

    python3 bench/run.py --workload grid-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --write-reference

Workloads are defined in bench/workloads.json, metric names and units in
BENCHMARK.json.  Every workload uses the paper's split (split seed 0,
fraction 0.8), which the reference in bench/reference.json was taken on.
``--seed`` makes the inputs that do not change the amount of work: the
order in which the configs are submitted and the row order of the serve
CSV, a permutation of the full Boston table.

With ``--trace 0`` the benchmark repeats untraced passes, each in a fresh
interpreter (bench/worker.py), until ``--seconds`` are used, and reports
medians over the passes of the end-to-end metrics.  With ``--trace 1`` it
runs one untraced and one traced pass and reports the per-layer metrics;
the traced pass must predict exactly what the untraced one did.  Every
config's test accuracy, weighted F1 and serve-step predictions are
checked against the reference.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.

The standard library is enough for this file; argmine itself is only
imported by the worker processes, from ./src.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import statistics
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_work"
WORKER_TIMEOUT_S = 170
MIN_SETUP_SAMPLES = 5
SCORE_TOLERANCE = 1e-9
REFERENCE_SEEDS = (0, 1)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def load_json(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)


def make_spec(workloads: dict, workload: str, seed: int, trace: int) -> dict:
    """Write the seeded inputs of one run and return the worker's spec."""
    wl = workloads["workloads"][workload]
    dataset = ROOT / workloads["dataset"]
    if not dataset.is_file():
        raise BenchError(f"bundled dataset {dataset} is missing; run from a full checkout")
    rng = random.Random(seed)
    configs = [dict(workloads["common"], **c) for c in wl["configs"]]
    rng.shuffle(configs)
    with open(dataset, newline="") as f:
        header, *rows = list(csv.reader(f))
    perm = list(range(len(rows)))
    rng.shuffle(perm)

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-seed{seed}-", dir=WORK))
    serve_csv = workdir / "serve.csv"
    with open(serve_csv, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows[i] for i in perm)
    spec = {
        "workload": workload,
        "runner": wl["runner"],
        "workers": wl.get("workers", 1),
        "configs": configs,
        "target": workloads["common"]["target"],
        "serve_csv": str(serve_csv),
        "perm": perm,
        "workdir": str(workdir),
        "run_id": workdir.name,
        "serial_baseline": bool(trace),
        "spans_path": str(WORK / f"spans-{workload}-seed{seed}.json"),
    }
    with open(workdir / "spec.json", "w") as f:
        json.dump(spec, f)
    return spec


@contextmanager
def run_inputs(workloads: dict, workload: str, seed: int, trace: int):
    """The spec of one run; its directory is removed when the run ends."""
    spec = make_spec(workloads, workload, seed, trace)
    try:
        yield spec
    finally:
        shutil.rmtree(spec["workdir"], ignore_errors=True)


def run_worker(spec: dict, mode: str) -> dict:
    """One worker process in a fresh output directory; adds ``setup_s``."""
    outdir = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=spec["workdir"]))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--spec", str(Path(spec["workdir"]) / "spec.json"),
             "--mode", mode, "--outdir", str(outdir)],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not (outdir / "result.json").exists():
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    result = load_json(outdir / "result.json")
    result["setup_s"] = result["ready"] - started
    return result


def gate(records: list[dict], reference: dict) -> dict[str, str]:
    """Failure message per config that errs or disagrees with the reference."""
    failures = {}
    for r in records:
        ref = reference.get(r["label"])
        if r["error"] is not None:
            failures[r["label"]] = r["error"]
        elif ref is None:
            failures[r["label"]] = "no reference"
        elif abs(r["test_accuracy"] - ref["test_accuracy"]) > SCORE_TOLERANCE:
            failures[r["label"]] = f"test accuracy {r['test_accuracy']} != {ref['test_accuracy']}"
        elif abs(r["test_f1"] - ref["test_f1"]) > SCORE_TOLERANCE:
            failures[r["label"]] = f"test F1 {r['test_f1']} != {ref['test_f1']}"
        elif r["serve_digest"] != ref["serve_digest"]:
            failures[r["label"]] = "serve-step predictions differ from the reference"
    return failures


def pass_metrics(result: dict) -> dict[str, float]:
    """End-to-end figures of one untraced pass; configs that raised are left out."""
    ok = [r for r in result["configs"] if r["error"] is None]
    serve_s = sum(r["serve_s"] for r in ok)
    return {
        "wall_s": result["wall_s"],
        "predict_rows_per_s": sum(r["serve_rows"] for r in ok) / serve_s if serve_s else 0.0,
        "model_bytes": sum(r["model_bytes"] for r in ok),
        "peak_rss_mb": result["rss_mb"],
        "test_accuracy": statistics.fmean(r["test_accuracy"] for r in ok) if ok else 0.0,
        "test_f1": statistics.fmean(r["test_f1"] for r in ok) if ok else 0.0,
    }


def report_configs(result: dict, failures: dict[str, str]) -> None:
    for r in result["configs"]:
        if r["label"] in failures:
            print(f"  FAILED {r['label']}: {failures[r['label']]}")
        else:
            print(f"  {r['label']}: test accuracy {r['test_accuracy']:.4f}, F1 {r['test_f1']:.4f}, "
                  f"model {r['model_bytes']} bytes sha256 {r['model_sha256'][:16]}")


def measure(spec: dict, seconds: float, reference: dict) -> tuple[dict, int, int]:
    """Untraced passes until ``seconds`` are used; medians of their metrics."""
    passes, setups, attempted, failed = [], [], 0, 0
    start = time.monotonic()
    while True:
        result = run_worker(spec, "untraced")
        failures = gate(result["configs"], reference)
        attempted += len(result["configs"])
        failed += len(failures)
        print(f"pass {len(passes) + 1}: wall {result['wall_s']:.3f} s, set-up {result['setup_s']:.3f} s")
        report_configs(result, failures)
        passes.append(pass_metrics(result))
        setups.append(result["setup_s"])
        elapsed = time.monotonic() - start
        if elapsed + 0.5 * elapsed / len(passes) > seconds:
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(run_worker(spec, "setup")["setup_s"])
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["setup_s"] = statistics.median(setups)
    metrics["success_rate"] = (attempted - failed) / attempted
    print(f"{len(passes)} passes, {len(setups)} set-up samples")
    return metrics, attempted, failed


def trace(spec: dict, reference: dict, recorded_counts: dict) -> tuple[dict, int, int]:
    """One untraced and one traced pass; per-layer metrics of the traced one."""
    untraced = run_worker(spec, "untraced")
    traced = run_worker(spec, "traced")
    untraced_failures = gate(untraced["configs"], reference)
    traced_failures = gate(traced["configs"], reference)
    by_label = {r["label"]: r for r in untraced["configs"]}
    for r in traced["configs"]:
        u = by_label.get(r["label"], {})
        keys = ("error", "test_accuracy", "test_f1", "serve_digest", "counts")
        if any(r.get(k) != u.get(k) for k in keys):
            traced_failures.setdefault(r["label"], "traced replay disagrees with the untraced pass")
    print(f"untraced pass: wall {untraced['wall_s']:.3f} s")
    report_configs(untraced, untraced_failures)
    print(f"traced pass: wall {traced['wall_s']:.3f} s, spans in {os.path.relpath(spec['spans_path'], ROOT)}")
    report_configs(traced, traced_failures)

    layers = traced["layers"]
    grid = spec["runner"] == "run_grid"
    layers["pipeline.run_grid_s"] = untraced["grid_s"] if grid else 0.0
    layers["pipeline.grid_serial_s"] = untraced["grid_serial_s"] if grid else 0.0
    layers["pipeline.grid_speedup"] = untraced["grid_serial_s"] / untraced["grid_s"] if grid else 0.0
    layers["bench.trace_overhead_s"] = traced["wall_s"] - untraced["serial_wall_s"]
    drift = [name for name, value in recorded_counts.items() if layers.get(name) != value]
    for name in drift:
        print(f"  count {name} = {layers.get(name)}, recorded {recorded_counts[name]}")
    layers["bench.count_drift"] = len(drift)
    attempted = len(untraced["configs"]) + len(traced["configs"])
    return layers, attempted, len(untraced_failures) + len(traced_failures)


def counted(layers: dict) -> dict:
    """The per-layer metrics that are counts and must repeat exactly."""
    return {k: v for k, v in layers.items()
            if isinstance(v, int) and k != "bench.count_drift"}


def write_reference(workloads: dict) -> int:
    """Record outputs and counts, requiring two seeds to agree exactly."""
    reference: dict = {"configs": {}, "counts": {}}
    for workload in workloads["workloads"]:
        seen: dict = {}
        for seed in REFERENCE_SEEDS:
            with run_inputs(workloads, workload, seed, trace=1) as spec:
                runs = (run_worker(spec, "untraced"), run_worker(spec, "traced"))
            for result in runs:
                for r in result["configs"]:
                    if r["error"] is not None:
                        raise BenchError(f"{workload} {r['label']}: {r['error']}")
                    entry = {k: r[k] for k in ("test_accuracy", "test_f1", "serve_digest", "model_sha256")}
                    if seen.setdefault(r["label"], entry) != entry:
                        raise BenchError(f"{workload} {r['label']}: outputs differ between runs")
            counts = counted(runs[1]["layers"])
            if reference["counts"].setdefault(workload, counts) != counts:
                raise BenchError(f"{workload}: counts differ between seeds")
        reference["configs"].update(seen)
        print(f"{workload}: {len(seen)} configs recorded")
    with open(BENCH / "reference.json", "w") as f:
        json.dump(reference, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="argmine benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record bench/reference.json from the current code")
    args = parser.parse_args(argv)
    # SystemExit makes subprocess.run kill and reap the worker, and lets the
    # run directory be removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        workloads = load_json(BENCH / "workloads.json")
        if args.write_reference:
            return write_reference(workloads)
        if args.workload not in workloads["workloads"]:
            parser.error(f"--workload must be one of {sorted(workloads['workloads'])}")
        declared = load_json(ROOT / "BENCHMARK.json")
        reference = load_json(BENCH / "reference.json")
        with run_inputs(workloads, args.workload, args.seed, args.trace) as spec:
            if args.trace:
                metrics, attempted, failed = trace(spec, reference["configs"], reference["counts"][args.workload])
                wanted = declared["per_layer"]
            else:
                metrics, attempted, failed = measure(spec, args.seconds, reference["configs"])
                wanted = declared["end_to_end"]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"benchmark error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for m in wanted:
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
