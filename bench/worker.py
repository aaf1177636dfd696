"""One benchmark pass of argmine, run in its own interpreter by run.py.

Usage: worker.py --spec SPEC.json --mode {setup,untraced,traced} --outdir DIR

DIR must be new and empty: every file the pass writes there, result.json
last, is a new file.  (Overwriting a file whose blocks are already on
disk can cost tens of milliseconds on ext4, which would swamp the serve
step of small models.)

Every mode first does the set-up a user of the library pays on each run:
interpreter start, the import, loading the CSV and building the configs.
It then records ``time.monotonic()`` as ``ready``; run.py subtracts the
moment it started this process to get the set-up time.

``untraced`` runs the workload as a user would (``run_grid`` or
``run_experiment``), then the serve step for each config: save the model
JSON and the scheme JSON, and score the serve CSV in-process with
``argmine.cli.main(["predict", ...])``.  ``traced`` does the same work
serially with the timing shims of tracer.py installed and reports the
per-layer numbers.  Checking the outputs happens after the timed region.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import resource
import time
from contextlib import nullcontext

from argmine import case_model, cli, dectree, discretize, hero, inference, pipeline, pruned_search
from argmine.errors import InputError, InvariantError

from tracer import Tracer

# (owner, attribute, span name, shim options); see Tracer.install
SHIMS = (
    (pipeline, "load_csv", "pipeline.load_csv", {}),
    (pipeline, "split", "pipeline.split", {}),
    (pipeline, "fit_schemes", "pipeline.fit_schemes", {"count": len}),
    (pipeline, "apply_schemes", "pipeline.apply_schemes", {}),
    (case_model, "build_case_model", "case_model.build_case_model", {"count": lambda m: len(m.cases)}),
    (pruned_search, "learn_pruned", "pruned_search.learn_pruned", {}),
    (pruned_search, "search_arguments", "pruned_search.search_arguments", {"count": len}),
    (pruned_search, "find_exceptions", "pruned_search.find_exceptions", {"outermost": True}),
    (pruned_search.Theory, "from_json", "pruned_search.theory_from_json", {}),
    (hero, "learn_hero", "hero.learn_hero", {}),
    (hero.RuleList, "from_json", "hero.rulelist_from_json", {}),
    (dectree, "tune_tree", "dectree.tune_tree", {}),
    (dectree, "learn_tree", "dectree.learn_tree", {}),
    (inference, "predict_theory", "inference.predict_theory", {}),
    (inference, "predict_rule_list", "inference.predict_rule_list", {}),
    (inference, "evaluate", "inference.evaluate", {}),
    (discretize, "silhouette", "discretize.silhouette", {}),
    (discretize, "kmeans_1d", "discretize.kmeans_1d", {}),
    (discretize, "dbscan_1d", "discretize.dbscan_1d", {}),
)

# per-layer metric -> span name, read as total seconds ("s") or calls
SPAN_METRICS = {
    "pipeline.load_csv_s": ("pipeline.load_csv", "s"),
    "pipeline.split_s": ("pipeline.split", "s"),
    "pipeline.fit_schemes_s": ("pipeline.fit_schemes", "s"),
    "pipeline.apply_schemes_s": ("pipeline.apply_schemes", "s"),
    "pipeline.run_experiment_s": ("pipeline.run_experiment", "s"),
    "discretize.silhouette_calls": ("discretize.silhouette", "calls"),
    "discretize.silhouette_s": ("discretize.silhouette", "s"),
    "discretize.kmeans_1d_calls": ("discretize.kmeans_1d", "calls"),
    "discretize.kmeans_1d_s": ("discretize.kmeans_1d", "s"),
    "discretize.dbscan_1d_calls": ("discretize.dbscan_1d", "calls"),
    "discretize.dbscan_1d_s": ("discretize.dbscan_1d", "s"),
    "case_model.build_s": ("case_model.build_case_model", "s"),
    "pruned_search.learn_s": ("pruned_search.learn_pruned", "s"),
    "pruned_search.search_s": ("pruned_search.search_arguments", "s"),
    "pruned_search.find_exceptions_calls": ("pruned_search.find_exceptions", "calls"),
    "pruned_search.find_exceptions_s": ("pruned_search.find_exceptions", "s"),
    "pruned_search.theory_from_json_s": ("pruned_search.theory_from_json", "s"),
    "hero.learn_s": ("hero.learn_hero", "s"),
    "hero.rulelist_from_json_s": ("hero.rulelist_from_json", "s"),
    "dectree.tune_s": ("dectree.tune_tree", "s"),
    "dectree.learn_tree_calls": ("dectree.learn_tree", "calls"),
    "dectree.learn_tree_s": ("dectree.learn_tree", "s"),
    "inference.evaluate_s": ("inference.evaluate", "s"),
    "cli.predict_s": ("cli.predict", "s"),
}
# per-layer metric -> counter taken from the results of a shimmed call
RESULT_COUNTERS = {
    "pipeline.columns_binned": "pipeline.fit_schemes",
    "case_model.cases": "case_model.build_case_model",
    "pruned_search.pool_size": "pruned_search.search_arguments",
}
PREDICTORS = ("inference.predict_theory", "inference.predict_rule_list")
MODULES = ("pipeline", "discretize", "case_model", "pruned_search", "hero", "dectree", "inference", "cli", "bench")


def config_label(config: pipeline.ExperimentConfig) -> str:
    label = f"{config.learner}/{config.binning}/{config.bins}"
    if config.learner == "pruned_search":
        label += f"/mps{config.max_premise_size}/depth{config.exception_depth}"
    return label


def learn(spec: dict, configs: list, tracer: Tracer | None = None) -> list:
    """(config, result, error) per config; the traced pass runs serially."""
    if spec["runner"] == "run_grid" and tracer is None:
        try:
            return [(c, r, None) for c, r in zip(configs, pipeline.run_grid(configs, workers=spec["workers"]))]
        except (InputError, InvariantError):
            pass  # run them one by one to see which configs fail
    outcomes = []
    for config in configs:
        try:
            with tracer.span("pipeline.run_experiment") if tracer else nullcontext():
                outcomes.append((config, pipeline.run_experiment(config), None))
        except (InputError, InvariantError) as exc:
            outcomes.append((config, None, f"{type(exc).__name__}: {exc}"))
    return outcomes


def output_stem(spec: dict, config) -> str:
    return os.path.join(spec["outdir"], config_label(config).replace("/", "_"))


def serve(spec: dict, config, result, tracer: Tracer | None = None) -> tuple[int, float]:
    """Save model and schemes, then predict the serve CSV through the CLI."""
    stem = output_stem(spec, config)
    with tracer.span("bench.save") if tracer else nullcontext():
        with open(stem + ".model.json", "w") as f:
            f.write(json.dumps(result.model_json, indent=2, sort_keys=True) + "\n")
        with open(stem + ".schemes.json", "w") as f:
            json.dump({k: v.to_json() for k, v in sorted(result.schemes.items())}, f, indent=2, sort_keys=True)
    start = time.perf_counter()
    with tracer.span("cli.predict") if tracer else nullcontext():
        code = cli.main([
            "predict", "--model", stem + ".model.json", "--input", spec["serve_csv"],
            "--target", spec["target"], "--schemes", stem + ".schemes.json",
            "--output", stem + ".predictions.csv",
        ])
    return code, time.perf_counter() - start


def model_counts(model_json: dict) -> dict[str, int]:
    """Sizes read from the saved model JSON, independent of the learner's code."""
    if "arguments" in model_json:
        nodes = 0
        distinct = set()
        stack = list(model_json["arguments"])
        while stack:
            arg = stack.pop()
            nodes += 1
            distinct.add(json.dumps([arg["premise"], arg["conclusion"]], sort_keys=True))
            stack.extend(arg.get("exceptions", ()))
        return {
            "pruned_search.top_arguments": len(model_json["arguments"]),
            "pruned_search.exception_nodes": nodes,
            "pruned_search.exception_distinct": len(distinct),
        }
    if "tree" not in model_json:
        return {"hero.rules": len(model_json["rules"])}
    return {}


def check_outputs(spec: dict, outcome, serve_code: int | None, serve_s: float, n_rows: int) -> dict:
    """What run.py compares with the reference, for one config."""
    config, result, error = outcome
    record = {"label": config_label(config), "error": error}
    if error is not None:
        return record
    if serve_code != 0:
        record["error"] = f"argmine predict exited with {serve_code}"
        return record
    stem = output_stem(spec, config)
    with open(stem + ".predictions.csv", newline="") as f:
        predicted = [row[0] for row in list(csv.reader(f))[1:]]
    if len(predicted) != n_rows:
        record["error"] = f"{len(predicted)} predictions for {n_rows} rows"
        return record
    canonical = [""] * n_rows
    for position, row_id in enumerate(spec["perm"]):
        canonical[row_id] = predicted[position]
    with open(stem + ".model.json", "rb") as f:
        model_bytes = f.read()
    record.update(
        test_accuracy=result.test_report.accuracy,
        test_f1=result.test_report.weighted_f1,
        serve_digest=hashlib.sha256("\n".join(canonical).encode()).hexdigest(),
        model_sha256=hashlib.sha256(model_bytes).hexdigest(),
        model_bytes=len(model_bytes),
        serve_s=serve_s,
        serve_rows=n_rows,
        counts=model_counts(json.loads(model_bytes)),
    )
    return record


def run_pass(spec: dict, configs: list, n_rows: int, tracer: Tracer | None = None) -> dict:
    start = time.perf_counter()
    with tracer.span("bench.pass") if tracer else nullcontext():
        if tracer is None:
            outcomes = learn(spec, configs)
            learned = time.perf_counter()
            served = [serve(spec, c, r) if r is not None else (None, 0.0) for c, r, _ in outcomes]
        else:
            outcomes, served = [], []
            for config in configs:
                outcomes += learn(spec, [config], tracer)
                result = outcomes[-1][1]
                served.append(serve(spec, config, result, tracer) if result is not None else (None, 0.0))
    wall = time.perf_counter() - start
    out = {
        "wall_s": wall,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "configs": [check_outputs(spec, o, code, s, n_rows) for o, (code, s) in zip(outcomes, served)],
    }
    if tracer is None:
        out["learn_s"] = learned - start
        out["serve_s"] = sum(s for _, s in served)
    return out


def serial_baseline(spec: dict, configs: list, parallel: dict) -> float:
    """Untraced serial ``run_grid`` time; its reports must equal the parallel ones."""
    start = time.perf_counter()
    results = pipeline.run_grid(configs, workers=1)
    elapsed = time.perf_counter() - start
    for result, record in zip(results, parallel["configs"]):
        same = (result.test_report.accuracy, result.test_report.weighted_f1) == (
            record.get("test_accuracy"), record.get("test_f1"))
        if record["error"] is None and not same:
            record["error"] = "serial run_grid disagrees with the parallel run"
    return elapsed


def layer_metrics(tracer: Tracer, records: list[dict]) -> dict[str, float]:
    seconds, calls = tracer.totals()
    out: dict[str, float] = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        out[metric] = seconds.get(span, 0.0) if kind == "s" else calls[span]
    for metric, span in RESULT_COUNTERS.items():
        out[metric] = tracer.counts[span]
    for name in ("pruned_search.top_arguments", "pruned_search.exception_nodes",
                 "pruned_search.exception_distinct", "hero.rules"):
        out[name] = sum(r.get("counts", {}).get(name, 0) for r in records)
    distinct = out["pruned_search.exception_distinct"]
    out["pruned_search.exception_dup_ratio"] = out["pruned_search.exception_nodes"] / distinct if distinct else 0.0
    out["inference.predict_calls"] = sum(calls[p] for p in PREDICTORS)
    out["inference.predict_s"] = sum(seconds.get(p, 0.0) for p in PREDICTORS)
    out["inference.predict_us_per_row"] = (
        out["inference.predict_s"] / out["inference.predict_calls"] * 1e6 if out["inference.predict_calls"] else 0.0
    )
    self_seconds = tracer.self_seconds_by_module()
    for module in MODULES:
        out[f"{module}.self_s"] = self_seconds.get(module, 0.0)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "untraced", "traced"))
    parser.add_argument("--outdir", required=True)
    args = parser.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    spec["outdir"] = args.outdir
    n_rows = len(pipeline.load_csv(spec["serve_csv"]))
    configs = [pipeline.ExperimentConfig.from_json(c) for c in spec["configs"]]
    out: dict = {"ready": time.monotonic()}

    if args.mode == "untraced":
        out.update(run_pass(spec, configs, n_rows))
        out["serial_wall_s"] = out["wall_s"]
        if spec["runner"] == "run_grid" and spec["serial_baseline"]:
            out["grid_s"] = out["learn_s"]
            out["grid_serial_s"] = serial_baseline(spec, configs, out)
            out["serial_wall_s"] = out["grid_serial_s"] + out["serve_s"]
    elif args.mode == "traced":
        tracer = Tracer(spec["run_id"])
        for owner, attr, name, options in SHIMS:
            tracer.install(owner, attr, name, **options)
        try:
            out.update(run_pass(spec, configs, n_rows, tracer))
        finally:
            tracer.uninstall()
        out["layers"] = layer_metrics(tracer, out["configs"])
        tracer.write(spec["spans_path"])
    with open(os.path.join(args.outdir, "result.json"), "w") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
