"""Command-line front end.

Subcommands: discretize, learn, predict, evaluate, experiment, grid.
Exit codes: 0 on success, 1 on input errors, 2 on violated internal
invariants.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from typing import Any

from .case_model import case_model_from_json, json_shape
from .discretize import BinningScheme
from .errors import InputError, InvariantError
from .hero import RuleList, learn_hero, learn_hero_multi
from .inference import detect_self_attack, evaluate
from .pipeline import (
    BINNINGS,
    LEARNERS,
    ExperimentConfig,
    Table,
    apply_schemes,
    fit_schemes,
    format_table,
    learn_model,
    load_csv,
    load_model,
    predict_rows,
    read_input,
    read_json,
    run_experiment,
    run_grid,
)
from .pruned_search import SearchConfig, Theory, learn_pruned


def _bins_value(text: str):
    return text if text == "opt" else int(text)


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with an ExperimentConfig; flags override")
    parser.add_argument("--dataset-path", dest="dataset_path")
    parser.add_argument("--target")
    parser.add_argument("--learner", choices=LEARNERS)
    parser.add_argument("--binning", choices=BINNINGS)
    parser.add_argument("--bins", type=_bins_value)
    parser.add_argument("--max-premise-size", dest="max_premise_size", type=int)
    parser.add_argument("--exception-depth", dest="exception_depth", type=int)
    parser.add_argument("--split-fraction", dest="split_fraction", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--output-dir", dest="output_dir")


def _experiment_config(args: argparse.Namespace, **fixed: Any) -> ExperimentConfig:
    """Config from ``--config``, overridden by flags, then by ``fixed``."""
    data: dict[str, Any] = {}
    if getattr(args, "config", None):
        data.update(read_json(args.config, dict))
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            data[f.name] = value
    data.update(fixed)
    return ExperimentConfig.from_json(data)


def _write_json(data: dict, path: str | None) -> None:
    text = json.dumps(data, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def cmd_discretize(args: argparse.Namespace) -> int:
    table = load_csv(args.input)
    columns = args.columns.split(",") if args.columns else None
    unknown = [c for c in columns or () if c not in table.columns]
    if unknown:
        raise InputError(f"{args.input} has no columns named {unknown}")
    work = Table(
        columns=[c for c in table.columns if columns is None or c in columns],
        rows=table.rows,
    )
    # no target concept here: every requested numeric column gets the
    # per-column search, so the target-only bin count plays no part
    schemes = fit_schemes(work, args.method, "opt", target="", only_target=False)
    _write_json({name: s.to_json() for name, s in sorted(schemes.items())}, args.output)
    if args.transformed:
        rows = apply_schemes(table, schemes)
        with open(args.transformed, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(table.columns)
            for row in rows:
                writer.writerow([row[c] for c in table.columns])
    return 0


def _learn_from_case_model(args: argparse.Namespace) -> int:
    model = read_json(args.input, case_model_from_json)
    if args.target and args.target not in {lit.attribute for lit in model.all_literals()}:
        raise InputError(f"{args.input}: no case assigns the target {args.target!r}")
    if args.learner == "pruned_search":
        # flags left out keep SearchConfig's defaults, except that premises may use every attribute
        given = {"max_premise_size": args.max_premise_size, "exception_depth": args.exception_depth}
        search = {k: v for k, v in given.items() if v is not None}
        search.setdefault("max_premise_size", max(len(model.attributes), 1))
        theory = learn_pruned(model, SearchConfig(**search, target_attributes=(args.target,) if args.target else None))
        _write_json(theory.to_json(), args.output)
        return 0
    if args.learner == "hero":
        rl = learn_hero(model, args.target) if args.target else learn_hero_multi(model)
        _write_json(rl.to_json(), args.output)
        if detect_self_attack(rl):
            print("warning: the learned rules imply self-attacking arguments", file=sys.stderr)
        return 0
    raise InputError("a case-model input supports the pruned_search and hero learners")


def cmd_learn(args: argparse.Namespace) -> int:
    if args.input.endswith(".json"):
        return _learn_from_case_model(args)
    if not args.target:
        raise InputError("--target is required for CSV input")
    # the whole table is training data
    config = _experiment_config(args, dataset_path=args.input, split_fraction=1.0)
    table = load_csv(args.input)
    schemes = fit_schemes(table, config.binning, config.bins, config.target, config.learner == "dectree")
    _, model_json = learn_model(config, apply_schemes(table, schemes), table.columns)
    _write_json(model_json, args.output)
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    table = load_csv(args.input)
    # a tree names its missing feature when it predicts; rule premises would just fail
    premises = [r.premise for r in model.rules] if isinstance(model, RuleList) else []
    premises += [n.premise for a in model.arguments for n in a.nodes()] if isinstance(model, Theory) else []
    missing = sorted({lit.attribute for p in premises for lit in p} - set(table.columns) - {args.target})
    if missing:
        raise InputError(f"{args.input} lacks the columns {missing} that the model's premises use")
    # load_csv reads every number as a float, so a premise's integer value is a bin label
    binned = {lit.attribute for p in premises for lit in p if type(lit.value) is int} - {args.target}
    if args.schemes:
        schemes = read_json(args.schemes, lambda data: {
            k: BinningScheme.from_json(v, k) for k, v in json_shape(data, dict, "schemes").items()})
        # load_csv types each column as a whole: all floats or all strings
        text = [c for c in table.columns if c in schemes and isinstance(table.rows[0][c], str)]
        if text:
            raise InputError(f"{args.input}: {args.schemes} has schemes for text columns {text}")
        unbinned = sorted(binned - set(schemes))
        if unbinned:
            raise InputError(
                f"{args.schemes} has no schemes for the columns {unbinned} whose bin labels the model's premises use")
        rows = apply_schemes(table, schemes)
    else:
        # a fractional number is no bin label: the column was never binned
        raw = sorted(c for c in binned if any(isinstance(v, float) and not v.is_integer() for v in table.column(c)))
        if raw:
            raise InputError(
                f"{args.input} holds raw numbers in the columns {raw} whose bin labels the model's premises use;"
                " pass their --schemes")
        rows = table.rows
    predictions = predict_rows(model, rows, args.target)
    out = args.output
    writer_target = open(out, "w", newline="") if out else sys.stdout
    try:
        writer = csv.writer(writer_target)
        header = ["predicted"] + (["actual"] if args.target in table.columns else [])
        writer.writerow(header)
        for row, pred in zip(rows, predictions):
            line = [pred if pred is not None else "abstain"]
            if args.target in table.columns:
                line.append(row[args.target])
            writer.writerow(line)
    finally:
        if out:
            writer_target.close()
    return 0


def _prediction_pairs(f) -> list[tuple[Any, Any]]:
    reader = csv.DictReader(f)
    if "predicted" not in (reader.fieldnames or []) or "actual" not in (reader.fieldnames or []):
        raise InputError("predictions CSV needs 'predicted' and 'actual' columns")
    pairs = []
    for row in reader:
        if None in row or None in row.values():  # how DictReader marks a long or a short row
            raise InputError(f"line {reader.line_num} does not have one cell per header column")
        pairs.append((None if row["predicted"] == "abstain" else row["predicted"], row["actual"]))
    return pairs


def cmd_evaluate(args: argparse.Namespace) -> int:
    report = evaluate(read_input(args.predictions, _prediction_pairs))
    _write_json(report.to_json(), args.output)
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    config = _experiment_config(args)
    result = run_experiment(config)
    print(format_table(result.table_rows()))
    if not args.quiet:
        print(f"training time: {result.runtime_ms:.1f} ms", file=sys.stderr)
    return 0


def _configs_from_json(entries: Any) -> list[ExperimentConfig]:
    if not isinstance(entries, list):
        raise InputError("expected a JSON list of experiment configs")
    return [ExperimentConfig.from_json(e) for e in entries]


def cmd_grid(args: argparse.Namespace) -> int:
    configs = read_json(args.configs, _configs_from_json)
    results = run_grid(configs, workers=args.workers)
    rows = [row for r in results for row in r.table_rows()]
    print(format_table(rows))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error is bad input (exit 1); 2 means a violated invariant
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="argmine",
        description="Learn defeasible arguments from tabular data via case models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discretize", help="fit binning schemes for CSV columns (k chosen per column by silhouette)")
    p.add_argument("--input", required=True)
    p.add_argument("--method", required=True, choices=BINNINGS)
    p.add_argument("--columns", help="comma-separated column subset")
    p.add_argument("--output", help="scheme JSON path (default stdout)")
    p.add_argument("--transformed", help="optional path for the binned CSV")
    p.set_defaults(func=cmd_discretize)

    p = sub.add_parser("learn", help="learn a theory/rule list/tree from CSV or case-model JSON")
    p.add_argument("--input", required=True, help="CSV file or case-model JSON")
    p.add_argument("--learner", required=True, choices=LEARNERS)
    p.add_argument("--target")
    p.add_argument("--binning", default="equal-width", choices=BINNINGS)
    p.add_argument("--bins", type=_bins_value, default=2)
    p.add_argument("--max-premise-size", dest="max_premise_size", type=int)
    p.add_argument("--exception-depth", dest="exception_depth", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--output", help="model JSON path (default stdout)")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("predict", help="predict a target column with a learned model")
    p.add_argument("--model", required=True, help="model JSON from `learn`")
    p.add_argument("--input", required=True, help="CSV of instances")
    p.add_argument("--target", required=True)
    p.add_argument("--schemes", help="scheme JSON from `discretize` to bin the input first")
    p.add_argument("--output", help="predictions CSV path (default stdout)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a predictions CSV (predicted,actual)")
    p.add_argument("--predictions", required=True)
    p.add_argument("--output", help="report JSON path (default stdout)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="run the full pipeline for one configuration")
    _add_experiment_flags(p)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("grid", help="run a list of experiment configurations")
    p.add_argument("--configs", required=True, help="JSON list of configs")
    p.add_argument("--workers", type=int, default=1,
                   help="run the configs in up to this many separate processes, at most one per config; "
                        "the results equal those of 1, which runs them in this process (default 1)")
    p.set_defaults(func=cmd_grid)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
