"""End-to-end experiment pipeline: CSV in, evaluation report out.

The four stages are splitting, discretization, learning, and evaluation.
Discretization schemes are fitted on the training partition only and then
applied to both partitions, so no information leaks from the test rows;
out-of-range test values clamp into the outer bins.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import time
from dataclasses import dataclass, fields
from statistics import pstdev
from typing import Any, Callable, Mapping, Sequence

from . import datasets
from .case_model import build_case_model
from .dectree import TreeNode, default_grid, learn_tree, tree_to_rules, tune_tree
from .discretize import (
    METHODS,
    BinningScheme,
    DiscretizationParams,
    apply_scheme,
    optimize_scheme,
    _build,
)
from .errors import InputError
from .hero import RuleList, learn_hero
from .inference import EvalReport, evaluate, predict_rule_list, predict_theory
from .pruned_search import SearchConfig, Theory, learn_pruned

LEARNERS = ("pruned_search", "hero", "dectree")
BINNINGS = ("equal-width", "equal-depth", "kmeans", "dbscan", "opt")

OPT_K_GRID = (2, 3, 4, 5, 6, 7, 8)
DBSCAN_EPS_FACTORS = (0.25, 0.5, 1.0, 2.0)
DBSCAN_MIN_PTS = (3, 5, 10)


@dataclass
class Table:
    """A typed column table: every column is all-float or all-string."""

    columns: list[str]
    rows: list[dict[str, Any]]

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> list[Any]:
        if name not in self.columns:
            raise InputError(f"no column named {name!r}; have {self.columns}")
        return [row[name] for row in self.rows]


def load_csv(path: str) -> Table:
    """Read an RFC-4180-style CSV with a header row into a typed table.

    A column is numeric when every cell parses as a float; columns mixing
    numeric and non-numeric cells are rejected with the offending row
    number, as are ragged rows, empty cells and cells that parse as a
    non-finite float (nan, inf).
    """
    if not os.path.exists(path):
        raise InputError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8-sig") as f:  # a byte-order mark is not part of a name
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path} is empty") from None
        raw_rows = list(reader)
    if not raw_rows:
        raise InputError(f"{path} has headers but no data rows")
    if len(set(header)) != len(header):
        raise InputError(f"duplicate column names in {path}")
    for i, row in enumerate(raw_rows):
        if len(row) != len(header):
            raise InputError(f"row {i + 2} of {path} has {len(row)} cells, expected {len(header)}")
        for j, cell in enumerate(row):
            if cell.strip() == "":
                raise InputError(f"row {i + 2} of {path}: empty cell in column {header[j]!r}")

    columns: dict[str, list[Any]] = {}
    for j, name in enumerate(header):
        cells = [row[j] for row in raw_rows]
        parsed = []
        numeric = 0
        first_bad = None
        for i, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                parsed.append(None)
                if first_bad is None:
                    first_bad = i
                continue
            if not math.isfinite(value):
                raise InputError(f"row {i + 2} of {path}: non-finite cell {cell!r} in column {name!r}")
            parsed.append(value)
            numeric += 1
        if numeric == len(cells):
            columns[name] = parsed
        elif numeric == 0:
            columns[name] = cells  # genuinely categorical
        else:
            raise InputError(
                f"row {first_bad + 2} of {path}: cell {cells[first_bad]!r} in numeric column {name!r}"
            )
    rows = [{name: columns[name][i] for name in header} for i in range(len(raw_rows))]
    return Table(columns=list(header), rows=rows)


def split(table: Table, fraction: float, seed: int) -> tuple[Table, Table]:
    """Seeded shuffle-and-cut; fraction 1.0 disables the split entirely."""
    if not 0.0 < fraction <= 1.0:
        raise InputError(f"split fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0:
        return table, table
    n = len(table)
    cut = int(n * fraction)
    if cut == 0 or cut == n:
        raise InputError(f"{n} rows cannot be split at fraction {fraction}")
    order = list(range(n))
    random.Random(seed).shuffle(order)
    train = Table(table.columns, [table.rows[i] for i in order[:cut]])
    test = Table(table.columns, [table.rows[i] for i in order[cut:]])
    return train, test


def is_already_discrete(values: Sequence[Any]) -> bool:
    """Binary integer-valued columns count as discrete and skip binning."""
    if any(isinstance(v, str) for v in values):
        return True
    distinct = set(values)
    return len(distinct) <= 2 and all(float(v).is_integer() for v in distinct)


def _candidates(method: str, values: Sequence[float]) -> list[tuple[str, DiscretizationParams]]:
    """The per-column parameter grid of one method: every grid k the distinct
    values allow (else k=1), or DBSCAN epsilons scaled by the column's spread.
    A constant column has no spread, and any epsilon finds its one dense
    region, so unit spread stands in."""
    if method == "dbscan":
        spread = pstdev(values) or 1.0
        return [
            (method, DiscretizationParams(epsilon=spread * f, min_pts=m))
            for f in DBSCAN_EPS_FACTORS
            for m in DBSCAN_MIN_PTS
        ]
    k_cap = len(set(values))
    return [(method, DiscretizationParams(k=k)) for k in OPT_K_GRID if k <= k_cap] or [
        (method, DiscretizationParams(k=1))
    ]


def fit_schemes(
    train: Table,
    binning: str,
    bins: int | str,
    target: str,
    only_target: bool = False,
) -> dict[str, BinningScheme]:
    """Fit one scheme per binnable column on the training partition.

    The ``bins`` setting controls the target column only (it fixes the
    granularity of the classification task): there the configured method
    is built directly with k=bins.  Every other column, and the target
    under DBSCAN (which has no bin count) or bins='opt', gets one
    `optimize_scheme` search per column over the `_candidates` grid of the
    configured method, or of all four methods for binning='opt'.
    """
    if binning not in BINNINGS:
        raise InputError(f"binning must be one of {BINNINGS}, got {binning!r}")
    methods = METHODS if binning == "opt" else (binning,)
    schemes: dict[str, BinningScheme] = {}
    for name in train.columns:
        values = train.column(name)
        if only_target and name != target:
            continue
        if any(isinstance(v, str) for v in values):
            continue  # categorical columns are already discrete
        if name != target and is_already_discrete(values):
            continue
        if name == target and binning != "opt" and binning != "dbscan" and bins != "opt":
            if not isinstance(bins, int):
                raise InputError(f"bins must be an integer or 'opt', got {bins!r}")
            schemes[name] = _build(binning, values, DiscretizationParams(k=bins), name)
        else:
            candidates = [c for method in methods for c in _candidates(method, values)]
            schemes[name] = optimize_scheme(values, candidates, name)
    return schemes


def apply_schemes(table: Table, schemes: Mapping[str, BinningScheme]) -> list[dict[str, Any]]:
    """Rows with binned values where a scheme exists, raw values elsewhere."""
    out = []
    for row in table.rows:
        new = {}
        for name, value in row.items():
            if name in schemes:
                new[name] = apply_scheme(value, schemes[name])
            else:
                new[name] = value
        out.append(new)
    return out


# the types an ExperimentConfig annotation names; a JSON integer is a valid float
_CONFIG_TYPES = {"str": str, "int": int, "float": (int, float), "None": type(None)}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run needs; JSON- and flag-compatible."""

    dataset_path: str = "boston"
    target: str = "MEDV"
    learner: str = "pruned_search"
    binning: str = "equal-width"
    bins: int | str = 2
    max_premise_size: int = 2
    exception_depth: int = 5
    split_fraction: float = 0.8
    seed: int = 0
    output_dir: str | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            allowed = tuple(_CONFIG_TYPES[name] for name in f.type.split(" | "))
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise InputError(f"config key {f.name!r} must be {f.type}, got {value!r}")
        if self.learner not in LEARNERS:
            raise InputError(f"learner must be one of {LEARNERS}, got {self.learner!r}")
        if self.binning not in BINNINGS:
            raise InputError(f"binning must be one of {BINNINGS}, got {self.binning!r}")
        if not 0.0 < self.split_fraction <= 1.0:
            raise InputError(f"split_fraction must be in (0, 1], got {self.split_fraction}")

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_json(data: Mapping[str, Any]) -> "ExperimentConfig":
        known = {f.name for f in fields(ExperimentConfig)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise InputError(f"unknown config keys {unknown}; known keys are {sorted(known)}")
        return ExperimentConfig(**data)


def read_input(path: str, parse: Callable[[Any], Any]) -> Any:
    """``parse`` of the open input file ``path``; a missing file or content
    ``parse`` cannot read raise InputError naming the file."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            return parse(f)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except KeyError as exc:
        raise InputError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:  # InputError is a ValueError
        raise InputError(f"{path}: {exc}") from None


def read_json(path: str, parse: Callable[[Any], Any]) -> Any:
    """``parse`` of the JSON in the input file ``path`` (see `read_input`)."""
    return read_input(path, lambda f: parse(json.load(f)))


def resolve_dataset(path: str) -> str:
    if path == "boston":
        return datasets.boston_housing_path()
    return path


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    train_report: EvalReport
    test_report: EvalReport
    model_json: dict
    schemes: dict[str, BinningScheme]
    runtime_ms: float

    def table_rows(self) -> list[list[str]]:
        rows = []
        for kind, report in (("training", self.train_report), ("test", self.test_report)):
            rows.append(
                [
                    kind,
                    _binning_label(self.config.binning),
                    "--" if self.config.binning in ("dbscan", "opt") else str(self.config.bins),
                    str(self.config.exception_depth) if self.config.learner == "pruned_search" else "--",
                    str(self.config.max_premise_size) if self.config.learner == "pruned_search" else "--",
                    f"{report.accuracy:.4f}",
                    f"{report.weighted_f1:.4f}",
                ]
            )
        return rows

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "train": self.train_report.to_json(),
            "test": self.test_report.to_json(),
            "schemes": {k: v.to_json() for k, v in sorted(self.schemes.items())},
            "runtime_ms": self.runtime_ms,
        }


TABLE_HEADER = ["data type", "binning method", "# bins", "search depth", "max # premises", "accuracy", "F1"]


def _binning_label(binning: str) -> str:
    return {
        "equal-width": "EWBinning",
        "equal-depth": "EDBinning",
        "kmeans": "kMeans",
        "dbscan": "DBSCAN",
        "opt": "opt",
    }[binning]


def format_table(rows: Sequence[Sequence[str]], header: Sequence[str] = TABLE_HEADER) -> str:
    widths = [max(len(str(r[i])) for r in [header, *rows]) for i in range(len(header))]
    def fmt(row):
        return " | ".join(str(c).ljust(w) for c, w in zip(row, widths))
    sep = "-+-".join("-" * w for w in widths)
    return "\n".join([fmt(header), sep, *[fmt(r) for r in rows]])


def learn_model(
    config: ExperimentConfig, rows: Sequence[Mapping[str, Any]], columns: Sequence[str]
) -> tuple[Theory | RuleList | TreeNode, dict]:
    """Learn ``config.learner`` from discretized rows; returns the model and its JSON.

    ``columns`` fixes the feature order the decision tree breaks ties with.
    The JSON is what `load_model` reads back.
    """
    target = config.target
    if config.learner != "dectree":
        cases = build_case_model(rows)
        if config.learner == "hero":
            model = learn_hero(cases, target)
        else:
            search = SearchConfig(
                max_premise_size=config.max_premise_size,
                exception_depth=config.exception_depth,
                target_attributes=(target,),
            )
            model = learn_pruned(cases, search)
        return model, model.to_json()
    feature_order = [c for c in columns if c != target]
    params = tune_tree(rows, target, default_grid(), folds=3, feature_order=feature_order, seed=config.seed)
    tree = learn_tree(rows, target, params, feature_order)
    rules = [
        {
            # an open bound is null: JSON has no infinities
            "premise": {c.attribute: [None if math.isinf(b) else b for b in (c.lo, c.hi)] for c in r.premise},
            "conclusion": {c.attribute: c.value for c in r.conclusion},
        }
        for r in tree_to_rules(tree, target)
    ]
    return tree, {"tree": tree.to_json(), "params": params.to_json(), "rules": rules}


def _model_from_json(data: Any) -> Theory | RuleList | TreeNode:
    if "arguments" in data:
        return Theory.from_json(data)
    if "tree" in data:
        return TreeNode.from_json(data["tree"])
    if "rules" in data:
        return RuleList.from_json(data)
    raise InputError("not a recognized model JSON")


def load_model(path: str) -> Theory | RuleList | TreeNode:
    """Read a model JSON written from `learn_model`'s output."""
    return read_json(path, _model_from_json)


def predict_rows(
    model: Theory | RuleList | TreeNode, rows: Sequence[Mapping[str, Any]], target: str
) -> list[Any]:
    """The model's target value for each row (None = abstain); the target
    column itself is hidden from the model."""
    out = []
    for row in rows:
        instance = {k: v for k, v in row.items() if k != target}
        if isinstance(model, Theory):
            out.append(predict_theory(model, instance, target))
        elif isinstance(model, RuleList):
            out.append(predict_rule_list(model, instance, target))
        else:
            out.append(model.predict(instance))
    return out


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute split, discretize, learn, predict, evaluate for one config."""
    try:
        table = load_csv(resolve_dataset(config.dataset_path))
    except InputError as exc:
        raise InputError(f"[load] {exc}") from exc
    if config.target not in table.columns:
        raise InputError(f"[load] target {config.target!r} not among columns {table.columns}")
    try:
        train, test = split(table, config.split_fraction, config.seed)
    except InputError as exc:
        raise InputError(f"[split] {exc}") from exc

    only_target = config.learner == "dectree"
    try:
        schemes = fit_schemes(train, config.binning, config.bins, config.target, only_target)
        train_rows = apply_schemes(train, schemes)
        test_rows = apply_schemes(test, schemes)
    except InputError as exc:
        raise InputError(f"[discretize] {exc}") from exc

    target = config.target
    start = time.perf_counter()
    try:
        model, model_json = learn_model(config, train_rows, table.columns)
    except InputError as exc:
        raise InputError(f"[learn] {exc}") from exc
    runtime_ms = (time.perf_counter() - start) * 1000

    def scored(rows):
        return list(zip(predict_rows(model, rows, target), (row[target] for row in rows)))

    train_report = evaluate(scored(train_rows))
    test_report = evaluate(scored(test_rows))

    result = ExperimentResult(
        config=config,
        train_report=train_report,
        test_report=test_report,
        model_json=model_json,
        schemes=schemes,
        runtime_ms=runtime_ms,
    )
    if config.output_dir:
        write_outputs(result)
    return result


def write_outputs(result: ExperimentResult) -> None:
    out = result.config.output_dir
    os.makedirs(out, exist_ok=True)
    stem = f"{result.config.learner}_{result.config.binning}_{result.config.bins}_seed{result.config.seed}"
    with open(os.path.join(out, f"{stem}.theory.json"), "w") as f:
        json.dump(result.model_json, f, indent=2, sort_keys=True)
    with open(os.path.join(out, f"{stem}.report.json"), "w") as f:
        json.dump(result.to_json(), f, indent=2, sort_keys=True)
    with open(os.path.join(out, f"{stem}.table.txt"), "w") as f:
        f.write(format_table(result.table_rows()) + "\n")


def run_grid(configs: Sequence[ExperimentConfig], workers: int = 1) -> list[ExperimentResult]:
    """Run many experiments; the results come back in config order.

    With ``workers`` > 1 the configs run in separate processes, at most
    ``min(workers, len(configs))`` of them, and each result equals the
    one ``workers=1`` gives.  ``workers=1``, a single config and an empty
    list run in this process, one config after another.  A config's
    error is raised here, and no worker process outlives the call.
    """
    if workers < 1:
        raise InputError(f"workers must be >= 1, got {workers}")
    workers = min(workers, len(configs))
    if workers <= 1:
        return [run_experiment(c) for c in configs]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing, which no other path needs

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_experiment, configs))
