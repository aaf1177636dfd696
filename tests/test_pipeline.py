"""End-to-end tests of the experiment pipeline and the command line."""

import csv
import json
import random

import pytest

from argmine import cli, datasets, discretize, pipeline
from argmine.errors import InputError, InvariantError
from argmine.pipeline import (
    ExperimentConfig,
    Table,
    apply_schemes,
    fit_schemes,
    learn_model,
    load_csv,
    run_experiment,
)
from argmine.pruned_search import SearchConfig, learn_pruned

COLUMNS = ["x1", "x2", "flag", "t"]


def write_csv(path, rows, columns=COLUMNS):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])
    return str(path)


def synthetic_rows(n=40, seed=7):
    """Rows whose target mostly follows x1, with x2 and flag as noise."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        x1 = round(rng.uniform(0, 10), 2)
        x2 = round(rng.uniform(0, 5), 2)
        flag = rng.randint(0, 1)
        t = round(x1 * 3 + flag * 4 + rng.uniform(-2, 2), 2)
        rows.append({"x1": x1, "x2": x2, "flag": flag, "t": t})
    return rows


@pytest.fixture
def data_csv(tmp_path):
    return write_csv(tmp_path / "data.csv", synthetic_rows())


def config_for(path, learner, **overrides):
    base = dict(dataset_path=path, target="t", learner=learner, binning="equal-width", bins=2,
                max_premise_size=2, exception_depth=3, split_fraction=0.75, seed=1)
    base.update(overrides)
    return ExperimentConfig(**base)


def cli_predict(tmp_path, result, input_csv):
    """Save the learned model and schemes, then score ``input_csv`` via the CLI."""
    model_path = tmp_path / "model.json"
    schemes_path = tmp_path / "schemes.json"
    preds_path = tmp_path / "predictions.csv"
    model_path.write_text(json.dumps(result.model_json))
    schemes_path.write_text(json.dumps({k: v.to_json() for k, v in result.schemes.items()}))
    code = cli.main(["predict", "--model", str(model_path), "--input", input_csv, "--target", "t",
                     "--schemes", str(schemes_path), "--output", str(preds_path)])
    return code, preds_path


def test_cli_predictions_reproduce_the_test_report(tmp_path, data_csv):
    train, test = pipeline.split(load_csv(data_csv), 0.75, seed=1)
    test_csv = write_csv(tmp_path / "test.csv", test.rows)
    for learner in pipeline.LEARNERS:
        result = run_experiment(config_for(data_csv, learner))
        code, preds_path = cli_predict(tmp_path, result, test_csv)
        assert code == 0
        report_path = tmp_path / "report.json"
        assert cli.main(["evaluate", "--predictions", str(preds_path), "--output", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        expected = result.test_report.to_json()
        assert report["accuracy"] == expected["accuracy"], learner
        assert report["weighted_f1"] == expected["weighted_f1"], learner
        assert report["per_class"] == expected["per_class"], learner
        assert report["abstention_rate"] == expected["abstention_rate"], learner


def test_learn_subcommand_writes_the_pipeline_model(tmp_path, data_csv):
    # on an unsplit table the CLI learner and the pipeline see the same rows
    for learner in pipeline.LEARNERS:
        out = tmp_path / f"{learner}.json"
        assert cli.main(["learn", "--input", data_csv, "--learner", learner, "--target", "t",
                         "--max-premise-size", "2", "--exception-depth", "3", "--seed", "1",
                         "--output", str(out)]) == 0
        result = run_experiment(config_for(data_csv, learner, split_fraction=1.0))
        assert json.loads(out.read_text()) == json.loads(json.dumps(result.model_json)), learner


def test_repeated_seed_gives_identical_reports(tmp_path, data_csv):
    def report_bytes(out_dir):
        config = config_for(data_csv, "pruned_search", output_dir=str(out_dir))
        run_experiment(config)
        (report_file,) = out_dir.glob("*.report.json")
        (model_file,) = out_dir.glob("*.theory.json")
        report = json.loads(report_file.read_text())
        del report["runtime_ms"], report["config"]["output_dir"]
        return json.dumps(report, sort_keys=True), model_file.read_bytes()

    assert report_bytes(tmp_path / "a") == report_bytes(tmp_path / "b")


def test_cli_exit_codes(tmp_path, data_csv, monkeypatch, capsys):
    args = ["experiment", "--dataset-path", data_csv, "--target", "t", "--learner", "hero", "--quiet"]
    assert cli.main(args) == 0
    assert cli.main(["experiment", "--dataset-path", str(tmp_path / "missing.csv"), "--target", "t"]) == 1
    assert "no such file" in capsys.readouterr().err

    def broken(*_args, **_kwargs):
        raise InvariantError("simulated bug")

    monkeypatch.setattr(pipeline, "learn_hero", broken)
    assert cli.main(args) == 2
    assert "internal invariant violation" in capsys.readouterr().err


def test_predict_tree_on_csv_missing_a_feature(tmp_path, data_csv, capsys):
    result = run_experiment(config_for(data_csv, "dectree"))
    used = {n["feature"] for n in _tree_nodes(result.model_json["tree"]) if "feature" in n}
    missing = sorted(used)[0]
    kept = [c for c in COLUMNS if c != missing]
    narrow_csv = write_csv(tmp_path / "narrow.csv", synthetic_rows(), kept)
    code, _ = cli_predict(tmp_path, result, narrow_csv)
    assert code == 1
    assert repr(missing) in capsys.readouterr().err


def test_predict_with_a_scheme_for_a_text_column(tmp_path, data_csv, capsys):
    result = run_experiment(config_for(data_csv, "hero"))
    rows = synthetic_rows(3)
    for row, text in zip(rows, "abc"):
        row["x1"] = text
    text_csv = write_csv(tmp_path / "text.csv", rows)
    code, _ = cli_predict(tmp_path, result, text_csv)
    assert code == 1
    err = capsys.readouterr().err
    assert "['x1']" in err and text_csv in err


def test_discretize_unknown_columns(data_csv, capsys):
    assert cli.main(["discretize", "--input", data_csv, "--method", "equal-width", "--columns", "x1,nosuch,t"]) == 1
    assert "['nosuch']" in capsys.readouterr().err


def test_learn_on_a_case_model(tmp_path, capsys):
    # the bundled legal model: HeRO's rules for every attribute chain into a
    # self-attacking argument, its rules for one target do not
    path = datasets.presumption_of_innocence_path()
    out = tmp_path / "model.json"
    learn = ["learn", "--input", path, "--output", str(out), "--learner"]
    assert cli.main([*learn, "pruned_search"]) == 0
    model = datasets.presumption_of_innocence()
    theory = learn_pruned(model, SearchConfig(max_premise_size=len(model.attributes), exception_depth=5))
    assert json.loads(out.read_text()) == json.loads(json.dumps(theory.to_json()))
    capsys.readouterr()
    assert cli.main([*learn, "hero"]) == 0
    assert "self-attacking" in capsys.readouterr().err
    assert cli.main([*learn, "hero", "--target", "guilty"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("learner", ["pruned_search", "hero"])
def test_predict_rules_on_csv_missing_a_feature(tmp_path, data_csv, capsys, learner):
    result = run_experiment(config_for(data_csv, learner))
    narrow_csv = write_csv(tmp_path / "narrow.csv", synthetic_rows(), ["x2", "flag", "t"])
    code, _ = cli_predict(tmp_path, result, narrow_csv)
    assert code == 1
    assert "['x1']" in capsys.readouterr().err


@pytest.fixture(scope="module")
def boston_training_rows():
    """The discretized Boston training split, cut to nine features to keep HeRO quick."""
    columns = ["CRIM", "INDUS", "NOX", "RM", "AGE", "DIS", "TAX", "PTRATIO", "LSTAT", "MEDV"]
    train, _ = pipeline.split(load_csv(datasets.boston_housing_path()), 0.8, seed=0)
    train = Table(columns, [{c: row[c] for c in columns} for row in train.rows])
    return columns, apply_schemes(train, fit_schemes(train, "equal-width", 2, "MEDV"))


@pytest.mark.parametrize("learner", ["pruned_search", "hero"])
def test_training_row_order_does_not_change_the_model(boston_training_rows, learner):
    # both rule learners see the rows only through the case model they group into
    columns, rows = boston_training_rows
    config = ExperimentConfig(target="MEDV", learner=learner)
    shuffled = random.Random(3).sample(rows, len(rows))
    assert shuffled != rows
    expected = json.dumps(learn_model(config, rows, columns)[1])
    assert json.dumps(learn_model(config, shuffled, columns)[1]) == expected


def _tree_nodes(node):
    yield node
    for child in ("left", "right"):
        if child in node:
            yield from _tree_nodes(node[child])


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_load_csv_rejects_non_finite_cells(tmp_path, cell):
    rows = synthetic_rows(6)
    rows[3]["x2"] = cell
    path = write_csv(tmp_path / "bad.csv", rows)
    with pytest.raises(InputError, match=r"row 5 .*'x2'"):
        load_csv(path)


def test_non_finite_cells_exit_one(tmp_path, capsys):
    rows = synthetic_rows()
    rows[0]["x1"] = "nan"
    nan_csv = write_csv(tmp_path / "nan.csv", rows)
    assert cli.main(["experiment", "--dataset-path", nan_csv, "--target", "t", "--quiet"]) == 1
    rows[0]["x1"] = "inf"
    inf_csv = write_csv(tmp_path / "inf.csv", rows)
    assert cli.main(["discretize", "--input", inf_csv, "--method", "equal-width"]) == 1
    assert "'x1'" in capsys.readouterr().err


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


BAD_INPUTS = [
    "missing model", "missing schemes", "missing config", "missing configs", "descending boundaries",
    "scheme without method", "argument without conclusion", "unknown config key",
    "config value of wrong type", "missing predictions", "exception outside its parent",
    "fractional case weight", "boolean case weight", "string case weight", "case that is not an object",
    "zero max premise size on a case model", "unknown target of pruned_search on a case model",
    "unknown target of hero on a case model", "empty case model",
]


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_files_exit_one(tmp_path, data_csv, capsys, case):
    result = run_experiment(config_for(data_csv, "pruned_search"))
    model = result.model_json
    schemes = {k: v.to_json() for k, v in result.schemes.items()}
    missing = str(tmp_path / "missing.json")

    def predict(model_path=None, schemes_path=None):
        return ["predict", "--input", data_csv, "--target", "t",
                "--model", model_path or write_json(tmp_path / "model.json", model),
                "--schemes", schemes_path or write_json(tmp_path / "schemes.json", schemes)]

    if case == "missing model":
        argv, named = predict(model_path=missing), missing
    elif case == "missing schemes":
        argv, named = predict(schemes_path=missing), missing
    elif case == "missing config":
        argv, named = ["experiment", "--config", missing, "--quiet"], missing
    elif case == "missing configs":
        argv, named = ["grid", "--configs", missing], missing
    elif case == "descending boundaries":
        named = write_json(tmp_path / "bad.json", {**schemes, "x1": {**schemes["x1"], "boundaries": [5.0, 1.0]}})
        argv = predict(schemes_path=named)
    elif case == "scheme without method":
        del schemes["x1"]["method"]
        argv, named = predict(), "'method'"
    elif case == "argument without conclusion":
        del model["arguments"][0]["conclusion"]
        argv, named = predict(), "'conclusion'"
    elif case == "config value of wrong type":
        config = {"dataset_path": data_csv, "target": "t", "max_premise_size": "3"}
        argv, named = ["experiment", "--config", write_json(tmp_path / "c.json", config), "--quiet"], "'max_premise_size'"
    elif case == "missing predictions":
        argv, named = ["evaluate", "--predictions", missing], missing
    elif case == "exception outside its parent":
        # an exception that drops its parent's premise would apply where the parent does not
        parent = next(a for a in model["arguments"] if a["premise"])
        parent["exceptions"].append({"premise": {}, "conclusion": {"t": -1.0}})
        argv, named = predict(), "does not properly extend"
    elif case.endswith("case weight"):
        weight = {"fractional": 2.7, "boolean": True, "string": "3"}[case.split()[0]]
        cases = [{"literals": {"a": 1}, "weight": 2}, {"literals": {"a": 0}, "weight": weight}]
        path = write_json(tmp_path / "cases.json", {"cases": cases})
        argv, named = ["learn", "--input", path, "--learner", "pruned_search"], f"case 1: weight must be a positive integer, got {weight!r}"
    elif case == "case that is not an object":
        named = write_json(tmp_path / "cases.json", {"cases": [1]})
        argv = ["learn", "--input", named, "--learner", "hero"]
    elif case == "zero max premise size on a case model":
        argv = ["learn", "--input", datasets.presumption_of_innocence_path(), "--learner", "pruned_search",
                "--max-premise-size", "0"]
        named = "max_premise_size must be >= 1, got 0"
    elif case.startswith("unknown target"):
        argv = ["learn", "--input", datasets.presumption_of_innocence_path(), "--learner", case.split()[3],
                "--target", "nosuch"]
        named = "no case assigns the target 'nosuch'"
    elif case == "empty case model":
        argv = ["learn", "--input", write_json(tmp_path / "cases.json", {"cases": []}), "--learner", "pruned_search"]
        named = "cannot learn from an empty case model"
    else:
        config = {"dataset_path": data_csv, "target": "t", "max_premise": 9}
        argv, named = ["experiment", "--config", write_json(tmp_path / "c.json", config), "--quiet"], "'max_premise'"
    assert cli.main(argv) == 1
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("config", [{"seed": "0"}, {"bins": True}, {"split_fraction": "0.8"}, {"exception_depth": 5.0}])
def test_config_value_of_wrong_type_is_rejected(data_csv, config):
    # "0" would seed a different shuffle than 0, and True would pass as one bin
    (key,) = config
    with pytest.raises(InputError, match=repr(key)):
        ExperimentConfig.from_json({"dataset_path": data_csv, "target": "t", **config})


def test_usage_errors_exit_one(capsys):
    for argv in (["experiment", "--bins", "x"], ["discretize", "--bins", "2"]):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 1
        assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["experiment", "--help"])
    assert exit_info.value.code == 0


@pytest.mark.parametrize("binning", pipeline.BINNINGS)
def test_constant_column_gets_one_bin(tmp_path, binning):
    rows = synthetic_rows(30)
    for row in rows:
        row["x2"] = 0.5
    result = run_experiment(config_for(write_csv(tmp_path / "const.csv", rows), "pruned_search", binning=binning))
    assert result.schemes["x2"].n_bins == 1


@pytest.mark.parametrize("learner", pipeline.LEARNERS)
def test_model_json_is_standard_json(data_csv, learner):
    # RFC 8259 has no NaN or Infinity; open tree bounds must be written as null
    json.dumps(run_experiment(config_for(data_csv, learner)).model_json, allow_nan=False)


def two_level_opt(values):
    """The search `opt` ran before `optimize_scheme` took every method at once.

    Per method the best scheme by (-score, bins, grid position); then the
    earliest method with the top score; the first scheme that builds when
    nothing scores.
    """
    first = best = None
    for method in discretize.METHODS:
        method_best = None
        for pos, (_, params) in enumerate(pipeline._candidates(method, values)):
            try:
                scheme = discretize._build(method, values, params, "x")
            except InputError:
                continue
            if first is None:
                first = scheme
            try:
                score = discretize.silhouette(values, [discretize.apply_scheme(v, scheme) for v in values])
            except InputError:
                continue
            if method_best is None or (-score, scheme.n_bins, pos) < method_best[0]:
                method_best = ((-score, scheme.n_bins, pos), scheme)
        if method_best is not None and (best is None or method_best[0][0] < best[0][0]):
            best = method_best
    return best[1] if best else first


def test_opt_scheme_matches_the_two_level_search():
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randint(1, 25)
        kind = rng.choice(["spread", "ties", "constant", "binary"])
        if kind == "spread":
            values = [round(rng.uniform(-5, 5), 2) for _ in range(n)]
        elif kind == "ties":
            pool = [rng.randint(0, 9) / 2 for _ in range(rng.randint(2, 4))]
            values = [rng.choice(pool) for _ in range(n)]
        elif kind == "constant":
            values = [0.5] * n
        else:
            values = [float(rng.randint(0, 1)) for _ in range(n)]
        # as the target, even a binary column goes through the search
        got = fit_schemes(Table(["x"], [{"x": v} for v in values]), "opt", "opt", "x")["x"]
        assert got == two_level_opt(values), values
