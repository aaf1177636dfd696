"""End-to-end tests of the experiment pipeline and the command line."""

import csv
import json
import random

import pytest

from argmine import cli, pipeline
from argmine.errors import InputError, InvariantError
from argmine.pipeline import ExperimentConfig, load_csv, run_experiment

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
        del report["runtime_ms"], report["train"]["runtime_ms"], report["config"]["output_dir"]
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
