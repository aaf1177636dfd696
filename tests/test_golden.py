"""Pinned model and prediction digests for Boston configs that must not drift.

Each digest is the sha256 of the model JSON (``sort_keys``) or of the
JSON list of predictions for every row, train rows first, served from
that model JSON.  A change to a digest is a model change and has to be
declared as one.
"""

import hashlib
import json

import pytest

from argmine import pipeline
from argmine.pipeline import ExperimentConfig, apply_schemes, load_csv, resolve_dataset

CONFIGS = {
    "hero ew/2": dict(learner="hero", binning="equal-width", bins=2),
    "hero ew/4": dict(learner="hero", binning="equal-width", bins=4),
    "pruned_search ew/2 mps=2": dict(learner="pruned_search", binning="equal-width", bins=2, max_premise_size=2),
    # exception depth 5 (the default) with three-literal premises: deep exception mining
    "pruned_search ew/4 mps=3": dict(learner="pruned_search", binning="equal-width", bins=4, max_premise_size=3),
    "pruned_search opt mps=2": dict(learner="pruned_search", binning="opt", bins="opt", max_premise_size=2),
    "dectree opt": dict(learner="dectree", binning="opt", bins="opt"),
}

GOLDEN = {  # name: (model sha256, predictions sha256)
    "dectree opt": ("1806b60d59131731b6e41a1f5a0d6d8ba229bd77a1605f1cdd092e03b82f02d1",
                    "ec323e50627b2f36e214dd9f19f4d4e1534f2864822e380156e246615a7cd655"),
    "hero ew/2": ("49dc145cb2da2b72dca2140c551643f4e9e90f45b05fb6aa6b9d734282a4262c",
                  "4168e1928356414e1da9b7e437ae8f1ca64d1ba1db9b5583a99ead0f0843a16a"),
    "hero ew/4": ("e72cfbd444ac2f360fa48422a0eb6dc24b11367a0c816b7e93a8a4f2f312fdb2",
                  "31609b230f045dd3aa126c8a514ff80832488abb974664acc4e14810d96154bd"),
    "pruned_search ew/2 mps=2": ("db3e840e46652f32f220e8a4a6ed9969a5ccc5c9e4473413e0f95de6b7dd2c64",
                                 "50c3a8d4df246deb98696e93e95e72195ac9f13357fd8d071de80321a7fa2adc"),
    "pruned_search ew/4 mps=3": ("1058657ad7bfef8afe881f4332149a70f2d99d1844e185d1d3523706af382d23",
                                 "4e4c75050f3ac5dca34888e22072e8d1e3b1ca6da1a271c14e0dd46c6f82bb7b"),
    "pruned_search opt mps=2": ("7e1b6cf36f249f0808b7fdcdec55b87df385ea04d5656d765358dddf735f55d3",
                                "adb0791fccd25f6ab001b3ab47d8bfdebaf2dc0b2796bfb46f78b749ea00fbe3"),
}


def sha256_json(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def digests(config: ExperimentConfig) -> tuple[str, str]:
    result = pipeline.run_experiment(config)
    model_text = json.dumps(result.model_json, sort_keys=True)
    model = pipeline._model_from_json(json.loads(model_text))
    train, test = pipeline.split(load_csv(resolve_dataset(config.dataset_path)), config.split_fraction, config.seed)
    rows = apply_schemes(train, result.schemes) + apply_schemes(test, result.schemes)
    predictions = pipeline.predict_rows(model, rows, config.target)
    return hashlib.sha256(model_text.encode()).hexdigest(), sha256_json(predictions)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_boston_model_and_predictions_are_pinned(name):
    config = ExperimentConfig(target="MEDV", split_fraction=0.8, seed=0, **CONFIGS[name])
    assert digests(config) == GOLDEN[name]
