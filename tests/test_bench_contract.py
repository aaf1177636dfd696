"""The names the benchmark's timing shims wrap must keep existing.

bench/worker.py wraps argmine functions by owner and attribute name; a
rename or deletion there would otherwise only surface when the benchmark
runs.
"""

import inspect
import sys
from pathlib import Path

import pytest

from argmine import pipeline
from argmine.case_model import build_case_model
from argmine.hero import learn_hero
from argmine.pruned_search import SearchConfig, learn_pruned

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def worker():
    sys.path.insert(0, str(BENCH))
    try:
        import worker
    finally:
        sys.path.remove(str(BENCH))
    return worker


def test_every_shim_target_resolves(worker):
    for owner, attr, _name, _options in worker.SHIMS:
        if isinstance(owner, type):
            assert isinstance(owner.__dict__.get(attr), staticmethod), (owner, attr)
        else:
            assert inspect.isfunction(getattr(owner, attr, None)), (owner, attr)


def test_tracer_install_uninstall_round_trip(worker):
    before = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in worker.SHIMS]
    tracer = worker.Tracer("contract")
    try:
        for owner, attr, name, options in worker.SHIMS:
            tracer.install(owner, attr, name, **options)
        for owner, attr, original in before:
            assert owner.__dict__[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, (owner, attr)


def test_run_grid_accepts_two_workers(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("x,t\n" + "".join(f"{i},{i // 4}\n" for i in range(12)))
    configs = [
        pipeline.ExperimentConfig(dataset_path=str(path), target="t", learner=learner, split_fraction=1.0)
        for learner in ("pruned_search", "hero")
    ]
    results = pipeline.run_grid(configs, workers=2)
    assert [r.config for r in results] == configs


def test_predict_rows_calls_each_predictor_once_per_row(worker):
    # inference.predict_calls counts the spans of these two shims
    rows = [{"x": i % 3, "t": i % 2} for i in range(12)]
    models = {
        "inference.predict_theory": learn_pruned(build_case_model(rows), SearchConfig(target_attributes=("t",))),
        "inference.predict_rule_list": learn_hero(rows, "t"),
    }
    tracer = worker.Tracer("contract")
    try:
        for owner, attr, name, options in worker.SHIMS:
            if name in models:
                tracer.install(owner, attr, name, **options)
        for model in models.values():
            pipeline.predict_rows(model, rows, "t")
    finally:
        tracer.uninstall()
    calls = [span[0] for span in tracer.spans]
    assert {name: calls.count(name) for name in models} == {name: len(rows) for name in models}
