import random

import pytest

from argmine.dectree import (
    Band,
    TreeNode,
    TreeParams,
    best_split,
    default_grid,
    gini,
    learn_tree,
    tree_to_rules,
    tune_tree,
)
from argmine.errors import InputError

from oracles import tree_depth

TOL = 1e-9


def rows_from(pairs, feature="x", target="y"):
    return [{feature: x, target: y} for x, y in pairs]


class TestGini:
    def test_pure_node(self):
        assert abs(gini({"A": 5, "B": 0})) < TOL

    def test_even_split(self):
        assert abs(gini({"A": 1, "B": 1}) - 0.5) < TOL

    def test_two_one(self):
        assert abs(gini({"A": 2, "B": 1}) - 4 / 9) < TOL

    def test_empty_histogram_rejected(self):
        with pytest.raises(InputError):
            gini({})

    def test_bounds(self):
        rng = random.Random(1)
        for _ in range(100):
            m = rng.randint(1, 5)
            counts = {i: rng.randint(0, 20) for i in range(m)}
            if sum(counts.values()) == 0:
                counts[0] = 1
            g = gini(counts)
            assert -TOL <= g <= 1 - 1 / m + TOL
            if len([c for c in counts.values() if c > 0]) == 1:
                assert abs(g) < TOL


class TestBestSplit:
    def test_single_midpoint(self):
        rows = rows_from([(0, "A"), (10, "B")])
        assert best_split(rows, ["x"], "y") == ("x", 5.0)

    def test_pure_rows_unsplittable(self):
        rows = rows_from([(0, "A"), (1, "A"), (2, "A")])
        assert best_split(rows, ["x"], "y") is None

    def test_tied_costs_take_smallest_threshold(self):
        # midpoints 0.5 / 1.5 / 2.5 give weighted Gini 1/3, 1/2, 1/3;
        # the tie between 0.5 and 2.5 resolves to the smaller threshold
        rows = rows_from([(0, "A"), (1, "B"), (2, "A"), (3, "B")])
        assert best_split(rows, ["x"], "y") == ("x", 0.5)

    def test_feature_order_breaks_ties(self):
        rows = [
            {"a": 0, "b": 0, "y": "L"},
            {"a": 1, "b": 1, "y": "R"},
        ]
        assert best_split(rows, ["a", "b"], "y") == ("a", 0.5)
        assert best_split(rows, ["b", "a"], "y") == ("b", 0.5)

    def test_min_samples_leaf_respected(self):
        # without the floor the perfect cut 2.5 wins; with it, the only
        # legal impurity-reducing cut is 1.5
        rows = rows_from([(0, "A"), (1, "A"), (2, "A"), (3, "B")])
        assert best_split(rows, ["x"], "y") == ("x", 2.5)
        assert best_split(rows, ["x"], "y", min_samples_leaf=2) == ("x", 1.5)
        # a two-row dataset cannot split at all under the floor
        assert best_split(rows_from([(0, "A"), (1, "B")]), ["x"], "y", min_samples_leaf=2) is None


class TestLearnTree:
    def test_single_leaf_when_no_split_allowed(self):
        rows = rows_from([(0, "A"), (1, "B"), (2, "A"), (3, "A")])
        tree = learn_tree(rows, "y", TreeParams(min_samples_leaf=3))
        assert tree.is_leaf
        assert tree.prediction == "A"

    def test_linearly_separable_depth_one(self):
        rows = rows_from([(i, "A") for i in range(5)] + [(i + 10, "B") for i in range(5)])
        tree = learn_tree(rows, "y", TreeParams(max_depth=5))
        assert tree_depth(tree) == 1
        assert all(tree.predict(r) == r["y"] for r in rows)

    def test_majority_leaf_prediction_ties_take_smallest(self):
        rows = rows_from([(0, "B"), (0, "A")])
        tree = learn_tree(rows, "y")
        assert tree.is_leaf
        assert tree.prediction == "A"

    def test_accuracy_nondecreasing_in_depth(self, rng):
        rows = [
            {"x": rng.uniform(0, 1), "z": rng.uniform(0, 1), "y": rng.randint(0, 1)}
            for _ in range(60)
        ]
        accs = []
        for depth in (1, 2, 4, 8, 16):
            tree = learn_tree(rows, "y", TreeParams(max_depth=depth))
            accs.append(sum(1 for r in rows if tree.predict(r) == r["y"]) / len(rows))
        for a, b in zip(accs, accs[1:]):
            assert b >= a - TOL

    def test_determinism(self, rng):
        rows = [
            {"x": rng.uniform(0, 1), "z": rng.uniform(0, 1), "y": rng.randint(0, 2)}
            for _ in range(40)
        ]
        params = TreeParams(max_depth=6, min_samples_leaf=2)
        t1 = learn_tree(rows, "y", params)
        t2 = learn_tree(rows, "y", params)
        assert t1.to_json() == t2.to_json()


class TestTreeToRules:
    def test_single_leaf(self):
        tree = learn_tree(rows_from([(0, "A"), (1, "A")]), "y")
        rules = tree_to_rules(tree, "y")
        assert len(rules) == 1
        assert rules[0].premise == frozenset()
        assert next(iter(rules[0].conclusion)).value == "A"

    def test_depth_one_two_rules(self):
        rows = rows_from([(0, "A"), (10, "B")])
        tree = learn_tree(rows, "y")
        rules = tree_to_rules(tree, "y")
        assert len(rules) == 2
        assert {(b.lo, b.hi) for b in [next(iter(r.premise)) for r in rules]} == {
            (float("-inf"), 5.0),
            (5.0, float("inf")),
        }

    def test_depth_two_at_most_four_rules(self):
        rows = rows_from([(0, "A"), (1, "B"), (2, "A"), (3, "B")])
        tree = learn_tree(rows, "y", TreeParams(max_depth=2))
        rules = tree_to_rules(tree, "y")
        assert len(rules) <= 4
        assert all(len(r.premise) <= 1 for r in rules)  # one feature: bands merge

    def test_rules_replay_tree_exactly(self, rng):
        for _ in range(15):
            rows = [
                {
                    "u": rng.uniform(0, 4),
                    "v": rng.uniform(0, 4),
                    "y": rng.randint(0, 2),
                }
                for _ in range(rng.randint(5, 60))
            ]
            tree = learn_tree(rows, "y", TreeParams(max_depth=4))
            rules = tree_to_rules(tree, "y")
            for row in rows:
                matches = [r for r in rules if r.applies(row)]
                assert len(matches) == 1  # mutually exclusive and exhaustive
                value = next(iter(matches[0].conclusion)).value
                assert value == tree.predict(row)


class TestBand:
    def test_matching(self):
        band = Band("x", 1.0, 3.0)
        assert band.matches({"x": 1.0})
        assert band.matches({"x": 2.9})
        assert not band.matches({"x": 3.0})
        assert not band.matches({"x": 0.5})
        assert not band.matches({})


class TestTuneTree:
    def test_singleton_grid(self):
        rows = rows_from([(i, i % 2) for i in range(10)])
        only = TreeParams(max_depth=3)
        assert tune_tree(rows, "y", [only], folds=2) == only

    def test_deeper_wins_on_xor(self, rng):
        rows = []
        for _ in range(120):
            a, b = rng.randint(0, 1), rng.randint(0, 1)
            rows.append({"a": a + rng.uniform(-0.05, 0.05),
                         "b": b + rng.uniform(-0.05, 0.05),
                         "y": a ^ b})
        shallow = TreeParams(max_depth=1)
        deep = TreeParams(max_depth=10)
        assert tune_tree(rows, "y", [shallow, deep], folds=3) == deep

    def test_identical_grid_points_take_first(self):
        rows = rows_from([(i, i % 2) for i in range(10)])
        a = TreeParams(max_depth=3)
        b = TreeParams(max_depth=3)
        chosen = tune_tree(rows, "y", [a, b], folds=2)
        assert chosen is a

    def test_bad_folds_rejected(self):
        rows = rows_from([(0, 0), (1, 1)])
        with pytest.raises(InputError):
            tune_tree(rows, "y", [TreeParams()], folds=1)


def test_default_grid_shape():
    grid = default_grid()
    assert len(grid) == 24
    assert all(p.max_depth <= 50 for p in grid)


def test_params_validation():
    with pytest.raises(InputError):
        TreeParams(max_depth=0)
    with pytest.raises(InputError):
        TreeParams(max_depth=51)
    with pytest.raises(InputError):
        TreeParams(min_samples_split=1)
