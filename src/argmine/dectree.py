"""CART-style decision tree with Gini impurity and rule extraction.

The tree splits on (feature, threshold) pairs minimizing the size-weighted
mean Gini impurity of the children, with thresholds at midpoints between
consecutive distinct sorted feature values.  Growth stops at the depth
cap, the minimum-split/leaf sizes, or when no split reduces impurity.
Hyperparameters are tuned by deterministic cross-validated grid search.

Trees convert to mutually exclusive, exhaustive rules: one per leaf, the
premise being the conjunction of interval conditions along the path.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from .case_model import JSON_NUMBER, Literal, json_shape, value_key
from .errors import InputError
from .hero import Rule

MAX_DEPTH_CAP = 50


@dataclass(frozen=True)
class TreeParams:
    max_depth: int = MAX_DEPTH_CAP
    min_samples_leaf: int = 1
    min_samples_split: int = 2

    def __post_init__(self):
        if not 1 <= self.max_depth <= MAX_DEPTH_CAP:
            raise InputError(f"max_depth must be in [1, {MAX_DEPTH_CAP}], got {self.max_depth}")
        if self.min_samples_leaf < 1:
            raise InputError(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")
        if self.min_samples_split < 2:
            raise InputError(f"min_samples_split must be >= 2, got {self.min_samples_split}")

    def to_json(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "min_samples_split": self.min_samples_split,
        }


@dataclass(frozen=True)
class TreeNode:
    """Internal node (feature/threshold, value < threshold goes left) or
    leaf (class histogram plus majority prediction)."""

    feature: str | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    class_counts: tuple[tuple[Any, int], ...] = ()

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    @property
    def prediction(self) -> Any:
        best = None
        for value, count in self.class_counts:
            if best is None or count > best[1]:
                best = (value, count)
        return best[0] if best else None

    def predict(self, instance: Mapping[str, Any]) -> Any:
        node = self
        try:
            while not node.is_leaf:
                node = node.left if float(instance[node.feature]) < node.threshold else node.right
        except KeyError:
            raise InputError(f"instance lacks the feature {node.feature!r} the tree splits on") from None
        return node.prediction

    def to_json(self) -> dict:
        if self.is_leaf:
            return {"class_counts": [[v, c] for v, c in self.class_counts],
                    "prediction": self.prediction}
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left.to_json(),
            "right": self.right.to_json(),
        }

    @staticmethod
    def from_json(data: Mapping[str, Any], path: str = "tree") -> "TreeNode":
        if "feature" in json_shape(data, dict, path):
            return TreeNode(
                feature=json_shape(data["feature"], str, path, "feature"),
                threshold=json_shape(data["threshold"], JSON_NUMBER, path, "threshold"),
                left=TreeNode.from_json(data["left"], f"{path}.left"),
                right=TreeNode.from_json(data["right"], f"{path}.right"),
            )
        counts = json_shape(data["class_counts"], list, path, "class_counts")
        if not all(isinstance(p, list) and len(p) == 2 and type(p[1]) is int for p in counts):
            raise InputError(f"{path}.class_counts must list [value, integer count] pairs, got {counts!r:.40}")
        return TreeNode(class_counts=tuple((v, c) for v, c in counts))


def gini(class_counts: Mapping[Any, int] | Sequence[int]) -> float:
    """Gini impurity 1 - sum((count/total)^2) of a class histogram."""
    counts = list(class_counts.values()) if isinstance(class_counts, Mapping) else list(class_counts)
    if any(c < 0 for c in counts):
        raise InputError("negative class count")
    total = sum(counts)
    if total == 0:
        raise InputError("gini undefined for an empty histogram")
    return 1.0 - sum((c / total) ** 2 for c in counts)


def _histogram(values: Sequence[Any]) -> tuple[tuple[Any, int], ...]:
    counts: dict[Any, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return tuple(sorted(counts.items(), key=lambda kv: value_key(kv[0])))


def best_split(
    rows: Sequence[Mapping[str, Any]],
    features: Sequence[str],
    target: str,
    min_samples_leaf: int = 1,
) -> tuple[str, float] | None:
    """Lowest weighted-child-impurity (feature, threshold), or None.

    Thresholds are midpoints between consecutive distinct sorted feature
    values; splits that fail to strictly reduce impurity or violate the
    leaf-size floor are discarded.  Ties prefer the earliest feature in
    ``features`` order, then the smallest threshold.
    """
    if not rows:
        raise InputError("cannot split zero rows")
    y = [row[target] for row in rows]
    classes = sorted(set(y), key=value_key)
    class_id = {c: i for i, c in enumerate(classes)}
    y_arr = np.array([class_id[v] for v in y])
    n = len(rows)
    parent = gini(np.bincount(y_arr, minlength=len(classes)))

    best: tuple[float, int, float] | None = None  # (impurity, feature pos, threshold)
    for fpos, feature in enumerate(features):
        col = np.array([float(row[feature]) for row in rows])
        order = np.argsort(col, kind="stable")
        sorted_col = col[order]
        sorted_y = y_arr[order]
        boundaries = np.flatnonzero(sorted_col[:-1] != sorted_col[1:])
        if boundaries.size == 0:
            continue
        one_hot = np.zeros((n, len(classes)))
        one_hot[np.arange(n), sorted_y] = 1.0
        cum = np.cumsum(one_hot, axis=0)
        left_counts = cum[boundaries]
        total_counts = cum[-1]
        right_counts = total_counts - left_counts
        n_left = (boundaries + 1).astype(float)
        n_right = n - n_left
        g_left = 1.0 - np.sum((left_counts / n_left[:, None]) ** 2, axis=1)
        g_right = 1.0 - np.sum((right_counts / n_right[:, None]) ** 2, axis=1)
        weighted = (n_left / n) * g_left + (n_right / n) * g_right
        thresholds = (sorted_col[boundaries] + sorted_col[boundaries + 1]) / 2.0
        ok = (n_left >= min_samples_leaf) & (n_right >= min_samples_leaf)
        for i in np.flatnonzero(ok):
            w = float(weighted[i])
            if w >= parent - 1e-12:  # the split must strictly reduce impurity
                continue
            key = (w, fpos, float(thresholds[i]))
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return features[best[1]], best[2]


def learn_tree(
    rows: Sequence[Mapping[str, Any]],
    target: str,
    params: TreeParams | None = None,
    feature_order: Sequence[str] | None = None,
) -> TreeNode:
    """Grow a tree by recursive impurity-minimizing splits."""
    if not rows:
        raise InputError("cannot learn a tree from zero rows")
    if params is None:
        params = TreeParams()
    if feature_order is None:
        feature_order = sorted(a for a in rows[0].keys() if a != target)

    def grow(subset: list[Mapping[str, Any]], depth: int) -> TreeNode:
        hist = _histogram([row[target] for row in subset])
        if (
            depth >= params.max_depth
            or len(subset) < params.min_samples_split
            or len(hist) == 1
        ):
            return TreeNode(class_counts=hist)
        split = best_split(subset, feature_order, target, params.min_samples_leaf)
        if split is None:
            return TreeNode(class_counts=hist)
        feature, threshold = split
        left_rows = [r for r in subset if float(r[feature]) < threshold]
        right_rows = [r for r in subset if float(r[feature]) >= threshold]
        return TreeNode(
            feature=feature,
            threshold=threshold,
            left=grow(left_rows, depth + 1),
            right=grow(right_rows, depth + 1),
            class_counts=hist,
        )

    return grow(list(rows), 0)


@dataclass(frozen=True)
class Band:
    """A half-open interval condition lo <= value < hi on one attribute."""

    attribute: str
    lo: float = -math.inf
    hi: float = math.inf

    def matches(self, instance: Mapping[str, Any]) -> bool:
        if self.attribute not in instance:
            return False
        v = float(instance[self.attribute])
        return self.lo <= v < self.hi

    def sort_key(self) -> tuple:
        return (self.attribute, 0.0, self.lo, self.hi)

    def __repr__(self) -> str:
        if self.lo == -math.inf:
            return f"{self.attribute}<{self.hi}"
        if self.hi == math.inf:
            return f"{self.attribute}>={self.lo}"
        return f"{self.lo}<={self.attribute}<{self.hi}"


def tree_to_rules(tree: TreeNode, target: str = "target") -> list[Rule]:
    """One rule per leaf: the path conditions imply the leaf prediction.

    Conditions along a path are merged into a single interval per feature,
    so the rules are mutually exclusive and jointly exhaustive and replay
    the tree's classification exactly.
    """
    rules: list[Rule] = []

    def walk(node: TreeNode, bounds: dict[str, tuple[float, float]]):
        if node.is_leaf:
            premise = frozenset(
                Band(attr, lo, hi)
                for attr, (lo, hi) in bounds.items()
                if (lo, hi) != (-math.inf, math.inf)
            )
            rules.append(
                Rule(premise=premise, conclusion=frozenset([Literal(target, node.prediction)]))
            )
            return
        lo, hi = bounds.get(node.feature, (-math.inf, math.inf))
        walk(node.left, {**bounds, node.feature: (lo, min(hi, node.threshold))})
        walk(node.right, {**bounds, node.feature: (max(lo, node.threshold), hi)})

    walk(tree, {})
    return rules


def tune_tree(
    rows: Sequence[Mapping[str, Any]],
    target: str,
    grid: Sequence[TreeParams],
    folds: int = 3,
    feature_order: Sequence[str] | None = None,
    seed: int = 0,
) -> TreeParams:
    """Pick the grid point with the best mean cross-validated accuracy.

    Folds come from one seeded shuffle shared by every grid point; ties
    keep the earliest grid position.
    """
    if not grid:
        raise InputError("empty parameter grid")
    if folds < 2:
        raise InputError(f"folds must be >= 2, got {folds}")
    if len(rows) < folds:
        raise InputError(f"{len(rows)} rows cannot form {folds} folds")
    order = list(range(len(rows)))
    random.Random(seed).shuffle(order)
    fold_of = {idx: i % folds for i, idx in enumerate(order)}

    best: tuple[float, int] | None = None  # (-accuracy, grid position)
    for pos, params in enumerate(grid):
        correct = 0
        total = 0
        for f in range(folds):
            train = [rows[i] for i in range(len(rows)) if fold_of[i] != f]
            test = [rows[i] for i in range(len(rows)) if fold_of[i] == f]
            if not train or not test:
                continue
            tree = learn_tree(train, target, params, feature_order)
            correct += sum(1 for r in test if tree.predict(r) == r[target])
            total += len(test)
        acc = correct / total if total else 0.0
        key = (-acc, pos)
        if best is None or key < best:
            best = key
    return grid[best[1]]


def default_grid() -> list[TreeParams]:
    """Deterministic hyperparameter grid used by the experiment pipeline."""
    grid = []
    for max_depth in (2, 5, 10, 50):
        for min_samples_leaf in (1, 5, 20):
            for min_samples_split in (2, 10):
                grid.append(
                    TreeParams(
                        max_depth=max_depth,
                        min_samples_leaf=min_samples_leaf,
                        min_samples_split=min_samples_split,
                    )
                )
    return grid
