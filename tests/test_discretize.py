import itertools
import random

import numpy as np
import pytest

from argmine import datasets, discretize, pipeline
from argmine.discretize import (
    BinningScheme,
    DiscretizationParams,
    _optimal_boundaries,
    apply_scheme,
    dbscan_1d,
    equal_depth_bins,
    equal_width_bins,
    kmeans_1d,
    optimize_scheme,
    silhouette,
)
from argmine.errors import (
    InputError,
    NoDenseRegionError,
    OptimizationFailedError,
    UndefinedScoreError,
)

TOL = 1e-9


def silhouette_oracle(values, labels):
    """The O(n^2) definition that `silhouette` computes by sorting."""
    vals = discretize._check_values(values)
    if len(labels) != len(vals):
        raise InputError(f"{len(vals)} values but {len(labels)} labels")
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(i)
    if len(groups) < 2:
        raise UndefinedScoreError(f"silhouette undefined for {len(groups)} cluster(s)")

    total = 0.0
    for i, v in enumerate(vals):
        own = groups[labels[i]]
        if len(own) == 1:
            a = 0.0
            coeff_override = 0.0
        else:
            a = sum(abs(v - vals[j]) for j in own if j != i) / (len(own) - 1)
            coeff_override = None
        b = min(abs(v - vals[j]) for j in range(len(vals)) if labels[j] != labels[i])
        if coeff_override is not None:
            coeff = coeff_override
        elif max(a, b) > 0:
            coeff = (b - a) / max(a, b)
        else:
            coeff = 0.0
        total += coeff
    return total / len(vals)


def optimal_boundaries_oracle(vals, k):
    """The k-means recurrence one end index ``j`` at a time."""
    distinct, weights = np.unique(vals, return_counts=True)
    g = distinct.size
    w = weights.astype(float)
    cw = np.concatenate([[0.0], np.cumsum(w)])
    cs = np.concatenate([[0.0], np.cumsum(w * distinct)])
    cq = np.concatenate([[0.0], np.cumsum(w * distinct**2)])

    def seg_cost(i: np.ndarray, j: int) -> np.ndarray:
        # cost of grouping distinct[i..j] (inclusive), vectorized over i
        tw = cw[j + 1] - cw[i]
        ts = cs[j + 1] - cs[i]
        tq = cq[j + 1] - cq[i]
        return tq - ts * ts / tw

    prev = np.array([seg_cost(np.array([0]), j)[0] for j in range(g)])
    cuts = np.zeros((k, g), dtype=int)
    for m in range(1, k):
        cur = np.empty(g)
        cur[:m] = np.inf
        for j in range(m, g):
            i = np.arange(m, j + 1)  # first index of the last segment
            totals = prev[i - 1] + seg_cost(i, j)
            pos = int(np.argmin(totals))
            cur[j] = totals[pos]
            cuts[m, j] = i[pos]
        prev = cur
    edges = []
    j = g - 1
    for m in range(k - 1, 0, -1):
        i = cuts[m, j]
        edges.append(i)
        j = i - 1
    edges.reverse()
    return tuple((distinct[i - 1] + distinct[i]) / 2.0 for i in edges)


def labels_of(scheme, values):
    return [apply_scheme(v, scheme) for v in values]


def brute_force_wss(values, k):
    """Minimal within-cluster sum of squares over contiguous partitions.

    1-D k-means optima are contiguous in sorted order, so enumerating the
    C(n-1, k-1) boundary placements is an exact oracle for small inputs.
    """
    vals = sorted(values)
    n = len(vals)

    def wss(chunk):
        m = sum(chunk) / len(chunk)
        return sum((x - m) ** 2 for x in chunk)

    best = None
    for cuts in itertools.combinations(range(1, n), k - 1):
        edges = [0, *cuts, n]
        chunks = [vals[a:b] for a, b in zip(edges, edges[1:])]
        if any(not c for c in chunks):
            continue
        total = sum(wss(c) for c in chunks)
        if best is None or total < best:
            best = total
    return best


def scheme_wss(scheme, values):
    groups = {}
    for v in values:
        groups.setdefault(apply_scheme(v, scheme), []).append(v)
    return sum(
        sum((x - sum(g) / len(g)) ** 2 for x in g) for g in groups.values()
    )


class TestEqualWidth:
    def test_two_bins_over_integers(self):
        scheme = equal_width_bins(list(range(11)), 2)
        assert scheme.boundaries == (5.0,)
        assert apply_scheme(3, scheme) == 0
        assert apply_scheme(7, scheme) == 1
        assert apply_scheme(5, scheme) == 1  # half-open: boundary goes up

    def test_constant_column_degenerates_to_one_bin(self):
        scheme = equal_width_bins([4, 4, 4], 3)
        assert scheme.n_bins == 1
        assert labels_of(scheme, [4, 4, 4]) == [0, 0, 0]

    def test_cut_at_five(self):
        scheme = equal_width_bins([0, 1, 2, 9, 10], 2)
        assert labels_of(scheme, [0, 1, 2]) == [0, 0, 0]
        assert labels_of(scheme, [9, 10]) == [1, 1]

    def test_max_value_lands_in_last_bin(self):
        scheme = equal_width_bins([0, 10], 4)
        assert apply_scheme(10, scheme) == 3

    def test_empty_values_rejected(self):
        with pytest.raises(InputError):
            equal_width_bins([], 2)

    def test_interior_widths_equal(self):
        rng = random.Random(7)
        for _ in range(50):
            vals = [rng.uniform(-50, 50) for _ in range(rng.randint(2, 40))]
            k = rng.randint(2, 8)
            scheme = equal_width_bins(vals, k)
            if scheme.n_bins < 2:
                continue
            widths = [b - a for a, b in zip(scheme.boundaries, scheme.boundaries[1:])]
            expected = (max(vals) - min(vals)) / k
            for w in widths:
                assert abs(w - expected) < 1e-9


class TestEqualDepth:
    def test_even_split(self):
        scheme = equal_depth_bins([1, 2, 3, 4, 5, 6], 2)
        assert labels_of(scheme, [1, 2, 3]) == [0, 0, 0]
        assert labels_of(scheme, [4, 5, 6]) == [1, 1, 1]

    def test_tie_group_stays_in_lower_bin(self):
        # oracle: cuts after value 1 give sizes (4, 2), after value 2 give
        # (5, 1); target n/k = 3, so the first is closer without splitting
        scheme = equal_depth_bins([1, 1, 1, 1, 2, 3], 2)
        assert labels_of(scheme, [1, 1, 1, 1]) == [0, 0, 0, 0]
        assert labels_of(scheme, [2, 3]) == [1, 1]

    def test_fewer_distinct_than_k(self):
        scheme = equal_depth_bins([5], 3)
        assert scheme.n_bins == 1

    def test_distinct_sizes_differ_by_at_most_one(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(2, 50)
            vals = rng.sample(range(1000), n)
            k = rng.randint(2, min(8, n))
            scheme = equal_depth_bins(vals, k)
            counts = {}
            for v in vals:
                counts[apply_scheme(v, scheme)] = counts.get(apply_scheme(v, scheme), 0) + 1
            sizes = sorted(counts.values())
            assert sizes[-1] - sizes[0] <= 1, (vals, k, counts)


class TestKMeans:
    def test_two_well_separated_pairs(self):
        scheme = kmeans_1d([0, 0.1, 10, 10.1], 2)
        assert len(scheme.boundaries) == 1
        assert abs(scheme.boundaries[0] - 5.05) < TOL
        # matches the brute-force optimal contiguous partition
        assert abs(scheme_wss(scheme, [0, 0.1, 10, 10.1]) - brute_force_wss([0, 0.1, 10, 10.1], 2)) < TOL

    def test_k_equals_distinct_count(self):
        scheme = kmeans_1d([1, 2, 3], 3)
        assert scheme.n_bins == 3
        assert labels_of(scheme, [1, 2, 3]) == [0, 1, 2]

    def test_heavy_duplicates(self):
        scheme = kmeans_1d([0, 0, 0, 9], 2)
        assert labels_of(scheme, [0, 0, 0]) == [0, 0, 0]
        assert apply_scheme(9, scheme) == 1
        assert abs(scheme_wss(scheme, [0, 0, 0, 9]) - brute_force_wss([0, 0, 0, 9], 2)) < TOL

    def test_k_above_distinct_rejected(self):
        with pytest.raises(InputError):
            kmeans_1d([1, 1, 2], 3)

    def test_wss_within_five_percent_of_optimum(self):
        rng = random.Random(3)
        for _ in range(40):
            n_distinct = rng.randint(2, 12)
            base = rng.sample(range(100), n_distinct)
            vals = [v + 0 for v in base for _ in range(rng.randint(1, 3))]
            k = rng.randint(2, min(4, n_distinct))
            scheme = kmeans_1d(vals, k)
            got = scheme_wss(scheme, vals)
            best = brute_force_wss(vals, k)
            assert got <= best * (1 + 1e-9) + 1e-12, (vals, k, got, best)

    @pytest.mark.parametrize("g", [2, 5, 31, 32, 33, 64, 97])
    def test_blocked_recurrence_gives_the_oracle_cuts(self, g):
        # below, at and over one block of end indices; equally spaced
        # values of equal weight tie exactly (three values cut two ways at
        # k=2), so the first-minimum rule is exercised
        rng = random.Random(g)
        inputs = [np.arange(g, dtype=float), np.arange(g, dtype=float) / 4]
        for _ in range(6):
            distinct = rng.sample(range(4 * g), g)
            scale = rng.choice([1.0, 0.5, 0.1, 37.0])
            vals = [v * scale for v in distinct for _ in range(rng.randint(1, 3))]
            inputs.append(np.sort(np.asarray(vals)))
        for vals in inputs:
            for k in range(2, min(g, 6) + 1):
                assert _optimal_boundaries(vals, k) == optimal_boundaries_oracle(vals, k), (vals, k)


class TestDBSCAN:
    def test_two_dense_regions(self):
        scheme = dbscan_1d([0, 0.5, 1, 10, 10.5, 11], epsilon=1, min_pts=2)
        assert scheme.n_bins == 2
        assert labels_of(scheme, [0, 0.5, 1]) == [0, 0, 0]
        assert labels_of(scheme, [10, 10.5, 11]) == [1, 1, 1]

    def test_identical_points_form_one_cluster(self):
        scheme = dbscan_1d([0, 0, 0], epsilon=0.1, min_pts=3)
        assert scheme.n_bins == 1

    def test_all_noise_is_an_error(self):
        with pytest.raises(NoDenseRegionError):
            dbscan_1d([0, 100], epsilon=1, min_pts=2)

    def test_noise_points_absorbed_by_nearest_cluster(self):
        # 50 is noise; the boundary between the cluster ranges sits at their
        # midpoint so 50 falls to the nearer side deterministically
        scheme = dbscan_1d([0, 0.5, 1, 50, 98, 98.5, 99], epsilon=1, min_pts=2)
        assert scheme.n_bins == 2
        assert apply_scheme(50, scheme) in (0, 1)
        assert apply_scheme(0.7, scheme) == 0
        assert apply_scheme(98.2, scheme) == 1


class TestSilhouette:
    def test_perfectly_separated_duplicates(self):
        # every sample has a = 0 and b = 10, so every coefficient is 1
        assert abs(silhouette([0, 0, 10, 10], ["A", "A", "B", "B"]) - 1.0) < TOL

    def test_misassigned_clusters_score_negative(self):
        # hand-computed: every sample has a = 10 (own-cluster mate is the
        # far value) and b = 0 (an identical value sits in the other
        # cluster), so every coefficient is -1
        assert abs(silhouette([0, 10, 0, 10], ["A", "A", "B", "B"]) - (-1.0)) < TOL

    def test_singletons_get_zero(self):
        assert abs(silhouette([0, 1], ["A", "B"])) < TOL

    def test_fewer_than_two_clusters_undefined(self):
        with pytest.raises(UndefinedScoreError):
            silhouette([1, 2, 3], ["A", "A", "A"])

    def test_bounds_and_relabeling_invariance(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(4, 20)
            vals = [rng.uniform(0, 10) for _ in range(n)]
            labels = [rng.choice("AB") for _ in range(n)]
            if len(set(labels)) < 2:
                labels[0] = "A"
                labels[1] = "B"
            s1 = silhouette(vals, labels)
            assert -1 - TOL <= s1 <= 1 + TOL
            swapped = ["B" if l == "A" else "A" for l in labels]
            assert abs(s1 - silhouette(vals, swapped)) < TOL

    def test_matches_the_oracle(self):
        rng = random.Random(23)
        for _ in range(600):
            n = rng.randint(0, 30)
            kind = rng.choice(["spread", "ties", "constant"])
            if kind == "spread":
                vals = [rng.uniform(-100, 100) for _ in range(n)]
            elif kind == "ties":  # equal values under different labels
                vals = [rng.choice([0.5, 1.5, 2.0, 7.25]) for _ in range(n)]
            else:
                vals = [3.0] * n
            # labels of mixed types, in no value order: clusters interleave
            pool = ["A", "B", 2, (1, 2), 0.5][: rng.randint(1, 5)]
            labels = [rng.choice(pool) for _ in range(n)]
            if n and rng.random() < 0.2:  # a singleton cluster
                labels[rng.randrange(n)] = "solo"
            if rng.random() < 0.05:
                labels = labels[:-1]
            try:
                expected = silhouette_oracle(vals, labels)
            except InputError as exc:
                with pytest.raises(type(exc)):
                    silhouette(vals, labels)
                continue
            assert abs(silhouette(vals, labels) - expected) <= 1e-12, (vals, labels)


class TestOptimize:
    def test_k_two_beats_k_three(self):
        space = [("kmeans", DiscretizationParams(k=2)), ("kmeans", DiscretizationParams(k=3))]
        scheme = optimize_scheme([0, 0, 10, 10], space)
        assert scheme.params.k == 2

    def test_singleton_search_space(self):
        scheme = optimize_scheme([0, 1, 2, 9, 10, 11], [("equal-width", DiscretizationParams(k=2))])
        assert scheme.params.k == 2

    def test_all_combinations_failing(self):
        space = [("dbscan", DiscretizationParams(epsilon=0.001, min_pts=2))]
        with pytest.raises(OptimizationFailedError):
            optimize_scheme([0, 100], space)

    def test_empty_search_space(self):
        with pytest.raises(InputError):
            optimize_scheme([0, 1], [])

    def test_first_built_scheme_when_nothing_scores(self):
        # the DBSCAN candidate finds no dense region; both others build a
        # single bin, whose silhouette is undefined
        space = [
            ("dbscan", DiscretizationParams(epsilon=0.001, min_pts=2)),
            ("equal-depth", DiscretizationParams(k=1)),
            ("equal-width", DiscretizationParams(k=1)),
        ]
        scheme = optimize_scheme([0, 100], space)
        assert (scheme.method, scheme.n_bins) == ("equal-depth", 1)

    def test_ties_go_to_the_method_listed_first(self):
        # both methods cut between the two value groups: same labels, same score
        values = [0, 0, 10, 10]
        space = [("kmeans", DiscretizationParams(k=2)), ("equal-width", DiscretizationParams(k=2))]
        assert optimize_scheme(values, space).method == "kmeans"
        assert optimize_scheme(values, space[::-1]).method == "equal-width"


def test_the_oracle_silhouette_selects_the_same_boston_schemes(monkeypatch):
    # a near-tie between candidate scores could flip under the sorted
    # silhouette's rounding; on the Boston columns it flips none
    columns = ["CRIM", "RM", "LSTAT", "MEDV"]
    train, _ = pipeline.split(pipeline.load_csv(datasets.boston_housing_path()), 0.8, seed=0)
    train = pipeline.Table(columns, [{c: row[c] for c in columns} for row in train.rows])
    fitted = {b: pipeline.fit_schemes(train, b, 3, "MEDV") for b in pipeline.BINNINGS}
    scores = {}  # `opt` scores the other binnings' candidates again; score each once

    def memo_oracle(values, labels):
        key = (tuple(values), tuple(labels))
        if key not in scores:
            scores[key] = silhouette_oracle(values, labels)
        return scores[key]

    monkeypatch.setattr(discretize, "silhouette", memo_oracle)
    for binning in pipeline.BINNINGS:
        assert pipeline.fit_schemes(train, binning, 3, "MEDV") == fitted[binning], binning


class TestApplyScheme:
    def test_examples(self):
        scheme = BinningScheme("x", "equal-width", (5.0,))
        assert apply_scheme(3, scheme) == 0
        assert apply_scheme(-100, scheme) == 0  # clamping below
        assert apply_scheme(5.0, scheme) == 1  # half-open convention
        assert apply_scheme(1e9, scheme) == 1  # clamping above

    def test_total_over_random_reals(self):
        rng = random.Random(13)
        scheme = BinningScheme("x", "equal-width", (-3.0, 0.5, 2.0, 7.7))
        for _ in range(200):
            v = rng.uniform(-1e6, 1e6)
            assert 0 <= apply_scheme(v, scheme) <= 4


@pytest.mark.parametrize("method", ["equal-width", "equal-depth", "kmeans"])
def test_every_training_value_gets_exactly_one_ordered_bin(method):
    rng = random.Random(17)
    for _ in range(30):
        vals = [rng.gauss(0, 10) for _ in range(rng.randint(3, 60))]
        k = rng.randint(1, min(6, len(set(vals))))
        if method == "equal-width":
            scheme = equal_width_bins(vals, k)
        elif method == "equal-depth":
            scheme = equal_depth_bins(vals, k)
        else:
            scheme = kmeans_1d(vals, k)
        assert all(b2 > b1 for b1, b2 in zip(scheme.boundaries, scheme.boundaries[1:]))
        for v in vals:
            assert 0 <= apply_scheme(v, scheme) < scheme.n_bins


def test_scheme_json_roundtrip():
    scheme = equal_width_bins([0, 5, 10], 2, attribute="price")
    data = scheme.to_json()
    assert data["attribute"] == "price"
    assert data["method"] == "equal-width"
    restored = BinningScheme.from_json(data)
    assert restored == scheme


def test_scheme_json_with_a_seed_loads():
    # scheme files written by earlier versions record an unused "seed"
    data = {"attribute": "x", "method": "kmeans", "boundaries": [1.5], "params": {"k": 2, "seed": 0}}
    assert BinningScheme.from_json(data) == kmeans_1d([1, 2], 2, attribute="x")
