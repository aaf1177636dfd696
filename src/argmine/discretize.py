"""Discretization of continuous columns into ordered, non-overlapping bins.

Four methods are provided: equal-width, equal-depth, exact 1-D k-means
(dynamic programming over the sorted values) and 1-D DBSCAN.
`optimize_scheme` is the one search over them: it scores every
caller-supplied (method, parameters) candidate by its silhouette.  The
silhouette sorts the values once and costs O(n log n); its ``b`` is the
distance to the nearest value outside the sample's cluster, not
Rousseeuw's mean distance to the nearest other cluster.

Every scheme is a sorted list of interior cut points; bin ``i`` is the
half-open interval between cut ``i-1`` and cut ``i``, with the outer bins
open-ended so that any finite real maps to exactly one ordinal label.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from .case_model import JSON_NUMBER, json_shape
from .errors import (
    InputError,
    InvariantError,
    NoDenseRegionError,
    OptimizationFailedError,
    UndefinedScoreError,
)

METHODS = ("equal-width", "equal-depth", "kmeans", "dbscan")
_DP_BLOCK = 32  # end indices per vectorized step of the k-means recurrence


@dataclass(frozen=True)
class DiscretizationParams:
    """Parameters for one discretization run.

    ``k`` applies to equal-width, equal-depth and k-means; ``epsilon`` and
    ``min_pts`` to DBSCAN.
    """

    k: int | None = None
    epsilon: float | None = None
    min_pts: int | None = None

    def __post_init__(self):
        if self.k is not None and self.k < 1:
            raise InputError(f"k must be >= 1, got {self.k}")
        if self.epsilon is not None and not self.epsilon > 0:
            raise InputError(f"epsilon must be > 0, got {self.epsilon}")
        if self.min_pts is not None and self.min_pts < 1:
            raise InputError(f"min_pts must be >= 1, got {self.min_pts}")

    def to_json(self) -> dict:
        out: dict[str, Any] = {}
        if self.k is not None:
            out["k"] = self.k
        if self.epsilon is not None:
            out["epsilon"] = self.epsilon
        if self.min_pts is not None:
            out["min_pts"] = self.min_pts
        return out


@dataclass(frozen=True)
class BinningScheme:
    """Mapping from reals to ordinal bin labels via ascending cut points."""

    attribute: str
    method: str
    boundaries: tuple[float, ...]
    params: DiscretizationParams = field(default_factory=DiscretizationParams)

    def __post_init__(self):
        if any(b >= a for a, b in zip(self.boundaries[1:], self.boundaries)):
            raise InvariantError(f"boundaries not strictly ascending: {self.boundaries}")

    @property
    def n_bins(self) -> int:
        return len(self.boundaries) + 1

    def to_json(self) -> dict:
        return {
            "attribute": self.attribute,
            "method": self.method,
            "boundaries": list(self.boundaries),
            "params": self.params.to_json(),
        }

    @staticmethod
    def from_json(data: Mapping[str, Any], path: str = "scheme") -> "BinningScheme":
        # older scheme files carry a "seed" parameter that no algorithm read
        params = json_shape(json_shape(data, dict, path).get("params", {}), dict, path, "params")
        cuts = json_shape(data["boundaries"], list, path, "boundaries")
        try:
            return BinningScheme(
                attribute=data["attribute"],
                method=data["method"],
                boundaries=tuple(json_shape(b, JSON_NUMBER, f"{path}.boundaries[{i}]") for i, b in enumerate(cuts)),
                params=DiscretizationParams(**{k: v for k, v in params.items() if k != "seed"}),
            )
        except InvariantError as exc:  # a scheme read from a file is input
            raise InputError(f"scheme for {data['attribute']!r}: {exc}") from None


def apply_scheme(value: float, scheme: BinningScheme) -> int:
    """Bin label of ``value``; out-of-range values clamp to the outer bins."""
    return bisect.bisect_right(scheme.boundaries, value)


def _check_values(values: Sequence[float]) -> list[float]:
    if len(values) == 0:
        raise InputError("cannot discretize an empty value list")
    return [float(v) for v in values]


def equal_width_bins(values: Sequence[float], k: int, attribute: str = "value") -> BinningScheme:
    """Split [min, max] into k bins of equal width.

    Intervals are half-open on the right except the last, so the maximum
    value lands in the final bin.  A constant column degenerates to a
    single bin.
    """
    vals = _check_values(values)
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    lo, hi = min(vals), max(vals)
    params = DiscretizationParams(k=k)
    if lo == hi or k == 1:
        return BinningScheme(attribute, "equal-width", (), params)
    width = (hi - lo) / k
    boundaries = tuple(lo + i * width for i in range(1, k))
    return BinningScheme(attribute, "equal-width", boundaries, params)


def equal_depth_bins(values: Sequence[float], k: int, attribute: str = "value") -> BinningScheme:
    """Split sorted values into k bins of roughly n/k instances each.

    Cut points go between distinct sorted values, as close to the ideal
    positions i*n/k as possible; a group of equal values is never split
    and stays in the lower bin.  When there are fewer distinct values than
    k, each distinct value gets its own bin.
    """
    vals = sorted(_check_values(values))
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    distinct: list[float] = []
    counts: list[int] = []
    for v in vals:
        if distinct and distinct[-1] == v:
            counts[-1] += 1
        else:
            distinct.append(v)
            counts.append(1)
    params = DiscretizationParams(k=k)
    g = len(distinct)
    k_eff = min(k, g)
    if k_eff == 1:
        return BinningScheme(attribute, "equal-depth", (), params)

    # cumulative count after each distinct group; cutting after group j
    # yields a boundary between distinct[j] and distinct[j+1]
    cumulative = np.cumsum(counts)
    n = len(vals)
    cuts: list[int] = []
    prev = -1
    for i in range(1, k_eff):
        ideal = i * n / k_eff
        lo_slot = prev + 1
        hi_slot = (g - 2) - (k_eff - 1 - i)  # leave room for remaining cuts
        best = lo_slot
        best_dev = abs(cumulative[lo_slot] - ideal)
        for j in range(lo_slot + 1, hi_slot + 1):
            dev = abs(cumulative[j] - ideal)
            if dev < best_dev:  # ties keep the lower cut (tie group stays low)
                best, best_dev = j, dev
        cuts.append(best)
        prev = best
    boundaries = tuple((distinct[j] + distinct[j + 1]) / 2.0 for j in cuts)
    return BinningScheme(attribute, "equal-depth", boundaries, params)


def _clusters_to_boundaries(clusters: Sequence[Sequence[float]]) -> tuple[float, ...]:
    """Midpoints between the max of each cluster range and the next min."""
    ordered = sorted((min(c), max(c)) for c in clusters)
    for (_, hi), (lo, _) in zip(ordered, ordered[1:]):
        if lo <= hi:
            raise InvariantError(f"cluster ranges overlap: {ordered}")
    return tuple((hi + lo) / 2.0 for (_, hi), (lo, _) in zip(ordered, ordered[1:]))


def _optimal_boundaries(vals: np.ndarray, k: int) -> tuple[float, ...]:
    """Exact 1-D k-means by dynamic programming over distinct values.

    One-dimensional optima are contiguous in sorted order, so the weighted
    sum-of-squares cost of every interval of distinct values comes from
    prefix sums and the optimal cuts from an O(G^2 k) recurrence, run on
    blocks of end indices with the per-index arithmetic and first minimum.
    """
    distinct, weights = np.unique(vals, return_counts=True)
    g = distinct.size
    w = weights.astype(float)
    cw = np.concatenate([[0.0], np.cumsum(w)])
    cs = np.concatenate([[0.0], np.cumsum(w * distinct)])
    cq = np.concatenate([[0.0], np.cumsum(w * distinct**2)])

    def seg_cost(i, j):
        # cost of grouping distinct[i..j] (inclusive), broadcast over i and j
        tw = cw[j + 1] - cw[i]
        ts = cs[j + 1] - cs[i]
        tq = cq[j + 1] - cq[i]
        return tq - ts * ts / tw

    prev = seg_cost(0, np.arange(g))
    cuts = np.zeros((k, g), dtype=int)
    for m in range(1, k):
        cur = np.full(g, np.inf)
        for start in range(m, g, _DP_BLOCK):
            j = np.arange(start, min(start + _DP_BLOCK, g))
            i = np.arange(m, j[-1] + 1)[:, None]  # first index of the last segment
            with np.errstate(divide="ignore", invalid="ignore"):  # masked i > j
                totals = np.where(i <= j, prev[i - 1] + seg_cost(i, j), np.inf)
            pos = np.argmin(totals, axis=0)
            cur[j] = totals[pos, np.arange(j.size)]
            cuts[m, j] = m + pos
        prev = cur
    edges = []
    j = g - 1
    for m in range(k - 1, 0, -1):
        i = cuts[m, j]
        edges.append(i)
        j = i - 1
    edges.reverse()
    return tuple((distinct[i - 1] + distinct[i]) / 2.0 for i in edges)


def kmeans_1d(values: Sequence[float], k: int, attribute: str = "value") -> BinningScheme:
    """One-dimensional k-means emitted as non-overlapping ranges.

    An exact dynamic program over the sorted distinct values finds the
    partition with the least within-cluster sum of squares; 1-D optima
    are contiguous, so no local search (Lloyd's iterations) can beat it.
    Boundaries are midpoints between adjacent cluster extremes.
    """
    vals = np.sort(np.asarray(_check_values(values), dtype=float))
    distinct = np.unique(vals)
    if k > distinct.size:
        raise InputError(f"k={k} exceeds the {distinct.size} distinct values")
    params = DiscretizationParams(k=k)
    if k == 1:
        return BinningScheme(attribute, "kmeans", (), params)

    return BinningScheme(attribute, "kmeans", _optimal_boundaries(vals, k), params)


def dbscan_1d(
    values: Sequence[float],
    epsilon: float,
    min_pts: int,
    attribute: str = "value",
) -> BinningScheme:
    """Density clustering on one dimension.

    A core instance has at least ``min_pts`` neighbours within
    ``epsilon`` (counting itself).  Clusters are chains of core instances
    with gaps <= epsilon plus their border neighbours; border points
    reachable from two chains go to the nearer one (ties to the lower
    cluster).  Noise is absorbed by the midpoint rule between adjacent
    cluster ranges, so every value still receives a bin.  All points
    noise is an error.
    """
    if not epsilon > 0:
        raise InputError(f"epsilon must be > 0, got {epsilon}")
    if min_pts < 1:
        raise InputError(f"min_pts must be >= 1, got {min_pts}")
    vals = np.sort(np.asarray(_check_values(values), dtype=float))
    n = vals.size
    # neighbour counts within epsilon via two pointers on the sorted array
    left = np.searchsorted(vals, vals - epsilon, side="left")
    right = np.searchsorted(vals, vals + epsilon, side="right")
    core = (right - left) >= min_pts
    if not core.any():
        raise NoDenseRegionError(
            f"no dense region: no instance has {min_pts} neighbours within {epsilon}"
        )

    core_idx = np.flatnonzero(core)
    # chains of core points separated by gaps <= epsilon
    chains: list[list[int]] = [[core_idx[0]]]
    for i in core_idx[1:]:
        if vals[i] - vals[chains[-1][-1]] <= epsilon:
            chains[-1].append(i)
        else:
            chains.append([i])
    ranges = [[vals[c[0]], vals[c[-1]]] for c in chains]
    # attach border points (non-core within epsilon of some chain's core)
    for i in np.flatnonzero(~core):
        best = None
        for ci, chain in enumerate(chains):
            d = min(abs(vals[i] - vals[chain[0]]), abs(vals[i] - vals[chain[-1]]))
            if d <= epsilon and (best is None or d < best[0]):
                best = (d, ci)
        if best is not None:
            ci = best[1]
            ranges[ci][0] = min(ranges[ci][0], vals[i])
            ranges[ci][1] = max(ranges[ci][1], vals[i])
    params = DiscretizationParams(epsilon=epsilon, min_pts=min_pts)
    boundaries = _clusters_to_boundaries(ranges)
    return BinningScheme(attribute, "dbscan", boundaries, params)


def silhouette(values: Sequence[float], labels: Sequence[Any]) -> float:
    """Mean silhouette coefficient of a 1-D clustering under any labels.

    For each sample, ``a`` is its mean distance to the rest of its own
    cluster and ``b`` the distance to the nearest value outside the
    cluster (not Rousseeuw's mean distance to the nearest other cluster);
    the coefficient is (b - a) / max(a, b), or 0 for singleton clusters
    and for max(a, b) == 0.  One sort makes it O(n log n): ``a`` comes
    from prefix sums over each cluster's sorted values, shifted by the
    cluster minimum; ``b`` is the gap to the end of the adjacent run of
    another label in the sorted order.
    """
    vals = _check_values(values)
    if len(labels) != len(vals):
        raise InputError(f"{len(vals)} values but {len(labels)} labels")
    codes: dict[Any, int] = {}
    lab = np.array([codes.setdefault(label, len(codes)) for label in labels])
    if len(codes) < 2:
        raise UndefinedScoreError(f"silhouette undefined for {len(codes)} cluster(s)")
    x = np.asarray(vals)
    n = x.size
    order = np.argsort(x, kind="stable")
    xs, ls = x[order], lab[order]

    a = np.zeros(n)
    by_cluster = order[np.argsort(ls, kind="stable")]  # each cluster in value order
    for idx in np.split(by_cluster, np.flatnonzero(np.diff(lab[by_cluster])) + 1):
        if idx.size > 1:
            y = x[idx] - x[idx[0]]
            c = np.cumsum(y)
            r = np.arange(idx.size)  # rank within the cluster
            a[idx] = ((r * y - (c - y)) + ((c[-1] - c) - (idx.size - 1 - r) * y)) / (idx.size - 1)

    new_run = ls[1:] != ls[:-1]  # sorted positions p and p + 1 differ in label
    left = np.maximum.accumulate(np.concatenate(([-1], np.where(new_run, np.arange(n - 1), -1))))
    right = np.minimum.accumulate(np.append(np.where(new_run, np.arange(1, n), n), n)[::-1])[::-1]
    padded = np.concatenate(([-np.inf], xs, [np.inf]))  # left -1, right n: no such value
    b = np.empty(n)
    b[order] = np.minimum(xs - padded[left + 1], padded[right + 1] - xs)

    top = np.maximum(a, b)
    with np.errstate(invalid="ignore"):  # 0/0 where a == b == 0
        coeff = np.where((np.bincount(lab)[lab] > 1) & (top > 0), (b - a) / top, 0.0)
    return sum(coeff.tolist()) / n


def _build(method: str, values: Sequence[float], params: DiscretizationParams, attribute: str) -> BinningScheme:
    if method in ("equal-width", "equal-depth", "kmeans"):
        if params.k is None:
            raise InputError(f"method {method!r} requires k")
        if method == "equal-width":
            return equal_width_bins(values, params.k, attribute)
        if method == "equal-depth":
            return equal_depth_bins(values, params.k, attribute)
        return kmeans_1d(values, params.k, attribute)
    if method == "dbscan":
        if params.epsilon is None or params.min_pts is None:
            raise InputError("method 'dbscan' requires epsilon and min_pts")
        return dbscan_1d(values, params.epsilon, params.min_pts, attribute)
    raise InputError(f"unknown discretization method {method!r}")


def optimize_scheme(
    values: Sequence[float],
    candidates: Sequence[tuple[str, DiscretizationParams]],
    attribute: str = "value",
) -> BinningScheme:
    """The candidate scheme with the highest silhouette score.

    Each ``(method, params)`` candidate, from any number of methods, is
    built once and scored once on the labeling it induces over ``values``.
    Ties go to the method listed first, then to fewer bins, then to the
    earlier candidate.  Candidates that do not build (too few distinct
    values, all-noise DBSCAN) are skipped.  When no built scheme has a
    defined silhouette (every one has a single bin), the first scheme that
    built is returned: one bin is a legitimate, if uninformative, outcome.
    Only when nothing builds (or there are no candidates) does the
    optimization fail.
    """
    vals = _check_values(values)
    method_rank: dict[str, int] = {}
    first: BinningScheme | None = None
    best: tuple[tuple[float, int, int, int], BinningScheme] | None = None
    for pos, (method, params) in enumerate(candidates):
        rank = method_rank.setdefault(method, len(method_rank))
        try:
            scheme = _build(method, vals, params, attribute)
        except InputError:
            continue
        if first is None:
            first = scheme
        try:
            score = silhouette(vals, [apply_scheme(v, scheme) for v in vals])
        except InputError:
            continue
        key = (-score, rank, scheme.n_bins, pos)
        if best is None or key < best[0]:
            best = (key, scheme)
    if best is not None:
        return best[1]
    if first is not None:
        return first
    raise OptimizationFailedError(f"no candidate scheme builds for {attribute!r}")
