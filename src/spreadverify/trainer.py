"""Random-forest training and large-spread enforcement.

A from-scratch CART forest (gini impurity, bootstrap resampling, per-split
feature subsampling, midpoint thresholds) provides the candidate pool.  Each
node searches its candidate features in one batch: one sort of all their
columns and one gini evaluation of every cut.  The large-spread trainer then
grows an ensemble greedily: it always picks the pool tree with the fewest
feature overlaps against the current selection and repairs remaining
overlaps by pushing conflicting threshold pairs apart, one random offset per
conflict, until the spread condition holds or the sweep budget runs out.
Each sweep visits only the features that still have a conflict, which makes
the same draws as a sweep over every pair.  Trees whose repair fails are
discarded, so every returned ensemble is large-spread by construction.
Selection and repair work on one flat list of ``(feature, threshold, tree
index)`` splits, and the selected trees are rebuilt from it, without
recursion, once training succeeds.

``train_large_spread`` also partitions the features round-robin into
``config.partitions`` groups, trains an independent sub-ensemble per group
on the projected data, and merges them: trees built on disjoint features
cannot violate the spread condition across groups.  One partition is the
plain case.

All randomness flows through one seeded ``random.Random`` stream per
training call, so identical inputs give byte-identical ensembles.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import (
    DecisionTree,
    Ensemble,
    Leaf,
    NormOrder,
    Node,
    Split,
    _as_int,
    _check_attacker,
    _feature_gap,
    _flat_splits,
    _tree_sequence,
    iter_splits,
)

__all__ = [
    "Dataset",
    "TrainConfig",
    "train_random_forest",
    "get_best_tree",
    "fix_forest",
    "train_large_spread",
]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix plus {+1, -1} labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must be one per feature row")
        if features.size and not np.all(np.isfinite(features)):
            raise ValueError("feature values must be finite")
        if not np.all(np.isin(labels, (-1, 1))):
            raise ValueError("labels must be +1 or -1")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def dimensionality(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.features.shape[0]

    def rows(self) -> Iterator[tuple[tuple[float, ...], int]]:
        # One bulk conversion per row: converting the whole matrix at once
        # raised the peak memory of perfbench's train_pipeline by 0.6 MB.
        for row, label in zip(self.features, self.labels.tolist()):
            yield tuple(row.tolist()), label

    def subset(self, indices: Sequence[int]) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx])


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for large-spread training.

    ``p`` is checked (>= 1 or inf) but never read: the spread condition
    compares same-feature thresholds, so it is the same for every such p,
    and so is the trained model.  Training depends on ``k`` alone.
    """

    num_trees: int
    max_depth: int
    p: NormOrder
    k: float
    max_iter: int = 100
    partitions: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        _check_tree_count(self.num_trees)
        p, k = _check_repair_args(self.p, self.k, self.max_iter)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)
        for name in ("max_depth", "partitions"):
            if _as_int(getattr(self, name), name) < 1:
                raise ValueError(f"{name} must be >= 1")
        object.__setattr__(self, "seed", _as_int(self.seed, "seed"))


def _check_tree_count(num_trees: int) -> None:
    # An ensemble needs an odd number of trees; refuse any other before growing one.
    num_trees = _as_int(num_trees, "num_trees")
    if num_trees < 1 or num_trees % 2 == 0:
        raise ValueError(f"num_trees must be odd and >= 1, got {num_trees}")


def _check_repair_args(p: NormOrder, k: float, max_iter: int = 1) -> tuple[NormOrder, float]:
    # Selection and repair need an ensemble attacker with a finite k > 0.
    p, k = _check_attacker(p, k)
    if not 0.0 < k < math.inf:
        raise ValueError(f"k must be finite and > 0, got {k!r}")
    if _as_int(max_iter, "max_iter") < 1:
        raise ValueError("max_iter must be >= 1")
    return p, k


# ---------------------------------------------------------------------------
# CART forest
# ---------------------------------------------------------------------------


def _best_split(
    X: np.ndarray, y: np.ndarray, candidates: Sequence[int]
) -> Optional[tuple[int, float]]:
    """Feature/threshold with minimum weighted gini over the candidates.

    Thresholds are midpoints between consecutive distinct sorted values.
    Ties keep the first candidate feature and the smallest threshold.

    All candidates are searched at once: their columns are sorted row by
    row, and every position between two sorted values is scored, the
    non-cuts (equal neighbours) as +inf.  The first minimum in row-major
    order is then the first candidate and, within it, the smallest
    threshold.  The sort need not be stable.  Tie order leaves the sorted
    values unchanged, and the positive count at a cut is the number of rows
    with a value at most the cut's, whatever their order.  -0.0 and 0.0
    compare equal, so they never form a cut, and a midpoint is the same
    with either zero.
    """
    n = len(y)
    values = X[:, candidates].T
    order = np.argsort(values, axis=1)
    v = np.take_along_axis(values, order, axis=1)
    pos = np.cumsum(y[order] == 1, axis=1)
    left_n = np.arange(1, n)
    # Left and right sides stacked: sizes is 2 x 1 x (n-1), counts 2 x c x (n-1).
    sizes = np.stack([left_n, n - left_n])[:, None, :]
    counts = np.stack([pos[:, :-1], pos[:, -1:] - pos[:, :-1]])
    gini = 1.0 - (counts / sizes) ** 2 - ((sizes - counts) / sizes) ** 2
    weighted = (sizes[0] * gini[0] + sizes[1] * gini[1]) / n
    weighted[v[:, :-1] >= v[:, 1:]] = math.inf
    c, i = divmod(int(np.argmin(weighted)), n - 1)
    if weighted[c, i] == math.inf:
        return None
    threshold = float((v[c, i] + v[c, i + 1]) / 2.0)
    if threshold >= v[c, i + 1]:  # midpoint rounded up between adjacent floats
        threshold = float(v[c, i])
    return int(candidates[c]), threshold


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    depth: int,
    max_depth: int,
    n_candidates: int,
    rng: random.Random,
) -> Node:
    n = len(y)
    pos = int((y == 1).sum())
    majority = 1 if 2 * pos >= n else -1
    if depth >= max_depth or n < 2 or pos == 0 or pos == n:
        return Leaf(majority)
    candidates = rng.sample(range(X.shape[1]), n_candidates)
    found = _best_split(X, y, candidates)
    if found is None:
        return Leaf(majority)
    f, threshold = found
    mask = X[:, f] <= threshold
    return Split(
        f,
        threshold,
        _grow_tree(X[mask], y[mask], depth + 1, max_depth, n_candidates, rng),
        _grow_tree(X[~mask], y[~mask], depth + 1, max_depth, n_candidates, rng),
    )


def _train_forest(
    X: np.ndarray, y: np.ndarray, count: int, max_depth: int, rng: random.Random
) -> list[DecisionTree]:
    n, d = X.shape
    n_candidates = max(1, math.ceil(math.sqrt(d)))
    trees = []
    for _ in range(count):
        idx = [rng.randrange(n) for _ in range(n)]
        sample = np.asarray(idx, dtype=np.int64)
        trees.append(
            DecisionTree(_grow_tree(X[sample], y[sample], 0, max_depth, n_candidates, rng))
        )
    return trees


def _check_trainable(dataset: Dataset) -> None:
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    labels = set(int(v) for v in np.unique(dataset.labels))
    if labels != {-1, 1}:
        raise ValueError("training data must contain both labels")


def train_random_forest(
    dataset: Dataset, num_trees: int, max_depth: int, seed: int
) -> Ensemble:
    """Plain CART forest; deterministic for a fixed seed."""
    _check_trainable(dataset)
    _check_tree_count(num_trees)
    if _as_int(max_depth, "max_depth") < 1:
        raise ValueError("max_depth must be >= 1")
    rng = random.Random(_as_int(seed, "seed"))
    trees = _train_forest(dataset.features, dataset.labels, num_trees, max_depth, rng)
    return Ensemble(tuple(trees), dataset.dimensionality)


# ---------------------------------------------------------------------------
# Overlap counting and threshold repair
# ---------------------------------------------------------------------------


def _rebuild(node: Node, pairs: Iterator[tuple[int, float]]) -> Node:
    """Copy of ``node`` whose splits take, in preorder, the next ``pairs``.

    Each pair is a ``(feature, threshold)``; leaves are shared unchanged.
    The copy is assembled from the preorder node list read backwards, so
    each split finds its left and then its right subtree on top of an
    explicit stack, and no depth of tree recurses.
    """
    preorder: list[Node] = []
    stack = [node]
    while stack:
        cur = stack.pop()
        preorder.append(cur)
        if isinstance(cur, Split):
            stack.append(cur.right)
            stack.append(cur.left)
    new_pairs = [next(pairs) for cur in preorder if isinstance(cur, Split)]
    built: list[Node] = []
    for cur in reversed(preorder):
        if isinstance(cur, Leaf):
            built.append(cur)
        else:
            feature, threshold = new_pairs.pop()
            left = built.pop()
            built.append(Split(feature, threshold, left, built.pop()))
    return built[0]


def _rebuild_trees(
    trees: Sequence[DecisionTree], splits: Sequence[tuple[int, float, int]]
) -> list[DecisionTree]:
    """The trees re-threaded with the features and thresholds of ``splits``.

    ``splits`` lists every split of ``trees`` in tree-major preorder.
    """
    pairs = ((feature, threshold) for feature, threshold, _ in splits)
    return [DecisionTree(_rebuild(tree.root, pairs)) for tree in trees]


def _min_gap_to(sorted_values: list[float], v: float) -> float:
    i = bisect_left(sorted_values, v)
    best = math.inf
    if i < len(sorted_values):
        best = sorted_values[i] - v
    if i > 0:
        best = min(best, v - sorted_values[i - 1])
    return best


def _committed(splits: Sequence[tuple[int, float, int]]) -> dict[int, list[float]]:
    """Sorted thresholds per feature."""
    committed: dict[int, list[float]] = {}
    for feature, threshold, _ in splits:
        committed.setdefault(feature, []).append(threshold)
    for values in committed.values():
        values.sort()
    return committed


def _pairs(tree: DecisionTree) -> list[tuple[int, float]]:
    return [(s.feature, s.threshold) for s in iter_splits(tree)]


def _select_best(
    node_lists: Sequence[Sequence[tuple[int, float]]],
    committed: dict[int, list[float]],
    gap: float,
) -> int:
    """Index of the tree with the fewest overlapping features; first wins ties."""
    best_idx, best_count = 0, math.inf
    for i, nodes in enumerate(node_lists):
        overlapping: set[int] = set()
        for f, v in nodes:
            if f in overlapping:
                continue
            values = committed.get(f)
            if values is not None and _min_gap_to(values, v) <= gap:
                overlapping.add(f)
        if len(overlapping) < best_count:
            best_count = len(overlapping)
            best_idx = i
    return best_idx


def get_best_tree(
    pool: "Ensemble | Sequence[DecisionTree]",
    current: "Ensemble | Sequence[DecisionTree]",
    p: NormOrder,
    k: float,
) -> DecisionTree:
    """Pool tree minimizing the number of features overlapping ``current``.

    A feature overlaps when the candidate tests it with a threshold within
    ``2k`` of some threshold already in ``current``.  Ties break to the first
    tree in pool order.  As for repair, p must be >= 1 or inf and k finite
    and > 0; p is checked but not read, so the pick depends on k alone.
    """
    pool_seq = _tree_sequence(pool)
    if not pool_seq:
        raise ValueError("pool must not be empty")
    k = _check_repair_args(p, k)[1]
    committed = _committed(_flat_splits(_tree_sequence(current)))
    node_lists = [_pairs(t) for t in pool_seq]
    return pool_seq[_select_best(node_lists, committed, 2.0 * k)]


def _fix_in_place(
    splits: list[tuple[int, float, int]], k: float, max_iter: int, rng: random.Random
) -> bool:
    """Sweep conflicting cross-tree threshold pairs apart until large-spread.

    ``splits`` holds ``(feature, threshold, tree index)`` triples in
    tree-major preorder; only the thresholds change, in place.  Pairs are
    visited in list order of the first split, then of the second; each
    conflict draws one offset from (k, 2k] and moves the smaller threshold
    down and the larger one up, so a repaired pair ends strictly more than
    2k apart.  At most ``max_iter`` sweeps run, and repair ends when no
    conflict is left.  Returns False when the spread condition still fails
    after the last sweep.

    A sweep visits only the splits of conflicted features, those with some
    cross-tree pair at most 2k apart.  A threshold moves only when a pair on
    its own feature conflicts, so a feature without conflict at the start
    of a sweep would make no draw in it: skipping it leaves every draw, and
    so every threshold and the state of ``rng``, as a sweep over all pairs
    would.  Only the features a sweep repaired are checked again after it.
    """
    thresholds = [threshold for _, threshold, _ in splits]
    owners = [tree for _, _, tree in splits]
    features = [feature for feature, _, _ in splits]
    by_feature: dict[int, list[int]] = {}
    for i, feature in enumerate(features):
        by_feature.setdefault(feature, []).append(i)
    gap = 2.0 * k

    def conflicted(candidates: Iterable[int]) -> set[int]:
        return {
            f
            for f in candidates
            if _feature_gap([(thresholds[i], owners[i]) for i in by_feature[f]]) <= gap
        }

    todo = conflicted(by_feature)
    sweeps = 0
    while todo and sweeps < max_iter:
        sweeps += 1
        for i in sorted(i for f in todo for i in by_feature[f]):
            tree = owners[i]
            peers = by_feature[features[i]]
            v = thresholds[i]  # only this loop moves it
            for j in peers[bisect_right(peers, i):]:
                w = thresholds[j]
                # abs(v - w) <= gap, without the call
                if -gap <= v - w <= gap and owners[j] != tree:
                    offset = k + k * (1.0 - rng.random())  # uniform in (k, 2k]
                    if v <= w:
                        v -= offset
                        thresholds[j] = w + offset
                    else:
                        v += offset
                        thresholds[j] = w - offset
                    thresholds[i] = v
        # No other feature moved, so an empty set means every gap is > 2k.
        todo = conflicted(todo)
    splits[:] = [(f, v, t) for f, v, t in zip(features, thresholds, owners)]
    return not todo


def fix_forest(
    ensemble: Ensemble, p: NormOrder, k: float, max_iter: int, seed: int
) -> Optional[Ensemble]:
    """Repair an ensemble's threshold overlaps; None when repair fails.

    Only thresholds move: topology, tested features and leaf labels are
    preserved.  An already large-spread ensemble is returned unchanged.
    p (>= 1 or inf) is checked but not read: the result depends on k alone.
    """
    k = _check_repair_args(p, k, max_iter)[1]
    splits = _flat_splits(ensemble.trees)
    if not _fix_in_place(splits, k, max_iter, random.Random(_as_int(seed, "seed"))):
        return None
    trees = _rebuild_trees(ensemble.trees, splits)
    return Ensemble(tuple(trees), ensemble.dimensionality)


# ---------------------------------------------------------------------------
# Large-spread training
# ---------------------------------------------------------------------------


def _train_large_spread_trees(
    X: np.ndarray,
    y: np.ndarray,
    m: int,
    config: TrainConfig,
    rng: random.Random,
) -> Optional[tuple[list[DecisionTree], list[tuple[int, float, int]]]]:
    """(selected pool trees, their repaired splits), or None on failure.

    The trees keep their pool thresholds; the repaired ones are in the
    splits, in the tree-major preorder that :func:`_rebuild_trees` takes.
    """
    pool = _train_forest(X, y, 2 * m, config.max_depth, rng)
    first = pool.pop(rng.randrange(len(pool)))
    selected = [first]
    splits = _flat_splits(selected)
    pool_nodes = [_pairs(t) for t in pool]
    # selected + pool only shrinks: once it is below m the group has failed.
    while len(selected) < m <= len(selected) + len(pool):
        j = _select_best(pool_nodes, _committed(splits), 2.0 * config.k)
        candidate = pool.pop(j)
        owner = len(selected)
        trial = splits + [(f, v, owner) for f, v in pool_nodes.pop(j)]
        if _fix_in_place(trial, config.k, config.max_iter, rng):
            selected.append(candidate)
            splits = trial
        # otherwise the candidate is discarded and the selection kept as-is
    if len(selected) != m:
        return None
    return selected, splits


def train_large_spread(dataset: Dataset, config: TrainConfig) -> Optional[Ensemble]:
    """Train a large-spread ensemble by pruning and repairing CART forests.

    Features are assigned round-robin to ``config.partitions`` groups; each
    group trains its own sub-ensemble on its projection of the data, and the
    merged ensemble is large-spread because cross-partition trees share no
    features.  Sub-ensemble sizes are as equal as possible (first groups take
    the remainder) with an odd total; one partition is the plain case.
    Returns None (training failure) when any group keeps fewer trees than it
    needs after the repair step; any returned ensemble satisfies the
    large-spread condition for ``(config.p, config.k)``.
    """
    _check_trainable(dataset)
    d = dataset.dimensionality
    l = config.partitions
    if l > d:
        raise ValueError(f"cannot split {d} features into {l} partitions")
    if l > config.num_trees:
        raise ValueError("more partitions than trees: some partition would be empty")
    rng = random.Random(config.seed)
    base, remainder = divmod(config.num_trees, l)
    merged: list[DecisionTree] = []
    for g in range(l):
        part = list(range(g, d, l))
        size = base + (1 if g < remainder else 0)
        # A row-major view: fancy indexing would copy column-major, slowing bootstrap.
        found = _train_large_spread_trees(
            dataset.features[:, g::l], dataset.labels, size, config, rng
        )
        if found is None:
            return None
        sub, splits = found
        merged.extend(_rebuild_trees(sub, [(part[f], v, t) for f, v, t in splits]))
    return Ensemble(tuple(merged), d)
