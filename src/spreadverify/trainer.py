"""Random-forest training and large-spread enforcement.

A from-scratch CART forest (gini impurity, bootstrap resampling, per-split
feature subsampling, midpoint thresholds) provides the candidate pool.  Each
tree grows from one transposed copy of its bootstrap sample, a contiguous
row of values per feature, and the sample's +1 flags; ``_bootstrap`` draws
the sample's rows in batches, the same values as a ``randrange`` loop.  Each
node searches its candidate features in one batch: one sort of all their
rows and one gini evaluation of every cut.  The large-spread trainer then
grows an ensemble greedily: it always picks the pool tree with the fewest
feature overlaps against the current selection and repairs remaining
overlaps by pushing conflicting threshold pairs apart, one random offset per
conflict, until the spread condition holds or the sweep budget runs out.
Each sweep visits only the features on which the last one found a conflict,
which draws as a sweep over every pair would; a sweep that finds none ends
repair.  Trees whose repair fails are discarded, so every returned ensemble
is large-spread by construction.
CART growth emits each tree in the preorder a :class:`DecisionTree` keeps.
Selection and repair work on one flat list of ``(feature, threshold, tree
index)`` splits, read through ``core._feature_index``, and only the trees
training keeps are built, once, from their preorders, without recursion.

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
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .core import (
    DecisionTree,
    Ensemble,
    Leaf,
    NormOrder,
    Split,
    _as_int,
    _check_attacker,
    _feature_index,
    _flat_splits,
    _tree_sequence,
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
    XT: np.ndarray, positive: np.ndarray, candidates: Sequence[int]
) -> Optional[tuple[int, float]]:
    """Feature/threshold with minimum weighted gini over the candidates.

    ``XT`` is the node's sample transposed, one contiguous row of values per
    feature, and ``positive`` flags the rows labelled +1.  Thresholds are
    midpoints between consecutive distinct sorted values.  Ties keep the
    first candidate feature and the smallest threshold.

    All candidates are searched at once: their rows of ``XT`` are gathered
    and sorted row by row, and every position between two sorted values is
    scored, the non-cuts (equal neighbours) as +inf.  The first minimum in
    row-major order is then the first candidate and, within it, the smallest
    threshold.  The sort need not be stable.  Tie order leaves the sorted
    values unchanged, and the positive count at a cut is the number of rows
    with a value at most the cut's, whatever their order.  -0.0 and 0.0
    compare equal, so they never form a cut, and a midpoint is the same
    with either zero.
    """
    n = positive.size
    c = len(candidates)
    values = XT[candidates]
    order = np.argsort(values, axis=1)
    v = values.take(order + np.arange(0, c * n, n)[:, None])  # the rows sorted
    pos = positive[order].cumsum(axis=1)
    # Left and right sides stacked: sizes is 2 x 1 x (n-1), counts 2 x c x (n-1).
    sizes = np.empty((2, 1, n - 1), dtype=pos.dtype)
    sizes[0, 0] = np.arange(1, n)
    np.subtract(n, sizes[0, 0], out=sizes[1, 0])
    counts = np.empty((2, c, n - 1), dtype=pos.dtype)
    counts[0] = pos[:, :-1]
    np.subtract(pos[:, -1:], pos[:, :-1], out=counts[1])
    # 1 - (counts / sizes)**2 - ((sizes - counts) / sizes)**2, in place.
    gini = counts / sizes
    np.square(gini, out=gini)
    np.subtract(1.0, gini, out=gini)
    other = np.subtract(sizes, counts, out=counts) / sizes
    np.square(other, out=other)
    gini -= other
    # (sizes[0] * gini[0] + sizes[1] * gini[1]) / n, in place.
    gini *= sizes
    weighted = gini[0]
    weighted += gini[1]
    weighted /= n
    weighted[v[:, :-1] >= v[:, 1:]] = math.inf
    c, i = divmod(int(np.argmin(weighted)), n - 1)
    if weighted[c, i] == math.inf:
        return None
    threshold = float((v[c, i] + v[c, i + 1]) / 2.0)
    if threshold >= v[c, i + 1]:  # midpoint rounded up between adjacent floats
        threshold = float(v[c, i])
    return int(candidates[c]), threshold


# A tree in preorder: a (feature, threshold) pair per split, a label per leaf.
_Preorder = Sequence[Union[tuple[int, float], int]]


def _grow_tree(
    XT: np.ndarray,
    positive: np.ndarray,
    max_depth: int,
    n_candidates: int,
    rng: random.Random,
) -> _Preorder:
    """One CART tree, in preorder, from a transposed sample and its +1 flags.

    Nodes are grown from an explicit stack that pops the left subtree
    first, so ``rng`` draws in preorder, as a recursion would.  Each split
    sends the rows at most its threshold left, as prediction does, and
    hands each side its own contiguous columns of ``XT``.
    """
    preorder = []
    d = XT.shape[0]
    stack = [(XT, positive, 0)]
    while stack:
        XT, positive, depth = stack.pop()
        n = positive.size
        pos = int(np.count_nonzero(positive))
        found = None
        if depth < max_depth and n >= 2 and 0 < pos < n:
            found = _best_split(XT, positive, rng.sample(range(d), n_candidates))
        if found is None:
            preorder.append(1 if 2 * pos >= n else -1)
            continue
        preorder.append(found)
        left = XT[found[0]] <= found[1]
        right = ~left
        stack.append((np.compress(right, XT, axis=1), positive[right], depth + 1))
        stack.append((np.compress(left, XT, axis=1), positive[left], depth + 1))
    return preorder


def _bootstrap(rng: random.Random, n: int) -> np.ndarray:
    """``[rng.randrange(n) for _ in range(n)]`` as an int64 array, drawn in batches.

    n must be >= 1.  ``randrange(n)`` keeps the top ``n.bit_length()`` bits
    of one 32-bit word of the generator and draws again while they are
    >= n.  ``getrandbits(32 * m)`` returns the next m words, the first in
    the lowest bits, so each batch shifts and filters those same words in
    order.  A batch never holds more words than draws still needed, so the
    values and the state ``rng`` is left in are the loop's.  From n = 2**32
    on, ``randrange`` takes several words per draw, so such n are refused.
    """
    if n >= 1 << 32:
        raise ValueError(f"cannot draw a bootstrap sample of {n} rows")
    shift = 32 - n.bit_length()
    kept = []
    need = n
    while need:
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        drawn = np.frombuffer(words, "<u4") >> shift
        drawn = drawn[drawn < n]
        kept.append(drawn)
        need -= drawn.size
    return np.concatenate(kept).astype(np.int64)


def _train_forest(
    X: np.ndarray, y: np.ndarray, count: int, max_depth: int, rng: random.Random
) -> list[_Preorder]:
    n, d = X.shape
    n_candidates = max(1, math.ceil(math.sqrt(d)))
    positive = y == 1
    trees = []
    for _ in range(count):
        sample = _bootstrap(rng, n)
        # The sample as one contiguous features x rows copy.
        XT = np.take(X.T, sample, axis=1)
        trees.append(_grow_tree(XT, positive[sample], max_depth, n_candidates, rng))
    return trees


def _build(preorder: _Preorder) -> DecisionTree:
    """The tree of a preorder.

    Read backwards, each split finds its left and then its right subtree on
    top of an explicit stack, so no depth of tree recurses.
    """
    built: list[Union[Leaf, Split]] = []
    for node in reversed(preorder):
        if type(node) is tuple:
            left = built.pop()
            built.append(Split(node[0], node[1], left, built.pop()))
        else:
            built.append(Leaf(node))
    return DecisionTree(built[0])


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
    preorders = _train_forest(dataset.features, dataset.labels, num_trees, max_depth, rng)
    return Ensemble(tuple(map(_build, preorders)), dataset.dimensionality)


# ---------------------------------------------------------------------------
# Overlap counting and threshold repair
# ---------------------------------------------------------------------------


def _rebuild_trees(
    preorders: Sequence[_Preorder], splits: Sequence[tuple[int, float, int]]
) -> list[DecisionTree]:
    """The trees of ``preorders`` with the features and thresholds of ``splits``.

    ``splits`` lists every split of ``preorders`` in tree-major preorder.
    """
    pairs = ((feature, threshold) for feature, threshold, _ in splits)
    return [
        _build([next(pairs) if type(node) is tuple else node for node in preorder])
        for preorder in preorders
    ]


def _pairs(preorder: _Preorder) -> list[tuple[int, float]]:
    return [node for node in preorder if type(node) is tuple]


def _select_best(
    node_lists: Sequence[Sequence[tuple[int, float]]],
    index: dict[int, tuple[tuple[float, ...], tuple[int, ...]]],
    gap: float,
) -> int:
    """Index of the tree with the fewest features overlapping ``index``; first wins ties."""
    best_idx, best_count = 0, math.inf
    for i, nodes in enumerate(node_lists):
        overlapping: set[int] = set()
        for f, v in nodes:
            if f in overlapping:
                continue
            entry = index.get(f)
            if entry is None:
                continue
            values = entry[0]
            at = bisect_left(values, v)
            # Within gap of the nearest threshold above v or below it.
            if (at < len(values) and values[at] - v <= gap) or (
                at and v - values[at - 1] <= gap
            ):
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
    index = _feature_index(_flat_splits(_tree_sequence(current)))
    node_lists = [_pairs(t._preorder) for t in pool_seq]
    return pool_seq[_select_best(node_lists, index, 2.0 * k)]


def _fix_in_place(
    splits: list[tuple[int, float, int]], k: float, max_iter: int, rng: random.Random
) -> bool:
    """Sweep conflicting cross-tree threshold pairs apart until large-spread.

    ``splits`` holds ``(feature, threshold, tree index)`` triples in
    tree-major preorder; only the thresholds change, in place.  Pairs are
    visited in list order of the first split, then of the second; each
    conflict draws one offset from (k, 2k] and moves the smaller threshold
    down and the larger one up, so a repaired pair ends strictly more than
    2k apart.  Repair ends at a sweep that finds no conflict; after
    ``max_iter`` sweeps that drew, a pass that draws nothing finds whether
    any is left.  Returns False when the spread condition still fails.

    A sweep visits only the splits of the features on which the sweep
    before it found a conflict (the first, every split).  A threshold moves
    only when a pair on its own feature conflicts, so any other feature kept
    its thresholds, each pair compared at its final value: skipping it skips
    no draw, and every threshold and the state of ``rng`` are those of a
    sweep over all pairs.
    """
    thresholds = [threshold for _, threshold, _ in splits]
    owners = [tree for _, _, tree in splits]
    features = [feature for feature, _, _ in splits]
    by_feature: dict[int, list[int]] = {}
    for i, feature in enumerate(features):
        by_feature.setdefault(feature, []).append(i)
    # The later same-feature splits each split is compared with, skipping
    # the run of its own tree's splits right after it (never a conflict).
    later: list[list[int]] = [[]] * len(splits)
    for peers in by_feature.values():
        end = len(peers)
        rest: list[int] = []
        for at in range(end - 1, -1, -1):
            if owners[peers[at]] != owners[peers[end - 1]]:
                end = at + 1
                rest = peers[end:]
            later[peers[at]] = rest
    gap = 2.0 * k
    neg_gap = -gap
    conflicts = set(by_feature)  # the first sweep visits every feature
    for sweep in range(max_iter + 1):
        todo, conflicts = conflicts, set()
        for i in sorted([i for f in todo for i in by_feature[f]]):
            tree = owners[i]
            v = thresholds[i]  # only this loop moves it
            for j in later[i]:
                w = thresholds[j]
                # abs(v - w) <= gap, without the call
                if neg_gap <= v - w <= gap and owners[j] != tree:
                    conflicts.add(features[i])
                    if sweep == max_iter:
                        continue  # the check-only pass draws nothing
                    offset = k + k * (1.0 - rng.random())  # uniform in (k, 2k]
                    if v <= w:
                        v -= offset
                        thresholds[j] = w + offset
                    else:
                        v += offset
                        thresholds[j] = w - offset
                    thresholds[i] = v
        if not conflicts:
            break
    splits[:] = [(f, v, t) for f, v, t in zip(features, thresholds, owners)]
    return not conflicts


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
    trees = _rebuild_trees([tree._preorder for tree in ensemble.trees], splits)
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
) -> Optional[tuple[list[_Preorder], list[tuple[int, float, int]]]]:
    """(preorders of the selected pool trees, their repaired splits), or None.

    The preorders keep their pool thresholds; the repaired ones are in the
    splits, in the tree-major preorder that :func:`_rebuild_trees` takes.
    """
    pool = _train_forest(X, y, 2 * m, config.max_depth, rng)
    first = pool.pop(rng.randrange(len(pool)))
    selected = [first]
    splits = [(f, v, 0) for f, v in _pairs(first)]
    pool_nodes = [_pairs(t) for t in pool]
    # selected + pool only shrinks: once it is below m the group has failed.
    while len(selected) < m <= len(selected) + len(pool):
        j = _select_best(pool_nodes, _feature_index(splits), 2.0 * config.k)
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
        found = _train_large_spread_trees(
            dataset.features[:, g::l], dataset.labels, size, config, rng
        )
        if found is None:
            return None
        sub, splits = found
        merged.extend(_rebuild_trees(sub, [(part[f], v, t) for f, v, t in splits]))
    return Ensemble(tuple(merged), d)
