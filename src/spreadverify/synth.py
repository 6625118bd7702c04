"""Synthetic model, instance and dataset generators.

Used by the differential test suites, ``oracle-check`` and the benchmark:
random trees and guaranteed-large-spread verification cases (with the budget
sampled strictly below half the measured spread), instances placed exactly on
or one ulp away from thresholds, banded ensembles for timing scaling runs,
and two-blob datasets for training sanity checks.
"""

from __future__ import annotations

import math
import random
from typing import Optional, Sequence

from .core import DecisionTree, Ensemble, Leaf, Node, Split, iter_splits, spread
from .trainer import Dataset

__all__ = [
    "random_tree",
    "random_instance",
    "knife_edge_instance",
    "random_large_spread_case",
    "scaling_ensemble",
    "two_blob_dataset",
]


def random_tree(
    rng: random.Random,
    d: int,
    max_depth: int,
    split_prob: float = 0.8,
    lo: float = 0.0,
    hi: float = 100.0,
) -> DecisionTree:
    """Random threshold tree of depth at most ``max_depth``."""

    def grow(depth: int) -> Node:
        if depth >= max_depth or rng.random() > split_prob:
            return Leaf(rng.choice((-1, 1)))
        return Split(rng.randrange(d), rng.uniform(lo, hi), grow(depth + 1), grow(depth + 1))

    return DecisionTree(grow(0))


def random_instance(
    rng: random.Random, d: int, lo: float = -10.0, hi: float = 110.0
) -> tuple[float, ...]:
    return tuple(rng.uniform(lo, hi) for _ in range(d))


def knife_edge_instance(
    rng: random.Random, trees: Sequence[DecisionTree], d: int
) -> tuple[float, ...]:
    """Random instance with one coordinate on or one ulp off a threshold."""
    splits = [s for t in trees for s in iter_splits(t)]
    x = list(random_instance(rng, d))
    if splits:
        node = rng.choice(splits)
        v = node.threshold
        x[node.feature] = rng.choice(
            (v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf))
        )
    return tuple(x)


def _leaf_tuple_count(trees: Sequence[DecisionTree]) -> int:
    total = 1
    for t in trees:
        total *= (t.node_count + 1) // 2
    return total


def random_large_spread_case(
    rng: random.Random,
    tree_counts: Sequence[int] = (3, 5, 7),
    max_depth: int = 3,
    max_d: int = 5,
) -> tuple[Ensemble, float, float]:
    """(ensemble, p, k) with the ensemble large-spread for the attacker.

    The norm p is drawn from {1, 2, inf} and each tree's split probability
    from {0.7, 0.85, 1.0}.  The budget is drawn strictly below half the
    measured spread, so the spread precondition holds by construction;
    ensembles with more than 40,000 leaf tuples, too slow to cross-check by
    brute force, are re-drawn.
    """
    while True:
        d = rng.randint(1, max_d)
        m = rng.choice(tuple(tree_counts))
        split_prob = rng.choice((0.7, 0.85, 1.0))
        trees = tuple(random_tree(rng, d, max_depth, split_prob) for _ in range(m))
        if _leaf_tuple_count(trees) > 40_000:
            continue
        p = rng.choice((1, 2, math.inf))
        ensemble = Ensemble(trees, d)
        psi = spread(ensemble, p)
        if psi == 0.0:
            continue
        if psi == math.inf:
            k = rng.uniform(0.5, 5.0)
        else:
            k = 0.5 * psi * rng.uniform(0.15, 0.9)
            if not (0.0 < 2.0 * k < psi):
                continue
        return ensemble, p, k


def scaling_ensemble(
    rng: random.Random, m: int, depth: int, d: int, k: float
) -> Ensemble:
    """Large-spread ensemble of ``m`` full trees for timing runs.

    Tree ``i`` draws all thresholds from its own band, with consecutive
    bands separated by more than ``2k``, so the ensemble is large-spread
    whatever features the nodes test.
    """
    width = 50.0
    stride = width + 2.0 * k + 1.0

    def grow(level: int, lo: float, hi: float) -> Node:
        if level >= depth:
            return Leaf(rng.choice((-1, 1)))
        return Split(
            rng.randrange(d),
            rng.uniform(lo, hi),
            grow(level + 1, lo, hi),
            grow(level + 1, lo, hi),
        )

    trees = tuple(
        DecisionTree(grow(0, i * stride, i * stride + width)) for i in range(m)
    )
    return Ensemble(trees, d)


def two_blob_dataset(
    seed: int,
    n: int,
    d: int,
    informative: Optional[int] = None,
) -> Dataset:
    """Two unit-variance Gaussian blobs whose centres are 6 apart per feature.

    The first ``informative`` features carry the class offset of +-3; the
    rest are pure noise.  Balanced labels, deterministic for a fixed seed.
    """
    rng = random.Random(seed)
    informative = d if informative is None else min(informative, d)
    rows, labels = [], []
    for i in range(n):
        label = 1 if i % 2 == 0 else -1
        center = 3.0 if label == 1 else -3.0
        row = [rng.gauss(center if j < informative else 0.0, 1.0) for j in range(d)]
        rows.append(row)
        labels.append(label)
    return Dataset(rows, labels)
