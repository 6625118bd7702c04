"""One input policy: every public entry point refuses what it would coerce.

Each row calls one entry point with valid arguments except one.  A value of
the wrong type (a string, a bool, a float where an integer belongs) raises
TypeError; a value of the right type out of range (NaN, a negative value,
p = 0 where an ensemble result needs p >= 1 or inf, an infinite norm or
perturbation component) raises ValueError.  A new entry point that takes
p, k, an instance, a label, a count, a seed, a norm or a component belongs
in ``ENTRY_POINTS``.  ``MALFORMED`` holds the rows whose bad argument is a
structure, not one of those kinds.
"""

from math import inf, nan

import numpy as np
import pytest

from spreadverify import (
    Dataset,
    DecisionTree,
    Ensemble,
    Graph,
    Leaf,
    NotLargeSpreadError,
    Split,
    TrainConfig,
    clique_exists,
    exact_robust,
    exists_large_spread_subset,
    fix_forest,
    get_best_tree,
    is_large_spread,
    minimal_attack,
    minimal_joint_attack,
    norm,
    oplus,
    parse_graph,
    predict_ensemble,
    predict_tree,
    reachable,
    robust_ensemble,
    robust_tree,
    robustness_score,
    split_attack,
    spread,
    train_large_spread,
    train_random_forest,
    update_norm,
)
from spreadverify.cli import stratified_split

STUMP = DecisionTree(Split(0, 0.5, Leaf(-1), Leaf(1)))
FAR = DecisionTree(Split(0, 5.0, Leaf(-1), Leaf(1)))
MODEL = Ensemble((STUMP,), 1)
DATA = Dataset(np.array([[0.0], [0.2], [0.9], [1.0]]), np.array([-1, -1, 1, 1]))
TRIANGLE = Graph(3, frozenset({(0, 1), (1, 2), (0, 2)}))


# A node is exactly a Leaf or a Split: the walkers test the type, not the class
# hierarchy, so a subclass is refused wherever a node goes.
class SubLeaf(Leaf):
    pass


class SubSplit(Split):
    pass


# Bad values per kind of argument, with the error each must raise.
BAD = {
    "p": [("string", "2", ValueError), ("bool", True, ValueError),
          ("nan", nan, ValueError), ("negative", -1, ValueError)],
    "k": [("string", "0.1", TypeError), ("bool", True, TypeError),
          ("nan", nan, ValueError), ("negative", -0.5, ValueError)],
    "x": [("string", ("0.5",), TypeError), ("nan", (nan,), ValueError),
          ("inf", (inf,), ValueError)],
    "y": [("string", "1", TypeError), ("bool", True, TypeError), ("float", 1.0, TypeError),
          ("nan", nan, TypeError), ("zero", 0, ValueError)],
    "count": [("string", "3", TypeError), ("bool", True, TypeError),
              ("float", 2.5, TypeError), ("nan", nan, TypeError), ("negative", -1, ValueError)],
    "seed": [("string", "3", TypeError), ("bool", True, TypeError),
             ("float", 2.5, TypeError), ("none", None, TypeError)],
}
BAD["p_ensemble"] = BAD["p"] + [("zero", 0, ValueError)]
# A perturbation component is a finite real; a norm is also >= 0.
BAD["component"] = [("string", "1.0", TypeError), ("bool", True, TypeError),
                    ("nan", nan, ValueError), ("inf", inf, ValueError)]
BAD["norm"] = BAD["component"] + [("negative", -1.0, ValueError)]

TREE_ARGS = {"p": "p", "k": "k", "x": "x", "y": "y"}
ENSEMBLE_ARGS = {"p": "p_ensemble", "k": "k", "x": "x", "y": "y"}
VALID = dict(p=inf, k=0.1, x=(0.0,), y=-1)

# name -> (call taking keyword arguments, valid arguments, kind of each checked one)
ENTRY_POINTS = {
    "is_large_spread": (
        lambda p, k: is_large_spread([STUMP, STUMP], p, k), dict(p=inf, k=0.1),
        {"p": "p", "k": "k"},
    ),
    "spread": (lambda p: spread([STUMP, STUMP], p), dict(p=inf), {"p": "p"}),
    "norm": (
        lambda p, component: norm((component, -2.0), p), dict(p=inf, component=1.0),
        {"p": "p", "component": "component"},
    ),
    "update_norm": (
        update_norm, dict(p=inf, delta_norm=2.0, old_comp=1.0, new_comp=3.0),
        {"p": "p", "delta_norm": "norm", "old_comp": "component", "new_comp": "component"},
    ),
    "oplus": (
        lambda p, entry: oplus((entry, 2.0), p), dict(p=inf, entry=1.0),
        {"p": "p", "entry": "norm"},
    ),
    "predict_tree": (lambda x: predict_tree(STUMP, x), dict(x=(0.0,)), {"x": "x"}),
    "predict_ensemble": (lambda x: predict_ensemble(MODEL, x), dict(x=(0.0,)), {"x": "x"}),
    "reachable": (lambda p, k, x, y: reachable(STUMP, p, k, x, y), VALID, TREE_ARGS),
    "robust_tree": (lambda p, k, x, y: robust_tree(STUMP, p, k, x, y), VALID, TREE_ARGS),
    "robust_ensemble": (
        lambda p, k, x, y: robust_ensemble(MODEL, p, k, x, y), VALID, ENSEMBLE_ARGS
    ),
    "robustness_score": (
        lambda p, k: robustness_score(MODEL, p, k, DATA), dict(p=inf, k=0.1),
        {"p": "p_ensemble", "k": "k"},
    ),
    "exact_robust": (lambda p, k, x, y: exact_robust(MODEL, p, k, x, y), VALID, TREE_ARGS),
    "minimal_attack": (
        lambda p, x, y: minimal_attack(MODEL, p, x, y), dict(p=inf, x=(0.0,), y=-1),
        {"p": "p", "x": "x", "y": "y"},
    ),
    "minimal_joint_attack": (
        lambda p, x, y: minimal_joint_attack([STUMP], p, x, y), dict(p=inf, x=(0.0,), y=-1),
        {"p": "p", "x": "x", "y": "y"},
    ),
    "split_attack": (
        lambda x, z: split_attack(STUMP, FAR, x, z), dict(x=(0.0,), z=(1.0,)),
        {"x": "x", "z": "x"},
    ),
    "exists_large_spread_subset": (
        lambda s, p, k: exists_large_spread_subset([STUMP, STUMP], s, p, k),
        dict(s=1, p=inf, k=0.1), {"s": "count", "p": "p", "k": "k"},
    ),
    "TrainConfig": (
        TrainConfig,
        dict(num_trees=3, max_depth=2, p=inf, k=0.1, max_iter=5, partitions=1, seed=0),
        {"num_trees": "count", "max_depth": "count", "p": "p_ensemble", "k": "k",
         "max_iter": "count", "partitions": "count", "seed": "seed"},
    ),
    "train_random_forest": (
        lambda num_trees, max_depth, seed: train_random_forest(DATA, num_trees, max_depth, seed),
        dict(num_trees=1, max_depth=2, seed=0),
        {"num_trees": "count", "max_depth": "count", "seed": "seed"},
    ),
    "get_best_tree": (
        lambda p, k: get_best_tree([STUMP], [STUMP], p, k), dict(p=inf, k=0.1),
        {"p": "p_ensemble", "k": "k"},
    ),
    "fix_forest": (
        lambda p, k, max_iter, seed: fix_forest(MODEL, p, k, max_iter, seed),
        dict(p=inf, k=0.1, max_iter=5, seed=0),
        {"p": "p_ensemble", "k": "k", "max_iter": "count", "seed": "seed"},
    ),
    "stratified_split": (
        lambda train_fraction, seed: stratified_split(DATA, train_fraction, seed),
        dict(train_fraction=0.5, seed=0), {"train_fraction": "k", "seed": "seed"},
    ),
    "Graph": (
        lambda n, endpoint: Graph(n, frozenset({(0, endpoint)})), dict(n=3, endpoint=1),
        {"n": "count", "endpoint": "count"},
    ),
    "clique_exists": (lambda s: clique_exists(TRIANGLE, s), dict(s=2), {"s": "count"}),
}

ROWS = [
    pytest.param(name, arg, value, error, id=f"{name}-{arg}-{label}")
    for name, (_, _, kinds) in ENTRY_POINTS.items()
    for arg, kind in kinds.items()
    for label, value, error in BAD[kind]
]


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_point_accepts_its_valid_arguments(name):
    call, valid, _ = ENTRY_POINTS[name]
    call(**valid)
    # NumPy scalars are exact numbers too.
    as_numpy = {
        arg: np.float64(value) if type(value) is float else
        np.int64(value) if type(value) is int else value
        for arg, value in valid.items()
    }
    call(**as_numpy)


@pytest.mark.parametrize("name, arg, value, error", ROWS)
def test_entry_point_refuses_bad_value(name, arg, value, error):
    call, valid, _ = ENTRY_POINTS[name]
    with pytest.raises(error):
        call(**{**valid, arg: value})


# name -> (call, error, message fragment)
MALFORMED = {
    "Split-child": (lambda: Split(0, 0.5, Leaf(-1), "leaf"), TypeError, "child nodes"),
    "DecisionTree-root": (lambda: DecisionTree(Leaf), TypeError, "tree root"),
    "Split-child-Leaf-subclass": (
        lambda: Split(0, 0.5, SubLeaf(-1), Leaf(1)), TypeError, "child nodes"
    ),
    "Split-child-Split-subclass": (
        lambda: Split(0, 0.5, Leaf(-1), SubSplit(0, 1.0, Leaf(-1), Leaf(1))),
        TypeError, "child nodes",
    ),
    "DecisionTree-root-Leaf-subclass": (lambda: DecisionTree(SubLeaf(1)), TypeError, "tree root"),
    "DecisionTree-root-Split-subclass": (
        lambda: DecisionTree(SubSplit(0, 0.5, Leaf(-1), Leaf(1))), TypeError, "tree root"
    ),
    "Ensemble-tree": (lambda: Ensemble((STUMP.root,), 1), TypeError, "tree 0 is not"),
    "spread-tree": (lambda: spread([STUMP, STUMP.root], inf), TypeError, "DecisionTree"),
    "Dataset-1d": (lambda: Dataset(np.zeros(4), np.ones(4)), ValueError, "2-D"),
    "get_best_tree-empty": (lambda: get_best_tree([], [STUMP], inf, 0.1), ValueError, "pool"),
    # Repair needs a finite k: the attacker checks alone would take k = inf.
    "TrainConfig-k-inf": (
        lambda: TrainConfig(num_trees=3, max_depth=2, p=inf, k=inf),
        ValueError, "k must be finite and > 0",
    ),
    "get_best_tree-k-inf": (
        lambda: get_best_tree([STUMP], [STUMP], inf, inf), ValueError, "k must be finite and > 0"
    ),
    "fix_forest-k-inf": (
        lambda: fix_forest(MODEL, inf, inf, 5, 0), ValueError, "k must be finite and > 0"
    ),
    "train_large_spread-partitions": (
        lambda: train_large_spread(
            Dataset(np.zeros((4, 3)), np.array([-1, 1, -1, 1])),
            TrainConfig(num_trees=1, max_depth=2, p=inf, k=0.1, partitions=2),
        ),
        ValueError, "more partitions than trees",
    ),
    "train_large_spread-partitions-over-d": (
        lambda: train_large_spread(
            Dataset(np.zeros((4, 3)), np.array([-1, 1, -1, 1])),
            TrainConfig(num_trees=5, max_depth=2, p=inf, k=0.1, partitions=4),
        ),
        ValueError, "cannot split",
    ),
    "train_large_spread-empty": (
        lambda: train_large_spread(
            Dataset(np.zeros((0, 2)), np.zeros(0)),
            TrainConfig(num_trees=1, max_depth=2, p=inf, k=0.1),
        ),
        ValueError, "empty dataset",
    ),
    "robust_ensemble-spread": (
        lambda: robust_ensemble(Ensemble((STUMP, STUMP, FAR), 1), inf, 0.1, (0.0,), 1),
        NotLargeSpreadError, "is not greater than 2k",
    ),
    "parse_graph-header": (lambda: parse_graph("3 two\n"), ValueError, "integer header"),
    "split_attack-lengths": (
        lambda: split_attack(STUMP, FAR, (0.0,), (1.0, 2.0)), ValueError, "same dimensionality"
    ),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_structure_is_refused(name):
    call, error, fragment = MALFORMED[name]
    with pytest.raises(error, match=fragment):
        call()
