import math
import random
from fractions import Fraction
from math import inf, nextafter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadverify import (
    DecisionTree,
    EmptyIntervalError,
    Ensemble,
    Interval,
    Leaf,
    Split,
    dist_feature,
    is_large_spread,
    norm,
    oplus,
    predict_ensemble,
    predict_tree,
    spread,
    update_norm,
)
from spreadverify.core import check_norm_order

NORMS = (0, 1, 2, 3, inf)


# ---------------------------------------------------------------------------
# type invariants
# ---------------------------------------------------------------------------


def test_leaf_rejects_other_labels():
    with pytest.raises(ValueError):
        Leaf(0)
    with pytest.raises(ValueError):
        Leaf(2)


def test_split_rejects_bad_fields():
    with pytest.raises(ValueError):
        Split(-1, 1.0, Leaf(1), Leaf(-1))
    with pytest.raises(ValueError):
        Split(0, math.nan, Leaf(1), Leaf(-1))


def test_model_types_refuse_what_they_would_coerce():
    stump = DecisionTree(Split(0, 0.5, Leaf(-1), Leaf(1)))
    for bad_label in (True, -1.9, 1.0, "1"):
        with pytest.raises(TypeError):
            Leaf(bad_label)
    for bad_feature in (True, 2.7, 0.0, "0"):
        with pytest.raises(TypeError):
            Split(bad_feature, 0.5, Leaf(-1), Leaf(1))
    for bad_threshold in (False, "0.5", None):
        with pytest.raises(TypeError):
            Split(0, bad_threshold, Leaf(-1), Leaf(1))
    for bad_d in (True, 3.9, "3"):
        with pytest.raises(TypeError):
            Ensemble((stump,), bad_d)
    # NumPy scalars and exact Python numbers are still accepted.
    split = Split(np.int64(2), np.float32(0.5), Leaf(np.int8(-1)), Leaf(1))
    assert split == Split(2, 0.5, Leaf(-1), Leaf(1))
    assert type(split.feature) is int and type(split.threshold) is float
    assert type(split.left.label) is int
    assert Split(0, 1, Leaf(-1), Leaf(1)).threshold == 1.0
    assert Ensemble((stump,), np.int32(3)).dimensionality == 3


def test_ensemble_rejects_even_tree_count(stump_trio):
    t1, t2, _ = stump_trio
    with pytest.raises(ValueError):
        Ensemble((t1, t2), 1)


def test_ensemble_rejects_feature_out_of_range(stump_trio):
    with pytest.raises(ValueError):
        Ensemble(stump_trio, 0)


def test_norm_order_validation():
    assert check_norm_order(inf) == inf
    assert check_norm_order(3) == 3
    for bad in (-1, 1.5, "2", True):
        with pytest.raises(ValueError):
            check_norm_order(bad)


def test_attacker_model_validation():
    from spreadverify import AttackerModel

    attacker = AttackerModel(2, 0.5)
    assert (attacker.p, attacker.k) == (2, 0.5)
    with pytest.raises(ValueError):
        AttackerModel(2, -1.0)
    with pytest.raises(ValueError):
        AttackerModel(2, inf)
    with pytest.raises(ValueError):
        AttackerModel(-2, 1.0)


def test_hyper_rectangle_normalizes_and_intersects():
    from spreadverify import FULL_INTERVAL, HyperRectangle

    rect = HyperRectangle({0: Interval(1.0, 2.0), 1: FULL_INTERVAL})
    assert len(rect) == 1  # full entries are never stored
    assert rect.get(1).is_full
    narrowed = rect.intersect(0, Interval(1.5, 9.0))
    assert narrowed.get(0) == Interval(1.5, 2.0)
    assert rect.get(0) == Interval(1.0, 2.0)  # original untouched
    assert not narrowed.is_empty
    assert narrowed.intersect(0, Interval(5.0, 9.0)).is_empty
    widened = rect.intersect(0, Interval(0.0, 9.0))
    assert widened.get(0) == Interval(1.0, 2.0)


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


def test_predict_depth2_tree(depth2_tree):
    assert predict_tree(depth2_tree, (12.0, 7.0)) == 1
    assert predict_tree(depth2_tree, (8.0, 6.0)) == -1


def test_predict_single_leaf_tree():
    t = DecisionTree(Leaf(1))
    assert predict_tree(t, (0.0,)) == 1
    assert predict_tree(t, ()) == 1


def test_predict_threshold_tie_goes_left(depth2_tree):
    assert predict_tree(depth2_tree, (10.0, 5.0)) == 1  # both comparisons at the bound


def test_predict_dimension_mismatch(depth2_tree):
    with pytest.raises(ValueError):
        predict_tree(depth2_tree, (1.0,))


def test_predict_ensemble_majority(stump_trio_ensemble):
    assert predict_ensemble(stump_trio_ensemble, (11.0,)) == 1
    assert predict_ensemble(stump_trio_ensemble, (9.0,)) == 1  # votes -1, +1, +1


def test_predict_ensemble_forced_majority():
    trees = tuple(DecisionTree(Leaf(v)) for v in (-1, -1, 1))
    assert predict_ensemble(Ensemble(trees, 1), (3.0,)) == -1


def test_predict_ensemble_dimension_mismatch(stump_trio_ensemble):
    with pytest.raises(ValueError):
        predict_ensemble(stump_trio_ensemble, (1.0, 2.0))


def test_flipping_leaves_negates_prediction(stump_trio):
    def flipped(node):
        if isinstance(node, Leaf):
            return Leaf(-node.label)
        return Split(node.feature, node.threshold, flipped(node.left), flipped(node.right))

    ensemble = Ensemble(stump_trio, 1)
    mirrored = Ensemble(tuple(DecisionTree(flipped(t.root)) for t in stump_trio), 1)
    for xv in (-3.0, 9.0, 11.0, 12.0, 15.0, 40.0):
        assert predict_ensemble(mirrored, (xv,)) == -predict_ensemble(ensemble, (xv,))


# ---------------------------------------------------------------------------
# intervals and minimal perturbations
# ---------------------------------------------------------------------------


def test_interval_emptiness_and_intersection():
    assert Interval(3.0, 3.0).is_empty
    assert Interval(4.0, 3.0).is_empty
    assert Interval().is_full
    assert Interval(1.0, 5.0).intersect_le(3.0) == Interval(1.0, 3.0)
    assert Interval(1.0, 5.0).intersect_gt(3.0) == Interval(3.0, 5.0)


def test_dist_inside_is_zero():
    assert dist_feature(11.0, Interval(10.0, inf)) == 0.0


def test_dist_pushes_down_onto_closed_bound():
    assert dist_feature(11.0, Interval(-inf, 10.0)) == -1.0


def test_dist_pushes_up_past_open_bound():
    delta = dist_feature(9.0, Interval(10.0, inf))
    assert delta == nextafter(10.0, inf) - 9.0
    assert 9.0 + delta > 10.0


def test_dist_rejects_empty_interval():
    with pytest.raises(EmptyIntervalError):
        dist_feature(1.0, Interval(5.0, 2.0))


# One binade: every grid point and its float neighbours subtract and re-add
# exactly, so x + delta is computed without rounding.
grid_values = st.integers(256, 511).map(lambda n: n / 4.0)


@settings(max_examples=300)
@given(x=grid_values, lo=grid_values, hi=grid_values)
def test_dist_membership_and_minimality(x, lo, hi):
    if lo >= hi:
        return
    iv = Interval(lo, hi)
    delta = dist_feature(x, iv)
    landed = x + delta
    assert iv.contains(landed)
    assert Fraction(x) + Fraction(delta) == Fraction(landed)  # addition was exact
    if delta == 0.0:
        assert iv.contains(x)
    elif delta > 0.0:
        # lands on the smallest float inside the interval: one step less exits
        assert landed == nextafter(lo, inf)
        assert not iv.contains(nextafter(landed, -inf))
    else:
        # lands exactly on the closed upper bound: any shorter push stays out
        assert landed == hi
        assert not iv.contains(nextafter(landed, inf))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_norm_examples():
    assert norm((3.0, -4.0), 2) == 5.0
    assert all(norm((0.0, 0.0), p) == 0.0 for p in NORMS)
    assert norm((1.0, -2.0, 0.0), 0) == 2.0


def test_update_norm_examples():
    assert update_norm(inf, 2.0, 0.0, 3.0) == 3.0
    assert update_norm(2, 5.0, 4.0, 0.0) == 3.0
    assert update_norm(1, 1.0, 1.0, 2.0) == 2.0


def test_oplus_examples():
    assert oplus([3.0, 4.0], 2) == 5.0
    assert oplus([1.0, 2.0, 7.0], inf) == 7.0
    assert oplus([1.0, 1.0, 1.0], 0) == 3.0


def test_oplus_rejects_infinite_entries():
    with pytest.raises(ValueError):
        oplus([1.0, inf], 2)


# Components either vanish or keep a bounded magnitude ratio: removing a
# dominant component from an O(1)-updated norm cancels catastrophically for
# unbounded ratios, which interval refinement never produces (components only
# grow along a path).
component_values = st.one_of(
    st.just(0.0),
    st.floats(1.0, 20.0),
    st.floats(-20.0, -1.0),
)


@settings(max_examples=300)
@given(
    data=st.data(),
    p=st.sampled_from(NORMS),
    vec=st.lists(component_values, min_size=1, max_size=8),
)
def test_update_norm_matches_recomputation(data, p, vec):
    i = data.draw(st.integers(0, len(vec) - 1))
    new_value = data.draw(component_values)
    if new_value == 0.0 and all(v == 0.0 for j, v in enumerate(vec) if j != i):
        new_value = 5.0  # keep the replaced vector away from all-zeros
    if p == inf and abs(new_value) < abs(vec[i]):
        # the O(1) max-rule is only valid when the component grows, which is
        # the only direction interval refinement can move it
        new_value = math.copysign(abs(vec[i]) + abs(new_value), new_value)
    before = norm(vec, p)
    updated = update_norm(p, before, vec[i], new_value)
    replaced = list(vec)
    replaced[i] = new_value
    expected = norm(replaced, p)
    assert updated == pytest.approx(expected, rel=1e-9, abs=1e-12)


@settings(max_examples=300)
@given(
    data=st.data(),
    p=st.sampled_from((0, 1, 2, inf)),
    q=st.integers(2, 5),
)
def test_oplus_matches_norm_of_disjoint_sum(data, p, q):
    d = data.draw(st.integers(q, 12))
    features = list(range(d))
    data.draw(st.randoms(use_true_random=False)).shuffle(features)
    vectors = []
    cursor = 0
    for i in range(q):
        take = data.draw(st.integers(1, max(1, (d - cursor) - (q - i - 1))))
        vec = [0.0] * d
        for f in features[cursor : cursor + take]:
            vec[f] = data.draw(st.floats(-20, 20, allow_nan=False))
        cursor += take
        vectors.append(vec)
    total = [sum(col) for col in zip(*vectors)]
    expected = norm(total, p)
    combined = oplus([norm(v, p) for v in vectors], p)
    assert combined == pytest.approx(expected, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# spread
# ---------------------------------------------------------------------------


def test_spread_of_stump_trio(stump_trio):
    assert spread(stump_trio, 1) == 2.0
    t1, t2, t3 = stump_trio
    assert spread([t2, t3], 1) == 5.0


def test_spread_disjoint_features_is_infinite():
    a = DecisionTree(Split(0, 12.0, Leaf(1), Leaf(-1)))
    b = DecisionTree(Split(1, 17.0, Leaf(1), Leaf(-1)))
    assert spread([a, b], 1) == inf


def test_spread_single_tree_is_infinite(stump_trio):
    assert spread([stump_trio[0]], 2) == inf


def test_spread_counts_tree_positions_not_structures(stump_trio):
    t1 = stump_trio[0]
    assert spread([t1, t1], 1) == 0.0  # duplicated tree shares its own threshold


def test_spread_permutation_invariant_and_monotone():
    rng = random.Random(7)
    from spreadverify.synth import random_tree

    for _ in range(50):
        trees = [random_tree(rng, 3, 3) for _ in range(4)]
        p = rng.choice((1, 2, inf))
        base = spread(trees, p)
        shuffled = trees[:]
        rng.shuffle(shuffled)
        assert spread(shuffled, p) == base
        extended = trees + [random_tree(rng, 3, 3)]
        assert spread(extended, p) <= base


def test_is_large_spread_examples(stump_trio, stump_trio_ensemble):
    _, t2, t3 = stump_trio
    assert not is_large_spread(stump_trio_ensemble, 1, 2.0)
    assert is_large_spread([t2, t3], 1, 2.0)
    assert is_large_spread([stump_trio[0]], inf, 1e9)


def test_is_large_spread_rejects_p0_with_positive_budget(stump_trio):
    with pytest.raises(ValueError):
        is_large_spread(stump_trio, 0, 1.0)


def test_zero_budget_spread_check_is_norm_independent(stump_trio):
    t1, t2, _ = stump_trio
    clone = DecisionTree(Split(0, 10.0, Leaf(1), Leaf(-1)))
    for p in NORMS:
        assert is_large_spread([t1, t2], p, 0.0)  # distinct thresholds
        assert not is_large_spread([t1, clone], p, 0.0)  # shared threshold 10


def test_spread_l0_distances():
    a = DecisionTree(Split(0, 10.0, Leaf(1), Leaf(-1)))
    b = DecisionTree(Split(0, 11.0, Leaf(1), Leaf(-1)))
    c = DecisionTree(Split(0, 10.0, Leaf(-1), Leaf(1)))
    assert spread([a, b], 0) == 1.0
    assert spread([a, c], 0) == 0.0


def test_spread_of_a_deep_chain():
    # 1500 nested splits: spread must come from an iterative scan, not from
    # anything that recurses through the tree (such as hashing it).
    chain = Leaf(1)
    for level in reversed(range(1500)):
        chain = Split(0, float(level), Leaf(-1), chain)
    trees = (
        DecisionTree(chain),
        DecisionTree(Split(0, 0.25, Leaf(1), Leaf(-1))),
        DecisionTree(Split(1, 5.0, Leaf(1), Leaf(-1))),
    )
    ensemble = Ensemble(trees, 2)
    assert ensemble.node_count == 3001 + 3 + 3
    for target in (ensemble, trees):
        assert spread(target, inf) == 0.25
        assert spread(target, 0) == 1.0
        assert is_large_spread(target, 2, 0.1)
        assert not is_large_spread(target, 1, 0.125)
