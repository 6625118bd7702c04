import math
import random
from concurrent.futures import ThreadPoolExecutor
from math import inf, nextafter

import pytest

from spreadverify import (
    DecisionTree,
    Ensemble,
    Leaf,
    NotLargeSpreadError,
    Split,
    exact_robust,
    leaf_regions,
    predict_tree,
    reachable,
    robust_ensemble,
    robust_tree,
    robustness_score,
    stable_ensemble,
)
from spreadverify.core import norm_to_power, power_to_norm, rect_cost_power
from spreadverify.synth import (
    knife_edge_instance,
    random_instance,
    random_large_spread_case,
    random_tree,
)

EPS_ABOVE_12 = nextafter(12.0, inf) - 11.0
EPS_ABOVE_17 = nextafter(17.0, inf) - 11.0


# ---------------------------------------------------------------------------
# single-tree reachability
# ---------------------------------------------------------------------------


def test_reachable_stump_trio(stump_trio):
    t1, t2, t3 = stump_trio
    assert reachable(t1, 1, 2.0, (11.0,), 1) == frozenset({1.0})
    assert reachable(t2, 1, 2.0, (11.0,), 1) == frozenset({EPS_ABOVE_12})
    assert reachable(t3, 1, 2.0, (11.0,), 1) == frozenset()
    assert EPS_ABOVE_17 > 2.0  # the wrong leaf of t3 is just out of budget


def test_reachable_zero_budget_away_from_thresholds(depth2_tree):
    x = (12.0, 7.0)
    assert predict_tree(depth2_tree, x) == 1
    assert reachable(depth2_tree, 2, 0.0, x, 1) == frozenset()


def test_reachable_budget_tie_counts(stump_trio):
    t1, _, _ = stump_trio
    assert reachable(t1, 1, 1.0, (11.0,), 1) == frozenset({1.0})


def test_reachable_rejects_bad_arguments(stump_trio):
    t1, _, _ = stump_trio
    with pytest.raises(ValueError):
        reachable(t1, 1, -1.0, (11.0,), 1)
    with pytest.raises(ValueError):
        reachable(t1, 1, 1.0, (11.0,), 0)
    with pytest.raises(ValueError):
        reachable(t1, 1, 1.0, (), 1)


def test_robust_tree_examples(stump_trio):
    t1, t2, t3 = stump_trio
    assert not robust_tree(t1, 1, 2.0, (11.0,), 1)
    assert not robust_tree(t2, 1, 2.0, (11.0,), 1)
    assert robust_tree(t3, 1, 2.0, (11.0,), 1)
    assert robust_tree(t3, 1, 2.0, (15.0,), 1)


def test_robust_tree_constant_tree():
    t = DecisionTree(Leaf(1))
    assert robust_tree(t, inf, 1e12, (5.0,), 1)
    assert not robust_tree(t, inf, 1e12, (5.0,), -1)


def test_attackability_pattern_between_far_stumps(stump_trio):
    _, t2, t3 = stump_trio

    def attackable(tree, xv):
        own = predict_tree(tree, (xv,))
        return bool(reachable(tree, 1, 2.0, (xv,), own))

    assert [attackable(t2, 14.0), attackable(t3, 14.0)] == [True, False]
    assert [attackable(t2, 15.0), attackable(t3, 15.0)] == [False, False]
    assert [attackable(t2, 16.0), attackable(t3, 16.0)] == [False, True]


def test_reachable_matches_per_leaf_recomputation_exactly():
    """The O(1)-update traversal must reproduce, bit for bit, the costs of
    recomputing every leaf's hyper-rectangle from scratch."""
    rng = random.Random(1234)
    for trial in range(800):
        d = rng.randint(1, 5)
        tree = random_tree(rng, d, rng.randint(1, 4))
        p = rng.choice((0, 1, 2, 3, inf))
        k = rng.choice((0.0, rng.uniform(0.0, 40.0), inf))
        x = (
            knife_edge_instance(rng, [tree], d)
            if trial % 2
            else random_instance(rng, d)
        )
        y = rng.choice((-1, 1))
        budget = norm_to_power(k, p)
        naive = set()
        for label, box in leaf_regions(tree):
            if label == y:
                continue
            cost = rect_cost_power(box, x, p)
            if cost <= budget:
                naive.add(power_to_norm(cost, p))
        assert set(reachable(tree, p, k, x, y)) == naive


def test_costs_nondecreasing_along_paths():
    """Refining intervals along a root-to-leaf path never shrinks the cost,
    which is what licenses pruning once the budget is exceeded."""
    rng = random.Random(77)
    for _ in range(200):
        d = rng.randint(1, 4)
        tree = random_tree(rng, d, 4)
        x = random_instance(rng, d)
        p = rng.choice((0, 1, 2, inf))

        def walk(node, rect, prev_cost):
            cost = rect_cost_power(rect, x, p)
            assert cost >= prev_cost
            if isinstance(node, Leaf):
                return
            lo, hi = rect.get(node.feature, (-inf, inf))
            left = (lo, min(hi, node.threshold))
            right = (max(lo, node.threshold), hi)
            for bounds, child in ((left, node.left), (right, node.right)):
                if bounds[0] < bounds[1]:
                    walk(child, {**rect, node.feature: bounds}, cost)

        walk(tree.root, {}, 0.0)


def test_verification_of_a_5000_level_chain():
    # Split i sends (i - 1, i] to a -1 leaf and the rest right; x = 5000.5
    # passes every split to the final +1 leaf.  The nearest wrong leaf is
    # (4998, 4999], 1.5 away; the next, 2.5 away, is out of budget.
    chain = Leaf(1)
    for level in reversed(range(5000)):
        chain = Split(0, float(level), Leaf(-1), chain)
    tree = DecisionTree(chain)
    x = (5000.5,)
    assert reachable(tree, inf, 2.0, x, 1) == frozenset({1.5})
    assert not robust_tree(tree, inf, 2.0, x, 1)
    verdict = robust_ensemble(Ensemble((tree,), 1), 2, 2.0, x, 1)
    assert verdict.predicted == 1
    assert verdict.min_attack_norm == 1.5
    # The oracle walks the same chain without recursion and agrees.
    assert len(leaf_regions(tree)) == 5001
    robust, witness = exact_robust(Ensemble((tree,), 1), 2, 2.0, x, 1)
    assert not robust and witness.norm_value == 1.5


# ---------------------------------------------------------------------------
# ensemble verification
# ---------------------------------------------------------------------------


def test_stable_when_too_few_trees_attackable(staircase_stumps):
    assert stable_ensemble(staircase_stumps, inf, 2.0, (11.0,), 1)
    verdict = robust_ensemble(staircase_stumps, inf, 2.0, (11.0,), 1)
    assert verdict.robust and verdict.stable and verdict.predicted == 1
    assert verdict.min_attack_norm is None
    assert exact_robust(staircase_stumps, inf, 2.0, (11.0,), 1)[0]


def test_unstable_when_joint_attack_fits_budget(two_feature_stumps):
    # two pushes just above 10 flip a majority at L1 cost 2 + 2 ulps
    assert not stable_ensemble(two_feature_stumps, 1, 3.0, (9.0, 9.0), 1)
    verdict = robust_ensemble(two_feature_stumps, 1, 3.0, (9.0, 9.0), 1)
    assert not verdict.robust and not verdict.stable
    expected = math.fsum([nextafter(10.0, inf) - 9.0] * 2)
    assert verdict.min_attack_norm == expected
    robust, witness = exact_robust(two_feature_stumps, 1, 3.0, (9.0, 9.0), 1)
    assert not robust and witness.norm_value == expected


def test_stable_when_joint_attack_exceeds_budget(two_feature_stumps):
    assert stable_ensemble(two_feature_stumps, 1, 1.5, (9.0, 9.0), 1)
    assert robust_ensemble(two_feature_stumps, 1, 1.5, (9.0, 9.0), 1).robust
    assert exact_robust(two_feature_stumps, 1, 1.5, (9.0, 9.0), 1)[0]


def test_misprediction_is_not_robust_but_may_be_stable(staircase_stumps):
    verdict = robust_ensemble(staircase_stumps, inf, 2.0, (11.0,), -1)
    assert not verdict.robust
    assert verdict.stable  # its own (wrong) prediction cannot be flipped
    assert verdict.predicted == 1


def test_not_large_spread_error_payload(stump_trio_ensemble):
    with pytest.raises(NotLargeSpreadError) as info:
        robust_ensemble(stump_trio_ensemble, 1, 2.0, (11.0,), 1)
    assert info.value.spread_value == 2.0
    assert info.value.required_gap == 4.0
    with pytest.raises(NotLargeSpreadError):
        stable_ensemble(stump_trio_ensemble, 1, 2.0, (11.0,), 1)


def test_ensemble_rejects_p0(staircase_stumps):
    with pytest.raises(ValueError):
        stable_ensemble(staircase_stumps, 0, 1.0, (11.0,), 1)


def test_monotone_in_budget():
    rng = random.Random(4242)
    for _ in range(150):
        ensemble, p, k = random_large_spread_case(rng)
        x = random_instance(rng, ensemble.dimensionality)
        y = rng.choice((-1, 1))
        if robust_ensemble(ensemble, p, k, x, y).robust:
            smaller = k * rng.uniform(0.1, 0.9)
            assert robust_ensemble(ensemble, p, smaller, x, y).robust


def test_robustness_score_counts(two_feature_stumps):
    # one robust instance, one whose prediction flips within budget
    import numpy as np

    from spreadverify import Dataset

    data = Dataset(np.array([[9.0, 9.0], [60.0, 60.0]]), np.array([1, -1]))
    score = robustness_score(two_feature_stumps, 1, 3.0, data)
    assert score == 0.5


def test_robustness_score_propagates_spread_failure(stump_trio_ensemble):
    import numpy as np

    from spreadverify import Dataset

    data = Dataset(np.array([[11.0]]), np.array([1]))
    with pytest.raises(NotLargeSpreadError):
        robustness_score(stump_trio_ensemble, 1, 2.0, data)


def test_robustness_score_empty_testset(two_feature_stumps):
    import numpy as np

    from spreadverify import Dataset

    empty = Dataset(np.empty((0, 2)), np.empty((0,), dtype=int))
    with pytest.raises(ValueError):
        robustness_score(two_feature_stumps, 1, 3.0, empty)


def test_concurrent_verification_matches_sequential():
    rng = random.Random(9)
    ensemble, p, k = random_large_spread_case(rng)
    instances = [random_instance(rng, ensemble.dimensionality) for _ in range(40)]
    sequential = [robust_ensemble(ensemble, p, k, x, 1) for x in instances]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda x: robust_ensemble(ensemble, p, k, x, 1), instances))
    assert threaded == sequential


# ---------------------------------------------------------------------------
# non-finite instances
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, inf, -inf])
def test_non_finite_coordinates_are_rejected(two_feature_stumps, bad):
    tree = two_feature_stumps.trees[0]
    x = (3.0, bad)
    with pytest.raises(ValueError, match="finite"):
        reachable(tree, inf, 1.0, x, 1)
    with pytest.raises(ValueError, match="finite"):
        robust_tree(tree, inf, 1.0, x, 1)
    with pytest.raises(ValueError, match="finite"):
        stable_ensemble(two_feature_stumps, inf, 1.0, x, 1)
    with pytest.raises(ValueError, match="finite"):
        robust_ensemble(two_feature_stumps, inf, 1.0, x, 1)


def test_one_nan_coordinate_is_an_error_on_both_sides():
    # A NaN makes every distance NaN, so wrong leaves used to drop out of
    # the budget comparisons and the fast path and the oracle disagreed.
    rng = random.Random(0)
    for _ in range(40):
        ensemble, p, k = random_large_spread_case(rng)
        x = list(random_instance(rng, ensemble.dimensionality))
        x[rng.randrange(len(x))] = math.nan
        y = rng.choice((-1, 1))
        with pytest.raises(ValueError):
            robust_ensemble(ensemble, p, k, x, y)
        with pytest.raises(ValueError):
            exact_robust(ensemble, p, k, x, y)
