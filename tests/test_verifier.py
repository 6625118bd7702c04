import copy
import math
import pickle
import random
from concurrent.futures import ThreadPoolExecutor
from math import inf, nextafter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadverify import (
    DecisionTree,
    Ensemble,
    Leaf,
    NotLargeSpreadError,
    Split,
    exact_robust,
    iter_splits,
    leaf_regions,
    predict_ensemble,
    predict_tree,
    reachable,
    robust_ensemble,
    robust_tree,
    robustness_score,
    verifier,
)
from spreadverify.core import (
    _majority_size,
    norm_to_power,
    power_to_norm,
    power_total,
    rect_cost_power,
)
from spreadverify.synth import (
    knife_edge_instance,
    random_instance,
    random_large_spread_case,
    random_tree,
    scaling_ensemble,
)
from spreadverify.verifier import (
    _PRUNE_SLACK,
    VerificationVerdict,
    _live_trees,
    _wrong_leaf_costs,
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
    verdict = robust_ensemble(staircase_stumps, inf, 2.0, (11.0,), 1)
    assert verdict.robust and verdict.stable and verdict.predicted == 1
    assert verdict.min_attack_norm is None
    assert exact_robust(staircase_stumps, inf, 2.0, (11.0,), 1)[0]


def test_unstable_when_joint_attack_fits_budget(two_feature_stumps):
    # two pushes just above 10 flip a majority at L1 cost 2 + 2 ulps
    verdict = robust_ensemble(two_feature_stumps, 1, 3.0, (9.0, 9.0), 1)
    assert not verdict.robust and not verdict.stable
    expected = math.fsum([nextafter(10.0, inf) - 9.0] * 2)
    assert verdict.min_attack_norm == expected
    robust, witness = exact_robust(two_feature_stumps, 1, 3.0, (9.0, 9.0), 1)
    assert not robust and witness.norm_value == expected


def test_the_composed_attack_takes_the_cheapest_trees():
    # Flipping tree i costs 3 - i; the majority needs two trees, and the
    # cheapest two cost 1 and 2, whatever order the trees are visited in.
    ensemble = Ensemble(
        tuple(DecisionTree(Split(i, float(i), Leaf(-1), Leaf(1))) for i in range(3)), 3
    )
    x, y, k = (3.0, 3.0, 3.0), 1, 10.0
    for p, expected in ((1, 3.0), (2, 5.0 ** 0.5), (inf, 2.0)):
        verdict = robust_ensemble(ensemble, p, k, x, y)
        assert not verdict.stable and verdict.min_attack_norm == expected


def test_stable_when_joint_attack_exceeds_budget(two_feature_stumps):
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


def test_spread_of_exactly_2k_is_refused():
    # Large spread is strict: at a gap of exactly 2k two trees can be flipped
    # by one coordinate, so the verdict would not compose.
    ensemble = Ensemble(
        tuple(DecisionTree(Split(0, v, Leaf(1), Leaf(-1))) for v in (0.0, 1.0, 2.0)), 1
    )
    for p in (1, 2, inf):
        with pytest.raises(NotLargeSpreadError):
            robust_ensemble(ensemble, p, 0.5, (0.5,), 1)
        robust_ensemble(ensemble, p, nextafter(0.5, 0.0), (0.5,), 1)


def test_an_empty_branch_is_never_reached():
    # The inner split's right branch needs 1.0 < x0 <= 1.0, which no
    # instance meets, whatever the budget.
    tree = DecisionTree(Split(0, 1.0, Split(0, 1.0, Leaf(1), Leaf(-1)), Leaf(1)))
    x, y, k = (0.0,), 1, 10.0
    for p in (1, 2, inf):
        assert reachable(tree, p, k, x, y) == frozenset()
        assert robust_ensemble(Ensemble((tree,), 1), p, k, x, y).robust
        assert exact_robust(Ensemble((tree,), 1), p, k, x, y) == (True, None)


def test_a_leaf_at_exactly_the_budget_survives_drift_on_its_path():
    # On the way to the -1 leaf the running L1 cost is 0.8 + 0.9 - 0.9 + 1.1,
    # which rounds to 1.9000000000000004, above the leaf's own cost
    # 1.9000000000000001, the budget: only the pruning slack keeps the leaf.
    tree = DecisionTree(
        Split(0, 0.4, Leaf(1), Split(1, -0.4, Split(1, -0.6, Leaf(-1), Leaf(1)), Leaf(1)))
    )
    x, y = (-0.4, 0.5), 1
    k = math.fsum((nextafter(0.4, inf) + 0.4, 0.5 + 0.6))
    assert reachable(tree, 1, k, x, y) == frozenset({k})
    assert not robust_tree(tree, 1, k, x, y)
    verdict = robust_ensemble(Ensemble((tree,), 2), 1, k, x, y)
    assert not verdict.stable and verdict.min_attack_norm == k


def test_ensemble_rejects_p0(staircase_stumps):
    with pytest.raises(ValueError):
        robust_ensemble(staircase_stumps, 0, 1.0, (11.0,), 1)


def test_monotone_in_budget():
    rng = random.Random(4242)
    for _ in range(150):
        ensemble, p, k = random_large_spread_case(rng)
        x = random_instance(rng, ensemble.dimensionality)
        y = rng.choice((-1, 1))
        if robust_ensemble(ensemble, p, k, x, y).robust:
            smaller = k * rng.uniform(0.1, 0.9)
            assert robust_ensemble(ensemble, p, smaller, x, y).robust


def _all_trees_verdict(ensemble, p, k, x, y):
    """Reference: robust_ensemble with one traversal of every tree."""
    predicted = predict_ensemble(ensemble, x)
    need = _majority_size(ensemble.trees)
    minima = []
    for tree in ensemble.trees:
        costs = _wrong_leaf_costs(tree, p, k, x, predicted)
        if costs:
            minima.append(min(costs))
    stable, attack_norm = True, None
    if len(minima) >= need:
        minima.sort()
        composed = power_total(minima[:need], p)
        if composed <= norm_to_power(k, p):
            stable, attack_norm = False, power_to_norm(composed, p)
    return VerificationVerdict(
        robust=(predicted == y) and stable,
        stable=stable,
        predicted=predicted,
        min_attack_norm=attack_norm,
    )


def _knife_edges(v, k):
    return (
        v - k,
        v + k,
        nextafter(v - k, -inf),
        nextafter(v + k, inf),
        v,
        nextafter(v, inf),
    )


def test_live_trees_match_the_all_trees_loop():
    """Skipping trees with no threshold within k of x, and traversing no
    wrong-voting tree, leaves every verdict and attack norm bit for bit."""
    rng = random.Random(2319)
    unstable = 0
    for _ in range(120):
        ensemble, _, drawn_k = random_large_spread_case(rng)
        splits = [s for t in ensemble.trees for s in iter_splits(t)]
        x = random_instance(rng, ensemble.dimensionality)
        y = rng.choice((-1, 1))
        for p in (1, 2, 3, inf):
            for k in (drawn_k, drawn_k / 2.0, 0.0):
                instances = [x]
                if splits:
                    split = rng.choice(splits)
                    for value in _knife_edges(split.threshold, k):
                        edge = list(x)
                        edge[split.feature] = value
                        instances.append(tuple(edge))
                for z in instances:
                    fast = robust_ensemble(ensemble, p, k, z, y)
                    # repr tells -0.0 from 0.0 and shows every bit of a float
                    assert repr(fast) == repr(_all_trees_verdict(ensemble, p, k, z, y))
                    unstable += not fast.stable
    assert unstable >= 200
    # Thresholds below k: x[0] - k rounds above v, yet x[0] one ulp beyond
    # v + k still crosses v within budget.  Tree 1 votes wrong, so tree 0's
    # flip decides the verdict.
    for p, v, k in ((inf, 1.7107598954195002, 4.965747709393726),
                    (2, 1.703890751840842, 4.369547171026106)):
        ensemble = Ensemble(
            (
                DecisionTree(Split(0, v, Leaf(-1), Leaf(1))),
                DecisionTree(Split(1, 50.0, Leaf(1), Leaf(-1))),
                DecisionTree(Split(1, 150.0, Leaf(1), Leaf(-1))),
            ),
            2,
        )
        x = (nextafter(v + k, inf), 100.0)
        assert x[0] - k > v
        fast = robust_ensemble(ensemble, p, k, x, 1)
        assert not fast.stable
        assert repr(fast) == repr(_all_trees_verdict(ensemble, p, k, x, 1))


def test_traversals_run_only_on_live_right_voting_trees(monkeypatch):
    rng = random.Random(31)
    k = 1.0
    ensemble = scaling_ensemble(rng, 101, 6, 30, k)
    splits = [s for t in ensemble.trees for s in iter_splits(t)]
    features = len({s.feature for s in splits})
    # Per feature, points more than 1.5 k away from each of its thresholds.
    far_points = []
    for f in range(ensemble.dimensionality):
        values = sorted(s.threshold for s in splits if s.feature == f) or [0.0]
        points = [values[0] - 2.0 * k, values[-1] + 2.0 * k]
        points += [(a + b) / 2.0 for a, b in zip(values, values[1:]) if b - a > 3.0 * k]
        far_points.append(points)
    low = min(s.threshold for s in splits) - 10.0
    high = max(s.threshold for s in splits) + 10.0
    traversed = []

    def counting(tree, *args):
        traversed.append(tree)
        return _wrong_leaf_costs(tree, *args)

    monkeypatch.setattr(verifier, "_wrong_leaf_costs", counting)
    total = 0
    for trial in range(90):
        x = [rng.uniform(low, high) for _ in range(ensemble.dimensionality)]
        if trial % 3 == 0:
            split = rng.choice(splits)
            x[split.feature] = rng.choice(_knife_edges(split.threshold, k))
        for p in (2, inf):
            traversed.clear()
            verdict = robust_ensemble(ensemble, p, k, x, 1)
            assert len(traversed) <= features
            assert verdict == _all_trees_verdict(ensemble, p, k, x, 1)
            total += len(traversed)
        traversed.clear()
        robust_ensemble(ensemble, inf, k, [rng.choice(points) for points in far_points], 1)
        assert traversed == []
    assert total > 0


# Thresholds, instances and budgets on a quarter grid in one binade: x -+ w
# then rounds by far less than the window's slack, so a grid threshold lies
# in a window exactly when it is within k of x.
quarter_grid = st.integers(256, 511).map(lambda n: n / 4.0)
chain_splits = st.lists(st.tuples(st.integers(0, 3), quarter_grid), min_size=1, max_size=4)


@settings(max_examples=300)
@given(
    chains=st.lists(chain_splits, min_size=1, max_size=5),
    x=st.tuples(*[quarter_grid] * 4),
    k=st.integers(0, 12).map(lambda n: n / 4.0),
)
def test_large_spread_leaves_at_most_one_live_tree_per_feature(chains, x, k):
    if len(chains) % 2 == 0:
        chains = chains[:-1]
    trees = []
    for i, chain in enumerate(chains):
        node = Leaf(1 if i % 2 else -1)
        for f, v in chain:
            node = Split(f, v, Leaf(-1 if i % 2 else 1), node)
        trees.append(DecisionTree(node))
    ensemble = Ensemble(tuple(trees), 4)
    w = k * _PRUNE_SLACK
    if not ensemble._min_gap > 2.0 * w:
        return
    live = set()
    for f in range(4):
        near = {
            i
            for i, tree in enumerate(ensemble.trees)
            for s in iter_splits(tree)
            if s.feature == f and abs(s.threshold - x[f]) <= k
        }
        assert len(near) <= 1
        live |= near
    assert _live_trees(ensemble, x, w) == live


def _in_window(ensemble, x, w):
    # The definition the index implements: a threshold v on feature f with
    # v >= x[f] - w and v <= x[f] + w, as the same float predicates.
    return {
        i
        for i, tree in enumerate(ensemble.trees)
        for s in iter_splits(tree)
        if s.threshold >= x[s.feature] - w and s.threshold <= x[s.feature] + w
    }


def test_live_window_matches_its_definition():
    rng = random.Random(26)
    live_counts = []
    for _ in range(200):
        # Grid thresholds, shared between trees so equal thresholds of
        # different trees are common, and a few arbitrary floats.
        grid = [rng.randrange(-40, 40) / 4.0 for _ in range(5)]
        grid += [rng.uniform(-10.0, 10.0) for _ in range(2)]
        trees = []
        for _ in range(rng.choice((1, 3, 5, 7))):
            node = Leaf(1)
            for _ in range(rng.randrange(4)):
                node = Split(rng.randrange(3), rng.choice(grid), Leaf(-1), node)
            trees.append(DecisionTree(node))
        ensemble = Ensemble(tuple(trees), 3)
        for w in (0.0, 0.25, 1.0, 1.0 * _PRUNE_SLACK, rng.uniform(0.0, 3.0)):
            values = [rng.uniform(-12.0, 12.0), -100.0, 100.0]  # and past both ends
            for v in grid:
                for edge in (v - w, v + w):  # x[f] -+ w on a threshold ...
                    values += [edge, nextafter(edge, -inf), nextafter(edge, inf)]  # ... and an ulp off
            for _ in range(6):
                x = tuple(rng.choice(values) for _ in range(3))
                live = _live_trees(ensemble, x, w)
                assert live == _in_window(ensemble, x, w)
                live_counts.append(len(live))
    # Both empty and non-empty windows are common.
    assert 0.2 < sum(map(bool, live_counts)) / len(live_counts) < 0.8


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


def test_models_and_verdicts_pickle_and_deepcopy():
    # Slotted dataclasses keep no __dict__; both copies must still restore
    # every field, the private ones included.
    tree = DecisionTree(Split(0, 0.5, Split(1, 2.0, Leaf(-1), Leaf(1)), Leaf(1)))
    ensemble = Ensemble(
        (
            tree,
            DecisionTree(Split(1, 9.0, Leaf(1), Leaf(-1))),
            DecisionTree(Split(0, 3.0, Leaf(1), Leaf(-1))),
        ),
        2,
    )
    x = (2.5, 8.5)
    verdict = robust_ensemble(ensemble, 2, 0.75, x, 1)
    assert not verdict.stable
    copies = [copy.deepcopy((ensemble, verdict))]
    copies += [
        pickle.loads(pickle.dumps((ensemble, verdict), protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for ensemble_copy, verdict_copy in copies:
        assert ensemble_copy == ensemble and ensemble_copy.trees[0].root == tree.root
        assert repr(ensemble_copy) == repr(ensemble)
        assert ensemble_copy._index == ensemble._index
        assert ensemble_copy._min_gap == ensemble._min_gap
        assert repr(verdict_copy) == repr(verdict)
        assert robust_ensemble(ensemble_copy, 2, 0.75, x, 1) == verdict
