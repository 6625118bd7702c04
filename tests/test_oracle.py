import math
import random
from math import inf, nextafter

import pytest

from spreadverify import (
    CapacityError,
    DecisionTree,
    Ensemble,
    Leaf,
    Split,
    exact_robust,
    exists_large_spread_subset,
    leaf_regions,
    minimal_attack,
    minimal_joint_attack,
    oplus,
    predict_ensemble,
    predict_tree,
    reachable,
    spread,
    split_attack,
)
from spreadverify.oracle import DEFAULT_TUPLE_LIMIT
from spreadverify.synth import random_instance, random_tree


def _compose(x, z, support):
    """x with the components in ``support`` replaced by z's (exact selection)."""
    return tuple(z[i] if i in support else x[i] for i in range(len(x)))


def _pair_case(rng, require_joint=False):
    """Random tree pair, instance and label with both trees attackable and the
    pair spread strictly beyond twice the larger per-tree attack norm."""
    while True:
        d = rng.randint(2, 5)
        p = rng.choice((1, 2, inf))
        ta = random_tree(rng, d, rng.randint(1, 3))
        tb = random_tree(rng, d, rng.randint(1, 3))
        psi = spread([ta, tb], p)
        if psi == 0.0:
            continue
        x = random_instance(rng, d)
        y = rng.choice((-1, 1))
        wa = minimal_attack(Ensemble((ta,), d), p, x, y)
        wb = minimal_attack(Ensemble((tb,), d), p, x, y)
        if wa is None or wb is None:
            continue
        k = max(wa.norm_value, wb.norm_value)
        if not psi > 2.0 * k:
            continue
        if require_joint:
            wj = minimal_joint_attack([ta, tb], p, x, y)
            if wj is None or not psi > 2.0 * wj.norm_value:
                continue
            return ta, tb, p, x, y, wa, wb, wj
        return ta, tb, p, x, y, wa, wb, None


# ---------------------------------------------------------------------------
# exact_robust / minimal_attack
# ---------------------------------------------------------------------------


def test_exact_robust_on_close_stump_trio(stump_trio_ensemble):
    robust, witness = exact_robust(stump_trio_ensemble, 1, 2.0, (11.0,), 1)
    assert robust and witness is None


def test_exact_robust_embedded_far_pair(stump_trio):
    _, t2, t3 = stump_trio
    ensemble = Ensemble((t2, t3, DecisionTree(Leaf(1))), 1)
    assert exact_robust(ensemble, 1, 2.0, (14.0,), 1)[0]
    # only the closer tree is individually attackable at x=14
    assert reachable(t2, 1, 2.0, (14.0,), 1) == frozenset({0.0})
    assert reachable(t3, 1, 2.0, (14.0,), 1) == frozenset()


def test_exact_robust_singleton_witness(stump_trio):
    t1, _, _ = stump_trio
    robust, witness = exact_robust(Ensemble((t1,), 1), 1, 2.0, (11.0,), 1)
    assert not robust
    assert witness.z == (10.0,)
    assert witness.norm_value == 1.0
    # grid search over perturbed values agrees on the minimum
    best = min(
        (abs(z - 11.0) for z in (9.0 + i / 1000.0 for i in range(4001))
         if predict_tree(t1, (z,)) == -1),
    )
    assert witness.norm_value == pytest.approx(best, abs=1e-9)


def test_exact_robust_misprediction_yields_zero_witness(stump_trio_ensemble):
    robust, witness = exact_robust(stump_trio_ensemble, 1, 2.0, (11.0,), -1)
    assert not robust
    assert witness.z == (11.0,) and witness.norm_value == 0.0


def test_exact_robust_antitone_in_budget():
    rng = random.Random(555)
    from spreadverify.synth import random_large_spread_case

    for _ in range(100):
        ensemble, p, k = random_large_spread_case(rng)
        x = random_instance(rng, ensemble.dimensionality)
        y = rng.choice((-1, 1))
        robust, _ = exact_robust(ensemble, p, k, x, y)
        if not robust:
            assert not exact_robust(ensemble, p, k * rng.uniform(1.1, 3.0), x, y)[0]


def test_minimal_attack_singleton(stump_trio):
    t1, _, _ = stump_trio
    witness = minimal_attack(Ensemble((t1,), 1), 1, (11.0,), 1)
    assert witness.norm_value == 1.0 and witness.z == (10.0,)


def test_the_first_cheapest_leaf_tuple_wins_a_tie():
    # Both wrong leaves cost 1.0; the first in leaf order (x0 <= 0) is kept.
    tree = DecisionTree(Split(0, 0.0, Leaf(-1), Split(1, 0.0, Leaf(-1), Leaf(1))))
    for p in (1, 2, inf):
        assert minimal_attack(Ensemble((tree,), 2), p, (1.0, 1.0), 1).z == (0.0, 1.0)


def test_minimal_attack_constant_ensemble():
    ensemble = Ensemble(tuple(DecisionTree(Leaf(1)) for _ in range(3)), 2)
    assert minimal_attack(ensemble, 2, (0.0, 0.0), 1) is None


def test_leaf_tuple_search_takes_any_number_of_trees():
    # One leaf tuple, but a search 2,001 trees deep: deeper than the
    # interpreter's recursion limit.
    trees = tuple(DecisionTree(Leaf(1)) for _ in range(2001))
    assert exact_robust(Ensemble(trees, 1), 2, 1.0, (0.0,), 1) == (True, None)
    witness = minimal_joint_attack(trees, 2, (0.0,), -1)
    assert witness.z == (0.0,) and witness.norm_value == 0.0


def test_minimal_attack_two_feature_stumps(two_feature_stumps):
    witness = minimal_attack(two_feature_stumps, 1, (9.0, 9.0), 1)
    step = nextafter(10.0, inf) - 9.0
    assert witness.norm_value == math.fsum((step, step))
    assert predict_ensemble(two_feature_stumps, witness.z) == -1


def test_minimal_attack_witness_is_tight():
    rng = random.Random(808)
    from spreadverify.synth import random_large_spread_case

    for _ in range(60):
        ensemble, p, _ = random_large_spread_case(rng)
        x = random_instance(rng, ensemble.dimensionality)
        y = rng.choice((-1, 1))
        witness = minimal_attack(ensemble, p, x, y)
        if witness is None:
            assert exact_robust(ensemble, p, 1e9, x, y)[0]
            continue
        assert predict_ensemble(ensemble, witness.z) != y
        assert not exact_robust(ensemble, p, witness.norm_value, x, y)[0]
        if witness.norm_value > 0:
            below = witness.norm_value * (1 - 1e-9) - 1e-12
            assert exact_robust(ensemble, p, max(below, 0.0), x, y)[0]


def _right_chain(thresholds):
    """Chain of splits on feature 0, each the right child of the one before,
    with ``thresholds`` listed from the root down.  Increasing thresholds
    make all ``len(thresholds) + 1`` leaves reachable."""
    node = Leaf(1)
    for i, v in enumerate(reversed(thresholds)):
        node = Split(0, v, Leaf(-1 if i % 2 else 1), node)
    return DecisionTree(node)


def test_capacity_bound_is_enforced():
    # 128 satisfiable leaves per tree: 128**3 = 2,097,152 leaf tuples.
    trees = tuple(_right_chain([j + 0.25 * i for i in range(127)]) for j in range(3))
    assert all(len(leaf_regions(t)) == 128 for t in trees)
    assert 128**3 > DEFAULT_TUPLE_LIMIT
    ensemble = Ensemble(trees, 1)
    with pytest.raises(CapacityError):
        exact_robust(ensemble, 1, 1.0, (0.0,), 1)
    with pytest.raises(CapacityError):
        minimal_joint_attack(trees, 1, (0.0,), 1)


def test_witness_norm_not_below_single_tree_minimum(stump_trio):
    """Per-tree reachability at unlimited budget equals the unbudgeted
    minimal attack norm on the singleton ensemble."""
    rng = random.Random(99)
    for _ in range(300):
        d = rng.randint(1, 4)
        tree = random_tree(rng, d, rng.randint(1, 3))
        p = rng.choice((0, 1, 2, inf))
        x = random_instance(rng, d)
        y = rng.choice((-1, 1))
        witness = minimal_attack(Ensemble((tree,), d), p, x, y)
        costs = reachable(tree, p, inf, x, y)
        if witness is None:
            assert not costs
        else:
            assert min(costs) == witness.norm_value


# ---------------------------------------------------------------------------
# support disjointness, joint attacks, attack splitting
# ---------------------------------------------------------------------------


def test_minimal_witness_supports_are_disjoint():
    rng = random.Random(2718)
    for _ in range(150):
        ta, tb, p, x, y, wa, wb, _ = _pair_case(rng)
        sup_a = {i for i in range(len(x)) if wa.z[i] != x[i]}
        sup_b = {i for i in range(len(x)) if wb.z[i] != x[i]}
        assert not (sup_a & sup_b)


def test_joint_attack_norm_composes_from_tree_minima():
    rng = random.Random(31337)
    for _ in range(150):
        ta, tb, p, x, y, wa, wb, wj = _pair_case(rng, require_joint=True)
        expected = oplus([wa.norm_value, wb.norm_value], p)
        assert wj.norm_value == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_joint_attack_composition_over_larger_subsets():
    """For spread-apart ensembles, the minimum-norm perturbation defeating a
    whole tree subset combines the per-tree minima, whatever the subset size."""
    rng = random.Random(60221)
    from spreadverify.synth import random_large_spread_case

    checked = 0
    while checked < 60:
        ensemble, p, _ = random_large_spread_case(rng)
        d = ensemble.dimensionality
        x = random_instance(rng, d)
        y = rng.choice((-1, 1))
        size = rng.randint(2, min(4, len(ensemble.trees)))
        subset = rng.sample(list(ensemble.trees), size)
        minima = [minimal_attack(Ensemble((t,), d), p, x, y) for t in subset]
        if any(w is None for w in minima):
            continue
        joint = minimal_joint_attack(subset, p, x, y)
        if joint is None:
            continue
        psi = spread(subset, p)
        scale = max([joint.norm_value] + [w.norm_value for w in minima])
        if not psi > 2.0 * scale:
            continue
        expected = oplus([w.norm_value for w in minima], p)
        assert joint.norm_value == pytest.approx(expected, rel=1e-9, abs=1e-12)
        checked += 1


def test_split_attack_postconditions_on_random_pairs():
    rng = random.Random(161803)
    checked = 0
    while checked < 150:
        ta, tb, p, x, y, _, _, wj = _pair_case(rng, require_joint=True)
        z = wj.z
        delta, delta2 = split_attack(ta, tb, x, z)
        support = {i for i, v in enumerate(delta) if v != 0.0}
        support2 = {i for i, v in enumerate(delta2) if v != 0.0}
        assert not (support & support2)
        assert all(a + b == zi - xi for a, b, zi, xi in zip(delta, delta2, z, x))
        assert predict_tree(ta, _compose(x, z, support)) == predict_tree(ta, z) != y
        assert predict_tree(tb, _compose(x, z, support2)) == predict_tree(tb, z) != y
        checked += 1


def test_split_attack_disjoint_feature_trees():
    ta = DecisionTree(Split(0, 5.0, Leaf(1), Leaf(-1)))
    tb = DecisionTree(Split(1, 5.0, Leaf(1), Leaf(-1)))
    x, z = (4.0, 4.0), (6.0, 6.0)
    delta, delta2 = split_attack(ta, tb, x, z)
    assert delta == (2.0, 0.0)
    assert delta2 == (0.0, 2.0)


def test_split_attack_identity_when_unperturbed():
    ta = DecisionTree(Split(0, 5.0, Leaf(1), Leaf(-1)))
    tb = DecisionTree(Split(1, 5.0, Leaf(1), Leaf(-1)))
    x = (9.0, 9.0)
    delta, delta2 = split_attack(ta, tb, x, x)
    assert delta == (0.0, 0.0) and delta2 == (0.0, 0.0)


def test_split_attack_detects_violated_precondition():
    # thresholds 0.2 apart: one push crosses both, exactly the interaction
    # the spread precondition forbids; removing feature 0 from the second
    # half then changes the second tree's path, which must be reported
    ta = DecisionTree(Split(0, 5.0, Leaf(1), Leaf(-1)))
    tb = DecisionTree(Split(0, 5.2, Leaf(1), Leaf(-1)))
    x, z = (4.5,), (5.5,)
    assert predict_tree(ta, z) == predict_tree(tb, z) == -1
    with pytest.raises(ValueError):
        split_attack(ta, tb, x, z)


@pytest.mark.parametrize("bad", [math.nan, inf, -inf])
def test_oracle_rejects_non_finite_coordinates(two_feature_stumps, bad):
    x = (bad, 3.0)
    with pytest.raises(ValueError, match="finite"):
        exact_robust(two_feature_stumps, inf, 1.0, x, 1)
    with pytest.raises(ValueError, match="finite"):
        minimal_attack(two_feature_stumps, inf, x, 1)
    with pytest.raises(ValueError, match="finite"):
        minimal_joint_attack(two_feature_stumps, inf, x, 1)
    ta, tb = two_feature_stumps.trees[:2]
    with pytest.raises(ValueError, match="finite"):
        split_attack(ta, tb, x, (3.0, 3.0))
    with pytest.raises(ValueError, match="finite"):
        split_attack(ta, tb, (3.0, 3.0), x)


def test_joint_attack_checks_instance_width():
    tree = DecisionTree(Split(1, 0.5, Leaf(-1), Leaf(1)))
    with pytest.raises(ValueError, match="features"):
        minimal_joint_attack([tree], 2, (0.0,), 1)
    model = Ensemble((tree,), 2)
    with pytest.raises(ValueError, match="features"):
        exact_robust(model, 2, 1.0, (0.0,), 1)
    with pytest.raises(ValueError, match="features"):
        minimal_attack(model, 2, (0.0,), 1)
    assert minimal_joint_attack([tree], 2, (0.0, 0.0), -1).norm_value == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# large-spread subsets
# ---------------------------------------------------------------------------


def test_subset_singletons_always_exist(stump_trio_ensemble):
    assert exists_large_spread_subset(stump_trio_ensemble, 1, 1, 2.0)


def test_subset_search_on_stump_trio(stump_trio_ensemble):
    assert exists_large_spread_subset(stump_trio_ensemble, 2, 1, 2.0)
    assert not exists_large_spread_subset(stump_trio_ensemble, 3, 1, 2.0)


def test_subset_search_capacity():
    trees = [DecisionTree(Leaf(1))] * 21
    with pytest.raises(CapacityError):
        exists_large_spread_subset(trees, 2, 1, 1.0)


def test_leaf_regions_partition_behaviour(depth2_tree):
    regions = leaf_regions(depth2_tree)
    assert len(regions) == 4
    # every region is satisfiable and predicts like the tree on its interior
    for label, box in regions:
        probe = [0.0, 0.0]
        for f, (lo, hi) in box.items():
            assert lo < hi
            probe[f] = lo + 1.0 if hi == inf else hi
        assert predict_tree(depth2_tree, probe) == label
