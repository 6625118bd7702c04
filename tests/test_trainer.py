import hashlib
import itertools
import math
import random
from bisect import bisect_right
from math import inf

import numpy as np
import pytest

from spreadverify import (
    Dataset,
    DecisionTree,
    Ensemble,
    Leaf,
    Split,
    TrainConfig,
    fix_forest,
    get_best_tree,
    is_large_spread,
    iter_splits,
    predict_ensemble,
    spread,
    train_large_spread,
    train_random_forest,
)
from spreadverify.cli import (
    accuracy,
    bundled_dataset_path,
    canonical_model_json,
    load_csv,
    stratified_split,
)
from spreadverify.synth import two_blob_dataset
from spreadverify import trainer
from spreadverify.trainer import _fix_in_place


def _stump(feature, threshold):
    return DecisionTree(Split(feature, threshold, Leaf(1), Leaf(-1)))


class _FixedRandom:
    """Stub RNG: random() returns preset values in order."""

    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0) if self._values else 0.5


# ---------------------------------------------------------------------------
# Dataset / TrainConfig validation
# ---------------------------------------------------------------------------


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([1, 0]))
    with pytest.raises(ValueError):
        Dataset(np.array([[math.nan, 0.0]]), np.array([1]))
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([1]))


def test_config_validation():
    good = dict(num_trees=3, max_depth=2, p=inf, k=0.1)
    TrainConfig(**good)
    with pytest.raises(ValueError):
        TrainConfig(**{**good, "num_trees": 4})
    with pytest.raises(ValueError):
        TrainConfig(**{**good, "k": 0.0})
    with pytest.raises(ValueError):
        TrainConfig(**{**good, "p": 0})
    with pytest.raises(ValueError):
        TrainConfig(**{**good, "max_iter": 0})


# ---------------------------------------------------------------------------
# plain forest training
# ---------------------------------------------------------------------------


def test_single_stump_separates_linear_data():
    data = Dataset(
        np.array([[0.0, 5.0], [1.0, 7.0], [2.0, 6.0], [10.0, 5.5], [11.0, 6.5], [12.0, 5.2]]),
        np.array([-1, -1, -1, 1, 1, 1]),
    )
    model = train_random_forest(data, 1, 1, seed=5)
    assert accuracy(model, data) == 1.0
    assert model.node_count in (1, 3)


def test_constant_features_give_leaf_trees():
    # one distinct value per feature: no valid split exists anywhere
    data = Dataset(np.ones((9, 3)), np.array([1] * 7 + [-1] * 2))
    model = train_random_forest(data, 3, 4, seed=0)
    assert all(isinstance(t.root, Leaf) for t in model.trees)
    assert all(t.root.label == 1 for t in model.trees)  # bootstrap majorities


def test_forest_training_is_deterministic():
    data = two_blob_dataset(3, 120, 6)
    a = train_random_forest(data, 5, 3, seed=99)
    b = train_random_forest(data, 5, 3, seed=99)
    assert canonical_model_json(a) == canonical_model_json(b)
    c = train_random_forest(data, 5, 3, seed=100)
    assert canonical_model_json(a) != canonical_model_json(c)


def test_forest_rejects_degenerate_data():
    with pytest.raises(ValueError):
        train_random_forest(Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int)), 1, 1, 0)
    with pytest.raises(ValueError):
        train_random_forest(Dataset(np.zeros((3, 2)), np.array([1, 1, 1])), 1, 1, 0)


def test_even_tree_count_is_a_structural_error(monkeypatch):
    # The count is refused before any tree is grown.
    def grow(*args):
        raise AssertionError("a tree was grown")

    monkeypatch.setattr(trainer, "_train_forest", grow)
    data = two_blob_dataset(4, 60, 4)
    for num_trees in (0, 2, 200):
        with pytest.raises(ValueError, match="num_trees must be odd and >= 1"):
            train_random_forest(data, num_trees, 2, seed=1)


def _per_candidate_split(X, y, candidates):
    """Reference split search: one stable sort and one gini sweep per candidate."""
    n = len(y)
    best_score = math.inf
    best = None
    for f in candidates:
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        v = col[order]
        pos = np.cumsum(y[order] == 1)
        cut = np.nonzero(v[:-1] < v[1:])[0]  # split after index i
        if cut.size == 0:
            continue
        left_n = cut + 1
        right_n = n - left_n
        left_pos = pos[cut]
        right_pos = pos[-1] - left_pos
        gini_left = 1.0 - (left_pos / left_n) ** 2 - ((left_n - left_pos) / left_n) ** 2
        gini_right = (
            1.0 - (right_pos / right_n) ** 2 - ((right_n - right_pos) / right_n) ** 2
        )
        weighted = (left_n * gini_left + right_n * gini_right) / n
        j = int(np.argmin(weighted))
        if weighted[j] < best_score:
            i = int(cut[j])
            threshold = float((v[i] + v[i + 1]) / 2.0)
            if threshold >= v[i + 1]:  # midpoint rounded up between adjacent floats
                threshold = float(v[i])
            best_score = float(weighted[j])
            best = (int(f), threshold)
    return best


def _exact(found):
    # repr tells -0.0 from 0.0, which == does not
    return None if found is None else (found[0], repr(found[1]))


def test_batched_split_search_matches_a_per_candidate_search():
    # A coarse grid makes ties common and zeros come with either sign.  The
    # two floats just above 1.0 are adjacent, and their midpoint rounds up.
    above = np.nextafter(1.0, 2.0)
    grid = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, float(above), float(np.nextafter(above, 2.0))]
    cases = np.random.default_rng(2024)
    found = {True: 0, False: 0}
    for _ in range(2000):
        n = int(cases.integers(2, 61))
        d = int(cases.integers(1, 9))
        X = cases.choice(grid, size=(n, d))
        for f in range(d):
            kind = cases.integers(4)
            if kind == 0:  # constant column
                X[:, f] = X[0, f]
            elif kind == 1:  # fine grid: few ties
                X[:, f] = cases.integers(0, 1000, size=n) / 64.0
        y = cases.choice([-1, 1], size=n)
        candidates = [int(f) for f in cases.permutation(d)[: cases.integers(1, min(d, 6) + 1)]]
        expected = _exact(_per_candidate_split(X, y, candidates))
        assert _exact(trainer._best_split(X, y, candidates)) == expected
        rows = cases.permutation(n)
        assert _exact(trainer._best_split(X[rows], y[rows], candidates)) == expected
        found[expected is not None] += 1
    assert min(found.values()) >= 100


# ---------------------------------------------------------------------------
# candidate selection
# ---------------------------------------------------------------------------


def test_get_best_tree_prefers_fewer_overlapping_features():
    committed = [_stump(0, 10.0)]
    same_feature = _stump(0, 10.5)
    other_feature = _stump(1, 10.5)
    best = get_best_tree([same_feature, other_feature], committed, inf, 1.0)
    assert best is other_feature


def test_get_best_tree_zero_overlap_candidate():
    committed = [_stump(0, 10.0), _stump(1, 3.0)]
    fresh = _stump(2, 10.0)
    close = _stump(0, 10.1)
    assert get_best_tree([close, fresh], committed, 2, 0.5) is fresh


def test_get_best_tree_tie_breaks_to_pool_order():
    committed = [_stump(0, 10.0)]
    first = _stump(0, 10.2)
    second = _stump(0, 10.3)
    assert get_best_tree([first, second], committed, inf, 1.0) is first
    assert get_best_tree([second, first], committed, inf, 1.0) is second


# ---------------------------------------------------------------------------
# threshold repair
# ---------------------------------------------------------------------------


def test_fix_moves_conflicting_pair_apart():
    splits = [(0, 10.0, 0), (0, 11.0, 1)]  # (feature, threshold, tree)
    assert _fix_in_place(splits, k=1.0, max_iter=5, rng=_FixedRandom([0.5]))
    assert splits == [(0, 8.5, 0), (0, 12.5, 1)]


def test_fix_forest_already_large_spread_is_unchanged():
    ensemble = Ensemble((_stump(0, 0.0), _stump(0, 10.0), _stump(1, 0.0)), 2)
    fixed = fix_forest(ensemble, inf, 1.0, max_iter=3, seed=12)
    assert fixed == ensemble


def test_fix_forest_equal_thresholds_single_sweep():
    # offsets are drawn from (k, 2k], so one sweep leaves a gap of 2*offset > 2k
    ensemble = Ensemble((_stump(0, 10.0), _stump(0, 10.0), _stump(1, 0.0)), 2)
    for seed in range(10):
        fixed = fix_forest(ensemble, inf, 1.0, max_iter=1, seed=seed)
        assert fixed is not None
        assert is_large_spread(fixed, inf, 1.0)


def test_fix_forest_preserves_everything_but_thresholds():
    rng = random.Random(8)
    from spreadverify.synth import random_tree

    trees = tuple(random_tree(rng, 3, 3, lo=0.0, hi=1.0) for _ in range(3))
    ensemble = Ensemble(trees, 3)
    fixed = fix_forest(ensemble, 2, 0.4, max_iter=50, seed=21)
    if fixed is None:
        pytest.skip("repair failed for this seed; covered elsewhere")
    for before, after in zip(ensemble.trees, fixed.trees):
        sb = list(iter_splits(before))
        sa = list(iter_splits(after))
        assert [s.feature for s in sb] == [s.feature for s in sa]
        assert before.node_count == after.node_count

        def leaves(node):
            if isinstance(node, Leaf):
                return [node.label]
            return leaves(node.left) + leaves(node.right)

        assert leaves(before.root) == leaves(after.root)


def test_fix_forest_failure_is_a_value():
    trees = tuple(_stump(0, 10.0) for _ in range(5))
    ensemble = Ensemble(trees, 1)
    assert fix_forest(ensemble, inf, 50.0, max_iter=1, seed=0) is None


def _brute_force_gap(splits):
    """Smallest |a - b| over same-feature thresholds of distinct trees."""
    return min(
        (
            abs(a - b)
            for (f, a, s), (g, b, t) in itertools.combinations(splits, 2)
            if f == g and s != t
        ),
        default=inf,
    )


def _full_sweep_fix(splits, k, max_iter, rng):
    """Reference repair: every same-feature pair is compared on every sweep.

    Returns (the spread condition holds, the number of sweeps that drew).
    """
    thresholds = [threshold for _, threshold, _ in splits]
    owners = [tree for _, _, tree in splits]
    by_feature: dict[int, list[int]] = {}
    for i, (feature, _, _) in enumerate(splits):
        by_feature.setdefault(feature, []).append(i)
    gap = 2.0 * k
    repaired = True
    drew = 0
    for _ in range(max_iter):
        repaired = False
        for i, (feature, _, tree) in enumerate(splits):
            peers = by_feature[feature]
            for j in peers[bisect_right(peers, i):]:
                if owners[j] == tree:
                    continue
                v, w = thresholds[i], thresholds[j]
                if abs(v - w) <= gap:
                    repaired = True
                    offset = k + k * (1.0 - rng.random())  # uniform in (k, 2k]
                    if v <= w:
                        thresholds[i] = v - offset
                        thresholds[j] = w + offset
                    else:
                        thresholds[i] = v + offset
                        thresholds[j] = w - offset
        if not repaired:
            break
        drew += 1
    splits[:] = [(f, v, t) for (f, _, t), v in zip(splits, thresholds)]
    return not repaired or _brute_force_gap(splits) > gap, drew


def test_fix_in_place_matches_a_full_sweep_draw_for_draw():
    # Thresholds on a half-unit grid over few features give same-tree pairs,
    # equal thresholds and crowded features whose repair runs out of sweeps.
    cases = random.Random(2024)
    outcomes = {True: 0, False: 0}
    single_sweep = 0
    # Outcomes that only the pass after the last allowed sweep decides.
    on_last_sweep = {True: 0, False: 0}
    for seed in range(400):
        splits = [
            (cases.randrange(4), cases.randrange(12) * 0.5, tree)
            for tree in range(cases.randint(1, 6))
            for _ in range(cases.randint(1, 6))
        ]
        k = cases.choice((0.05, 0.2, 0.5, 1.0, 3.0))
        max_iter = cases.choice((1, 1, 2, 3, 8, 100))
        fast, reference = list(splits), list(splits)
        fast_rng, reference_rng = random.Random(seed), random.Random(seed)
        ok = _fix_in_place(fast, k, max_iter, fast_rng)
        reference_ok, drew = _full_sweep_fix(reference, k, max_iter, reference_rng)
        assert ok == reference_ok
        # The flag is the spread condition itself, with no rescan behind it.
        assert ok == (_brute_force_gap(fast) > 2.0 * k)
        assert fast == reference
        assert fast_rng.getstate() == reference_rng.getstate()
        outcomes[ok] += 1
        single_sweep += max_iter == 1
        on_last_sweep[ok] += drew == max_iter
    assert min(outcomes.values()) >= 40 and single_sweep >= 40
    assert min(on_last_sweep.values()) >= 40, on_last_sweep


def test_fix_forest_on_a_5000_level_chain():
    # Split i of the chain sends x0 <= i to a -1 leaf; only its split at
    # 2500 is within 2k of the second tree's 2500.05.
    chain = Leaf(1)
    for level in reversed(range(5000)):
        chain = Split(0, float(level), Leaf(-1), chain)
    ensemble = Ensemble((DecisionTree(chain), _stump(0, 2500.05), _stump(1, 0.0)), 2)
    fixed = fix_forest(ensemble, inf, 0.1, max_iter=5, seed=3)
    assert fixed is not None and is_large_spread(fixed, inf, 0.1)
    for before, after, expected in zip(ensemble.trees, fixed.trees, ([2500], [0], [])):
        assert after.node_count == before.node_count
        sb, sa = list(iter_splits(before)), list(iter_splits(after))
        assert [s.feature for s in sa] == [s.feature for s in sb]
        moved = [i for i, (b, a) in enumerate(zip(sb, sa)) if a.threshold != b.threshold]
        assert moved == expected


# ---------------------------------------------------------------------------
# large-spread training
# ---------------------------------------------------------------------------


def test_train_single_tree_is_vacuously_large_spread():
    data = two_blob_dataset(11, 80, 4)
    cfg = TrainConfig(num_trees=1, max_depth=2, p=1, k=0.5, seed=2)
    model = train_large_spread(data, cfg)
    assert model is not None and model.num_trees == 1
    assert spread(model, 1) == inf


def test_train_synthetic_success_is_large_spread():
    data = two_blob_dataset(21, 200, 6)
    cfg = TrainConfig(num_trees=3, max_depth=2, p=inf, k=0.05, max_iter=50, seed=4)
    model = train_large_spread(data, cfg)
    assert model is not None
    assert is_large_spread(model, inf, 0.05)
    assert accuracy(model, data) >= 0.9


def test_train_failure_returns_none_not_a_bad_model(monkeypatch):
    # Feature 0 takes two values (every tree learns the same midpoint split),
    # feature 1 is constant; a huge budget and a single sweep make the
    # overlaps unfixable.
    n = 40
    X = np.zeros((n, 2))
    X[n // 2 :, 0] = 1.0
    y = np.array([-1] * (n // 2) + [1] * (n // 2))
    data = Dataset(X, y)
    cfg = TrainConfig(num_trees=5, max_depth=2, p=inf, k=100.0, max_iter=1, seed=0)
    calls = []

    def spy(*args):
        calls.append(args)
        return _fix_in_place(*args)

    monkeypatch.setattr(trainer, "_fix_in_place", spy)
    assert train_large_spread(data, cfg) is None
    # Of the 9 candidates, two are repaired and the rest fail.  Training
    # stops once 3 selected + 1 left in the pool can no longer make 5 trees,
    # without trying that last candidate.
    assert len(calls) == 8


def test_training_builds_only_the_splits_it_returns(monkeypatch):
    # The pool is grown and repaired as preorders: a Split object is made
    # only for a split of a returned tree, once.
    built = 0
    post_init = Split.__post_init__

    def counting(self):
        nonlocal built
        built += 1
        post_init(self)

    monkeypatch.setattr(Split, "__post_init__", counting)
    data = two_blob_dataset(5, 150, 8)
    cfg = TrainConfig(num_trees=5, max_depth=3, p=inf, k=0.05, max_iter=50, seed=33)
    model = train_large_spread(data, cfg)
    assert model is not None and model.node_count > model.num_trees
    assert built == (model.node_count - model.num_trees) // 2


def test_train_determinism_is_byte_exact():
    data = two_blob_dataset(5, 150, 8)
    cfg = TrainConfig(num_trees=5, max_depth=3, p=inf, k=0.05, max_iter=50, seed=33)
    a = train_large_spread(data, cfg)
    b = train_large_spread(data, cfg)
    assert a is not None
    assert canonical_model_json(a) == canonical_model_json(b)


# SHA-256 of canonical_model_json for models trained on the seed-11 70/30
# split of the bundled data.  Unlike the determinism test above, these pin
# the models across code changes: any change to the random draws, the order
# repair visits pairs in or its arithmetic shows up here.
_GOLDEN = {
    ("plain", 5, 3, inf, 0.01, 0): "4e354cfd32069bbf8e92040da8fb6b8d5ef684f2865d97d448ec82e0e602585b",
    ("plain", 5, 3, inf, 0.01, 1): "4c280d76aecfef3da0ec2f4a14d2cec18fbf07056679774eba7417320817588b",
    ("plain", 25, 4, inf, 0.01, 0): "44e98bcedc1007f77fdbfd16cb3f2e443b7a7e98fc8f787f0a673c2207af7019",
    ("plain", 25, 4, inf, 0.01, 1): "ad2af0709b115e451b5b3479ba720861d65630544a1bbc099f4f86af759cf4b3",
    ("plain", 11, 4, 2, 0.02, 0): "4b32b3b925d56fd3cdcf29ca73896d262b7e395169c773b83138149b862875cc",
    ("plain", 11, 4, 2, 0.02, 1): "57be670af96ba7f073ac69ac07c250bb26841134643cf1c4633f9fcdd8751c0c",
    ("hierarchical", 9, 3, inf, 0.01, 0): "0f7156bf4c5160c54257495403049e92532010497987151f9adc3855c90e9355",
    ("fix_forest", 25, 5, inf, 0.005, 0): "d2ae9bb6bd7ed71229578fa876620cb4ea3add9c3df443896ffe509a01ef1a8c",
    # max_iter=20: 3 of its 27 candidates fail repair and are discarded.
    ("discard", 25, 4, inf, 0.05, 0): "9324074a4fbf6a8dbf58b1eb30d26097f09ea2ad1fb68896c2560f000723ff4b",
}


@pytest.fixture(scope="module")
def bundled_train():
    return stratified_split(load_csv(bundled_dataset_path()), 0.7, seed=11)[0]


@pytest.mark.parametrize("key", list(_GOLDEN), ids=lambda key: "-".join(map(str, key)))
def test_trained_models_match_golden_digests(bundled_train, key):
    kind, m, depth, p, k, seed = key
    if kind == "plain":
        model = train_large_spread(bundled_train, TrainConfig(m, depth, p, k, seed=seed))
    elif kind == "discard":
        model = train_large_spread(bundled_train, TrainConfig(m, depth, p, k, 20, seed=seed))
    elif kind == "hierarchical":
        config = TrainConfig(m, depth, p, k, partitions=3, seed=seed)
        model = train_large_spread(bundled_train, config)
    else:
        forest = train_random_forest(bundled_train, m, depth, seed=seed)
        model = fix_forest(forest, p, k, max_iter=100, seed=seed)
    assert model is not None
    digest = hashlib.sha256(canonical_model_json(model).encode()).hexdigest()
    assert digest == _GOLDEN[key]


def test_golden_discard_config_discards_candidates(bundled_train, monkeypatch):
    results = []

    def spy(*args):
        results.append(_fix_in_place(*args))
        return results[-1]

    monkeypatch.setattr(trainer, "_fix_in_place", spy)
    assert train_large_spread(bundled_train, TrainConfig(25, 4, inf, 0.05, 20, seed=0)) is not None
    assert len(results) == 27 and results.count(False) == 3


def test_training_depends_on_k_alone(bundled_train):
    # The spread condition compares same-feature thresholds, so it reads
    # the same for every p >= 1, and so does every model built for it.
    forest = train_random_forest(bundled_train, 5, 3, seed=0)
    outputs = set()
    for p in (1, 2, inf):
        model = train_large_spread(bundled_train, TrainConfig(5, 3, p, 0.01, seed=0))
        repaired = fix_forest(forest, p, 0.01, max_iter=100, seed=0)
        pick = get_best_tree(forest.trees[1:], forest.trees[:1], p, 0.01)
        outputs.add((canonical_model_json(model), canonical_model_json(repaired), pick))
    assert len(outputs) == 1


# ---------------------------------------------------------------------------
# partitioned training
# ---------------------------------------------------------------------------


def test_partitioned_two_partitions_merge_is_large_spread():
    data = two_blob_dataset(13, 200, 8)
    cfg = TrainConfig(num_trees=5, max_depth=3, p=inf, k=0.05, max_iter=50, partitions=2, seed=9)
    merged = train_large_spread(data, cfg)
    assert merged is not None
    assert is_large_spread(merged, inf, 0.05)
    # partitions use disjoint features: round-robin residues never mix
    sizes = [3, 2]
    offset = 0
    for g, size in enumerate(sizes):
        for tree in merged.trees[offset : offset + size]:
            assert all(s.feature % 2 == g for s in iter_splits(tree))
        offset += size


def test_partitioned_per_feature_partitions():
    data = two_blob_dataset(17, 200, 5, informative=5)
    cfg = TrainConfig(num_trees=5, max_depth=2, p=inf, k=0.05, max_iter=50, partitions=5, seed=3)
    merged = train_large_spread(data, cfg)
    assert merged is not None
    assert is_large_spread(merged, inf, 0.05)
    for g, tree in enumerate(merged.trees):
        assert all(s.feature == g for s in iter_splits(tree))


def test_partitioned_validates_partition_count():
    data = two_blob_dataset(8, 60, 3)
    with pytest.raises(ValueError):
        train_large_spread(
            data, TrainConfig(num_trees=3, max_depth=2, p=inf, k=0.1, partitions=4)
        )


def test_trained_model_actually_predicts():
    data = two_blob_dataset(23, 240, 6)
    cfg = TrainConfig(num_trees=5, max_depth=3, p=inf, k=0.05, max_iter=50, seed=15)
    model = train_large_spread(data, cfg)
    assert model is not None
    hits = sum(1 for x, y in data.rows() if predict_ensemble(model, x) == y)
    assert hits / len(data) >= 0.9
