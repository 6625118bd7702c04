"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Every expected value asserted here is either forced by hand-checkable
arithmetic on the fixture models or was computed by an independent oracle
(exhaustive enumeration, grid search, or direct norm recomputation) and then
frozen.  Tolerances are pinned in each test; randomized suites demand zero
disagreements between the fast verifier and the brute-force oracle.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import math
import random
import time
from math import inf, nextafter

import pytest

from spreadverify import (
    Ensemble,
    NotLargeSpreadError,
    TrainConfig,
    clique_exists,
    exact_robust,
    exists_large_spread_subset,
    graph_to_ensemble,
    is_large_spread,
    minimal_attack,
    minimal_joint_attack,
    norm,
    oplus,
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
from spreadverify.cli import (
    accuracy,
    bundled_dataset_path,
    canonical_model_json,
    load_csv,
    stratified_split,
)
from spreadverify.gadget import Graph
from spreadverify.synth import (
    knife_edge_instance,
    random_instance,
    random_large_spread_case,
    random_tree,
    scaling_ensemble,
    two_blob_dataset,
)


def _report(name, elapsed, limit, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: PASS in {elapsed:.2f}s (limit {limit:.0f}s){suffix}")
    assert elapsed < limit


def test_worked_example_exact(stump_trio, stump_trio_ensemble):
    """Three close/far stumps: every number checked exactly."""
    start = time.perf_counter()
    t1, t2, t3 = stump_trio
    x, y = (11.0,), 1

    assert not robust_tree(t1, 1, 2.0, x, y)
    assert not robust_tree(t2, 1, 2.0, x, y)
    assert robust_tree(t3, 1, 2.0, x, y)

    assert reachable(t1, 1, 2.0, x, y) == frozenset({1.0})
    assert reachable(t2, 1, 2.0, x, y) == frozenset({nextafter(12.0, inf) - 11.0})
    assert reachable(t3, 1, 2.0, x, y) == frozenset()

    robust, witness = exact_robust(stump_trio_ensemble, 1, 2.0, x, y)
    assert robust and witness is None

    assert spread(stump_trio_ensemble, 1) == 2.0
    assert not is_large_spread(stump_trio_ensemble, 1, 2.0)
    assert spread([t2, t3], 1) == 5.0
    assert is_large_spread([t2, t3], 1, 2.0)

    with pytest.raises(NotLargeSpreadError):
        robust_ensemble(stump_trio_ensemble, 1, 2.0, x, y)

    def attackable(tree, value):
        own = predict_tree(tree, (value,))
        return bool(reachable(tree, 1, 2.0, (value,), own))

    assert (attackable(t2, 14.0), attackable(t3, 14.0)) == (True, False)
    assert (attackable(t2, 15.0), attackable(t3, 15.0)) == (False, False)
    assert (attackable(t2, 16.0), attackable(t3, 16.0)) == (False, True)

    _report("worked example (exact)", time.perf_counter() - start, 1.0)


def test_ensemble_verifier_matches_oracle_everywhere():
    """>= 1000 random (large-spread ensemble, instance) pairs, p in {1,2,inf},
    random budgets, every third instance placed on or one ulp off a
    threshold: zero verdict disagreements, and whenever both sides report an
    attack the composed norm matches the oracle witness within 1e-9."""
    start = time.perf_counter()
    rng = random.Random(20_240_101)
    pairs = 0
    for _ in range(120):
        ensemble, p, k = random_large_spread_case(
            rng, tree_counts=(3, 5, 7), max_depth=3, max_d=5
        )
        for i in range(9):
            if i % 3 == 0:
                x = knife_edge_instance(rng, ensemble.trees, ensemble.dimensionality)
            else:
                x = random_instance(rng, ensemble.dimensionality)
            y = rng.choice((-1, 1))
            verdict = robust_ensemble(ensemble, p, k, x, y)
            robust, witness = exact_robust(ensemble, p, k, x, y)
            assert verdict.robust == robust, (ensemble, p, k, x, y)
            if not robust:
                assert witness.norm_value <= k
                assert predict_ensemble(ensemble, witness.z) != y
                if verdict.predicted == y and verdict.min_attack_norm is not None:
                    assert verdict.min_attack_norm == pytest.approx(
                        witness.norm_value, rel=1e-9, abs=1e-12
                    )
            pairs += 1
    assert pairs >= 1000
    _report(
        "ensemble verifier == oracle",
        time.perf_counter() - start,
        120.0,
        f"{pairs} pairs, 0 disagreements",
    )


def test_ensemble_verifier_matches_oracle_at_the_attack_norm():
    """Budgets at and around each case's cheapest attack norm n.

    Random budgets leave only a few percent of cases unstable, so the test
    above rarely compares attack norms.  Here 1,500 random large-spread
    cases, each labelled with its own prediction and every third instance on
    or one ulp off a threshold, are verified at k = n, one ulp below n,
    n * (1 + 1e-6) and n / 2, whenever 2k stays below the spread: zero
    verdict disagreements, and every attack norm matches the oracle witness
    within 1e-9."""
    start = time.perf_counter()
    rng = random.Random(123)
    checks = norm_checks = 0
    for case in range(1500):
        ensemble, p, _ = random_large_spread_case(rng)
        d = ensemble.dimensionality
        if case % 3 == 0:
            x = knife_edge_instance(rng, ensemble.trees, d)
        else:
            x = random_instance(rng, d)
        y = predict_ensemble(ensemble, x)
        cheapest = minimal_attack(ensemble, p, x, y)
        if cheapest is None:
            continue
        n, psi = cheapest.norm_value, spread(ensemble, p)
        for k in (n, nextafter(n, 0.0), n * (1 + 1e-6), n / 2):
            if not 2.0 * k < psi:
                continue
            verdict = robust_ensemble(ensemble, p, k, x, y)
            robust, witness = exact_robust(ensemble, p, k, x, y)
            assert verdict.robust == robust, (ensemble, p, k, x, y)
            checks += 1
            if not robust:
                assert verdict.min_attack_norm == pytest.approx(
                    witness.norm_value, rel=1e-9, abs=0.0
                ), (ensemble, p, k, x, y)
                norm_checks += 1
    assert norm_checks >= 200
    _report(
        "ensemble verifier == oracle at the attack norm",
        time.perf_counter() - start,
        120.0,
        f"{checks} checks, {norm_checks} norm comparisons, 0 disagreements",
    )


def test_single_tree_verifier_matches_oracle():
    """>= 500 singleton cases across p in {0,1,2,inf}: verdicts agree and the
    cheapest reachable wrong leaf equals the oracle's witness norm."""
    start = time.perf_counter()
    rng = random.Random(77_007)
    cases = 0
    for _ in range(600):
        d = rng.randint(1, 5)
        tree = random_tree(rng, d, rng.randint(1, 3))
        p = rng.choice((0, 1, 2, inf))
        k = float(rng.randint(0, 3)) if p == 0 else rng.uniform(0.0, 40.0)
        x = (
            knife_edge_instance(rng, [tree], d)
            if cases % 2
            else random_instance(rng, d)
        )
        y = rng.choice((-1, 1))
        singleton = Ensemble((tree,), d)
        robust, witness = exact_robust(singleton, p, k, x, y)
        assert robust_tree(tree, p, k, x, y) == robust
        costs = reachable(tree, p, k, x, y)
        if predict_tree(tree, x) == y:
            assert robust == (not costs)
        if not robust:
            assert min(costs) == witness.norm_value
        cases += 1
    assert cases >= 500
    _report(
        "single-tree verifier == oracle",
        time.perf_counter() - start,
        30.0,
        f"{cases} cases, 0 disagreements",
    )


def test_norm_composition_and_single_update_properties():
    """>= 10000 random support-disjoint families: combining norms of disjoint
    vectors and single-component O(1) updates both match direct
    recomputation within 1e-9 relative."""
    start = time.perf_counter()
    rng = random.Random(424_242)

    def draw_component():
        return 0.0 if rng.random() < 0.25 else rng.uniform(1.0, 20.0) * rng.choice((-1, 1))

    families = 0
    for _ in range(10_000):
        d = rng.randint(2, 16)
        q = rng.randint(2, min(5, d))
        features = list(range(d))
        rng.shuffle(features)
        bucket_edges = sorted(rng.sample(range(1, d), q - 1))
        buckets = []
        prev = 0
        for edge in bucket_edges + [d]:
            buckets.append(features[prev:edge])
            prev = edge
        vectors = []
        for bucket in buckets:
            vec = [0.0] * d
            for f in bucket:
                vec[f] = draw_component()
            vectors.append(vec)
        total = [math.fsum(col) for col in zip(*vectors)]

        p = rng.choice((0, 1, 2, inf))
        combined = oplus([norm(v, p) for v in vectors], p)
        direct = norm(total, p)
        assert combined == pytest.approx(direct, rel=1e-9, abs=1e-12)

        p2 = rng.choice((0, 1, 2, 3, inf))
        vec = [draw_component() for _ in range(d)]
        i = rng.randrange(d)
        replacement = draw_component()
        if replacement == 0.0 and all(v == 0.0 for j, v in enumerate(vec) if j != i):
            replacement = 5.0
        if p2 == inf and abs(replacement) < abs(vec[i]):
            replacement = math.copysign(abs(vec[i]) + abs(replacement), replacement or 1.0)
        updated = update_norm(p2, norm(vec, p2), vec[i], replacement)
        replaced = list(vec)
        replaced[i] = replacement
        assert updated == pytest.approx(norm(replaced, p2), rel=1e-9, abs=1e-12)
        families += 1
    assert families >= 10_000
    _report(
        "norm composition / O(1) update",
        time.perf_counter() - start,
        10.0,
        f"{families} families",
    )


def test_disjoint_supports_and_attack_splitting():
    """>= 300 spread-apart tree pairs with joint attacks: per-tree minimal
    witnesses never share features, and splitting a joint attack satisfies
    all four contract clauses.  Zero failures tolerated."""
    start = time.perf_counter()
    rng = random.Random(314_159)
    checked = 0
    while checked < 300:
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
        if not psi > 2.0 * max(wa.norm_value, wb.norm_value):
            continue
        sup_a = {i for i in range(d) if wa.z[i] != x[i]}
        sup_b = {i for i in range(d) if wb.z[i] != x[i]}
        assert not (sup_a & sup_b)

        joint = minimal_joint_attack([ta, tb], p, x, y)
        if joint is None or not psi > 2.0 * joint.norm_value:
            continue
        assert joint.norm_value == pytest.approx(
            oplus([wa.norm_value, wb.norm_value], p), rel=1e-9, abs=1e-12
        )
        z = joint.z
        delta, delta2 = split_attack(ta, tb, x, z)
        support = {i for i, v in enumerate(delta) if v != 0.0}
        support2 = {i for i, v in enumerate(delta2) if v != 0.0}
        assert not (support & support2)
        assert all(a + b == zi - xi for a, b, zi, xi in zip(delta, delta2, z, x))
        with_first = tuple(z[i] if i in support else x[i] for i in range(d))
        with_second = tuple(z[i] if i in support2 else x[i] for i in range(d))
        assert predict_tree(ta, with_first) == predict_tree(ta, z) != y
        assert predict_tree(tb, with_second) == predict_tree(tb, z) != y
        checked += 1
    _report(
        "disjoint supports / attack splitting",
        time.perf_counter() - start,
        60.0,
        f"{checked} pairs, 0 failures",
    )


def test_clique_reduction_agrees_with_subset_search():
    """>= 200 random graphs with <= 8 vertices, every subset size: a clique
    of size s exists iff the built tree set has a large-spread subset of
    size s under the zero-budget attacker."""
    start = time.perf_counter()
    rng = random.Random(888)
    graphs = 0
    for _ in range(200):
        n = rng.randint(1, 8)
        edges = frozenset(
            pair
            for pair in itertools.combinations(range(n), 2)
            if rng.random() < rng.choice((0.3, 0.5, 0.7))
        )
        graph = Graph(n, edges)
        trees, feature_map = graph_to_ensemble(graph)
        for v in range(n):
            missing = sum(1 for edge in feature_map if v in edge)
            assert trees[v].node_count == 2 * missing + 1
        for s in range(n + 1):
            assert clique_exists(graph, s) == exists_large_spread_subset(
                trees, s, 0, 0.0
            ), (graph, s)
        graphs += 1
    assert graphs >= 200
    _report(
        "clique <-> large-spread subset",
        time.perf_counter() - start,
        120.0,
        f"{graphs} graphs, 0 disagreements",
    )


def test_training_soundness_and_determinism():
    """>= 50 trainings over varied shapes (d <= 30, m <= 15): every
    non-failure result satisfies the spread condition (partitioned merges
    included), and fixed seeds reproduce models byte for byte."""
    start = time.perf_counter()
    rng = random.Random(606)
    successes = failures = runs = 0
    for _ in range(54):
        d = rng.choice((4, 8, 12, 20, 30))
        n = rng.choice((120, 200, 300))
        m = rng.choice((1, 3, 5, 9, 15))
        depth = rng.choice((1, 2, 3, 4))
        p = rng.choice((1, 2, inf))
        k = rng.choice((0.02, 0.05, 0.1))
        partitions = rng.choice((1, 1, 2, 3))
        partitions = min(partitions, m, d)
        config = TrainConfig(
            num_trees=m,
            max_depth=depth,
            p=p,
            k=k,
            max_iter=rng.choice((20, 60, 100)),
            partitions=partitions,
            seed=rng.randrange(10_000),
        )
        data = two_blob_dataset(rng.randrange(10_000), n, d, informative=min(4, d))
        model = train_large_spread(data, config)
        runs += 1
        if model is None:
            failures += 1
            continue
        successes += 1
        assert is_large_spread(model, config.p, config.k)
        assert model.num_trees == m
        again = train_large_spread(data, config)
        assert canonical_model_json(model) == canonical_model_json(again)
    assert runs >= 50 and successes >= 25
    _report(
        "training soundness + determinism",
        time.perf_counter() - start,
        180.0,
        f"{runs} runs, {successes} models, {failures} failures, all sound",
    )


def test_accuracy_and_robustness_trend_on_real_data():
    """Bundled 30-feature diagnostic table: spread-trained 5x depth-3
    ensembles stay within 0.10 accuracy of a same-shape plain forest, and
    their exhaustively verified robustness is at least the plain forest's
    for at least 2 of 3 budgets."""
    start = time.perf_counter()
    dataset = load_csv(bundled_dataset_path())
    assert dataset.dimensionality >= 10
    train, test = stratified_split(dataset, 0.7, seed=11)

    plain = train_random_forest(train, 5, 3, seed=7)
    plain_accuracy = accuracy(plain, test)

    def oracle_robustness(model, p, k):
        hits = sum(1 for x, y in test.rows() if exact_robust(model, p, k, x, y)[0])
        return hits / len(test)

    budgets = (0.005, 0.01, 0.015)
    wins = 0
    for k in budgets:
        config = TrainConfig(
            num_trees=5, max_depth=3, p=inf, k=k, max_iter=100, seed=7
        )
        model = train_large_spread(train, config)
        assert model is not None and is_large_spread(model, inf, k)
        model_accuracy = accuracy(model, test)
        assert plain_accuracy - model_accuracy <= 0.10
        plain_rob = oracle_robustness(plain, inf, k)
        model_rob = oracle_robustness(model, inf, k)
        fast_rob = robustness_score(model, inf, k, test)
        assert fast_rob == pytest.approx(model_rob, abs=1e-12)
        if model_rob >= plain_rob:
            wins += 1
    assert wins >= 2
    _report(
        "real-data accuracy/robustness trend",
        time.perf_counter() - start,
        300.0,
        f"plain acc {plain_accuracy:.3f}, wins {wins}/3",
    )


def _time_verification(ensemble, p, k, instances) -> float:
    """Mean seconds per robust_ensemble call, best of three passes."""
    best = inf
    for _ in range(3):
        start = time.perf_counter()
        for x in instances:
            robust_ensemble(ensemble, p, k, x, 1)
        best = min(best, (time.perf_counter() - start) / len(instances))
    return best


def test_verification_time_scales_about_linearly():
    """Verification time per instance grows no faster than ~linearly in the
    total node count (log-log slope <= 1.3) up to 101 trees of depth 6."""
    start = time.perf_counter()
    rng = random.Random(5150)
    k = 1.0
    points = []
    for m in (5, 11, 23, 47, 101):
        ensemble = scaling_ensemble(rng, m, 6, 10, k)
        instances = [random_instance(rng, 10, 0.0, m * 60.0) for _ in range(20)]
        seconds = _time_verification(ensemble, inf, k, instances)
        points.append((ensemble.node_count, seconds))
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(s) for _, s in points]
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )
    assert slope <= 1.3
    _report(
        "near-linear verification scaling",
        time.perf_counter() - start,
        180.0,
        f"slope {slope:.3f} over N in [{points[0][0]}, {points[-1][0]}]",
    )
