"""The benchmark's workloads: set-up, the measured loop and output checks.

Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  Inputs come only from the ``random``
stream a workload is set up with, so one seed gives one input sequence.  The
library receives the generated inputs and nothing else.

Process isolation.  ``core`` caches spread in an ``lru_cache`` keyed by the
tree tuple, and a frozen dataclass compares by value.  A second model that
is equal by value to one already cached therefore hits the first model's
entry only after a deep comparison of every tree; measured on
``verify_bulk``, rebuilding the model in the same process raised the median
verification from 2.1 to 3.2 ms.  So no model is built twice in a process:
set-up repetitions draw from distinct derived seeds, and the traced run
takes its untraced reference figures from a child process.

Every workload calls the library through module attributes
(``verifier.robust_ensemble``), so the traced run's wrappers see each call.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
from collections import defaultdict
from time import perf_counter

from spreadverify import cli, core, oracle, synth, trainer, verifier

_NO_SPAN = contextlib.nullcontext()


class Record:
    """Timings, tallies and check results of one measured loop."""

    def __init__(self) -> None:
        self.verify_s: list[float] = []
        self.case_s: list[float] = []
        self.verdicts = 0
        self.predicted_right = 0
        self.robust = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self.digest = hashlib.sha256()

    def verify(self, model, p, k, x, y):
        start = perf_counter()
        verdict = verifier.robust_ensemble(model, p, k, x, y)
        self.verify_s.append(perf_counter() - start)
        self.verdicts += 1
        self.predicted_right += verdict.predicted == y
        self.robust += verdict.robust
        return verdict

    def add_to_digest(self, verdict) -> None:
        self.digest.update(
            f"{verdict.robust},{verdict.stable},{verdict.predicted},"
            f"{verdict.min_attack_norm!r};".encode()
        )

    def run_op(self, tracer, index: int, body) -> None:
        """Run one operation; ``body`` returns (timed seconds, problems)."""
        self.attempted += 1
        if tracer:
            tracer.op = index
        try:
            seconds, problems = body()
        except Exception as err:  # a failed operation is counted, not fatal
            seconds, problems = None, [f"{type(err).__name__}: {err}"]
        if seconds is not None:
            self.case_s.append(seconds)
        if problems:
            self.failed += 1
            self.problems.extend(f"op {index}: {p}" for p in problems)
        if tracer:
            tracer.op = -1


def _case_span(tracer):
    return tracer.span("bench.case") if tracer else _NO_SPAN


def _rel_close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def check_against_tree_oracles(singles, p, k, x, verdict) -> list[str]:
    """Recompute an ensemble verdict from one exact oracle answer per tree.

    On a large-spread ensemble the cheapest majority flip composes, through
    ``oplus``, the cheapest attacks on single trees.  The oracle finds those
    by enumerating every leaf of each single-tree ensemble, so it shares no
    traversal code with the verifier.
    """
    norms = []
    for single in singles:
        safe, witness = oracle.exact_robust(single, p, k, x, verdict.predicted)
        if not safe:
            norms.append(witness.norm_value)
    need = len(singles) // 2 + 1
    composed = core.oplus(sorted(norms)[:need], p) if len(norms) >= need else None
    if composed is not None and _rel_close(composed, k):
        return []  # oplus and the verifier round differently this close to k
    expect_stable = composed is None or composed > k
    if verdict.stable != expect_stable:
        return [f"stable={verdict.stable}, per-tree oracles give {expect_stable}"]
    if not expect_stable and not _rel_close(verdict.min_attack_norm, composed):
        return [f"attack norm {verdict.min_attack_norm!r}, per-tree oracles {composed!r}"]
    return []


# ---------------------------------------------------------------------------
# Traced-run probes: extra calls into public functions, outside timed cases
# ---------------------------------------------------------------------------


def probe_trees(tracer, record, model, p, k, x, label) -> None:
    """Per-tree DFS cost and counts of one instance, via ``reachable``."""
    first = len(tracer.spans)
    wrong = attackable = 0
    for tree in model.trees:
        norms = verifier.reachable(tree, p, k, x, label)
        wrong += len(norms)
        attackable += bool(norms)
    record.counts["tree_dfs_s"].append(tracer.time_since(first, "verifier.reachable"))
    record.counts["wrong_leaves"].append(wrong)
    record.counts["trees_attackable"].append(attackable)


def probe_leaf_regions(tracer, record, trees) -> None:
    """Oracle leaf annotation cost and leaf-tuple count of one ensemble."""
    first = len(tracer.spans)
    tuples = 1
    for tree in trees:
        tuples *= len(oracle.leaf_regions(tree))
    record.counts["leaf_regions_s"].append(tracer.time_since(first, "oracle.leaf_regions"))
    record.counts["leaf_tuples"].append(tuples)


# ---------------------------------------------------------------------------
# verify_bulk
# ---------------------------------------------------------------------------


class VerifyBulk:
    """One 101-tree model, many instances: verifier DFS and the spread check."""

    TREES, DEPTH, D, K, P = 101, 6, 30, 1.0, math.inf
    WARMUP = 10  # the first call computes spread; later ones look it up
    KNIFE_EVERY = 10  # every tenth instance sits on or one ulp off a threshold
    CHECK_EVERY = 50  # oracle cross-check sample
    DIGEST_OPS = 300  # verdicts in the cross-run digest (also the minimum run)

    def __init__(self, rng, model) -> None:
        self.rng = rng
        self.model = model
        self.splits = [
            (s.feature, s.threshold) for t in model.trees for s in core.iter_splits(t)
        ]

    @classmethod
    def setup(cls, rng, out_dir):
        model = synth.scaling_ensemble(rng, cls.TREES, cls.DEPTH, cls.D, cls.K)
        workload = cls(rng, model)
        for i in range(cls.WARMUP):
            x, y = workload._instance(i)
            verifier.robust_ensemble(model, cls.P, cls.K, x, y)
        return workload

    def _instance(self, index):
        rng = self.rng
        x = synth.random_instance(rng, self.D, 0.0, self.TREES * 60.0)
        if index % self.KNIFE_EVERY == 0:
            f, v = rng.choice(self.splits)
            x = list(x)
            x[f] = rng.choice((v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf)))
            x = tuple(x)
        return x, rng.choice((-1, 1))

    def run(self, seconds, record, tracer) -> None:
        model, p, k = self.model, self.P, self.K
        singles = [core.Ensemble((t,), self.D) for t in model.trees]
        start = perf_counter()
        i = 0
        while i < self.DIGEST_OPS or perf_counter() - start < seconds:
            x, y = self._instance(i)

            def op():
                with _case_span(tracer):
                    verdict = record.verify(model, p, k, x, y)
                elapsed = record.verify_s[-1]
                problems = []
                if i % self.CHECK_EVERY == 0:
                    problems = check_against_tree_oracles(singles, p, k, x, verdict)
                    if tracer:
                        for single in singles:
                            probe_leaf_regions(tracer, record, single.trees)
                if tracer:
                    probe_trees(tracer, record, model, p, k, x, verdict.predicted)
                if i < self.DIGEST_OPS:
                    record.add_to_digest(verdict)
                return elapsed, problems

            record.run_op(tracer, i, op)
            i += 1


# ---------------------------------------------------------------------------
# train_pipeline
# ---------------------------------------------------------------------------


class TrainPipeline:
    """Train, save, load and verify models on the bundled dataset."""

    TREES, DEPTH, K = 51, 5, 0.005
    TRAIN_P, VERIFY_P = math.inf, 2
    SPLIT_FRACTION, SPLIT_SEED = 0.7, 11
    CHECK_EVERY = 16  # oracle cross-check sample of the test split
    PROBE_FIX_TREES = 25  # fix_forest succeeds at 25x5 and fails at 51x5
    PROBE_LARGE_TREES = 75

    def __init__(self, rng, out_dir, train, test) -> None:
        self.rng = rng
        self.out_dir = out_dir
        self.train = train
        self.rows = list(test.rows())

    @classmethod
    def setup(cls, rng, out_dir):
        data = cli.load_csv(cli.bundled_dataset_path())
        train, test = cli.stratified_split(data, cls.SPLIT_FRACTION, cls.SPLIT_SEED)
        workload = cls(rng, out_dir, train, test)
        warm = trainer.train_large_spread(train, workload._config(3, 3))
        for x, y in workload.rows[:5]:
            verifier.robust_ensemble(warm, cls.VERIFY_P, cls.K, x, y)
        return workload

    def _config(self, trees, depth):
        return trainer.TrainConfig(
            trees, depth, self.TRAIN_P, self.K, seed=self.rng.randrange(2**31)
        )

    def run(self, seconds, record, tracer) -> None:
        start = perf_counter()
        i = 0
        while i < 1 or perf_counter() - start < seconds:
            config = self._config(self.TREES, self.DEPTH)
            record.run_op(tracer, i, lambda: self._model(i, config, record, tracer))
            i += 1
        if tracer:
            tracer.op = i
            trainer.train_large_spread(
                self.train, self._config(self.PROBE_LARGE_TREES, self.DEPTH)
            )

    def _model(self, index, config, record, tracer):
        # A fresh file per model: rewriting one file in place makes ext4 flush
        # it on close, which costs about 50 ms and is not the library's work.
        path = self.out_dir / f"model-{index}.json"
        try:
            return self._pipeline(index, config, record, tracer, path)
        finally:
            path.unlink(missing_ok=True)

    def _pipeline(self, index, config, record, tracer, path):
        k, p = self.K, self.VERIFY_P
        with _case_span(tracer):
            start = perf_counter()
            model = trainer.train_large_spread(self.train, config)
            if model is None:
                return perf_counter() - start, ["train_large_spread returned None"]
            cli.save_model(model, path)
            loaded = cli.load_model(path)
            verdicts = [record.verify(loaded, p, k, x, y) for x, y in self.rows]
            elapsed = perf_counter() - start

        problems = []
        psi = core.spread(model, config.p)
        if not psi > 2.0 * k:
            problems.append(f"spread {psi!r} <= 2k")
        text = cli.canonical_model_json(model)
        if path.read_bytes() != (text + "\n").encode() or cli.canonical_model_json(loaded) != text:
            problems.append("save/load round trip is not byte-identical")
        singles = [core.Ensemble((t,), loaded.dimensionality) for t in loaded.trees]
        for j in range(0, len(self.rows), self.CHECK_EVERY):
            x = self.rows[j][0]
            problems += check_against_tree_oracles(singles, p, k, x, verdicts[j])
            if tracer:
                probe_trees(tracer, record, loaded, p, k, x, verdicts[j].predicted)
                for single in singles:
                    probe_leaf_regions(tracer, record, single.trees)
        if index == 0:
            record.digest.update(text.encode())
            for verdict in verdicts:
                record.add_to_digest(verdict)
        if tracer:
            self._probe_trainer(record, model, config.seed, len(text) + 1)
        return elapsed, problems

    def _probe_trainer(self, record, model, seed, model_bytes) -> None:
        record.counts["model_bytes"].append(model_bytes)
        pool = trainer.train_random_forest(self.train, 2 * self.TREES + 1, self.DEPTH, seed)
        trainer.get_best_tree(pool, model, self.TRAIN_P, self.K)
        forest = trainer.train_random_forest(self.train, self.PROBE_FIX_TREES, self.DEPTH, seed)
        fixed = trainer.fix_forest(forest, self.TRAIN_P, self.K, 100, seed)
        record.counts["fix_success"].append(fixed is not None)
        if fixed is not None:
            shifts = [
                abs(a.threshold - b.threshold)
                for ta, tb in zip(forest.trees, fixed.trees)
                for a, b in zip(core.iter_splits(ta), core.iter_splits(tb))
            ]
            record.counts["shift_max"].append(max(shifts, default=0.0))
            record.counts["shift_mean"].append(sum(shifts) / max(len(shifts), 1))


# ---------------------------------------------------------------------------
# oracle_diff
# ---------------------------------------------------------------------------


class OracleDiff:
    """The traffic of ``spreadverify oracle-check``: tiny, distinct models."""

    TREE_COUNTS, MAX_DEPTH, MAX_D = (3, 5, 7), 3, 5
    KNIFE_EVERY = 3
    CHUNK = 500  # cases generated between runs of timed cases
    WARMUP = 1000  # cases run untimed in set-up
    DIGEST_OPS = 2000  # verdicts in the cross-run digest (also the minimum run)

    def __init__(self, rng) -> None:
        self.rng = rng

    @classmethod
    def setup(cls, rng, out_dir):
        workload = cls(rng)
        for ensemble, p, k, x, y in workload._cases(0, cls.WARMUP):
            verifier.robust_ensemble(ensemble, p, k, x, y)
            oracle.exact_robust(ensemble, p, k, x, y)
        return workload

    def _cases(self, first, count):
        """Cases as oracle-check draws them, labelled with the model's prediction."""
        rng = self.rng
        out = []
        for index in range(first, first + count):
            ensemble, p, k = synth.random_large_spread_case(
                rng, tree_counts=self.TREE_COUNTS, max_depth=self.MAX_DEPTH, max_d=self.MAX_D
            )
            d = ensemble.dimensionality
            if index % self.KNIFE_EVERY == 0:
                x = synth.knife_edge_instance(rng, ensemble.trees, d)
            else:
                x = synth.random_instance(rng, d)
            out.append((ensemble, p, k, x, core.predict_ensemble(ensemble, x)))
        return out

    def run(self, seconds, record, tracer) -> None:
        start = perf_counter()
        i = 0
        cases = []
        while i < self.DIGEST_OPS or perf_counter() - start < seconds:
            if not cases:
                cases = self._cases(i, self.CHUNK)
                cases.reverse()
            ensemble, p, k, x, y = cases.pop()

            def op():
                with _case_span(tracer):
                    case_start = perf_counter()
                    verdict = record.verify(ensemble, p, k, x, y)
                    safe, witness = oracle.exact_robust(ensemble, p, k, x, y)
                    elapsed = perf_counter() - case_start
                problems = []
                if verdict.robust != safe:
                    problems.append(f"verifier robust={verdict.robust}, oracle {safe}")
                elif not safe and not _rel_close(verdict.min_attack_norm, witness.norm_value):
                    problems.append(
                        f"attack norm {verdict.min_attack_norm!r}, "
                        f"oracle witness {witness.norm_value!r}"
                    )
                if tracer:
                    probe_trees(tracer, record, ensemble, p, k, x, verdict.predicted)
                    probe_leaf_regions(tracer, record, ensemble.trees)
                if i < self.DIGEST_OPS:
                    record.add_to_digest(verdict)
                return elapsed, problems

            record.run_op(tracer, i, op)
            i += 1


WORKLOADS = {
    "verify_bulk": VerifyBulk,
    "train_pipeline": TrainPipeline,
    "oracle_diff": OracleDiff,
}
