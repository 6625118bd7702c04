"""In-memory span tracing for the benchmark's traced run.

Spans are recorded only by this benchmark: ``Tracer.install`` replaces a
fixed list of public spreadverify functions with wrappers that open a span
around each call, in every spreadverify module that holds a reference to the
function (``from .core import spread`` copies the binding).  ``uninstall``
puts the originals back.  The package itself is never edited.

A span is ``[name, start, end, parent, op, tag]``: ``parent`` is the index of
the enclosing span (-1 for none), ``op`` the operation id the workload loop
set (-1 during set-up) and ``tag`` an optional label a wrapper derives from
the call's arguments.  Spans stay in memory until ``write`` dumps them.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import statistics
import sys
import time

PACKAGE = "spreadverify"


def _spread_key_tagger():
    """Tag spread/is_large_spread calls "first" or "repeat" per (trees, p).

    The package caches spread per tree tuple and norm, so the first call on
    a model computes it and later calls look it up.  References to the tree
    tuples are kept so an id is never reused while tracing.
    """
    seen: dict[tuple[int, object], object] = {}

    def tag(args, kwargs) -> str:
        trees = args[0]
        trees = getattr(trees, "trees", trees)
        p = args[1] if len(args) > 1 else kwargs.get("p")
        key = (id(trees), p)
        if key in seen:
            return "repeat"
        seen[key] = trees
        return "first"

    return tag


def _config_tagger(args, kwargs) -> str:
    config = args[1] if len(args) > 1 else kwargs["config"]
    return f"{config.num_trees}x{config.max_depth}"


def _forest_tagger(args, kwargs) -> str:
    return f"{args[1]}x{args[2]}"


def _traced_functions() -> dict[str, object]:
    """Qualified public function name -> tagger (or None)."""
    spread_tag = _spread_key_tagger()
    return {
        "core.spread": spread_tag,
        "core.is_large_spread": spread_tag,
        "core.predict_ensemble": None,
        "verifier.robust_ensemble": None,
        "verifier.reachable": None,
        "oracle.exact_robust": None,
        "oracle.leaf_regions": None,
        "trainer.train_large_spread": _config_tagger,
        "trainer.train_random_forest": _forest_tagger,
        "trainer.get_best_tree": None,
        "trainer.fix_forest": None,
        "cli.load_csv": None,
        "cli.save_model": None,
        "cli.load_model": None,
        "synth.scaling_ensemble": None,
        "synth.random_large_spread_case": None,
    }


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str, tag=None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, tag])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, tagger):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name, tagger(args, kwargs) if tagger else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def install(self) -> None:
        targets = _traced_functions()
        for qualified in targets:
            importlib.import_module(f"{PACKAGE}.{qualified.split('.')[0]}")
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for qualified, tagger in targets.items():
            module_name, function_name = qualified.split(".")
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            original = getattr(module, function_name, None)
            if original is None:
                print(f"perfbench: {PACKAGE}.{qualified} not found; not traced",
                      file=sys.stderr)
                continue
            wrapper = self._wrap(qualified, original, tagger)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def time_since(self, first: int, name: str) -> float:
        """Total duration of the ``name`` spans opened since index ``first``."""
        return sum(s[2] - s[1] for s in self.spans[first:] if s[0] == name)

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart\tend\tparent\top\ttag\n")
            for name, start, end, parent, op, tag in self.spans:
                out.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{op}\t{tag or ''}\n")


# ---------------------------------------------------------------------------
# Per-layer figures from the spans
# ---------------------------------------------------------------------------

CASE_SPAN = "bench.case"
FOREST_PROBE_TAG = "103x5"  # pool size 2m+1 for m=51 at depth 5
LAYERS = ("bench", "core", "verifier", "oracle", "trainer", "cli")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _p99(values) -> float:
    return statistics.quantiles(values, n=100)[98] if len(values) >= 2 else _median(values)


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


class SpanView:
    """Read-only queries over a finished trace."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        child_time = [0.0] * len(spans)
        in_case = [False] * len(spans)
        for i, (name, start, end, parent, _op, _tag) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                in_case[i] = in_case[parent]
            if name == CASE_SPAN:
                in_case[i] = True
        self.child_time = child_time
        self.in_case = in_case
        self.cases = sum(1 for s in spans if s[0] == CASE_SPAN)

    def durations(self, name, *, tag=None, in_case=None, ops_only=False) -> list[float]:
        return [
            s[2] - s[1]
            for i, s in enumerate(self.spans)
            if s[0] == name
            and (tag is None or s[5] == tag)
            and (in_case is None or self.in_case[i] == in_case)
            and (not ops_only or s[4] >= 0)
        ]

    def self_us_per_case(self) -> dict[str, float]:
        """Self time inside timed cases, per layer, in microseconds per case."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, _parent, _op, _tag) in enumerate(self.spans):
            if self.in_case[i]:
                layer = name.split(".", 1)[0]
                if layer in totals:
                    totals[layer] += end - start - self.child_time[i]
        cases = max(self.cases, 1)
        return {layer: total / cases * 1e6 for layer, total in totals.items()}


def layer_metrics(spans: list[list], counts: dict[str, list[float]]) -> dict[str, float]:
    """Every per-layer metric; 0 where the workload never calls the layer."""
    view = SpanView(spans)
    spread_first = view.durations("core.spread", tag="first") + view.durations(
        "core.is_large_spread", tag="first"
    )
    builds = view.durations("synth.scaling_ensemble") + view.durations(
        "synth.random_large_spread_case"
    )
    out = {
        "core.is_large_spread_us": _median(
            view.durations("core.is_large_spread", tag="repeat", in_case=True)
        ) * 1e6,
        "core.spread_first_ms": _median(spread_first) * 1e3,
        "core.predict_ensemble_us": _median(
            view.durations("core.predict_ensemble", in_case=True)
        ) * 1e6,
        "verifier.robust_ensemble_us": _median(
            view.durations("verifier.robust_ensemble", in_case=True)
        ) * 1e6,
        "verifier.robust_ensemble_p99_us": _p99(
            view.durations("verifier.robust_ensemble", in_case=True)
        ) * 1e6,
        "verifier.tree_dfs_us": _median(counts.get("tree_dfs_s", [])) * 1e6,
        "verifier.wrong_leaves": _mean(counts.get("wrong_leaves", [])),
        "verifier.trees_attackable": _mean(counts.get("trees_attackable", [])),
        "oracle.exact_robust_us": _median(
            view.durations("oracle.exact_robust", ops_only=True)
        ) * 1e6,
        "oracle.leaf_regions_us": _median(counts.get("leaf_regions_s", [])) * 1e6,
        "oracle.leaf_tuples": _mean(counts.get("leaf_tuples", [])),
        "trainer.train_large_spread_s": _median(
            view.durations("trainer.train_large_spread", tag="51x5", in_case=True)
        ),
        "trainer.train_75x5_s": _median(
            view.durations("trainer.train_large_spread", tag="75x5")
        ),
        "trainer.forest_s": _median(
            view.durations("trainer.train_random_forest", tag=FOREST_PROBE_TAG)
        ),
        "trainer.get_best_tree_ms": _median(view.durations("trainer.get_best_tree")) * 1e3,
        "trainer.fix_forest_s": _median(view.durations("trainer.fix_forest")),
        "trainer.fix_forest_success_share": _mean(counts.get("fix_success", [])),
        "trainer.threshold_shift_max": max(counts.get("shift_max", []), default=0.0),
        "trainer.threshold_shift_mean": _mean(counts.get("shift_mean", [])),
        "cli.load_csv_ms": _median(view.durations("cli.load_csv")) * 1e3,
        "cli.save_model_ms": _median(view.durations("cli.save_model", in_case=True)) * 1e3,
        "cli.load_model_ms": _median(view.durations("cli.load_model", in_case=True)) * 1e3,
        "cli.model_bytes": _mean(counts.get("model_bytes", [])),
        "synth.build_ms": _median(builds) * 1e3,
        "trace.spans": float(len(spans)),
    }
    for layer, value in view.self_us_per_case().items():
        out[f"{layer}.case_self_us"] = value
    return out
