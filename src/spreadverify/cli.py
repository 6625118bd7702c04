"""Dataset ingestion, model serialization, metrics and the command surface.

Commands: ``train`` (large-spread training to a JSON model), ``verify``
(per-instance robustness over a CSV test set), ``spread`` (the ensemble's
threshold-spread value), ``oracle-check`` (randomized differential run of
the fast verifier against the brute-force oracle, comparing verdicts and
attack norms) and ``gadget`` (clique/spread-subset cross-check on a graph
file).

Exit codes: 0 success, 1 usage error, 2 training failure, 3 spread
precondition violation, 4 exhaustive-search capacity exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import sys
import time
from importlib import resources
from typing import Optional, Sequence

import numpy as np

from . import gadget as gadget_mod
from . import oracle, synth
from .core import (
    CapacityError,
    DecisionTree,
    Ensemble,
    Leaf,
    Node,
    NormOrder,
    Split,
    _as_float,
    _as_int,
    _check_attacker,
    check_norm_order,
    predict_ensemble,
    spread,
)
from .trainer import Dataset, TrainConfig, train_large_spread
from .verifier import NotLargeSpreadError, robust_ensemble

__all__ = [
    "load_csv",
    "stratified_split",
    "accuracy",
    "ensemble_to_dict",
    "ensemble_from_dict",
    "canonical_model_json",
    "save_model",
    "load_model",
    "bundled_dataset_path",
    "main",
]

MODEL_SCHEMA_VERSION = 1
# Python's json module and the nested v1 format cannot hold trees deeper
# than the interpreter's recursion limit (about 1,000 levels).
_TOO_DEEP = "trees nest too deeply for the v1 model format"


# ---------------------------------------------------------------------------
# Dataset ingestion
# ---------------------------------------------------------------------------


def load_csv(path) -> Dataset:
    """Load a numeric CSV; the last column is the label.

    Labels may be {-1, +1} or {0, 1} (0 maps to -1).  A non-numeric first
    row is treated as a header and skipped.
    """
    with open(path, "r", newline="") as handle:
        raw_rows = [row for row in csv.reader(handle) if row]
    if not raw_rows:
        raise ValueError(f"{path}: empty file")

    def parse_row(row: list[str], index: int) -> list[float]:
        try:
            return list(map(float, row))
        except ValueError:
            # Cell by cell only to name the first cell that fails.
            for col, cell in enumerate(row):
                try:
                    float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: row {index}, column {col}: cannot parse {cell.strip()!r}"
                    ) from None
            raise

    start = 0
    try:
        parse_row(raw_rows[0], 0)
    except ValueError:
        start = 1  # header row
    if start >= len(raw_rows):
        raise ValueError(f"{path}: no data rows")

    width = len(raw_rows[start])
    if width < 2:
        raise ValueError(f"{path}: rows need at least one feature and a label")
    features, labels = [], []
    for index in range(start, len(raw_rows)):
        row = raw_rows[index]
        if len(row) != width:
            raise ValueError(
                f"{path}: row {index} has {len(row)} columns, expected {width}"
            )
        values = parse_row(row, index)
        raw_label = values[-1]
        if raw_label in (-1.0, 1.0):
            label = int(raw_label)
        elif raw_label == 0.0:
            label = -1
        else:
            raise ValueError(
                f"{path}: row {index}, column {width - 1}: label must be -1, 0 or 1, "
                f"got {raw_label!r}"
            )
        features.append(values[:-1])
        labels.append(label)
    return Dataset(np.asarray(features, dtype=np.float64), np.asarray(labels))


def stratified_split(
    dataset: Dataset, train_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Split per class so both parts keep the label proportions within 1.

    Deterministic for a fixed seed; the parts are disjoint and exhaustive.
    """
    train_fraction = _as_float(train_fraction, "train_fraction")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    seed = _as_int(seed, "seed")
    by_class = {
        label: np.flatnonzero(dataset.labels == label).tolist() for label in (-1, 1)
    }
    for label, indices in by_class.items():
        if not indices:
            raise ValueError(f"stratified split needs instances of class {label:+d}")
    rng = random.Random(seed)
    total_train = round(train_fraction * len(dataset))
    shares = {
        label: train_fraction * len(indices) for label, indices in by_class.items()
    }
    counts = {label: math.floor(share) for label, share in shares.items()}
    leftover = total_train - sum(counts.values())
    for label in sorted(by_class, key=lambda c: (-(shares[c] - counts[c]), c)):
        if leftover <= 0:
            break
        counts[label] += 1
        leftover -= 1
    train_idx: list[int] = []
    test_idx: list[int] = []
    for label in sorted(by_class):
        indices = list(by_class[label])
        rng.shuffle(indices)
        take = counts[label]
        train_idx.extend(indices[:take])
        test_idx.extend(indices[take:])
    return dataset.subset(sorted(train_idx)), dataset.subset(sorted(test_idx))


def accuracy(ensemble: Ensemble, dataset: Dataset) -> float:
    """Fraction of instances whose majority vote matches the label."""
    if len(dataset) == 0:
        raise ValueError("accuracy over an empty dataset is undefined")
    hits = sum(1 for x, y in dataset.rows() if predict_ensemble(ensemble, x) == y)
    return hits / len(dataset)


def bundled_dataset_path():
    """Filesystem path of the breast-cancer CSV shipped with the package."""
    return resources.files("spreadverify").joinpath("data", "breast_cancer.csv")


# ---------------------------------------------------------------------------
# Model serialization
# ---------------------------------------------------------------------------


def _node_to_dict(node: Node) -> dict:
    if isinstance(node, Leaf):
        return {"leaf": node.label}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(obj) -> Node:
    if not isinstance(obj, dict):
        raise ValueError(f"malformed node: {obj!r}")
    if "leaf" in obj:
        return Leaf(obj["leaf"])
    return Split(
        obj["feature"],
        obj["threshold"],
        _node_from_dict(obj["left"]),
        _node_from_dict(obj["right"]),
    )


def ensemble_to_dict(ensemble: Ensemble) -> dict:
    """The v1 model object; ValueError for trees nested too deeply for it."""
    try:
        trees = [_node_to_dict(t.root) for t in ensemble.trees]
    except RecursionError:
        raise ValueError(f"model {_TOO_DEEP}") from None
    return {"version": MODEL_SCHEMA_VERSION, "d": ensemble.dimensionality, "trees": trees}


def ensemble_from_dict(obj: dict) -> Ensemble:
    if not isinstance(obj, dict):
        raise ValueError(f"malformed model: a {type(obj).__name__}, not an object")
    if obj.get("version") != MODEL_SCHEMA_VERSION:
        raise ValueError(f"unsupported model version: {obj.get('version')!r}")
    # One handler for the whole file: a missing key, a value of the wrong
    # JSON type or a tree nested too deeply anywhere in it surfaces here, at
    # no per-node cost.
    try:
        trees = tuple(DecisionTree(_node_from_dict(node)) for node in obj["trees"])
        return Ensemble(trees, obj["d"])
    except KeyError as missing:
        raise ValueError(f"malformed model, missing key {missing}") from None
    except TypeError as err:
        raise ValueError(f"malformed model: {err}") from None
    except RecursionError:
        raise ValueError(f"malformed model: {_TOO_DEEP}") from None


def canonical_model_json(ensemble: Ensemble) -> str:
    """Canonical serialized form: sorted keys, no whitespace, full-precision
    shortest round-trip decimals for thresholds.

    Raises ValueError for trees nested too deeply for the nested v1 format.
    """
    try:
        return json.dumps(ensemble_to_dict(ensemble), sort_keys=True, separators=(",", ":"))
    except RecursionError:
        raise ValueError(f"model {_TOO_DEEP}") from None


def save_model(ensemble: Ensemble, path) -> None:
    text = canonical_model_json(ensemble)
    with open(path, "w") as handle:
        handle.write(text)
        handle.write("\n")


def load_model(path) -> Ensemble:
    with open(path, "r") as handle:
        try:
            obj = json.load(handle)
        except RecursionError:
            raise ValueError(f"malformed model: {_TOO_DEEP}") from None
    return ensemble_from_dict(obj)


# ---------------------------------------------------------------------------
# Command helpers
# ---------------------------------------------------------------------------


def _json_float(value: float):
    return "inf" if value == math.inf else value


def _parse_norm(text: str) -> NormOrder:
    try:
        return check_norm_order(math.inf if text == "inf" else int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"norm must be '0', a positive integer or 'inf', got {text!r}"
        ) from None


def _emit(args, human: str, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _cmd_train(args) -> int:
    dataset = load_csv(args.data)
    # Training and the spread depend on k alone: any p >= 1 gives the same.
    config = TrainConfig(
        num_trees=args.trees,
        max_depth=args.depth,
        p=math.inf,
        k=args.k,
        max_iter=args.max_iter,
        partitions=args.partitions,
        seed=args.seed,
    )
    start = time.perf_counter()
    model = train_large_spread(dataset, config)
    elapsed = time.perf_counter() - start
    if model is None:
        print(
            f"training failed: could not assemble {config.num_trees} trees "
            f"satisfying the spread condition",
            file=sys.stderr,
        )
        return 2
    save_model(model, args.out)
    train_acc = accuracy(model, dataset)
    psi = spread(model, math.inf)
    _emit(
        args,
        (
            f"trained {model.num_trees} trees ({model.node_count} nodes) in {elapsed:.2f}s\n"
            f"training accuracy {train_acc:.4f}\n"
            f"spread {psi!r} (> 2k = {2 * args.k!r})\n"
            f"model written to {args.out}"
        ),
        {
            "trees": model.num_trees,
            "nodes": model.node_count,
            "train_accuracy": train_acc,
            "spread": _json_float(psi),
            "seconds": elapsed,
            "out": str(args.out),
        },
    )
    return 0


def _cmd_verify(args) -> int:
    p, k = _check_attacker(args.p, args.k)
    if k == math.inf:
        raise ValueError(f"attacker budget must be finite, got {args.k!r}")
    timings = {}
    start = time.perf_counter()
    model = load_model(args.model)
    dataset = load_csv(args.data)
    timings["load"] = time.perf_counter() - start

    start = time.perf_counter()
    verdicts = [(y, robust_ensemble(model, p, k, x, y)) for x, y in dataset.rows()]
    timings["verify"] = time.perf_counter() - start

    psi = spread(model, p)
    n = len(verdicts)
    correct_share = sum(1 for y, v in verdicts if v.predicted == y) / n
    robust_share = sum(1 for _, v in verdicts if v.robust) / n
    per_instance = timings["verify"] / n
    _emit(
        args,
        (
            f"instances {n}\n"
            f"accuracy {correct_share:.6f}\n"
            f"robustness {robust_share:.6f}\n"
            f"spread {psi!r}\n"
            f"verify time {timings['verify']:.3f}s ({per_instance * 1e3:.3f} ms/instance)"
        ),
        {
            "spread": _json_float(psi),
            "accuracy": correct_share,
            "robustness": robust_share,
            "timings": timings,
            "instances": [
                {
                    "index": index,
                    "label": y,
                    "predicted": v.predicted,
                    "robust": v.robust,
                    "stable": v.stable,
                    "min_attack_norm": v.min_attack_norm,
                }
                for index, (y, v) in enumerate(verdicts)
            ],
        },
    )
    return 0


def _cmd_spread(args) -> int:
    model = load_model(args.model)
    psi = spread(model, args.p)
    _emit(
        args,
        f"spread {psi!r}",
        {"spread": _json_float(psi), "trees": model.num_trees},
    )
    return 0


def _cmd_oracle_check(args) -> int:
    rng = random.Random(args.seed)
    agree = 0
    mismatches = []
    for case in range(args.cases):
        ensemble, p, k = synth.random_large_spread_case(rng)
        if case % 3 == 0:
            x = synth.knife_edge_instance(rng, ensemble.trees, ensemble.dimensionality)
        else:
            x = synth.random_instance(rng, ensemble.dimensionality)
        # Labelled with the prediction, so a non-robust verdict is an attack.
        y = predict_ensemble(ensemble, x)
        verdict = robust_ensemble(ensemble, p, k, x, y)
        exact, witness = oracle.exact_robust(ensemble, p, k, x, y)
        fast_norm = verdict.min_attack_norm
        exact_norm = None if witness is None else witness.norm_value
        same = verdict.robust == exact
        if same and not exact:
            # Both found an in-budget attack: the cheapest one must cost the
            # same on both sides.
            same = math.isclose(fast_norm, exact_norm, rel_tol=1e-9)
        if same:
            agree += 1
        else:
            mismatches.append(
                {
                    "case": case,
                    "fast": verdict.robust,
                    "exact": exact,
                    "fast_norm": fast_norm,
                    "exact_norm": exact_norm,
                }
            )
    _emit(
        args,
        f"agreement {agree}/{args.cases}",
        {"agreement": agree, "cases": args.cases, "mismatches": mismatches},
    )
    return 0 if agree == args.cases else 1


def _cmd_gadget(args) -> int:
    with open(args.graph, "r") as handle:
        graph = gadget_mod.parse_graph(handle.read())
    # The clique search checks its capacity before any tree is built.
    clique = gadget_mod.clique_exists(graph, args.s)
    trees, features = gadget_mod.graph_to_ensemble(graph)
    subset = oracle.exists_large_spread_subset(trees, args.s, 0, 0.0)
    _emit(
        args,
        (
            f"vertices {graph.num_vertices}, edges {len(graph.edges)}, "
            f"features {len(features)}\n"
            f"clique of size {args.s}: {clique}\n"
            f"large-spread subset of size {args.s} (zero budget): {subset}\n"
            f"agreement: {clique == subset}"
        ),
        {
            "vertices": graph.num_vertices,
            "edges": len(graph.edges),
            "features": len(features),
            "s": args.s,
            "clique_exists": clique,
            "large_spread_subset_exists": subset,
            "agreement": clique == subset,
        },
    )
    return 0 if clique == subset else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    # Exact option names only: a prefix such as --part would otherwise parse.
    parser = argparse.ArgumentParser(
        prog="spreadverify", description=__doc__, allow_abbrev=False
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p_cmd, *, seed=True):
        p_cmd.add_argument("--json", action="store_true", help="machine-readable output")
        if seed:
            p_cmd.add_argument("--seed", type=int, default=0, help="RNG seed")

    p_train = sub.add_parser(
        "train", help="train a large-spread ensemble", allow_abbrev=False
    )
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--trees", type=int, required=True)
    p_train.add_argument("--depth", type=int, required=True)
    p_train.add_argument("--k", type=float, required=True)
    p_train.add_argument("--max-iter", type=int, default=100)
    p_train.add_argument("--partitions", type=int, default=1)
    p_train.add_argument("--out", required=True)
    add_common(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_verify = sub.add_parser(
        "verify", help="verify robustness over a test set", allow_abbrev=False
    )
    p_verify.add_argument("--model", required=True)
    p_verify.add_argument("--data", required=True)
    p_verify.add_argument("--p", type=_parse_norm, required=True)
    p_verify.add_argument("--k", type=float, required=True)
    add_common(p_verify, seed=False)
    p_verify.set_defaults(func=_cmd_verify)

    p_spread = sub.add_parser(
        "spread", help="report the threshold spread", allow_abbrev=False
    )
    p_spread.add_argument("--model", required=True)
    p_spread.add_argument("--p", type=_parse_norm, required=True)
    add_common(p_spread, seed=False)
    p_spread.set_defaults(func=_cmd_spread)

    p_oracle = sub.add_parser(
        "oracle-check",
        help="differential run: fast verifier vs brute force",
        allow_abbrev=False,
    )
    p_oracle.add_argument("--cases", type=int, default=1000)
    add_common(p_oracle)
    p_oracle.set_defaults(func=_cmd_oracle_check)

    p_gadget = sub.add_parser(
        "gadget",
        help="clique vs large-spread-subset cross-check on a graph",
        allow_abbrev=False,
    )
    p_gadget.add_argument("--graph", required=True)
    p_gadget.add_argument("--s", type=int, required=True)
    add_common(p_gadget, seed=False)
    p_gadget.set_defaults(func=_cmd_gadget)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exit_request:
        # argparse exits 2 on a usage error and 0 after --help.
        return 1 if exit_request.code else 0
    try:
        return args.func(args)
    except NotLargeSpreadError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except CapacityError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
