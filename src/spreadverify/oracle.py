"""Exhaustive ground-truth verification and attack construction.

Everything here is exponential-time by design and bounded by explicit
capacity limits: leaf tuples are enumerated one leaf per tree, each leaf's
``{feature: (lo, hi)}`` box recomputed independently top-down (the quadratic
method the fast verifier optimizes away), so the two sides share no
traversal code and can certify each other.  Boxes are costed by the same
core primitive as the verifier's, :func:`core.rect_cost_power`, which keeps
knife-edge instances (values one ulp from a threshold) consistent across
both.

Also provides the constructive split of a joint two-tree attack into
support-disjoint halves, and the exhaustive search for large-spread subsets
of a given size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import inf, nextafter
from typing import Optional, Sequence

from .core import (
    CapacityError,
    DecisionTree,
    Ensemble,
    Leaf,
    Node,
    NormOrder,
    Split,
    _as_count,
    _check_budget,
    _check_dimensionality,
    _check_finite,
    _check_instance,
    _check_width,
    _majority,
    _majority_size,
    _tree_labels,
    _tree_sequence,
    check_norm_order,
    is_large_spread,
    norm_to_power,
    power_to_norm,
    rect_cost_power,
)

__all__ = [
    "AttackWitness",
    "DEFAULT_TUPLE_LIMIT",
    "leaf_regions",
    "exact_robust",
    "minimal_attack",
    "minimal_joint_attack",
    "split_attack",
    "exists_large_spread_subset",
]

DEFAULT_TUPLE_LIMIT = 1_000_000
SUBSET_TREE_LIMIT = 20


@dataclass(frozen=True)
class AttackWitness:
    """A concrete evasion: the perturbed instance and its perturbation norm."""

    z: tuple[float, ...]
    norm_value: float


# ---------------------------------------------------------------------------
# Independent per-leaf annotation
# ---------------------------------------------------------------------------

Box = dict[int, tuple[float, float]]  # feature -> (lo, hi]; absent is unconstrained


def leaf_regions(tree: DecisionTree) -> list[tuple[int, Box]]:
    """Label and reaching ``{feature: (lo, hi)}`` box for every satisfiable leaf.

    Each child's box is a fresh copy of its parent's with one feature
    narrowed, so every leaf keeps a box of its own; branches whose interval
    becomes empty are dropped, as no instance can reach them.  An explicit
    stack keeps deep trees off the call stack; right children are pushed
    first so leaves come out in preorder, the order the leaf-tuple search
    breaks ties by.
    """
    out: list[tuple[int, Box]] = []
    stack: list[tuple[Node, Box]] = [(tree.root, {})]
    while stack:
        node, rect = stack.pop()
        if isinstance(node, Leaf):
            out.append((node.label, rect))
            continue
        f, v = node.feature, node.threshold
        lo, hi = rect.get(f, (-inf, inf))
        right_lo = max(lo, v)
        if right_lo < hi:
            child = dict(rect)
            child[f] = (right_lo, hi)
            stack.append((node.right, child))
        left_hi = min(hi, v)
        if lo < left_hi:
            child = dict(rect)
            child[f] = (lo, left_hi)
            stack.append((node.left, child))
    return out


# ---------------------------------------------------------------------------
# Leaf-tuple search
# ---------------------------------------------------------------------------


def _intersect(rect: Box, box: Box) -> Optional[Box]:
    child = dict(rect)
    for f, (lo, hi) in box.items():
        clo, chi = child.get(f, (-inf, inf))
        nlo, nhi = max(clo, lo), min(chi, hi)
        if nlo >= nhi:
            return None
        child[f] = (nlo, nhi)
    return child


def _search_min_attack(
    per_tree: list[list[tuple[int, Box]]],
    y: int,
    need_wrong: int,
    p: NormOrder,
    budget_pow: float,
    x: Sequence[float],
) -> tuple[Optional[float], Optional[Box]]:
    """Depth-first enumeration of leaf tuples; returns (min cost, its box).

    A leaf votes wrong when its label differs from ``y``.  Prunes a leaf
    whose vote leaves too few trees to reach ``need_wrong`` wrong votes
    (with ``need_wrong`` equal to the tree count, every right-label leaf
    goes before any intersection), and branches whose partial cost already
    exceeds the budget or the best candidate so far (sound: intersecting
    further leaves only shrinks the box, so the cost is non-decreasing).
    An explicit stack keeps any number of trees off the call stack; each
    tree's leaves are pushed in reverse, so tuples come out in tree-major,
    leaf-minor order, and the best-so-far test runs when an entry is popped.
    The first tuple attaining the minimum in that order wins ties, so the
    result is deterministic.
    """
    m = len(per_tree)
    best_cost: Optional[float] = None
    best_rect: Optional[Box] = None
    # Entries: (trees fixed so far, box, wrong votes, the box's cost).
    stack = [(0, {}, 0, rect_cost_power({}, x, p))]
    while stack:
        i, rect, wrong, cost = stack.pop()
        if best_cost is not None and cost > best_cost:
            continue
        if i == m:
            if best_cost is None or cost < best_cost:
                best_cost, best_rect = cost, rect
            continue
        later = m - i - 1
        for label, box in reversed(per_tree[i]):
            votes = wrong + (label != y)
            if votes + later < need_wrong:
                continue
            child = _intersect(rect, box)
            if child is None:
                continue
            partial = rect_cost_power(child, x, p)
            if partial <= budget_pow:
                stack.append((i + 1, child, votes, partial))
    return best_cost, best_rect


def _witness_vector(x: Sequence[float], rect: Box) -> tuple[float, ...]:
    # Components are placed exactly: inside values stay, pushes up land on the
    # float successor of the open lower bound, pushes down on the closed
    # upper bound.  Membership therefore holds exactly, so the witness
    # provably follows the chosen leaves.
    z = list(float(v) for v in x)
    for f, (lo, hi) in rect.items():
        if lo < z[f] <= hi:
            continue
        z[f] = nextafter(lo, inf) if z[f] <= lo else hi
    return tuple(z)


def _prepare(trees: Sequence[DecisionTree]) -> list[list[tuple[int, Box]]]:
    per_tree = [leaf_regions(t) for t in trees]
    total = 1
    for leaves in per_tree:
        total *= len(leaves)
        if total > DEFAULT_TUPLE_LIMIT:
            raise CapacityError(
                f"leaf-tuple count exceeds the bound of {DEFAULT_TUPLE_LIMIT}"
            )
    return per_tree


def exact_robust(
    ensemble: Ensemble,
    p: NormOrder,
    k: float,
    x: Sequence[float],
    y: int,
) -> tuple[bool, Optional[AttackWitness]]:
    """Ground-truth robustness by enumerating every leaf tuple.

    Returns ``(False, witness)`` with a minimum-norm evasion whenever the
    ensemble mispredicts ``x`` (zero-norm witness) or some in-budget
    perturbation flips a majority of trees; ``(True, None)`` otherwise.
    """
    p, k = check_norm_order(p), _check_budget(k)
    _check_instance(x, y)
    _check_dimensionality(x, ensemble)
    per_tree = _prepare(ensemble.trees)
    if _majority(_tree_labels(ensemble.trees, x)) != y:
        return False, AttackWitness(tuple(float(v) for v in x), 0.0)
    need = _majority_size(ensemble.trees)
    cost, rect = _search_min_attack(per_tree, y, need, p, norm_to_power(k, p), x)
    if cost is None:
        return True, None
    return False, AttackWitness(_witness_vector(x, rect), power_to_norm(cost, p))


def minimal_attack(
    ensemble: Ensemble,
    p: NormOrder,
    x: Sequence[float],
    y: int,
) -> Optional[AttackWitness]:
    """Minimum-norm evasion against the ensemble, with no budget cap.

    Returns ``None`` when no perturbation at all can make the ensemble output
    a label different from ``y``.
    """
    return exact_robust(ensemble, p, inf, x, y)[1]


def minimal_joint_attack(
    trees: "Ensemble | Sequence[DecisionTree]",
    p: NormOrder,
    x: Sequence[float],
    y: int,
) -> Optional[AttackWitness]:
    """Minimum-norm perturbation making *every* given tree output a label != y.

    Accepts tree collections of any size (no majority vote involved), which
    is what norm-composition properties over tree subsets need.
    """
    p = check_norm_order(p)
    seq = _tree_sequence(trees)
    _check_width(x, seq)
    _check_instance(x, y)
    per_tree = _prepare(seq)
    cost, rect = _search_min_attack(per_tree, y, len(seq), p, inf, x)
    if cost is None:
        return None
    return AttackWitness(_witness_vector(x, rect), power_to_norm(cost, p))


# ---------------------------------------------------------------------------
# Splitting a joint attack into support-disjoint halves
# ---------------------------------------------------------------------------


def split_attack(
    tree: DecisionTree,
    other: DecisionTree,
    x: Sequence[float],
    z: Sequence[float],
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Split ``z - x`` into support-disjoint parts attacking each tree alone.

    Walks the first tree along ``z``'s prediction path, collecting every
    feature where ``x`` and ``z`` fall on opposite sides of the tested
    threshold; ``delta`` copies ``z - x`` on those features and ``delta2`` on
    the rest.  By construction ``x + delta`` follows ``z``'s path in the
    first tree.  For a pair whose thresholds are spread further than twice
    the attack radius, ``x + delta2`` also follows ``z``'s path in the second
    tree; callers are responsible for that precondition, and a detectable
    violation raises ValueError.
    """
    if len(x) != len(z):
        raise ValueError("x and z must have the same dimensionality")
    _check_width(x, (tree, other))
    _check_finite(x)
    _check_finite(z)
    crossed: set[int] = set()
    node = tree.root
    while isinstance(node, Split):
        f, v = node.feature, node.threshold
        if (x[f] <= v) != (z[f] <= v):
            crossed.add(f)
        node = node.left if z[f] <= v else node.right
    delta = tuple(z[i] - x[i] if i in crossed else 0.0 for i in range(len(x)))
    delta2 = tuple(0.0 if i in crossed else z[i] - x[i] for i in range(len(x)))
    # The complement part must preserve the second tree's path on z; this can
    # only fail when the spread precondition does not hold.
    residual = tuple(z[i] if i not in crossed else x[i] for i in range(len(x)))
    if _tree_labels((other,), residual) != _tree_labels((other,), z):
        raise ValueError(
            "attack split failed: the tree pair is not spread widely enough "
            "for these instances"
        )
    return delta, delta2


# ---------------------------------------------------------------------------
# Exhaustive large-spread subset search
# ---------------------------------------------------------------------------


def exists_large_spread_subset(
    trees: "Ensemble | Sequence[DecisionTree]",
    s: int,
    p: NormOrder,
    k: float,
) -> bool:
    """True iff some size-``s`` subset of the trees is large-spread for (p, k)."""
    seq = _tree_sequence(trees)
    p, k = check_norm_order(p), _check_budget(k)
    s = _as_count(s, "subset size")
    if len(seq) > SUBSET_TREE_LIMIT:
        raise CapacityError(
            f"subset search is exhaustive and limited to {SUBSET_TREE_LIMIT} trees"
        )
    return any(
        is_large_spread(combo, p, k) for combo in itertools.combinations(seq, s)
    )
