"""Fast robustness verification for trees and large-spread ensembles.

Single trees are verified by one depth-first traversal that maintains a
single global hyper-rectangle of ``(lo, hi)`` bounds plus a scalar
perturbation cost, updating the cost in O(1) per node and restoring both on
backtrack.  The traversal runs on an explicit stack, so any tree depth fits.
Ensembles whose cross-tree threshold spread strictly exceeds twice the
attack budget are verified compositionally: per-tree minimal attack costs
combine through the support-disjoint norm composition, so the whole check
runs in O(N + m log m) at worst.  Per instance it descends each tree once
for the votes, bisects each feature's sorted thresholds (the ensemble's
index) for the trees with a threshold within k of x, and traverses only
those that vote for the prediction: a tree voting against it costs 0, and
any other tree cannot change its vote within budget.  Under large spread
a feature's window holds the thresholds of at most one tree, unless the
spread is within the window's relative slack of 2k.

The ensemble verdict is sound only under the spread precondition, so it is
always checked (a comparison against the threshold gap each ensemble stores
on construction) and its violation raises :class:`NotLargeSpreadError`
rather than returning a possibly wrong answer.  Instances with NaN or
infinite coordinates raise ValueError.  Verification never mutates the
ensemble; each traversal owns its private scratch state, so distinct
instances may be verified concurrently over a shared model.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import inf
from typing import Optional, Sequence

from .core import (
    DecisionTree,
    Ensemble,
    Leaf,
    NormOrder,
    SpreadVerifyError,
    _check_attacker,
    _check_budget,
    _check_dimensionality,
    _check_instance,
    _check_width,
    _dist_raw,
    _majority,
    _majority_size,
    _tree_labels,
    _update_power,
    check_norm_order,
    norm_to_power,
    power_to_norm,
    power_total,
    rect_cost_power,
)

__all__ = [
    "NotLargeSpreadError",
    "VerificationVerdict",
    "reachable",
    "robust_tree",
    "robust_ensemble",
    "robustness_score",
]

# Relative slack applied to the pruning budget only: the incremental
# subtract-then-add cost updates can drift by a few ulps relative to the
# correctly-rounded evaluation used at leaves, and pruning must never cut a
# leaf that the canonical evaluation would accept.
_PRUNE_SLACK = 1.0 + 1e-9


class NotLargeSpreadError(SpreadVerifyError):
    """The ensemble's threshold spread does not exceed twice the budget.

    Composing per-tree verdicts would be unsound, so verification refuses to
    answer.  Carries the offending spread value and the required gap ``2k``.
    """

    def __init__(self, spread_value: float, required_gap: float) -> None:
        self.spread_value = spread_value
        self.required_gap = required_gap
        super().__init__(
            f"ensemble spread {spread_value!r} is not greater than 2k = {required_gap!r}"
        )


@dataclass(frozen=True)
class VerificationVerdict:
    """Outcome of one ensemble verification.

    ``stable`` states that no in-budget perturbation changes the ensemble's
    own prediction; ``robust`` additionally requires that prediction to match
    the supplied ground-truth label.  ``min_attack_norm`` is the norm of the
    cheapest prediction-flipping perturbation whenever stability fails.
    """

    robust: bool
    stable: bool
    predicted: int
    min_attack_norm: Optional[float]


def _wrong_leaf_costs(
    tree: DecisionTree, p: NormOrder, k: float, x: Sequence[float], y: int
) -> list[float]:
    """Power-domain costs (each <= budget) of every reachable wrong leaf.

    An explicit stack, so any tree depth fits.  Each entry carries the undo
    depth of its parent's ``(lo, hi)`` box, restored before its own narrowing.
    """
    budget = norm_to_power(k, p)
    prune_budget = budget if (p == 0 or p == inf) else budget * _PRUNE_SLACK
    box: dict[int, tuple[float, float]] = {}
    undo: list[tuple[int, Optional[tuple[float, float]]]] = []
    out: list[float] = []
    stack = [(tree.root, 0.0, 0, None, None)]
    while stack:
        node, acc, depth, f, bounds = stack.pop()
        while len(undo) > depth:
            g, previous = undo.pop()
            if previous is None:
                del box[g]
            else:
                box[g] = previous
        if f is not None:
            undo.append((f, box.get(f)))
            box[f] = bounds
        if isinstance(node, Leaf):
            if node.label != y:
                cost = rect_cost_power(box, x, p)
                if cost <= budget:
                    out.append(cost)
            continue
        f, v = node.feature, node.threshold
        lo, hi = box.get(f, (-inf, inf))
        old_comp = _dist_raw(x[f], lo, hi)
        depth = len(undo)
        # Right first, so the left subtree is popped (visited) first.
        for child, child_lo, child_hi in (
            (node.right, max(lo, v), hi),
            (node.left, lo, min(hi, v)),
        ):
            if child_lo >= child_hi:
                continue  # no instance reaches this subtree
            new_acc = _update_power(p, acc, old_comp, _dist_raw(x[f], child_lo, child_hi))
            if new_acc > prune_budget:
                continue  # the cost only grows deeper down
            stack.append((child, new_acc, depth, f, (child_lo, child_hi)))
    return out


def _check_tree_args(
    tree: DecisionTree, p: NormOrder, k: float, x: Sequence[float], y: int
) -> tuple[NormOrder, float]:
    p, k = check_norm_order(p), _check_budget(k)
    _check_width(x, (tree,))
    _check_instance(x, y)
    return p, k


def reachable(
    tree: DecisionTree, p: NormOrder, k: float, x: Sequence[float], y: int
) -> frozenset[float]:
    """Norms of the minimal perturbations reaching each wrong-label leaf.

    A leaf labelled differently from ``y`` contributes the L_p norm of the
    cheapest perturbation pushing ``x`` into it, provided that norm does not
    exceed ``k`` (ties at exactly ``k`` count as reachable).  An empty result
    means no in-budget perturbation can make the tree output a wrong label.
    """
    p, k = _check_tree_args(tree, p, k, x, y)
    return frozenset(power_to_norm(c, p) for c in _wrong_leaf_costs(tree, p, k, x, y))


def robust_tree(tree: DecisionTree, p: NormOrder, k: float, x: Sequence[float], y: int) -> bool:
    """True iff the tree predicts ``y`` on ``x`` and no wrong leaf is reachable."""
    p, k = _check_tree_args(tree, p, k, x, y)
    if _tree_labels((tree,), x)[0] != y:
        return False
    return not _wrong_leaf_costs(tree, p, k, x, y)


def _live_trees(ensemble: Ensemble, x: Sequence[float], w: float) -> set[int]:
    """Trees with a threshold in ``[x[f] - w, x[f] + w]`` on some feature f."""
    live: set[int] = set()
    for f, thresholds, owners in ensemble._index:
        xf = x[f]
        i = bisect_left(thresholds, xf - w)
        j = bisect_right(thresholds, xf + w, i)
        if i < j:  # most windows are empty
            live.update(owners[i:j])
    return live


def _stability(
    ensemble: Ensemble, p: NormOrder, k: float, x: Sequence[float], labels: Sequence[int], y: int
) -> tuple[bool, Optional[float]]:
    """(stable w.r.t. label y, composed attack norm when unstable).

    ``labels`` holds each tree's vote on ``x``.  A tree voting wrong already
    costs 0: its own leaf's box holds ``x``.  A tree voting ``y`` changes its
    vote only if ``x + delta`` crosses one of its splits, and with p >= 1
    every in-budget delta has ``|delta_f| <= k``, so only a tree with a
    threshold within ``k`` of ``x`` on some feature (a live tree) can; the
    others need no traversal.
    """
    # p >= 1 here, so the spread is the stored gap (and k = 0 needs gap > 0).
    if not ensemble._min_gap > 2.0 * k:
        raise NotLargeSpreadError(ensemble._min_gap, 2.0 * k)
    need = _majority_size(ensemble.trees)
    minima = [0.0] * (len(labels) - labels.count(y))
    # The slack keeps rounding, of x[f] -+ k and of the costs the traversal
    # compares with the budget, from dropping a tree the traversal would
    # reach; a wider window only adds traversals that find nothing.
    live = [i for i in _live_trees(ensemble, x, k * _PRUNE_SLACK) if labels[i] == y]
    if len(minima) + len(live) < need:
        return True, None
    for i in live:
        costs = _wrong_leaf_costs(ensemble.trees[i], p, k, x, y)
        if costs:
            minima.append(min(costs))
    if len(minima) < need:
        return True, None
    minima.sort()
    composed = power_total(minima[:need], p)
    if composed <= norm_to_power(k, p):
        return False, power_to_norm(composed, p)
    return True, None


def robust_ensemble(
    ensemble: Ensemble, p: NormOrder, k: float, x: Sequence[float], y: int
) -> VerificationVerdict:
    """Full verdict: prediction, stability, robustness and the attack norm.

    Stability is judged against the ensemble's own prediction; robustness
    additionally requires that prediction to equal ``y``.
    """
    p, k = _check_attacker(p, k)
    _check_dimensionality(x, ensemble)
    _check_instance(x, y)
    labels = _tree_labels(ensemble.trees, x)
    predicted = _majority(labels)
    stable, attack_norm = _stability(ensemble, p, k, x, labels, predicted)
    return VerificationVerdict(
        robust=(predicted == y) and stable,
        stable=stable,
        predicted=predicted,
        min_attack_norm=attack_norm,
    )


def robustness_score(ensemble: Ensemble, p: NormOrder, k: float, testset) -> float:
    """Fraction of test instances on which the ensemble is robust."""
    if len(testset) == 0:
        raise ValueError("robustness over an empty test set is undefined")
    robust = sum(robust_ensemble(ensemble, p, k, x, y).robust for x, y in testset.rows())
    return robust / len(testset)
