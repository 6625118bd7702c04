"""Domain types and numeric primitives for tree-ensemble robustness checking.

This module holds the immutable model types (trees, ensembles), the
minimal-perturbation distance into a ``(lo, hi]`` bound, L_p norm machinery
(including the power-domain helpers shared by the fast verifier and the
brute-force oracle so both sides compute bit-identical costs), and the
cross-tree threshold-spread metric that makes compositional verification
sound.

It also holds the one input policy that every public entry point applies:
``_as_int``, ``_as_float``, ``_as_count`` and ``_as_label`` refuse strings
and bools with TypeError (NumPy scalars pass); :func:`check_norm_order`,
``_check_budget`` (k >= 0), ``_check_attacker`` (p >= 1 or inf, k >= 0),
``_check_instance`` (finite coordinates, a label in {-1, +1}),
``_check_width``, ``_check_dimensionality`` (x fits the trees),
``_as_finite`` and ``_as_norm`` (finite and >= 0, for the norm helpers)
refuse out-of-range values with ValueError; prediction refuses non-finite
coordinates the same way.  Nothing is coerced.  Only the power-domain
helpers of the verifier's inner loop take their arguments unchecked.

All types are immutable after construction and all functions are pure, so
everything here is safe for unrestricted concurrent use.  ``Leaf`` and
``Split`` are slotted, and a node is exactly a ``Leaf`` or a ``Split``:
subclasses are refused as children and as roots, so every walker tests
``type(node) is Split`` (or ``Leaf``), the cheapest test per node.  A tree
keeps its preorder (a ``(feature, threshold)`` pair per split, a label per
leaf) and compares and hashes by it; ``Split`` compares, hashes and prints
through the same iterative walk, so none of these recurses.  An
:class:`Ensemble` keeps ``_feature_index`` of its splits, each feature's
sorted thresholds with the tree owning each, which the verifier bisects to
find the trees within reach of an instance, and the minimum cross-tree gap
behind :func:`spread`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from math import fsum, inf, isfinite, nextafter
from typing import Iterable, Iterator, Mapping, Sequence, Union

__all__ = [
    "SpreadVerifyError",
    "CapacityError",
    "NormOrder",
    "check_norm_order",
    "Leaf",
    "Split",
    "Node",
    "DecisionTree",
    "Ensemble",
    "iter_splits",
    "predict_tree",
    "predict_ensemble",
    "norm",
    "update_norm",
    "oplus",
    "spread",
    "is_large_spread",
]


class SpreadVerifyError(Exception):
    """Base class for errors raised by this package."""


class CapacityError(SpreadVerifyError):
    """An exhaustive search would exceed its size bound."""


# ---------------------------------------------------------------------------
# Input policy: norm orders, numbers, budgets, instances and labels
# ---------------------------------------------------------------------------

#: A norm order is 0, a positive integer, or math.inf.
NormOrder = Union[int, float]


def check_norm_order(p: NormOrder) -> NormOrder:
    """Validate and normalize a norm order.

    Accepts 0, any positive integer (including numpy integers), or
    ``math.inf``; returns the canonical ``int`` / ``math.inf`` form.
    """
    if p == inf:
        return inf
    if isinstance(p, numbers.Integral) and not isinstance(p, bool) and p >= 0:
        return int(p)
    raise ValueError(f"norm order must be 0, a positive integer or inf, got {p!r}")


# The exact-type tests come first: building a large model runs these once per
# node, and the numbers ABC checks alone are measurably slower.
def _as_int(value, what: str) -> int:
    if type(value) is int:
        return value
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise TypeError(f"{what} must be an integer, got {value!r}")


def _as_float(value, what: str) -> float:
    if type(value) is float:
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise TypeError(f"{what} must be a real number, got {value!r}")


def _as_finite(value, what: str) -> float:
    v = _as_float(value, what)
    if not isfinite(v):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return v


def _as_norm(value, what: str) -> float:
    v = _as_finite(value, what)
    if v < 0.0:
        raise ValueError(f"{what} must be >= 0, got {value!r}")
    return v


def _as_count(value, what: str) -> int:
    # A count or an index: an integer >= 0.
    n = _as_int(value, what)
    if n < 0:
        raise ValueError(f"{what} must be >= 0, got {value!r}")
    return n


def _as_label(value, what: str) -> int:
    label = _as_int(value, what)
    if label not in (-1, 1):
        raise ValueError(f"{what} must be +1 or -1, got {value!r}")
    return label


def _check_budget(k: float) -> float:
    k = _as_float(k, "perturbation budget")
    if not k >= 0.0:  # also refuses NaN
        raise ValueError(f"perturbation budget must be >= 0, got {k!r}")
    return k


def _check_attacker(p: NormOrder, k: float) -> tuple[NormOrder, float]:
    """The attacker an ensemble result holds for: p >= 1 or inf, budget k >= 0."""
    p, k = check_norm_order(p), _check_budget(k)
    if p == 0:
        raise ValueError("ensemble attackers need p >= 1 or inf, not p = 0")
    return p, k


def _check_finite(x: Sequence[float]) -> None:
    # A NaN makes every distance NaN, so wrong leaves would silently drop out
    # of the comparisons against the budget; refuse such instances instead.
    if not all(map(isfinite, x)):
        raise ValueError("instance coordinates must be finite")


def _check_instance(x: Sequence[float], y: int) -> None:
    _check_finite(x)
    _as_label(y, "label")


def _check_width(x: Sequence[float], trees: Iterable["DecisionTree"]) -> None:
    needed = max((t.max_feature for t in trees), default=-1)
    if needed >= len(x):
        raise ValueError(f"instance has {len(x)} features but a tree tests feature {needed}")


def _check_dimensionality(x: Sequence[float], ensemble: "Ensemble") -> None:
    # Every tree of an Ensemble tests features below its dimensionality, so
    # this length check covers the width of each descent.
    if len(x) != ensemble.dimensionality:
        raise ValueError(
            f"instance has {len(x)} features, ensemble expects {ensemble.dimensionality}"
        )


# ---------------------------------------------------------------------------
# Trees and ensembles
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Leaf:
    label: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "label", _as_label(self.label, "leaf label"))


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Split:
    feature: int
    threshold: float
    left: "Node"
    right: "Node"

    def __post_init__(self) -> None:
        feature = _as_count(self.feature, "feature index")
        threshold = _as_finite(self.threshold, "threshold")
        for child in (self.left, self.right):
            if type(child) is not Leaf and type(child) is not Split:
                raise TypeError(f"child nodes must be Leaf or Split, got {child!r}")
        object.__setattr__(self, "feature", feature)
        object.__setattr__(self, "threshold", threshold)

    # ==, hash and repr walk the subtree on an explicit stack, so any depth
    # fits; they agree with what the dataclass would generate.
    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self is other or _walk(self)[0] == _walk(other)[0]

    def __hash__(self) -> int:
        return hash(_walk(self)[0])

    def __repr__(self) -> str:
        parts, stack = [], [self]
        while stack:
            node = stack.pop()
            if type(node) is str:
                parts.append(node)
            elif type(node) is Leaf:
                parts.append(repr(node))
            else:
                parts.append(
                    f"{type(node).__qualname__}(feature={node.feature!r}, "
                    f"threshold={node.threshold!r}, left="
                )
                stack += (")", node.right, ", right=", node.left)
        return "".join(parts)


Node = Union[Leaf, Split]


def _walk(root: Node) -> tuple[tuple[Union[tuple[int, float], int], ...], int]:
    """The preorder under ``root`` and its largest feature (-1 for a leaf).

    The preorder holds a ``(feature, threshold)`` pair per split and a label
    per leaf.  An explicit stack, so any depth fits.
    """
    preorder, max_feature, stack = [], -1, [root]
    while stack:
        node = stack.pop()
        if type(node) is Leaf:
            preorder.append(node.label)
        else:
            preorder.append((node.feature, node.threshold))
            if node.feature > max_feature:
                max_feature = node.feature
            stack.append(node.right)
            stack.append(node.left)
    return tuple(preorder), max_feature


@dataclass(frozen=True)
class DecisionTree:
    """Binary threshold tree over real features with labels in {+1, -1}.

    An instance descends left when ``x[feature] <= threshold`` and right
    otherwise.
    """

    root: Node = field(compare=False)
    node_count: int = field(init=False, compare=False)
    max_feature: int = field(init=False, compare=False)
    # The tree in preorder, a (feature, threshold) pair per split and a label
    # per leaf: the one flat form, which == and hash compare without recursion.
    _preorder: tuple[Union[tuple[int, float], int], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        root = self.root
        if type(root) is not Leaf and type(root) is not Split:
            raise TypeError(f"tree root must be Leaf or Split, got {root!r}")
        preorder, max_feature = _walk(root)
        object.__setattr__(self, "_preorder", preorder)
        object.__setattr__(self, "node_count", len(preorder))
        object.__setattr__(self, "max_feature", max_feature)


@dataclass(frozen=True)
class Ensemble:
    """Majority-voted tree ensemble; the number of trees must be odd."""

    trees: tuple[DecisionTree, ...]
    dimensionality: int
    # Smallest same-feature threshold gap between two distinct trees, which
    # spread, is_large_spread and the verifier read instead of rescanning
    # every tree.
    _min_gap: float = field(init=False, compare=False, repr=False)
    # Per tested feature, (feature, sorted thresholds, owning tree of each):
    # the verifier bisects it for the trees with a threshold near x.
    _index: tuple[tuple[int, tuple[float, ...], tuple[int, ...]], ...] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        trees = tuple(self.trees)
        d = _as_count(self.dimensionality, "dimensionality")
        if len(trees) % 2 == 0 or not trees:
            raise ValueError(f"ensemble needs an odd number of trees, got {len(trees)}")
        for i, t in enumerate(trees):
            if not isinstance(t, DecisionTree):
                raise TypeError(f"tree {i} is not a DecisionTree")
            if t.max_feature >= d:
                raise ValueError(
                    f"tree {i} tests feature {t.max_feature}, but dimensionality is {d}"
                )
        object.__setattr__(self, "trees", trees)
        object.__setattr__(self, "dimensionality", d)
        index = _feature_index(_flat_splits(trees))
        object.__setattr__(self, "_min_gap", _min_gap(index))
        object.__setattr__(self, "_index", tuple((f, *entry) for f, entry in index.items()))

    @property
    def num_trees(self) -> int:
        return len(self.trees)

    @property
    def node_count(self) -> int:
        return sum(t.node_count for t in self.trees)


def _tree_sequence(trees: "Ensemble | Sequence[DecisionTree]") -> tuple[DecisionTree, ...]:
    """Normalize an Ensemble or a plain tree sequence to a tuple of trees.

    Spread-style metrics are meaningful for tree collections of any size
    (including even ones), which a voting Ensemble deliberately rejects.
    """
    if isinstance(trees, Ensemble):
        return trees.trees
    out = tuple(trees)
    for t in out:
        if not isinstance(t, DecisionTree):
            raise TypeError("expected DecisionTree instances")
    return out


def iter_splits(tree: DecisionTree) -> Iterator[Split]:
    """Yield the internal nodes of a tree in preorder."""
    stack = [tree.root]
    while stack:
        cur = stack.pop()
        if type(cur) is Split:
            yield cur
            stack.append(cur.right)
            stack.append(cur.left)


def _tree_labels(trees: Iterable[DecisionTree], x: Sequence[float]) -> list[int]:
    # The one descent loop; callers have checked x's width and finiteness.
    labels = []
    for tree in trees:
        node = tree.root
        while type(node) is Split:
            node = node.left if x[node.feature] <= node.threshold else node.right
        labels.append(node.label)
    return labels


def _majority(labels: Sequence[int]) -> int:
    # The one majority-vote rule over per-tree labels; an odd number of
    # trees cannot tie.
    return 1 if sum(labels) > 0 else -1


def _majority_size(trees: Sequence[DecisionTree]) -> int:
    # Wrong votes needed to flip _majority's answer.
    return len(trees) // 2 + 1


def predict_tree(tree: DecisionTree, x: Sequence[float]) -> int:
    """Label assigned to ``x`` by descending the tree (ties go left)."""
    _check_width(x, (tree,))
    _check_finite(x)
    return _tree_labels((tree,), x)[0]


def predict_ensemble(ensemble: Ensemble, x: Sequence[float]) -> int:
    """Majority vote over the individual tree predictions."""
    _check_dimensionality(x, ensemble)
    _check_finite(x)
    return _majority(_tree_labels(ensemble.trees, x))


# ---------------------------------------------------------------------------
# L_p norm machinery
# ---------------------------------------------------------------------------
#
# The verifier compares costs against the budget in the "power domain"
# (|delta|^p contributions, summed; plain |delta| for p=inf; 0/1 counts for
# p=0) so p-th roots are taken only when reporting.  fsum makes the
# aggregation correctly rounded and therefore order-independent, which keeps
# the optimized traversal and the naive per-leaf recomputation bit-identical.


def power_contrib(delta: float, p: NormOrder) -> float:
    """Per-component contribution of ``delta`` in the power domain."""
    if p == inf or p == 1:
        return abs(delta)
    if p == 0:
        return 0 if delta == 0.0 else 1
    return abs(delta) ** p


def power_total(contribs: Iterable[float], p: NormOrder) -> float:
    """Aggregate power-domain contributions (sum, max, or count)."""
    if p == inf:
        return max(contribs, default=0.0)
    return fsum(contribs)


def power_to_norm(value: float, p: NormOrder) -> float:
    """Convert a power-domain total (a float >= 0) back to an L_p norm."""
    if p == 0 or p == inf or p == 1:
        return value
    return value ** (1.0 / p)


def norm_to_power(value: float, p: NormOrder) -> float:
    """Convert an L_p norm (e.g. a budget) into the power domain."""
    if p == 0 or p == inf or p == 1:
        return value
    return value ** p


def _update_power(p: NormOrder, acc: float, old_comp: float, new_comp: float) -> float:
    # update_norm in the power domain, clamped at 0 against subtract-then-add drift.
    if p == inf:
        new = abs(new_comp)
        return acc if acc >= new else new
    base = acc - power_contrib(old_comp, p) + power_contrib(new_comp, p)
    return base if base > 0.0 else 0.0


def _dist_raw(x: float, lo: float, hi: float) -> float:
    """Signed minimal perturbation moving ``x`` into ``(lo, hi]`` (``lo < hi``).

    Returns 0 when ``x`` is already inside.  Pushing up must clear the open
    lower bound, so it lands on the float successor of ``lo``; pushing down
    lands exactly on the closed upper bound.  The magnitude is therefore
    minimal among float values whose addition lands inside.
    """
    if lo < x <= hi:
        return 0.0
    if x <= lo:
        return nextafter(lo, inf) - x
    return hi - x


def rect_cost_power(
    box: Mapping[int, tuple[float, float]], x: Sequence[float], p: NormOrder
) -> float:
    """Power-domain cost of moving ``x`` inside a hyper-rectangle.

    ``box`` maps each constrained feature to its ``(lo, hi)`` bounds, in any
    order: the aggregation (fsum, max or an integer count) does not depend
    on it.  Unconstrained features contribute nothing.
    """
    return power_total(
        (power_contrib(_dist_raw(x[f], lo, hi), p) for f, (lo, hi) in box.items()), p
    )


def norm(deltas: Sequence[float], p: NormOrder) -> float:
    """L_p norm of a perturbation vector (L0 counts nonzero components)."""
    p = check_norm_order(p)
    contribs = (power_contrib(_as_finite(d, "perturbation component"), p) for d in deltas)
    return power_to_norm(power_total(contribs, p), p)


def update_norm(p: NormOrder, delta_norm: float, old_comp: float, new_comp: float) -> float:
    """Norm of a vector after one component changes, in O(1).

    ``delta_norm`` must be the norm of the original vector whose affected
    component was ``old_comp``; ``new_comp`` is its replacement.  For p=inf
    this assumes ``|new_comp| >= |old_comp|``, which holds whenever the
    change comes from shrinking an interval constraint.
    """
    p, delta_norm = check_norm_order(p), _as_norm(delta_norm, "delta_norm")
    old_comp, new_comp = _as_finite(old_comp, "old_comp"), _as_finite(new_comp, "new_comp")
    return power_to_norm(_update_power(p, norm_to_power(delta_norm, p), old_comp, new_comp), p)


def oplus(norms: Sequence[float], p: NormOrder) -> float:
    """Norm of a sum of support-disjoint vectors, from their norms alone.

    L0 norms add, L_inf norms take the max, and finite p >= 1 combines as
    ``(sum norm^p)^(1/p)``.  Entries must be finite and >= 0.
    """
    p = check_norm_order(p)
    values = [_as_norm(v, "oplus entry") for v in norms]
    return power_to_norm(power_total((norm_to_power(v, p) for v in values), p), p)


# ---------------------------------------------------------------------------
# Threshold spread
# ---------------------------------------------------------------------------


def _flat_splits(trees: Sequence[DecisionTree]) -> list[tuple[int, float, int]]:
    """``(feature, threshold, tree index)`` of every split, tree-major preorder."""
    return [
        (*node, i)
        for i, tree in enumerate(trees)
        for node in tree._preorder
        if type(node) is tuple
    ]


def _feature_index(
    splits: Iterable[tuple[int, float, int]],
) -> dict[int, tuple[tuple[float, ...], tuple[int, ...]]]:
    """Each feature's thresholds in ascending order, and the tree owning each.

    ``splits`` holds ``(feature, threshold, tree index)`` triples.  Features
    keep their order of first use; equal thresholds are in tree order.
    """
    pairs: dict[int, list[tuple[float, int]]] = {}
    for feature, threshold, tree in splits:
        pairs.setdefault(feature, []).append((threshold, tree))
    return {f: tuple(zip(*sorted(entries))) for f, entries in pairs.items()}


def _min_gap(index: Mapping[int, tuple[Sequence[float], Sequence[int]]]) -> float:
    """Smallest same-feature gap between distinct trees over a feature index, or +inf."""
    # Per feature, the minimum is realized by some adjacent pair of the sorted
    # thresholds whose owners differ.
    best = inf
    for thresholds, owners in index.values():
        for v1, v2, i1, i2 in zip(thresholds, thresholds[1:], owners, owners[1:]):
            if i1 != i2 and v2 - v1 < best:
                best = v2 - v1
    return best


def _gap_of(trees: "Ensemble | Sequence[DecisionTree]") -> float:
    if isinstance(trees, Ensemble):
        return trees._min_gap
    return _min_gap(_feature_index(_flat_splits(_tree_sequence(trees))))


def spread(trees: "Ensemble | Sequence[DecisionTree]", p: NormOrder) -> float:
    """Minimum cross-tree distance between same-feature thresholds.

    The scalar distance is ``|a - b|`` for every p >= 1 and for p = inf; for
    p = 0 it is 1 when the thresholds differ and 0 otherwise.  Returns +inf
    when fewer than two trees are given or no feature is tested by two
    distinct trees.
    """
    p = check_norm_order(p)
    gap = _gap_of(trees)
    if p == 0 and 0.0 < gap < inf:
        return 1.0
    return gap


def is_large_spread(trees: "Ensemble | Sequence[DecisionTree]", p: NormOrder, k: float) -> bool:
    """True when the spread strictly exceeds twice the attack budget.

    With ``k == 0`` the condition degenerates to "no two distinct trees share
    an identical threshold on a common feature", which is norm-independent
    (distance 0 is never positive), so any p is accepted.  For ``k > 0`` the
    L0 scalar distance only takes values in {0, 1}, making the condition
    unsatisfiable for k >= 0.5 and meaningless in general; p = 0 is rejected.
    """
    p, k = check_norm_order(p), _check_budget(k)
    gap = _gap_of(trees)
    if p == 0 and k > 0.0:
        raise ValueError("large-spread verification is not defined for p=0 with k > 0")
    return gap > 2.0 * k
