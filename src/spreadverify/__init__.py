"""Large-spread decision-tree ensembles: training and fast robustness checks.

Train majority-voting tree ensembles whose cross-tree thresholds are spread
more than twice the attacker's perturbation budget apart, verify their
robustness against L_p-norm evasion in near-linear time, and certify the
fast verifier against exhaustive brute-force oracles on small instances.
"""

from .core import (
    CapacityError,
    DecisionTree,
    Ensemble,
    Leaf,
    Node,
    NormOrder,
    Split,
    SpreadVerifyError,
    is_large_spread,
    iter_splits,
    norm,
    oplus,
    predict_ensemble,
    predict_tree,
    spread,
    update_norm,
)
from .gadget import Graph, clique_exists, graph_to_ensemble, parse_graph
from .oracle import (
    AttackWitness,
    exact_robust,
    exists_large_spread_subset,
    leaf_regions,
    minimal_attack,
    minimal_joint_attack,
    split_attack,
)
from .trainer import (
    Dataset,
    TrainConfig,
    fix_forest,
    get_best_tree,
    train_large_spread,
    train_random_forest,
)
from .verifier import (
    NotLargeSpreadError,
    VerificationVerdict,
    reachable,
    robust_ensemble,
    robust_tree,
    robustness_score,
)

__version__ = "0.7.0"

__all__ = [
    "AttackWitness",
    "CapacityError",
    "Dataset",
    "DecisionTree",
    "Ensemble",
    "Graph",
    "Leaf",
    "Node",
    "NormOrder",
    "NotLargeSpreadError",
    "Split",
    "SpreadVerifyError",
    "TrainConfig",
    "VerificationVerdict",
    "clique_exists",
    "exact_robust",
    "exists_large_spread_subset",
    "fix_forest",
    "get_best_tree",
    "graph_to_ensemble",
    "is_large_spread",
    "iter_splits",
    "leaf_regions",
    "minimal_attack",
    "minimal_joint_attack",
    "norm",
    "oplus",
    "parse_graph",
    "predict_ensemble",
    "predict_tree",
    "reachable",
    "robust_ensemble",
    "robust_tree",
    "robustness_score",
    "spread",
    "split_attack",
    "train_large_spread",
    "train_random_forest",
    "update_norm",
    "__version__",
]
