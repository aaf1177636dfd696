"""argmine: learning defeasible arguments from tabular data.

The package mines small rules with exceptions from weighted case models
built out of discretized data rows, and compares three learners (a
coherence-pruned systematic search, a greedy ordered rule-list learner,
and a CART decision tree) over one shared discretization, prediction and
evaluation pipeline.
"""

from .case_model import (
    Argument,
    Case,
    CaseModel,
    Literal,
    build_case_model,
    is_presumptively_valid,
    literals,
)
from .dectree import TreeNode, TreeParams, gini, learn_tree, tree_to_rules, tune_tree
from .discretize import (
    BinningScheme,
    DiscretizationParams,
    apply_scheme,
    dbscan_1d,
    equal_depth_bins,
    equal_width_bins,
    kmeans_1d,
    optimize_scheme,
    silhouette,
)
from .hero import Rule, RuleList, learn_hero, learn_hero_multi
from .inference import (
    EvalReport,
    detect_self_attack,
    evaluate,
    predict_rule_list,
    predict_theory,
)
from .pipeline import ExperimentConfig, load_csv, run_experiment, run_grid, split
from .pruned_search import (
    SearchConfig,
    Theory,
    find_exceptions,
    learn_pruned,
    search_arguments,
)

__version__ = "0.1.0"
