"""Desk-scale laboratory for learning with local membership queries.

Learners may only touch their target through an OracleSession, which
draws natural examples from the distribution and answers membership
queries within Hamming distance r of a drawn example. Everything a
learner estimates by sampling is re-checkable against exact brute-force
oracles at small dimension; those live in `verify`.
"""

from .distributions import Distribution, conditional_marginal, exact_event_prob_masked, verify_smoothness
from .errors import (
    AuditLogError,
    BudgetExceededError,
    CodeConstructionError,
    ContractViolation,
    EnumerationLimitError,
    LocalityError,
    SimulationError,
    ZeroMassError,
)
from .fourier import (
    MONOMIAL_01,
    UNIFORM_PM,
    FourierSpectrum,
    ProductBasis,
    estimate_restriction,
    exact_transform,
    l2_test,
    nonzero_test,
)
from .learners import (
    LearnOutcome,
    LearnerConfig,
    constrained_regression,
    default_params_sparse,
    learn_dnf,
    learn_logdepth_tree,
    learn_sparse_poly,
    learn_tree_product,
    learn_tree_uniform,
)
from .noise import NoiseWrapper, eta_grid_search, noisy_l2_estimate, noisy_nonzero_test, rcn_collision_prob
from .oracles import AuditSummary, OracleSession
from .reduction import (
    EmbeddedFunction,
    LinearCode,
    ReductionSimulator,
    build_code,
    correlation_check,
    embed,
)
from .separation import PrfTarget, learn_g_onelocal, pac_baseline
from .targets import (
    DecisionTree,
    DnfFormula,
    Internal,
    Leaf,
    PLUS_MINUS,
    SparsePolynomial,
    ZERO_ONE,
    target_from_json,
    target_to_json,
    tree_to_polynomial,
)
from .verify import VerifierOracle, run_lemma_suite

__version__ = "0.1.0"
