"""Copeland dueling bandit workbench.

Library plus CLI for Copeland dueling bandits: preference matrices and
their Copeland statistics, divergence constraint families over
exploration rates, exact and closed-form regret constants, the cw/ecw
regret-minimizing pair-selection algorithms, and a reproducible
Monte-Carlo harness with bundled benchmark matrices.
"""

from .bandit import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    AlgorithmConfig,
    RmedState,
    random_baseline_select,
    select_pair,
    update_and_plan,
)
from .constraints import (
    ConstraintFamily,
    RateVector,
    check_feasible,
    cw_constraints,
    ecw_constraints,
)
from .core import (
    BUILTIN_DATASETS,
    CopelandSummary,
    PreferenceMatrix,
    builtin_dataset,
    copeland_summary,
    gap_divergence,
    kl_bernoulli,
    load_matrix,
    matrix_to_csv,
    regret_per_pair,
    regret_table,
    sample_submatrix,
    save_matrix,
)
from .errors import (
    DomainError,
    DuelbenchError,
    ExhaustedRejectionsError,
    InternalInconsistencyError,
    NotAWinnerError,
    NumericalInstabilityError,
    ParseError,
    TiedPreferenceError,
    TooLargeError,
    TraceIOError,
    UnknownDatasetError,
    ValidationError,
)
from .harness import (
    RegretTrace,
    checkpoint_grid,
    read_trace,
    simulate,
    simulate_batch,
    split_seed,
    trace_filename,
    write_trace,
)
from .solvers import (
    OptimalExploration,
    SubproblemInstance,
    ccb_bound,
    ecw_constant,
    ecw_explicit_bound,
    ecw_optimal,
    ecw_worstcase_bound,
    lower_bound,
    lp_cw_optimal,
    simplex_solve,
    solve_subproblem,
)

__version__ = "0.1.0"
