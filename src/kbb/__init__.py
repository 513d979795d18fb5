"""Policy evaluation for Markov reward processes.

Exact value iteration, fitted value iteration, and Krylov-Bellman boosting
over five benchmark model families, with dense tabular oracles and
diagnostics for the method's structural invariants.
"""

__version__ = "0.1.0"

from .algorithms import IterationBudget, run_fvi, run_kbb, run_vi
from .diagnostics import (
    QOperator,
    SpectralPair,
    check_theorem1_rate,
    krylov_basis,
    krylov_projection_solution,
    oracle_kbb,
    q_inner,
    restricted_spectral_values,
)
from .envs import (
    ArchModel,
    Dataset,
    DrawMode,
    LqrModel,
    NonlinearModel,
    arch_true_value,
    lqr_true_value,
    make_arch,
    make_circular_walk,
    make_lqr,
    make_nonlinear,
    make_random_tabular,
    nonlinear_true_value,
    sample_transitions,
    true_value,
)
from .lstd import BasisSet, LstdSolution, lstd_solve_population
from .mrp import (
    Distribution,
    TabularModel,
    bellman_apply,
    bellman_residual,
    is_reversible,
    mu_norm,
    solve_exact,
    stationary_distribution,
)
from .records import RunRecord, RunRow
from .regression import RegressorConfig, fit
from .values import (
    ConstantValueFn,
    QuadraticValueFn,
    ScaledValueFn,
    StateValueFn,
    TableValueFn,
)
