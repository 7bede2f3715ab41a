"""Design and evaluation of finite-copy entanglement certification experiments.

Exact outcome distributions of correlation-based witnesses, worst-case
separability bounds, Frequentist/Bayesian test evaluation, and copy-budget
planning.
"""

from .acceptance import AcceptanceSet, snap_to_grid
from .errors import (
    DomainError,
    EntcertError,
    InfeasibleError,
    SchemaError,
    UndefinedOutcomeError,
)
from .finite_stats import CorrelationSetting, correlation_moments, squared_correlation_moments
from .inference import (
    PriorPair,
    TestReport,
    bayes_acceptance_set,
    build_test_report,
    confidence,
    expected_loss_bound,
    max_power_acceptance_set,
    neyman_pearson_test,
    posterior_lower_bound,
    posterior_map,
    power,
    power_ceiling,
)
from .planner import (
    Plan,
    PlanEvaluator,
    PlanSpec,
    enumerate_allocations,
    equal_split_sweep,
    family_signs,
    optimize_plan,
    rank_allocations,
    witness_for,
)
from .pmf import OutcomePmf, as_fraction, format_fraction, round_fraction
from .simulate import (
    ChiSquareResult,
    SimulationConfig,
    chi_square_compare,
    simulate_mixture_witness,
    simulate_witness,
)
from .states import (
    EntangledStateModel,
    TruncatedGaussianPrior,
    entanglement_threshold,
    mixture_witness_pmf,
    natural_prior,
    white_noise_success_probability,
)
from .witnesses import (
    LinearWitness,
    QuadraticWitness,
    Witness,
    WitnessGrid,
    correlation_pmf,
    squared_correlation_pmf,
    witness_grid,
    witness_moments,
    witness_pmf,
)
from .worst_case import SearchOptions, WorstCaseProblem, WorstCaseResult

__version__ = "0.1.0"
