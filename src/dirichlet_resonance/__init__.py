"""Resonance-method experiments for Dirichlet L-functions and their
logarithmic derivatives: exact character arithmetic mod a prime, resonator
sums, explicit constants, and a verification harness.
"""

from .arithmetic import (
    DiscreteLogTable,
    PrecisionError,
    PrimeTable,
    build_dlog,
    enumerate_smooth,
    harmonic,
    is_prime,
    mertens_product,
    prime_power_tail_constant,
    primitive_root,
    sieve_primes,
)
from .characters import (
    Character,
    CharacterGroup,
    eligible,
    orthogonality_sum,
)
from .constants import (
    AdmissibleRange,
    binomial_beta_identity_check,
    joint_l_line_constant,
    joint_l_strip_constant,
    joint_logderiv_line_constant,
    joint_logderiv_strip_constant,
    max_ell_for_sigma,
    resonator_mass_integral,
    strip_l_admissible_range,
    strip_logderiv_admissible_range,
    strip_logderiv_poly_params,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    OracleComparison,
    SweepResult,
    TheoremReport,
    default_x,
    oracle_comparison,
    run_theorem,
    run_verification,
    sweep,
)
from .lfunctions import (
    EULER_GAMMA,
    LValue,
    NearZeroLValue,
    digamma,
    exact_l,
    exact_logderiv,
    hurwitz_zeta,
    joint_l_product,
    joint_logderiv_product,
    logderiv_poly,
    truncated_l,
)
from .resonator import (
    CongruenceS1,
    LinearKernel,
    SigmaKernel,
    bound_l_product,
    bound_logderiv_product,
    bound_prime_sum,
    p_j,
    resonator_sq,
    s1,
    s1_congruence_oracle,
)

__version__ = "0.1.0"
