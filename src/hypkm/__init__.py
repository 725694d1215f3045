"""Krasnoselskii-Mann iteration on hyperbolic spaces, with computable
rate bounds and a product-space approximate-fixed-point pipeline.

The modules split along the theory:

- ``spaces``: metric spaces with a convexity operator, plus an axiom checker
- ``km``: the map type, step-size schedules and the averaged iteration itself
- ``rates``: exact integer rate bounds for asymptotic regularity
- ``maps``: nonexpansive map catalogs for single and product spaces
- ``product_afpp``: approximate fixed pairs on products, with certificates
- ``uafpp``: displacement and regularity moduli, Banach contractions
- ``cli`` / ``acceptance``: the command line front end and its demo suite
"""

__version__ = "0.1.0"

from .errors import (
    ArgumentError,
    BudgetExhausted,
    ConfigError,
    DomainError,
    HypkmError,
    InvariantError,
    OracleError,
    ProbeContractError,
    RateOverflowError,
    ScheduleError,
    SelectionError,
)
from .spaces import (
    AxiomReport,
    BrokenW,
    CircleSpace,
    EuclideanSpace,
    FamilyProduct,
    HyperbolicSpace,
    IntervalSpace,
    PoincareDisk,
    Space,
    StarTree,
    check_axioms,
    make_box,
    make_circle,
    make_euclidean,
    make_half_line,
    make_interval,
    make_poincare_disk,
    make_real_line,
    make_star_tree,
    product,
)
from .km import (
    NonexpansiveMap,
    ResidualTrace,
    Schedule,
    constant_schedule,
    estimate_residual_inf,
    harmonic_schedule,
    km_iterate,
    km_orbit_end,
    require_valid_schedule,
    residuals_nonincreasing,
    tabulate_alpha,
    validate_schedule,
)
from .rates import (
    AlphaFn,
    alpha_double,
    alpha_hat,
    alpha_identity,
    alpha_plus,
    alpha_scale_ceil,
    alpha_table,
    alpha_tilde,
    as_fraction,
    ceil_exp_upper,
    describe_overflow,
    digit_count,
    rate_g,
    rate_g_tilde,
    rate_h,
    rate_h_tilde,
)
from .maps import (
    ProductMap,
    SelectionFunction,
    affine_map,
    clamped_drop,
    clamped_translation,
    constant_map,
    constant_pair,
    coupled_average,
    falsify_nonexpansive,
    family_drift,
    family_halving,
    identity_map,
    interval_affine,
    phi,
    scaled_coupling,
    slice_map,
    unit_drift,
)
from .product_afpp import (
    AfppOracle,
    AfppStep,
    Certificate,
    CertifiedRunResult,
    EXAMPLES,
    GridOracle,
    ProductExample,
    SolveResult,
    approx_fixed_pair,
    certified_run,
    check_family_invariance,
    check_uniform_displacement,
    estimate_product_residual_inf,
    family_product,
    make_certificate,
    solve_example,
    solve_product_afpp,
)
from .uafpp import (
    RegularityModulus,
    UafppModulus,
    banach_fixed_point,
    banach_orbit_bound,
    banach_ufpp_modulus,
    check_uafpp_empirically,
    gk_boundedness_check,
    km_witness,
    modulus_table,
    regularity_to_uafpp,
    uafpp_to_regularity,
)
