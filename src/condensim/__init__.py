"""condensim: condensing zero-range processes and their absorbed
simplex-diffusion scaling limit, with a verification harness."""

from .bumps import BumpFunction, standard_bumps
from .chain import (
    ChainSpec,
    chain_identity_residuals,
    dirichlet_matrix,
    harmonic_extensions,
    hitting_diagonal_min,
    superharmonic_radius,
    trace_rates,
    validate_chain,
)
from .config import RunConfig, __version__, config_hash, parse_config
from .diffusion import (
    DiffusionConfig,
    DiffusionEnsemble,
    simulate_diffusion_ensemble,
)
from .experiments import (
    SuperharmonicReport,
    HittingBoundCheck,
    compare_winner,
    ks_distance,
    martingale_residual,
    superharmonic_sign_check,
    hitting_bound_check,
    winner_distribution,
)
from .zrp import (
    ZrpConfig,
    ZrpEnsemble,
    simulate_zrp_ensemble,
    zrp_generator_apply,
)
