"""Spectral toolkit for 1-D dispersive models: periodic spectral substrate,
operator library, norm functionals, exact linear groups with an
integrating-factor stepper, conservation-law diagnostics, and a numerical
verification harness for weighted-norm estimates."""

from .spectral import (
    Field,
    Grid,
    apply_multiplier,
    boundary_gate,
    integrate,
)
from .operators import (
    bessel_potential,
    derivative,
    gamma_airy,
    gamma_bo,
    gamma_schrodinger,
    gamma_t_min,
    hilbert,
    lp_block,
    lp_block_range,
    lp_linf_l1,
    riesz_deriv,
    stein_deriv,
    stein_l2_norm,
)
from .norms import ap_constant, lebesgue, power_weight, sobolev, weighted_l2
from .propagators import (
    CFLWarning,
    EquationSpec,
    StepperConfig,
    Trajectory,
    evolve,
    linear_group,
)
from .laws import invariant_report, invariants, kato_residual, moment, standard_diagnostics
from .corpus import Corpus, CorpusMember, DEFAULT_SEED
from .checks import CHECKS, CheckReport, persistence_experiment, run_check

__version__ = "0.1.0"
