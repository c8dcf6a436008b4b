"""The ValueError of each public entry point on an input it rejects, one row
per raise, each matched on the value or cause its message names; and the
ValueError, naming the function or the field, of the functions that take
one field when they are given a block of rows."""

import numpy as np
import pytest

from dispersivelab.checks import persistence_experiment
from dispersivelab.laws import invariant_report, kato_residual, moment
from dispersivelab.norms import ap_constant, lebesgue, power_weight, weighted_l2
from dispersivelab.operators import (
    bessel_potential,
    derivative,
    gamma_airy,
    gamma_bo,
    gamma_schrodinger,
    lp_block,
    riesz_deriv,
    stein_deriv,
)
from dispersivelab.propagators import EquationSpec, StepperConfig, Trajectory, linear_group
from dispersivelab.spectral import Field, Grid, apply_multiplier

G = Grid(64, 10.0)
F = Field.from_function(G, lambda x: np.exp(-(x**2)))
BLOCK = Field(G, np.stack([F.values] * 3))  # a (3, 64) block of rows
G2_FIELD = Field.from_function(Grid(64, 12.0), lambda x: np.exp(-(x**2)))  # F on another cell


def _trajectory(times, grids):
    return Trajectory(EquationSpec.gkdv(), times, [Field(g, np.exp(-(g.x**2))) for g in grids])


CASES = {
    "weighted_l2_m": (lambda: weighted_l2(F, -1), "got m=-1"),
    "weighted_l2_m_nan": (lambda: weighted_l2(F, np.nan), "got m=nan"),
    "weighted_l2_m_inf": (lambda: weighted_l2(F, np.inf), "got m=inf"),
    "weighted_l2_overflow": (
        lambda: weighted_l2(F, 200),
        r"^the weight \|x\|\^\(2m\) overflows on the cell L=10, got m=200$",
    ),
    "weighted_l2_bracket_overflow": (
        lambda: weighted_l2(F, 200, bracket=True),
        r"^the weight <x>\^\(2m\) overflows on the cell L=10, got m=200$",
    ),
    "power_weight_overflow": (
        lambda: power_weight(G, 400),
        r"^the weight \|x\|\^alpha overflows on the cell L=10, got alpha=400$",
    ),
    "lebesgue_p_nan": (lambda: lebesgue(F, np.nan), "got p=nan"),
    "lebesgue_p_overflow": (lambda: lebesgue(2.0 * F, 1e15), "at the Lebesgue exponent p=1e"),
    "lebesgue_p_underflow": (lambda: lebesgue(0.5 * F, 1e15), "at the Lebesgue exponent p=1e"),
    "ap_constant_p": (lambda: ap_constant(F, 1.0), "got p=1.0"),
    "derivative_order": (lambda: derivative(F, -1), "got order=-1"),
    "moment_order": (lambda: moment(F, -1), "got j=-1"),
    "riesz_deriv_b": (lambda: riesz_deriv(F, np.nan), "got b=nan"),
    "riesz_deriv_overflow": (
        lambda: riesz_deriv(F, 1e15),
        r"^multiplier is not finite at xi=1.25664 \(index 4\); riesz_deriv overflows there at b=1e\+15$",
    ),
    "derivative_overflow": (
        lambda: derivative(F, 400),
        r"^multiplier is not finite at xi=5.96903 \(index 19\); derivative overflows there at order=400$",
    ),
    "stein_deriv_cell_overflow": (
        lambda: stein_deriv(Field(Grid(64, 1e-300), np.ones(64)), 0.5),
        r"^the square function overflows on the cell L=1e-300 at b=0.5$",
    ),
    "bessel_potential_s": (lambda: bessel_potential(F, np.nan), "got s=nan"),
    "stein_deriv_tail": (lambda: stein_deriv(F, 0.5, tail="x"), "unknown tail mode 'x'"),
    "stein_deriv_tail_overflow": (
        lambda: stein_deriv(F, 5e-324),
        r"^the square-function tail L\^\(-2b\)/b overflows at L=10, b=4.94066e-324$",
    ),
    "lp_block_N": (lambda: lp_block(F, 61), "N=61"),
    "lp_block_N_nan": (lambda: lp_block(F, np.nan), "got N=nan"),
    "lp_block_N_fraction": (lambda: lp_block(F, 2.5), "got N=2.5"),
    "gamma_schrodinger_b": (lambda: gamma_schrodinger(F, 0.5, 1.5), "got b=1.5"),
    "gamma_schrodinger_t": (lambda: gamma_schrodinger(F, np.nan, 0.5), "got t=nan"),
    "gamma_airy_t": (lambda: gamma_airy(F, np.nan), "got t=nan"),
    "gamma_bo_t": (lambda: gamma_bo(F, np.inf), "got t=inf"),
    "s_critical_gkdv": (lambda: EquationSpec.gkdv().s_critical, "defined for the NLS model"),
    "bo_factory_k": (lambda: EquationSpec.bo(k=2), "^k=2 is not read by the bo model$"),
    "trajectory_lengths": (
        lambda: Trajectory(EquationSpec.gkdv(), [0.0, 0.1], [F]),
        "times and snapshots must have the same length",
    ),
    "trajectory_grids": (
        lambda: _trajectory([0.0, 0.1], [G, Grid(64, 12.0)]),
        "all snapshots must share one grid",
    ),
    "field_shape": (lambda: Field(G, np.ones(3)), r"expected 64 samples, got shape \(3,\)"),
    "multiplier_length": (
        lambda: apply_multiplier(F, np.ones(3)),
        r"multiplier must have 64 values, got shape \(3,\)",
    ),
    "multiplier_no_rows": (
        lambda: apply_multiplier(F, np.ones((0, 64))),
        r"multiplier must have 64 values, got shape \(0, 64\)",
    ),
    "multiplier_stack": (
        lambda: apply_multiplier(F, np.ones((2, 64))),
        r"multiplier must have 64 values, got shape \(2, 64\)",
    ),
    "linear_group_t_per_frequency": (
        lambda: linear_group(F, EquationSpec.gkdv(), np.zeros(64)),
        r"linear_group takes one time, got t of shape \(64,\)",
    ),
    "linear_group_t_list": (
        lambda: linear_group(F, EquationSpec.bo(), [0.0, 0.1, 0.2]),
        r"linear_group takes one time, got t of shape \(3,\)",
    ),
    "linear_group_t_column": (
        lambda: linear_group(BLOCK, EquationSpec.nls(), np.zeros((3, 1))),
        r"linear_group takes one time, got t of shape \(3, 1\)",
    ),
    "stepper_dt_inf": (lambda: StepperConfig(dt=np.inf), "got dt=inf"),
    "stepper_dt_nan": (lambda: StepperConfig(dt=np.nan), "got dt=nan"),
    "stepper_dt_zero": (lambda: StepperConfig(dt=0.0), "got dt=0.0"),
    "kato_residual_spacing": (
        lambda: kato_residual(_trajectory([0.0, 0.1, 0.3], [G] * 3), F),
        "snapshots must be uniformly spaced in time",
    ),
    "kato_residual_grid": (
        lambda: kato_residual(_trajectory([0.0, 0.1, 0.2], [G] * 3), G2_FIELD),
        r"the weight phi is on Grid\(n=64, length=12.0\), "
        r"the trajectory on Grid\(n=64, length=10.0\)",
    ),
    "kato_residual_model": (
        lambda: kato_residual(Trajectory(EquationSpec.bo(), [0.0, 0.1, 0.2], [F] * 3), F),
        "^the weighted-energy identity is gKdV's, not bo's$",
    ),
    "kato_residual_complex_phi": (
        lambda: kato_residual(_trajectory([0.0, 0.1, 0.2], [G] * 3), F * (1 + 0.5j)),
        "the weight phi of the weighted-energy identity requires a real field",
    ),
    "field_grids": (
        lambda: F + G2_FIELD,
        r"fields on two grids do not combine: "
        r"Grid\(n=64, length=10.0\) and Grid\(n=64, length=12.0\)",
    ),
    "field_grids_n": (
        lambda: F * Field.from_function(Grid(128, 10.0), np.cos),
        r"fields on two grids do not combine: "
        r"Grid\(n=64, length=10.0\) and Grid\(n=128, length=10.0\)",
    ),
    "invariant_report_no_snapshots": (
        lambda: invariant_report(Trajectory(EquationSpec.nls(), [], [])),
        "^invariant_report needs a snapshot, and the trajectory has none$",
    ),
    "invariant_report_failed_run": (
        lambda: invariant_report(Trajectory(EquationSpec.nls(), [], [], failure_time=0.01)),
        "^invariant_report needs a snapshot, and the trajectory has none: "
        "its run failed at t=0.01$",
    ),
}


@pytest.mark.parametrize("call, match", CASES.values(), ids=CASES.keys())
def test_public_raise_names_its_cause(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# each public function that takes one field as a weight, or one initial
# datum into a report, called on BLOCK; every other function of a field acts
# on a block row by row (tests/test_blocks.py)
REDUCERS = {
    "kato_residual": lambda: kato_residual(_trajectory([0.0, 0.1, 0.2], [G] * 3), BLOCK),
    "ap_constant": lambda: ap_constant(BLOCK, 2.0),
    "the persistence initial data": lambda: persistence_experiment(
        EquationSpec.nls(), BLOCK, 1.0, 1.0, 0.01
    ),
}


@pytest.mark.parametrize("name, call", REDUCERS.items(), ids=REDUCERS.keys())
def test_reducer_rejects_a_block(name, call):
    with pytest.raises(ValueError, match=rf"^{name} takes one field, got a block of shape \(3, 64\)$"):
        call()
