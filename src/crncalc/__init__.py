"""Compile arithmetic into mass-action networks and verify that the
computed concentrations converge at the designed exponential speed.

The package exports what its scripts, its acceptance suite and the README
example use; everything else is imported from its submodule."""

from .crn import Species, collect_network, mass_action
from .gates import SpeciesNamer, gate_fragment_network, make_gate
from .circuit import compile_expression, encode_dual_rail, predict_speed
from .simulate import (ForcedSystem, SimConfig, closed_form_reference,
                       designed_inversion_network, double_identification_network,
                       integrate_network, naive_inversion_network, parse_forcing,
                       simulate_forced, simulate_program)
from .rates import (NotConvergedError, Pipeline, auto_err_floor, check_speed,
                    digits_time, estimate_rate, forced_prediction, growth_log_rate)

__version__ = "0.1.0"
