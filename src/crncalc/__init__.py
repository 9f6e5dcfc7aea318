"""Compile arithmetic into mass-action networks and verify that the
computed concentrations converge at the designed exponential speed."""

from .crn import (AdmissibilityReport, Complex, FormatError, Monomial,
                  PolynomialField, Reaction, ReactionNetwork, Species,
                  check_admissible, collect_network, derive_ode,
                  evaluate_field, format_network, format_polynomial,
                  parse_network)
from .gates import (GATE_TAGS, DomainError, GateInstance, GateKind,
                    SpeciesNamer, SpeedBound, catalogue, gate_fragment_network,
                    gate_speed_bound, gate_target, make_gate)
from .circuit import (Circuit, CircuitBuilder, CompiledProgram, DualRailWire,
                      ModeError, ParseError, ProgramBindings, SpeedAnalysis,
                      compile_expression, encode_dual_rail, eval_expr,
                      flatten, format_program, free_vars, load_program,
                      lower_to_circuit, parse_expression, predict_speed,
                      structural_bound)
from .simulate import (ForcedSystem, ForcingFunction, ForcingTerm,
                       IntegrationStats, SimConfig, Termination, Trajectory,
                       closed_form_reference, compile_circuit_rhs,
                       compile_rhs, designed_inversion_network,
                       double_identification_network, initial_state,
                       integrate, integrate_network, naive_inversion_network,
                       network_rhs, network_state, parse_forcing,
                       program_rhs, program_state, read_trajectory_csv,
                       simulate_forced, simulate_program)
from .rates import (DigitTime, EstimationError, LemmaPrediction,
                    NotConvergedError, PreconditionError, RateEstimate,
                    Verdict, auto_err_floor, bound_calculus, check_speed,
                    digits_time, estimate_rate, forced_prediction,
                    growth_log_rate)

__version__ = "0.1.0"
