"""Compile arithmetic into mass-action networks and verify that the
computed concentrations converge at the designed exponential speed.

The package exports what its scripts, its acceptance suite and the README
example use; everything else is imported from its submodule.  An export
is imported from its submodule on first use (PEP 562), so importing the
package, or `crncalc.cli` for a command that does not integrate, loads
no numpy."""

from importlib import import_module

# export -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("Species", "collect_network", "mass_action"), "crn"),
    **dict.fromkeys(("SpeciesNamer", "gate_fragment_network", "make_gate"), "gates"),
    **dict.fromkeys(("compile_expression", "encode_dual_rail", "predict_speed"), "circuit"),
    **dict.fromkeys(("ForcedSystem", "SimConfig", "closed_form_reference",
                     "designed_inversion_network", "double_identification_network",
                     "integrate_network", "naive_inversion_network", "parse_forcing",
                     "simulate_program"), "simulate"),
    **dict.fromkeys(("NotConvergedError", "Pipeline", "check_lemma", "check_speed",
                     "digits_time"), "rates"),
}
__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
