"""Compile arithmetic into mass-action networks and verify that the
computed concentrations converge at the designed exponential speed.

The package exports what its scripts, perfbench and the README example
import from it; everything else, tests included, is imported from its
submodule.  A program is compiled from an expression or loaded from its
text; a text without bindings loads as a bare network, which
`simulate_program` runs like any program.  An export is imported from its
submodule on first use (PEP 562), so importing the package, or
`crncalc.cli` for a command that does not integrate, loads no numpy."""

from importlib import import_module

# export -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("compile_expression", "load_program", "predict_speed"), "circuit"),
    **dict.fromkeys(("SimConfig", "simulate_program"), "simulate"),
    **dict.fromkeys(("NotConvergedError", "Pipeline", "digits_time"), "rates"),
    **dict.fromkeys(("ForcedSystem", "check_lemma", "parse_forcing"), "lemma"),
}
__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
