"""Exact solutions of small reference systems, the oracles the integrator
is checked against, the networks they solve, and the integration of a
bare network from per-species initial values."""

import numpy as np

from crncalc.circuit import CompiledProgram
from crncalc.crn import ReactionNetwork, parse_network
from crncalc.simulate import program_state, simulate_program


def closed_form_reference(case: str, params, t):
    """Exact solutions used as oracles for the integrator.

    naive_inversion        x' = 1 - a x
    designed_inversion     x' = x (1 - a x)
    identification         x' = a - x
    double_identification  y' = a - y, x' = y - x (returns x)
    """
    t = np.asarray(t, dtype=float)
    a = float(params["a"])
    x0 = float(params.get("x0", 0.0))
    if case == "naive_inversion":
        return 1.0 / a + (x0 - 1.0 / a) * np.exp(-a * t)
    if case == "designed_inversion":
        if x0 <= 0:
            raise ValueError("designed inversion needs x0 > 0")
        return x0 / (a * x0 + (1.0 - a * x0) * np.exp(-t))
    if case == "identification":
        return a + (x0 - a) * np.exp(-t)
    if case == "double_identification":
        y0 = float(params.get("y0", 0.0))
        return a * (1.0 - (1.0 + t) * np.exp(-t)) + (x0 + t * y0) * np.exp(-t)
    raise ValueError(f"unknown closed form {case!r}")


def double_identification_network() -> ReactionNetwork:
    return parse_network(
        "species: A[input], Y[intermediate], X[output]\n"
        "A -> A + Y ; k=1\n"
        "Y -> 0 ; k=1\n"
        "Y -> Y + X ; k=1\n"
        "X -> 0 ; k=1\n")


def naive_inversion_network() -> ReactionNetwork:
    """Constant production plus input-proportional consumption: the
    textbook x* = 1/a network whose speed depends on a."""
    return parse_network(
        "species: A[input], X[output]\n"
        "0 -> X ; k=1\n"
        "A + X -> A ; k=1\n")


def designed_inversion_network() -> ReactionNetwork:
    return parse_network(
        "species: A[input], X[output]\n"
        "X -> 2X ; k=1\n"
        "A + 2X -> A + X ; k=1\n")


def bare_program(net: ReactionNetwork) -> CompiledProgram:
    """The network as a program without bindings, as circuit.load_program
    reads its text."""
    return CompiledProgram(net.roles, None, network=net)


def network_state(net: ReactionNetwork, init) -> np.ndarray:
    """Initial state from per-species values (unlisted species start at 0)."""
    return program_state(bare_program(net), init)


def integrate_network(net: ReactionNetwork, init, cfg=None):
    """Integrate a network from per-species initial values."""
    return simulate_program(bare_program(net), init, cfg)
