"""Forced scalar systems and the lemmas that predict their speed.

    x' = g1(t) - g2(t) x          (linear)
    x' = x (g1(t) - g2(t) x^m)    (power)

with g(t) = c0 + sum_i c_i t^{k_i} exp(-r_i t), every r_i > 0.  A forcing
is parsed from text like ``2 + exp(-3*t)``; a system is integrated with
the network integrator, its step cap taken from the exact slope d x' / d x.
`forced_prediction` names the family a system falls in (driven linear,
driven power, decay to zero, unbounded growth) with its target and rate
bound, and `check_lemma` is the one judge of a forced system, for `lemma`,
scripts/lemma_grid.py and the acceptance criteria alike; it measures the
growth family's rate as the decay rate of 1/x toward 0.  `integrate` and
`estimate_rate` are called through their modules, so they can be wrapped
by name.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import numpy as np

from . import rates as rt
from . import simulate as sim
from .crn import parse_number
from .gates import SpeedBound
from .rates import RateEstimate, Verdict, auto_err_floor, check_slack, check_speed
from .simulate import SimConfig, Trajectory, _cap, _check_state


class PreconditionError(ValueError):
    """Forced system outside the parameter region a lemma covers."""


@dataclass(frozen=True)
class ForcingTerm:
    coeff: float
    power: int
    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("forcing term must decay (rate > 0)")
        if self.power < 0:
            raise ValueError("negative power in forcing term")


@dataclass(frozen=True)
class ForcingFunction:
    constant: float
    terms: tuple[ForcingTerm, ...] = ()

    def __call__(self, t):
        val = self.constant + 0.0 * t if not np.isscalar(t) else self.constant
        for term in self.terms:
            val = val + term.coeff * t ** term.power * np.exp(-term.rate * t)
        return val

    @property
    def limit(self) -> float:
        return self.constant

    @property
    def rate(self) -> float:
        """Decay rate toward the limit; +inf for an exactly constant g."""
        return min((term.rate for term in self.terms), default=math.inf)

    def is_constant_one(self) -> bool:
        return not self.terms and self.constant == 1.0


def _split_top(text: str, seps: str) -> list[str]:
    """text cut before each separator outside parentheses, except the sign
    of a number's exponent (the "-" of "1e-3")."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif (ch in seps and depth == 0 and i > start
              and not (text[i - 1] in "eE" and text[i - 2:i - 1].isdigit())):
            parts.append(text[start:i])
            start = i
    parts.append(text[start:])
    return parts


_NUM = r"\d+(?:\.\d+)?(?:[eE][-+]?\d+)?"
_EXP_RE = re.compile(rf"exp\(\s*-\s*(?:({_NUM})\s*\*\s*)?t\s*\)\Z")
_POW_RE = re.compile(r"t(?:\^(\d+))?\Z")
_NUM_RE = re.compile(_NUM + r"\Z")


def parse_forcing(text: str) -> ForcingFunction:
    """Parse strings like ``2 + 1*exp(-3*t) + 0.5*t^1*exp(-1*t)``."""
    constant = 0.0
    terms = []
    for chunk in _split_top(text.replace(" ", ""), "+-"):
        if not chunk or chunk in "+-":
            raise ValueError(f"empty term in forcing {text!r}")
        sign = 1.0
        if chunk[0] in "+-":
            sign = -1.0 if chunk[0] == "-" else 1.0
            chunk = chunk[1:]
        coeff, power, rate = sign, 0, 0.0
        for factor in _split_top(chunk, "*"):
            factor = factor.lstrip("*")
            if not factor:
                raise ValueError(f"empty factor in forcing term {chunk!r}")
            if m := _EXP_RE.match(factor):
                rate += float(parse_number(m.group(1))) if m.group(1) else 1.0
            elif m := _POW_RE.match(factor):
                power += int(m.group(1)) if m.group(1) else 1
            elif _NUM_RE.match(factor):
                coeff *= float(parse_number(factor))
            else:
                raise ValueError(f"bad factor {factor!r} in forcing {text!r}")
        if rate > 0:
            terms.append(ForcingTerm(coeff, power, rate))
        elif power > 0:
            raise ValueError(f"non-decaying term {chunk!r}: polynomial factors "
                             "need an exp factor")
        else:
            constant += coeff
    return ForcingFunction(constant, tuple(terms))


@dataclass(frozen=True)
class ForcedSystem:
    form: str  # linear | power
    g1: ForcingFunction
    g2: ForcingFunction
    m: int = 1
    x0: float = 1.0

    def __post_init__(self):
        if self.form not in ("linear", "power"):
            raise ValueError("form must be 'linear' or 'power'")
        if self.m < 1:
            raise ValueError("power form needs m >= 1")


def simulate_forced(system: ForcedSystem, cfg: SimConfig | None = None) -> Trajectory:
    cfg = cfg or SimConfig()
    if cfg.sigma != 1.0:  # g would be read at sigma t, not t
        raise ValueError("time scaling applies to networks, not forced systems")
    y0 = _check_state(np.array([float(system.x0)]), ("x",))
    g1, g2, m = system.g1, system.g2, system.m
    # the step cap comes from the exact slope d x' / d x
    if system.form == "linear":
        def rhs(t, y):
            return (g1(t) - g2(t) * y[0],)

        def slope(t, y):
            return -g2(t)
    else:
        def rhs(t, y):
            x = np.float64(y[0])  # overflows to inf where a float power would raise
            return (x * (g1(t) - g2(t) * x ** m),)

        def slope(t, y):
            x = np.float64(y[0])
            return g1(t) - (m + 1) * g2(t) * x ** m
    return sim.integrate(rhs, y0[:, None], ("x",), cfg, lambda t, y: _cap(slope(t, y)))[0]


# ---------------------------------------------------------------------------
# predictions and their check


@dataclass(frozen=True)
class LemmaPrediction:
    family: str
    target: float | None  # None for the unbounded growth family
    bound: SpeedBound


def forced_prediction(system: ForcedSystem) -> LemmaPrediction:
    g1, g2 = system.g1, system.g2
    if system.form == "linear":
        if g2.limit <= 0:
            raise PreconditionError("linear form needs g2 -> positive limit")
        b = min(g1.rate, g2.rate, g2.limit)
        return LemmaPrediction(
            "driven_linear", g1.limit / g2.limit,
            SpeedBound(b, "min{rho_g1, rho_g2, g2*}"))
    m = system.m
    if g1.limit > 0 and g2.limit > 0:
        if system.x0 <= 0:
            raise PreconditionError("power form needs x0 > 0")
        b = min(g1.rate, g2.rate, m * g1.limit)
        return LemmaPrediction(
            "driven_power", (g1.limit / g2.limit) ** (1.0 / m),
            SpeedBound(b, "min{rho_g1, rho_g2, m*g1*}"))
    if g1.limit < 0 < g2.limit:
        b = min(g1.rate, -g1.limit)
        return LemmaPrediction(
            "decay_to_zero", 0.0, SpeedBound(b, "min{rho_g1, -g1*}"))
    if g1.is_constant_one() and g2.limit == 0:
        if system.x0 <= 0:
            raise PreconditionError("growth family needs x0 > 0")
        b = min(g2.rate / m, 1.0)
        return LemmaPrediction(
            "unbounded_growth", None, SpeedBound(b, "min{rho_g2/m, 1}"))
    raise PreconditionError(
        "forced system not covered: need g2* > 0 (linear), g1*,g2* > 0 or "
        "g1* < 0 < g2* (power), or g1 == 1 with g2* = 0 (growth)")


@dataclass(frozen=True)
class LemmaCheck:
    """check_lemma's finding: the fitted rate `estimate` and its `verdict`.
    Both are None when the run ended in stiff_failure, in blowup outside
    the growth family, or in a measurement `error`."""
    prediction: LemmaPrediction
    traj: Trajectory
    estimate: RateEstimate | None = None
    verdict: Verdict | None = None
    error: ValueError | None = None

    @property
    def passed(self) -> bool:
        return self.verdict is not None and self.verdict.passed


def check_lemma(system: ForcedSystem, cfg: SimConfig, slack: float = 0.15) -> LemmaCheck:
    """Integrate a forced system once and hold the rate of x's samples,
    fitted above auto_err_floor, to check_speed at `slack`.
    The growth family's rate is that of 1/x toward 0, so a blowup is its
    expected ending: its fit window closes at x = 1/err_floor, below the
    blowup threshold.  A bad slack or an uncovered system raises
    ValueError before anything is integrated."""
    check_slack(slack)
    pred = forced_prediction(system)
    growth = pred.family == "unbounded_growth"
    traj = simulate_forced(system, cfg)
    status = traj.termination.status
    if status == "stiff_failure" or (status == "blowup" and not growth):
        return LemmaCheck(pred, traj)
    samples = replace(traj, states=1.0 / traj.states) if growth else traj
    target = 0.0 if growth else pred.target
    try:
        est = rt.estimate_rate(samples, "x", target,
                               err_floor=auto_err_floor(target, cfg.rel_tol))
    except ValueError as e:  # also a target whose error floor tops the ceiling
        return LemmaCheck(pred, traj, error=e)
    return LemmaCheck(pred, traj, est, check_speed(est, pred.bound, slack))
