"""Numerical integration of reaction networks and compiled programs.

The polynomial right-hand side is generated as straight-line Python from
the exact mass-action expansion and integrated with DOP853, the
Dormand-Prince 8(5,3) pair: adaptive steps, capped by the Jacobian's
spectrum, and a 7th-order dense interpolant.  Each step attempt keeps the state and the stage
derivatives as the rows of one array, so every stage input is one
matrix-vector product.  Many initial states ("lanes") of one system
advance in lockstep as the columns of a single array, which is how sweeps
integrate a whole grid at once.  A one-lane run hands the generated
right-hand side python floats and stores the tuple it returns; a batch
has it write each driven species' row in place into the stage array,
and never writes the rows that stay zero (held inputs and constants).
A run keeps no step history: each accepted step samples its interpolant
on one uniform time grid, and a lane's Trajectory is those samples of
the species a caller names (see `integrate`).  SimConfig.sigma scales every rate
constant, which in mass action is the time change t -> sigma t: only
`integrate` applies it, and every right-hand side is the unscaled law.
Runs terminate early when any concentration crosses BLOWUP_THRESHOLD;
that is reported as a termination status, not an exception, because
divergence of an inner species is expected behavior for some networks.  A run that cannot meet the
tolerance, or uses up its budget of step attempts, ends in stiff_failure.
"""

from __future__ import annotations

import bisect
import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .circuit import CompiledProgram, input_rails
from .crn import ReactionNetwork, mass_action
from .gates import factored_rates, gate_limit_rate


BLOWUP_THRESHOLD = 1e12
_SAMPLES = 1600  # uniform times over [0, t_end] at which integrate samples
# integrate evaluates pending samples once they hold _PASS values, per sampled
# species and lane 8 a step (start state, coefficients) and 1 a sample
_PASS = 1 << 16


@dataclass
class SimConfig:
    t_end: float = 40.0
    sigma: float = 1.0
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        bad = [name for name, v in vars(self).items() if not math.isfinite(v)]
        if bad:
            raise ValueError(f"{', '.join(bad)} must be finite")
        if not (self.t_end > 0 and self.sigma > 0 and 0 < self.sigma * self.t_end < math.inf):
            raise ValueError("t_end, sigma and sigma * t_end must be positive and finite")
        # floors keep requested accuracy within what the integrator can honor
        if self.rel_tol < 1e-13 or self.abs_tol < 1e-15:
            raise ValueError("tolerances below supported floor (1e-13 / 1e-15)")


@dataclass(frozen=True)
class Termination:
    status: str  # completed | blowup | stiff_failure
    species: str | None = None
    time: float | None = None
    detail: str = ""


@dataclass(frozen=True)
class IntegrationStats:
    """Work done while a lane was in its batch.  One right-hand side
    evaluation covers every lane of the batch."""
    steps: int       # accepted steps
    rejected: int    # rejected step attempts
    rhs_evals: int


@dataclass
class Trajectory:
    """One lane's run, as samples of the species it holds.  From
    integrate, times are those of the shared grid np.linspace(0, t_end,
    _SAMPLES) before the lane's end, then its end time, and the last row
    of states is the lane's end state there: the last step's state, or
    the crossing state of a blowup.  The lanes' times and states are
    read-only views of one buffer each."""
    species: tuple[str, ...]
    times: np.ndarray
    states: np.ndarray  # (n_times, n_species), clipped at 0
    termination: Termination
    negatives: tuple[tuple[str, float, float], ...] = ()
    stats: IntegrationStats | None = None

    def index(self, sid: str) -> int:
        try:
            return self.species.index(sid)
        except ValueError:
            raise ValueError(f"species {sid!r} is not in the trajectory, whose species are "
                             f"{', '.join(self.species)}") from None

    def series(self, sid: str) -> np.ndarray:
        return self.states[:, self.index(sid)]

    def final(self, sid: str) -> float:
        return float(self.states[-1, self.index(sid)])

    def to_csv(self) -> str:
        lines = ["t," + ",".join(self.species)]
        for t, row in zip(self.times, self.states):
            lines.append(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row))
        term = f"# termination={self.termination.status}"
        if self.termination.species:
            term += f" species={self.termination.species}"
        if self.termination.time is not None:
            term += f" time={self.termination.time:.17g}"
        lines.append(term)
        return "\n".join(lines) + "\n"


def read_trajectory_csv(text: str) -> Trajectory:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("t,"):
        raise ValueError("trajectory csv must start with a 't,<species...>' header")
    species = tuple(lines[0].split(",")[1:])
    term = Termination("completed")
    rows = []
    for ln in lines[1:]:
        if ln.startswith("#"):
            m = re.match(r"#\s*termination=(\w+)(?:\s+species=(\w+))?(?:\s+time=(\S+))?", ln)
            if m:
                term = Termination(m.group(1), m.group(2),
                                   float(m.group(3)) if m.group(3) else None)
            continue
        vals = [float(v) for v in ln.split(",")]
        if len(vals) != len(species) + 1:
            raise ValueError(f"row width {len(vals)} does not match header")
        if not math.isfinite(vals[0]):
            raise ValueError(f"row {len(rows) + 1}: time {vals[0]:g} is not finite")
        if rows and not vals[0] > rows[-1][0]:
            raise ValueError(f"row {len(rows) + 1}: time {vals[0]:g} does not come after "
                             f"the time {rows[-1][0]:g} of the row before")
        rows.append(vals)
    if not rows:
        raise ValueError("trajectory csv has no rows")
    data = np.array(rows)
    return Trajectory(species, data[:, 0], data[:, 1:], term)


# ---------------------------------------------------------------------------
# code generation


def _rhs_function(exprs: Sequence[str], constant: Sequence[bool]) -> Callable:
    """Compile ``_rhs(t, y)`` returning one row per species.

    y is a sequence of floats or a (species, lanes) array.  The rows that
    do not depend on the state share one ``z = 0.0*x`` of the first such
    species: a held row is ``z`` and a constant row ``z + c``.  z gives
    them the lane shape, so the rows always stack into an array shaped
    like y, and it is +0.0 in every lane because those species never
    decrease from a non-negative start.

    The function's ``in_place()`` compiles, when a batch first needs it,
    the same laws as ``_rhs(t, y, out)``: y and out are sequences of one
    (lanes,) row per species, and each law of a driven species is written
    into its row of out by the ufunc of its top-level operator
    (``multiply(x3*x2, (x1 - x0) - x3, out[4])``), with the same bits as
    _rhs's row.  Held rows are never written, and a constant row is filled
    with c: integrate's stage buffer starts at +0.0, which is what z is.
    """
    names = [f"x{i}" for i in range(len(exprs))]
    first = next((x for x, c in zip(names, constant) if c), None)
    rows = [("z" if e == "0.0" else f"z + {e}") if c else e
            for e, c in zip(exprs, constant)]
    one = "," if len(rows) == 1 else ""
    zero = f"    z = 0.0*{first}\n" if first else ""
    src = (f"def _rhs(t, y):\n    {', '.join(names)}{one} = y\n{zero}"
           f"    return ({', '.join(rows)}{one})")
    env: dict = {}
    exec(src, env)
    rhs = env["_rhs"]
    rhs.in_place = functools.partial(_in_place_function, names, exprs, constant)
    return rhs


_UFUNCS = {"+": "add", "-": "subtract", "*": "multiply"}


def _in_place_function(names: Sequence[str], exprs: Sequence[str],
                       constant: Sequence[bool]) -> Callable:
    """_rhs_function's ``_rhs(t, y, out)``, which writes the rows in place."""
    lines = []
    for i, (e, c) in enumerate(zip(exprs, constant)):
        if c and e == "0.0":
            continue
        split = _top_level_split(e)
        lines.append(f"    {split[0]}({split[1]}, {split[2]}, out[{i}])" if split
                     else f"    out[{i}][...] = {e}")
    one = "," if len(names) == 1 else ""
    src = f"def _rhs(t, y, out):\n    {', '.join(names)}{one} = y\n" + "\n".join(lines)
    env: dict = {f: getattr(np, f) for f in _UFUNCS.values()}
    exec(src, env)
    return env["_rhs"]


def _top_level_split(law: str) -> tuple[str, str, str] | None:
    """(ufunc, left, right) of the binary operator Python applies last in
    law, or None when it has none: the last ' + ' or ' - ' outside
    parentheses, else the last '*' there.  Every law spaces its binary +
    and - and not its *, which keeps a float's exponent sign (1e-05) and a
    negative coefficient (+ -1.0*x0) out of the split, and none holds '/'
    or '**'."""
    depth, sums, products = 0, -1, -1
    for i, ch in enumerate(law):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0:
            if ch == "*":
                products = i
            elif ch in "+-" and law[i - 1:i + 2] == f" {ch} ":
                sums = i
    at = sums if sums >= 0 else products
    if at < 0:
        return None
    return _UFUNCS[law[at]], law[:at].rstrip(), law[at + 1:].lstrip()


def _polynomial(poly: Mapping) -> str:
    """A sparse polynomial of crn.mass_action's form as a sum of products
    over x0, x1, ..."""
    return " + ".join("*".join([repr(float(c)),
                                *(f"x{j}" for j, e in mono for _ in range(e))])
                      for mono, c in poly.items()) or "0.0"


def _polynomial_function(polys: Sequence[Mapping]) -> Callable:
    """_rhs_function of one polynomial per species."""
    return _rhs_function([_polynomial(p) for p in polys], [not any(p) for p in polys])


def _derivative(poly: Mapping, j: int) -> dict:
    """d poly / d x_j in the same form: c x^m gives c m_j x^(m - e_j)."""
    out = {}
    for mono, c in poly.items():
        e = next((e for i, e in mono if i == j), 0)
        if e:
            out[tuple((i, k - (i == j)) for i, k in mono if (i, k) != (j, 1))] = c * e
    return out


def compile_circuit_rhs(prog: CompiledProgram) -> Callable:
    """Generate the program's right-hand side gate by gate in factored form.

    Expands to exactly the same polynomials as network_integrand on the
    flattened network, but evaluates differences like (u - v) before
    squaring.  The expanded monomials u^2 y^3 - 2 u v y^3 + v^2 y^3 cancel
    catastrophically once y is large while their true sum stays of order
    y, which stalls the step controller; the factored form does not.
    """
    idx = {sid: i for i, sid in enumerate(prog.species_ids)}
    exprs = ["0.0"] * len(idx)
    for g in prog.gates:
        for sid, law in factored_rates(g, lambda sid: f"x{idx[sid]}"):
            exprs[idx[sid]] = law
    # only species no gate writes (held inputs and constants) stay at 0.0
    return _rhs_function(exprs, [e == "0.0" for e in exprs])


# ---------------------------------------------------------------------------
# DOP853 integration in lockstep lanes
#
# The 12-stage, 8th-order Dormand-Prince pair with its combined 5th/3rd-order
# error estimate, 3 extra stages and 7th-order dense output (Hairer, Norsett
# & Wanner, Solving ODEs I, II.10, code DOP853), with that code's starting
# step and step-size controller at the requested tolerances, and a step
# cap from the Jacobian's spectrum (_STEP_CAP).  Stage s (1..15) evaluates
# the right-hand side at t + _C[s] h and y + h sum_k _A[s, k] K_k; stage 12
# is the FSAL stage at the 8th-order solution, and stages 13..15 only feed
# the dense output of an accepted step.

_C = (
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142,
    1.0, 1.0, 0.1, 0.2, 0.777777777777777777777777777778)
_A = np.zeros((16, 16))
for _s, _row in enumerate((
        {0: 5.26001519587677318785587544488e-2},
        {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
        {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
        {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
         3: 9.24834003261792003115737966543e-1},
        {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
         4: 1.25467687566822425016691814123e-1},
        {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
         4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
        {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
         4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
         6: 8.27378916381402288758473766002e-3},
        {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
         4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
         6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
        {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
         4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
         6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
         8: -2.03312017085086261358222928593e-2},
        {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
         4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
         6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
         8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
        {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
         4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
         6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
         8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
         10: 6.43392746015763530355970484046e-1},
        # the 8th-order solution
        {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
         6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
         8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
         10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
        {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
         7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
         9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
         11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
        {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
         6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
         10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
         12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
        {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
         6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
         8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
         13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138}),
        start=1):
    for _k, _a in _row.items():
        _A[_s, _k] = _a
_B = _A[12, :12]
# err5 = h sum_k _E5[k] K_k and err3 likewise; the error norm combines them
# as |err5|^2 / sqrt(|err5|^2 + |err3|^2 / 100)
_E5 = np.zeros(12)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = (
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1)
_E3 = _B.copy()
_E3[[0, 8, 11]] -= (0.244094488188976377952755905512, 0.733846688281611857341361741547,
                    0.220588235294117647058823529412e-1)
# The dense output of a step is y_old + sum_j b_j(x) F_j for x in [0, 1],
# with b_0..b_6 = x, x (1 - x), x^2 (1 - x), x^2 (1 - x)^2, x^3 (1 - x)^2,
# x^3 (1 - x)^3, x^4 (1 - x)^3, F_0 = dy = y_new - y_old, F_1 = h f_old -
# dy, F_2 = 2 dy - h (f_old + f_new) and F_j = h sum_k _D[j - 3, k] K_k.
_D = np.zeros((4, 16))
_D[:, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = np.array([
    [-0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1],
    [0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
     0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2],
    [0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
     0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2],
    [-0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3]])
# Its monomial form: column j of _F is F_j / h as a combination of K0..K15
# (dy / h is sum_k _B[k] K_k, f_old is K0, f_new K12) and row j of _M the
# coefficients of b_j on x .. x^7, so q = K^T _P gives y(x) = y_old +
# h sum_j q_j x^(j+1).
_F = np.zeros((16, 7))
_F[:12, 0] = _B
_F[:12, 1] = -_B
_F[0, 1] += 1.0
_F[:12, 2] = 2 * _B
_F[[0, 12], 2] -= 1.0
_F[:, 3:] = _D.T
_M = np.zeros((7, 7))
for _j in range(7):  # b_j = x^a (1 - x)^b
    _a, _b = _j // 2 + 1, (_j + 1) // 2
    for _i in range(_b + 1):
        _M[_j, _a + _i - 1] = (-1) ** _i * math.comb(_b, _i)
_P = _F.dot(_M)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 8  # -1 / (order of the embedded error estimate + 1)
_TOO_SMALL = "Required step size is less than spacing between numbers."

# No step is longer than _STEP_CAP / rho, rho the spectral radius of the
# Jacobian.  DOP853's interpolant is less accurate than its steps: in the
# converged tail the controller alone lets h grow to the edge of the
# stability region of the fastest decaying mode, and there the interpolant
# amplifies that mode's error 30 times or more beyond the step end's.  At
# the CLI's tolerances (1e-10 / 1e-12) the worst gap of acceptance
# criterion 5 is then 1.0e-9 (X2 of sqrt(abs(a - b)) at t = 36), at the
# 1e-9 error floor the rate fits read down to.  With the cap, the fastest
# mode has h lambda >= -_STEP_CAP.  On y' = lambda y one step's
# interpolant stays within |y_old| for h lambda in [-5, 0]; at -6 it
# reaches 10.5 |y_old| and at -7 89 |y_old| (the step end is stable to
# about -6.4).  Criterion 5's worst gap is 2.4e-11 for any cap from 3 to
# 6, 8.6e-10 at 7 and 2.5e-9 at 8; the five criterion-3 sweeps take 413
# step attempts at 3, 400 at 5 and 398 at 6.
_STEP_CAP = 5.0
# Without gates the cap follows the state: integrate evaluates it at
# the start and every _RHO_INTERVAL accepted steps, from the exact
# Jacobian (network_integrand, and the slope of a forced system).  Every
# 4, 8 or 16 steps passes every test; every 32 fails
# test_dense_output_meets_the_tolerance, and so does an evaluation at the
# start only.  A feed-forward network's cap (every loaded program text)
# needs only the Jacobian's diagonal and costs about one rhs evaluation,
# under 0.5% of the 16 steps' evaluations.
_RHO_INTERVAL = 16


# The attempt loop keeps the state and the stages stacked as the rows of
# one array Z = [y; K0 .. K15].  Row s - 1 of h*_COEF + _UNIT weights
# Z[:s + 1] into the input of stage s (s = 1..15; stage 12's input is the
# new state) and rows 15 and 16 weight K0..K11 into err5 and err3, so
# each of them is one product.
_COEF = np.zeros((17, 17))
for _s in range(1, 16):
    _COEF[_s - 1, 1:_s + 1] = _A[_s, :_s]
_COEF[15, 1:13] = _E5
_COEF[16, 1:13] = _E3
_UNIT = np.zeros((17, 17))
_UNIT[:15, 0] = 1.0
_amax = np.maximum.reduce  # ndarray.max without its python-level wrapper
_TINY = np.finfo(float).tiny

# Step attempts, accepted or rejected, one integrate call may take; lanes
# still in the batch after the step that reaches it end in stiff_failure.
# The largest tier-1 call takes 524 attempts, the largest benchmark batch 171.
_MAX_ATTEMPTS = 20_000


def _stats(steps: int, rejected: int, extra: int) -> IntegrationStats:
    """Every attempt evaluates 12 stages, every accepted step 3 more for
    its dense output and the starting step 2; extra counts the restarted
    starting steps."""
    return IntegrationStats(steps, rejected,
                            2 + 12 * (steps + rejected) + 3 * steps + extra)


def _lane_ops(n: int, lanes: int, live: np.ndarray, rhs: Callable, W: Sequence):
    """The stage buffer of n species x lanes and what the attempt loop
    applies to it.

    Z (17 x n*lanes) holds y and the stages K0..K15 as rows, each stored
    species-major; it starts at +0.0.  ZT holds the views the
    combinations multiply: ZT[s] = Z[:s + 1].T feeds stage s (s = 1..15),
    and ZT[0] = Z[1:13], the stages K0..K11, the error estimates.
    evaluate(t, h, first, stop) evaluates stages first..stop - 1 of the
    step h from t: stage s weights ZT[s] by W[s] into its input and writes
    rhs at t + _C[s] h there into Z[s + 1].  It returns the last input,
    the new state when that is stage 12's.  One lane hands rhs a list of
    floats (python floats run the generated code faster than numpy
    scalars) and stores its tuple.  A batch puts each input in one of two
    preallocated buffers, stage 12's apart from the others', and a
    generated rhs writes in place (see _rhs_function): its y and out are
    row views of the buffer and of Z[s + 1], built once, and it never
    writes the rows that stay +0.0.  Any other rhs is called with the (n,
    lanes) view of the buffer and its tuple stored into Z[s + 1].
    rows is Z as rhs(t, y) returns it: flat rows for one lane, else (17,
    n, lanes), and state turns a flat state into rhs's y: a list of floats
    for one lane, else an (n, lanes) view; the starting step and the step
    cap evaluate through them.  norms takes the scaled err5 and err3 rows
    (2 x n*lanes) to each lane's error norm |err5|^2 / sqrt(n (|err5|^2 +
    |err3|^2 / 100)), and worst to the largest over the lanes marked in
    live, a mask that integrate updates in place; a nan anywhere in a lane
    makes its norm nan.
    """
    Z = np.zeros((17, n * lanes))
    ZT = [Z[1:13]] + [Z[:s + 1].T for s in range(1, 16)]
    if lanes == 1:  # the lane is live until the run ends
        def evaluate(t, h, first, stop):
            for s in range(first, stop):
                x = ZT[s].dot(W[s])
                Z[s + 1] = rhs(t + _C[s] * h, x.tolist())
            return x

        def worst(e):
            s5, s3 = float(e[0].dot(e[0])), float(e[1].dot(e[1]))
            return s5 / math.sqrt((s5 + 0.01 * s3) * n) if s5 else 0.0

        return Z, Z, ZT, np.ndarray.tolist, evaluate, worst, lambda e: np.array([worst(e)])

    rows, inputs = Z.reshape(17, n, lanes), np.empty((2, n * lanes))
    ys, outs = inputs.reshape(2, n, lanes), rows
    if (in_place := getattr(rhs, "in_place", None)) is not None:
        f, ys, outs = in_place(), [list(y) for y in ys], [list(out) for out in outs]
    else:
        def f(t, y, out):  # a plain (t, y) callable: store its rows
            out[...] = rhs(t, y)
    plan = [None]
    for s in range(1, 16):
        k = int(s == 12)  # stage 12's input, the new state, has its own buffer
        plan.append((ZT[s], W[s], inputs[k], ys[k], outs[s + 1]))

    def evaluate(t, h, first, stop):
        for s in range(first, stop):
            A, w, x, y, out = plan[s]
            np.dot(A, w, out=x)
            f(t + _C[s] * h, y, out)
        return x

    def norms(e):
        e = e.reshape(2, n, lanes)
        s5, s3 = np.einsum("kij,kij->kj", e, e)
        # a lane with no error at all has norm 0, not 0/0
        return s5 / np.sqrt(np.maximum(s5 + 0.01 * s3, _TINY) * n)

    return (Z, rows, ZT, lambda x: x.reshape(n, lanes), evaluate,
            lambda e: float(_amax(norms(e)[live])), norms)


def _initial_step(rhs, state, n: int, y0, f0, t_end: float, rtol: float, atol: float,
                  live: np.ndarray):
    """Starting step of Hairer, Norsett & Wanner (II.4): the smallest any
    live lane asks for, with the second-derivative estimate at that step."""
    def rms(x):  # of each live lane
        x = np.reshape(x, (n, -1))
        return np.sqrt(np.einsum("ij,ij->j", x, x) / n)[live]

    scale = atol + np.abs(y0) * rtol
    d0, d1 = rms(y0 / scale), rms(f0 / scale)
    h0 = min(min(1e-6 if a < 1e-5 or b < 1e-5 else 0.01 * a / b
                 for a, b in zip(d0, d1)), t_end)
    f1 = np.reshape(rhs(h0, state(y0 + h0 * f0)), -1)
    d2 = rms((f1 - f0) / scale) / h0
    h1 = min(max(1e-6, h0 * 1e-3) if a <= 1e-15 and b <= 1e-15
             else (0.01 / max(a, b)) ** -_ERROR_EXPONENT for a, b in zip(d1, d2))
    return float(min(100 * h0, h1, t_end))


def _crossing(t_old, t_new, y_old, q):
    """Bisect one step's interpolant for the first time max(y) reaches
    BLOWUP_THRESHOLD; returns that time and the state there.  Each
    bisection step evaluates the step's polynomial y_old + sum_j (h q_j)
    x^(j+1) directly: one length-7 cumprod and one product."""
    h = t_new - t_old
    hq = h * q
    lo, hi = t_old, t_new
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        p = np.cumprod(np.full(_P.shape[1], (mid - t_old) / h))
        if BLOWUP_THRESHOLD - _amax(y_old + hq.dot(p)) > 0:
            lo = mid
        else:
            hi = mid
    p = np.cumprod(np.full(_P.shape[1], (hi - t_old) / h))
    return hi, y_old + h * np.einsum("...ij,...j->...i", q, p)


def _check_state(y: np.ndarray, species: Sequence[str] = ()) -> np.ndarray:
    """y, if it can start a run; with species named, a value that would end
    the run in blowup before it starts is refused too."""
    if not np.all(np.isfinite(y)):
        raise ValueError("initial state must be finite")
    if np.any(y < 0):
        raise ValueError("initial state must be non-negative")
    if species and (over := np.flatnonzero(y >= BLOWUP_THRESHOLD)).size:
        raise ValueError(f"initial value {y[over[0]]:g} of {species[over[0]]} is at or "
                         f"above the blowup threshold {BLOWUP_THRESHOLD:g}")
    return y


def _cap(rates) -> float:
    """_STEP_CAP over the largest finite |rate| (real or complex), or inf
    when there is none."""
    rates = np.abs(np.asarray(rates)).ravel()
    rho = float(rates[np.isfinite(rates)].max(initial=0.0))
    return _STEP_CAP / rho if rho > 0 else math.inf


def circuit_max_step(prog: CompiledProgram) -> float:
    """The step cap of a compiled program's right-hand side: _STEP_CAP over
    the spectral radius of its Jacobian at the limit, which is the largest
    gate_limit_rate over its gates.  Every lane of a batch shares it,
    whatever its inputs."""
    return _cap(max((gate_limit_rate(g.kind) for g in prog.gates), default=0))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def integrate(rhs: Callable, y0: np.ndarray, species: Sequence[str],
              cfg: SimConfig, max_step: float | Callable,
              sample: Sequence[str] | None = None) -> list[Trajectory]:
    """Integrate the columns of y0 (species x lanes) in lockstep and return
    one Trajectory per lane of the species named in sample (every species
    when None), sampled while integrating: the start state and the
    interpolant coefficients of the sampled species of each step that
    holds times of the grid np.linspace(0, cfg.t_end, _SAMPLES) are kept
    until _sample_steps evaluates them there, every lane at once, in
    passes of at most about _PASS values.  So memory is bounded by the
    grid, not by the number of steps.

    rhs(t, y) takes y as (species, lanes), or as a list of floats when y0
    has one column, and returns one row per species: a tuple of floats for
    one lane.  For a batch, an rhs from _rhs_function (compile_circuit_rhs,
    network_integrand) is not called so: its in_place form writes each
    stage's rows straight into the stage buffer, and never the rows that
    stay zero; any other callable is called as above and its rows stored,
    which gives the same bits.  rhs, max_step and
    the steps see tau = cfg.sigma * t, up to sigma * t_end; every time
    returned (sample, blowup and stiff_failure times, and the negatives')
    is divided by sigma, and a completed lane ends at t_end exactly.  All
    lanes take the same steps.  A step is accepted when the worst lane's
    error norm is within cfg's tolerances, so every lane meets its own
    tolerance.  No step is longer than max_step, which keeps the dense
    output within the tolerances too (see _STEP_CAP).  max_step is a number, or a function
    (t, y) -> number of the state of the lanes still in the batch, y as
    rhs takes it, evaluated at the start, every _RHO_INTERVAL accepted
    steps and when lanes leave before the first.
    Each stage input, the new state and the error estimates are products
    of the stacked state and stages with h-weighted tableau rows
    (Σ (h a_k) k_k, not h Σ a_k k_k), so a one-lane run has DOP853's
    tableau, starting step and controller but may differ from that code
    in the last bits.

    A lane leaves the batch when it crosses BLOWUP_THRESHOLD, located
    by bisection on the step's interpolant, or when it cannot meet the
    tolerance even at the smallest step (stiff_failure; a lane that leaves
    before its first accepted step keeps only its initial state).  Lanes
    still in the batch once _MAX_ATTEMPTS step attempts are used also end
    in stiff_failure, so every call returns.  Overflow inside the
    right-hand side gives inf or nan, which these rules judge; it raises
    no numpy warning.

    A lane can leave the batch but never join it, so its steps are the
    batch's first ones.  Every lane keeps its column from the first step
    to the last: a lane that has left is masked out of the error norm, the
    starting step, the step cap and the bookkeeping of who leaves, and its
    later columns are computed but never read.  Besides the samples, the
    call keeps each species' lowest value over the accepted steps and its
    first time, from which a lane that leaves takes its negatives: those
    below -cfg.abs_tol over its steps and its end state.
    """
    y0 = _check_state(np.asarray(y0, dtype=float))
    n, n_lanes = y0.shape
    sampled = tuple(species) if sample is None else tuple(sample)
    cols = np.array([list(species).index(sid) for sid in sampled], dtype=int)
    sigma, t_end, threshold = cfg.sigma, cfg.sigma * cfg.t_end, BLOWUP_THRESHOLD
    rtol, atol = cfg.rel_tol, cfg.abs_tol
    live = np.ones(n_lanes, dtype=bool)  # the lanes still in the batch
    # W[s] weights ZT[s] into the input of stage s = 1..15, E weights
    # ZT[0] into err5 and err3
    C = np.empty((17, 17))
    W = [None, *(C[s - 1, :s + 1] for s in range(1, 16))]
    E = C[15:, 1:13]
    Z, rows, ZT, state, evaluate, worst, norms = _lane_ops(n, n_lanes, live, rhs, W)
    stages = Z[1:].reshape(16, n, n_lanes)  # K0..K15 by species and lane
    t, y = 0.0, Z[0]  # y is the state at t, kept in Z[0]
    Z[0] = y0.ravel()
    rows[1] = rhs(t, state(y))
    h_abs = _initial_step(rhs, state, n, y, Z[1], t_end, rtol, atol, live)
    # cap_at is max_step as a function of the live lanes' state, if it is one
    cap_at = max_step if callable(max_step) else None

    def cap(t, y):
        return cap_at(t, state(y) if live.all() else state(y)[:, live])
    extra = 0
    if cap_at is not None:
        max_step = cap(t, y)
    y_abs = np.abs(y)
    scale, new_abs = np.empty((2, y.size))
    grid = np.linspace(0.0, cfg.t_end, _SAMPLES)
    bounds = grid.tolist()
    # out[lane, i]: sample i of the sampled species of the lane
    out = np.empty((n_lanes, _SAMPLES + 1, len(cols)))
    # the steps whose grid times, from grid[evaluated] to grid[held], are pending
    pending, evaluated, held, width = [], 0, 0, max(1, len(cols) * n_lanes)
    low, low_t = np.zeros((2, n, n_lanes))  # lowest values below 0, and when
    ends: dict[int, tuple] = {}  # lane -> (termination, negatives, stats, end state)
    steps = rejected = 0

    def leave(j: int, term: Termination, end: np.ndarray):
        lows, when = low[:, j].copy(), low_t[:, j].copy()
        _lower(lows, when, end, term.time)
        negatives = tuple((species[i], float(when[i]), float(lows[i]))
                          for i in np.flatnonzero(lows < -atol))
        ends[int(j)] = (term, negatives, _stats(steps, rejected, extra), end)

    while True:
        if steps + rejected >= _MAX_ATTEMPTS:
            detail = f"Step attempt budget of {_MAX_ATTEMPTS} used up."
            for j in np.flatnonzero(live):
                leave(j, Termination("stiff_failure", time=t / sigma, detail=detail),
                      y.reshape(n, -1)[:, j].copy())
            break
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(min(h_abs, max_step), min_step)
        h_first, accepted, retry = h_abs, False, False
        while h_abs >= min_step:
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            np.multiply(_COEF, h, out=C)
            C += _UNIT
            y_new = evaluate(t, h, 1, 13)  # stage 12's input is the new state
            np.abs(y_new, out=new_abs)
            np.maximum(y_abs, new_abs, out=scale)
            scale *= rtol
            scale += atol
            err = E.dot(ZT[0])
            err /= scale
            error_norm = worst(err)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if retry:
                    factor = min(1, factor)
                h_abs *= factor
                accepted = True
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected += 1
            retry = True
        leaving = None
        if accepted:
            steps += 1
            evaluate(t, h, 13, 16)
            done = t_new == t_end
            # a grid time on a step boundary takes the step ending there
            stop = _SAMPLES if done else bisect.bisect_right(bounds, t_new / sigma)
            if stop > held:
                # the dense-output coefficients of the sampled species
                q = stages.take(cols, axis=1).reshape(16, -1).T.dot(_P)
                pending.append((t / sigma, h, y.reshape(n, -1).take(cols, axis=0),
                                q.reshape(len(cols), n_lanes, _P.shape[1]), stop - held))
                held = stop
                if (held - evaluated + 8 * len(pending)) * width >= _PASS:
                    evaluated = _sample_steps(out, grid, evaluated, pending, sigma)
                    pending = []
            # lanes that have left can sit above the threshold: the check
            # below then runs every step, and finds no live lane crossing
            if done or not threshold - _amax(y_new) > 0:
                y_cols, new_cols = y.reshape(n, -1), y_new.reshape(n, -1)
                crossed = ((threshold - y_cols.max(axis=0) >= 0)
                           & (threshold - new_cols.max(axis=0) <= 0))
                leaving = live & (crossed | done)
                for j in np.flatnonzero(leaving):
                    if crossed[j]:
                        q_j = np.ascontiguousarray(stages[:, :, j]).T.dot(_P)
                        # a copy: y is Z[0], which this step's end overwrites
                        t_hit, y_hit = _crossing(t, t_new, y_cols[:, j].copy(), q_j)
                        owner = species[_blowup_owner(y_hit, rtol)]
                        leave(j, Termination("blowup", owner, t_hit / sigma), y_hit)
                    else:
                        leave(j, Termination("completed", time=float(cfg.t_end)),
                              new_cols[:, j].copy())
            if np.fmin.reduce(y_new) < 0:
                _lower(low, low_t, y_new.reshape(n, -1), t_new / sigma)
            Z[1] = Z[13]  # first same as last
            Z[0] = y_new
            y_abs, new_abs = new_abs, y_abs
            t = t_new
        else:
            # the step shrank below what t can resolve: lanes still missing
            # the tolerance there leave, the others retry from h_first
            leaving = live & ~(norms(err) < 1)
            for j in np.flatnonzero(leaving):
                leave(j, Termination("stiff_failure", time=t / sigma, detail=_TOO_SMALL),
                      y.reshape(n, -1)[:, j].copy())
            h_abs = h_first
        # the cap is evaluated once the lanes that leave are masked out
        new_cap = accepted and steps % _RHO_INTERVAL == 0
        if leaving is not None and leaving.any():
            live &= ~leaving
            if not live.any():
                break
            if not steps:
                # nothing accepted yet: h_first was the least starting step
                # of the batch, the leaving lanes' included; the others
                # start over with their own
                h_abs = _initial_step(rhs, state, n, y, Z[1], t_end, rtol, atol, live)
                extra += 1
                new_cap = True
        if new_cap and cap_at is not None:
            max_step = cap(t, y)
    _sample_steps(out, grid, evaluated, pending, sigma)
    # each lane's end row overwrites its first sample at or after its end
    times, last = np.empty(out.shape[:2]), {}
    times[:, :_SAMPLES] = grid
    for lane, (term, *_, end) in ends.items():
        k = last[lane] = bisect.bisect_left(bounds, term.time)
        times[lane, k] = term.time
        np.clip(end[cols], 0.0, None, out=out[lane, k])
    out.flags.writeable = times.flags.writeable = False
    return [Trajectory(sampled, times[j, :last[j] + 1], out[j, :last[j] + 1], *record)
            for j, (*record, _) in sorted(ends.items())]


def _lower(lows: np.ndarray, times: np.ndarray, y: np.ndarray, t: float):
    """Lower lows in place to y where y is below, and set their times to t."""
    below = y < lows
    np.copyto(lows, y, where=below)
    np.copyto(times, t, where=below)


def _sample_steps(out: np.ndarray, grid: np.ndarray, start: int, steps: list,
                  sigma: float) -> int:
    """Write the interpolants of consecutive steps, clipped at 0, into out
    (lanes, times, species) at the grid times from grid[start] on that
    lie in them, and return the index of the grid time after them.  A
    step is (t_old, h, y_old, q, count): its start time in t, size in tau
    = sigma t, start states (species, lanes) and coefficients (species,
    lanes, 7), and how many grid times it holds.  One Horner pass, one
    power's gathered coefficients at a time, evaluates y_old + h sum_j
    q_j x^(j+1), x = (t - t_old) * sigma / h, elementwise per lane."""
    if not steps:
        return start
    t_old, h, y_old, q, count = zip(*steps)
    k = np.repeat(np.arange(len(steps)), count)
    stop = start + k.size
    h = np.array(h)[k]
    x = ((grid[start:stop] - np.array(t_old)[k]) * sigma / h)[:, None, None]
    q = np.array(q)
    v = q[k, ..., -1]  # (samples, species, lanes)
    for j in range(q.shape[-1] - 2, -1, -1):
        v *= x
        v += q[k, ..., j]
    v *= x
    v *= h[:, None, None]
    v += np.array(y_old)[k]
    np.maximum(v, 0.0, out=out[:, start:stop].transpose(1, 2, 0))
    return stop


def _blowup_owner(y: np.ndarray, rel_tol: float) -> int:
    """The species a blowup is charged to: the first in species order
    among those within rel_tol of the largest at the crossing.  Species
    that cross together (the two inner Ys of a real a - b tie) differ
    there only by roundoff, which must not pick the name."""
    return int(np.argmax(y >= y.max() * (1.0 - rel_tol)))


def network_integrand(net: ReactionNetwork) -> tuple[Callable, Callable]:
    """The right-hand side t, y -> dy/dt and the step cap (t, y) -> cap
    that integrate takes for a network, both generated from one
    mass-action expansion: the rate law one term per monomial, and the
    cap as _STEP_CAP over the largest spectral radius of the exact
    Jacobian d f_i / d x_j among the lanes where it is finite.

    A network that is feed-forward in species order (no f_i reads a later
    species; a compiled program's network is one) has a lower-triangular
    Jacobian whose eigenvalues are its diagonal, so only the diagonal is
    generated, costing about one right-hand side evaluation.  Any other
    network generates every entry its polynomials read, fills a matrix per
    lane and takes its eigenvalues.
    """
    field = mass_action(net)
    rhs = _polynomial_function(field)
    if all(mono[-1][0] <= i for i, poly in enumerate(field) for mono in poly if mono):
        # a constant entry is z + c, z = 0.0 * the first such species (nan
        # only where that lane is not finite, and _cap skips those values)
        diagonal = _polynomial_function([_derivative(p, i) for i, p in enumerate(field)])
        return rhs, lambda t, y: _cap(diagonal(t, y))
    n = len(field)
    entries = "".join(f"    J[{i}, {j}] = {_polynomial(d)}\n"
                      for i, poly in enumerate(field)
                      for j in sorted({j for mono in poly for j, _ in mono})
                      if (d := _derivative(poly, j)))
    env: dict = {}
    exec(f"def _jacobian(t, y, J):\n    {', '.join(f'x{i}' for i in range(n))}, = y\n{entries}",
         env)
    jacobian = env["_jacobian"]

    def max_step(t, y) -> float:
        J = np.zeros((n, n) + np.shape(y[0]))
        jacobian(t, y, J)
        J = J.reshape(n, n, -1).transpose(2, 0, 1)
        return _cap(np.linalg.eigvals(J[np.isfinite(J).all(axis=(1, 2))]))

    return rhs, max_step


def initial_state(prog: CompiledProgram, inputs: Mapping[str, object]) -> dict[str, float]:
    """Default initial condition: inputs held at their values (signed
    values dual-rail encoded), constants pinned, species listed in
    init+ at 1, everything else at 0."""
    init: dict[str, float] = {sid: 0.0 for sid in prog.species_ids}
    init.update(input_rails(prog.bindings.input_map(), inputs))
    for sid, val in prog.bindings.const_map().items():
        init[sid] = float(val)
    for sid in prog.bindings.positive_init:
        init[sid] = 1.0
    return init


def program_state(prog: CompiledProgram, values: Mapping[str, object]) -> np.ndarray:
    """The initial state in the program's species order: initial_state of
    its inputs, or for a bare network (no bindings) the species values
    given, unlisted species at 0."""
    if prog.bindings is None:
        unknown = set(values) - set(prog.species_ids)
        if unknown:
            raise ValueError(f"initial values for unknown species {sorted(unknown)}")
        init = {sid: float(values.get(sid, 0.0)) for sid in prog.species_ids}
    else:
        init = initial_state(prog, values)
    return _check_state(np.array([init[sid] for sid in prog.species_ids]), prog.species_ids)


def program_integrand(prog: CompiledProgram) -> tuple[Callable, float | Callable]:
    """The right-hand side and step cap for integrate: the factored gate
    RHS and the gates' cap for a compiled program, else the network's (a
    loaded program text)."""
    if prog.gates is not None:
        return compile_circuit_rhs(prog), circuit_max_step(prog)
    return network_integrand(prog.network)


def simulate_program(prog: CompiledProgram, inputs: Mapping[str, object],
                     cfg: SimConfig | None = None) -> Trajectory:
    cfg = cfg or SimConfig()
    y0 = program_state(prog, inputs)
    rhs, max_step = program_integrand(prog)
    return integrate(rhs, y0[:, None], prog.species_ids, cfg, max_step)[0]
