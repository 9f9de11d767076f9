"""Gradient flow of the L^p energy in the constrained dual metric.

Each time step is a proximal (implicit Euler) step: the next state
minimizes (1/p) int |f|^p + 1/(2 dt) ||f - u||^2 in the ambient metric over
grid functions satisfying the moment constraints.  Proximal stepping is the
discrete counterpart of the subdifferential flow of a convex lower
semicontinuous energy, so descent, contraction in the metric, and the
convexity of t -> ||u(t)||_p^p are inherited structurally rather than
imposed.  For p > 2 this realizes a porous-medium-type flow, for p in
(1, 2) a fast-diffusion-type flow, and p = 2 reproduces the linear heat
semigroup, which doubles as a cross-module oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .dual import ConstraintSpace
from .errors import NumericalError
from .grid import GridFunction, trapezoid_weights
from .heat import (
    OperatorAssembly,
    heat_step,
    potential_coefficient,
    strong_apply,
    weak_pairing_gap,
)
from .moments import moment, moment_weight_row, span_basis, span_projection


@dataclass(frozen=True)
class FlowConfig:
    """The dynamics of one flow run: exponent, time step and horizon.

    The discretization (moment index, constraint space and grid) is the
    ``OperatorAssembly`` every runner takes alongside.
    """

    p: float
    dt: float
    t_final: float

    def __post_init__(self):
        if not np.all(np.isfinite((self.p, self.dt, self.t_final))):
            raise ValueError("exponent, time step and horizon must be finite")
        if not self.p > 1.0:
            raise ValueError("the flow is defined for exponents p > 1 only")
        if self.dt <= 0.0 or self.t_final <= 0.0:
            raise ValueError("time step and horizon must be positive")
        step_count(self.dt, self.t_final)


def step_count(dt: float, t_final: float) -> int:
    """t_final / dt; ValueError unless a whole number >= 1 to a relative 1e-9."""
    steps = t_final / dt
    whole = round(steps)
    if whole < 1 or abs(steps - whole) > 1e-9 * steps:
        raise ValueError("t_final must be a whole number of dt steps")
    return whole


@dataclass(frozen=True)
class FlowRecord:
    """One time-step snapshot of the monitored quantities."""

    t: float
    mu0: float
    mu1: float
    mun: float
    lp_energy: float
    hy_norm_sq: float
    dissipation_residual: float

    def as_row(self) -> tuple:
        # dataclasses.astuple would deep-copy every float
        return tuple(getattr(self, f.name) for f in fields(self))


CSV_HEADER = ",".join(f.name for f in fields(FlowRecord))


@dataclass
class FlowResult:
    config: FlowConfig
    records: list
    final: GridFunction
    states: np.ndarray | None = None


def energy(f: GridFunction, p: float) -> float:
    """(1/p) int |f|^p by the shared quadrature."""
    if not p > 1.0:
        raise ValueError("exponent must exceed 1")
    return float(trapezoid_weights(f.n_points) @ np.abs(f.values) ** p) / p


def _density_gradient(values: np.ndarray, p: float, eps: float) -> np.ndarray:
    if p >= 2.0:
        return np.abs(values) ** (p - 2.0) * values if p != 2.0 else values.copy()
    if eps == 0.0:
        # |f|^(p-2) f would be inf * 0 at a zero node
        return np.sign(values) * np.abs(values) ** (p - 1.0)
    return values * (values ** 2 + eps ** 2) ** ((p - 2.0) / 2.0)


def _density_terms(values: np.ndarray, p: float,
                   eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The smoothed density rho with its first and second derivatives.

    rho = (f^2 + eps^2)^(p/2) / p for p < 2, else |f|^p / p; eps > 0.  The
    first derivative is the one ``_density_gradient`` returns, bit for bit.
    """
    if p >= 2.0:
        power = np.abs(values) ** (p - 2.0)
        grad = power * values
        return values * grad / p, grad, (p - 1.0) * power
    s = values ** 2 + eps ** 2
    power = s ** ((p - 2.0) / 2.0)
    curvature = s ** ((p - 4.0) / 2.0) * ((p - 1.0) * values ** 2 + eps ** 2)
    return s * power / p, values * power, curvature


def energy_gradient(f: GridFunction, p: float, eps_reg: float = 0.0) -> GridFunction:
    """Pointwise density |f|^(p-2) f of the energy derivative.

    For p < 2 the modulus is smoothed through sqrt(f^2 + eps^2) so the
    density stays differentiable across zeros; eps_reg = 0 gives the exact
    density.
    """
    if not p > 1.0:
        raise ValueError("exponent must exceed 1")
    return GridFunction(_density_gradient(f.values, p, eps_reg))


def _dual_curvature(values: np.ndarray, dual: np.ndarray, p: float,
                    eps: float) -> np.ndarray:
    """Primal-dual curvature P max(1 - (2-p) f phi / (s P), p - 1), p < 2.

    s = f^2 + eps^2 and P = s^((p-2)/2).  At phi = f P, the density
    gradient, it is the density's second derivative; p - 1 is the least
    value that derivative takes over P, so the clamp binds only when phi
    has drifted from f P.
    """
    s = values ** 2 + eps ** 2
    power = s ** ((p - 2.0) / 2.0)
    return power * np.maximum(1.0 - (2.0 - p) * values * dual / (s * power),
                              p - 1.0)


def prox_step(u_prev: GridFunction, cfg: FlowConfig, asm: OperatorAssembly,
              warm: GridFunction | None = None) -> GridFunction:
    """One proximal step of length cfg.dt from u_prev, by damped Newton on
    the KKT system of the constrained proximal problem, started at ``warm``
    (default u_prev).

    Stationarity is tested with the least-squares multiplier before any
    factorization, so a converged warm start costs no solve.  The solve
    stops once the residual is within PROX_TOL of the data amplitude
    max(1, max|u_prev|).  The objective
    sum w rho(f) + (f - u)^T M (f - u) / (2 dt) is the merit function: the
    exact line search lowers it on every iteration that moves, so the
    solve fails as stalled after 5 iterations in a row that leave it at or
    above its best value so far, and fails after 60 iterations in any case.
    The infinity-norm residual is no merit function; it may creep or rise
    while the objective still falls.  A failed solve, at any p, is a
    NumericalError; the step length is always cfg.dt.

    For p > 2 the curvature (p-1)|f|^(p-2) vanishes where f changes sign,
    so the Newton step spikes there and the line search cuts it short.  The
    step is then factored with w (curvature + mu), Levenberg-Marquardt
    damping: mu starts at 0, becomes max(4 mu, 1e-6 c) after a line-search
    scale below 1/4, and after a full step is divided by 4 and set to 0 once
    below 1e-12 c, where c = (p-1) max|f|^(p-2).  The gradient and the
    stationarity test do not see mu, so a converged state solves the same
    problem.  For p <= 2 the curvature is positive and mu stays 0.

    For p < 2 the modulus is smoothed to sqrt(f^2 + EPS_REG^2), and that
    density is nearly non-smooth at the zeros of f: linearized in f alone,
    the Newton step overshoots there and the line search stops at each zero
    crossing, more often the finer the grid.  The solve therefore carries a
    dual density phi beside f, the primal-dual Newton method of Chan, Golub
    & Mulet (SIAM J. Sci. Comput. 20, 1999).  The first iteration factors
    with the density's second derivative; after every step, whatever its
    line-search scale, phi becomes rho'(f) + c step with c the curvature
    just factored, and later iterations factor ``_dual_curvature`` of
    (f, phi).  Again only the factored matrix changes: gradient,
    stationarity test and line search are those of f.
    """
    p, dt = cfg.p, cfg.dt
    u = u_prev.values
    w = asm.weights
    rows = asm.constraints
    tol = PROX_TOL * max(1.0, float(np.max(np.abs(u))))

    def failure(reason) -> NumericalError:
        return NumericalError(f"proximal solve failed (p={p}, dt={dt}): {reason}")

    f = (warm if warm is not None else u_prev).values
    # apply is linear, so the metric part of the gradient follows f by
    # the same steps and is applied to each step once
    metric_grad = asm.apply(f - u) / dt
    best = np.inf
    stalled = 0
    damping = 0.0
    dual = None
    for _ in range(_NEWTON_MAX_ITER):
        density, density_grad, curvature = _density_terms(f, p, EPS_REG)
        if dual is not None:
            curvature = _dual_curvature(f, dual, p, EPS_REG)
        grad = w * density_grad + metric_grad
        feas = rows @ f
        # B^T lambda for the least-squares multiplier lambda of grad
        force = -rows.T @ (asm._gram_inv @ (rows @ grad))
        measure = max(float(np.max(np.abs(grad + force))),
                      float(np.max(np.abs(feas), initial=0.0)))
        if measure <= tol:
            return GridFunction(f)
        objective = float(w @ density) + 0.5 * float((f - u) @ metric_grad)
        if objective >= best:
            stalled += 1
            if stalled >= 5:
                raise failure(f"stalled at residual {measure:.3e}, "
                              f"objective {objective:.6e}")
        else:
            stalled = 0
            best = objective
        try:
            kkt = asm.factor(dt, w * (curvature + damping))
            step = kkt.solve(-grad, -feas)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise failure(exc) from exc
        # slope of the Lagrangian, multiplier frozen, along the step.  Its
        # metric part is affine in the scale.  The multiplier term keeps the
        # rounding-level infeasibility the step removes from reading as
        # ascent, which would otherwise stall the search at the noise floor.
        metric_step = asm.apply(step) / dt
        metric_slope = float((metric_grad + force) @ step)
        slope_rate = float(step @ metric_step)

        def directional(scale):
            trial = f + scale * step
            return float((w * _density_gradient(trial, p, EPS_REG)) @ step) + \
                metric_slope + scale * slope_rate

        scale = _step_scale(directional, float((grad + force) @ step))
        if p < 2.0:
            dual = density_grad + curvature * step
        elif p > 2.0:
            # max(curvature) is (p-1) max|f|^(p-2), read only when mu moves
            if scale < _DAMP_SCALE:
                damping = max(4.0 * damping, _DAMP_FLOOR * float(np.max(curvature)))
            elif scale == 1.0 and damping:
                damping /= 4.0
                if damping < _DAMP_OFF * float(np.max(curvature)):
                    damping = 0.0
        f = f + scale * step
        metric_grad += scale * metric_step
    raise failure("no convergence within iteration budget")


# stationarity tolerance of the proximal solve, relative to the amplitude
# of the step's input data
PROX_TOL = 1e-9
# for p < 2 the modulus |f| is smoothed to sqrt(f^2 + EPS_REG^2)
EPS_REG = 1e-8
# Newton iterations allowed per proximal solve
_NEWTON_MAX_ITER = 60
# p > 2 damping: raised after a line-search scale below _DAMP_SCALE to at
# least _DAMP_FLOOR, and dropped below _DAMP_OFF, of the curvature maximum
_DAMP_SCALE = 0.25
_DAMP_FLOOR = 1e-6
_DAMP_OFF = 1e-12
# the line search stops once the slope falls to this share of its value at
# zero, or once the bracket on its root is this narrow; it evaluates the
# slope at most _SLOPE_MAX_EVALS times, the full step's included
_SLOPE_RTOL = 1e-12
_BRACKET_WIDTH = 2.0 ** -40
_SLOPE_MAX_EVALS = 60


def _step_scale(slope, slope_at_zero: float) -> float:
    """Minimizer on [0, 1] of a convex function along a Newton step.

    ``slope`` is its nondecreasing derivative and ``slope_at_zero`` the
    (already known) value at 0.  The full step is taken whenever its slope
    is nonpositive.  Otherwise the root stays bracketed by a nonpositive
    slope at ``lo`` and a positive one at ``hi`` and is found by the
    Illinois variant of regula falsi (Dowell & Jarratt 1971): when the same
    end survives twice running, its slope is halved for the next secant.
    A secant point outside the open bracket is replaced by the midpoint.
    """
    g_hi = slope(1.0)
    if g_hi <= 0.0:
        return 1.0
    lo, hi, g_lo = 0.0, 1.0, slope_at_zero
    tol = _SLOPE_RTOL * abs(slope_at_zero)
    moved = 0  # +1 after lo moved, -1 after hi moved
    for _ in range(_SLOPE_MAX_EVALS - 1):
        if hi - lo <= _BRACKET_WIDTH:
            break
        scale = lo - g_lo * (hi - lo) / (g_hi - g_lo) if g_lo < 0.0 else lo
        if not lo < scale < hi:
            scale = 0.5 * (lo + hi)
        g = slope(scale)
        if abs(g) <= tol:
            return scale
        if g <= 0.0:
            lo, g_lo = scale, g
            if moved > 0:
                g_hi *= 0.5
            moved = 1
        else:
            hi, g_hi = scale, g
            if moved < 0:
                g_lo *= 0.5
            moved = -1
    return 0.5 * (lo + hi)


def _make_record(t: float, values: np.ndarray, cfg: FlowConfig,
                 asm: OperatorAssembly, rows: tuple,
                 prev_half_norm: float | None) -> FlowRecord:
    """Snapshot at time t; ``rows`` are the mu_0, mu_1 and mu_n weight rows."""
    gf = GridFunction(values)
    v = asm.metric_norm_sq(values)
    lp = energy(gf, cfg.p)
    if prev_half_norm is None:
        residual = 0.0
    else:
        residual = abs((0.5 * v - prev_half_norm) / cfg.dt + cfg.p * lp)
    return FlowRecord(
        t=t,
        mu0=float(rows[0] @ values),
        mu1=float(rows[1] @ values),
        mun=float(rows[2] @ values),
        lp_energy=lp,
        hy_norm_sq=v,
        dissipation_residual=residual,
    )


def run_flow(u0: GridFunction, cfg: FlowConfig, asm: OperatorAssembly,
             store_states: bool = False) -> FlowResult:
    """Advance the flow to t_final, recording one snapshot per step.

    The dissipation residual of step k compares the discrete derivative of
    half the squared metric norm with -p times the energy at the step's end
    state; it vanishes at first order in dt for the exact identity.
    """
    def step(asm, state, previous):
        # linear extrapolation stays feasible and warm-starts the Newton solve
        warm = GridFunction(2.0 * state.values - previous.values)
        return prox_step(state, cfg, asm, warm=warm)

    return _run(u0, cfg, asm, step, store_states)


def run_linear_flow(u0: GridFunction, cfg: FlowConfig, asm: OperatorAssembly,
                    scheme: str = "implicit_euler", eta: float = 1.0,
                    store_states: bool = False) -> FlowResult:
    """Advance the linear (p = 2) semigroup, recording the same snapshots.

    This path steps through the dedicated saddle-point solver of the linear
    module rather than the proximal Newton loop, so it serves as the
    independent oracle for the p = 2 nonlinear flow.
    """
    if cfg.p != 2.0:
        raise ValueError("the linear path is the p = 2 flow")

    def step(asm, state, previous):
        return heat_step(asm, state, cfg.dt, scheme=scheme, eta=eta)

    return _run(u0, cfg, asm, step, store_states)


def _run(u0: GridFunction, cfg: FlowConfig, asm: OperatorAssembly,
         step, store_states: bool) -> FlowResult:
    """The time loop shared by both flows.

    ``step(asm, state, previous)`` returns the state one step of cfg.dt
    after ``state``; ``previous`` is the state one step before it (the
    initial data on the first step).
    """
    if u0.n_points != asm.n_points:
        raise ValueError("initial data lives on the wrong grid")
    drift = float(np.max(np.abs(asm.constraints @ u0.values), initial=0.0))
    if drift > 1e-7:
        raise ValueError(
            f"initial data violates constraints by {drift:.3e}; project it first")
    rows = tuple(moment_weight_row(k, asm.n_points) for k in (0, 1, asm.n))
    records = [_make_record(0.0, u0.values, cfg, asm, rows, None)]
    states = [u0.values.copy()] if store_states else None
    state = previous = u0
    half_norm = 0.5 * records[0].hy_norm_sq
    for k in range(1, step_count(cfg.dt, cfg.t_final) + 1):
        state, previous = step(asm, state, previous), state
        rec = _make_record(k * cfg.dt, state.values, cfg, asm, rows, half_norm)
        half_norm = 0.5 * rec.hy_norm_sq
        records.append(rec)
        if states is not None:
            states.append(state.values.copy())
    return FlowResult(config=cfg, records=records, final=state,
                      states=np.array(states) if states is not None else None)


def project_admissible(f, n: int, space: ConstraintSpace):
    """Shift f by a combination of 1 and (1-x)^n into the admissible set.

    Polynomial inputs are corrected exactly; grid inputs use the shared
    quadrature moments, so the projected moments vanish to rounding error.
    Under both moment conditions this is the remainder of the orthogonal
    projection onto span{1, (1-x)^n}; a mass condition subtracts the mass
    times 1, and a line condition shifts along whichever basis vector has
    the larger constraint residual.
    """
    if space.kind == "full":
        return f
    if space.kind == "zero_zero":
        return span_projection(f, n)[1]
    one, wn = span_basis(f, n)
    if space.kind == "zero_free":
        return f - moment(f, 0) * one
    residual = space.line_residual(f, n)
    coeff_one = space.line_residual(one, n)
    coeff_wn = space.line_residual(wn, n)
    if abs(coeff_one) >= abs(coeff_wn):
        return f - (residual / coeff_one) * one
    return f - (residual / coeff_wn) * wn


# squared metric norms at or below this are treated as underflowed to zero
# by the decay fits and checks
NEGLIGIBLE_NORM_SQ = 1e-28
# fewest records a decay fit accepts in its window
FIT_MIN_POINTS = 20


@dataclass(frozen=True)
class DecayFit:
    """Least-squares decay fit over the tail window of a run."""

    model: str
    rate: float
    r_squared: float
    intercept: float
    t_lo: float
    t_hi: float
    n_used: int


def fit_decay(records, model: str, window: tuple | None = None) -> DecayFit:
    """Fit the squared-norm decay over the tail window.

    ``polynomial`` fits log v against log t and reports the slope;
    ``exponential`` fits log v against t and reports the positive rate.
    The window defaults to the second half of the run and is truncated at
    the first sample at or below ``NEGLIGIBLE_NORM_SQ``, before underflow
    pollutes the logarithms.
    """
    if model not in ("polynomial", "exponential"):
        raise ValueError(f"unknown decay model {model!r}")
    t = np.array([r.t for r in records])
    v = np.array([r.hy_norm_sq for r in records])
    below = np.nonzero(v <= NEGLIGIBLE_NORM_SQ)[0]
    if below.size:
        t, v = t[: below[0]], v[: below[0]]
    if window is None:
        window = (t[-1] / 2.0, t[-1]) if t.size else (0.0, 0.0)
    mask = (t >= window[0]) & (t <= window[1]) & (t > 0.0)
    t, v = t[mask], v[mask]
    if t.size < FIT_MIN_POINTS:
        raise ValueError(f"only {t.size} usable records in the fit window")
    xs = np.log(t) if model == "polynomial" else t
    ys = np.log(v)
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r_sq = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    rate = float(slope) if model == "polynomial" else float(-slope)
    return DecayFit(model=model, rate=rate, r_squared=float(r_sq),
                    intercept=float(intercept), t_lo=float(t[0]),
                    t_hi=float(t[-1]), n_used=int(t.size))


@dataclass(frozen=True)
class InequalityReport:
    max_violation: float
    c_empirical: float
    n_used: int


def decay_inequality_check(records, p: float) -> InequalityReport:
    """Check v' <= 0 and estimate C in v' <= -C v^(p/2) along the run.

    v' comes from central differences of the squared norm; the report
    carries the worst positive violation (zero for a monotone run) and the
    smallest observed ratio -v'/v^(p/2).
    """
    if len(records) < 3:
        raise ValueError("at least three records are needed")
    t = np.array([r.t for r in records])
    v = np.array([r.hy_norm_sq for r in records])
    dv = (v[2:] - v[:-2]) / (t[2:] - t[:-2])
    mid = v[1:-1]
    usable = mid > NEGLIGIBLE_NORM_SQ
    if not np.any(usable):
        raise ValueError("flow is identically negligible; nothing to check")
    worst = float(np.max(np.maximum(dv[usable], 0.0)))
    decaying = usable & (dv < 0.0)
    if np.any(decaying):
        c_emp = float(np.min(-dv[decaying] / mid[decaying] ** (p / 2.0)))
    else:
        c_emp = 0.0
    return InequalityReport(max_violation=worst, c_empirical=c_emp,
                            n_used=int(np.sum(usable)))


# proximal steps the embedding-constant iteration may take, and the
# relative fall of the quotient below which it stops
_EMBEDDING_MAX_STEPS = 1000
_EMBEDDING_RTOL = 1e-13


def embedding_constant(asm: OperatorAssembly, p: float) -> float:
    """Smallest observed ||u||_p^p / ||u||_metric^p on the admissible space.

    Found by the normalized proximal power iteration (Bungert, Hait-Fraenkel,
    Papadakis & Gilboa, SIAM J. Imaging Sci. 14, 2021): start from the
    slowest mode of ``asm.eigensystem``, scale f to unit metric norm, read
    the quotient Q = sum w |f|^p and take one ``prox_step`` of length
    1/(2 Q); stop once Q falls by less than 1e-13 relative.  For p < 2 the
    step stays below the extinction time 1/((2-p) Q) of unit data, so no
    iterate vanishes.  A descent method from one start, it finds the
    minimum the slowest mode leads to.  The value certifies the discrete
    embedding of the energy space into the ambient metric space and feeds
    the predicted exponential rate for p < 2.
    """
    if not p > 1.0:
        raise ValueError("exponent must exceed 1")
    f = asm.eigensystem(1)[1][:, 0]
    best = np.inf
    for _ in range(_EMBEDDING_MAX_STEPS):
        f = f / asm.metric_norm_sq(f) ** 0.5
        quotient = float(asm.weights @ np.abs(f) ** p)
        if quotient >= (1.0 - _EMBEDDING_RTOL) * best:
            return min(best, quotient)
        best = quotient
        dt = 0.5 / quotient
        f = prox_step(GridFunction(f), FlowConfig(p=p, dt=dt, t_final=dt), asm).values
    raise NumericalError(
        f"embedding constant iteration did not settle in {_EMBEDDING_MAX_STEPS} steps")


def trajectory_quotient_min(records, p: float) -> float:
    """min over records of ||u||_p^p / ||u||_metric^p, from stored data."""
    vals = [
        p * r.lp_energy / r.hy_norm_sq ** (p / 2.0)
        for r in records if r.hy_norm_sq > NEGLIGIBLE_NORM_SQ
    ]
    if not vals:
        raise ValueError("no usable records")
    return float(min(vals))


def metric_distance(asm: OperatorAssembly, a: np.ndarray, b: np.ndarray) -> float:
    diff = a - b
    return asm.metric_norm_sq(diff) ** 0.5


def nonlinear_strong_form_gap(state: GridFunction, cfg: FlowConfig,
                              asm: OperatorAssembly, tests) -> dict:
    """Exploratory check that the induced potential emerges from the prox.

    The energy-gradient density phi = |f|^(p-2) f of a converged state is
    pushed through the strong form -phi'' + coeff (1-x)^(n-2) with coeff
    given by the closed formula applied to phi, and the weak action of that
    image is compared against the L2 pairing of phi on admissible tests.
    The gap is a discretization-level diagnostic only.
    """
    phi = energy_gradient(state, cfg.p, EPS_REG)
    # phi itself need not be admissible, so the input check is off
    image = strong_apply(phi, asm.n, asm.space, constraint_tol=np.inf)
    grid_tests = [h if isinstance(h, GridFunction) else GridFunction(h)
                  for h in tests]
    return {"gap": weak_pairing_gap(image, phi, grid_tests, asm),
            "potential_coefficient": float(potential_coefficient(phi, asm.n))}
