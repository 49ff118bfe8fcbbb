"""Channel figures of merit: output p-norms, minimal output entropy,
energy-constrained Holevo capacity, and multiplicativity/additivity checks.

Closed forms exist for classical-noise, thermal-noise and lossy channels
and their tensor products, read leaf by leaf in mode order from one rule,
``_leaf_optimum`` (each leaf's optimal output spectrum, photon map and
optimal input, each built only when a caller asks for it).  Every
other channel goes through a search over Gaussian inputs, and every search
runs one driver: BFGS on the analytic gradient, in Cayley charts of the
symplectic group.  The minimal output Renyi entropies search the pure
inputs.  The energy-constrained sup of the output entropy searches the
physical inputs as the marginals of pure inputs on twice the modes, and an
exact map onto the energy shell keeps each input physical, never a penalty.

Numeric searches are falsification-oriented: they can certify that no
sampled input beats a bound, not global optimality for custom channels.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from itertools import compress
from dataclasses import dataclass

import numpy as np

from . import channels as ch
from . import states as st
from .symplectic import (
    _direct_sum,
    _form,
    _frames,
    _spectrum,
    rng_stream,
    sample_symplectics,
    symplectic_inverse,
    williamson,
)

__all__ = [
    "EnergyBudget",
    "OptimizationReport",
    "CapacityReport",
    "min_output_fp_closed",
    "max_output_p_norm",
    "min_output_entropy",
    "numeric_inf_fp",
    "max_output_entropy_under_energy",
    "gaussian_holevo_capacity",
    "multiplicativity_check",
    "additivity_check",
    "log_fp_concavity_check",
]

#: Tolerance for comparisons against closed-form optima (inf side).
TOL_OPT_CLOSED = 1e-6
#: Tolerance for the flatter sup-side searches (capacity).
TOL_OPT_SUP = 1e-3
#: Largest second difference of ln f_p that the concavity grid accepts.
CONCAVITY_BOUND = 1e-9
#: Units of eps times |ln F_p| by which a multiplicativity margin may miss 0 through rounding
#: alone: F_p = exp(ln F_p) carries a relative error of a few eps |ln F_p|, beyond any fixed tolerance at large p.
MARGIN_ULPS = 8.0
#: Candidates per step of the water-level search: each step narrows its bracket this many times.
_FILL_GRID = 64


class UnsupportedKindError(ValueError):
    """The channel kind has no closed form; use the numeric search."""


class InfeasibleEnergyError(ValueError):
    """Energy budget below the total zero-point energy; capacity is zero."""


@dataclass(frozen=True)
class EnergyBudget:
    """Total input energy and the per-mode frequencies it refers to."""

    total: float
    omega: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "omega", st._as_omega(self.omega, np.size(self.omega)))
        if not math.isfinite(self.total):
            raise ValueError(f"energy must be a finite number, got {self.total}")

    @property
    def zero_point(self) -> float:
        """Minimum energy of any physical state: sum of omega_k / 2."""
        return 0.5 * float(np.sum(self.omega))

    @property
    def feasible(self) -> bool:
        return self.total >= self.zero_point - 1e-12

    def check_modes(self, n: int) -> None:
        """Raise ``ValueError`` unless the budget gives one frequency per mode."""
        if self.omega.shape != (n,):
            raise ValueError(f"budget frequencies must cover {n} modes, got {self.omega.shape}")


@dataclass
class OptimizationReport:
    """Outcome of a budgeted search.

    ``converged`` is the termination of the run that produced
    ``best_value``: False when that run stopped at its evaluation cap.
    """

    best_value: float
    best_input: np.ndarray
    evaluations: int
    budget: int
    converged: bool
    gap_to_closed_form: float | None = None


# ---------------------------------------------------------------------------
# closed forms

#: The closed-form rule of one leaf, from ``_leaf_optimum``: three functions that compute on call.
_LeafRule = namedtuple("_LeafRule", "spectrum photon_map witness")


def _leaf_optimum(leaf: ch.GaussianChannel) -> _LeafRule:
    """The closed-form rule of one leaf, each member computed on call, so a
    caller computes only what it reads: its optimal output spectrum nu*, its
    photon map (a, b), under which a thermal input mode with N photons
    leaves as a thermal mode with a N + b photons, and its witness, the pure
    input covariance whose output spectrum is nu*.

    Thermal and lossy: a = eta, b = (1 - eta) nbar, nu* = 1 + 2 b, and the
    witness is the vacuum.  Classical noise: nu* = 1 + nu(Y), and a = 1,
    b = y_k / 2 when Y = (+)_k y_k I_2; the map is None for a phase-sensitive
    Y.  Its witness is the inverse Williamson frame of Y, which aligns the
    input with Y; a singular Y has no Williamson form, so Y + eps I takes
    its place when the certificate, the minimum eigenvalue of Y, is below
    eps = ``NOISE_EPS``.  Any other leaf raises ``UnsupportedKindError``.
    """
    if leaf.kind in ("thermal", "lossy"):
        b = (1.0 - leaf.eta) * leaf.nbar
        return _LeafRule(lambda: 1.0 + 2.0 * b, lambda: (leaf.eta, b), lambda: np.eye(2 * leaf.n))
    if leaf.kind != "classical":
        raise UnsupportedKindError(f"no closed form for kind {leaf.kind!r}; use the numeric search")

    def photon_map():
        y, y_k = leaf.y, np.diag(leaf.y)[0::2]
        isotropic = np.max(np.abs(y - np.diag(np.repeat(y_k, 2)))) <= ch.TOL_CP * max(1.0, float(np.max(np.abs(y))))
        return (np.ones(leaf.n), 0.5 * y_k) if isotropic else None

    def witness():
        y = leaf.y if leaf.cp_eigenvalue >= ch.NOISE_EPS else leaf.y + ch.NOISE_EPS * np.eye(2 * leaf.n)
        s_inv = symplectic_inverse(williamson(y).s)
        return s_inv @ s_inv.T

    return _LeafRule(lambda: 1.0 + ch._noise_spectrum(leaf.y, leaf.cp_eigenvalue), photon_map, witness)


def optimal_output_spectrum(channel: ch.GaussianChannel) -> np.ndarray:
    """nu*, the per-mode output spectrum at the optimal Gaussian input, leaf
    by leaf in mode order; every closed-form optimum is a function of it."""
    return np.concatenate([_leaf_optimum(leaf).spectrum() for leaf in channel.leaves])


def fp_product(x: np.ndarray, p: float | np.ndarray) -> float | list[float]:
    """prod_k f_p(x_k) of a spectrum x >= 1 at p > 1, unchecked; inf where it overflows a double.
    A column of orders p[:, None] gives a list of products, one per order."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.prod(st._f_p(x + 1.0, x - 1.0, p), axis=-1).tolist()


def min_output_renyi_closed(channel: ch.GaussianChannel, p: float) -> float:
    """Closed-form minimal output Renyi-p entropy over Gaussian inputs, p in
    (0, inf]: classical noise leaves 1 + y_k over the symplectic spectrum of
    Y, thermal noise 1 + 2 (1 - eta_k) nbar_k.  The other optima read it."""
    return st.renyi_entropy(optimal_output_spectrum(channel), p)


def log_fp_of_renyi(n: int, p: float, s_p: float) -> float:
    """ln F_p = n p ln 2 + (p - 1) S_p of an n-mode output with Renyi-p entropy ``s_p``."""
    return n * p * math.log(2.0) + (p - 1.0) * s_p


def exp_or_inf(x: float) -> float:
    """exp(x), inf where it overflows a double: F_p from ln F_p."""
    with np.errstate(over="ignore"):
        return float(np.exp(x))


def check_fp_order(p: float) -> None:
    """Refuse an F_p order that is not finite and > 1: F_inf is +inf for every state."""
    if not 1.0 < p < math.inf:  # NaN fails the test
        raise ValueError(f"order must be {'finite' if p == math.inf else '> 1'}, got {p}")


def min_output_fp_closed(channel: ch.GaussianChannel, p: float) -> float:
    """Closed-form infimum of F_p over pure Gaussian inputs, finite p > 1: the
    product of f_p over the optimal output spectrum, inf where it overflows
    (its log, from ``min_output_renyi_closed``, is finite)."""
    check_fp_order(p)
    return fp_product(optimal_output_spectrum(channel), p)


def max_output_p_norm(channel: ch.GaussianChannel, p: float) -> float:
    """Maximal output Schatten p-norm, exp(-(1 - 1/p) min S_p), p in (1, inf];
    below p = 1 the p-quasi-norm grows with S_p and has no maximum."""
    if not p > 1.0:
        raise ValueError(f"order must be > 1, got {p}")
    return math.exp(min_output_renyi_closed(channel, p) * (1.0 / p - 1.0))


def min_output_entropy(channel: ch.GaussianChannel, budget: int = 20000, seed: int = 0) -> float:
    """Minimal output entropy over Gaussian inputs.

    Closed form when every leaf is classical, thermal or lossy; a numeric
    search with the entropy objective otherwise.
    """
    try:
        return min_output_renyi_closed(channel, 1.0)
    except UnsupportedKindError:
        return numeric_min_renyis([(channel, 1.0)], budget, seed)[0].best_value


def _gap_to_closed_form(gap) -> float | None:
    """gap(), the search's best minus the closed form, or None where no closed
    form can be computed: a kind without one, or a closed form that fails."""
    try:
        return gap()
    except (ValueError, ArithmeticError, np.linalg.LinAlgError):
        return None


# ---------------------------------------------------------------------------
# the search: BFGS in Cayley charts of Sp(2n)

@functools.cache
def _chart_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The parameters of a symmetric 2n x 2n H, its upper triangle in row-major
    order: each row-major entry's parameter, the triangle's (row, column)
    indices, and the weight of each parameter's gradient, 1/2 on the diagonal."""
    rows, cols = np.triu_indices(2 * n)
    gather = np.empty((2 * n, 2 * n), dtype=np.intp)
    gather[rows, cols] = gather[cols, rows] = np.arange(len(rows))
    layout = gather.ravel(), rows, cols, np.where(rows == cols, 0.5, 1.0)
    for array in layout:
        array.setflags(write=False)
    return layout


def _cayley(t0: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A^-1, T) of the chart centred at T0 for the parameters v, stacked like
    t0 and v: T = T0 C(H), with C(H) = (I - JH/2)^-1 (I + JH/2) = 2 A^-1 - I,
    A = I - JH/2, symplectic for every symmetric H."""
    n = t0.shape[-1] // 2
    eye = np.eye(2 * n)
    h = v[..., _chart_layout(n)[0]].reshape(v.shape[:-1] + (2 * n, 2 * n))
    a_inv = np.linalg.inv(eye - 0.5 * (_form(n) @ h))
    return a_inv, t0 @ (2.0 * a_inv - eye)


def _renyi_slope(nu: np.ndarray, p) -> np.ndarray:
    """dS_p/dnu of each mode of a spectrum nu >= 1, p as in ``states._renyi``:
    p (1 - r^(p-1)) / ((p - 1)(nu + 1)(1 - r^p)) with r = (nu - 1)/(nu + 1),
    arccoth nu at p = 1 and 1/(nu + 1) at p = inf.  A pure mode at p <= 1 has
    an infinite slope: the search treats it as a face, with slope 0."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_r = -np.log1p(2.0 / (nu - 1.0))
        if getattr(p, "ndim", 0) == 0 and p == 1.0:
            slope = -0.5 * log_r
        else:
            ratio = p / (p - 1.0) * np.expm1((p - 1.0) * log_r) / np.expm1(p * log_r)
            slope = np.where(p == np.inf, 1.0, ratio) / (nu + 1.0)
    return np.where(np.isfinite(slope), slope, 0.0)


def _output_values(x: np.ndarray, y: np.ndarray, p: np.ndarray, gamma: np.ndarray):
    """Values and input gradients of stacked rows, row i the Renyi-p[i] entropy
    of the output X_i^T gamma_i X_i + Y_i; the rows of order 1 come first.

    With S the Williamson frame of the output, the gradient in the output is
    G = 1/2 S^T diag(phi'(nu), doubled) S (Jain and Mishra, arXiv 2004.11024),
    and in the input X G X^T.
    """
    nus, s = _frames(ch._act(x, y, gamma))
    nus = np.maximum(nus, 1.0)  # rounding can undercut the floor 1
    ones = int(np.count_nonzero(p == 1.0))
    parts = [(nus[:ones], 1.0), (nus[ones:], p[ones:, None])]
    values = np.concatenate([st._renyi(nu, order) for nu, order in parts if len(nu)])
    slopes = np.concatenate([_renyi_slope(nu, order) for nu, order in parts if len(nu)])
    g = (s.swapaxes(-1, -2) * (0.5 * slopes).repeat(2, axis=-1)[..., None, :]) @ s
    return values, x @ g @ x.swapaxes(-1, -2)


def _chart_gradient(a_inv: np.ndarray, t: np.ndarray, t0: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The gradient in H of a function of gamma = T T^T with gradient ``grad``
    in gamma: N + N^T off the diagonal and N on it, N = 2 A^-1 T^T grad T0 A^-1 J.
    t and t0 may be the first rows of T and T0, those that gamma reads."""
    n = a_inv.shape[-1] // 2
    k = (2.0 * (a_inv @ t.swapaxes(-1, -2))) @ grad @ (t0 @ a_inv) @ _form(n)
    _, rows, cols, weight = _chart_layout(n)
    return (k[..., rows, cols] + k[..., cols, rows]) * weight


def _chart_values(x: np.ndarray, y: np.ndarray, p: np.ndarray, t0: np.ndarray, v: np.ndarray):
    """Values and chart gradients of stacked rows of the pure-input search, row
    i the Renyi-p[i] entropy of the output X_i^T gamma X_i + Y_i at the pure
    input gamma = T T^T of the chart (t0[i], v[i]); the rows of order 1 come first."""
    a_inv, t = _cayley(t0, v)
    values, grad = _output_values(x, y, p, t @ t.swapaxes(-1, -2))
    return values, _chart_gradient(a_inv, t, t0, grad)


def _energy_map(gamma: np.ndarray, w: np.ndarray, energy) -> tuple:
    """The physical inputs P = R + alpha (gamma - R) of energy tr(W P)/4 =
    ``energy``, W = diag(w), one per row of the physical stack gamma.

    A row below the energy scales up from R = 0 (alpha >= 1); a row above it
    mixes with the vacuum R = I (alpha in [0, 1)), which needs an energy
    above the zero point tr(W)/4.  Both keep P physical; a row whose energy
    overflows maps to NaN.  Returns P, alpha as an (m, 1, 1) stack, R, and
    e(gamma) - e(R).
    """
    e = 0.25 * (gamma.diagonal(axis1=-2, axis2=-1) * w).sum(axis=-1)
    above = e > energy
    e_ref = np.where(above, 0.25 * w.sum(axis=-1), 0.0)
    alpha = np.where(np.isfinite(e), (energy - e_ref) / (e - e_ref), np.nan)[..., None, None]
    ref = above[..., None, None] * np.eye(gamma.shape[-1])
    return alpha * gamma + (1.0 - alpha) * ref, alpha, ref, e - e_ref


def _sup_values(x: np.ndarray, y: np.ndarray, w: np.ndarray, energy: np.ndarray, t0: np.ndarray, v: np.ndarray):
    """Values and chart gradients of stacked rows of the sup-entropy search,
    row i minus the output entropy of X_i^T P X_i + Y_i, P the ``_energy_map``
    onto energy[i] of gamma = T_A T_A^T, T_A the first 2n rows of the chart
    (t0[i], v[i]) on 2n modes: gamma is the marginal of a pure input, so it
    is physical, and every physical input is one.

    Through P the input gradient G becomes alpha (G - lambda W), lambda =
    tr(G (gamma - R)) / (4 (e(gamma) - e(R))), the derivative of the energy
    normalization.
    """
    n = x.shape[-1] // 2
    a_inv, t = _cayley(t0, v)
    t_a = t[..., : 2 * n, :]
    gamma = t_a @ t_a.swapaxes(-1, -2)
    p, alpha, ref, excess = _energy_map(gamma, w, energy)
    values, grad = _output_values(x, y, np.ones(len(v)), p)
    lam = (grad * (gamma - ref)).sum(axis=(-2, -1)) / (4.0 * excess)
    grad = alpha * (grad - lam[..., None, None] * (w[..., None] * np.eye(2 * n)))
    return -values, -_chart_gradient(a_inv, t_a, t0[..., : 2 * n, :], grad)


def _chart_rows(values_of, *rows):
    """``values_of(*rows)``, or, where the stacked call fails, each row alone; a
    lone row that fails scores +inf with a NaN gradient."""
    try:
        return values_of(*rows)
    except (np.linalg.LinAlgError, ValueError, ArithmeticError):
        v = rows[-1]
        if len(v) == 1:
            return np.array([np.inf]), np.full(v.shape, np.nan)
        parts = [_chart_rows(values_of, *(a[i : i + 1] for a in rows)) for i in range(len(v))]
        return np.concatenate([value for value, _ in parts]), np.concatenate([grad for _, grad in parts])


def _chart_groups(jobs) -> list:
    """The mode-count groups of the pure-input searches of (channel, p) jobs:
    per mode count n, (n, its jobs' indices, the order-1 jobs first, and their
    X, Y and p, each stacked one entry per job)."""
    groups = {}
    for j in sorted(range(len(jobs)), key=lambda j: jobs[j][1] != 1.0):
        groups.setdefault(jobs[j][0].n, []).append(j)
    return [(n, members, (np.array([jobs[j][0].x for j in members]), np.array([jobs[j][0].y for j in members]),
                          np.array([jobs[j][1] for j in members]))) for n, members in groups.items()]


def _chart_scores(rounds) -> list:
    """One round of ``_lockstep_bfgs``: per group (values function, rows), one ``_chart_rows`` call on its
    rows (the function's arrays one entry per row, centres t0, parameters v); a row whose value or gradient is
    not finite scores +inf."""
    scored = [_chart_rows(values_of, *rows) for values_of, rows in rounds]
    return [(np.where(np.isfinite(values) & np.isfinite(grads).all(axis=-1), values, np.inf), grads)
            for values, grads in scored]


#: Runs per search: the first from a fixed input, the others from Philox symplectic starts.
STARTS = 4
#: Largest entry of a chart's H, and of one step in it; a run re-centres its chart past it.
_CHART_RADIUS = 1.0
#: A BFGS run in a chart ends on a gradient with no entry above ``_GTOL``, or on a
#: step that lowers the value by at most ``_FTOL`` times max(1, |value|).
_GTOL = 1e-10
_FTOL = 4 * np.finfo(float).eps
#: The backtracking line search's step scales, halved down to the last above 1e-10.
_STEP_SCALES = [0.5**k for k in range(34)]


def _chart_starts(n: int, seed: int) -> list[np.ndarray]:
    """The chart centres T0 of a search's ``STARTS`` runs: the identity (the
    vacuum of a pure-input search), then one symplectic per run, drawn on the
    lane (seed, run), so every search of a mode count starts its runs from
    the same inputs, and a lockstep draws them once per mode count."""
    return [np.eye(2 * n)] + [sample_symplectics(rng_stream(seed, run), n, 1, (1.0, 2.0))[0]
                              for run in range(1, STARTS)]


def _inverse_update(inv: np.ndarray, s: np.ndarray, y: np.ndarray, sy: float) -> None:
    """The BFGS update of the inverse Hessian ``inv`` in place, sy = s.y > 0 (Nocedal and Wright, eq. 6.17);
    q + q^T, q = (inv y) s^T, has the bits of outer(inv y, s) + outer(s, inv y)."""
    hy = inv @ y
    q = hy[:, None] * s
    inv += ((sy + float(y @ hy)) / sy**2) * (s[:, None] * s) - (q + q.T) / sy


def _chart_run(t0: np.ndarray, cap: int):
    """One run of ``_lockstep_bfgs``, at most ``cap`` rows, written as a
    generator: it yields each row (t0, v) to score and is sent its (value,
    gradient); the lockstep keeps the best row.  In the chart centred at t0,
    BFGS from the origin with a backtracking (Armijo) line search over
    ``_STEP_SCALES``; a trial that scores +inf only shortens the step.  Steps
    are cut to ``_CHART_RADIUS``.  Until a step finds positive curvature the
    steps are steepest descent, and each step along negative curvature
    doubles the next, so a run on a flat, concave stretch does not crawl.
    BFGS in a chart stops on a small gradient, on a step that makes no
    decrease, or where the point leaves the chart; the run then re-centres
    there, until a chart makes no decrease or the cap is reached.  Returns
    the rows scored, and whether the run stopped converged rather than at
    its cap."""
    dim = len(t0) * (len(t0) + 1) // 2
    value, grad = yield t0, np.zeros(dim)
    evals = 1
    while value < np.inf:  # a start that scores +inf ends the run; a re-centred one is a scored point
        start_value, x, inv, scale, left = value, np.zeros(dim), None, 1.0, False
        while not left and np.abs(grad).max() > _GTOL:
            step = -scale * grad if inv is None else -(inv @ grad)
            slope = float(grad @ step)
            if slope >= 0.0:  # rounding in inv: steepest descent, and a fresh inverse
                step, slope, inv = -grad, -float(grad @ grad), None
            step *= min(1.0, _CHART_RADIUS / np.abs(step).max())
            noise = _FTOL * max(1.0, abs(value))
            for alpha in _STEP_SCALES:
                if evals == cap:
                    return evals, False
                trial = x + alpha * step
                trial_value, trial_grad = yield t0, trial
                evals += 1
                if trial_value <= value + 1e-4 * alpha * slope + noise:
                    break
            else:  # no step scale decreases the value: BFGS in this chart has stalled
                break
            s, y = trial - x, trial_grad - grad
            decrease = value - trial_value
            x, value, grad = trial, trial_value, trial_grad
            sy = float(s @ y)
            if sy > 0.0:
                if inv is None:
                    inv = np.eye(dim) * (sy / float(y @ y))
                _inverse_update(inv, s, y, sy)
            elif inv is None:
                scale *= 2.0
            if decrease <= noise:
                break
            left = np.abs(x).max() > _CHART_RADIUS
        if not left and start_value - value <= _FTOL * max(1.0, abs(value)):
            return evals, True
        if evals == cap:
            return evals, False
        t0 = _cayley(t0[None], x[None])[1][0]
        value, grad = yield t0, np.zeros(dim)
        evals += 1
    return evals, False


def _lockstep_bfgs(groups, budget: int):
    """The search driver.  A group is (values function, its per-search arrays
    stacked one entry per search, the chart centres every search of the
    group starts its runs from).  A search runs ``_chart_run`` from each
    centre, run r capped at min(per_run, budget - r per_run) rows, per_run
    the budget's share rounded up.  A round scores the pending row of every
    live run in one ``_chart_scores`` call; a group's per-run arrays are
    built once and cut where runs end.  Returns, per search in group order,
    what it returns alone: the best value, its row (t0, v) (an earlier row
    or run wins a tie), the rows scored, and whether the run that found it
    converged."""
    if groups and budget < 1:
        raise ValueError(f"search budget must be >= 1, got {budget}")
    runs, search_runs, live = [], [], []
    for values_of, arrays, starts in groups:
        per_run = -(-budget // len(starts))
        caps = [cap for cap in (min(per_run, budget - run * per_run) for run in range(len(starts))) if cap > 0]
        first, searches = len(runs), len(arrays[0])
        search_runs += [range(first + j * len(caps), first + (j + 1) * len(caps)) for j in range(searches)]
        runs += [_chart_run(t0, cap) for _ in range(searches) for t0, cap in zip(starts, caps)]
        live.append((values_of, [a.repeat(len(caps), axis=0) for a in arrays], list(range(first, len(runs)))))
    pending = [next(run) for run in runs]
    best, ends = [(np.inf, row) for row in pending], [None] * len(runs)
    while live:
        scores = _chart_scores([(values_of, (*rows, *map(np.array, zip(*(pending[r] for r in ids)))))
                                for values_of, rows, ids in live])
        kept = []
        for (values_of, rows, ids), (values, grads) in zip(live, scores):
            for r, value, grad in zip(ids, values.tolist(), grads):
                if value < best[r][0]:
                    best[r] = value, pending[r]
                try:
                    pending[r] = runs[r].send((value, grad))
                except StopIteration as stop:
                    ends[r] = stop.value
            if any(going := [ends[r] is None for r in ids]):
                kept.append((values_of, rows if all(going) else [a[going] for a in rows], list(compress(ids, going))))
        live = kept
    return [(*best[r], sum(ends[k][0] for k in ids), ends[r][1])  # min: the earlier run wins a tie
            for ids in search_runs for r in [min(ids, key=lambda r: best[r][0])]]


def _sup_starts(nu: float, draws: list[np.ndarray]) -> list[np.ndarray]:
    """The chart centres of a sup-entropy search's runs on 2n modes, n inputs
    then n ancillas: the purification of the thermal input nu I, a two-mode
    squeezer [[a I, b Z], [b Z, a I]] with a^2 = (nu + 1)/2, b^2 = (nu - 1)/2
    and Z = diag(1, -1) per mode, then (S_r + I) times it for the symplectics
    S_r of ``draws``, the n-mode ``_chart_starts``."""
    n = len(draws[0]) // 2
    a, b = math.sqrt(0.5 * (nu + 1.0)), math.sqrt(0.5 * (nu - 1.0))
    z = np.diag(np.tile([b, -b], n))
    base = np.block([[a * np.eye(2 * n), z], [z, a * np.eye(2 * n)]])
    return [np.concatenate([s @ base[: 2 * n], base[2 * n :]]) for s in draws]


def _searches(jobs, sup, budget: int, seed: int) -> tuple[list, OptimizationReport | None]:
    """The gapless reports of the pure-input searches of ``jobs``, (channel, p)
    each, one group on ``_chart_values`` per mode count, and of the sup search
    of ``sup``, None or (channel, EnergyBudget), on ``_sup_values``: one
    ``_lockstep_bfgs``, one ``_chart_starts`` draw per mode count.  Within
    1e-12 of the zero point the vacuum is the one input and no sup search
    runs; below it ``InfeasibleEnergyError`` is raised, and ``ValueError``
    where every scored input has an infinite entropy."""
    pure, ns = _chart_groups(jobs), set()
    if sup:
        channel, energy = sup
        n, w, vacuum = channel.n, energy.omega.repeat(2), energy.total <= energy.zero_point + 1e-12
        energy.check_modes(n)
        if not energy.feasible:
            raise InfeasibleEnergyError(f"energy {energy.total} below zero-point {energy.zero_point}")
        ns = set() if vacuum else {n}
    draws = {m: _chart_starts(m, seed) for m in ns | {m for m, _, _ in pure}}
    groups = [(_chart_values, arrays, draws[m]) for m, _, arrays in pure]
    groups += [(_sup_values, (channel.x[None], channel.y[None], w[None], np.array([energy.total])),
                _sup_starts(energy.total / energy.zero_point, draws[n])) for n in ns]
    reports = [None] * len(jobs)
    with np.errstate(all="ignore"):  # a row that overflows scores +inf
        results = _lockstep_bfgs(groups, budget)
        for j, (best, (t0, v), evals, converged) in zip([j for _, members, _ in pure for j in members], results):
            t = _cayley(t0[None], v[None])[1]
            reports[j] = OptimizationReport(best, (t @ t.swapaxes(-1, -2))[0], evals, budget, converged)
        if not sup:
            return reports, None
        if vacuum:
            best_input, evals, converged = np.eye(2 * n), 0, True
            best = -_chart_rows(_output_values, channel.x[None], channel.y[None], np.ones(1), best_input[None])[0][0]
        else:
            best, (t0, v), evals, converged = results[-1]
            t_a = _cayley(t0[None], v[None])[1][:, : 2 * n]
            best_input = _energy_map(t_a @ t_a.swapaxes(-1, -2), w, energy.total)[0][0]
    if not math.isfinite(best):
        raise ValueError(f"no input at energy {energy.total} has a finite output entropy")
    return reports, OptimizationReport(-float(best), best_input, evals, budget, converged)


def numeric_min_renyis(jobs, budget: int, seed: int) -> list[OptimizationReport]:
    """Minimization of the output Renyi-p entropy over all pure Gaussian inputs, entangled ones included,
    p in (0, inf], for every (channel, p) of ``jobs``, in one lockstep (``_searches``).  Each report, the one
    its job gets alone, carries the gap to ``min_output_renyi_closed`` when one exists."""
    if bad := [p for _, p in jobs if not p > 0.0]:
        raise ValueError(f"order must be positive, got {bad[0]}")
    reports = _searches(jobs, None, budget, seed)[0]
    for (channel, p), report in zip(jobs, reports):
        report.gap_to_closed_form = _gap_to_closed_form(lambda: report.best_value - min_output_renyi_closed(channel, p))
    return reports


def numeric_inf_fp(channel: ch.GaussianChannel, p: float, budget: int = 20000, seed: int = 0) -> OptimizationReport:
    """Numeric inf F_p over pure inputs, finite p > 1: ``numeric_min_renyis`` read through
    ``log_fp_of_renyi``, so ``best_value`` is inf where F_p overflows a double.  The
    gap to the closed form is one of F_p, or of ln F_p where the closed form overflows."""
    check_fp_order(p)
    report = numeric_min_renyis([(channel, p)], budget, seed)[0]
    gap = report.gap_to_closed_form
    report.best_value = exp_or_inf(log_fp_of_renyi(channel.n, p, report.best_value))
    if gap is not None:
        product = min_output_fp_closed(channel, p)
        report.gap_to_closed_form = report.best_value - product if math.isfinite(product) else (p - 1.0) * gap
    return report


def max_output_entropy_under_energy(
    channel: ch.GaussianChannel, budget: EnergyBudget, search_budget: int = 20000, seed: int = 0
) -> OptimizationReport:
    """Maximize the output entropy over physical inputs at fixed energy.

    One search on ``_sup_values`` (``_searches``): each physical input is the
    marginal of a pure input on twice the modes, in a Cayley chart, and the
    constraint sum_k omega_k Tr gamma_[k] = 4 E holds exactly through
    ``_energy_map``.  The first run starts at the purification of the
    mode-symmetric thermal input, so the result never falls below that
    candidate.  The report carries the gap to the exact water-filled output
    entropy when every leaf has one.

    Raises
    ------
    InfeasibleEnergyError
        When the budget lies below the total zero-point energy.
    ValueError
        When no input the search scores has a finite output entropy.
    """
    report = _searches([], (channel, budget), search_budget, seed)[1]
    report.gap_to_closed_form = _gap_to_closed_form(lambda: report.best_value - _water_filled_output(channel, budget)[0])
    return report


@dataclass
class CapacityReport:
    """Energy-constrained Gaussian Holevo capacity of a channel."""

    value: float
    feasible: bool
    min_entropy: float
    sup_entropy: float | None = None
    search: OptimizationReport | None = None


def _photon_maps(channel: ch.GaussianChannel) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode (a_k, b_k) of a phase-insensitive channel, the photon maps of
    ``_leaf_optimum`` leaf by leaf in mode order; a leaf without one raises
    ``UnsupportedKindError``."""
    maps = [_leaf_optimum(leaf).photon_map() for leaf in channel.leaves]
    if any(m is None for m in maps):
        raise UnsupportedKindError("no closed-form capacity for classical noise that is not isotropic on each mode")
    a, b = zip(*maps)
    return np.concatenate(a), np.concatenate(b)


def _water_fill(a: np.ndarray, b: np.ndarray, omega: np.ndarray, surplus: float) -> np.ndarray:
    """Photon numbers N >= 0 maximizing sum_k S(1 + 2 (a_k N_k + b_k)) at sum_k omega_k N_k = surplus.

    The KKT point is N_k = max(0, (1 / expm1(x_k) - b_k) / a_k), x_k = lam omega_k / a_k = exp(ln x_d + c_k),
    c_k = ln(omega_k a_d / (a_k omega_d)), so neither lam nor a product of frequencies need be a double.  Each
    step keeps the pair of ``_FILL_GRID`` candidates around the crossing of the spent share of the surplus (on
    frexp-scaled frequencies): four over ln x_1 find the mode d that takes the most, then steps over the bit
    patterns of N_d reach adjacent doubles, exact where d fills alone; the lower never overspends.  Modes with
    a_k = 0 take no photons, and with no a_k > 0 the modes share them evenly.  Overflowing photons raise
    ``ValueError``."""
    photons = np.zeros(a.shape)
    if surplus <= 0.0:
        return photons
    live = a > 0.0
    if live.any():
        a, b, w = a[live], b[live], omega[live]
        (mant, expo), (mant_s, expo_s), cost = np.frexp(w), math.frexp(surplus), np.log(w) - np.log(a)

        def fill(log_x: np.ndarray, c: np.ndarray) -> np.ndarray:  # expm1 -> inf gives N_k = 0, -> 0 gives inf
            return np.maximum((1.0 / np.expm1(np.exp(log_x[:, None] + c)) - b) / a, 0.0)

        def fill_at(n_d: np.ndarray) -> np.ndarray:  # the other modes of d's cost: a_k N_k + b_k = a_d N_d + b_d
            n = fill(np.log(np.log1p(1.0 / (a[d] * n_d + b[d]))), c)
            if len(same):
                n[:, same] = np.maximum((a[d] * n_d[:, None] + (b[d] - b[same])) / a[same], 0.0)
            n[:, d] = n_d
            return n

        def first_over(n: np.ndarray) -> int:
            over = np.ldexp(mant * n, expo - expo_s).sum(axis=1) > mant_s
            return int(np.argmax(over)) if over.any() else len(n)

        with np.errstate(divide="ignore", over="ignore"):
            # ln x_1 from where nothing is spent down to where every N_k overflows
            hi, lo = 8.0 - np.min(c := cost - cost[0]), -746.0 - np.max(c)
            for _ in range(4):
                grid = np.linspace(hi, lo, _FILL_GRID)
                k = first_over(fill(grid, c))
                hi, lo = grid[k - 1], grid[k]
            n = fill(grid[[max(k - 2, 0), k, min(k + 1, _FILL_GRID - 1)]], c)  # a cell wider on each side
            d = int(np.argmax(np.ldexp(mant * n[1], expo)))
            c, lo, hi = cost - cost[d], *n[[0, 2], d].view(np.int64).tolist()
            same = np.flatnonzero((c == 0.0) & (np.arange(len(c)) != d))
            while hi - lo > 1:
                grid = np.arange(lo, hi, -(-(hi - lo) // _FILL_GRID), dtype=np.int64)[1:]
                k = first_over(fill_at(grid.view(float)))
                lo, hi = (int(grid[k - 1]) if k else lo), (int(grid[k]) if k < len(grid) else hi)
            photons[live], above = fill_at(np.array([lo, hi]).view(float))
    else:
        photons[:] = above = surplus / float(np.sum(omega))
    if not np.isfinite(above).all():
        raise ValueError(f"the photon numbers of energy {surplus:.6g} above the zero point overflow a double")
    return photons


def _water_filled_output(channel: ch.GaussianChannel, budget: EnergyBudget) -> tuple[float, np.ndarray]:
    """Exact sup of the output entropy of ``channel`` at ``budget`` and the
    photon number of every input mode that attains it.

    With (a, b) from ``_photon_maps``, a mode with N photons leaves with
    entropy S(1 + 2 (a N + b)); less the minimal output entropy this is the
    Holevo-Werner capacity g(eta N + (1 - eta) nbar) - g((1 - eta) nbar) of
    a thermal mode (PRA 63, 032312, 2001).
    """
    a, b = _photon_maps(channel)
    photons = _water_fill(a, b, budget.omega, budget.total - budget.zero_point)
    return st.von_neumann_entropy(1.0 + 2.0 * (a * photons + b)), photons


def gaussian_holevo_capacity(
    channel: ch.GaussianChannel, budget: EnergyBudget, search_budget: int = 20000, seed: int = 0
) -> CapacityReport:
    """Capacity = sup of output entropy at the energy budget minus the
    minimal output entropy; exactly zero for infeasible budgets.

    When every leaf is thermal, lossy or per-mode isotropic classical the
    sup is the exact water-filled value and ``search`` is None; any other
    channel searches it, in one lockstep with a searched S_min (``_searches``).
    Both paths subtract the S_min that ``analyze`` reports.
    """
    budget.check_modes(channel.n)
    jobs, sup_job = [], None
    try:
        smin = min_output_renyi_closed(channel, 1.0)
    except UnsupportedKindError:
        jobs = [(channel, 1.0)]
    if budget.feasible:
        try:
            sup = _water_filled_output(channel, budget)[0]
        except UnsupportedKindError:
            sup_job = (channel, budget)
    reports, search = _searches(jobs, sup_job, search_budget, seed)
    smin = reports[0].best_value if jobs else smin
    if not budget.feasible:
        return CapacityReport(0.0, False, smin)
    sup = search.best_value if search else sup
    return CapacityReport(max(sup - smin, 0.0), True, smin, sup_entropy=sup, search=search)


# ---------------------------------------------------------------------------
# multiplicativity / additivity

def separable_optimal_input(channel: ch.GaussianChannel) -> np.ndarray:
    """Block-diagonal pure covariance attaining the product of optima: the
    direct sum of the leaves' witnesses (``_leaf_optimum``) in mode order."""
    return _direct_sum([_leaf_optimum(leaf).witness() for leaf in channel.leaves])


@dataclass(kw_only=True)
class MultiplicativityReport:
    """Joint-search evidence for multiplicativity of the output p-norm.  Where
    the product overflows a double, the F_p values give way to ``log_`` twins."""

    p: float
    product_of_optima: float | None = None
    log_product_of_optima: float | None = None
    numeric_best: float | None = None
    log_numeric_best: float | None = None
    witness_value: float | None = None
    log_witness_value: float | None = None
    margin: float
    passed: bool


def multiplicativity_checks(cases, search_budget: int, seed: int, tol: float) -> list[MultiplicativityReport]:
    """Search for an entangled input beating the product of single-channel
    optima of F_p, for every (channel_list, p) of ``cases``; PASS means none
    was found within tolerance and the separable witness attains the
    product.  Where the product overflows a double, ``margin`` and the
    witness test compare ln F_p instead.  Both tests allow ``tol`` and the
    rounding of F_p, ``MARGIN_ULPS`` eps |ln F_p| relative.  Every case is
    checked, and its nu* computed once, before the searches run together in
    one lockstep (``_searches``)."""
    if any(len(channel_list) < 2 for channel_list, _ in cases):
        raise ValueError("multiplicativity needs at least two channels")
    jobs = [(ch.tensor(channel_list), p) for channel_list, p in cases]
    spectra = [check_fp_order(p) or optimal_output_spectrum(joint) for joint, p in jobs]  # every order checked first
    reports = []
    for (joint, p), nu, search in zip(jobs, spectra, _searches(jobs, None, search_budget, seed)[0]):
        s_best, product = search.best_value, fp_product(nu, p)
        witness_nu = np.maximum(_spectrum(ch.apply_cov(joint, separable_optimal_input(joint))), 1.0)
        s_closed = st.renyi_entropy(nu, p)
        log_product = log_fp_of_renyi(joint.n, p, s_closed)
        rounding = MARGIN_ULPS * np.finfo(float).eps * abs(log_product)
        if math.isfinite(product):
            numeric_best = exp_or_inf(log_fp_of_renyi(joint.n, p, s_best))
            witness_value = fp_product(witness_nu, p)
            margin = numeric_best - product
            slack = tol + rounding * product
            witness_ok = abs(witness_value - product) <= tol * max(1.0, product) + rounding * product
            values = {"product_of_optima": product, "numeric_best": numeric_best, "witness_value": witness_value}
        else:
            margin = (p - 1.0) * (s_best - s_closed)
            slack = tol + rounding
            log_witness = log_fp_of_renyi(joint.n, p, st.renyi_entropy(witness_nu, p))
            witness_ok = abs(log_witness - log_product) <= slack
            values = {"log_product_of_optima": log_product, "log_numeric_best": log_product + margin,
                      "log_witness_value": log_witness}
        reports.append(MultiplicativityReport(p=p, margin=float(margin), passed=bool(margin >= -slack and witness_ok),
                                              **values))
    return reports


def multiplicativity_check(
    channel_list,
    p: float,
    search_budget: int = 20000,
    seed: int = 0,
    tol: float = TOL_OPT_CLOSED,
) -> MultiplicativityReport:
    """``multiplicativity_checks`` of one channel list at one order."""
    return multiplicativity_checks([(channel_list, p)], search_budget, seed, tol)[0]


@dataclass
class AdditivityReport:
    """Comparison of joint capacity against the best energy split."""

    total_energy: float
    joint_capacity: float
    best_split_value: float
    best_split: tuple[float, ...]
    margin: float
    passed: bool


def additivity_check(
    channel_list,
    budget: EnergyBudget,
    search_budget: int = 8000,
    seed: int = 0,
    tol: float = TOL_OPT_SUP,
) -> AdditivityReport:
    """Compare C_G of the tensor channel, found by one joint search, with the
    best split of the energy budget across factors, computed exactly.

    Every leaf must be thermal, lossy, or classical with noise
    Y = (+)_k y_k I_2 (``UnsupportedKindError`` otherwise).  A mode of such
    a leaf carries its Holevo-Werner capacity, so the best split
    water-fills the energy above the zero points over every mode of every
    factor.  ``best_split`` is each factor's energy,
    sum_k omega_k (N_k + 1/2) over its modes, and PASS means the joint
    search lands within ``tol`` of the exact optimum.  The search is the
    cross-check: an entangled input beating every split would show as a
    positive margin.
    """
    if len(channel_list) < 2:
        raise ValueError("additivity needs at least two channels")
    joint = ch.tensor(channel_list)
    budget.check_modes(joint.n)
    smin = min_output_renyi_closed(joint, 1.0)
    sup, photons = _water_filled_output(joint, budget)
    best_value = max(sup - smin, 0.0)
    energies = np.split(budget.omega * (photons + 0.5), np.cumsum([c.n for c in channel_list])[:-1])
    search = _searches([], (joint, budget), search_budget, seed)[1]  # the gap would fill the modes again
    joint_cap = max(search.best_value - smin, 0.0)
    margin = joint_cap - best_value
    return AdditivityReport(
        total_energy=budget.total,
        joint_capacity=joint_cap,
        best_split_value=best_value,
        best_split=tuple(float(np.sum(part)) for part in energies),
        margin=float(margin),
        passed=bool(abs(margin) <= tol),
    )


# ---------------------------------------------------------------------------
# log f_p concavity grid

@dataclass
class ConcavityReport:
    """Grid evidence that ln f_p is concave (and g_p >= 0 for p >= 2)."""

    worst_second_difference: float
    min_witness: float
    grid_size: int
    passed: bool


def log_fp_concavity_check(
    ps=(1.1, 2.0, 3.0, 7.0), points: int = 160, bound: float = CONCAVITY_BOUND
) -> ConcavityReport:
    """Second central differences of ln f_p on a log grid in x - 1 over
    x in [1.001, 50].

    The step shrinks near x = 1 where the curvature blows up, keeping the
    truncation error well below the magnitude of the (negative) value.
    """
    x_low, x_high = 1.0 + 1e-3, 50.0
    xs = 1.0 + np.geomspace(x_low - 1.0, x_high - 1.0, points)
    worst = -np.inf
    min_witness = np.inf
    for p in ps:
        h = np.minimum(0.05, (xs - 1.0) / 8.0)
        up = np.log(st.f_p(xs + h, p))
        mid = np.log(st.f_p(xs, p))
        dn = np.log(st.f_p(xs - h, p))
        second = (up - 2.0 * mid + dn) / h**2
        worst = max(worst, float(np.max(second)))
        if p >= 2.0:
            min_witness = min(min_witness, float(np.min(st.g_p(xs, p))))
    return ConcavityReport(
        worst_second_difference=worst,
        min_witness=min_witness,
        grid_size=len(ps) * points,
        passed=bool(worst <= bound and min_witness >= 0.0),
    )
