"""Channel figures of merit: output p-norms, minimal output entropy,
energy-constrained Holevo capacity, and multiplicativity/additivity checks.

Closed forms exist for classical-noise, thermal-noise and lossy channels
and their tensor products, read leaf by leaf in mode order; every other
channel goes through a derivative-free search over Gaussian inputs.
The search parameterizes covariances through the Euler form (two unitary
factors plus squeezings), so physicality holds by construction, and the
energy constraint is enforced by an exact projection, never a penalty.

Numeric searches are falsification-oriented: they can certify that no
sampled input beats a bound, not global optimality for custom channels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag
from scipy.optimize import brentq, minimize

from . import channels as ch
from . import states as st
from .symplectic import (
    _embed_unitary,
    _euler_form,
    _paired_squeeze,
    _spectrum,
    rng_stream,
)

#: Tolerance for comparisons against closed-form optima (inf side).
TOL_OPT_CLOSED = 1e-6
#: Tolerance for the flatter sup-side searches (capacity).
TOL_OPT_SUP = 1e-3


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
        object.__setattr__(self, "omega", np.atleast_1d(np.asarray(self.omega, dtype=float)))
        if not np.all((self.omega > 0.0) & np.isfinite(self.omega)):
            raise ValueError("mode frequencies must be positive and finite")

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
    """Outcome of a budgeted derivative-free search.

    ``converged`` is the termination of the restart that produced
    ``best_value``: False when that restart stopped at its evaluation cap.
    """

    best_value: float
    best_input: np.ndarray
    evaluations: int
    budget: int
    converged: bool
    gap_to_closed_form: float | None = None


# ---------------------------------------------------------------------------
# closed forms

def _closed_form_arguments(channel: ch.GaussianChannel) -> np.ndarray:
    """Per-mode output spectrum at the optimal input, leaf by leaf in mode order."""
    parts = []
    for leaf in channel.leaves:
        if leaf.kind == "classical":
            parts.append(1.0 + ch.noise_spectrum(leaf))
        elif leaf.kind in ("thermal", "lossy"):
            parts.append(1.0 + 2.0 * (1.0 - leaf.eta) * leaf.nbar)
        else:
            raise UnsupportedKindError(f"no closed form for kind {leaf.kind!r}; use the numeric search")
    return np.concatenate(parts)


def _fp_product(x: np.ndarray, p: float) -> float:
    """prod_k f_p(x_k), inf where it overflows a double."""
    with np.errstate(over="ignore"):
        return float(np.prod(st.f_p(x, p)))


def min_output_fp_closed(channel: ch.GaussianChannel, p: float) -> float:
    """Closed-form infimum of F_p over pure Gaussian inputs.

    Classical noise: product of f_p(1 + y_k) over the symplectic spectrum
    of Y.  Thermal noise: product of f_p(1 + 2 (1 - eta_k) nbar_k).  Both
    extend over the leaves of a product.  The product is inf where it
    overflows; ``log_min_output_fp_closed`` is finite.
    """
    if p <= 1.0:
        raise ValueError(f"order must be > 1, got {p}")
    return _fp_product(_closed_form_arguments(channel), p)


def log_min_output_fp_closed(channel: ch.GaussianChannel, p: float) -> float:
    """ln of ``min_output_fp_closed``, sum_k ln f_p(x_k), finite where the
    product overflows."""
    if p <= 1.0:
        raise ValueError(f"order must be > 1, got {p}")
    return float(np.sum(st.log_f_p(_closed_form_arguments(channel), p)))


def max_output_p_norm(channel: ch.GaussianChannel, p: float) -> float:
    """Maximal output Schatten p-norm: 2^n / (inf F_p)^{1/p}, from the log
    of inf F_p, which does not overflow."""
    return 2.0**channel.n * math.exp(-log_min_output_fp_closed(channel, p) / p)


def min_output_entropy_closed_only(channel: ch.GaussianChannel) -> float:
    """Closed-form minimal output entropy; raises for unsupported kinds."""
    return st.von_neumann_entropy(_closed_form_arguments(channel))


def min_output_entropy(channel: ch.GaussianChannel, budget: int = 20000, seed: int = 0) -> float:
    """Minimal output entropy over Gaussian inputs.

    Closed form when every leaf is classical, thermal or lossy; a numeric
    search with the entropy objective otherwise.
    """
    try:
        return min_output_entropy_closed_only(channel)
    except UnsupportedKindError:
        return numeric_min_entropy(channel, budget=budget, seed=seed).best_value


# ---------------------------------------------------------------------------
# search parameterizations

@functools.cache
def _hermitian_slots(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices of the diagonal, upper and lower triangle of an n x n
    matrix; the triangles are in row-major order of the upper one."""
    upper, lower = np.triu_indices(n, 1)
    return np.arange(n) * (n + 1), upper * n + lower, lower * n + upper


def _unitary_from_params(theta: np.ndarray, n: int) -> np.ndarray:
    """Map n^2 reals to a unitary through the exponential of a Hermitian.

    The first n reals are the diagonal; the rest are (real, imaginary)
    pairs of the upper triangle in row-major order.
    """
    if n == 1:
        return np.exp(1j * theta[:1]).reshape(1, 1)
    diag, upper, lower = _hermitian_slots(n)
    re = theta[n : n * n : 2]
    im = theta[n + 1 : n * n : 2]
    h = np.zeros(n * n, dtype=complex)
    h[diag] = theta[:n]
    h[upper] = re + 1j * im
    h[lower] = re - 1j * im
    w, v = np.linalg.eigh(h.reshape(n, n))
    return (v * np.exp(1j * w)) @ v.conj().T


def _pure_cov_dim(n: int) -> int:
    return n * n + n


def _pure_cov(theta: np.ndarray, n: int) -> np.ndarray:
    """Pure covariance gamma = T Z^2 T^T from n^2 + n parameters."""
    t = _embed_unitary(_unitary_from_params(theta[: n * n], n))
    zz = _paired_squeeze(np.exp(2.0 * np.clip(theta[n * n :], -12.0, 12.0)))
    return (t * zz[None, :]) @ t.T


def _phys_cov_dim(n: int) -> int:
    return 2 * n * n + 2 * n


def _phys_cov_factors(theta: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Symplectic S and excess spectrum d >= 0 from 2n^2 + 2n parameters."""
    t1 = _embed_unitary(_unitary_from_params(theta[: n * n], n))
    z = np.exp(np.clip(theta[n * n : n * n + n], -12.0, 12.0))
    t2 = _embed_unitary(_unitary_from_params(theta[n * n + n : 2 * n * n + n], n))
    s = _euler_form(t1, z, t2)
    d = np.clip(theta[2 * n * n + n :], -1e3, 1e3) ** 2
    return s, d


def _energy_of_cov(gamma: np.ndarray, omega: np.ndarray) -> float:
    w = np.repeat(omega, 2)
    return 0.25 * float(w @ np.diag(gamma))


def _project_to_energy(s: np.ndarray, d: np.ndarray, omega: np.ndarray, target: float) -> np.ndarray:
    """Physical covariance S D S^T with exact energy ``target``.

    Rescales the excess spectrum d when the pure part S S^T fits in the
    budget; otherwise shrinks toward the vacuum along the segment to the
    identity (both operations preserve physicality).
    """
    n = len(omega)
    gamma_pure = s @ s.T
    e0 = _energy_of_cov(gamma_pure, omega)
    e_vac = 0.5 * float(np.sum(omega))
    if target <= e_vac + 1e-12:
        return np.eye(2 * n)
    if e0 <= target:
        sq = s**2
        coef = 0.25 * (np.repeat(omega, 2) @ (sq[:, 0::2] + sq[:, 1::2]))
        weight = float(coef @ d)
        if weight < 1e-12:
            d = np.ones(n)
            weight = float(np.sum(coef))
        alpha = (target - e0) / weight
        dd = np.repeat(1.0 + alpha * d, 2)
        return (s * dd[None, :]) @ s.T
    t = (target - e_vac) / (e0 - e_vac)
    return t * gamma_pure + (1.0 - t) * np.eye(2 * n)


def _output_spectrum(channel: ch.GaussianChannel, gamma: np.ndarray) -> np.ndarray:
    """Output spectrum through the unvalidated kernel: ``apply_cov`` returns
    a symmetric matrix, and a failed Cholesky factorization raises
    ``LinAlgError``, which the ``_search`` objective scores as +inf."""
    return _spectrum(ch.apply_cov(channel, gamma))


def _restarted_nelder_mead(objective, dim: int, budget: int, seed: int, restarts: int = 6):
    """Budgeted Nelder-Mead restarts; the first start is the origin.

    Restart starting points come from per-restart Philox streams, so the
    outcome is independent of evaluation order.  Returns the best value,
    its parameter vector, the evaluation count, and whether the restart
    that produced the best value terminated by convergence (not by its
    evaluation cap).
    """
    if budget < 1:
        raise ValueError(f"search budget must be >= 1, got {budget}")
    per_run = max(dim + 2, budget // restarts)
    best_val = np.inf
    best_x = np.zeros(dim)
    evals = 0
    best_run = -1
    converged = False
    for run in range(restarts):
        if evals >= budget:
            break
        x0 = np.zeros(dim) if run == 0 else rng_stream(seed, run).normal(scale=0.8, size=dim)
        start_val = objective(x0)
        evals += 1
        if start_val < best_val:
            best_val, best_x, best_run = start_val, x0, run
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={
                "maxfev": min(per_run, budget - evals),
                "xatol": 1e-12,
                "fatol": 1e-14,
            },
        )
        evals += res.nfev
        if res.fun < best_val:
            best_val, best_x, best_run = float(res.fun), res.x, run
        if best_run == run:
            converged = bool(res.success)
    return best_val, best_x, evals, converged


def _search(channel: ch.GaussianChannel, score, cov_of, dim: int, budget: int, seed: int):
    """Minimize a score of the output spectrum over parameterized inputs.

    ``cov_of`` maps a parameter vector of length ``dim`` to an input
    covariance and ``score`` maps the output spectrum, clamped at the
    physical floor 1 that rounding can undercut, to a real.  Numerical
    failures and non-finite scores count as +inf; the minimization is
    ``_restarted_nelder_mead`` under the evaluation ``budget``.  The report
    holds the best score, the covariance that produced it, the evaluation
    count and whether the restart that found it converged; callers map
    the score to the figure they report.
    """

    def objective(theta):
        try:
            out = score(np.maximum(_output_spectrum(channel, cov_of(theta)), 1.0))
        except (np.linalg.LinAlgError, ValueError, ArithmeticError):
            return np.inf
        return out if np.isfinite(out) else np.inf

    best, best_x, evals, converged = _restarted_nelder_mead(objective, dim, budget, seed)
    return OptimizationReport(float(best), cov_of(best_x), evals, budget, converged)


def _gap_to_closed_form(gap) -> float | None:
    """gap(), the search's best minus the closed form, or None for kinds
    without a closed form."""
    try:
        return gap()
    except UnsupportedKindError:
        return None


def numeric_inf_fp(channel: ch.GaussianChannel, p: float, budget: int = 20000, seed: int = 0) -> OptimizationReport:
    """Derivative-free minimization of F_p(nu(output)) over pure inputs.

    The search space covers all pure Gaussian covariances of the full
    input, so entangled inputs to tensor-product channels are included.
    The objective is ln F_p, which conditions the search and does not
    overflow; the report carries the gap to the closed form when one exists,
    the gap of ln F_p where the closed-form product overflows a double.
    """
    if p <= 1.0:
        raise ValueError(f"order must be > 1, got {p}")
    n = channel.n
    report = _search(
        channel, lambda nu: float(np.sum(st.log_f_p(nu, p))), lambda theta: _pure_cov(theta, n),
        _pure_cov_dim(n), budget, seed,
    )
    log_best = report.best_value
    with np.errstate(over="ignore"):  # F_p beyond the float range is inf; ln F_p is finite
        report.best_value = float(np.exp(log_best))

    def gap():
        product = min_output_fp_closed(channel, p)
        if math.isfinite(product):
            return report.best_value - product
        return log_best - log_min_output_fp_closed(channel, p)

    report.gap_to_closed_form = _gap_to_closed_form(gap)
    return report


def numeric_min_entropy(channel: ch.GaussianChannel, budget: int = 20000, seed: int = 0) -> OptimizationReport:
    """Numeric twin of ``min_output_entropy`` for channels without a closed form."""
    n = channel.n
    report = _search(channel, st.von_neumann_entropy, lambda theta: _pure_cov(theta, n), _pure_cov_dim(n), budget, seed)
    report.gap_to_closed_form = _gap_to_closed_form(lambda: report.best_value - min_output_entropy_closed_only(channel))
    return report


def max_output_entropy_under_energy(
    channel: ch.GaussianChannel, budget: EnergyBudget, search_budget: int = 20000, seed: int = 0
) -> OptimizationReport:
    """Maximize the output entropy over physical inputs at fixed energy.

    The linear constraint sum_k omega_k Tr gamma_[k] = 4 E is enforced
    exactly by ``_project_to_energy``; the origin start corresponds to the
    mode-symmetric thermal candidate, so the result can never fall below
    that benchmark.  The report carries the gap to the exact water-filled
    output entropy when every leaf has one.

    Raises
    ------
    InfeasibleEnergyError
        When the budget lies below the total zero-point energy.
    """
    n = channel.n
    budget.check_modes(n)
    if not budget.feasible:
        raise InfeasibleEnergyError(f"energy {budget.total} below zero-point {budget.zero_point}")
    report = _search(
        channel,
        lambda nu: -st.von_neumann_entropy(nu),
        lambda theta: _project_to_energy(*_phys_cov_factors(theta, n), budget.omega, budget.total),
        _phys_cov_dim(n), search_budget, seed,
    )
    report.best_value = -report.best_value
    report.gap_to_closed_form = _gap_to_closed_form(
        lambda: report.best_value - _water_filled_capacity(channel, budget.omega, budget.total)[1]
    )
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
    """Per-mode (a_k, b_k) of a phase-insensitive channel, leaf by leaf in
    mode order: a thermal input mode with N photons leaves as a thermal mode
    with a_k N + b_k photons.

    Thermal and lossy: a = eta, b = (1 - eta) nbar.  Classical noise with
    Y = (+)_k y_k I_2: a = 1, b = y_k / 2.  Any other leaf raises
    ``UnsupportedKindError``.
    """
    a, b = [], []
    for leaf in channel.leaves:
        y, y_k = leaf.y, np.diag(leaf.y)[0::2]
        isotropic = np.max(np.abs(y - np.diag(np.repeat(y_k, 2)))) <= ch.TOL_CP * max(1.0, float(np.max(np.abs(y))))
        if leaf.kind in ("thermal", "lossy"):
            a.append(leaf.eta)
            b.append((1.0 - leaf.eta) * leaf.nbar)
        elif leaf.kind == "classical" and isotropic:
            a.append(np.ones(leaf.n))
            b.append(0.5 * y_k)
        else:
            raise UnsupportedKindError(f"no closed-form capacity for a {leaf.kind} leaf; it needs thermal or "
                                       "lossy modes or classical noise that is isotropic on each mode")
    return np.concatenate(a), np.concatenate(b)


def _water_fill(a: np.ndarray, b: np.ndarray, omega: np.ndarray, surplus: float) -> np.ndarray:
    """Photon numbers N >= 0 maximizing sum_k S(1 + 2 (a_k N_k + b_k)) at
    sum_k omega_k N_k = surplus.

    The KKT point is N_k(lam) = max(0, (1 / expm1(lam omega_k / a_k) - b_k) / a_k),
    and sum_k omega_k N_k(lam) decreases in lam, so one bracketed root find
    on ln lam solves it.  Modes with a_k = 0 take no photons; when no mode
    has a_k > 0 every split is optimal and the modes share the photons evenly.
    """
    photons = np.zeros(a.shape)
    if surplus <= 0.0:
        return photons
    live = a > 0.0
    if not live.any():
        return np.full(a.shape, surplus / float(np.sum(omega)))
    a, b, w = a[live], b[live], omega[live]

    def fill(log_lam: float) -> np.ndarray:
        with np.errstate(over="ignore"):  # expm1 -> inf leaves N_k = 0
            return np.maximum((1.0 / np.expm1(np.exp(log_lam) * w / a) - b) / a, 0.0)

    # At the largest lam_k at which mode k alone holds the surplus the total
    # is at least the surplus; every N_k is below 1 / (lam omega_k), so the
    # total is below it at lam = count / surplus.  The widening by e keeps
    # rounding from closing the bracket.
    # 1 / (b_k + a_k surplus / omega_k) is capped at the largest double, where
    # the sum is subnormal or zero.
    with np.errstate(over="ignore", divide="ignore"):
        inverse = np.minimum(1.0 / (b + a * surplus / w), np.finfo(float).max)
    lo = float(np.log(np.max(a / w * np.log1p(inverse)))) - 1.0
    hi = float(np.log(a.size / surplus)) + 1.0
    photons[live] = fill(brentq(lambda t: float(w @ fill(t)) - surplus, lo, hi, xtol=1e-15))
    return photons


def _water_filled_capacity(
    channel: ch.GaussianChannel, omega: np.ndarray, total: float
) -> tuple[float, float, np.ndarray]:
    """Exact Gaussian capacity of ``channel`` at energy ``total`` over the
    mode frequencies ``omega``, the output entropy that attains it, and the
    photon number of every input mode.

    A mode with N photons carries S(1 + 2 (a N + b)) - S(1 + 2 b), the
    Holevo-Werner capacity g(eta N + (1 - eta) nbar) - g((1 - eta) nbar) of
    a thermal mode (PRA 63, 032312, 2001), with (a, b) from ``_photon_maps``.
    """
    a, b = _photon_maps(channel)
    photons = _water_fill(a, b, omega, total - 0.5 * float(np.sum(omega)))
    sup = st.von_neumann_entropy(1.0 + 2.0 * (a * photons + b))
    return sup - st.von_neumann_entropy(1.0 + 2.0 * b), sup, photons


def gaussian_holevo_capacity(
    channel: ch.GaussianChannel, budget: EnergyBudget, search_budget: int = 20000, seed: int = 0
) -> CapacityReport:
    """Capacity = sup of output entropy at the energy budget minus the
    minimal output entropy; exactly zero for infeasible budgets.

    When every leaf is thermal, lossy or per-mode isotropic classical the
    capacity is the exact water-filled value and ``search`` is None; any
    other channel goes through ``max_output_entropy_under_energy``.
    """
    budget.check_modes(channel.n)
    smin = min_output_entropy(channel, budget=search_budget, seed=seed)
    if not budget.feasible:
        return CapacityReport(0.0, False, smin)
    try:
        value, sup, _ = _water_filled_capacity(channel, budget.omega, budget.total)
    except UnsupportedKindError:
        search = max_output_entropy_under_energy(channel, budget, search_budget=search_budget, seed=seed)
        value = max(search.best_value - smin, 0.0)
        return CapacityReport(value, True, smin, sup_entropy=search.best_value, search=search)
    return CapacityReport(value, True, smin, sup_entropy=sup)


# ---------------------------------------------------------------------------
# multiplicativity / additivity

def separable_optimal_input(channel: ch.GaussianChannel) -> np.ndarray:
    """Block-diagonal pure covariance attaining the product of optima, one
    block per leaf in mode order.

    Thermal and lossy leaves take the vacuum block; classical leaves take
    the inverse Williamson frame of their (regularized) noise matrix, which
    aligns the input with Y so the output spectrum is exactly 1 + y_k.
    """
    from .symplectic import symplectic_inverse, williamson

    blocks = []
    for leaf in channel.leaves:
        if leaf.kind in ("thermal", "lossy"):
            blocks.append(np.eye(2 * leaf.n))
        elif leaf.kind == "classical":
            s_inv = symplectic_inverse(williamson(ch.regularized_noise(leaf)).s)
            blocks.append(s_inv @ s_inv.T)
        else:
            raise UnsupportedKindError(f"no optimal-input witness for kind {leaf.kind!r}")
    return block_diag(*blocks)


@dataclass
class MultiplicativityReport:
    """Joint-search evidence for multiplicativity of the output p-norm."""

    p: float
    product_of_optima: float
    numeric_best: float
    witness_value: float
    margin: float
    passed: bool


def multiplicativity_check(
    channel_list,
    p: float,
    search_budget: int = 20000,
    seed: int = 0,
    tol: float = TOL_OPT_CLOSED,
) -> MultiplicativityReport:
    """Search for an entangled input beating the product of single-channel
    optima of F_p; PASS means none was found within tolerance and the
    separable witness attains the product.  Where the product overflows a
    double, ``margin`` and the witness test compare ln F_p instead."""
    if len(channel_list) < 2:
        raise ValueError("multiplicativity needs at least two channels")
    joint = ch.tensor(channel_list)
    product = min_output_fp_closed(joint, p)
    search = numeric_inf_fp(joint, p, budget=search_budget, seed=seed)
    witness_nu = np.maximum(_output_spectrum(joint, separable_optimal_input(joint)), 1.0)
    witness_value = _fp_product(witness_nu, p)
    margin = search.gap_to_closed_form  # search.best_value - product, in ln F_p where F_p overflows
    if math.isfinite(product):
        witness_ok = abs(witness_value - product) <= tol * max(1.0, product)
    else:
        witness_ok = abs(float(np.sum(st.log_f_p(witness_nu, p))) - log_min_output_fp_closed(joint, p)) <= tol
    return MultiplicativityReport(
        p=p,
        product_of_optima=product,
        numeric_best=search.best_value,
        witness_value=witness_value,
        margin=float(margin),
        passed=bool(margin >= -tol and witness_ok),
    )


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
    best_value, _, photons = _water_filled_capacity(joint, budget.omega, budget.total)
    energies = np.split(budget.omega * (photons + 0.5), np.cumsum([c.n for c in channel_list])[:-1])
    search = max_output_entropy_under_energy(joint, budget, search_budget=search_budget, seed=seed)
    joint_cap = max(search.best_value - min_output_entropy_closed_only(joint), 0.0)
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


def log_fp_concavity_check(ps=(1.1, 2.0, 3.0, 7.0), points: int = 160, bound: float = 1e-9) -> ConcavityReport:
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
