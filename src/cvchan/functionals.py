"""Channel figures of merit: output p-norms, minimal output entropy,
energy-constrained Holevo capacity, and multiplicativity/additivity checks.

Closed forms exist for classical-noise and thermal-noise channels; every
other channel goes through a derivative-free search over Gaussian inputs.
The search parameterizes covariances through the Euler form (two unitary
factors plus squeezings), so physicality holds by construction, and the
energy constraint is enforced by an exact projection, never a penalty.

Numeric searches are falsification-oriented: they can certify that no
sampled input beats a bound, not global optimality for custom channels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

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
    matrix_to_rowmajor,
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

    def record(self) -> dict:
        out = {
            "best_value": self.best_value,
            "best_input": matrix_to_rowmajor(self.best_input),
            "evaluations": self.evaluations,
            "budget": self.budget,
            "converged": self.converged,
        }
        if self.gap_to_closed_form is not None:
            out["gap_to_closed_form"] = self.gap_to_closed_form
        return out


# ---------------------------------------------------------------------------
# closed forms

def _closed_form_arguments(channel: ch.GaussianChannel) -> np.ndarray:
    """Per-mode output spectrum at the optimal input, by channel kind."""
    if channel.kind == "classical":
        return 1.0 + ch.noise_spectrum(channel)
    if channel.kind in ("thermal", "lossy"):
        return 1.0 + 2.0 * (1.0 - channel.eta) * channel.nbar
    raise UnsupportedKindError(
        f"no closed form for kind {channel.kind!r}; use the numeric search"
    )


def min_output_fp_closed(channel: ch.GaussianChannel, p: float) -> float:
    """Closed-form infimum of F_p over pure Gaussian inputs.

    Classical noise: product of f_p(1 + y_k) over the symplectic spectrum
    of Y.  Thermal noise: product of f_p(1 + 2 (1 - eta_k) nbar_k).  The
    product is inf where it overflows; ``log_min_output_fp_closed`` is finite.
    """
    if p <= 1.0:
        raise ValueError(f"order must be > 1, got {p}")
    return float(np.prod(st.f_p(_closed_form_arguments(channel), p)))


def log_min_output_fp_closed(channel: ch.GaussianChannel, p: float) -> float:
    """ln of ``min_output_fp_closed``, sum_k ln f_p(x_k), finite where the
    product overflows: ln f_p(x) = p ln(x + 1) + ln(1 - ((x - 1)/(x + 1))^p)."""
    if p <= 1.0:
        raise ValueError(f"order must be > 1, got {p}")
    x = _closed_form_arguments(channel)
    return float(np.sum(p * np.log(x + 1.0) + np.log1p(-(((x - 1.0) / (x + 1.0)) ** p))))


def max_output_p_norm(channel: ch.GaussianChannel, p: float) -> float:
    """Maximal output Schatten p-norm: 2^n / (inf F_p)^{1/p}, from the log
    of inf F_p when the product overflows."""
    inf_fp = min_output_fp_closed(channel, p)
    if math.isfinite(inf_fp):
        return 2.0**channel.n / inf_fp ** (1.0 / p)
    return 2.0**channel.n * math.exp(-log_min_output_fp_closed(channel, p) / p)


def min_output_entropy_closed_only(channel: ch.GaussianChannel) -> float:
    """Closed-form minimal output entropy; raises for unsupported kinds."""
    return st.von_neumann_entropy(_closed_form_arguments(channel))


def min_output_entropy(channel: ch.GaussianChannel, budget: int = 20000, seed: int = 0) -> float:
    """Minimal output entropy over Gaussian inputs.

    Closed form for classical/thermal kinds; a numeric search with the
    entropy objective otherwise.
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


def _restarted_nelder_mead(objective, dim: int, budget: int, seed: int, restarts: int, scale: float = 0.8):
    """Budgeted Nelder-Mead restarts; the first start is the origin.

    Restart starting points come from per-restart Philox streams, so the
    outcome is independent of evaluation order.  Returns the best value,
    its parameter vector, the evaluation count, and whether the restart
    that produced the best value terminated by convergence (not by its
    evaluation cap).
    """
    if budget < 1:
        raise ValueError(f"search budget must be >= 1, got {budget}")
    restarts = max(1, restarts)
    per_run = max(dim + 2, budget // restarts)
    best_val = np.inf
    best_x = np.zeros(dim)
    evals = 0
    best_run = -1
    converged = False
    for run in range(restarts):
        if evals >= budget:
            break
        x0 = np.zeros(dim) if run == 0 else rng_stream(seed, run).normal(scale=scale, size=dim)
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


def _search(channel: ch.GaussianChannel, score, cov_of, dim: int, budget: int, seed: int, restarts: int):
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

    best, best_x, evals, converged = _restarted_nelder_mead(objective, dim, budget, seed, restarts)
    return OptimizationReport(float(best), cov_of(best_x), evals, budget, converged)


def _gap_to_closed_form(best: float, closed_form, channel: ch.GaussianChannel) -> float | None:
    """best - closed_form(channel), or None for kinds without a closed form."""
    try:
        return best - closed_form(channel)
    except UnsupportedKindError:
        return None


def numeric_inf_fp(
    channel: ch.GaussianChannel,
    p: float,
    budget: int = 20000,
    seed: int = 0,
    restarts: int = 6,
) -> OptimizationReport:
    """Derivative-free minimization of F_p(nu(output)) over pure inputs.

    The search space covers all pure Gaussian covariances of the full
    input, so entangled inputs to tensor-product channels are included.
    The objective is minimized in log form for conditioning; the report
    carries the gap to the closed form when one exists.
    """
    if p <= 1.0:
        raise ValueError(f"order must be > 1, got {p}")
    n = channel.n
    report = _search(
        channel, lambda nu: float(np.sum(np.log(st.f_p(nu, p)))), lambda theta: _pure_cov(theta, n),
        _pure_cov_dim(n), budget, seed, restarts,
    )
    report.best_value = float(np.exp(report.best_value))
    report.gap_to_closed_form = _gap_to_closed_form(report.best_value, lambda c: min_output_fp_closed(c, p), channel)
    return report


def numeric_min_entropy(
    channel: ch.GaussianChannel,
    budget: int = 20000,
    seed: int = 0,
    restarts: int = 6,
) -> OptimizationReport:
    """Numeric twin of ``min_output_entropy`` for channels without a closed form."""
    n = channel.n
    report = _search(
        channel, st.von_neumann_entropy, lambda theta: _pure_cov(theta, n), _pure_cov_dim(n), budget, seed, restarts
    )
    report.gap_to_closed_form = _gap_to_closed_form(report.best_value, min_output_entropy_closed_only, channel)
    return report


def max_output_entropy_under_energy(
    channel: ch.GaussianChannel,
    budget: EnergyBudget,
    search_budget: int = 20000,
    seed: int = 0,
    restarts: int = 6,
) -> OptimizationReport:
    """Maximize the output entropy over physical inputs at fixed energy.

    The linear constraint sum_k omega_k Tr gamma_[k] = 4 E is enforced
    exactly by ``_project_to_energy``; the origin start corresponds to the
    mode-symmetric thermal candidate, so the result can never fall below
    that benchmark.

    Raises
    ------
    InfeasibleEnergyError
        When the budget lies below the total zero-point energy.
    """
    n = channel.n
    if budget.omega.shape != (n,):
        raise ValueError(f"budget frequencies must cover {n} modes, got {budget.omega.shape}")
    if not budget.feasible:
        raise InfeasibleEnergyError(
            f"energy {budget.total} below zero-point {budget.zero_point}"
        )
    report = _search(
        channel,
        lambda nu: -st.von_neumann_entropy(nu),
        lambda theta: _project_to_energy(*_phys_cov_factors(theta, n), budget.omega, budget.total),
        _phys_cov_dim(n), search_budget, seed, restarts,
    )
    report.best_value = -report.best_value
    return report


@dataclass
class CapacityReport:
    """Energy-constrained Gaussian Holevo capacity of a channel."""

    value: float
    feasible: bool
    min_entropy: float
    sup_entropy: float | None = None
    search: OptimizationReport | None = None

    def record(self) -> dict:
        out = {
            "capacity": self.value,
            "feasible": self.feasible,
            "min_entropy": self.min_entropy,
        }
        if self.sup_entropy is not None:
            out["sup_entropy"] = self.sup_entropy
        if self.search is not None:
            out["search"] = self.search.record()
        return out


def _photon_maps(channel: ch.GaussianChannel) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode (a_k, b_k) of a phase-insensitive channel: a thermal input
    mode with N photons leaves as a thermal mode with a_k N + b_k photons.

    Thermal and lossy: a = eta, b = (1 - eta) nbar.  Classical noise with
    Y = (+)_k y_k I_2: a = 1, b = y_k / 2.  Any other channel raises
    ``UnsupportedKindError``.
    """
    if channel.kind in ("thermal", "lossy"):
        return channel.eta, (1.0 - channel.eta) * channel.nbar
    if channel.kind == "classical":
        y = channel.y
        y_k = np.diag(y)[0::2]
        if np.max(np.abs(y - np.diag(np.repeat(y_k, 2)))) <= ch.TOL_CP * max(1.0, float(np.max(np.abs(y)))):
            return np.ones(channel.n), 0.5 * y_k
    raise UnsupportedKindError(
        f"no closed-form capacity for a {channel.kind} channel; it needs thermal or lossy "
        "modes or classical noise that is a multiple of the identity on each mode"
    )


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
    lo = float(np.log(np.max(a / w * np.log1p(1.0 / (b + a * surplus / w))))) - 1.0
    hi = float(np.log(a.size / surplus)) + 1.0
    photons[live] = fill(brentq(lambda t: float(w @ fill(t)) - surplus, lo, hi, xtol=1e-15))
    return photons


def _water_filled_capacity(channel_list, omega: np.ndarray, total: float) -> tuple[float, np.ndarray]:
    """Exact Gaussian capacity of the tensor product of ``channel_list`` at
    energy ``total`` over the mode frequencies ``omega``, and the photon
    number of every input mode that attains it.

    A mode with N photons carries S(1 + 2 (a N + b)) - S(1 + 2 b), the
    Holevo-Werner capacity g(eta N + (1 - eta) nbar) - g((1 - eta) nbar) of
    a thermal mode (PRA 63, 032312, 2001), with (a, b) from ``_photon_maps``.
    """
    a, b = (np.concatenate(part) for part in zip(*map(_photon_maps, channel_list)))
    photons = _water_fill(a, b, omega, total - 0.5 * float(np.sum(omega)))
    value = st.von_neumann_entropy(1.0 + 2.0 * (a * photons + b)) - st.von_neumann_entropy(1.0 + 2.0 * b)
    return value, photons


def gaussian_holevo_capacity(
    channel: ch.GaussianChannel,
    budget: EnergyBudget,
    search_budget: int = 20000,
    seed: int = 0,
    restarts: int = 6,
) -> CapacityReport:
    """Capacity = sup of output entropy at the energy budget minus the
    minimal output entropy; exactly zero for infeasible budgets.

    For thermal, lossy and per-mode isotropic classical channels the search
    report carries the gap to the exact water-filled capacity.
    """
    smin = min_output_entropy(channel, budget=search_budget, seed=seed)
    if not budget.feasible:
        return CapacityReport(value=0.0, feasible=False, min_entropy=smin)
    sup = max_output_entropy_under_energy(
        channel, budget, search_budget=search_budget, seed=seed, restarts=restarts
    )
    value = max(sup.best_value - smin, 0.0)
    sup.gap_to_closed_form = _gap_to_closed_form(
        value, lambda c: _water_filled_capacity([c], budget.omega, budget.total)[0], channel
    )
    return CapacityReport(
        value=value,
        feasible=True,
        min_entropy=smin,
        sup_entropy=sup.best_value,
        search=sup,
    )


# ---------------------------------------------------------------------------
# multiplicativity / additivity

def separable_optimal_input(channel_list) -> np.ndarray:
    """Block-diagonal pure covariance attaining the product of optima.

    Thermal factors take the vacuum block; classical factors take the
    inverse Williamson frame of their (regularized) noise matrix, which
    aligns the input with Y so the output spectrum is exactly 1 + y_k.
    """
    from .symplectic import symplectic_inverse, williamson

    blocks = []
    for channel in channel_list:
        if channel.kind in ("thermal", "lossy"):
            blocks.append(np.eye(2 * channel.n))
        elif channel.kind == "classical":
            s = williamson(ch.regularized_noise(channel)).s
            s_inv = symplectic_inverse(s)
            blocks.append(s_inv @ s_inv.T)
        else:
            raise UnsupportedKindError(f"no optimal-input witness for kind {channel.kind!r}")
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
    search: OptimizationReport | None = field(repr=False, default=None)

    def record(self) -> dict:
        return {
            "p": self.p,
            "product_of_optima": self.product_of_optima,
            "numeric_best": self.numeric_best,
            "witness_value": self.witness_value,
            "margin": self.margin,
            "pass": self.passed,
        }


def multiplicativity_check(
    channel_list,
    p: float,
    search_budget: int = 20000,
    seed: int = 0,
    tol: float = TOL_OPT_CLOSED,
) -> MultiplicativityReport:
    """Search for an entangled input beating the product of single-channel
    optima of F_p; PASS means none was found within tolerance and the
    separable witness attains the product."""
    if len(channel_list) < 2:
        raise ValueError("multiplicativity needs at least two channels")
    product = 1.0
    for channel in channel_list:
        product *= min_output_fp_closed(channel, p)
    joint = ch.tensor(channel_list)
    search = numeric_inf_fp(joint, p, budget=search_budget, seed=seed)
    witness_gamma = separable_optimal_input(channel_list)
    witness_nu = np.maximum(_output_spectrum(joint, witness_gamma), 1.0)
    witness_value = float(np.prod(st.f_p(witness_nu, p)))
    margin = search.best_value - product
    passed = bool(margin >= -tol and abs(witness_value - product) <= tol * max(1.0, product))
    return MultiplicativityReport(
        p=p,
        product_of_optima=product,
        numeric_best=search.best_value,
        witness_value=witness_value,
        margin=float(margin),
        passed=passed,
        search=search,
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

    def record(self) -> dict:
        return {
            "total_energy": self.total_energy,
            "joint_capacity": self.joint_capacity,
            "best_split_value": self.best_split_value,
            "best_split": list(self.best_split),
            "margin": self.margin,
            "pass": self.passed,
        }


def additivity_check(
    channel_list,
    budget: EnergyBudget,
    search_budget: int = 8000,
    seed: int = 0,
    tol: float = TOL_OPT_SUP,
) -> AdditivityReport:
    """Compare C_G of the tensor channel, found by one joint search, with the
    best split of the energy budget across factors, computed exactly.

    Every factor must be thermal, lossy, or classical with noise
    Y = (+)_k y_k I_2 (``UnsupportedKindError`` otherwise).  A mode of such
    a factor carries its Holevo-Werner capacity, so the best split
    water-fills the energy above the zero points over every mode of every
    factor.  ``best_split`` is each factor's energy,
    sum_k omega_k (N_k + 1/2) over its modes, and PASS means the joint
    search lands within ``tol`` of the exact optimum.
    """
    if len(channel_list) < 2:
        raise ValueError("additivity needs at least two channels")
    mode_counts = [c.n for c in channel_list]
    if budget.omega.shape != (sum(mode_counts),):
        raise ValueError(
            f"budget frequencies must cover {sum(mode_counts)} modes, got {budget.omega.shape}"
        )
    if not budget.feasible:
        raise InfeasibleEnergyError(
            f"energy {budget.total} below joint zero-point {budget.zero_point}"
        )
    best_value, photons = _water_filled_capacity(channel_list, budget.omega, budget.total)
    energies = np.split(budget.omega * (photons + 0.5), np.cumsum(mode_counts)[:-1])
    joint_cap = gaussian_holevo_capacity(
        ch.tensor(channel_list), budget, search_budget=search_budget, seed=seed
    ).value
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

    def record(self) -> dict:
        return {
            "worst_second_difference": self.worst_second_difference,
            "min_witness": self.min_witness,
            "grid_size": self.grid_size,
            "pass": self.passed,
        }


def log_fp_concavity_check(
    ps=(1.1, 2.0, 3.0, 7.0),
    x_low: float = 1.0 + 1e-3,
    x_high: float = 50.0,
    points: int = 160,
    bound: float = 1e-9,
) -> ConcavityReport:
    """Second central differences of ln f_p on a log grid in x - 1.

    The step shrinks near x = 1 where the curvature blows up, keeping the
    truncation error well below the magnitude of the (negative) value.
    """
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
