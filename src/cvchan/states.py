"""Moment-level Gaussian states: covariance + displacement + mode frequencies.

States are dimensionless in the frequency-weighted quadratures
(q_k scaled by sqrt(omega_k), p_k by 1/sqrt(omega_k)), so the covariance
matrix carries no units and the vacuum is exactly the identity.  Other
conventions in the literature use unscaled quadratures; energies here are
in units with hbar = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .symplectic import DimensionError, _mode_count, symplectic_eigenvalues, symplectic_form

__all__ = [
    "TOL_PHYS",
    "GaussianState",
    "ModeEnergy",
    "vacuum",
    "thermal",
    "coherent",
    "is_physical",
    "is_pure",
    "mean_energy",
    "f_p",
    "g_p",
    "trace_p",
    "schatten_norm",
    "renyi_entropy",
    "von_neumann_entropy",
]

#: Physicality slack on the symplectic spectrum (nu_j >= 1 - TOL_PHYS).
TOL_PHYS = 1e-8
#: Smallest normal double; a smaller nonzero exponent in ``_renyi`` is subnormal.
_TINY = np.finfo(float).tiny


class UnphysicalStateError(ValueError):
    """Covariance matrix violates the uncertainty condition."""


def _as_omega(omega, n: int) -> np.ndarray:
    w = np.asarray(omega, dtype=float)
    if w.ndim == 0:
        w = np.full(n, float(w))
    if w.shape != (n,):
        raise DimensionError(f"expected {n} mode frequencies, got shape {w.shape}")
    if not (w.min(initial=np.inf) > 0.0 and w.max(initial=0.0) < np.inf):  # NaN fails both; empty w passes
        raise ValueError("mode frequencies must be positive and finite")
    return w


@dataclass(frozen=True, eq=False)
class GaussianState:
    """A Gaussian state given by its first and second moments.

    Attributes
    ----------
    gamma : (2n, 2n) array
        Quadrature covariance matrix (dimensionless).
    m : (2n,) array
        Displacement vector.
    omega : (n,) array
        Mode frequencies (energy units).
    """

    gamma: np.ndarray
    m: np.ndarray
    omega: np.ndarray
    _spectrum: np.ndarray | None = field(repr=False, init=False, default=None)

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=float)
        n = _mode_count(gamma)
        m = np.asarray(self.m, dtype=float)
        if m.shape != (2 * n,):
            raise DimensionError(f"displacement must have length {2 * n}, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("displacement must be finite")
        omega = _as_omega(self.omega, n)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "omega", omega)
        nu = symplectic_eigenvalues(gamma)
        object.__setattr__(self, "_spectrum", nu)
        if nu[0] < 1.0 - TOL_PHYS:
            raise UnphysicalStateError(f"minimum symplectic eigenvalue {nu[0]:.12g} is below 1")

    @property
    def n(self) -> int:
        return self.gamma.shape[0] // 2

    def spectrum(self) -> np.ndarray:
        """Symplectic spectrum of the covariance matrix (ascending), computed
        once at construction for the physicality check."""
        return self._spectrum


def vacuum(n: int, omega=1.0) -> GaussianState:
    """Vacuum state: identity covariance, zero displacement."""
    if n < 1:
        raise DimensionError(f"mode count must be >= 1, got {n}")
    return GaussianState(np.eye(2 * n), np.zeros(2 * n), _as_omega(omega, n))


def thermal(nbar, omega=1.0) -> GaussianState:
    """Thermal state with mean photon numbers ``nbar`` per mode."""
    nb = np.atleast_1d(np.asarray(nbar, dtype=float))
    if np.any(nb < 0.0):
        raise ValueError("mean photon numbers must be nonnegative")
    n = nb.size
    gamma = np.diag(np.repeat(2.0 * nb + 1.0, 2))
    return GaussianState(gamma, np.zeros(2 * n), _as_omega(omega, n))


def coherent(n: int, omega, m) -> GaussianState:
    """Coherent state: displaced vacuum."""
    return GaussianState(np.eye(2 * n), m, _as_omega(omega, n))


class PhysicalityCheck(NamedTuple):
    ok: bool
    min_symplectic: float
    min_hermitian: float


def is_physical(gamma_or_state) -> PhysicalityCheck:
    """Uncertainty-relation test: all symplectic eigenvalues >= 1 - ``TOL_PHYS``.

    The equivalent Hermitian condition (gamma + iJ positive semidefinite)
    is evaluated as a cross-check and its minimum eigenvalue reported.  A
    state's spectrum is read from the state, not recomputed.
    """
    if isinstance(gamma_or_state, GaussianState):
        gamma, nu = gamma_or_state.gamma, gamma_or_state.spectrum()
    else:
        gamma = np.asarray(gamma_or_state, dtype=float)
        nu = symplectic_eigenvalues(gamma)
    n = gamma.shape[0] // 2
    herm = gamma + 1j * symplectic_form(n)
    min_herm = float(np.linalg.eigvalsh(herm)[0])
    ok = bool(nu[0] >= 1.0 - TOL_PHYS)
    return PhysicalityCheck(ok, float(nu[0]), min_herm)


def is_pure(state: GaussianState) -> bool:
    """Purity test within ``TOL_PHYS``: det gamma = 1, equivalently all nu_j = 1 (both checked)."""
    det_ok = abs(float(np.linalg.det(state.gamma)) - 1.0) <= TOL_PHYS
    nu_ok = bool(np.max(np.abs(state.spectrum() - 1.0)) <= TOL_PHYS)
    return det_ok and nu_ok


@dataclass(frozen=True)
class ModeEnergy:
    per_mode: np.ndarray
    total: float


def mean_energy(state: GaussianState) -> ModeEnergy:
    """Mean energy per mode and in total.

    Per mode: (omega_k / 4) Tr gamma_[k] plus the displacement contribution
    (omega_k / 2)(m_{2k-1}^2 + m_{2k}^2), from <R_j^2> = gamma_jj / 2 + m_j^2.
    """
    diag = np.diag(state.gamma)
    quad = diag[0::2] + diag[1::2]
    disp = state.m[0::2] ** 2 + state.m[1::2] ** 2
    per_mode = state.omega * (0.25 * quad + 0.5 * disp)
    return ModeEnergy(per_mode=per_mode, total=float(np.sum(per_mode)))


def _f_p(up: np.ndarray, dn: np.ndarray, p) -> np.ndarray:
    """f_p from up = x + 1 and dn = x - 1, unchecked, at an order p or an array
    of orders that broadcasts against them; run it under
    ``np.errstate(over="ignore", invalid="ignore")``.  ``f_p`` validates."""
    power = up**p
    return np.where(np.isinf(power), np.inf, power - dn**p)


def f_p(x, p: float):
    """The output-purity kernel (x + 1)^p - (x - 1)^p, for x >= 1, p >= 1.

    inf where (x + 1)^p overflows a double, where the difference of the two
    powers would be inf - inf; its log p ln 2 + (p - 1) S_p(x), from
    ``renyi_entropy``, is finite there.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 1.0):
        raise ValueError(f"argument must be >= 1, got minimum {np.min(x)}")
    if not p >= 1.0:
        raise ValueError(f"order must be >= 1, got {p}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = _f_p(x + 1.0, x - 1.0, p)
    return float(out) if out.ndim == 0 else out


def g_p(x, p: float):
    """Nonnegativity witness 4p (x^2-1)^{p-2} + f_p(x) f_{p-2}(x), p >= 2."""
    x = np.asarray(x, dtype=float)
    if not p >= 2.0:
        raise ValueError(f"witness requires p >= 2, got {p}")
    out = 4.0 * p * (x**2 - 1.0) ** (p - 2.0) + f_p(x, p) * ((x + 1.0) ** (p - 2.0) - (x - 1.0) ** (p - 2.0))
    return float(out) if out.ndim == 0 else out


def _spectrum_of(state_or_spectrum) -> np.ndarray:
    if isinstance(state_or_spectrum, GaussianState):
        return state_or_spectrum.spectrum()
    return np.atleast_1d(np.asarray(state_or_spectrum, dtype=float))


def _clamp_physical(nu: np.ndarray) -> np.ndarray:
    """Clamp spectrum noise within ``TOL_PHYS`` below the purity boundary up to 1."""
    if not np.all(nu >= 1.0 - TOL_PHYS):
        raise UnphysicalStateError(f"spectrum entry {np.min(nu)} is below 1")
    return np.maximum(nu, 1.0)


def _renyi(nu: np.ndarray, p) -> np.ndarray:
    """Renyi-p entropy sum_j S_p(nu_j) in nats of a spectrum nu >= 1, unchecked;
    the sum runs over the last axis, so a stack of spectra gives a stack of
    entropies, and an order p != 1 may be an (m, 1) column, one per row.

    Per mode Tr rho^p = 1 / (u^p - d^p) with u = (nu + 1)/2 and d = u - 1, so
    S_p = ln u + ln(1 - d expm1(t)) / (p - 1), t = (1 - p) ln(1 + 1/d), two
    nonnegative terms; S_inf = ln u.  d is floored inside ln(1 + 1/d), so a
    pure mode gives exactly 0 at every p.  Where t is subnormal or zero,
    d expm1(t) is formed as (1 - p) (d ln(1 + 1/d)), which keeps its digits.
    p = 1 is u ln u - d ln d, taken above nu = 1e4 as ln u + d ln(1 + 1/d),
    where the two terms would cancel.
    """
    if getattr(p, "ndim", 0) == 0 and p == 1.0:
        up = 0.5 * (nu + 1.0)
        dn = 0.5 * (nu - 1.0)
        large = nu > 1e4
        if large.any():
            out = np.where(large, 1.0, up) * np.log(up)
            mask = (dn > 0.0) & ~large
            out[large] += dn[large] * np.log1p(1.0 / dn[large])
        else:  # the usual case
            out = up * np.log(up)
            mask = dn > 0.0
        out[mask] -= dn[mask] * np.log(dn[mask])
        return out.sum(axis=-1)
    d = 0.5 * (nu - 1.0)
    with np.errstate(over="ignore"):  # t = -inf gives expm1(t) = -1, its limit
        t = (1.0 - p) * np.log1p(1.0 / np.maximum(d, 1e-300))
    dx = d * np.expm1(t)
    size = np.abs(t)
    if size.min(initial=np.inf) < _TINY:
        tiny = size < _TINY
        dx[tiny] = (1.0 - np.broadcast_to(p, d.shape)[tiny]) * (d[tiny] * np.log1p(1.0 / d[tiny]))
    return (np.log1p(d) + np.log1p(-dx) / (p - 1.0)).sum(axis=-1)


def renyi_entropy(state_or_spectrum, p: float) -> float:
    """Renyi-p entropy S_p = ln(Tr rho^p) / (1 - p) in nats, p in (0, inf], from
    the symplectic spectrum: S_1 is the von Neumann entropy, S_inf minus the
    log of the largest eigenvalue, and ln F_p = n p ln 2 + (p - 1) S_p."""
    if not p > 0.0:
        raise ValueError(f"order must be positive, got {p}")
    return float(_renyi(_clamp_physical(_spectrum_of(state_or_spectrum)), p))


def trace_p(state_or_spectrum, p: float) -> float:
    """Tr rho^p = exp((1 - p) S_p) for a Gaussian state, in [0, 1]; p < 1 is rejected.
    A pure state gives 1 at every p, p = inf included, where (1 - p) S_p is -inf * 0."""
    if p < 1.0:
        raise ValueError(f"order must be >= 1, got {p}")
    s_p = renyi_entropy(state_or_spectrum, p)
    return 1.0 if s_p == 0.0 else float(np.exp((1.0 - p) * s_p))


def schatten_norm(state_or_spectrum, p: float) -> float:
    """(Tr rho^p)^{1/p} = exp(-(1 - 1/p) S_p), p in (0, inf]; below p = 1 it
    is not a norm, but it gives the derivative at p = 1 from both sides."""
    return float(np.exp(renyi_entropy(state_or_spectrum, p) * (1.0 / p - 1.0)))


def von_neumann_entropy(state_or_spectrum) -> float:
    """Von Neumann entropy in nats: ``renyi_entropy`` at p = 1."""
    return renyi_entropy(state_or_spectrum, 1.0)

