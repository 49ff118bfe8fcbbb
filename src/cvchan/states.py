"""Moment-level Gaussian states: covariance + displacement + mode frequencies.

States are dimensionless in the frequency-weighted quadratures
(q_k scaled by sqrt(omega_k), p_k by 1/sqrt(omega_k)), so the covariance
matrix carries no units and the vacuum is exactly the identity.  Other
conventions in the literature use unscaled quadratures; energies here are
in units with hbar = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .symplectic import (
    DimensionError,
    matrix_from_rowmajor,
    matrix_to_rowmajor,
    symplectic_eigenvalues,
    symplectic_form,
)

#: Physicality slack on the symplectic spectrum (nu_j >= 1 - TOL_PHYS).
TOL_PHYS = 1e-8


class UnphysicalStateError(ValueError):
    """Covariance matrix violates the uncertainty condition."""


def _as_omega(omega, n: int) -> np.ndarray:
    w = np.asarray(omega, dtype=float)
    if w.ndim == 0:
        w = np.full(n, float(w))
    if w.shape != (n,):
        raise DimensionError(f"expected {n} mode frequencies, got shape {w.shape}")
    if np.any(w <= 0.0):
        raise ValueError("mode frequencies must be positive")
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
        if gamma.ndim != 2 or gamma.shape[0] != gamma.shape[1] or gamma.shape[0] % 2 != 0:
            raise DimensionError(f"covariance must be 2n x 2n, got shape {gamma.shape}")
        n = gamma.shape[0] // 2
        m = np.asarray(self.m, dtype=float)
        if m.shape != (2 * n,):
            raise DimensionError(f"displacement must have length {2 * n}, got shape {m.shape}")
        omega = _as_omega(self.omega, n)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "_spectrum", symplectic_eigenvalues(gamma))
        check = is_physical(self)
        if not check.ok:
            raise UnphysicalStateError(
                f"minimum symplectic eigenvalue {check.min_symplectic:.12g} is below 1"
            )

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
    m = np.asarray(m, dtype=float)
    if m.shape != (2 * n,):
        raise DimensionError(f"displacement must have length {2 * n}, got shape {m.shape}")
    return GaussianState(np.eye(2 * n), m, _as_omega(omega, n))


class PhysicalityCheck(NamedTuple):
    ok: bool
    min_symplectic: float
    min_hermitian: float


def is_physical(gamma_or_state, tol: float = TOL_PHYS) -> PhysicalityCheck:
    """Uncertainty-relation test: all symplectic eigenvalues >= 1 - tol.

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
    ok = bool(nu[0] >= 1.0 - tol)
    return PhysicalityCheck(ok, float(nu[0]), min_herm)


def is_pure(state: GaussianState, tol: float = TOL_PHYS) -> bool:
    """Purity test: det gamma = 1, equivalently all nu_j = 1 (both checked)."""
    det_ok = abs(float(np.linalg.det(state.gamma)) - 1.0) <= tol
    nu_ok = bool(np.max(np.abs(state.spectrum() - 1.0)) <= tol)
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


def f_p(x, p: float):
    """The output-purity kernel (x + 1)^p - (x - 1)^p, for x >= 1, p >= 1.

    inf where (x + 1)^p overflows a double, where the difference of the two
    powers would be inf - inf; ``log_f_p`` is finite there.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 1.0):
        raise ValueError(f"argument must be >= 1, got minimum {np.min(x)}")
    if p < 1.0:
        raise ValueError(f"order must be >= 1, got {p}")
    with np.errstate(over="ignore", invalid="ignore"):
        up = (x + 1.0) ** p
        out = np.where(np.isinf(up), np.inf, up - (x - 1.0) ** p)
    return float(out) if out.ndim == 0 else out


def log_f_p(x, p: float):
    """ln f_p(x) = p ln(x + 1) + ln(1 - ((x - 1)/(x + 1))^p), finite where f_p overflows."""
    return p * np.log(x + 1.0) + np.log1p(-(((x - 1.0) / (x + 1.0)) ** p))


def g_p(x, p: float):
    """Nonnegativity witness 4p (x^2-1)^{p-2} + f_p(x) f_{p-2}(x), p >= 2."""
    x = np.asarray(x, dtype=float)
    if p < 2.0:
        raise ValueError(f"witness requires p >= 2, got {p}")
    out = 4.0 * p * (x**2 - 1.0) ** (p - 2.0) + f_p(x, p) * ((x + 1.0) ** (p - 2.0) - (x - 1.0) ** (p - 2.0))
    return float(out) if out.ndim == 0 else out


def _spectrum_of(state_or_spectrum) -> np.ndarray:
    if isinstance(state_or_spectrum, GaussianState):
        return state_or_spectrum.spectrum()
    return np.atleast_1d(np.asarray(state_or_spectrum, dtype=float))


def _clamp_physical(nu: np.ndarray, tol: float = TOL_PHYS) -> np.ndarray:
    """Clamp spectrum noise just below the purity boundary up to 1."""
    if np.any(nu < 1.0 - tol):
        raise UnphysicalStateError(f"spectrum entry {np.min(nu)} is below 1")
    return np.maximum(nu, 1.0)


def trace_p(state_or_spectrum, p: float) -> float:
    """Tr rho^p for a Gaussian state: prod_j 2^p / f_p(nu_j), in (0, 1].

    Independent of the displacement.  p = 1 short-circuits to the
    normalization value 1; p < 1 is rejected.
    """
    if p < 1.0:
        raise ValueError(f"order must be >= 1, got {p}")
    if p == 1.0:
        return 1.0
    return _trace_power(_clamp_physical(_spectrum_of(state_or_spectrum)), p)


def _trace_power(nu: np.ndarray, p: float) -> float:
    """Tr rho^p continued to all p > 0; internal oracle support.

    Summed in logs, prod 2^p / f_p = exp(sum(p ln 2 - ln f_p)), because 2^p
    and f_p overflow a double above p = 1024 while Tr rho^p lies in (0, 1].
    """
    return float(np.exp(np.sum(p * np.log(2.0) - log_f_p(nu, p))))


def schatten_norm(state_or_spectrum, p: float) -> float:
    """(Tr rho^p)^{1/p}; defined for all p > 0 to support derivative checks."""
    if p <= 0.0:
        raise ValueError(f"order must be positive, got {p}")
    nu = _clamp_physical(_spectrum_of(state_or_spectrum))
    return _trace_power(nu, p) ** (1.0 / p)


def von_neumann_entropy(state_or_spectrum) -> float:
    """Von Neumann entropy in nats, from the symplectic spectrum.

    Closed form per mode: ((nu+1)/2) ln((nu+1)/2) - ((nu-1)/2) ln((nu-1)/2),
    with the nu = 1 term equal to 0 by continuity.  The two terms cancel
    for large nu, so above nu = 1e4 the same number is taken as
    ln((nu+1)/2) + ((nu-1)/2) ln(1 + 2/(nu-1)), finite up to the largest
    double.  The closed form agrees with the p -> 1+ derivative of the
    Schatten norm (checked in tests).
    """
    nu = _clamp_physical(_spectrum_of(state_or_spectrum))
    up = 0.5 * (nu + 1.0)
    dn = 0.5 * (nu - 1.0)
    large = nu > 1e4
    out = np.where(large, 1.0, up) * np.log(up)
    mask = (dn > 0.0) & ~large
    out[mask] -= dn[mask] * np.log(dn[mask])
    out[large] += dn[large] * np.log1p(1.0 / dn[large])
    return float(np.sum(out))


def state_to_record(state: GaussianState) -> dict:
    """Structured-text record {n, omega, gamma (row-major), m}."""
    return {
        "n": state.n,
        "omega": [float(w) for w in state.omega],
        "gamma": matrix_to_rowmajor(state.gamma),
        "m": [float(x) for x in state.m],
    }


def state_from_record(record: dict) -> GaussianState:
    """Rebuild a state from its record; inverse of ``state_to_record``."""
    n = int(record["n"])
    gamma = matrix_from_rowmajor(record["gamma"], 2 * n, 2 * n)
    m = np.asarray(record["m"], dtype=float)
    omega = np.asarray(record["omega"], dtype=float)
    return GaussianState(gamma, m, omega)
