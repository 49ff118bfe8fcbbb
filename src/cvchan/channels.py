"""Gaussian channels as covariance-matrix maps gamma -> X^T gamma X + Y.

Complete positivity is certified at construction time through the matrix
condition Y + iJ - i X^T J X >= 0.  Channel values are immutable; applying
a channel never mutates its input state.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.linalg import block_diag

from .symplectic import (
    DimensionError,
    matrix_from_rowmajor,
    matrix_to_rowmajor,
    symplectic_eigenvalues,
    symplectic_form,
)
from .states import GaussianState

#: Slack on the complete-positivity certificate eigenvalue.
TOL_CP = 1e-10
#: Regularizer for symplectic spectra of singular noise matrices.
NOISE_EPS = 1e-10


class CompletePositivityError(ValueError):
    """The (X, Y) pair does not define a completely positive channel."""


class ChannelSpecError(ValueError):
    """A channel description file is invalid; ``field`` names the culprit."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"channel spec field '{field}': {reason}")


@dataclass(frozen=True, eq=False)
class GaussianChannel:
    """Immutable channel value (X, Y) with its CP certificate.

    ``kind`` is one of "classical", "thermal", "lossy", "custom"; the
    constructor parameters (eta, nbar) are retained for the kinds that
    have them.  A tensor product keeps its primitive ``factors`` in mode order.
    """

    n: int
    x: np.ndarray
    y: np.ndarray
    kind: str
    eta: np.ndarray | None
    nbar: np.ndarray | None
    cp_eigenvalue: float
    factors: tuple[GaussianChannel, ...] = ()

    @property
    def leaves(self) -> tuple[GaussianChannel, ...]:
        """The primitive factors in mode order; a primitive channel is its own leaf."""
        return self.factors or (self,)

    def is_identity(self, tol: float = TOL_CP) -> bool:
        eye = np.eye(2 * self.n)
        return bool(np.max(np.abs(self.x - eye)) <= tol and np.max(np.abs(self.y)) <= tol)


def cp_certificate_eigenvalue(x: np.ndarray, y: np.ndarray) -> float:
    """Minimum eigenvalue of the Hermitian matrix Y + iJ - i X^T J X."""
    n = x.shape[0] // 2
    j = symplectic_form(n)
    herm = y + 1j * j - 1j * (x.T @ j @ x)
    return float(np.linalg.eigvalsh(herm)[0])


def make_channel(x: np.ndarray, y: np.ndarray, tol: float = TOL_CP) -> GaussianChannel:
    """Validate and build a ``custom`` Gaussian channel from its matrix pair.

    Raises ``CompletePositivityError`` when the certificate eigenvalue
    falls below -tol, and rejects asymmetric or indefinite Y.  The kind is
    set only by ``classical_noise``, ``thermal_noise``, ``lossy`` and
    ``tensor``, since a declared kind that (X, Y) do not have would select
    closed forms that do not hold for the channel.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1] or x.shape[0] % 2 != 0:
        raise DimensionError(f"X must be 2n x 2n, got shape {x.shape}")
    if y.shape != x.shape:
        raise DimensionError(f"Y must match X, got {y.shape} vs {x.shape}")
    asym = float(np.max(np.abs(y - y.T)))
    if asym > tol * max(1.0, float(np.max(np.abs(y)))):
        raise CompletePositivityError(f"Y is not symmetric (residual {asym:.3e})")
    y_min = float(np.linalg.eigvalsh(y)[0])
    if y_min < -tol:
        raise CompletePositivityError(f"Y has a negative eigenvalue ({y_min:.3e})")
    cp_min = cp_certificate_eigenvalue(x, y)
    if cp_min < -tol:
        raise CompletePositivityError(
            f"complete positivity violated: certificate eigenvalue {cp_min:.3e}"
        )
    return GaussianChannel(n=x.shape[0] // 2, x=x, y=y, kind="custom", eta=None, nbar=None, cp_eigenvalue=cp_min)


def classical_noise(y: np.ndarray, tol: float = TOL_CP) -> GaussianChannel:
    """Additive classical Gaussian noise: gamma -> gamma + Y, Y >= 0."""
    y = np.asarray(y, dtype=float)
    return replace(make_channel(np.eye(y.shape[0]), y, tol=tol), kind="classical")


def thermal_noise(eta, nbar) -> GaussianChannel:
    """Beamsplitter coupling to thermal reservoirs.

    Per mode: X = sqrt(eta_k) I2 and Y = (2 nbar_k + 1)(1 - eta_k) I2 with
    transmittivity eta_k in [0, 1] and reservoir occupation nbar_k >= 0.
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    nbar = np.atleast_1d(np.asarray(nbar, dtype=float))
    if nbar.size == 1 and eta.size > 1:
        nbar = np.full(eta.size, float(nbar[0]))
    if eta.shape != nbar.shape:
        raise DimensionError(f"eta and nbar must align, got {eta.shape} vs {nbar.shape}")
    if np.any((eta < 0.0) | (eta > 1.0)):
        raise ValueError("transmittivities must lie in [0, 1]")
    if np.any(nbar < 0.0):
        raise ValueError("reservoir occupations must be nonnegative")
    x = np.diag(np.repeat(np.sqrt(eta), 2))
    y = np.diag(np.repeat((2.0 * nbar + 1.0) * (1.0 - eta), 2))
    return replace(make_channel(x, y), kind="thermal", eta=eta, nbar=nbar)


def lossy(eta) -> GaussianChannel:
    """Pure loss (attenuation): the zero-temperature thermal channel."""
    return replace(thermal_noise(eta, np.zeros(np.atleast_1d(np.asarray(eta)).size)), kind="lossy")


def tensor(channels: Sequence[GaussianChannel]) -> GaussianChannel:
    """Tensor product of channels, realized by direct sums of X and Y; it
    keeps the leaves of every factor in mode order, nested products flattened."""
    if len(channels) == 0:
        raise ValueError("tensor product of an empty channel list")
    x = block_diag(*[c.x for c in channels])
    y = block_diag(*[c.y for c in channels])
    kinds = {c.kind for c in channels}
    if kinds <= {"thermal", "lossy"}:
        kind = "lossy" if kinds == {"lossy"} else "thermal"
        eta, nbar = np.concatenate([c.eta for c in channels]), np.concatenate([c.nbar for c in channels])
    else:
        kind, eta, nbar = "classical" if kinds == {"classical"} else "custom", None, None
    leaves = tuple(leaf for c in channels for leaf in c.leaves)
    return replace(make_channel(x, y), kind=kind, eta=eta, nbar=nbar, factors=leaves)


def apply(channel: GaussianChannel, state: GaussianState) -> GaussianState:
    """Channel action: gamma -> X^T gamma X + Y and m -> X^T m."""
    if state.n != channel.n:
        raise DimensionError(f"channel acts on {channel.n} modes, state has {state.n}")
    return GaussianState(apply_cov(channel, state.gamma), channel.x.T @ state.m, state.omega)


def apply_cov(channel: GaussianChannel, gamma: np.ndarray) -> np.ndarray:
    """Covariance-only channel action; no physicality re-validation."""
    out = channel.x.T @ gamma @ channel.x + channel.y
    return 0.5 * (out + out.T)


def regularized_noise(channel: GaussianChannel) -> np.ndarray:
    """The noise matrix Y, or Y + eps I when its minimum eigenvalue is below
    eps = ``NOISE_EPS``.

    Singular Y has no Williamson form; its regularization does, and the
    entries of its spectrum at the eps scale stand for exact zeros.  The
    channel itself keeps the exact Y; the regularizer never enters the action.
    """
    y = channel.y
    if float(np.linalg.eigvalsh(y)[0]) < NOISE_EPS:
        y = y + NOISE_EPS * np.eye(y.shape[0])
    return y


def noise_spectrum(channel: GaussianChannel) -> np.ndarray:
    """Symplectic spectrum of the noise matrix Y, ascending, through
    ``regularized_noise``: entries at the eps scale are exact zeros."""
    return symplectic_eigenvalues(regularized_noise(channel))


def channel_to_record(channel: GaussianChannel) -> dict:
    """Structured-text record of a channel; inverse of ``channel_from_record``."""
    record: dict = {"n_modes": channel.n, "kind": channel.kind}
    if channel.eta is not None:
        record["eta"] = [float(v) for v in channel.eta]
    if channel.nbar is not None:
        record["nbar"] = [float(v) for v in channel.nbar]
    if channel.kind in ("custom",):
        record["X"] = matrix_to_rowmajor(channel.x)
    if channel.kind in ("classical", "custom"):
        record["Y"] = matrix_to_rowmajor(channel.y)
    return record


def _numbers_only(value) -> bool:
    """True for a real number or a (nested) list of them; booleans are not numbers."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return all(_numbers_only(entry) for entry in value)
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _numeric_field(name: str, value) -> np.ndarray:
    """A record field as a float array; entries must be finite numbers, so
    booleans and strings are rejected rather than converted."""
    if not _numbers_only(value):
        raise ChannelSpecError(name, "entries must be numbers")
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ChannelSpecError(name, "entries must be numbers") from None
    except OverflowError:  # a JSON integer beyond the float range
        raise ChannelSpecError(name, "entries must be finite") from None
    if not np.isfinite(array).all():
        raise ChannelSpecError(name, "entries must be finite")
    return array


def channel_from_record(record: dict) -> GaussianChannel:
    """Build a channel from its record, naming the offending field on error."""
    if not isinstance(record, dict):
        raise ChannelSpecError("<file>", "expected a JSON object")
    if "n_modes" not in record:
        raise ChannelSpecError("n_modes", "missing")
    n = record["n_modes"]
    if not isinstance(n, numbers.Integral) or isinstance(n, bool):
        raise ChannelSpecError("n_modes", "must be an integer")
    n = int(n)
    if n < 1:
        raise ChannelSpecError("n_modes", "must be >= 1")
    kind = record.get("kind")
    if kind not in ("classical", "thermal", "lossy", "custom"):
        raise ChannelSpecError("kind", f"unknown kind {kind!r}")

    def matrix_field(name: str) -> np.ndarray:
        values = _numeric_field(name, record[name])
        try:
            return matrix_from_rowmajor(values, 2 * n, 2 * n)
        except (TypeError, ValueError, DimensionError) as exc:
            raise ChannelSpecError(name, str(exc)) from None

    def vector_field(name: str) -> np.ndarray:
        value = _numeric_field(name, record.get(name, []))
        if value.shape != (n,):
            raise ChannelSpecError(name, f"expected {n} entries, got shape {value.shape}")
        return value

    try:
        if kind == "classical":
            if "Y" not in record:
                raise ChannelSpecError("Y", "missing for a classical channel")
            return classical_noise(matrix_field("Y"))
        if kind == "thermal":
            return thermal_noise(vector_field("eta"), vector_field("nbar"))
        if kind == "lossy":
            return lossy(vector_field("eta"))
        if "X" not in record:
            raise ChannelSpecError("X", "missing for a custom channel")
        if "Y" not in record:
            raise ChannelSpecError("Y", "missing for a custom channel")
        return make_channel(matrix_field("X"), matrix_field("Y"))
    except CompletePositivityError as exc:
        raise ChannelSpecError("Y" if kind == "classical" else "X/Y", str(exc)) from None
    except (ValueError, DimensionError) as exc:
        if isinstance(exc, ChannelSpecError):
            raise
        raise ChannelSpecError("eta/nbar" if kind in ("thermal", "lossy") else "X/Y", str(exc)) from None


def load_channel(path) -> tuple[GaussianChannel, np.ndarray | None]:
    """Read a channel spec file (JSON record) from disk.

    Returns the channel and the record's optional ``omega`` field, the mode
    frequencies, as an array of one entry per mode (None when absent).
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            record = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ChannelSpecError("<file>", f"invalid JSON: {exc}") from None
    channel = channel_from_record(record)
    omega = record.get("omega")
    if omega is not None:
        omega = _numeric_field("omega", omega)
        if omega.shape != (channel.n,):
            raise ChannelSpecError("omega", f"expected {channel.n} entries, got {omega.size}")
    return channel, omega
