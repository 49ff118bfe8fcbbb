"""Gaussian channels as covariance-matrix maps gamma -> X^T gamma X + Y.

Complete positivity, the matrix condition Y + iJ - i X^T J X >= 0, is
certified at construction time.  The named kinds certify it in closed form
from their parameter checks; ``make_channel`` certifies a custom pair and a
tensor product numerically.  Channel values are immutable; applying a
channel never mutates its input state.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .symplectic import (
    DimensionError,
    _direct_sum,
    _hermitian,
    symplectic_eigenvalues,
    symplectic_form,
)
from .states import GaussianState

__all__ = [
    "GaussianChannel",
    "make_channel",
    "classical_noise",
    "thermal_noise",
    "lossy",
    "tensor",
    "apply",
    "noise_spectrum",
]

#: Slack on the complete-positivity certificate eigenvalue.
TOL_CP = 1e-10
#: Noise eigenvalues below this count as singular; the optimal-input witness adds it to Y.
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
    have them.  A tensor product is "custom" and keeps its primitive
    ``factors`` in mode order: its leaves are its one description.
    """

    n: int
    x: np.ndarray
    y: np.ndarray
    kind: str
    eta: np.ndarray | None
    nbar: np.ndarray | None
    cp_eigenvalue: float
    factors: tuple[GaussianChannel, ...] = ()

    def __post_init__(self):
        for array in (self.x, self.y, self.eta, self.nbar):
            if array is not None:
                array.setflags(write=False)

    @property
    def leaves(self) -> tuple[GaussianChannel, ...]:
        """The primitive factors in mode order; a primitive channel is its own leaf."""
        return self.factors or (self,)


def cp_certificate_eigenvalue(x: np.ndarray, y: np.ndarray) -> float:
    """Minimum eigenvalue of the Hermitian matrix Y + iJ - i X^T J X."""
    n = x.shape[0] // 2
    j = symplectic_form(n)
    herm = y + 1j * j - 1j * (x.T @ j @ x)
    return float(np.linalg.eigvalsh(herm)[0])


def _checked_pair(x, y) -> tuple[np.ndarray, np.ndarray, float]:
    """X and Y as new float arrays and the minimum eigenvalue of Y, once X is 2n x 2n
    (n >= 1), Y of its shape, both finite, and Y symmetric and PSD within ``TOL_CP``."""
    x, y = np.array(x, dtype=float), np.array(y, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1] or x.shape[0] % 2 != 0 or x.size == 0:
        raise DimensionError(f"X must be 2n x 2n with n >= 1, got shape {x.shape}")
    if y.shape != x.shape:
        raise DimensionError(f"Y must match X, got {y.shape} vs {x.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("X and Y must have finite entries")
    asym = float(np.max(np.abs(y - y.T)))
    if asym > TOL_CP * max(1.0, float(np.max(np.abs(y)))):
        raise CompletePositivityError(f"Y is not symmetric (residual {asym:.3e})")
    y_min = float(np.linalg.eigvalsh(y)[0])
    if y_min < -TOL_CP:
        raise CompletePositivityError(f"Y has a negative eigenvalue ({y_min:.3e})")
    return x, y, y_min


def make_channel(x: np.ndarray, y: np.ndarray) -> GaussianChannel:
    """Validate and build a ``custom`` Gaussian channel from its matrix pair.

    Rejects non-finite X or Y and asymmetric or indefinite Y, and certifies
    complete positivity numerically (``CompletePositivityError`` below
    -``TOL_CP``).  Only the named constructors and ``tensor`` set a kind: a
    declared kind that (X, Y) do not have would select wrong closed forms.
    """
    x, y, _ = _checked_pair(x, y)
    cp_min = cp_certificate_eigenvalue(x, y)
    if cp_min < -TOL_CP:
        raise CompletePositivityError(f"complete positivity violated: certificate eigenvalue {cp_min:.3e}")
    return GaussianChannel(n=x.shape[0] // 2, x=x, y=y, kind="custom", eta=None, nbar=None, cp_eigenvalue=cp_min)


def classical_noise(y: np.ndarray) -> GaussianChannel:
    """Additive classical Gaussian noise: gamma -> gamma + Y, Y >= 0.  X = I makes
    the certificate matrix Y itself: its eigenvalue is that of the PSD check."""
    y = np.asarray(y, dtype=float)
    x, y, y_min = _checked_pair(np.eye(y.shape[0]), y)
    return GaussianChannel(n=x.shape[0] // 2, x=x, y=y, kind="classical", eta=None, nbar=None, cp_eigenvalue=y_min)


def _beamsplitter(eta, nbar, kind: str) -> GaussianChannel:
    """The thermal or lossy channel, certified in closed form: mode k has the certificate
    matrix y_k I2 + i (1 - eta_k) J2, eigenvalues y_k +/- (1 - eta_k) >= 2 nbar_k (1 - eta_k)."""
    eta = np.atleast_1d(np.array(eta, dtype=float))
    nbar = np.atleast_1d(np.array(nbar, dtype=float))
    if nbar.size == 1 and eta.size > 1:
        nbar = np.full(eta.size, float(nbar[0]))
    if eta.shape != nbar.shape:
        raise DimensionError(f"eta and nbar must align, got {eta.shape} vs {nbar.shape}")
    if eta.ndim != 1:
        raise DimensionError(f"eta and nbar must be one-dimensional, got shape {eta.shape}")
    if eta.size == 0:
        raise DimensionError("X must be 2n x 2n with n >= 1, got shape (0, 0)")
    # fmin and fmax pass over NaN, which the finiteness check of y_k below refuses.
    if np.fmin.reduce(eta) < 0.0 or np.fmax.reduce(eta) > 1.0:
        raise ValueError("transmittivities must lie in [0, 1]")
    if np.fmin.reduce(nbar) < 0.0:
        raise ValueError("reservoir occupations must be nonnegative")
    loss = 1.0 - eta
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN or overflowing y_k is refused below
        y_k = (2.0 * nbar + 1.0) * loss
    if not np.max(y_k) < np.inf:
        raise ValueError("X and Y must have finite entries")
    return GaussianChannel(n=eta.size, x=np.diag(np.repeat(np.sqrt(eta), 2)), y=np.diag(np.repeat(y_k, 2)), kind=kind,
                           eta=eta, nbar=nbar, cp_eigenvalue=float(np.min(2.0 * nbar * loss)))


def thermal_noise(eta, nbar) -> GaussianChannel:
    """Beamsplitter coupling to thermal reservoirs: per mode X = sqrt(eta_k) I2
    and Y = (2 nbar_k + 1)(1 - eta_k) I2, transmittivity eta_k in [0, 1] and
    occupation nbar_k >= 0, both one-dimensional; a scalar nbar fits every mode."""
    return _beamsplitter(eta, nbar, "thermal")


def lossy(eta) -> GaussianChannel:
    """Pure loss (attenuation): the zero-temperature thermal channel."""
    return _beamsplitter(eta, np.zeros(np.size(eta)), "lossy")


def tensor(channels: Sequence[GaussianChannel]) -> GaussianChannel:
    """Tensor product of channels, realized by direct sums of X and Y; it
    keeps the leaves of every factor in mode order, nested products flattened."""
    if len(channels) == 0:
        raise ValueError("tensor product of an empty channel list")
    leaves = tuple(leaf for c in channels for leaf in c.leaves)
    joint = make_channel(_direct_sum([c.x for c in channels]), _direct_sum([c.y for c in channels]))
    return replace(joint, factors=leaves)


def apply(channel: GaussianChannel, state: GaussianState) -> GaussianState:
    """Channel action: gamma -> X^T gamma X + Y and m -> X^T m."""
    if state.n != channel.n:
        raise DimensionError(f"channel acts on {channel.n} modes, state has {state.n}")
    return GaussianState(apply_cov(channel, state.gamma), channel.x.T @ state.m, state.omega)


def apply_cov(channel: GaussianChannel, gamma: np.ndarray) -> np.ndarray:
    """Covariance-only channel action on one covariance or a stack; no physicality re-validation."""
    return _act(channel.x, channel.y, gamma)


def _act(x: np.ndarray, y: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """The channel action X^T gamma X + Y, symmetrized; X and Y may be per-row stacks."""
    out = x.swapaxes(-1, -2) @ gamma @ x + y
    return 0.5 * (out + out.swapaxes(-1, -2))


def noise_spectrum(channel: GaussianChannel) -> np.ndarray:
    """Symplectic spectrum of the noise matrix Y, ascending.  Y with an
    eigenvalue below ``NOISE_EPS`` has no usable Cholesky factor, so the
    PSD factor L = V sqrt(W) of Y = V W V^T takes its place (i L^T J L has
    the eigenvalues +/- nu_j of i J Y): a null mode of Y gives an exact 0."""
    return _noise_spectrum(channel.y, float(np.linalg.eigvalsh(channel.y)[0]))


def _noise_spectrum(y: np.ndarray, y_min: float) -> np.ndarray:
    """``noise_spectrum`` of Y, with its route chosen by ``y_min``, the minimum eigenvalue of Y."""
    if y_min >= NOISE_EPS:
        return symplectic_eigenvalues(y)
    w, v = np.linalg.eigh(y)
    return np.maximum(np.linalg.eigvalsh(_hermitian(v * np.sqrt(np.maximum(w, 0.0))))[len(y) // 2 :], 0.0)


def channel_to_record(channel: GaussianChannel) -> dict:
    """Record of a channel, Python floats with matrices row-major, which ``channel_from_record``
    inverts for a primitive kind.  A tensor product's record is its joint (X, Y) as ``custom``:
    it reloads as one custom leaf, without the leaves that give the product its closed form."""
    record: dict = {"n_modes": channel.n, "kind": channel.kind}
    if channel.eta is not None:
        record["eta"] = channel.eta.tolist()
    if channel.nbar is not None:
        record["nbar"] = channel.nbar.tolist()
    if channel.kind == "custom":
        record["X"] = channel.x.ravel().tolist()
    if channel.kind in ("classical", "custom"):
        record["Y"] = channel.y.ravel().tolist()
    return record


def _numbers_only(value) -> bool:
    """True for a real number or a (nested) list of them; booleans are not
    numbers.  Iterative, so any nesting depth gives an answer."""
    pending = [value]
    while pending:
        item = pending.pop()
        if type(item) is float or type(item) is int:  # the JSON numbers, before the ABC check
            continue
        if isinstance(item, np.ndarray):
            item = item.tolist()
        if isinstance(item, (list, tuple)):
            pending.extend(item)
        elif not isinstance(item, numbers.Real) or isinstance(item, bool):
            return False
    return True


def _numeric_field(record: dict, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Field ``name`` of a record as a new float array of ``shape``.  Entries must be
    finite numbers, so booleans and strings are refused rather than converted.  A
    vector field has ``shape`` itself; a matrix field may nest its row-major entries."""
    value = record[name]
    if not _numbers_only(value):
        raise ChannelSpecError(name, "entries must be numbers")
    try:
        array = np.array(value, dtype=float)
    except (TypeError, ValueError):  # ragged, or nested deeper than numpy takes
        raise ChannelSpecError(name, "entries must be numbers") from None
    except OverflowError:  # a JSON integer beyond the float range
        raise ChannelSpecError(name, "entries must be finite") from None
    if not np.isfinite(array).all():
        raise ChannelSpecError(name, "entries must be finite")
    entries = int(np.prod(shape))
    if array.shape != shape and (len(shape) == 1 or array.size != entries):
        raise ChannelSpecError(name, f"expected {entries} entries, got shape {array.shape}")
    return array.reshape(shape)


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

    def field(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if name not in record:
            raise ChannelSpecError(name, f"missing for a {kind} channel")
        return _numeric_field(record, name, shape)

    matrix = (2 * n, 2 * n)
    try:
        if kind == "classical":
            return classical_noise(field("Y", matrix))
        if kind == "thermal":
            return thermal_noise(field("eta", (n,)), field("nbar", (n,)))
        if kind == "lossy":
            return lossy(field("eta", (n,)))
        return make_channel(field("X", matrix), field("Y", matrix))
    except ChannelSpecError:
        raise
    except ValueError as exc:  # every field is well formed: the constructor refused their values
        raise ChannelSpecError({"classical": "Y", "custom": "X/Y"}.get(kind, "eta/nbar"), str(exc)) from None


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
        except RecursionError:
            raise ChannelSpecError("<file>", "JSON nested too deeply") from None
    channel = channel_from_record(record)
    return channel, None if record.get("omega") is None else _numeric_field(record, "omega", (channel.n,))
