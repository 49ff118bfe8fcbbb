"""Dense real linear algebra for the symplectic group Sp(2n, R).

Conventions used throughout the package:

* Modes are interleaved: the quadrature ordering is (q1, p1, ..., qn, pn),
  so the symplectic form is the block diagonal J = J1 + J1 + ... with
  J1 = [[0, 1], [-1, 0]].
* Symplectic eigenvalues are always returned in ascending order.  The
  ordering is a convention of this library, not a mathematical necessity.
* All randomness flows through the counter-based Philox generator, keyed
  by ``(seed, *lane)`` via ``rng_stream``.  Identical seeds reproduce
  identical matrices bit for bit on a given platform/numpy build.

Factorizations returned here (Williamson, Euler) are unique only up to an
orthosymplectic gauge; callers should verify residuals, never compare
factors entrywise.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.linalg import solve_triangular

#: Membership tolerance for symplectic / orthogonal / unitary residuals.
TOL_SYM = 1e-10
#: Residual tolerance for matrix factorizations (Williamson, Euler).
TOL_DECOMP = 1e-8

_J1 = np.array([[0.0, 1.0], [-1.0, 0.0]])


class DimensionError(ValueError):
    """Matrix or vector dimensions are invalid for the requested operation."""


class NotSymplecticError(ValueError):
    """Input fails a symplectic/orthosymplectic membership test."""


class NotPositiveDefiniteError(ValueError):
    """Input matrix is not symmetric positive-definite."""


def rng_stream(seed: int, *lane: int) -> np.random.Generator:
    """Return a Philox generator for the stream identified by (seed, *lane).

    Distinct lanes give statistically independent, reproducible streams;
    campaigns use one lane per trial so results do not depend on execution
    order.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=lane)))


def symplectic_form(n: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form J, block diagonal in J1.

    The array is shared between callers and read-only; copy it to modify.
    """
    if n < 1:
        raise DimensionError(f"mode count must be >= 1, got {n}")
    return _form(int(n))


@functools.cache
def _form(n: int) -> np.ndarray:
    j = np.kron(np.eye(n), _J1)
    j.setflags(write=False)
    return j


def _mode_count(m: np.ndarray) -> int:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] % 2 != 0:
        raise DimensionError(f"matrix dimension must be even, got {m.shape[0]}")
    return m.shape[0] // 2


class SymplecticCheck(NamedTuple):
    ok: bool
    residual: float


def symplectic_residual(m: np.ndarray) -> float:
    """Max-norm residual ||M J M^T - J|| of the group membership equation."""
    n = _mode_count(m)
    j = symplectic_form(n)
    return float(np.max(np.abs(m @ j @ m.T - j)))


def orthogonality_residual(m: np.ndarray) -> float:
    """Max-norm residual ||M M^T - I||."""
    m = np.asarray(m)
    return float(np.max(np.abs(m @ m.T - np.eye(m.shape[0]))))


def is_symplectic(m: np.ndarray, tol: float = TOL_SYM) -> SymplecticCheck:
    """Test membership in Sp(2n, R); always reports the residual."""
    res = symplectic_residual(m)
    return SymplecticCheck(res <= tol, res)


def _check_symmetric(a: np.ndarray, tol: float = TOL_SYM) -> np.ndarray:
    """Validate shape, finiteness and symmetry; return the input as a float array."""
    a = np.asarray(a, dtype=float)
    _mode_count(a)
    if not np.isfinite(a).all():
        raise NotPositiveDefiniteError("matrix has non-finite entries")
    sym = float(np.max(np.abs(a - a.T)))
    if sym > tol * max(1.0, float(np.max(np.abs(a)))):
        raise NotPositiveDefiniteError(f"matrix is not symmetric (residual {sym:.3e})")
    return a


def _hermitian(l: np.ndarray) -> np.ndarray:
    """The Hermitian i L^T J L of a Cholesky factor L, or of a stack of them.

    L^T J L is real skew-symmetric and similar to J A for A = L L^T, so the
    Hermitian has the eigenvalues +/- nu_j (Bhatia & Jain, J. Math. Phys.,
    2015).  ``_spectrum`` and ``williamson`` both diagonalize this matrix.
    """
    n = l.shape[-1] // 2
    return 1j * (np.swapaxes(l, -1, -2) @ _form(n) @ l)


def _spectrum(a: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of one SPD matrix or a (..., 2n, 2n) stack; unvalidated.

    The upper half, ascending, of the eigenvalues of ``_hermitian`` of the
    Cholesky factor of A.  Only the lower triangle of A is read.  The
    factorization is the positive-definiteness test: a matrix that is not
    positive definite raises ``numpy.linalg.LinAlgError``.  Inner loops call
    this directly; ``symplectic_eigenvalues`` is the validated entry point.
    """
    n = a.shape[-1] // 2
    return np.linalg.eigvalsh(_hermitian(np.linalg.cholesky(a)))[..., n:]


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Cholesky factor of a validated symmetric matrix; a failure is reported
    with the minimum eigenvalue of A, which is computed only on that path."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        min_eigenvalue = float(np.linalg.eigvalsh(a)[0])
    raise NotPositiveDefiniteError(f"matrix is not positive definite (minimum eigenvalue {min_eigenvalue:.3e})")


def symplectic_eigenvalues(a: np.ndarray, tol: float = TOL_SYM) -> np.ndarray:
    """Symplectic eigenvalues of a symmetric positive-definite matrix.

    Validated entry point to ``_spectrum``: the input must be a finite
    square matrix of even dimension, symmetric within ``tol`` (relative to
    its largest entry), and positive definite.  The spectrum is the positive
    half of the eigenvalues of the Hermitian i L^T J L, with L the
    Cholesky factor of A, as in ``_spectrum``; a failed factorization is
    reported with the minimum eigenvalue of A.

    Parameters
    ----------
    a : (2n, 2n) array
        Symmetric positive-definite matrix.
    tol : float
        Symmetry tolerance for input validation.

    Returns
    -------
    (n,) array of positive reals, ascending.

    Raises
    ------
    NotPositiveDefiniteError
        If the input is not finite, not symmetric or not positive definite.
    """
    a = _check_symmetric(a, tol)
    return np.linalg.eigvalsh(_hermitian(_cholesky(a)))[a.shape[0] // 2 :]


@dataclass(frozen=True)
class WilliamsonDecomposition:
    """Symplectic congruence S A S^T = diag(nu_1, nu_1, ..., nu_n, nu_n)."""

    s: np.ndarray
    spectrum: np.ndarray

    @property
    def diagonal(self) -> np.ndarray:
        """The paired diagonal diag(nu_1, nu_1, ...) as a matrix."""
        return np.diag(np.repeat(self.spectrum, 2))


def williamson(a: np.ndarray, tol: float = TOL_SYM) -> WilliamsonDecomposition:
    """Williamson normal form of a symmetric positive-definite matrix.

    Construction: factor A = L L^T and take the eigenvectors u_j of the n
    positive eigenvalues nu_j of the Hermitian i L^T J L, the matrix whose
    eigenvalues ``_spectrum`` returns.  Writing u_j = x_j + i y_j, the real
    skew K = L^T J L acts as K y_j = -nu_j x_j and K x_j = nu_j y_j, so the
    orthogonal O with columns (sqrt2 y_j, sqrt2 x_j) gives
    K = O (+_j nu_j J1) O^T.  Then S = D^{1/2} O^T L^{-1}, computed by a
    triangular solve, satisfies S A S^T = D and S J S^T = J.

    Repeated or nearly repeated nu need no special handling: since K is
    real, conj(u_j) is the eigenvector for -nu_j, and the gap between nu_j
    and -nu_j is at least 2 nu_min.  So the u_j are orthogonal to every
    conj(u_k) to working precision, which is what makes the columns of O
    orthonormal, whichever basis ``eigh`` picks inside a repeated nu.  The
    factor S is only defined up to an orthosymplectic gauge and is
    ill-conditioned near degeneracy (Idel, Soto Gaona & Wolf, Linear
    Algebra Appl., 2017); the contract is the residual, which this
    backward-stable route meets whatever the gaps.

    Parameters
    ----------
    a : (2n, 2n) array
        Symmetric positive-definite matrix.
    tol : float
        Input-validation tolerance.

    Returns
    -------
    WilliamsonDecomposition
        ``s`` symplectic, ``spectrum`` ascending; the congruence residual
        is verified to be at most ``TOL_DECOMP`` before returning.

    Raises
    ------
    NotPositiveDefiniteError
        If the input is not finite, not symmetric within ``tol``, or not
        positive definite (the message names the minimum eigenvalue).
    ArithmeticError
        If the constructed decomposition misses the residual bound; the
        residual value is included in the message.
    """
    a = _check_symmetric(a, tol)
    n = a.shape[0] // 2
    l = _cholesky(a)
    values, vectors = np.linalg.eigh(_hermitian(l))
    spectrum = values[n:]
    u = np.sqrt(2.0) * vectors[:, n:]
    o = np.empty((2 * n, 2 * n))
    o[:, 0::2] = u.imag
    o[:, 1::2] = u.real
    d = np.repeat(spectrum, 2)
    s = np.sqrt(d)[:, None] * solve_triangular(l, o, lower=True, trans="T").T

    residual = float(np.max(np.abs(s @ a @ s.T - np.diag(d))))
    if residual > TOL_DECOMP:
        raise ArithmeticError(f"Williamson residual {residual:.3e} exceeds {TOL_DECOMP:.1e}")
    return WilliamsonDecomposition(s=s, spectrum=spectrum)


@dataclass(frozen=True)
class EulerDecomposition:
    """Factorization S = T1 Z T2 with T1, T2 orthosymplectic, z_j >= 1."""

    t1: np.ndarray
    z: np.ndarray
    t2: np.ndarray

    @property
    def z_matrix(self) -> np.ndarray:
        """Z = diag(z_1, 1/z_1, ..., z_n, 1/z_n)."""
        return np.diag(_paired_squeeze(self.z))


def _paired_squeeze(z: np.ndarray) -> np.ndarray:
    """The diagonal (z_1, 1/z_1, ..., z_n, 1/z_n) of Z, along the last axis."""
    zz = np.repeat(np.asarray(z, dtype=float), 2, axis=-1)
    zz[..., 1::2] = 1.0 / zz[..., 1::2]
    return zz


def _euler_form(t1: np.ndarray, z: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """T1 Z T2 for squeezings z, for one triple or stacks along leading axes."""
    return t1 @ (_paired_squeeze(z)[..., :, None] * t2)


def euler_decompose(s: np.ndarray, tol: float = TOL_SYM) -> EulerDecomposition:
    """Euler (orthosymplectic - squeeze - orthosymplectic) factorization.

    Construction: S = U Z C^T for an orthosymplectic C, so the singular
    values of S come in pairs (z_j, 1/z_j).  One SVD of S gives the n
    largest singular values and their right singular vectors v_j, in
    descending order.  Each v_j = (q, p), interleaved, maps to the complex
    column u_j = q - i p; a complex QR of those columns, with the phases of
    diag(R) moved into Q so that each column stays in its own plane
    (v_j, -J v_j), is a unitary whose K(n) image is C.  Then
    z_j = max(sigma_j, 1), T2 = C^T and T1 = S C Z^{-1}.

    C is orthosymplectic to rounding by construction, whatever the SVD
    returns.  Close or repeated z, z near 1 included, need no special
    handling: the SVD may mix singular vectors inside a cluster of nearly
    equal singular values, and that costs only rounding in C^T S^T S C.  The
    unit singular values come last, so a column that QR has to complete
    lies in the z = 1 subspace, where every basis is valid.

    T1 is rebuilt from the unitary that its z_j columns encode: they carry
    rounding of order eps z_max / z_j, the 1/z_j columns eps z_max z_j.

    The factors are gauge-dependent; only the recomposition residual and
    the K(n) membership of T1, T2 are contractual, and both are verified
    before returning.

    Raises
    ------
    NotSymplecticError
        If the input fails the symplectic membership test at ``tol``.
    ArithmeticError
        If a factor leaves K(n) by more than ``tol`` or the recomposition
        residual exceeds ``TOL_DECOMP``; the residual is in the message.
    """
    s = np.asarray(s, dtype=float)
    n = _mode_count(s)
    ok, res = is_symplectic(s, tol)
    if not ok:
        raise NotSymplecticError(f"input is not symplectic (residual {res:.3e} > {tol:.1e})")

    _, sigma, vt = np.linalg.svd(s)
    q, r = np.linalg.qr(vt[:n, 0::2].T - 1j * vt[:n, 1::2].T)
    c = _embed_unitary(q * np.exp(1j * np.angle(np.diag(r))))
    z = np.maximum(sigma[:n], 1.0)
    t2 = c.T
    t1 = s @ (c / _paired_squeeze(z))
    t1 = _embed_unitary(t1[0::2, 0::2] - 1j * t1[1::2, 0::2])

    for name, t in (("T1", t1), ("T2", t2)):
        worst = max(symplectic_residual(t), orthogonality_residual(t))
        if worst > tol:
            raise ArithmeticError(f"Euler factor {name} leaves K(n) (residual {worst:.3e})")
    residual = float(np.max(np.abs(_euler_form(t1, z, t2) - s)))
    if residual > TOL_DECOMP:
        raise ArithmeticError(f"Euler recomposition residual {residual:.3e} exceeds {TOL_DECOMP:.1e}")
    return EulerDecomposition(t1=t1, z=z, t2=t2)


def unitary_to_orthosymplectic(u: np.ndarray, tol: float = TOL_SYM) -> np.ndarray:
    """Embed an n x n unitary into K(n) = Sp(2n, R) intersect O(2n).

    Block (j, k) of the image is [[Re u_jk, Im u_jk], [-Im u_jk, Re u_jk]];
    the map is a group isomorphism onto K(n).
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {u.shape}")
    res = float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))
    if res > tol:
        raise NotSymplecticError(f"input is not unitary (residual {res:.3e} > {tol:.1e})")
    return _embed_unitary(u)


def _embed_unitary(u: np.ndarray) -> np.ndarray:
    """Unvalidated, batch-capable version of the K(n) embedding."""
    n = u.shape[-1]
    t = np.zeros(u.shape[:-2] + (2 * n, 2 * n))
    t[..., 0::2, 0::2] = u.real
    t[..., 1::2, 1::2] = u.real
    t[..., 0::2, 1::2] = u.imag
    t[..., 1::2, 0::2] = -u.imag
    return t


def orthosymplectic_to_unitary(t: np.ndarray, tol: float = TOL_SYM) -> np.ndarray:
    """Inverse of ``unitary_to_orthosymplectic`` on K(n).

    Rejects inputs that are not simultaneously symplectic and orthogonal,
    reporting the larger of the two residuals.  The paired block structure
    is implied by K(n) membership; entries are read off symmetrized.
    """
    t = np.asarray(t, dtype=float)
    _mode_count(t)
    res = max(symplectic_residual(t), orthogonality_residual(t))
    if res > tol:
        raise NotSymplecticError(f"input is not in K(n) (residual {res:.3e} > {tol:.1e})")
    re = 0.5 * (t[0::2, 0::2] + t[1::2, 1::2])
    im = 0.5 * (t[0::2, 1::2] - t[1::2, 0::2])
    return re + 1j * im


def symplectic_from_factors(u1: np.ndarray, z: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Assemble T(U1) Z T(U2) from two unitaries and squeeze values z > 0."""
    return _euler_form(unitary_to_orthosymplectic(u1), z, unitary_to_orthosymplectic(u2))


def _haar_unitary(rng: np.random.Generator, n: int, size: int | None = None) -> np.ndarray:
    """Haar-random unitaries via QR of complex Gaussians, phase-fixed diagonal."""
    shape = (n, n) if size is None else (size, n, n)
    zmat = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    q, r = np.linalg.qr(zmat)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_unitary(n: int, seed: int = 0) -> np.ndarray:
    """Seeded Haar-random n x n unitary."""
    if n < 1:
        raise DimensionError(f"dimension must be >= 1, got {n}")
    return _haar_unitary(rng_stream(seed), n)


def sample_symplectics(
    rng: np.random.Generator,
    n: int,
    count: int,
    squeeze_range: tuple[float, float] = (1.0, 4.0),
    log_squeeze: bool = False,
) -> np.ndarray:
    """Vectorized sampler of (count, 2n, 2n) symplectic matrices.

    Each sample is T(U1) Z T(U2) with U1, U2 Haar random and squeezings
    drawn uniformly (or log-uniformly) from ``squeeze_range``.
    """
    lo, hi = squeeze_range
    if lo < 1.0 or hi < lo:
        raise ValueError(f"squeeze range must satisfy 1 <= lo <= hi, got {squeeze_range}")
    t1 = _embed_unitary(_haar_unitary(rng, n, count))
    t2 = _embed_unitary(_haar_unitary(rng, n, count))
    if log_squeeze:
        z = np.exp(rng.uniform(np.log(lo), np.log(hi), (count, n)))
    else:
        z = rng.uniform(lo, hi, (count, n))
    return _euler_form(t1, z, t2)


def random_symplectic(n: int, squeeze_range: tuple[float, float] = (1.0, 4.0), seed: int = 0) -> np.ndarray:
    """Seeded random symplectic matrix built through the Euler form."""
    if n < 1:
        raise DimensionError(f"mode count must be >= 1, got {n}")
    return sample_symplectics(rng_stream(seed), n, 1, squeeze_range)[0]


def symplectic_inverse(s: np.ndarray) -> np.ndarray:
    """Inverse of a symplectic matrix: S^{-1} = J S^T J^T."""
    n = _mode_count(s)
    j = symplectic_form(n)
    return j @ s.T @ j.T


def sample_spd(
    rng: np.random.Generator,
    n: int,
    count: int,
    nu_range: tuple[float, float],
    squeeze_range: tuple[float, float] = (1.0, 3.0),
) -> np.ndarray:
    """Stack of SPD matrices with symplectic spectra drawn from nu_range.

    Construction: gamma = S^{-1} D (S^{-1})^T with S a random symplectic
    and D the paired diagonal of the target spectrum, so the Williamson
    transform of each sample is S itself.  No physicality gate is applied;
    any nu_min > 0 is accepted.
    """
    lo, hi = nu_range
    if lo <= 0.0 or hi < lo:
        raise ValueError(f"spectrum range must satisfy 0 < lo <= hi, got {nu_range}")
    s = sample_symplectics(rng, n, count, squeeze_range)
    j = symplectic_form(n)
    s_inv = j @ np.swapaxes(s, -1, -2) @ j.T
    nu = rng.uniform(lo, hi, (count, n))
    d = np.repeat(nu, 2, axis=1)
    return s_inv @ (d[:, :, None] * np.swapaxes(s_inv, -1, -2))


def random_spd(n: int, nu_range: tuple[float, float], seed: int = 0) -> np.ndarray:
    """Seeded random SPD matrix with symplectic spectrum in nu_range."""
    if n < 1:
        raise DimensionError(f"mode count must be >= 1, got {n}")
    return sample_spd(rng_stream(seed), n, 1, nu_range)[0]


def random_covariance(n: int, nu_range: tuple[float, float] = (1.0, 3.0), seed: int = 0) -> np.ndarray:
    """Seeded random physical covariance matrix (all nu_j >= 1).

    Rejects nu_min < 1, which would generate unphysical states; use
    ``random_spd`` when the positive-definite cone without the physicality
    gate is wanted.
    """
    if nu_range[0] < 1.0:
        raise ValueError(f"physical covariance requires nu_min >= 1, got {nu_range[0]}")
    return random_spd(n, nu_range, seed)


def truncation_residual(sk: np.ndarray, n: int) -> float:
    """Max-norm residual of S J_n S^T = J_k for a 2k x 2n matrix."""
    sk = np.asarray(sk, dtype=float)
    if sk.ndim != 2 or sk.shape != (sk.shape[0], 2 * n) or sk.shape[0] % 2 != 0:
        raise DimensionError(f"expected a 2k x {2*n} matrix, got shape {sk.shape}")
    k = sk.shape[0] // 2
    return float(np.max(np.abs(sk @ symplectic_form(n) @ sk.T - symplectic_form(k))))


def truncate_rows(s: np.ndarray, k: int, tol: float = TOL_SYM) -> np.ndarray:
    """First 2k rows of a symplectic matrix; satisfies S J_n S^T = J_k."""
    s = np.asarray(s, dtype=float)
    n = _mode_count(s)
    if not 1 <= k <= n:
        raise DimensionError(f"output mode count k={k} out of range [1, {n}]")
    sk = s[: 2 * k, :].copy()
    res = truncation_residual(sk, n)
    if res > tol:
        raise NotSymplecticError(f"truncated rows violate the form relation (residual {res:.3e})")
    return sk


def matrix_to_rowmajor(m: np.ndarray) -> list[float]:
    """Flatten a matrix to a row-major list of floats (text-serializable)."""
    return [float(x) for x in np.asarray(m, dtype=float).reshape(-1)]


def matrix_from_rowmajor(values: Sequence[float], rows: int, cols: int) -> np.ndarray:
    """Rebuild a matrix from its row-major flat representation."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size != rows * cols:
        raise DimensionError(f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {arr.size}")
    return arr.reshape(rows, cols)
