"""Majorization predicates and randomized verification campaigns.

The three campaigns exercise the core inequalities of the package:

* the trace minimum over row-truncated symplectic matrices,
  min Tr S A S^T = 2 sum of the k smallest symplectic eigenvalues (lemma1),
* weak supermajorization of symplectic spectra under matrix addition,
  nu(A + B) majorized-from-above by nu(A) + nu(B) (theorem1), and
* Schur's theorem, diag(A) majorized by the spectrum of A (schur).

Sampling cannot certify a minimum over the (noncompact) truncated
symplectic set; the campaigns are falsification harnesses, with the
attainment side checked through an explicit Williamson witness.

Every random stream is keyed by (seed, lane), so reports are reproducible
for a given seed: one lane per drawn size (theorem1, schur); for lemma1,
(seed, inst) for the matrix of instance inst and (seed, n, b) for batch b
of the symplectic samples that every n-mode matrix shares, so that
``lemma1_trial`` of such a matrix is the campaign's column k for it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .symplectic import (
    DimensionError,
    _mode_count,
    _spectrum,
    rng_stream,
    sample_spd,
    sample_symplectics,
    williamson,
)

__all__ = [
    "TrialReport",
    "majorize",
    "weak_submajorize",
    "weak_supermajorize",
    "t_transform",
    "random_majorization_pair",
    "schur_diag_check",
    "theorem1_trial",
    "lemma1_trial",
    "lemma1_campaign",
    "schur_campaign",
]

#: Absolute and relative slack for prefix-sum comparisons.
PREFIX_ATOL = 1e-9
PREFIX_RTOL = 1e-12
#: Hermitian residual bound of ``schur_diag_check``, relative to the largest entry.
HERMITIAN_TOL = 1e-9
#: Largest |witness_gap| of a passing campaign: the Williamson rows attain
#: the trace bound to rounding.
WITNESS_ATOL = 1e-8
#: Largest squeezing of the symplectic matrices that the Lemma 1 check samples.
_SQUEEZE_MAX = 8.0


def _prefix_tolerance(x: np.ndarray, y: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(x))), float(np.max(np.abs(y))), 1.0) * len(x)
    return PREFIX_ATOL + PREFIX_RTOL * scale


def _check_lengths(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape or x.size == 0:
        raise DimensionError(f"expected equal-length nonempty vectors, got {x.shape} and {y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("vector entries must be finite")
    return x, y


def _prefix_gaps(x, y, descending: bool = False) -> np.ndarray:
    """Prefix sums of sorted x minus those of sorted y along the last axis,
    ascending unless ``descending``; takes one vector or a batch of rows."""
    x, y = np.sort(x), np.sort(y)
    if descending:
        x, y = x[..., ::-1], y[..., ::-1]
    return np.cumsum(x, axis=-1) - np.cumsum(y, axis=-1)


def majorize(x, y) -> bool:
    """x majorized by y: decreasing prefix-sum dominance with equal totals."""
    x, y = _check_lengths(x, y)
    tol = _prefix_tolerance(x, y)
    gaps = _prefix_gaps(x, y, descending=True)
    return bool(np.all(gaps <= tol) and abs(gaps[-1]) <= tol)


def weak_submajorize(x, y) -> bool:
    """x weakly submajorized by y: decreasing prefix sums of x never exceed y's."""
    x, y = _check_lengths(x, y)
    return bool(np.all(_prefix_gaps(x, y, descending=True) <= _prefix_tolerance(x, y)))


def weak_supermajorize(x, y) -> bool:
    """x weakly supermajorized by y: ascending prefix sums of x dominate y's."""
    x, y = _check_lengths(x, y)
    return bool(np.all(_prefix_gaps(x, y) >= -_prefix_tolerance(x, y)))


def t_transform(x, i: int, j: int, lam: float) -> np.ndarray:
    """Pinch coordinates i and j toward each other by weight lam in [0, 1]."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"pinch weight must be in [0, 1], got {lam}")
    out = np.asarray(x, dtype=float).copy()
    xi, xj = out[i], out[j]
    out[i] = lam * xi + (1.0 - lam) * xj
    out[j] = lam * xj + (1.0 - lam) * xi
    return out


def random_majorization_pair(n: int, seed: int = 0, transforms: int | None = None):
    """Generate (x, y) with x majorized by y, via random pinches of y."""
    if n < 1:
        raise DimensionError(f"vector length must be >= 1, got {n}")
    rng = rng_stream(seed)
    y = rng.uniform(-1.0, 3.0, n)
    x = y.copy()
    count = 2 * n if transforms is None else transforms
    for _ in range(count):
        if n == 1:
            break
        i, j = rng.choice(n, size=2, replace=False)
        x = t_transform(x, int(i), int(j), float(rng.uniform()))
    return x, y


def schur_diag_check(a) -> bool:
    """Schur theorem instance: diag(A) majorized by the spectrum of A, Hermitian within ``HERMITIAN_TOL``."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    herm = float(np.max(np.abs(a - a.conj().T)))
    if herm > HERMITIAN_TOL * max(1.0, float(np.max(np.abs(a)))):
        raise ValueError(f"matrix is not Hermitian (residual {herm:.3e})")
    return majorize(np.real(np.diag(a)), np.linalg.eigvalsh(a))


@dataclass
class TrialReport:
    """Summary of a randomized campaign; failures == 0 iff worst_margin >= -tol.

    A campaign creates its report up front and folds its samples in with
    ``fold``.  The counterexample is the worst failing sample: the one with
    the smallest margin among those below -tol.  A campaign passes with no
    failures and, when it has a witness, |witness_gap| <= ``WITNESS_ATOL``.
    """

    trials: int = 0
    failures: int = 0
    worst_margin: float = np.inf
    seed: int = 0
    parameters: dict = field(default_factory=dict)
    witness_gap: float | None = None
    counterexample: dict | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0 and (self.witness_gap is None or abs(self.witness_gap) <= WITNESS_ATOL)

    def fold(self, margins, tol, example) -> None:
        """Fold in an array of sample margins; sample i fails when its margin is below -tol (a scalar
        or one per sample), and ``example(i)`` describes it.  A non-finite margin or tolerance raises."""
        if not (np.isfinite(margins).all() and np.isfinite(tol).all()):
            raise ValueError("campaign margins and tolerances must be finite")
        bad = margins < -tol
        self.trials += margins.size
        self.failures += int(np.count_nonzero(bad))
        self.worst_margin = min(self.worst_margin, float(np.min(margins)))
        if np.any(bad):
            i = int(np.argmin(np.where(bad, margins, np.inf)))
            if self.counterexample is None or margins[i] < self.counterexample["margin"]:
                self.counterexample = {**example(i), "margin": float(margins[i])}


def theorem1_trial(
    n: int,
    nu_range: tuple[float, float] = (0.25, 4.0),
    trials: int = 10000,
    seed: int = 23,
    atol: float = PREFIX_ATOL,
) -> TrialReport:
    """Randomized check that nu(A + B) is weakly supermajorized by nu(A) + nu(B).

    Each trial draws a mode count uniformly in [1, n] and a pair of SPD
    matrices with target spectra in ``nu_range`` (physicality is not
    required by the inequality, so nu below 1 is allowed).  nu(A) and
    nu(B) are the spectra that ``sample_spd`` returns, so only nu(A + B)
    is computed, one stacked ``_spectrum`` call per mode count.  The margin
    of a trial is the smallest ascending-prefix gap; a trial fails when its
    margin drops below the prefix tolerance.
    """
    if trials < 1:
        raise ValueError(f"trial count must be >= 1, got {trials}")
    if n < 1:
        raise DimensionError(f"max mode count must be >= 1, got {n}")
    modes = rng_stream(seed).integers(1, n + 1, size=trials)
    report = TrialReport(
        seed=seed, parameters={"max_modes": n, "nu_range": list(nu_range), "atol": atol, "rtol": PREFIX_RTOL}
    )
    for mode, count in sorted(Counter(modes.tolist()).items()):
        lane = rng_stream(seed, mode)
        a, nu_a = sample_spd(lane, mode, count, nu_range)
        b, nu_b = sample_spd(lane, mode, count, nu_range)
        nu_parts = nu_a + nu_b
        margins = np.min(_prefix_gaps(_spectrum(a + b), nu_parts), axis=1)
        tol = atol + PREFIX_RTOL * max(float(np.max(np.sum(nu_parts, axis=1))), 1.0)
        report.fold(margins, tol, lambda i: {"n": mode, "A": a[i].tolist(), "B": b[i].tolist()})
    return report


def _lemma1_fold(
    report: TrialReport, mats: list, ks: range, samples: int, seed: int, atol: float
) -> list[tuple[float, float]]:
    """Fold the Lemma 1 samples of every matrix in ``mats``, all of one
    mode count n, and every truncation size k in ``ks`` into ``report``;
    return each (matrix, k)'s bound 2 (nu_1 + ... + nu_k) and witness gap.

    Batch b of 2048 samples draws full 2n x 2n symplectic matrices S once,
    from ``rng_stream(seed, n, b)``, and folds each matrix against it in
    turn.  The first 2k rows of S are a 2k x 2n truncation for every k, so
    one contraction of S A (one product over the batch's rows) with S over
    each mode's row pair gives its trace, and cumulative sums over modes
    give Tr S_k A S_k^T for all k.  A failing sample has the counterexample
    ``{"A", "k", "S"}``: its matrix, its size and its truncation.
    """
    if samples < 1:
        raise ValueError(f"sample count must be >= 1, got {samples}")
    n = len(mats[0]) // 2
    forms = [williamson(a) for a in mats]  # each spectrum gives the bounds, each frame the witness
    bounds = [[2.0 * float(np.sum(form.spectrum[:k])) for k in ks] for form in forms]
    for b, done in enumerate(range(0, samples, 2048)):
        rng = rng_stream(seed, n, b)
        s = sample_symplectics(rng, n, min(2048, samples - done), (1.0, _SQUEEZE_MAX), log_squeeze=True)
        rows, pairs = s.reshape(-1, 2 * n), (len(s), n, 2, 2 * n)  # the rows of S, stacked and grouped by mode
        for j, a in enumerate(mats):
            traces = np.cumsum(np.einsum("bkrj,bkrj->bk", (rows @ a).reshape(pairs), s.reshape(pairs)), axis=1)
            for k, bound in zip(ks, bounds[j]):
                tol = atol + PREFIX_RTOL * max(abs(bound), 1.0)
                report.fold(traces[:, k - 1] - bound, tol,
                            lambda i: {"A": a.tolist(), "k": k, "S": s[i, : 2 * k].tolist()})
        del s, rows, traces  # release the batch before the next is drawn

    # Attainment: the Williamson rows for the k smallest-nu planes come
    # first because the spectrum is returned ascending.
    return [(bound, float(np.sum((form.s[: 2 * k] @ a) * form.s[: 2 * k]) - bound))
            for a, form, row in zip(mats, forms, bounds) for k, bound in zip(ks, row)]


def lemma1_trial(
    a: np.ndarray,
    k: int,
    samples: int = 10000,
    seed: int = 29,
    atol: float = PREFIX_ATOL,
) -> TrialReport:
    """Randomized lower-bound check of the truncated-symplectic trace minimum.

    For ``samples`` random 2k x 2n truncations S of symplectic matrices
    (squeezings log-uniform in [1, 8]), checks
    Tr S A S^T >= 2 * (sum of the k smallest symplectic eigenvalues of A),
    and verifies that the first 2k rows of the Williamson transform of A
    attain the bound (``witness_gap``).  Batch b of 2048 samples of an
    n-mode matrix draws from ``rng_stream(seed, n, b)``, and the
    truncations are the first 2k rows of each draw, as in
    ``lemma1_campaign``: a trial is that campaign's size-k column for every
    instance of mode count n.  A counterexample names A, k and S.
    """
    a = np.asarray(a, dtype=float)
    n = _mode_count(a)
    if not 1 <= k <= n:
        raise DimensionError(f"output mode count k={k} out of range [1, {n}]")
    report = TrialReport(seed=seed, parameters={"n": n, "k": k, "squeeze_max": _SQUEEZE_MAX})
    ((report.parameters["bound"], report.witness_gap),) = _lemma1_fold(
        report, [a], range(k, k + 1), samples, seed, atol)
    return report


def lemma1_campaign(
    instances: int = 100,
    max_modes: int = 3,
    samples: int = 10000,
    seed: int = 29,
    atol: float = PREFIX_ATOL,
) -> TrialReport:
    """Run the ``lemma1_trial`` check over random matrices and every valid truncation size.

    Instance ``inst`` draws its mode count n and matrix (symplectic spectrum
    in [0.3, 4.0]) from ``rng_stream(seed, inst)``.  The instances of mode
    count n share one draw of ``samples`` symplectic matrices, batch b from
    ``rng_stream(seed, n, b)``, a two-key lane that no instance lane equals,
    so each instance still sees ``samples`` independent draws.  One draw
    serves every truncation size k = 1..n, as the first 2k rows of each
    matrix.  ``atol`` is the absolute prefix slack of every truncation.
    """
    if instances < 1:
        raise ValueError(f"instance count must be >= 1, got {instances}")
    if max_modes < 1:
        raise DimensionError(f"max mode count must be >= 1, got {max_modes}")
    nu_range = (0.3, 4.0)
    parameters = {
        "instances": instances,
        "max_modes": max_modes,
        "samples_per_truncation": samples,
        "nu_range": list(nu_range),
    }
    report = TrialReport(seed=seed, parameters=parameters, witness_gap=0.0)
    by_modes: dict[int, list] = {}
    for inst in range(instances):
        rng = rng_stream(seed, inst)
        n = int(rng.integers(1, max_modes + 1))
        by_modes.setdefault(n, []).append(sample_spd(rng, n, 1, nu_range)[0][0])
    for n, mats in sorted(by_modes.items()):
        for _, gap in _lemma1_fold(report, mats, range(1, n + 1), samples, seed, atol):
            report.witness_gap = max(report.witness_gap, abs(gap))
    return report


def schur_campaign(
    trials: int = 1000,
    max_dim: int = 8,
    seed: int = 17,
    atol: float = PREFIX_ATOL,
) -> TrialReport:
    """Schur theorem over random real symmetric matrices of dimension <= max_dim.

    The margin of a trial is the smallest slack among the strict prefix
    inequalities and the (negated absolute) total-sum mismatch, so a pass
    requires both dominance and total equality.  Every trial's dimension
    comes from one draw of ``rng_stream(seed)``; the trials of dimension d
    draw their matrices, in trial order, from ``rng_stream(seed, d)`` and
    are scored together, in one stacked ``eigvalsh``.
    """
    if trials < 1:
        raise ValueError(f"trial count must be >= 1, got {trials}")
    if max_dim < 2:
        raise DimensionError(f"max dimension must be >= 2, got {max_dim}")
    report = TrialReport(seed=seed, parameters={"max_dim": max_dim})
    dims = rng_stream(seed).integers(2, max_dim + 1, size=trials)
    for dim, count in sorted(Counter(dims.tolist()).items()):
        g = rng_stream(seed, dim).standard_normal((count, dim, dim))
        a = 0.5 * (g + np.swapaxes(g, 1, 2))
        diag = np.diagonal(a, axis1=1, axis2=2)
        gaps = _prefix_gaps(np.linalg.eigvalsh(a), diag, descending=True)
        margins = np.minimum(np.min(gaps[:, :-1], axis=1), -np.abs(gaps[:, -1]))
        tols = atol + PREFIX_RTOL * np.maximum(np.abs(diag.sum(axis=1)), 1.0) * dim
        report.fold(margins, tols, lambda i: {"A": a[i].tolist()})
    return report
