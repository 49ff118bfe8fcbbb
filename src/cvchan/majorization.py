"""Majorization predicates and randomized verification campaigns.

The two campaigns exercise the core inequalities of the package:

* the trace minimum over row-truncated symplectic matrices,
  min Tr S A S^T = 2 sum of the k smallest symplectic eigenvalues, and
* weak supermajorization of symplectic spectra under matrix addition,
  nu(A + B) majorized-from-above by nu(A) + nu(B).

Sampling cannot certify a minimum over the (noncompact) truncated
symplectic set; the campaigns are falsification harnesses, with the
attainment side checked through an explicit Williamson witness.

Each trial draws its random stream from (seed, trial index), so reports
are reproducible and independent of batching or execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .symplectic import (
    DimensionError,
    _spectrum,
    rng_stream,
    sample_spd,
    sample_symplectics,
    symplectic_eigenvalues,
    williamson,
)

#: Absolute and relative slack for prefix-sum comparisons.
PREFIX_ATOL = 1e-9
PREFIX_RTOL = 1e-12
#: Largest |witness_gap| of a passing campaign: the Williamson rows attain
#: the trace bound to rounding.
WITNESS_ATOL = 1e-8


def _prefix_tolerance(x: np.ndarray, y: np.ndarray, atol: float, rtol: float) -> float:
    scale = max(float(np.max(np.abs(x))), float(np.max(np.abs(y))), 1.0) * len(x)
    return atol + rtol * scale


def _check_lengths(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape or x.size == 0:
        raise DimensionError(f"expected equal-length nonempty vectors, got {x.shape} and {y.shape}")
    return x, y


def _prefix_gaps(x, y, descending: bool = False) -> np.ndarray:
    """Prefix sums of sorted x minus those of sorted y along the last axis,
    ascending unless ``descending``; takes one vector or a batch of rows."""
    x, y = np.sort(x), np.sort(y)
    if descending:
        x, y = x[..., ::-1], y[..., ::-1]
    return np.cumsum(x, axis=-1) - np.cumsum(y, axis=-1)


def majorize(x, y, atol: float = PREFIX_ATOL, rtol: float = PREFIX_RTOL) -> bool:
    """x majorized by y: decreasing prefix-sum dominance with equal totals."""
    x, y = _check_lengths(x, y)
    tol = _prefix_tolerance(x, y, atol, rtol)
    gaps = _prefix_gaps(x, y, descending=True)
    return bool(np.all(gaps <= tol) and abs(gaps[-1]) <= tol)


def weak_submajorize(x, y, atol: float = PREFIX_ATOL, rtol: float = PREFIX_RTOL) -> bool:
    """x weakly submajorized by y: decreasing prefix sums of x never exceed y's."""
    x, y = _check_lengths(x, y)
    return bool(np.all(_prefix_gaps(x, y, descending=True) <= _prefix_tolerance(x, y, atol, rtol)))


def weak_supermajorize(x, y, atol: float = PREFIX_ATOL, rtol: float = PREFIX_RTOL) -> bool:
    """x weakly supermajorized by y: ascending prefix sums of x dominate y's."""
    x, y = _check_lengths(x, y)
    return bool(np.all(_prefix_gaps(x, y) >= -_prefix_tolerance(x, y, atol, rtol)))


def supermajorization_margin(x, y) -> float:
    """Smallest ascending-prefix gap sum(x) - sum(y); negative means violation."""
    return float(np.min(_prefix_gaps(*_check_lengths(x, y))))


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


def schur_diag_check(a, tol: float = 1e-9) -> bool:
    """Schur theorem instance: diag(A) majorized by the spectrum of Hermitian A."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    herm = float(np.max(np.abs(a - a.conj().T)))
    if herm > tol * max(1.0, float(np.max(np.abs(a)))):
        raise ValueError(f"matrix is not Hermitian (residual {herm:.3e})")
    return majorize(np.real(np.diag(a)), np.linalg.eigvalsh(a))


@dataclass
class TrialReport:
    """Summary of a randomized campaign; failures == 0 iff worst_margin >= -tol.

    A campaign creates its report up front and folds its samples in with
    ``fold`` (or whole sub-campaigns with ``add``).  The counterexample is
    the worst failing sample: the one with the smallest margin among those
    below -tol.  A campaign passes with no failures and, when it has a
    witness, |witness_gap| <= ``WITNESS_ATOL``.
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
        """Fold in an array of sample margins; sample i fails when its margin is
        below -tol (a scalar or one per sample), and ``example(i)`` describes it."""
        bad = margins < -tol
        self.trials += margins.size
        self.failures += int(np.count_nonzero(bad))
        self.worst_margin = min(self.worst_margin, float(np.min(margins)))
        if np.any(bad):
            i = int(np.argmin(np.where(bad, margins, np.inf)))
            self._offer({**example(i), "margin": float(margins[i])})

    def add(self, sub: TrialReport, context: dict) -> None:
        """Add a sub-campaign's report; ``context`` prefixes its counterexample."""
        self.trials += sub.trials
        self.failures += sub.failures
        self.worst_margin = min(self.worst_margin, sub.worst_margin)
        if sub.counterexample is not None:
            self._offer({**context, **sub.counterexample})

    def _offer(self, counterexample: dict) -> None:
        if self.counterexample is None or counterexample["margin"] < self.counterexample["margin"]:
            self.counterexample = counterexample


def theorem1_trial(
    n: int,
    nu_range: tuple[float, float] = (0.25, 4.0),
    trials: int = 10000,
    seed: int = 23,
    atol: float = PREFIX_ATOL,
    rtol: float = PREFIX_RTOL,
) -> TrialReport:
    """Randomized check that nu(A + B) is weakly supermajorized by nu(A) + nu(B).

    Each trial draws a mode count uniformly in [1, n] and a pair of SPD
    matrices with target spectra in ``nu_range`` (physicality is not
    required by the inequality, so nu below 1 is allowed).  The margin of
    a trial is the smallest ascending-prefix gap; a trial fails when its
    margin drops below the prefix tolerance.
    """
    if trials < 1:
        raise ValueError(f"trial count must be >= 1, got {trials}")
    if n < 1:
        raise DimensionError(f"max mode count must be >= 1, got {n}")
    modes = rng_stream(seed).integers(1, n + 1, size=trials)
    report = TrialReport(
        seed=seed, parameters={"max_modes": n, "nu_range": list(nu_range), "atol": atol, "rtol": rtol}
    )
    for mode in range(1, n + 1):
        count = int(np.sum(modes == mode))
        if count == 0:
            continue
        lane = rng_stream(seed, mode)
        a = sample_spd(lane, mode, count, nu_range)
        b = sample_spd(lane, mode, count, nu_range)
        nu_parts = _spectrum(a) + _spectrum(b)
        margins = np.min(_prefix_gaps(_spectrum(a + b), nu_parts), axis=1)
        tol = atol + rtol * max(float(np.max(np.sum(nu_parts, axis=1))), 1.0)
        report.fold(margins, tol, lambda i: {"n": mode, "A": a[i].tolist(), "B": b[i].tolist()})
    return report


def lemma1_trial(
    a: np.ndarray,
    k: int,
    samples: int = 10000,
    seed: int = 29,
    atol: float = PREFIX_ATOL,
    rtol: float = PREFIX_RTOL,
    lane: tuple[int, ...] = (),
) -> TrialReport:
    """Randomized lower-bound check of the truncated-symplectic trace minimum.

    For ``samples`` random 2k x 2n truncations S of symplectic matrices
    (squeezings log-uniform in [1, 8]), checks
    Tr S A S^T >= 2 * (sum of the k smallest symplectic eigenvalues of A),
    and verifies that the first 2k rows of the Williamson transform of A
    attain the bound (``witness_gap``).

    Sampled matrices that come within 1e-6 of the bound are counted as
    near-attainers (reported, not classified); the closest one is kept in
    the report parameters.  Batch b of 2048 samples draws from
    ``rng_stream(seed, *lane, b)``.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0] // 2
    if not 1 <= k <= n:
        raise DimensionError(f"output mode count k={k} out of range [1, {n}]")
    if samples < 1:
        raise ValueError(f"sample count must be >= 1, got {samples}")
    nu = symplectic_eigenvalues(a)
    bound = 2.0 * float(np.sum(nu[:k]))
    tol = atol + rtol * max(abs(bound), 1.0)
    batch, near_tol, squeeze_max = 2048, 1e-6, 8.0
    parameters = {"n": n, "k": k, "squeeze_max": squeeze_max, "bound": bound, "near_attainers": 0}
    report = TrialReport(seed=seed, parameters=parameters)
    for b, done in enumerate(range(0, samples, batch)):
        rng = rng_stream(seed, *lane, b)
        s = sample_symplectics(rng, n, min(batch, samples - done), (1.0, squeeze_max), log_squeeze=True)
        sk = s[:, : 2 * k, :]
        margins = np.einsum("bij,jk,bik->b", sk, a, sk) - bound
        parameters["near_attainers"] += int(np.sum(np.abs(margins) <= near_tol))
        idx = int(np.argmin(margins))
        if -tol <= margins[idx] <= near_tol and margins[idx] < report.worst_margin:
            parameters["nearest_sampled"] = sk[idx].tolist()
        report.fold(margins, tol, lambda i: {"S": sk[i].tolist()})

    # Attainment: the Williamson rows for the k smallest-nu planes come
    # first because the spectrum is returned ascending.
    witness = williamson(a).s[: 2 * k, :]
    report.witness_gap = float(np.einsum("ij,jk,ik->", witness, a, witness) - bound)
    return report


def lemma1_campaign(
    instances: int = 100,
    max_modes: int = 3,
    samples: int = 10000,
    nu_range: tuple[float, float] = (0.3, 4.0),
    seed: int = 29,
    atol: float = PREFIX_ATOL,
) -> TrialReport:
    """Run ``lemma1_trial`` over random matrices and every valid truncation size.

    Instance ``inst`` draws its matrix from ``rng_stream(seed, inst)`` and its
    truncation-size-k trial samples on the lane (inst, k); ``atol`` is the
    absolute prefix slack of every trial.
    """
    if instances < 1:
        raise ValueError(f"instance count must be >= 1, got {instances}")
    parameters = {
        "instances": instances,
        "max_modes": max_modes,
        "samples_per_truncation": samples,
        "nu_range": list(nu_range),
    }
    report = TrialReport(seed=seed, parameters=parameters, witness_gap=0.0)
    for inst in range(instances):
        rng = rng_stream(seed, inst)
        n = int(rng.integers(1, max_modes + 1))
        a = sample_spd(rng, n, 1, nu_range)[0]
        for k in range(1, n + 1):
            sub = lemma1_trial(a, k, samples=samples, seed=seed, atol=atol, lane=(inst, k))
            report.add(sub, {"A": a.tolist(), "k": k})
            report.witness_gap = max(report.witness_gap, abs(sub.witness_gap))
    return report


def schur_campaign(
    trials: int = 1000,
    max_dim: int = 8,
    seed: int = 17,
    atol: float = PREFIX_ATOL,
    rtol: float = PREFIX_RTOL,
) -> TrialReport:
    """Schur theorem over random real symmetric matrices of dimension <= max_dim.

    The margin of a trial is the smallest slack among the strict prefix
    inequalities and the (negated absolute) total-sum mismatch, so a pass
    requires both dominance and total equality.
    """
    if trials < 1:
        raise ValueError(f"trial count must be >= 1, got {trials}")
    report = TrialReport(seed=seed, parameters={"max_dim": max_dim})
    matrices, margins, tols = [], [], []
    for trial in range(trials):
        rng = rng_stream(seed, trial)
        dim = int(rng.integers(2, max_dim + 1))
        g = rng.standard_normal((dim, dim))
        a = 0.5 * (g + g.T)
        gaps = _prefix_gaps(np.linalg.eigvalsh(a), np.diag(a), descending=True)
        matrices.append(a)
        margins.append(min(float(np.min(gaps[:-1])), -abs(float(gaps[-1]))))
        tols.append(atol + rtol * max(abs(float(np.trace(a))), 1.0) * dim)
    report.fold(np.array(margins), np.array(tols), lambda i: {"A": matrices[i].tolist()})
    return report
