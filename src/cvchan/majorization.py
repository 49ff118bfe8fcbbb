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


def _prefix_tolerance(x: np.ndarray, y: np.ndarray, atol: float, rtol: float) -> float:
    scale = max(float(np.max(np.abs(x))), float(np.max(np.abs(y))), 1.0) * len(x)
    return atol + rtol * scale


def _check_lengths(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape or x.size == 0:
        raise DimensionError(f"expected equal-length nonempty vectors, got {x.shape} and {y.shape}")
    return x, y


def majorize(x, y, atol: float = PREFIX_ATOL, rtol: float = PREFIX_RTOL) -> bool:
    """x majorized by y: decreasing prefix-sum dominance with equal totals."""
    x, y = _check_lengths(x, y)
    tol = _prefix_tolerance(x, y, atol, rtol)
    px = np.cumsum(np.sort(x)[::-1])
    py = np.cumsum(np.sort(y)[::-1])
    return bool(np.all(px <= py + tol) and abs(px[-1] - py[-1]) <= tol)


def weak_submajorize(x, y, atol: float = PREFIX_ATOL, rtol: float = PREFIX_RTOL) -> bool:
    """x weakly submajorized by y: decreasing prefix sums of x never exceed y's."""
    x, y = _check_lengths(x, y)
    tol = _prefix_tolerance(x, y, atol, rtol)
    px = np.cumsum(np.sort(x)[::-1])
    py = np.cumsum(np.sort(y)[::-1])
    return bool(np.all(px <= py + tol))


def weak_supermajorize(x, y, atol: float = PREFIX_ATOL, rtol: float = PREFIX_RTOL) -> bool:
    """x weakly supermajorized by y: ascending prefix sums of x dominate y's."""
    x, y = _check_lengths(x, y)
    tol = _prefix_tolerance(x, y, atol, rtol)
    px = np.cumsum(np.sort(x))
    py = np.cumsum(np.sort(y))
    return bool(np.all(px >= py - tol))


def supermajorization_margin(x, y) -> float:
    """Smallest ascending-prefix gap sum(x) - sum(y); negative means violation."""
    x, y = _check_lengths(x, y)
    return float(np.min(np.cumsum(np.sort(x)) - np.cumsum(np.sort(y))))


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
    """Summary of a randomized campaign; failures == 0 iff worst_margin >= -tol."""

    trials: int
    failures: int
    worst_margin: float
    seed: int
    parameters: dict = field(default_factory=dict)
    witness_gap: float | None = None
    counterexample: dict | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def record(self) -> dict:
        out = {
            "trials": self.trials,
            "failures": self.failures,
            "worst_margin": self.worst_margin,
            "seed": self.seed,
            "parameters": self.parameters,
            "pass": self.passed,
        }
        if self.witness_gap is not None:
            out["witness_gap"] = self.witness_gap
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


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
    rng = rng_stream(seed)
    modes = rng.integers(1, n + 1, size=trials)
    worst = np.inf
    failures = 0
    counterexample = None
    for mode in range(1, n + 1):
        count = int(np.sum(modes == mode))
        if count == 0:
            continue
        lane = rng_stream(seed, mode)
        a = sample_spd(lane, mode, count, nu_range)
        b = sample_spd(lane, mode, count, nu_range)
        nu_sum = _spectrum(a + b)
        nu_parts = _spectrum(a) + _spectrum(b)
        lhs = np.cumsum(np.sort(nu_sum, axis=1), axis=1)
        rhs = np.cumsum(np.sort(nu_parts, axis=1), axis=1)
        margins = np.min(lhs - rhs, axis=1)
        tol = atol + rtol * max(float(np.max(rhs)), 1.0)
        bad = margins < -tol
        failures += int(np.sum(bad))
        idx = int(np.argmin(margins))
        if margins[idx] < worst:
            worst = float(margins[idx])
            if bad[idx]:
                counterexample = {
                    "n": mode,
                    "A": a[idx].tolist(),
                    "B": b[idx].tolist(),
                    "margin": float(margins[idx]),
                }
    return TrialReport(
        trials=trials,
        failures=failures,
        worst_margin=worst,
        seed=seed,
        parameters={"max_modes": n, "nu_range": list(nu_range), "atol": atol, "rtol": rtol},
        counterexample=counterexample,
    )


def lemma1_trial(
    a: np.ndarray,
    k: int,
    samples: int = 10000,
    seed: int = 29,
    squeeze_max: float = 8.0,
    atol: float = PREFIX_ATOL,
    rtol: float = PREFIX_RTOL,
    batch: int = 2048,
    near_tol: float = 1e-6,
    lane: tuple[int, ...] = (),
) -> TrialReport:
    """Randomized lower-bound check of the truncated-symplectic trace minimum.

    For ``samples`` random 2k x 2n truncations S of symplectic matrices
    (squeezings log-uniform in [1, squeeze_max]), checks
    Tr S A S^T >= 2 * (sum of the k smallest symplectic eigenvalues of A),
    and verifies that the first 2k rows of the Williamson transform of A
    attain the bound (``witness_gap``).

    Sampled matrices that come within ``near_tol`` of the bound are counted
    as near-attainers (reported, not classified); the closest one is kept
    in the report parameters.  Batch b draws from ``rng_stream(seed, *lane, b)``.
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

    worst = np.inf
    failures = 0
    near_attainers = 0
    nearest = None
    counterexample = None
    done = 0
    b = 0
    while done < samples:
        take = min(batch, samples - done)
        rng = rng_stream(seed, *lane, b)
        s = sample_symplectics(rng, n, take, (1.0, squeeze_max), log_squeeze=True)
        sk = s[:, : 2 * k, :]
        traces = np.einsum("bij,jk,bik->b", sk, a, sk)
        margins = traces - bound
        bad = margins < -tol
        failures += int(np.sum(bad))
        near_attainers += int(np.sum(np.abs(margins) <= near_tol))
        idx = int(np.argmin(margins))
        if margins[idx] < worst:
            worst = float(margins[idx])
            if bad[idx]:
                counterexample = {"S": sk[idx].tolist(), "margin": float(margins[idx])}
            elif margins[idx] <= near_tol:
                nearest = sk[idx].tolist()
        done += take
        b += 1

    # Attainment: the Williamson rows for the k smallest-nu planes come
    # first because the spectrum is returned ascending.
    s_w = williamson(a).s
    witness = s_w[: 2 * k, :]
    witness_gap = float(np.einsum("ij,jk,ik->", witness, a, witness) - bound)
    parameters = {
        "n": n,
        "k": k,
        "squeeze_max": squeeze_max,
        "bound": bound,
        "near_attainers": near_attainers,
    }
    if nearest is not None:
        parameters["nearest_sampled"] = nearest
    return TrialReport(
        trials=samples,
        failures=failures,
        worst_margin=worst,
        seed=seed,
        parameters=parameters,
        witness_gap=witness_gap,
        counterexample=counterexample,
    )


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
    worst = np.inf
    worst_witness = 0.0
    failures = 0
    total = 0
    counterexample = None
    for inst in range(instances):
        rng = rng_stream(seed, inst)
        n = int(rng.integers(1, max_modes + 1))
        a = sample_spd(rng, n, 1, nu_range)[0]
        for k in range(1, n + 1):
            report = lemma1_trial(a, k, samples=samples, seed=seed, atol=atol, lane=(inst, k))
            total += report.trials
            failures += report.failures
            if report.worst_margin < worst:
                worst = report.worst_margin
                if report.counterexample is not None:
                    counterexample = {"A": a.tolist(), "k": k, **report.counterexample}
            worst_witness = max(worst_witness, abs(report.witness_gap))
    return TrialReport(
        trials=total,
        failures=failures,
        worst_margin=worst,
        seed=seed,
        parameters={
            "instances": instances,
            "max_modes": max_modes,
            "samples_per_truncation": samples,
            "nu_range": list(nu_range),
        },
        witness_gap=worst_witness,
        counterexample=counterexample,
    )


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
    failures = 0
    worst = np.inf
    counterexample = None
    for trial in range(trials):
        rng = rng_stream(seed, trial)
        dim = int(rng.integers(2, max_dim + 1))
        g = rng.standard_normal((dim, dim))
        a = 0.5 * (g + g.T)
        pd = np.cumsum(np.sort(np.diag(a))[::-1])
        pl = np.cumsum(np.sort(np.linalg.eigvalsh(a))[::-1])
        margin = min(float(np.min((pl - pd)[:-1])), -abs(float(pl[-1] - pd[-1])))
        tol = atol + rtol * max(abs(float(pl[-1])), 1.0) * dim
        if margin < -tol:
            failures += 1
            if counterexample is None:
                counterexample = {"A": a.tolist(), "margin": margin}
        worst = min(worst, margin)
    return TrialReport(
        trials=trials,
        failures=failures,
        worst_margin=worst,
        seed=seed,
        parameters={"max_dim": max_dim},
        counterexample=counterexample,
    )
