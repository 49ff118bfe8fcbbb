"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

import time

import numpy as np
import pytest

import cvchan.channels as ch
import cvchan.functionals as fn
import cvchan.majorization as mj
import cvchan.states as st
from cvchan import symplectic as sp

TWO_LN_2 = 2.0 * np.log(2.0)


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_symplectic_core_suite():
    t0 = time.monotonic()
    trials = 1000
    worst = {"williamson": 0.0, "euler": 0.0, "congruence": 0.0, "det": 0.0}
    for trial in range(trials):
        rng = sp.rng_stream(1, trial)
        n = int(rng.integers(1, 5))
        a = sp.sample_spd(rng, n, 1, (0.5, 4.0))[0]
        s = sp.sample_symplectics(rng, n, 1, (1.0, 4.0))[0]

        dec = sp.williamson(a)
        worst["williamson"] = max(
            worst["williamson"], float(np.max(np.abs(dec.s @ a @ dec.s.T - dec.diagonal)))
        )
        eul = sp.euler_decompose(s)
        worst["euler"] = max(
            worst["euler"], float(np.max(np.abs(eul.t1 @ eul.z_matrix @ eul.t2 - s)))
        )
        worst["congruence"] = max(
            worst["congruence"],
            float(np.max(np.abs(sp.symplectic_eigenvalues(s @ a @ s.T) - dec.spectrum))),
        )
        worst["det"] = max(worst["det"], abs(float(np.linalg.det(s)) - 1.0))
    elapsed = time.monotonic() - t0
    ok = all(value <= 1e-8 for value in worst.values()) and elapsed < 30.0
    _report(1, "symplectic core suite", ok, f"worst residuals {worst}, {elapsed:.1f} s")
    assert ok, (worst, elapsed)


def test_criterion_2_isomorphism_suite():
    worst_hom = 0.0
    worst_round = 0.0
    for trial in range(500):
        rng = sp.rng_stream(2, trial)
        n = int(rng.integers(1, 5))
        u = sp._haar_unitary(rng, n)
        v = sp._haar_unitary(rng, n)
        tu = sp.unitary_to_orthosymplectic(u)
        tv = sp.unitary_to_orthosymplectic(v)
        worst_hom = max(
            worst_hom, float(np.max(np.abs(sp.unitary_to_orthosymplectic(u @ v) - tu @ tv)))
        )
        worst_round = max(
            worst_round, float(np.max(np.abs(sp.orthosymplectic_to_unitary(tu) - u)))
        )
    ok = worst_hom <= 1e-10 and worst_round <= 1e-10
    _report(2, "K(n)-U(n) isomorphism", ok, f"homomorphism {worst_hom:.2e}, round-trip {worst_round:.2e}")
    assert ok, (worst_hom, worst_round)


def test_criterion_3_entropy_derivative_consistency():
    h = 1e-4
    worst = 0.0
    for trial in range(200):
        rng = sp.rng_stream(3, trial)
        n = int(rng.integers(1, 4))
        nu = rng.uniform(1.05, 5.0, n)
        fd = (st.schatten_norm(nu, 1.0 + h) - st.schatten_norm(nu, 1.0 - h)) / (2.0 * h)
        entropy = st.von_neumann_entropy(nu)
        worst = max(worst, abs(fd + entropy) / entropy)
    ok = worst <= 1e-4
    _report(3, "entropy equals norm derivative at p->1", ok, f"worst relative error {worst:.2e}")
    assert ok, worst


def test_criterion_4_log_fp_concavity_grid():
    report = fn.log_fp_concavity_check(ps=(1.1, 2.0, 3.0, 7.0), points=160, bound=1e-9)
    ok = report.passed
    _report(
        4,
        "ln f_p concavity grid",
        ok,
        f"worst second difference {report.worst_second_difference:.2e}, min witness {report.min_witness:.2e}",
    )
    assert ok, report


def test_criterion_5_supermajorization_campaign():
    t0 = time.monotonic()
    report = mj.theorem1_trial(4, nu_range=(0.25, 4.0), trials=10000, seed=23, atol=1e-9, rtol=0.0)
    elapsed = time.monotonic() - t0
    ok = report.failures == 0 and elapsed < 120.0
    _report(
        5,
        "spectrum supermajorization campaign",
        ok,
        f"{report.trials} trials, {report.failures} failures, worst margin {report.worst_margin:.2e}, {elapsed:.1f} s",
    )
    assert ok, report


def test_criterion_6_trace_minimum_campaign():
    report = mj.lemma1_campaign(instances=100, max_modes=3, samples=10000, seed=29)
    ok = report.failures == 0 and report.witness_gap <= 1e-8
    _report(
        6,
        "truncated-trace lower bound campaign",
        ok,
        f"{report.trials} samples over {report.parameters['instances']} matrices, "
        f"{report.failures} violations, worst witness gap {report.witness_gap:.2e}",
    )
    assert ok, report


def test_criterion_7_closed_form_optima():
    classical = ch.classical_noise(np.diag([2.0, 2.0]))
    thermal = ch.thermal_noise([0.5], [1.0])

    closed_classical = fn.min_output_fp_closed(classical, 2.0)
    smin_classical = fn.min_output_entropy(classical)
    closed_thermal = fn.min_output_fp_closed(thermal, 2.0)

    search_classical = fn.numeric_inf_fp(classical, 2.0, budget=20000, seed=7)
    search_thermal = fn.numeric_inf_fp(thermal, 2.0, budget=20000, seed=7)

    checks = {
        "classical closed = 12": abs(closed_classical - 12.0) <= 1e-9,
        "classical S_min = 2 ln 2": abs(smin_classical - TWO_LN_2) <= 1e-9,
        "thermal closed = 8": abs(closed_thermal - 8.0) <= 1e-9,
        "classical search gap": abs(search_classical.best_value - 12.0) <= 1e-6,
        "thermal search gap": abs(search_thermal.best_value - 8.0) <= 1e-6,
        "classical never below": search_classical.best_value >= 12.0 - 1e-9,
        "thermal never below": search_thermal.best_value >= 8.0 - 1e-9,
    }
    ok = all(checks.values())
    _report(
        7,
        "closed-form optima vs numeric search",
        ok,
        f"classical {search_classical.best_value:.9f} / 12, thermal {search_thermal.best_value:.9f} / 8",
    )
    assert ok, checks


def test_criterion_8_multiplicativity_pairs():
    from cvchan.cli import _builtin_channel_pairs

    pairs = _builtin_channel_pairs()
    assert len(pairs) >= 5
    results = []
    ok = True
    for label, p, pair in pairs:
        check = fn.multiplicativity_check(pair, p, search_budget=8000, seed=13, tol=1e-6)
        beat_by = max(0.0, -check.margin)
        witness_err = abs(check.witness_value - check.product_of_optima) / check.product_of_optima
        pair_ok = beat_by <= 1e-6 and witness_err <= 1e-6
        ok = ok and pair_ok and check.passed
        results.append(f"{label}: beaten by {beat_by:.2e}, witness error {witness_err:.2e}")
    _report(8, "multiplicativity over tensor pairs", ok, "; ".join(results))
    assert ok, results


def test_criterion_9_capacity_behavior():
    identity = ch.classical_noise(np.zeros((2, 2)))

    cap = fn.gaussian_holevo_capacity(identity, fn.EnergyBudget(1.5, [1.0]), search_budget=8000, seed=5)
    value_ok = abs(cap.value - TWO_LN_2) <= 1e-3
    # The exact water-filled value above; the search route must reach it too.
    sup = fn.max_output_entropy_under_energy(identity, fn.EnergyBudget(1.5, [1.0]), search_budget=8000, seed=5)
    searched = sup.best_value - fn.min_output_entropy(identity)
    value_ok = value_ok and abs(searched - TWO_LN_2) <= 1e-3

    infeasible = fn.gaussian_holevo_capacity(identity, fn.EnergyBudget(0.2, [1.0]), search_budget=100, seed=5)
    infeasible_ok = infeasible.value == 0.0 and not infeasible.feasible

    energies = np.linspace(0.5, 3.2, 10)
    values = [
        fn.gaussian_holevo_capacity(identity, fn.EnergyBudget(float(e), [1.0]), search_budget=4000, seed=5).value
        for e in energies
    ]
    monotone_ok = bool(np.all(np.diff(values) >= -1e-6))

    ok = value_ok and infeasible_ok and monotone_ok
    _report(
        9,
        "energy-constrained capacity",
        ok,
        f"C(1.5)={cap.value:.6f}, searched {searched:.6f} (target {TWO_LN_2:.6f}), infeasible={infeasible.value}, "
        f"grid min step {np.min(np.diff(values)):.2e}",
    )
    assert ok, (cap.value, infeasible.value, values)


def test_criterion_10_schur_theorem_campaign():
    report = mj.schur_campaign(trials=1000, max_dim=8, seed=17)
    ok = report.failures == 0
    _report(
        10,
        "diagonal majorized by spectrum",
        ok,
        f"{report.trials} matrices, {report.failures} failures, worst margin {report.worst_margin:.2e}",
    )
    assert ok, report
