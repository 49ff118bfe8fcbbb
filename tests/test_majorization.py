"""Majorization predicates and the randomized inequality campaigns."""

import numpy as np
import pytest

import cvchan.majorization as mj
from cvchan import symplectic as sp
from cvchan.cli import record_of


class TestMajorize:
    def test_reflexive(self):
        x = np.array([1.0, 2.0, 3.0])
        assert mj.majorize(x, x)

    def test_hand_prefix_sums(self):
        # Descending prefixes: 2 <= 3, 4 == 4.
        assert mj.majorize([2.0, 2.0], [3.0, 1.0])
        assert not mj.majorize([3.0, 1.0], [2.0, 2.0])

    def test_total_sum_must_match(self):
        assert not mj.majorize([1.0, 1.0], [3.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(sp.DimensionError):
            mj.majorize([1.0], [1.0, 2.0])

    def test_equivalence_with_weak_pair(self):
        # x majorized by y iff weakly sub- and supermajorized.
        rng = sp.rng_stream(101)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            x = rng.uniform(-2.0, 2.0, n)
            y = rng.uniform(-2.0, 2.0, n)
            both = mj.weak_submajorize(x, y) and mj.weak_supermajorize(x, y)
            assert mj.majorize(x, y) == both


class TestWeakSupermajorize:
    def test_reflexive(self):
        assert mj.weak_supermajorize([1.0, 2.0], [1.0, 2.0])

    def test_hand_examples(self):
        assert mj.weak_supermajorize([2.0, 2.0], [1.0, 3.0])
        assert not mj.weak_supermajorize([0.5, 10.0], [1.0, 1.0])

    def test_submajorize_twin(self):
        assert mj.weak_submajorize([2.0, 2.0], [3.0, 2.0])
        assert not mj.weak_submajorize([4.0, 2.0], [3.0, 2.0])


class TestTTransform:
    def test_full_pinch_averages(self):
        out = mj.t_transform([4.0, 0.0], 0, 1, 0.5)
        assert np.allclose(out, [2.0, 2.0])

    def test_identity_pinch(self):
        out = mj.t_transform([4.0, 0.0], 0, 1, 1.0)
        assert np.allclose(out, [4.0, 0.0])

    def test_weight_validated(self):
        with pytest.raises(ValueError):
            mj.t_transform([1.0, 2.0], 0, 1, 1.5)


class TestRandomMajorizationPair:
    def test_zero_transforms_identical(self):
        x, y = mj.random_majorization_pair(4, seed=0, transforms=0)
        assert np.array_equal(x, y)

    def test_pairs_majorize(self):
        for seed in range(300):
            x, y = mj.random_majorization_pair(1 + seed % 5, seed=seed)
            assert mj.majorize(x, y)

    def test_deterministic(self):
        a = mj.random_majorization_pair(3, seed=31)
        b = mj.random_majorization_pair(3, seed=31)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestSchurDiagCheck:
    def test_diagonal_matrix_equality_case(self):
        assert mj.schur_diag_check(np.diag([3.0, 1.0, -2.0]))

    def test_swap_matrix(self):
        assert mj.schur_diag_check(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_complex_hermitian(self):
        a = np.array([[1.0, 1j], [-1j, 2.0]])
        assert mj.schur_diag_check(a)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            mj.schur_diag_check(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_campaign_small(self):
        report = mj.schur_campaign(trials=200, max_dim=8, seed=17)
        assert report.passed
        assert report.failures == 0

    def test_campaign_detects_violation_under_negative_tolerance(self):
        # A negative slack turns every trial into a violation.
        report = mj.schur_campaign(trials=50, max_dim=4, seed=17, atol=-1e6)
        assert not report.passed
        assert report.failures > 0
        assert report.counterexample is not None


class TestTheorem1:
    def test_identity_pair_margin_zero(self):
        # nu(2I) = (2,), nu(I) + nu(I) = (2,): equality.
        a = np.eye(2)
        nu_sum = sp.symplectic_eigenvalues(a + a)
        parts = sp.symplectic_eigenvalues(a) + sp.symplectic_eigenvalues(a)
        assert mj.supermajorization_margin(nu_sum, parts) == pytest.approx(0.0, abs=1e-12)

    def test_hand_example(self):
        a = np.diag([1.0, 4.0])
        b = np.diag([4.0, 1.0])
        nu_sum = sp.symplectic_eigenvalues(a + b)
        parts = sp.symplectic_eigenvalues(a) + sp.symplectic_eigenvalues(b)
        assert nu_sum == pytest.approx([5.0])
        assert parts == pytest.approx([4.0])
        assert mj.supermajorization_margin(nu_sum, parts) == pytest.approx(1.0)

    def test_small_campaign(self):
        report = mj.theorem1_trial(3, trials=500, seed=23)
        assert report.failures == 0
        assert report.worst_margin >= -1e-9
        assert report.trials == 500

    def test_campaign_deterministic(self):
        a = mj.theorem1_trial(2, trials=100, seed=5)
        b = mj.theorem1_trial(2, trials=100, seed=5)
        assert a.worst_margin == b.worst_margin

    def test_detects_violation_under_negative_tolerance(self):
        report = mj.theorem1_trial(2, trials=100, seed=5, atol=-1e6)
        assert report.failures > 0
        assert report.counterexample is not None

    def test_physicality_not_required(self):
        report = mj.theorem1_trial(2, nu_range=(0.05, 0.8), trials=200, seed=7)
        assert report.failures == 0


class TestLemma1:
    def test_identity_bound(self):
        # Bound 2k; orthosymplectic rows attain it exactly.
        report = mj.lemma1_trial(np.eye(6), 2, samples=500, seed=29)
        assert report.parameters["bound"] == pytest.approx(4.0)
        assert report.failures == 0
        assert abs(report.witness_gap) <= 1e-10

    def test_paired_diagonal_example(self):
        a = np.diag([1.0, 1.0, 9.0, 9.0])
        report = mj.lemma1_trial(a, 1, samples=500, seed=3)
        assert report.parameters["bound"] == pytest.approx(2.0)
        assert report.failures == 0
        assert abs(report.witness_gap) <= 1e-9

    def test_random_instance_all_truncations(self):
        a = sp.random_spd(3, (0.5, 3.0), seed=29)
        for k in (1, 2, 3):
            report = mj.lemma1_trial(a, k, samples=1000, seed=29 + k)
            assert report.failures == 0, report
            assert abs(report.witness_gap) <= 1e-8

    def test_k_out_of_range(self):
        with pytest.raises(sp.DimensionError):
            mj.lemma1_trial(np.eye(4), 3, samples=10)

    def test_detects_violation_under_negative_tolerance(self):
        report = mj.lemma1_trial(np.eye(4), 1, samples=100, seed=1, atol=-1e6)
        assert report.failures > 0
        assert report.counterexample is not None

    def test_campaign_smoke(self):
        report = mj.lemma1_campaign(instances=5, max_modes=2, samples=400, seed=29)
        assert report.failures == 0
        assert report.witness_gap <= 1e-8

    def test_campaign_streams_are_lanes_of_its_seed(self, monkeypatch):
        # Streams keyed by (seed, lane) only: campaigns at different seeds
        # never share one.
        keys = []

        def recording(seed, *lane):
            keys.append((seed, lane))
            return sp.rng_stream(seed, *lane)

        monkeypatch.setattr(mj, "rng_stream", recording)
        mj.lemma1_campaign(instances=3, max_modes=2, samples=3000, seed=29)
        assert {seed for seed, _ in keys} == {29}
        assert len(set(keys)) == len(keys)


class TestTrialReportInvariant:
    def test_failures_iff_margin_below_tolerance(self):
        report = mj.theorem1_trial(2, trials=300, seed=11)
        assert (report.failures == 0) == (report.worst_margin >= -1e-9)
        record = record_of(report)
        assert record["pass"] is True
        assert record["trials"] == 300

    def test_witness_beyond_its_bound_fails(self):
        report = mj.TrialReport(trials=1, worst_margin=0.0, witness_gap=-2.0 * mj.WITNESS_ATOL)
        assert report.failures == 0
        assert not report.passed
        assert mj.TrialReport(trials=1, worst_margin=0.0, witness_gap=mj.WITNESS_ATOL).passed
