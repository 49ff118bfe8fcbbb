"""Majorization predicates and the randomized inequality campaigns."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

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

    def test_non_finite_rejected(self):
        # A scale-relative slack would be inf here and accept anything.
        for x, y in (([np.inf, 1.0], [1.0, 2.0]), ([np.nan, 1.0], [1.0, 2.0]), ([1.0, 2.0], [1.0, -np.inf])):
            with pytest.raises(ValueError, match="finite"):
                mj.majorize(x, y)
            with pytest.raises(ValueError, match="finite"):
                mj.weak_submajorize(x, y)

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

    def test_non_finite_rejected(self):
        for x, y in (([1.0, 2.0], [np.inf, 1.0]), ([1.0, 2.0], [np.nan, 1.0]), ([np.inf, 1.0], [1.0, 2.0])):
            with pytest.raises(ValueError, match="finite"):
                mj.weak_supermajorize(x, y)


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

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, np.inf)])
    def test_non_finite_rejected(self, entry):
        a = np.array([[1.0, entry], [np.conj(entry), 2.0]])
        with pytest.raises(ValueError, match="finite"):
            mj.schur_diag_check(a)

    def test_campaign_small(self):
        report = mj.schur_campaign(trials=200, max_dim=8, seed=17)
        assert report.passed
        assert report.failures == 0

    @pytest.mark.parametrize("max_dim", [1, 0, -3])
    def test_campaign_dimension_validated(self, max_dim):
        with pytest.raises(sp.DimensionError, match="max dimension must be >= 2"):
            mj.schur_campaign(trials=10, max_dim=max_dim)

    def test_campaign_detects_violation_under_negative_tolerance(self):
        # A negative slack turns every trial into a violation.
        report = mj.schur_campaign(trials=50, max_dim=4, seed=17, atol=-1e6)
        assert not report.passed
        assert report.failures > 0
        assert report.counterexample is not None

    @staticmethod
    def scalar_route(trials, max_dim, seed, atol):
        """Each trial's dimension, matrix, margin and tolerance, one matrix at a
        time: trial by trial, each draws alone from its dimension's stream."""
        dims = sp.rng_stream(seed).integers(2, max_dim + 1, size=trials)
        lanes = {dim: sp.rng_stream(seed, dim) for dim in set(dims.tolist())}
        matrices, margins, tols = [], [], []
        for dim in dims.tolist():
            g = lanes[dim].standard_normal((dim, dim))
            a = 0.5 * (g + g.T)
            gaps = mj._prefix_gaps(np.linalg.eigvalsh(a), np.diag(a), descending=True)
            matrices.append(a)
            margins.append(min(float(np.min(gaps[:-1])), -abs(float(gaps[-1]))))
            tols.append(atol + mj.PREFIX_RTOL * max(abs(float(np.trace(a))), 1.0) * dim)
        return dims, matrices, np.array(margins), np.array(tols)

    @staticmethod
    def folds(monkeypatch, **kwargs):
        """The report of one campaign and the (margins, tolerances) of each of its folds, in order."""
        folded = []
        fold = mj.TrialReport.fold
        with monkeypatch.context() as patch:
            patch.setattr(mj.TrialReport, "fold",
                          lambda self, m, t, example: folded.append((m, t)) or fold(self, m, t, example))
            return mj.schur_campaign(**kwargs), folded

    @pytest.mark.parametrize("atol", [mj.PREFIX_ATOL, 0.0, -1e6])
    def test_stacked_dimensions_match_the_scalar_route(self, monkeypatch, atol):
        # Every dimension 2..8 is drawn; at 8 numpy's pairwise sum unrolls,
        # so the trace is where a stacked sum could first round differently.
        # At atol = 0 the tolerance keeps the trace's last bits.
        report, folded = self.folds(monkeypatch, trials=300, max_dim=8, seed=17, atol=atol)
        dims, matrices, margins, tols = self.scalar_route(300, 8, 17, atol)
        assert sorted(set(dims.tolist())) == list(range(2, 9))
        assert len(folded) == 7
        for dim, (got_margins, got_tols) in zip(range(2, 9), folded):
            assert np.array_equal(got_margins, margins[dims == dim]) and np.array_equal(got_tols, tols[dims == dim])
        if atol < 0:
            worst = int(np.argmin(margins))
            assert report.counterexample == {"A": matrices[worst].tolist(), "margin": float(margins[worst])}
        else:
            assert report.counterexample is None and report.worst_margin == float(np.min(margins))

    def test_a_longer_run_extends_each_dimension(self, monkeypatch):
        # The first T trials of a 2T-trial run are those of a T-trial run.
        _, short = self.folds(monkeypatch, trials=300, max_dim=8, seed=17)
        _, long = self.folds(monkeypatch, trials=600, max_dim=8, seed=17)
        assert len(short) == len(long) == 7
        for (margins, tols), (longer_margins, longer_tols) in zip(short, long):
            assert len(longer_margins) > len(margins)
            assert np.array_equal(longer_margins[: len(margins)], margins)
            assert np.array_equal(longer_tols[: len(tols)], tols)

    def test_one_stream_per_dimension(self, monkeypatch):
        # One stream draws the dimensions, then one per dimension drawn: 2..8.
        lanes = []
        stream = mj.rng_stream
        monkeypatch.setattr(mj, "rng_stream", lambda seed, *lane: lanes.append(lane) or stream(seed, *lane))
        assert mj.schur_campaign(trials=1000, max_dim=8, seed=17).passed
        assert lanes == [(), *((dim,) for dim in range(2, 9))]


class TestTheorem1:
    def test_identity_pair_margin_zero(self):
        # nu(2I) = (2,), nu(I) + nu(I) = (2,): equality.
        a = np.eye(2)
        nu_sum = sp.symplectic_eigenvalues(a + a)
        parts = sp.symplectic_eigenvalues(a) + sp.symplectic_eigenvalues(a)
        assert np.min(mj._prefix_gaps(nu_sum, parts)) == pytest.approx(0.0, abs=1e-12)

    def test_hand_example(self):
        a = np.diag([1.0, 4.0])
        b = np.diag([4.0, 1.0])
        nu_sum = sp.symplectic_eigenvalues(a + b)
        parts = sp.symplectic_eigenvalues(a) + sp.symplectic_eigenvalues(b)
        assert nu_sum == pytest.approx([5.0])
        assert parts == pytest.approx([4.0])
        assert np.min(mj._prefix_gaps(nu_sum, parts)) == pytest.approx(1.0)

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

    def test_visits_only_the_drawn_mode_counts(self, monkeypatch):
        # Mode counts up to 1e11 are drawn and none is allocated: the sampler
        # is stubbed with one-mode identities and their unit spectra, so the
        # loop costs only what it visits, and it must visit the drawn counts
        # only, in ascending order.
        n, trials, seed = 10**11, 3, 17
        calls = []

        def identities(lane, mode, count, nu_range):
            calls.append((mode, count))
            return np.broadcast_to(np.eye(2), (count, 2, 2)).copy(), np.ones((count, 1))

        monkeypatch.setattr(mj, "sample_spd", identities)
        report = mj.theorem1_trial(n, trials=trials, seed=seed)
        drawn, counts = np.unique(sp.rng_stream(seed).integers(1, n + 1, size=trials), return_counts=True)
        assert calls == [(mode, count) for mode, count in zip(drawn.tolist(), counts.tolist()) for _ in "ab"]
        assert report.trials == trials and report.failures == 0


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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_traces_are_those_of_one_product_per_sample(self, n):
        # S A as one product over the stacked rows of a batch has the bits of S @ A per sample.
        a, samples, seed = sp.random_spd(n, (0.5, 3.0), seed=n), 3000, 7
        report, margins = mj.TrialReport(), []
        report.fold = lambda m, tol, example: margins.append(m)
        bounds = [bound for bound, _ in mj._lemma1_fold(report, [a], range(1, n + 1), samples, seed, mj.PREFIX_ATOL)]
        expected = []
        for b, done in enumerate(range(0, samples, 2048)):
            s = sp.sample_symplectics(sp.rng_stream(seed, n, b), n, min(2048, samples - done),
                                      (1.0, mj._SQUEEZE_MAX), log_squeeze=True)
            pairs = (len(s), n, 2, 2 * n)
            traces = np.cumsum(np.einsum("bkrj,bkrj->bk", (s @ a).reshape(pairs), s.reshape(pairs)), axis=1)
            expected += [traces[:, k] - bound for k, bound in enumerate(bounds)]
        assert len(margins) == len(expected) == 2 * n
        assert all(np.array_equal(got, want) for got, want in zip(margins, expected))

    @pytest.mark.parametrize("a", [np.eye(4)[None], np.ones((4, 6)), np.eye(3)], ids=["stack", "rectangular", "odd"])
    def test_shape_validated_before_k(self, a):
        # The shape is checked before k is compared with a mode count read
        # from it, so the error names the shape.
        with pytest.raises(sp.DimensionError, match=r"got shape \(1, 4, 4\)|got shape \(4, 6\)|got 3"):
            mj.lemma1_trial(a, 1, samples=10)

    def test_sample_count_validated(self):
        with pytest.raises(ValueError, match="sample count must be >= 1"):
            mj.lemma1_trial(np.eye(4), 1, samples=0)

    @pytest.mark.parametrize("max_modes", [0, -1])
    def test_campaign_mode_count_validated(self, max_modes):
        with pytest.raises(sp.DimensionError, match="max mode count must be >= 1"):
            mj.lemma1_campaign(instances=2, max_modes=max_modes, samples=10)

    def test_detects_violation_under_negative_tolerance(self):
        report = mj.lemma1_trial(np.eye(4), 1, samples=100, seed=1, atol=-1e6)
        assert report.failures > 0
        assert set(report.counterexample) == {"A", "k", "S", "margin"}
        assert report.counterexample["margin"] == report.worst_margin
        assert report.parameters == {"n": 2, "k": 1, "squeeze_max": 8.0, "bound": 2.0}

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_counterexample_gives_back_margin_plus_bound(self, k):
        a = sp.random_spd(3, (0.3, 4.0), seed=17)
        report = mj.lemma1_trial(a, k, samples=300, seed=17, atol=-1e6)
        assert not report.passed
        s = np.array(report.counterexample["S"])
        assert s.shape == (2 * k, 6)
        trace = np.trace(s @ a @ s.T)
        assert trace == pytest.approx(report.counterexample["margin"] + report.parameters["bound"], rel=1e-12)

    @pytest.mark.parametrize("samples", [1, 5, 2048, 2049])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_contracted_traces_match_a_per_sample_loop(self, monkeypatch, n, samples):
        # Margin + bound is Tr S_k A S_k^T for every drawn S, every matrix folded against it and every k,
        # to rounding.
        draws, folds = [], []
        sample = mj.sample_symplectics

        def recording(*args, **kwargs):
            draws.append(sample(*args, **kwargs))
            return draws[-1]

        class Recorder:
            def fold(self, margins, tol, example):
                folds.append(margins)

        monkeypatch.setattr(mj, "sample_symplectics", recording)
        mats = list(sp.sample_spd(sp.rng_stream(3, n), n, 2, (0.3, 4.0))[0])
        ks = range(1, n + 1)
        bounds = [bound for bound, _ in mj._lemma1_fold(Recorder(), mats, ks, samples, 3, 1e-9)]
        assert sum(len(s) for s in draws) == samples and len(folds) == len(draws) * 2 * n
        for b, s in enumerate(draws):
            for j, a in enumerate(mats):
                for k in ks:
                    loop = [np.trace(si[: 2 * k] @ a @ si[: 2 * k].T) for si in s]
                    assert_allclose(folds[(2 * b + j) * n + k - 1] + bounds[j * n + k - 1], loop, rtol=1e-12, atol=0)

    def test_campaign_smoke(self):
        report = mj.lemma1_campaign(instances=5, max_modes=2, samples=400, seed=29)
        assert report.failures == 0
        assert report.witness_gap <= 1e-8

    def test_campaign_folds_the_trials_on_its_lane(self):
        # One sampling route: the size-k trial of an n-mode matrix is the campaign's column k for
        # every instance of mode count n.  At seed 1 both instances have three modes;
        # 2500 samples take two batches.
        seed, samples, n = 1, 2500, 3
        campaign = mj.lemma1_campaign(instances=2, max_modes=3, samples=samples, seed=seed)
        trials = []
        for inst in range(2):
            rng = sp.rng_stream(seed, inst)
            assert int(rng.integers(1, 4)) == n
            a = sp.sample_spd(rng, n, 1, (0.3, 4.0))[0][0]
            trials += [mj.lemma1_trial(a, k, samples=samples, seed=seed) for k in range(1, n + 1)]
        assert campaign.trials == sum(t.trials for t in trials) == 2 * n * samples
        assert campaign.worst_margin == min(t.worst_margin for t in trials)
        assert campaign.witness_gap == max(abs(t.witness_gap) for t in trials)

    @pytest.mark.parametrize("samples", [1, 2048, 2049, 4500])
    def test_one_draw_serves_every_truncation(self, monkeypatch, samples):
        # Each mode count present draws ceil(samples / 2048) batches of full symplectic matrices once,
        # however many instances share them: at seed 31 the first 4 instances already have every mode
        # count of the first 40.
        batches = -(-samples // 2048)
        sizes = [2048] * (batches - 1) + [samples - 2048 * (batches - 1)]
        sample = mj.sample_symplectics
        for instances in (4, 40):
            draws = []

            def recording(rng, n, count, squeeze_range, log_squeeze=False):
                draws.append((n, count))
                return sample(rng, n, count, squeeze_range, log_squeeze=log_squeeze)

            monkeypatch.setattr(mj, "sample_symplectics", recording)
            report = mj.lemma1_campaign(instances=instances, max_modes=3, samples=samples, seed=31)
            modes = [int(sp.rng_stream(31, inst).integers(1, 4)) for inst in range(instances)]
            assert sorted(set(modes)) == [1, 2, 3]
            assert draws == [(n, count) for n in (1, 2, 3) for count in sizes]
            assert report.trials == samples * sum(modes)

    def test_failing_campaign_names_its_truncation(self):
        # The counterexample's S is the first 2k rows of its draw for the k it names.  At seed 5 every
        # instance has three modes and the worst sample truncates to k = 1.
        report = mj.lemma1_campaign(instances=3, max_modes=3, samples=300, seed=5, atol=-1e6)
        assert not report.passed
        example = report.counterexample
        assert set(example) == {"A", "k", "S", "margin"}
        assert example["margin"] == report.worst_margin
        a, k, s = np.array(example["A"]), example["k"], np.array(example["S"])
        assert s.shape == (2 * k, len(a))
        margin = np.trace(s @ a @ s.T) - 2.0 * np.sum(sp.symplectic_eigenvalues(a)[:k])
        assert margin == pytest.approx(example["margin"], rel=1e-12)

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
        # The matrices come from the one-key instance lanes, the shared samples from the two-key
        # batch lanes (n, b), so no batch lane equals an instance lane.
        lanes = [lane for _, lane in keys]
        instance = [lane for lane in lanes if len(lane) == 1]
        batch = [lane for lane in lanes if len(lane) == 2]
        modes = {int(sp.rng_stream(29, inst).integers(1, 3)) for inst in range(3)}
        assert instance == [(0,), (1,), (2,)]
        assert sorted(batch) == [(n, b) for n in sorted(modes) for b in (0, 1)]
        assert len(instance) + len(batch) == len(lanes) and not set(instance) & set(batch)

    @pytest.mark.parametrize("seed", [29, 41])
    def test_more_instances_extend_the_campaign(self, seed):
        # Common random numbers: instance N of an (N + 1)-instance run sees the samples its mode count
        # drew for the first N, so the run contains the N-instance run and folds n_N * samples more.
        samples = 300
        runs = [mj.lemma1_campaign(instances=m, max_modes=3, samples=samples, seed=seed) for m in range(1, 8)]
        for inst, (fewer, more) in enumerate(zip(runs, runs[1:]), start=1):
            rng = sp.rng_stream(seed, inst)
            n = int(rng.integers(1, 4))
            a = sp.sample_spd(rng, n, 1, (0.3, 4.0))[0][0]
            added = [mj.lemma1_trial(a, k, samples=samples, seed=seed) for k in range(1, n + 1)]
            assert more.trials == fewer.trials + n * samples
            assert more.worst_margin <= fewer.worst_margin
            assert more.witness_gap >= fewer.witness_gap
            assert more.worst_margin == min(fewer.worst_margin, *(t.worst_margin for t in added))


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

    @pytest.mark.parametrize("margins, tol", [([1.0, np.nan], 1e-9), ([1.0, -np.inf], 1e-9), ([1.0, 2.0], np.nan),
                                              ([1.0, 2.0], np.array([1e-9, np.inf]))],
                             ids=["nan-margin", "inf-margin", "nan-tol", "inf-tol-entry"])
    def test_non_finite_margin_or_tolerance_raises(self, margins, tol):
        # A NaN compares false with every tolerance, so folding it in would
        # count no failure and report a pass that checked nothing.
        report = mj.TrialReport()
        with pytest.raises(ValueError, match="must be finite"):
            report.fold(np.array(margins), tol, lambda i: {})
        assert report.trials == 0

    @pytest.mark.parametrize("campaign", [
        lambda atol: mj.theorem1_trial(2, trials=20, seed=5, atol=atol),
        lambda atol: mj.lemma1_trial(np.eye(4), 1, samples=20, atol=atol),
        lambda atol: mj.lemma1_campaign(instances=1, max_modes=2, samples=20, atol=atol),
        lambda atol: mj.schur_campaign(trials=5, max_dim=3, atol=atol),
    ], ids=["theorem1", "lemma1_trial", "lemma1_campaign", "schur"])
    @pytest.mark.parametrize("atol", [np.nan, np.inf])
    def test_non_finite_atol_raises(self, campaign, atol):
        with pytest.raises(ValueError, match="must be finite"):
            campaign(atol)


@pytest.mark.parametrize("call, message", [
    (lambda: mj.random_majorization_pair(0), "vector length must be >= 1, got 0"),
    (lambda: mj.schur_diag_check(np.ones((2, 3))), r"square matrix, got shape \(2, 3\)"),
    (lambda: mj.theorem1_trial(0), "max mode count must be >= 1, got 0"),
], ids=["random_majorization_pair", "schur_diag_check", "theorem1_trial"])
def test_malformed_input_is_refused(call, message):
    with pytest.raises(sp.DimensionError, match=message):
        call()
