"""Channel functionals: closed forms, numeric searches, capacity, checks."""

import json
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import block_diag
from scipy.optimize import minimize

import cvchan.channels as ch
import cvchan.functionals as fn
import cvchan.states as st
from cvchan import symplectic as sp
from cvchan.cli import _builtin_channel_pairs, record_of
from test_channels import ILL_CONDITIONED_NOISE

TWO_LN_2 = 2.0 * np.log(2.0)


def identity_channel(n=1):
    return ch.classical_noise(np.zeros((2 * n, 2 * n)))


class TestClosedForms:
    def test_identity_inf_fp(self):
        for n, p in ((1, 2.0), (2, 3.0)):
            assert fn.min_output_fp_closed(identity_channel(n), p) == pytest.approx(
                2.0 ** (p * n), rel=1e-9
            )

    def test_identity_norm_is_one(self):
        assert fn.max_output_p_norm(identity_channel(), 2.0) == pytest.approx(1.0, rel=1e-9)

    def test_classical_example(self):
        channel = ch.classical_noise(np.diag([2.0, 2.0]))
        assert fn.min_output_fp_closed(channel, 2.0) == pytest.approx(12.0, rel=1e-9)
        assert fn.max_output_p_norm(channel, 2.0) == pytest.approx(2.0 / np.sqrt(12.0), rel=1e-9)

    def test_thermal_example(self):
        channel = ch.thermal_noise([0.5], [1.0])
        assert fn.min_output_fp_closed(channel, 2.0) == pytest.approx(8.0)
        assert fn.max_output_p_norm(channel, 2.0) == pytest.approx(2.0 / np.sqrt(8.0))

    def test_max_norm_refuses_orders_up_to_one(self):
        # Below p = 1 the p-quasi-norm grows with S_p, so it has no finite maximum.
        # A nan order fails every comparison, so it is refused too.
        thermal = ch.thermal_noise([0.5], [1.0])
        for p in (0.5, 1.0, np.nan):
            for figure in (fn.max_output_p_norm, fn.min_output_fp_closed, fn.numeric_inf_fp):
                with pytest.raises(ValueError, match="order must be > 1"):
                    figure(thermal, p)

    def test_fp_figures_refuse_an_infinite_order(self):
        # F_inf is +inf for every state, so a finite-p figure at p = inf would be inf or NaN.
        # max_output_p_norm keeps p = inf: exp(-S_inf) is finite.
        lossy = ch.lossy([0.5])
        for figure in (fn.min_output_fp_closed, fn.numeric_inf_fp):
            with pytest.raises(ValueError, match=r"^order must be finite, got inf$"):
                figure(lossy, np.inf)

    def test_max_operator_norm_is_the_largest_eigenvalue(self):
        # thermal(0.5, 1): output nu = 2, largest eigenvalue 2 / (nu + 1) = 2/3.
        assert fn.max_output_p_norm(ch.thermal_noise([0.5], [1.0]), np.inf) == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_classical_entropy_example(self):
        channel = ch.classical_noise(np.diag([2.0, 2.0]))
        assert fn.min_output_entropy(channel) == pytest.approx(TWO_LN_2, rel=1e-9)

    def test_identity_entropy_zero(self):
        assert fn.min_output_entropy(identity_channel()) == pytest.approx(0.0, abs=1e-7)

    def test_singular_classical_noise_is_exact(self):
        # Y = diag(2, 0) has symplectic spectrum 0: the vacuum passes as a pure state.
        channel = ch.classical_noise(np.diag([2.0, 0.0]))
        assert fn.min_output_fp_closed(channel, 2.0) == pytest.approx(4.0, rel=1e-15)
        assert fn.min_output_entropy(channel) == pytest.approx(0.0, abs=1e-15)
        assert fn.numeric_inf_fp(channel, 2.0, 4000, 0).gap_to_closed_form >= -fn.TOL_OPT_CLOSED

    def test_entropy_additive_over_tensor(self):
        c1 = ch.classical_noise(np.diag([2.0, 2.0]))
        c2 = ch.thermal_noise([0.5], [1.0])
        joint_classical = ch.tensor([c1, ch.classical_noise(np.diag([1.0, 1.0]))])
        assert fn.min_output_entropy(joint_classical) == pytest.approx(
            fn.min_output_entropy(c1) + fn.min_output_entropy(ch.classical_noise(np.diag([1.0, 1.0])))
        )
        joint_thermal = ch.tensor([c2, ch.thermal_noise([0.3], [2.0])])
        assert fn.min_output_entropy(joint_thermal) == pytest.approx(
            fn.min_output_entropy(c2) + fn.min_output_entropy(ch.thermal_noise([0.3], [2.0]))
        )

    def test_custom_kind_rejected(self):
        channel = ch.make_channel(0.5 * np.eye(2), np.eye(2))
        with pytest.raises(fn.UnsupportedKindError):
            fn.min_output_fp_closed(channel, 2.0)

    def test_p_not_above_one_rejected(self):
        with pytest.raises(ValueError):
            fn.min_output_fp_closed(identity_channel(), 1.0)

    def test_overflowing_product_is_inf_without_warning(self):
        # f_400(10) overflows a double; its log does not.
        channel = ch.thermal_noise([0.5], [9.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fn.min_output_fp_closed(channel, 400.0) == np.inf
        assert np.isfinite(fn.log_fp_of_renyi(1, 400.0, fn.min_output_renyi_closed(channel, 400.0)))


#: Leaves without a photon map, so without a closed-form capacity.
WITHOUT_PHOTON_MAP = {
    "custom": ch.make_channel(0.5 * np.eye(2), np.eye(2)),
    "anisotropic classical": ch.classical_noise(np.diag([2.0, 0.5])),
    "mode-coupling classical": ch.classical_noise(np.array([[1.0, 0.0, 0.3, 0.0], [0.0, 1.0, 0.0, 0.3],
                                                            [0.3, 0.0, 1.0, 0.0], [0.0, 0.3, 0.0, 1.0]])),
}


#: A random orthosymplectic frame of two modes.
FRAME = sp.unitary_to_orthosymplectic(sp.random_unitary(2, seed=3))


class TestLeafRule:
    """``_leaf_optimum`` is the one per-kind closed-form rule."""

    def test_product_spectrum_is_the_leaves_spectra(self):
        rot = sp.unitary_to_orthosymplectic(sp.random_unitary(2, seed=3))
        leaves = (ch.classical_noise(rot @ np.diag([3.0, 1.0, 0.5, 2.0]) @ rot.T),
                  ch.thermal_noise([0.3, 0.8], [2.0, 0.7]), ch.lossy([0.6]))
        nu = fn.optimal_output_spectrum(ch.tensor(list(leaves)))
        parts = [fn._leaf_optimum(leaf).spectrum() for leaf in leaves]
        np.testing.assert_array_equal(nu, np.concatenate(parts))
        # Bit for bit the expressions of the paper's optimum.
        np.testing.assert_array_equal(parts[0], 1.0 + ch.noise_spectrum(leaves[0]))
        for leaf, part in zip(leaves[1:], parts[1:]):
            np.testing.assert_array_equal(part, 1.0 + 2.0 * (1.0 - leaf.eta) * leaf.nbar)

    def test_photon_maps(self):
        thermal, isotropic = ch.thermal_noise([0.3, 0.8], [2.0, 0.7]), ch.classical_noise(np.diag([3.0, 3.0]))
        a, b = fn._leaf_optimum(thermal).photon_map()
        np.testing.assert_array_equal(a, thermal.eta)
        np.testing.assert_array_equal(b, (1.0 - thermal.eta) * thermal.nbar)
        a, b = fn._leaf_optimum(isotropic).photon_map()
        np.testing.assert_array_equal(a, [1.0])
        np.testing.assert_array_equal(b, [1.5])

    @pytest.mark.parametrize("name", ["anisotropic classical", "mode-coupling classical"])
    def test_phase_sensitive_classical_leaf_has_no_photon_map(self, name):
        leaf = WITHOUT_PHOTON_MAP[name]
        rule = fn._leaf_optimum(leaf)
        assert rule.photon_map() is None
        np.testing.assert_array_equal(rule.spectrum(), 1.0 + ch.noise_spectrum(leaf))

    @pytest.mark.parametrize("leaf", [ch.thermal_noise([0.3, 0.8], [2.0, 0.7]), ch.lossy([0.6])],
                             ids=["thermal", "lossy"])
    def test_beamsplitter_witness_is_the_vacuum(self, leaf):
        np.testing.assert_array_equal(fn._leaf_optimum(leaf).witness(), np.eye(2 * leaf.n))

    @pytest.mark.parametrize("leaf", [
        ch.classical_noise(np.diag([3.0, 3.0])),
        WITHOUT_PHOTON_MAP["anisotropic classical"],
        WITHOUT_PHOTON_MAP["mode-coupling classical"],
        ch.classical_noise(FRAME @ np.diag([3.0, 1.0, 0.5, 2.0]) @ FRAME.T),
    ], ids=["isotropic", "anisotropic", "mode-coupling", "rotated"])
    def test_classical_witness_attains_the_spectrum(self, leaf):
        rule = fn._leaf_optimum(leaf)
        gamma = rule.witness()
        assert st.is_pure(st.GaussianState(gamma, np.zeros(2 * leaf.n), np.ones(leaf.n)))
        assert_allclose(sp.symplectic_eigenvalues(ch.apply_cov(leaf, gamma)), rule.spectrum(), rtol=0.0, atol=1e-12)

    def test_product_witness_is_the_leaves_witnesses(self):
        leaves = [ch.classical_noise(np.diag([2.0, 0.5])), ch.thermal_noise([0.3, 0.8], [2.0, 0.7]),
                  ch.classical_noise(np.diag([1.0, 1.0])), ch.lossy([0.6])]
        np.testing.assert_array_equal(fn.separable_optimal_input(ch.tensor(leaves)),
                                      block_diag(*(fn.separable_optimal_input(leaf) for leaf in leaves)))

    def test_witness_reads_the_certificate(self, linalg_calls):
        # Per classical leaf one Williamson frame (one Cholesky, one eigh and one solve); its certificate
        # is the minimum eigenvalue of Y that construction took, so no eigvalsh of Y is taken again.
        joints = [ch.tensor(pair) for _, _, pair in _builtin_channel_pairs()]
        linalg_calls.clear()
        for joint in joints:
            fn.separable_optimal_input(joint)
        classical = sum(leaf.kind == "classical" for joint in joints for leaf in joint.leaves)
        assert linalg_calls == {"cholesky": classical, "eigh": classical, "solve": classical}

    @pytest.mark.parametrize(
        "figure", [fn._leaf_optimum, fn.optimal_output_spectrum, fn._photon_maps, fn.separable_optimal_input]
    )
    def test_custom_leaf_raises(self, figure):
        # A product is itself of kind custom, so the rule refuses it as a leaf too.
        with pytest.raises(fn.UnsupportedKindError, match="no closed form for kind 'custom'"):
            figure(ch.tensor([ch.lossy([0.5]), WITHOUT_PHOTON_MAP["custom"]]))

    def test_photon_maps_compute_no_spectrum(self, monkeypatch):
        # The capacity's S_min reads nu* once per leaf; the water filling reads only the photon maps.
        calls = []
        kernel = ch.symplectic_eigenvalues

        def counting(y):
            calls.append(y.shape)
            return kernel(y)

        monkeypatch.setattr(ch, "symplectic_eigenvalues", counting)
        channel = ch.tensor([ch.classical_noise(np.diag([2.0, 2.0])), ch.classical_noise(np.diag([1.0, 1.0]))])
        report = fn.gaussian_holevo_capacity(channel, fn.EnergyBudget(3.0, [1.0, 1.0]))
        assert report.search is None
        assert len(calls) == 2

    def test_water_filled_gap_needs_no_spectrum(self):
        # nu(Y) of this leaf raises, but its phase-sensitive map is None before any spectrum is taken, so
        # the search reports no closed-form gap instead of the spectrum's error.
        leaf = ch.classical_noise(ILL_CONDITIONED_NOISE["numerically singular"])
        report = fn.max_output_entropy_under_energy(leaf, fn.EnergyBudget(2.0, [1.0]), search_budget=60)
        assert report.gap_to_closed_form is None

    def test_closed_form_failures_surface_only_when_asked_for(self):
        # Both channels build (TestClassicalNoise); each fails only in the closed form that needs it.
        singular = ch.classical_noise(ILL_CONDITIONED_NOISE["numerically singular"])
        with pytest.raises(sp.NotPositiveDefiniteError, match="numerically singular"):
            fn.optimal_output_spectrum(singular)
        rank_one = ch.classical_noise(ILL_CONDITIONED_NOISE["rank one"])
        assert_allclose(fn.optimal_output_spectrum(rank_one), [1.0], atol=1e-12)
        with pytest.raises(ArithmeticError, match="Williamson residual"):
            fn.separable_optimal_input(rank_one)


class TestNumericInfFp:
    def test_identity_converges_to_pure_output(self):
        report = fn.numeric_inf_fp(identity_channel(), 2.0, budget=3000, seed=0)
        assert report.best_value == pytest.approx(4.0, abs=1e-8)
        assert report.evaluations <= 3000 + 7

    def test_thermal_gap_small(self):
        channel = ch.thermal_noise([0.7], [2.0])
        report = fn.numeric_inf_fp(channel, 3.0, budget=20000, seed=1)
        assert report.gap_to_closed_form is not None
        assert abs(report.gap_to_closed_form) <= 1e-6
        assert report.best_value >= fn.min_output_fp_closed(channel, 3.0) - 1e-9

    def test_tensor_pair_matches_product(self):
        pair = ch.tensor([
            ch.classical_noise(np.diag([2.0, 2.0])),
            ch.classical_noise(np.diag([2.0, 2.0])),
        ])
        report = fn.numeric_inf_fp(pair, 2.0, budget=12000, seed=2)
        assert report.best_value >= 144.0 - 1e-6
        assert report.best_value == pytest.approx(144.0, abs=1e-4)

    def test_never_below_closed_form(self):
        for seed, (eta, nbar) in enumerate([(0.5, 1.0), (0.9, 0.3), (0.2, 2.0)]):
            channel = ch.thermal_noise([eta], [nbar])
            report = fn.numeric_inf_fp(channel, 2.0, budget=4000, seed=seed)
            assert report.best_value >= fn.min_output_fp_closed(channel, 2.0) - 1e-9

    def test_budget_zero_rejected(self):
        with pytest.raises(ValueError):
            fn.numeric_inf_fp(identity_channel(), 2.0, budget=0)

    @pytest.mark.parametrize("p", [0.0, -1.0])
    def test_renyi_order_not_positive_rejected(self, p):
        with pytest.raises(ValueError, match="order must be positive"):
            fn.numeric_min_renyis([(identity_channel(), p)], budget=100, seed=0)

    def test_custom_channel_runs_without_closed_form(self):
        channel = ch.make_channel(0.5 * np.eye(2), np.eye(2))
        report = fn.numeric_inf_fp(channel, 2.0, budget=2000, seed=3)
        assert report.gap_to_closed_form is None
        assert np.isfinite(report.best_value)

    def test_gap_is_finite_where_fp_overflows(self):
        search = fn.numeric_inf_fp(ch.thermal_noise([0.5] * 3, [1.0] * 3), 400.0, budget=300)
        assert np.isinf(search.best_value)
        assert np.isfinite(search.gap_to_closed_form)
        assert abs(search.gap_to_closed_form) <= 1e-6

    def test_a_closed_form_that_fails_keeps_the_search(self):
        # The noise spectrum of this classical leaf raises, so its closed form does too; the
        # finished searches keep their results, with no gap.
        channel = ch.classical_noise(ILL_CONDITIONED_NOISE["numerically singular"])
        with pytest.raises(sp.NotPositiveDefiniteError):
            fn.min_output_renyi_closed(channel, 1.0)
        (search,) = fn.numeric_min_renyis([(channel, 1.0)], 200, 0)
        assert np.isfinite(search.best_value) and search.evaluations == 200
        assert search.gap_to_closed_form is None
        report = fn.numeric_inf_fp(channel, 2.0, budget=200, seed=0)
        assert np.isfinite(report.best_value) and report.gap_to_closed_form is None


def energy_map_loop(gamma, omega, energy):
    """Reference: one row at a time, its energy summed mode by mode; a row below
    the energy scales up, a row above it mixes with the vacuum."""
    n, zero_point, out = len(omega), 0.5 * float(np.sum(omega)), []
    for g in gamma:
        e = sum(0.25 * omega[k] * (g[2 * k, 2 * k] + g[2 * k + 1, 2 * k + 1]) for k in range(n))
        if e <= energy:
            out.append(energy / e * g)
        else:
            out.append(np.eye(2 * n) + (energy - zero_point) / (e - zero_point) * (g - np.eye(2 * n)))
    return np.array(out)


def same_bits(a, b) -> bool:
    """Equal shapes, values and signs of zero; complex arrays compare their
    real and imaginary parts."""
    a, b = (np.asarray(x).view(float) if np.iscomplexobj(x) else np.asarray(x) for x in (a, b))
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def signed_zero_stack(seed, dim, rows=12):
    """Random rows, rows with +0.0 and -0.0 entries among random ones, and the
    zero vector (the origin start of every search)."""
    rng = sp.rng_stream(seed, dim)
    random = rng.normal(scale=2.0, size=(rows, dim))
    zeros = rng.normal(scale=0.5, size=(rows, dim))
    mask = rng.random((rows, dim)) < 0.4
    zeros[mask] = np.where(rng.random(mask.sum()) < 0.5, 0.0, -0.0)
    return np.concatenate([random, zeros, np.zeros((1, dim))])


def cayley_reference(t0, v, n):
    """Reference: per row, H filled entry by entry from its upper triangle, then
    A^-1 = (I - JH/2)^-1 and T = T0 (2 A^-1 - I)."""
    j, eye, a_invs, ts = sp.symplectic_form(n), np.eye(2 * n), [], []
    for t0_row, v_row in zip(t0, v):
        h, k = np.zeros((2 * n, 2 * n)), 0
        for r in range(2 * n):
            for c in range(r, 2 * n):
                h[r, c] = h[c, r] = v_row[k]
                k += 1
        a_invs.append(np.linalg.inv(eye - 0.5 * (j @ h)))
        ts.append(t0_row @ (2.0 * a_invs[-1] - eye))
    return np.array(a_invs), np.array(ts)


def sup_stack(seed, n, rows, nu=2.0, scale=0.3):
    """``rows`` rows (t0, v) of an n-mode sup-entropy search: the centres of
    ``_sup_starts`` at the thermal input nu I in turn, and Philox parameters on
    their 2n-mode chart."""
    starts = fn._sup_starts(n, nu, seed)
    t0 = np.array([starts[i % len(starts)] for i in range(rows)])
    return t0, sp.rng_stream(seed, n).normal(scale=scale, size=(rows, 2 * n * (4 * n + 1)))


def marginals(t0, v, n):
    """The physical inputs of sup-entropy chart rows: T_A T_A^T, T_A the first 2n rows of T."""
    t_a = fn._cayley(t0, v)[1][:, : 2 * n]
    return t_a @ np.swapaxes(t_a, -1, -2)


def energies(gamma, omega):
    """The energy tr(W gamma)/4 of each row, W = diag(omega, doubled)."""
    return 0.25 * np.einsum("k,mkk->m", np.repeat(omega, 2), gamma)


def assert_physical(gamma):
    """Every row a covariance with symplectic eigenvalues >= 1 - TOL_PHYS."""
    nu = np.array([sp.symplectic_eigenvalues(0.5 * (g + g.T)) for g in gamma])
    assert nu.min() >= 1.0 - st.TOL_PHYS


class TestKernelBits:
    """Each search kernel gives the bits of its reference, signed zeros
    included, and every row of a stack the bits of that row alone."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pure_cov(self, n):
        # The chart of the pure-input search, T = T0 C(H) with gamma = T T^T: the bits of the
        # entry-by-entry reference, and every row of a stack the bits of that row alone.
        v = 0.25 * signed_zero_stack(22, n * (2 * n + 1))
        t0 = sp.sample_symplectics(sp.rng_stream(22, n), n, len(v), (1.0, 2.0))
        a_inv, t = fn._cayley(t0, v)
        reference = cayley_reference(t0, v, n)
        assert same_bits(a_inv, reference[0]) and same_bits(t, reference[1])
        for i in range(len(v)):
            row = fn._cayley(t0[i : i + 1], v[i : i + 1])
            assert same_bits(row[0][0], a_inv[i]) and same_bits(row[1][0], t[i])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_phys_cov_factors(self, n):
        # The factor of a physical input of the sup-entropy search: T_A, the first 2n rows of the
        # chart T = T0 C(H) on 2n modes, centred where its runs start.  The bits of the entry-by-entry
        # reference, every row the bits of that row alone, and every T_A T_A^T physical.
        v = 0.25 * signed_zero_stack(23, 2 * n * (4 * n + 1))
        t0 = sup_stack(23, n, len(v))[0]
        t = fn._cayley(t0, v)[1]
        assert same_bits(t, cayley_reference(t0, v, 2 * n)[1])
        assert all(same_bits(fn._cayley(t0[i : i + 1], v[i : i + 1])[1][0], t[i]) for i in range(len(v)))
        assert_physical(marginals(t0, v, n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("energy", ["zero-point", "some-fit", "all-fit"])
    def test_project_to_energy(self, n, energy):
        # The energy map of the sup-entropy search puts every row at the energy exactly and keeps it
        # physical: rows below the energy scale up (they fit), rows above it mix with the vacuum, and
        # at the zero point every row is the vacuum.  Every row gets the bits it gets alone.
        omega = np.linspace(1.0, 1.5, n)
        w, gamma = np.repeat(omega, 2), marginals(*sup_stack(24, n, 25), n)
        zero_point = 0.5 * float(np.sum(omega))
        target = {"zero-point": zero_point, "some-fit": float(np.median(energies(gamma, omega))),
                  "all-fit": zero_point + 1e3}[energy]
        p, alpha, _, _ = fn._energy_map(gamma, w, target)
        assert energies(p, omega) == pytest.approx(np.full(len(p), target), rel=1e-12)
        assert_physical(p)
        fits = alpha[:, 0, 0] >= 1.0
        if energy == "zero-point":
            assert np.array_equal(p, np.broadcast_to(np.eye(2 * n), p.shape))
        else:
            assert fits.all() if energy == "all-fit" else 0 < np.sum(fits) < len(p)
        assert all(same_bits(fn._energy_map(gamma[i : i + 1], w, target)[0][0], p[i]) for i in range(len(p)))


class TestParameterizations:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_energy_projection_matches_loop_reference(self, n):
        omega = sp.rng_stream(6, n).uniform(0.5, 2.0, n)
        gamma = marginals(*sup_stack(6, n, 20), n)
        energy = float(np.median(energies(gamma, omega)))  # half the rows on each branch
        p = fn._energy_map(gamma, np.repeat(omega, 2), energy)[0]
        assert_allclose(p, energy_map_loop(gamma, omega, energy), rtol=1e-12, atol=1e-12)
        assert energies(p, omega) == pytest.approx(np.full(len(p), energy), rel=1e-12)

    def test_energy_projection_rows_match_their_batch_of_one(self):
        n, omega = 2, np.array([1.0, 1.5])
        gamma = marginals(*sup_stack(8, n, 40, scale=0.8), n)
        energy = float(np.median(energies(gamma, omega)))
        w = np.repeat(omega, 2)
        batch, alpha, _, _ = fn._energy_map(gamma, w, energy)
        assert 0 < np.sum(alpha >= 1.0) < len(gamma)  # both branches
        alone = [fn._energy_map(gamma[i : i + 1], w, energy)[0][0] for i in range(len(gamma))]
        assert np.array_equal(batch, np.array(alone))


def custom_channel():
    """The fixed 2-mode phase-sensitive channel of the benchmark: a beam
    splitter after unequal quadrature gains, with anisotropic noise."""
    def rot(i, j):
        out = np.eye(4)
        out[i, i] = out[j, j] = np.cos(0.4)
        out[i, j], out[j, i] = np.sin(0.4), -np.sin(0.4)
        return out

    return ch.make_channel(rot(2, 0) @ rot(3, 1) @ np.diag([0.9, 0.6, 0.7, 0.8]), np.diag([0.5, 0.8, 0.9, 0.4]))


def additivity_pair():
    """The tensor product of ``verify additivity``: classical(2 I) x classical(I)."""
    return ch.tensor([ch.classical_noise(np.diag([2.0, 2.0])), ch.classical_noise(np.diag([1.0, 1.0]))])


def sup_group(channel, energy):
    """The one group of a sup-entropy search of ``channel`` at ``energy``, unit frequencies, as
    ``_chart_scores`` reads it."""
    w = np.ones(2 * channel.n)
    return [([0], fn._sup_values, (channel.x[None], channel.y[None], w[None], np.array([energy])))]


def finish(run, objective):
    """Drive a ``_bfgs`` or ``_chart_run`` generator on ``objective`` to its end, and return its result."""
    try:
        point = next(run)
        while True:
            point = run.send(objective(point))
    except StopIteration as stop:
        return stop.value


class TestLockstep:
    """Searches run together in one ``_lockstep_bfgs`` return, each, what
    they return alone."""

    def test_the_builtin_pairs_together(self):
        # n = 2 and n = 3 joints at four orders, in one round per step.
        jobs = [(ch.tensor(pair), p) for _, p, pair in _builtin_channel_pairs()]
        together = fn.numeric_min_renyis(jobs, 2000, 5)
        for (joint, p), report in zip(jobs, together):
            (alone,) = fn.numeric_min_renyis([(joint, p)], 2000, 5)
            assert report.best_value == alone.best_value and np.array_equal(report.best_input, alone.best_input)
            assert (report.evaluations, report.converged) == (alone.evaluations, alone.converged)
            assert report.gap_to_closed_form == alone.gap_to_closed_form

    def test_mixed_dims_and_budgets(self):
        # Pure-input searches on 1, 2 and 3 modes and a sup-entropy search on a 4-mode chart, with
        # a budget below one row per run (3 < STARTS runs), in one lockstep: each returns what it
        # returns alone, and one call per round scores the rows of every search.
        jobs = [(ch.lossy([0.6]), 2.0), (ch.thermal_noise([0.5, 0.8], [1.0, 0.3]), 1.0),
                (ch.lossy([0.3, 0.6, 0.9]), 2.0)]
        sup = custom_channel()
        groups = [*fn._chart_groups(jobs), ([3], *sup_group(sup, 2.5)[0][1:])]
        searches = [(fn._chart_starts(channel.n, fn.STARTS, 11), budget)
                    for (channel, _), budget in zip(jobs, (3, 150, 40))]
        searches.append((fn._sup_starts(2, 2.5, 11), 60))

        def counted(groups, calls):
            return lambda stacks: calls.append(None) or fn._chart_scores(groups, stacks)

        calls, rounds_alone = [], []
        together = fn._lockstep_bfgs(counted(groups, calls), searches)
        alone_groups = [fn._chart_groups([job]) for job in jobs] + [sup_group(sup, 2.5)]
        for search, search_groups, result in zip(searches, alone_groups, together):
            rounds_alone.append([])
            (alone,) = fn._lockstep_bfgs(counted(search_groups, rounds_alone[-1]), [search])
            assert result[0] == alone[0] and all(np.array_equal(a, b) for a, b in zip(result[1], alone[1]))
            assert result[2:] == alone[2:]
        assert together[0][2] == 3
        assert len(calls) == max(map(len, rounds_alone))


def chart_stack(seed, n, rows, scale=0.3):
    """``rows`` chart rows (t0, v) of an n-mode search: Philox symplectic centres and parameters."""
    rng = sp.rng_stream(seed, n)
    return sp.sample_symplectics(rng, n, rows, (1.0, 2.0)), rng.normal(scale=scale, size=(rows, n * (2 * n + 1)))


class TestScores:
    """The objective of the pure-input search, ``_chart_scores``: one
    ``_chart_values`` call per mode-count group, on per-row stacks of X, Y
    and p with the order-1 rows first, where each search's rows get what
    they get alone, and a failing row scores +inf alone."""

    N = 2

    def cov_of(self, t0, v):
        """A row whose chart gives a NaN covariance: its output factorization fails."""
        v[..., 0] = np.nan

    def cov_or_raise(self, t0, v):
        """A row whose chart has a singular I - JH/2 (H = diag(2, -2) on mode 1): the inverse raises."""
        v[...] = 0.0
        layout = fn._chart_layout(len(t0) // 2)[0].reshape(len(t0), len(t0))
        v[..., layout[0, 0]], v[..., layout[1, 1]] = 2.0, -2.0

    @pytest.mark.parametrize("cov_name", ["cov_of", "cov_or_raise"])
    def test_a_failing_row_scores_inf_alone(self, cov_name):
        jobs = [(identity_channel(self.N), 2.0)]
        groups = fn._chart_groups(jobs)
        t0, v = chart_stack(7, self.N, 5)

        def scores(t0, v):
            ((values, grads),) = fn._chart_scores(groups, [(t0, v)])
            return values, grads

        alone = [scores(t0[i : i + 1], v[i : i + 1]) for i in range(5)]
        assert all(np.all(np.isfinite(values)) and np.all(np.isfinite(grads)) for values, grads in alone)
        values, grads = scores(t0, v)
        assert same_bits(values, np.concatenate([a for a, _ in alone]))
        assert same_bits(grads, np.concatenate([g for _, g in alone]))
        getattr(self, cov_name)(t0[2], v[2])
        marked, marked_grads = scores(t0, v)
        assert marked[2] == np.inf
        assert same_bits(np.delete(marked, 2), np.delete(values, 2))
        assert same_bits(np.delete(marked_grads, 2, axis=0), np.delete(grads, 2, axis=0))

    @pytest.mark.parametrize("row", [2, 6, 10], ids=["first-2-mode", "second-2-mode", "3-mode"])
    @pytest.mark.parametrize("cov_name", ["cov_of", "cov_or_raise"])
    def test_a_failing_row_in_a_lockstep_round_scores_inf_alone(self, cov_name, row):
        # Two 2-mode searches share one group call; the 3-mode search has its own.
        jobs = [(identity_channel(2), 2.0), (ch.classical_noise(np.diag([0.3, 0.3, 0.2, 0.2])), 3.0),
                (identity_channel(3), 1.0)]
        groups = fn._chart_groups(jobs)
        stacks = [chart_stack(7, 2, 5), chart_stack(8, 2, 4), chart_stack(9, 3, 3)]
        alone = [fn._chart_scores(fn._chart_groups([job]), [(t0[i : i + 1], v[i : i + 1])])[0]
                 for job, (t0, v) in zip(jobs, stacks) for i in range(len(v))]
        assert all(np.isfinite(values[0]) for values, _ in alone)
        together = fn._chart_scores(groups, stacks)
        assert same_bits(np.concatenate([values for values, _ in together]), np.concatenate([a for a, _ in alone]))
        search, i = (0, row) if row < 5 else (1, row - 5) if row < 9 else (2, row - 9)
        getattr(self, cov_name)(stacks[search][0][i], stacks[search][1][i])
        marked = np.concatenate([values for values, _ in fn._chart_scores(groups, stacks)])
        assert marked[row] == np.inf
        assert same_bits(np.delete(marked, row), np.delete(np.concatenate([a for a, _ in alone]), row))

    def test_a_mixed_round_scores_each_search_as_alone(self):
        # A 2-mode group with every kind of row: orders 1, 1.5, 2, 3 and inf, two searches on one
        # channel, order 1 above nu = 1e4 (the large branch of ``_renyi``) and order 1 + 1e-12 at nu
        # near 1e306, where (1 - p) ln(1 + 1/d) is subnormal (its tiny branch); a 1-mode group whose
        # searches share one channel; and a 3-mode group of one order on two channels.  Each group
        # is one call on per-row stacks of X and Y, and each search gets the bits of its rows alone.
        shared, thermal, loss = custom_channel(), ch.thermal_noise([0.5, 0.8], [1.0, 0.3]), ch.lossy([0.6])
        jobs = [
            (shared, 1.5), (identity_channel(2), 1.0), (shared, 2.0), (thermal, 3.0), (loss, 2.0),
            (thermal, math.inf), (ch.classical_noise(3e4 * np.eye(4)), 1.0),
            (ch.classical_noise(1e306 * np.eye(4)), 1.0 + 1e-12), (loss, 1.0),
            (ch.lossy([0.3, 0.6, 0.9]), 2.0), (ch.thermal_noise([0.4, 0.5, 0.6], 1.5), 2.0),
        ]
        stacks = [chart_stack(8 + j, channel.n, 3) for j, (channel, _) in enumerate(jobs)]
        groups = fn._chart_groups(jobs)
        assert [len(members) for members, *_ in groups] == [7, 2, 2]
        for members, _, (_, _, ps) in groups:  # the order-1 searches first
            assert list(ps) == sorted(ps, key=lambda p: p != 1.0)

        def per_search(channel, p, t0, v):
            # The route of one channel action and one score per search.
            t = fn._cayley(t0, v)[1]
            nu = np.maximum(sp._frames(ch.apply_cov(channel, t @ np.swapaxes(t, -1, -2)))[0], 1.0)
            return nu, st._renyi(nu, p)

        large = per_search(*jobs[6], *stacks[6])[0]
        tiny = per_search(*jobs[7], *stacks[7])[0]
        assert large.min() > 1e4
        assert np.all(np.abs(-1e-12 * np.log1p(2.0 / (tiny - 1.0))) < np.finfo(float).tiny)
        alone = [fn._chart_scores(fn._chart_groups([job]), [stack])[0] for job, stack in zip(jobs, stacks)]
        for job, stack, (values, _) in zip(jobs, stacks, alone):
            assert same_bits(values, per_search(*job, *stack)[1])
        together = fn._chart_scores(groups, stacks)
        for (values, grads), (values_alone, grads_alone) in zip(together, alone):
            assert same_bits(values, values_alone) and same_bits(grads, grads_alone)

    def test_a_row_without_a_finite_gradient_scores_inf(self, monkeypatch):
        # A finite value with a non-finite gradient never reaches the search.
        rows = fn._chart_rows

        def nan_gradient(*args):
            values, grads = rows(*args)
            grads[1, 0] = np.nan
            return values, grads

        monkeypatch.setattr(fn, "_chart_rows", nan_gradient)
        ((values, _),) = fn._chart_scores(fn._chart_groups([(custom_channel(), 2.0)]), [chart_stack(3, 2, 3)])
        assert np.isfinite(values[[0, 2]]).all() and values[1] == np.inf

    def test_x_and_y_are_per_row_stacks(self, monkeypatch):
        # One channel action per group, on X and Y stacked row by row from the group's searches.
        jobs = [(custom_channel(), 2.0), (ch.thermal_noise([0.5, 0.8], [1.0, 0.3]), 2.0)]
        actions, act = [], ch._act
        monkeypatch.setattr(ch, "_act", lambda x, y, gamma: actions.append((x, y)) or act(x, y, gamma))
        fn._chart_scores(fn._chart_groups(jobs), [chart_stack(3, 2, 2), chart_stack(4, 2, 3)])
        ((x, y),) = actions
        assert same_bits(x, np.array([jobs[0][0].x] * 2 + [jobs[1][0].x] * 3))
        assert same_bits(y, np.array([jobs[0][0].y] * 2 + [jobs[1][0].y] * 3))


def conformal_channel(n, c2, seed):
    """A channel X = c S, S symplectic, with noise Y above the CP threshold, and its optimal output
    spectrum c^2 + nu(S^-T Y S^-1), the closed form of Theorem 1 for this class."""
    rng = sp.rng_stream(seed, n)
    s = sp.sample_symplectics(rng, n, 1, (1.0, 2.0))[0]
    frame = sp.sample_symplectics(rng, n, 1, (1.0, 2.0))[0]
    y = frame @ np.diag(np.repeat(rng.uniform(abs(1.0 - c2) + 0.2, abs(1.0 - c2) + 2.0, n), 2)) @ frame.T
    y = 0.5 * (y + y.T)
    s_inv = sp.symplectic_inverse(s)
    y_c = s_inv.T @ y @ s_inv
    return ch.make_channel(math.sqrt(c2) * s, y), c2 + sp.symplectic_eigenvalues(0.5 * (y_c + y_c.T))


class TestChart:
    """The Cayley chart, the analytic gradient and the numpy BFGS of the pure-input search."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cayley_is_symplectic(self, n):
        v = sp.rng_stream(11, n).normal(scale=0.5, size=(50, n * (2 * n + 1)))
        c = fn._cayley(np.broadcast_to(np.eye(2 * n), (50, 2 * n, 2 * n)), v)[1]
        j = sp.symplectic_form(n)
        assert np.max(np.abs(c @ j @ np.swapaxes(c, -1, -2) - j)) <= 1e-13

    @staticmethod
    def gradient_cases():
        """(channel, p, t0, v, label) at n = 1..4, p = 1, 2, 7 and inf: a random point of a chart on
        a mode-coupled classical channel, and a point with a repeated output spectrum."""
        for n in range(1, 5):
            rng = sp.rng_stream(12, n)
            classical = ch.classical_noise(sp.sample_spd(rng, n, 1, (0.3, 2.0))[0][0])
            t0, v = sp.sample_symplectics(rng, n, 1, (1.0, 2.0)), rng.normal(scale=0.3, size=(1, n * (2 * n + 1)))
            # Thermal noise of equal modes is covariant under passive K: the input K Z^2 K^T with one
            # squeezing z in every mode leaves with every nu equal, where the gradient is not 0.
            thermal = ch.thermal_noise([0.6] * n, [0.8] * n)
            passive = sp.unitary_to_orthosymplectic(sp.random_unitary(n, seed=n))
            squeezed = (passive * np.tile([1.3, 1.0 / 1.3], n))[None]
            for p in (1.0, 2.0, 7.0, math.inf):
                yield classical, p, t0, v, f"{n}-mode classical, p = {p}"
                yield thermal, p, squeezed, np.zeros((1, n * (2 * n + 1))), f"{n}-mode repeated nu, p = {p}"

    def test_gradient_matches_central_differences(self):
        for channel, p, t0, v, label in self.gradient_cases():
            x, y, order = channel.x[None], channel.y[None], np.array([p])
            _, grad = fn._chart_values(x, y, order, t0, v)
            t = fn._cayley(t0, v)[1][0]
            nu = sp._frames(ch.apply_cov(channel, t @ t.T))[0]
            if "repeated" in label:
                assert np.ptp(nu) <= 1e-12 * nu[0], label
            eps, m = 1e-6, v.shape[1]
            rows = x.repeat(m, 0), y.repeat(m, 0), order.repeat(m), t0.repeat(m, 0)
            up, down = (fn._chart_values(*rows, v + step)[0] for step in (eps * np.eye(m), -eps * np.eye(m)))
            central = (up - down) / (2.0 * eps)
            assert np.max(np.abs(central - grad[0])) <= 1e-7 * max(1.0, np.max(np.abs(grad))), label
            assert np.max(np.abs(grad)) > 1e-3, label

    def test_a_pure_mode_at_order_one_is_a_face(self):
        # At p <= 1 the slope of a pure mode is infinite: the mode is a face, with slope 0, not a clamp.
        slopes = fn._renyi_slope(np.array([[1.0, 2.0]]), 1.0)
        assert slopes[0, 0] == 0.0 and slopes[0, 1] == pytest.approx(math.atanh(0.5), rel=1e-15)
        assert fn._renyi_slope(np.array([[1.0, 2.0]]), np.array([[0.5]]))[0, 0] == 0.0
        # At p > 1 it is finite: p / (2 (p - 1)), and 1/2 at p = inf.
        assert fn._renyi_slope(np.array([[1.0]]), np.array([[2.0], [3.0], [math.inf]]))[:, 0] == pytest.approx(
            [1.0, 0.75, 0.5], rel=1e-15)
        # A lossy channel at the vacuum: a pure output, value 0 and gradient 0.
        loss = ch.lossy([0.5, 0.8])
        value, grad = fn._chart_values(loss.x[None], loss.y[None], np.array([1.0]), np.eye(4)[None], np.zeros((1, 10)))
        assert value[0] == 0.0 and np.all(grad == 0.0)

    @pytest.mark.parametrize("p, pair", [(p, pair) for _, p, pair in _builtin_channel_pairs()],
                             ids=[label for label, _, _ in _builtin_channel_pairs()])
    def test_bfgs_matches_scipy(self, p, pair, monkeypatch):
        # ``_bfgs`` without its chart radius is plain BFGS: from every start of the search, in the
        # chart at that start, it reaches the value of scipy's BFGS on the same objective.
        monkeypatch.setattr(fn, "_CHART_RADIUS", math.inf)
        joint = ch.tensor(pair)
        n, x, y, order = joint.n, joint.x[None], joint.y[None], np.array([p])
        for t0 in fn._chart_starts(n, fn.STARTS, 5):
            def objective(v):
                values, grads = fn._chart_scores(fn._chart_groups([(joint, p)]), [(t0[None], v[None])])[0]
                return float(values[0]), grads[0]

            _, value, _, _, reason = finish(fn._bfgs(*objective(np.zeros(n * (2 * n + 1))), 10**6), objective)
            assert reason in ("gradient", "stall")
            with np.errstate(all="ignore"):
                reference = minimize(objective, np.zeros(n * (2 * n + 1)), jac=True, method="BFGS",
                                     options={"gtol": 1e-10, "maxiter": 10**4})
            assert abs(value - reference.fun) <= 1e-12 * max(1.0, abs(reference.fun))
            assert value <= fn._chart_values(x, y, order, t0[None], np.zeros((1, n * (2 * n + 1))))[0][0]

    def test_negative_curvature_doubles_the_steepest_step(self):
        # On a flat, concave stretch no step finds positive curvature, so every step is steepest
        # descent, and each doubles the next: the run leaves the chart in about ten trials, where
        # steps of the gradient's length would take a thousand.
        def objective(v):
            return float(-1e-3 * v[0] - 1e-4 * v[0] ** 2), np.array([-1e-3 - 2e-4 * v[0], 0.0])

        x, _, _, evals, reason = finish(fn._bfgs(*objective(np.zeros(2)), 10**4), objective)
        assert reason == "radius" and x[0] > fn._CHART_RADIUS and evals <= 12


class TestSupObjective:
    """The starts and the objective of the sup-entropy search, ``_sup_values``:
    minus the output entropy at the energy-mapped marginal of each chart row,
    with its analytic gradient."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_starts_purify_the_thermal_input(self, n):
        # Every start is symplectic on 2n modes; the first has the marginal nu I, and start r the
        # marginal S_r nu I S_r^T, S_r the r-th symplectic of ``_chart_starts``.
        nu, j = 1.7, sp.symplectic_form(2 * n)
        starts = fn._sup_starts(n, nu, 9)
        assert len(starts) == fn.STARTS
        for t0, s in zip(starts, fn._chart_starts(n, fn.STARTS, 9)):
            assert np.max(np.abs(t0 @ j @ t0.T - j)) <= 1e-13
            assert_allclose(marginals(t0[None], np.zeros((1, 2 * n * (4 * n + 1))), n)[0], nu * s @ s.T,
                            rtol=1e-13, atol=1e-13)

    @staticmethod
    def channel(n):
        """A mode-coupled classical channel behind a symplectic: X = S, noise from ``sample_spd``."""
        rng = sp.rng_stream(41, n)
        x = sp.sample_symplectics(rng, n, 1, (1.0, 1.5))[0]
        return ch.make_channel(x, sp.sample_spd(rng, n, 1, (0.3, 2.0))[0][0])

    @staticmethod
    def rows(channel, energy, t0, v, omega):
        """``_sup_values`` of chart rows of ``channel`` at ``energy``, with per-row stacks of X, Y, w and energy."""
        m, w = len(v), np.repeat(omega, 2)
        stacked = (np.repeat(a[None], m, axis=0) for a in (channel.x, channel.y, w))
        return fn._sup_values(*stacked, np.full(m, energy), t0, v)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_values_are_the_entropy_at_the_exact_energy(self, n):
        # Each row scores minus the output entropy of an input at the energy exactly, and physical,
        # on both branches of the energy map; each row gets the bits, value and gradient, it gets alone.
        channel, omega = self.channel(n), np.linspace(1.0, 2.0, n)
        t0, v = sup_stack(42, n, 16)
        gamma = marginals(t0, v, n)
        energy = float(np.median(energies(gamma, omega)))
        values, grads = self.rows(channel, energy, t0, v, omega)
        p, alpha, _, _ = fn._energy_map(gamma, np.repeat(omega, 2), energy)
        assert 0 < np.sum(alpha >= 1.0) < len(v)
        assert energies(p, omega) == pytest.approx(np.full(len(v), energy), rel=1e-12)
        assert_physical(p)
        entropies = [st.von_neumann_entropy(sp.symplectic_eigenvalues(ch.apply_cov(channel, 0.5 * (q + q.T))))
                     for q in p]
        assert values == pytest.approx(-np.array(entropies), rel=1e-12)
        for i in range(len(v)):
            value, grad = self.rows(channel, energy, t0[i : i + 1], v[i : i + 1], omega)
            assert same_bits(value[0], values[i]) and same_bits(grad[0], grads[i])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gradient_matches_central_differences(self, n):
        # On both branches of the energy map, at random points of the chart.
        channel, omega = self.channel(n), np.linspace(1.0, 2.0, n)
        t0, v = sup_stack(43, n, 6)
        gamma = marginals(t0, v, n)
        energy = float(np.median(energies(gamma, omega)))
        _, grads = self.rows(channel, energy, t0, v, omega)
        assert 0 < np.sum(fn._energy_map(gamma, np.repeat(omega, 2), energy)[1] >= 1.0) < len(v)
        eps, dim = 1e-6, v.shape[1]
        for i in range(len(v)):
            steps = eps * np.eye(dim)
            up = self.rows(channel, energy, t0[[i] * dim], v[i] + steps, omega)[0]
            down = self.rows(channel, energy, t0[[i] * dim], v[i] - steps, omega)[0]
            central = (up - down) / (2.0 * eps)
            assert np.max(np.abs(central - grads[i])) <= 1e-7 * max(1.0, np.max(np.abs(grads[i])))
            assert np.max(np.abs(grads[i])) > 1e-3

    @pytest.mark.parametrize("channel, total", [(custom_channel(), 2.5), (additivity_pair(), 3.0)],
                             ids=["custom", "additivity-pair"])
    def test_bfgs_matches_scipy_on_the_sup_objective(self, channel, total, monkeypatch):
        # ``_bfgs`` without its chart radius is plain BFGS: from every start of the sup-entropy search,
        # in the chart at that start, it reaches the value of scipy's BFGS on the same objective.
        monkeypatch.setattr(fn, "_CHART_RADIUS", math.inf)
        n, group = channel.n, sup_group(channel, total)
        origin = np.zeros(2 * n * (4 * n + 1))
        for t0 in fn._sup_starts(n, total / (0.5 * n), 3):
            def objective(v):
                values, grads = fn._chart_scores(group, [(t0[None], v[None])])[0]
                return float(values[0]), grads[0]

            _, value, _, _, reason = finish(fn._bfgs(*objective(origin), 10**6), objective)
            assert reason in ("gradient", "stall")
            with np.errstate(all="ignore"):
                reference = minimize(objective, origin, jac=True, method="BFGS",
                                     options={"gtol": 1e-10, "maxiter": 10**4})
            assert abs(value - reference.fun) <= 1e-12 * max(1.0, abs(reference.fun))
            assert value <= objective(origin)[0]


class TestExactSupSearch:
    """The sup-entropy search lands on the water-filled output entropy."""

    #: The rounding of an output entropy: a few eps of its modes' terms.
    ROUNDING = 16 * np.finfo(float).eps

    PAIRS = {
        "readme-thermal": (ch.thermal_noise([0.5], [1.0]), fn.EnergyBudget(1.5, [1.0])),
        "additivity-pair": (additivity_pair(), fn.EnergyBudget(3.0, np.ones(2))),
        "thermal-x-lossy": (ch.tensor([ch.thermal_noise([0.5], [1.0]), ch.lossy([0.8])]),
                            fn.EnergyBudget(3.0, np.ones(2))),
        "lossy-x-lossy": (ch.tensor([ch.lossy([0.5]), ch.lossy([0.8])]), fn.EnergyBudget(3.0, [1.0, 3.0])),
        # Water-filling leaves the classical mode empty: the optimal input is pure on it.
        "empty-mode": (ch.tensor([ch.thermal_noise([0.7], [2.0]), ch.classical_noise(6.0 * np.eye(2)),
                                  ch.lossy([0.5])]), fn.EnergyBudget(3.5, [1.0, 2.0, 0.6])),
        "three-lossy": (ch.lossy([0.3, 0.6, 0.9]), fn.EnergyBudget(2.5, [1.0, 1.5, 0.7])),
        "classical-x-thermal": (ch.tensor([ch.classical_noise(np.eye(2)), ch.thermal_noise([0.5], [1.0])]),
                                fn.EnergyBudget(3.0, np.ones(2))),
    }

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("label", PAIRS)
    def test_reaches_the_water_filled_output(self, label, seed):
        # Within 1e-12 relative, and never above it beyond rounding: an unphysical input, or one off
        # the energy, could score above the sup without any failure in the spectrum.
        channel, budget = self.PAIRS[label]
        sup = fn._water_filled_output(channel, budget)[0]
        search = fn.max_output_entropy_under_energy(channel, budget, search_budget=2000, seed=seed)
        assert abs(search.gap_to_closed_form) <= 1e-12 * sup
        assert search.gap_to_closed_form <= self.ROUNDING * sup
        assert search.converged
        assert energies(search.best_input[None], budget.omega)[0] == pytest.approx(budget.total, rel=1e-12)
        assert_physical(search.best_input[None])

    def test_budget_one_scores_the_thermal_candidate(self):
        # One row: the purification of the isotropic thermal input at the energy, nu = E / e(I).
        channel, budget = self.PAIRS["additivity-pair"]
        search = fn.max_output_entropy_under_energy(channel, budget, search_budget=1, seed=0)
        nu = budget.total / budget.zero_point
        thermal = st.von_neumann_entropy(sp.symplectic_eigenvalues(ch.apply_cov(channel, nu * np.eye(4))))
        assert (search.evaluations, search.converged) == (1, False)
        assert search.best_value == pytest.approx(thermal, rel=1e-14)
        assert_allclose(search.best_input, nu * np.eye(4), rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("budget", [2, 3, 10, 100])
    def test_never_below_the_thermal_candidate(self, budget):
        # The first run scores the thermal candidate first, so no budget ends below it; a budget
        # below STARTS runs one row in each of its first runs.
        channel, total = custom_channel(), 2.5  # zero point 1: the thermal input is 2.5 I
        thermal = st.von_neumann_entropy(sp.symplectic_eigenvalues(ch.apply_cov(channel, total * np.eye(4))))
        search = fn.max_output_entropy_under_energy(channel, fn.EnergyBudget(total, np.ones(2)), budget, seed=4)
        assert search.best_value >= thermal
        assert search.evaluations <= budget and (budget >= fn.STARTS or search.evaluations == budget)


class TestExactSearch:
    """The pure-input search lands on the closed form, within 1e-12."""

    @pytest.mark.parametrize("n, c2", [(3, 0.6), (3, 1.3), (3, 2.0), (4, 0.8)])
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_conformally_symplectic_channels(self, n, c2, p):
        channel, nu_star = conformal_channel(n, c2, seed=int(10 * c2))
        closed = st.renyi_entropy(nu_star, p)
        (search,) = fn.numeric_min_renyis([(channel, p)], 2000, 0)
        assert abs(search.best_value - closed) <= 1e-12
        assert search.converged

    def test_a_search_whose_starts_score_inf_ends_there(self):
        # Every output overflows a double: each run scores its start and stops, far below the budget.
        (search,) = fn.numeric_min_renyis([(ch.classical_noise(1.7e308 * np.eye(2)), 1.0)], 2000, 0)
        assert search.best_value == np.inf and search.evaluations == fn.STARTS and not search.converged

    @pytest.mark.parametrize("budget", [1000, 2000])
    def test_builtin_pairs_reach_the_product(self, budget):
        pairs = _builtin_channel_pairs()
        reports = fn.multiplicativity_checks([(pair, p) for _, p, pair in pairs], budget, 0, fn.TOL_OPT_CLOSED)
        for (label, _, _), report in zip(pairs, reports):
            assert abs(report.numeric_best - report.product_of_optima) <= 1e-12 * report.product_of_optima, label
            assert report.margin >= -1e-12 * report.product_of_optima and report.passed, label


class TestEnergyBudget:
    def test_zero_point(self):
        budget = fn.EnergyBudget(2.0, [1.0, 3.0])
        assert budget.zero_point == pytest.approx(2.0)
        assert budget.feasible

    def test_infeasible(self):
        assert not fn.EnergyBudget(0.4, [1.0]).feasible

    def test_rejects_bad_omega(self):
        with pytest.raises(ValueError):
            fn.EnergyBudget(1.0, [0.0])

    @pytest.mark.parametrize("total", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_total(self, total):
        with pytest.raises(ValueError, match="energy must be a finite number"):
            fn.EnergyBudget(total, [1.0])


class TestMaxOutputEntropy:
    def test_identity_thermal_optimum(self):
        # At E = nbar + 1/2 the thermal input is optimal.
        report = fn.max_output_entropy_under_energy(
            identity_channel(), fn.EnergyBudget(1.5, [1.0]), search_budget=6000, seed=0
        )
        assert report.best_value == pytest.approx(TWO_LN_2, abs=1e-6)
        out_energy = 0.25 * np.trace(report.best_input)
        assert out_energy == pytest.approx(1.5, abs=1e-9)

    def test_boundary_budget_pins_vacuum(self):
        channel = ch.classical_noise(np.diag([2.0, 2.0]))
        report = fn.max_output_entropy_under_energy(
            channel, fn.EnergyBudget(0.5, [1.0]), search_budget=500, seed=0
        )
        assert report.best_value == pytest.approx(st.von_neumann_entropy(np.array([3.0])), abs=1e-9)

    @pytest.mark.parametrize("excess", [0.0, 1e-13, -1e-13])
    def test_zero_point_is_the_vacuum_exactly(self, excess):
        # Within 1e-12 of the zero point the vacuum is the one input.  A search there would score
        # inputs off the energy by rounding alone, which an anisotropic noise rewards at first order in
        # the squeezing (1.1e-8 above the vacuum on this 3-mode channel).
        channel = ch.classical_noise(np.kron(np.eye(3), np.diag([2.0, 0.5])) + 0.1 * np.ones((6, 6)))
        report = fn.max_output_entropy_under_energy(channel, fn.EnergyBudget(1.5 + excess, np.ones(3)), 2000, 0)
        vacuum = st.von_neumann_entropy(sp.symplectic_eigenvalues(ch.apply_cov(channel, np.eye(6))))
        assert report.best_value == pytest.approx(vacuum, rel=1e-14)
        assert np.array_equal(report.best_input, np.eye(6))
        assert (report.evaluations, report.converged) == (0, True)

    def test_infeasible_raises(self):
        with pytest.raises(fn.InfeasibleEnergyError):
            fn.max_output_entropy_under_energy(
                identity_channel(), fn.EnergyBudget(0.3, [1.0]), search_budget=100
            )

    def test_no_finite_entropy_raises(self):
        # At 1e308 every input the search scores overflows: one ValueError, no RuntimeWarning.
        channel = ch.tensor([ch.classical_noise(np.diag([2.0, 2.0])), ch.classical_noise(np.diag([1.0, 1.0]))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite output entropy"):
                fn.max_output_entropy_under_energy(channel, fn.EnergyBudget(1e308, np.ones(2)), search_budget=20)

    def test_symmetric_two_mode_channel_restarts_agree(self):
        channel = ch.classical_noise(0.8 * np.eye(4))
        budget = fn.EnergyBudget(2.4, np.ones(2))
        a = fn.max_output_entropy_under_energy(channel, budget, search_budget=8000, seed=11)
        b = fn.max_output_entropy_under_energy(channel, budget, search_budget=8000, seed=99)
        assert abs(a.best_value - b.best_value) <= 1e-4


class TestCapacity:
    def test_identity_example(self):
        cap = fn.gaussian_holevo_capacity(
            identity_channel(), fn.EnergyBudget(1.5, [1.0]), search_budget=6000, seed=0
        )
        assert cap.feasible
        assert cap.value == pytest.approx(TWO_LN_2, abs=1e-3)

    def test_infeasible_is_exactly_zero(self):
        cap = fn.gaussian_holevo_capacity(
            identity_channel(), fn.EnergyBudget(0.25, [1.0]), search_budget=100, seed=0
        )
        assert cap.value == 0.0
        assert not cap.feasible

    def test_nonnegative(self):
        cap = fn.gaussian_holevo_capacity(
            ch.thermal_noise([0.5], [1.0]), fn.EnergyBudget(1.0, [1.0]), search_budget=3000, seed=1
        )
        assert cap.value >= 0.0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_search_gap_to_water_filled_capacity(self, seed):
        # README thermal spec at E = 1.5; the search never beats the exact optimum.
        search = fn.max_output_entropy_under_energy(
            ch.thermal_noise([0.5], [1.0]), fn.EnergyBudget(1.5, [1.0]), search_budget=20000, seed=seed
        )
        gap = search.gap_to_closed_form
        assert abs(gap) <= 1e-3
        assert gap <= 1e-9

    @pytest.mark.parametrize(
        "channel",
        [
            ch.thermal_noise([0.5], [1.0]),
            ch.lossy([0.3, 0.8]),
            ch.classical_noise(np.diag([2.0, 2.0, 0.5, 0.5])),
            ch.tensor([ch.classical_noise(np.eye(2)), ch.thermal_noise([0.5], [1.0])]),
        ],
        ids=["thermal", "lossy", "isotropic-classical", "classical-x-thermal"],
    )
    def test_supported_channels_are_not_searched(self, channel, search_calls):
        budget = fn.EnergyBudget(2.5, np.ones(channel.n))
        cap = fn.gaussian_holevo_capacity(channel, budget, search_budget=20000, seed=0)
        assert search_calls == []
        assert cap.search is None
        assert cap.value == pytest.approx(cap.sup_entropy - cap.min_entropy, abs=1e-12)
        assert not {"evaluations", "budget", "converged"} & set(record_of(cap))

    def test_capacity_subtracts_the_reported_min_entropy_exactly(self):
        # The capacity is sup_entropy - min_entropy to the last bit, with the S_min that analyze
        # reports, on random products of thermal, lossy and isotropic classical leaves.  For the
        # classical ones S(1 + 2 b) of the photon map and S(1 + nu(Y)) can differ in the last bit.
        cap = fn.gaussian_holevo_capacity(ch.classical_noise(np.diag([2.0, 2.0])), fn.EnergyBudget(1.5, [1.0]))
        assert cap.value == cap.sup_entropy - cap.min_entropy
        rng = sp.rng_stream(17)
        for _ in range(60):
            leaves = []
            for kind in rng.integers(0, 3, size=rng.integers(1, 4)):
                modes = int(rng.integers(1, 3))
                if kind == 0:
                    leaves.append(ch.classical_noise(np.diag(np.repeat(rng.uniform(0.0, 5.0, modes), 2))))
                elif kind == 1:
                    leaves.append(ch.thermal_noise(rng.uniform(0.0, 1.0, modes), rng.uniform(0.0, 3.0, modes)))
                else:
                    leaves.append(ch.lossy(rng.uniform(0.0, 1.0, modes)))
            channel = ch.tensor(leaves)
            omega = rng.uniform(0.5, 2.0, channel.n)
            budget = fn.EnergyBudget(0.5 * float(np.sum(omega)) + rng.uniform(0.01, 5.0), omega)
            cap = fn.gaussian_holevo_capacity(channel, budget)
            assert cap.min_entropy == fn.min_output_renyi_closed(channel, 1.0)
            assert cap.value == cap.sup_entropy - cap.min_entropy

    def test_no_mode_takes_photons_gives_zero(self):
        # eta = 0 on every mode: the output ignores the input, so every split is optimal and C = 0.
        cap = fn.gaussian_holevo_capacity(ch.thermal_noise([0.0, 0.0], [1.0, 2.0]), fn.EnergyBudget(3.0, [1.0, 2.0]))
        assert cap.value == 0.0 and cap.search is None

    def test_other_channels_search_the_sup_entropy_once(self, search_calls):
        # A custom channel has no closed form: one search for S_min, one for the sup entropy.
        cap = fn.gaussian_holevo_capacity(
            ch.make_channel(0.5 * np.eye(2), np.eye(2)), fn.EnergyBudget(1.5, [1.0]), search_budget=200, seed=0
        )
        assert len(search_calls) == 2
        assert record_of(cap)["evaluations"] == cap.search.evaluations > 0

    def test_frequency_count_checked_before_feasibility(self):
        # Energy 1.0 lies below the zero point 1.5 of the frequencies (1, 2), one too many for one mode.
        with pytest.raises(ValueError, match="frequencies"):
            fn.gaussian_holevo_capacity(ch.thermal_noise([0.5], [1.0]), fn.EnergyBudget(1.0, [1.0, 2.0]))

    def test_no_gap_without_closed_form(self):
        cap = fn.gaussian_holevo_capacity(
            ch.make_channel(0.5 * np.eye(2), np.eye(2)), fn.EnergyBudget(1.5, [1.0]), search_budget=200, seed=0
        )
        assert cap.search.gap_to_closed_form is None


class TestMultiplicativity:
    def test_identity_pair(self):
        report = fn.multiplicativity_check(
            [identity_channel(), identity_channel()], 2.0, search_budget=4000, seed=0
        )
        assert report.passed
        assert report.product_of_optima == pytest.approx(16.0, rel=1e-9)

    def test_classical_pair_example(self):
        report = fn.multiplicativity_check(
            [ch.classical_noise(np.diag([2.0, 2.0])), ch.classical_noise(np.diag([1.0, 1.0]))],
            2.0,
            search_budget=10000,
            seed=1,
        )
        assert report.product_of_optima == pytest.approx(96.0, rel=1e-8)
        assert report.numeric_best >= 96.0 - 1e-6
        assert report.passed

    def test_thermal_pair_example(self):
        report = fn.multiplicativity_check(
            [ch.thermal_noise([0.5], [1.0]), ch.thermal_noise([0.3], [2.0])],
            2.0,
            search_budget=10000,
            seed=2,
        )
        expected = st.f_p(2.0, 2.0) * st.f_p(1.0 + 2.0 * 0.7 * 2.0, 2.0)
        assert report.product_of_optima == pytest.approx(expected, rel=1e-9)
        assert report.passed

    def test_witness_attains_product(self):
        rng = sp.rng_stream(31)
        y = sp.sample_spd(rng, 1, 1, (0.5, 2.0))[0][0]
        report = fn.multiplicativity_check(
            [ch.classical_noise(y), ch.thermal_noise([0.6], [0.8])],
            2.0,
            search_budget=6000,
            seed=3,
        )
        assert abs(report.witness_value - report.product_of_optima) <= 1e-6 * report.product_of_optima
        assert report.passed

    def test_infinite_order_is_refused_before_any_search(self, search_calls):
        # F_inf is +inf for every input, so the margin inf - inf would report a false counterexample.
        with pytest.raises(ValueError, match=r"^order must be finite, got inf$"):
            fn.multiplicativity_check([ch.thermal_noise([0.5], [1.0]), ch.lossy([0.5])], np.inf, search_budget=50)
        assert search_calls == []

    def test_needs_two_channels(self):
        with pytest.raises(ValueError):
            fn.multiplicativity_check([identity_channel()], 2.0)

    def test_overflowing_fp_compares_logs(self):
        # F_p overflows a double at p = 400 on three modes: margin and witness compare ln F_p,
        # and the record carries ln F_p twins in place of the F_p values, so it is strict JSON.
        report = fn.multiplicativity_check(
            [ch.thermal_noise([0.5], [1.0]), ch.thermal_noise([0.5, 0.5], [1.0, 1.0])], 400.0, search_budget=200
        )
        assert report.product_of_optima is None and report.numeric_best is None and report.witness_value is None
        log_product = 3.0 * (400.0 * np.log(3.0) + np.log1p(-(3.0**-400)))  # f_400(2) = 3^400 - 1 per mode
        assert report.log_product_of_optima == pytest.approx(log_product, rel=1e-14)
        assert report.log_witness_value == pytest.approx(log_product, rel=1e-14)
        assert report.log_numeric_best >= log_product - 1e-9
        assert np.isfinite(report.margin)
        assert report.passed
        record = json.loads(json.dumps(record_of(report), allow_nan=False))
        assert set(record) == {"p", "log_product_of_optima", "log_numeric_best", "log_witness_value", "margin", "pass"}

    @pytest.mark.parametrize("p, pair", [
        (300.0, [ch.thermal_noise([0.5], [1.0]), ch.thermal_noise([0.5], [1.0])]),
        (1e10, [ch.classical_noise(np.diag([2.0, 2.0])), ch.thermal_noise([0.5], [1.0])]),
    ], ids=["p300", "p1e10"])
    def test_rounding_at_large_p_passes(self, p, pair):
        # The search ends at the product up to rounding, which at large p exceeds any absolute
        # tolerance: a few eps |ln F_p| of F_p (p = 300), or of ln F_p where F_p overflows (p = 1e10).
        report = fn.multiplicativity_check(pair, p, search_budget=200)
        assert report.passed
        assert report.margin < 0.0

    @pytest.mark.parametrize("relative", [1e-6, 1e-10])
    def test_a_product_beaten_at_large_p_fails(self, relative, monkeypatch):
        # The same p = 300 pair with a search that beats the product by a relative 1e-6, or 1e-10.
        search = fn.numeric_min_renyis

        def beating(jobs, budget, seed):
            reports = search(jobs, budget, seed)
            for (joint, p), report in zip(jobs, reports):
                report.best_value = fn.min_output_renyi_closed(joint, p) + math.log1p(-relative) / (p - 1.0)
            return reports

        monkeypatch.setattr(fn, "numeric_min_renyis", beating)
        pair = [ch.thermal_noise([0.5], [1.0]), ch.thermal_noise([0.5], [1.0])]
        report = fn.multiplicativity_check(pair, 300.0, search_budget=200)
        assert report.margin == pytest.approx(-relative * report.product_of_optima, rel=1e-3)
        assert not report.passed

    def test_finite_fp_record_has_no_log_twins(self):
        report = fn.multiplicativity_check([identity_channel(), identity_channel()], 2.0, search_budget=300, seed=0)
        assert report.log_product_of_optima is None and report.log_numeric_best is None
        assert report.log_witness_value is None
        assert list(record_of(report)) == ["p", "product_of_optima", "numeric_best", "witness_value", "margin", "pass"]


class TestRenyiAdditivityOfPairs:
    """The paper's consequence at the ends of the p range: the minimal output
    entropy S_1 (additivity) and S_inf of a tensor pair are the sums over the
    factors, and a joint search over entangled inputs does not undercut them."""

    PAIRS = {label: pair for label, _, pair in _builtin_channel_pairs()}

    @pytest.mark.parametrize("p", [1.0, math.inf])
    @pytest.mark.parametrize("label", ["classical(2,2) x thermal(0.5, 1)", "thermal 2-mode x classical(1.5, 0.7)"])
    def test_joint_search_never_undercuts_the_sum(self, label, p):
        pair = self.PAIRS[label]
        joint = ch.tensor(pair)
        total = sum(fn.min_output_renyi_closed(channel, p) for channel in pair)
        assert fn.min_output_renyi_closed(joint, p) == pytest.approx(total, rel=1e-14)
        (search,) = fn.numeric_min_renyis([(joint, p)], 2000, 5)
        assert search.best_value >= total - fn.TOL_OPT_CLOSED
        assert search.gap_to_closed_form >= -fn.TOL_OPT_CLOSED


class TestAdditivity:
    def test_two_classical_channels(self):
        pair = [ch.classical_noise(np.diag([2.0, 2.0])), ch.classical_noise(np.diag([1.0, 1.0]))]
        report = fn.additivity_check(
            pair, fn.EnergyBudget(3.0, np.ones(2)), search_budget=8000, seed=0
        )
        assert report.passed, report
        assert abs(report.margin) <= 1e-3

    def test_identical_channels_symmetric_split(self):
        pair = [ch.thermal_noise([0.5], [1.0]), ch.thermal_noise([0.5], [1.0])]
        report = fn.additivity_check(
            pair, fn.EnergyBudget(2.0, np.ones(2)), search_budget=8000, seed=1
        )
        assert report.passed
        # Best split of identical channels sits at the symmetric point.
        assert report.best_split[0] == pytest.approx(report.best_split[1], abs=1e-9)

    def test_split_and_joint_capacity_share_one_min_entropy(self):
        # Both subtract the closed-form S_min of the tensor channel, the one the capacity subtracts.
        pair = [ch.classical_noise(np.diag([2.0, 2.0])), ch.classical_noise(np.diag([1.0, 1.0]))]
        joint, budget = ch.tensor(pair), fn.EnergyBudget(3.0, np.ones(2))
        smin = fn.min_output_renyi_closed(joint, 1.0)
        report = fn.additivity_check(pair, budget, search_budget=500, seed=0)
        search = fn.max_output_entropy_under_energy(joint, budget, search_budget=500, seed=0)
        assert report.joint_capacity == search.best_value - smin
        assert report.best_split_value == fn._water_filled_output(joint, budget)[0] - smin
        assert report.best_split_value == fn.gaussian_holevo_capacity(joint, budget).value

    def test_no_mode_takes_photons_splits_evenly(self):
        # Neither factor passes any input through: the surplus 1.5 goes as 0.5 photons to each mode.
        pair = [ch.thermal_noise([0.0], [1.0]), ch.thermal_noise([0.0], [2.0])]
        report = fn.additivity_check(pair, fn.EnergyBudget(3.0, [1.0, 2.0]), search_budget=200, seed=0)
        assert report.best_split_value == 0.0
        assert report.best_split == (1.0, 2.0)
        assert report.passed

    def test_needs_two_channels(self):
        with pytest.raises(ValueError, match="at least two"):
            fn.additivity_check([identity_channel()], fn.EnergyBudget(3.0, [1.0]))

    def test_infeasible_budget_raises(self):
        pair = [identity_channel(), identity_channel()]
        with pytest.raises(fn.InfeasibleEnergyError):
            fn.additivity_check(pair, fn.EnergyBudget(0.5, np.ones(2)))

    def test_one_search(self, search_calls):
        # The best split is exact, so the joint capacity search is the only one.
        pair = [ch.classical_noise(np.diag([2.0, 2.0])), ch.classical_noise(np.diag([1.0, 1.0]))]
        report = fn.additivity_check(pair, fn.EnergyBudget(3.0, np.ones(2)), search_budget=2000, seed=0)
        assert report.passed
        assert len(search_calls) == 1

    @pytest.mark.parametrize("factor", WITHOUT_PHOTON_MAP.values(), ids=WITHOUT_PHOTON_MAP.keys())
    def test_unsupported_factor_raises(self, factor):
        pair = [ch.thermal_noise([0.5], [1.0]), factor]
        budget = fn.EnergyBudget(4.0, np.ones(1 + factor.n))
        with pytest.raises(fn.UnsupportedKindError):
            fn.additivity_check(pair, budget, search_budget=100)


def holevo_werner_g(x):
    """g(x) = (x + 1) ln(x + 1) - x ln x, with g(0) = 0."""
    x = np.asarray(x, dtype=float)
    return (x + 1.0) * np.log(x + 1.0) - x * np.log(np.where(x > 0.0, x, 1.0))


class TestWaterFilling:
    @pytest.mark.parametrize(
        "eta, nbar, energy, omega", [(0.5, 1.0, 1.5, 1.0), (0.3, 2.0, 4.0, 1.0), (0.9, 0.2, 2.0, 1.7)]
    )
    def test_single_mode_is_holevo_werner(self, eta, nbar, energy, omega):
        channel = ch.tensor([ch.thermal_noise([eta], [nbar])])
        sup, photons = fn._water_filled_output(channel, fn.EnergyBudget(energy, [omega]))
        value = sup - fn.min_output_renyi_closed(channel, 1.0)
        n_in = (energy - 0.5 * omega) / omega
        expected = holevo_werner_g(eta * n_in + (1.0 - eta) * nbar) - holevo_werner_g((1.0 - eta) * nbar)
        assert value == pytest.approx(expected, abs=1e-12)
        assert photons[0] == pytest.approx(n_in, abs=1e-12)

    @pytest.mark.parametrize(
        "y, omega, energy, inactive",
        [(1.5, (1.0, 1.7, 0.6), 4.0, None), (6.0, (1.0, 2.0, 0.6), 3.5, 1)],
        ids=["all modes filled", "noisy mode left empty"],
    )
    def test_exact_split_tops_dense_grid(self, y, omega, energy, inactive):
        # thermal(0.7, 2) x classical(y I) x lossy(0.5): output photons a N + b.
        channels = [ch.thermal_noise([0.7], [2.0]), ch.classical_noise(y * np.eye(2)), ch.lossy([0.5])]
        a = np.array([0.7, 1.0, 0.5])
        b = np.array([0.3 * 2.0, 0.5 * y, 0.0])
        omega = np.array(omega)
        sup, photons = fn._water_filled_output(ch.tensor(channels), fn.EnergyBudget(energy, omega))
        value = sup - fn.min_output_renyi_closed(ch.tensor(channels), 1.0)
        surplus = energy - 0.5 * np.sum(omega)
        assert float(omega @ photons) == pytest.approx(surplus, abs=1e-12)
        if inactive is not None:
            assert photons[inactive] == 0.0
            assert np.all(np.delete(photons, inactive) > 0.0)

        grid = 300
        step = surplus / grid
        e1, e2 = np.meshgrid(np.arange(grid + 1) * step, np.arange(grid + 1) * step, indexing="ij")
        e3 = surplus - e1 - e2
        keep = e3 >= -1e-12
        n_grid = np.stack([e1[keep] / omega[0], e2[keep] / omega[1], np.maximum(e3[keep], 0.0) / omega[2]])
        grid_values = np.sum(
            holevo_werner_g(a[:, None] * n_grid + b[:, None]) - holevo_werner_g(b)[:, None], axis=0
        )
        assert value >= float(np.max(grid_values)) - 1e-12
        # The grid has a point within one step of the optimum in every
        # coordinate, where the value is flat to first order.
        assert value - float(np.max(grid_values)) <= step**2

    @pytest.mark.parametrize(
        "channel, energy, photons",
        [
            (ch.thermal_noise([0.5], [1.0]), 0.5 + 1e-9, [1e-9]),
            (ch.lossy([0.5, 0.5]), 1.0 + 1e6, [5e5, 5e5]),
            # The identity channel holds N = 1 / expm1(lam), so lam = 1.
            (ch.classical_noise(np.zeros((2, 2))), 0.5 + 1.0 / math.expm1(1.0), [1.0 / math.expm1(1.0)]),
        ],
        ids=["surplus 1e-9", "surplus 1e6", "root at ln lam = 0"],
    )
    def test_bisection_ends_on_the_root(self, channel, energy, photons):
        # The roots lie near the low end, near the high end and at zero of the ln lam bracket.
        omega = np.ones(channel.n)
        surplus = energy - 0.5 * float(np.sum(omega))
        _, filled = fn._water_filled_output(channel, fn.EnergyBudget(energy, omega))
        assert filled == pytest.approx(photons, rel=1e-12, abs=1e-12)
        assert float(omega @ filled) == pytest.approx(surplus, rel=1e-12, abs=1e-12)
        assert float(omega @ filled) <= surplus

    def test_subnormal_gain_keeps_the_bracket(self):
        # b + a surplus / omega is subnormal on the first mode, so 1 / it overflows;
        # that mode carries nothing and mode 2 takes the whole surplus 1e6 / 2 photons.
        cap = fn.gaussian_holevo_capacity(
            ch.thermal_noise([5e-324, 0.5], [0.0, 1.0]), fn.EnergyBudget(1.5 + 1e6, [1.0, 2.0])
        )
        expected = holevo_werner_g(0.5 * 5e5 + 0.5) - holevo_werner_g(0.5)
        assert cap.value == pytest.approx(expected, rel=1e-9)

    def test_subnormal_surplus_keeps_the_bracket(self):
        # count / surplus overflows.  At omega = 1e-300, ln lam is near 690, where the
        # spacing of doubles (1e-13) resolves N = 1e-10 photons to about 1e-2 relative.
        omega, surplus = 1e-300, 1e-310
        cap = fn.gaussian_holevo_capacity(
            ch.thermal_noise([0.5], [1.0]), fn.EnergyBudget(0.5 * omega + surplus, [omega])
        )
        expected = holevo_werner_g(0.5 * surplus / omega + 0.5) - holevo_werner_g(0.5)
        assert cap.value == pytest.approx(expected, rel=1e-2)

    def test_vanishing_gain_at_a_huge_frequency_is_silent(self):
        # a / omega underflows to 0, where a bracket read off it would take ln 0.  The
        # capacity is below the smallest normal double either way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cap = fn.gaussian_holevo_capacity(ch.thermal_noise([5e-324], [0.0]), fn.EnergyBudget(1.5e300, [1e300]))
        assert 0.0 <= cap.value <= 1e-300

    @pytest.mark.parametrize("a", [[0.5], [0.0]], ids=["bisection", "no live mode"])
    def test_overflowing_photons_raise(self, a):
        # 1e300 photons above the zero point at omega 1e-10 are 1e310 photons.
        with pytest.raises(ValueError, match="overflow a double"):
            fn._water_fill(np.array(a), np.array([0.5]), np.array([1e-10]), 1e300)

    def test_huge_energy_keeps_the_capacity_positive(self):
        cap = fn.gaussian_holevo_capacity(
            ch.thermal_noise([1.0, 0.5], [0.0, 1.0]), fn.EnergyBudget(1.5 + 1e300, [1.0, 2.0])
        )
        assert np.isfinite(cap.value) and cap.value > 0.0


class TestMixedProduct:
    """thermal(0.5, 1) x classical(I): every closed form is read leaf by leaf."""

    FACTORS = (ch.thermal_noise([0.5], [1.0]), ch.classical_noise(np.eye(2)))

    def product(self):
        return ch.tensor(list(self.FACTORS))

    def test_fp_is_the_product_of_the_factors(self):
        # Both leaves leave the optimal input with spectrum 2, and f_2(2) = 8.
        assert fn.min_output_fp_closed(self.product(), 2.0) == 64.0
        assert fn.min_output_fp_closed(self.product(), 2.0) == fn.min_output_fp_closed(
            self.FACTORS[0], 2.0
        ) * fn.min_output_fp_closed(self.FACTORS[1], 2.0)

    def test_min_entropy_is_closed_form(self, search_calls):
        value = fn.min_output_entropy(self.product())
        assert search_calls == []
        assert value == pytest.approx(2.0 * st.von_neumann_entropy([2.0]), abs=1e-12)

    def test_witness_attains_the_product(self):
        joint = self.product()
        gamma = fn.separable_optimal_input(joint)
        assert st.is_pure(st.GaussianState(gamma, np.zeros(4), np.ones(2)))
        nu = sp.symplectic_eigenvalues(ch.apply_cov(joint, gamma))
        assert_allclose(nu, [2.0, 2.0], atol=1e-9)

    def test_additivity_makes_one_search(self, search_calls):
        report = fn.additivity_check(
            list(self.FACTORS), fn.EnergyBudget(3.0, np.ones(2)), search_budget=8000, seed=0
        )
        assert len(search_calls) == 1
        assert abs(report.margin) <= 1e-6
        assert report.passed

    def test_capacity_has_a_gap_to_the_water_filled_value(self):
        search = fn.max_output_entropy_under_energy(
            self.product(), fn.EnergyBudget(3.0, np.ones(2)), search_budget=8000, seed=0
        )
        gap = search.gap_to_closed_form
        assert gap is not None
        assert gap <= 1e-9
        assert abs(gap) <= 1e-3


class TestSubadditivityOfOutputEntropy:
    def test_joint_entropy_below_marginal_sum(self):
        c1 = ch.classical_noise(np.diag([2.0, 0.5]))
        c2 = ch.thermal_noise([0.7], [1.0])
        joint = ch.tensor([c1, c2])
        for seed in range(20):
            gamma = sp.random_covariance(2, (1.0, 3.0), seed=seed)
            out = ch.apply_cov(joint, gamma)
            joint_entropy = st.von_neumann_entropy(sp.symplectic_eigenvalues(out))
            marginals = st.von_neumann_entropy(
                sp.symplectic_eigenvalues(out[:2, :2])
            ) + st.von_neumann_entropy(sp.symplectic_eigenvalues(out[2:, 2:]))
            assert joint_entropy <= marginals + 1e-9


class TestConcavityGrid:
    def test_grid_passes(self):
        report = fn.log_fp_concavity_check()
        assert report.passed
        assert report.worst_second_difference <= 1e-9
        assert report.min_witness >= 0.0

    def test_nan_order_is_refused(self):
        # max(-inf, nan) is -inf, so a nan order would otherwise pass the grid.
        with pytest.raises(ValueError, match="order must be >= 1"):
            fn.log_fp_concavity_check(ps=(np.nan,))

    def test_witness_includes_constant_case(self):
        # g_2 is identically 8 because f_0 vanishes.
        assert fn.log_fp_concavity_check(ps=(2.0,)).min_witness == pytest.approx(8.0)
