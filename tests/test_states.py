"""Gaussian states: constructors, physicality, energy, purity functionals."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import cvchan.states as st
from cvchan import symplectic as sp


class TestConstructors:
    def test_vacuum(self):
        state = st.vacuum(1)
        assert_allclose(state.gamma, np.eye(2))
        assert_allclose(state.m, np.zeros(2))
        assert st.is_pure(state)

    def test_vacuum_energy_is_zero_point(self):
        state = st.vacuum(2, omega=[1.0, 3.0])
        energy = st.mean_energy(state)
        assert_allclose(energy.per_mode, [0.5, 1.5])
        assert energy.total == pytest.approx(2.0)

    def test_thermal_matches_vacuum_at_zero_occupation(self):
        assert_allclose(st.thermal(0.0).gamma, st.vacuum(1).gamma)

    def test_thermal_covariance_and_spectrum(self):
        state = st.thermal(1.0)
        assert_allclose(state.gamma, np.diag([3.0, 3.0]))
        assert_allclose(state.spectrum(), [3.0])

    def test_thermal_energy(self):
        state = st.thermal(2.0, omega=1.0)
        assert st.mean_energy(state).total == pytest.approx(2.5)

    def test_thermal_rejects_negative_occupation(self):
        with pytest.raises(ValueError):
            st.thermal(-0.1)

    def test_coherent_zero_displacement_is_vacuum(self):
        state = st.coherent(1, 1.0, np.zeros(2))
        assert_allclose(state.gamma, st.vacuum(1).gamma)

    def test_coherent_energy_includes_displacement(self):
        state = st.coherent(1, 1.0, np.array([np.sqrt(2.0), 0.0]))
        assert st.mean_energy(state).total == pytest.approx(1.5)

    def test_coherent_rejects_length_mismatch(self):
        with pytest.raises(sp.DimensionError):
            st.coherent(2, 1.0, np.zeros(2))

    def test_spectrum_computed_once(self, monkeypatch):
        calls = []

        def counting(gamma, *args, **kwargs):
            calls.append(1)
            return sp.symplectic_eigenvalues(gamma, *args, **kwargs)

        monkeypatch.setattr(st, "symplectic_eigenvalues", counting)
        state = st.thermal([1.0, 2.0])
        assert_allclose(state.spectrum(), [3.0, 5.0])
        assert st.is_physical(state).ok
        assert len(calls) == 1

    def test_unphysical_covariance_rejected(self):
        with pytest.raises(st.UnphysicalStateError):
            st.GaussianState(0.5 * np.eye(2), np.zeros(2), np.ones(1))


class TestPhysicality:
    def test_vacuum(self):
        check = st.is_physical(st.vacuum(1))
        assert check.ok
        assert check.min_symplectic == pytest.approx(1.0)

    def test_below_vacuum_noise(self):
        check = st.is_physical(np.diag([0.5, 0.5]))
        assert not check.ok
        assert check.min_symplectic == pytest.approx(0.5)
        assert check.min_hermitian < 0.0

    def test_squeezed_thermal(self):
        check = st.is_physical(np.diag([4.0, 1.0]))
        assert check.ok
        assert check.min_symplectic == pytest.approx(2.0)

    def test_hermitian_cross_check_sign_agreement(self):
        for seed in range(10):
            gamma = sp.random_covariance(2, (1.0, 3.0), seed=seed)
            check = st.is_physical(gamma)
            assert check.ok
            assert check.min_hermitian >= -1e-10


class TestPurity:
    def test_vacuum_pure(self):
        assert st.is_pure(st.vacuum(2))

    def test_thermal_mixed(self):
        assert not st.is_pure(st.thermal(1.0))

    @pytest.mark.parametrize("z", [1.0, 2.0, 7.5])
    def test_squeezed_states_pure(self, z):
        state = st.GaussianState(np.diag([z, 1.0 / z]), np.zeros(2), np.ones(1))
        assert st.is_pure(state)


class TestFp:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_value_at_one(self, p):
        assert st.f_p(1.0, p) == pytest.approx(2.0**p)

    def test_direct_substitution(self):
        assert st.f_p(3.0, 2.0) == pytest.approx(12.0)

    def test_order_one_is_constant(self):
        for x in (1.0, 2.5, 40.0):
            assert st.f_p(x, 1.0) == pytest.approx(2.0)

    def test_domain_rejected(self):
        with pytest.raises(ValueError):
            st.f_p(0.5, 2.0)
        with pytest.raises(ValueError):
            st.f_p(2.0, 0.5)

    def test_overflow_is_inf_without_warning(self):
        # 20^400 and 18^400 both overflow; their difference must not be inf - inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert st.f_p(19.0, 400.0) == np.inf
            assert_allclose(st.f_p(np.array([2.0, 19.0]), 400.0), [3.0**400 - 1.0, np.inf])

    def test_g_p_nonnegative_small_cases(self):
        assert st.g_p(1.0, 2.0) == pytest.approx(8.0)  # f_0 = 0 leaves the 4p term
        xs = np.linspace(1.0, 20.0, 50)
        assert np.all(st.g_p(xs, 3.0) >= 0.0)


class TestTraceP:
    def test_pure_state(self):
        for p in (1.5, 2.0, 4.0):
            assert st.trace_p(st.vacuum(2), p) == pytest.approx(1.0)

    def test_thermal_purity_matches_geometric_distribution(self):
        # Sum q_k^2 of the geometric photon distribution is 1 / (2 nbar + 1).
        for nbar in (0.3, 1.0, 2.5):
            expected = 1.0 / (2.0 * nbar + 1.0)
            assert st.trace_p(st.thermal(nbar), 2.0) == pytest.approx(expected)

    def test_thermal_example(self):
        assert st.trace_p(st.thermal(1.0), 2.0) == pytest.approx(1.0 / 3.0)

    def test_multiplicative_over_modes(self):
        single_a = st.trace_p(np.array([1.7]), 2.5)
        single_b = st.trace_p(np.array([3.1]), 2.5)
        product = st.trace_p(np.array([1.7, 3.1]), 2.5)
        assert product == pytest.approx(single_a * single_b)

    def test_displacement_independent(self):
        coherent = st.coherent(1, 1.0, np.array([2.0, -1.0]))
        assert st.trace_p(coherent, 2.0) == pytest.approx(st.trace_p(st.vacuum(1), 2.0))

    def test_p_one_returns_normalization(self):
        assert st.trace_p(st.thermal(1.0), 1.0) == 1.0

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            st.trace_p(st.thermal(1.0), 0.9)

    def test_monotone_decreasing_in_nu(self):
        grid = np.linspace(1.0, 6.0, 25)
        values = [st.trace_p(np.array([nu]), 2.0) for nu in grid]
        assert np.all(np.diff(values) <= 0.0)

    def test_high_order_underflows_instead_of_overflowing(self):
        # thermal(1.0) has nu = 3, so Tr rho^p = 2^p / (4^p - 2^p) = 1 / (2^p - 1).
        assert st.trace_p(st.thermal(1.0), 1030.0) == pytest.approx(2.0**-1030, rel=1e-12)
        assert st.trace_p(st.thermal(1.0), 1100.0) == 0.0  # 2^-1100 rounds to 0


class TestEntropy:
    def test_pure_state_zero(self):
        assert st.von_neumann_entropy(st.vacuum(3)) == 0.0

    def test_thermal_oracle(self):
        # (nbar+1) ln(nbar+1) - nbar ln nbar at nbar = 1 is 2 ln 2.
        assert st.von_neumann_entropy(np.array([3.0])) == pytest.approx(2.0 * np.log(2.0))
        for nbar in (0.5, 2.0, 4.0):
            expected = (nbar + 1.0) * np.log(nbar + 1.0) - nbar * np.log(nbar)
            assert st.von_neumann_entropy(st.thermal(nbar)) == pytest.approx(expected)

    def test_additive_over_modes(self):
        total = st.von_neumann_entropy(np.array([1.5, 2.5]))
        parts = st.von_neumann_entropy(np.array([1.5])) + st.von_neumann_entropy(np.array([2.5]))
        assert total == pytest.approx(parts)

    def test_invariant_under_symplectic_congruence(self):
        gamma = sp.random_covariance(2, (1.2, 3.0), seed=3)
        s = sp.random_symplectic(2, seed=4)
        assert st.von_neumann_entropy(sp.symplectic_eigenvalues(s @ gamma @ s.T)) == pytest.approx(
            st.von_neumann_entropy(sp.symplectic_eigenvalues(gamma))
        )

    def test_derivative_of_schatten_norm(self):
        # d/dp ||rho||_p at p -> 1+ equals -S, via a central difference.
        h = 1e-4
        for seed in range(40):
            rng = sp.rng_stream(seed)
            n = 1 + seed % 3
            nu = rng.uniform(1.05, 5.0, n)
            fd = (st.schatten_norm(nu, 1.0 + h) - st.schatten_norm(nu, 1.0 - h)) / (2.0 * h)
            s_val = st.von_neumann_entropy(nu)
            assert abs(fd + s_val) <= 1e-4 * s_val

    def test_large_nu_does_not_cancel(self):
        # S(nu) = ln((nu+1)/2) + 1 + O(1/nu); up ln up - dn ln dn gives 0 at 1e17.
        assert st.von_neumann_entropy(1e17) == pytest.approx(1.0 + np.log(5e16), rel=1e-12)
        big = st.von_neumann_entropy(np.array([1e306, np.finfo(float).max]))
        assert np.isfinite(big) and big > 0.0

    def test_large_nu_form_joins_the_closed_form(self):
        # Below the switch at 1e4 the closed form carries about 1e-11 of cancellation.
        below, above = st.von_neumann_entropy(1e4), st.von_neumann_entropy(np.nextafter(1e4, np.inf))
        assert above == pytest.approx(below, abs=1e-10)


class TestSchurConcavityOfFp:
    def test_fp_product_increasing(self):
        rng = sp.rng_stream(51)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            x = rng.uniform(1.0, 4.0, n)
            y = x + rng.uniform(0.0, 1.0, n)
            for p in (1.5, 2.0, 3.0):
                assert np.prod(st.f_p(x, p)) <= np.prod(st.f_p(y, p)) * (1.0 + 1e-12)

    def test_fp_product_schur_concave(self):
        # x majorized by y (shifted into the physical region) implies
        # prod f_p(x) >= prod f_p(y).
        from cvchan import majorization as mj

        for seed in range(100):
            x, y = mj.random_majorization_pair(3, seed=seed)
            shift = 1.0 - min(np.min(x), np.min(y))
            x = x + shift
            y = y + shift
            for p in (1.5, 2.0, 3.0):
                assert np.prod(st.f_p(x, p)) >= np.prod(st.f_p(y, p)) * (1.0 - 1e-12)


class TestSerialization:
    def test_round_trip(self):
        state = st.GaussianState(
            sp.random_covariance(2, (1.0, 2.0), seed=8),
            np.array([0.5, -1.0, 0.0, 2.0]),
            np.array([1.0, 2.0]),
        )
        back = st.state_from_record(st.state_to_record(state))
        assert_allclose(back.gamma, state.gamma)
        assert_allclose(back.m, state.m)
        assert_allclose(back.omega, state.omega)
