"""Channel functionals: closed forms, numeric searches, capacity, checks."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import cvchan.channels as ch
import cvchan.functionals as fn
import cvchan.states as st
from cvchan import symplectic as sp
from cvchan.cli import record_of

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

    def test_classical_entropy_example(self):
        channel = ch.classical_noise(np.diag([2.0, 2.0]))
        assert fn.min_output_entropy(channel) == pytest.approx(TWO_LN_2, rel=1e-9)

    def test_identity_entropy_zero(self):
        assert fn.min_output_entropy(identity_channel()) == pytest.approx(0.0, abs=1e-7)

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
        assert np.isfinite(fn.log_min_output_fp_closed(channel, 400.0))


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


def unitary_from_params_loop(theta, n):
    """Reference: the Hermitian built entry by entry, then exponentiated."""
    h = np.zeros((n, n), dtype=complex)
    idx = n
    h[np.arange(n), np.arange(n)] = theta[:n]
    for i in range(n):
        for j in range(i + 1, n):
            h[i, j] = theta[idx] + 1j * theta[idx + 1]
            h[j, i] = theta[idx] - 1j * theta[idx + 1]
            idx += 2
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def project_to_energy_loop(s, d, omega, target):
    """Reference: per-mode energy coefficients summed one mode at a time."""
    n = len(omega)
    w = np.repeat(omega, 2)
    gamma_pure = s @ s.T
    e0 = 0.25 * float(w @ np.diag(gamma_pure))
    coef = np.array([0.25 * float(w @ (s[:, 2 * j] ** 2 + s[:, 2 * j + 1] ** 2)) for j in range(n)])
    alpha = (target - e0) / float(coef @ d)
    return (s * np.repeat(1.0 + alpha * d, 2)[None, :]) @ s.T


class TestParameterizations:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_unitary_matches_loop_reference(self, n):
        rng = sp.rng_stream(5, n)
        for _ in range(20):
            theta = rng.normal(scale=2.0, size=n * n)
            u = fn._unitary_from_params(theta, n)
            assert np.max(np.abs(u - unitary_from_params_loop(theta, n))) <= 1e-14
            assert np.max(np.abs(u @ u.conj().T - np.eye(n))) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_energy_projection_matches_loop_reference(self, n):
        rng = sp.rng_stream(6, n)
        omega = rng.uniform(0.5, 2.0, n)
        for _ in range(20):
            s, d = fn._phys_cov_factors(rng.normal(scale=0.3, size=fn._phys_cov_dim(n)), n)
            target = 0.25 * float(np.repeat(omega, 2) @ np.diag(s @ s.T)) + 1.0
            gamma = fn._project_to_energy(s, d, omega, target)
            assert_allclose(gamma, project_to_energy_loop(s, d, omega, target), rtol=1e-12, atol=1e-12)
            assert 0.25 * float(np.repeat(omega, 2) @ np.diag(gamma)) == pytest.approx(target, rel=1e-12)


class TestRestartedNelderMead:
    def test_converged_describes_the_winning_restart(self):
        def bowl_beside_slope(x):
            # The origin restart converges in the bowl (value 1); a restart
            # started off the bowl runs down the slope to its evaluation cap
            # and wins with a lower value.
            r = abs(float(x[0]))
            return 1.0 + r * r if r < 0.01 else -r

        best, _, evals, converged = fn._restarted_nelder_mead(bowl_beside_slope, 1, 400, seed=0, restarts=2)
        assert best < 1.0 and evals <= 400
        assert converged is False

    def test_converged_when_the_winner_converges(self):
        _, x, _, converged = fn._restarted_nelder_mead(lambda x: float(x @ x), 2, 400, seed=0, restarts=2)
        assert converged is True
        assert np.max(np.abs(x)) <= 1e-6


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

    def test_infeasible_raises(self):
        with pytest.raises(fn.InfeasibleEnergyError):
            fn.max_output_entropy_under_energy(
                identity_channel(), fn.EnergyBudget(0.3, [1.0]), search_budget=100
            )

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
        y = sp.sample_spd(rng, 1, 1, (0.5, 2.0))[0]
        report = fn.multiplicativity_check(
            [ch.classical_noise(y), ch.thermal_noise([0.6], [0.8])],
            2.0,
            search_budget=6000,
            seed=3,
        )
        assert abs(report.witness_value - report.product_of_optima) <= 1e-6 * report.product_of_optima
        assert report.passed

    def test_needs_two_channels(self):
        with pytest.raises(ValueError):
            fn.multiplicativity_check([identity_channel()], 2.0)

    def test_overflowing_fp_compares_logs(self):
        # F_p overflows a double at p = 400 on three modes: margin and witness compare ln F_p.
        report = fn.multiplicativity_check(
            [ch.thermal_noise([0.5], [1.0]), ch.thermal_noise([0.5, 0.5], [1.0, 1.0])], 400.0, search_budget=200
        )
        assert np.isinf(report.product_of_optima)
        assert np.isfinite(report.margin)
        assert report.passed


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

    @pytest.mark.parametrize(
        "factor",
        [
            ch.make_channel(0.5 * np.eye(2), np.eye(2)),
            ch.classical_noise(np.diag([2.0, 0.5])),
            ch.classical_noise(np.array([[1.0, 0.0, 0.3, 0.0], [0.0, 1.0, 0.0, 0.3],
                                         [0.3, 0.0, 1.0, 0.0], [0.0, 0.3, 0.0, 1.0]])),
        ],
        ids=["custom", "anisotropic classical", "mode-coupling classical"],
    )
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
        value, _, photons = fn._water_filled_capacity(
            ch.tensor([ch.thermal_noise([eta], [nbar])]), np.array([omega]), energy
        )
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
        value, _, photons = fn._water_filled_capacity(ch.tensor(channels), omega, energy)
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

    def test_subnormal_gain_keeps_the_bracket(self):
        # b + a surplus / omega is subnormal on the first mode, so 1 / it overflows;
        # that mode carries nothing and mode 2 takes the whole surplus 1e6 / 2 photons.
        cap = fn.gaussian_holevo_capacity(
            ch.thermal_noise([5e-324, 0.5], [0.0, 1.0]), fn.EnergyBudget(1.5 + 1e6, [1.0, 2.0])
        )
        expected = holevo_werner_g(0.5 * 5e5 + 0.5) - holevo_werner_g(0.5)
        assert cap.value == pytest.approx(expected, rel=1e-9)

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

    def test_witness_includes_constant_case(self):
        # g_2 is identically 8 because f_0 vanishes.
        assert fn.log_fp_concavity_check(ps=(2.0,)).min_witness == pytest.approx(8.0)
