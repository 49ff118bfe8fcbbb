"""Gaussian channels: CP certificates, constructors, tensor products, action."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose

import cvchan.channels as ch
import cvchan.functionals as fn
import cvchan.states as st
from cvchan import symplectic as sp


def assert_identity(channel):
    """X = I and Y = 0 within ``TOL_CP``."""
    assert np.max(np.abs(channel.x - np.eye(2 * channel.n))) <= ch.TOL_CP
    assert np.max(np.abs(channel.y)) <= ch.TOL_CP


#: Each constructor with numpy arguments, by the names of the arguments.
CONSTRUCTORS = {
    "thermal_noise": (ch.thermal_noise, {"eta": [0.5, 0.7], "nbar": [1.0, 2.0]}),
    "lossy": (ch.lossy, {"eta": [0.5]}),
    "classical_noise": (ch.classical_noise, {"y": np.eye(2)}),
    "make_channel": (ch.make_channel, {"x": np.eye(2), "y": 0.5 * np.eye(2)}),
}


@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_a_channel_keeps_no_array_of_its_caller(name):
    # Editing the caller's arrays after construction leaves the channel as built, and its arrays are read-only.
    constructor, arguments = CONSTRUCTORS[name]
    arrays = {key: np.array(value, dtype=float) for key, value in arguments.items()}
    channel = constructor(**arrays)
    held = {key: getattr(channel, key) for key in ("x", "y", "eta", "nbar") if getattr(channel, key) is not None}
    built = {key: value.copy() for key, value in held.items()}
    for array in arrays.values():
        array += 0.25
    for key, value in held.items():
        assert np.array_equal(value, built[key]), key
        assert not value.flags.writeable, key


class TestMakeChannel:
    def test_identity_certificate_is_zero(self):
        channel = ch.make_channel(np.eye(2), np.zeros((2, 2)))
        assert channel.cp_eigenvalue == pytest.approx(0.0, abs=1e-14)
        assert_identity(channel)

    def test_classical_unit_noise(self):
        channel = ch.make_channel(np.eye(2), np.eye(2))
        assert channel.cp_eigenvalue == pytest.approx(1.0)

    def test_amplification_without_noise_rejected(self):
        # sqrt(2) I with Y = 0 gives certificate eigenvalues +/- 1.
        with pytest.raises(ch.CompletePositivityError, match="-1"):
            ch.make_channel(np.sqrt(2.0) * np.eye(2), np.zeros((2, 2)))

    def test_asymmetric_y_rejected(self):
        with pytest.raises(ch.CompletePositivityError, match="symmetric"):
            ch.make_channel(np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_indefinite_y_rejected(self):
        with pytest.raises(ch.CompletePositivityError):
            ch.make_channel(np.eye(2), np.diag([1.0, -0.5]))

    @pytest.mark.parametrize("make", [
        lambda: ch.make_channel(np.zeros((0, 0)), np.zeros((0, 0))),
        lambda: ch.thermal_noise([], []),
        lambda: ch.lossy([]),
        lambda: ch.classical_noise(np.zeros((0, 0))),
    ], ids=["make_channel", "thermal_noise", "lossy", "classical_noise"])
    def test_zero_modes_rejected(self, make):
        with pytest.raises(sp.DimensionError):
            make()

    def test_y_of_another_shape_rejected(self):
        with pytest.raises(sp.DimensionError, match=r"Y must match X, got \(4, 4\) vs \(2, 2\)"):
            ch.make_channel(np.eye(2), np.eye(4))

    def test_kind_is_not_a_parameter(self):
        # A declared kind would select closed forms that (X, Y) do not obey:
        # labelled thermal(0.5, 0), X = I and Y = 5 I would report F_2 = 4, not 24.
        with pytest.raises(TypeError):
            ch.make_channel(np.eye(2), 5.0 * np.eye(2), kind="thermal", eta=[0.5], nbar=[0.0])
        assert ch.make_channel(np.eye(2), 5.0 * np.eye(2)).kind == "custom"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("matrix", ["X", "Y"])
    def test_non_finite_entries_rejected(self, matrix, bad):
        # Every comparison with NaN is false, so no CP test could catch it.
        x, y = np.eye(2), np.eye(2)
        (x if matrix == "X" else y)[0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            ch.make_channel(x, y)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ch.classical_noise(np.diag([np.nan, 1.0])),
            lambda: ch.thermal_noise([np.nan], [1.0]),
            lambda: ch.thermal_noise([0.5], [np.inf]),
            # (2 nbar + 1)(1 - eta) overflows to inf, and to inf * 0 = nan at eta = 1:
            # refused as non-finite, with no RuntimeWarning on the way.
            lambda: ch.thermal_noise([0.5], [1e308]),
            lambda: ch.thermal_noise([1.0], [1e308]),
            lambda: ch.lossy([np.nan]),
            lambda: ch.tensor([ch.lossy([0.5]), dataclasses.replace(ch.lossy([0.5]), y=np.full((2, 2), np.nan))]),
        ],
        ids=["classical_noise", "thermal_noise-eta", "thermal_noise-nbar", "thermal_noise-overflow",
             "thermal_noise-overflow-times-zero", "lossy", "tensor"],
    )
    def test_kinds_reject_non_finite_parameters(self, build):
        with pytest.raises(ValueError, match="finite"):
            build()


_ROTATION = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
#: Noise matrices R diag(d) R^T, R the rotation by 0.7, that build as
#: classical noise although a closed form fails on each: Cholesky breaks
#: down on the first, whose eigenvalues run from 4.8e-7 to 1e10, and the
#: Williamson frame of the second plus 1e-10 I misses its residual bound.
ILL_CONDITIONED_NOISE = {
    "numerically singular": _ROTATION @ np.diag([1e10, 1e-9]) @ _ROTATION.T,
    "rank one": _ROTATION @ np.diag([1e3, 0.0]) @ _ROTATION.T,
}


class TestClassicalNoise:
    def test_zero_noise_is_identity(self):
        assert_identity(ch.classical_noise(np.zeros((2, 2))))

    def test_output_spectrum_on_vacuum(self):
        channel = ch.classical_noise(np.diag([0.7, 0.7]))
        out = ch.apply(channel, st.vacuum(1))
        assert_allclose(out.spectrum(), [1.7], atol=1e-12)

    def test_noise_spectrum_matches_regularized_williamson(self):
        y = np.diag([2.0, 2.0, 0.0, 0.0])
        channel = ch.classical_noise(y)
        nu = ch.noise_spectrum(channel)
        # A null mode of Y is an exact zero, not an epsilon-scale value.
        assert nu[0] <= 1e-14
        assert nu[1] == pytest.approx(2.0, abs=1e-8)

    @pytest.mark.parametrize("y, expected", [
        (np.diag([2.0, 0.0]), 0.0),
        (np.zeros((2, 2)), 0.0),
        (np.diag([2.0, 1e-12]), np.sqrt(2e-12)),  # below NOISE_EPS, yet not regularized
    ])
    def test_singular_noise_spectrum_is_exact(self, y, expected):
        nu = ch.noise_spectrum(ch.classical_noise(y))
        assert nu.shape == (1,)
        assert nu[0] == pytest.approx(expected, rel=1e-6, abs=1e-15)

    @pytest.mark.parametrize("y", ILL_CONDITIONED_NOISE.values(), ids=ILL_CONDITIONED_NOISE.keys())
    def test_ill_conditioned_noise_builds_and_applies(self, y):
        # Construction computes no closed form, so none of their failures can stop it.
        out = ch.apply(ch.classical_noise(y), st.vacuum(1))
        assert_allclose(out.gamma, np.eye(2) + y, rtol=1e-15)

    def test_nondiagonal_noise(self):
        rot = sp.unitary_to_orthosymplectic(sp.random_unitary(1, seed=2))
        y = rot @ np.diag([3.0, 1.0]) @ rot.T
        channel = ch.classical_noise(y)
        assert_allclose(ch.noise_spectrum(channel), sp.symplectic_eigenvalues(y), atol=1e-9)


class TestThermalNoise:
    def test_full_transmission_is_identity(self):
        assert_identity(ch.thermal_noise([1.0], [2.0]))

    def test_full_reflection_outputs_reservoir(self):
        channel = ch.thermal_noise([0.0], [1.5])
        out = ch.apply(channel, st.thermal(0.7))
        assert_allclose(out.gamma, np.diag([4.0, 4.0]), atol=1e-12)

    def test_zero_temperature_reduces_to_lossy(self):
        thermal = ch.thermal_noise([0.6], [0.0])
        loss = ch.lossy([0.6])
        assert_allclose(thermal.x, loss.x)
        assert_allclose(thermal.y, loss.y)
        assert loss.kind == "lossy"

    def test_lossy_fixed_point_is_vacuum(self):
        out = ch.apply(ch.lossy([0.5]), st.vacuum(1))
        assert_allclose(out.gamma, np.eye(2), atol=1e-12)

    def test_lossy_on_thermal(self):
        out = ch.apply(ch.lossy([0.5]), st.thermal(1.0))
        assert_allclose(out.gamma, np.diag([2.0, 2.0]), atol=1e-12)
        assert_allclose(out.spectrum(), [2.0], atol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ch.thermal_noise([1.2], [0.0])
        with pytest.raises(ValueError):
            ch.thermal_noise([0.5], [-1.0])

    @pytest.mark.parametrize("eta, nbar, message", [
        ([np.nan], [1.0], "X and Y must have finite entries"),
        ([0.5], [np.nan], "X and Y must have finite entries"),
        ([0.5], [np.inf], "X and Y must have finite entries"),
        ([1.2], [1.0], "transmittivities must lie in [0, 1]"),
        ([-0.1], [1.0], "transmittivities must lie in [0, 1]"),
        ([np.inf], [1.0], "transmittivities must lie in [0, 1]"),
        ([-np.inf], [1.0], "transmittivities must lie in [0, 1]"),
        ([np.nan, 1.5], [1.0, 1.0], "transmittivities must lie in [0, 1]"),
        ([0.5], [-1.0], "reservoir occupations must be nonnegative"),
        ([0.5], [-np.inf], "reservoir occupations must be nonnegative"),
        ([0.5, 0.5], [np.nan, -1.0], "reservoir occupations must be nonnegative"),
        ([1.5], [np.nan], "transmittivities must lie in [0, 1]"),
    ])
    def test_parameter_messages(self, eta, nbar, message):
        # The range tests pass over NaN, which the finiteness test of Y then refuses.
        with pytest.raises(ValueError) as raised:
            ch.thermal_noise(eta, nbar)
        assert str(raised.value) == message
        if all(b == 1.0 for b in nbar):  # eta alone sets the message, so lossy gives it too
            with pytest.raises(ValueError) as raised:
                ch.lossy(eta)
            assert str(raised.value) == message

    def test_certificate_holds(self):
        channel = ch.thermal_noise([0.3, 0.9], [2.0, 0.1])
        assert channel.cp_eigenvalue >= -1e-10

    @pytest.mark.parametrize("build", [
        lambda: ch.thermal_noise([[0.5, 0.6], [0.7, 0.8]], [[1.0, 1.0], [1.0, 1.0]]),
        lambda: ch.thermal_noise([[0.5]], [[1.0]]),
        lambda: ch.lossy([[0.5, 0.6], [0.7, 0.8]]),
    ], ids=["thermal_noise", "thermal_noise-one-entry", "lossy"])
    def test_parameters_of_more_than_one_dimension_rejected(self, build):
        # A 2 x 2 eta once built a 4-mode channel whose records and optima raised TypeError.
        with pytest.raises(sp.DimensionError, match="eta and nbar"):
            build()

    def test_scalar_parameters_broadcast(self):
        assert ch.thermal_noise(0.5, 1.0).n == 1
        channel = ch.thermal_noise([0.5, 0.6], 1.0)
        assert_allclose(channel.nbar, [1.0, 1.0])
        assert ch.channel_to_record(channel) == {"n_modes": 2, "kind": "thermal", "eta": [0.5, 0.6], "nbar": [1.0, 1.0]}
        assert ch.lossy(0.5).n == 1


def _assert_numeric_certificate(channel):
    """The certificate eigenvalue of construction is the numeric one, within
    1e-12 of the scale of Y."""
    numeric = ch.cp_certificate_eigenvalue(channel.x, channel.y)
    assert abs(channel.cp_eigenvalue - numeric) <= 1e-12 * max(1.0, float(np.max(np.abs(channel.y))))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(hst.integers(1, 4).flatmap(lambda n: hst.tuples(
    hst.lists(hst.floats(0.0, 1.0), min_size=n, max_size=n), hst.lists(hst.floats(0.0, 1e6), min_size=n, max_size=n))))
def test_closed_form_certificates_match_the_numeric_one(parameters):
    eta, nbar = parameters
    _assert_numeric_certificate(ch.thermal_noise(eta, nbar))
    _assert_numeric_certificate(ch.lossy(eta))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(hst.integers(1, 4).flatmap(lambda n: hst.lists(hst.floats(-10.0, 10.0), min_size=4 * n * n, max_size=4 * n * n)))
def test_classical_certificate_matches_the_numeric_one(entries):
    dim = int(round(np.sqrt(len(entries))))
    a = np.array(entries).reshape(dim, dim)
    y = a @ a.T
    _assert_numeric_certificate(ch.classical_noise(0.5 * (y + y.T)))


@pytest.mark.parametrize("y", ILL_CONDITIONED_NOISE.values(), ids=ILL_CONDITIONED_NOISE.keys())
def test_ill_conditioned_classical_certificate_matches_the_numeric_one(y):
    _assert_numeric_certificate(ch.classical_noise(y))


def test_named_kinds_certify_without_a_numeric_certificate(linalg_calls):
    # Thermal and lossy channels certify in closed form; classical noise
    # reads its certificate off the one eigvalsh(Y) of its PSD check.
    ch.thermal_noise([0.3, 0.9, 0.5, 0.7], [2.0, 0.1, 0.0, 1.0])
    ch.lossy([0.2, 0.6, 1.0])
    assert linalg_calls == {}
    ch.classical_noise(np.diag([1.3, 0.4, 0.7, 1.9]))
    assert linalg_calls == {"eigvalsh": 1}


class TestTensor:
    def test_single_channel(self):
        channel = ch.thermal_noise([0.5], [1.0])
        joint = ch.tensor([channel])
        assert_allclose(joint.x, channel.x)
        assert_allclose(joint.y, channel.y)

    def test_classical_blocks(self):
        y1 = np.diag([2.0, 2.0])
        y2 = np.diag([1.0, 1.0])
        joint = ch.tensor([ch.classical_noise(y1), ch.classical_noise(y2)])
        assert joint.kind == "custom"
        assert [leaf.kind for leaf in joint.leaves] == ["classical", "classical"]
        assert_allclose(joint.y, np.diag([2.0, 2.0, 1.0, 1.0]))

    def test_thermal_concatenates_parameters(self):
        # A product keeps no eta or nbar of its own; its leaves carry them.
        joint = ch.tensor([ch.thermal_noise([0.5], [1.0]), ch.thermal_noise([0.3], [2.0])])
        assert joint.eta is None and joint.nbar is None
        assert [leaf.kind for leaf in joint.leaves] == ["thermal", "thermal"]
        assert_allclose(np.concatenate([leaf.eta for leaf in joint.leaves]), [0.5, 0.3])
        assert_allclose(np.concatenate([leaf.nbar for leaf in joint.leaves]), [1.0, 2.0])

    def test_mixed_kinds_are_custom(self):
        joint = ch.tensor([ch.classical_noise(np.eye(2)), ch.thermal_noise([0.5], [1.0])])
        assert joint.kind == "custom"
        assert [leaf.kind for leaf in joint.leaves] == ["classical", "thermal"]

    def test_product_record_is_its_matrices(self):
        joint = ch.tensor([ch.thermal_noise([0.5], [1.0]), ch.lossy([0.3])])
        back = ch.channel_from_record(ch.channel_to_record(joint))
        assert back.kind == "custom"
        assert_allclose(back.x, joint.x)
        assert_allclose(back.y, joint.y)

    def test_nested_products_keep_their_leaves_in_mode_order(self):
        a = ch.thermal_noise([0.5], [1.0])
        b = ch.classical_noise(np.eye(2))
        c = ch.lossy([0.3])
        assert a.leaves == (a,)
        joint = ch.tensor([ch.tensor([a, b]), c])
        assert joint.leaves == (a, b, c)
        assert_allclose(joint.x, ch.tensor([a, b, c]).x)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ch.tensor([])

    def test_product_state_application_is_blockwise(self):
        c1 = ch.classical_noise(np.diag([2.0, 0.5]))
        c2 = ch.thermal_noise([0.7], [1.0])
        joint = ch.tensor([c1, c2])
        g1 = sp.random_covariance(1, (1.0, 2.0), seed=11)
        g2 = sp.random_covariance(1, (1.0, 2.0), seed=12)
        product = np.zeros((4, 4))
        product[:2, :2] = g1
        product[2:, 2:] = g2
        state = st.GaussianState(product, np.zeros(4), np.ones(2))
        out = ch.apply(joint, state)
        assert np.max(np.abs(out.gamma[:2, :2] - ch.apply_cov(c1, g1))) <= 1e-10
        assert np.max(np.abs(out.gamma[2:, 2:] - ch.apply_cov(c2, g2))) <= 1e-10
        assert np.max(np.abs(out.gamma[:2, 2:])) <= 1e-10


class TestApply:
    def test_identity_preserves_state(self):
        state = st.thermal(1.0)
        out = ch.apply(ch.classical_noise(np.zeros((2, 2))), state)
        assert_allclose(out.gamma, state.gamma)
        assert_allclose(out.m, state.m)

    def test_classical_noise_on_vacuum(self):
        out = ch.apply(ch.classical_noise(np.diag([2.0, 2.0])), st.vacuum(1))
        assert_allclose(out.gamma, np.diag([3.0, 3.0]))
        assert_allclose(out.spectrum(), [3.0])

    def test_thermal_on_vacuum(self):
        out = ch.apply(ch.thermal_noise([0.5], [1.0]), st.vacuum(1))
        assert_allclose(out.gamma, np.diag([2.0, 2.0]), atol=1e-12)

    def test_displacement_law(self):
        state = st.coherent(1, 1.0, np.array([1.0, -2.0]))
        out = ch.apply(ch.lossy([0.49]), state)
        assert_allclose(out.m, 0.7 * state.m)

    def test_classical_noise_preserves_displacement(self):
        state = st.coherent(1, 1.0, np.array([1.0, 2.0]))
        out = ch.apply(ch.classical_noise(np.diag([1.0, 1.0])), state)
        assert_allclose(out.m, state.m)

    def test_mode_count_mismatch(self):
        with pytest.raises(sp.DimensionError):
            ch.apply(ch.lossy([0.5]), st.vacuum(2))

    def test_physicality_preserved_randomized(self):
        for seed in range(25):
            rng = sp.rng_stream(seed, 77)
            n = 1 + seed % 4
            gamma = sp.sample_spd(rng, n, 1, (1.0, 3.0))[0][0]
            state = st.GaussianState(gamma, np.zeros(2 * n), np.ones(n))
            eta = rng.uniform(0.0, 1.0, n)
            nbar = rng.uniform(0.0, 2.0, n)
            out = ch.apply(ch.thermal_noise(eta, nbar), state)
            assert np.min(out.spectrum()) >= 1.0 - 1e-8

    def test_classical_optimum_witness_spectrum(self):
        # With the input aligned to the Williamson frame of Y, the output
        # spectrum is exactly 1 + nu(Y).
        rng = sp.rng_stream(5)
        y = sp.sample_spd(rng, 2, 1, (0.5, 2.5))[0][0]
        dec = sp.williamson(y)
        s_inv = sp.symplectic_inverse(dec.s)
        gamma_p = s_inv @ s_inv.T
        out = ch.apply_cov(ch.classical_noise(y), gamma_p)
        assert_allclose(sp.symplectic_eigenvalues(out), 1.0 + dec.spectrum, atol=1e-8)


class TestChannelRecords:
    def test_round_trip_thermal(self):
        channel = ch.thermal_noise([0.5, 0.8], [1.0, 0.2])
        back = ch.channel_from_record(ch.channel_to_record(channel))
        assert_allclose(back.x, channel.x)
        assert_allclose(back.y, channel.y)
        assert back.kind == "thermal"

    def test_round_trip_classical(self):
        channel = ch.classical_noise(np.diag([2.0, 1.0]))
        back = ch.channel_from_record(ch.channel_to_record(channel))
        assert_allclose(back.y, channel.y)

    def test_round_trip_custom(self):
        channel = ch.make_channel(0.5 * np.eye(2), np.eye(2))
        back = ch.channel_from_record(ch.channel_to_record(channel))
        assert_allclose(back.x, channel.x)
        assert_allclose(back.y, channel.y)

    def test_a_leaf_record_reloads_its_kind_and_a_product_record_does_not(self):
        # A product's record is its joint (X, Y): its leaves, and with them
        # its closed form, are not written.
        thermal, classical = ch.thermal_noise([0.5], [1.0]), ch.classical_noise(np.eye(2))
        for leaf in (thermal, classical):
            record = ch.channel_to_record(leaf)
            assert ch.channel_to_record(ch.channel_from_record(record)) == record
        product = ch.tensor([thermal, classical])
        back = ch.channel_from_record(ch.channel_to_record(product))
        assert (back.kind, back.leaves) == ("custom", (back,))
        assert_allclose(back.x, product.x)
        assert_allclose(back.y, product.y)
        assert_allclose(fn.optimal_output_spectrum(product), [2.0, 2.0])
        with pytest.raises(fn.UnsupportedKindError):
            fn.optimal_output_spectrum(back)

    @pytest.mark.parametrize("arrays, lists", [
        ({"n_modes": 1, "kind": "classical", "Y": [np.eye(2)]}, {"n_modes": 1, "kind": "classical", "Y": [1, 0, 0, 1]}),
        ({"n_modes": 1, "kind": "thermal", "eta": np.array([0.5]), "nbar": [np.float64(1.0)]},
         {"n_modes": 1, "kind": "thermal", "eta": [0.5], "nbar": [1.0]}),
    ], ids=["classical", "thermal"])
    def test_numpy_fields_load_like_lists(self, arrays, lists):
        assert ch.channel_to_record(ch.channel_from_record(arrays)) == ch.channel_to_record(
            ch.channel_from_record(lists))

    def test_missing_field_names_culprit(self):
        with pytest.raises(ch.ChannelSpecError) as info:
            ch.channel_from_record({"n_modes": 1, "kind": "classical"})
        assert info.value.field == "Y"

    def test_bad_kind(self):
        with pytest.raises(ch.ChannelSpecError) as info:
            ch.channel_from_record({"n_modes": 1, "kind": "squeezing"})
        assert info.value.field == "kind"

    @pytest.mark.parametrize("value", [[0.5, True], [[0.5], [True]]], ids=["flat", "nested"])
    @pytest.mark.parametrize("record", [
        {"n_modes": 2, "kind": "thermal", "eta": None, "nbar": [1.0, 1.0]},
        {"n_modes": 2, "kind": "thermal", "eta": [0.5, 0.5], "nbar": None},
        {"n_modes": 1, "kind": "classical", "Y": None},
        {"n_modes": 1, "kind": "custom", "X": None, "Y": [1.0, 0.0, 0.0, 1.0]},
    ], ids=["eta", "nbar", "Y", "X"])
    def test_boolean_entry_names_the_field(self, record, value):
        field = next(key for key, entry in record.items() if entry is None)
        with pytest.raises(ch.ChannelSpecError) as raised:
            ch.channel_from_record({**record, field: value})
        assert str(raised.value) == f"channel spec field '{field}': entries must be numbers"

    def test_bad_eta_length(self):
        with pytest.raises(ch.ChannelSpecError) as info:
            ch.channel_from_record({"n_modes": 2, "kind": "thermal", "eta": [0.5], "nbar": [1.0, 1.0]})
        assert info.value.field == "eta"

    def test_records_hold_row_major_order(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])  # det -2, so Y >= 3 I makes (X, Y) completely positive
        record = ch.channel_to_record(ch.make_channel(x, np.array([[5.0, 1.0], [1.0, 4.0]])))
        assert record == {"n_modes": 1, "kind": "custom", "X": [1.0, 2.0, 3.0, 4.0], "Y": [5.0, 1.0, 1.0, 4.0]}

    def test_records_hold_python_floats(self):
        record = ch.channel_to_record(ch.make_channel(np.array([[1, 2], [3, 4]]), np.array([[5, 1], [1, 4]])))
        assert record["X"] == [1.0, 2.0, 3.0, 4.0]
        assert all(type(entry) is float for key in ("X", "Y") for entry in record[key])
        thermal = ch.channel_to_record(ch.thermal_noise(np.array([0.5]), np.array([1])))
        assert all(type(entry) is float for key in ("eta", "nbar") for entry in thermal[key])

    def test_a_matrix_reloads_bit_for_bit(self):
        x = sp.random_symplectic(2, seed=21)
        channel = ch.make_channel(x, (1.0 + np.linalg.norm(x, 2) ** 2) * np.eye(4))
        back = ch.channel_from_record(ch.channel_to_record(channel))
        np.testing.assert_array_equal(back.x, x)
        np.testing.assert_array_equal(back.y, channel.y)

    @pytest.mark.parametrize("y", [
        [[1, 0], [0, 1]], [[[1, 0]], [[0, 1]]], (1.0, 0.0, 0.0, 1.0), [np.array([1.0, 0.0]), (0.0, 1.0)],
    ], ids=["rows", "deep", "tuple", "mixed"])
    def test_a_matrix_may_nest_its_row_major_entries(self, y):
        channel = ch.channel_from_record({"n_modes": 1, "kind": "classical", "Y": y})
        np.testing.assert_array_equal(channel.y, np.eye(2))

    @pytest.mark.parametrize("record, field, reason", [
        ({"n_modes": 1, "kind": "classical", "Y": 5}, "Y", "expected 4 entries, got shape ()"),
        ({"n_modes": 1, "kind": "classical", "Y": [1.0, 0.0, 1.0]}, "Y", "expected 4 entries, got shape (3,)"),
        ({"n_modes": 1, "kind": "custom", "X": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "Y": [1.0, 0.0, 0.0, 1.0]}, "X",
         "expected 4 entries, got shape (2, 3)"),
        ({"n_modes": 1, "kind": "lossy", "eta": [[0.5]]}, "eta", "expected 1 entries, got shape (1, 1)"),
        ({"n_modes": 2, "kind": "thermal", "eta": [0.5, 0.5], "nbar": 1.0}, "nbar", "expected 2 entries, got shape ()"),
        ({"n_modes": 2, "kind": "thermal", "eta": [0.5, 0.5]}, "nbar", "missing for a thermal channel"),
        ({"n_modes": 1, "kind": "lossy", "nbar": [1.0]}, "eta", "missing for a lossy channel"),
        ({"n_modes": 1, "kind": "custom", "Y": [1.0, 0.0, 0.0, 1.0]}, "X", "missing for a custom channel"),
        ({"n_modes": 1, "kind": "classical", "Y": (v for v in [1.0, 0.0, 0.0, 1.0])}, "Y", "entries must be numbers"),
        ({"n_modes": 1, "kind": "classical", "Y": [[1.0, 0.0], [0.0]]}, "Y", "entries must be numbers"),
    ], ids=["scalar-matrix", "short-matrix", "wide-matrix", "nested-vector", "scalar-vector", "missing-nbar",
            "missing-eta", "missing-X", "generator", "ragged"])
    def test_malformed_field_is_named(self, record, field, reason):
        with pytest.raises(ch.ChannelSpecError) as raised:
            ch.channel_from_record(record)
        assert (raised.value.field, raised.value.reason) == (field, reason)

    @pytest.mark.parametrize("record, field", [
        ({"n_modes": 1, "kind": "classical", "Y": [1.0, 0.0, 0.0, -1.0]}, "Y"),
        ({"n_modes": 1, "kind": "custom", "X": [2.0, 0.0, 0.0, 2.0], "Y": [0.0, 0.0, 0.0, 0.0]}, "X/Y"),
    ], ids=["classical", "custom"])
    def test_a_refused_value_names_the_fields_of_its_kind(self, record, field):
        # A thermal or lossy record names "eta/nbar", as test_cli's invalid-file cases pin.
        with pytest.raises(ch.ChannelSpecError) as raised:
            ch.channel_from_record(record)
        assert raised.value.field == field

    def test_a_record_array_is_not_shared_with_the_channel(self):
        eta, nbar, y = np.array([0.5]), np.array([1.0]), np.eye(2)
        thermal = ch.channel_from_record({"n_modes": 1, "kind": "thermal", "eta": eta, "nbar": nbar})
        classical = ch.channel_from_record({"n_modes": 1, "kind": "classical", "Y": y})
        eta[0], nbar[0], y[0, 0] = 0.9, 2.0, 3.0
        assert (thermal.eta.tolist(), thermal.nbar.tolist()) == ([0.5], [1.0])
        assert thermal.x[0, 0] == np.sqrt(0.5)
        np.testing.assert_array_equal(classical.y, np.eye(2))

    def test_load_channel_file(self, tmp_path):
        path = tmp_path / "channel.json"
        path.write_text(json.dumps({"n_modes": 1, "kind": "lossy", "eta": [0.25]}))
        channel, omega = ch.load_channel(path)
        assert channel.kind == "lossy"
        assert_allclose(channel.eta, [0.25])
        assert omega is None

    def test_load_channel_file_with_omega(self, tmp_path):
        path = tmp_path / "channel.json"
        path.write_text(json.dumps({"n_modes": 2, "kind": "lossy", "eta": [0.25, 0.5], "omega": [1.0, 3.0]}))
        channel, omega = ch.load_channel(path)
        assert channel.n == 2
        assert_allclose(omega, [1.0, 3.0])

    def test_load_channel_omega_count_names_field(self, tmp_path):
        path = tmp_path / "channel.json"
        path.write_text(json.dumps({"n_modes": 1, "kind": "lossy", "eta": [0.25], "omega": [1.0, 3.0]}))
        with pytest.raises(ch.ChannelSpecError) as info:
            ch.load_channel(path)
        assert info.value.field == "omega"
        assert info.value.reason == "expected 1 entries, got shape (2,)"

    @pytest.mark.parametrize("omega, reason", [
        (2.0, "expected 1 entries, got shape ()"),
        ([[2.0]], "expected 1 entries, got shape (1, 1)"),
    ], ids=["scalar", "nested"])
    def test_load_channel_omega_follows_the_per_mode_rule(self, tmp_path, omega, reason):
        path = tmp_path / "channel.json"
        path.write_text(json.dumps({"n_modes": 1, "kind": "lossy", "eta": [0.25], "omega": omega}))
        with pytest.raises(ch.ChannelSpecError) as raised:
            ch.load_channel(path)
        assert (raised.value.field, raised.value.reason) == ("omega", reason)

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ch.ChannelSpecError):
            ch.load_channel(path)


@hst.composite
def valid_records(draw):
    """Records of every kind on 1 to 3 modes that describe a valid channel."""
    n = draw(hst.integers(1, 3))
    kind = draw(hst.sampled_from(("classical", "thermal", "lossy", "custom")))
    record = {"n_modes": n, "kind": kind}
    if kind in ("thermal", "lossy"):
        record["eta"] = draw(hst.lists(hst.floats(0.0, 1.0), min_size=n, max_size=n))
        if kind == "thermal":
            record["nbar"] = draw(hst.lists(hst.floats(0.0, 10.0), min_size=n, max_size=n))
        return record
    entries = hst.lists(hst.floats(-1.0, 1.0), min_size=4 * n * n, max_size=4 * n * n)
    a = np.array(draw(entries)).reshape(2 * n, 2 * n)
    x = np.array(draw(entries)).reshape(2 * n, 2 * n) if kind == "custom" else np.eye(2 * n)
    # Y >= (1 + |X|^2) I dominates i (J - X^T J X), so (X, Y) is completely positive.
    y = a @ a.T + (1.0 + np.linalg.norm(x, 2) ** 2) * np.eye(2 * n)
    record["Y"] = (0.5 * (y + y.T)).ravel().tolist()
    if kind == "custom":
        record["X"] = x.ravel().tolist()
    return record


#: Any value a JSON document can hold, NaN and Infinity literals and
#: integers beyond float range included.
json_values = hst.recursive(
    hst.none() | hst.booleans() | hst.integers() | hst.integers(min_value=2**1024) | hst.floats() | hst.text(max_size=4),
    lambda inner: hst.lists(inner, max_size=4) | hst.dictionaries(hst.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@hst.composite
def mutated_records(draw):
    """A valid record with one field dropped, replaced, or one entry changed."""
    record = draw(valid_records())
    key = draw(hst.sampled_from(sorted(record) + ["X", "Y", "eta", "nbar"]))
    action = draw(hst.sampled_from(("drop", "replace", "entry")))
    if action == "drop":
        record.pop(key, None)
    elif action == "replace" or not isinstance(record.get(key), list):
        record[key] = draw(json_values)
    else:
        record[key][draw(hst.integers(0, len(record[key]) - 1))] = draw(json_values)
    return record


@settings(derandomize=True, max_examples=300, deadline=None)
@given(valid_records())
def test_valid_records_round_trip(record):
    back = ch.channel_to_record(ch.channel_from_record(record))
    assert {key: back[key] for key in record} == record
    assert ch.channel_to_record(ch.channel_from_record(back)) == back


@settings(derandomize=True, max_examples=500, deadline=None)
@given(mutated_records())
def test_any_record_gives_a_channel_or_names_a_field(record):
    try:
        channel = ch.channel_from_record(record)
    except ch.ChannelSpecError:
        return
    assert isinstance(channel, ch.GaussianChannel)
