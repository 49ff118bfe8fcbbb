"""Gaussian channels: CP certificates, constructors, tensor products, action."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose

import cvchan.channels as ch
import cvchan.states as st
from cvchan import symplectic as sp


class TestMakeChannel:
    def test_identity_certificate_is_zero(self):
        channel = ch.make_channel(np.eye(2), np.zeros((2, 2)))
        assert channel.cp_eigenvalue == pytest.approx(0.0, abs=1e-14)
        assert channel.is_identity()

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

    def test_kind_is_not_a_parameter(self):
        # A declared kind would select closed forms that (X, Y) do not obey:
        # labelled thermal(0.5, 0), X = I and Y = 5 I would report F_2 = 4, not 24.
        with pytest.raises(TypeError):
            ch.make_channel(np.eye(2), 5.0 * np.eye(2), kind="thermal", eta=[0.5], nbar=[0.0])
        assert ch.make_channel(np.eye(2), 5.0 * np.eye(2)).kind == "custom"


class TestClassicalNoise:
    def test_zero_noise_is_identity(self):
        assert ch.classical_noise(np.zeros((2, 2))).is_identity()

    def test_output_spectrum_on_vacuum(self):
        channel = ch.classical_noise(np.diag([0.7, 0.7]))
        out = ch.apply(channel, st.vacuum(1))
        assert_allclose(out.spectrum(), [1.7], atol=1e-12)

    def test_noise_spectrum_matches_regularized_williamson(self):
        y = np.diag([2.0, 2.0, 0.0, 0.0])
        channel = ch.classical_noise(y)
        nu = ch.noise_spectrum(channel)
        # Singular directions report the epsilon-scale limit values.
        assert nu[0] <= 1e-8
        assert nu[1] == pytest.approx(2.0, abs=1e-8)

    def test_nondiagonal_noise(self):
        rot = sp.unitary_to_orthosymplectic(sp.random_unitary(1, seed=2))
        y = rot @ np.diag([3.0, 1.0]) @ rot.T
        channel = ch.classical_noise(y)
        assert_allclose(ch.noise_spectrum(channel), sp.symplectic_eigenvalues(y), atol=1e-9)


class TestThermalNoise:
    def test_full_transmission_is_identity(self):
        assert ch.thermal_noise([1.0], [2.0]).is_identity()

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

    def test_certificate_holds(self):
        channel = ch.thermal_noise([0.3, 0.9], [2.0, 0.1])
        assert channel.cp_eigenvalue >= -1e-10


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
        assert joint.kind == "classical"
        assert_allclose(joint.y, np.diag([2.0, 2.0, 1.0, 1.0]))

    def test_thermal_concatenates_parameters(self):
        joint = ch.tensor([ch.thermal_noise([0.5], [1.0]), ch.thermal_noise([0.3], [2.0])])
        assert joint.kind == "thermal"
        assert_allclose(joint.eta, [0.5, 0.3])
        assert_allclose(joint.nbar, [1.0, 2.0])

    def test_mixed_kinds_are_custom(self):
        joint = ch.tensor([ch.classical_noise(np.eye(2)), ch.thermal_noise([0.5], [1.0])])
        assert joint.kind == "custom"

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
            gamma = sp.sample_spd(rng, n, 1, (1.0, 3.0))[0]
            state = st.GaussianState(gamma, np.zeros(2 * n), np.ones(n))
            eta = rng.uniform(0.0, 1.0, n)
            nbar = rng.uniform(0.0, 2.0, n)
            out = ch.apply(ch.thermal_noise(eta, nbar), state)
            assert np.min(out.spectrum()) >= 1.0 - 1e-8

    def test_classical_optimum_witness_spectrum(self):
        # With the input aligned to the Williamson frame of Y, the output
        # spectrum is exactly 1 + nu(Y).
        rng = sp.rng_stream(5)
        y = sp.sample_spd(rng, 2, 1, (0.5, 2.5))[0]
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

    def test_missing_field_names_culprit(self):
        with pytest.raises(ch.ChannelSpecError) as info:
            ch.channel_from_record({"n_modes": 1, "kind": "classical"})
        assert info.value.field == "Y"

    def test_bad_kind(self):
        with pytest.raises(ch.ChannelSpecError) as info:
            ch.channel_from_record({"n_modes": 1, "kind": "squeezing"})
        assert info.value.field == "kind"

    def test_bad_eta_length(self):
        with pytest.raises(ch.ChannelSpecError) as info:
            ch.channel_from_record({"n_modes": 2, "kind": "thermal", "eta": [0.5], "nbar": [1.0, 1.0]})
        assert info.value.field == "eta"

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
