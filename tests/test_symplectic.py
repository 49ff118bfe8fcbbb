"""Symplectic core: forms, membership, spectra, decompositions, samplers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cvchan import symplectic as sp


J1 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def symplectic_eigenvalues_ja(a):
    """Reference spectrum: |imaginary parts| of the eigenvalues of J A.

    The eigenvalues of J A are +/- i nu_j; the nonsymmetric eigensolver is
    independent of the Cholesky route under test.  Works on stacks.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1] // 2
    ev = np.linalg.eigvals(np.kron(np.eye(n), J1) @ a)
    # |imag| holds each nu twice (from +i nu and -i nu); keep one per pair.
    return np.sort(np.abs(ev.imag), axis=-1)[..., ::2]


#: Relative agreement required between the Cholesky kernel and the J A
#: reference.  Both are backward stable, so each nu carries an absolute
#: error of a few eps * ||A||; with ||A|| <= z^2 nu_max = 64 * 4 and
#: nu_min = 0.25 that is about 1e-12 relative, and 1e-10 leaves margin.
KERNEL_RTOL = 1e-10


class TestSymplecticForm:
    def test_single_mode(self):
        assert_allclose(sp.symplectic_form(1), J1)

    def test_two_modes_block_structure(self):
        j2 = sp.symplectic_form(2)
        assert_allclose(j2[:2, :2], J1)
        assert_allclose(j2[2:, 2:], J1)
        assert_allclose(j2[:2, 2:], 0.0)
        assert_allclose(j2 @ j2, -np.eye(4))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_antisymmetry_and_orthogonality(self, n):
        j = sp.symplectic_form(n)
        assert_allclose(j.T, -j)
        assert_allclose(j @ j.T, np.eye(2 * n))

    def test_rejects_zero_modes(self):
        with pytest.raises(sp.DimensionError):
            sp.symplectic_form(0)

    def test_cached_and_read_only(self):
        j = sp.symplectic_form(3)
        assert sp.symplectic_form(3) is j
        assert not j.flags.writeable
        with pytest.raises(ValueError):
            j[0, 0] = 1.0


class TestIsSymplectic:
    def test_identity(self):
        ok, res = sp.is_symplectic(np.eye(6))
        assert ok and res == 0.0

    def test_form_itself_is_symplectic(self):
        # J J J^T = J by direct matrix arithmetic.
        j = sp.symplectic_form(2)
        ok, res = sp.is_symplectic(j)
        assert ok
        assert res <= 1e-15

    def test_scaling_residual(self):
        # (2I) J (2I)^T = 4J, so the residual is ||3J||_max = 3.
        ok, res = sp.is_symplectic(2.0 * np.eye(2))
        assert not ok
        assert res == pytest.approx(3.0, abs=1e-14)

    def test_odd_dimension_rejected(self):
        with pytest.raises(sp.DimensionError):
            sp.is_symplectic(np.eye(3))


@pytest.mark.parametrize("function", [sp.is_symplectic, sp.symplectic_eigenvalues, sp.williamson,
                                      sp.euler_decompose, sp.symplectic_inverse, sp.symplectic_residual])
def test_empty_matrix_rejected(function):
    with pytest.raises(sp.DimensionError):
        function(np.zeros((0, 0)))


class TestSymplecticEigenvalues:
    def test_identity(self):
        assert_allclose(sp.symplectic_eigenvalues(np.eye(8)), np.ones(4))

    def test_single_mode_diag(self):
        # Eigenvalues of J diag(4, 1) are +/- 2i.
        assert_allclose(sp.symplectic_eigenvalues(np.diag([4.0, 1.0])), [2.0])

    def test_paired_diagonal_read_off(self):
        a = np.diag([1.5, 1.5, 3.0, 3.0])
        assert_allclose(sp.symplectic_eigenvalues(a), [1.5, 3.0])

    def test_agrees_with_ja_eigenvalue_oracle(self):
        for seed in range(30):
            n = 1 + seed % 4
            a = sp.random_spd(n, (0.4, 5.0), seed=seed)
            assert_allclose(
                sp.symplectic_eigenvalues(a),
                symplectic_eigenvalues_ja(a),
                atol=1e-9,
            )

    def test_congruence_invariance(self):
        for seed in range(20):
            n = 1 + seed % 3
            a = sp.random_spd(n, (0.5, 4.0), seed=seed)
            s = sp.random_symplectic(n, seed=seed + 100)
            assert_allclose(
                sp.symplectic_eigenvalues(s @ a @ s.T),
                sp.symplectic_eigenvalues(a),
                atol=1e-8,
            )

    def test_rejects_nonsymmetric(self):
        with pytest.raises(sp.NotPositiveDefiniteError):
            sp.symplectic_eigenvalues(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(sp.NotPositiveDefiniteError, match="non-finite"):
            sp.symplectic_eigenvalues(np.diag([bad, 1.0]))

    @pytest.mark.parametrize("function", [sp.symplectic_eigenvalues, sp.williamson])
    @pytest.mark.parametrize("where", [(0, 0), (2, 1)], ids=["diagonal", "off-diagonal"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_message(self, function, where, bad):
        # Finiteness is checked before symmetry, so an entry off the diagonal is named non-finite too.
        a = np.eye(4)
        a[where] = bad
        with pytest.raises(sp.NotPositiveDefiniteError, match=r"^matrix has non-finite entries$"):
            function(a)

    @pytest.mark.parametrize("function", [sp.symplectic_eigenvalues, sp.williamson])
    def test_asymmetry_is_measured_against_the_largest_entry(self, function):
        a = np.diag([1e3, 1e3, 1.0, 1.0])
        a[0, 1] = 1e-8  # within TOL_SYM of the largest entry
        function(a)
        a[0, 1] = 1e-6
        with pytest.raises(sp.NotPositiveDefiniteError, match=r"^matrix is not symmetric \(residual 1\.000e-06\)$"):
            function(a)

    def test_rejects_indefinite_with_diagnostic(self):
        with pytest.raises(sp.NotPositiveDefiniteError, match="-1"):
            sp.symplectic_eigenvalues(np.diag([1.0, -1.0]))

    def test_numerically_singular_is_named_so(self):
        # No eigenvalue is negative, yet Cholesky breaks down: they run from about 5e-7 to 1e10.
        rot = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
        with pytest.raises(
            sp.NotPositiveDefiniteError,
            match=r"^matrix is numerically singular \(eigenvalues [0-9]\.[0-9]{3}e-0[67] to 1\.000e\+10\)$",
        ):
            sp.symplectic_eigenvalues(rot @ np.diag([1e10, 1e-9]) @ rot.T)


class TestSpectrumKernel:
    """The unvalidated kernel against the J A reference, scalar and batched."""

    @staticmethod
    def stack(n, nu_range, seed, count=64):
        # S diag(nu, nu) S^T with squeezings up to 8, past the (1, 3) that sample_spd draws.
        rng = sp.rng_stream(seed, n)
        s = sp.sample_symplectics(rng, n, count, (1.0, 8.0))
        d = np.repeat(rng.uniform(*nu_range, (count, n)), 2, axis=1)
        return s @ (d[:, :, None] * np.swapaxes(s, -1, -2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_scalar_inputs(self, n):
        for a in self.stack(n, (0.25, 4.0), seed=1, count=16):
            assert_allclose(sp._spectrum(a), symplectic_eigenvalues_ja(a), rtol=KERNEL_RTOL, atol=0.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "nu_range", [(0.25, 4.0), (0.25, 1.0), (1.5, 1.5)], ids=["wide", "below-one", "degenerate"]
    )
    def test_batched_stack(self, n, nu_range):
        a = self.stack(n, nu_range, seed=2)
        got = sp._spectrum(a)
        assert got.shape == (64, n)
        assert_allclose(got, symplectic_eigenvalues_ja(a), rtol=KERNEL_RTOL, atol=0.0)
        assert np.all(np.diff(got, axis=1) >= 0.0)

    def test_batch_matches_scalar_calls(self):
        a = self.stack(3, (0.25, 4.0), seed=3, count=8)
        assert_allclose(sp._spectrum(a), [sp.symplectic_eigenvalues(m) for m in a], rtol=1e-13, atol=0.0)

    def test_heavy_squeezing_degenerate(self):
        # z = 8 in every mode and one repeated nu: ||A|| = 64 nu.
        s = sp.symplectic_from_factors(
            sp.random_unitary(4, seed=5), np.full(4, 8.0), sp.random_unitary(4, seed=6)
        )
        a = s @ (0.25 * s.T)
        assert_allclose(sp._spectrum(a), np.full(4, 0.25), rtol=KERNEL_RTOL, atol=0.0)
        assert_allclose(sp._spectrum(a), symplectic_eigenvalues_ja(a), rtol=KERNEL_RTOL, atol=0.0)

    def test_indefinite_raises_linalg_error(self):
        with pytest.raises(np.linalg.LinAlgError):
            sp._spectrum(np.diag([1.0, -1.0]))
        with pytest.raises(np.linalg.LinAlgError):
            sp._spectrum(np.stack([np.eye(2), np.diag([1.0, 0.0])]))


class TestWilliamson:
    def test_paired_diagonal_input(self):
        a = np.diag([1.2, 1.2, 2.5, 2.5])
        dec = sp.williamson(a)
        assert_allclose(dec.spectrum, [1.2, 2.5], atol=1e-12)
        assert_allclose(dec.s @ a @ dec.s.T, dec.diagonal, atol=sp.TOL_DECOMP)

    def test_single_mode_example(self):
        a = np.diag([1.0, 4.0])
        dec = sp.williamson(a)
        assert_allclose(dec.spectrum, [2.0], atol=1e-12)
        assert_allclose(dec.s @ a @ dec.s.T, np.diag([2.0, 2.0]), atol=1e-10)
        assert sp.is_symplectic(dec.s).ok

    def test_random_covariance_postconditions(self):
        a = sp.random_covariance(3, (1.0, 3.0), seed=42)
        dec = sp.williamson(a)
        assert sp.is_symplectic(dec.s).ok
        assert np.max(np.abs(dec.s @ a @ dec.s.T - dec.diagonal)) <= sp.TOL_DECOMP

    def test_degenerate_spectrum(self):
        a = np.diag([3.0, 3.0, 3.0, 3.0])
        dec = sp.williamson(a)
        assert_allclose(dec.spectrum, [3.0, 3.0], atol=1e-12)
        assert sp.is_symplectic(dec.s).ok

    def test_spectrum_matches_independent_path(self):
        # williamson shares the Cholesky route of symplectic_eigenvalues, so
        # the reference is the J A eigenvalue oracle.
        for seed in range(25):
            n = 1 + seed % 4
            a = sp.random_spd(n, (0.5, 4.0), seed=seed)
            assert_allclose(
                sp.williamson(a).spectrum,
                symplectic_eigenvalues_ja(a),
                atol=1e-8,
            )

    @pytest.mark.parametrize("case", range(5))
    def test_degenerate_clusters_scrambled(self, case):
        # Repeated symplectic eigenvalues hidden by a random congruence.
        for seed in range(20):
            rng = sp.rng_stream(seed, 999 + case)
            n = int(rng.integers(2, 5))
            if case == 0:
                nu = np.full(n, 2.5)
            elif case == 1:
                nu = np.repeat([1.5, 3.0], [n - n // 2, n // 2])
            elif case == 2:
                nu = np.ones(n)
            elif case == 3:
                nu = np.full(n, 2.0)
                nu[0] = 2.0 + 1e-13
            else:
                # Splits of 1e-9 to 1e-7: distinct, yet close enough to
                # defeat any cluster-width heuristic.
                nu = 2.0 + (1e-9, 1e-8, 1e-7)[seed % 3] * np.arange(n)
            s = sp.sample_symplectics(rng, n, 1, (1.0, 4.0))[0]
            si = sp.symplectic_inverse(s)
            a = si @ np.diag(np.repeat(nu, 2)) @ si.T
            dec = sp.williamson(a)
            assert np.max(np.abs(dec.s @ a @ dec.s.T - dec.diagonal)) <= 1e-9
            assert sp.symplectic_residual(dec.s) <= 1e-9


def williamson_steps(a):
    """Reference: ``williamson``'s construction as it was written before the kernel, one matrix at a time."""
    n = a.shape[0] // 2
    l = np.linalg.cholesky(a)
    values, vectors = np.linalg.eigh(1j * (l.T @ sp.symplectic_form(n) @ l))
    u = np.sqrt(2.0) * vectors[:, n:]
    o = np.empty((2 * n, 2 * n))
    o[:, 0::2] = u.imag
    o[:, 1::2] = u.real
    return values[n:], np.sqrt(np.repeat(values[n:], 2))[:, None] * np.linalg.solve(l.T, o).T


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestFramesKernel:
    """``_frames`` is ``williamson``'s construction unvalidated: it and
    ``williamson`` give the construction's spectrum and frame bit for bit,
    one matrix at a time and for every matrix of a stack."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_is_williamson_bit_for_bit(self, n):
        mats = [sp.random_spd(n, (0.5, 4.0), seed=seed) for seed in range(200)]
        nus, frames = sp._frames(np.array(mats))
        assert nus.shape == (200, n) and frames.shape == (200, 2 * n, 2 * n)
        for a, nu, s in zip(mats, nus, frames):
            nu_ref, s_ref = williamson_steps(a)
            dec, (nu_alone, s_alone) = sp.williamson(a), sp._frames(a)
            assert all(same_bits(kernel, nu_ref) for kernel in (nu, nu_alone, dec.spectrum))
            assert all(same_bits(kernel, s_ref) for kernel in (s, s_alone, dec.s))
            assert sp.symplectic_residual(s) <= 1e-9

    def test_indefinite_raises_linalg_error(self):
        with pytest.raises(np.linalg.LinAlgError):
            sp._frames(np.stack([np.eye(2), np.diag([1.0, -1.0])]))

    def test_williamson_names_the_failure(self):
        # The kernel's factorization fails; the wrapper reports it with the eigenvalues of A.
        with pytest.raises(sp.NotPositiveDefiniteError, match="minimum eigenvalue -1.000e"):
            sp.williamson(np.diag([1.0, -1.0]))


@st.composite
def williamson_inputs(draw):
    """SPD matrices S^{-1} D S^{-T} with exact and near repeats in the
    spectrum D (nu in [0.25, 4]) and squeezings z in [1, 4]."""
    n = draw(st.integers(1, 4))
    nu = [draw(st.floats(0.25, 4.0))]
    for _ in range(n - 1):
        step = draw(st.sampled_from([None, 0.0, 1e-13, 1e-9, 1e-7]))
        nu.append(draw(st.floats(0.25, 4.0)) if step is None else min(nu[-1] + step, 4.0))
    z = draw(st.lists(st.floats(1.0, 4.0), min_size=n, max_size=n))
    rng = sp.rng_stream(draw(st.integers(0, 2**32 - 1)))
    s = sp.symplectic_from_factors(sp._haar_unitary(rng, n, 1)[0], np.array(z), sp._haar_unitary(rng, n, 1)[0])
    si = sp.symplectic_inverse(s)
    return si @ np.diag(np.repeat(nu, 2)) @ si.T


@settings(derandomize=True, max_examples=300, deadline=None)
@given(williamson_inputs())
def test_williamson_property(a):
    dec = sp.williamson(a)
    assert np.max(np.abs(dec.s @ a @ dec.s.T - dec.diagonal)) <= 1e-9
    assert sp.symplectic_residual(dec.s) <= 1e-9
    assert_allclose(dec.spectrum, symplectic_eigenvalues_ja(a), rtol=KERNEL_RTOL, atol=0.0)


@st.composite
def euler_inputs(draw):
    """Symplectic T(U1) Z T(U2) with exact and near repeats among the
    squeezings z in [1, 4], around z = 1 and above it."""
    n = draw(st.integers(1, 4))
    fresh = st.one_of(st.just(1.0), st.floats(1.0, 4.0))
    z = [draw(fresh)]
    for _ in range(n - 1):
        step = draw(st.sampled_from([None, 0.0, 1e-13, 1e-9, 1e-7]))
        z.append(draw(fresh) if step is None else min(z[-1] + step, 4.0))
    rng = sp.rng_stream(draw(st.integers(0, 2**32 - 1)))
    z = np.array(z)
    return sp.symplectic_from_factors(sp._haar_unitary(rng, n, 1)[0], z, sp._haar_unitary(rng, n, 1)[0]), z


@settings(derandomize=True, max_examples=300, deadline=None)
@given(euler_inputs())
def test_euler_property(case):
    s, z = case
    dec = sp.euler_decompose(s)
    assert np.max(np.abs(dec.t1 @ dec.z_matrix @ dec.t2 - s)) <= 1e-10
    for t in (dec.t1, dec.t2):
        assert max(sp.symplectic_residual(t), sp.orthogonality_residual(t)) <= 1e-10
    assert_allclose(dec.z, np.sort(z)[::-1], rtol=1e-10, atol=0.0)


class TestEulerDecomposition:
    def test_orthosymplectic_input_gives_unit_squeezing(self):
        t = sp.unitary_to_orthosymplectic(sp.random_unitary(3, seed=5))
        dec = sp.euler_decompose(t)
        assert_allclose(dec.z, np.ones(3), atol=1e-12)

    def test_single_mode_squeeze(self):
        dec = sp.euler_decompose(np.diag([3.0, 1.0 / 3.0]))
        assert_allclose(dec.z, [3.0], atol=1e-12)
        recomposed = dec.t1 @ dec.z_matrix @ dec.t2
        assert_allclose(recomposed, np.diag([3.0, 1.0 / 3.0]), atol=1e-12)

    def test_random_recomposition(self):
        s = sp.random_symplectic(2, (1.0, 4.0), seed=7)
        dec = sp.euler_decompose(s)
        assert np.max(np.abs(dec.t1 @ dec.z_matrix @ dec.t2 - s)) <= sp.TOL_DECOMP
        for t in (dec.t1, dec.t2):
            assert sp.symplectic_residual(t) <= sp.TOL_SYM
            assert sp.orthogonality_residual(t) <= sp.TOL_SYM
        assert np.all(dec.z >= 1.0 - 1e-12)
        assert np.all(np.diff(dec.z) <= 1e-12)  # descending

    def test_rejects_nonsymplectic(self):
        with pytest.raises(sp.NotSymplecticError):
            sp.euler_decompose(2.0 * np.eye(2))

    @pytest.mark.parametrize("factor", ["T1", "T2"])
    def test_factor_leaving_k_n_is_named(self, factor, monkeypatch):
        # The first K(n) embedding is C, whose transpose is T2, the second is T1.  T1 is rebuilt from
        # the even columns of S C Z^-1, so stretching the odd columns of C moves T2 alone.
        s, embed, factors = sp.random_symplectic(3, (1.0, 4.0), seed=2), sp._embed_unitary, []

        def stretched(u):
            t = embed(u)
            if factor == "T2" and not factors:
                t[:, 1::2] *= 1.001
            elif factor == "T1" and factors:
                t *= 1.001
            factors.append(t)
            return t

        monkeypatch.setattr(sp, "_embed_unitary", stretched)
        with pytest.raises(ArithmeticError) as raised:
            sp.euler_decompose(s)
        t = factors[1] if factor == "T1" else factors[0].T
        worst = max(sp.symplectic_residual(t), sp.orthogonality_residual(t))
        assert worst > sp.TOL_SYM
        assert str(raised.value) == f"Euler factor {factor} leaves K(n) (residual {worst:.3e})"

    @pytest.mark.parametrize("case", range(12))
    def test_repeated_and_unit_squeezings(self, case):
        # Degenerate z clusters, exact and near-unit squeezings, and two wide
        # log-uniform ranges; case 11 holds the 3-mode inputs with z up to
        # 3000 whose rounding in S C Z^-1 once left T1 outside K(n).
        decomposed = 0
        for seed in range(50 if case == 11 else 20):
            rng = sp.rng_stream(seed, 7 if case == 11 else 1001 + case)
            n = 3 if case == 11 else int(rng.integers(2, 5))
            if case == 0:
                z = np.full(n, 2.0)
            elif case == 1:
                z = np.ones(n)
            elif case == 2:
                z = np.ones(n)
                z[0] = 3.0
            elif case == 3:
                z = np.full(n, 1.0 + 1e-14)
                z[-1] = 2.0
            elif case < 10:
                # Splits of 1e-12 to 1e-7 above 1: distinct squeezings, yet
                # close enough to 1 to defeat any cluster-width heuristic;
                # cases 7 to 9 add one z = 2 mode.
                z = 1.0 + (1e-12, 1e-9, 1e-7)[(case - 4) % 3] * np.arange(1, n + 1)
                if case >= 7:
                    z[0] = 2.0
            else:
                z = np.exp(rng.uniform(0.0, np.log(300.0 if case == 10 else 3000.0), n))
            s = sp.symplectic_from_factors(sp._haar_unitary(rng, n, 1)[0], z, sp._haar_unitary(rng, n, 1)[0])
            if case == 11 and not sp.is_symplectic(s).ok:
                continue  # building S at z ~ 3000 can itself round past the input check
            dec = sp.euler_decompose(s)
            decomposed += 1
            assert np.max(np.abs(dec.t1 @ dec.z_matrix @ dec.t2 - s)) <= 1e-10
            for t in (dec.t1, dec.t2):
                assert max(sp.symplectic_residual(t), sp.orthogonality_residual(t)) <= 1e-10
        assert decomposed == (48 if case == 11 else 20)


def phase_fixed_qr(z):
    """Reference Haar map: LAPACK QR of the draws, with the phases of diag(R)
    moved into Q so that R has a positive diagonal (Mezzadri, 2007)."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


class TestHaarUnitary:
    @pytest.mark.parametrize("size", [None, 2048])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_phase_fixed_qr_of_the_same_draws(self, n, size):
        # Size None is one matrix, read from a batch of one.
        shape = (n, n) if size is None else (size, n, n)
        for seed in range(3):
            rng, twin = sp.rng_stream(seed, n), sp.rng_stream(seed, n)
            u = sp._haar_unitary(rng, n, 1)[0] if size is None else sp._haar_unitary(rng, n, size)
            z = (twin.standard_normal(shape) + 1j * twin.standard_normal(shape)) / np.sqrt(2.0)
            assert u.shape == shape
            assert np.max(np.abs(u - phase_fixed_qr(z))) <= 1e-11
            assert np.max(np.abs(np.conj(np.swapaxes(u, -1, -2)) @ u - np.eye(n))) <= 1e-14

    @pytest.mark.parametrize("size", [1, 2048])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stream_does_not_shift(self, n, size):
        # The sampler reads exactly its 2 size n^2 normals, so every stream
        # after it stays where it was.
        rng, twin = sp.rng_stream(5, n), sp.rng_stream(5, n)
        sp._haar_unitary(rng, n, size)
        twin.standard_normal(2 * size * n * n)
        assert rng.standard_normal(3).tolist() == twin.standard_normal(3).tolist()

    @pytest.mark.parametrize("size", [None, 1, 5, 2500])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_gram_schmidt_with_linalg_norm_bit_for_bit(self, n, size):
        # The sampler spells out the norm and conjugates each column's basis
        # once; the draws it returns are those of the plain loop below.  Size
        # None is random_unitary, the loop on the (n, n) draw of its seed.
        if size is None:
            u, twin, shape = sp.random_unitary(n, seed=8), sp.rng_stream(8), (n, n)
        else:
            twin, shape = sp.rng_stream(8, n), (size, n, n)
            u = sp._haar_unitary(sp.rng_stream(8, n), n, size)
        z = (twin.standard_normal(shape) + 1j * twin.standard_normal(shape)) / np.sqrt(2.0)
        q = np.empty_like(z)
        for j in range(n):
            v = z[..., :, j]
            for _ in range(2 if j else 0):
                done = q[..., :, :j]
                v = v - np.einsum("...ik,...k->...i", done, np.einsum("...ik,...i->...k", done.conj(), v))
            q[..., :, j] = v / np.linalg.norm(v, axis=-1, keepdims=True)
        assert np.array_equal(u, q)


def embed_by_zero_fill(u):
    """Reference K(n) embedding: a zero matrix and the four strided block writes."""
    n = u.shape[-1]
    t = np.zeros(u.shape[:-2] + (2 * n, 2 * n))
    t[..., 0::2, 0::2] = u.real
    t[..., 1::2, 1::2] = u.real
    t[..., 0::2, 1::2] = u.imag
    t[..., 1::2, 0::2] = -u.imag
    return t


class TestEmbedUnitary:
    @pytest.mark.parametrize("size", [None, 1, 5, 2048])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_zero_filled_build_bit_for_bit(self, n, size):
        # Signed zeros included: the identity's -Im is -0.0 below the diagonal.
        draws = sp._haar_unitary(sp.rng_stream(6, n), n, size or 1)
        # Size None is one matrix, as euler_decompose and unitary_to_orthosymplectic embed.
        haar = draws[0] if size is None else draws
        for u in (haar, np.broadcast_to(np.eye(n, dtype=complex), haar.shape)):
            # Freed NaN memory of the image's size, which an unwritten entry would read.
            stale = np.full(u.shape[:-2] + (2 * n, 2 * n), np.nan)
            del stale
            t, ref = sp._embed_unitary(u), embed_by_zero_fill(u)
            assert np.array_equal(t, ref)
            assert np.array_equal(np.signbit(t), np.signbit(ref))


def embed_by_entries(u):
    """The K(n) embedding entry by entry: block (j, k) is [[Re u_jk, Im u_jk], [-Im u_jk, Re u_jk]]."""
    n = u.shape[-1]
    t = np.empty(u.shape[:-2] + (2 * n, 2 * n))
    for *index, j, k in np.ndindex(u.shape):
        z = u[(*index, j, k)]
        t[(*index, 2 * j, 2 * k)], t[(*index, 2 * j, 2 * k + 1)] = z.real, z.imag
        t[(*index, 2 * j + 1, 2 * k)], t[(*index, 2 * j + 1, 2 * k + 1)] = -z.imag, z.real
    return t


def inverse_by_entries(s):
    """J S^T J^T entry by entry: block (k, l) is [[S_{2l+1,2k+1}, -S_{2l,2k+1}], [-S_{2l+1,2k}, S_{2l,2k}]]."""
    n = s.shape[-1] // 2
    out = np.empty(s.shape)
    for *index, k, l in np.ndindex(s.shape[:-2] + (n, n)):
        at = lambda row, column: (*index, row, column)
        out[at(2 * k, 2 * l)], out[at(2 * k, 2 * l + 1)] = s[at(2 * l + 1, 2 * k + 1)], -s[at(2 * l, 2 * k + 1)]
        out[at(2 * k + 1, 2 * l)], out[at(2 * k + 1, 2 * l + 1)] = -s[at(2 * l + 1, 2 * k)], s[at(2 * l, 2 * k)]
    return out


def layouts(stack):
    """Views of a (3, 2m, m) stack: its square top as a C-ordered copy, transposed,
    conjugated, conjugate-transposed, its even rows, and 2-D and size-1 stacks of them."""
    top = stack[:, : stack.shape[-1]]
    return {"C": np.ascontiguousarray(top), "transposed": top.swapaxes(-1, -2), "conjugated": top.conj(),
            "adjoint": top.conj().swapaxes(-1, -2), "rows": stack[:, ::2],
            "rows transposed": stack[:, ::2].swapaxes(-1, -2), "2-D": np.ascontiguousarray(top[0]),
            "2-D transposed": top[0].T, "size-1": top[:1], "size-1 transposed": top[:1].swapaxes(-1, -2)}


class TestStridedLayouts:
    """The strided block writes hold on every layout: numpy 2.4.6 computes
    ``np.negative(view, out=strided)`` wrongly for some transposed strided inputs."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_embed_unitary(self, n):
        rng = sp.rng_stream(9, n)
        stack = rng.normal(size=(3, 2 * n, n)) + 1j * rng.normal(size=(3, 2 * n, n))
        for name, u in layouts(stack).items():
            assert np.array_equal(sp._embed_unitary(u), embed_by_entries(u)), name

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_inverse(self, n):
        for name, s in layouts(sp.rng_stream(10, n).normal(size=(3, 4 * n, 2 * n))).items():
            assert np.array_equal(sp._inverse(s), inverse_by_entries(s)), name


class TestInverse:
    @pytest.mark.parametrize("size", [None, 1, 2048])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_is_the_product_by_j_bit_for_bit(self, n, size):
        s = sp.sample_symplectics(sp.rng_stream(5, n), n, size or 1, (1.0, 3.0))
        s = s[0] if size is None else s
        j = sp.symplectic_form(n)
        product = j @ np.swapaxes(s, -1, -2) @ j.T
        inverse = sp._inverse(s) if size else sp.symplectic_inverse(s)
        assert np.array_equal(inverse, product) and np.array_equal(np.signbit(inverse), np.signbit(product))
        assert_allclose(inverse @ s, np.broadcast_to(np.eye(2 * n), s.shape), atol=1e-12)


class TestSampleSymplectics:
    @pytest.mark.parametrize("log_squeeze", [False, True])
    @pytest.mark.parametrize("count", [1, 5, 2048])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_is_its_euler_form_bit_for_bit(self, n, count, log_squeeze):
        # T(U1) Z T(U2): two Haar stacks, then the squeezings, from one stream.
        rng, twin = sp.rng_stream(4, n, count), sp.rng_stream(4, n, count)
        s = sp.sample_symplectics(rng, n, count, (1.0, 8.0), log_squeeze=log_squeeze)
        u1, u2 = sp._haar_unitary(twin, n, count), sp._haar_unitary(twin, n, count)
        z = np.exp(twin.uniform(0.0, np.log(8.0), (count, n))) if log_squeeze else twin.uniform(1.0, 8.0, (count, n))
        assert np.array_equal(s, sp._euler_form(sp._embed_unitary(u1), z, sp._embed_unitary(u2)))
        assert rng.standard_normal(3).tolist() == twin.standard_normal(3).tolist()


class TestUnitaryIsomorphism:
    def test_identity_maps_to_identity(self):
        assert_allclose(sp.unitary_to_orthosymplectic(np.eye(3)), np.eye(6))

    def test_phase_i_maps_to_form(self):
        t = sp.unitary_to_orthosymplectic(np.array([[1j]]))
        assert_allclose(t, np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_image_is_in_k_n(self):
        t = sp.unitary_to_orthosymplectic(sp.random_unitary(4, seed=3))
        assert sp.symplectic_residual(t) <= sp.TOL_SYM
        assert sp.orthogonality_residual(t) <= sp.TOL_SYM

    def test_homomorphism(self):
        u = sp.random_unitary(3, seed=11)
        v = sp.random_unitary(3, seed=12)
        lhs = sp.unitary_to_orthosymplectic(u @ v)
        rhs = sp.unitary_to_orthosymplectic(u) @ sp.unitary_to_orthosymplectic(v)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_round_trip(self):
        for seed in (13, 14, 15):
            u = sp.random_unitary(3, seed=seed)
            back = sp.orthosymplectic_to_unitary(sp.unitary_to_orthosymplectic(u))
            assert np.max(np.abs(back - u)) <= 1e-12

    def test_round_trip_of_phase(self):
        u = np.array([[1j]])
        back = sp.orthosymplectic_to_unitary(sp.unitary_to_orthosymplectic(u))
        assert_allclose(back, u)

    def test_identity_inverse(self):
        assert_allclose(sp.orthosymplectic_to_unitary(np.eye(4)), np.eye(2))

    def test_rejects_non_unitary(self):
        with pytest.raises(sp.NotSymplecticError):
            sp.unitary_to_orthosymplectic(2.0 * np.eye(2, dtype=complex))

    def test_rejects_outside_k_n(self):
        with pytest.raises(sp.NotSymplecticError):
            sp.orthosymplectic_to_unitary(np.diag([2.0, 0.5]))


class TestRandomGenerators:
    def test_random_symplectic_passes_membership(self):
        s = sp.random_symplectic(2, (1.0, 4.0), seed=1)
        ok, res = sp.is_symplectic(s)
        assert ok, res

    def test_unit_squeeze_range_gives_orthogonal(self):
        s = sp.random_symplectic(3, (1.0, 1.0), seed=2)
        assert sp.orthogonality_residual(s) <= sp.TOL_SYM

    def test_determinism(self):
        a = sp.random_symplectic(2, (1.0, 4.0), seed=9)
        b = sp.random_symplectic(2, (1.0, 4.0), seed=9)
        assert np.array_equal(a, b)

    def test_rejects_bad_squeeze_range(self):
        for squeeze_range in ((0.5, 2.0), (1.0, np.inf), (np.nan, 2.0), (1.0, np.nan)):
            with pytest.raises(ValueError):
                sp.random_symplectic(1, squeeze_range, seed=0)

    def test_random_covariance_pure_has_unit_determinant(self):
        gamma = sp.random_covariance(2, (1.0, 1.0), seed=3)
        assert abs(np.linalg.det(gamma) - 1.0) <= 1e-8

    def test_random_covariance_spectrum_in_range(self):
        gamma = sp.random_covariance(2, (1.0, 3.0), seed=5)
        nu = sp.symplectic_eigenvalues(gamma)
        assert np.all(nu >= 1.0 - 1e-8)
        assert np.all(nu <= 3.0 + 1e-8)

    def test_random_covariance_rejects_unphysical_range(self):
        for nu_range in ((0.5, 2.0), (np.nan, 3.0), (1.0, np.inf), (1.0, np.nan)):
            with pytest.raises(ValueError):
                sp.random_covariance(1, nu_range, seed=0)

    def test_random_spd_rejects_bad_range(self):
        for nu_range in ((0.0, 2.0), (2.0, 1.0), (0.5, np.inf), (np.nan, 2.0), (0.5, np.nan)):
            with pytest.raises(ValueError, match="spectrum range"):
                sp.random_spd(2, nu_range, seed=0)

    @pytest.mark.parametrize("sample", [sp.random_unitary, sp.random_symplectic, lambda n: sp.random_spd(n, (1.0, 2.0))],
                             ids=["unitary", "symplectic", "spd"])
    @pytest.mark.parametrize("n", [0, -1])
    def test_mode_count_validated(self, sample, n):
        with pytest.raises(sp.DimensionError, match="mode count must be >= 1"):
            sample(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_drawn_spectra_come_with_the_sample_spd_stack(self, n):
        # The spectra returned are the drawn ones, ascending, and those of the
        # returned stack to rounding; the sampler reads one symplectic draw
        # and n uniforms per matrix, so its stream ends level with a twin's.
        rng, twin = sp.rng_stream(12, n), sp.rng_stream(12, n)
        a, nu = sp.sample_spd(rng, n, 256, (0.25, 4.0))
        sp.sample_symplectics(twin, n, 256, (1.0, 3.0))
        twin.uniform(size=256 * n)
        assert rng.standard_normal(3).tolist() == twin.standard_normal(3).tolist()
        assert a.shape == (256, 2 * n, 2 * n)
        assert nu.shape == (256, n) and np.all(np.diff(nu, axis=1) >= 0.0)
        assert np.all((0.25 <= nu) & (nu <= 4.0))
        assert_allclose(nu, sp._spectrum(a), rtol=1e-12, atol=0.0)

    def test_random_spd_allows_small_spectra(self):
        a = sp.random_spd(2, (0.2, 0.9), seed=4)
        nu = sp.symplectic_eigenvalues(a)
        assert np.all(nu < 1.0)

    def test_spectrum_invariant_under_recongruence(self):
        gamma = sp.random_covariance(2, (1.0, 3.0), seed=6)
        s = sp.random_symplectic(2, (1.0, 3.0), seed=7)
        assert_allclose(
            sp.symplectic_eigenvalues(s @ gamma @ s.T),
            sp.symplectic_eigenvalues(gamma),
            atol=1e-8,
        )


class TestTruncateRows:
    def test_full_truncation_is_identity_operation(self):
        s = sp.random_symplectic(2, seed=8)
        assert_allclose(sp.truncate_rows(s, 2), s)

    def test_identity_rows(self):
        sk = sp.truncate_rows(np.eye(6), 2)
        assert_allclose(sk, np.eye(6)[:4])
        assert sp.truncation_residual(sk, 3) == 0.0

    def test_random_truncation_residual(self):
        s = sp.random_symplectic(3, seed=3)
        sk = sp.truncate_rows(s, 2)
        assert sp.truncation_residual(sk, 3) <= sp.TOL_SYM

    def test_rejects_out_of_range(self):
        s = sp.random_symplectic(2, seed=1)
        with pytest.raises(sp.DimensionError):
            sp.truncate_rows(s, 3)
        with pytest.raises(sp.DimensionError):
            sp.truncate_rows(s, 0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: sp.unitary_to_orthosymplectic(np.ones((2, 3))), sp.DimensionError, r"square matrix, got shape \(2, 3\)"),
    (lambda: sp.truncation_residual(np.ones((3, 4)), 2), sp.DimensionError, r"2k x 4 matrix, got shape \(3, 4\)"),
    (lambda: sp.truncate_rows(np.diag([2.0, 1.0, 1.0, 1.0]), 1), sp.NotSymplecticError, r"residual 1\.000e\+00"),
], ids=["unitary_to_orthosymplectic", "truncation_residual", "truncate_rows"])
def test_malformed_input_is_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("call, error, message", [
    (lambda: sp.unitary_to_orthosymplectic(np.array([[np.nan]])), sp.NotSymplecticError,
     r"not unitary \(residual nan"),
    (lambda: sp.orthosymplectic_to_unitary(np.full((2, 2), np.nan)), sp.NotSymplecticError,
     r"in K\(n\) \(residual nan"),
    (lambda: sp.truncate_rows(np.full((4, 4), np.nan), 1), sp.NotSymplecticError, r"relation \(residual nan\)"),
    (lambda: sp.symplectic_from_factors(np.eye(1), [0.0], np.eye(1)), ValueError, r"finite and > 0, got \[0\.\]"),
    (lambda: sp.symplectic_from_factors(np.eye(1), [-1.0], np.eye(1)), ValueError, r"finite and > 0, got \[-1\.\]"),
    (lambda: sp.symplectic_from_factors(np.eye(1), [np.nan], np.eye(1)), ValueError, r"finite and > 0, got \[nan\]"),
    (lambda: sp.symplectic_from_factors(np.eye(2), [2.0, np.inf], np.eye(2)), ValueError,
     r"finite and > 0, got \[ 2\. inf\]"),
], ids=["unitary_to_orthosymplectic-nan", "orthosymplectic_to_unitary-nan", "truncate_rows-nan",
        "symplectic_from_factors-zero", "symplectic_from_factors-negative", "symplectic_from_factors-nan",
        "symplectic_from_factors-inf"])
def test_non_finite_input_is_refused(call, error, message):
    # A NaN residual fails every comparison, so a guard that raises on "res > tol" lets it through.
    with pytest.raises(error, match=message):
        call()
