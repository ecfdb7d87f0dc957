import warnings

import numpy as np
import pytest

from quasinv.numerics import (
    ConvergenceError,
    RngStream,
    _signed,
    ball_samples,
    eig_herm4,
    eig_sym4,
    eigh_desc,
    sample_ball,
    sample_sphere4,
    sphere4_samples,
    sphere_samples,
    substream,
)


def random_symmetric(rng, n=4, scale=1.0):
    a = rng.normals(n * n).reshape(n, n) * scale
    return 0.5 * (a + a.T)


class TestEigSym4:
    def test_diagonal(self):
        w, v = eig_sym4(np.diag([3.0, 1.0, 2.0, 0.0]))
        assert np.array_equal(w, [3.0, 2.0, 1.0, 0.0])
        # eigenvectors are the standard basis, permuted to match the sort
        expected = np.eye(4)[:, [0, 2, 1, 3]]
        assert np.array_equal(v, expected)

    def test_zero_matrix(self):
        w, v = eig_sym4(np.zeros((4, 4)))
        assert np.array_equal(w, np.zeros(4))
        assert np.array_equal(v, np.eye(4))

    def test_reconstruction(self):
        rng = RngStream(101)
        for _ in range(50):
            q = random_symmetric(rng)
            w, v = eig_sym4(q)
            recon = (v * w) @ v.T
            assert np.max(np.abs(recon - q)) < 1e-10

    def test_residual_and_orthonormality(self):
        rng = RngStream(102)
        for _ in range(50):
            q = random_symmetric(rng)
            w, v = eig_sym4(q)
            for i in range(4):
                assert np.linalg.norm(q @ v[:, i] - w[i] * v[:, i]) < 1e-12
            assert np.max(np.abs(v.T @ v - np.eye(4))) < 1e-12

    def test_descending_order(self):
        rng = RngStream(103)
        for _ in range(20):
            w, _ = eig_sym4(random_symmetric(rng))
            assert np.all(np.diff(w) <= 0)

    def test_rayleigh_bound(self):
        rng = RngStream(104)
        for _ in range(20):
            q = random_symmetric(rng)
            w, _ = eig_sym4(q)
            xs = sphere4_samples(rng, 500)
            vals = np.einsum("ki,ij,kj->k", xs, q, xs)
            assert np.max(vals) <= w[0] + 1e-10

    def test_trace_and_det(self):
        rng = RngStream(105)
        for _ in range(50):
            q = random_symmetric(rng)
            w, _ = eig_sym4(q)
            assert abs(np.sum(w) - np.trace(q)) < 1e-10
            assert abs(np.prod(w) - np.linalg.det(q)) < 1e-8

    def test_sign_convention(self):
        rng = RngStream(106)
        for _ in range(20):
            _, v = eig_sym4(random_symmetric(rng))
            for i in range(4):
                col = v[:, i]
                first = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
                assert first > 0

    def test_fix_signs_matches_loop(self):
        # leading components at or below 1e-12 are skipped; an all-tiny column stays
        cases = [
            np.array(
                [
                    [1e-13, 0.0, -0.6, 1e-12, -2e-12],
                    [-0.8, 0.0, 0.8, -1e-13, 0.5],
                    [0.6, 1e-13, 0.0, 0.0, 0.0],
                ]
            )
        ]
        rng = RngStream(108)
        for _ in range(50):
            cases.append(np.linalg.qr(random_symmetric(rng))[0])
            cases[-1][0, rng.u64() % 4] = 1e-13
        for vecs in cases:
            expected = vecs.copy()
            for j in range(vecs.shape[1]):
                col = expected[:, j]
                nz = np.flatnonzero(np.abs(col) > 1e-12)
                if nz.size and col[nz[0]] < 0.0:
                    expected[:, j] = -col
            signed = np.array([_signed(col) for col in vecs.T.tolist()]).T
            assert np.array_equal(signed, expected)
            assert (np.signbit(signed) == np.signbit(expected)).all()

    def test_deterministic(self):
        q = random_symmetric(RngStream(107))
        w1, v1 = eig_sym4(q)
        w2, v2 = eig_sym4(q)
        assert np.array_equal(w1, w2)
        assert np.array_equal(v1, v2)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            eig_sym4(np.eye(3))

    def test_rejects_non_finite(self):
        q = np.eye(4)
        q[0, 0] = np.nan
        with pytest.raises(ValueError):
            eig_sym4(q)

    def test_rejects_non_symmetric(self):
        # eig_sym4 returned the eigenpairs of the symmetric part without a word
        with pytest.raises(ValueError, match=r"^matrix is not symmetric \(max deviation 9\.000e\+00\)$"):
            eig_sym4(np.arange(16.0).reshape(4, 4))
        q = np.eye(4)
        q[1, 2] = 2e-12
        with pytest.raises(ValueError, match=r"max deviation 2\.000e-12"):
            eig_sym4(q)

    def test_accepts_the_symmetry_tolerance(self):
        # within QForm's tolerance of 1e-12 the symmetric part is solved
        q = random_symmetric(RngStream(109))
        skewed = q.copy()
        skewed[0, 3] += 5e-13
        w, v = eig_sym4(skewed)
        w_sym, v_sym = eig_sym4(0.5 * (skewed + skewed.T))
        assert np.array_equal(w, w_sym) and np.array_equal(v, v_sym)


class TestEighDesc:
    """The general-n kernel eigh_desc behind eig_sym4."""

    def test_three_by_three(self):
        a = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 1.0]])
        w, v = eigh_desc(a)
        assert np.max(np.abs((v * w) @ v.T - a)) < 1e-12

    def test_scaled_matrix_converges(self):
        rng = RngStream(108)
        q = random_symmetric(rng, scale=1e6)
        w, v = eigh_desc(q)
        assert np.max(np.abs((v * w) @ v.T - q)) < 1e-6  # 1e-12 relative

    def test_agrees_with_lapack(self):
        rng = RngStream(110)
        for n in (3, 4, 8):
            for _ in range(20):
                q = random_symmetric(rng, n=n)
                w, _ = eigh_desc(q)
                reference = np.linalg.eigvalsh(q)[::-1]
                assert np.max(np.abs(w - reference)) < 1e-12

    def test_lapack_failure_raises_convergence_error(self, monkeypatch):
        def broken(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", broken)
        q = random_symmetric(RngStream(111))
        with pytest.raises(ConvergenceError) as excinfo:
            eig_sym4(q)
        assert excinfo.value.residual > 0.0
        assert isinstance(excinfo.value.__cause__, np.linalg.LinAlgError)


class TestEigHerm4:
    def test_identity(self):
        assert np.allclose(eig_herm4(np.eye(4, dtype=complex)), np.ones(4))

    def test_rank_one(self):
        w = eig_herm4(np.diag([2.0, 0.0, 0.0, 0.0]).astype(complex))
        assert np.allclose(w, [2.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_trace_oracle(self):
        rng = RngStream(109)
        for _ in range(30):
            g = rng.normals(32)
            h = g[:16].reshape(4, 4) + 1j * g[16:].reshape(4, 4)
            h = 0.5 * (h + h.conj().T)
            w = eig_herm4(h)
            assert abs(np.sum(w) - np.trace(h).real) < 1e-10

    def test_agrees_with_lapack(self):
        rng = RngStream(112)
        for _ in range(30):
            g = rng.normals(32)
            h = g[:16].reshape(4, 4) + 1j * g[16:].reshape(4, 4)
            h = 0.5 * (h + h.conj().T)
            reference = np.linalg.eigvalsh(h)[::-1]
            assert np.max(np.abs(eig_herm4(h) - reference)) < 1e-12

    def test_rejects_non_hermitian(self):
        h = np.eye(4, dtype=complex)
        h[0, 1] = 1e-6
        with pytest.raises(ValueError):
            eig_herm4(h)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
    def test_rejects_non_finite_entries_before_the_hermitian_check(self, bad):
        # a diagonal inf gave inf - inf = nan, a RuntimeWarning and "not Hermitian (max deviation nan)"
        h = np.eye(4, dtype=complex)
        h[1, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
                eig_herm4(h)

    @pytest.mark.parametrize("h", [np.eye(4, dtype=bool), np.full((4, 4), "1"), np.full((4, 4), b"1")])
    def test_rejects_bool_and_text(self, h):
        # a boolean identity gave eigenvalues [1, 1, 1, 1]
        with pytest.raises(TypeError, match="must be numeric"):
            eig_herm4(h)

    def test_accepts_integer_and_real_input(self):
        assert eig_herm4(np.eye(4, dtype=int)).tolist() == [1.0, 1.0, 1.0, 1.0]
        assert eig_herm4(np.diag([3.0, 2.0, 1.0, 0.0])).tolist() == [3.0, 2.0, 1.0, 0.0]


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(42).uniforms(1000)
        b = RngStream(42).uniforms(1000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(RngStream(1).uniforms(10), RngStream(2).uniforms(10))

    def test_scalar_matches_vector(self):
        rng_a = RngStream(7)
        rng_b = RngStream(7)
        singles = np.array([rng_a.uniform() for _ in range(64)])
        assert np.array_equal(singles, rng_b.uniforms(64))

    def test_uniform_range(self):
        u = RngStream(3).uniforms(10000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_known_reference_words(self):
        # splitmix64 with seed 0: the first outputs of the canonical stream
        rng = RngStream(0)
        words = [rng.u64() for _ in range(3)]
        assert words == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_substreams_deterministic_and_disjoint(self):
        s1 = substream(123, 0).uniforms(100)
        s2 = substream(123, 0).uniforms(100)
        s3 = substream(123, 1).uniforms(100)
        assert np.array_equal(s1, s2)
        assert not np.array_equal(s1, s3)

    def test_split_advances_parent(self):
        rng = RngStream(5)
        rng.split(2)
        assert rng._counter == 1

    def test_negative_and_huge_seeds_normalize(self):
        assert RngStream(-1).seed == 0xFFFFFFFFFFFFFFFF
        assert RngStream(2**64 + 5).seed == 5
        assert np.array_equal(RngStream(-1).uniforms(8), RngStream(2**64 - 1).uniforms(8))

    @pytest.mark.parametrize("seed", [1.9, 1.0, "7"])
    def test_non_integer_seed_raises_type_error(self, seed):
        with pytest.raises(TypeError):
            RngStream(seed)

    def test_numpy_integer_seed(self):
        assert RngStream(np.int64(7)).seed == 7
        assert np.array_equal(RngStream(np.int64(7)).uniforms(8), RngStream(7).uniforms(8))


class TestSampleBall:
    def test_inside_ball(self):
        rng = RngStream(201)
        pts = ball_samples(rng, 10000)
        assert np.all(np.linalg.norm(pts, axis=1) <= 1.0)

    def test_scalar_matches_batch(self):
        rng_a = RngStream(202)
        rng_b = RngStream(202)
        singles = np.array([sample_ball(rng_a) for _ in range(32)])
        assert np.array_equal(singles, ball_samples(rng_b, 32))

    def test_first_moment_vanishes(self):
        pts = ball_samples(RngStream(203), 1_000_000)
        se = pts.std(axis=0, ddof=1) / np.sqrt(len(pts))
        assert np.all(np.abs(pts.mean(axis=0)) < 4 * se)

    def test_second_moment_is_fifth(self):
        pts = ball_samples(RngStream(204), 1_000_000)
        n = len(pts)
        for i in range(3):
            for j in range(3):
                prod = pts[:, i] * pts[:, j]
                se = prod.std(ddof=1) / np.sqrt(n)
                target = 0.2 if i == j else 0.0
                assert abs(prod.mean() - target) < 4 * se


class TestSampleSpheres:
    def test_sphere4_unit_norm(self):
        pts = sphere4_samples(RngStream(301), 10000)
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-12

    def test_sphere4_scalar_matches_batch(self):
        rng_a = RngStream(302)
        rng_b = RngStream(302)
        singles = np.array([sample_sphere4(rng_a) for _ in range(16)])
        assert np.array_equal(singles, sphere4_samples(rng_b, 16))

    def test_sphere4_moments(self):
        pts = sphere4_samples(RngStream(303), 1_000_000)
        n = len(pts)
        se_mean = pts.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(pts.mean(axis=0)) < 4 * se_mean)
        sq = pts * pts
        se_sq = sq.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(sq.mean(axis=0) - 0.25) < 4 * se_sq)

    def test_sphere3_unit_norm(self):
        pts = sphere_samples(RngStream(304), 10000)
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-12


def test_convergence_error_has_residual():
    err = ConvergenceError(1.5e-3)
    assert err.residual == pytest.approx(1.5e-3)
    assert "1.5" in str(err)
