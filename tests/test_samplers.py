"""The random number generator and the samplers against references that share no code with them.

The SplitMix64 words are recomputed in plain Python integers mod 2**64
from the formula in the ``RngStream`` docstring. The digests below were
captured from the sampler code written as plain array formulas
(``(w >> 11) * 2**-53``, Box-Muller with both normals of every pair,
``np.linalg.norm`` row norms); they pin the bytes the in-place kernels
must reproduce beyond a single Monte Carlo batch.
"""

import hashlib
import struct

import numpy as np
import pytest

from quasinv import kraus_to_affine, make, mstd_monte_carlo, oracle
from quasinv.numerics import (
    MAX_BATCHES,
    RngStream,
    ball_samples,
    map_batches,
    sphere4_samples,
    sphere_samples,
    substream,
)
from quasinv.metrics import MC_MAX_SAMPLES, MC_MIN_SAMPLES
from quasinv.oracle import BRUTE_FORCE_MAX_SAMPLES, BRUTE_FORCE_MIN_SAMPLES, brute_force_best
from quasinv.zoo import spec_from_values

MASK = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15
SALT = 0xD1B54A32D192ED03


def mix64(z: int) -> int:
    """The splitmix64 finalizer on a Python int."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def word(seed: int, j: int) -> int:
    """Word j (from 0) of the stream with this seed."""
    return mix64((seed + (j + 1) * GAMMA) & MASK)


SEEDS = [0, 1, 2**64 - 1, -987654321]


class TestSplitMix64Reference:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("skip", [0, 37])
    def test_words(self, seed, skip):
        rng = RngStream(seed)
        rng._words(skip)
        expected = [word(seed & MASK, skip + j) for j in range(100)]
        assert rng._words(100).tolist() == expected
        assert rng._counter == skip + 100

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("skip", [0, 5])
    def test_u64_and_uniforms(self, seed, skip):
        rng = RngStream(seed)
        rng.uniforms(skip)
        assert rng.u64() == word(seed & MASK, skip)
        u = rng.uniforms(64)
        assert u.dtype == np.float64
        assert u.tolist() == [(word(seed & MASK, skip + 1 + j) >> 11) * 2.0**-53 for j in range(64)]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_substream(self, seed):
        base = RngStream(seed).u64()
        for index in (0, 1, 31, 2**40):
            child_seed = mix64((base + (index + 1) * SALT) & MASK)
            child = substream(base, index)
            assert child.seed == child_seed
            child.uniforms(3)
            assert child.u64() == word(child_seed, 3)


class TestWordCount:
    def test_negative_count_is_refused(self):
        rng = RngStream(1)
        rng.uniforms(3)
        with pytest.raises(ValueError, match="negative"):
            rng.uniforms(-2)
        assert rng._counter == 3
        assert rng.u64() == word(1, 3)

    @pytest.mark.parametrize("sampler", [ball_samples, sphere_samples, sphere4_samples])
    def test_negative_sample_count_is_refused(self, sampler):
        rng = RngStream(1)
        rng.uniforms(10)
        with pytest.raises(ValueError, match="negative"):
            sampler(rng, -1)
        assert rng._counter == 10

    def test_zero_count_draws_nothing(self):
        rng = RngStream(1)
        rng.uniforms(3)
        assert rng.uniforms(0).shape == (0,)
        assert rng.normals(0).shape == (0,)
        assert rng._counter == 3


SAMPLERS = [(ball_samples, 3), (sphere_samples, 3), (sphere4_samples, 4)]


class TestSamplerContract:
    @pytest.mark.parametrize("sampler,dim", SAMPLERS)
    @pytest.mark.parametrize("n", [0, 1, 2, 1001, 32769])
    def test_fresh_c_contiguous_float64(self, sampler, dim, n):
        pts = sampler(RngStream(n), n)
        assert pts.shape == (n, dim)
        assert pts.dtype == np.float64
        assert pts.flags.c_contiguous and pts.flags.owndata

    @pytest.mark.parametrize("sampler", [sphere_samples, sphere4_samples])
    def test_unit_rows(self, sampler):
        pts = sampler(RngStream(5), 32769)
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) <= 1e-15

    def test_ball_rows_inside(self):
        assert np.all(np.linalg.norm(ball_samples(RngStream(5), 32769), axis=1) <= 1.0)


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


class TestSamplerGolden:
    @pytest.mark.parametrize(
        "draw,digest",
        [
            (lambda: ball_samples(RngStream(11), 32769),
             "84a15da6a3bb7e3df075dec37071ce1ec6a7f217094799495278c7c89dd03a1b"),
            (lambda: sphere_samples(RngStream(12), 32769),
             "1f58f4323be34b259e05c20003fbfc87038bd5611c5712b4cbd7c6fa876dec14"),
            (lambda: sphere4_samples(RngStream(13), 65537),
             "68800b9f08285e5ea0fc979f9e9afc176f5b9819233a5d8f29fb0c4567e19607"),
        ],
    )
    def test_sampler_bytes(self, draw, digest):
        assert _digest(draw()) == digest

    @pytest.mark.parametrize(
        "region,digest",
        [
            ("ball", "a707cf3923b6263f17f0aefbf114d518d8aeb0e798eb01f85fdaf44b8d39eed4"),
            ("surface", "8efc2e47348333df6033dfef1a451f16cedd894242ac5afd07bebd9e22a27c9b"),
        ],
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_monte_carlo_bytes(self, region, digest, workers):
        # three batches, the last of one sample
        e = kraus_to_affine(make(spec_from_values("gad", [0.3, 0.2]))[0])
        report = mstd_monte_carlo(e, 2 * 32768 + 1, RngStream(21), region, workers=workers)
        assert report.n_samples == 2 * 32768 + 1
        assert hashlib.sha256(struct.pack("<dd", report.value, report.stderr)).hexdigest() == digest


class TestWorkerArgument:
    GAD = kraus_to_affine(make(spec_from_values("gad", [0.3, 0.2]))[0])

    @pytest.mark.parametrize(
        "workers,error", [(0, ValueError), (-3, ValueError), (2.5, TypeError), (True, TypeError)]
    )
    def test_refused(self, workers, error):
        with pytest.raises(error, match="workers"):
            mstd_monte_carlo(self.GAD, 1000, RngStream(1), workers=workers)
        with pytest.raises(error, match="workers"):
            brute_force_best(self.GAD, 10_000, RngStream(1), workers=workers)

    def test_numpy_integer_accepted(self):
        one = mstd_monte_carlo(self.GAD, 40_000, RngStream(2), workers=1)
        two = mstd_monte_carlo(self.GAD, 40_000, RngStream(2), workers=np.int64(2))
        assert (one.value, one.stderr) == (two.value, two.stderr)


class TestBatchMaximum:
    """map_batches refuses more than MAX_BATCHES batches before it draws or runs any."""

    @pytest.mark.parametrize("n", [MAX_BATCHES * 5 + 1, 10**23])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_refused_before_any_batch(self, n, workers):
        rng = RngStream(3)
        with pytest.raises(ValueError, match=f"more than {MAX_BATCHES} batches of 5"):
            map_batches(rng, n, 5, lambda stream, size: pytest.fail("a batch ran"), workers)
        assert rng.u64() == RngStream(3).u64()  # the base word was not drawn

    def test_maxima_of_the_sampling_commands(self):
        assert MAX_BATCHES == 2**16
        assert MC_MAX_SAMPLES == 2**31
        assert BRUTE_FORCE_MAX_SAMPLES == 2**32


class TestSampleRange:
    """The samplers refuse a sample count out of range at entry, before any draw or closed form."""

    GAD = TestWorkerArgument.GAD

    @pytest.mark.parametrize("n", [MC_MIN_SAMPLES - 1, MC_MAX_SAMPLES + 1, 10**23])
    def test_monte_carlo(self, n):
        rng = RngStream(1)
        with pytest.raises(ValueError, match=rf"^need {MC_MIN_SAMPLES}\.\.{MC_MAX_SAMPLES} samples, got {n}$"):
            mstd_monte_carlo(self.GAD, n, rng)
        assert rng.u64() == RngStream(1).u64()  # the base word was not drawn

    @pytest.mark.parametrize("n", [BRUTE_FORCE_MIN_SAMPLES - 1, BRUTE_FORCE_MAX_SAMPLES + 1, 10**23])
    def test_brute_force(self, monkeypatch, n):
        monkeypatch.setattr(oracle, "mstd_analytic", lambda e: pytest.fail("mstd_analytic ran"))
        rng = RngStream(1)
        low, high = BRUTE_FORCE_MIN_SAMPLES, BRUTE_FORCE_MAX_SAMPLES
        with pytest.raises(ValueError, match=rf"^need {low}\.\.{high} samples, got {n}$"):
            brute_force_best(self.GAD, n, rng)
        assert rng.u64() == RngStream(1).u64()


class TestPoolSize:
    """map_batches starts no more threads than there are batches, and no pool for one."""

    @pytest.fixture
    def pools(self, monkeypatch):
        import concurrent.futures

        sizes = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        return sizes

    @pytest.mark.parametrize("n,workers,pool", [(5, 8, []), (15, 1, []), (15, 2, [2]), (15, 8, [3])])
    def test_capped_at_the_batch_count(self, pools, n, workers, pool):
        out = map_batches(RngStream(3), n, 5, lambda stream, size: (stream.u64(), size), workers)
        assert out == map_batches(RngStream(3), n, 5, lambda stream, size: (stream.u64(), size))
        assert pools == pool
