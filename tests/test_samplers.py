"""The random number generator and the samplers against references that share no code with them.

The SplitMix64 words are recomputed in plain Python integers mod 2**64
from the formula in the ``RngStream`` docstring. The samplers are
recomputed as plain array formulas on row-major uniforms (``(w >> 11) *
2**-53``, then each coordinate as one expression), which the in-place
kernels must match byte for byte. Byte pins cannot tell a correct
re-spelling of a sampler from a wrong one, so the distributions are
checked as well, by Kolmogorov-Smirnov tests on coordinates the
constructions do not set directly.
"""

import hashlib
import math
import struct

import numpy as np
import pytest

from quasinv import kraus_to_affine, make, mstd_monte_carlo, oracle, quasi_inverse
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

    @pytest.mark.parametrize("base,index", [(5, 2.5), (5, 2.0), (5.0, 2), (5, "2")])
    def test_substream_refuses_non_integers(self, base, index):
        # substream(5, 2.5) returned the stream of substream(5, 2)
        with pytest.raises(TypeError):
            substream(base, index)

    def test_substream_numpy_integers(self):
        assert substream(np.uint64(5), np.int64(2)).seed == substream(5, 2).seed

    @pytest.mark.parametrize("base", [-1, -(2**70) + 3, 2**64 + 7, 2**65 - 1])
    def test_substream_base_is_taken_mod_2_64(self, base):
        # substream(-1, 3) raised numpy's OverflowError, where RngStream(-1) masks its seed
        for index in (0, 3):
            assert substream(base, index).seed == mix64((base + (index + 1) * SALT) & MASK)
            assert substream(base, index).seed == substream(base & MASK, index).seed

    @pytest.mark.parametrize("index", [0, 2**64 - 2])
    def test_substream_index_range_ends(self, index):
        # both ends of the range keep their streams; 2**64 - 1 would repeat the seed of index -1
        assert substream(0, index).seed == mix64(((index + 1) * SALT) & MASK)

    @pytest.mark.parametrize("index", [-1, -2, 2**64 - 1, 2**64, -(2**64)])
    def test_substream_index_out_of_range_is_refused(self, index):
        # substream(7, -1) silently returned the stream at counter 0
        with pytest.raises(ValueError, match=rf"^substream index must be in 0\.\.2\*\*64-2, got {index}$"):
            substream(7, index)


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

    @pytest.mark.parametrize(
        "draw,what",
        [
            (RngStream.uniforms, "uniforms"),
            (RngStream.normals, "normals"),
            (RngStream.split, "substreams"),
            (lambda rng, n: ball_samples(rng, n), "points"),
            (lambda rng, n: sphere_samples(rng, n), "points"),
            (lambda rng, n: sphere4_samples(rng, n), "points"),
        ],
    )
    @pytest.mark.parametrize("n", [-1, -2, -3])
    def test_negative_count_named_as_passed(self, draw, what, n):
        rng = RngStream(1)
        rng.uniforms(3)
        with pytest.raises(ValueError, match=rf"^cannot draw a negative number of {what}, got {n}$"):
            draw(rng, n)
        assert rng._counter == 3
        assert rng.u64() == word(1, 3)

    @pytest.mark.parametrize(
        "draw",
        [RngStream.uniforms, RngStream.normals, RngStream.split, ball_samples, sphere_samples, sphere4_samples],
    )
    @pytest.mark.parametrize("n", [2.5, 2.0, "2"])
    def test_non_integer_count_is_refused(self, draw, n):
        # uniforms(2.5) drew 3 words and left the counter at 2.5, so the next draw repeated word 3
        rng = RngStream(7)
        with pytest.raises(TypeError):
            draw(rng, n)
        assert rng._counter == 0
        assert rng.uniforms(4).tolist() == [(word(7, j) >> 11) * 2.0**-53 for j in range(4)]

    def test_numpy_integer_count(self):
        rng = RngStream(7)
        assert rng.uniforms(np.int64(2)).tolist() == RngStream(7).uniforms(2).tolist()
        assert rng._counter == 2 and type(rng._counter) is int
        assert ball_samples(RngStream(5), np.int64(3)).tobytes() == ball_samples(RngStream(5), 3).tobytes()

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


def plain_circle(u: np.ndarray, amp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """amp * (cos 2 pi u, sin 2 pi u), with the angle folded into [-pi/2, pi/2] as the samplers fold it."""
    a = 0.5 - u
    chi = (a - np.copysign(0.25, a)) * (2.0 * np.pi)
    amp = np.copysign(amp, a)
    return amp * np.sin(chi), amp * np.cos(chi)


def plain_samples(rng: RngStream, n: int, kind: str) -> np.ndarray:
    """The samplers as plain formulas on point rows: uniforms (n, w), then each coordinate, stacked (n, k)."""
    w = 2 if kind == "sphere" else 3
    u = rng.uniforms(w * n).reshape(n, w)
    if kind == "sphere4":
        cos1, sin1 = plain_circle(u[:, 1], np.sqrt(1.0 - u[:, 0]))
        cos2, sin2 = plain_circle(u[:, 2], np.sqrt(u[:, 0]))
        return np.stack([sin1, cos1, sin2, cos2], axis=1)
    z = 2.0 * u[:, 0] - 1.0
    rho = np.sqrt((1.0 - z) * (1.0 + z))
    x, y = plain_circle(u[:, 1], rho)
    points = np.stack([x, y, z], axis=1)
    return points * np.cbrt(u[:, 2])[:, None] if kind == "ball" else points


def row_layout_normals(rng: RngStream, n: int) -> np.ndarray:
    """RngStream.normals as point rows: uniforms (m, 2), one Box-Muller pair per point, interleaved."""
    m = (n + 1) // 2
    u = rng.uniforms(2 * m).reshape(m, 2)
    r = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
    t = u[:, 1] * (2.0 * np.pi)
    out = np.empty((m, 2))
    out[:, 0] = np.cos(t) * r
    out[:, 1] = np.sin(t) * r
    return out.reshape(2 * m)[:n]


class TestRowLayoutReference:
    """The samplers draw each point's coordinates as contiguous rows; the bytes are the plain formulas'."""

    @pytest.mark.parametrize(
        "sampler,kind", [(ball_samples, "ball"), (sphere_samples, "sphere"), (sphere4_samples, "sphere4")]
    )
    @pytest.mark.parametrize("n", [0, 1, 8191, 8192, 8193, 16383, 16384, 16385])
    def test_sampler_bytes(self, sampler, kind, n):
        rng, ref = RngStream(600 + n), RngStream(600 + n)
        rng.uniforms(3)
        ref.uniforms(3)
        pts = sampler(rng, n)
        assert pts.tobytes() == plain_samples(ref, n, kind).tobytes()
        assert rng.u64() == ref.u64()

    @pytest.mark.parametrize("n", [0, 1, 2, 8191, 8192, 16383, 16384, 16385, 32769])
    def test_normals_bytes(self, n):
        rng, ref = RngStream(650 + n), RngStream(650 + n)
        rng.uniforms(3)
        ref.uniforms(3)
        assert rng.normals(n).tobytes() == row_layout_normals(ref, n).tobytes()
        assert rng.u64() == ref.u64()

    def test_folded_circle_is_the_plain_angle(self):
        # the fold changes rounding only: within a few ulps of cos and sin of 2 pi u
        u = RngStream(651).uniforms(100_003)
        x, y = plain_circle(u, np.ones_like(u))
        assert np.max(np.abs(x - np.cos(2.0 * np.pi * u))) < 1e-15
        assert np.max(np.abs(y - np.sin(2.0 * np.pi * u))) < 1e-15


class TestColumnWords:
    """The sampler core's uniforms, drawn as rows (w, n) from a step row, are the stream's next w*n uniforms."""

    @pytest.mark.parametrize("kind,w", [("normals", 2), ("sphere", 2), ("ball", 3), ("sphere4", 3)])
    @pytest.mark.parametrize("n", [1, 7, 4096, 16385])
    def test_uniform_rows_are_the_stream_read_by_columns(self, kind, w, n):
        from quasinv.numerics import _uniform_rows, _workspace

        rng, ref = RngStream(2**64 - 1), RngStream(2**64 - 1)
        rng.uniforms(1234)
        ref.uniforms(1234)
        step, buf, width = _workspace(n + 5, kind)  # a workspace for longer chunks than this one
        assert width == w and buf.size == 6 * (n + 5)
        buf[:] = np.nan
        block = buf[: 6 * n].reshape(6, n)
        u = _uniform_rows(rng, step[:n], block, w)
        assert u.shape == (w, n) and u.flags.c_contiguous
        assert u.ctypes.data == block[3].ctypes.data  # the uniforms start at row 3
        assert u.tobytes() == np.ascontiguousarray(ref.uniforms(w * n).reshape(n, w).T).tobytes()
        assert rng._counter == ref._counter == 1234 + w * n
        assert rng.u64() == ref.u64()
        # only the word rows and the uniform rows were written
        assert np.isnan(block[w:3]).all() and np.isnan(block[3 + w :]).all() and np.isnan(buf[6 * n :]).all()


# Kolmogorov-Smirnov at alpha = 1e-6 on 2**18 points: P(sqrt(n) D > x) <= 2 exp(-2 x**2) gives
# x = sqrt(ln(2 / alpha) / 2) = 2.6934, so D may not exceed 2.6934 / 512 = 0.00526.
KS_POINTS = 2**18
KS_CRITICAL = math.sqrt(math.log(2 / 1e-6) / 2) / math.sqrt(KS_POINTS)


def ks_statistic(values: np.ndarray, cdf) -> float:
    """sup |F_n - F| of a sample against a continuous CDF."""
    f = cdf(np.sort(values))
    n = f.size
    return float(max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n)))


def _diagonal(p: np.ndarray, i: int, j: int) -> np.ndarray:
    return (p[:, i] + p[:, j]) / math.sqrt(2.0)


def _beta_half_three_halves(s):
    return (2.0 / np.pi) * (np.arcsin(np.sqrt(s)) + np.sqrt(s * (1.0 - s)))


# (seed, sampler, statistic of the points, its CDF under the sampler's measure)
KS_CASES = {
    # sphere: every projection on a unit vector is uniform on [-1, 1] (Archimedes)
    "sphere-projection": (801, sphere_samples, lambda p: _diagonal(p, 0, 2), lambda t: (t + 1.0) / 2.0),
    # ball: a projection has density 3/4 (1 - t**2)
    "ball-projection": (802, ball_samples, lambda p: _diagonal(p, 0, 2), lambda t: (2.0 + 3.0 * t - t**3) / 4.0),
    # ball: |r|**3 is uniform on [0, 1]
    "ball-radius": (803, ball_samples, lambda p: np.sum(p * p, axis=1) ** 1.5, lambda t: t),
    # 3-sphere: the square of a projection is Beta(1/2, 3/2)
    "sphere4-projection-02": (804, sphere4_samples, lambda p: _diagonal(p, 0, 2) ** 2, _beta_half_three_halves),
    "sphere4-projection-13": (805, sphere4_samples, lambda p: _diagonal(p, 1, 3) ** 2, _beta_half_three_halves),
}


class TestDistributions:
    """Each sampler's measure, checked on coordinates its construction does not set directly."""

    @pytest.mark.parametrize("case", sorted(KS_CASES))
    def test_kolmogorov_smirnov(self, case):
        seed, sampler, statistic, cdf = KS_CASES[case]
        points = sampler(RngStream(seed), KS_POINTS)
        assert ks_statistic(statistic(points), cdf) < KS_CRITICAL

    @pytest.mark.parametrize("case", sorted(KS_CASES))
    def test_a_distorted_measure_fails(self, case):
        # the points stretched by 1.2 along their last axis and put back at their radius, or moved
        # to radius cbrt(r), which makes |r|**3 = cbrt(u) with CDF t**3: the test refuses either
        _, sampler, statistic, cdf = KS_CASES[case]
        points = sampler(RngStream(810), KS_POINTS)
        radius = np.linalg.norm(points, axis=1)
        if case == "ball-radius":
            points *= (np.cbrt(radius) / radius)[:, None]
        else:
            points[:, -1] *= 1.2
            points *= (radius / np.linalg.norm(points, axis=1))[:, None]
        assert ks_statistic(statistic(points), cdf) > KS_CRITICAL


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


class TestSamplerGolden:
    @pytest.mark.parametrize(
        "draw,digest",
        [
            (lambda: ball_samples(RngStream(11), 32769),
             "835ae969aefde2a53b1d5569ac401e8f25327ea22b1a17c756adcd58b239bf49"),
            (lambda: sphere_samples(RngStream(12), 32769),
             "63883453f74f4f8e59b8449875f04e3d5615c2ed0ad02353261ccaab5c347158"),
            (lambda: sphere4_samples(RngStream(13), 65537),
             "7126380914f781080add112f46e51708ee3de39709de4560005fc65119f14bc4"),
        ],
    )
    def test_sampler_bytes(self, draw, digest):
        assert _digest(draw()) == digest

    @pytest.mark.parametrize(
        "region,digest",
        [
            ("ball", "a18c032f78b627e6085d5caf55019b4ff6a39b4a1cf11dd277a163a37af3bfdd"),
            ("surface", "d6b1cc20eb67e9492141672beac4cfb6c8bdf0f1e968c2e23ccdb5057b2f5512"),
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

    @pytest.mark.parametrize("n,batch", [(-5, 4), (-1, 1), (0, 0), (5, 0), (0, -1)])
    def test_bad_counts_refused_before_the_base_word(self, n, batch):
        # (-5, 4) ran one batch of 3 items, (0, 0) raised ZeroDivisionError after drawing
        rng = RngStream(3)
        with pytest.raises(ValueError, match=rf"^need n >= 0 items in batches of batch >= 1, got n={n}, batch={batch}$"):
            map_batches(rng, n, batch, lambda stream, size: pytest.fail("a batch ran"))
        assert rng.u64() == RngStream(3).u64()

    @pytest.mark.parametrize("n,batch", [(2.5, 4), (8, 4.0)])
    def test_non_integer_counts_refused(self, n, batch):
        rng = RngStream(3)
        with pytest.raises(TypeError):
            map_batches(rng, n, batch, lambda stream, size: pytest.fail("a batch ran"))
        assert rng.u64() == RngStream(3).u64()

    def test_zero_items_run_no_batch(self):
        assert map_batches(RngStream(3), 0, 4, lambda stream, size: pytest.fail("a batch ran")) == []

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

    @pytest.mark.parametrize("n", [2000.9, 2000.0, "2000"])
    def test_monte_carlo_refuses_non_integers(self, n):
        rng = RngStream(1)
        with pytest.raises(TypeError):
            mstd_monte_carlo(self.GAD, n, rng)
        assert rng.u64() == RngStream(1).u64()

    @pytest.mark.parametrize("n", [20_000.7, 20_000.0, "20000"])
    def test_brute_force_refuses_non_integers(self, monkeypatch, n):
        result = quasi_inverse(self.GAD)
        monkeypatch.setattr(oracle, "mstd_analytic", lambda e: pytest.fail("mstd_analytic ran"))
        rng = RngStream(1)
        with pytest.raises(TypeError):
            brute_force_best(self.GAD, n, rng)
        with pytest.raises(TypeError):
            oracle.verify(self.GAD, result, n, rng)
        assert rng.u64() == RngStream(1).u64()

    def test_numpy_integers_accepted(self):
        mc = mstd_monte_carlo(self.GAD, np.int64(2000), RngStream(2))
        assert (mc.value, mc.n_samples) == (mstd_monte_carlo(self.GAD, 2000, RngStream(2)).value, 2000)
        result = quasi_inverse(self.GAD)
        report = oracle.verify(self.GAD, result, np.int64(20_000), RngStream(3))
        assert report == oracle.verify(self.GAD, result, 20_000, RngStream(3))


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
