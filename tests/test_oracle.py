import dataclasses

import numpy as np
import pytest

from quasinv.channels import (
    UnitaryParams,
    identity_channel,
    kraus_to_affine,
    random_channel,
    unitary_to_affine,
)
from quasinv.inverter import delta_mstd_direct, quasi_inverse
from quasinv.numerics import RngStream, sphere4_samples
from quasinv.oracle import brute_force_best, verify
from quasinv.zoo import make, spec_from_values


class TestBruteForceBest:
    def test_identity_channel(self):
        _, best = brute_force_best(identity_channel(), 10_000, RngStream(1))
        assert abs(best) <= 1e-12

    def test_pauli_optimum_hit_exactly(self):
        e = kraus_to_affine(make(spec_from_values("pauli", [0.1, 0.6, 0.2, 0.1]))[0])
        x, best = brute_force_best(e, 100_000, RngStream(2))
        assert 0.2 - 1e-3 <= best <= 0.2 + 1e-12
        # the canonical +-e1 candidate lands on the optimum exactly
        assert abs(abs(x[1]) - 1.0) < 1e-12

    def test_never_beats_solver(self):
        rng = RngStream(701)
        for i in range(10):
            e = kraus_to_affine(random_channel(rng, 1 + i % 4))
            solver = quasi_inverse(e).delta_mstd
            _, best = brute_force_best(e, 20_000, RngStream(100 + i))
            assert best <= solver + 1e-10

    def test_matches_scalar_delta(self):
        rng = RngStream(702)
        e = kraus_to_affine(random_channel(rng, 3))
        x, best = brute_force_best(e, 10_000, RngStream(3))
        scalar = delta_mstd_direct(e, UnitaryParams.from_vector(x))
        assert best == pytest.approx(scalar, abs=1e-12)

    def test_worker_count_invariance(self):
        e = kraus_to_affine(random_channel(RngStream(703), 4))
        x1, d1 = brute_force_best(e, 150_000, RngStream(4), workers=1)
        x4, d4 = brute_force_best(e, 150_000, RngStream(4), workers=4)
        assert d1 == d4
        assert np.array_equal(x1, x4)

    def test_seed_reproducibility(self):
        e = kraus_to_affine(random_channel(RngStream(704), 2))
        _, d1 = brute_force_best(e, 20_000, RngStream(5))
        _, d2 = brute_force_best(e, 20_000, RngStream(5))
        assert d1 == d2

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            brute_force_best(identity_channel(), 9_999, RngStream(0))

    def test_converges_toward_lambda_max(self):
        rng = RngStream(705)
        e = kraus_to_affine(random_channel(rng, 4))
        result = quasi_inverse(e)
        assert result.lambda_max >= 0.05  # seed chosen to give a wide peak
        _, best = brute_force_best(e, 1_000_000, RngStream(6))
        assert best >= 0.99 * result.delta_mstd


class TestVerify:
    def test_zoo_tetrahedron_passes(self):
        e = kraus_to_affine(make(spec_from_values("tetrahedron", [0.3, 0.1]))[0])
        result = quasi_inverse(e)
        report = verify(e, result, 100_000, RngStream(7), channel_id="tetra(0.3, 0.1)")
        assert report.passed
        assert report.max_violation <= 1e-9
        assert report.channel_id == "tetra(0.3, 0.1)"
        assert report.n_samples == 100_000

    def test_corrupted_result_fails(self):
        e = kraus_to_affine(make(spec_from_values("tetrahedron", [0.3, 0.1]))[0])
        result = quasi_inverse(e)
        corrupted = dataclasses.replace(result, delta_mstd=result.delta_mstd / 2)
        report = verify(e, corrupted, 100_000, RngStream(8))
        assert not report.passed
        assert report.best_sampled_delta > corrupted.delta_mstd
        assert report.max_violation > 1e-9

    def test_identity_trivially_passes(self):
        e = identity_channel()
        result = quasi_inverse(e)
        report = verify(e, result, 10_000, RngStream(9))
        assert report.passed
        assert abs(report.solver_delta) <= 1e-15
        assert abs(report.best_sampled_delta) <= 1e-12

    def test_hundred_random_channels_all_pass(self):
        rng = RngStream(20260810)
        for i in range(100):
            e = kraus_to_affine(random_channel(rng, 1 + i % 4))
            result = quasi_inverse(e)
            report = verify(e, result, 100_000, RngStream(9000 + i))
            assert report.passed, f"channel {i}: {report}"


def test_sampled_values_match_direct_route():
    # the vectorized search evaluates the same quantity as delta_mstd_direct
    from quasinv.metrics import mstd_analytic
    from quasinv.oracle import _delta_batch

    rng = RngStream(706)
    e = kraus_to_affine(random_channel(rng, 3))
    xs = sphere4_samples(rng, 200)
    batch = _delta_batch(e, xs, mstd_analytic(e).value)
    for x, d in zip(xs, batch):
        assert d == pytest.approx(delta_mstd_direct(e, UnitaryParams.from_vector(x)), abs=1e-14)


def test_batched_rotations_equal_unitary_to_affine():
    # one formula serves both routes: the batch must match the scalar route bit for bit
    from quasinv.oracle import _CANONICAL, _rotation_batch

    xs = np.concatenate([_CANONICAL, sphere4_samples(RngStream(65537), 65_537)])
    batch = _rotation_batch(xs)
    scalar = np.stack([unitary_to_affine(UnitaryParams.from_vector(x)).m for x in xs])
    assert np.array_equal(batch.view(np.int64), scalar.view(np.int64))


def whole_batch_search(e, n, seed):
    """brute_force_best written with one draw and one argmax per 65,536-row batch."""
    from quasinv.metrics import mstd_analytic
    from quasinv.numerics import substream
    from quasinv.oracle import _CANONICAL, _delta_batch

    base_value = mstd_analytic(e).value
    deltas = _delta_batch(e, _CANONICAL, base_value)
    k = int(np.argmax(deltas))
    best_x, best_delta = _CANONICAL[k], float(deltas[k])
    base = RngStream(seed).u64()
    for k, start in enumerate(range(0, n, 65_536)):
        xs = sphere4_samples(substream(base, k), min(65_536, n - start))
        d = _delta_batch(e, xs, base_value)
        j = int(np.argmax(d))
        if d[j] > best_delta:
            best_x, best_delta = xs[j], float(d[j])
    return best_x, best_delta


class TestChunkedSearch:
    @pytest.mark.parametrize("n", [10_000, 65_536, 65_537, 200_001])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_equals_whole_batch_reference(self, n, workers):
        for i in range(3):
            e = kraus_to_affine(random_channel(RngStream(707 + i), 1 + i))
            x, d = brute_force_best(e, n, RngStream(30 + i), workers=workers)
            ref_x, ref_d = whole_batch_search(e, n, 30 + i)
            assert x.tobytes() == ref_x.tobytes()
            assert np.float64(d).tobytes() == np.float64(ref_d).tobytes()

    @pytest.mark.parametrize("n,workers,limit_mb", [(65_536, 1, 2.0), (4 * 65_536, 2, 4.0)])
    def test_traced_peak(self, n, workers, limit_mb):
        import tracemalloc

        e = kraus_to_affine(random_channel(RngStream(710), 3))
        brute_force_best(e, 10_000, RngStream(0))  # first-call allocations are not the batch's
        tracemalloc.start()
        try:
            brute_force_best(e, n, RngStream(11), workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 1e6
