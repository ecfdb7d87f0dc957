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
        # the canonical e1 candidate lands on the optimum exactly
        assert abs(abs(x[1]) - 1.0) < 1e-12

    def test_never_beats_solver(self):
        rng = RngStream(701)
        for i in range(10):
            e = kraus_to_affine(random_channel(rng, 1 + i % 4))
            solver = quasi_inverse(e).delta_mstd
            _, best = brute_force_best(e, 20_000, RngStream(100 + i))
            assert best <= solver + 1e-10

    def test_refinement_reaches_the_solver(self):
        # at the least sample count the pattern search still climbs to the optimum
        rng = RngStream(711)
        for i in range(40):
            e = kraus_to_affine(random_channel(rng, 1 + i % 4))
            solver = quasi_inverse(e).delta_mstd
            _, best = brute_force_best(e, 10_000, RngStream(40 + i))
            assert solver - 1e-12 <= best <= solver + 1e-10

    def test_matches_scalar_delta(self):
        # the search evaluates its points by delta_mstd_direct's composition route, bit for bit
        rng = RngStream(702)
        for i in range(30):
            e = kraus_to_affine(random_channel(rng, 1 + i % 4))
            x, best = brute_force_best(e, 10_000, RngStream(3 + i))
            scalar = delta_mstd_direct(e, UnitaryParams.from_vector(x))
            assert best.hex() == scalar.hex()

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


def rotation_stack(xs):
    """The (n, 3, 3) Bloch rotations of the rows of xs (n, 4), stacked from _rotation_entries."""
    from quasinv.channels import _rotation_entries

    return np.stack(list(_rotation_entries(*xs.T)), axis=1).reshape(-1, 3, 3)


def stack_deltas(e, xs, base_value):
    """The MSTD decrease for each row of xs through (n, 3, 3) rotation stacks and einsums: the reference route."""
    mi = rotation_stack(xs)
    n = mi @ e.m
    u = mi @ e.c
    composed = (
        (np.einsum("kij,kij->k", n, n) - 2.0 * np.einsum("kii->k", n) + 3.0) / 20.0
        + 0.25 * np.einsum("ki,ki->k", u, u)
    )
    return base_value - composed


def traces(e, xs):
    """oracle._traces of the rows of xs (n, 4)."""
    from quasinv.oracle import _traces

    return _traces(xs.T, e.m.T.ravel().tolist())


def test_sampled_values_match_direct_route():
    # a rotation keeps |M|_F and |c|, so the decrease is (Tr(R M) - Tr M) / 10
    rng = RngStream(706)
    e = kraus_to_affine(random_channel(rng, 3))
    xs = sphere4_samples(rng, 200)
    for x, t in zip(xs, traces(e, xs)):
        direct = delta_mstd_direct(e, UnitaryParams.from_vector(x))
        assert (t - np.trace(e.m)) / 10.0 == pytest.approx(direct, abs=1e-14)


def test_batched_rotations_equal_unitary_to_affine():
    # one formula serves both routes: rows stacked from _rotation_entries match the scalar route bit for bit
    from quasinv.oracle import _CANONICAL

    xs = np.concatenate([_CANONICAL, sphere4_samples(RngStream(65537), 65_537)])
    batch = rotation_stack(xs)
    scalar = np.stack([unitary_to_affine(UnitaryParams.from_vector(x)).m for x in xs])
    assert np.array_equal(batch.view(np.int64), scalar.view(np.int64))


def test_negated_axes_give_bitwise_the_same_deltas():
    # why the canonical candidates are the rows of eye(4) alone: -e_i would repeat e_i's trace exactly
    from quasinv.oracle import _CANONICAL

    assert np.array_equal(_CANONICAL, np.eye(4))
    rng = RngStream(706)
    for i in range(50):
        e = kraus_to_affine(random_channel(rng, 1 + i % 4))
        plus = traces(e, np.eye(4))
        minus = traces(e, -np.eye(4))
        assert np.array_equal(plus.view(np.int64), minus.view(np.int64))


def record_starts(monkeypatch):
    """The (x, delta) each later brute_force_best call hands its pattern search, in call order."""
    from quasinv import oracle

    polish = oracle._polish
    starts = []
    monkeypatch.setattr(oracle, "_polish", lambda e, x, d, base: starts.append((x, d)) or polish(e, x, d, base))
    return starts


def test_trace_ranking_finds_the_best_sample(monkeypatch):
    # ranking by the trace loses nothing against evaluating every sample through the stack route
    from quasinv.metrics import mstd_analytic
    from quasinv.numerics import substream
    from quasinv.oracle import _CANONICAL

    starts = record_starts(monkeypatch)
    rng = RngStream(712)
    for i in range(20):
        e = kraus_to_affine(random_channel(rng, 1 + i % 4))
        brute_force_best(e, 65_536, RngStream(50 + i))
        xs = np.concatenate([_CANONICAL, sphere4_samples(substream(RngStream(50 + i).u64(), 0), 65_536)])
        reference = float(stack_deltas(e, xs, mstd_analytic(e).value).max())
        _, start_d = starts.pop()
        assert abs(start_d - reference) <= 1e-15


def whole_batch_search(e, n, seed):
    """brute_force_best's sampled best, written with one draw and one trace argmax per 65,536-row batch."""
    from quasinv.metrics import _mstd_after_rotation, mstd_analytic
    from quasinv.numerics import substream
    from quasinv.oracle import _CANONICAL

    t = traces(e, _CANONICAL)
    k = int(np.argmax(t))
    best_x, best_t = _CANONICAL[k], float(t[k])
    base = RngStream(seed).u64()
    for k, start in enumerate(range(0, n, 65_536)):
        xs = sphere4_samples(substream(base, k), min(65_536, n - start))
        t = traces(e, xs)
        j = int(np.argmax(t))
        if t[j] > best_t:
            best_x, best_t = xs[j], float(t[j])
    return best_x, mstd_analytic(e).value - _mstd_after_rotation(best_x.tolist(), e)


class TestChunkedSearch:
    @pytest.mark.parametrize("n", [10_000, 65_536, 65_537, 200_001])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_equals_whole_batch_reference(self, monkeypatch, n, workers):
        # the sampled best the pattern search starts from is the reference's, and so is the result
        from quasinv import oracle
        from quasinv.metrics import mstd_analytic

        polish = oracle._polish
        starts = record_starts(monkeypatch)
        for i in range(3):
            e = kraus_to_affine(random_channel(RngStream(707 + i), 1 + i))
            x, d = brute_force_best(e, n, RngStream(30 + i), workers=workers)
            ref_x, ref_d = whole_batch_search(e, n, 30 + i)
            start_x, start_d = starts.pop()
            assert start_x.tobytes() == ref_x.tobytes()
            assert np.float64(start_d).tobytes() == np.float64(ref_d).tobytes()
            ref_x, ref_d = polish(e, ref_x, ref_d, mstd_analytic(e).value)
            assert x.tobytes() == ref_x.tobytes()
            assert np.float64(d).tobytes() == np.float64(ref_d).tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_workspace_per_worker(self, monkeypatch, workers):
        from quasinv import numerics

        e = kraus_to_affine(random_channel(RngStream(711), 2))
        made = []
        workspace = numerics._workspace

        def counted(n, kind):
            made.append((n, kind))
            return workspace(n, kind)

        monkeypatch.setattr(numerics, "_workspace", counted)
        brute_force_best(e, 8 * 65_536, RngStream(12), workers=workers)
        assert 1 <= len(made) <= workers
        assert set(made) == {(16_384, "sphere4")}

    @pytest.mark.parametrize("n,workers,limit_mb", [(65_536, 1, 2.0), (4 * 65_536, 2, 4.0)])
    def test_traced_peak(self, n, workers, limit_mb):
        import tracemalloc

        e = kraus_to_affine(random_channel(RngStream(710), 3))
        # first-call allocations are not the batches': a warm-up with the case's own sample and worker
        # counts also starts the case's thread pool once, with its first import of concurrent.futures
        brute_force_best(e, n, RngStream(0), workers=workers)
        tracemalloc.start()
        try:
            brute_force_best(e, n, RngStream(11), workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 1e6
