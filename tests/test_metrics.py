import numpy as np
import pytest

from quasinv.channels import (
    AffineChannel,
    UnitaryParams,
    compose,
    identity_channel,
    kraus_to_affine,
    random_channel,
    unitary_to_affine,
)
from quasinv.metrics import (
    MstdReport,
    mstd_analytic,
    mstd_composed,
    mstd_monte_carlo,
    mstd_surface_analytic,
    trace_distance,
)
from quasinv.sampling import RngStream, ball_samples, sphere4_samples
from quasinv.zoo import make, spec_from_values

DEPOLARIZING = AffineChannel(np.zeros((3, 3)), np.zeros(3))


class TestTraceDistance:
    def test_coincident(self):
        assert trace_distance([0.2, 0.1, -0.3], [0.2, 0.1, -0.3]) == 0.0

    def test_antipodal_pure(self):
        assert trace_distance([0.0, 0.0, 1.0], [0.0, 0.0, -1.0]) == pytest.approx(1.0)

    def test_worked_value(self):
        assert trace_distance([0.6, 0.0, 0.0], [0.0, 0.8, 0.0]) == pytest.approx(0.5)

    def test_symmetric_and_bounded(self):
        rng = RngStream(401)
        pts = ball_samples(rng, 300)
        for r, z in zip(pts[0::2], pts[1::2]):
            d = trace_distance(r, z)
            assert d == trace_distance(z, r)
            assert 0.0 <= d <= 1.0

    def test_triangle_inequality(self):
        pts = ball_samples(RngStream(402), 300).reshape(100, 3, 3)
        for a, b, c in pts:
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12


class TestAnalytic:
    def test_identity_channel(self):
        assert mstd_analytic(identity_channel()).value == 0.0

    def test_depolarizing(self):
        assert mstd_analytic(DEPOLARIZING).value == pytest.approx(0.15, abs=1e-15)

    @pytest.mark.parametrize("theta", [0.0, 0.4, np.pi / 2, 2.0, np.pi])
    def test_rotation(self, theta):
        k, _ = make(spec_from_values("rotation", [theta, 0.0, 1.0, 0.0]))
        value = mstd_analytic(kraus_to_affine(k)).value
        assert value == pytest.approx(0.4 * np.sin(theta / 2) ** 2, abs=1e-14)

    def test_method_tag(self):
        assert mstd_analytic(DEPOLARIZING).method == "analytic-ball"


class TestComposed:
    def test_identity_corrector(self):
        e = kraus_to_affine(make(spec_from_values("gad", [-0.5, 0.3]))[0])
        assert mstd_composed(identity_channel(), e).value == pytest.approx(
            mstd_analytic(e).value, abs=1e-15
        )

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
    def test_sigma_z_after_gad(self, p):
        e = kraus_to_affine(make(spec_from_values("gad", [-0.5, p]))[0])
        flip_z = unitary_to_affine(UnitaryParams(0.0, np.array([0.0, 0.0, 1.0])))
        gain = mstd_analytic(e).value - mstd_composed(flip_z, e).value
        assert gain == pytest.approx(0.2, abs=1e-14)

    def test_matches_composition(self):
        rng = RngStream(403)
        for _ in range(30):
            e = kraus_to_affine(random_channel(rng, 3))
            ei = unitary_to_affine(UnitaryParams.from_vector(sphere4_samples(rng, 1)[0]))
            lhs = mstd_composed(ei, e).value
            rhs = mstd_analytic(compose(ei, e)).value
            assert abs(lhs - rhs) < 1e-14

    def test_translation_norm_preserved(self):
        rng = RngStream(404)
        for _ in range(50):
            e = kraus_to_affine(random_channel(rng, 4))
            ei = unitary_to_affine(UnitaryParams.from_vector(sphere4_samples(rng, 1)[0]))
            assert abs(np.linalg.norm(ei.m @ e.c) - np.linalg.norm(e.c)) < 1e-12


class TestSurface:
    def test_identity_channel(self):
        assert mstd_surface_analytic(identity_channel()).value == 0.0

    def test_depolarizing(self):
        assert mstd_surface_analytic(DEPOLARIZING).value == pytest.approx(0.25, abs=1e-15)

    def test_five_thirds_relation(self):
        rng = RngStream(405)
        for _ in range(50):
            e = kraus_to_affine(random_channel(rng, 3))
            c2 = 0.25 * float(e.c @ e.c)
            ball = mstd_analytic(e).value - c2
            surf = mstd_surface_analytic(e).value - c2
            assert abs(surf - ball * 5.0 / 3.0) < 1e-12

    def test_surface_dominates_for_unital(self):
        rng = RngStream(406)
        for _ in range(20):
            e = kraus_to_affine(random_channel(rng, 3))
            unital = AffineChannel(e.m, np.zeros(3))
            assert mstd_surface_analytic(unital).value >= mstd_analytic(unital).value


class TestMonteCarlo:
    def test_identity_channel(self):
        report = mstd_monte_carlo(identity_channel(), 2000, RngStream(1))
        assert report.value == 0.0
        assert report.stderr == 0.0
        assert report.n_samples == 2000

    def test_depolarizing_ball(self):
        report = mstd_monte_carlo(DEPOLARIZING, 1_000_000, RngStream(407))
        assert abs(report.value - 0.15) <= 4 * report.stderr

    def test_depolarizing_surface(self):
        # every surface point is distance 1/2 from the origin image, so the
        # estimate is exact and the spread collapses
        report = mstd_monte_carlo(DEPOLARIZING, 1_000_000, RngStream(408), region="surface")
        assert abs(report.value - 0.25) <= max(4 * report.stderr, 1e-15)
        assert report.method == "monte-carlo-surface"

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            mstd_monte_carlo(DEPOLARIZING, 999, RngStream(0))

    def test_rejects_bad_region(self):
        with pytest.raises(ValueError):
            mstd_monte_carlo(DEPOLARIZING, 2000, RngStream(0), region="shell")

    def test_worker_count_invariance(self):
        e = kraus_to_affine(make(spec_from_values("gad", [-0.4, 0.8]))[0])
        one = mstd_monte_carlo(e, 100_000, RngStream(409), workers=1)
        four = mstd_monte_carlo(e, 100_000, RngStream(409), workers=4)
        assert one.value == four.value
        assert one.stderr == four.stderr

    def test_seed_reproducibility(self):
        a = mstd_monte_carlo(DEPOLARIZING, 50_000, RngStream(410))
        b = mstd_monte_carlo(DEPOLARIZING, 50_000, RngStream(410))
        assert a.value == b.value and a.stderr == b.stderr

    @pytest.mark.parametrize("region,k2,k4", [("ball", 1 / 5, 1 / 35), ("surface", 1 / 3, 1 / 15)])
    @pytest.mark.parametrize("seed,kraus", [(760, 3), (761, 4)])
    def test_spread_is_the_exact_standard_deviation(self, region, k2, k4, seed, kraus):
        # d2 = |A r - c|^2 / 4 with A = I - M. For an isotropic r with E r_i r_j = k2 d_ij and
        # E r_i r_j r_k r_l = k4 (d_ij d_kl + d_ik d_jl + d_il d_jk), and B = A^T A, b = A^T c:
        # SD(d2) = sqrt(k4 ((Tr B)^2 + 2 Tr B^2) - (k2 Tr B)^2 + 4 k2 |b|^2) / 4.
        # A sampler with the right mean but the wrong measure moves it.
        e = kraus_to_affine(random_channel(RngStream(seed), kraus))
        assert np.all(np.abs(e.m) > 1e-3)  # a full M: every entry counts
        a = np.eye(3) - e.m
        big_b, b = a.T @ a, a.T @ e.c
        tr = np.trace(big_b)
        exact = 0.25 * np.sqrt(k4 * (tr * tr + 2.0 * np.trace(big_b @ big_b)) - (k2 * tr) ** 2 + 4.0 * k2 * (b @ b))
        n = 2**20
        report = mstd_monte_carlo(e, n, RngStream(seed + 10), region=region)
        assert report.stderr * np.sqrt(n) == pytest.approx(exact, rel=0.03)

    def test_agrees_with_analytic_across_channels(self):
        rng = RngStream(411)
        hits = 0
        for i in range(100):
            e = kraus_to_affine(random_channel(rng, 1 + i % 4))
            report = mstd_monte_carlo(e, 100_000, RngStream(5000 + i))
            if abs(report.value - mstd_analytic(e).value) <= 4 * report.stderr:
                hits += 1
        assert hits >= 99


def whole_batch_monte_carlo(e, n, seed, region):
    """mstd_monte_carlo written with one draw and one einsum per 32,768-point batch."""
    from quasinv.sampling import sphere_samples, substream

    sampler = ball_samples if region == "ball" else sphere_samples
    base = RngStream(seed).u64()
    total = total_sq = 0.0
    for k, start in enumerate(range(0, n, 32_768)):
        pts = sampler(substream(base, k), min(32_768, n - start))
        diff = pts - (pts @ e.m.T + e.c)
        d2 = 0.25 * np.einsum("ij,ij->i", diff, diff)
        total += float(d2.sum())
        total_sq += float((d2 * d2).sum())
    var = max(total_sq - total * total / n, 0.0) / (n - 1)
    return total / n, float(np.sqrt(var / n))


class TestChunkedMonteCarlo:
    # n = 32,768 k + r for r = 1, 1,000 and 32,767: a short last batch on the front of a workspace
    # that full batches have used
    @pytest.mark.parametrize("n", [
        1000, 8191, 8193, 16_383, 16_385, 32_768, 32_769, 33_768, 49_153, 65_535, 65_537, 66_536, 98_303, 100_001,
    ])
    @pytest.mark.parametrize("region", ["ball", "surface"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_equals_whole_batch_reference(self, n, region, workers):
        for i in range(3):
            e = kraus_to_affine(random_channel(RngStream(720 + i), 1 + i))
            report = mstd_monte_carlo(e, n, RngStream(40 + i), region=region, workers=workers)
            value, stderr = whole_batch_monte_carlo(e, n, 40 + i, region)
            assert np.float64(report.value).tobytes() == np.float64(value).tobytes()
            assert np.float64(report.stderr).tobytes() == np.float64(stderr).tobytes()

    @pytest.mark.parametrize("region", ["ball", "surface"])
    @pytest.mark.parametrize("n,workers,limit_mb", [(32_768, 1, 2.0), (4 * 32_768, 2, 4.0)])
    def test_traced_peak(self, region, n, workers, limit_mb):
        import tracemalloc

        e = kraus_to_affine(random_channel(RngStream(723), 3))
        # first-call allocations are not the batches': a warm-up with the case's own sample and worker
        # counts also starts the case's thread pool once, with its first import of concurrent.futures
        mstd_monte_carlo(e, n, RngStream(0), region=region, workers=workers)
        tracemalloc.start()
        try:
            mstd_monte_carlo(e, n, RngStream(12), region=region, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 1e6


    @pytest.mark.parametrize("region", ["ball", "surface"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_million_points(self, region, workers):
        e = kraus_to_affine(random_channel(RngStream(724), 4))
        report = mstd_monte_carlo(e, 2**20, RngStream(44), region=region, workers=workers)
        value, stderr = whole_batch_monte_carlo(e, 2**20, 44, region)
        assert (report.value, report.stderr) == (value, stderr)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_workspace_per_worker(self, monkeypatch, workers):
        from quasinv import sampling

        e = kraus_to_affine(random_channel(RngStream(732), 3))
        made = []
        workspace = sampling._workspace

        def counted(n, kind):
            made.append((n, kind))
            return workspace(n, kind)

        monkeypatch.setattr(sampling, "_workspace", counted)
        mstd_monte_carlo(e, 8 * 32_768, RngStream(48), region="surface", workers=workers)
        assert 1 <= len(made) <= workers
        assert set(made) == {(32_768, "sphere")}

    def test_calls_in_a_row_leave_nothing_behind(self):
        # each call's workspaces serve its own batches only: a call after others of
        # other regions, channels and sizes gives the bytes it gives on its own
        channels = [kraus_to_affine(random_channel(RngStream(730 + i), 1 + i)) for i in range(4)]
        calls = [
            (channels[0], 40_000, "ball", 1), (channels[1], 1000, "surface", 2), (channels[2], 65_536, "ball", 2),
            (channels[3], 8193, "surface", 1), (channels[0], 32_769, "surface", 2), (channels[1], 12_345, "ball", 1),
        ]

        def run(e, n, region, workers):
            report = mstd_monte_carlo(e, n, RngStream(n), region=region, workers=workers)
            return np.array([report.value, report.stderr]).tobytes()

        alone = [run(*call) for call in reversed(calls)][::-1]
        assert [run(*call) for call in calls] == alone
        assert alone[0] == np.array(whole_batch_monte_carlo(*calls[0][:2], 40_000, "ball")).tobytes()

    def test_more_threads_than_cores(self):
        # the workspaces go between batches through one list; a workspace handed to
        # two batches at once would mix their points
        import sys

        e = kraus_to_affine(random_channel(RngStream(725), 2))
        serial = mstd_monte_carlo(e, 16 * 32_768 + 5, RngStream(45), workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = mstd_monte_carlo(e, 16 * 32_768 + 5, RngStream(45), workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert (threaded.value, threaded.stderr) == (serial.value, serial.stderr)


class TestRowLayoutArithmetic:
    """The facts of this build that let the row layout keep the row-major code's bytes.

    ``mstd_monte_carlo`` evaluates ``m @ P`` on contiguous rows P (3, k)
    where the earlier code evaluated ``pts @ m.T`` on rows (k, 3), and it
    sums each column's squares as ``(d0*d0 + d2*d2) + d1*d1``, the order
    ``einsum("ij,ij->i")`` took on (k, 3) rows.
    """

    def test_matmul_on_rows_equals_matmul_on_points(self):
        rng = RngStream(726)
        for i in range(200):
            m = kraus_to_affine(random_channel(rng, 1 + i % 4)).m
            pts = ball_samples(rng, 8192)
            assert (m @ np.ascontiguousarray(pts.T)).tobytes() == np.ascontiguousarray((pts @ m.T).T).tobytes()

    def test_einsum_order(self):
        d = ball_samples(RngStream(727), 30_000) - ball_samples(RngStream(728), 30_000)
        d0, d1, d2 = d.T
        assert np.einsum("ij,ij->i", d, d).tobytes() == ((d0 * d0 + d2 * d2) + d1 * d1).tobytes()


def _folded_angle(u):
    """The angle 2 pi u folded into [-pi/2, pi/2] as ``sampling._circle`` folds it."""
    a = 0.5 - u
    return (a - np.copysign(0.25, a)) * (2.0 * np.pi)


class TestColumnLayoutArithmetic:
    """The facts of this build that let the column layout give the plain formulas' bytes.

    ``sampling._rows`` applies each elementwise function to contiguous rows
    (w, n), where the plain formulas in ``test_samplers`` apply it to
    strided columns of row-major (n, w) uniforms. Each function gets the
    arguments the samplers give it.
    """

    N = 100_003

    @pytest.mark.parametrize(
        "fn,arg",
        [
            (np.log1p, lambda u: -u),
            (np.sqrt, lambda u: -2.0 * np.log1p(-u)),
            (np.cos, lambda u: u * (2.0 * np.pi)),
            (np.sin, lambda u: u * (2.0 * np.pi)),
            (np.sqrt, lambda u: (2.0 - 2.0 * u) * (2.0 * u)),
            (np.sqrt, lambda u: u),
            (np.sqrt, lambda u: 1.0 - u),
            (np.cos, lambda u: _folded_angle(u)),
            (np.sin, lambda u: _folded_angle(u)),
            (np.cbrt, lambda u: u),
        ],
    )
    def test_same_bytes_in_every_layout(self, fn, arg):
        rows = arg(RngStream(729).uniforms(4 * self.N)).reshape(4, self.N)
        by_row = [fn(row).tobytes() for row in rows]
        points = np.ascontiguousarray(rows.T)  # row-major (N, 4): column j is strided
        assert [fn(points[:, j]).tobytes() for j in range(4)] == by_row
        in_place = rows.copy()
        for row in in_place:
            fn(row, out=row)
        assert [row.tobytes() for row in in_place] == by_row


def test_report_dataclass_roundtrip():
    report = MstdReport(value=0.1, method="analytic-ball")
    assert report.stderr is None and report.n_samples is None
