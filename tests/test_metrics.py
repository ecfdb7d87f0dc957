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
from quasinv.numerics import RngStream, ball_samples, sphere4_samples
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

    def test_agrees_with_analytic_across_channels(self):
        rng = RngStream(411)
        hits = 0
        for i in range(100):
            e = kraus_to_affine(random_channel(rng, 1 + i % 4))
            report = mstd_monte_carlo(e, 100_000, RngStream(5000 + i))
            if abs(report.value - mstd_analytic(e).value) <= 4 * report.stderr:
                hits += 1
        assert hits >= 99


def test_report_dataclass_roundtrip():
    report = MstdReport(value=0.1, method="analytic-ball")
    assert report.stderr is None and report.n_samples is None
