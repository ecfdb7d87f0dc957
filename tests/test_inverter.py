import warnings

import numpy as np
import pytest

from quasinv.channels import (
    IDENTITY2,
    PAULIS,
    AffineChannel,
    UnitaryParams,
    kraus_to_affine,
    phase_distance,
    random_channel,
)
from quasinv.inverter import (
    QForm,
    build_q,
    delta_mstd_direct,
    maximize,
    quasi_inverse,
)
from quasinv.numerics import RngStream, sphere4_samples
from quasinv.zoo import make, spec_from_values

PROB_GRID = [
    (0.25, 0.25, 0.25, 0.25),
    (0.1, 0.6, 0.2, 0.1),
    (0.7, 0.1, 0.1, 0.1),
    (0.0, 1.0, 0.0, 0.0),
    (0.5, 0.5, 0.0, 0.0),
    (0.2, 0.3, 0.3, 0.2),
    (0.05, 0.05, 0.05, 0.85),
]


def affine_of(spec):
    return kraus_to_affine(make(spec)[0])


class TestBuildQ:
    @pytest.mark.parametrize("probs", PROB_GRID)
    def test_pauli_form(self, probs):
        qf = build_q(affine_of(spec_from_values("pauli", probs)))
        expected = np.diag([0.0] + [probs[i] - probs[0] for i in (1, 2, 3)])
        assert np.max(np.abs(qf.q - expected)) < 1e-12

    @pytest.mark.parametrize("gamma", [-1.0, -0.5, -0.1, 0.0, 0.4, 1.0])
    def test_gad_form(self, gamma):
        qf = build_q(affine_of(spec_from_values("gad", [gamma, 0.3])))
        g = gamma
        expected = 0.5 * np.diag([0.0, -g * (g + 1), -g * (g + 1), -2 * g])
        assert np.max(np.abs(qf.q - expected)) < 1e-12

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_gad_p_independence(self, p):
        reference = build_q(affine_of(spec_from_values("gad", [-0.6, 0.0]))).q
        assert np.max(np.abs(build_q(affine_of(spec_from_values("gad", [-0.6, p]))).q - reference)) < 1e-12

    @pytest.mark.parametrize("p,theta", [(0.3, 2.8), (0.1, 1.0), (0.33, 0.5), (0.2, 4.0)])
    def test_mixed_unitary_form(self, p, theta):
        qf = build_q(affine_of(spec_from_values("mixed_unitary", [p, theta])))
        v = p * np.sin(theta)
        q = 4 * p * np.sin(theta / 2) ** 2 - 1
        expected = np.zeros((4, 4))
        expected[0, 1:] = expected[1:, 0] = v / 2
        expected[1:, 1:] = q * np.eye(3)
        assert np.max(np.abs(qf.q - expected)) < 1e-12

    @pytest.mark.parametrize("p,pp", [(0.3, 0.1), (0.1, 0.3), (0.2, 0.2), (0.0, 0.5)])
    def test_tetrahedron_form(self, p, pp):
        qf = build_q(affine_of(spec_from_values("tetrahedron", [p, pp])))
        diag = 8 * p / 3 + 8 * pp / 3 - 1
        cross = -2 * p / 3 + 2 * pp / 3
        expected = np.zeros((4, 4))
        expected[1:, 1:] = diag * np.eye(3)
        expected[1, 2] = expected[2, 1] = cross
        assert np.max(np.abs(qf.q - expected)) < 1e-12

    @pytest.mark.parametrize("theta", [0.3, 1.2, 2.5])
    def test_rotation_form(self, theta):
        axis = np.array([2.0, -1.0, 2.0]) / 3.0
        qf = build_q(affine_of(spec_from_values("rotation", [theta, *axis])))
        s2 = np.sin(theta / 2) ** 2
        eps = 0.5 * axis * np.sin(theta)
        expected = np.zeros((4, 4))
        expected[0, 1:] = expected[1:, 0] = eps
        expected[1:, 1:] = s2 * np.outer(axis, axis) + (s2 - 1.0) * np.eye(3)
        assert np.max(np.abs(qf.q - expected)) < 1e-12

    def test_q00_always_zero(self):
        rng = RngStream(501)
        for _ in range(100):
            qf = build_q(kraus_to_affine(random_channel(rng, 1 + rng.u64() % 4)))
            assert qf.q[0, 0] == 0.0
            assert np.array_equal(qf.q, qf.q.T)

    def test_surface_region_scales_by_five_thirds(self):
        rng = RngStream(502)
        for _ in range(20):
            e = kraus_to_affine(random_channel(rng, 3))
            ball = build_q(e).q
            surf = build_q(e, region="surface").q
            assert np.max(np.abs(surf - ball * 5.0 / 3.0)) < 1e-12

    def test_rejects_unknown_region(self):
        with pytest.raises(ValueError):
            build_q(affine_of(spec_from_values("pauli", [1, 0, 0, 0])), region="shell")


class TestMaximize:
    def test_diagonal(self):
        lam, x = maximize(QForm(np.diag([0.0, 0.5, 0.1, 0.0])))
        assert lam == 0.5
        assert np.array_equal(x, [0.0, 1.0, 0.0, 0.0])

    def test_zero_form(self):
        lam, x = maximize(QForm(np.zeros((4, 4))))
        assert lam == 0.0
        assert np.array_equal(x, [1.0, 0.0, 0.0, 0.0])

    def test_mixed_unitary_closed_form(self):
        p, theta = 0.3, 2.8
        v = p * np.sin(theta)
        q = 4 * p * np.sin(theta / 2) ** 2 - 1
        assert q == pytest.approx(0.165333, abs=1e-6)
        assert v == pytest.approx(0.100496, abs=1e-6)
        lam, x = maximize(build_q(affine_of(spec_from_values("mixed_unitary", [p, theta]))))
        lam_expected = 0.5 * (q + np.sqrt(q * q + 3 * v * v))
        assert lam == pytest.approx(0.202701, abs=1e-6)
        assert lam == pytest.approx(lam_expected, abs=1e-12)
        direction = np.array([3 * v / (2 * lam_expected), 1.0, 1.0, 1.0])
        direction /= np.linalg.norm(direction)
        assert np.max(np.abs(x - direction)) < 1e-10

    def test_qform_rejects_asymmetric(self):
        bad = np.zeros((4, 4))
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            QForm(bad)


class TestQuasiInverse:
    def test_pauli_dominant_x(self):
        result = quasi_inverse(affine_of(spec_from_values("pauli", [0.1, 0.6, 0.2, 0.1])))
        assert phase_distance(PAULIS[0], result.unitary) < 1e-12
        assert result.delta_mstd == pytest.approx(0.2, abs=1e-12)
        assert not result.trivial

    def test_gad_positive_gamma_trivial(self):
        for p in (0.0, 0.5, 1.0):
            result = quasi_inverse(affine_of(spec_from_values("gad", [0.3, p])))
            assert result.trivial
            assert np.array_equal(result.unitary, IDENTITY2)
            assert result.delta_mstd == 0.0

    def test_rotation_recovers_adjoint(self):
        k, _ = make(spec_from_values("rotation", [np.pi / 2, 0.0, 0.0, 1.0]))
        u = k.operators[0]
        result = quasi_inverse(kraus_to_affine(k))
        assert phase_distance(u.conj().T, result.unitary) < 1e-12
        assert result.delta_mstd == pytest.approx(0.2, abs=1e-12)
        assert result.mstd_after < 1e-15

    def test_rejects_non_cptp(self):
        with pytest.raises(ValueError, match="CPTP"):
            quasi_inverse(AffineChannel(np.diag([1.0, 1.0, -1.0]), np.zeros(3)))

    def test_rejects_kraus_channel_before_any_check(self, monkeypatch):
        import quasinv.inverter as inverter

        def no_check(e):
            raise AssertionError("validate_cptp ran")

        monkeypatch.setattr(inverter, "validate_cptp", no_check)
        with pytest.raises(TypeError, match="kraus_to_affine"):
            quasi_inverse(random_channel(RngStream(1), 2))

    def test_bookkeeping_invariants(self):
        rng = RngStream(503)
        for _ in range(50):
            result = quasi_inverse(kraus_to_affine(random_channel(rng, 1 + rng.u64() % 4)))
            assert result.lambda_max >= -1e-12
            assert result.delta_mstd == pytest.approx(0.4 * max(result.lambda_max, 0.0), abs=1e-15)
            assert result.mstd_before - result.mstd_after == pytest.approx(
                result.delta_mstd, abs=1e-12
            )
            assert abs(result.x @ result.x - 1.0) < 1e-12

    def test_degenerate_flag_on_tie(self):
        result = quasi_inverse(affine_of(spec_from_values("pauli", [0.1, 0.4, 0.4, 0.1])))
        assert result.degenerate
        assert result.delta_mstd == pytest.approx(0.4 * 0.3, abs=1e-12)

    def test_no_numeric_warnings_on_random_channels(self):
        # index 2119 of this stream is a valid channel on which a Jacobi
        # rotation overflows; no solver may warn on it
        rng = RngStream(5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2200):
                quasi_inverse(kraus_to_affine(random_channel(rng, 2)))


class TestDeltaDirect:
    def test_identity_unitary(self):
        e = affine_of(spec_from_values("gad", [-0.7, 0.1]))
        assert delta_mstd_direct(e, UnitaryParams(1.0, np.zeros(3))) == 0.0

    def test_pauli_example(self):
        e = affine_of(spec_from_values("pauli", [0.1, 0.6, 0.2, 0.1]))
        u = UnitaryParams(0.0, np.array([1.0, 0.0, 0.0]))
        assert delta_mstd_direct(e, u) == pytest.approx(0.2, abs=1e-14)

    def test_path_consistency(self):
        rng = RngStream(504)
        for _ in range(1000):
            e = kraus_to_affine(random_channel(rng, 1 + rng.u64() % 4))
            x = sphere4_samples(rng, 1)[0]
            u = UnitaryParams.from_vector(x)
            qf = build_q(e)
            assert abs(delta_mstd_direct(e, u) - 0.4 * (x @ qf.q @ x)) < 1e-12

    def test_solver_is_optimal_over_samples(self):
        rng = RngStream(505)
        for _ in range(5):
            e = kraus_to_affine(random_channel(rng, 4))
            best = quasi_inverse(e).delta_mstd
            xs = sphere4_samples(rng, 100_000)
            qf = build_q(e)
            vals = 0.4 * np.einsum("ki,ij,kj->k", xs, qf.q, xs)
            assert np.max(vals) <= best + 1e-10
