import io
import json
import sys
import warnings

import numpy as np
import pytest

import quasinv.channels as channels
import quasinv.cli as cli
from quasinv.channels import (
    IDENTITY2,
    PAULIS,
    SIGMA_X,
    SIGMA_Z,
    AffineChannel,
    CptpReport,
    KrausChannel,
    UnitaryParams,
    _cptp_report,
    apply,
    check_bloch,
    choi,
    compose,
    identity_channel,
    kraus_to_affine,
    phase_distance,
    random_channel,
    unitary_matrix,
    unitary_to_affine,
    validate_cptp,
)
from quasinv.documents import kraus_document
from quasinv.inverter import QForm, QuasiInverseResult, quasi_inverse
from quasinv.metrics import mstd_analytic, trace_distance
from quasinv.numerics import eig_herm4, eig_sym4
from quasinv.sampling import RngStream, ball_samples, sphere4_samples
from quasinv.zoo import (
    FAMILIES,
    GoldenExpectation,
    make,
    spec_from_values,
)
from test_cli import FAMILY_DOCUMENTS

AXIS_STATES = [
    np.array(v, dtype=float)
    for v in [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
]


def gad_kraus(gamma, p):
    off = np.sqrt(1 - gamma * gamma)
    return KrausChannel(
        [
            np.sqrt(p) * np.array([[1, 0], [0, gamma]], dtype=complex),
            np.sqrt(p) * np.array([[0, off], [0, 0]], dtype=complex),
            np.sqrt(1 - p) * np.array([[gamma, 0], [0, 1]], dtype=complex),
            np.sqrt(1 - p) * np.array([[0, 0], [off, 0]], dtype=complex),
        ]
    )


def bloch_of(rho):
    return np.array([np.trace(s @ rho).real for s in PAULIS])


def density_of(r):
    return 0.5 * (IDENTITY2 + r[0] * PAULIS[0] + r[1] * PAULIS[1] + r[2] * PAULIS[2])


class TestKrausChannel:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            KrausChannel([])

    def test_rejects_non_tp(self):
        with pytest.raises(ValueError, match="trace preserving"):
            KrausChannel([0.5 * IDENTITY2])

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            KrausChannel([np.eye(3)])

    def test_tp_residual_small_for_valid(self):
        assert gad_kraus(0.4, 0.7).tp_residual() < 1e-15

    @pytest.mark.parametrize(
        "ops",
        [
            [np.eye(2, dtype=bool)],
            [[["1", "0"], ["0", "1"]]],
            [[[b"1", b"0"], [b"0", b"1"]]],
        ],
        ids=["bool", "str", "bytes"],
    )
    def test_rejects_bool_and_text(self, ops):
        with pytest.raises(TypeError, match="operators"):
            KrausChannel(ops)

    @pytest.mark.parametrize("ops", [[np.eye(2, dtype=int)], [np.eye(2)], [[[1, 0], [0, 1j]]]])
    def test_accepts_real_and_complex_numbers(self, ops):
        k = KrausChannel(ops)
        assert k.operators.dtype == complex
        assert np.array_equal(k.operators[0], np.asarray(ops[0], dtype=complex))

    def test_operators_are_one_read_only_stack(self):
        ops = [SIGMA_X.copy()]
        k = KrausChannel(ops)
        assert k.operators.shape == (1, 2, 2) and k.operators.dtype == complex
        with pytest.raises(ValueError):
            k.operators[0, 0, 0] = 2.0
        ops[0][0, 0] = 2.0  # the channel holds its own copy
        assert k.operators[0, 0, 0] == 0.0
        assert k.residual == k.tp_residual()


class TestKrausToAffine:
    def test_identity(self):
        e = kraus_to_affine(KrausChannel([IDENTITY2]))
        assert np.allclose(e.m, np.eye(3), atol=1e-15)
        assert np.allclose(e.c, 0.0, atol=1e-15)

    def test_sigma_x(self):
        e = kraus_to_affine(KrausChannel([SIGMA_X]))
        assert np.allclose(e.m, np.diag([1.0, -1.0, -1.0]), atol=1e-15)
        assert np.allclose(e.c, 0.0, atol=1e-15)
        # cross-check on the six axis states via density matrices
        k = KrausChannel([SIGMA_X])
        for r in AXIS_STATES:
            z = bloch_of(k.evaluate(density_of(r)))
            assert np.allclose(e.m @ r + e.c, z, atol=1e-14)

    @pytest.mark.parametrize("gamma", [-0.9, -0.5, 0.0, 0.3, 0.8, 1.0])
    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 1.0])
    def test_gad_affine(self, gamma, p):
        e = kraus_to_affine(gad_kraus(gamma, p))
        assert np.allclose(e.m, np.diag([gamma, gamma, gamma * gamma]), atol=1e-14)
        expected_c = np.array([0.0, 0.0, (1 - gamma * gamma) * (2 * p - 1)])
        assert np.allclose(e.c, expected_c, atol=1e-14)


class TestApplyCompose:
    def test_apply_identity(self):
        r = np.array([0.3, 0.0, 0.0])
        assert np.array_equal(apply(identity_channel(), r), r)

    def test_apply_depolarizing(self):
        e = AffineChannel(np.zeros((3, 3)), np.zeros(3))
        assert np.array_equal(apply(e, [0.1, -0.5, 0.7]), np.zeros(3))

    def test_apply_gad(self):
        e = kraus_to_affine(gad_kraus(0.5, 1.0))
        assert np.allclose(apply(e, np.zeros(3)), [0.0, 0.0, 0.75], atol=1e-15)

    def test_apply_rejects_outside_ball(self):
        with pytest.raises(ValueError):
            apply(identity_channel(), [1.2, 0.0, 0.0])

    def test_compose_with_identity(self):
        e = kraus_to_affine(gad_kraus(-0.3, 0.2))
        for lhs, rhs in [(identity_channel(), e), (e, identity_channel())]:
            composed = compose(lhs, rhs)
            assert np.allclose(composed.m, e.m, atol=1e-15)
            assert np.allclose(composed.c, e.c, atol=1e-15)

    def test_compose_involution(self):
        flip = kraus_to_affine(KrausChannel([SIGMA_X]))
        composed = compose(flip, flip)
        assert np.allclose(composed.m, np.eye(3), atol=1e-15)

    def test_compose_matches_kraus_concatenation(self):
        rng = RngStream(777)
        for _ in range(20):
            k1 = random_channel(rng, 2)
            k2 = random_channel(rng, 3)
            products = [b @ a for b in k2.operators for a in k1.operators]
            via_kraus = kraus_to_affine(KrausChannel(products))
            via_affine = compose(kraus_to_affine(k2), kraus_to_affine(k1))
            assert np.max(np.abs(via_kraus.m - via_affine.m)) < 1e-10
            assert np.max(np.abs(via_kraus.c - via_affine.c)) < 1e-10

    def test_contraction_property(self):
        rng = RngStream(778)
        for _ in range(20):
            e = kraus_to_affine(random_channel(rng, 4))
            pts = ball_samples(rng, 200)
            images = pts @ e.m.T + e.c
            assert np.all(np.linalg.norm(images, axis=1) <= 1.0 + 1e-9)


class TestUnitaries:
    def test_identity_params(self):
        u = UnitaryParams(1.0, np.zeros(3))
        e = unitary_to_affine(u)
        assert np.array_equal(e.m, np.eye(3))
        assert np.array_equal(unitary_matrix(u), IDENTITY2)

    def test_sigma_x_params(self):
        u = UnitaryParams(0.0, np.array([1.0, 0.0, 0.0]))
        e = unitary_to_affine(u)
        assert np.allclose(e.m, np.diag([1.0, -1.0, -1.0]), atol=1e-15)
        direct = kraus_to_affine(KrausChannel([SIGMA_X]))
        assert np.allclose(e.m, direct.m, atol=1e-15)

    def test_i_sigma_z(self):
        u = UnitaryParams(0.0, np.array([0.0, 0.0, 1.0]))
        assert np.array_equal(unitary_matrix(u), 1j * SIGMA_Z)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            UnitaryParams(1.0, np.array([0.1, 0.0, 0.0]))

    def test_rotation_is_special_orthogonal(self):
        rng = RngStream(779)
        for x in sphere4_samples(rng, 200):
            e = unitary_to_affine(UnitaryParams.from_vector(x))
            assert np.max(np.abs(e.m.T @ e.m - np.eye(3))) < 1e-12
            assert abs(np.linalg.det(e.m) - 1.0) < 1e-10

    def test_unitary_matrix_is_unitary(self):
        rng = RngStream(780)
        for x in sphere4_samples(rng, 100):
            v = unitary_matrix(UnitaryParams.from_vector(x))
            assert np.max(np.abs(v @ v.conj().T - IDENTITY2)) < 1e-12

    def test_conjugation_matches_affine(self):
        rng = RngStream(781)
        for x in sphere4_samples(rng, 50):
            u = UnitaryParams.from_vector(x)
            v = unitary_matrix(u)
            e = unitary_to_affine(u)
            for r in AXIS_STATES:
                rho_out = v @ density_of(r) @ v.conj().T
                assert np.allclose(bloch_of(rho_out), e.m @ r, atol=1e-12)


class TestChoi:
    def test_identity_channel(self):
        w = eig_herm4(choi(identity_channel()))
        assert np.allclose(w, [2.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_depolarizing(self):
        w = eig_herm4(choi(AffineChannel(np.zeros((3, 3)), np.zeros(3))))
        assert np.allclose(w, [0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_trace_is_two(self):
        rng = RngStream(782)
        for _ in range(10):
            e = kraus_to_affine(random_channel(rng, 3))
            assert abs(np.trace(choi(e)).real - 2.0) < 1e-12

    @pytest.mark.parametrize(
        "probs", [(0.25, 0.25, 0.25, 0.25), (0.1, 0.6, 0.2, 0.1), (0.7, 0.0, 0.3, 0.0)]
    )
    def test_pauli_channel_spectrum(self, probs):
        ops = [np.sqrt(probs[0]) * IDENTITY2] + [
            np.sqrt(probs[i + 1]) * PAULIS[i] for i in range(3)
        ]
        k = KrausChannel(ops)
        # independent Kraus-form Choi: sum_ij |i><j| (x) E(|i><j|)
        reference = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                eij = np.zeros((2, 2), dtype=complex)
                eij[i, j] = 1.0
                reference += np.kron(eij, k.evaluate(eij))
        assert np.allclose(choi(kraus_to_affine(k)), reference, atol=1e-12)
        w = eig_herm4(reference)
        expected = np.sort(2.0 * np.asarray(probs))[::-1]
        assert np.allclose(w, expected, atol=1e-12)


ZOO_POINTS = [
    spec_from_values("pauli", [0.1, 0.6, 0.2, 0.1]),
    spec_from_values("pauli", [0.25, 0.25, 0.25, 0.25]),
    spec_from_values("gad", [-0.5, 0.2]),
    spec_from_values("gad", [0.3, 1.0]),
    spec_from_values("mixed_unitary", [0.3, 2.8]),
    spec_from_values("mixed_unitary", [1.0 / 3.0, 0.4]),
    spec_from_values("tetrahedron", [0.3, 0.1]),
    spec_from_values("tetrahedron", [0.25, 0.25]),
    spec_from_values("rotation", [1.2, 1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0]),
    spec_from_values("rotation", [np.pi, 0.0, 0.0, 1.0]),
]


def einsum_check_channels():
    channels = [make(spec)[0] for spec in ZOO_POINTS]
    rng = RngStream(4242)
    channels += [random_channel(rng, 1 + i % 4) for i in range(200)]
    return channels


def affine_by_definition(k):
    """m_ij = Tr(s_i E(s_j))/2 and c_i = Tr(s_i E(I))/2, from KrausChannel.evaluate."""
    m = np.array(
        [[0.5 * np.trace(PAULIS[i] @ k.evaluate(PAULIS[j])).real for j in range(3)] for i in range(3)]
    )
    c = np.array([0.5 * np.trace(s @ k.evaluate(IDENTITY2)).real for s in PAULIS])
    return m, c


def choi_by_definition(k):
    """sum_ij |i><j| (x) E(|i><j|), from KrausChannel.evaluate."""
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            eij = np.zeros((2, 2), dtype=complex)
            eij[i, j] = 1.0
            out += np.kron(eij, k.evaluate(eij))
    return out


class TestEinsumMatchesDefinitions:
    def test_points_cover_every_family(self):
        assert {spec.family for spec in ZOO_POINTS} == set(FAMILIES)

    def test_kraus_to_affine(self):
        for k in einsum_check_channels():
            m, c = affine_by_definition(k)
            e = kraus_to_affine(k)
            assert np.max(np.abs(e.m - m)) < 1e-14
            assert np.max(np.abs(e.c - c)) < 1e-14

    def test_tp_residual(self):
        # the einsum sums in another order than the loop: allow a few ulps
        for k in einsum_check_channels():
            loop = np.linalg.norm(sum(op.conj().T @ op for op in k.operators) - IDENTITY2)
            assert abs(k.tp_residual() - loop) <= 8 * np.finfo(float).eps

    def test_choi(self):
        # The affine form is trace preserving by construction, so its Choi
        # matrix also differs from the Kraus one by the Kraus set's TP residual.
        for k in einsum_check_channels():
            gap = np.max(np.abs(choi(kraus_to_affine(k)) - choi_by_definition(k)))
            assert gap < 1e-14 + k.tp_residual()


class TestValidateCptp:
    def test_uniform_pauli_passes(self):
        ops = [0.5 * IDENTITY2] + [0.5 * s for s in PAULIS]
        report = validate_cptp(KrausChannel(ops))
        assert report.passed
        assert report.tp_residual < 1e-12
        assert report.min_choi_eigenvalue > -1e-12

    def test_reflection_fails(self):
        report = validate_cptp(AffineChannel(np.diag([1.0, 1.0, -1.0]), np.zeros(3)))
        assert not report.passed
        assert report.tp_exact
        assert report.tp_residual is None
        assert report.min_choi_eigenvalue < -0.1

    def test_random_channels_pass(self):
        rng = RngStream(783)
        for n_kraus in (1, 2, 3, 4):
            report = validate_cptp(random_channel(rng, n_kraus))
            assert report.passed

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            validate_cptp(np.eye(3))

    def test_kraus_report_reads_the_stored_residual(self, monkeypatch):
        k = random_channel(RngStream(5), 3)
        calls = []
        original = KrausChannel.tp_residual

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(KrausChannel, "tp_residual", counting)
        report = validate_cptp(k)
        assert calls == []
        assert report.tp_residual == k.residual


# TP residual 7.07e-11 passes TP_TOL = 1e-10, but |c| = 1 + 5e-11 is past
# the 1 + 1e-12 bound on c: the affine form's own check must catch it.
KRAUS_C_BOUNDARY = [np.array([[1.000000000025, 0], [0, 0]]), np.array([[0, 1.000000000025], [0, 0]])]


class TestKrausTranslationBoundary:
    def test_tp_passes_and_the_affine_check_refuses(self):
        k = KrausChannel(KRAUS_C_BOUNDARY)
        assert 7.0e-11 < k.residual <= 1e-10
        with pytest.raises(ValueError, match="translation vector outside the ball"):
            kraus_to_affine(k)

    def test_validate_cptp_raises_instead_of_reporting(self):
        with pytest.raises(ValueError, match="translation vector outside the ball"):
            validate_cptp(KrausChannel(KRAUS_C_BOUNDARY))


# two separately built values that hold equal arrays
EQUAL_VALUES = {
    "affine": lambda: AffineChannel(np.eye(3), np.zeros(3)),
    "identity": identity_channel,
    "kraus": lambda: KrausChannel([IDENTITY2]),
    "unitary": lambda: UnitaryParams(1.0, np.zeros(3)),
    "qform": lambda: QForm(np.zeros((4, 4))),
    "result": lambda: QuasiInverseResult(np.eye(4)[0], IDENTITY2, 0.0, 0.0, 0.1, 0.1, True, False),
    "golden": lambda: GoldenExpectation(IDENTITY2, 0.0, np.zeros((4, 4))),
}


class TestIdentityEquality:
    """Values holding arrays compare by identity, never by their array fields."""

    @pytest.mark.parametrize("name_a,name_b", [("affine", "identity"), *((n, n) for n in EQUAL_VALUES)])
    def test_distinct_values_are_unequal(self, name_a, name_b):
        a, b = EQUAL_VALUES[name_a](), EQUAL_VALUES[name_b]()
        assert (a == b) is False
        assert (a != b) is True
        assert a == a

class TestRandomChannel:
    def test_tp_to_tolerance(self):
        rng = RngStream(784)
        for n_kraus in (1, 2, 3, 4):
            assert random_channel(rng, n_kraus).tp_residual() < 1e-10

    def test_unitary_case_is_orthogonal(self):
        rng = RngStream(785)
        for _ in range(20):
            e = kraus_to_affine(random_channel(rng, 1))
            assert np.max(np.abs(e.m.T @ e.m - np.eye(3))) < 1e-9

    def test_seed_determinism(self):
        ops_a = random_channel(RngStream(99), 3).operators
        ops_b = random_channel(RngStream(99), 3).operators
        for a, b in zip(ops_a, ops_b):
            assert np.array_equal(a, b)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            random_channel(RngStream(0), 5)


class TestAffineChannelValidation:
    def test_rejects_large_translation(self):
        with pytest.raises(ValueError, match="translation"):
            AffineChannel(np.zeros((3, 3)), np.array([0.0, 0.0, 1.5]))

    def test_rejects_expanding_map(self):
        with pytest.raises(ValueError, match="singular value"):
            AffineChannel(np.diag([2.0, 0.0, 0.0]), np.zeros(3))

    def test_check_bloch_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            check_bloch([1.0, 0.0])


class TestPhaseDistance:
    def test_phase_invariance(self):
        v = unitary_matrix(UnitaryParams(0.6, np.array([0.8, 0.0, 0.0])))
        assert phase_distance(v, np.exp(1j * 1.2345) * v) < 1e-15

    def test_detects_difference(self):
        assert phase_distance(IDENTITY2, SIGMA_X) > 1.0


@pytest.mark.filterwarnings("error")
class TestBoundsRejectNan:
    """Overflowing or NaN inputs fail every bound, without a numeric warning."""

    def test_overflowing_m_is_rejected(self):
        with pytest.raises(ValueError, match="singular value"):
            AffineChannel(np.diag([1e300, 1.0, 1.0]), np.zeros(3))

    def test_m_with_cancelling_overflow_is_rejected(self):
        # the Gram matrix gets inf - inf = nan off the diagonal
        m = np.array([[1e200, 1e200, 0.0], [1e200, -1e200, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="singular value"):
            AffineChannel(m, np.zeros(3))

    def test_overflowing_c_is_rejected(self):
        with pytest.raises(ValueError, match="translation"):
            AffineChannel(0.5 * np.eye(3), np.array([1e200, 0.0, 0.0]))

    def test_overflowing_kraus_set_is_rejected(self):
        with pytest.raises(ValueError, match="trace preserving"):
            KrausChannel([[[1e200, 0], [0, 0]], [[0, 0], [1, 0]]])

    def test_nan_unitary_params_rejected(self):
        with pytest.raises(ValueError, match="unit length"):
            UnitaryParams(np.nan, [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("call", [
        check_bloch,
        lambda r: trace_distance(r, [0.0, 0.0, 0.0]),
        lambda r: apply(identity_channel(), r),
    ], ids=["check_bloch", "trace_distance", "apply"])
    def test_overflowing_bloch_vector_is_rejected(self, call):
        # |r|^2 overflows to inf: the bound refuses it with no overflow warning
        with pytest.raises(ValueError, match=r"^Bloch vector leaves the unit ball: \|r\| = inf$"):
            call([1e200, 0.0, 0.0])

    def test_nan_matrix_is_refused_as_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            eig_herm4(np.full((4, 4), np.nan))


class TestTpTolerance:
    def test_report_uses_the_kraus_tolerance(self):
        assert CptpReport(False, 5e-10, 0.0).passed is False
        assert CptpReport(False, 1e-10, 0.0).passed is True


def cptp_check_maps():
    """Zoo points, 1,000 random channels with 1-4 operators, and affine maps that fail the CP check."""
    maps = [kraus_to_affine(make(spec)[0]) for spec in ZOO_POINTS]
    rng = RngStream(1717)
    maps += [kraus_to_affine(random_channel(rng, 1 + i % 4)) for i in range(1000)]
    maps += [
        AffineChannel(np.diag([1.0, -1.0, 1.0]), np.zeros(3)),  # the transpose map
        AffineChannel(np.eye(3), np.array([0.5, 0.0, 0.0])),
        AffineChannel(np.diag([0.9, 0.9, -0.9]), np.array([0.0, 0.1, 0.0])),
    ]
    for _ in range(200):
        m = rng.normals(9).reshape(3, 3)
        c = ball_samples(rng, 1)[0]
        maps.append(AffineChannel(m / np.linalg.norm(m, 2), c))
    return maps


class TestCptpReportEigenvalue:
    """_cptp_report hands the Choi matrix to LAPACK without eig_herm4's check and symmetrization."""

    def test_choi_is_exactly_hermitian_and_the_eigenvalue_unchanged(self):
        failed = 0
        for a in cptp_check_maps():
            h = choi(a)
            assert np.array_equal(h, h.conj().T)
            report = _cptp_report(a, None)
            assert report.min_choi_eigenvalue.hex() == float(eig_herm4(h)[-1]).hex()
            failed += not report.passed
        assert failed > 3


class TestRandomChannelCount:
    @pytest.mark.parametrize("n_kraus", [2.7, 2.0, "3", None])
    def test_non_integer_raises_type_error(self, n_kraus):
        with pytest.raises(TypeError):
            random_channel(RngStream(1), n_kraus)

    def test_numpy_integer_is_an_integer(self):
        k = random_channel(RngStream(1), np.int64(3))
        assert k.operators.shape == (3, 2, 2)
        assert np.array_equal(k.operators, random_channel(RngStream(1), 3).operators)


# (intake, field, a valid argument, complex, boolean and string stand-ins for it)
_M = 0.5 * np.eye(3)
_Q = np.diag([0.0, 1.0, 2.0, 3.0])
_BAD3 = ([0, 0, 0.5j], np.zeros(3, dtype=bool), ["0", "0", "0"])
_BAD44 = (_Q + 0j, np.eye(4, dtype=bool), _Q.astype(str))
INTAKES = [
    pytest.param(lambda m: AffineChannel(m, np.zeros(3)), "m", _M,
                 (_M + 0.1j, np.eye(3, dtype=bool), [[0.5, 0, 0], [0, 0.5, 0], [0, 0, "0.5"]]), id="AffineChannel.m"),
    pytest.param(lambda c: AffineChannel(_M, c), "c", np.zeros(3), _BAD3, id="AffineChannel.c"),
    pytest.param(lambda x0: UnitaryParams(x0, np.zeros(3)), "x0", 1.0, (1.0 + 0j, True, "1.0"), id="UnitaryParams.x0"),
    pytest.param(lambda x: UnitaryParams(1.0, x), "xvec", np.zeros(3), _BAD3, id="UnitaryParams.xvec"),
    pytest.param(UnitaryParams.from_vector, "x4", np.eye(4)[0],
                 ([1, 0, 0, 0j], np.eye(4, dtype=bool)[0], ["1", "0", "0", "0"]), id="from_vector"),
    pytest.param(QForm, "q", _Q, _BAD44, id="QForm"),
    pytest.param(check_bloch, "Bloch vector", np.zeros(3), _BAD3, id="check_bloch"),
    pytest.param(eig_sym4, "q", _Q, _BAD44, id="eig_sym4"),
]
# (intake, field, valid integer, real and complex arguments, boolean and text stand-ins for them)
_HERMITIAN = _Q + 0.5j * (np.eye(4, k=1) - np.eye(4, k=-1))
COMPLEX_INTAKES = [
    pytest.param(KrausChannel, "operators", ([np.eye(2, dtype=int)], [np.eye(2)], [1j * np.eye(2)]),
                 ([np.eye(2, dtype=bool)], [np.eye(2).astype(str)], [np.eye(2).astype(bytes)]), id="KrausChannel"),
    pytest.param(eig_herm4, "matrix", (np.eye(4, dtype=int), _Q, _HERMITIAN),
                 (np.eye(4, dtype=bool), _Q.astype(str), _Q.astype(bytes)), id="eig_herm4"),
]


def layout_channels():
    """kraus_to_affine's channels, with m in C order and as a Fortran copy, a transposed copy and a strided view."""
    rng = RngStream(9)
    for i in range(2000):
        e = kraus_to_affine(random_channel(rng, 1 + i % 4))
        wide = np.zeros((3, 5))
        wide[:, 1:4] = e.m
        yield e, [np.asfortranarray(e.m), e.m.T.copy().T, wide[:, 1:4]]


class TestRealArrayIntake:
    """AffineChannel, UnitaryParams, QForm, check_bloch and eig_sym4 keep read-only C-ordered float copies.

    KrausChannel and eig_herm4 take complex arrays through the same intake, which refuses only boolean and text.
    """

    @pytest.mark.parametrize("intake, name, valid, bad", INTAKES)
    def test_refuses_complex_boolean_and_text(self, intake, name, valid, bad):
        intake(valid)
        for value in bad:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no ComplexWarning on the way to the refusal
                with pytest.raises(TypeError, match=f"^{name} must be real, got dtype"):
                    intake(value)

    @pytest.mark.parametrize("intake, name, valid, bad", COMPLEX_INTAKES)
    def test_complex_intakes_refuse_boolean_and_text(self, intake, name, valid, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for value in valid:
                intake(value)
            for value in bad:
                with pytest.raises(TypeError, match=f"^{name} must be numeric, got dtype"):
                    intake(value)

    def test_wrong_shape_names_field_and_both_shapes(self):
        with pytest.raises(ValueError, match=r"^c must have shape \(3,\), got \(2,\)$"):
            AffineChannel(_M, np.zeros(2))
        with pytest.raises(ValueError, match=r"^q must have shape \(4, 4\), got \(3, 3\)$"):
            eig_sym4(np.eye(3))

    def test_source_mutation_leaves_object_unchanged(self):
        m, c, x, q = _M.copy(), np.zeros(3), np.zeros(3), _Q.copy()
        e, u, qf = AffineChannel(m, c), UnitaryParams(1.0, x), QForm(q)
        before = mstd_analytic(e).value
        m[:] = 3.0
        c[:] = 0.5
        x[:] = 1.0
        q[:] = 7.0
        assert np.array_equal(e.m, _M) and not e.c.any() and not u.xvec.any() and np.array_equal(qf.q, _Q)
        assert mstd_analytic(e).value == before

    def test_stored_arrays_are_read_only_c_copies(self):
        e, u, qf = AffineChannel(np.asfortranarray(_M), np.zeros(3)), UnitaryParams(1.0, np.zeros(3)), QForm(_Q)
        for a in (e.m, e.c, u.xvec, qf.q):
            assert a.dtype == np.float64 and a.flags.c_contiguous
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0

    def test_layouts_give_bitwise_equal_results(self):
        for e, views in layout_channels():
            analytic, result = mstd_analytic(e).value, quasi_inverse(e)
            for view in views:
                f = AffineChannel(view, e.c)
                assert mstd_analytic(f).value.hex() == analytic.hex()
                got = quasi_inverse(f)
                assert got.mstd_before.hex() == result.mstd_before.hex()
                assert got.mstd_after.hex() == result.mstd_after.hex()

    def test_analyze_builds_no_unitary_params(self, capsys, monkeypatch):
        docs = FAMILY_DOCUMENTS + [kraus_document(random_channel(RngStream(12), 3))]

        def analyze_all():
            outs = []
            for doc in docs:
                monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
                assert cli.main(["analyze", "-"]) == 0
                outs.append(capsys.readouterr())
            return outs

        expected = analyze_all()

        def refuse(self):
            raise AssertionError("UnitaryParams built")

        monkeypatch.setattr(channels.UnitaryParams, "__post_init__", refuse)
        assert analyze_all() == expected
