import numpy as np
import pytest

from quasinv.channels import (
    IDENTITY2,
    PAULIS,
    UnitaryParams,
    kraus_to_affine,
    phase_distance,
    validate_cptp,
)
from quasinv.inverter import delta_mstd_direct, quasi_inverse
from quasinv.numerics import RngStream
from quasinv.oracle import brute_force_best
from quasinv.zoo import (
    FAMILY_TABLE,
    FamilySpec,
    GoldenExpectation,
    gad_spec,
    make,
    mixed_unitary_spec,
    pauli_spec,
    rotation_spec,
    spec_from_values,
    tetrahedron_spec,
)


def check_golden(spec, tol_v=1e-9, tol_delta=1e-10):
    """Solver output must reproduce the family's closed-form optimum."""
    kraus, gold = make(spec)
    e = kraus_to_affine(kraus)
    result = quasi_inverse(e)
    assert result.delta_mstd == pytest.approx(gold.expected_delta, abs=tol_delta)
    if gold.degenerate:
        # several optima: the solver's pick must achieve the same decrease
        x = result.x
        achieved = delta_mstd_direct(e, UnitaryParams.from_vector(x))
        assert achieved == pytest.approx(gold.expected_delta, abs=1e-10)
    else:
        assert phase_distance(gold.expected_unitary, result.unitary) < tol_v
    return kraus, gold, result


class TestPauli:
    def test_identity_point(self):
        kraus, gold, result = check_golden(pauli_spec(1.0, 0.0, 0.0, 0.0))
        assert result.trivial
        assert np.array_equal(result.unitary, IDENTITY2)
        assert gold.expected_delta == 0.0

    @pytest.mark.parametrize(
        "probs,expect_i",
        [
            ((0.1, 0.6, 0.2, 0.1), 0),
            ((0.1, 0.2, 0.6, 0.1), 1),
            ((0.1, 0.1, 0.2, 0.6), 2),
        ],
    )
    def test_dominant_axes(self, probs, expect_i):
        _, gold, result = check_golden(pauli_spec(*probs))
        assert phase_distance(PAULIS[expect_i], result.unitary) < 1e-12
        assert gold.expected_delta == pytest.approx(0.4 * (0.6 - 0.1), abs=1e-15)

    def test_affine_matches_closed_form(self):
        probs = (0.2, 0.3, 0.4, 0.1)
        e = kraus_to_affine(make(pauli_spec(*probs))[0])
        alpha = lambda i, j: 1 - 2 * probs[i] - 2 * probs[j]
        assert np.allclose(e.m, np.diag([alpha(2, 3), alpha(1, 3), alpha(1, 2)]), atol=1e-14)
        assert np.allclose(e.c, 0.0, atol=1e-15)

    def test_tie_accepts_any_optimal_axis(self):
        check_golden(pauli_spec(0.1, 0.4, 0.4, 0.1))

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            make(pauli_spec(0.5, 0.5, 0.5, -0.5))
        with pytest.raises(ValueError):
            make(pauli_spec(0.4, 0.4, 0.4, 0.4))


class TestGad:
    @pytest.mark.parametrize("gamma", [-1.0, -0.75, -0.5, -0.25])
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_negative_gamma(self, gamma, p):
        _, gold, result = check_golden(gad_spec(gamma, p))
        assert phase_distance(PAULIS[2], result.unitary) < 1e-12
        assert gold.expected_delta == pytest.approx(-0.4 * gamma, abs=1e-15)

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.75, 1.0])
    def test_positive_gamma_no_inverse(self, gamma):
        _, _, result = check_golden(gad_spec(gamma, 0.2))
        assert result.trivial

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            make(gad_spec(1.5, 0.2))
        with pytest.raises(ValueError):
            make(gad_spec(0.5, -0.1))


class TestMixedUnitary:
    @pytest.mark.parametrize("p,theta", [(0.3, 2.8), (0.26, 3.0), (0.33, 2.6), (0.3, -2.8)])
    def test_q_nonnegative_regime(self, p, theta):
        q = 4 * p * np.sin(theta / 2) ** 2 - 1
        assert q >= 0  # grid sanity
        kraus, gold, result = check_golden(mixed_unitary_spec(p, theta))
        v = p * np.sin(theta)
        lam = 0.5 * (q + np.sqrt(q * q + 3 * v * v))
        assert gold.expected_delta == pytest.approx(0.4 * lam, abs=1e-15)

    def test_expected_unitary_structure(self):
        # V = exp(i phi n.sigma) along the diagonal axis
        kraus, gold = make(mixed_unitary_spec(0.3, 2.8))
        v = 0.3 * np.sin(2.8)
        q = 4 * 0.3 * np.sin(1.4) ** 2 - 1
        lam = 0.5 * (q + np.sqrt(q * q + 3 * v * v))
        cos_phi = np.sqrt(3) * v / np.sqrt(3 * v * v + 4 * lam * lam)
        n = np.ones(3) / np.sqrt(3)
        sin_phi = np.sqrt(1 - cos_phi**2)
        expected = cos_phi * IDENTITY2 + 1j * sin_phi * (
            n[0] * PAULIS[0] + n[1] * PAULIS[1] + n[2] * PAULIS[2]
        )
        assert phase_distance(expected, gold.expected_unitary) < 1e-12

    @pytest.mark.parametrize("p,theta", [(0.05, 0.5), (0.2, 0.8), (1.0 / 3.0, 1.5)])
    def test_q_negative_regime_against_brute_force(self, p, theta):
        assert 4 * p * np.sin(theta / 2) ** 2 - 1 < 0  # grid sanity
        kraus, gold = make(mixed_unitary_spec(p, theta))
        assert gold.expected_unitary is None and gold.expected_delta is None
        e = kraus_to_affine(kraus)
        result = quasi_inverse(e)
        _, best = brute_force_best(e, 200_000, RngStream(601))
        assert best <= result.delta_mstd + 1e-10
        if result.lambda_max >= 0.05:
            # random search only brackets the optimum when the peak is wide
            assert best >= 0.99 * result.delta_mstd

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            make(mixed_unitary_spec(0.4, 1.0))


class TestTetrahedron:
    def test_example_point(self):
        kraus, gold, result = check_golden(tetrahedron_spec(0.3, 0.1))
        expected_v = (PAULIS[0] - PAULIS[1]) / np.sqrt(2)
        assert phase_distance(expected_v, result.unitary) < 1e-12
        assert gold.expected_delta == pytest.approx(0.08, abs=1e-15)

    def test_mirror_point(self):
        kraus, gold, result = check_golden(tetrahedron_spec(0.1, 0.3))
        expected_v = (PAULIS[0] + PAULIS[1]) / np.sqrt(2)
        assert phase_distance(expected_v, result.unitary) < 1e-12
        assert gold.expected_delta == pytest.approx(0.08, abs=1e-15)

    def test_tie_both_branches_optimal(self):
        kraus, gold, result = check_golden(tetrahedron_spec(0.25, 0.25))
        e = kraus_to_affine(kraus)
        for sign in (+1.0, -1.0):
            x = np.array([0.0, 1.0, sign, 0.0]) / np.sqrt(2)
            achieved = delta_mstd_direct(e, UnitaryParams.from_vector(x))
            assert achieved == pytest.approx(gold.expected_delta, abs=1e-12)

    def test_no_inverse_region(self):
        _, gold, result = check_golden(tetrahedron_spec(0.05, 0.05))
        assert result.trivial and gold.expected_delta == 0.0

    def test_affine_matches_closed_form(self):
        p, pp = 0.3, 0.1
        e = kraus_to_affine(make(tetrahedron_spec(p, pp))[0])
        t = 1 - 8 * p / 3 - 8 * pp / 3
        s = -4 * p / 3 + 4 * pp / 3
        expected = np.array([[t, s, 0.0], [s, t, 0.0], [0.0, 0.0, t]])
        assert np.allclose(e.m, expected, atol=1e-14)
        assert np.allclose(e.c, 0.0, atol=1e-15)

    def test_rejects_over_normalized(self):
        with pytest.raises(ValueError):
            make(tetrahedron_spec(0.3, 0.3))


class TestRotation:
    @pytest.mark.parametrize("theta", [0.0, 0.7, np.pi / 2, np.pi, 5.0])
    def test_adjoint_recovery(self, theta):
        axis = np.array([1.0, 2.0, -2.0]) / 3.0
        kraus, gold, result = check_golden(rotation_spec(theta, axis))
        assert result.mstd_after < 1e-12
        assert gold.expected_delta == pytest.approx(0.4 * np.sin(theta / 2) ** 2, abs=1e-15)
        assert phase_distance(kraus.operators[0].conj().T, result.unitary) < 1e-9

    def test_mixed_unitary_affine_matches_closed_form(self):
        p, theta = 0.2, 1.3
        e = kraus_to_affine(make(mixed_unitary_spec(p, theta))[0])
        v = p * np.sin(theta)
        q = 4 * p * np.sin(theta / 2) ** 2 - 1
        expected = np.array([[-q, -v, v], [v, -q, -v], [-v, v, -q]])
        assert np.allclose(e.m, expected, atol=1e-14)

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            make(rotation_spec(1.0, [1.0, 1.0, 0.0]))


class TestFamilyPlumbing:
    def test_all_families_pass_cptp(self):
        specs = [
            pauli_spec(0.4, 0.3, 0.2, 0.1),
            gad_spec(-0.7, 0.25),
            mixed_unitary_spec(0.3, 2.0),
            tetrahedron_spec(0.2, 0.15),
            rotation_spec(1.1, [0.0, 1.0, 0.0]),
        ]
        for spec in specs:
            kraus, _ = make(spec)
            assert validate_cptp(kraus).passed

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            FamilySpec("squeeze", {})

    def test_expectation_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            GoldenExpectation(expected_unitary=IDENTITY2, expected_delta=-0.1)

    def test_expected_q_matches_build_q(self):
        from quasinv.inverter import build_q

        specs = [
            pauli_spec(0.4, 0.3, 0.2, 0.1),
            gad_spec(-0.7, 0.25),
            mixed_unitary_spec(0.3, 2.0),
            tetrahedron_spec(0.2, 0.15),
            rotation_spec(1.1, [0.6, 0.0, 0.8]),
        ]
        for spec in specs:
            kraus, gold = make(spec)
            built = build_q(kraus_to_affine(kraus)).q
            assert np.max(np.abs(built - gold.expected_q)) < 1e-12

    def test_monte_carlo_confirms_golden_improvement(self):
        # sampled averages reproduce before/after values around the optimum
        from quasinv.channels import compose, unitary_to_affine
        from quasinv.metrics import mstd_monte_carlo

        kraus, gold = make(tetrahedron_spec(0.3, 0.1))
        e = kraus_to_affine(kraus)
        result = quasi_inverse(e)
        before = mstd_monte_carlo(e, 400_000, RngStream(611))
        assert abs(before.value - result.mstd_before) <= 4 * before.stderr
        corrected = compose(unitary_to_affine(UnitaryParams.from_vector(result.x)), e)
        after = mstd_monte_carlo(corrected, 400_000, RngStream(612))
        assert abs(after.value - result.mstd_after) <= 4 * after.stderr
        assert abs((before.value - after.value) - gold.expected_delta) <= 4 * (
            before.stderr + after.stderr
        )


VALID_VALUES = {
    "pauli": [0.4, 0.3, 0.2, 0.1],
    "gad": [-0.7, 0.25],
    "mixed_unitary": [0.3, 2.0],
    "tetrahedron": [0.2, 0.15],
    "rotation": [1.1, 0.0, 0.6, 0.8],
}


def _non_finite_slots():
    for family in FAMILY_TABLE:
        owners = [name for name, components in family.params.items() for _ in components or (name,)]
        for slot, owner in enumerate(owners):
            for bad in (np.nan, np.inf, -np.inf):
                yield family.name, slot, owner, bad


class TestFiniteParameters:
    def test_valid_values_cover_every_family(self):
        assert list(VALID_VALUES) == [family.name for family in FAMILY_TABLE]
        for family in FAMILY_TABLE:
            make(spec_from_values(family.name, VALID_VALUES[family.name]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family,slot,owner,bad", list(_non_finite_slots()))
    def test_rejected_before_the_builder_runs(self, family, slot, owner, bad):
        values = list(VALID_VALUES[family])
        values[slot] = bad
        with pytest.raises(ValueError, match=f"parameter '{owner}' must be a finite number"):
            make(spec_from_values(family, values))
