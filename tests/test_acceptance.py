"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is fixed here, not configurable.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from quasinv.channels import (
    IDENTITY2,
    PAULIS,
    UnitaryParams,
    kraus_to_affine,
    phase_distance,
    random_channel,
    unitary_matrix,
)
from quasinv.inverter import build_q, delta_mstd_direct, maximize, quasi_inverse
from quasinv.metrics import mstd_analytic, mstd_monte_carlo
from quasinv.numerics import eig_sym4
from quasinv.oracle import brute_force_best
from quasinv.sampling import RngStream, sphere4_samples
from quasinv.zoo import make, spec_from_values


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")


def simplex_grid(steps):
    """All probability 4-vectors with entries in multiples of 1/steps."""
    pts = []
    for a, b, c in itertools.combinations_with_replacement(range(steps + 1), 3):
        # (a, b-a, c-b, steps-c) spans the lattice simplex
        pts.append((a, b - a, c - b, steps - c))
    return [tuple(v / steps for v in p) for p in pts]


def affine_of(spec):
    return kraus_to_affine(make(spec)[0])


def test_criterion_1_pauli_golden_suite():
    grid = simplex_grid(8) + simplex_grid(6)  # 249 points, includes all corners
    assert len(grid) >= 200
    with criterion(1, f"Pauli golden suite over {len(grid)} grid points, < 1s"):
        start = time.perf_counter()
        for probs in grid:
            p = np.asarray(probs)
            e = affine_of(spec_from_values("pauli", probs))
            qf = build_q(e)
            expected_q = np.diag([0.0, p[1] - p[0], p[2] - p[0], p[3] - p[0]])
            assert np.max(np.abs(qf.q - expected_q)) < 1e-12
            result = quasi_inverse(e)
            p_max = p[1:].max()
            assert result.delta_mstd == pytest.approx(
                0.4 * max(p_max - p[0], 0.0), abs=1e-10
            )
            if p_max > p[0]:
                maximal = [i for i in range(3) if p[1 + i] == p_max]
                assert any(
                    phase_distance(PAULIS[i], result.unitary) < 1e-9 for i in maximal
                )
            else:
                assert np.array_equal(result.unitary, IDENTITY2)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_gad_golden_suite():
    gammas = np.arange(-1.0, 1.0 + 1e-9, 0.25)
    ps = [0.0, 0.25, 0.5, 0.75, 1.0]
    with criterion(2, "GAD golden suite: 9 gammas x 5 p values, < 1s"):
        start = time.perf_counter()
        for gamma in gammas:
            reference_q = None
            for p in ps:
                e = affine_of(spec_from_values("gad", [gamma, p]))
                qf = build_q(e)
                if reference_q is None:
                    reference_q = qf.q
                assert np.max(np.abs(qf.q - reference_q)) < 1e-12  # p independence
                result = quasi_inverse(e)
                if gamma < 0:
                    assert phase_distance(PAULIS[2], result.unitary) < 1e-10
                    assert result.delta_mstd == pytest.approx(-0.4 * gamma, abs=1e-10)
                else:
                    assert np.array_equal(result.unitary, IDENTITY2)
                    assert result.delta_mstd == pytest.approx(0.0, abs=1e-10)
        assert time.perf_counter() - start < 1.0


def test_criterion_3_mixed_unitary_golden_suite():
    grid = [
        (p, theta)
        for p in (0.26, 0.28, 0.30, 0.32, 1.0 / 3.0)
        for theta in (2.0, 2.4, 2.8, 3.0, 3.4, -2.8)
        if 4 * p * np.sin(theta / 2) ** 2 - 1 >= 0.0
    ]
    assert len(grid) >= 15
    with criterion(3, f"mixed-unitary golden suite over {len(grid)} points with q >= 0, < 1s"):
        start = time.perf_counter()
        for p, theta in grid:
            v = p * np.sin(theta)
            q = 4 * p * np.sin(theta / 2) ** 2 - 1
            lam_expected = 0.5 * (q + np.sqrt(q * q + 3 * v * v))
            lam, x = maximize(build_q(affine_of(spec_from_values("mixed_unitary", [p, theta]))))
            assert lam == pytest.approx(lam_expected, abs=1e-10)
            direction = np.array([3 * v / (2 * lam_expected), 1.0, 1.0, 1.0])
            direction /= np.linalg.norm(direction)
            if direction @ x < 0:
                direction = -direction
            assert np.max(np.abs(x - direction)) < 1e-8
            result = quasi_inverse(affine_of(spec_from_values("mixed_unitary", [p, theta])))
            assert result.delta_mstd == pytest.approx(0.4 * lam_expected, abs=1e-10)
        assert time.perf_counter() - start < 1.0


def test_criterion_4_tetrahedron_golden_suite():
    grid = [
        (0.05 * i, 0.05 * j)
        for i in range(11)
        for j in range(11)
        if 0.05 * (i + j) <= 0.5 + 1e-12
    ]
    with criterion(4, f"tetrahedron golden suite over {len(grid)} points, < 1s"):
        start = time.perf_counter()
        for p, pp in grid:
            e = affine_of(spec_from_values("tetrahedron", [p, pp]))
            result = quasi_inverse(e)
            if p >= pp:
                lam = 2 * pp - 1 + 10 * p / 3
            else:
                lam = 2 * p - 1 + 10 * pp / 3
            assert result.delta_mstd == pytest.approx(0.4 * max(lam, 0.0), abs=1e-10)
            if lam <= 1e-12:
                assert np.array_equal(result.unitary, IDENTITY2)
            elif p == pp:
                # 3-fold top eigenspace: any member is optimal, and both
                # printed branches achieve the optimum
                achieved = delta_mstd_direct(e, UnitaryParams.from_vector(result.x))
                assert achieved == pytest.approx(0.4 * lam, abs=1e-10)
                for sign in (1.0, -1.0):
                    branch = np.array([0.0, 1.0, sign, 0.0]) / np.sqrt(2)
                    branch_delta = delta_mstd_direct(e, UnitaryParams.from_vector(branch))
                    assert branch_delta == pytest.approx(0.4 * lam, abs=1e-10)
            else:
                sign = -1.0 if p > pp else 1.0
                expected_v = (PAULIS[0] + sign * PAULIS[1]) / np.sqrt(2)
                assert phase_distance(expected_v, result.unitary) < 1e-9
        assert time.perf_counter() - start < 1.0


def test_criterion_5_exact_inverse_sanity():
    with criterion(5, "100 Haar-random rotations fully reversed, V = U^dag"):
        rng = RngStream(515151)
        for _ in range(100):
            k = random_channel(rng, 1)
            u = k.operators[0]
            e = kraus_to_affine(k)
            result = quasi_inverse(e)
            assert phase_distance(u.conj().T, result.unitary) < 1e-9
            sin_sq_half = 1.0 - (abs(np.trace(u)) / 2.0) ** 2
            assert result.delta_mstd == pytest.approx(0.4 * sin_sq_half, abs=1e-10)
            assert result.delta_mstd == pytest.approx(result.mstd_before, abs=1e-10)
            assert result.mstd_after < 1e-12


def test_criterion_6_monte_carlo_consistency():
    with criterion(6, "Monte Carlo vs analytic on 50 channels; worker invariance, < 30s"):
        start = time.perf_counter()
        rng = RngStream(606060)
        hits = 0
        for i in range(50):
            e = kraus_to_affine(random_channel(rng, 1 + i % 4))
            report = mstd_monte_carlo(e, 100_000, RngStream(7000 + i))
            if abs(report.value - mstd_analytic(e).value) <= 4 * report.stderr:
                hits += 1
        assert hits >= 48
        e = kraus_to_affine(random_channel(RngStream(616161), 3))
        one = mstd_monte_carlo(e, 100_000, RngStream(77), workers=1)
        four = mstd_monte_carlo(e, 100_000, RngStream(77), workers=4)
        assert one.value == four.value and one.stderr == four.stderr
        assert time.perf_counter() - start < 30.0


def test_criterion_7_oracle_optimality():
    with criterion(7, "brute force never beats the solver on 100 channels, < 60s"):
        start = time.perf_counter()
        rng = RngStream(20260810)
        for i in range(100):
            e = kraus_to_affine(random_channel(rng, 1 + i % 4))
            result = quasi_inverse(e)
            _, best = brute_force_best(e, 100_000, RngStream(9000 + i))
            assert best <= result.delta_mstd + 1e-9
            if result.lambda_max >= 0.05:
                assert best >= 0.99 * result.delta_mstd
        assert time.perf_counter() - start < 60.0


def test_criterion_8_structural_invariants():
    with criterion(8, "Q structure and path consistency on 1000 random pairs"):
        rng = RngStream(808080)
        for i in range(1000):
            e = kraus_to_affine(random_channel(rng, 1 + i % 4))
            qf = build_q(e)
            assert qf.q[0, 0] == 0.0
            assert np.array_equal(qf.q, qf.q.T)
            lam, _ = maximize(qf)
            assert lam >= -1e-12
            x = sphere4_samples(rng, 1)[0]
            direct = delta_mstd_direct(e, UnitaryParams.from_vector(x))
            assert abs(direct - 0.4 * (x @ qf.q @ x)) < 1e-12


def test_criterion_9_surface_ball_argmax_invariance():
    with criterion(9, "surface Q = (5/3) ball Q; same maximizer, zoo + 50 random"):
        channels = [
            affine_of(spec_from_values("pauli", [0.1, 0.6, 0.2, 0.1])),
            affine_of(spec_from_values("gad", [-0.5, 0.3])),
            affine_of(spec_from_values("mixed_unitary", [0.3, 2.8])),
            affine_of(spec_from_values("tetrahedron", [0.3, 0.1])),
        ]
        rng = RngStream(909090)
        channels += [kraus_to_affine(random_channel(rng, 1 + i % 4)) for i in range(50)]
        for e in channels:
            ball = build_q(e)
            surf = build_q(e, region="surface")
            assert np.max(np.abs(surf.q - ball.q * 5.0 / 3.0)) < 1e-12
            _, x_ball = maximize(ball)
            _, x_surf = maximize(surf)
            assert np.max(np.abs(x_ball - x_surf)) < 1e-10


def test_criterion_10_pauli_coefficient_regression():
    with criterion(10, "gathered-coefficient fixture equals built Q on 20 Pauli points"):
        rng = RngStream(101010)
        points = [
            (0.25, 0.25, 0.25, 0.25),
            (1.0, 0.0, 0.0, 0.0),
            (0.0, 1.0, 0.0, 0.0),
            (0.5, 0.5, 0.0, 0.0),
        ]
        while len(points) < 20:
            w = rng.uniforms(4)
            points.append(tuple(w / w.sum()))
        for probs in points:
            p = np.asarray(probs)
            # gather the quadratic coefficients of the raw expansion:
            # each x_i^2 carries (p_i - 1/4), plus the constant (1/4 - p_0)
            # spread over the unit-norm identity
            coeff = p - 0.25
            shift = 0.25 - p[0]
            fixture = np.diag(coeff + shift)
            built = build_q(affine_of(spec_from_values("pauli", probs))).q
            assert np.max(np.abs(built - fixture)) < 1e-14
            w, _ = eig_sym4(build_q(affine_of(spec_from_values("pauli", probs))).q)
            assert w[0] == pytest.approx(max(np.max(p[1:] - p[0]), 0.0), abs=1e-14)


def test_acceptance_pipeline_spot_check():
    """End-to-end spot check tying solver, golden data, and oracle together."""
    k, gold = make(spec_from_values("tetrahedron", [0.3, 0.1]))
    e = kraus_to_affine(k)
    result = quasi_inverse(e)
    assert result.delta_mstd == pytest.approx(0.08, abs=1e-12)
    assert gold.expected_delta == pytest.approx(0.08, abs=1e-15)
    assert phase_distance(gold.expected_unitary, result.unitary) < 1e-12
    assert phase_distance(
        unitary_matrix(UnitaryParams.from_vector(result.x)), result.unitary
    ) < 1e-15
