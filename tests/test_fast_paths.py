"""The analyze path's Python-float fast paths against the numpy expressions they replace.

``build_q``, ``eigh_desc``'s order and signs, the solver's ``mstd_after``
and ``AffineChannel``'s contraction check work on Python floats. The
references below are the numpy expressions they replaced; every value
must match them bit for bit, signed zeros included, and every accept or
reject decision (with its message) must be the one the ``eigvalsh``
route makes. An analyzed document costs two LAPACK calls: the Choi
spectrum and the eigenpairs of the 4x4 form.
"""

import io
import json
import math
import sys

import numpy as np
import pytest

import quasinv.cli as cli
from quasinv import documents, zoo
from quasinv.channels import (
    BLOCH_TOL,
    CPTP_TOL,
    AffineChannel,
    UnitaryParams,
    _cptp_report,
    kraus_to_affine,
    random_channel,
    unitary_matrix,
    unitary_to_affine,
)
from quasinv.inverter import (
    DEGENERACY_TOL,
    TRIVIAL_TOL,
    QForm,
    QuasiInverseResult,
    _solve,
    build_q,
)
from quasinv.metrics import mstd_analytic, mstd_composed
from quasinv.numerics import SIGN_TOL, RngStream, eigh_desc, sample_sphere4
from test_cli import CONTRACTION_BOUNDARY


# ---------------------------------------------------------------------------
# reference expressions
# ---------------------------------------------------------------------------

def build_q_reference(e, region="ball"):
    m = e.m
    sym = 0.5 * (m + m.T)
    axial = np.array([m[1, 2] - m[2, 1], m[2, 0] - m[0, 2], m[0, 1] - m[1, 0]])
    q = np.zeros((4, 4))
    q[0, 1:] = -0.25 * axial
    q[1:, 0] = -0.25 * axial
    q[1:, 1:] = 0.5 * (sym - np.trace(m) * np.eye(3))
    if region == "surface":
        q *= 5.0 / 3.0
    return q


def fix_signs_reference(vecs):
    first = (np.abs(vecs) > SIGN_TOL).argmax(axis=0)
    lead = vecs[first, np.arange(vecs.shape[1])]
    vecs[:, lead < -SIGN_TOL] *= -1.0
    return vecs


def eigh_desc_reference(a):
    w, v = np.linalg.eigh(a)
    order = np.argsort(-w, kind="stable")
    return w[order], fix_signs_reference(v[:, order])


def solve_reference(e):
    """_solve from the reference expressions, with mstd_after by the checked composition route."""
    q = build_q_reference(e)
    w, v = eigh_desc_reference(q)
    lam = float(w[0])
    trivial = lam <= TRIVIAL_TOL
    x = np.array([1.0, 0.0, 0.0, 0.0]) if trivial else v[:, 0]
    u = UnitaryParams.from_vector(x)
    result = QuasiInverseResult(
        x=x,
        unitary=unitary_matrix(u),
        lambda_max=lam,
        delta_mstd=0.4 * max(lam, 0.0),
        mstd_before=mstd_analytic(e).value,
        mstd_after=mstd_composed(unitary_to_affine(u), e).value,
        trivial=trivial,
        degenerate=bool(w[0] - w[1] < DEGENERACY_TOL),
    )
    return result, QForm(q)


def eigvalsh_route(m, c):
    """AffineChannel's check with eigvalsh(m^T m) always deciding: None, or the refusal message."""
    m = np.asarray(m, dtype=float)
    c = np.asarray(c, dtype=float)
    if not (np.isfinite(m).all() and np.isfinite(c).all()):
        return "affine data has non-finite entries"
    with np.errstate(all="ignore"):
        cnorm = math.sqrt(c @ c)
        gram = m.T @ m
        if not (cnorm <= 1.0 + BLOCH_TOL):
            return f"translation vector outside the ball: |c| = {cnorm}"
        top = np.linalg.eigvalsh(gram)[-1] if math.isfinite(gram.trace()) else math.inf
    smax = math.sqrt(max(top, 0.0))
    if not (smax <= 1.0 + CPTP_TOL):
        return f"largest singular value of m is {smax} > 1"
    return None


def outcome(m, c):
    try:
        AffineChannel(m, c)
    except ValueError as exc:
        return str(exc)
    return None


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

FAMILY_GRID = [
    ("pauli", [0.1, 0.6, 0.2, 0.1]),
    ("pauli", [0.7, 0.1, 0.1, 0.1]),
    ("pauli", [0.4, 0.3, 0.2, 0.1]),
    ("pauli", [1.0, 0.0, 0.0, 0.0]),
    *[("gad", [gamma, p]) for gamma in (-1.0, -0.75, -0.5, -0.25, 0.0, 0.3, 0.75, 1.0)
      for p in (0.0, 0.5, 1.0)],
    *[("mixed_unitary", [p, theta]) for p, theta in
      [(0.3, 2.8), (0.26, 3.0), (0.33, 2.6), (0.3, -2.8), (0.05, 0.5), (0.2, 0.8), (1 / 3, 1.5)]],
    ("tetrahedron", [0.3, 0.1]),
    ("tetrahedron", [0.1, 0.3]),
    ("tetrahedron", [0.05, 0.05]),
    *[("rotation", [theta, 0.0, 0.6, 0.8]) for theta in (0.0, 0.7, np.pi / 2, np.pi, 5.0)],
    ("rotation", [2.2, 0.6, 0.0, 0.8]),
]
TIE_POINTS = [
    ("pauli", [0.25, 0.25, 0.25, 0.25]),
    ("pauli", [0.1, 0.4, 0.4, 0.1]),
    ("pauli", [0.2, 0.4, 0.2, 0.2]),
    ("tetrahedron", [0.25, 0.25]),
    ("tetrahedron", [0.2, 0.2]),
    ("mixed_unitary", [0.3, 0.0]),  # v = p sin(theta) = 0
    ("mixed_unitary", [0.3, np.pi]),
    ("mixed_unitary", [0.26, np.pi]),
]
# signed zeros in m, a negative trace (Tr(m) * 0 is then -0.0) and a trace of -0.0
SIGNED_ZERO_AFFINE = [
    [[-0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [0.0, -0.0, -0.0]],
    [[-0.25, -0.0, 0.0], [-0.0, -0.25, -0.0], [0.0, -0.0, -0.25]],
    [[0.5, -0.0, 0.0], [0.0, 0.5, -0.0], [-0.0, 0.0, 0.25]],
    [[-0.0, 0.5, -0.0], [-0.5, -0.0, 0.0], [-0.0, -0.0, 0.5]],
]


def family_channels(points):
    return [kraus_to_affine(zoo.channel(zoo.spec_from_values(name, values))) for name, values in points]


def random_channels(n=1000, seed=2026):
    rng = RngStream(seed)
    return [kraus_to_affine(random_channel(rng, 1 + i % 4)) for i in range(n)]


SIGNED_ZERO_CHANNELS = [AffineChannel(np.array(m), np.array([0.0, -0.0, 0.0])) for m in SIGNED_ZERO_AFFINE]


class TestBitwisePins:
    @pytest.fixture(scope="class")
    def channels(self):
        return random_channels() + family_channels(FAMILY_GRID + TIE_POINTS) + SIGNED_ZERO_CHANNELS

    def test_build_q(self, channels):
        for e in channels:
            for region in ("ball", "surface"):
                assert same_bits(build_q(e, region).q, build_q_reference(e, region))

    def test_eigen_order_and_signs(self, channels):
        for e in channels:
            q = build_q_reference(e)
            w, v = eigh_desc(q)
            w_ref, v_ref = eigh_desc_reference(q)
            assert same_bits(w, w_ref) and same_bits(v, v_ref)

    def test_solver_fields(self, channels):
        for e in channels:
            (result, qf), (expected, qf_ref) = _solve(e), solve_reference(e)
            assert same_bits(qf.q, qf_ref.q)
            assert same_bits(result.x, expected.x)
            for name in ("unitary", "lambda_max", "delta_mstd", "mstd_before", "mstd_after"):
                assert same_bits(getattr(result, name), getattr(expected, name)), name
            assert (result.trivial, result.degenerate) == (expected.trivial, expected.degenerate)

    def test_signed_zeros_reach_q(self):
        # the cases above do put -0.0 and +0.0 into q, so the bitwise checks see both
        signs = {bool(np.signbit(z)) for e in SIGNED_ZERO_CHANNELS for z in build_q(e).q.ravel() if z == 0.0}
        assert signs == {False, True}

    def test_ties_are_degenerate(self):
        # the tie points exercise equal eigenvalues, where only the stable order fixes the columns
        assert sum(_solve(e)[0].degenerate for e in family_channels(TIE_POINTS)) >= 5

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_analyze_bytes(self, capsys, monkeypatch, fmt):
        docs = [documents.kraus_document(random_channel(RngStream(40 + k), k)) for k in (1, 2, 3, 4)]
        docs += [{"type": "affine", "m": m, "c": [0.0, -0.0, 0.0]} for m in SIGNED_ZERO_AFFINE]
        docs += [documents.kraus_document(zoo.channel(zoo.spec_from_values(*point))) for point in TIE_POINTS]
        q_rows = []
        for doc in docs:
            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
            assert cli.main(["analyze", "-", "--format", fmt]) == 0
            out = capsys.readouterr().out
            if fmt == "table":
                lines = out.splitlines()
                start = lines.index("q_matrix:") + 1
                q_rows += lines[start:start + 4]
            parsed = documents.parse_channel_document(json.loads(json.dumps(doc)))
            residual = None if parsed.kraus is None else parsed.kraus.residual
            expected = documents.validated_document(parsed, _cptp_report(parsed.affine, residual))
            expected.update(documents.solver_fields(*solve_reference(parsed.affine)))
            text = cli._as_table(expected) if fmt == "table" else documents.dumps(expected, indent=2)
            assert out == text + "\n"
        if fmt == "table":  # the table prints the sign of a zero in q
            assert any("-0 " in row + " " for row in q_rows)


# ---------------------------------------------------------------------------
# contraction decision
# ---------------------------------------------------------------------------

def rotation(rng):
    return unitary_to_affine(UnitaryParams.from_vector(sample_sphere4(rng))).m


def sweep_inputs():
    rng = RngStream(77)
    zero = np.zeros(3)
    for _ in range(200):
        r = rotation(rng)
        yield r, zero
        yield -r, zero  # det m < 0
        yield r @ np.diag([1.0, 1.0, -1.0]), zero
        for eps in (1e-12, 5e-10, 2e-9):
            yield (1.0 + eps) * r, zero
            yield (1.0 - eps) * r, zero
        yield r @ np.diag([1.0, 1.0, 0.0]), zero  # rank-deficient
        yield (1.0 + 2e-9) * r @ np.diag([1.0, 0.0, 0.0]), zero
        yield 1e154 * r, zero
        yield 1e-154 * r, zero
        u = rng.normals(3)
        u /= np.linalg.norm(u)
        yield 0.0 * r, u  # |c| = 1 up to rounding
        for eps in (1e-13, 5e-13, 1.2e-12, 2e-12):
            yield 0.0 * r, (1.0 + eps) * u
        yield 0.0 * r, 1e154 * u
    for k in (1, 2, 3, 4):
        for _ in range(50):
            e = kraus_to_affine(random_channel(rng, k))
            yield e.m, e.c
            yield (1.0 + 1e-9) * e.m, e.c  # near the bound for unitaries, inside it otherwise
    yield np.array(CONTRACTION_BOUNDARY["m"]), np.zeros(3)
    yield np.outer([1.0, 0.0, 0.0], [0.6, 0.8, 0.0]), zero
    yield np.full((3, 3), 1e154), np.full(3, 1e154)
    yield np.full((3, 3), -1.3e154), zero
    yield np.diag([1e154, 1.0, 1.0]), zero


class TestContractionDecision:
    def test_same_decisions_and_messages(self):
        seen = {"accepted": 0, "rejected": 0}
        for m, c in sweep_inputs():
            expected = eigvalsh_route(m, c)
            assert outcome(m, c) == expected, (m.tolist(), c.tolist())
            seen["rejected" if expected else "accepted"] += 1
        assert seen["accepted"] > 500 and seen["rejected"] > 500

    def test_both_routes_run(self, monkeypatch):
        # rotations pass on the cheap bound; scaled ones past 1 + 5e-10 need eigvalsh
        calls = []
        original = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or original(a))
        r = rotation(RngStream(5))
        AffineChannel(r, np.zeros(3))
        assert not calls
        AffineChannel((1.0 + 6e-10) * r, np.zeros(3))
        assert len(calls) == 1
        with pytest.raises(ValueError, match="largest singular value"):
            AffineChannel((1.0 + 2e-9) * r, np.zeros(3))


# ---------------------------------------------------------------------------
# LAPACK budget
# ---------------------------------------------------------------------------

def _zoo_rotation_document(capsys):
    assert cli.main(["zoo", "rotation", "--", "2.2", "0.6", "0", "0.8"]) == 0
    return capsys.readouterr().out


class TestLapackBudget:
    @pytest.mark.parametrize("which", ["kraus3", "zoo_rotation"])
    def test_two_calls_per_document(self, capsys, monkeypatch, which):
        if which == "kraus3":
            text = documents.dumps(documents.kraus_document(random_channel(RngStream(11), 3)))
        else:
            text = _zoo_rotation_document(capsys)
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        for _ in range(3):  # the count repeats exactly
            calls.clear()
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            assert cli.main(["analyze", "-"]) == 0
            capsys.readouterr()
            assert sorted(calls) == ["eigh", "eigvalsh"]
