"""The analyze path's Python-float fast paths against the numpy expressions they replace.

``build_q``, ``eigh_desc``'s order and signs, the closed-form MSTD,
``unitary_matrix``, the unit-length check of ``UnitaryParams``, the
symmetry check of ``QForm``, the number check of document arrays and
``AffineChannel``'s contraction check work on Python values. The
references below are the numpy expressions they replaced; every value
must match them bit for bit, signed zeros included, and every accept or
reject decision (with its message) must be the one the reference makes.
An analyzed document costs two LAPACK calls: the Choi spectrum and the
eigenpairs of the 4x4 form.
"""

import io
import itertools
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
    IDENTITY2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    UNIT_NORM_TOL,
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
    maximize,
)
from quasinv.documents import DocumentError, _as_array, _is_number
from quasinv.metrics import _closed_form
from quasinv.numerics import SIGN_TOL, RngStream, _checked_array, eigh_desc, sample_sphere4
from test_cli import CONTRACTION_BOUNDARY
from test_golden import ZOO_SHA256


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


def closed_form_reference(m, c, denominator):
    value = (np.sum(m * m) - 2.0 * np.trace(m) + 3.0) / denominator + 0.25 * float(c @ c)
    return max(float(value), 0.0)


def unitary_matrix_reference(u):
    x = u.xvec
    return u.x0 * IDENTITY2 + 1j * (x[0] * SIGMA_X + x[1] * SIGMA_Y + x[2] * SIGMA_Z)


def solve_reference(e):
    """_solve from the reference expressions, with mstd_after by the checked composition route."""
    q = build_q_reference(e)
    w, v = eigh_desc_reference(q)
    lam = float(w[0])
    trivial = lam <= TRIVIAL_TOL
    x = np.array([1.0, 0.0, 0.0, 0.0]) if trivial else v[:, 0]
    u = UnitaryParams.from_vector(x)
    rot = unitary_to_affine(u)
    result = QuasiInverseResult(
        x=x,
        unitary=unitary_matrix_reference(u),
        lambda_max=lam,
        delta_mstd=0.4 * max(lam, 0.0),
        mstd_before=closed_form_reference(e.m, e.c, 20.0),
        mstd_after=closed_form_reference(rot.m @ e.m, rot.m @ e.c + rot.c, 20.0),
        trivial=trivial,
        degenerate=bool(w[0] - w[1] < DEGENERACY_TOL),
    )
    return result, QForm(q)


def unit_norm_reference(x0, xvec):
    """UnitaryParams' check by numpy's expression: None, or the refusal message."""
    with np.errstate(over="ignore"):
        norm2 = x0 * x0 + float(xvec @ xvec)
    if not (abs(norm2 - 1.0) <= UNIT_NORM_TOL):
        return f"(x0, x) is not unit length: |x|^2 = {norm2}"
    return None


def symmetric_reference(q):
    with np.errstate(invalid="ignore"):  # inf - inf
        return bool((np.abs(q - q.T) <= 1e-12).all())


def as_array_reference(raw, shape, message):
    items = [raw]
    for n in shape:
        if not all(isinstance(x, (list, tuple)) and len(x) == n for x in items):
            raise DocumentError(message)
        items = [y for x in items for y in x]
    if not all(map(_is_number, items)):
        raise DocumentError(message)
    return np.array(items, dtype=float).reshape(shape)


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


def count_lapack(monkeypatch) -> list:
    """The names of the np.linalg.eigh and eigvalsh calls made from now on, in call order."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


class TestLapackBudget:
    @pytest.mark.parametrize("which", ["kraus3", "zoo_rotation"])
    def test_two_calls_per_document(self, capsys, monkeypatch, which):
        if which == "kraus3":
            text = documents.dumps(documents.kraus_document(random_channel(RngStream(11), 3)))
        else:
            text = _zoo_rotation_document(capsys)
        calls = count_lapack(monkeypatch)
        for _ in range(3):  # the count repeats exactly
            calls.clear()
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            assert cli.main(["analyze", "-"]) == 0
            capsys.readouterr()
            assert sorted(calls) == ["eigh", "eigvalsh"]


class TestOneEigenStep:
    """maximize and _solve take the form's top eigenpair from one and the same eigh_desc call."""

    def test_maximize_is_the_solve_in_one_eigh_call(self, monkeypatch):
        zoo_golden = [(name, [float(x) for x in params]) for name, params, _ in ZOO_SHA256]
        calls = count_lapack(monkeypatch)
        solved = 0
        for e in family_channels(zoo_golden + TIE_POINTS) + random_channels():
            result, _ = _solve(e)
            if result.trivial:
                continue
            calls.clear()
            lam, x = maximize(build_q(e))
            assert calls == ["eigh"]
            assert same_float(lam, result.lambda_max) and same_bits(x, result.x)
            solved += 1
        assert solved > 1000


# ---------------------------------------------------------------------------
# closed form, unitary matrix, unit-length and symmetry checks, document arrays
# ---------------------------------------------------------------------------

SIGNED_VALUES = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0]


def same_float(a, b) -> bool:
    return type(a) is float and type(b) is float and a.hex() == b.hex()


def layouts(m):
    """m in every memory order np.sum might add it in: rows, columns, reversed and a strided view."""
    wide = np.zeros((3, 5))
    wide[:, 1:4] = m
    return [m, np.asfortranarray(m), m[::-1], m[:, ::-1], m.T[::-1], wide[:, 1:4]]


def closed_form_inputs():
    rng = np.random.default_rng(12)
    for _ in range(2000):
        yield rng.standard_normal((3, 3)) * rng.choice([1e-3, 0.3, 1.0, 30.0]), rng.standard_normal(3)
        yield rng.choice(SIGNED_VALUES, size=(3, 3)), rng.choice(SIGNED_VALUES, size=3)
    for e in random_channels(300, seed=12):
        assert e.m.flags.c_contiguous  # AffineChannel's copy of kraus_to_affine's t[:, 1:] view
        yield e.m, e.c
        r = rotation(RngStream(int(rng.integers(1 << 30))))
        yield r @ e.m, r @ e.c
    for m in SIGNED_ZERO_AFFINE:
        yield np.array(m), np.array([0.0, -0.0, 0.0])
    yield -np.eye(3), np.zeros(3)  # negative trace
    yield np.full((3, 3), -0.0), np.full(3, -0.0)


class TestClosedForm:
    def test_matches_numpy(self):
        # every layout reaches _closed_form as the C-ordered copy AffineChannel stores; most inputs
        # here are no channel, so the copy comes from the intake AffineChannel calls
        seen = 0
        for m, c in closed_form_inputs():
            for view in layouts(m):
                stored = _checked_array(view, (3, 3), "m")
                for denominator in (20.0, 12.0):
                    expected = closed_form_reference(stored, c, denominator)
                    assert same_float(_closed_form(stored, c, denominator), expected), (view.tolist(), c.tolist())
                    seen += 1
        assert seen > 50_000

    def test_layouts_change_numpy_order(self):
        # the column-major layouts do add in another order: some sums differ from the row-major one
        rng = np.random.default_rng(3)
        ms = [rng.standard_normal((3, 3)) for _ in range(200)]
        zero = np.zeros(3)
        assert any(closed_form_reference(m, zero, 20.0) != closed_form_reference(np.asfortranarray(m), zero, 20.0)
                   for m in ms)


def unit_vectors():
    rng = RngStream(31)
    yield np.array([1.0, 0.0, 0.0, 0.0])  # the trivial result
    for v in itertools.product(SIGNED_VALUES, repeat=4):
        v = np.array(v)
        if v.any():
            yield v / np.linalg.norm(v)  # keeps the signs of zeros
    for _ in range(5000):
        yield sample_sphere4(rng)


class TestUnitaryMatrix:
    def test_matches_numpy(self):
        signs = set()
        for v in unit_vectors():
            u = UnitaryParams.from_vector(v)
            got, expected = unitary_matrix(u), unitary_matrix_reference(u)
            assert same_bits(got, expected), v.tolist()
            signs |= {bool(np.signbit(z)) for z in got.view(float).ravel() if z == 0.0}
        assert signs == {False, True}  # signed zeros reach the matrix


def unit_norm_inputs():
    rng = RngStream(8)
    for _ in range(300):
        v = sample_sphere4(rng)
        yield v
        for eps in (1e-13, 2.4e-13, 2.6e-13, 4.9e-13, 5e-13, 5.1e-13, 1e-12):
            # |x|^2 moves by about 2 eps: across the fast path's 0.5e-12 and the 1e-12 bound
            yield (1.0 + eps) * v
            yield (1.0 - eps) * v
    yield np.array([1.0, 0.0, 0.0, 1e-6])
    yield np.array([np.nan, 0.0, 0.0, 0.0])
    yield np.array([1.0, np.inf, 0.0, 0.0])
    yield np.array([1e200, 0.0, 0.0, 0.0])
    yield np.array([1.0, 1e200, 0.0, 0.0])
    yield np.zeros(4)


class TestUnitNormDecision:
    def test_same_decisions_and_messages(self):
        seen = {"accepted": 0, "rejected": 0}
        for v in unit_norm_inputs():
            try:
                UnitaryParams.from_vector(v)
                got = None
            except ValueError as exc:
                got = str(exc)
            expected = unit_norm_reference(float(v[0]), v[1:])
            assert got == expected, v.tolist()
            seen["rejected" if expected else "accepted"] += 1
        assert seen["accepted"] > 2000 and seen["rejected"] > 500


def q_inputs():
    rng = np.random.default_rng(5)
    for _ in range(300):
        a = rng.standard_normal((4, 4))
        q = a + a.T
        yield q
        i, j = rng.choice(4, size=2, replace=False)
        for eps in (5e-13, 1e-12, 1.0000001e-12, 2e-12, 1.0):
            for sign in (1.0, -1.0):
                p = q.copy()
                p[i, j] += sign * eps
                yield p
    for value in (np.nan, np.inf, -np.inf):
        for where in ((0, 0), (1, 2)):
            q = np.eye(4)
            q[where] = value
            q[where[::-1]] = value
            yield q
    for bound in (1e-12, np.nextafter(1e-12, 1.0)):  # |q - q^T| at the bound, and just past it
        q = np.zeros((4, 4))
        q[1, 2] = bound
        yield q
    yield np.full((4, 4), -0.0)


class TestQFormDecision:
    def test_same_decisions(self):
        seen = {True: 0, False: 0}
        for q in q_inputs():
            try:
                QForm(q)
                got = True
            except ValueError as exc:
                assert str(exc) == "quadratic form must be symmetric"
                got = False
            assert got == symmetric_reference(q), q.tolist()
            seen[got] += 1
        assert seen[True] > 500 and seen[False] > 500


class _Float(float):
    pass


ARRAY_MESSAGE = "array message"


def raw_arrays():
    """(raw, shape) pairs: valid arrays, and ones with each kind of odd leaf or shape."""
    leaves = [1, -2, 0, 0.5, -0.0, 1e308, 10**20, True, False, np.float64(0.25), np.float64(np.nan),
              np.int64(3), np.float32(0.5), _Float(0.75), float("nan"), float("inf"), -float("inf"),
              None, "0.5", [0.5], (0.5,), 10**400]
    base3 = [0.1, 0.2, 0.3]
    yield base3, (3,)
    yield tuple(base3), (3,)
    for leaf in leaves:
        for i in range(3):
            raw = list(base3)
            raw[i] = leaf
            yield raw, (3,)
            rows = [list(base3), list(base3), list(base3)]
            rows[i][2 - i] = leaf
            yield rows, (3, 3)
            yield tuple(map(tuple, rows)), (3, 3)
        op = [[[1, 0], [0, 0]], [[0, 0], [1, leaf]]]
        yield [op], (1, 2, 2, 2)
    yield [[0.1, 0.2], [0.3]], (2, 2)
    yield [[0.1, 0.2], 0.3], (2, 2)
    yield [[0.1, [0.2]], [0.3, 0.4]], (2, 2)
    yield [0.1, 0.2], (3,)
    yield 0.5, (3,)
    yield "abc", (3,)
    yield {"a": 1}, (1,)
    yield [], (0,)


def array_outcome(fn, raw, shape):
    try:
        return fn(raw, shape, ARRAY_MESSAGE)
    except DocumentError as exc:
        return type(exc), str(exc)
    except OverflowError:  # the reference's bare refusal of an integer no float holds, which _as_array words
        return DocumentError, "field 'f' holds an integer too large for a float"


def as_array_field_f(raw, shape, message):
    return _as_array(raw, shape, message, "f")


class TestDocumentArrays:
    def test_same_arrays_and_refusals(self):
        seen = {"accepted": 0, "refused": 0}
        for raw, shape in raw_arrays():
            got = array_outcome(as_array_field_f, raw, shape)
            expected = array_outcome(as_array_reference, raw, shape)
            if isinstance(expected, np.ndarray):
                assert isinstance(got, np.ndarray) and same_bits(got, expected), raw
                seen["accepted"] += 1
            else:
                assert got == expected, raw
                seen["refused"] += 1
        assert seen["accepted"] > 50 and seen["refused"] > 80
