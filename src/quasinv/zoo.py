"""Parametric channel families with closed-form quasi-inverse expectations.

Five families, each returned as a Kraus realization together with its
known optimum for golden testing:

- pauli:          rho -> p0 rho + sum_i p_i s_i rho s_i
- gad:            generalized amplitude damping (gamma, p)
- mixed_unitary:  (1-3p) rho + p sum_i U_i rho U_i^dag, U_i = exp(-i t s_i / 2)
- tetrahedron:    q rho + sum_i p_i (v_i.s) rho (v_i.s), v_i tetrahedron corners,
                  with weights (p', p, p, p')
- rotation:       conjugation by exp(-i t n.s / 2)

FAMILY_TABLE, at the end of the module, is the one place a family's
parameters are defined; the document parser, the channel schema and the
zoo command line are derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import IDENTITY2, PAULIS, KrausChannel, UnitaryParams, unitary_matrix

_PARAM_TOL = 1e-9

_TETRA_CORNERS = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
) / np.sqrt(3.0)


@dataclass
class FamilySpec:
    """A family name plus its parameter values."""

    family: str
    parameters: dict

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")


@dataclass
class GoldenExpectation:
    """Closed-form optimum of a family point, where one is known.

    expected_unitary is defined up to a global phase; expected_q is the
    quadratic form of the MSTD decrease. Fields are None in regimes with
    no closed form (mixed_unitary with q < 0).
    """

    expected_unitary: np.ndarray | None
    expected_delta: float | None
    expected_q: np.ndarray | None = None
    degenerate: bool = False

    def __post_init__(self):
        if self.expected_delta is not None and self.expected_delta < 0.0:
            raise ValueError("expected MSTD decrease cannot be negative")


def pauli_spec(p0: float, p1: float, p2: float, p3: float) -> FamilySpec:
    return FamilySpec("pauli", {"p": [p0, p1, p2, p3]})


def gad_spec(gamma: float, p: float) -> FamilySpec:
    return FamilySpec("gad", {"gamma": gamma, "p": p})


def mixed_unitary_spec(p: float, theta: float) -> FamilySpec:
    return FamilySpec("mixed_unitary", {"p": p, "theta": theta})


def tetrahedron_spec(p: float, p_prime: float) -> FamilySpec:
    return FamilySpec("tetrahedron", {"p": p, "p_prime": p_prime})


def rotation_spec(theta: float, axis) -> FamilySpec:
    return FamilySpec("rotation", {"theta": theta, "axis": list(np.asarray(axis, float))})


def make(spec: FamilySpec) -> tuple[KrausChannel, GoldenExpectation]:
    """Kraus realization and golden expectation of a family point.

    Every parameter must be finite; this is checked before the builder runs.
    """
    family = _BY_NAME[spec.family]
    for name in family.params:
        if not np.isfinite(np.asarray(spec.parameters[name], dtype=float)).all():
            raise ValueError(f"parameter {name!r} must be a finite number")
    return family.build(spec.parameters)


def spec_from_values(name: str, values) -> FamilySpec:
    """FamilySpec from a flat list of numbers in the family's argument order."""
    family = _BY_NAME[name]
    arity = len(family.arg_names)
    if len(values) != arity:
        raise ValueError(f"family {name!r} takes {arity} parameters, got {len(values)}")
    rest = iter(values)
    params = {
        param: [next(rest) for _ in components] if components else next(rest)
        for param, components in family.params.items()
    }
    return FamilySpec(name, params)


def _diag_q(entries) -> np.ndarray:
    return np.diag(np.array([0.0, *entries], dtype=float))


def _make_pauli(params: dict) -> tuple[KrausChannel, GoldenExpectation]:
    p = np.asarray(params["p"], dtype=float)
    if p.shape != (4,):
        raise ValueError("pauli family needs probabilities [p0, p1, p2, p3]")
    if np.any(p < -_PARAM_TOL) or abs(p.sum() - 1.0) > _PARAM_TOL:
        raise ValueError(f"pauli probabilities must be nonnegative and sum to 1, got {p}")
    p = np.clip(p, 0.0, None)
    ops = [np.sqrt(p[0]) * IDENTITY2] + [np.sqrt(p[i + 1]) * PAULIS[i] for i in range(3)]
    channel = KrausChannel(ops)

    i_max = int(np.argmax(p[1:]))
    p_max = float(p[1:][i_max])
    delta = 0.4 * max(p_max - p[0], 0.0)
    if p_max - p[0] > 1e-12:
        expected_v = PAULIS[i_max].copy()
        ties = int(np.sum(p[1:] == p_max)) > 1
    else:
        expected_v = IDENTITY2.copy()
        ties = False
    expectation = GoldenExpectation(
        expected_unitary=expected_v,
        expected_delta=delta,
        expected_q=_diag_q(p[1:] - p[0]),
        degenerate=ties,
    )
    return channel, expectation


def _make_gad(params: dict) -> tuple[KrausChannel, GoldenExpectation]:
    gamma = float(params["gamma"])
    p = float(params["p"])
    if not -1.0 - _PARAM_TOL <= gamma <= 1.0 + _PARAM_TOL:
        raise ValueError(f"gamma must lie in [-1, 1], got {gamma}")
    if not -_PARAM_TOL <= p <= 1.0 + _PARAM_TOL:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    gamma = float(np.clip(gamma, -1.0, 1.0))
    p = float(np.clip(p, 0.0, 1.0))
    off = np.sqrt(1.0 - gamma * gamma)
    sp, sq = np.sqrt(p), np.sqrt(1.0 - p)
    ops = [
        sp * np.array([[1.0, 0.0], [0.0, gamma]], dtype=complex),
        sp * np.array([[0.0, off], [0.0, 0.0]], dtype=complex),
        sq * np.array([[gamma, 0.0], [0.0, 1.0]], dtype=complex),
        sq * np.array([[0.0, 0.0], [off, 0.0]], dtype=complex),
    ]
    channel = KrausChannel(ops)

    expected_v = PAULIS[2].copy() if gamma < 0.0 else IDENTITY2.copy()
    expectation = GoldenExpectation(
        expected_unitary=expected_v,
        expected_delta=0.4 * max(-gamma, 0.0),
        expected_q=_diag_q(
            [
                -0.5 * gamma * (gamma + 1.0),
                -0.5 * gamma * (gamma + 1.0),
                -gamma,
            ]
        ),
    )
    return channel, expectation


def _make_mixed_unitary(params: dict) -> tuple[KrausChannel, GoldenExpectation]:
    p = float(params["p"])
    theta = float(params["theta"])
    if not -_PARAM_TOL <= p <= 1.0 / 3.0 + _PARAM_TOL:
        raise ValueError(f"p must lie in [0, 1/3], got {p}")
    p = float(np.clip(p, 0.0, 1.0 / 3.0))
    half = 0.5 * theta
    ops = [np.sqrt(1.0 - 3.0 * p) * IDENTITY2] + [
        np.sqrt(p) * (np.cos(half) * IDENTITY2 - 1j * np.sin(half) * PAULIS[i])
        for i in range(3)
    ]
    channel = KrausChannel(ops)

    v = p * np.sin(theta)
    q = 4.0 * p * np.sin(half) ** 2 - 1.0
    q_mat = np.zeros((4, 4))
    q_mat[0, 1:] = q_mat[1:, 0] = 0.5 * v
    q_mat[1:, 1:] = q * np.eye(3)
    if q >= 0.0:
        lam = 0.5 * (q + np.sqrt(q * q + 3.0 * v * v))
        if lam <= 1e-12:
            expected_v = IDENTITY2.copy()
            degenerate = False
        else:
            x = np.array([1.5 * v / lam, 1.0, 1.0, 1.0])
            x /= np.linalg.norm(x)
            if x[np.flatnonzero(np.abs(x) > 1e-12)[0]] < 0.0:
                x = -x
            expected_v = unitary_matrix(UnitaryParams.from_vector(x))
            # v = 0 leaves a 3-fold top eigenspace; any axis works
            degenerate = bool(v == 0.0)
        expectation = GoldenExpectation(
            expected_unitary=expected_v,
            expected_delta=0.4 * lam,
            expected_q=q_mat,
            degenerate=degenerate,
        )
    else:
        # no closed form below q = 0; the brute-force oracle covers it
        expectation = GoldenExpectation(
            expected_unitary=None, expected_delta=None, expected_q=q_mat
        )
    return channel, expectation


def _make_tetrahedron(params: dict) -> tuple[KrausChannel, GoldenExpectation]:
    p = float(params["p"])
    pp = float(params["p_prime"])
    if p < -_PARAM_TOL or pp < -_PARAM_TOL or p + pp > 0.5 + _PARAM_TOL:
        raise ValueError(
            f"tetrahedron weights need p, p' >= 0 and p + p' <= 1/2, got ({p}, {pp})"
        )
    p = max(p, 0.0)
    pp = max(pp, 0.0)
    q0 = max(1.0 - 2.0 * p - 2.0 * pp, 0.0)
    weights = (pp, p, p, pp)
    ops = [np.sqrt(q0) * IDENTITY2]
    for w, corner in zip(weights, _TETRA_CORNERS):
        direction = corner[0] * PAULIS[0] + corner[1] * PAULIS[1] + corner[2] * PAULIS[2]
        ops.append(np.sqrt(w) * direction)
    channel = KrausChannel(ops)

    diag = 8.0 * (p + pp) / 3.0 - 1.0
    cross = 2.0 * (pp - p) / 3.0
    q_mat = np.zeros((4, 4))
    q_mat[1:, 1:] = diag * np.eye(3)
    q_mat[1, 2] = q_mat[2, 1] = cross
    # top eigenvalue diag - cross at (0,1,-1,0)/sqrt2 when p >= p',
    # diag + cross at (0,1,1,0)/sqrt2 when p <= p'
    if p >= pp:
        lam = 2.0 * pp - 1.0 + 10.0 * p / 3.0
        x = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    else:
        lam = 2.0 * p - 1.0 + 10.0 * pp / 3.0
        x = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
    if lam > 1e-12:
        expected_v = unitary_matrix(UnitaryParams.from_vector(x))
        degenerate = bool(p == pp)
    else:
        expected_v = IDENTITY2.copy()
        degenerate = False
    expectation = GoldenExpectation(
        expected_unitary=expected_v,
        expected_delta=0.4 * max(lam, 0.0),
        expected_q=q_mat,
        degenerate=degenerate,
    )
    return channel, expectation


def _make_rotation(params: dict) -> tuple[KrausChannel, GoldenExpectation]:
    theta = float(params["theta"])
    axis = np.asarray(params["axis"], dtype=float)
    if axis.shape != (3,):
        raise ValueError("rotation axis must be a 3-vector")
    norm = float(np.linalg.norm(axis))
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"rotation axis must be a unit vector, |n| = {norm}")
    axis = axis / norm
    half = 0.5 * theta
    u = np.cos(half) * IDENTITY2 - 1j * np.sin(half) * (
        axis[0] * PAULIS[0] + axis[1] * PAULIS[1] + axis[2] * PAULIS[2]
    )
    channel = KrausChannel([u])

    s = np.sin(half)
    eps = 0.5 * axis * np.sin(theta)
    q_mat = np.zeros((4, 4))
    q_mat[0, 1:] = q_mat[1:, 0] = eps
    q_mat[1:, 1:] = (s * s) * np.outer(axis, axis) + (s * s - 1.0) * np.eye(3)
    expectation = GoldenExpectation(
        expected_unitary=u.conj().T,
        expected_delta=0.4 * s * s,
        expected_q=q_mat,
    )
    return channel, expectation


@dataclass(frozen=True)
class Family:
    """One row of the family table.

    ``params`` maps each parameter, in order, to the names of its
    components; a scalar parameter has none. Channel documents spell the
    family as ``doc_type``.
    """

    name: str
    doc_type: str
    params: dict
    build: Callable[[dict], tuple[KrausChannel, GoldenExpectation]]

    @property
    def arg_names(self) -> list:
        """One name per number, as ``quasinv zoo`` takes them."""
        return [c for name, components in self.params.items() for c in components or (name,)]


FAMILY_TABLE = (
    Family("pauli", "pauli", {"p": ("p0", "p1", "p2", "p3")}, _make_pauli),
    Family("gad", "gad", {"gamma": (), "p": ()}, _make_gad),
    Family("mixed_unitary", "mixed_unitary", {"p": (), "theta": ()}, _make_mixed_unitary),
    Family("tetrahedron", "tetrahedron", {"p": (), "p_prime": ()}, _make_tetrahedron),
    Family("rotation", "unitary", {"theta": (), "axis": ("nx", "ny", "nz")}, _make_rotation),
)
FAMILIES = tuple(family.name for family in FAMILY_TABLE)
_BY_NAME = {family.name: family for family in FAMILY_TABLE}
