"""Parametric channel families with closed-form quasi-inverse expectations.

Five families, each built as a Kraus realization together with its
known optimum for golden testing:

- pauli:          rho -> p0 rho + sum_i p_i s_i rho s_i
- gad:            generalized amplitude damping (gamma, p)
- mixed_unitary:  (1-3p) rho + p sum_i U_i rho U_i^dag, U_i = exp(-i t s_i / 2)
- tetrahedron:    q rho + sum_i p_i (v_i.s) rho (v_i.s), v_i tetrahedron corners,
                  with weights (p', p, p, p')
- rotation:       conjugation by exp(-i t n.s / 2)

FAMILY_TABLE, at the end of the module, is the one place a family's
parameters are defined; the document parser, the channel schema and the
zoo command line are derived from it. Each builder returns the Kraus
operators and a deferred expectation: ``make`` evaluates it, ``channel``
never does.
"""

from __future__ import annotations

import numbers
import reprlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import IDENTITY2, PAULIS, KrausChannel, UnitaryParams, unitary_matrix

_PARAM_TOL = 1e-9
# what a family builder returns: the Kraus operators and a deferred expectation
_Built = tuple[list, Callable[[], "GoldenExpectation"]]

_TETRA_CORNERS = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
) / np.sqrt(3.0)


@dataclass
class FamilySpec:
    """A family name plus its parameter values."""

    family: str
    parameters: dict

    def __post_init__(self):
        _family(self.family)


@dataclass(eq=False)
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


def make(spec: FamilySpec) -> tuple[KrausChannel, GoldenExpectation]:
    """Kraus realization and golden expectation of a family point; parameters must be finite."""
    ops, expectation = _build(spec)
    return KrausChannel(ops), expectation()


def channel(spec: FamilySpec) -> KrausChannel:
    """Kraus realization of a family point, without its expectation."""
    return KrausChannel(_build(spec)[0])


def _build(spec: FamilySpec) -> _Built:
    """Run the family's builder on the checked parameters.

    Documents, hand-built specs and ``quasinv zoo`` all come through here.
    Every parameter must first be present and be a real number (not a
    string or a bool) that a float holds, or a list of as many such numbers
    as it has components; then every one must be finite. A ValueError names
    the first parameter that fails. The builder gets each scalar as a float
    and each vector as a float array.
    """
    family = _BY_NAME[spec.family]
    checked = {
        name: _real_values(spec.parameters, name, components)
        for name, components in family.params.items()
    }
    for name, values in checked.items():
        if not np.isfinite(values).all():
            raise ValueError(f"parameter {name!r} must be a finite number")
    return family.build(checked)


def _real_values(parameters: dict, name: str, components: tuple):
    """One parameter as a float, or its components as a float array; anything but real numbers is refused."""
    if name not in parameters:
        raise ValueError(f"parameter {name!r} is missing")
    value = parameters[name]
    if not components:
        values = [value]
    elif isinstance(value, (list, tuple, np.ndarray)) and len(value) == len(components):
        values = list(value)
    else:
        rendered = ", ".join(components)
        raise ValueError(f"parameter {name!r} needs {len(components)} components [{rendered}]")
    for v in values:
        if not isinstance(v, numbers.Real) or isinstance(v, bool):
            # a document may hold a megabyte string here: echo only its start
            raise ValueError(f"parameter {name!r} must be a real number, got {reprlib.repr(v)}")
    try:
        floats = [float(v) for v in values]
    except OverflowError:
        raise ValueError(f"parameter {name!r} holds an integer too large for a float") from None
    return np.array(floats) if components else floats[0]


def spec_from_values(name: str, values) -> FamilySpec:
    """FamilySpec from a flat list of numbers in the family's argument order."""
    family = _family(name)
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


def _make_pauli(params: dict) -> _Built:
    p = params["p"]
    # an entry above 1 is refused before the sum, which overflows (a RuntimeWarning) for two near 1e308
    if np.any((p < -_PARAM_TOL) | (p > 1.0 + _PARAM_TOL)) or abs(p.sum() - 1.0) > _PARAM_TOL:
        raise ValueError(f"pauli probabilities must be nonnegative and sum to 1, got {p}")
    p = np.clip(p, 0.0, None)
    ops = [np.sqrt(p[0]) * IDENTITY2] + [np.sqrt(p[i + 1]) * PAULIS[i] for i in range(3)]

    def expectation() -> GoldenExpectation:
        i_max = int(np.argmax(p[1:]))
        p_max = float(p[1:][i_max])
        if p_max - p[0] > 1e-12:
            expected_v = PAULIS[i_max].copy()
            ties = int(np.sum(p[1:] == p_max)) > 1
        else:
            expected_v = IDENTITY2.copy()
            ties = False
        return GoldenExpectation(
            expected_unitary=expected_v,
            expected_delta=0.4 * max(p_max - p[0], 0.0),
            expected_q=_diag_q(p[1:] - p[0]),
            degenerate=ties,
        )

    return ops, expectation


def _make_gad(params: dict) -> _Built:
    gamma, p = params["gamma"], params["p"]
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

    def expectation() -> GoldenExpectation:
        return GoldenExpectation(
            expected_unitary=PAULIS[2].copy() if gamma < 0.0 else IDENTITY2.copy(),
            expected_delta=0.4 * max(-gamma, 0.0),
            expected_q=_diag_q([-0.5 * gamma * (gamma + 1.0)] * 2 + [-gamma]),
        )

    return ops, expectation


def _make_mixed_unitary(params: dict) -> _Built:
    p, theta = params["p"], params["theta"]
    if not -_PARAM_TOL <= p <= 1.0 / 3.0 + _PARAM_TOL:
        raise ValueError(f"p must lie in [0, 1/3], got {p}")
    p = float(np.clip(p, 0.0, 1.0 / 3.0))
    half = 0.5 * theta
    ops = [np.sqrt(1.0 - 3.0 * p) * IDENTITY2] + [
        np.sqrt(p) * (np.cos(half) * IDENTITY2 - 1j * np.sin(half) * PAULIS[i])
        for i in range(3)
    ]

    def expectation() -> GoldenExpectation:
        v = p * np.sin(theta)
        q = 4.0 * p * np.sin(half) ** 2 - 1.0
        q_mat = np.zeros((4, 4))
        q_mat[0, 1:] = q_mat[1:, 0] = 0.5 * v
        q_mat[1:, 1:] = q * np.eye(3)
        if q < 0.0:
            # no closed form below q = 0; the brute-force oracle covers it
            return GoldenExpectation(expected_unitary=None, expected_delta=None, expected_q=q_mat)
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
        return GoldenExpectation(
            expected_unitary=expected_v,
            expected_delta=0.4 * lam,
            expected_q=q_mat,
            degenerate=degenerate,
        )

    return ops, expectation


def _make_tetrahedron(params: dict) -> _Built:
    p, pp = params["p"], params["p_prime"]
    if p < -_PARAM_TOL or pp < -_PARAM_TOL or p + pp > 0.5 + _PARAM_TOL:
        raise ValueError(f"tetrahedron weights need p, p' >= 0 and p + p' <= 1/2, got ({p}, {pp})")
    p, pp = max(p, 0.0), max(pp, 0.0)
    q0 = max(1.0 - 2.0 * p - 2.0 * pp, 0.0)
    weights = (pp, p, p, pp)
    ops = [np.sqrt(q0) * IDENTITY2]
    for w, corner in zip(weights, _TETRA_CORNERS):
        direction = corner[0] * PAULIS[0] + corner[1] * PAULIS[1] + corner[2] * PAULIS[2]
        ops.append(np.sqrt(w) * direction)

    def expectation() -> GoldenExpectation:
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
        return GoldenExpectation(
            expected_unitary=expected_v,
            expected_delta=0.4 * max(lam, 0.0),
            expected_q=q_mat,
            degenerate=degenerate,
        )

    return ops, expectation


def _make_rotation(params: dict) -> _Built:
    theta, axis = params["theta"], params["axis"]
    with np.errstate(over="ignore"):  # an overflowing norm is inf and fails the bound
        norm = float(np.linalg.norm(axis))
    if not abs(norm - 1.0) <= 1e-6:
        raise ValueError(f"rotation axis must be a unit vector, |n| = {norm}")
    axis = axis / norm
    half = 0.5 * theta
    u = np.cos(half) * IDENTITY2 - 1j * np.sin(half) * (
        axis[0] * PAULIS[0] + axis[1] * PAULIS[1] + axis[2] * PAULIS[2]
    )

    def expectation() -> GoldenExpectation:
        s = np.sin(half)
        eps = 0.5 * axis * np.sin(theta)
        q_mat = np.zeros((4, 4))
        q_mat[0, 1:] = q_mat[1:, 0] = eps
        q_mat[1:, 1:] = (s * s) * np.outer(axis, axis) + (s * s - 1.0) * np.eye(3)
        return GoldenExpectation(
            expected_unitary=u.conj().T,
            expected_delta=0.4 * s * s,
            expected_q=q_mat,
        )

    return [u], expectation


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
    build: Callable[[dict], _Built]

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


def _family(name: str) -> Family:
    """The table row of a family name; a ValueError for any other name."""
    if name not in _BY_NAME:
        raise ValueError(f"unknown family {name!r}, expected one of {FAMILIES}")
    return _BY_NAME[name]
