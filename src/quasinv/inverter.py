"""Unitary quasi-inverse of a qubit channel.

The MSTD decrease achieved by composing a unitary V = x0 I + i x.sigma
after a channel (M, c) is a quadratic form on the unit 3-sphere,

    delta(x0, x) = (2/5) (x0, x)^T Q (x0, x),

with Q00 = 0, Q0i = -a_i/4 where a is the axial vector of M
(a = (M23-M32, M31-M13, M12-M21)), and Q_ij = (sym(M)_ij - Tr(M) d_ij)/2.
The translation c never enters: inputs average to 0 over the ball and its
surface, so c adds |c|^2/4, and the rotation preserves |c|. The top
eigenvector of Q is the quasi-inverse and the decrease is (2/5) lambda_max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    AffineChannel,
    UnitaryParams,
    _unitary,
    unitary_to_affine,
    validate_cptp,
)
from .metrics import _closed_form, _mstd_after_rotation, _region, mstd_analytic, mstd_composed
from .numerics import HERMITIAN_TOL, _checked_array, _eigh_lists

TRIVIAL_TOL = 1e-12
DEGENERACY_TOL = 1e-10

_UPPER_TRIANGLE = [(i, j) for i in range(4) for j in range(i, 4)]


@dataclass(eq=False)
class QForm:
    """Symmetric 4x4 quadratic form of the MSTD decrease; q[0, 0] = 0. ``q`` is a read-only float copy."""

    q: np.ndarray

    def __post_init__(self):
        q = _checked_array(self.q, (4, 4), "q")
        self._check(q, q.tolist())

    @classmethod
    def _of_own(cls, q: np.ndarray, rows: list) -> QForm:
        """The form of a C-ordered (4, 4) float array that no one else holds, kept read-only; ``rows`` is q.tolist().

        Every check of the constructor runs, on ``rows``, but the intake's copy and dtype check: the
        caller built both from the same Python floats.
        """
        q.flags.writeable = False
        form = cls.__new__(cls)
        form._check(q, rows)
        return form

    def _check(self, q: np.ndarray, rows: list) -> None:
        self.q = q
        # eig_sym4's elementwise |q - q^T| <= HERMITIAN_TOL in Python floats, on the upper triangle: the
        # same decision, since |a - b| is |b - a| and a diagonal entry passes exactly when it is finite
        if not all([abs(rows[i][j] - rows[j][i]) <= HERMITIAN_TOL for i, j in _UPPER_TRIANGLE]):
            raise ValueError("quadratic form must be symmetric")


@dataclass(eq=False)
class QuasiInverseResult:
    """Maximizer of the MSTD decrease and the bookkeeping around it."""

    x: np.ndarray
    unitary: np.ndarray
    lambda_max: float
    delta_mstd: float
    mstd_before: float
    mstd_after: float
    trivial: bool
    degenerate: bool


@dataclass
class VerificationReport:
    """Outcome of sampling for unitaries that beat a solver result."""

    channel_id: str
    solver_delta: float
    best_sampled_delta: float
    n_samples: int
    max_violation: float
    passed: bool


def build_q(e: AffineChannel, region: str = "ball") -> QForm:
    """Quadratic form of the MSTD decrease for a channel.

    With region="surface" the averaging moments change and the form is the
    ball form scaled by 5/3; the maximizer is unchanged.
    """
    denominator = _region(region)[0]
    # 0.5 * (sym(m) - Tr(m) I) in Python floats, in numpy's order down to signed zeros: np.trace
    # sums ((0 + m00) + m11) + m22, and Tr(m) * 0 is subtracted off the diagonal
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = e.m.tolist()
    t = 0.0 + m00 + m11 + m22
    z = t * 0.0
    a1, a2, a3 = -0.25 * (m12 - m21), -0.25 * (m20 - m02), -0.25 * (m01 - m10)
    d1, d2, d3 = [0.5 * (0.5 * (x + x) - t) for x in (m00, m11, m22)]
    s12, s13, s23 = [0.5 * (0.5 * s - z) for s in (m01 + m10, m02 + m20, m12 + m21)]
    q = [[0.0, a1, a2, a3], [a1, d1, s12, s13], [a2, s12, d2, s23], [a3, s13, s23, d3]]
    if denominator != 20.0:  # the surface: its moments scale the ball form by 20 / 12
        q = [[x * (20.0 / denominator) for x in row] for row in q]
    return QForm._of_own(np.array(q), q)


def maximize(qf: QForm) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of the form and its unit eigenvector.

    Because the (0, 0) entry vanishes, the maximum over the unit sphere is
    never below zero (up to roundoff). QForm checked the form once: this is
    the one ``_eigh_lists(qf.q)`` call ``_solve`` makes too.
    """
    values, vectors = _eigh_lists(qf.q)
    return values[0], np.array(vectors[0])


def delta_mstd_direct(e: AffineChannel, u: UnitaryParams) -> float:
    """MSTD decrease of composing u after e, via the composition route.

    Evaluates mstd(e) - mstd(u ∘ e) directly; shares no code with build_q
    or the eigensolver, so it serves as an independent check of both.
    """
    return mstd_analytic(e).value - mstd_composed(unitary_to_affine(u), e).value


def quasi_inverse(e: AffineChannel) -> QuasiInverseResult:
    """Best unitary to undo a channel in the ball-averaged MSTD sense.

    Raises TypeError for anything but an AffineChannel, and ValueError
    when the channel fails the CPTP check. A top eigenvalue at or below
    1e-12 clamps to the trivial result V = I; the degenerate flag marks a
    top eigenvalue within 1e-10 of the next one, in which case the
    returned maximizer is one of several optima.
    """
    if not isinstance(e, AffineChannel):
        raise TypeError(f"quasi_inverse takes an AffineChannel (see kraus_to_affine), got {type(e).__name__}")
    report = validate_cptp(e)
    if not report.passed:
        raise ValueError(
            "channel is not CPTP "
            f"(min Choi eigenvalue {report.min_choi_eigenvalue:.3e})"
        )
    return _solve(e)[0]


def _solve(e: AffineChannel) -> tuple[QuasiInverseResult, QForm]:
    """quasi_inverse without the CPTP check, plus the form it maximized.

    The eigenpairs stay Python floats from LAPACK's output to the result:
    only ``x`` becomes an array, once.
    """
    qf = build_q(e)
    values, vectors = _eigh_lists(qf.q)  # build_q's form is finite and exactly symmetric
    lam = values[0]
    trivial = lam <= TRIVIAL_TOL
    xs = [1.0, 0.0, 0.0, 0.0] if trivial else vectors[0]  # unit length: e0, or an eigenvector LAPACK normalized
    result = QuasiInverseResult(
        x=np.array(xs),
        unitary=_unitary(*xs),
        lambda_max=lam,
        delta_mstd=0.4 * max(lam, 0.0),
        mstd_before=_closed_form(e.m, e.c, 20.0),  # mstd_analytic(e).value
        mstd_after=_mstd_after_rotation(xs, e),
        trivial=trivial,
        degenerate=values[0] - values[1] < DEGENERACY_TOL,
    )
    return result, qf
