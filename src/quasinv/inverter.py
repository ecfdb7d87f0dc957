"""Unitary quasi-inverse of a qubit channel.

The MSTD decrease achieved by composing a unitary V = x0 I + i x.sigma
after a channel (M, c) is a quadratic form on the unit 3-sphere,

    delta(x0, x) = (2/5) (x0, x)^T Q (x0, x),

with Q00 = 0, Q0i = -a_i/4 where a is the axial vector of M
(a = (M23-M32, M31-M13, M12-M21)), and Q_ij = (sym(M)_ij - Tr(M) d_ij)/2.
The translation c never enters: the rotation of the composed map
preserves |c|. Maximizing the form is the eigenproblem of Q; the top
eigenvector is the quasi-inverse and the decrease is (2/5) lambda_max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    AffineChannel,
    UnitaryParams,
    unitary_matrix,
    unitary_to_affine,
    validate_cptp,
)
from .metrics import mstd_analytic, mstd_composed
from .numerics import eig_sym4

TRIVIAL_TOL = 1e-12
DEGENERACY_TOL = 1e-10

# Ratio of the surface-moment form to the ball-moment form: (1/12)/(1/20).
_SURFACE_SCALE = 5.0 / 3.0


@dataclass
class QForm:
    """Symmetric 4x4 quadratic form of the MSTD decrease; q[0, 0] = 0."""

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got {q.shape}")
        if not (np.abs(q - q.T) <= 1e-12).all():
            raise ValueError("quadratic form must be symmetric")
        self.q = q


@dataclass
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


def build_q(e: AffineChannel, region: str = "ball") -> QForm:
    """Quadratic form of the MSTD decrease for a channel.

    With region="surface" the averaging moments change and the form is the
    ball form scaled by 5/3; the maximizer is unchanged.
    """
    m = e.m
    sym = 0.5 * (m + m.T)
    axial = np.array(
        [m[1, 2] - m[2, 1], m[2, 0] - m[0, 2], m[0, 1] - m[1, 0]]
    )
    q = np.zeros((4, 4))
    q[0, 1:] = -0.25 * axial
    q[1:, 0] = -0.25 * axial
    q[1:, 1:] = 0.5 * (sym - np.trace(m) * np.eye(3))
    if region == "surface":
        q *= _SURFACE_SCALE
    elif region != "ball":
        raise ValueError(f"region must be 'ball' or 'surface', got {region!r}")
    return QForm(q)


def maximize(qf: QForm) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of the form and its unit eigenvector.

    Because the (0, 0) entry vanishes, the maximum over the unit sphere is
    never below zero (up to roundoff).
    """
    w, v = eig_sym4(qf.q)
    return float(w[0]), v[:, 0]


def delta_mstd_direct(e: AffineChannel, u: UnitaryParams) -> float:
    """MSTD decrease of composing u after e, via the composition route.

    Evaluates mstd(e) - mstd(u ∘ e) directly; shares no code with build_q
    or the eigensolver, so it serves as an independent check of both.
    """
    return mstd_analytic(e).value - mstd_composed(unitary_to_affine(u), e).value


def quasi_inverse(e: AffineChannel) -> QuasiInverseResult:
    """Best unitary to undo a channel in the ball-averaged MSTD sense.

    Raises ValueError when the channel fails the CPTP check. A top
    eigenvalue at or below 1e-12 clamps to the trivial result V = I; the
    degenerate flag marks a top eigenvalue within 1e-10 of the next one,
    in which case the returned maximizer is one of several optima.
    """
    report = validate_cptp(e)
    if not report.passed:
        raise ValueError(
            "channel is not CPTP "
            f"(min Choi eigenvalue {report.min_choi_eigenvalue:.3e})"
        )
    return _solve(e)[0]


def _solve(e: AffineChannel) -> tuple[QuasiInverseResult, QForm]:
    """quasi_inverse without the CPTP check, plus the form it maximized."""
    qf = build_q(e)
    w, v = eig_sym4(qf.q)
    lam = float(w[0])
    degenerate = bool(w[0] - w[1] < DEGENERACY_TOL)
    trivial = lam <= TRIVIAL_TOL
    x = np.array([1.0, 0.0, 0.0, 0.0]) if trivial else v[:, 0]
    u = UnitaryParams.from_vector(x)
    before = mstd_analytic(e).value
    after = mstd_composed(unitary_to_affine(u), e).value
    result = QuasiInverseResult(
        x=x,
        unitary=unitary_matrix(u),
        lambda_max=lam,
        delta_mstd=0.4 * max(lam, 0.0),
        mstd_before=before,
        mstd_after=after,
        trivial=trivial,
        degenerate=degenerate,
    )
    return result, qf
