"""Qubit channel representations and conversions.

A channel is held either as a Kraus set {E_k} acting by
rho -> sum_k E_k rho E_k^dag, or as its affine action on Bloch vectors,
r -> M r + c, with M_ij = Tr(sigma_i E(sigma_j))/2 and
c_i = Tr(sigma_i E(I))/2. Complete positivity is checked through the
Choi matrix.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .numerics import RngStream, _checked_array

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
IDENTITY2 = np.eye(2, dtype=complex)
_PAULI4 = np.stack([IDENTITY2, *PAULIS])
# Choi basis: the channel sending sigma_b to sigma_a has Choi matrix
# kron(conj(sigma_b), sigma_a) / 2, indexed [a, b] here.
_CHOI_BASIS = 0.5 * np.einsum("bij,akl->abikjl", _PAULI4.conj(), _PAULI4).reshape(4, 4, 4, 4)

TP_TOL = 1e-10
CPTP_TOL = 1e-9
BLOCH_TOL = 1e-12
UNIT_NORM_TOL = 1e-12


def check_bloch(r) -> np.ndarray:
    """Validate and return a Bloch vector (real 3-vector inside the ball)."""
    r = _checked_array(r, (3,), "Bloch vector")
    if not np.all(np.isfinite(r)):
        raise ValueError("Bloch vector has non-finite entries")
    with np.errstate(over="ignore"):  # entries beyond ~1e154 overflow to inf, which fails the bound
        norm = float(np.linalg.norm(r))
    if not (norm <= 1.0 + BLOCH_TOL):
        raise ValueError(f"Bloch vector leaves the unit ball: |r| = {norm}")
    return r


@dataclass(eq=False)
class KrausChannel:
    """A channel given by a nonempty trace-preserving set of 2x2 Kraus operators.

    ``operators`` is a read-only (k, 2, 2) complex copy of the input, so
    ``residual``, its TP residual computed once at construction, stays valid.
    Real and complex numbers are accepted (``numerics._is_number``); booleans,
    text and other non-numbers are refused with a TypeError.
    """

    operators: np.ndarray
    residual: float = field(init=False, repr=False)

    def __post_init__(self):
        self._check(_checked_array(self.operators, None, "operators", complex))

    @classmethod
    def _of_own(cls, ops: np.ndarray) -> KrausChannel:
        """The channel of a C-ordered complex array that no one else holds, kept as the read-only ``operators``.

        Every check of the constructor runs but the intake's copy and dtype check: the caller built
        the array from checked values (a document's, through the intake, or a conversion's).
        """
        ops.flags.writeable = False
        channel = cls.__new__(cls)
        channel._check(ops)
        return channel

    def _check(self, ops: np.ndarray) -> None:
        self.operators = ops
        if not ops.size:
            raise ValueError("Kraus channel needs at least one operator")
        if ops.ndim != 3 or ops.shape[1:] != (2, 2):
            raise ValueError(f"Kraus operators must be 2x2, got a stack of shape {ops.shape}")
        if not np.isfinite(ops).all():
            raise ValueError("Kraus operator has non-finite entries")
        self.residual = self.tp_residual()
        if not (self.residual <= TP_TOL):
            raise ValueError(f"Kraus set is not trace preserving: residual {self.residual:.3e}")

    def tp_residual(self) -> float:
        """Frobenius norm of sum_k E_k^dag E_k - I."""
        ops = self.operators
        with np.errstate(all="ignore"):  # entries beyond ~1e154 overflow to inf or nan
            return float(np.linalg.norm(np.einsum("kji,kjl->il", ops.conj(), ops) - IDENTITY2))

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Apply the channel to an arbitrary 2x2 matrix."""
        x = _checked_array(x, (2, 2), "x", complex)
        out = np.zeros((2, 2), dtype=complex)
        for op in self.operators:
            out += op @ x @ op.conj().T
        return out


@dataclass(eq=False)
class AffineChannel:
    """Bloch-vector action r -> m r + c of a trace-preserving qubit map; m, c are read-only C-ordered copies."""

    m: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self._check(_checked_array(self.m, (3, 3), "m"), _checked_array(self.c, (3,), "c"))

    @classmethod
    def _of_own(cls, m: np.ndarray, c: np.ndarray) -> AffineChannel:
        """The channel of C-ordered float arrays of shape (3, 3) and (3,) that no one else holds, kept read-only.

        Every check of the constructor runs but the intake's copy and dtype check: the caller built
        the array from checked values (a document's, through the intake, or a conversion's).
        """
        m.flags.writeable = c.flags.writeable = False
        channel = cls.__new__(cls)
        channel._check(m, c)
        return channel

    def _check(self, m: np.ndarray, c: np.ndarray) -> None:
        self.m, self.c = m, c
        rows, (c0, c1, c2) = m.tolist(), c.tolist()
        if not all(map(math.isfinite, [*rows[0], *rows[1], *rows[2], c0, c1, c2])):
            raise ValueError("affine data has non-finite entries")
        # Python-float bounds (|c|^2, Gershgorin's row sums of m^T m) accept what is clearly inside
        # both limits (then smax <= 1 + 5e-10); numpy's expressions decide and report the rest.
        if not (c0 * c0 + c1 * c1 + c2 * c2 <= 1.0 + BLOCH_TOL and _gram_rows_within(rows, 1.0 + CPTP_TOL)):
            with np.errstate(all="ignore"):  # entries beyond ~1e154 overflow to inf or nan
                cnorm = math.sqrt(c @ c)
                if not (cnorm <= 1.0 + BLOCH_TOL):
                    raise ValueError(f"translation vector outside the ball: |c| = {cnorm}")
                gram = m.T @ m
                # the trace of m^T m is inf or nan once its entries or their sum overflow
                top = np.linalg.eigvalsh(gram)[-1] if math.isfinite(gram.trace()) else math.inf
            smax = math.sqrt(max(top, 0.0))
            if not (smax <= 1.0 + CPTP_TOL):
                raise ValueError(f"largest singular value of m is {smax} > 1")


def _gram_rows_within(rows, bound: float) -> bool:
    """Whether each row sum of |m^T m|, and so (Gershgorin) its top eigenvalue, is <= bound."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    ab, ac, bc = abs(a * b + d * e + g * h), abs(a * c + d * f + g * i), abs(b * c + e * f + h * i)
    return (a * a + d * d + g * g + ab + ac <= bound and b * b + e * e + h * h + ab + bc <= bound
            and c * c + f * f + i * i + ac + bc <= bound)


def identity_channel() -> AffineChannel:
    return AffineChannel(np.eye(3), np.zeros(3))


def kraus_to_affine(k: KrausChannel) -> AffineChannel:
    """Affine (m, c) of a Kraus channel: m_ij = Tr(s_i E(s_j))/2, c_i = Tr(s_i E(I))/2."""
    ops = k.operators
    t = 0.5 * np.einsum("aij,kjl,blm,kim->ab", _PAULI4[1:], ops, _PAULI4, ops.conj()).real
    return AffineChannel._of_own(t[:, 1:].copy(), t[:, 0].copy())


def apply(e: AffineChannel, r) -> np.ndarray:
    """Image m r + c of a Bloch vector under the channel."""
    return e.m @ check_bloch(r) + e.c


def compose(e2: AffineChannel, e1: AffineChannel) -> AffineChannel:
    """Affine form of e2 after e1: (m2 m1, m2 c1 + c2)."""
    return AffineChannel(e2.m @ e1.m, e2.m @ e1.c + e2.c)


@dataclass(eq=False)
class UnitaryParams:
    """Unitary V = x0 I + i x.sigma with x0^2 + |x|^2 = 1; ``xvec`` is a read-only float copy."""

    x0: float
    xvec: np.ndarray

    def __post_init__(self):
        self.x0 = float(_checked_array(self.x0, (), "x0"))
        self.xvec = _checked_array(self.xvec, (3,), "xvec")
        with np.errstate(all="ignore"):  # entries beyond ~1e154 overflow to inf
            norm2 = self.x0 * self.x0 + float(self.xvec @ self.xvec)
        if not (abs(norm2 - 1.0) <= UNIT_NORM_TOL):
            raise ValueError(f"(x0, x) is not unit length: |x|^2 = {norm2}")

    @classmethod
    def from_vector(cls, x4) -> "UnitaryParams":
        x4 = _checked_array(x4, (4,), "x4")
        return cls(x4[0], x4[1:])


def unitary_matrix(u: UnitaryParams) -> np.ndarray:
    """The 2x2 matrix x0 I + i (x1 X + x2 Y + x3 Z)."""
    return _unitary(u.x0, *u.xvec.tolist())


def _unitary(x0: float, x1: float, x2: float, x3: float) -> np.ndarray:
    """unitary_matrix of four floats, taken as they are (their unit length is the caller's)."""
    # numpy's x0 * I + 1j * ((x1 * X + x2 * Y) + x3 * Z) entry by entry, signed zeros included:
    # every product is complex by complex, with a real factor x entering as (x, +0.0)
    x0, x1, x2, x3 = map(complex, (x0, x1, x2, x3))
    one, zero = complex(1.0, 0.0), complex(0.0, 0.0)
    diagonal_xy = x1 * zero + x2 * zero
    return np.array([
        [x0 * one + 1j * (diagonal_xy + x3 * one),
         x0 * zero + 1j * ((x1 * one + x2 * complex(-0.0, -1.0)) + x3 * zero)],
        [x0 * zero + 1j * ((x1 * one + x2 * complex(0.0, 1.0)) + x3 * zero),
         x0 * one + 1j * (diagonal_xy + x3 * complex(-1.0, 0.0))],
    ])


def _rotation_entries(x0, x1, x2, x3):
    """Bloch rotation of V = x0 I + i x.sigma, entry by entry in row-major order.

    Takes floats or equal-shape arrays. Entries are yielded one at a time,
    so a batch caller holds a single entry's temporaries at once.
    """
    yield 1.0 - 2.0 * (x2 * x2 + x3 * x3)
    yield 2.0 * (x0 * x3 + x1 * x2)
    yield -2.0 * (x0 * x2 - x1 * x3)
    yield -2.0 * (x0 * x3 - x1 * x2)
    yield 1.0 - 2.0 * (x1 * x1 + x3 * x3)
    yield 2.0 * (x0 * x1 + x2 * x3)
    yield 2.0 * (x0 * x2 + x1 * x3)
    yield -2.0 * (x0 * x1 - x2 * x3)
    yield 1.0 - 2.0 * (x1 * x1 + x2 * x2)


def unitary_to_affine(u: UnitaryParams) -> AffineChannel:
    """The conjugation rho -> V rho V^dag as a checked affine channel: its Bloch rotation, no translation."""
    rotation = np.array(list(_rotation_entries(u.x0, *u.xvec.tolist()))).reshape(3, 3)
    return AffineChannel(rotation, np.zeros(3))


def choi(e: AffineChannel) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) E(|i><j|); Hermitian, trace 2.

    Built from the Pauli-transfer matrix T = [[1, 0], [c, m]], the map
    sigma_b -> sum_a T_ab sigma_a.
    """
    t = np.zeros((4, 4))
    t[0, 0] = 1.0
    t[1:, 0] = e.c
    t[1:, 1:] = e.m
    return np.einsum("ab,abxy->xy", t, _CHOI_BASIS)


@dataclass
class CptpReport:
    """Physicality check: TP residual <= 1e-10 and smallest Choi eigenvalue >= -1e-9."""

    tp_exact: bool
    tp_residual: float | None
    min_choi_eigenvalue: float
    passed: bool = field(init=False)

    def __post_init__(self):
        tp_ok = self.tp_exact or self.tp_residual <= TP_TOL
        self.passed = bool(tp_ok and self.min_choi_eigenvalue >= -CPTP_TOL)


def validate_cptp(channel) -> CptpReport:
    """CPTP report for a KrausChannel or AffineChannel.

    Affine inputs are trace preserving by construction; Kraus inputs carry
    their completeness residual. Complete positivity is the smallest Choi
    eigenvalue being >= -1e-9.

    Raises ValueError, rather than returning a report, for a Kraus set
    whose residual passes TP_TOL but whose affine translation leaves the
    ball (|c| > 1 + BLOCH_TOL), as kraus_to_affine does.
    """
    if isinstance(channel, KrausChannel):
        return _cptp_report(kraus_to_affine(channel), channel.residual)
    if isinstance(channel, AffineChannel):
        return _cptp_report(channel, None)
    raise TypeError(f"expected KrausChannel or AffineChannel, got {type(channel)!r}")


def _cptp_report(affine: AffineChannel, residual: float | None) -> CptpReport:
    """CPTP report of an affine form; residual is the Kraus set's, or None for affine input."""
    # choi sums conjugate terms in one order for entries (x, y) and (y, x): exactly Hermitian
    min_eig = float(np.linalg.eigvalsh(choi(affine))[0])
    return CptpReport(tp_exact=residual is None, tp_residual=residual, min_choi_eigenvalue=min_eig)


def _inv_sqrt_2x2(h: np.ndarray) -> np.ndarray:
    """Closed-form H^(-1/2) for a positive-definite Hermitian 2x2 matrix."""
    tr = float(np.trace(h).real)
    det = float((h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]).real)
    if det <= 0.0 or tr <= 0.0:
        raise np.linalg.LinAlgError("matrix is not positive definite")
    s = np.sqrt(det)
    t = np.sqrt(tr + 2.0 * s)
    sqrt_h = (h + s * IDENTITY2) / t
    # invert via the 2x2 adjugate; det(sqrt_h) = s
    return np.array([[sqrt_h[1, 1], -sqrt_h[0, 1]], [-sqrt_h[1, 0], sqrt_h[0, 0]]]) / s


def random_channel(rng: RngStream, n_kraus: int) -> KrausChannel:
    """Random CPTP channel with n_kraus operators (1..4).

    Draws a (2*n_kraus) x 2 complex standard-normal matrix G, orthonormalizes
    its columns as K = G (G^dag G)^(-1/2), and slices K into stacked 2x2
    blocks; K^dag K = I makes the set trace preserving. n_kraus = 1 yields a
    Haar-random unitary channel; an n_kraus that is not an integer raises TypeError.
    """
    n_kraus = operator.index(n_kraus)
    if not 1 <= n_kraus <= 4:
        raise ValueError(f"n_kraus must be in 1..4, got {n_kraus}")
    rows = 2 * n_kraus
    for _ in range(8):
        vals = rng.normals(2 * rows * 2)
        g = vals[0::2].reshape(rows, 2) + 1j * vals[1::2].reshape(rows, 2)
        h = g.conj().T @ g
        try:
            k = g @ _inv_sqrt_2x2(h)
        except np.linalg.LinAlgError:
            continue
        return KrausChannel(k.reshape(n_kraus, 2, 2))
    raise RuntimeError("could not draw a non-singular Gaussian matrix")


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance between 2x2 matrices minimized over a global phase."""
    a = _checked_array(a, (2, 2), "a", complex)
    b = _checked_array(b, (2, 2), "b", complex)
    overlap = np.trace(a.conj().T @ b)
    if abs(overlap) > 0.0:
        b = b * (abs(overlap) / overlap)
    return float(np.linalg.norm(a - b))
