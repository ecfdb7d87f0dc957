"""Small dense linear algebra and the one array intake.

Each matrix job is done once, by ``_checked_array`` (the one intake, its number
rule ``_is_number``), ``_hermitian_part`` and ``_eigh_lists``. Eigenpairs come
from LAPACK (``np.linalg.eigh``/``eigvalsh``) with a fixed eigenvector sign
convention and a stable descending order, so solver outputs are reproducible to
rounding across BLAS builds. ``_eigh_lists`` hands them over as Python floats,
which the solver uses as they are; ``eigh_desc`` gives the same as arrays. The
random number generator and the samplers are in ``sampling``, which ``analyze``
never imports.
"""

from __future__ import annotations

import numpy as np

# Eigenvector components below this magnitude are treated as zero when
# applying the sign convention.
SIGN_TOL = 1e-12
# Largest |h - h^dag| entry eig_herm4 accepts as Hermitian, and |q - q^T| entry eig_sym4 and QForm as symmetric.
HERMITIAN_TOL = 1e-12
# Most batches sampling._draw_batches cuts one computation into; kept here, so that metrics derives
# its sample limit without importing sampling.
MAX_BATCHES = 1 << 16
# What _is_number takes; the first four, the real ones, are what documents.dumps writes as numbers.
_NUMBERS = (int, float, np.integer, np.floating, complex, np.complexfloating)
_PLAIN = frozenset((int, float, complex, np.float64, np.complex128))  # leaf types passed as a set: no bool


class ConvergenceError(RuntimeError):
    """LAPACK's eigensolver failed; carries the off-diagonal norm of the input matrix."""

    def __init__(self, residual: float):
        super().__init__(f"eigensolver did not converge, off-diagonal norm {residual:.3e}")
        self.residual = residual


def _signed(column: list) -> list:
    """The column, negated if its first component with |v| > SIGN_TOL is negative."""
    for value in column:
        if abs(value) > SIGN_TOL:
            return [-v for v in column] if value < 0.0 else column
    return column


def _eigh_lists(a: np.ndarray) -> tuple[list, list]:
    """Eigenpairs of a real symmetric matrix by LAPACK (``np.linalg.eigh``), as Python floats.

    Returns (eigenvalues descending, eigenvectors), eigenvector ``k`` the
    list ``vectors[k]`` under the sign convention. The descending sort is
    stable, so equal eigenvalues keep LAPACK's column order. A LAPACK
    failure raises ConvergenceError carrying the off-diagonal norm of the
    input. Its callers pass a checked float64 array, so it does no cast or
    dtype check of its own.
    """
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(float(np.linalg.norm(a - np.diag(np.diag(a))))) from exc
    # sorted() keeps equal eigenvalues in LAPACK's order under reverse=True too
    values, columns = w.tolist(), v.T.tolist()
    order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
    return [values[i] for i in order], [_signed(columns[i]) for i in order]


def eigh_desc(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_eigh_lists`` as arrays: (eigenvalues descending, eigenvector columns)."""
    values, vectors = _eigh_lists(a)
    return np.array(values), np.array(vectors).T


def _is_number(value, complex_ok: bool = False) -> bool:
    """The number rule: an int or a float, Python's or NumPy's, never a bool; complex too if ``complex_ok``."""
    return isinstance(value, _NUMBERS if complex_ok else _NUMBERS[:4]) and not isinstance(value, bool)


def _checked_array(value, shape: tuple | None, name: str, dtype=np.float64) -> np.ndarray:
    """The one array intake: a read-only C-ordered copy of ``value`` cast to ``dtype`` (np.float64 or complex).

    Before the cast: ValueError for ragged rows; TypeError for an array of a bool or text dtype (or complex,
    when ``dtype`` is real) or for a leaf of other input that ``_is_number`` refuses (a 0-d array leaf by its
    scalar); ValueError for a shape other than ``shape``, unless None.
    """
    real = dtype is np.float64
    try:
        a = np.array(value, order="C")
    except ValueError:
        raise ValueError(f"{name} must be a regular array, got ragged rows") from None
    bad = a.dtype if a.dtype.kind in ("cbUS" if real else "bUS") else None
    if not isinstance(value, np.ndarray) or a.dtype.kind == "O":  # leaf by leaf
        leaves = [value]
        for _ in range(a.ndim):
            leaves = [x for row in leaves for x in row]
        # plain leaf types pass as a set, the dtype check above refusing complex ones in a real intake;
        # numpy keeps plain leaves as objects only beside an int no float holds, so those go leaf by leaf
        if a.dtype.kind == "O" or not set(map(type, leaves)) <= _PLAIN:
            bad = next((x.dtype for x in map(np.asarray, leaves) if not _is_number(x[()], not real)), None)
    if bad is not None:
        raise TypeError(f"{name} must be {'real' if real else 'numeric'}, got dtype {bad}")
    if shape is not None and a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    a = a.astype(dtype, copy=False)
    a.flags.writeable = False
    return a


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a^H) / 2 of a square array; ValueError for a non-finite entry, then for |a - a^H| above HERMITIAN_TOL."""
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    t = a.conj().T
    dev = float(np.abs(a - t).max())
    if not (dev <= HERMITIAN_TOL):
        what = "Hermitian" if a.dtype.kind == "c" else "symmetric"
        raise ValueError(f"matrix is not {what} (max deviation {dev:.3e})")
    return 0.5 * (a + t)


def eig_sym4(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of a symmetric 4x4.

    ValueError for a non-finite entry or for |q - q^T| above HERMITIAN_TOL.
    """
    return eigh_desc(_hermitian_part(_checked_array(q, (4, 4), "q")))


def eig_herm4(h: np.ndarray) -> np.ndarray:
    """Eigenvalues (descending) of a Hermitian 4x4 matrix; TypeError for bool or text, ValueError if not finite."""
    return np.linalg.eigvalsh(_hermitian_part(_checked_array(h, (4, 4), "matrix", complex)))[::-1]
