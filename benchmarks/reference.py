"""Independent reference routes for checking quasinv's outputs.

Nothing here imports quasinv. Channels are handled through their
Pauli-transfer matrix T (4x4, T[0,0] = 1), built by one einsum over the
Kraus operators; the best unitary correction comes from the Wahba/Kabsch
solution through an SVD of M instead of the package's 4x4 eigenproblem.
"""

from __future__ import annotations

import numpy as np

PAULI_BASIS = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

SOLVER_TOL = 1e-9  # absolute tolerance on solver outputs (values of order 1)
TP_TOL = 1e-10  # trace-preservation residual accepted for generated Kraus sets
MC_SIGMAS = 5.0  # Monte Carlo estimates must lie within this many stderr


def transfer_matrix(ops) -> np.ndarray:
    """Pauli-transfer matrix T_ab = Tr(P_a E(P_b)) / 2 of a Kraus set."""
    e = np.asarray(ops, dtype=complex)
    p = PAULI_BASIS
    return 0.5 * np.einsum("aij,kjl,blm,kim->ab", p, e, p, e.conj()).real


def affine_of_kraus(ops) -> tuple[np.ndarray, np.ndarray]:
    """(M, c) of a Kraus set, from its transfer matrix."""
    t = transfer_matrix(ops)
    return t[1:, 1:], t[1:, 0]


def tp_residual(ops) -> float:
    e = np.asarray(ops, dtype=complex)
    gram = np.einsum("kji,kjl->il", e.conj(), e)
    return float(np.linalg.norm(gram - np.eye(2)))


def mstd_ball(m, c) -> float:
    m, c = np.asarray(m), np.asarray(c)
    return float((np.sum(m * m) - 2.0 * np.trace(m) + 3.0) / 20.0 + 0.25 * (c @ c))


def mstd_surface(m, c) -> float:
    m, c = np.asarray(m), np.asarray(c)
    return float((np.sum(m * m) - 2.0 * np.trace(m) + 3.0) / 12.0 + 0.25 * (c @ c))


def wahba_delta(m) -> float:
    """Largest MSTD decrease over rotations: (s1 + s2 + sign(det M) s3 - Tr M) / 10."""
    m = np.asarray(m, dtype=float)
    s = np.linalg.svd(m, compute_uv=False)
    d = 1.0 if np.linalg.det(m) >= 0.0 else -1.0
    return float((s[0] + s[1] + d * s[2] - np.trace(m)) / 10.0)


def min_choi_eigenvalue(m, c) -> float:
    """Smallest eigenvalue of the Choi matrix (1/2) sum_ab T_ab P_a (x) P_b^T."""
    t = np.zeros((4, 4))
    t[0, 0] = 1.0
    t[1:, 0] = c
    t[1:, 1:] = m
    p = PAULI_BASIS
    choi = 0.5 * np.einsum("ab,aij,bkl->iljk", t, p, p).reshape(4, 4)
    return float(np.linalg.eigvalsh(choi)[0])


def complex_matrix(raw) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def check_analysis(out: dict, m, c) -> list[str]:
    """Problems with an analyze result document for the channel (m, c)."""
    problems = []
    if not out.get("cptp", {}).get("passed"):
        return ["cptp check failed on a valid channel"]
    got_m = np.asarray(out["affine"]["m"], dtype=float)
    if np.max(np.abs(got_m - m)) > SOLVER_TOL:
        problems.append("affine.m differs from the transfer-matrix route")
    if np.max(np.abs(np.asarray(out["affine"]["c"]) - c)) > SOLVER_TOL:
        problems.append("affine.c differs from the transfer-matrix route")
    problems += check_solution(
        out["mstd_before"], out["delta_mstd"], out["mstd_after"],
        out["quasi_inverse"]["x"], complex_matrix(out["quasi_inverse"]["matrix"]), m, c,
    )
    return problems


def check_solution(before, delta, after, x, unitary, m, c) -> list[str]:
    """Check a quasi-inverse against the closed form and the Wahba optimum.

    The correction itself is checked by composing its own transfer matrix
    after the channel: the result must reach the SVD optimum.
    """
    problems = []
    ref_before = mstd_ball(m, c)
    ref_delta = wahba_delta(m)
    if abs(before - ref_before) > SOLVER_TOL:
        problems.append(f"mstd_before {before!r} != closed form {ref_before!r}")
    if abs(delta - ref_delta) > SOLVER_TOL:
        problems.append(f"delta_mstd {delta!r} != Wahba optimum {ref_delta!r}")
    if abs(after - (before - delta)) > SOLVER_TOL:
        problems.append("mstd_after != mstd_before - delta_mstd")
    if abs(float(np.linalg.norm(x)) - 1.0) > SOLVER_TOL:
        problems.append("|x| != 1")
    rot = transfer_matrix([unitary])[1:, 1:]
    reached = mstd_ball(rot @ m, rot @ c)
    if abs(reached - (ref_before - ref_delta)) > SOLVER_TOL:
        problems.append("the returned unitary does not reach the optimum")
    return problems


def check_error(out: dict, expect_exit: int, m=None, c=None) -> list[str]:
    """Problems with the answer to an invalid document (exit 2 or 3)."""
    if expect_exit == 2:
        err = out.get("error")
        if not isinstance(err, dict) or err.get("code") != "parse":
            return ["expected a parse error document"]
        return []
    cptp = out.get("cptp", {})
    if cptp.get("passed") is not False:
        return ["expected a failed cptp report"]
    ref = min_choi_eigenvalue(m, c)
    if ref >= 0.0 or abs(cptp["min_choi_eigenvalue"] - ref) > SOLVER_TOL:
        return [f"min Choi eigenvalue {cptp['min_choi_eigenvalue']!r} != reference {ref!r}"]
    return []
