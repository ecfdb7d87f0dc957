"""Brute-force verification of the quasi-inverse solver.

Searches the unit 3-sphere of unitary parameters at random, ranks the
samples by Wahba's objective Tr(R(x) M) (a rotation keeps |M|_F and |c|,
so its MSTD decrease is (Tr(R M) - Tr M) / 10), refines the best one by
a pattern search on the sphere, and evaluates the decrease through the
composition route only (affine conjugation, compose, closed-form
average). The Bloch rotation formula is ``channels.unitary_to_affine``'s;
nothing here touches the quadratic-form construction or the eigensolver,
so agreement is meaningful evidence.
"""

from __future__ import annotations

import numpy as np

from .channels import AffineChannel, _rotation_entries
from .inverter import QuasiInverseResult, VerificationReport
from .metrics import _mstd_after_rotation, mstd_analytic
from .numerics import MAX_BATCHES
from .sampling import RngStream, _draw_batches

BRUTE_FORCE_MIN_SAMPLES = 10_000
_BATCH = 65536
BRUTE_FORCE_MAX_SAMPLES = MAX_BATCHES * _BATCH  # 2^32
# points drawn and ranked at a time, in a workspace of 7 words per point (0.92 MB)
_CHUNK_POINTS = 16384

VIOLATION_TOL = 1e-9
_NEARNESS_REL = 0.01
_NEARNESS_FLOOR = 0.01

# pattern search from the best sample: first and last step in radians along the sphere; the
# first is about the spacing of 10^4 uniform points on the 3-sphere (area 2 pi^2)
_POLISH_FIRST_STEP = 2.0**-3
_POLISH_LAST_STEP = 2.0**-20
_POLISH_MAX_ROUNDS = 200

# (x0, x) = e_i, the identity and the Pauli axes; -e_i would give bitwise the same rotation and trace
_CANONICAL = np.eye(4)


def _traces(xs: np.ndarray, mt: list) -> np.ndarray:
    """Tr(R(x) M) for the rows (x0, x1, x2, x3) of xs, given the entries of M^T in row-major order.

    Sums the nine ``_rotation_entries`` rows times those entries in order, by IEEE basic
    operations alone, so each point's trace depends on that point alone.
    """
    entries = _rotation_entries(*xs)
    total = next(entries)
    total *= mt[0]
    for entry, w in zip(entries, mt[1:]):
        entry *= w
        total += entry
    return total


def _tangents(x: np.ndarray) -> np.ndarray:
    """Rows x*i, x*j, x*k of the quaternion x = (a, b, c, d): orthonormal, and orthogonal to x."""
    a, b, c, d = x
    return np.array([[-b, a, d, -c], [-c, -d, a, b], [-d, c, -b, a]])


def _polish(e: AffineChannel, x: np.ndarray, delta: float, base_value: float) -> tuple[np.ndarray, float]:
    """Pattern search on the 3-sphere from (x, delta), by composition only.

    Each round evaluates the 6 points a step away from x along +-x*i,
    +-x*j and +-x*k, moves to the best one if it beats delta and halves
    the step otherwise, until the step falls below ``_POLISH_LAST_STEP``.
    The decrease is a quadratic form on the sphere, whose local maxima
    are all global, so a search that sampling left near a maximum of the
    wrong height still reaches the top.
    """
    step = _POLISH_FIRST_STEP
    for _ in range(_POLISH_MAX_ROUNDS):
        if step < _POLISH_LAST_STEP:
            break
        t = _tangents(x)
        cand = np.cos(step) * x + np.sin(step) * np.concatenate([t, -t])
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        d = [base_value - _mstd_after_rotation(c, e) for c in cand.tolist()]
        j = max(range(6), key=d.__getitem__)
        if d[j] > delta:
            x, delta = cand[j], d[j]
        else:
            step *= 0.5
    return x, delta


def brute_force_best(
    e: AffineChannel, n: int, rng: RngStream, workers: int = 1
) -> tuple[np.ndarray, float]:
    """Best (x, delta) over n random unit 4-vectors plus the 4 axis candidates, refined.

    ``sampling._draw_batches`` draws the samples in 65,536-point batches
    of 16,384-point chunks, so the result is independent of the worker
    count. The axes and samples are ranked by ``_traces``, the first
    maximum winning as in one argmax over all; only it is evaluated by
    composition. A pattern search (``_polish``) then climbs from it, so
    the result does not hang on a narrow peak.
    """
    mt = e.m.T.ravel().tolist()

    def best_of_chunk(g: np.ndarray, spent: np.ndarray) -> tuple[float, np.ndarray]:
        t = _traces(g, mt)
        j = int(np.argmax(t))
        return float(t[j]), g[:, j].copy()  # the workspace is rewritten by the next chunk

    bests = _draw_batches(rng, n, BRUTE_FORCE_MIN_SAMPLES, _BATCH, _CHUNK_POINTS, "sphere4", best_of_chunk, workers)
    traces = _traces(_CANONICAL.T, mt)
    k_best = int(np.argmax(traces))
    best_x = _CANONICAL[k_best].copy()
    best_trace = float(traces[k_best])
    for t, x in bests:
        if t > best_trace:
            best_trace = t
            best_x = x
    base_value = mstd_analytic(e).value
    return _polish(e, best_x, base_value - _mstd_after_rotation(best_x.tolist(), e), base_value)


def verify(
    e: AffineChannel,
    result: QuasiInverseResult,
    n: int,
    rng: RngStream,
    channel_id: str = "",
    workers: int = 1,
) -> VerificationReport:
    """Check a solver result against random search.

    Passes when no unitary the search finds beats the reported decrease
    by more than 1e-9 and the search gets within 1% (floored at an
    absolute scale of 0.01) of it.
    """
    _, best_delta = brute_force_best(e, n, rng, workers=workers)
    solver_delta = float(result.delta_mstd)
    max_violation = best_delta - solver_delta
    slack = _NEARNESS_REL * max(solver_delta, _NEARNESS_FLOOR)
    passed = max_violation <= VIOLATION_TOL and best_delta >= solver_delta - slack
    return VerificationReport(
        channel_id=channel_id,
        solver_delta=solver_delta,
        best_sampled_delta=float(best_delta),
        n_samples=n,
        max_violation=float(max_violation),
        passed=bool(passed),
    )
