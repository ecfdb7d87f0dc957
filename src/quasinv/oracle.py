"""Brute-force verification of the quasi-inverse solver.

Searches the unit 3-sphere of unitary parameters at random, refines the
best sample by a pattern search on the sphere, and evaluates the MSTD
decrease through the composition route only (affine conjugation,
compose, closed-form average). The Bloch rotation formula is the one
``channels.unitary_to_affine`` uses; nothing here touches the
quadratic-form construction or the eigensolver, so agreement is
meaningful evidence.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .channels import AffineChannel, _rotation_entries
from .inverter import QuasiInverseResult
from .metrics import mstd_analytic
from .numerics import MAX_BATCHES, RngStream, _rows, _workspace, map_batches

BRUTE_FORCE_MIN_SAMPLES = 10_000
_BATCH = 65536
BRUTE_FORCE_MAX_SAMPLES = MAX_BATCHES * _BATCH  # 2^32
# rows of a batch drawn and evaluated at a time, so a batch's (n, 3, 3)
# stacks stay under 1 MB
_CHUNK = 4096

VIOLATION_TOL = 1e-9
_NEARNESS_REL = 0.01
_NEARNESS_FLOOR = 0.01

# pattern search from the best sample: first and last step in radians along the sphere; the
# first is about the spacing of 10^4 uniform points on the 3-sphere (area 2 pi^2)
_POLISH_FIRST_STEP = 2.0**-3
_POLISH_LAST_STEP = 2.0**-20
_POLISH_MAX_ROUNDS = 200

# (x0, x) = e_i, the identity and the Pauli axes; -e_i would give bitwise the same rotation and delta
_CANONICAL = np.eye(4)


@dataclass
class VerificationReport:
    """Outcome of sampling for unitaries that beat a solver result."""

    channel_id: str
    solver_delta: float
    best_sampled_delta: float
    n_samples: int
    max_violation: float
    passed: bool


def _rotation_batch(xs: np.ndarray) -> np.ndarray:
    """Bloch rotation matrices of V = x0 I + i x.sigma for rows (x0, x)."""
    m = np.empty((xs.shape[0], 3, 3))
    flat = m.reshape(xs.shape[0], 9)
    for k, entry in enumerate(_rotation_entries(*xs.T)):
        flat[:, k] = entry
    return m


def _delta_batch(e: AffineChannel, xs: np.ndarray, base_value: float) -> np.ndarray:
    """MSTD decrease for each candidate row of xs, by direct composition."""
    mi = _rotation_batch(xs)
    n = mi @ e.m
    u = mi @ e.c
    composed = (
        (np.einsum("kij,kij->k", n, n) - 2.0 * np.einsum("kii->k", n) + 3.0) / 20.0
        + 0.25 * np.einsum("ki,ki->k", u, u)
    )
    return base_value - composed


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
        d = _delta_batch(e, cand, base_value)
        j = int(np.argmax(d))
        if d[j] > delta:
            x, delta = cand[j], float(d[j])
        else:
            step *= 0.5
    return x, delta


def brute_force_best(
    e: AffineChannel, n: int, rng: RngStream, workers: int = 1
) -> tuple[np.ndarray, float]:
    """Best (x, delta) over n random unit 4-vectors plus the 4 axis candidates, refined.

    Samples come from substreams derived from one draw of ``rng`` in fixed
    batches, so the result is independent of the worker count. Each batch
    is drawn and evaluated in chunks of ``_CHUNK`` points, held as the
    contiguous rows (x0, x1, x2, x3) of one workspace per batch; the first
    maximum wins, as in one argmax over all samples. A pattern search
    (``_polish``) then climbs from that best point, so the result does
    not hang on a sample landing in a narrow peak.
    """
    n = operator.index(n)
    if not BRUTE_FORCE_MIN_SAMPLES <= n <= BRUTE_FORCE_MAX_SAMPLES:
        raise ValueError(f"need {BRUTE_FORCE_MIN_SAMPLES}..{BRUTE_FORCE_MAX_SAMPLES} samples, got {n}")
    base_value = mstd_analytic(e).value

    deltas = _delta_batch(e, _CANONICAL, base_value)
    k_best = int(np.argmax(deltas))
    best_x = _CANONICAL[k_best].copy()
    best_delta = float(deltas[k_best])

    def run_batch(stream: RngStream, size: int) -> list[tuple[float, np.ndarray]]:
        # the stream yields the same words chunk by chunk as in one draw, and
        # each row's delta depends on that row alone
        bests = []
        ws = _workspace(_CHUNK, "sphere4")
        for start in range(0, size, _CHUNK):
            k = min(_CHUNK, size - start)
            g = _rows(stream, k, "sphere4", ws)
            d = _delta_batch(e, g.T, base_value)
            j = int(np.argmax(d))
            bests.append((float(d[j]), g[:, j].copy()))  # the buffer is rewritten by the next chunk
        return bests

    for bests in map_batches(rng, n, _BATCH, run_batch, workers):
        for d, x in bests:
            if d > best_delta:
                best_delta = d
                best_x = x
    return _polish(e, best_x, best_delta, base_value)


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
