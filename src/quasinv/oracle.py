"""Brute-force verification of the quasi-inverse solver.

Searches the unit 3-sphere of unitary parameters at random and evaluates
the MSTD decrease through the composition route only (affine conjugation,
compose, closed-form average). The Bloch rotation formula is the one
``channels.unitary_to_affine`` uses; nothing here touches the
quadratic-form construction or the eigensolver, so agreement is
meaningful evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import AffineChannel, _rotation_entries
from .inverter import QuasiInverseResult
from .metrics import mstd_analytic
from .numerics import MAX_BATCHES, RngStream, map_batches, sphere4_samples

BRUTE_FORCE_MIN_SAMPLES = 10_000
_BATCH = 65536
BRUTE_FORCE_MAX_SAMPLES = MAX_BATCHES * _BATCH  # 2^32
# rows of a batch drawn and evaluated at a time, so a batch's (n, 3, 3)
# stacks stay under 1 MB
_CHUNK = 4096

VIOLATION_TOL = 1e-9
_NEARNESS_REL = 0.01
_NEARNESS_FLOOR = 0.01

# (x0, x) = +-e_i; the +-e0 pair is the identity, the others the Pauli axes.
_CANONICAL = np.concatenate([np.eye(4), -np.eye(4)])


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


def brute_force_best(
    e: AffineChannel, n: int, rng: RngStream, workers: int = 1
) -> tuple[np.ndarray, float]:
    """Best (x, delta) over n random unit 4-vectors plus the 8 axis candidates.

    Samples come from substreams derived from one draw of ``rng`` in fixed
    batches, so the result is independent of the worker count. Each batch
    is drawn and evaluated in chunks of ``_CHUNK`` rows; the first maximum
    wins, as in one argmax over all samples.
    """
    n = int(n)
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
        for start in range(0, size, _CHUNK):
            xs = sphere4_samples(stream, min(_CHUNK, size - start))
            d = _delta_batch(e, xs, base_value)
            j = int(np.argmax(d))
            bests.append((float(d[j]), xs[j].copy()))  # a view would keep the chunk alive
        return bests

    for bests in map_batches(rng, n, _BATCH, run_batch, workers):
        for d, x in bests:
            if d > best_delta:
                best_delta = d
                best_x = x
    return best_x, best_delta


def verify(
    e: AffineChannel,
    result: QuasiInverseResult,
    n: int,
    rng: RngStream,
    channel_id: str = "",
    workers: int = 1,
) -> VerificationReport:
    """Check a solver result against random search.

    Passes when no sampled unitary beats the reported decrease by more
    than 1e-9 and the search gets within 1% (floored at an absolute scale
    of 0.01) of it.
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
        n_samples=int(n),
        max_violation=float(max_violation),
        passed=bool(passed),
    )
