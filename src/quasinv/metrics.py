"""Trace distance and mean square trace distance (MSTD) of qubit channels.

The MSTD of a channel with affine form (M, c) is the squared trace
distance between input and output, averaged with the uniform probability
measure on the unit Bloch ball:

    D2_ball = (Tr(M M^T) - 2 Tr M + 3) / 20 + |c|^2 / 4.

Averaging over the ball surface (pure states only) replaces the second
moment 1/5 by 1/3 and the 1/20 by 1/12. Monte Carlo estimators sample the
same measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import AffineChannel, check_bloch, compose
from .numerics import RngStream, ball_samples, map_batches, sphere_samples

MC_MIN_SAMPLES = 1000
_MC_BATCH = 32768

METHOD_ANALYTIC_BALL = "analytic-ball"
METHOD_ANALYTIC_SURFACE = "analytic-surface"
METHOD_MC_BALL = "monte-carlo-ball"
METHOD_MC_SURFACE = "monte-carlo-surface"


@dataclass
class MstdReport:
    """An MSTD value with the method that produced it."""

    value: float
    method: str
    stderr: float | None = None
    n_samples: int | None = None


def trace_distance(r, z) -> float:
    """Trace distance of two qubit states via their Bloch vectors: |r - z| / 2."""
    r = check_bloch(r)
    z = check_bloch(z)
    return 0.5 * float(np.linalg.norm(r - z))


def mstd_analytic(e: AffineChannel) -> MstdReport:
    """Closed-form ball-averaged MSTD of a channel."""
    value = _ball_value(e.m, e.c)
    return MstdReport(value=value, method=METHOD_ANALYTIC_BALL)


def mstd_surface_analytic(e: AffineChannel) -> MstdReport:
    """Closed-form MSTD averaged over the ball surface (pure inputs)."""
    m, c = e.m, e.c
    value = (np.sum(m * m) - 2.0 * np.trace(m) + 3.0) / 12.0 + 0.25 * float(c @ c)
    return MstdReport(value=max(value, 0.0), method=METHOD_ANALYTIC_SURFACE)


def mstd_composed(ei: AffineChannel, e: AffineChannel) -> MstdReport:
    """Ball-averaged MSTD of the composition ei after e.

    Exactly mstd_analytic applied to the composed map (M^i M, M^i c + c^i).
    """
    return mstd_analytic(compose(ei, e))


def _ball_value(m: np.ndarray, c: np.ndarray) -> float:
    value = (np.sum(m * m) - 2.0 * np.trace(m) + 3.0) / 20.0 + 0.25 * float(c @ c)
    return max(float(value), 0.0)


def mstd_monte_carlo(
    e: AffineChannel,
    n: int,
    rng: RngStream,
    region: str = "ball",
    workers: int = 1,
) -> MstdReport:
    """Monte Carlo MSTD estimate from n samples of the chosen region.

    Samples are drawn in fixed-size batches from substreams derived from
    one draw of ``rng``, so the result depends only on (seed, n, region)
    and is identical for any worker count.
    """
    n = int(n)
    if n < MC_MIN_SAMPLES:
        raise ValueError(f"need at least {MC_MIN_SAMPLES} samples, got {n}")
    if region == "ball":
        sampler = ball_samples
        method = METHOD_MC_BALL
    elif region == "surface":
        sampler = sphere_samples
        method = METHOD_MC_SURFACE
    else:
        raise ValueError(f"region must be 'ball' or 'surface', got {region!r}")

    def run_batch(stream: RngStream, size: int) -> tuple[float, float]:
        pts = sampler(stream, size)
        diff = pts - (pts @ e.m.T + e.c)
        d2 = 0.25 * np.einsum("ij,ij->i", diff, diff)
        return float(d2.sum()), float((d2 * d2).sum())

    total = 0.0
    total_sq = 0.0
    for s1, s2 in map_batches(rng, n, _MC_BATCH, run_batch, workers):
        total += s1
        total_sq += s2
    mean = total / n
    var = max(total_sq - total * total / n, 0.0) / (n - 1)
    return MstdReport(
        value=mean,
        method=method,
        stderr=float(np.sqrt(var / n)),
        n_samples=n,
    )
