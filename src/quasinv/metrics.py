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

import operator
from dataclasses import dataclass

import numpy as np

from .channels import AffineChannel, _rotation_entries, check_bloch
from .numerics import MAX_BATCHES, RngStream, _pooled, _rows, map_batches

MC_MIN_SAMPLES = 1000
_MC_BATCH = 32768
MC_MAX_SAMPLES = MAX_BATCHES * _MC_BATCH  # 2^31

METHOD_ANALYTIC_BALL = "analytic-ball"
METHOD_ANALYTIC_SURFACE = "analytic-surface"
METHOD_MC_BALL = "monte-carlo-ball"
METHOD_MC_SURFACE = "monte-carlo-surface"
METHODS = (METHOD_ANALYTIC_BALL, METHOD_ANALYTIC_SURFACE, METHOD_MC_BALL, METHOD_MC_SURFACE)


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


def _region(region: str) -> tuple:
    """The closed form's denominator, the ``numerics._rows`` kind and the Monte Carlo method of a region."""
    if region == "ball":
        return 20.0, "ball", METHOD_MC_BALL
    if region == "surface":
        return 12.0, "sphere", METHOD_MC_SURFACE
    raise ValueError(f"region must be 'ball' or 'surface', got {region!r}")


def mstd_analytic(e: AffineChannel) -> MstdReport:
    """Closed-form ball-averaged MSTD of a channel."""
    return MstdReport(value=_closed_form(e.m, e.c, 20.0), method=METHOD_ANALYTIC_BALL)


def mstd_surface_analytic(e: AffineChannel) -> MstdReport:
    """Closed-form MSTD averaged over the ball surface (pure inputs)."""
    return MstdReport(value=_closed_form(e.m, e.c, 12.0), method=METHOD_ANALYTIC_SURFACE)


def mstd_composed(ei: AffineChannel, e: AffineChannel) -> MstdReport:
    """Ball-averaged MSTD of the composition ei after e.

    Evaluates mstd_analytic's closed form on the composed map
    (M^i M, M^i c + c^i) without constructing it: the result is bitwise the
    value of mstd_analytic(compose(ei, e)), and a composition that rounds
    just past the contraction bound of AffineChannel still gets its value.
    """
    value = _closed_form(ei.m @ e.m, ei.m @ e.c + ei.c, 20.0)
    return MstdReport(value=value, method=METHOD_ANALYTIC_BALL)


def _mstd_after_rotation(x: list, e: AffineChannel) -> float:
    """mstd_composed(unitary_to_affine(V), e).value bit for bit, V = x0 I + i x.sigma for floats x."""
    # the rotation's zero translation would only turn a -0.0 of R c, which is squared, into +0.0
    rot = np.array(list(_rotation_entries(*x))).reshape(3, 3)
    return _closed_form(rot @ e.m, rot @ e.c, 20.0)


def _closed_form(m: np.ndarray, c: np.ndarray, denominator: float) -> float:
    """(Tr(M M^T) - 2 Tr M + 3) / denominator + |c|^2 / 4, clipped at 0."""
    # Python floats in numpy's order for a C-ordered m (an AffineChannel's copy or a matmul product): np.sum
    # adds the squares sk = pk * pk as ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)) + s8; np.trace sums
    # ((0 + m00) + m11) + m22. |c|^2 stays a BLAS dot, whose order a Python sum does not reproduce.
    rows = m.tolist()
    p0, p1, p2, p3, p4, p5, p6, p7, p8 = rows[0] + rows[1] + rows[2]
    frobenius = ((p0 * p0 + p1 * p1) + (p2 * p2 + p3 * p3)) + ((p4 * p4 + p5 * p5) + (p6 * p6 + p7 * p7))
    frobenius += p8 * p8
    trace = 0.0 + rows[0][0] + rows[1][1] + rows[2][2]
    value = (frobenius - 2.0 * trace + 3.0) / denominator + 0.25 * float(c @ c)
    return max(value, 0.0)


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
    and is identical for any worker count. Each batch is drawn whole, its
    points the contiguous rows of P (3, k), into a workspace for the
    largest batch (a step row and 6 rows: 1.84 MB for a full one) that each
    worker thread keeps for all of its batches. P lands on rows 3 .. 5 and
    Y = P - (M P + c) on the spent rows 0 .. 2. The squared distances
    ``0.25 * ((y0*y0 + y2*y2) + y1*y1)``, in that order, build up in place
    on row y0 and their squares go to row y1; both sums run over the whole
    batch.
    """
    n = operator.index(n)
    if not MC_MIN_SAMPLES <= n <= MC_MAX_SAMPLES:
        raise ValueError(f"need {MC_MIN_SAMPLES}..{MC_MAX_SAMPLES} samples, got {n}")
    _, kind, method = _region(region)
    m, c = e.m, e.c[:, None]

    def run_batch(stream: RngStream, size: int, ws) -> tuple[float, float]:
        p = _rows(stream, size, kind, ws)
        y = np.matmul(m, p, out=ws[1][: 3 * size].reshape(3, size))
        y += c
        np.subtract(p, y, out=y)
        y *= y
        y0, y1, y2 = y
        y0 += y2  # the order einsum("ij,ij->i") took on (k, 3) rows, spelled out
        y0 += y1
        y0 *= 0.25
        return float(y0.sum()), float(np.multiply(y0, y0, out=y1).sum())

    total = 0.0
    total_sq = 0.0
    for s1, s2 in map_batches(rng, n, _MC_BATCH, _pooled(run_batch, min(n, _MC_BATCH), kind), workers):
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
