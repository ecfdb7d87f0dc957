"""Small dense linear algebra and reproducible random sampling.

Eigenpairs come from LAPACK (``np.linalg.eigh``/``eigvalsh``) with a fixed
eigenvector sign convention and a stable descending order, so solver
outputs are reproducible to rounding across BLAS builds. The random number
generator is counter-based (splitmix64), so a given seed produces the same
sample sequence, bit for bit, on every platform and NumPy version.

One sampler core (``_rows``) serves ``RngStream.normals`` and the three
samplers. It draws a chunk in column layout: the w words of n points are
w contiguous rows (w, n), one broadcast add of a step row and w column
words away from the mixer, and the mixer, the uniforms, Box-Muller, the
norms and the radius run in place on rows of a workspace its caller owns.
Uniforms per point: ball 5 (two Box-Muller pairs for the direction, one
for the radius), sphere 4 and 3-sphere 4 (two pairs). The ball and the
sphere keep three normals, so the sine of their second pair is never
computed. Every step is the same floating-point operation on the same
arguments as the plain formulas, so the outputs are bit-identical to
those formulas. One batch helper (``map_batches``) cuts a sampled
computation into fixed-size batches on substreams of one base word and
runs them serially or on a thread pool, with the same results either way.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_STREAM_SALT = 0xD1B54A32D192ED03
_SHIFT_1, _SHIFT_2, _SHIFT_3 = np.uint64(30), np.uint64(27), np.uint64(31)
_MULT_1, _MULT_2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_UNIFORM_SHIFT = np.uint64(11)  # keeps the top 53 bits of a word

# Eigenvector components below this magnitude are treated as zero when
# applying the sign convention.
SIGN_TOL = 1e-12
# Largest |h - h^dag| entry eig_herm4 accepts as Hermitian.
HERMITIAN_TOL = 1e-12
# Most batches map_batches cuts one computation into.
MAX_BATCHES = 1 << 16


class ConvergenceError(RuntimeError):
    """LAPACK's eigensolver failed; carries the off-diagonal norm of the input matrix."""

    def __init__(self, residual: float):
        super().__init__(f"eigensolver did not converge, off-diagonal norm {residual:.3e}")
        self.residual = residual


def _mix(z: np.ndarray, t: np.ndarray) -> None:
    """mix64, the splitmix64 finalizer, on the uint64 array ``z`` in place, with ``t`` as the one temporary."""
    np.right_shift(z, _SHIFT_1, out=t)
    z ^= t
    z *= _MULT_1
    np.right_shift(z, _SHIFT_2, out=t)
    z ^= t
    z *= _MULT_2
    np.right_shift(z, _SHIFT_3, out=t)
    z ^= t


def _splitmix(seed: int, start: int, n: int, gamma: int, scratch=None) -> np.ndarray:
    """Words j = start+1 .. start+n of ``mix64(seed + j*gamma)`` (mod 2**64), a new uint64 array.

    ``scratch`` (n uint64 words, or a new array) is the mixer's temporary.
    """
    z = np.arange(n, dtype=np.uint64)
    z *= np.uint64(gamma)
    z += np.uint64((seed + (start + 1) * gamma) & _MASK64)
    _mix(z, np.empty_like(z) if scratch is None else scratch)
    return z


def _count(n, what: str) -> int:
    """A count the caller passed, as an int (``operator.index``); a negative one is refused."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"cannot draw a negative number of {what}, got {n}")
    return n


class RngStream:
    """Counter-based PRNG (splitmix64).

    Word ``j`` of a stream with seed ``s`` is ``mix64(s + (j+1)*GAMMA)``
    where GAMMA = 0x9E3779B97F4A7C15 and mix64 is the splitmix64
    finalizer; all arithmetic is mod 2**64. State is just (seed, counter),
    so sequences are bit-identical everywhere. Uniform doubles take the
    top 53 bits of a word: ``(w >> 11) * 2**-53``. Normals come from
    Box-Muller pairs; ``normals(n)`` consumes 2*ceil(n/2) uniforms. Every
    count goes through ``operator.index``, and a negative one raises
    ValueError before any word is drawn.
    """

    def __init__(self, seed: int):
        self.seed = operator.index(seed) & _MASK64
        self._counter = 0

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, counter={self._counter})"

    def _words(self, n: int, scratch=None) -> np.ndarray:
        """The next n words; n is an int >= 0 the public method checked. ``scratch`` as in ``_splitmix``."""
        out = _splitmix(self.seed, self._counter, n, _GAMMA, scratch)
        self._counter += n
        return out

    def u64(self) -> int:
        """One raw 64-bit word."""
        return int(self._words(1)[0])

    def uniforms(self, n: int) -> np.ndarray:
        """n uniform doubles in [0, 1)."""
        u = np.empty(_count(n, "uniforms"))
        z = self._words(u.size, u.view(np.uint64))  # u is the mixer's scratch
        z >>= _UNIFORM_SHIFT
        np.multiply(z, 2.0**-53, out=u)  # exact: z < 2**53
        return u

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])

    def normals(self, n: int) -> np.ndarray:
        """n standard normals (Box-Muller; odd n drops the last sine)."""
        n = _count(n, "normals")
        m = (n + 1) // 2
        return _rows(self, m, 2, "normals").T.reshape(2 * m)[:n]

    def split(self, n: int) -> list["RngStream"]:
        """n independent substreams; advances this stream by one word."""
        n = _count(n, "substreams")
        base = self.u64()
        return [substream(base, k) for k in range(n)]


def substream(base: int, index: int) -> RngStream:
    """Stream ``index`` (0..2**64-2) of a base word (mod 2**64): seed = mix64(base + (index+1)*SALT)."""
    index = operator.index(index)
    if not 0 <= index < _MASK64:
        raise ValueError(f"substream index must be in 0..2**64-2, got {index}")
    return RngStream(int(_splitmix(operator.index(base) & _MASK64, index, 1, _STREAM_SALT)[0]))


def _workspace(n: int, k: int, kind: str) -> tuple[np.ndarray, np.ndarray, int]:
    """Buffers for ``_rows`` chunks of up to n points: the step row ``i * (w*GAMMA)``, 2*w*n doubles and w."""
    w = (k + 1) // 2 * 2 + (kind == "ball")  # words per point: a Box-Muller pair per two normals, a radius
    step = np.arange(n, dtype=np.uint64)
    step *= np.uint64(w * _GAMMA & _MASK64)
    return step, np.empty(2 * w * n), w


def _uniform_rows(rng: RngStream, step: np.ndarray, buf: np.ndarray, w: int) -> np.ndarray:
    """The next w*n uniforms (n = ``step.size``) as the contiguous rows (w, n) of ``buf[w*n : 2*w*n]``.

    Uniform j of point i is stream word ``c + i*w + j`` (c the counter),
    unmixed ``step[i] + col[j]`` with ``col[j] = seed + (c + j + 1)*GAMMA``
    (mod 2**64). The words go into ``buf[:w*n]``, spent on return.
    """
    n, c = step.size, rng._counter
    z = buf[: w * n].view(np.uint64).reshape(w, n)
    u = buf[w * n : 2 * w * n].reshape(w, n)
    col = np.array([(rng.seed + (c + j + 1) * _GAMMA) & _MASK64 for j in range(w)], dtype=np.uint64)
    np.add(step, col[:, None], out=z)
    rng._counter = c + w * n
    _mix(z, u.view(np.uint64))
    z >>= _UNIFORM_SHIFT
    np.multiply(z, 2.0**-53, out=u)  # exact: z < 2**53
    return u


def _rows(rng: RngStream, n: int, k: int, kind: str, ws=None) -> np.ndarray:
    """Draw n points as contiguous rows (k, n) of the workspace ``ws``; returns that view.

    ``kind`` is "normals" (k standard normals per point), "sphere" (the
    normals divided by their norm) or "ball" (scaled further by the radius
    ``u**(1/3)`` of one more uniform). ``ws`` is ``_workspace(N, k, kind)``
    for some N >= n, or new buffers. Pair j, uniform rows 2j and 2j+1,
    gives r = sqrt(-2 log(1 - u_2j)), t = 2 pi u_2j+1 and normals
    2j = r cos t, 2j+1 = r sin t, each step in one call over rows ``0::2``
    and ``1::2``; for odd k the sine of the last pair is not computed. The
    normals are written over spent uniform rows, r and the norms over the
    spent words ``buf[:w*n]``, which the caller may reuse in turn.
    """
    step, buf, w = ws or _workspace(n, k, kind)
    h = (k + 1) // 2 * 2
    u = _uniform_rows(rng, step[:n], buf, w)
    r = buf[: h // 2 * n].reshape(h // 2, n)
    np.negative(u[0:h:2], out=r)
    np.log1p(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    t = u[1:h:2]
    t *= 2.0 * np.pi
    np.cos(t, out=u[0:h:2])
    np.sin(t[: k // 2], out=t[: k // 2])
    pairs = u[:h].reshape(h // 2, 2, n)
    np.multiply(pairs, r[:, None], out=pairs)
    out = u[:k]
    if kind == "normals":
        return out
    # Euclidean norms, summed left to right like add.reduce
    sq = buf[: k * n].reshape(k, n)
    np.multiply(out, out, out=sq)
    norm = sq[0]
    for row in sq[1:]:
        norm += row
    np.sqrt(norm, out=norm)
    if kind == "ball":
        radius = np.cbrt(u[-1], out=u[-1])
        radius /= norm
        out *= radius
    else:
        out /= norm
    return out


def ball_samples(rng: RngStream, n: int) -> np.ndarray:
    """n points uniform in the unit ball, shape (n, 3).

    Each point consumes 5 uniforms: 4 for two Box-Muller pairs giving the
    direction (the 4th normal is dropped, so its sine is never computed),
    1 for the radius u**(1/3).
    """
    n = _count(n, "points")
    return _rows(rng, n, 3, "ball").T.copy()


def sphere_samples(rng: RngStream, n: int) -> np.ndarray:
    """n points uniform on the unit 2-sphere, shape (n, 3); 4 uniforms each, 4th sine skipped."""
    n = _count(n, "points")
    return _rows(rng, n, 3, "sphere").T.copy()


def sphere4_samples(rng: RngStream, n: int) -> np.ndarray:
    """n points uniform on the unit 3-sphere in R^4, shape (n, 4)."""
    n = _count(n, "points")
    return _rows(rng, n, 4, "sphere").T.copy()


def map_batches(rng: RngStream, n: int, batch: int, fn, workers: int = 1) -> list:
    """[fn(stream_k, size_k)] over n items cut into batches of ``batch`` (the last one shorter).

    Batch k draws from ``substream(base, k)``, where base is one word of
    ``rng``, so the results depend on (rng, n, batch) and not on the number
    of worker threads. There are at most ``MAX_BATCHES`` batches.
    ``n`` is an integer >= 0, ``batch`` one >= 1, and
    ``workers`` is an integer >= 1 (a bool is refused);
    the pool has no more threads than there are batches, and with one
    thread the batches run serially without a pool. Results come back in
    batch order either way.
    """
    if isinstance(workers, bool) or not hasattr(type(workers), "__index__"):
        raise TypeError(f"workers must be an integer, got {workers!r}")
    workers = operator.index(workers)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    n, batch = operator.index(n), operator.index(batch)
    if n < 0 or batch < 1:
        raise ValueError(f"need n >= 0 items in batches of batch >= 1, got n={n}, batch={batch}")
    if n > MAX_BATCHES * batch:
        raise ValueError(f"{n} items need more than {MAX_BATCHES} batches of {batch}")
    base = rng.u64()
    sizes = [batch] * (n // batch)
    if n % batch:
        sizes.append(n % batch)

    def run(k: int):
        return fn(substream(base, k), sizes[k])

    threads = min(workers, len(sizes))
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # not loaded on a one-thread path

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, range(len(sizes))))
    return [run(k) for k in range(len(sizes))]


def sample_ball(rng: RngStream) -> np.ndarray:
    """One point uniform in the unit ball."""
    return ball_samples(rng, 1)[0]


def sample_sphere4(rng: RngStream) -> np.ndarray:
    """One point uniform on the unit 3-sphere."""
    return sphere4_samples(rng, 1)[0]


def _signed(column: list) -> list:
    """The column, negated if its first component with |v| > SIGN_TOL is negative."""
    for value in column:
        if abs(value) > SIGN_TOL:
            return [-v for v in column] if value < 0.0 else column
    return column


def eigh_desc(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a real symmetric matrix by LAPACK (``np.linalg.eigh``).

    Returns (eigenvalues descending, eigenvector columns) under the sign
    convention. The descending sort is stable, so equal eigenvalues keep
    LAPACK's column order. A LAPACK failure raises ConvergenceError
    carrying the off-diagonal norm of the input. A complex matrix is
    refused with a TypeError rather than losing its imaginary part.
    """
    a = np.asarray(a)
    if a.dtype.kind == "c":
        raise TypeError(f"matrix must be real, got dtype {a.dtype}")
    a = a.astype(float, copy=False)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(float(np.linalg.norm(a - np.diag(np.diag(a))))) from exc
    # sorted() keeps equal eigenvalues in LAPACK's order under reverse=True too
    values, columns = w.tolist(), v.T.tolist()
    order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
    return np.array([values[i] for i in order]), np.array([_signed(columns[i]) for i in order]).T


def _real_array(value, shape: tuple, name: str) -> np.ndarray:
    """A read-only C-ordered float64 copy; TypeError for complex, bool or text, ValueError for another shape."""
    a = np.array(value, order="C")
    if a.dtype.kind in "cbUS":
        raise TypeError(f"{name} must be real, got dtype {a.dtype}")
    if a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    a = a.astype(np.float64, copy=False)
    a.flags.writeable = False
    return a


def eig_sym4(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of a symmetric 4x4."""
    q = _real_array(q, (4, 4), "q")
    if not np.isfinite(q).all():
        raise ValueError("matrix has non-finite entries")
    return eigh_desc(0.5 * (q + q.T))


def eig_herm4(h: np.ndarray) -> np.ndarray:
    """Eigenvalues (descending) of a Hermitian 4x4 matrix."""
    h = np.asarray(h, dtype=complex)
    if h.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {h.shape}")
    dev = float(np.abs(h - h.conj().T).max())
    if not (dev <= HERMITIAN_TOL):
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return np.linalg.eigvalsh(0.5 * (h + h.conj().T))[::-1]
