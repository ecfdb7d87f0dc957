"""Small dense linear algebra and reproducible random sampling.

Eigenpairs come from LAPACK (``np.linalg.eigh``/``eigvalsh``) with a fixed
eigenvector sign convention and a stable descending order, so solver
outputs are reproducible to rounding across BLAS builds. The random number
generator is counter-based (splitmix64), so a given seed produces the same
sample sequence, bit for bit, on every platform and NumPy version.

One Box-Muller core (``_normals``) turns uniforms into normals for
``RngStream.normals`` and the three samplers, and computes only the
normals its caller returns. Uniforms per point: ball 5 (two Box-Muller
pairs for the direction, one uniform for the radius), sphere 4 and
3-sphere 4 (two pairs). The ball and the sphere keep three normals, so the
sine of their second pair is never computed. The RNG and the samplers work
in place on as few arrays as they can, with the same floating-point
operations on the same arguments as the plain formulas, so their outputs
are bit-identical to those formulas. One batch helper (``map_batches``)
cuts a sampled computation into fixed-size batches on substreams of one
base word and runs them serially or on a thread pool, with the same
results either way.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_STREAM_SALT = np.uint64(0xD1B54A32D192ED03)
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


def _splitmix(seed: int, start: int, n: int, gamma: np.uint64) -> np.ndarray:
    """Words j = start+1 .. start+n of ``mix64(seed + j*gamma)`` (mod 2**64), a new uint64 array.

    mix64 is the splitmix64 finalizer. Every step runs in place on one
    array with one scratch buffer.
    """
    z = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z *= gamma
        z += np.uint64(seed)
        t = z >> _SHIFT_1
        z ^= t
        z *= _MULT_1
        np.right_shift(z, _SHIFT_2, out=t)
        z ^= t
        z *= _MULT_2
        np.right_shift(z, _SHIFT_3, out=t)
        z ^= t
    return z


class RngStream:
    """Counter-based PRNG (splitmix64).

    Word ``j`` of a stream with seed ``s`` is ``mix64(s + (j+1)*GAMMA)``
    where GAMMA = 0x9E3779B97F4A7C15 and mix64 is the splitmix64
    finalizer; all arithmetic is mod 2**64. State is just (seed, counter),
    so sequences are bit-identical everywhere. Uniform doubles take the
    top 53 bits of a word: ``(w >> 11) * 2**-53``. Normals come from
    Box-Muller pairs; ``normals(n)`` consumes 2*ceil(n/2) uniforms.
    """

    def __init__(self, seed: int):
        self.seed = operator.index(seed) & _MASK64
        self._counter = 0

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, counter={self._counter})"

    def _words(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError(f"cannot draw a negative number of words, got {n}")
        out = _splitmix(self.seed, self._counter, n, _GAMMA)
        self._counter += n
        return out

    def u64(self) -> int:
        """One raw 64-bit word."""
        return int(self._words(1)[0])

    def uniforms(self, n: int) -> np.ndarray:
        """n uniform doubles in [0, 1)."""
        w = self._words(n)
        w >>= _UNIFORM_SHIFT
        u = w.astype(np.float64)  # exact: w < 2**53
        u *= 2.0**-53
        return u

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])

    def normals(self, n: int) -> np.ndarray:
        """n standard normals (Box-Muller; odd n drops the last sine)."""
        m = (n + 1) // 2
        return _normals(self.uniforms(2 * m).reshape(m, 2), 2).T.reshape(2 * m)[:n]

    def split(self, n: int) -> list["RngStream"]:
        """n independent substreams; advances this stream by one word."""
        base = self.u64()
        return [substream(base, k) for k in range(n)]


def substream(base: int, index: int) -> RngStream:
    """Stream ``index`` derived from a base word: seed = mix64(base + (index+1)*SALT)."""
    return RngStream(int(_splitmix(base, index, 1, _STREAM_SALT)[0]))


def _normals(u: np.ndarray, k: int) -> np.ndarray:
    """Box-Muller: uniforms (n, >= 2*ceil(k/2)) to k standard normals per row, shape (k, n).

    Columns 2j and 2j+1 of ``u`` form pair j: radius r = sqrt(-2 log(1 - u_2j)),
    angle t = 2 pi u_2j+1, normals 2j = r cos t and 2j+1 = r sin t. For odd k
    the sine of the last pair is not computed. Each normal is one contiguous
    row, so every transcendental call reads and writes contiguous memory.
    """
    g = np.empty((k, u.shape[0]))
    for j in range(0, k, 2):
        r = -u[:, j]
        np.log1p(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        t = u[:, j + 1] * (2.0 * np.pi)
        c = np.cos(t, out=g[j])
        c *= r
        if j + 1 < k:
            s = np.sin(t, out=g[j + 1])
            s *= r
    return g


def _norms(g: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of g (k, n), summed left to right like ``add.reduce``."""
    s = g[0] * g[0]
    t = np.empty_like(s)
    for row in g[1:]:
        np.multiply(row, row, out=t)
        s += t
    return np.sqrt(s, out=s)


def _points(op, g: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """New C-contiguous (n, k) array whose column i is ``op(g[i], scale)``."""
    out = np.empty((g.shape[1], g.shape[0]))
    for i, row in enumerate(g):
        op(row, scale, out=out[:, i])
    return out


def ball_samples(rng: RngStream, n: int) -> np.ndarray:
    """n points uniform in the unit ball, shape (n, 3).

    Each point consumes 5 uniforms: 4 for two Box-Muller pairs giving the
    direction (the 4th normal is dropped, so its sine is never computed),
    1 for the radius u**(1/3).
    """
    u = rng.uniforms(5 * n).reshape(n, 5)
    g = _normals(u, 3)
    s = np.cbrt(u[:, 4])
    s /= _norms(g)
    return _points(np.multiply, g, s)


def sphere_samples(rng: RngStream, n: int) -> np.ndarray:
    """n points uniform on the unit 2-sphere, shape (n, 3); 4 uniforms each, 4th sine skipped."""
    g = _normals(rng.uniforms(4 * n).reshape(n, 4), 3)
    return _points(np.divide, g, _norms(g))


def sphere4_samples(rng: RngStream, n: int) -> np.ndarray:
    """n points uniform on the unit 3-sphere in R^4, shape (n, 4)."""
    g = _normals(rng.uniforms(4 * n).reshape(n, 4), 4)
    return _points(np.divide, g, _norms(g))


def map_batches(rng: RngStream, n: int, batch: int, fn, workers: int = 1) -> list:
    """[fn(stream_k, size_k)] over n items cut into batches of ``batch`` (the last one shorter).

    Batch k draws from ``substream(base, k)``, where base is one word of
    ``rng``, so the results depend on (rng, n, batch) and not on the number
    of worker threads. There are at most ``MAX_BATCHES`` batches.
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
    carrying the off-diagonal norm of the input.
    """
    a = np.asarray(a, dtype=float)
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
