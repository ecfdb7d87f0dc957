"""Small dense linear algebra and reproducible random sampling.

Eigenpairs come from LAPACK (``np.linalg.eigh``/``eigvalsh``) with a fixed
eigenvector sign convention and a stable descending order, so solver
outputs are reproducible to rounding across BLAS builds. The random number
generator is counter-based (splitmix64), so a given seed produces the same
sample sequence, bit for bit, on every platform and NumPy version.

One Box-Muller core (``_normals``) turns uniforms into normals for
``RngStream.normals`` and the three samplers; each sampler keeps its own
number of uniforms per point (ball 5, sphere 4, 3-sphere 4). One batch
helper (``map_batches``) cuts a sampled computation into fixed-size
batches on substreams of one base word and runs them serially or on a
thread pool, with the same results either way.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_STREAM_SALT = np.uint64(0xD1B54A32D192ED03)

# Eigenvector components below this magnitude are treated as zero when
# applying the sign convention.
SIGN_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """The eigensolver failed; carries the off-diagonal norm it left unreduced."""

    def __init__(self, residual: float):
        super().__init__(f"eigensolver did not converge, off-diagonal norm {residual:.3e}")
        self.residual = residual


def _mix64(z):
    """splitmix64 output function: avalanche a 64-bit counter word."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


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
        self.seed = int(seed) & _MASK64
        self._counter = 0

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, counter={self._counter})"

    def _words(self, n: int) -> np.ndarray:
        with np.errstate(over="ignore"):
            idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
            out = _mix64(np.uint64(self.seed) + idx * _GAMMA)
        self._counter += n
        return out

    def u64(self) -> int:
        """One raw 64-bit word."""
        return int(self._words(1)[0])

    def uniforms(self, n: int) -> np.ndarray:
        """n uniform doubles in [0, 1)."""
        return (self._words(n) >> np.uint64(11)) * 2.0**-53

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])

    def normals(self, n: int) -> np.ndarray:
        """n standard normals (Box-Muller; odd n drops the last sine)."""
        m = (n + 1) // 2
        return _normals(self.uniforms(2 * m).reshape(m, 2)).reshape(2 * m)[:n]

    def split(self, n: int) -> list["RngStream"]:
        """n independent substreams; advances this stream by one word."""
        base = self.u64()
        return [substream(base, k) for k in range(n)]


def substream(base: int, index: int) -> RngStream:
    """Stream ``index`` derived from a base word: seed = mix64(base + (index+1)*SALT)."""
    with np.errstate(over="ignore"):
        z = np.uint64(base) + np.uint64((index + 1) & _MASK64) * _STREAM_SALT
        return RngStream(int(_mix64(z)))


def _normals(u: np.ndarray) -> np.ndarray:
    """Box-Muller: uniforms (n, 2k) to standard normals (n, 2k), column pair by pair."""
    out = np.empty(u.shape)
    for j in range(0, u.shape[1], 2):
        r = np.sqrt(-2.0 * np.log1p(-u[:, j]))
        t = (2.0 * np.pi) * u[:, j + 1]
        out[:, j] = r * np.cos(t)
        out[:, j + 1] = r * np.sin(t)
    return out


def ball_samples(rng: RngStream, n: int) -> np.ndarray:
    """n points uniform in the unit ball, shape (n, 3).

    Each point consumes 5 uniforms: 4 for two Box-Muller pairs (the 4th
    normal is dropped) giving the direction, 1 for the radius u**(1/3).
    """
    u = rng.uniforms(5 * n).reshape(n, 5)
    d = _normals(u[:, :4])[:, :3]
    return d * (np.cbrt(u[:, 4]) / np.linalg.norm(d, axis=1))[:, None]


def sphere_samples(rng: RngStream, n: int) -> np.ndarray:
    """n points uniform on the unit 2-sphere, shape (n, 3); 4 uniforms each."""
    d = _normals(rng.uniforms(4 * n).reshape(n, 4))[:, :3]
    return d / np.linalg.norm(d, axis=1)[:, None]


def sphere4_samples(rng: RngStream, n: int) -> np.ndarray:
    """n points uniform on the unit 3-sphere in R^4, shape (n, 4)."""
    g = _normals(rng.uniforms(4 * n).reshape(n, 4))
    return g / np.linalg.norm(g, axis=1)[:, None]


def map_batches(rng: RngStream, n: int, batch: int, fn, workers: int = 1) -> list:
    """[fn(stream_k, size_k)] over n items cut into batches of ``batch`` (the last one shorter).

    Batch k draws from ``substream(base, k)``, where base is one word of
    ``rng``, so the results depend on (rng, n, batch) and not on the number
    of worker threads.
    """
    base = rng.u64()
    sizes = [batch] * (n // batch)
    if n % batch:
        sizes.append(n % batch)

    def run(k: int):
        return fn(substream(base, k), sizes[k])

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, range(len(sizes))))
    return [run(k) for k in range(len(sizes))]


def sample_ball(rng: RngStream) -> np.ndarray:
    """One point uniform in the unit ball."""
    return ball_samples(rng, 1)[0]


def sample_sphere4(rng: RngStream) -> np.ndarray:
    """One point uniform on the unit 3-sphere."""
    return sphere4_samples(rng, 1)[0]


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Flip each column so its first component with |v| > SIGN_TOL is positive."""
    first = (np.abs(vecs) > SIGN_TOL).argmax(axis=0)
    # a column with no such component has |lead| <= SIGN_TOL and stays as it is
    lead = vecs[first, np.arange(vecs.shape[1])]
    vecs[:, lead < -SIGN_TOL] *= -1.0
    return vecs


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
    order = np.argsort(-w, kind="stable")
    return w[order], _fix_signs(v[:, order])


def eig_sym4(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of a symmetric 4x4."""
    q = np.asarray(q, dtype=float)
    if q.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {q.shape}")
    if not np.isfinite(q).all():
        raise ValueError("matrix has non-finite entries")
    return eigh_desc(0.5 * (q + q.T))


def eig_herm4(h: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Eigenvalues (descending) of a Hermitian 4x4 matrix."""
    h = np.asarray(h, dtype=complex)
    if h.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {h.shape}")
    dev = float(np.abs(h - h.conj().T).max())
    if not (dev <= tol):
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return np.linalg.eigvalsh(0.5 * (h + h.conj().T))[::-1]
