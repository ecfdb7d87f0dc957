"""Reproducible random sampling: a counter-based generator, three samplers and one batch driver.

The random number generator is counter-based (splitmix64): a given seed gives
the same words and the same uniforms, bit for bit, on every platform and NumPy
version. Sampled floats rest in addition on IEEE basic operations, ``sqrt``
and NumPy's ``tan`` and ``cbrt`` loops, which NumPy picks per CPU; normals
rest instead on its ``log1p`` loop and libm's ``cos`` and ``sin``. They are
bit-identical wherever those give the same bytes.

One sampler core (``_rows``) serves ``RngStream.normals`` and the three
samplers. It draws a chunk in column layout: the w words of n points are
w contiguous rows (w, n), one broadcast add of a step row and w column
words away from the mixer, and every later step runs in place on rows of
a workspace its caller owns: a step row and six rows of n doubles. Words
per point: sphere 2 (z = 2u - 1 by Archimedes' hat-box theorem and an
angle), ball 3 (the sphere and a radius cbrt(u'')), 3-sphere 3
(Shoemake's construction), normals 2 per pair (Box-Muller). No sampler
takes a logarithm or a norm, and each angle costs one ``tan``
(``_circle``). Every step is the same floating-point operation on the
same arguments as the plain formulas, so the outputs are bit-identical to
those formulas. One sampling driver (``_draw_batches``) cuts n points
into batches on substreams of one base word, draws them in chunks on a
workspace per thread and hands each chunk to the caller's function.

Only what samples imports this module: ``metrics.mstd_monte_carlo``,
``oracle`` and the ``mstd --monte-carlo``, ``random`` and ``verify``
commands. ``import quasinv.cli`` and ``analyze`` never load it.
"""

from __future__ import annotations

import operator

import numpy as np

from .numerics import MAX_BATCHES

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_STREAM_SALT = 0xD1B54A32D192ED03
_SHIFT_1, _SHIFT_2, _SHIFT_3 = np.uint64(30), np.uint64(27), np.uint64(31)
_MULT_1, _MULT_2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_UNIFORM_SHIFT = np.uint64(11)  # keeps the top 53 bits of a word

# Generator words per point of each kind of ``_rows``.
_WORDS = {"normals": 2, "sphere": 2, "ball": 3, "sphere4": 3}


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


def _splitmix(seed: int, start: int, n: int, gamma: int) -> np.ndarray:
    """Words j = start+1 .. start+n of ``mix64(seed + j*gamma)`` (mod 2**64), a new uint64 array."""
    z = np.arange(n, dtype=np.uint64)
    z *= np.uint64(gamma)
    z += np.uint64((seed + (start + 1) * gamma) & _MASK64)
    _mix(z, np.empty_like(z))
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
    so the words are bit-identical everywhere. Uniform doubles take the
    top 53 bits of a word: ``(w >> 11) * 2**-53``, exact everywhere too.
    Normals come from Box-Muller pairs; ``normals(n)`` consumes
    2*ceil(n/2) uniforms and rests on libm's ``cos``/``sin`` and NumPy's
    ``log1p``. The samplers take 2 (sphere) or 3 (ball, 3-sphere) words
    per point and rest on NumPy's ``tan`` and ``cbrt`` instead, see
    ``_rows``. Every count goes through ``operator.index``, and a negative
    one raises ValueError before any word is drawn.
    """

    def __init__(self, seed: int):
        self.seed = operator.index(seed) & _MASK64
        self._counter = 0

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, counter={self._counter})"

    def _words(self, n: int) -> np.ndarray:
        """The next n words; n is an int >= 0 the public method checked."""
        out = _splitmix(self.seed, self._counter, n, _GAMMA)
        self._counter += n
        return out

    def u64(self) -> int:
        """One raw 64-bit word."""
        return int(self._words(1)[0])

    def uniforms(self, n: int) -> np.ndarray:
        """n uniform doubles in [0, 1)."""
        z = self._words(_count(n, "uniforms"))
        z >>= _UNIFORM_SHIFT
        return np.multiply(z, 2.0**-53)  # exact: z < 2**53

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])

    def normals(self, n: int) -> np.ndarray:
        """n standard normals (Box-Muller; odd n drops the last sine)."""
        n = _count(n, "normals")
        m = (n + 1) // 2
        return _rows(self, m, "normals").T.reshape(2 * m)[:n]

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


def _workspace(n: int, kind: str) -> tuple[np.ndarray, np.ndarray, int]:
    """Buffers for ``_rows`` chunks of up to n points of a kind: the step row ``i * (w*GAMMA)``, 6*n doubles and w."""
    w = _WORDS[kind]
    step = np.arange(n, dtype=np.uint64)
    step *= np.uint64(w * _GAMMA & _MASK64)
    return step, np.empty(6 * n), w


def _uniform_rows(rng: RngStream, step: np.ndarray, b: np.ndarray, w: int) -> np.ndarray:
    """The next w*n uniforms (n = ``step.size``) as rows 3 .. 3+w of the block ``b`` (6, n).

    Uniform j of point i is stream word ``c + i*w + j`` (c the counter),
    unmixed ``step[i] + col[j]`` with ``col[j] = seed + (c + j + 1)*GAMMA``
    (mod 2**64). The words go into rows 0 .. w, spent on return.
    """
    n, c = step.size, rng._counter
    z = b[:w].view(np.uint64)
    u = b[3 : 3 + w]
    col = np.array([(rng.seed + (c + j + 1) * _GAMMA) & _MASK64 for j in range(w)], dtype=np.uint64)
    np.add(step, col[:, None], out=z)
    rng._counter = c + w * n
    _mix(z, u.view(np.uint64))
    z >>= _UNIFORM_SHIFT
    np.multiply(z, 2.0**-53, out=u)  # exact: z < 2**53
    return u


def _circle(u: np.ndarray, amp: np.ndarray, t: np.ndarray, sin_out: np.ndarray, cos_out: np.ndarray) -> None:
    """sin chi and cos chi into two rows, where amp * (sin chi, cos chi) is the input amp * (cos 2 pi u, sin 2 pi u).

    With a = 1/2 - u, chi = 2 pi (a - copysign(1/4, a)) and amp takes the
    sign of a: then (cos 2 pi u, sin 2 pi u) = sign(a) (sin chi, cos chi).
    By the half-angle (Weierstrass) substitution t = tan(chi/2) and
    w = 2 / (1 + t*t), sin chi = t*w and cos chi = w - 1: one call of
    NumPy's ``tan`` loop in place of libm's ``sin`` and ``cos``. The fold
    keeps chi/2 in [-pi/4, pi/4], so t lies in [-1, 1], away from the pole
    of tan, and w in [1, 2], where w - 1 is exact (Sterbenz); a and the
    difference are exact, so chi/2 rounds once. All in place: u is left
    holding a, w is built on cos_out, which may be u, and sin_out may be t
    or u; t and cos_out are distinct rows, and amp is distinct from all.
    """
    np.subtract(0.5, u, out=u)
    np.copysign(0.25, u, out=t)
    np.subtract(u, t, out=t)
    t *= np.pi
    np.tan(t, out=t)
    np.copysign(amp, u, out=amp)
    np.multiply(t, t, out=cos_out)
    cos_out += 1.0
    np.divide(2.0, cos_out, out=cos_out)
    np.multiply(t, cos_out, out=sin_out)
    cos_out -= 1.0


def _rows(rng: RngStream, n: int, kind: str, ws=None) -> np.ndarray:
    """Draw n points of a kind as contiguous rows (k, n) of the workspace ``ws``; returns that view.

    ``ws`` is ``_workspace(N, kind)`` for some N >= n, or new buffers.
    Point i takes the uniforms u, u', u'' of its words, in that order:

    - "normals" (2 words, k = 2): Box-Muller, r = sqrt(-2 log(1 - u)),
      t = 2 pi u', normals (r cos t, r sin t);
    - "sphere" (2 words, k = 3): z = 2u - 1, rho = sqrt((1 - z)(1 + z)),
      phi = 2 pi u', point (rho cos phi, rho sin phi, z);
    - "ball" (3 words, k = 3): the sphere point scaled by cbrt(u'');
    - "sphere4" (3 words, k = 4): (sqrt(1-u) sin 2 pi u', sqrt(1-u) cos 2 pi u',
      sqrt(u) sin 2 pi u'', sqrt(u) cos 2 pi u'').

    The samplers' angles go through ``_circle``: one ``tan`` of the half
    angle each, no ``sin`` or ``cos``. Each step is one call over
    rows of the block (6, n) at the start of the buffer: the words take
    rows 0 .. w and the uniforms rows 3 .. 3+w, and the points land on
    rows 3 .. 5 (3 .. 4 for normals, 2 .. 5 for sphere4), so the rows
    before them are spent and free to the caller once the points are drawn.
    """
    step, buf, w = ws or _workspace(n, kind)
    b = buf[: 6 * n].reshape(6, n)
    u = _uniform_rows(rng, step[:n], b, w)
    if kind == "normals":
        r, t = b[0], u[1]
        np.negative(u[0], out=r)
        np.log1p(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        t *= 2.0 * np.pi
        np.cos(t, out=u[0])
        np.sin(t, out=t)
        u *= r
        return u
    if kind == "sphere4":
        np.subtract(1.0, u[0], out=b[0])
        np.sqrt(b[0], out=b[0])
        np.sqrt(u[0], out=b[1])
        # rows 2 .. 5 get (cos chi, sin chi) of u' and of u'': times amp, (sin, cos) of 2 pi u' and 2 pi u'';
        # the first pair is scaled before the second angle, which takes the freed amplitude row as its t
        _circle(u[1], b[0], b[3], b[3], b[2])
        b[2:4] *= b[0]
        _circle(u[2], b[1], b[0], b[5], b[4])
        b[4:] *= b[1]
        return b[2:]
    rho, tmp, r, z = b[0], b[1], b[2], b[5]
    if kind == "ball":
        np.cbrt(u[2], out=r)  # before z overwrites u''
    np.multiply(u[0], 2.0, out=z)
    z -= 1.0
    np.subtract(1.0, z, out=rho)
    np.add(z, 1.0, out=tmp)
    rho *= tmp
    np.sqrt(rho, out=rho)
    _circle(u[1], rho, b[3], b[3], b[4])
    b[3:5] *= rho
    if kind == "ball":
        b[3:] *= r
    return b[3:]


def ball_samples(rng: RngStream, n: int) -> np.ndarray:
    """n points uniform in the unit ball, shape (n, 3); 3 words each (see ``_rows``)."""
    n = _count(n, "points")
    return _rows(rng, n, "ball").T.copy()


def sphere_samples(rng: RngStream, n: int) -> np.ndarray:
    """n points uniform on the unit 2-sphere, shape (n, 3); 2 words each, z = 2u - 1 by Archimedes' theorem."""
    n = _count(n, "points")
    return _rows(rng, n, "sphere").T.copy()


def sphere4_samples(rng: RngStream, n: int) -> np.ndarray:
    """n points uniform on the unit 3-sphere in R^4, shape (n, 4); 3 words each (Shoemake's construction)."""
    n = _count(n, "points")
    return _rows(rng, n, "sphere4").T.copy()


def _draw_batches(rng: RngStream, n: int, low: int, batch: int, chunk: int, kind: str, fn, workers: int) -> list:
    """[fn(points, spent)] for every chunk of n points of a kind ("ball", "sphere" or "sphere4"), in draw order.

    Batch k, points k*batch .. (k+1)*batch (the last batch shorter), draws
    from ``substream(base, k)``, base one word of ``rng``, ``chunk`` points
    at a time, so the results do not depend on the number of worker
    threads. ``points`` is ``_rows``' view (dim, size) of a chunk, the last
    rows of its block; ``spent`` holds the block's rows before them (3 for
    ball and sphere, 2 for sphere4), free to ``fn``. The next chunk
    rewrites both. A finished batch hands its ``_workspace(min(n, chunk),
    kind)`` on to the next, so each worker thread makes one and keeps it;
    list.pop and list.append are atomic. ``n`` outside ``low ..
    MAX_BATCHES * batch`` and ``workers`` not an integer >= 1 (a bool is
    refused) are refused before the base word is drawn. The pool has no
    more threads than batches, and one thread runs them without a pool.
    """
    n = operator.index(n)
    high = MAX_BATCHES * batch
    if not low <= n <= high:
        raise ValueError(f"need {low}..{high} samples, got {n}")
    if isinstance(workers, bool) or not hasattr(type(workers), "__index__"):
        raise TypeError(f"workers must be an integer, got {workers!r}")
    workers = operator.index(workers)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    base = rng.u64()
    firsts = range(0, n, batch)
    spare = []

    def run(first: int) -> list:
        try:
            ws = spare.pop()
        except IndexError:
            ws = _workspace(min(n, chunk), kind)
        end = min(first + batch, n)
        stream, results = substream(base, first // batch), []
        # the stream yields the same words chunk by chunk as in one draw
        for start in range(first, end, chunk):
            size = min(chunk, end - start)
            points = _rows(stream, size, kind, ws)
            results.append(fn(points, ws[1][: 6 * size].reshape(6, size)[: 6 - len(points)]))
        spare.append(ws)
        return results

    threads = min(workers, len(firsts))
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # not loaded on a one-thread path

        with ThreadPoolExecutor(max_workers=threads) as pool:
            batches = list(pool.map(run, firsts))
    else:
        batches = map(run, firsts)
    return [result for results in batches for result in results]


def sample_ball(rng: RngStream) -> np.ndarray:
    """One point uniform in the unit ball."""
    return ball_samples(rng, 1)[0]


def sample_sphere4(rng: RngStream) -> np.ndarray:
    """One point uniform on the unit 3-sphere."""
    return sphere4_samples(rng, 1)[0]
