"""Deterministic counter-based substream sampling for Monte-Carlo runs.

The old ``repro.pdk.variation._lcg_gauss`` drew every sample from one
sequential LCG stream, so the factor assigned to cell ``k`` in trial
``t`` depended on *how many draws happened before it* -- changing the
trial count, the instance order, or the shard boundary silently
re-diced every unit.  This module replaces it with a **stream-split
counter scheme**: every sample is a pure hash of its coordinates, so
any sub-range of units can be generated independently and identically.

Stream-split scheme
-------------------

A sample is addressed by ``(seed, domain, stream, index)``:

* ``seed`` -- the campaign seed (any Python int; masked to 64 bits);
* ``domain`` -- a short string namespace (``"timing"``,
  ``"defects"``) hashed with FNV-1a so different uses of the same
  seed never collide;
* ``stream`` -- the per-cell substream id (instance position in
  ``netlist.instances``);
* ``index`` -- the draw counter within the stream (the global printed
  *unit* index -- never a shard-relative one).

Key derivation is SplitMix64: the per-stream key is
``mix64(mix64(seed ^ fnv(domain)) + (stream + 1) * GOLDEN)`` and the
word for draw ``n`` is ``mix64(key + n * GOLDEN)``, where ``mix64`` is
the SplitMix64 finalizer and ``GOLDEN`` is its odd increment
(0x9E3779B97F4A7C15).  Uniforms take the top 53 bits
(``((word >> 11) + 0.5) * 2**-53``, never 0 or 1); normals are
Box-Muller over two consecutive draws (``n = 2*index`` and
``2*index + 1``).

Scalar == vectorized, bit-exact
-------------------------------

Both paths compute the *same* IEEE-754 operations on the same 64-bit
words: the vectorized path uses ``uint64`` array arithmetic (wrapping
multiply/add) and numpy ufuncs; the scalar reference path computes the
words with Python integers masked to 64 bits and then applies the same
``np.log``/``np.cos``/``np.sqrt`` ufuncs to ``np.float64`` scalars.
Numpy ufuncs are value-deterministic across array shapes (and
``math.log`` is *not* guaranteed to match ``np.log``, which is why the
scalar path routes through numpy), so ``normal(s, i)`` equals
``normals(lo, hi)[s, i - lo]`` exactly -- asserted by
``tests/mc/test_sampling.py``.

Blocked, in-place kernel
------------------------

``normals``, ``uniforms`` and ``bits`` fill their ``(streams, n)``
result in row blocks of about :data:`_BLOCK` elements (one row when a
row alone is longer).  Each block runs every step -- ``key + counter *
GOLDEN``, the SplitMix64 rounds, the uniform conversion and, for
normals, Box-Muller -- as ``out=`` ufuncs over two reusable ``uint64``
scratch blocks and the block's own rows of the result (normals build
the Box-Muller angle in the second scratch block, viewed as
``float64``).  So the working set stays cache-sized and no pass
allocates a matrix-sized temporary, while every element still gets the
same IEEE-754 operations in the same order as the scalar path.
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import counter as _obs_counter

_MASK64 = (1 << 64) - 1

#: SplitMix64 odd increment (golden-ratio constant).
_GOLDEN = 0x9E3779B97F4A7C15

#: FNV-1a 64-bit offset basis / prime, for hashing domain strings.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

_TWO_PI = 6.283185307179586
_U53 = 2.0**-53

#: Elements per row block of the in-place kernel.  For 2048-unit draws
#: over 364 and 1220 streams on a 2-vCPU Xeon, 2**15 was fastest and
#: 2**14 or 2**16 within 6%; 2**13 (per-call dispatch) and 2**17 (out
#: of cache) were up to 25% slower.
_BLOCK = 1 << 15

_SHIFT11 = np.uint64(11)
_SHIFT27 = np.uint64(27)
_SHIFT30 = np.uint64(30)
_SHIFT31 = np.uint64(31)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_ONE = np.uint64(1)

_KEY_CACHE_HITS = _obs_counter("mc.sampler.cache_hits")
_KEY_CACHE_MISSES = _obs_counter("mc.sampler.cache_misses")

#: Per-process memo of derived stream-key vectors.  Key derivation is
#: two mix rounds per stream -- cheap, but the timing engine asks for
#: the same (seed, domain, streams) triple once per instance block, so
#: campaigns over 10^5-10^6 units hit this dict thousands of times.
_KEY_CACHE: dict[tuple[int, str, int], np.ndarray] = {}


def _fnv1a(text: str) -> int:
    value = _FNV_OFFSET
    for byte in text.encode():
        value = ((value ^ byte) * _FNV_PRIME) & _MASK64
    return value


def _mix64(x: int) -> int:
    """SplitMix64 finalizer over Python ints (exact 64-bit wrap)."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _mix64_into(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array, in place.

    ``tmp`` is same-shape uint64 scratch; wrapping arithmetic, so the
    words equal :func:`_mix64` element for element.
    """
    np.right_shift(x, _SHIFT30, out=tmp)
    x ^= tmp
    x *= _MUL1
    np.right_shift(x, _SHIFT27, out=tmp)
    x ^= tmp
    x *= _MUL2
    np.right_shift(x, _SHIFT31, out=tmp)
    x ^= tmp
    return x


def _uniform_into(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``((words >> 11) + 0.5) * 2**-53`` into float64 ``out``.

    Clobbers ``words``.  The top 53 bits convert to float64 exactly, so
    the add and the scaling are the scalar path's operations.
    """
    words >>= _SHIFT11
    np.add(words, 0.5, out=out)
    out *= _U53
    return out


def _counter_steps(lo: int, hi: int, stride: int) -> np.ndarray:
    """``(stride * index) * GOLDEN`` for indices ``[lo, hi)``, wrapping."""
    steps = np.arange(lo, hi, dtype=np.uint64)
    steps *= np.uint64(stride)
    steps *= np.uint64(_GOLDEN)
    return steps


def _base_key(seed: int, domain: str) -> int:
    return _mix64((seed & _MASK64) ^ _fnv1a(domain))


def stream_keys(seed: int, streams: int, domain: str) -> np.ndarray:
    """Per-stream SplitMix64 keys, memoized per (seed, domain, count).

    The returned array is shared -- treat it as read-only.
    """
    cache_key = (seed & _MASK64, domain, streams)
    keys = _KEY_CACHE.get(cache_key)
    if keys is not None:
        _KEY_CACHE_HITS.inc()
        return keys
    _KEY_CACHE_MISSES.inc()
    keys = _counter_steps(1, streams + 1, 1)
    keys += np.uint64(_base_key(seed, domain))
    _mix64_into(keys, np.empty_like(keys))
    keys.setflags(write=False)
    _KEY_CACHE[cache_key] = keys
    return keys


def clear_key_cache() -> None:
    """Drop memoized stream keys (tests; bounded memory hygiene)."""
    _KEY_CACHE.clear()


class SubstreamSampler:
    """Per-stream counter-based sampler for one (seed, domain) pair.

    Args:
        seed: Campaign seed (any int).
        streams: Number of independent substreams (e.g. cell count).
        domain: Namespace string separating different uses of the same
            seed (timing factors vs defect draws).

    ``normals(lo, hi)`` returns the ``(streams, hi - lo)`` matrix of
    standard-normal draws for unit indices ``[lo, hi)``; ``normal(s,
    i)`` is the scalar reference returning the identical value.  The
    same pairing holds for ``uniforms``/``uniform`` (one word per
    index; bit 0 of the same word is exposed as ``bits``/``bit`` for
    auxiliary coin flips -- the uniform only consumes bits 11..63).
    """

    def __init__(self, seed: int, streams: int, domain: str) -> None:
        self.seed = seed & _MASK64
        self.streams = streams
        self.domain = domain
        self.keys = stream_keys(seed, streams, domain)

    # -- word generation ---------------------------------------------------

    def _blocks(self, n: int):
        """Row blocks for a ``(streams, n)`` result, with word scratch.

        Yields ``(rows, words, tmp)``: a row slice of at most
        ``max(1, _BLOCK // n)`` streams and two uint64 scratch blocks
        shaped ``(rows, n)``, reused from block to block.
        """
        height = max(1, _BLOCK // max(n, 1))
        words = np.empty((min(height, self.streams), n), dtype=np.uint64)
        tmp = np.empty_like(words)
        for top in range(0, self.streams, height):
            bottom = min(top + height, self.streams)
            count = bottom - top
            yield slice(top, bottom), words[:count], tmp[:count]

    def _words_into(
        self, words: np.ndarray, tmp: np.ndarray, rows: slice, steps: np.ndarray
    ) -> np.ndarray:
        """``mix64(key + steps)`` for the streams in ``rows``, in place."""
        np.add(self.keys[rows, None], steps, out=words)
        return _mix64_into(words, tmp)

    def _word(self, stream: int, counter: int) -> int:
        return _mix64(int(self.keys[stream]) + counter * _GOLDEN)

    # -- uniforms ----------------------------------------------------------

    def uniforms(self, lo: int, hi: int) -> np.ndarray:
        """Uniform(0,1) matrix for unit indices ``[lo, hi)``."""
        steps = _counter_steps(lo, hi, 1)
        out = np.empty((self.streams, steps.size), dtype=np.float64)
        for rows, words, tmp in self._blocks(steps.size):
            _uniform_into(self._words_into(words, tmp, rows, steps), out[rows])
        return out

    def uniform(self, stream: int, index: int) -> float:
        """Scalar reference for ``uniforms(lo, hi)[stream, index - lo]``."""
        word = self._word(stream, index)
        return float(((word >> 11) + 0.5) * _U53)

    def bits(self, lo: int, hi: int) -> np.ndarray:
        """Bit 0 of each unit's word (independent of its uniform)."""
        steps = _counter_steps(lo, hi, 1)
        out = np.empty((self.streams, steps.size), dtype=np.uint8)
        for rows, words, tmp in self._blocks(steps.size):
            np.bitwise_and(
                self._words_into(words, tmp, rows, steps),
                _ONE,
                out=out[rows],
                casting="unsafe",
            )
        return out

    def bit(self, stream: int, index: int) -> int:
        """Scalar reference for ``bits(lo, hi)[stream, index - lo]``."""
        return self._word(stream, index) & 1

    # -- normals -----------------------------------------------------------

    def normals(self, lo: int, hi: int) -> np.ndarray:
        """Standard-normal matrix for unit indices ``[lo, hi)``.

        Box-Muller over draw counters ``2*index`` and ``2*index + 1``:
        the radius ``sqrt(-2 log u1)`` is built in the result rows, the
        angle ``cos(2 pi u2)`` in the mixer's scratch block, which is
        free once the second word is mixed.
        """
        first = _counter_steps(lo, hi, 2)
        second = first + np.uint64(_GOLDEN)
        out = np.empty((self.streams, first.size), dtype=np.float64)
        for rows, words, tmp in self._blocks(first.size):
            radius = _uniform_into(
                self._words_into(words, tmp, rows, first), out[rows]
            )
            np.log(radius, out=radius)
            radius *= -2.0
            np.sqrt(radius, out=radius)
            angle = _uniform_into(
                self._words_into(words, tmp, rows, second),
                tmp.view(np.float64),
            )
            angle *= _TWO_PI
            np.cos(angle, out=angle)
            radius *= angle
        return out

    def normal(self, stream: int, index: int) -> float:
        """Scalar reference for ``normals(lo, hi)[stream, index - lo]``.

        Computes the words with exact Python-int arithmetic, then the
        float transform with numpy *scalar* ufuncs -- the same
        operations the vectorized path applies element-wise, so the
        result is bit-identical (``math.log`` would not be).
        """
        w1 = self._word(stream, 2 * index)
        w2 = self._word(stream, 2 * index + 1)
        u1 = np.float64(((w1 >> 11) + 0.5) * _U53)
        u2 = np.float64(((w2 >> 11) + 0.5) * _U53)
        return float(np.sqrt(-2.0 * np.log(u1)) * np.cos(_TWO_PI * u2))
