"""Stream-split counter sampling: determinism, independence, parity."""

import hashlib

import numpy as np
import pytest

from repro import obs
from repro.mc.sampling import (
    _BLOCK,
    _KEY_CACHE_HITS,
    _KEY_CACHE_MISSES,
    SubstreamSampler,
    clear_key_cache,
    stream_keys,
)

#: (streams, units) shapes that cross the kernel's row blocks: several
#: rows per block with a partial last block, one row per block, and a
#: single unit.
BLOCK_SHAPES = ((40, 2048), (5, 40000), (7, 1))

KINDS = ("uniform", "bit", "normal")


def _block_edge_rows(streams: int, units: int) -> list[int]:
    """First and last row of every row block the kernel fills."""
    height = max(1, _BLOCK // units)
    edges = set()
    for top in range(0, streams, height):
        edges.update((top, min(top + height, streams) - 1))
    return sorted(edges)


def test_scalar_matches_vectorized_uniforms():
    sampler = SubstreamSampler(seed=123, streams=7, domain="timing")
    block = sampler.uniforms(0, 40)
    for stream in range(7):
        for index in range(0, 40, 7):
            assert sampler.uniform(stream, index) == block[stream, index]


def test_scalar_matches_vectorized_normals():
    sampler = SubstreamSampler(seed=99, streams=5, domain="timing")
    block = sampler.normals(0, 32)
    for stream in range(5):
        for index in (0, 1, 7, 31):
            assert sampler.normal(stream, index) == block[stream, index]


def test_scalar_matches_vectorized_bits():
    sampler = SubstreamSampler(seed=7, streams=4, domain="defects")
    block = sampler.bits(0, 64)
    for stream in range(4):
        for index in range(0, 64, 13):
            assert sampler.bit(stream, index) == block[stream, index]


@pytest.mark.parametrize("streams,units", BLOCK_SHAPES)
@pytest.mark.parametrize("kind", KINDS)
def test_scalar_matches_vectorized_across_blocks(kind, streams, units):
    sampler = SubstreamSampler(seed=31, streams=streams, domain="timing")
    matrix = getattr(sampler, kind + "s")(0, units)
    scalar = getattr(sampler, kind)
    assert matrix.shape == (streams, units)
    for stream in _block_edge_rows(streams, units):
        for index in sorted({0, units // 2, units - 1}):
            assert scalar(stream, index) == matrix[stream, index]


def test_offset_independence():
    """Draw index, not call order, addresses a sample (shardability)."""
    sampler = SubstreamSampler(seed=5, streams=3, domain="timing")
    whole = sampler.normals(0, 100)
    for lo, hi in ((0, 10), (10, 64), (64, 100), (37, 41)):
        assert np.array_equal(sampler.normals(lo, hi), whole[:, lo:hi])


@pytest.mark.parametrize("streams,units", BLOCK_SHAPES)
@pytest.mark.parametrize("kind", KINDS)
def test_offset_independence_across_blocks(kind, streams, units):
    """Sub-ranges split into other row blocks, yet match the whole."""
    sampler = SubstreamSampler(seed=5, streams=streams, domain="timing")
    draw = getattr(sampler, kind + "s")
    whole = draw(0, units)
    third = units // 3
    for lo, hi in ((0, units), (0, third), (third, units), (third, third + 1)):
        if lo < hi:
            assert np.array_equal(draw(lo, hi), whole[:, lo:hi])


def test_stream_is_pinned():
    """The integer-derived draws themselves, not just scalar == vector.

    A change made to both paths in lockstep (say another counter
    layout) would pass every parity test while re-dicing every fleet.
    Normals are not pinned: ``log`` and ``cos`` may differ in the last
    place across numpy builds.
    """
    sampler = SubstreamSampler(seed=0xBEEF, streams=40, domain="defects")

    def digest(matrix: np.ndarray) -> str:
        return hashlib.sha256(matrix.tobytes()).hexdigest()[:16]

    assert digest(sampler.uniforms(0, 2048)) == "c8512b4df523561e"
    assert digest(sampler.bits(0, 2048)) == "e5330a71d37b6dc0"


def test_same_seed_reproduces():
    a = SubstreamSampler(seed=42, streams=6, domain="timing").normals(0, 16)
    b = SubstreamSampler(seed=42, streams=6, domain="timing").normals(0, 16)
    assert np.array_equal(a, b)


def test_seeds_and_domains_decorrelate():
    base = SubstreamSampler(seed=1, streams=4, domain="timing").uniforms(0, 32)
    other_seed = SubstreamSampler(seed=2, streams=4, domain="timing").uniforms(0, 32)
    other_domain = SubstreamSampler(seed=1, streams=4, domain="defects").uniforms(0, 32)
    assert not np.array_equal(base, other_seed)
    assert not np.array_equal(base, other_domain)


def test_streams_decorrelate():
    block = SubstreamSampler(seed=3, streams=8, domain="timing").uniforms(0, 64)
    for row in range(1, 8):
        assert not np.array_equal(block[0], block[row])


def test_uniforms_in_open_interval():
    block = SubstreamSampler(seed=11, streams=16, domain="timing").uniforms(0, 256)
    assert block.min() > 0.0
    assert block.max() < 1.0


def test_normals_roughly_standard():
    block = SubstreamSampler(seed=17, streams=64, domain="timing").normals(0, 256)
    flat = block.ravel()
    assert abs(float(flat.mean())) < 0.02
    assert abs(float(flat.std()) - 1.0) < 0.02


def test_key_cache_counters():
    clear_key_cache()
    was_enabled = obs.enabled()
    obs.STATE.enabled = True
    try:
        misses = _KEY_CACHE_MISSES.value
        hits = _KEY_CACHE_HITS.value
        stream_keys(1234, 5, "timing")
        stream_keys(1234, 5, "timing")
        assert _KEY_CACHE_MISSES.value == misses + 1
        assert _KEY_CACHE_HITS.value == hits + 1
    finally:
        obs.STATE.enabled = was_enabled


def test_keys_are_read_only():
    keys = stream_keys(1, 4, "timing")
    with pytest.raises(ValueError):
        keys[0] = 0
