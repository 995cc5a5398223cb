"""Tests for the compression substrate."""

import pytest

from repro.compressor.base import CompressedBatch
from repro.compressor.factory import make_compressor
from repro.compressor.model import ModelCompressor, paper_ratio_for_batch
from repro.compressor.zlib_compressor import ZlibCompressor
from repro.config import PAPER_COMPRESSION_RATIO
from repro.errors import ConfigurationError
from repro.workload.elements import make_element


def make_batch(n=50, size=438):
    return [make_element("c", size) for _ in range(n)]


def test_model_compressor_uses_paper_ratio_at_calibration_points():
    for collector, ratio in PAPER_COMPRESSION_RATIO.items():
        batch = make_batch(collector)
        original = sum(e.size_bytes for e in batch)
        compressed = ModelCompressor().compress(batch, original)
        assert compressed.compressed_size == pytest.approx(original / ratio, rel=0.01)
        assert compressed.ratio == pytest.approx(ratio, rel=0.01)


def test_paper_ratio_interpolates_and_clamps():
    assert paper_ratio_for_batch(50) == PAPER_COMPRESSION_RATIO[100]
    assert paper_ratio_for_batch(1000) == PAPER_COMPRESSION_RATIO[500]
    mid = paper_ratio_for_batch(300)
    assert PAPER_COMPRESSION_RATIO[100] < mid < PAPER_COMPRESSION_RATIO[500]


def test_model_compressor_fixed_ratio():
    batch = make_batch(10)
    compressed = ModelCompressor(ratio=4.0).compress(batch, 4000)
    assert compressed.compressed_size == 1000
    with pytest.raises(ValueError):
        ModelCompressor(ratio=0)


def test_model_compressed_batch_size_reproduces_paper_measurement():
    """Paper: compressed batch ~16,000 bytes for collector 100 (438-byte elements)."""
    batch = make_batch(100)
    original = sum(e.size_bytes for e in batch)
    compressed = ModelCompressor().compress(batch, original)
    assert 14_000 <= compressed.compressed_size <= 18_000


def test_decompress_returns_original_items():
    batch = make_batch(7)
    compressed = ModelCompressor().compress(batch, 7 * 438)
    assert ModelCompressor().decompress(compressed) == tuple(batch)


def test_decompress_foreign_payload_returns_empty():
    assert ModelCompressor().decompress("garbage") == ()


def test_zlib_roundtrip_and_ratio():
    batch = make_batch(50)
    original = sum(e.size_bytes for e in batch)
    compressed = ZlibCompressor().compress(batch, original)
    assert isinstance(compressed, CompressedBatch)
    assert compressed.compressed_size > 0
    assert compressed.items == tuple(batch)
    assert compressed.ratio > 1.0  # canonical encodings are compressible


def test_zlib_level_validation():
    with pytest.raises(ValueError):
        ZlibCompressor(level=42)


def test_compressed_batch_len_and_infinite_ratio():
    batch = CompressedBatch(items=("a",), compressed_size=0, original_size=10, codec="t")
    assert batch.ratio == float("inf")


def test_factory_dispatch_and_errors():
    assert isinstance(make_compressor("model"), ModelCompressor)
    assert isinstance(make_compressor("zlib", level=1), ZlibCompressor)
    assert make_compressor("model", ratio=2.0).ratio == 2.0
    with pytest.raises(ConfigurationError):
        make_compressor("brotli")
    with pytest.raises(ConfigurationError):
        make_compressor("model", bogus=1)
    with pytest.raises(ConfigurationError):
        make_compressor("zlib", bogus=1)
