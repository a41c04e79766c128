"""Font-data file I/O: the reference's fixed-width .data format round-trip
(main/kd.c:520-548, 645-724)."""

import os

import numpy as np
import pytest

from tensorflow_ocr_ray.config import TUPLELENGTH
from tensorflow_ocr_ray.fonts import build_font_index
from tensorflow_ocr_ray.sources.fontdata import (
    font_index_to_parquet,
    parquet_to_font_index,
    read_data_file,
    write_data_file,
)

REF_FONTS = "/root/reference/main/fontData"
needs_reference = pytest.mark.skipif(
    not os.path.isdir(REF_FONTS),
    reason=f"reference font data tree {REF_FONTS} is not present",
)


def test_data_file_roundtrip(tmp_path):
    idx = build_font_index()
    path = str(tmp_path / "font.data")
    write_data_file(path, idx)
    back = read_data_file(path)
    assert back.labels == idx.labels
    # values survive the %0.3f on-disk quantization: index tuples are
    # already 3-decimal quantized for the grid dims, and dims 25/26 are
    # divided by 3 on write and re-multiplied on read (kd.c:528,639-643)
    assert np.allclose(back.tuples, idx.tuples, atol=2e-3)


def test_data_file_format_fixed_width(tmp_path):
    idx = build_font_index()
    path = str(tmp_path / "font.data")
    write_data_file(path, idx)
    with open(path, encoding="utf-8") as f:
        line = f.readline().rstrip("\n")
    # 27 fields of "%0.3f " (6 chars each) = 162-char numeric prefix, then
    # the label (t5.py:24-26 hard-codes this offset)
    assert len(line) > 162
    fields = line[:162].split()
    assert len(fields) == TUPLELENGTH


@needs_reference
def test_reference_kafka_data_loads():
    # the reference's own font DB parses with our reader (139 rows)
    idx = read_data_file(f"{REF_FONTS}/kafka.data")
    assert len(idx) == 139
    assert idx.tuples.shape == (139, TUPLELENGTH)
    assert not idx.rtl
    # multi-char labels exist (e.g. "rn", "in")
    assert any(len(l) > 1 for l in idx.labels)


@needs_reference
def test_reference_rtl_font_detected():
    idx = read_data_file(f"{REF_FONTS}/bashevis.data")
    assert idx.rtl  # Yiddish labels → RTL sniff fires (kd.c:700-711)


def test_parquet_roundtrip(tmp_path):
    idx = build_font_index()
    path = str(tmp_path / "font.parquet")
    font_index_to_parquet(idx, path)
    back = parquet_to_font_index(path)
    assert back.labels == idx.labels
    assert np.array_equal(back.tuples, idx.tuples)


@needs_reference
def test_reference_data_write_read_stable(tmp_path):
    """read -> write -> read of the reference's own kafka.data is a fixed
    point: labels identical, tuples stable to the %0.3f quantization."""
    import numpy as np

    ref = read_data_file(f"{REF_FONTS}/kafka.data")
    path = str(tmp_path / "rt.data")
    write_data_file(path, ref)
    back = read_data_file(path)
    assert back.labels == ref.labels
    assert np.allclose(back.tuples, ref.tuples, atol=2e-3)
    # second round trip is bit-stable
    write_data_file(path, back)
    again = read_data_file(path)
    assert np.array_equal(again.tuples, back.tuples)
