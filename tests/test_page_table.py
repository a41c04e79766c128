"""The page as a box table: pinned outputs and kNN batch independence.

- ``ocr_glyph_stream`` at sf0.01 (run in process: explode, then the
  GlyphDumpStage over 8-span batches, as the query plans it) keeps its
  10,263 rows and one digest of boxes, features, labels and dist².
- The page loop's one batched ``FontIndex.nearest`` call answers every
  glyph tuple of the ocr_tiff_skewed benchmark pages (seed 1509) exactly
  as a one-row probe of that tuple does: the split and narrow tests read
  the batch's dist² where they used to probe one glyph at a time.
- The box-table page loop gives the same glyphs, labels and text as the
  object code it stands in for, on generated pages and configurations
  where lines combine, split and narrow.
"""

from __future__ import annotations

import hashlib
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorflow_ocr_ray.config import FIXTURE_CONFIG
from tensorflow_ocr_ray.core import native, segment
from tensorflow_ocr_ray.core.page import ocr_page_image
from tensorflow_ocr_ray.fixtures import page_spec_for_ref, render_page
from tensorflow_ocr_ray.fonts import get_font_index, glyph_bitmap

SF001 = "/root/testdata/sf0.01"
# sha256 over the rows of ocr_glyph_stream at sf0.01 in stream order
GLYPH_STREAM_ROWS = 10_263
GLYPH_STREAM_DIGEST = (
    "8cd2d1edb33d550bfe804fd6d6b700aaa054feb04ab704cc5903bf461d34693b")


def glyph_stream_digest(n_docs: int) -> tuple[int, str]:
    """(rows, digest) of the GlyphDumpStage stream over the fixture
    corpus of ``n_docs`` documents (seed 42, as ``_fixture_docs``)."""
    from tensorflow_ocr_ray.fixtures import generate_documents
    from tensorflow_ocr_ray.pipelines.ocr_pipeline import explode_documents
    from tensorflow_ocr_ray.stages.ocr_stages import GlyphDumpStage

    spans = explode_documents(generate_documents(n_docs, seed=42))
    stage = GlyphDumpStage()
    h = hashlib.sha256()
    rows = 0
    for i in range(0, spans.num_rows, 8):
        out = stage(spans.slice(i, 8))
        cols = {name: out.column(name).to_pylist() for name in out.column_names
                if name != "features"}
        feats = np.asarray(out.column("features").to_pylist(),
                           dtype=np.float32).reshape(out.num_rows, 27)
        for r in range(out.num_rows):
            h.update(cols["doc_id"][r].encode())
            h.update(struct.pack(
                "<9i", cols["span_idx"][r], cols["page_idx"][r],
                cols["line_idx"][r], cols["glyph_idx"][r], cols["left"][r],
                cols["right"][r], cols["top"][r], cols["bottom"][r], 0))
            h.update(feats[r].tobytes())
            h.update(cols["knn_label"][r].encode())
            h.update(np.float32(cols["knn_dist2"][r]).tobytes())
        rows += out.num_rows
    return rows, h.hexdigest()


@pytest.mark.skipif(not os.path.isdir(SF001), reason=f"{SF001} absent")
def test_glyph_stream_digest_at_sf001():
    import __ray_entry__

    n_docs = __ray_entry__._fixture_doc_count(SF001)
    assert glyph_stream_digest(n_docs) == (GLYPH_STREAM_ROWS,
                                           GLYPH_STREAM_DIGEST)


def _bench_page(ref: str) -> np.ndarray:
    """The bitonal page the benchmark's payload of ``ref`` decodes to: its
    G4 and LZW encodings are lossless and its gray levels (40 ink, 250
    paper) binarize back to the rendered ink."""
    return (render_page(page_spec_for_ref(ref)) != 0).astype(np.uint8)


def test_batched_nearest_matches_one_row_probes():
    from perfbench.inputs import SIZES, _skewed

    docs, _, _ = _skewed(SIZES["ocr_tiff_skewed"], 1509)  # payloads unmade
    refs = [s["media_ref"] for spans in docs.column("spans").to_pylist()
            for s in spans if s["kind"] == "media"]
    assert len(refs) == 399
    index = get_font_index()
    glyphs = 0
    for ref in refs:
        res = ocr_page_image(_bench_page(ref), FIXTURE_CONFIG, index)
        tuples = np.stack([g.features for g in res.glyphs])
        for iv in (False, True):
            idx, d2 = index.nearest(tuples, iv)
            for k, tup in enumerate(tuples):
                one_idx, one_d2 = index.nearest(tup[None, :], iv)
                assert one_idx[0] == idx[k], (ref, k, iv)
                assert one_d2.view(np.uint32)[0] == d2.view(np.uint32)[k]
        glyphs += len(tuples)
    assert glyphs == 27_072


# ------------------------------------------------- table vs object code


def _objects_only(monkeypatch) -> None:
    """Every line as objects straight after the XY-cut: the page loop
    then runs the reference-shaped code throughout."""
    real = segment.PageSegmenter.find_cells

    def find_cells(self, *region):
        try:
            real(self, *region)
        finally:
            self._materialize_all()

    monkeypatch.setattr(segment.PageSegmenter, "find_cells", find_cells)


def _records(res) -> tuple:
    return res.text, [
        (g.column, g.line_idx, g.glyph_idx, g.left, g.right, g.top,
         g.bottom, g.features.view(np.uint32).tolist(), g.label,
         np.float32(g.dist2).view(np.uint32))
        for g in res.glyphs]


def _ocr_both(page: np.ndarray, cfg) -> tuple:
    """The page's records through the box table, then with every line
    as objects."""
    index = get_font_index()

    def run():
        try:
            return _records(ocr_page_image(page, cfg, index))
        except RuntimeError as e:  # a too-tall glyph: the reference aborts
            return str(e)

    table = run()
    with pytest.MonkeyPatch.context() as mp:
        _objects_only(mp)
        objects = run()
    return table, objects


@st.composite
def _glyph_pages(draw):
    """Rows of font glyphs, some touching, overlapping or run together
    into wide blobs, on lines that may crowd each other."""
    h, w = draw(st.integers(20, 120)), draw(st.integers(40, 260))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**31))))
    page = np.zeros((h, w), dtype=np.uint8)
    for _ in range(draw(st.integers(1, 40))):
        bmp = glyph_bitmap(str(rng.choice(list("ijmwxaeolrn"))))
        top, left = int(rng.integers(0, h)), int(rng.integers(0, w))
        rows = min(bmp.shape[0], h - top)
        cols = min(bmp.shape[1], w - left)
        page[top:top + rows, left:left + cols] |= bmp[:rows, :cols]
    return page


_LOOP_CONFIGS = st.builds(
    lambda split, gap, good, combine, always: FIXTURE_CONFIG.with_(
        splittable=split, min_glyph_width=gap, good_match=good,
        may_combine=combine, always_combine=always),
    st.sampled_from([0.5, 1.0, 1.5, 2.0]), st.integers(1, 6),
    st.sampled_from([0.05, 0.2, 1.0]), st.booleans(), st.booleans(),
)


@pytest.mark.skipif(native.load() is None, reason="no box table without cc")
@settings(max_examples=100, deadline=None)
@given(page=_glyph_pages(), cfg=_LOOP_CONFIGS)
def test_table_page_loop_matches_object_code(page, cfg):
    table, objects = _ocr_both(page, cfg)
    assert table == objects
