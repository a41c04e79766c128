"""Single-page OCR: the per-page portion of the reference's main loop.

Mirrors ``main/main.c:237-296``: decode → (shear) → per column (RTL columns
iterate right-to-left) → findLines → buildTuples → splitWideGlyphs →
narrowGlyphs → displayText.  Pure function of (payload bytes, config, font
index) — the unit of work executed inside the Ray ``map_batches`` stages and,
identically, by the single-process oracle in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from tensorflow_ocr_ray.config import OcrConfig
from tensorflow_ocr_ray.core.assemble import assemble_page_text
from tensorflow_ocr_ray.core.knn import FontIndex
from tensorflow_ocr_ray.core.raster import decode_payload_pages, deskew
from tensorflow_ocr_ray.core.segment import PageSegmenter


@dataclass
class GlyphRecord:
    """One classified glyph — the engine's intermediate IR row."""

    column: int
    line_idx: int
    glyph_idx: int
    left: int
    right: int
    top: int
    bottom: int
    features: np.ndarray  # (27,) float32, normalized
    label: str
    dist2: float
    page_idx: int = 0


@dataclass
class PageResult:
    text: str
    glyphs: list[GlyphRecord] = field(default_factory=list)
    n_glyphs: int = 0  # set even when glyph records aren't collected


def ocr_page_image(
    image: np.ndarray,
    cfg: OcrConfig,
    index: FontIndex,
    collect_glyphs: bool = True,
    predictions: list[str] | None = None,
    classifier=None,
    classifier_input: str = "features",
) -> PageResult:
    """OCR one decoded bitonal page (uint8 0/1).

    ``predictions``, when given, replaces classifier labels positionally in
    glyph order — the reference's ``-P tensorOutput.txt`` mode
    (main/kd.c:210-223), realigned here by explicit ordinals instead of a
    shared file cursor.

    ``classifier``, when given, is a batched label function that overrides
    the kNN ``ocrValue`` for the FINAL labels only; segmentation's
    combine/split decisions still consult the kNN index, exactly as the
    reference's ``-P`` run does (segment.c calls ocrDistance2 regardless).
    ``classifier_input`` selects what it receives: ``"features"`` —
    the (N, 27) tuple matrix (dense model, K5/K8); ``"windows"`` — an
    (N, S, S) array of resampled glyph pixel windows (conv model, K7 /
    the north star's 24x24 path).
    """
    if not cfg.no_shear:
        image = deskew(image, cfg.max_shear, cfg.shear_scale, cfg.light_sum)
    # only the flood path marks pixels in place; XY-cut never mutates, so
    # skip the defensive page copy there (pure memory traffic)
    seg = PageSegmenter(image.copy() if cfg.use_flood else image, cfg, index)
    rtl = index.rtl
    col_order = (
        range(cfg.columns - 1, -1, -1) if rtl else range(cfg.columns)
    )
    texts: list[str] = []
    glyph_records: list[GlyphRecord] = []
    pred_cursor = 0
    total_glyphs = 0
    for col in col_order:
        if not seg.find_lines(col):
            continue
        seg.build_tuples()
        # one batched kNN call: the labels, and the dist² the split and
        # narrow tests read for every glyph whose tuple they keep
        seg.classify()
        if cfg.may_combine:
            seg.split_wide_glyphs()
            seg.narrow_glyphs()
        tab = seg.glyph_table()
        values, d2 = tab.labels, tab.dist2
        if classifier is not None and values:
            if classifier_input == "windows":
                from tensorflow_ocr_ray.core.raster import glyph_windows

                values = list(
                    classifier(glyph_windows(image, tab.boxes.tolist())))
            else:
                values = list(classifier(tab.fmat))
        if predictions is not None:
            n = len(values)
            if pred_cursor + n > len(predictions):
                raise ValueError(
                    f"prediction list exhausted: page needs glyphs "
                    f"[{pred_cursor}, {pred_cursor + n}) but only "
                    f"{len(predictions)} predictions were supplied"
                )
            values = predictions[pred_cursor : pred_cursor + n]
            pred_cursor += n
        total_glyphs += len(values)
        # assembly input (one dict per line, over slices of the columns)
        # and, when asked for, one record per glyph
        lefts = tab.boxes[:, 0].tolist()
        rights = tab.boxes[:, 1].tolist()
        lines_payload = []
        k = 0
        for li, (top, bottom, left_border, right_border, count) in \
                enumerate(tab.lines):
            stop = k + count
            if collect_glyphs:
                for gi, (left, right, g_top, g_bottom) in enumerate(
                        tab.boxes[k:stop].tolist()):
                    glyph_records.append(
                        GlyphRecord(
                            column=col,
                            line_idx=li,
                            glyph_idx=gi,
                            left=left,
                            right=right,
                            top=g_top,
                            bottom=g_bottom,
                            features=tab.tuples[k + gi],
                            label=values[k + gi],
                            dist2=(float(d2[k + gi]) if k + gi < len(d2)
                                   else -1.0),
                        )
                    )
            lines_payload.append(
                {
                    "top": top,
                    "bottom": bottom,
                    "left_border": left_border,
                    "right_border": right_border,
                    "values": values[k:stop],
                    "lefts": lefts[k:stop],
                    "rights": rights[k:stop],
                }
            )
            k = stop
        texts.append(
            assemble_page_text(
                lines_payload,
                seg.glyph_width,
                seg.left_margin,
                seg.right_margin,
                rtl,
                cfg.space_fraction,
            )
        )
    return PageResult(
        text="".join(texts), glyphs=glyph_records, n_glyphs=total_glyphs
    )


def ocr_payload(
    payload: bytes,
    cfg: OcrConfig,
    index: FontIndex,
    collect_glyphs: bool = True,
    predictions: list[str] | None = None,
    classifier=None,
    classifier_input: str = "features",
) -> PageResult:
    """Decode a media payload and OCR it (readPicture + the page loop).

    Multi-page payloads (chained TIFF IFDs — the reference iterates page
    directories, ``main/readPicture.c:223-233``) OCR every page in
    directory order; page texts concatenate in order and glyph records
    carry ``page_idx``.  Positional ``predictions`` consume across pages
    continuously, exactly like the reference's shared file cursor."""
    pages = decode_payload_pages(payload, cfg.cutoff)
    texts: list[str] = []
    glyphs: list[GlyphRecord] = []
    total = 0
    cursor = 0
    for page_idx, image in enumerate(pages):
        res = ocr_page_image(
            image, cfg, index, collect_glyphs=collect_glyphs,
            predictions=predictions[cursor:] if predictions is not None else None,
            classifier=classifier, classifier_input=classifier_input,
        )
        cursor += res.n_glyphs
        texts.append(res.text)
        for g in res.glyphs:
            g.page_idx = page_idx
        glyphs.extend(res.glyphs)
        total += res.n_glyphs
    return PageResult(text="".join(texts), glyphs=glyphs, n_glyphs=total)
