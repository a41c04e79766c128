"""Page segmentation — a faithful re-expression of the reference's segment.c.

Implements, per page image (uint8, 0=white 1=black 2=flood-marked):

- recursive XY-cut glyph discovery  (findCells,       main/segment.c:278-352)
- forced line split                 (findLinesHarder, main/segment.c:354-382)
- flood-fill glyph discovery        (floodFindGlyphs, main/segment.c:1774-1876)
  re-expressed as run-based 8-connected components (same components, same
  discovery order, no C-stack-blowing recursion)
- glyph→line placement             (insertGlyph,     main/segment.c:160-274)
- vertical line merging             (combineLines,    main/segment.c:413-601)
- tall-line splitting               (splitLine,       main/segment.c:689-771)
- horizontal overlap combining      (findLines,       main/segment.c:985-1030)
- wide-glyph splitting              (splitWideGlyphs, main/segment.c:1210-1386)
- narrow-glyph combining            (narrowGlyphs,    main/segment.c:1414-1476)
- bbox tightening w.r.t. paths      (narrowGlyph,     main/segment.c:1122-1208)
- column border search              (computeBorders,  main/segment.c:775-843)

The classifier participates in segmentation (combine/split consult NN
distances, mirroring segment.c's calls into ocrDistance2), so the segmenter
holds a FontIndex.

Deliberate, documented deviations from the reference:
- The reference's ``totalWidth/totalHeight/glyphCount`` are process-global
  and drift across pages (segment.c:158).  We reset them per page: a
  distributed engine must make every span's output a pure function of that
  span.  Within a page the arithmetic is identical.
- Recursion (findCells, floodRecur) is iterative here.

One column is carried as a box table from the XY-cut to assembly: the
native ``xy_cut`` returns the glyph boxes line by line with findLines'
candidate flags, and every later step tests its own candidates on the
arrays (``split_wide_glyphs``' width and distance test, ``narrow_glyphs``'
gap and distance test).  Only a line with a candidate becomes ``Line``
and ``Glyph`` objects, runs the reference-shaped code below and stays an
object; ``glyph_table`` gathers both kinds back into arrays in reading
order.  One batched kNN call (``classify``) gives the labels and the
probe distances of every glyph whose tuple no step changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tensorflow_ocr_ray.config import TUPLELENGTH, OcrConfig
from tensorflow_ocr_ray.core import native
from tensorflow_ocr_ray.core.native import XF_COMBINES, XF_OVERLAPS_NEXT
from tensorflow_ocr_ray.core.features import (
    fill_tuple,
    fill_tuples,
    refill_tuple,
)
from tensorflow_ocr_ray.core.knn import BIGDIST, FontIndex

INFTY = 100000  # main/ocr.h:44


class Glyph:
    __slots__ = (
        "left", "right", "top", "bottom", "line_height",
        "left_path", "right_path", "tuple", "distance",
    )

    def __init__(self, left: int, right: int, top: int, bottom: int):
        self.left = left
        self.right = right
        self.top = top
        self.bottom = bottom
        self.line_height = 0
        self.left_path: np.ndarray | None = None
        self.right_path: np.ndarray | None = None
        self.tuple: np.ndarray | None = None
        self.distance: float = -1.0  # cached sqrt(NN dist²); -1 = uninitialized

    @property
    def height(self) -> int:
        return self.bottom - self.top

    @property
    def width(self) -> int:
        return self.right - self.left

    def shallow_copy(self) -> "Glyph":
        g = Glyph(self.left, self.right, self.top, self.bottom)
        g.line_height = self.line_height
        g.left_path = self.left_path
        g.right_path = self.right_path
        g.tuple = self.tuple
        g.distance = self.distance
        return g


class Line:
    __slots__ = ("top", "bottom", "left_border", "right_border", "glyphs")

    def __init__(self):
        self.top = -1
        self.bottom = -1
        self.left_border = INFTY
        self.right_border = -INFTY
        self.glyphs: list[Glyph] = []

    @property
    def height(self) -> int:
        return self.bottom - self.top

    def adjust_stats(self) -> None:
        """adjustLineStats (main/segment.c:442-459)."""
        top, bottom, left, right = INFTY, -INFTY, INFTY, -INFTY
        for g in self.glyphs:
            top = min(top, g.top)
            left = min(left, g.left)
            bottom = max(bottom, g.bottom)
            right = max(right, g.right)
        self.top, self.bottom = top, bottom
        self.left_border, self.right_border = left, right


class _BoxTable:
    """One column's glyphs as ``xy_cut`` leaves them, filled in step by
    step.  Row r is a glyph; the rows of line k are
    ``start[k]:start[k + 1]``, in page order, each line left to right."""

    __slots__ = ("box", "lines", "start", "line_height", "tuples", "dist2",
                 "labels")

    # columns of a line's row after its bounds (top, bottom, left border,
    # right border): glyph count, sum of glyph widths, XF_* flags
    COUNT, WIDTH, FLAGS = 4, 5, 6

    def __init__(self, box: np.ndarray, lines: list[list[int]]):
        self.box = box  # (n, 4) int64: left, right, top, bottom
        self.lines = lines
        self.start = np.zeros(len(lines) + 1, dtype=np.int64)
        np.cumsum([ln[self.COUNT] for ln in lines], out=self.start[1:])
        self.line_height: np.ndarray | None = None  # (n,), find_lines
        self.tuples: np.ndarray | None = None  # (n, 27), build_tuples
        self.dist2: np.ndarray | None = None  # (n,) float32, classify
        self.labels: list[str] | None = None  # classify

    def line_of(self, rows: np.ndarray) -> list[int]:
        """The distinct lines that hold ``rows``."""
        return np.unique(
            np.searchsorted(self.start, rows, side="right") - 1).tolist()


@dataclass
class GlyphTable:
    """A column's final glyphs in reading order, as arrays."""

    boxes: np.ndarray  # (n, 4) int64: left, right, top, bottom
    tuples: np.ndarray  # (n, 27) float32 as built (NaN for empty boxes)
    fmat: np.ndarray  # ``tuples`` with non-finite rows zeroed: kNN input
    labels: list[str]  # ocrValue of each row of ``fmat``
    dist2: np.ndarray  # (n,) float32 NN dist² of each row of ``fmat``
    # per line: top, bottom, left border, right border, glyph count
    lines: list[tuple[int, int, int, int, int]]


_ZERO_TUPLE = np.zeros(TUPLELENGTH, dtype=np.float32)


def _screened(tuples: np.ndarray) -> np.ndarray:
    """``tuples`` with its non-finite rows zeroed (a copy only when one
    is): what the classifier sees of an empty glyph box."""
    bad = ~np.isfinite(tuples).all(axis=1)
    if bad.any():
        tuples = tuples.copy()
        tuples[bad] = 0.0
    return tuples


def copy_path(path: np.ndarray | None, height: int) -> np.ndarray | None:
    """copyPath (main/segment.c:1734-1739): truncating copy to ``height``."""
    if path is None:
        return None
    return np.array(path[:height], dtype=np.int64)


def prefix_sum_2d_py(image: np.ndarray) -> np.ndarray:
    """(h+1, w+1) table of non-zero pixel counts over ``image[:y, :x]``;
    the reference for the native ``prefix_sum_2d`` kernel."""
    h, w = image.shape
    # int32: pages are far below 2^31 pixels; halves the memory
    # traffic of the hottest array (measured contention at 32-way)
    ps = np.zeros((h + 1, w + 1), dtype=np.int32)
    # bool -> int32 assign, then two IN-PLACE accumulates: avoids
    # the mixed-dtype cumsum slow path and its (h, w) temporary
    # (zero padding row/col stays zero under both accumulates)
    ps[1:, 1:] = image != 0
    np.cumsum(ps, axis=1, out=ps)
    np.cumsum(ps, axis=0, out=ps)
    return ps


def _too_tall_message(height: int, cfg: OcrConfig) -> str:
    return (f"glyph height {height} exceeds max {cfg.max_glyph_height} "
            "(reference abort())")


class PageSegmenter:
    """Segments one page; mirrors the per-page portion of main.c's loop."""

    def __init__(self, image: np.ndarray, cfg: OcrConfig, index: FontIndex):
        self.image = image  # uint8 HxW; mutated only by flood marking
        self.h, self.w = image.shape
        self.cfg = cfg
        self.index = index
        # per-page stats (insertGlyph, segment.c:158-174) — reset per page
        self.left_margin = INFTY
        self.right_margin = 0
        self.total_width = 0
        self.total_height = 0
        self.glyph_count = 0
        self.glyph_width = 0
        self.glyph_height = 0
        # the column's lines in page order: a Line, or the int id of a
        # line still in self._table
        self._lines: list[Line | int] = []
        self._table: _BoxTable | None = None
        # id(tuple) -> (tuple, dist², label) from classify's batched call
        self._knn: dict[int, tuple[np.ndarray, np.float32, str]] = {}
        self.left_border = 0
        self.right_border = self.w - 1
        self._prev_left_border: int | None = None
        self._prev_right_border: int | None = None
        self._ps: np.ndarray | None = None  # 2-D prefix sum of (image != 0)

    # ---------------- lines: objects or box-table rows --------------------
    @property
    def lines(self) -> list[Line]:
        """The column's lines as objects.  Lines still in the box table
        are turned into objects first, and stay objects."""
        self._materialize_all()
        return self._lines  # type: ignore[return-value]

    @lines.setter
    def lines(self, lines: list[Line]) -> None:
        self._lines = lines
        self._table = None
        self._knn = {}

    def _materialize(self, i: int) -> Line:
        """``_lines[i]`` as a Line: a table line becomes Glyph objects
        carrying what the table holds for them so far (line height,
        tuple, and classify's dist² and label)."""
        entry = self._lines[i]
        if type(entry) is not int:
            return entry  # type: ignore[return-value]
        t = self._table
        line = Line()
        line.top, line.bottom, line.left_border, line.right_border = \
            t.lines[entry][:4]
        lo, hi = int(t.start[entry]), int(t.start[entry + 1])
        line.glyphs = [Glyph(*box) for box in t.box[lo:hi].tolist()]
        for r, g in enumerate(line.glyphs, lo):
            if t.line_height is not None:
                g.line_height = int(t.line_height[r])
            if t.tuples is not None:
                g.tuple = t.tuples[r]
                if t.dist2 is not None:
                    self._knn[id(g.tuple)] = (g.tuple, t.dist2[r],
                                              t.labels[r])
        self._lines[i] = line
        return line

    def _materialize_all(self) -> None:
        for i, entry in enumerate(self._lines):
            if type(entry) is int:
                self._materialize(i)

    def _materialize_lines(self, ids: list[int]) -> None:
        """Turn the table lines ``ids`` into objects."""
        todo = set(ids)
        for i, entry in enumerate(self._lines):
            if type(entry) is int and entry in todo:
                self._materialize(i)

    def _bounds(self, i: int) -> tuple[int, int]:
        """(top, bottom) of ``_lines[i]``."""
        entry = self._lines[i]
        if type(entry) is int:
            return tuple(self._table.lines[entry][:2])  # type: ignore
        return entry.top, entry.bottom

    # ---------------- pixel predicates (vectorized) ----------------------
    def _prefix(self) -> np.ndarray:
        if self._ps is None:
            kernels = native.load()
            self._ps = (prefix_sum_2d_py(self.image) if kernels is None
                        else kernels.prefix_sum_2d(self.image))
        return self._ps

    def _count(self, r0: int, r1: int, c0: int, c1: int) -> int:
        """# of non-blank pixels in rows [r0,r1) x cols [c0,c1).

        Out-of-image ranges count as blank (the reference's computeBorders
        probes column `width` for the last column, an out-of-bounds read in
        C — segment.c:797; we define it as white).
        """
        r0, r1 = max(r0, 0), min(r1, self.h)
        c0, c1 = max(c0, 0), min(c1, self.w)
        if r1 <= r0 or c1 <= c0:
            return 0
        ps = self._prefix()
        return int(ps[r1, c1] - ps[r0, c1] - ps[r1, c0] + ps[r0, c0])

    def is_blank_row(self, row: int, start_col: int, end_col: int) -> bool:
        """isBlankRow over cols [start_col, end_col) (segment.c:47-56)."""
        return self._count(row, row + 1, start_col, end_col) == 0

    def is_blank_col(self, top: int, bottom: int, col: int) -> bool:
        """isBlankCol over rows [top, bottom) (segment.c:86-95)."""
        return self._count(top, bottom, col, col + 1) == 0

    # ---------------- classifier hooks -----------------------------------
    def _fill_tuple(self, g: Glyph) -> np.ndarray:
        g.tuple = fill_tuple(
            self.image, g.left, g.right, g.top, g.bottom,
            g.line_height, self.glyph_height,
            g.left_path, g.right_path,
            page_prefix=self._prefix(),
        ) if g.right - g.left >= 1 and g.bottom - g.top >= 1 else np.full(
            27, np.nan, dtype=np.float32
        )
        return g.tuple

    def ocr_distance2(self, tup: np.ndarray) -> float:
        """NN dist² of one tuple; a tuple classify has seen is not probed
        again."""
        if not np.all(np.isfinite(tup)):
            return float(BIGDIST)
        hit = self._knn.get(id(tup))
        if hit is not None and hit[0] is tup:
            return float(hit[1])
        return float(
            self.index.ocr_distance2(tup[None, :], self.cfg.ignore_vertical)[0]
        )

    def calculate_distance(self, g: Glyph) -> None:
        """calculateDistance (main/categorize.c:171-179)."""
        if g.tuple is None:
            self._fill_tuple(g)
        if g.distance == -1:
            g.distance = float(np.sqrt(self.ocr_distance2(g.tuple)))

    # ---------------- glyph insertion ------------------------------------
    def insert_glyph(self, left: int, right: int, top: int, bottom: int) -> Glyph:
        """insertGlyph (main/segment.c:160-274). right/bottom exclusive."""
        self.left_margin = min(self.left_margin, left)
        self.right_margin = max(self.right_margin, right)
        self.total_width += right - left
        self.total_height += bottom - top
        if bottom - top > self.cfg.max_glyph_height:
            raise RuntimeError(_too_tall_message(bottom - top, self.cfg))
        self.glyph_count += 1
        self.glyph_width = self.total_width // self.glyph_count
        self.glyph_height = self.total_height // self.glyph_count
        g = Glyph(left, right, top, bottom)
        for li, line in enumerate(self._lines):
            if line.top > bottom:
                break  # gone too far; need a new line before this one
            ok = (
                (line.top <= top < line.bottom)
                or (line.top < bottom <= line.bottom)
                or (line.top >= top and line.bottom <= bottom)
            )
            if ok:
                line.top = min(line.top, top)
                line.bottom = max(line.bottom, bottom)
                line.left_border = min(line.left_border, left)
                line.right_border = max(line.right_border, right)
                pos = len(line.glyphs)
                for gi, cur in enumerate(line.glyphs):
                    if cur.left > left:
                        pos = gi
                        break
                line.glyphs.insert(pos, g)
                return g
        # need a new line, kept sorted by top
        new_line = Line()
        new_line.top, new_line.bottom = top, bottom
        new_line.left_border, new_line.right_border = left, right
        new_line.glyphs.append(g)
        pos = len(self._lines)
        for li, line in enumerate(self._lines):
            if line.top > bottom:
                pos = li
                break
        self._lines.insert(pos, new_line)
        return g

    # ---------------- XY-cut ---------------------------------------------
    def _row_counts(self, top: int, bottom: int, left: int, right: int) -> np.ndarray:
        """Black-pixel count of each row in [top, bottom], over cols
        [left, right) — the vectorized form of repeated isBlankRow calls."""
        ps = self._prefix()
        lo, hi = max(left, 0), max(min(right, self.w), 0)
        if hi <= lo or bottom < top:
            return np.zeros(max(bottom - top + 1, 0), dtype=np.int64)
        seg = ps[top : bottom + 2, hi] - ps[top : bottom + 2, lo]
        return seg[1:] - seg[:-1]

    def _col_counts(self, top: int, bottom: int, left: int, right: int) -> np.ndarray:
        """Black-pixel count of each col in [left, right], over rows
        [top, bottom) — the vectorized form of repeated isBlankCol calls."""
        ps = self._prefix()
        lo, hi = max(top, 0), max(min(bottom, self.h), 0)
        if hi <= lo or right < left:
            return np.zeros(max(right - left + 1, 0), dtype=np.int64)
        seg = ps[hi, left : right + 2] - ps[lo, left : right + 2]
        return seg[1:] - seg[:-1]

    def find_cells(self, top: int, bottom: int, left: int, right: int) -> None:
        """findCells (main/segment.c:278-352) with insertGlyph's line
        formation, in one call of the native ``xy_cut`` kernel: it walks
        the region over the page prefix sum in ``find_cells_py``'s exact
        order, forms the lines, updates the page stats and flags
        findLines' candidates.  Its box table becomes the column's lines,
        as table lines (see ``_materialize``).  The kernel starts from no
        lines, as ``find_lines`` does.  ``find_cells_py`` is the reference
        and runs instead when the kernels are unavailable."""
        kernels = native.load()
        if kernels is None:
            self.find_cells_py(top, bottom, left, right)
            return
        # the kernel starts a table; the reference would merge glyphs
        # into existing lines, so the two agree only from an empty page
        assert not self._lines, "xy_cut starts from no lines"
        cfg = self.cfg
        stats, boxes, lines, too_tall = kernels.xy_cut(
            self._prefix(), (top, bottom, left, right),
            (cfg.min_glyph_width, cfg.min_glyph_height, cfg.min_glyph_area,
             cfg.max_glyph_width, cfg.max_glyph_height, cfg.some_dark,
             int(bool(cfg.may_combine))),
            (self.left_margin, self.right_margin, self.total_width,
             self.total_height, self.glyph_count, self.glyph_width,
             self.glyph_height),
        )
        (self.left_margin, self.right_margin, self.total_width,
         self.total_height, self.glyph_count, self.glyph_width,
         self.glyph_height) = stats
        if lines:
            self._table = _BoxTable(boxes, lines)
            self._lines = list(range(len(lines)))
        if too_tall:
            raise RuntimeError(_too_tall_message(too_tall, cfg))

    def find_cells_py(self, top: int, bottom: int, left: int,
                      right: int) -> None:
        """findCells (main/segment.c:278-352), iterative with the exact
        recursion order (lower/right halves processed first); the
        reference for the native ``xy_cut`` kernel.  The blank
        row/col probes of the C loops are replaced by whole-region count
        arrays off the page prefix sum — same decisions, O(1) per probe.

        Each stack entry carries a ``clean`` axis flag: a child produced
        by a row split consists of one maximal run of non-blank rows, and
        (by the same invariant the trims rely on — removing blank
        columns cannot blank a row, and vice versa) those rows STAY
        non-blank after the child's column trim, so the child's row scan
        is provably a no-op (no trim, no row breaks) and is skipped; the
        symmetric holds for column-split children.  Same leaf set,
        roughly half the scans.

        Column-split children (the per-glyph leaves — the bulk of the
        stack traffic) are processed in one vectorized pass per split via
        :meth:`_process_col_runs`; depth-first order is preserved by
        recursing into :meth:`_run_stack` for the rare children that
        split further, so glyph insertion order — which line formation
        depends on — is identical to the plain stack walk."""
        self._run_stack([(top, bottom, left, right, 0)])

    def _run_stack(
        self, stack: list[tuple[int, int, int, int, int]]
    ) -> None:
        """The findCells stack walk over an explicit initial stack."""
        cfg = self.cfg
        ROWS_CLEAN, COLS_CLEAN = 1, 2
        while stack:
            top, bottom, left, right, clean = stack.pop()
            # off-image rows/cols are blank (cf. _count); clamp so the
            # count-array slices stay in range (multi-column pages pass
            # right == width for the last column)
            top, left = max(top, 0), max(left, 0)
            bottom, right = min(bottom, self.h - 1), min(right, self.w - 1)
            if bottom < top or right < left:
                continue
            # Trim + split from ONE scan per axis.  The C recursion trims
            # blank borders then splits at one blank line nearest the middle
            # and recurses; blank structure along one axis is invariant
            # under trimming/splitting along the other (removed rows/cols
            # are blank across the whole region), so the leaf set equals
            # the maximal non-blank RUN decomposition, and the runs of the
            # pre-row-trim column scan remain valid afterwards.
            if clean == COLS_CLEAN:
                nzc = None  # single gapless run, already col-trimmed
            else:
                colc = self._col_counts(top, bottom, left, right)
                nzc = np.nonzero(colc)[0]
                if not len(nzc):
                    continue  # fully blank region
                base_left = left
                left, right = left + int(nzc[0]), left + int(nzc[-1])
            if clean == ROWS_CLEAN:
                nzr = None  # single gapless run, already row-trimmed
            else:
                rowc = self._row_counts(top, bottom, left, right)
                nzr = np.nonzero(rowc)[0]
                if not len(nzr):
                    continue
                top, bottom = top + int(nzr[0]), top + int(nzr[-1])
            height = bottom + 1 - top
            width = right + 1 - left
            if (
                width < cfg.min_glyph_width
                or height < cfg.min_glyph_height
                or height * width < cfg.min_glyph_area
            ):
                continue
            if nzr is not None:
                rbreaks = np.nonzero(nzr[1:] - nzr[:-1] > 1)[0]
                if len(rbreaks):
                    starts = np.concatenate(([nzr[0]], nzr[rbreaks + 1]))
                    ends = np.concatenate((nzr[rbreaks], [nzr[-1]]))
                    # nzr is relative to the PRE-trim top (trim shifted top
                    # by nzr[0], so rebase against the original offset)
                    base_top = top - int(nzr[0])
                    for s, e in zip(starts, ends):
                        stack.append(
                            (base_top + int(s), base_top + int(e),
                             left, right, ROWS_CLEAN)
                        )
                    continue
            if nzc is not None:
                cbreaks = np.nonzero(nzc[1:] - nzc[:-1] > 1)[0]
                if len(cbreaks):
                    starts = np.concatenate(([nzc[0]], nzc[cbreaks + 1]))
                    ends = np.concatenate((nzc[cbreaks], [nzc[-1]]))
                    self._process_col_runs(
                        top, bottom, base_left, starts, ends
                    )
                    continue
            if (right + 1 - left > cfg.max_glyph_width) or (
                bottom - top > cfg.max_glyph_height
            ):
                # findLinesHarder (segment.c:354-382): rows [top, bottom)
                row_counts = self._row_counts(top, bottom - 1, left, right)
                if len(row_counts):
                    min_black_row = top + int(np.argmin(row_counts))
                    if row_counts[min_black_row - top] < cfg.some_dark:
                        if bottom - (min_black_row + 1) >= cfg.min_glyph_height:
                            stack.append((min_black_row + 1, bottom, left, right, 0))
                        if min_black_row - 1 - top >= cfg.min_glyph_height:
                            # pushed second so the upper half runs first,
                            # matching the C call order
                            stack.append((top, min_black_row - 1, left, right, 0))
                continue
            self.insert_glyph(left, right + 1, top, bottom + 1)

    def _process_col_runs(
        self,
        top: int,
        bottom: int,
        base_left: int,
        starts: np.ndarray,
        ends: np.ndarray,
    ) -> None:
        """Vectorized processing of one column split's children.

        Each (start, end) col run is a COLS_CLEAN child of the stack walk:
        it needs exactly one row scan (trim + interior-gap check), a size
        gate, and — in the overwhelmingly common single-run case — one
        insert_glyph.  All G row scans come off the page prefix sum as a
        single (H, G) count matrix, with trims / run counts / size gates
        computed across the whole split at once.  Children are then
        visited right-to-left (the stack's pop order) and the rare child
        that splits further (multi-part glyph: i, j, :, =) or exceeds the
        max-glyph box recurses into :meth:`_run_stack` — depth-first, so
        everything it inserts lands before the next sibling, exactly as
        the LIFO walk orders it."""
        cfg = self.cfg
        ps = self._prefix()
        los = base_left + starts.astype(np.int64)  # inclusive left cols
        his = base_left + ends.astype(np.int64)    # inclusive right cols
        sl = ps[top : bottom + 2]
        seg = sl[:, his + 1] - sl[:, los]          # (H+1, G) cumulative
        mask = (seg[1:] - seg[:-1]) > 0            # (H, G) non-blank rows
        H = mask.shape[0]
        top_off = mask.argmax(axis=0)
        bot_off = H - 1 - mask[::-1].argmax(axis=0)
        run_cnt = (mask[1:] & ~mask[:-1]).sum(axis=0) + mask[0]
        heights = bot_off - top_off + 1
        widths = his - los + 1
        ok = (
            (widths >= cfg.min_glyph_width)
            & (heights >= cfg.min_glyph_height)
            & (heights * widths >= cfg.min_glyph_area)
        )
        big = (widths > cfg.max_glyph_width) | (
            heights - 1 > cfg.max_glyph_height
        )
        # plain-int lists: per-element numpy scalar extraction in the loop
        # below costs more than the whole batched scan for typical G~12
        ok = ok.tolist()
        big = big.tolist()
        run_cnt = run_cnt.tolist()
        top_l = top_off.tolist()
        bot_l = bot_off.tolist()
        los_l = los.tolist()
        his_l = his.tolist()
        for g in range(len(starts) - 1, -1, -1):
            if not ok[g]:
                continue
            lo, hi = los_l[g], his_l[g]
            if run_cnt[g] > 1:
                # interior blank rows: same pushes the scalar walk makes
                # (row runs in scan order, ROWS_CLEAN), run to completion
                # before the next sibling (LIFO == depth-first)
                m = mask[:, g]
                rs = np.nonzero(m & ~np.concatenate(([False], m[:-1])))[0]
                re_ = np.nonzero(m & ~np.concatenate((m[1:], [False])))[0]
                self._run_stack(
                    [
                        (top + int(s), top + int(e), lo, hi, 1)
                        for s, e in zip(rs, re_)
                    ]
                )
            elif big[g]:
                # oversize single-run child: the findLinesHarder branch;
                # re-enter the scalar walk on the trimmed box (COLS_CLEAN;
                # its row re-scan is an idempotent no-op trim)
                self._run_stack(
                    [(top + top_l[g], top + bot_l[g], lo, hi, 2)]
                )
            else:
                self.insert_glyph(
                    lo, hi + 1, top + top_l[g], top + bot_l[g] + 1
                )

    # ---------------- flood fill (run-based CCL) --------------------------
    def flood_find_glyphs(self) -> int:
        """floodFindGlyphs (segment.c:1835-1864): 8-connected components in
        the column window [leftBorder, rightBorder), discovered in raster
        order, size-filtered, with per-row left/right paths and the
        maxGlyphHeight bbox cap of floodRecur (segment.c:1781-1791).
        Marks every flooded pixel (value 2)."""
        cfg = self.cfg
        lb, rb = self.left_border, self.right_border
        win = self.image[:, lb:rb] == 1
        parent: list[int] = []

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a: int, b: int) -> None:
            ra, rb_ = find(a), find(b)
            if ra != rb_:
                parent[max(ra, rb_)] = min(ra, rb_)

        runs: list[tuple[int, int, int, int]] = []  # (row, start, end, run_id)
        prev_row_runs: list[tuple[int, int, int]] = []  # (start, end, run_id)
        for row in range(self.h):
            r = win[row]
            if not r.any():
                prev_row_runs = []
                continue
            d = np.diff(np.concatenate(([0], r.astype(np.int8), [0])))
            starts = np.nonzero(d == 1)[0]
            ends = np.nonzero(d == -1)[0]
            cur: list[tuple[int, int, int]] = []
            for s, e in zip(starts.tolist(), ends.tolist()):
                rid = len(parent)
                parent.append(rid)
                runs.append((row, s, e, rid))
                # 8-connectivity with exclusive ends: runs [ps,pe) and
                # [s,e) touch (incl. diagonally) iff ps <= e and s <= pe
                for ps, pe, prid in prev_row_runs:
                    if ps <= e and s <= pe:
                        union(rid, prid)
                cur.append((s, e, rid))
            prev_row_runs = cur

        # group runs by component root, ordered by first-encounter raster pos
        comps: dict[int, list[tuple[int, int, int]]] = {}
        order: list[int] = []
        for row, s, e, rid in runs:
            root = find(rid)
            if root not in comps:
                comps[root] = []
                order.append(root)
            comps[root].append((row, s, e))
        count = 0
        for root in order:
            comp = comps[root]
            top = comp[0][0]  # runs appended in raster order
            cap = top + cfg.max_glyph_height
            left_path = np.full(cfg.max_glyph_height, INFTY, dtype=np.int64)
            right_path = np.full(cfg.max_glyph_height, -1, dtype=np.int64)
            bottom = top + 1
            left, right = INFTY, -INFTY
            for row, s, e, in comp:
                if row - top < cfg.max_glyph_height:
                    bottom = max(bottom, row + 1)
                    left_path[row - top] = min(left_path[row - top], s + lb)
                    right_path[row - top] = max(right_path[row - top], e - 1 + lb + 1)
                    left = min(left, s + lb)
                    right = max(right, e + lb)
            width = right - left
            height = bottom - top
            if (
                width < cfg.min_glyph_width
                or height < cfg.min_glyph_height
                or width * height < cfg.min_glyph_area
            ):
                continue
            g = self.insert_glyph(left, right, top, bottom)
            g.left_path = left_path[:height].copy()
            g.right_path = right_path[:height].copy()
            count += 1
        # mark all flooded pixels, like floodRecur's MARK
        sub = self.image[:, lb:rb]
        sub[sub == 1] = 2
        self._ps = None  # counts unaffected (non-zero either way) but be safe
        return count

    def unmark(self) -> None:
        """unMark (segment.c:1866-1876)."""
        sub = self.image[:, self.left_border : self.right_border + 1]
        sub[sub == 2] = 1
        self._ps = None

    # ---------------- column borders --------------------------------------
    def compute_borders(self, column: int) -> None:
        """computeBorders (main/segment.c:775-843)."""
        cfg = self.cfg
        if cfg.columns == 1:
            self.left_border = 0
            self.right_border = self.w - 1
            return
        spread = self.w // (2 * cfg.columns)
        rtl = self.index.rtl
        if rtl and column < cfg.columns - 1:
            self.right_border = self._prev_left_border
            self.left_border = -1
        elif not rtl and column > 0:
            self.left_border = self._prev_right_border
            self.right_border = -1
        else:
            self.left_border = -1
            self.right_border = -1

        def count_col(col: int) -> int:
            # countNonBlankCol over rows [0, height-1) — reference passes
            # height-1 as the exclusive bound (segment.c:797)
            return self._count(0, self.h - 1, col, col + 1)

        if self.right_border == -1:
            high_mark = (column + 1) * self.w // cfg.columns
            if count_col(high_mark) == 0:
                self.right_border = high_mark
            else:
                self.right_border = 0
                best = INFTY
                for dp in range(max(0, high_mark - spread), min(high_mark + spread, self.w)):
                    c = count_col(dp)
                    if c <= best and abs(dp - high_mark) < abs(self.right_border - high_mark):
                        best = c
                        self.right_border = dp
        if self.left_border == -1:
            low_mark = column * self.w // cfg.columns
            if count_col(low_mark) == 0:
                self.left_border = low_mark
            else:
                self.left_border = self.w
                best = INFTY
                for dp in range(max(0, low_mark - spread), min(low_mark + spread, self.w)):
                    c = count_col(dp)
                    if c <= best and abs(dp - low_mark) < abs(self.left_border - low_mark):
                        best = c
                        self.left_border = dp
        self._prev_left_border = self.left_border
        self._prev_right_border = self.right_border

    # ---------------- vertical line logic ---------------------------------
    def overlap_vertical(self, f: Line | None, s: Line | None) -> bool:
        """overlapVertical (segment.c:413-430)."""
        if f is None or s is None:
            return False
        return self._overlap_bounds(f.top, f.bottom, s.top, s.bottom)

    def _overlap_bounds(self, f_top: int, f_bottom: int, s_top: int,
                        s_bottom: int) -> bool:
        """overlapVertical on two lines' (top, bottom)."""
        if s_top <= f_bottom <= s_bottom:
            return True
        if f_top <= s_bottom <= f_bottom:
            return True
        combined = max(f_bottom, s_bottom) - min(f_top, s_top)
        return combined < 2 * self.glyph_height

    def _overlaps_next(self, i: int) -> bool:
        """overlapVertical of ``_lines[i]`` and ``_lines[i + 1]``.  Two
        neighbouring table lines are neighbours in the table too, whose
        flag holds the answer."""
        f, s = self._lines[i], self._lines[i + 1]
        if type(f) is int and type(s) is int:
            return bool(self._table.lines[f][_BoxTable.FLAGS]
                        & XF_OVERLAPS_NEXT)
        return self._overlap_bounds(*self._bounds(i), *self._bounds(i + 1))

    def vertically_close(self, g: Glyph, line: Line, next_line: Line | None) -> bool:
        """verticallyClose (segment.c:461-505)."""
        if not line.glyphs:
            return True
        if g.top <= line.bottom <= g.bottom:
            return True
        if line.top <= g.bottom <= line.bottom:
            return True
        old_height = max(line.height, g.height)
        if line.bottom < g.top:
            distance = g.top - line.bottom
        else:
            distance = line.top - g.bottom
        if distance < old_height // 5:
            if next_line is not None:
                if next_line.top - g.bottom < g.top - line.bottom:
                    return False
            return True
        return False

    def combine_lines(self, i: int) -> int:
        """combineLines (segment.c:520-601): redistribute glyphs of
        lines[i] and lines[i+1] into 1+ fresh lines; returns the index of
        the LAST resulting line (the C function's return pointer)."""
        first = list(self._lines[i].glyphs)
        second = list(self._lines[i + 1].glyphs)
        out: list[Line] = [Line()]
        fi = si = 0
        while fi < len(first) or si < len(second):
            if fi >= len(first):
                g = second[si]; si += 1
            elif si >= len(second):
                g = first[fi]; fi += 1
            elif first[fi].left < second[si].left:
                g = first[fi]; fi += 1
            else:
                g = second[si]; si += 1
            li = 0
            while not self.vertically_close(
                g, out[li], out[li + 1] if li + 1 < len(out) else None
            ):
                if li + 1 >= len(out):
                    out.append(Line())
                li += 1
            cur = out[li]
            cur.glyphs.append(g)
            if cur.top == -1:
                cur.top, cur.bottom = g.top, g.bottom
            else:
                cur.top = min(cur.top, g.top)
                cur.bottom = max(cur.bottom, g.bottom)
        for line in out:
            line.adjust_stats()
        self._lines[i : i + 2] = out
        return i + len(out) - 1

    def copy_glyph(self, g: Glyph, new_lines: list[Line]) -> None:
        """copyGlyph (segment.c:689-737)."""
        ng = g.shallow_copy()
        for line in new_lines:
            prev = line.glyphs[-1]
            ydistance = min(abs(ng.top - prev.top), abs(ng.bottom - prev.bottom))
            if ydistance > 2 * self.glyph_height // 3:
                continue
            line.glyphs.append(ng)
            line.top = min(line.top, ng.top)
            line.left_border = min(line.left_border, ng.left)
            line.bottom = max(line.bottom, ng.bottom)
            line.right_border = max(line.right_border, ng.right)
            return
        pos = len(new_lines)
        for li, line in enumerate(new_lines):
            if line.top > ng.top:
                pos = li
                break
        nl = Line()
        nl.glyphs.append(ng)
        nl.top, nl.bottom = ng.top, ng.bottom
        nl.left_border, nl.right_border = ng.left, ng.right
        new_lines.insert(pos, nl)

    def split_line(self, i: int) -> None:
        """splitLine (segment.c:739-771)."""
        new_lines: list[Line] = []
        for g in self._lines[i].glyphs:
            self.copy_glyph(g, new_lines)
        self._lines[i : i + 1] = new_lines
        # the reference refills only the replaced line and its successor
        # (segment.c:769-770), and refillLine's loop bound skips the LAST
        # glyph of each line (segment.c:434-441).  In batch flow tuples
        # are still None here (buildTuples runs later) so this is a no-op
        # either way; reproduced for the interactive redo flow's sake.
        for line in self._lines[i : i + 2]:
            if type(line) is int:  # still in the box table: no tuples
                continue
            for g in line.glyphs[:-1]:
                if g.tuple is not None:
                    refill_tuple(
                        g.tuple, g.left, g.right, g.top, g.bottom,
                        g.line_height, self.glyph_height,
                    )

    # ---------------- horizontal combine -----------------------------------
    def overlap_horizontal(self, first: Glyph | None, second: Glyph | None) -> bool:
        """overlapHorizontal (segment.c:384-409)."""
        if not self.cfg.may_combine:
            return False
        if first is None or second is None:
            return False
        if (second.left <= first.right <= second.right) or (
            first.left <= second.right <= first.right
        ):
            new_height = min(first.top - second.bottom, second.top - first.bottom)
            if new_height > self.glyph_height // 2 or new_height > self.cfg.max_glyph_height:
                return False
            return True
        return False

    def combine_glyphs(self, first: Glyph, second: Glyph) -> Glyph:
        """combineGlyphs (segment.c:845-905)."""
        ans = Glyph(
            min(first.left, second.left),
            max(first.right, second.right),
            min(first.top, second.top),
            max(first.bottom, second.bottom),
        )
        ans.line_height = first.line_height
        first_height, second_height = first.height, second.height
        if (
            first.left_path is not None or first.right_path is not None
            or second.left_path is not None or second.right_path is not None
        ):
            n = ans.height
            lp = np.empty(n, dtype=np.int64)
            rp = np.empty(n, dtype=np.int64)
            for k, row in enumerate(range(ans.top, ans.bottom)):
                fo = row - first.top
                so = row - second.top
                left_value = INFTY
                if first.left_path is not None and 0 <= fo < first_height:
                    left_value = min(left_value, int(first.left_path[fo]))
                if second.left_path is not None and 0 <= so < second_height:
                    left_value = min(left_value, int(second.left_path[so]))
                if left_value == INFTY:
                    left_value = min(first.left, second.left)
                lp[k] = left_value
                right_value = 0
                if first.right_path is not None and 0 <= fo < first_height:
                    right_value = max(right_value, int(first.right_path[fo]))
                if second.right_path is not None and 0 <= so < second_height:
                    right_value = max(right_value, int(second.right_path[so]))
                if right_value == 0:
                    right_value = max(first.right, second.right)
                rp[k] = right_value
            ans.left_path, ans.right_path = lp, rp
        self.calculate_distance(ans)
        return ans

    # ---------------- bbox tightening --------------------------------------
    def narrow_glyph(self, g: Glyph) -> None:
        """narrowGlyph (segment.c:1122-1208), including its top-scan +1 /
        bottom-scan no-+1 rightPath asymmetry."""
        top = g.top
        new_top = top
        while new_top < g.bottom:
            left = int(g.left_path[new_top - top]) if g.left_path is not None else g.left
            right = (
                int(g.right_path[new_top - top]) + 1
                if g.right_path is not None
                else g.right
            )
            if right - left < 1:
                new_top += 1
                continue
            if not self.is_blank_row(new_top, left, right):
                break
            new_top += 1
        lowering = new_top - top
        if lowering:
            n = g.height - lowering
            if g.left_path is not None:
                g.left_path = np.array(g.left_path[lowering : lowering + n])
            if g.right_path is not None:
                g.right_path = np.array(g.right_path[lowering : lowering + n])
            g.top = new_top
            top = new_top
        new_bottom = g.bottom - 1
        while new_bottom > top:
            left = int(g.left_path[new_bottom - top]) if g.left_path is not None else g.left
            right = (
                int(g.right_path[new_bottom - top])
                if g.right_path is not None
                else g.right
            )
            if not self.is_blank_row(new_bottom, left, right):
                break
            new_bottom -= 1
        g.bottom = new_bottom + 1
        if g.left_path is not None:
            new_left = g.right
            for row in range(top, g.bottom):
                start = max(g.left, int(g.left_path[row - top]))
                seg = self.image[row, start:new_left]
                nz = np.nonzero(seg)[0]
                if nz.size:
                    new_left = start + int(nz[0])
            g.left = new_left
        if g.right_path is not None:
            new_right = g.left
            for row in range(top, g.bottom):
                stop = int(g.right_path[row - top])
                if stop > new_right:
                    seg = self.image[row, new_right + 1 : stop + 1]
                    nz = np.nonzero(seg)[0]
                    if nz.size:
                        new_right = new_right + 1 + int(nz[-1])
            g.right = new_right + 1

    # ---------------- wide-glyph splitting ---------------------------------
    def try_path_separation(self, g: Glyph) -> np.ndarray | None:
        """tryPathSeparation (segment.c:1564-1650)."""
        height = g.height
        positions = np.empty(height, dtype=np.int64)
        img = self.image
        top = g.top
        # the C's "bad starting place" probe reads (yIndex, xStart) where
        # yIndex is STALE — the final row of the previous failed walk, only
        # reset to top AFTER the check (segment.c:1577-1585).  Deterministic,
        # so mirrored: state carried across start columns AND between the
        # forward and backward passes.
        stale_y = top

        def walk(prefer_left: bool) -> np.ndarray | None:
            nonlocal stale_y
            for x_start in range(g.left, g.right):
                if img[stale_y, x_start] != 0:
                    continue
                positions[0] = x_start
                y = top
                while y != g.bottom - 1:
                    x = int(positions[y - top])
                    if prefer_left:
                        cond = (x_start - x) * self.cfg.slant < (y - top)
                    else:
                        cond = (x - x_start) * self.cfg.slant < (y - top)
                    moved = False
                    # move order depends on the slant condition
                    order_pref = (
                        ["DL", "D", "DR", "DLL", "DRR"]
                        if prefer_left
                        else ["DR", "D", "DL", "DRR", "DLL"]
                    )
                    order_straight = (
                        ["D", "DL", "DR", "DLL", "DRR"]
                        if prefer_left
                        else ["D", "DR", "DL", "DRR", "DLL"]
                    )
                    for mv in (order_pref if cond else order_straight):
                        if mv == "D" and img[y + 1, x] == 0:
                            y += 1
                            positions[y - top] = x
                            moved = True
                            break
                        if (
                            mv == "DL" and x > g.left
                            and img[y, x - 1] == 0 and img[y + 1, x - 1] == 0
                        ):
                            y += 1
                            positions[y - top] = x - 1
                            moved = True
                            break
                        if (
                            mv == "DR" and x < g.right - 1
                            and img[y, x + 1] == 0 and img[y + 1, x + 1] == 0
                        ):
                            y += 1
                            positions[y - top] = x + 1
                            moved = True
                            break
                        if (
                            mv == "DLL" and x > g.left + 1
                            and img[y, x - 1] == 0 and img[y, x - 2] == 0
                            and img[y + 1, x - 2] == 0
                        ):
                            positions[y - top] = x - 1
                            y += 1
                            positions[y - top] = x - 2
                            moved = True
                            break
                        if (
                            mv == "DRR" and x < g.right - 2
                            and img[y, x + 1] == 0 and img[y, x + 2] == 0
                            and img[y + 1, x + 2] == 0
                        ):
                            positions[y - top] = x + 1
                            y += 1
                            positions[y - top] = x + 2
                            moved = True
                            break
                    if not moved:
                        break
                stale_y = y  # next start column's probe row (C quirk)
                if y == g.bottom - 1:
                    return positions.copy()
            return None

        result = walk(prefer_left=True)
        if result is not None:
            return result
        return walk(prefer_left=False)

    def build_slanted_path(self, g: Glyph, x_start: int) -> np.ndarray:
        """buildSlantedPath (segment.c:1721-1732)."""
        height = g.height
        positions = np.empty(height, dtype=np.int64)
        x = x_start
        for y_off in range(height):
            if x_start - x < y_off / self.cfg.slant:
                x -= 1
            x = max(x, g.left)
            positions[y_off] = x
        return positions

    def evaluate_path_split(self, g: Glyph, split_path: np.ndarray) -> tuple[Glyph, float]:
        """evaluatePathSplit (segment.c:1210-1222): build the 'first' half."""
        first = g.shallow_copy()
        first.left_path = copy_path(g.left_path, first.height)
        first.right_path = copy_path(split_path, first.height)
        self.narrow_glyph(first)
        first.tuple = None
        self._fill_tuple(first)
        return first, self.ocr_distance2(first.tuple)

    def finish_path_split(
        self, line: Line, gi: int, first: Glyph, split_path: np.ndarray
    ) -> None:
        """finishPathSplit (segment.c:1748-1764)."""
        g = line.glyphs[gi]
        second = g.shallow_copy()
        second.left_path = copy_path(split_path, second.height)
        second.right_path = copy_path(g.right_path, second.height)
        self.narrow_glyph(second)
        second.tuple = None
        self._fill_tuple(second)
        first.distance = -1.0
        second.distance = -1.0
        line.glyphs[gi] = first
        line.glyphs.insert(gi + 1, second)

    def split_wide_glyphs(self) -> None:
        """splitWideGlyphs (segment.c:1224-1386).  A table line whose
        glyphs all fail the first test (wider than ``splittable`` glyph
        widths and farther than ``good_match2`` from the font, by
        classify's dist²) is left as it is."""
        t = self._table
        if t is not None and t.dist2 is not None:
            cand = self._split_candidates()
            if cand.any():
                self._materialize_lines(t.line_of(np.flatnonzero(cand)))
        else:  # no dist² to test on: every line as objects
            self._materialize_all()
        for line in self._lines:
            if type(line) is not int:
                self._split_wide_line(line)

    def _split_candidates(self) -> np.ndarray:
        """Per table row: the first test of splitWideGlyphs, on the row's
        width and classify's dist²."""
        cfg, t = self.cfg, self._table
        width = t.box[:, 1] - t.box[:, 0]
        return (width > cfg.splittable * self.glyph_width) & (
            t.dist2.astype(np.float64) > cfg.good_match2)

    def _split_wide_line(self, line: Line) -> None:
        """The body of splitWideGlyphs for one line."""
        cfg = self.cfg
        gi = 0
        while gi < len(line.glyphs):
            g = line.glyphs[gi]
            if not (
                g.right - g.left > cfg.splittable * self.glyph_width
                and self.ocr_distance2(g.tuple) > cfg.good_match2
            ):
                gi += 1
                continue
            handled = False
            if not cfg.use_flood:
                split_path = self.try_path_separation(g)
                if split_path is not None:
                    first, cost = self.evaluate_path_split(g, split_path)
                    # NOTE: the reference compares dist² against the
                    # UN-squared minMatch here (segment.c:1247)
                    if cost < cfg.min_match:
                        self.finish_path_split(line, gi, first, split_path)
                        gi += 1
                        handled = True
            if handled:
                continue
            gap = cfg.min_glyph_width // cfg.split_gap
            best_cost = 2 * cfg.min_match
            first_ocr2 = 2 * cfg.min_match
            best_split_point = None
            for split_point in range(
                g.left + cfg.min_glyph_width, g.right - cfg.min_glyph_width
            ):
                first = g.shallow_copy()
                first.left_path = copy_path(g.left_path, first.height)
                first.right_path = None
                first.right = split_point - gap
                second = g.shallow_copy()
                second.left = split_point + gap
                second.left_path = copy_path(g.left_path, second.height)
                second.right_path = copy_path(g.right_path, second.height)
                self.narrow_glyph(first)
                self.narrow_glyph(second)
                first.tuple = None
                second.tuple = None
                self._fill_tuple(first)
                self._fill_tuple(second)
                d_first = self.ocr_distance2(first.tuple)
                the_distance = d_first + self.ocr_distance2(second.tuple)
                if the_distance <= best_cost:
                    best_cost = the_distance
                    first_ocr2 = d_first
                    best_split_point = split_point
            if first_ocr2 < cfg.min_match2 and best_split_point is not None:
                second = g.shallow_copy()
                second.left = best_split_point + gap
                second.left_path = None
                second.right_path = g.right_path
                second.tuple = None
                g.right = best_split_point - gap
                g.right_path = None
                self.narrow_glyph(g)
                self.narrow_glyph(second)
                g.tuple = None
                self._fill_tuple(g)
                self._fill_tuple(second)
                g.distance = -1.0
                second.distance = -1.0
                line.glyphs.insert(gi + 1, second)
                gi += 1
                continue
            # slanted split sweep
            split_path = self.build_slanted_path(
                g, int(g.left + g.height / cfg.slant + cfg.min_glyph_width)
            )
            best_cost = 2 * cfg.min_match
            best_split_point = None
            for split_point in range(
                int(split_path[0]), g.right - cfg.min_glyph_width
            ):
                _, first_cost = self.evaluate_path_split(g, split_path)
                if first_cost < cfg.min_match and first_cost < best_cost:
                    best_cost = first_cost
                    best_split_point = split_point
                split_path = split_path + 1  # shiftRight
            if best_cost < cfg.min_match and best_split_point is not None:
                split_path = self.build_slanted_path(g, best_split_point)
                first, _ = self.evaluate_path_split(g, split_path)
                self.finish_path_split(line, gi, first, split_path)
            gi += 1

    # ---------------- narrow-glyph combining --------------------------------
    def narrow_glyphs(self) -> None:
        """narrowGlyphs (segment.c:1414-1476).  A table line without two
        neighbours at most ``min_glyph_width`` apart of which one is
        farther than ``good_match2`` from the font (by classify's dist²)
        is left as it is."""
        t = self._table
        if t is not None and t.dist2 is not None:
            cand = self._narrow_candidates()
            if cand.any():
                self._materialize_lines(t.line_of(np.flatnonzero(cand)))
        else:  # no dist² to test on: every line as objects
            self._materialize_all()
        for line in self._lines:
            if type(line) is not int:
                self._narrow_line(line)

    def _narrow_candidates(self) -> np.ndarray:
        """Per table row r but the last: whether narrowGlyphs would try to
        combine r with r + 1, on their gap and classify's dist² (never
        across the end of a line)."""
        cfg, t = self.cfg, self._table
        weak = t.dist2.astype(np.float64) > cfg.good_match2
        gap = t.box[1:, 0] - t.box[:-1, 1]
        cand = (gap <= cfg.min_glyph_width) & (weak[:-1] | weak[1:])
        cand[t.start[1:-1] - 1] = False  # the last glyph of a line
        return cand

    def _narrow_line(self, line: Line) -> None:
        """The body of narrowGlyphs for one line."""
        cfg = self.cfg
        gi = 0
        while gi < len(line.glyphs) - 1:
            g = line.glyphs[gi]
            nxt = line.glyphs[gi + 1]
            if nxt.left - g.right > cfg.min_glyph_width:
                gi += 1
                continue
            my2 = self.ocr_distance2(g.tuple)
            next2 = self.ocr_distance2(nxt.tuple)
            if my2 > cfg.good_match2 or next2 > cfg.good_match2:
                combined = self.combine_glyphs(g, nxt)
                comb2 = self.ocr_distance2(combined.tuple)
                if comb2 < cfg.good_match2:
                    line.glyphs[gi] = combined
                    del line.glyphs[gi + 1]
                elif (
                    gi + 2 < len(line.glyphs)
                    and line.glyphs[gi + 2].left - nxt.right < cfg.min_glyph_width
                ):
                    nn2 = self.ocr_distance2(line.glyphs[gi + 2].tuple)
                    if nn2 > cfg.good_match2:
                        ccombined = self.combine_glyphs(
                            combined, line.glyphs[gi + 2]
                        )
                        cc2 = self.ocr_distance2(ccombined.tuple)
                        if cc2 < cfg.good_match2:
                            line.glyphs[gi] = ccombined
                            del line.glyphs[gi + 1 : gi + 3]
            gi += 1

    # ---------------- orchestration ----------------------------------------
    def find_lines(self, column: int) -> bool:
        """findLines (segment.c:920-1058).  Table lines that no test
        picks (see ``find_cells``) count their glyphs and widths from the
        table and never become objects."""
        cfg = self.cfg
        self.left_margin = INFTY
        self.right_margin = 0
        self.lines = []
        self.compute_borders(column)
        if cfg.use_flood:
            self.flood_find_glyphs()
        else:
            self.find_cells(0, self.h - 1, self.left_border, self.right_border)

        lines = self._lines  # edited in place below
        num_glyphs = 0
        line_number = 0
        total_width = 0
        total_height = 0
        i = 0
        while i < len(lines):
            j = i
            while j + 1 < len(lines) and self._overlaps_next(j):
                self._materialize(j)
                self._materialize(j + 1)
                j = self.combine_lines(j)
            top, bottom = self._bounds(i)
            line_height = bottom - top
            total_height += line_height
            row = self._table.lines[lines[i]] if type(lines[i]) is int \
                else None
            if row is not None and not row[_BoxTable.FLAGS] & XF_COMBINES:
                # no neighbours overlap: one counting pass, no combine
                num_glyphs += row[_BoxTable.COUNT]
                total_width += row[_BoxTable.WIDTH]
            else:
                n, width = self._combine_in_line(self._materialize(i),
                                                 line_height)
                num_glyphs += n
                total_width += width
            line_number += 1
            i += 1

        # tall-line splitting (segment.c:1033-1049)
        if line_number:
            avg_height = total_height / line_number
            i = 0
            while i < len(lines):
                top, bottom = self._bounds(i)
                if bottom - top > 1.5 * avg_height:
                    self._materialize(i)
                    self.split_line(i)
                if type(lines[i]) is not int:
                    line_height = lines[i].height
                    for g in lines[i].glyphs:
                        g.line_height = line_height
                i += 1
        t = self._table
        if t is not None:  # a table line's glyphs take its height
            heights = [ln[1] - ln[0] for ln in t.lines]
            t.line_height = np.repeat(np.array(heights, dtype=np.int64),
                                      np.diff(t.start))
        if num_glyphs == 0:
            return False
        self.glyph_width = total_width // num_glyphs
        return True

    def _combine_in_line(self, line: Line, line_height: int) -> tuple[int, int]:
        """findLines' horizontal combine of one line (segment.c:985-1030);
        returns the glyph count and width it adds to the page's glyph
        width average."""
        cfg = self.cfg
        num_glyphs = 0
        total_width = 0
        changed = True
        while changed:
            changed = False
            gi = 0
            while gi < len(line.glyphs):
                g = line.glyphs[gi]
                g.line_height = line_height
                while gi + 1 < len(line.glyphs) and self.overlap_horizontal(
                    g, line.glyphs[gi + 1]
                ):
                    nxt = line.glyphs[gi + 1]
                    if nxt.right - g.left > cfg.max_glyph_width:
                        break
                    new_glyph = self.combine_glyphs(g, nxt)
                    if new_glyph.height > cfg.max_glyph_height:
                        break
                    self.calculate_distance(g)
                    self.calculate_distance(nxt)
                    if not cfg.always_combine and new_glyph.distance > max(
                        g.distance, nxt.distance
                    ):
                        break
                    line.glyphs[gi] = new_glyph
                    del line.glyphs[gi + 1]
                    g = new_glyph
                    changed = True
                # NOTE: faithfully reproduces the reference's recount of
                # the whole line on every pass of the while(changed)
                # loop (segment.c:988-1030) — numGlyphs/totalWidth are
                # overcounted on lines where a combine happened, which
                # feeds the glyphWidth average used for spacing.
                num_glyphs += 1
                total_width += g.right - g.left
                gi += 1
        return num_glyphs, total_width

    def build_tuples(self) -> None:
        """buildTuples (main/categorize.c:158-168): fresh tuples for all.

        Path-free glyphs (the overwhelming majority) are featurized in one
        call over the page prefix sum, by the native ``glyph_tuples``
        kernel or, without the kernels, by its reference
        ``features.fill_tuples_py`` (see ``features.fill_tuples``): the
        whole box table in one call, line objects' glyphs in another.
        Glyphs carrying cut paths use the scalar path-aware
        ``fill_tuple``.  Same arithmetic."""
        t = self._table
        if t is not None:
            lh = t.line_height
            if lh is None:  # before find_lines: no line heights yet
                lh = np.zeros(len(t.box), dtype=np.int64)
            t.tuples = fill_tuples(self._prefix(), t.box, lh,
                                   self.glyph_height)
        plain: list[Glyph] = []
        for line in self._lines:
            if type(line) is int:
                continue
            for g in line.glyphs:
                g.tuple = None
                if g.left_path is None and g.right_path is None and (
                    g.right - g.left >= 1 and g.bottom - g.top >= 1
                ):
                    plain.append(g)
                else:
                    self._fill_tuple(g)
        if plain:
            boxes = np.array(
                [(g.left, g.right, g.top, g.bottom) for g in plain],
                dtype=np.int64,
            )
            lh = np.array([g.line_height for g in plain], dtype=np.int64)
            tups = fill_tuples(self._prefix(), boxes, lh, self.glyph_height)
            for g, tup in zip(plain, tups):
                g.tuple = tup

    def classify(self) -> None:
        """ocrValue (main/kd.c:210-251) of every glyph of the column in
        one batched kNN call, after ``build_tuples``.  The box table keeps
        each row's dist² and label; a line object's glyph keeps them under
        its tuple, which ``ocr_distance2`` and ``glyph_table`` read, so
        only a glyph whose tuple a later step replaces is probed again.
        A table row whose tuple is not finite (never seen: table boxes are
        not empty) sends every line to the object code, which tests
        finiteness glyph by glyph as the reference does."""
        t = self._table
        if t is not None and not np.isfinite(t.tuples).all():
            self._materialize_all()
            self._table = t = None
        objs = [g for line in self._lines if type(line) is not int
                for g in line.glyphs]
        parts = [] if t is None else [t.tuples]
        parts += [g.tuple if g.tuple is not None else _ZERO_TUPLE
                  for g in objs]
        if not parts:
            return
        if len(parts) == 1 and t is not None:
            fmat = t.tuples  # finite, checked above
        else:
            fmat = _screened(np.vstack(parts))
        values, d2 = self.index.ocr_values(
            fmat, self.cfg.min_match, self.cfg.ignore_vertical)
        n = 0
        if t is not None:
            n = len(t.box)
            t.dist2, t.labels = d2[:n], values[:n]
        for g, k in zip(objs, range(n, len(values))):
            if g.tuple is not None:
                self._knn[id(g.tuple)] = (g.tuple, d2[k], values[k])

    def glyph_table(self) -> GlyphTable:
        """The column's glyphs in reading order, after ``classify`` and
        whatever split or narrowing followed: boxes, tuples, labels and
        dist².  Glyphs ``classify`` did not see (created or changed since)
        are classified here, in one batched call."""
        t = self._table
        if t is not None and t.labels is None:
            self._materialize_all()  # not classified: probe every glyph
        elif t is not None and all(type(e) is int for e in self._lines):
            lines = [tuple(ln[:5]) for ln in t.lines]
            return GlyphTable(t.box, t.tuples, t.tuples, t.labels, t.dist2,
                              lines)  # type: ignore[arg-type]
        boxes: list = []
        tuples: list = []
        labels: list = []
        dist2: list = []
        lines = []
        probe: list[int] = []
        for entry in self._lines:
            if type(entry) is int:
                lo, hi = int(t.start[entry]), int(t.start[entry + 1])
                lines.append(tuple(t.lines[entry][:5]))
                boxes += t.box[lo:hi].tolist()
                tuples += list(t.tuples[lo:hi])
                labels += t.labels[lo:hi]
                dist2 += t.dist2[lo:hi].tolist()
                continue
            lines.append((entry.top, entry.bottom, entry.left_border,
                          entry.right_border, len(entry.glyphs)))
            for g in entry.glyphs:
                boxes.append((g.left, g.right, g.top, g.bottom))
                tup = g.tuple if g.tuple is not None else _ZERO_TUPLE
                tuples.append(tup)
                hit = self._knn.get(id(g.tuple))
                if hit is not None and hit[0] is g.tuple:
                    labels.append(hit[2])
                    dist2.append(float(hit[1]))
                else:
                    probe.append(len(labels))
                    labels.append("")
                    dist2.append(0.0)
        n = len(boxes)
        tup_mat = (np.stack(tuples) if n else
                   np.empty((0, TUPLELENGTH), dtype=np.float32))
        fmat = _screened(tup_mat)
        if probe:
            values, d2 = self.index.ocr_values(
                fmat[probe], self.cfg.min_match, self.cfg.ignore_vertical)
            for k, v, d in zip(probe, values, d2.tolist()):
                labels[k] = v
                dist2[k] = d
        return GlyphTable(
            np.array(boxes, dtype=np.int64).reshape(n, 4), tup_mat, fmat,
            labels, np.array(dist2, dtype=np.float32), lines)
