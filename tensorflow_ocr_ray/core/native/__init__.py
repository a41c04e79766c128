"""Native kernels: ``kernels.c`` built with the system C compiler.

The library holds the page kernels and the block scan of the html
boilerplate strip.  Each kernel has a Python reference implementation
that produces the same output:

- ``decode_g4``: ``ccitt.decode_g4_py``;
- ``lzw_decode``: ``tiff_lzw.lzw_decode_py``;
- ``prefix_sum_2d``: ``segment.prefix_sum_2d_py``;
- ``xy_cut`` (the findCells walk of one column and insertGlyph's line
  formation, returned as a box table with findLines' candidate flags):
  ``segment.PageSegmenter.find_cells_py``, and for the flags the scalar
  ``overlap_vertical`` and ``overlap_horizontal``;
- ``glyph_tuples`` (the feature tuples of path-free glyphs):
  ``features.fill_tuples_py``;
- ``html_blocks`` (the block scan of one span) and ``html_strip`` (the
  whole strip of an Arrow string array, with ``html_blocks`` as its
  scan): ``html_extract.extract_main_content_py``.

``load()`` returns the kernels, or ``None`` when they cannot be had, in
which case callers run the references.

Nothing happens at import.  The first ``load()`` in a process compiles
``kernels.c`` with ``cc`` into the user cache directory, under a name keyed
by a hash of the source and flags, unless that file is already there.  The
library is written to a temporary name and ``os.replace``d into place, so
processes that build at the same time never see a partial file.  No
compiler, a failed build or a failed load all mean ``None``.

The library allocates nothing: every buffer is allocated here, and its
size and type are fixed here before a pointer is passed.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import itertools
import math
import os
import platform
import shutil
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_SOURCE = Path(__file__).with_name("kernels.c")
# the tuple kernel needs strict IEEE arithmetic: no -ffast-math, no FMA
_CFLAGS = ["-O2", "-std=c99", "-shared", "-fPIC", "-ffp-contract=off"]
_LDLIBS = ["-lm"]
_BUILD_TIMEOUT_S = 120

# columns of xy_cut's per-line rows, and the bits of their flags
XL_N = 7
XF_OVERLAPS_NEXT, XF_COMBINES = 1, 2

_P = ctypes.c_void_p
_I64 = ctypes.c_int64
# html spans up to this many bytes reuse pooled scratch buffers; longer
# ones get buffers of their own that are freed after the call
_HTML_SCRATCH_CAP = 1 << 16


def _find_compiler() -> str | None:
    return shutil.which("cc")


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "tensorflow_ocr_ray"


def _library_path() -> Path:
    key = hashlib.sha256(_SOURCE.read_bytes())
    key.update(" ".join(_CFLAGS + _LDLIBS + [platform.machine()]).encode())
    return _cache_dir() / f"kernels-{key.hexdigest()[:16]}.so"


def _build(path: Path) -> bool:
    import subprocess  # only a building process pays for these imports
    import tempfile

    cc = _find_compiler()
    if cc is None:
        return False
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".so.tmp")
    except OSError:
        return False
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *_CFLAGS, "-o", tmp, str(_SOURCE), *_LDLIBS],
            capture_output=True, timeout=_BUILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            return False
        os.replace(tmp, path)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.cache
def load() -> "Kernels | None":
    """The process's kernels, built on first use; ``None`` if unavailable."""
    try:
        path = _library_path()
        if not path.exists() and not _build(path):
            return None
        return Kernels(ctypes.CDLL(str(path)))
    except OSError:
        return None


class Kernels:
    """Typed wrappers over the loaded library.  Each raises the same
    ``ValueError`` its Python reference raises on the same input."""

    def __init__(self, lib: ctypes.CDLL):
        lib.decode_g4.argtypes = [ctypes.c_char_p, _I64, _I64, _I64,
                                  _P, _P, _P, _P, _P, _P, _P]
        lib.decode_g4.restype = ctypes.c_int
        lib.lzw_decode.argtypes = [ctypes.c_char_p, _I64, _I64,
                                   ctypes.c_int, _P, _I64, _P]
        lib.lzw_decode.restype = _I64
        lib.prefix_sum_2d.argtypes = [_P, _I64, _I64, _P]
        lib.prefix_sum_2d.restype = None
        lib.xy_cut.argtypes = [_P, _I64, _I64, _P, _P, _P, _P, _I64, _P, _P,
                               _P, _I64, _P, _P, _P]
        lib.xy_cut.restype = ctypes.c_int
        lib.glyph_tuples.argtypes = [_P, _I64, _I64, _P, _P, _I64, _I64, _P]
        lib.glyph_tuples.restype = _I64
        lib.html_blocks.argtypes = [ctypes.c_char_p, _I64, _P, _P, _P, _I64]
        lib.html_blocks.restype = _I64
        lib.html_strip.argtypes = [_P, _P, _P, _I64, _I64, ctypes.c_double,
                                   _P, _P, _I64, _P, _P, _P]
        lib.html_strip.restype = _I64
        self._lib = lib
        # free list of _html_scratch(_HTML_SCRATCH_CAP); a caller pops
        # one, so threads never share scratch
        self._html_scratch: list = []

    def decode_g4(self, data: bytes, width: int, height: int,
                  white: np.ndarray, black: np.ndarray,
                  mode: np.ndarray) -> np.ndarray:
        """T.6 decode; the tables are ``ccitt``'s as int32 (N, 3)."""
        for tbl, rows in ((white, 1 << 13), (black, 1 << 13), (mode, 1 << 7)):
            if tbl.dtype != np.int32 or tbl.shape != (rows, 3) or \
                    not tbl.flags.c_contiguous:
                raise ValueError("G4 tables must be C-contiguous int32 (N, 3)")
        data = bytes(data)
        out = np.zeros((height, width), dtype=np.uint8)
        chg = np.empty((2, 2 * max(width, 0) + 8), dtype=np.int64)
        err = np.zeros(4, dtype=np.int64)
        rc = self._lib.decode_g4(
            data, len(data), width, height,
            white.ctypes.data, black.ctypes.data, mode.ctypes.data,
            chg[0].ctypes.data, chg[1].ctypes.data, out.ctypes.data,
            err.ctypes.data,
        )
        if rc == 0:
            return out
        if rc == 1:
            raise ValueError("truncated CCITT stream")
        if rc == 2:
            raise ValueError(f"bad CCITT mode code near bit {err[1]}")
        if rc == 3:
            raise ValueError(f"bad CCITT run code near bit {err[1]}")
        raise ValueError(
            f"corrupt CCITT stream: a0 failed to advance at row {err[1]}"
            f" (a0={err[2]}, prev={err[3]})"
        )

    def lzw_decode(self, data: bytes, max_out: int | None,
                   early: int) -> bytes:
        """TIFF/PDF LZW decode.  The kernel keeps each table entry as the
        offset and length of its string in the output already written,
        so each code is one copy (byte by byte only for the KwKwK code,
        whose copy overlaps its own bytes).  Bounded: one pass into a
        buffer that always fits.  Unbounded: grow and retry until it
        fits."""
        data = bytes(data)
        if max_out is not None:
            max_out = max(max_out, 0)
            cap = max_out + 4096  # one table entry past max_out at most
        else:
            cap = 8 * len(data) + 4096
        err = np.zeros(1, dtype=np.int64)
        while True:
            out = np.empty(cap, dtype=np.uint8)
            n = self._lib.lzw_decode(
                data, len(data), -1 if max_out is None else max_out,
                int(early), out.ctypes.data, cap, err.ctypes.data,
            )
            if n >= 0:
                return out[:n].tobytes()
            if n == -1:
                raise ValueError(f"bad LZW code {err[0]}")
            cap *= 2

    def prefix_sum_2d(self, image: np.ndarray) -> np.ndarray:
        """(h+1, w+1) int32 counts of non-zero pixels of a 2-D image."""
        h, w = image.shape
        if image.dtype != np.uint8:
            image = (image != 0).view(np.uint8)
        image = np.ascontiguousarray(image)
        out = np.empty((h + 1, w + 1), dtype=np.int32)
        self._lib.prefix_sum_2d(image.ctypes.data, h, w, out.ctypes.data)
        return out

    def xy_cut(self, prefix: np.ndarray, region: tuple, params: tuple,
               stats: tuple) -> tuple[list, np.ndarray, list, int]:
        """One column of ``segment.PageSegmenter.find_cells_py``: the
        findCells walk of ``region`` (top, bottom, left, right) over the
        page prefix sum, and insertGlyph's lines, as a box table.
        ``params`` are the min glyph width, height and area, the max
        glyph width and height, ``some_dark`` and ``may_combine``;
        ``stats`` are the page's left margin, right margin, total width,
        total height, glyph count, glyph width and glyph height before
        the walk.

        Returns (stats after the walk; an (n, 4) int64 array of glyph
        boxes (left, right, top, bottom), line by line in page order;
        per line a list (top, bottom, left border, right border, glyph
        count, sum of glyph widths, flags); and the height of the glyph
        that stopped the walk as too tall, or 0).  The flags are
        findLines' candidate tests against the stats after the walk:
        bit 0 (``XF_OVERLAPS_NEXT``) when ``overlap_vertical`` holds for
        the line and the next one, bit 1 (``XF_COMBINES``) when
        ``overlap_horizontal`` holds for two neighbouring glyphs of the
        line."""
        h, w = _check_prefix(prefix)
        # region (4) | params (7) | stats (7) | sizes (3)
        head = np.array([*region, *params, *stats, 0, 0, 0], dtype=np.int64)
        at = head.ctypes.data
        box_cap, stack_cap = 256, h + w + 16
        while True:
            # stack | glyphs | lines | line order | out boxes | out lines
            offs = list(itertools.accumulate(
                (5 * stack_cap, 5 * box_cap, 6 * box_cap, box_cap,
                 4 * box_cap, XL_N * box_cap), initial=0))
            work = np.empty(offs[-1], dtype=np.int64)
            ptr = [work.ctypes.data + 8 * o for o in offs[:-1]]
            rc = self._lib.xy_cut(
                prefix.ctypes.data, h, w, at, at + 8 * 4, at + 8 * 11,
                ptr[0], stack_cap, ptr[1], ptr[2], ptr[3], box_cap,
                ptr[4], ptr[5], at + 8 * 18,
            )
            if rc == 2:  # box buffer full
                box_cap *= 4
            elif rc == 3:  # stack full
                stack_cap *= 2
            else:
                break
        n, nlines, too_tall = head[18:21].tolist()
        boxes = work[offs[4]:offs[4] + 4 * n].reshape(n, 4)
        lines = work[offs[5]:offs[5] + XL_N * nlines].reshape(
            nlines, XL_N).tolist()
        return head[11:18].tolist(), boxes, lines, too_tall

    def glyph_tuples(self, prefix: np.ndarray, boxes: np.ndarray,
                     line_heights: np.ndarray,
                     fallback_height: int) -> np.ndarray:
        """``features.fill_tuples_py``: (n, 27) float32 tuples of n
        path-free boxes (left, right, top, bottom), each non-empty and
        inside the page."""
        h, w = _check_prefix(prefix)
        boxes = np.ascontiguousarray(boxes, dtype=np.int64)
        line_heights = np.ascontiguousarray(line_heights, dtype=np.int64)
        n = len(boxes)
        if boxes.shape != (n, 4) or line_heights.shape != (n,):
            raise ValueError("boxes must be (n, 4) with n line heights")
        out = np.empty((n, 27), dtype=np.float32)
        rc = self._lib.glyph_tuples(
            prefix.ctypes.data, h, w, boxes.ctypes.data,
            line_heights.ctypes.data, n, fallback_height, out.ctypes.data,
        )
        if rc < 0:
            raise ValueError("glyph box empty or outside the page")
        return out

    def html_blocks(self, html: bytes) -> tuple[list[str], list[int]]:
        """The non-blank blocks of one ASCII html span without NUL bytes,
        as (texts, link character counts): the block loop of
        ``html_extract.extract_main_content_py`` before unescape and the
        gate."""
        n = len(html)
        pooled = n <= _HTML_SCRATCH_CAP
        try:
            scratch = self._html_scratch.pop() if pooled else None
        except IndexError:  # pool empty
            scratch = None
        if scratch is None:
            scratch = _html_scratch(_HTML_SCRATCH_CAP if pooled else n)
        _, addrs, out, links = scratch
        w = self._lib.html_blocks(html, n, *addrs, len(links))
        if w < 0:  # unreachable: links holds n // 4 + 2 blocks
            raise RuntimeError("html_blocks: block buffer overflow")
        texts = out[:w].decode("ascii").split("\0")
        texts.pop()  # every block ends in a NUL
        counts = links[:len(texts)]
        if pooled:
            self._html_scratch.append(scratch)
        return texts, counts

    def html_strip(self, texts: pa.StringArray, min_len: int,
                   max_link_density: float) -> tuple[pa.StringArray,
                                                      np.ndarray]:
        """``html_extract.extract_main_content`` of every string of
        ``texts`` in one call, nulls kept null.  Returns the stripped
        array and a bool array of the spans the kernel left as "": those
        with a NUL or a non-ASCII byte, or whose kept blocks need
        ``html.unescape``; the caller strips them per span.  Scratch is
        allocated per call, so threads share nothing."""
        n = len(texts)
        if n == 0:
            return pa.array([], pa.string()), np.zeros(0, np.bool_)
        _, offsets_buf, data_buf = texts.buffers()
        offsets = np.frombuffer(offsets_buf, np.int32, n + 1,
                                4 * texts.offset)
        total = int(offsets[-1] - offsets[0])
        longest = int(np.diff(offsets).max())
        valid = pc.is_valid(texts).buffers()[1] if texts.null_count else None
        nlinks = longest // 4 + 2
        # links | work: one block, as in _html_scratch
        links = np.empty(nlinks + (longest + 7) // 8, np.int64)
        out_offsets = np.empty(n + 1, np.int32)
        out = pa.allocate_buffer(total + 1, resizable=True)
        fallback = np.empty(n, np.bool_)
        w = self._lib.html_strip(
            offsets.ctypes.data, data_buf.address if data_buf else None,
            valid.address if valid else None, n, math.ceil(min_len),
            float(max_link_density), links.ctypes.data + 8 * nlinks,
            links.ctypes.data, nlinks, out_offsets.ctypes.data,
            out.address, fallback.ctypes.data,
        )
        if w < 0:  # unreachable: links holds longest // 4 + 2 blocks
            raise RuntimeError("html_strip: block buffer overflow")
        out.resize(w, shrink_to_fit=True)
        stripped = pa.StringArray.from_buffers(
            n, pa.py_buffer(out_offsets), out, valid, texts.null_count)
        return stripped, fallback


def _check_prefix(prefix: np.ndarray) -> tuple[int, int]:
    """(h, w) of a page prefix sum, which the page kernels index
    unchecked."""
    if prefix.dtype != np.int32 or prefix.ndim != 2 or \
            not prefix.flags.c_contiguous or 0 in prefix.shape:
        raise ValueError("page prefix sum must be C-contiguous int32 "
                         "(h + 1, w + 1)")
    return prefix.shape[0] - 1, prefix.shape[1] - 1


def _html_scratch(size: int) -> tuple:
    """(owner, (work, out, links) addresses, out, links) for spans of up
    to ``size`` bytes, carved from one ``np.empty`` block: pages the
    kernel never writes are never touched, so a large span costs no
    up-front zeroing."""
    nlinks = size // 4 + 2
    owner = np.empty(8 * nlinks + 2 * (size + 1), dtype=np.uint8)
    links_at = owner.ctypes.data  # 8-aligned: links go first
    out_at = links_at + 8 * nlinks
    work_at = out_at + size + 1
    return (owner, (work_at, out_at, links_at),
            (ctypes.c_char * (size + 1)).from_address(out_at),
            (_I64 * nlinks).from_address(links_at))
