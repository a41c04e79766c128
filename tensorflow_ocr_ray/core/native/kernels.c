/* Native kernels: CCITT G4 (T.6) decode, TIFF-LZW decode, 2-D prefix
 * sum, the XY-cut page walk with its line formation, the glyph feature
 * tuples, and the block scan of the html boilerplate strip.
 *
 * Each page kernel is a line-for-line port of its Python reference
 * (ccitt.decode_g4_py, tiff_lzw.lzw_decode_py, segment.prefix_sum_2d_py,
 * segment.PageSegmenter.find_cells_py, features.fill_tuples_py): the
 * same bit reader, the same tables, the same error points, the same
 * walk order and the same float32 arithmetic, so the output is
 * bit-identical and every error the Python code raises is reported here
 * as a status code at the same place.  The tuple arithmetic relies on
 * strict IEEE float and double: build without -ffast-math and with
 * -ffp-contract=off.  The html scan fuses the regex passes of
 * html_extract.extract_main_content_py into one left-to-right scan with
 * the same match semantics on ASCII input.  The caller allocates every
 * buffer; nothing here allocates or touches Python.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* ---------------------------------------------------------------- G4 -- */

enum {
    G4_OK = 0,
    G4_TRUNCATED = 1,   /* err: - */
    G4_BAD_MODE = 2,    /* err[1] = bit position */
    G4_BAD_RUN = 3,     /* err[1] = bit position */
    G4_NO_ADVANCE = 4,  /* err[1] = row, err[2] = a0, err[3] = prev a0 */
};

typedef struct {
    const uint8_t *data;
    int64_t nbytes, ipos;
    uint64_t buf; /* MSB-first accumulator; holds < 13 + 24 bits */
    int nbits;
} bits_t;

/* Refill to at least 13 bits: three bytes at once while they last, then
 * bytewise, zero-filling past the end (the EOFB pad).  No code is all
 * zeros, so the decode loop stops within two bytes of zero fill. */
static void g4_refill(bits_t *r)
{
    if (r->nbits >= 13)
        return;
    if (r->ipos + 3 <= r->nbytes) {
        const uint8_t *p = r->data + r->ipos;
        r->buf = (r->buf << 24) | ((uint64_t)p[0] << 16)
                 | ((uint64_t)p[1] << 8) | p[2];
        r->ipos += 3;
        r->nbits += 24;
        return;
    }
    while (r->nbits < 13) {
        if (r->ipos < r->nbytes)
            r->buf = (r->buf << 8) | r->data[r->ipos];
        else
            r->buf <<= 8;
        r->ipos++;
        r->nbits += 8;
    }
}

/* Status for an invalid code window of `window` bits at the cursor: a
 * window that reaches past the last data byte means a cut-off stream. */
static int g4_bad_code(const bits_t *r, int window, int status, int64_t *err)
{
    err[1] = r->ipos * 8 - r->nbits;
    return err[1] + window > r->nbytes * 8 ? G4_TRUNCATED : status;
}

static inline void g4_consume(bits_t *r, int n)
{
    r->nbits -= n;
    r->buf &= (((uint64_t)1) << r->nbits) - 1;
}

/* out: height*width zeroed uint8; ref, cur: 2*width+8 int64 each.
 * white, black: 8192 x (run, len, is_term), len 0 = no code;
 * mode: 128 x (op, arg, len), op 0 = vertical, 1 = horizontal, 2 = pass. */
int decode_g4(const uint8_t *data, int64_t nbytes, int64_t width,
              int64_t height, const int32_t *white, const int32_t *black,
              const int32_t *mode, int64_t *ref, int64_t *cur, uint8_t *out,
              int64_t *err)
{
    bits_t r = {data, nbytes, 0, 0, 0};
    int64_t nref = 0;
    for (int64_t y = 0; y < height; y++) {
        int64_t ncur = 0, a0 = -1, jb = 0;
        int color = 0;
        while (a0 < width) {
            int64_t prev_a0 = a0;
            g4_refill(&r);
            const int32_t *m = mode + 3 * (r.buf >> (r.nbits - 7));
            if (m[2] == 0)
                return g4_bad_code(&r, 7, G4_BAD_MODE, err);
            g4_consume(&r, m[2]);
            /* b1: first ref change > a0 whose index parity is color */
            while (jb < nref && ref[jb] <= a0)
                jb++;
            int64_t j = ((jb & 1) != color) ? jb + 1 : jb;
            if (m[0] == 0) { /* vertical */
                int64_t a1 = (j < nref ? ref[j] : width) + m[1];
                if (a1 < width)
                    cur[ncur++] = a1;
                a0 = a1;
                color ^= 1;
            } else if (m[0] == 2) { /* pass */
                a0 = j + 1 < nref ? ref[j + 1] : width;
            } else { /* horizontal: two runs, makeup chains allowed */
                int64_t pos = a0 < 0 ? 0 : a0;
                const int32_t *tbl = color ? black : white;
                for (int half = 0; half < 2; half++) {
                    for (;;) {
                        g4_refill(&r);
                        const int32_t *e = tbl + 3 * (r.buf >> (r.nbits - 13));
                        if (e[1] == 0)
                            return g4_bad_code(&r, 13, G4_BAD_RUN, err);
                        g4_consume(&r, e[1]);
                        pos += e[0];
                        if (e[2])
                            break;
                    }
                    if (pos < width)
                        cur[ncur++] = pos;
                    tbl = color ? white : black;
                }
                a0 = pos;
            }
            if (a0 <= prev_a0) {
                err[1] = y;
                err[2] = a0;
                err[3] = prev_a0;
                return G4_NO_ADVANCE;
            }
        }
        /* black spans are [cur[0], cur[1]), [cur[2], cur[3]), ...;
         * an odd count runs the last span to the row end */
        uint8_t *row = out + y * width;
        for (int64_t i = 0; i < ncur; i += 2) {
            int64_t s = cur[i], e = i + 1 < ncur ? cur[i + 1] : width;
            if (s < e)
                memset(row + s, 1, (size_t)(e - s));
        }
        int64_t *t = ref;
        ref = cur;
        cur = t;
        nref = ncur;
    }
    return G4_OK;
}

/* --------------------------------------------------------------- LZW -- */

#define LZW_CLEAR 256
#define LZW_EOI 257
#define LZW_TABLE 4096 /* codes are at most 12 bits */

/* Returns the output length, -1 on a bad code (err[0] = the code), or -2
 * when cap is too small (the caller retries with a larger buffer).
 * max_out < 0 means unbounded; otherwise decoding stops after the entry
 * that reaches max_out, so cap >= max_out + LZW_TABLE always suffices.
 *
 * A table entry is stored as where its string was written in the output
 * and its length: every entry after the first 256 is the previous code's
 * string plus one byte, and that byte is the first one written for the
 * current code, so the string already sits in the output at the previous
 * code's offset.  Each code is then one copy out of the output.  Only the
 * KwKwK entry (the code being defined by this very code) overlaps the
 * bytes it produces; it is copied byte by byte, front to back, which
 * repeats its first byte at its end. */
int64_t lzw_decode(const uint8_t *data, int64_t n, int64_t max_out,
                   int early, uint8_t *out, int64_t cap, int64_t *err)
{
    static const int FIRST = 258;
    int64_t at[LZW_TABLE];
    int32_t len[LZW_TABLE];
    int width = 9;
    int64_t nt = FIRST; /* table length; entries >= LZW_TABLE are never
                           addressable, so they are counted, not stored */
    int64_t bump = (1 << 9) - 1 - early;
    int prev = -1;
    int64_t prev_at = 0, prev_len = 0; /* where prev's string was written */
    uint64_t buf = 0;
    int nbits = 0;
    int64_t ipos = 0, olen = 0;

    for (;;) {
        if (nbits < width) {
            if (ipos + 3 <= n) {
                buf = (buf << 24) | ((uint64_t)data[ipos] << 16)
                      | ((uint64_t)data[ipos + 1] << 8) | data[ipos + 2];
                ipos += 3;
                nbits += 24;
            } else {
                while (nbits < width) {
                    if (ipos >= n)
                        return olen;
                    buf = (buf << 8) | data[ipos++];
                    nbits += 8;
                }
            }
        }
        nbits -= width;
        int code = (int)(buf >> nbits);
        buf &= (((uint64_t)1) << nbits) - 1;
        if (code == LZW_EOI)
            break;
        if (code == LZW_CLEAR) {
            nt = FIRST;
            width = 9;
            bump = (1 << 9) - 1 - early;
            prev = -1;
            continue;
        }
        if (prev < 0) {
            if (code >= FIRST) {
                err[0] = code;
                return -1;
            }
        } else if (code <= nt) { /* code == nt is the KwKwK case */
            if (nt < LZW_TABLE) {
                at[nt] = prev_at;
                len[nt] = (int32_t)prev_len + 1;
            }
            nt++;
        } else {
            err[0] = code;
            return -1;
        }
        int64_t k = code < 256 ? 1 : len[code];
        if (olen + k > cap)
            return -2;
        uint8_t *dst = out + olen;
        if (code < 256) {
            *dst = (uint8_t)code;
        } else {
            const uint8_t *src = out + at[code];
            if (at[code] + k <= olen) {
                memcpy(dst, src, (size_t)k);
            } else {
                for (int64_t i = 0; i < k; i++)
                    dst[i] = src[i];
            }
        }
        prev = code;
        prev_at = olen;
        prev_len = k;
        olen += k;
        if (nt == bump && width < 12) {
            width++;
            bump = ((int64_t)1 << width) - 1 - early;
        }
        if (max_out >= 0 && olen >= max_out)
            break;
    }
    return olen;
}

/* -------------------------------------------------------- prefix sum -- */

/* out: (h+1) x (w+1) int32; out[y][x] = number of non-zero pixels in
 * img[0:y, 0:x].  One pass: a running row count plus the row above. */
void prefix_sum_2d(const uint8_t *img, int64_t h, int64_t w, int32_t *out)
{
    int64_t stride = w + 1;
    memset(out, 0, (size_t)stride * sizeof(int32_t));
    for (int64_t y = 0; y < h; y++) {
        const uint8_t *src = img + y * w;
        const int32_t *above = out + y * stride;
        int32_t *dst = out + (y + 1) * stride;
        int32_t run = 0;
        dst[0] = 0;
        for (int64_t x = 0; x < w; x++) {
            run += src[x] != 0;
            dst[x + 1] = above[x + 1] + run;
        }
    }
}

/* ------------------------------------------------------------ XY-cut -- */

/* One column of PageSegmenter.find_cells_py: the findCells walk over the
 * page prefix sum (main/segment.c:278-382) plus insertGlyph's line
 * formation (main/segment.c:160-274).  The walk keeps the Python stack
 * discipline entry for entry, so glyphs are inserted in the same order
 * and form the same lines.  Stack entries are (top, bottom, left, right,
 * kind), bounds inclusive; kind says which scans the entry may skip. */

enum {
    XY_OK = 0,
    XY_TOO_TALL = 1,    /* insertGlyph's abort(): sizes[2] = height */
    XY_BOXES_FULL = 2,  /* more glyphs than box_cap */
    XY_STACK_FULL = 3,  /* more pending regions than stack_cap */
};

enum {
    XY_ANY = 0,
    XY_ROWS_CLEAN = 1,  /* one row run of a row split: skip the row scan */
    XY_COLS_CLEAN = 2,  /* one col run, already trimmed: skip the col scan */
    XY_COL_RUN = 3,     /* one child of a col split (_process_col_runs) */
};

/* params */
enum {
    XP_MIN_W, XP_MIN_H, XP_MIN_AREA, XP_MAX_W, XP_MAX_H, XP_SOME_DARK,
    XP_MAY_COMBINE
};
/* out_lines columns */
enum {
    XL_TOP, XL_BOTTOM, XL_LEFT, XL_RIGHT, XL_COUNT, XL_WIDTH, XL_FLAGS, XL_N
};
/* XL_FLAGS bits: the candidate tests of findLines */
enum {
    XF_OVERLAPS_NEXT = 1, /* overlapVertical with the next line */
    XF_COMBINES = 2,      /* overlapHorizontal of two neighbouring glyphs */
};
/* stats, read and written back: the page stats insertGlyph keeps */
enum {
    XS_LEFT_MARGIN, XS_RIGHT_MARGIN, XS_TOTAL_WIDTH, XS_TOTAL_HEIGHT,
    XS_COUNT, XS_GLYPH_WIDTH, XS_GLYPH_HEIGHT, XS_N
};

typedef struct {
    const int32_t *ps; /* (h+1) x (w+1) */
    int64_t stride;
    const int64_t *p;  /* params */
    int64_t st[XS_N];
    int64_t *stack, sp, stack_cap;
    /* glyphs in insertion order: left, right, top, bottom, next in line */
    int64_t *glyph, n, box_cap;
    /* lines by id: top, bottom, left border, right border, first glyph,
     * count; order[] lists the ids in page order */
    int64_t *line, *order, nlines;
    int64_t bad_height;
} xy_t;

/* Ink in rows [r0, r1) x cols [c0, c1); empty ranges count 0. */
static inline int64_t xy_ink(const xy_t *x, int64_t r0, int64_t r1,
                             int64_t c0, int64_t c1)
{
    const int32_t *a = x->ps + r0 * x->stride, *b = x->ps + r1 * x->stride;
    return (int64_t)b[c1] - a[c1] - b[c0] + a[c0];
}

/* Python's //, as insertGlyph's averages use it */
static inline int64_t floor_div(int64_t a, int64_t b)
{
    int64_t q = a / b;
    return (a % b != 0 && (a < 0) != (b < 0)) ? q - 1 : q;
}

static int xy_push(xy_t *x, int64_t top, int64_t bottom, int64_t left,
                   int64_t right, int64_t kind)
{
    if (x->sp == x->stack_cap)
        return XY_STACK_FULL;
    int64_t *e = x->stack + 5 * x->sp++;
    e[0] = top;
    e[1] = bottom;
    e[2] = left;
    e[3] = right;
    e[4] = kind;
    return XY_OK;
}

/* insertGlyph: right/bottom exclusive. */
static int xy_insert(xy_t *x, int64_t left, int64_t right, int64_t top,
                     int64_t bottom)
{
    int64_t *st = x->st;
    if (left < st[XS_LEFT_MARGIN])
        st[XS_LEFT_MARGIN] = left;
    if (right > st[XS_RIGHT_MARGIN])
        st[XS_RIGHT_MARGIN] = right;
    st[XS_TOTAL_WIDTH] += right - left;
    st[XS_TOTAL_HEIGHT] += bottom - top;
    if (bottom - top > x->p[XP_MAX_H]) {
        x->bad_height = bottom - top;
        return XY_TOO_TALL;
    }
    if (x->n == x->box_cap)
        return XY_BOXES_FULL;
    st[XS_COUNT]++;
    st[XS_GLYPH_WIDTH] = floor_div(st[XS_TOTAL_WIDTH], st[XS_COUNT]);
    st[XS_GLYPH_HEIGHT] = floor_div(st[XS_TOTAL_HEIGHT], st[XS_COUNT]);
    int64_t g = x->n++;
    int64_t *gb = x->glyph + 5 * g;
    gb[0] = left;
    gb[1] = right;
    gb[2] = top;
    gb[3] = bottom;
    gb[4] = -1;
    for (int64_t k = 0; k < x->nlines; k++) {
        int64_t *ln = x->line + 6 * x->order[k];
        if (ln[0] > bottom)
            break; /* gone too far: a new line goes before this one */
        if ((ln[0] <= top && top < ln[1]) || (ln[0] < bottom && bottom <= ln[1])
            || (ln[0] >= top && ln[1] <= bottom)) {
            if (top < ln[0])
                ln[0] = top;
            if (bottom > ln[1])
                ln[1] = bottom;
            if (left < ln[2])
                ln[2] = left;
            if (right > ln[3])
                ln[3] = right;
            /* before the first glyph that starts right of this one */
            int64_t prev = -1, cur = ln[4];
            while (cur >= 0 && x->glyph[5 * cur] <= left) {
                prev = cur;
                cur = x->glyph[5 * cur + 4];
            }
            gb[4] = cur;
            if (prev < 0)
                ln[4] = g;
            else
                x->glyph[5 * prev + 4] = g;
            ln[5]++;
            return XY_OK;
        }
    }
    /* a new line, before the first line whose top is below this glyph */
    int64_t pos = x->nlines;
    for (int64_t k = 0; k < x->nlines; k++) {
        if (x->line[6 * x->order[k]] > bottom) {
            pos = k;
            break;
        }
    }
    int64_t id = x->nlines++;
    memmove(x->order + pos + 1, x->order + pos,
            (size_t)(id - pos) * sizeof(int64_t));
    x->order[pos] = id;
    int64_t *ln = x->line + 6 * id;
    ln[0] = top;
    ln[1] = bottom;
    ln[2] = left;
    ln[3] = right;
    ln[4] = g;
    ln[5] = 1;
    return XY_OK;
}

/* Push the maximal runs of inked rows in [top, bottom] (ink counted over
 * cols [c0, c1)) as (run, left, right, kind), top run first. */
static int xy_push_row_runs(xy_t *x, int64_t top, int64_t bottom, int64_t c0,
                            int64_t c1, int64_t left, int64_t right,
                            int64_t kind)
{
    int64_t start = -1;
    for (int64_t r = top; r <= bottom + 1; r++) {
        int inked = r <= bottom && xy_ink(x, r, r + 1, c0, c1) > 0;
        if (inked && start < 0)
            start = r;
        if (!inked && start >= 0) {
            int rc = xy_push(x, start, r - 1, left, right, kind);
            if (rc)
                return rc;
            start = -1;
        }
    }
    return XY_OK;
}

/* One child of a column split (_process_col_runs): its rows [top, bottom]
 * scanned over cols [lo, hi], both inclusive. */
static int xy_col_run(xy_t *x, int64_t top, int64_t bottom, int64_t lo,
                      int64_t hi)
{
    const int64_t *p = x->p;
    int64_t first = -1, last = -1, runs = 0;
    int prev = 0;
    for (int64_t r = top; r <= bottom; r++) {
        int inked = xy_ink(x, r, r + 1, lo, hi + 1) > 0;
        if (inked) {
            if (first < 0)
                first = r;
            last = r;
            runs += !prev;
        }
        prev = inked;
    }
    /* an all-blank child keeps its full height, as argmax does */
    int64_t t = first >= 0 ? first : top, b = last >= 0 ? last : bottom;
    int64_t height = b - t + 1, width = hi - lo + 1;
    if (width < p[XP_MIN_W] || height < p[XP_MIN_H]
        || height * width < p[XP_MIN_AREA])
        return XY_OK;
    if (runs > 1)
        return xy_push_row_runs(x, top, bottom, lo, hi + 1, lo, hi,
                                XY_ROWS_CLEAN);
    if (width > p[XP_MAX_W] || height - 1 > p[XP_MAX_H])
        return xy_push(x, t, b, lo, hi, XY_COLS_CLEAN);
    return xy_insert(x, lo, hi + 1, t, b + 1);
}

/* One region of the _run_stack walk. */
static int xy_region(xy_t *x, int64_t h, int64_t w, int64_t top,
                     int64_t bottom, int64_t left, int64_t right,
                     int64_t kind)
{
    const int64_t *p = x->p;
    /* off-image rows/cols are blank: clamp */
    if (top < 0)
        top = 0;
    if (left < 0)
        left = 0;
    if (bottom > h - 1)
        bottom = h - 1;
    if (right > w - 1)
        right = w - 1;
    if (bottom < top || right < left)
        return XY_OK;
    int64_t top0 = top, bottom0 = bottom, left0 = left;
    int col_gap = 0, row_gap = 0;
    if (kind != XY_COLS_CLEAN) {
        /* column ink over rows [top, bottom): findCells's bound */
        int64_t first = -1, last = -1;
        for (int64_t c = left; c <= right; c++) {
            if (xy_ink(x, top, bottom, c, c + 1) > 0) {
                if (first < 0)
                    first = c;
                else if (c - last > 1)
                    col_gap = 1;
                last = c;
            }
        }
        if (first < 0)
            return XY_OK;
        left = first;
        right = last;
    }
    if (kind != XY_ROWS_CLEAN) {
        /* row ink over cols [left, right) */
        int64_t first = -1, last = -1;
        for (int64_t r = top; r <= bottom; r++) {
            if (xy_ink(x, r, r + 1, left, right) > 0) {
                if (first < 0)
                    first = r;
                else if (r - last > 1)
                    row_gap = 1;
                last = r;
            }
        }
        if (first < 0)
            return XY_OK;
        top = first;
        bottom = last;
    }
    int64_t height = bottom + 1 - top, width = right + 1 - left;
    if (width < p[XP_MIN_W] || height < p[XP_MIN_H]
        || height * width < p[XP_MIN_AREA])
        return XY_OK;
    if (row_gap)
        return xy_push_row_runs(x, top, bottom, left, right, left, right,
                                XY_ROWS_CLEAN);
    if (col_gap) {
        /* the runs of the first column scan, over its rows */
        int64_t start = -1;
        for (int64_t c = left0; c <= right + 1; c++) {
            int inked = c <= right && xy_ink(x, top0, bottom0, c, c + 1) > 0;
            if (inked && start < 0)
                start = c;
            if (!inked && start >= 0) {
                int rc = xy_push(x, top, bottom, start, c - 1, XY_COL_RUN);
                if (rc)
                    return rc;
                start = -1;
            }
        }
        return XY_OK;
    }
    if (width > p[XP_MAX_W] || bottom - top > p[XP_MAX_H]) {
        /* findLinesHarder: split at the lightest row of [top, bottom) */
        if (bottom - top <= 0)
            return XY_OK;
        int64_t best = 0, min_row = top;
        for (int64_t r = top; r < bottom; r++) {
            int64_t ink = xy_ink(x, r, r + 1, left, right);
            if (r == top || ink < best) {
                best = ink;
                min_row = r;
            }
        }
        if (best >= p[XP_SOME_DARK])
            return XY_OK;
        int rc = XY_OK;
        if (bottom - (min_row + 1) >= p[XP_MIN_H])
            rc = xy_push(x, min_row + 1, bottom, left, right, XY_ANY);
        if (!rc && min_row - 1 - top >= p[XP_MIN_H])
            rc = xy_push(x, top, min_row - 1, left, right, XY_ANY);
        return rc;
    }
    return xy_insert(x, left, right + 1, top, bottom + 1);
}

/* overlapVertical (main/segment.c:413-430) of lines f and s. */
static int xy_overlap_vertical(const int64_t *f, const int64_t *s, int64_t gh)
{
    if (s[XL_TOP] <= f[XL_BOTTOM] && f[XL_BOTTOM] <= s[XL_BOTTOM])
        return 1;
    if (f[XL_TOP] <= s[XL_BOTTOM] && s[XL_BOTTOM] <= f[XL_BOTTOM])
        return 1;
    int64_t top = f[XL_TOP] < s[XL_TOP] ? f[XL_TOP] : s[XL_TOP];
    int64_t bottom = f[XL_BOTTOM] > s[XL_BOTTOM] ? f[XL_BOTTOM] : s[XL_BOTTOM];
    return bottom - top < 2 * gh;
}

/* overlapHorizontal (main/segment.c:384-409) of boxes a and b (left,
 * right, top, bottom), with combining allowed. */
static int xy_overlap_horizontal(const int64_t *a, const int64_t *b,
                                 int64_t gh, int64_t max_h)
{
    if (!((b[0] <= a[1] && a[1] <= b[1]) || (a[0] <= b[1] && b[1] <= a[1])))
        return 0;
    int64_t up = a[2] - b[3], down = b[2] - a[3];
    int64_t new_height = up < down ? up : down;
    return !(new_height > floor_div(gh, 2) || new_height > max_h);
}

/* ps: the (h+1) x (w+1) prefix sum; region: top, bottom, left, right;
 * params: XP_*; stats: XS_*, updated in place.
 * stack: 5 * stack_cap; glyph: 5 * box_cap; line: 6 * box_cap and
 * order: box_cap (scratch).  On XY_OK or XY_TOO_TALL the lines formed so
 * far are written in page order: boxes (left, right, top, bottom) to
 * out_boxes (4 * box_cap), line by line with each line's glyphs left to
 * right, and XL_N columns per line to out_lines (XL_N * box_cap): top,
 * bottom, left border, right border, glyph count, the sum of its glyph
 * widths and the XF_* flags, tested against the page stats after the
 * walk; sizes gets (glyphs, lines, height of the glyph that was too
 * tall).  Nothing is written on a full buffer. */
int xy_cut(const int32_t *ps, int64_t h, int64_t w, const int64_t *region,
           const int64_t *params, int64_t *stats, int64_t *stack,
           int64_t stack_cap, int64_t *glyph, int64_t *line, int64_t *order,
           int64_t box_cap, int64_t *out_boxes, int64_t *out_lines,
           int64_t *sizes)
{
    xy_t x = {ps, w + 1, params, {0}, stack, 0, stack_cap, glyph, 0, box_cap,
              line, order, 0, 0};
    memcpy(x.st, stats, sizeof x.st);
    int rc = xy_push(&x, region[0], region[1], region[2], region[3], XY_ANY);
    while (!rc && x.sp > 0) {
        const int64_t *e = x.stack + 5 * --x.sp;
        if (e[4] == XY_COL_RUN)
            rc = xy_col_run(&x, e[0], e[1], e[2], e[3]);
        else
            rc = xy_region(&x, h, w, e[0], e[1], e[2], e[3], e[4]);
    }
    if (rc == XY_BOXES_FULL || rc == XY_STACK_FULL)
        return rc;
    memcpy(stats, x.st, sizeof x.st);
    int64_t gh = x.st[XS_GLYPH_HEIGHT], k = 0;
    for (int64_t i = 0; i < x.nlines; i++) {
        const int64_t *ln = x.line + 6 * x.order[i];
        int64_t *out = out_lines + XL_N * i;
        memcpy(out, ln, 4 * sizeof(int64_t));
        out[XL_COUNT] = ln[5];
        out[XL_WIDTH] = 0;
        out[XL_FLAGS] = 0;
        for (int64_t g = ln[4]; g >= 0; g = x.glyph[5 * g + 4]) {
            int64_t *box = out_boxes + 4 * k++;
            memcpy(box, x.glyph + 5 * g, 4 * sizeof(int64_t));
            out[XL_WIDTH] += box[1] - box[0];
            if (params[XP_MAY_COMBINE] && g != ln[4]
                && xy_overlap_horizontal(box - 4, box, gh, params[XP_MAX_H]))
                out[XL_FLAGS] |= XF_COMBINES;
        }
        if (i > 0 && xy_overlap_vertical(out - XL_N, out, gh))
            out[XL_FLAGS - XL_N] |= XF_OVERLAPS_NEXT;
    }
    sizes[0] = k;
    sizes[1] = x.nlines;
    sizes[2] = x.bad_height;
    return rc;
}

/* ------------------------------------------------------ glyph tuples -- */

/* The "%0.3f" / sscanf round-trip of categorize.c:106-109 for a float32
 * v, bit-identical to features._round3_vec.  y = v * 1000 is exact in
 * double (a 24-bit mantissa times 1000 fits in 53 bits), so printf's
 * exact decimal rounding of v is y rounded half to even, and reading the
 * string back gives the double nearest n / 1000, which is n / 1000.0,
 * then narrowed.  That differs from floor(y + 0.5) only at ties, which
 * float32 inputs reach only at v = j / 16 for odd j (y = 62.5, ...). */
static float round3(float v)
{
    double y = (double)v * 1000.0, n = floor(y + 0.5);
    if (n - y == 0.5 && fmod(n, 2.0) != 0.0)
        n -= 1.0; /* a tie goes to the even neighbour, as printf rounds */
    return (float)(n / 1000.0);
}

/* Grid cell edges of one axis: lroundf of float32 (extent - 1) / GRID * k,
 * rounded in double as features.fill_tuples_py does. */
static void grid_edges(int64_t lo, float extent, int64_t *first,
                       int64_t *last)
{
    float delta = (extent - 1.0f) / 5.0f;
    int64_t r[6];
    for (int k = 0; k < 6; k++)
        r[k] = (int64_t)floor((double)(delta * (float)k) + 0.5);
    for (int k = 0; k < 5; k++) {
        first[k] = lo + r[k];
        last[k] = lo + r[k + 1] + 1;
    }
}

static inline int64_t clip(int64_t v, int64_t lo, int64_t hi)
{
    return v < lo ? lo : v > hi ? hi : v;
}

/* fillTuple (main/categorize.c:47-125) plus normalizeTuple for n
 * path-free boxes (left, right, top, bottom; right/bottom exclusive),
 * bit-identical to features.fill_tuples_py: out gets n x 27 float32.
 * Returns -1, writing nothing, unless every box is non-empty and inside
 * the (h, w) page. */
int64_t glyph_tuples(const int32_t *ps, int64_t h, int64_t w,
                     const int64_t *boxes, const int64_t *line_heights,
                     int64_t n, int64_t fallback_height, float *out)
{
    int64_t stride = w + 1;
    for (int64_t i = 0; i < n; i++) {
        const int64_t *b = boxes + 4 * i;
        if (b[0] < 0 || b[0] >= b[1] || b[1] > w || b[2] < 0 || b[2] >= b[3]
            || b[3] > h)
            return -1;
    }
    for (int64_t i = 0; i < n; i++) {
        const int64_t *b = boxes + 4 * i;
        int64_t left = b[0], right = b[1], top = b[2], bottom = b[3];
        float gh = (float)(bottom - top), gw = (float)(right - left);
        int64_t fl[5], ll[5], fp[5], lp[5];
        grid_edges(top, gh, fl, ll);
        grid_edges(left, gw, fp, lp);
        float *t = out + 27 * i;
        for (int r = 0; r < 5; r++) {
            const int32_t *a = ps + clip(fl[r], top, bottom) * stride;
            const int32_t *z = ps + clip(ll[r], top, bottom) * stride;
            for (int c = 0; c < 5; c++) {
                int64_t c0 = clip(fp[c], left, right);
                int64_t c1 = clip(lp[c], left, right);
                int64_t filled = (int64_t)z[c1] - a[c1] - z[c0] + a[c0];
                int64_t total = (ll[r] - fl[r]) * (lp[c] - fp[c]);
                t[5 * r + c] = round3((float)filled / (float)total);
            }
        }
        float aspect = gh < gw ? gh / (2.0f * gw) : 1.0f - gw / (2.0f * gh);
        int64_t lh = line_heights[i] != 0 ? line_heights[i] : fallback_height;
        t[25] = aspect * 3.0f;
        t[26] = (gh / (float)lh) * 3.0f;
    }
    return 0;
}

/* -------------------------------------------------------- html strip -- */

/* Character classes of Python's str regexes, restricted to ASCII: \s and
 * str.isspace() include \x1c-\x1f (C's isspace() does not), \w is
 * [A-Za-z0-9_], and re.I folds only A-Z onto a-z. */
static const uint8_t PY_SPACE[256] = {
    ['\t'] = 1, ['\n'] = 1, ['\v'] = 1, ['\f'] = 1, ['\r'] = 1,
    [0x1c] = 1, [0x1d] = 1, [0x1e] = 1, [0x1f] = 1, [' '] = 1,
};

static inline int py_space(uint8_t c)
{
    return PY_SPACE[c];
}

static inline int py_word(uint8_t c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
           || (c >= '0' && c <= '9') || c == '_';
}

static inline uint8_t lower(uint8_t c)
{
    return (c >= 'A' && c <= 'Z') ? (uint8_t)(c + 32) : c;
}

static const uint8_t *find_byte(const uint8_t *s, int64_t from, int64_t end,
                                uint8_t c)
{
    return from < end ? memchr(s + from, c, (size_t)(end - from)) : NULL;
}

/* Does s[i:] start with `name` (lower case, case-insensitively) followed
 * by \b, i.e. by a non-word character or by `end`? */
static int name_at(const uint8_t *s, int64_t i, int64_t end,
                   const char *name, int64_t k)
{
    if (i + k > end)
        return 0;
    for (int64_t j = 0; j < k; j++)
        if (lower(s[i + j]) != (uint8_t)name[j])
            return 0;
    return i + k == end || !py_word(s[i + k]);
}

/* The first `</name\s*>` (name case-insensitive) starting in
 * s[from:end]: returns its end, *start = where it starts; -1 if none. */
static int64_t find_close(const uint8_t *s, int64_t from, int64_t end,
                          const char *name, int64_t k, int64_t *start)
{
    const uint8_t *p;
    while ((p = find_byte(s, from, end, '<')) != NULL) {
        int64_t i = p - s, j = i + 2 + k;
        from = i + 1;
        if (j > end || s[i + 1] != '/')
            continue;
        int64_t t = 0;
        while (t < k && lower(s[i + 2 + t]) == (uint8_t)name[t])
            t++;
        if (t < k)
            continue;
        while (j < end && py_space(s[j]))
            j++;
        if (j < end && s[j] == '>') {
            *start = i;
            return j + 1;
        }
    }
    return -1;
}

/* <!--.*?--> -> " ", src -> dst.  Once an opener finds no "-->", no
 * later opener can, so the rest is copied as is. */
static int64_t drop_comments(const uint8_t *src, int64_t n, uint8_t *dst)
{
    int64_t r = 0, w = 0;
    int closable = 1;
    while (r < n) {
        const uint8_t *p = closable ? find_byte(src, r, n, '<') : NULL;
        int64_t i = p ? p - src : n;
        memcpy(dst + w, src + r, (size_t)(i - r));
        w += i - r;
        r = i;
        if (r >= n)
            break;
        if (r + 4 <= n && src[r + 1] == '!' && src[r + 2] == '-'
            && src[r + 3] == '-') {
            const uint8_t *q;
            int64_t from = r + 4, e = -1;
            while ((q = find_byte(src, from, n, '-')) != NULL) {
                int64_t j = q - src;
                if (j + 3 <= n && src[j + 1] == '-' && src[j + 2] == '>') {
                    e = j + 3;
                    break;
                }
                from = j + 1;
            }
            if (e >= 0) {
                dst[w++] = ' ';
                r = e;
                continue;
            }
            closable = 0;
        }
        dst[w++] = src[r++];
    }
    return w;
}

typedef struct {
    const char *name;
    int64_t len;
} tag_name_t;

#define TAG(s) {s, sizeof s - 1}

static const tag_name_t DROP_NAMES[] = {
    TAG("head"), TAG("script"), TAG("style"), TAG("template"),
    TAG("noscript"),
};

static const tag_name_t BLOCK_NAMES[] = {
    TAG("p"), TAG("div"), TAG("article"), TAG("section"), TAG("li"),
    TAG("td"), TAG("h1"), TAG("h2"), TAG("h3"), TAG("h4"), TAG("h5"),
    TAG("h6"), TAG("blockquote"), TAG("nav"), TAG("header"), TAG("footer"),
    TAG("aside"), TAG("ul"), TAG("ol"), TAG("table"), TAG("tr"), TAG("body"),
    TAG("html"),
};

#define N_DROP ((int)(sizeof DROP_NAMES / sizeof DROP_NAMES[0]))
#define N_BLOCK ((int)(sizeof BLOCK_NAMES / sizeof BLOCK_NAMES[0]))

/* The index of the name of `names` at s[i:] (followed by \b), or -1.  No
 * name in either table is a prefix of another, so at most one matches. */
static int name_index(const tag_name_t *names, int count, const uint8_t *s,
                      int64_t i, int64_t end)
{
    if (i >= end)
        return -1;
    uint8_t c = lower(s[i]);
    for (int t = 0; t < count; t++)
        if ((uint8_t)names[t].name[0] == c
            && name_at(s, i, end, names[t].name, names[t].len))
            return t;
    return -1;
}

/* <(head|script|style|template|noscript)\b.*?</\1\s*> -> " ", in place.
 * A name whose closer search failed once is dead: every later opener of
 * that name searches a suffix of the same span, so the scan is linear. */
static int64_t drop_subtrees(uint8_t *s, int64_t n)
{
    int dead[N_DROP] = {0};
    int64_t r = 0, w = 0;
    while (r < n) {
        const uint8_t *p = find_byte(s, r, n, '<');
        int64_t i = p ? p - s : n;
        memmove(s + w, s + r, (size_t)(i - r));
        w += i - r;
        r = i;
        if (r >= n)
            break;
        int d = name_index(DROP_NAMES, N_DROP, s, r + 1, n);
        if (d >= 0 && !dead[d]) {
            int64_t k = DROP_NAMES[d].len, start;
            int64_t e = find_close(s, r + 1 + k, n, DROP_NAMES[d].name, k,
                                   &start);
            if (e >= 0) {
                s[w++] = ' ';
                r = e;
                continue;
            }
            dead[d] = 1;
        }
        s[w++] = s[r++];
    }
    return w;
}

/* Whitespace collapse + strip as a stream: c_char() feeds a character,
 * c_space() a tag read as " "; runs become one " " and the ends are
 * dropped.  `out` may be NULL to count only.  `blank` stays set while
 * everything fed was whitespace. */
typedef struct {
    uint8_t *out;
    int64_t len;
    int seen, pending, blank;
} collapse_t;

static inline void c_space(collapse_t *c)
{
    c->pending = c->seen;
    c->blank = 0;
}

static inline void c_char(collapse_t *c, uint8_t ch)
{
    if (py_space(ch)) {
        c->pending = c->seen;
        return;
    }
    if (c->pending) {
        if (c->out)
            c->out[c->len] = ' ';
        c->len++;
        c->pending = 0;
    }
    if (c->out)
        c->out[c->len] = ch;
    c->len++;
    c->seen = 1;
    c->blank = 0;
}

/* Feed s[a:b] with every <[^>]+> (bounded by b) removed, or read as " "
 * when `tag_space`.  Once a '<' finds no '>' after it, no later '<' can,
 * so the rest is fed as plain text. */
static void feed_untagged(collapse_t *c, const uint8_t *s, int64_t a,
                          int64_t b, int tag_space)
{
    int tags = 1;
    while (a < b) {
        uint8_t ch = s[a];
        if (ch == '<' && tags && a + 1 < b && s[a + 1] != '>') {
            const uint8_t *g = find_byte(s, a + 2, b, '>');
            if (g) {
                if (tag_space)
                    c_space(c);
                a = g - s + 1;
                continue;
            }
            tags = 0;
        }
        c_char(c, ch);
        a++;
    }
}

/* Link characters of one block s[a:b]: the summed collapsed+stripped
 * length of the tag-free text of each <a\b[^>]*>(.*?)</a\s*> match. */
static int64_t link_chars(const uint8_t *s, int64_t a, int64_t b)
{
    int64_t total = 0;
    const uint8_t *p;
    while ((p = find_byte(s, a, b, '<')) != NULL) {
        int64_t i = p - s, start;
        a = i + 1;
        if (!name_at(s, i + 1, b, "a", 1))
            continue;
        const uint8_t *g = find_byte(s, i + 2, b, '>');
        if (!g)
            break; /* no later opener has a '>' either */
        int64_t e = find_close(s, g - s + 1, b, "a", 1, &start);
        if (e < 0)
            break; /* later openers search a suffix of the same span */
        collapse_t c = {NULL, 0, 0, 0, 1};
        feed_untagged(&c, s, g - s + 1, start, 0);
        total += c.len;
        a = e;
    }
    return total;
}

/* One block s[a:b] of the split: skipped when blank, else its clean
 * text and a '\0' go to out[*w:] and its link characters to
 * links[*nb].  -1 when links is full. */
static int emit_block(const uint8_t *s, int64_t a, int64_t b, uint8_t *out,
                      int64_t *w, int64_t *links, int64_t *nb,
                      int64_t max_blocks)
{
    collapse_t c = {out + *w, 0, 0, 0, 1};
    feed_untagged(&c, s, a, b, 1);
    if (c.blank)
        return 0;
    if (*nb == max_blocks)
        return -1;
    *w += c.len;
    out[(*w)++] = '\0';
    links[(*nb)++] = link_chars(s, a, b);
    return 0;
}

/* The block scan of html_extract.extract_main_content_py on one ASCII
 * span without NUL bytes, src[0:n]:
 *   1. <!--.*?--> and the head/script/style/template/noscript subtrees
 *      become " " (into work, n bytes);
 *   2. the rest is split at the block tags (p, div, ..., body, html);
 *   3. each non-blank block's text (tags -> " ", whitespace collapsed,
 *      ends stripped) goes to out followed by a '\0', and its
 *      link-character count to links.
 * Returns the number of bytes written to out, or -1 if there are more
 * than max_blocks blocks.  Every step only shrinks the text and a block
 * ends in a tag of at least 3 bytes (or at the end), so out needs n + 1
 * bytes and links n / 4 + 1 entries. */
int64_t html_blocks(const uint8_t *src, int64_t n, uint8_t *work,
                    uint8_t *out, int64_t *links, int64_t max_blocks)
{
    int64_t m = drop_subtrees(work, drop_comments(src, n, work));
    int64_t nb = 0, w = 0, start = 0, pos = 0;
    const uint8_t *p;
    while ((p = find_byte(work, pos, m, '<')) != NULL) {
        int64_t i = p - work, j = i + 1;
        pos = i + 1;
        if (j < m && work[j] == '/')
            j++;
        int b = name_index(BLOCK_NAMES, N_BLOCK, work, j, m);
        if (b < 0)
            continue;
        /* [^>]*>: the tag ends at the first '>' after the name */
        const uint8_t *g = find_byte(work, j + BLOCK_NAMES[b].len, m, '>');
        if (!g)
            break; /* no later block tag can end either */
        if (emit_block(work, start, i, out, &w, links, &nb, max_blocks) < 0)
            return -1;
        start = pos = g - work + 1;
    }
    if (emit_block(work, start, m, out, &w, links, &nb, max_blocks) < 0)
        return -1;
    return w;
}

/* Does s[0:n] hold a NUL or a byte past ASCII?  (c - 1) wraps NUL to
 * 255, so one unsigned compare tests both. */
static int has_nul_or_non_ascii(const uint8_t *s, int64_t n)
{
    int bad = 0;
    for (int64_t i = 0; i < n; i++)
        bad |= (uint8_t)(s[i] - 1) >= 0x7f;
    return bad;
}

/* The gate and join of html_extract.extract_main_content over the m
 * bytes of html_blocks' output at s: keeps each block whose length is at
 * least min_len and whose link density (link characters / length, 1.0
 * for an empty text) is at most max_link_density, joined with '\n' in
 * place from s.  Returns the joined length, or -1 when a kept block
 * holds an '&' (html.unescape could change it). */
static int64_t gate_and_join(uint8_t *s, int64_t m, const int64_t *links,
                             int64_t min_len, double max_link_density)
{
    int64_t w = 0, r = 0, kept = 0;
    for (int64_t b = 0; r < m; b++) {
        const uint8_t *end = memchr(s + r, '\0', (size_t)(m - r));
        int64_t len = end - (s + r);
        double density = len ? (double)links[b] / (double)len : 1.0;
        if (len >= min_len && density <= max_link_density) {
            if (memchr(s + r, '&', (size_t)len))
                return -1;
            /* every block ends in a NUL, so after the first kept block w
             * stays below r and the '\n' never lands on unread text */
            if (kept++)
                s[w++] = '\n';
            memmove(s + w, s + r, (size_t)len);
            w += len;
        }
        r += len + 1;
    }
    return w;
}

/* html_extract.extract_main_content(span, min_len, max_link_density)
 * over the n spans of an Arrow string array: span i is
 * data[offsets[i]:offsets[i + 1]], and null when `valid` is not NULL and
 * its bit i is clear.  Span i's text goes to out[out_offsets[i]:
 * out_offsets[i + 1]]; a null or empty span gives "".  fallback[i] is
 * set, and the span gives "", when html_blocks cannot take the span (a
 * NUL or a non-ASCII byte) or a kept block holds an '&': the caller
 * strips those spans itself.
 *
 * Scratch: work and links as html_blocks needs them for the longest
 * span.  out needs offsets[n] - offsets[0] + 1 bytes: a span's blocks
 * and their NULs fit in its length + 1, and its joined text in its
 * length.  Returns the bytes written to out, or -1 when a span has more
 * than max_blocks blocks. */
int64_t html_strip(const int32_t *offsets, const uint8_t *data,
                   const uint8_t *valid, int64_t n, int64_t min_len,
                   double max_link_density, uint8_t *work, int64_t *links,
                   int64_t max_blocks, int32_t *out_offsets, uint8_t *out,
                   uint8_t *fallback)
{
    int64_t w = 0;
    out_offsets[0] = 0;
    for (int64_t i = 0; i < n; i++) {
        const uint8_t *s = data + offsets[i];
        int64_t len = (int64_t)offsets[i + 1] - offsets[i];
        fallback[i] = 0;
        if (len > 0 && (!valid || (valid[i >> 3] >> (i & 7) & 1))) {
            if (has_nul_or_non_ascii(s, len)) {
                fallback[i] = 1;
            } else {
                int64_t m = html_blocks(s, len, work, out + w, links,
                                        max_blocks);
                if (m < 0)
                    return -1;
                int64_t k = gate_and_join(out + w, m, links, min_len,
                                          max_link_density);
                if (k < 0)
                    fallback[i] = 1;
                else
                    w += k;
            }
        }
        out_offsets[i + 1] = (int32_t)w;
    }
    return w;
}
