/* Page kernels: CCITT G4 (T.6) decode, TIFF-LZW decode, 2-D prefix sum.
 *
 * Each kernel is a line-for-line port of its Python reference
 * (ccitt.decode_g4_py, tiff_lzw.lzw_decode_py, segment.prefix_sum_2d_py):
 * the same bit reader, the same tables, the same error points, so the
 * output is bit-identical and every error the Python code raises is
 * reported here as a status code at the same place in the stream.  The
 * caller allocates every buffer; nothing here allocates or touches Python.
 */

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
 * that reaches max_out, so cap >= max_out + LZW_TABLE always suffices. */
int64_t lzw_decode(const uint8_t *data, int64_t n, int64_t max_out,
                   int early, uint8_t *out, int64_t cap, int64_t *err)
{
    static const int FIRST = 258;
    uint16_t prefix[LZW_TABLE];
    uint8_t suffix[LZW_TABLE], first[LZW_TABLE];
    int32_t len[LZW_TABLE];
    for (int i = 0; i < 256; i++) {
        suffix[i] = first[i] = (uint8_t)i;
        len[i] = 1;
    }
    int width = 9;
    int64_t nt = FIRST; /* table length; entries >= LZW_TABLE are never
                           addressable, so they are counted, not stored */
    int64_t bump = (1 << 9) - 1 - early;
    int prev = -1;
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
        } else if (code < nt) {
            if (nt < LZW_TABLE) {
                prefix[nt] = (uint16_t)prev;
                suffix[nt] = first[code];
                first[nt] = first[prev];
                len[nt] = len[prev] + 1;
            }
            nt++;
        } else if (code == nt) { /* the KwKwK case */
            prefix[nt] = (uint16_t)prev;
            suffix[nt] = first[prev];
            first[nt] = first[prev];
            len[nt] = len[prev] + 1;
            nt++;
        } else {
            err[0] = code;
            return -1;
        }
        int64_t k = len[code];
        if (olen + k > cap)
            return -2;
        uint8_t *p = out + olen + k;
        for (int c = code; k-- > 0; c = prefix[c])
            *--p = suffix[c];
        olen += len[code];
        prev = code;
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
