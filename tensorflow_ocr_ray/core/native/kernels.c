/* Native kernels: CCITT G4 (T.6) decode, TIFF-LZW decode, 2-D prefix
 * sum, and the block scan of the html boilerplate strip.
 *
 * Each page kernel is a line-for-line port of its Python reference
 * (ccitt.decode_g4_py, tiff_lzw.lzw_decode_py, segment.prefix_sum_2d_py):
 * the same bit reader, the same tables, the same error points, so the
 * output is bit-identical and every error the Python code raises is
 * reported here as a status code at the same place in the stream.  The
 * html scan fuses the regex passes of html_extract.extract_main_content_py
 * into one left-to-right scan with the same match semantics on ASCII
 * input.  The caller allocates every buffer; nothing here allocates or
 * touches Python.
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
