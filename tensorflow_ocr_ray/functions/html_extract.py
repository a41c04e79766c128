"""HTML main-content extraction — boilerplate strip via DOM-block
heuristics (the extraction tier's other modality next to OCR).

Readability-lite, regex/str and one C scan (no HTML lib in this
container):

1. drop <head>/<script>/<style>/<template>/<noscript> subtrees and
   comments;
2. split the remaining markup into text blocks at block-element
   boundaries (p, div, article, section, li, td, h1-h6, blockquote);
3. score each block: text length vs LINK DENSITY (fraction of the
   block's text that sits inside <a> tags) — the classic boilerplate
   signal (navs/footers are short and link-dense);
4. keep blocks with enough text and low link density; entity-unescape
   and whitespace-collapse the survivors.

Steps 1-3 run in the native kernel library (``core/native``) when it is
built and the span is ASCII without NUL bytes.  A column of spans
(:func:`main_content_array`) is one ``html_strip`` call over its Arrow
buffers: the ``html_blocks`` scan, the gate and the join run in C for
every span, and only the spans the kernel leaves (not ASCII, a NUL, or a
kept block with an ``&`` to unescape) are stripped one by one.  One
string (:func:`extract_main_content`) is one ``html_blocks`` scan; Python
then unescapes only the blocks that hold an ``&``, applies the gate and
joins.  ``extract_main_content_py`` is the regex reference: the fallback
for every other span, and the oracle of the kernels' differential tests.
"""

from __future__ import annotations

import html as _html
import re

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from tensorflow_ocr_ray.core import native

_COMMENT = re.compile(r"<!--.*?-->", re.S)
# head joins the dropped subtrees: title/meta/style/script residue is
# chrome, never main content (readability drops the whole head too);
# script/style stay listed for pages that put them in the body
_DROP_SUBTREE = re.compile(
    r"<(head|script|style|template|noscript)\b.*?</\1\s*>", re.S | re.I
)
_BLOCK_SPLIT = re.compile(
    r"</?(?:p|div|article|section|li|td|h[1-6]|blockquote|nav|header|"
    r"footer|aside|ul|ol|table|tr|body|html)\b[^>]*>",
    re.I,
)
_A_TEXT = re.compile(r"<a\b[^>]*>(.*?)</a\s*>", re.S | re.I)
_TAG = re.compile(r"<[^>]+>")
_WS = re.compile(r"\s+")


def _block_text(chunk: str) -> tuple[str, float]:
    """(clean text, link density) for one raw block chunk."""
    link_chars = sum(
        len(_WS.sub(" ", _TAG.sub("", m)).strip())
        for m in _A_TEXT.findall(chunk)
    )
    text = _WS.sub(" ", _TAG.sub(" ", chunk)).strip()
    text = _html.unescape(text)
    density = link_chars / len(text) if text else 1.0
    return text, density


def extract_main_content(
    html: str, min_len: int = 25, max_link_density: float = 0.33
) -> str:
    """Boilerplate-stripped main text of one HTML document."""
    kernels = native.load()
    if kernels is None or not html.isascii() or "\x00" in html:
        return extract_main_content_py(html, min_len, max_link_density)
    kept: list[str] = []
    for text, link_chars in zip(*kernels.html_blocks(html.encode())):
        if "&" in text:
            # unescape never lengthens a non-empty text nor empties it,
            # so a block that fails the gate before it fails after it
            if len(text) < min_len or link_chars / len(text) > \
                    max_link_density:
                continue
            text = _html.unescape(text)
        density = link_chars / len(text) if text else 1.0
        if len(text) >= min_len and density <= max_link_density:
            kept.append(text)
    return "\n".join(kept)


def extract_main_content_py(
    html: str, min_len: int = 25, max_link_density: float = 0.33
) -> str:
    """Regex reference of :func:`extract_main_content`."""
    s = _COMMENT.sub(" ", html)
    s = _DROP_SUBTREE.sub(" ", s)
    kept: list[str] = []
    for chunk in _BLOCK_SPLIT.split(s):
        if not chunk or not chunk.strip():
            continue
        text, density = _block_text(chunk)
        if len(text) >= min_len and density <= max_link_density:
            kept.append(text)
    return "\n".join(kept)


def main_content_array(
    texts: pa.Array, min_len: int = 25, max_link_density: float = 0.33,
    per_span=extract_main_content,
) -> pa.Array:
    """:func:`extract_main_content` of every string of ``texts``, nulls
    kept null, in one ``html_strip`` kernel call for a ``pa.string()``
    array.  The spans the kernel leaves (a NUL or a non-ASCII byte, or a
    kept block with an ``&``), every span of another string type and
    every span when the kernels are unavailable go through ``per_span``
    (called like ``extract_main_content``) one at a time."""
    kernels = native.load()
    if kernels is None or texts.type != pa.string():
        return pa.array(
            [per_span(t, min_len, max_link_density) if t else t
             for t in texts.to_pylist()],
            type=texts.type,
        )
    out, redo = kernels.html_strip(texts, min_len, max_link_density)
    if redo.any():
        mask = pa.array(redo)
        out = pc.replace_with_mask(out, mask, pa.array(
            [per_span(t, min_len, max_link_density)
             for t in texts.filter(mask).to_pylist()],
            type=pa.string(),
        ))
    return out


def main_content_batch(df: pd.DataFrame) -> pd.DataFrame:
    """map_batches stage: ``html`` column → extracted text + block
    telemetry."""
    texts = main_content_array(pa.array(df["html"], type=pa.string()))
    blocks = pc.if_else(
        pc.equal(pc.binary_length(texts), 0), 0,
        pc.add(pc.count_substring(texts, "\n"), 1),
    )
    return pd.DataFrame(
        {
            "doc_id": df["doc_id"],
            "extracted": texts.to_pylist(),
            "n_blocks": pd.array(blocks.to_numpy(), dtype="int64"),
        }
    )


# ---------------- deterministic page synthesis (fixtures/queries) --------

_PAGE_TEMPLATE = """<!DOCTYPE html><html><head>
<title>doc {doc_id}</title>
<style>body {{ margin: 0; }}</style>
<script>var tracker = "{doc_id}"; load();</script>
</head><body>
<nav><a href="/">Home</a> <a href="/browse">Browse</a>
<a href="/about">About</a> <a href="/contact">Contact us</a></nav>
<header><h1><a href="/">Example Library</a></h1></header>
<!-- boilerplate chrome above -->
<article><p>{body}</p></article>
<aside><a href="/related/1">Related one</a>
<a href="/related/2">Related two</a></aside>
<footer><a href="/tos">Terms</a> &copy; 2024 Example
<a href="/privacy">Privacy</a></footer>
</body></html>"""


def wrap_in_boilerplate(doc_id, text: str) -> str:
    """Deterministic chrome around a document's text: nav/header/aside/
    footer boilerplate, script/style/comment noise.  Entity-escaping is
    exact-inverse of the extractor's unescape, so extraction recovers
    ``text`` byte-for-byte (the oracle relies on this)."""
    return _PAGE_TEMPLATE.format(doc_id=doc_id, body=_html.escape(text))


def wrap_batch(df: pd.DataFrame) -> pd.DataFrame:
    return pd.DataFrame(
        {
            "doc_id": df["doc_id"],
            "html": [
                wrap_in_boilerplate(d, t)
                for d, t in zip(df["doc_id"], df["text"])
            ],
        }
    )


# ---------------- table extraction (DOM heuristics, structured out) ------

_TABLE_RE = re.compile(r"<table\b[^>]*>(.*?)</table\s*>", re.S | re.I)
_TR_RE = re.compile(r"<tr\b[^>]*>(.*?)</tr\s*>", re.S | re.I)
_CELL_RE = re.compile(r"<(t[dh])\b[^>]*>(.*?)</t[dh]\s*>", re.S | re.I)


def extract_tables(html: str) -> list[list[list[str]]]:
    """All tables in a page as data-row cell matrices.

    DOM-lite, same regex discipline as the block extractor: a row is a
    ``<tr>``, a cell is ``<td>``/``<th>``; rows made ONLY of ``<th>``
    cells are structural headers and are dropped (the classic scraping
    heuristic — header rows describe columns, they are not records);
    cell text is tag-stripped, entity-unescaped and
    whitespace-collapsed."""
    tables = []
    for tbody in _TABLE_RE.findall(html):
        rows = []
        for tr in _TR_RE.findall(tbody):
            cells = _CELL_RE.findall(tr)
            if not cells or all(tag.lower() == "th" for tag, _ in cells):
                continue
            rows.append([
                _html.unescape(_WS.sub(" ", _TAG.sub(" ", body)).strip())
                for _, body in cells
            ])
        tables.append(rows)
    return tables


def extract_main_table(html: str) -> list[list[str]]:
    """The page's MAIN table: most data cells wins (navs/footers wrap
    tiny layout tables; the record-bearing table is the big one — the
    second DOM-heuristic next to link density). Ties keep the first."""
    tables = extract_tables(html)
    if not tables:
        return []
    return max(tables, key=lambda rows: sum(len(r) for r in rows))


_TABLE_PAGE = """<!DOCTYPE html><html><head><title>t {doc_id}</title>
<script>render({doc_id});</script></head><body>
<nav><table class="nav"><tr><td><a href="/">Home</a></td>
<td><a href="/about">About</a></td></tr></table></nav>
<article><table class="data">
<tr><th> id </th><th> lang </th><th> src </th></tr>
{rows}
</table></article>
<footer>&copy; 2024</footer>
</body></html>"""


def table_page_for(doc_id: int, lang: str, source: str) -> str:
    """Deterministic record-bearing page: a decoy 1x2 nav table, a
    th header row, and 1 + doc_id%3 data rows whose cells derive
    arithmetically from the document row (the oracle re-derives them
    in SQL).  The src cell spells its hyphen as ``&#45;`` and pads
    whitespace — unescape + collapse are on the hash."""
    rows = "\n".join(
        '<tr><td class="c"> {} </td><td>\n  {}\n</td><td>{}&#45;{}</td></tr>'
        .format(doc_id * 10 + r, lang, source, r)
        for r in range(1 + doc_id % 3)
    )
    return _TABLE_PAGE.format(doc_id=doc_id, rows=rows)


# ---------------- outlink extraction (link graph feed) -------------------

_HREF_RE = re.compile(r"""<a\b[^>]*?\bhref\s*=\s*["']?([^"'\s>]+)""", re.I)
_ABS_URL = re.compile(r"^(https?)://([^/:?#]+)", re.I)


def extract_outlinks(html: str) -> list[str]:
    """Lower-cased hosts of the page's ABSOLUTE http(s) outlinks, in
    document order.  Relative hrefs (site-internal nav), fragments and
    non-web schemes (mailto:, javascript:) are not outlinks — the
    external/internal distinction every link-graph builder makes."""
    hosts = []
    for href in _HREF_RE.findall(html):
        m = _ABS_URL.match(href)
        if m:
            hosts.append(m.group(2).lower())
    return hosts


_LINK_PAGE = """<!DOCTYPE html><html><head><title>l {doc_id}</title></head>
<body><nav><a href="/">Home</a> <a href="/about">About</a>
<a href="#top">Top</a> <a href="mailto:x@example.org">Mail</a>
<a href="javascript:void(0)">JS</a></nav>
<article><p>doc {doc_id}</p>
{links}
</article></body></html>"""


def link_page_for(doc_id: int) -> str:
    """Deterministic page with 1 + doc_id%4 absolute outlinks to hosts
    (doc_id*7 + k) % 50 (scheme alternates http/https; the HOST, not
    the scheme, is the graph node) plus relative/fragment/mailto/js
    decoys the extractor must ignore."""
    links = "\n".join(
        '<a href="{}://HOST{}.example/p/{}?ref=a#frag">out {}</a>'.format(
            "https" if (doc_id + k) % 2 == 0 else "http",
            (doc_id * 7 + k) % 50, doc_id, k,
        )
        for k in range(1 + doc_id % 4)
    )
    return _LINK_PAGE.format(doc_id=doc_id, links=links)


# ---------------- head metadata (title / description / canonical) ----------

_TITLE_RE = re.compile(r"<title\b[^>]*>(.*?)</title\s*>", re.S | re.I)
_META_RE = re.compile(r"<meta\b[^>]*?>", re.S | re.I)
_LINK_RE = re.compile(r"<link\b[^>]*?>", re.S | re.I)
_ATTR_RE = re.compile(
    r"""([A-Za-z][A-Za-z0-9:_-]*)\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>]+))"""
)


def _attrs(tag: str) -> dict[str, str]:
    return {
        m.group(1).lower(): next(g for g in m.groups()[1:] if g is not None)
        for m in _ATTR_RE.finditer(tag)
    }


def extract_meta(html: str) -> dict:
    """Head metadata the indexing tier keys on: ``title`` (first
    <title>, entity-unescaped, whitespace-collapsed), ``description``
    (the <meta name="description"> content — NOT og:description or any
    property= social-card decoy), ``canonical`` (the
    <link rel="canonical"> href — NOT stylesheet/icon links) and
    ``noindex`` (1 iff a <meta name="robots"> content lists noindex).
    Missing fields come back as empty string / 0 — absence is data, not
    an error, at corpus scale."""
    out = {"title": "", "description": "", "canonical": "", "noindex": 0}
    m = _TITLE_RE.search(html)
    if m:
        out["title"] = _html.unescape(_WS.sub(" ", m.group(1)).strip())
    for tag in _META_RE.findall(html):
        a = _attrs(tag)
        name = a.get("name", "").lower()
        if name == "description" and not out["description"]:
            out["description"] = _html.unescape(
                _WS.sub(" ", a.get("content", "")).strip())
        elif name == "robots":
            tokens = [t.strip().lower()
                      for t in a.get("content", "").split(",")]
            if "noindex" in tokens:
                out["noindex"] = 1
    for tag in _LINK_RE.findall(html):
        a = _attrs(tag)
        if a.get("rel", "").lower() == "canonical" and not out["canonical"]:
            out["canonical"] = a.get("href", "").strip()
    return out


_META_PAGE = """<!DOCTYPE html><html><head>
<title>T {doc_id} {lang}</title>
<meta property="og:title" content="OG {doc_id}">
<meta property="og:description" content="og decoy {doc_id}">
<meta name="description" content="d&amp;{doc_id} {source}">
{robots}<link rel="stylesheet" href="/x.css">
<link rel="canonical" href="https://host{host}.example.com/c/{doc_id}">
</head><body><p>body {doc_id}</p></body></html>"""


def meta_page_for(doc_id: int, lang: str, source: str) -> str:
    """Deterministic page head for ``doc_id``: real title / description
    / canonical plus og:* and stylesheet decoys; a robots noindex
    appears iff ``doc_id % 7 == 0``.  The description carries an
    ``&amp;`` entity the extractor must unescape."""
    robots = ('<meta name="robots" content="noindex, nofollow">\n'
              if doc_id % 7 == 0 else "")
    return _META_PAGE.format(doc_id=doc_id, lang=lang, source=source,
                             robots=robots, host=doc_id % 40)


def extract_outlinks_anchored(html: str) -> list[tuple[str, str]]:
    """(host, anchor_text) per absolute http(s) outlink, in document
    order — the anchor-text side of :func:`extract_outlinks` (anchor
    text is the classic relevance signal a link index aggregates per
    TARGET).  Anchor text is tag-stripped, entity-unescaped,
    whitespace-collapsed."""
    out = []
    for m in _A_TEXT.finditer(html):
        tag = m.group(0)
        href_m = _HREF_RE.match(tag) or _HREF_RE.search(tag)
        if not href_m:
            continue
        url_m = _ABS_URL.match(href_m.group(1))
        if not url_m:
            continue
        text = _html.unescape(
            _WS.sub(" ", _TAG.sub(" ", m.group(1))).strip())
        out.append((url_m.group(2).lower(), text))
    return out


# ---------------- per-host boilerplate lines (CCNet-style fixture) ---------

N_BOILER_HOSTS = 50


def boiler_page_lines(doc_id: int, text: str) -> list[str]:
    """Extracted-text page for the per-host boilerplate-line fixture:
    every document on host ``doc_id % 50`` shares the same nav lines
    (``h % 3 + 2`` of them) and footer line; the document's own text is
    the single content line between them.  The strip operator must
    discover the shared lines FROM FREQUENCY (they appear in >= 60% of
    the host's docs), not from this synthesis."""
    h = doc_id % N_BOILER_HOSTS
    lines = ["nav %d item %d" % (h, j) for j in range(h % 3 + 2)]
    lines.append(text)
    lines.append("footer %d" % h)
    return lines


# ---------------- JSON-LD structured data (schema.org) ---------------------

_SCRIPT_LD = re.compile(
    r"""<script\b[^>]*type\s*=\s*["']application/ld\+json["'][^>]*>"""
    r"(.*?)</script\s*>",
    re.S | re.I,
)

_LD_PAGE = """<!DOCTYPE html><html><head><title>j {doc_id}</title>
<script>var x = {{"@type": "Decoy", "sku": -99}};</script>
{malformed}
<script type="application/ld+json">
{{"@context": "https://schema.org", "@type": "Product",
 "sku": {doc_id}, "priceCents": {price},
 "name": "P {doc_id} {lang}"}}
</script>
{article}
</head><body><p>body {doc_id}</p></body></html>"""


def jsonld_page_for(doc_id: int, lang: str) -> str:
    """Deterministic JSON-LD fixture page: one valid Product block per
    document (sku/price arithmetic on ``doc_id``), a plain-JS decoy the
    extractor must not match, a MALFORMED ld+json block on ``doc_id % 7
    == 0`` it must skip without error, and a second valid Article block
    on ``doc_id % 5 == 0``."""
    malformed = (
        '<script type="application/ld+json">{"@type": "Broken", '
        '"oops": </script>'
        if doc_id % 7 == 0 else ""
    )
    article = (
        '<script type="application/ld+json">'
        '{"@type": "Article", "name": "A %d"}</script>' % doc_id
        if doc_id % 5 == 0 else ""
    )
    return _LD_PAGE.format(
        doc_id=doc_id, lang=lang,
        price=(doc_id * 37) % 10000 + 99,
        malformed=malformed, article=article,
    )


def extract_jsonld(html: str) -> list[dict]:
    """Parse every ``<script type="application/ld+json">`` block; blocks
    that fail to parse as JSON objects are skipped (crawl reality:
    malformed structured data is common and must not kill the record)."""
    import json as _json

    out = []
    for m in _SCRIPT_LD.finditer(html):
        try:
            obj = _json.loads(m.group(1))
        except ValueError:
            continue
        if isinstance(obj, dict):
            out.append(obj)
    return out


# ---------------- heading outline (document structure) ---------------------

_H_RE = re.compile(r"<h([1-6])\b[^>]*>(.*?)</h\1\s*>", re.S | re.I)
_SCRIPT_ANY = re.compile(r"<script\b[^>]*>.*?</script\s*>", re.S | re.I)


def outline_page_for(doc_id: int) -> str:
    """Deterministic heading-structure fixture: one h1, ``doc_id%3+1``
    h2 sections each holding ``doc_id%2+1`` h3 subsections, plus decoys
    a naive regex pass would wrongly pick up — an h2 inside an HTML
    comment and heading markup inside a script string."""
    ns, nt = doc_id % 3 + 1, doc_id % 2 + 1
    parts = [
        "<!DOCTYPE html><html><head><title>o %d</title>" % doc_id,
        '<script>var s = "<h2>fake heading</h2>";</script>',
        "</head><body>",
        "<!-- <h2>commented out</h2> -->",
        "<h1>H1 %d</h1>" % doc_id,
    ]
    for i in range(ns):
        parts.append("<h2>S %d %d</h2><p>sec body</p>" % (doc_id, i))
        for j in range(nt):
            parts.append("<h3>T %d %d %d</h3><p>sub</p>" % (doc_id, i, j))
    parts.append("</body></html>")
    return "".join(parts)


def extract_heading_outline(html: str) -> list[tuple[int, int, str, str]]:
    """(seq, level, text, section_path) per heading in document order;
    ``section_path`` joins the text of every open ancestor heading with
    `` > `` (a stack keyed by level).  Comments and scripts are dropped
    before matching."""
    clean = _SCRIPT_ANY.sub(" ", _COMMENT.sub(" ", html))
    out = []
    stack: list[tuple[int, str]] = []
    for seq, m in enumerate(_H_RE.finditer(clean)):
        level = int(m.group(1))
        text = _html.unescape(_WS.sub(" ", _TAG.sub(" ", m.group(2))).strip())
        while stack and stack[-1][0] >= level:
            stack.pop()
        stack.append((level, text))
        out.append((seq, level, text, " > ".join(t for _, t in stack)))
    return out


# ---------------- nested list extraction -----------------------------------

_LIST_TOKEN = re.compile(r"<(/?)(ul|ol|li)\b[^>]*>", re.I)
_DROP_CHROME = re.compile(
    r"<(nav|header|footer|aside)\b.*?</\1\s*>", re.S | re.I
)


def list_page_for(doc_id: int) -> str:
    """Deterministic nested-list fixture: the main ``<article>`` carries
    a ``<ul>`` of ``doc_id%3+1`` items; the FIRST item nests an ``<ol>``
    of ``doc_id%2+1`` sub-items.  Decoys a naive pass would pick up: a
    chrome ``<nav><ul>`` (menu markup — must be dropped as boilerplate
    subtree), a commented-out ``<li>`` and ``<li>`` markup inside a
    script string."""
    n1, n2 = doc_id % 3 + 1, doc_id % 2 + 1
    items = []
    for i in range(n1):
        sub = ""
        if i == 0:
            sub = "<ol>" + "".join(
                "<li>O %d 0 %d</li>" % (doc_id, j) for j in range(n2)
            ) + "</ol>"
        items.append("<li>L %d %d %s</li>" % (doc_id, i, sub))
    return (
        "<!DOCTYPE html><html><head><title>l %d</title>" % doc_id
        + "<script>var m = \"<li>fake item</li>\";</script></head><body>"
        + "<nav><ul><li><a href='/'>Home</a></li>"
        + "<li><a href='/about'>About</a></li></ul></nav>"
        + "<!-- <li>ghost item</li> -->"
        + "<article><ul>" + "".join(items) + "</ul></article>"
        + "</body></html>"
    )


def extract_lists(html: str) -> list[tuple[int, int, int, str]]:
    """(seq, depth, is_ordered, item_text) per list item in document
    order.  Comments, scripts and chrome subtrees (nav/header/footer/
    aside) are dropped first — menu markup is boilerplate, not content.
    Depth counts enclosing ul/ol levels; an item's text is what sits
    between its ``<li>`` and the next list-structure tag (inline tags
    stripped, entities unescaped, whitespace collapsed)."""
    clean = _SCRIPT_ANY.sub(" ", _COMMENT.sub(" ", html))
    clean = _DROP_CHROME.sub(" ", clean)
    out: list[tuple[int, int, int, str]] = []
    stack: list[bool] = []  # True = ordered (<ol>)
    seq = 0
    toks = list(_LIST_TOKEN.finditer(clean))
    for t, m in enumerate(toks):
        closing, tag = bool(m.group(1)), m.group(2).lower()
        if tag in ("ul", "ol"):
            if closing:
                if stack:
                    stack.pop()
            else:
                stack.append(tag == "ol")
        elif tag == "li" and not closing and stack:
            end = toks[t + 1].start() if t + 1 < len(toks) else len(clean)
            text = _html.unescape(
                _WS.sub(" ", _TAG.sub(" ", clean[m.end():end])).strip()
            )
            out.append((seq, len(stack), int(stack[-1]), text))
            seq += 1
    return out


# ---------------- figure / caption extraction -------------------------------

_FIGURE = re.compile(r"<figure\b[^>]*>(.*?)</figure\s*>", re.S | re.I)
_IMG_SRC = re.compile(r"<img\b[^>]*?\bsrc=[\"']([^\"']*)[\"']", re.I)
_IMG_ALT = re.compile(r"<img\b[^>]*?\balt=[\"']([^\"']*)[\"']", re.I)
_FIGCAPTION = re.compile(
    r"<figcaption\b[^>]*>(.*?)</figcaption\s*>", re.S | re.I
)


def figure_page_for(doc_id: int) -> str:
    """Deterministic figure fixture: ``doc_id%3`` (0..2 — the zero case
    is exercised) ``<figure>`` blocks each holding an ``<img>`` +
    ``<figcaption>``; the alt attribute is absent when
    ``(doc_id+i)%4==0``.  Decoys: a loose ``<img>`` outside any figure
    (no caption to join — skipped) and a commented-out figure."""
    n = doc_id % 3
    figs = []
    for i in range(n):
        alt = (
            ' alt="alt %d %d"' % (doc_id, i)
            if (doc_id + i) % 4 != 0 else ""
        )
        figs.append(
            '<figure><img src="media/%d/%d.png"%s>' % (doc_id, i, alt)
            + "<figcaption>Cap %d %d &amp; note</figcaption></figure>"
            % (doc_id, i)
        )
    return (
        "<html><body><p>intro</p>"
        + '<img src="media/%d/loose.png" alt="loose">' % doc_id
        + "".join(figs)
        + "<!-- <figure><img src='x.png'>"
        + "<figcaption>ghost</figcaption></figure> -->"
        + "</body></html>"
    )


def extract_figures(html: str) -> list[tuple[str, str, str]]:
    """(media_ref, alt, caption) per ``<figure>`` that contains an
    ``<img>``, in document order — the caption↔media join an interleaved
    multimodal corpus keys on (each media span's nearest caption is its
    training-pair text).  Comments are dropped first; loose images
    outside figures have no caption and are not emitted."""
    clean = _COMMENT.sub(" ", html)
    out = []
    for m in _FIGURE.finditer(clean):
        body = m.group(1)
        src = _IMG_SRC.search(body)
        if not src:
            continue
        alt = _IMG_ALT.search(body)
        cap = _FIGCAPTION.search(body)
        cap_text = (
            _html.unescape(_WS.sub(" ", _TAG.sub(" ", cap.group(1))).strip())
            if cap else ""
        )
        out.append((src.group(1), alt.group(1) if alt else "", cap_text))
    return out


# ---------------- pagination pointers ---------------------------------------

_REL_NEXT = re.compile(
    r"<link\b[^>]*\brel=[\"']next[\"'][^>]*\bhref=[\"'][^\"']*/d/(\d+)[\"']",
    re.I,
)


def pagination_page_for(doc_id: int) -> str:
    """Deterministic paginated-article fixture: doc ids group into
    blocks of 4; block head ``h`` starts a chain of ``(h//4)%3+2``
    pages (2..4), members beyond the length are standalone pages.
    In-chain non-final pages carry ``<link rel="next">`` pointing at
    the next doc id; decoys every parser must ignore: rel="prev",
    rel="canonical" (same href shape) and a commented-out rel="next"."""
    h = doc_id - doc_id % 4
    length = (h // 4) % 3 + 2
    pos = doc_id % 4
    links = [
        '<link rel="canonical" href="https://p.example.com/art/%d/d/%d">'
        % (h, doc_id),
        '<!-- <link rel="next" href="https://p.example.com/art/0/d/0"> -->',
    ]
    if 0 < pos < length:
        links.append(
            '<link rel="prev" href="https://p.example.com/art/%d/d/%d">'
            % (h, doc_id - 1)
        )
    if pos < length - 1:
        links.append(
            '<link rel="next" href="https://p.example.com/art/%d/d/%d">'
            % (h, doc_id + 1)
        )
    return (
        "<!DOCTYPE html><html><head><title>pg %d</title>" % doc_id
        + "".join(links)
        + "</head><body><p>page body %d</p></body></html>" % doc_id
    )


def extract_next_doc(html: str) -> int:
    """The doc id a page's ``rel="next"`` link points at, or -1 when the
    page is chain-final / standalone.  Comments are dropped first so the
    commented-out decoy never matches."""
    m = _REL_NEXT.search(_COMMENT.sub(" ", html))
    return int(m.group(1)) if m else -1


# ---------------- HTML -> Markdown conversion -------------------------------

_MD_BLOCK = re.compile(
    r"<h([1-6])\b[^>]*>(.*?)</h\1\s*>|<p\b[^>]*>(.*?)</p\s*>"
    r"|<ul\b[^>]*>(.*?)</ul\s*>",
    re.S | re.I,
)
_MD_LI = re.compile(r"<li\b[^>]*>(.*?)</li\s*>", re.S | re.I)
_MD_BOLD = re.compile(r"<(b|strong)\b[^>]*>(.*?)</\1\s*>", re.S | re.I)
_MD_EM = re.compile(r"<(em|i)\b[^>]*>(.*?)</\1\s*>", re.S | re.I)
_MD_A = re.compile(
    r"<a\b[^>]*?\bhref=[\"']([^\"']*)[\"'][^>]*>(.*?)</a\s*>", re.S | re.I
)


def _md_inline(s: str) -> str:
    """Inline markup → Markdown spans, then strip leftovers."""
    s = _MD_A.sub(lambda m: "[%s](%s)" % (m.group(2), m.group(1)), s)
    s = _MD_BOLD.sub(lambda m: "**%s**" % m.group(2), s)
    s = _MD_EM.sub(lambda m: "*%s*" % m.group(2), s)
    return _html.unescape(_WS.sub(" ", _TAG.sub(" ", s)).strip()
                          .replace(" .", "."))


def md_page_for(doc_id: int) -> str:
    """Deterministic rich-markup fixture: h1 title, a paragraph with
    bold/em inline spans, ``doc_id%2+1`` h2 parts each holding a
    ``doc_id%3+1``-item list, a closing link paragraph — plus script and
    comment decoys that must not surface in the Markdown."""
    np_, ni = doc_id % 2 + 1, doc_id % 3 + 1
    parts = [
        "<!DOCTYPE html><html><head><title>m %d</title>" % doc_id,
        '<script>var h = "<h1>fake</h1>";</script></head><body>',
        "<!-- <p>ghost paragraph</p> -->",
        "<h1>Doc %d</h1>" % doc_id,
        "<p>Intro <b>bold %d</b> and <em>em %d</em> text.</p>"
        % (doc_id, doc_id),
    ]
    for i in range(np_):
        parts.append("<h2>Part %d</h2>" % i)
        parts.append(
            "<ul>"
            + "".join(
                "<li>point %d %d %d</li>" % (doc_id, i, j)
                for j in range(ni)
            )
            + "</ul>"
        )
    parts.append(
        '<p>See <a href="https://x.example.com/%d">ref %d</a>.</p>'
        % (doc_id, doc_id)
    )
    parts.append("</body></html>")
    return "".join(parts)


def html_to_markdown(html: str) -> str:
    """Markdown rendering of a page's content blocks: h1-h6 → ``#``
    runs, paragraphs → inline-converted lines (**bold**, *em*,
    [text](href)), ``<ul>`` → ``- `` lines; comments and script
    subtrees dropped first; blocks joined by blank lines."""
    clean = _SCRIPT_ANY.sub(" ", _COMMENT.sub(" ", html))
    blocks: list[str] = []
    for m in _MD_BLOCK.finditer(clean):
        if m.group(1):  # heading
            blocks.append(
                "#" * int(m.group(1)) + " " + _md_inline(m.group(2)))
        elif m.group(3) is not None:  # paragraph
            blocks.append(_md_inline(m.group(3)))
        else:  # list
            items = [
                "- " + _md_inline(li.group(1))
                for li in _MD_LI.finditer(m.group(4))
            ]
            if items:
                blocks.append("\n".join(items))
    return "\n\n".join(b for b in blocks if b)


# ---------------- DOM structure audit ---------------------------------------

_ANY_TAG = re.compile(r"<(/?)([A-Za-z][A-Za-z0-9]*)[^>]*?(/?)>")
_VOID_TAGS = frozenset(
    ("br", "img", "meta", "link", "input", "hr", "area", "base", "col",
     "embed", "source", "track", "wbr")
)


def dom_page_for(doc_id: int) -> str:
    """Deterministic DOM-shape fixture: ``doc_id%5`` nested divs around
    a paragraph holding two void elements, then a MISNESTED ``<b><i>``
    pair closed in the wrong order (crawl reality the walker must
    tolerate), plus comment/script decoys."""
    k = doc_id % 5
    return (
        "<!DOCTYPE html><html><head><title>d %d</title>" % doc_id
        + "<script>var t = \"<div><div>\";</script></head><body>"
        + "<!-- <div> -->"
        + "<div>" * k
        + '<p>x %d<br><img src="y.png"></p>' % doc_id
        + "</div>" * k
        + "<b><i>t</b></i>"
        + "</body></html>"
    )


def dom_stats(html: str) -> tuple[int, int, int]:
    """(max_depth, n_tags, n_void) from a tolerant tag-stack walk:
    void elements never push, a closing tag pops to its nearest open
    match (unwinding misnested inner tags) and is ignored when
    unmatched; comments, scripts and the doctype are dropped first.
    head/title are part of the tree and counted."""
    clean = _SCRIPT_ANY.sub(" ", _COMMENT.sub(" ", html))
    stack: list[str] = []
    max_depth = n_tags = n_void = 0
    for m in _ANY_TAG.finditer(clean):
        closing, tag, selfclose = m.group(1), m.group(2).lower(), m.group(3)
        if tag in _VOID_TAGS or selfclose:
            if not closing:
                n_tags += 1
                n_void += 1
            continue
        if closing:
            if tag in stack:
                while stack and stack[-1] != tag:
                    stack.pop()
                if stack:
                    stack.pop()
        else:
            n_tags += 1
            stack.append(tag)
            max_depth = max(max_depth, len(stack))
    return max_depth, n_tags, n_void


# ---------------- license detection -----------------------------------------

_REL_LICENSE = re.compile(
    r"<link\b[^>]*\brel=[\"']license[\"'][^>]*\bhref=[\"']"
    r"https?://creativecommons\.org/licenses/([a-z-]+)/", re.I)
_A_LICENSE = re.compile(
    r"<a\b[^>]*\bhref=[\"']https?://creativecommons\.org/licenses/"
    r"([a-z-]+)/", re.I)

_CC_TYPES = ("by", "by-sa", "by-nc")


def license_page_for(doc_id: int) -> str:
    """Deterministic license-marker fixture: docs with ``doc_id%5`` in
    1..3 declare a CC license via ``<link rel="license">`` (the strong
    machine-readable form), ``doc_id%5==4`` only mentions it in an
    anchor (weaker evidence), ``doc_id%5==0`` carries none.  A
    commented-out decoy link must never match."""
    cc = _CC_TYPES[doc_id % 3]
    r = doc_id % 5
    head = ""
    body = "<p>content %d</p>" % doc_id
    if 1 <= r <= 3:
        head = ('<link rel="license" '
                'href="https://creativecommons.org/licenses/%s/4.0/">' % cc)
    elif r == 4:
        body += ('<p>shared under <a '
                 'href="https://creativecommons.org/licenses/%s/4.0/">'
                 "CC %s</a></p>" % (cc, cc))
    return (
        "<!DOCTYPE html><html><head><title>lic %d</title>" % doc_id
        + head
        + '<!-- <link rel="license" href='
        + '"https://creativecommons.org/licenses/by/4.0/"> -->'
        + "</head><body>" + body + "</body></html>"
    )


def detect_license(html: str) -> tuple[str, str]:
    """(license, evidence): a ``rel="license"`` link wins (evidence
    ``rel-link``), else a creativecommons anchor counts as ``anchor``
    evidence, else ``('', 'none')``.  Comments dropped first."""
    clean = _COMMENT.sub(" ", html)
    m = _REL_LICENSE.search(clean)
    if m:
        return "cc-" + m.group(1).lower(), "rel-link"
    m = _A_LICENSE.search(clean)
    if m:
        return "cc-" + m.group(1).lower(), "anchor"
    return "", "none"


# ---------------- code-block extraction (LLM training-data op) -----------

_PRE_CODE = re.compile(
    r"<pre\b[^>]*>\s*<code\b([^>]*)>(.*?)</code\s*>\s*</pre\s*>",
    re.S | re.I,
)
_LANG_CLASS = re.compile(r"""class\s*=\s*["']?[^"'>]*language-(\w+)""", re.I)

_CODE_LANGS = ("python", "js", "sql", "c")


def extract_code_blocks(html: str) -> list[tuple[str, str]]:
    """(language, code) per fenced ``<pre><code>`` block, in document
    order.  Code text keeps its NEWLINES verbatim (code is
    whitespace-significant — the one extractor here that must NOT
    collapse whitespace) and is entity-unescaped; the language comes
    from a ``language-*`` class token, ``txt`` when absent.  Inline
    ``<code>`` (no ``<pre>`` parent) is prose typography, not a code
    block; ``<pre>`` inside dropped script/comment subtrees never
    surfaces."""
    s = _COMMENT.sub(" ", html)
    s = _DROP_SUBTREE.sub(" ", s)
    out = []
    for attrs, body in _PRE_CODE.findall(s):
        m = _LANG_CLASS.search(attrs)
        lang = m.group(1).lower() if m else "txt"
        out.append((lang, _html.unescape(body.strip("\n"))))
    return out


_CODE_PAGE = """<!DOCTYPE html><html><head><title>code {doc_id}</title>
<script>var fake = "<pre><code>decoy()</code></pre>";</script>
</head><body>
<p>Call <code>init({doc_id})</code> before use.</p>
{blocks}
<pre>plain preformatted, no code child — not a block</pre>
<!-- <pre><code class="language-go">commented()</code></pre> -->
</body></html>"""


def code_page_for(doc_id: int) -> str:
    """Deterministic page with ``1 + doc_id % 3`` fenced code blocks.
    Block ``i`` is ``language-{_CODE_LANGS[(doc_id+i) % 4]}`` with
    ``2 + (doc_id + 2*i) % 4`` lines; line ``j`` reads
    ``v{d}_{i}_{j} = {d*3+i*5+j}  # {j}&lt;9`` (the entity pins
    unescape; the newline layout pins verbatim whitespace).  Decoys:
    inline ``<code>``, a bare ``<pre>``, a script-string block and a
    commented-out block — none extract."""
    blocks = []
    for i in range(1 + doc_id % 3):
        n = 2 + (doc_id + 2 * i) % 4
        lines = "\n".join(
            "v%d_%d_%d = %d  # %d&lt;9"
            % (doc_id, i, j, doc_id * 3 + i * 5 + j, j)
            for j in range(n)
        )
        blocks.append(
            '<pre><code class="language-%s">\n%s\n</code></pre>'
            % (_CODE_LANGS[(doc_id + i) % 4], lines)
        )
    return _CODE_PAGE.format(doc_id=doc_id, blocks="\n".join(blocks))


# ---------------- hreflang alternate clusters -----------------------------

_LINK_TAG = re.compile(r"<link\b[^>]*?>", re.S | re.I)


def extract_hreflang(html: str) -> list[tuple[str, str]]:
    """(hreflang, href) per ``<link rel="alternate" hreflang=...>`` in
    document order; other link rels (canonical, stylesheet) and
    alternates WITHOUT hreflang (RSS alternates) don't belong to the
    language cluster."""
    out = []
    for tag in _LINK_TAG.findall(html):
        a = _attrs(tag)
        if a.get("rel", "").lower() != "alternate":
            continue
        hl = a.get("hreflang", "")
        if not hl:
            continue
        out.append((hl.lower(), a.get("href", "").strip()))
    return out


_HREFLANG_LANGS = ("en", "de", "fr")


def hreflang_page_for(doc_id: int) -> str:
    """Member ``doc_id % 3`` of language cluster ``doc_id // 3``: links
    every member (self included, per the hreflang spec) as
    ``https://{lang}.example.com/g/{g}``.  PLANTED BREAKAGE: in
    clusters with ``g % 5 == 0`` member 2 omits its link to member 0 —
    the reciprocity violation the cluster audit exists to catch.
    Decoys: an RSS alternate (no hreflang) and a canonical link."""
    g, mem = doc_id // 3, doc_id % 3
    links = []
    for m, lang in enumerate(_HREFLANG_LANGS):
        if g % 5 == 0 and mem == 2 and m == 0:
            continue
        links.append(
            '<link rel="alternate" hreflang="%s" '
            'href="https://%s.example.com/g/%d">' % (lang, lang, g)
        )
    return (
        "<!DOCTYPE html><html><head><title>hl %d</title>\n" % doc_id
        + '<link rel="alternate" type="application/rss+xml" href="/feed">\n'
        + '<link rel="canonical" href="https://%s.example.com/g/%d">\n'
        % (_HREFLANG_LANGS[mem], g)
        + "\n".join(links)
        + "</head><body><p>g %d m %d</p></body></html>" % (g, mem)
    )


# ---------------- microdata (itemscope/itemprop) ---------------------------

_ITEMSCOPE = re.compile(
    r"<(\w+)\b[^>]*\bitemscope\b[^>]*\bitemtype\s*=\s*"
    r"""["']https?://schema\.org/(\w+)["'][^>]*>""",
    re.I,
)
_ITEMPROP_TAG = re.compile(
    r"""<(\w+)\b[^>]*\bitemprop\s*=\s*["']?(\w+)["']?[^>]*>""", re.I
)


def extract_microdata(html: str) -> list[dict]:
    """Top-level microdata items as ``{"type": ..., props...}`` dicts.

    Scoping is the whole game: an itemprop inside a NESTED itemscope
    belongs to the nested item, not the outer one (the classic
    microdata pitfall — a Product's nested Brand name is not the
    product name).  Nested items are recorded on the parent under
    their itemprop name as ``"<TypeName>"`` markers; ``<meta
    itemprop=... content=...>`` carries its value in the content
    attribute, other tags in their text."""
    items: list[dict] = []
    stack: list[dict] = []
    pos = 0
    token = re.compile(
        r"<(\w+)\b[^>]*>|</(\w+)\s*>", re.S
    )
    open_tags: list[tuple[str, dict | None]] = []  # (tagname, item-or-None)
    for m in token.finditer(html):
        if m.group(1):  # open tag
            tag_src = m.group(0)
            tagname = m.group(1).lower()
            if tag_src.endswith("/>") or tagname in ("meta", "link",
                                                     "img", "br"):
                self_closing = True
            else:
                self_closing = False
            a = _attrs(tag_src)
            is_scope = "itemscope" in tag_src.lower() and "itemtype" in a
            prop = a.get("itemprop")
            new_item = None
            if is_scope:
                typ = a["itemtype"].rsplit("/", 1)[-1]
                new_item = {"type": typ}
                if prop and stack:
                    stack[-1][prop] = "<%s>" % typ
                if not stack:
                    items.append(new_item)
            elif prop and stack:
                if tagname == "meta":
                    stack[-1][prop] = _html.unescape(a.get("content", ""))
                else:
                    end = html.find("</%s" % tagname, m.end())
                    body = html[m.end():end] if end >= 0 else ""
                    stack[-1][prop] = _html.unescape(
                        _WS.sub(" ", _TAG.sub(" ", body)).strip())
            if not self_closing:
                open_tags.append((tagname, new_item))
                if new_item is not None:
                    stack.append(new_item)
        else:  # close tag
            tagname = m.group(2).lower()
            while open_tags:
                t, it = open_tags.pop()
                if it is not None and stack and stack[-1] is it:
                    stack.pop()
                if t == tagname:
                    break
    return items


def microdata_page_for(doc_id: int) -> str:
    """Even docs carry a schema.org Product (name / price meta / sku
    meta / a NESTED Brand whose name must not leak into the product);
    odd docs an Article (headline / wordCount).  Arithmetic values the
    oracle re-derives: price ``(doc_id*7) % 9000 + 100`` cents, sku
    ``SKU-{doc_id*3}``, wordCount ``50 + doc_id % 400``."""
    if doc_id % 2 == 0:
        return (
            '<!DOCTYPE html><html><body>\n'
            '<div itemscope itemtype="https://schema.org/Product">\n'
            '<span itemprop="name">P %d</span>\n'
            '<meta itemprop="price" content="%d">\n'
            '<meta itemprop="sku" content="SKU-%d">\n'
            '<div itemprop="brand" itemscope '
            'itemtype="https://schema.org/Brand">\n'
            '<span itemprop="name">B %d</span>\n'
            "</div>\n</div>\n</body></html>"
            % (doc_id, (doc_id * 7) % 9000 + 100, doc_id * 3, doc_id % 10)
        )
    return (
        '<!DOCTYPE html><html><body>\n'
        '<article itemscope itemtype="https://schema.org/Article">\n'
        '<h1 itemprop="headline">A %d</h1>\n'
        '<meta itemprop="wordCount" content="%d">\n'
        "</article>\n</body></html>" % (doc_id, 50 + doc_id % 400)
    )


# ---------------- AMP <-> canonical reciprocity ----------------------------

def amp_page_for(doc_id: int) -> str:
    """Even docs are canonical pages advertising their AMP twin
    (``rel="amphtml"`` to pair ``doc_id // 2``); odd docs are the AMP
    pages pointing back (``rel="canonical"``).  PLANTED BREAKAGE:
    when ``(doc_id//2) % 7 == 0`` the AMP page's canonical points at
    pair ``p + 1000000`` — the dangling back-link the reciprocity
    audit catches."""
    p = doc_id // 2
    if doc_id % 2 == 0:
        return (
            '<!DOCTYPE html><html><head><title>c %d</title>\n'
            '<link rel="amphtml" href="https://a.example.com/amp/%d">\n'
            '<link rel="stylesheet" href="/x.css">\n'
            "</head><body>canonical %d</body></html>" % (p, p, p)
        )
    tgt = p + 1000000 if p % 7 == 0 else p
    return (
        '<!DOCTYPE html><html amp><head><title>a %d</title>\n'
        '<link rel="canonical" href="https://c.example.com/page/%d">\n'
        "</head><body>amp %d</body></html>" % (p, tgt, p)
    )


_AMP_PAIR = re.compile(r"/amp/(\d+)")
_PAGE_PAIR = re.compile(r"/page/(\d+)")


def extract_amp_edge(html: str) -> tuple[str, int] | None:
    """('canon', pair) for a canonical page's amphtml link, ('amp',
    pair) for an AMP page's canonical back-link, None when neither."""
    for tag in _LINK_TAG.findall(html):
        a = _attrs(tag)
        rel = a.get("rel", "").lower()
        if rel == "amphtml":
            m = _AMP_PAIR.search(a.get("href", ""))
            if m:
                return ("canon", int(m.group(1)))
        elif rel == "canonical":
            m = _PAGE_PAIR.search(a.get("href", ""))
            if m:
                return ("amp", int(m.group(1)))
    return None


# ---------------- link rel audit (nofollow / sponsored / ugc) --------------

_REL_VARIANTS = ("", "nofollow", "sponsored", "ugc", "nofollow ugc")


def rel_link_page_for(doc_id: int) -> str:
    """Page with ``1 + doc_id % 4`` absolute outlinks; link ``k``
    carries rel variant ``(doc_id*3 + k) % 5`` of
    ``('', nofollow, sponsored, ugc, 'nofollow ugc')`` toward host
    ``(doc_id*7 + k) % 50`` — same host arithmetic as the link graph
    so the two audits join.  A relative nav link carries rel=nofollow
    as a decoy (not an outlink, never counted)."""
    links = ['<a href="/nav" rel="nofollow">Nav</a>']
    for k in range(1 + doc_id % 4):
        rel = _REL_VARIANTS[(doc_id * 3 + k) % 5]
        rel_attr = ' rel="%s"' % rel if rel else ""
        links.append(
            '<a href="https://host%d.example/p/%d"%s>out %d</a>'
            % ((doc_id * 7 + k) % 50, doc_id, rel_attr, k)
        )
    return (
        "<!DOCTYPE html><html><body><p>doc %d</p>\n" % doc_id
        + "\n".join(links) + "</body></html>"
    )


_A_FULL = re.compile(r"<a\b[^>]*>", re.I)


def extract_rel_links(html: str) -> list[tuple[str, int, int, int]]:
    """(host, nofollow, sponsored, ugc) flags per ABSOLUTE outlink —
    rel is a space-separated token list, so ``nofollow ugc`` flags
    both.  Relative links (site nav) are skipped whatever their
    rel."""
    out = []
    for tag in _A_FULL.findall(html):
        a = _attrs(tag)
        m = _ABS_URL.match(a.get("href", ""))
        if not m:
            continue
        toks = set(a.get("rel", "").lower().split())
        out.append((m.group(2).lower(), int("nofollow" in toks),
                    int("sponsored" in toks), int("ugc" in toks)))
    return out


# ---------------- breadcrumbs ----------------------------------------------

_CRUMB_NAV = re.compile(
    r"""<nav\b[^>]*class\s*=\s*["'][^"']*(?:breadcrumb|crumbs)[^"']*["']"""
    r"[^>]*>(.*?)</nav\s*>",
    re.S | re.I,
)
_LI_RE = re.compile(r"<li\b[^>]*>(.*?)</li\s*>", re.S | re.I)


def extract_breadcrumb(html: str) -> tuple[int, str]:
    """(depth, ' > '-joined path) of the page's breadcrumb trail — the
    nav whose class says breadcrumb; a pagination nav (same markup, no
    breadcrumb class) is chrome, not a trail.  (0, '') when absent."""
    m = _CRUMB_NAV.search(html)
    if not m:
        return 0, ""
    items = [
        _html.unescape(_WS.sub(" ", _TAG.sub(" ", li)).strip())
        for li in _LI_RE.findall(m.group(1))
    ]
    items = [i for i in items if i]
    return len(items), " > ".join(items)


def breadcrumb_page_for(doc_id: int) -> str:
    """Deterministic trail: Home, ``1 + doc_id % 3`` categories
    ``C{(doc_id*5+i) % 20}``, leaf ``Leaf {doc_id}`` — plus a
    class-less pagination nav decoy with the same li markup."""
    cats = "\n".join(
        '<li><a href="/c/%d">C%d</a></li>'
        % (i, (doc_id * 5 + i) % 20)
        for i in range(1 + doc_id % 3)
    )
    return (
        "<!DOCTYPE html><html><body>\n"
        '<nav><ol><li><a href="/p/1">1</a></li>'
        '<li><a href="/p/2">2</a></li></ol></nav>\n'
        '<nav class="site-breadcrumbs"><ol>\n'
        '<li><a href="/">Home</a></li>\n'
        + cats
        + "\n<li>Leaf %d</li>\n</ol></nav>\n" % doc_id
        + "<article><p>body %d</p></article></body></html>" % doc_id
    )


# ---------------- OpenGraph card audit --------------------------------------

def og_page_for(doc_id: int) -> str:
    """Page head whose og:title goes STALE every sixth doc (the CMS
    cache-drift failure an og-consistency audit catches) and whose
    og:image exists unless ``doc_id % 3 == 0``; a twitter:title decoy
    is never consulted."""
    og_title = "T %d" % doc_id
    if doc_id % 6 == 0:
        og_title += " (old)"
    img = (
        '<meta property="og:image" '
        'content="https://img.example/i/%d.jpg">\n' % doc_id
        if doc_id % 3 != 0 else ""
    )
    return (
        "<!DOCTYPE html><html><head>\n"
        "<title>T %d</title>\n" % doc_id
        + '<meta property="og:title" content="%s">\n' % og_title
        + '<meta name="twitter:title" content="TW %d">\n' % doc_id
        + img
        + "</head><body>b</body></html>"
    )


def audit_og_card(html: str) -> tuple[int, int]:
    """(title_match, has_image): does og:title equal the <title>
    (both unescaped + collapsed), and is an og:image present."""
    title, og_title, has_img = "", None, 0
    m = _TITLE_RE.search(html)
    if m:
        title = _html.unescape(_WS.sub(" ", m.group(1)).strip())
    for tag in _META_RE.findall(html):
        a = _attrs(tag)
        prop = a.get("property", "").lower()
        if prop == "og:title":
            og_title = _html.unescape(
                _WS.sub(" ", a.get("content", "")).strip())
        elif prop == "og:image" and a.get("content", "").strip():
            has_img = 1
    return int(og_title == title), has_img


# ---------------- extractor agreement (DOM-heuristic cross-check) ----------

def extract_main_content_density(
    html: str, min_len: int = 5, max_link_density: float = 0.33
) -> str:
    """The SECOND main-content extractor: pure link-density gate with a
    tiny length floor — keeps short low-density paragraphs the
    length-gated extractor drops.  Two independent heuristics
    disagreeing is the extraction-quality signal
    (``extractor_agreement``)."""
    return extract_main_content(
        html, min_len=min_len, max_link_density=max_link_density)


def agreement_page_for(doc_id: int, text: str) -> str:
    """The boilerplate-wrapped page plus, on every fourth doc, a
    planted SHORT paragraph (``tiny {doc_id % 100}`` — under the
    length-gated extractor's 25-char floor but plainly content) that
    makes the two extractors disagree."""
    page = wrap_in_boilerplate(doc_id, text)
    if doc_id % 4 == 0:
        page = page.replace(
            "</article>", "</p><p>tiny %d</p><p></article>"
            % (doc_id % 100), 1)
    return page


# ---------------- meta refresh (client-side redirect) -----------------------

_REFRESH_CONTENT = re.compile(
    r"^\s*(\d+)\s*(?:;\s*url\s*=\s*['\"]?([^'\"\s>]+))?", re.I
)


def extract_meta_refresh(html: str) -> tuple[int, str] | None:
    """(delay_seconds, target_url) of a ``<meta http-equiv="refresh">``
    — the client-side redirect a crawler must follow like a 301.
    None when absent or when the content names no url (a bare-delay
    refresh reloads the SAME page — not an edge).  http-equiv is
    case-insensitive; a ``name="refresh"`` decoy is NOT the directive."""
    for tag in _META_RE.findall(html):
        a = _attrs(tag)
        if a.get("http-equiv", "").lower() != "refresh":
            continue
        m = _REFRESH_CONTENT.match(a.get("content", ""))
        if m and m.group(2):
            return int(m.group(1)), m.group(2)
    return None


def refresh_page_for(doc_id: int) -> str:
    """Every third doc carries a meta refresh to
    ``https://r.example.com/t/{(doc_id*11) % 100}`` after
    ``doc_id % 10`` seconds (HTTP-EQUIV spelled in mixed case); every
    ninth a bare-delay refresh (no url — not an edge); the rest only
    the ``name="refresh"`` decoy."""
    d = doc_id
    if d % 3 == 0 and d % 9 != 0:
        extra = ('<meta HTTP-EQUIV="Refresh" content="%d; url='
                 'https://r.example.com/t/%d">' % (d % 10, (d * 11) % 100))
    elif d % 9 == 0:
        extra = '<meta http-equiv="refresh" content="%d">' % (d % 10)
    else:
        extra = ""
    return (
        "<!DOCTYPE html><html><head><title>r %d</title>\n" % d
        + '<meta name="refresh" content="5; url=https://decoy.example/">\n'
        + extra
        + "</head><body>b</body></html>"
    )


# ---------------- section-aware chunks (outline + body join) ---------------

def extract_section_chunks(html: str) -> list[tuple[int, int, str, str]]:
    """(seq, level, section_path, body) per heading — the
    heading-outline walk PLUS the text between each heading and the
    next (the RAG chunk shape: retrieval text with its section
    breadcrumb attached).  Comments/scripts drop first; body text is
    tag-stripped, entity-unescaped, whitespace-collapsed."""
    clean = _SCRIPT_ANY.sub(" ", _COMMENT.sub(" ", html))
    heads = list(_H_RE.finditer(clean))
    out = []
    stack: list[tuple[int, str]] = []
    for seq, m in enumerate(heads):
        level = int(m.group(1))
        text = _html.unescape(
            _WS.sub(" ", _TAG.sub(" ", m.group(2))).strip())
        while stack and stack[-1][0] >= level:
            stack.pop()
        stack.append((level, text))
        end = (heads[seq + 1].start() if seq + 1 < len(heads)
               else len(clean))
        body = _html.unescape(
            _WS.sub(" ", _TAG.sub(" ", clean[m.end():end])).strip())
        out.append((seq, level, " > ".join(t for _, t in stack), body))
    return out


# ---------------- video embeds ---------------------------------------------

_IFRAME_RE = re.compile(
    r"""<iframe\b[^>]*?\bsrc\s*=\s*["']?([^"'\s>]+)""", re.I)
_VIDEO_SRC_RE = re.compile(
    r"""<video\b.*?<source\b[^>]*?\bsrc\s*=\s*["']?([^"'\s>]+)""",
    re.S | re.I)
_VT_ID = re.compile(r"^https://videotube\.example/embed/v(\d+)$")
_VM_ID = re.compile(r"^https://player\.vidmeo\.example/video/(\d+)$")
_SELF_ID = re.compile(r"^/media/clip(\d+)\.mp4$")


def embed_page_for(doc_id: int) -> str:
    """Page with ``doc_id % 3`` video embeds (provider cycles
    videotube-iframe / vidmeo-iframe / self-hosted ``<video>`` by
    ``(doc_id+i) % 3``, id = ``doc_id*7+i``), plus two decoys every
    extractor must skip: an ad iframe (unknown host) and a
    commented-out videotube iframe."""
    parts = ["<!DOCTYPE html><html><head><title>v %d</title></head>"
             "<body>" % doc_id,
             '<iframe src="https://ads.example/slot/%d"></iframe>'
             % (doc_id % 5),
             "<!-- <iframe "
             'src="https://videotube.example/embed/v999"></iframe> -->']
    for i in range(doc_id % 3):
        vid = doc_id * 7 + i
        kind = (doc_id + i) % 3
        if kind == 0:
            parts.append(
                '<iframe src="https://videotube.example/embed/v%d" '
                'width="560" height="315"></iframe>' % vid)
        elif kind == 1:
            parts.append(
                '<iframe src="https://player.vidmeo.example/video/%d">'
                "</iframe>" % vid)
        else:
            parts.append(
                '<video controls><source src="/media/clip%d.mp4" '
                'type="video/mp4"></video>' % vid)
        parts.append("<p>between %d</p>" % i)
    parts.append("</body></html>")
    return "\n".join(parts)


def extract_video_embeds(html: str) -> list[tuple[int, str, int]]:
    """(seq, provider, video_id) per recognized embed in document
    order; unknown iframe hosts (ads) and commented-out embeds are
    skipped.  Providers: videotube / vidmeo (iframe URL patterns) and
    selfhost (``<video><source>`` mp4 path)."""
    clean = _COMMENT.sub(" ", html)
    found: list[tuple[int, str, int]] = []  # (pos, provider, id)
    for m in _IFRAME_RE.finditer(clean):
        src = m.group(1)
        vt = _VT_ID.match(src)
        if vt:
            found.append((m.start(), "videotube", int(vt.group(1))))
            continue
        vm = _VM_ID.match(src)
        if vm:
            found.append((m.start(), "vidmeo", int(vm.group(1))))
    for m in _VIDEO_SRC_RE.finditer(clean):
        sh = _SELF_ID.match(m.group(1))
        if sh:
            found.append((m.start(), "selfhost", int(sh.group(1))))
    found.sort()
    return [(seq, prov, vid)
            for seq, (_, prov, vid) in enumerate(found)]


# ---------------- canonical vs og:url consistency ---------------------------


def canonical_page_for(doc_id: int) -> str:
    """Head with ``rel=canonical`` (absent every 7th doc) and an
    ``og:url`` that drifts to a stale tracking variant every 5th doc;
    the ``rel=alternate`` link is a decoy never consulted."""
    canon = ("" if doc_id % 7 == 0 else
             '<link rel="canonical" '
             'href="https://site.example/p/%d">\n' % doc_id)
    og = "https://site.example/p/%d" % doc_id
    if doc_id % 5 == 0:
        og += "?utm=old"
    return (
        "<!DOCTYPE html><html><head>\n"
        + canon
        + '<link rel="alternate" href="https://m.site.example/p/%d">\n'
        % doc_id
        + '<meta property="og:url" content="%s">\n' % og
        + "</head><body>c</body></html>"
    )


def audit_canonical(html: str) -> tuple[int, int, int]:
    """(has_canonical, has_og_url, urls_agree): agreement requires
    BOTH present and byte-equal after strip."""
    canon = og = None
    for tag in _LINK_RE.findall(html):
        a = _attrs(tag)
        if a.get("rel", "").lower() == "canonical":
            canon = a.get("href", "").strip()
    for tag in _META_RE.findall(html):
        a = _attrs(tag)
        if a.get("property", "").lower() == "og:url":
            og = a.get("content", "").strip()
    return (int(canon is not None), int(og is not None),
            int(canon is not None and og is not None and canon == og))


# ---------------- form extraction -------------------------------------------

_FORM_RE = re.compile(r"<form\b([^>]*)>(.*?)</form\s*>", re.S | re.I)
_INPUT_RE = re.compile(r"<input\b[^>]*?>", re.I)


def form_page_for(doc_id: int) -> str:
    """Every page has a GET search form; every 4th also a POST login
    form (the password input is the login signature); every 6th a POST
    subscribe form with a hidden token input.  A commented-out form is
    the decoy."""
    parts = ["<!DOCTYPE html><html><head><title>f %d</title></head>"
             "<body>" % doc_id,
             '<form method="get" action="/search">'
             '<input type="text" name="q"></form>',
             '<!-- <form method="post" action="/x">'
             '<input type="password" name="no"></form> -->']
    if doc_id % 4 == 0:
        parts.append(
            '<form method="post" action="/login/%d">'
            '<input type="text" name="user">'
            '<input type="password" name="pw"></form>' % doc_id)
    if doc_id % 6 == 0:
        parts.append(
            '<form method="post" action="/subscribe">'
            '<input type="email" name="e">'
            '<input type="hidden" name="tok"></form>')
    parts.append("</body></html>")
    return "\n".join(parts)


def extract_forms(html: str) -> tuple[int, int, int, int, int]:
    """(n_forms, n_post, n_inputs, has_login, n_hidden) — login means
    any form carries a password-type input; commented-out forms are
    dropped before the scan."""
    clean = _COMMENT.sub(" ", html)
    n_forms = n_post = n_inputs = has_login = n_hidden = 0
    for m in _FORM_RE.finditer(clean):
        n_forms += 1
        attrs = _attrs("<form%s>" % m.group(1))
        if attrs.get("method", "get").lower() == "post":
            n_post += 1
        for tag in _INPUT_RE.findall(m.group(2)):
            a = _attrs(tag)
            n_inputs += 1
            t = a.get("type", "text").lower()
            if t == "password":
                has_login = 1
            elif t == "hidden":
                n_hidden += 1
    return n_forms, n_post, n_inputs, has_login, n_hidden


# ---------------- JS-dependence audit ----------------------------------------


def jsheavy_page_for(doc_id: int, text: str) -> str:
    """Every 6th doc renders as a JS shell — empty ``<div id=app>``
    plus a script of ``100 + (doc_id%10)*17`` payload bytes (the
    client-side-rendered page an HTML-only extractor sees as blank);
    the rest carry the document text in ``<p>`` with a fixed 30-byte
    analytics stub."""
    if doc_id % 6 == 0:
        body = ('<div id="app"></div><script>%s</script>'
                % ("x" * (100 + (doc_id % 10) * 17)))
    else:
        body = ("<p>%s</p><script>%s</script>"
                % (text, "y" * 30))
    return ("<!DOCTYPE html><html><head><title>s %d</title></head>"
            "<body>%s</body></html>" % (doc_id, body))


def audit_js_dependence(html: str) -> tuple[int, int, int]:
    """(body_text_len, script_bytes, js_dependent): visible text after
    script/tag strip + whitespace collapse vs total script payload
    bytes; a page is JS-dependent when it has scripts but almost no
    visible text (< 20 chars)."""
    script_bytes = 0
    for m in _SCRIPT_ANY.finditer(html):
        inner = re.sub(r"^<script\b[^>]*>", "", m.group(0), flags=re.I)
        inner = re.sub(r"</script\s*>$", "", inner, flags=re.I)
        script_bytes += len(inner)
    clean = _SCRIPT_ANY.sub(" ", _COMMENT.sub(" ", html))
    m = re.search(r"<body\b[^>]*>(.*?)</body\s*>", clean, re.S | re.I)
    body = m.group(1) if m else ""
    text = _WS.sub(" ", _TAG.sub(" ", body)).strip()
    return (len(text), script_bytes,
            int(script_bytes > 0 and len(text) < 20))


# ---------------- in-page anchor (TOC) audit ---------------------------------

_ANCHOR_HREF = re.compile(
    r"""<a\b[^>]*?\bhref\s*=\s*["']?(#[^"'\s>]+)""", re.I)
_ID_ATTR = re.compile(
    r"""<[a-z][a-z0-9]*\b[^>]*?\bid\s*=\s*["']?([^"'\s>]+)""", re.I)


def toc_page_for(doc_id: int) -> str:
    """Table-of-contents page: ``doc_id%4+2`` sections with
    ``<h2 id=s{i}>`` targets and a nav of ``#s{i}`` links; every 3rd
    doc plants one broken ``#missing`` link; the external-URL fragment
    link is the decoy an in-page audit must not count."""
    n = doc_id % 4 + 2
    toc = ["<nav><ul>"]
    toc += ['<li><a href="#s%d">Sec %d</a></li>' % (i, i)
            for i in range(n)]
    if doc_id % 3 == 0:
        toc.append('<li><a href="#missing">Gone</a></li>')
    toc.append('<li><a href="https://x.example/page#s0">Ext</a></li>')
    toc.append("</ul></nav>")
    body = ['<h2 id="s%d">Sec %d</h2><p>body %d</p>' % (i, i, i)
            for i in range(n)]
    return ("<!DOCTYPE html><html><head><title>t %d</title></head>"
            "<body>%s%s</body></html>"
            % (doc_id, "".join(toc), "".join(body)))


def audit_anchors(html: str) -> tuple[int, int, int]:
    """(n_anchors, n_targets, n_broken): in-page fragment links vs
    element ids; external-URL fragments never count."""
    anchors = [m.group(1)[1:] for m in _ANCHOR_HREF.finditer(html)]
    ids = set(_ID_ATTR.findall(html))
    broken = sum(1 for a in anchors if a not in ids)
    return len(anchors), len(ids), broken


# ---------------- image alt audit --------------------------------------------

_IMG_RE = re.compile(r"<img\b[^>]*?>", re.I)


def img_page_for(doc_id: int) -> str:
    """``doc_id%5+1`` images: image ``i`` is missing its alt when
    ``(d+i)%3==0``, carries an EMPTY alt when ``(d+i)%3==1``
    (decorative marker — present but empty), else a real caption; a
    commented-out img is the decoy."""
    imgs = []
    for i in range(doc_id % 5 + 1):
        k = (doc_id + i) % 3
        if k == 0:
            imgs.append('<img src="/i/%d_%d.jpg">' % (doc_id, i))
        elif k == 1:
            imgs.append('<img src="/i/%d_%d.jpg" alt="">'
                        % (doc_id, i))
        else:
            imgs.append('<img src="/i/%d_%d.jpg" alt="img %d %d">'
                        % (doc_id, i, doc_id, i))
    return ("<!DOCTYPE html><html><body>"
            '<!-- <img src="/decoy.jpg"> -->%s</body></html>'
            % "".join(imgs))


def audit_img_alt(html: str) -> tuple[int, int, int, int]:
    """(n_images, n_missing, n_empty, coverage_milli) — coverage is
    the fraction with a REAL caption, in milli-units (floor)."""
    clean = _COMMENT.sub(" ", html)
    n = missing = empty = 0
    for tag in _IMG_RE.findall(clean):
        n += 1
        a = _attrs(tag)
        if "alt" not in a:
            missing += 1
        elif a["alt"] == "":
            empty += 1
    cov = (n - missing - empty) * 1000 // n if n else 0
    return n, missing, empty, cov
