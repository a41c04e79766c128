"""Line/text assembly — the batch-mode displayText path of the reference.

Reproduces (``main/gtkDisplay.c:202-365``):

- glyph → string via the classifier (``ocrValue``), ``▮`` on weak match
- inter-word spaces: emitted when the gap to the next glyph exceeds
  ``spaceFraction * glyphWidth``; count = ``max(1, gap/glyphWidth - 1)``
  with C integer division (gtkDisplay.c:211-219)
- blank lines between text lines: ``(top - prevBottom) / lineHeight`` with C
  integer division, clamped at 0; ``>2 → n/2 + 1`` (gtkDisplay.c:268-271)
- indentation: ``(leftBorder - leftMargin) / glyphWidth`` spaces (RTL: from
  the right margin) prepended OUTSIDE the bidi reordering (gtkDisplay.c:294-304)
- bidi visual reordering of each assembled line (fribidi_log2vis with the
  paragraph direction forced to the font's RTL flag, gtkDisplay.c:311-332).
  We implement the subset of the Unicode BiDi algorithm those corpora
  exercise: directional runs with neutrals resolved toward the base
  direction and bracket mirroring in RTL runs.
"""

from __future__ import annotations

import unicodedata
from itertools import groupby

_MIRROR = {"(": ")", ")": "(", "[": "]", "]": "[", "{": "}", "}": "{",
           "<": ">", ">": "<"}


def _char_class(ch: str) -> str:
    """Bidi class, reduced to the UBA categories this engine resolves:
    R/AL (strong RTL, AL kept distinct for W2), L, EN, AN, ES/CS/ET
    (number separators/terminators), NSM (marks), N (all other
    neutrals, incl. whitespace)."""
    bd = unicodedata.bidirectional(ch)
    if bd in ("R",):
        return "R"
    if bd in ("AL",):
        return "AL"
    if bd in ("L",):
        return "L"
    if bd in ("EN", "AN", "ES", "CS", "ET", "NSM"):
        return bd
    return "N"


_LRE, _RLE, _PDF, _LRO, _RLO = "‪", "‫", "‬", "‭", "‮"
_LRI, _RLI, _FSI, _PDI = "⁦", "⁧", "⁨", "⁩"
_BIDI_CONTROLS = frozenset(
    (_LRE, _RLE, _PDF, _LRO, _RLO, _LRI, _RLI, _FSI, _PDI)
)
_MAX_DEPTH = 125  # UAX#9 max_depth


def _first_strong(text: str) -> str:
    """P2 for FSI content: first strong class, skipping nested isolates;
    default L (P3)."""
    depth = 0
    for ch in text:
        if ch in (_LRI, _RLI, _FSI):
            depth += 1
        elif ch == _PDI:
            depth = max(0, depth - 1)
        elif depth == 0:
            c = _char_class(ch)
            if c in ("L", "R", "AL"):
                return "L" if c == "L" else "R"
    return "L"


def _resolve_weak_neutral(cl: list[str], sos: str, sot: str,
                          edir: str) -> None:
    """W2/W4/W5/W6/W7 + N1/N2 over ONE level run, in place.  ``sos`` /
    ``sot`` are the boundary strong types (UAX#9 X10: direction of the
    higher of the two adjacent levels); ``edir`` is the run's own
    embedding direction, which N2 resolves dangling neutrals to."""
    n = len(cl)
    strong = sos  # W2: EN -> AN when the last strong type is AL
    for i in range(n):
        if cl[i] in ("R", "AL", "L"):
            strong = cl[i]
        elif cl[i] == "EN" and strong == "AL":
            cl[i] = "AN"
    for i in range(1, n - 1):  # W4
        if cl[i] == "ES" and cl[i - 1] == "EN" and cl[i + 1] == "EN":
            cl[i] = "EN"
        elif cl[i] == "CS" and cl[i - 1] == cl[i + 1] and \
                cl[i - 1] in ("EN", "AN"):
            cl[i] = cl[i - 1]
    for i in range(n):  # W5
        if cl[i] == "ET":
            j = i
            while j < n and cl[j] == "ET":
                j += 1
            prev_en = i > 0 and cl[i - 1] == "EN"
            next_en = j < n and cl[j] == "EN"
            if prev_en or next_en:
                for k in range(i, j):
                    cl[k] = "EN"
    for i in range(n):  # W6
        if cl[i] in ("ES", "CS", "ET"):
            cl[i] = "N"
    strong = sos  # W7: EN -> L when the last strong type is L
    for i in range(n):
        if cl[i] in ("R", "AL", "L"):
            strong = cl[i]
        elif cl[i] == "EN" and strong == "L":
            cl[i] = "L"

    def _dir(c: str) -> str:
        return "R" if c in ("R", "AL", "EN", "AN") else "L"

    i = 0
    while i < n:  # N1/N2
        if cl[i] != "N":
            i += 1
            continue
        j = i
        while j < n and cl[j] == "N":
            j += 1
        before = _dir(cl[i - 1]) if i > 0 else sos
        after = _dir(cl[j]) if j < n else sot
        resolved = before if before == after else edir
        for k in range(i, j):
            cl[k] = resolved
        i = j


def _uba_explicit(line: str, base_level: int) -> str:
    """UBA with the explicit X rules; every line that needs reordering.

    X1-X8: a directional-status stack assigns each character an explicit
    embedding level and override class; overflowed pushes are counted and
    ignored (X6).  Isolates (X5a-c) are handled by RECURSION: the content
    up to the matching PDI is ordered as its own sub-line with the
    isolate's direction (FSI sniffs the first strong type, P2/P3) and the
    result becomes one ATOMIC cluster — a single neutral at the level in
    force at the initiator, exactly the "behaves as a single neutral,
    ordered independently" semantics UAX#9 gives isolating run sequences.
    X9: all nine control characters are removed from the output (what
    fribidi's log2vis does with default flags).  W/N rules then run per
    LEVEL RUN with sos/sot from the higher adjacent level (X10), I1/I2
    bump levels per class, odd-level non-atomic clusters mirror
    brackets, and the generic L2 reverses from the highest level down.
    L1 (trailing-whitespace reset) is intentionally omitted — the engine
    assembles single visual lines with no trailing separators."""
    # ---- X1-X9: levels, overrides, isolate recursion, control removal
    clusters: list[list] = []  # [text, class, level, atomic]
    stack: list[tuple[int, str | None]] = []
    cur_level, cur_override = base_level, None
    overflow = 0
    i = 0
    n_chars = len(line)
    while i < n_chars:
        ch = line[i]
        if ch not in _BIDI_CONTROLS:
            cls = _char_class(ch)
            if cls == "NSM":
                if clusters and not clusters[-1][3] \
                        and clusters[-1][2] == cur_level:
                    clusters[-1][0] += ch
                else:
                    clusters.append([ch, cur_override or "N",
                                     cur_level, False])
            else:
                clusters.append(
                    [ch, cur_override or cls, cur_level, False]
                )
        elif ch in (_LRE, _RLE, _LRO, _RLO):
            if ch in (_LRE, _LRO):
                new_level = (cur_level + 2) & ~1  # next even
            else:
                new_level = (cur_level + 1) | 1   # next odd
            if new_level <= _MAX_DEPTH and overflow == 0:
                stack.append((cur_level, cur_override))
                cur_level = new_level
                cur_override = (
                    "L" if ch == _LRO else "R" if ch == _RLO else None
                )
            else:
                overflow += 1
        elif ch == _PDF:
            if overflow:
                overflow -= 1
            elif stack:
                cur_level, cur_override = stack.pop()
        elif ch in (_LRI, _RLI, _FSI):
            # find the matching PDI (isolate-depth counting, X5a-c)
            depth = 1
            j = i + 1
            while j < n_chars and depth:
                if line[j] in (_LRI, _RLI, _FSI):
                    depth += 1
                elif line[j] == _PDI:
                    depth -= 1
                j += 1
            end = j - 1 if depth == 0 else j  # j-1 is the matching PDI
            content = line[i + 1 : end]
            if ch == _RLI:
                inner = 1
            elif ch == _LRI:
                inner = 0
            else:
                inner = 1 if _first_strong(content) == "R" else 0
            sub = _uba_explicit(content, inner) if content else ""
            if sub:
                clusters.append([sub, "N", cur_level, True])
            i = j
            continue
        # else an unmatched PDI: removed (matched ones are consumed above)
        i += 1
    n = len(clusters)
    if n == 0:
        return ""
    cl = [c[1] for c in clusters]
    levels = [c[2] for c in clusters]

    # ---- X10 + W/N per level run
    run_start = 0
    for lev, run in groupby(levels):
        k = run_start + len(list(run))
        prev_lev = levels[run_start - 1] if run_start else base_level
        next_lev = levels[k] if k < n else base_level
        sos = "R" if max(lev, prev_lev) % 2 else "L"
        sot = "R" if max(lev, next_lev) % 2 else "L"
        edir = "R" if lev % 2 else "L"
        seg = cl[run_start:k]
        _resolve_weak_neutral(seg, sos, sot, edir)
        cl[run_start:k] = seg
        run_start = k

    # ---- I1/I2 with per-cluster embedding levels
    for idx in range(n):
        lev, c = levels[idx], cl[idx]
        if lev % 2 == 0:
            if c in ("R", "AL"):
                levels[idx] = lev + 1
            elif c in ("EN", "AN"):
                levels[idx] = lev + 2
        else:
            if c == "L" or c in ("EN", "AN"):
                levels[idx] = lev + 1

    # ---- mirroring (odd level, non-atomic: isolate content already did)
    texts = [c[0] for c in clusters]
    for idx in range(n):
        if levels[idx] % 2 == 1 and not clusters[idx][3]:
            texts[idx] = "".join(_MIRROR.get(ch, ch) for ch in texts[idx])

    # ---- L2
    order = list(range(n))
    for lev in range(max(levels), 0, -1):
        i = 0
        while i < n:
            if levels[order[i]] >= lev:
                j = i
                while j < n and levels[order[j]] >= lev:
                    j += 1
                order[i:j] = order[i:j][::-1]
                i = j
            else:
                i += 1
    return "".join(texts[k] for k in order)


def log2vis(line: str, rtl_base: bool) -> str:
    """Logical→visual reorder of one line with the paragraph direction
    forced to ``rtl_base`` (fribidi_log2vis, gtkDisplay.c:311-332), by
    :func:`_uba_explicit`.  A line without bidi controls (the reference
    never feeds fribidi any) has one level run, so only the implicit
    rules act on it: W2/W4-W7, N1/N2, I1/I2, mirroring and L2."""
    if not line:
        return line
    # fast path: an LTR paragraph whose characters are all below U+0590
    # (no RTL scripts possible) and free of bidi controls reorders to
    # itself — the overwhelming case for Latin corpora, and ~50 us of
    # per-line UBA machinery skipped (measured in the flagship profile)
    if not rtl_base and max(line) < "֐":
        return line
    return _uba_explicit(line, 1 if rtl_base else 0)


def collect_line_text(
    glyph_values: list[str],
    lefts: list[int],
    rights: list[int],
    glyph_width: int,
    space_fraction: float,
) -> str:
    """collectText (gtkDisplay.c:202-224) for one line of glyphs."""
    parts: list[str] = []
    n = len(glyph_values)
    for i in range(n):
        parts.append(glyph_values[i])
        if i + 1 < n:
            gap = lefts[i + 1] - rights[i]
            if gap > space_fraction * glyph_width:
                spaces = max(1, gap // glyph_width - 1) if glyph_width else 1
                parts.append(" " * spaces)
    return "".join(parts)


def assemble_page_text(
    lines: list[dict],
    glyph_width: int,
    left_margin: int,
    right_margin: int,
    rtl: bool,
    space_fraction: float,
) -> str:
    """displayText batch path (gtkDisplay.c:245-365) for one page.

    ``lines`` is a list of dicts with keys ``top bottom left_border
    right_border values lefts rights`` in reading order.
    """
    out: list[str] = []
    prev_bottom = 0
    for line in lines:
        blank_lines = 0
        if prev_bottom != 0:
            line_height = line["bottom"] - line["top"]
            if line_height > 0:
                # C integer division truncates toward zero
                blank_lines = int((line["top"] - prev_bottom) / line_height)
            blank_lines = max(blank_lines, 0)
            if blank_lines > 2:
                blank_lines = blank_lines // 2 + 1
        prev_bottom = line["bottom"]
        text = collect_line_text(
            line["values"], line["lefts"], line["rights"],
            glyph_width, space_fraction,
        )
        if rtl:
            indent = (right_margin - line["right_border"]) // glyph_width if glyph_width else 0
        else:
            indent = (line["left_border"] - left_margin) // glyph_width if glyph_width else 0
        indent = max(indent, 0)
        visual = log2vis(text, rtl)
        out.append("\n" * blank_lines)
        out.append(" " * indent)
        out.append(visual)
        out.append("\n")
    return "".join(out)
