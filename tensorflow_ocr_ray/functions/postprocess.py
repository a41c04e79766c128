"""Text post-processing — the reference's Perl pipe stages, per span.

The reference pipes assembled text through up to three Perl processes
(``fixutf8.pl | fixSholem.pl | fixspell.pl``, main/Makefile:697-700) plus
per-language transliterators.  Here each is a pure ``str -> str`` function
applied per media span inside the OCR stage (order-preserving by
construction), composed by name via ``build_chain``.

Python ``re`` lacks ``\\p{L}``/``\\p{M}``; we use the close equivalents
``[^\\W\\d_]`` (unicode letter) and an explicit combining-mark class
covering the blocks these rules touch.
"""

from __future__ import annotations

import re
from collections.abc import Callable

L = r"[^\W\d_]"  # unicode letter (approximates \p{L})
M = r"[\u0300-\u036F\u0591-\u05C7\u0610-\u061A]"  # combining marks (approximates \\p{M})


def _sub_chain(rules: list[tuple[str, str]]) -> Callable[[str], str]:
    compiled = [(re.compile(p, re.UNICODE | re.MULTILINE), r) for p, r in rules]
    def apply(text: str) -> str:
        for pat, rep in compiled:
            text = pat.sub(rep, text)
        return text
    return apply


# fixutf8.pl:16-45 — Yiddish ligature composition, combining-mark
# normalization, soft-hyphen strip, punctuation space fixes.
fix_utf8 = _sub_chain(
    [
        (r"וו", "װ"),
        (r"(?<!\bמק)וי", "ױ"),
        (rf"\bיי(?={L}|{M})", "ייִ"),
        (r"יִ", "יִ"),
        (r"יי", "ײ"),
        (r"ײַ", "ײַ"),
        (r"יַי", "ײַ"),
        (r"ײִ", "ייִ"),
        (r"ױִ", "ויִ"),
        (r"וױי", "װײ"),
        (r"­", ""),  # soft hyphen
        (r"שׂ", "שׂ"),
        (r"בּ", "בּ"),
        (r"כּ", "כּ"),
        (r"וּ", "וּ"),
        (r"אָ", "אָ"),
        (r"אַ", "אַ"),
        (r"תּ", "תּ"),
        (r"פֿ", "פֿ"),
        (r"פּ", "פּ"),
        (rf"פ(?={L})", "פֿ"),
        (r" {1,2}([:\?\.;!])", r"\1"),
        (rf"({L}{M}*),({L}{M}*)", r"\1'\2"),
        (r"'( |$)", r",\1"),
    ]
)


def _mirror_parens(text: str) -> str:
    return text.translate(str.maketrans("()", ")("))


_FIX_SHOLEM = _sub_chain(
    [
        (r"--", "―"),
        (r"[-―][-―]+", "―"),
        (r"-", "־"),
        (rf"ם(?=({L}))", "ס"),
        (r"^ *▮[▮ ]*$", ""),
    ]
)
_FIX_SHOLEM_QUOTES = _sub_chain(
    [
        (rf"[',][,'](?=({L}))", "„"),
        (rf"({L}{M}*[\.!\?]?)[',][,']", r"\1“"),
    ]
)


def fix_sholem(text: str) -> str:
    """fixSholem.pl:13-22 — hyphens, internal final-mem, blotch lines,
    paren mirroring, quote adjustment."""
    return _FIX_SHOLEM_QUOTES(_mirror_parens(_FIX_SHOLEM(text)))


# armenian.transcribe.pl:17-92 — WESTERN Armenian -> IPA romanization:
# digraph/context rules first (each applied ONCE per line, as the
# reference's un-/g/ substitutions), then the per-letter /g/ map.
_ARMENIAN_DIGRAPHS: list[tuple[str, str, bool]] = [
    # (pattern, replacement, global?)
    (r"ու", "u", False),
    (r"ոյ\b", "o", False),
    (r"\bե", "jɛ", False),
    (r"\bո", "vo", False),
    (r"այ", "ɑj", False),
    (r"յա|իա|եա|եայ", "jɑ", False),
    (r"եյ|էյ", "ɛj", False),
    (r"ույ|ոյ", "uj", False),
    (r"յու|իւ", "ju", False),
]
_ARMENIAN = {
    "ա": "ɑ", "բ": "p", "գ": "kʰ", "դ": "tʰ", "ե": "ɛ", "զ": "z", "է": "ɛ",
    "ը": "ə", "թ": "tʰ", "ժ": "ʒ", "ի": "i", "լ": "l", "Լ": "L", "խ": "χ",
    "ծ": "dz", "կ": "g", "հ": "h", "ձ": "tsʰ", "ղ": "ʁ", "ճ": "dʒ",
    "մ": "m", "յ": "j", "ն": "n", "շ": "ʃ", "ո": "o", "չ": "tʃʰ",
    "պ": "b", "ջ": "tʃʰ", "ռ": "ɾ", "ս": "s", "վ": "v", "տ": "d",
    "ր": "ɾ", "ց": "tsʰ", "ւ": "v", "փ": "pʰ", "ք": "kʰ", "օ": "o",
    "ֆ": "f", "՚": "'", "՜": "!", "՞": "?",
}


def armenian_transcribe(text: str) -> str:
    out_lines = []
    for line in text.split("\n"):
        for pat, rep, _ in _ARMENIAN_DIGRAPHS:
            line = re.sub(pat, rep, line, count=1)
        out_lines.append("".join(_ARMENIAN.get(ch, ch) for ch in line))
    return "\n".join(out_lines)


def armenian_post(text: str) -> str:
    """armenian.post.pl:17-21 — every ``▯`` (U+25AF) becomes a space."""
    return text.replace("\u25af", " ")


_ETHIOPIC_PUNCT = "፡።፣፤፥፦፧፨"


def geez_post(text: str) -> str:
    """geez.post.pl:17-23 — strip spaces inside Ethiopic words, pad
    Ethiopic punctuation with spaces."""
    text = re.sub(
        r"(?<=[ሀ-፿]) +(?=[ሀ-፿])", "", text
    )
    return re.sub(rf"([{_ETHIOPIC_PUNCT}])", r" \1 ", text)


# raismann.post.pl:12-40 — Germanic-spelling Yiddish -> YIVO orthography
raismann_post = _sub_chain(
    [
        (r"הא(?=ב)", "האָ"),
        (r"געהאט", "געהאַט"),
        (r"פערצעהלען", "פֿאַרציילן"),
        (r"טהון", "טאָן"),
        (r"יאהר", "יאָר"),
        (r"פריהער", "פֿריער"),
        (r"איהם", "אים"),
        (r"איהר", "איר"),
        (r"זעהר", "זייער"),
        (r"מעהר", "מער"),
        (r"עהע", "עע"),
        (r"טה", "ט"),
        (r"הה", "ה"),
    ]
)

_REGISTRY: dict[str, Callable[[str], str]] = {
    "fixutf8": fix_utf8,
    "fixsholem": fix_sholem,
    "armenian": armenian_transcribe,
    "armenian_post": armenian_post,
    "geez": geez_post,
    "raismann": raismann_post,
}


def register(name: str, fn: Callable[[str], str]) -> None:
    _REGISTRY[name] = fn


def get_postprocessor(name: str) -> Callable[[str], str]:
    return _REGISTRY[name]


def build_chain(names: list) -> Callable[[str], str]:
    """Compose postprocessors in pipe order (empty list = identity).
    Entries are registry names or ready ``str -> str`` callables (e.g. a
    wordlist-bound ``fixspell.SpellFixer``)."""
    if not names:
        return lambda text: text
    fns = [n if callable(n) else _REGISTRY[n] for n in names]
    def chain(text: str) -> str:
        for fn in fns:
            text = fn(text)
        return text
    return chain
