"""Perl post-processor re-expressions (fixutf8, fixSholem, transliterators)."""

from tensorflow_ocr_ray.functions.postprocess import (
    build_chain,
    fix_sholem,
    get_postprocessor,
)


def test_fixutf8_ligatures():
    fix = get_postprocessor("fixutf8")
    # Yiddish double-vov / double-yod composition (fixutf8.pl:16-45)
    assert fix("וו") == "װ"
    assert fix("יי") == "ײ"
    assert fix("וי") == "ױ"


def test_fixutf8_soft_hyphen_strip():
    fix = get_postprocessor("fixutf8")
    assert "­" not in fix("abc­def")


def test_fix_sholem_blotch_line_removal():
    # ▮-only lines are removed (fixSholem.pl:13-22)
    out = fix_sholem("good line\n▮▮▮\nanother\n")
    assert "▮▮▮" not in out
    assert "good line" in out and "another" in out


def test_fix_sholem_paren_mirroring():
    assert "(" + "ab" + ")" in fix_sholem(")ab(") or fix_sholem(")ab(") == "(ab)"


def test_chain_composes_in_order():
    chain = build_chain(["fixutf8", "fixsholem"])
    out = chain("וו\n▮▮\n")
    assert "װ" in out
    assert "▮▮" not in out


def test_unknown_postprocessor_raises():
    import pytest

    with pytest.raises(KeyError):
        get_postprocessor("nope")


def test_armenian_transcription():
    """Western Armenian rules (armenian.transcribe.pl:22-92): voiced and
    voiceless stops swap vs Eastern (բ→p, պ→b), word-initial ո→vo."""
    from tensorflow_ocr_ray.functions.postprocess import armenian_transcribe

    assert armenian_transcribe("բարեւ") == "pɑɾɛv"
    assert armenian_transcribe("ով") == "vov"
    assert armenian_transcribe("ամպ") == "ɑmb"
    assert armenian_transcribe("abc") == "abc"  # non-Armenian untouched


def test_armenian_post_blanks_placeholder_boxes():
    assert get_postprocessor("armenian_post")("ա▯բ▯▯") == "ա բ  "


def test_geez_postprocess():
    from tensorflow_ocr_ray.functions.postprocess import geez_post

    # internal spaces inside Ethiopic words removed; punctuation padded
    out = geez_post("ሰላ ም፡ነው")
    assert "ሰላም" in out
    assert " ፡ " in out


def test_raismann_orthography():
    from tensorflow_ocr_ray.functions.postprocess import raismann_post

    assert raismann_post("יאהר") == "יאָר"
    assert raismann_post("איהם") == "אים"
