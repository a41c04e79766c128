"""Parity against the reference's own committed artifacts.

``main/tmp.out`` / ``main/kafka1.out`` are real ``ocr -T`` runs over the
first Kafka page (flags ``main/Makefile:684,750-753``): per glyph, the 27
extracted features and the kNN label (``XX`` beyond minMatch), piped —
labels included — through ``fixutf8.pl | fixSholem.pl``.  Classifying the
committed FEATURE rows with our exact-NN index built from the reference's
own ``kafka.data`` must reproduce the committed labels verbatim (modulo
that same Perl postprocess, re-expressed by our chain).
"""

import os

import numpy as np
import pytest

from tensorflow_ocr_ray.config import KAFKA_CONFIG, TF_UNKNOWN
from tensorflow_ocr_ray.functions.postprocess import fix_sholem, fix_utf8
from tensorflow_ocr_ray.sources.fontdata import read_data_file

REF = "/root/reference/main"


def _load_dump(path: str):
    feats, labels = [], []
    with open(path, encoding="utf-8") as f:
        for line in f:
            parts = line.rstrip("\n").split(",")
            if len(parts) < 28:
                continue  # blank/padding lines in the committed artifact
            feats.append(np.array([np.float32(x) for x in parts[:27]]))
            labels.append(",".join(parts[27:]).strip())
    return np.stack(feats), labels


# newtmp.out is a feature-only dump (empty label column) — not comparable
@pytest.mark.skipif(not os.path.isdir(REF),
                    reason=f"reference source tree {REF} is not present")
@pytest.mark.parametrize("artifact", ["tmp.out", "kafka1.out"])
def test_knn_labels_match_reference_artifact(artifact):
    idx = read_data_file(f"{REF}/fontData/kafka.data")
    X, want = _load_dump(f"{REF}/{artifact}")
    assert len(want) >= 1600  # ~1,649 glyph rows per BASELINE.md
    values, _ = idx.ocr_values(
        X,
        min_match=KAFKA_CONFIG.min_match,        # -m 1.1
        ignore_vertical=KAFKA_CONFIG.ignore_vertical,  # -i
    )
    got = [
        fix_sholem(fix_utf8(TF_UNKNOWN if v == "▮" else v)) for v in values
    ]
    agree = sum(g == w for g, w in zip(got, want))
    assert agree == len(want), (
        f"{artifact}: {agree}/{len(want)} "
        f"first mismatches {[(g, w) for g, w in zip(got, want) if g != w][:5]}"
    )
