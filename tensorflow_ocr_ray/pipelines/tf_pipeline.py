"""The reference's TensorFlow 3-step flow, Ray-Data-first (SURVEY §3.2).

Reference (``main/TensorREADME``, ``main/Makefile:703-710``):
  step1  ``ocr -T``      → glyph feature file (27 floats + kNN label/XX)
  step2  ``python t5.py``→ train dense model on the font data, predict one
                           label per glyph line, score agreement vs kNN
  step3  ``ocr -P file`` → re-run the whole pipeline, labels consumed
                           positionally from the prediction file

The fragile cross-process positional zip (J1 — known off-by-one in the
committed artifacts) disappears: features and labels stay on the same row
throughout; step3 is the same OCR stage with the model's predict hooked in
as the label function.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from tensorflow_ocr_ray import cache
from tensorflow_ocr_ray.config import TF_UNKNOWN


_TIER_DOCS = {"sf0.001": 16, "sf0.01": 48, "sf0.1": 128}
_TIER_SCORER_DOCS = {"sf0.001": 12, "sf0.01": 32, "sf0.1": 96}


def _font_fingerprint() -> str:
    import hashlib

    from tensorflow_ocr_ray.fonts import get_font_index

    idx = get_font_index()
    h = hashlib.md5(idx.tuples.tobytes())
    h.update("\x00".join(idx.labels).encode("utf-8"))
    return h.hexdigest()[:16]


def trained_scorer_state(kind: str, epochs: int) -> dict:
    """Train the dense/cnn scorer ONCE per (kind, epochs, font
    fingerprint) per driver process and return its weight state: the TF
    query family (tf_dense_predictions, tf_agreement, ocr_dense_scorer,
    ocr_cnn_scorer) shares one driver session, and training is
    deterministic given (font index, epochs).  The fingerprint is the
    memo's input fingerprint, so interactive retraining
    (tools/retrain.py mutates the index) still invalidates correctly."""

    def build() -> dict:
        if kind == "dense":
            from tensorflow_ocr_ray.fonts import get_font_index
            from tensorflow_ocr_ray.models.dense import train_on_font_index

            model, _ = train_on_font_index(get_font_index(), epochs=epochs)
        elif kind == "cnn":
            from tensorflow_ocr_ray.models.cnn import train_on_font_windows

            model, _ = train_on_font_windows(epochs=epochs)
        else:
            raise ValueError(f"unknown scorer kind {kind!r}")
        return model.to_state()

    return cache.memo("scorer", (kind, epochs), _font_fingerprint(), build)


def _tier(sf_dir: str, table: dict, default: int) -> int:
    return table.get(sf_dir.rstrip("/").rsplit("/", 1)[-1], default)


def _fixture_spans(sf_dir: str, n_docs: int | None = None, seed: int = 42):
    """Deterministic interleaved corpus sized by the sf tier (the media
    payloads are synthetic — /root/testdata carries none — but the corpus
    SIZE tracks the tier so bench/correctness signal scales)."""
    from tensorflow_ocr_ray.fixtures import generate_documents
    from tensorflow_ocr_ray.pipelines.ocr_pipeline import explode_documents

    if n_docs is None:
        n_docs = _tier(sf_dir, _TIER_DOCS, 48)
    docs = generate_documents(n_docs, seed=seed)
    return rd.from_arrow(explode_documents(docs))


def glyph_features(sf_dir: str, n_docs: int | None = None) -> "rd.Dataset":
    """step1: the -T dump as a Dataset (one row per glyph)."""
    from tensorflow_ocr_ray.stages.ocr_stages import GlyphDumpStage

    return _fixture_spans(sf_dir, n_docs).map_batches(
        GlyphDumpStage, batch_format="pyarrow", batch_size=16,
        concurrency=(1, 8),
    )


def dense_predictions(sf_dir: str, n_docs: int | None = None, epochs: int = 600) -> "rd.Dataset":
    """step2: train on the font table (driver-side, sub-second at this
    vocab size), broadcast weights, predict per glyph row."""
    import ray

    state_ref = ray.put(trained_scorer_state("dense", epochs))

    class Predict:
        def __init__(self):
            from tensorflow_ocr_ray.models.dense import DenseModel

            self.model = DenseModel.from_state(ray.get(state_ref))

        def __call__(self, batch: pa.Table) -> pa.Table:
            feats = np.asarray(
                batch.column("features").combine_chunks().flatten(),
                dtype=np.float32,
            ).reshape(batch.num_rows, -1)
            labels = self.model.predict(feats) if batch.num_rows else []
            return batch.append_column(
                "dense_label", pa.array(labels, type=pa.string())
            )

    return glyph_features(sf_dir, n_docs).map_batches(
        Predict, batch_format="pyarrow", batch_size=4096, concurrency=(1, 4)
    )


def tf_agreement(sf_dir: str) -> pd.DataFrame:
    """t5.py's accuracy report (main/t5.py:173-233): overall agreement of
    dense predictions vs the kNN labels, excluding unknown (XX) / empty
    kNN rows from the adjusted total, plus per-label tallies."""
    ds = dense_predictions(sf_dir)

    def tally(batch: pa.Table) -> pa.Table:
        knn = batch.column("knn_label").to_pylist()
        dense = batch.column("dense_label").to_pylist()
        rows: dict[str, list] = {}
        per: dict[str, list[int]] = {}
        correct = adjusted = excluded = 0
        for k, d in zip(knn, dense):
            if k == TF_UNKNOWN or k == "":
                excluded += 1
                continue
            adjusted += 1
            hit = int(k == d)
            correct += hit
            c = per.setdefault(k, [0, 0])
            c[0] += hit
            c[1] += 1
        return pa.table(
            {
                "label": pa.array(sorted(per) + ["__all__"], type=pa.string()),
                "correct": pa.array(
                    [per[k][0] for k in sorted(per)] + [correct], type=pa.int64()
                ),
                "total": pa.array(
                    [per[k][1] for k in sorted(per)] + [adjusted], type=pa.int64()
                ),
                "excluded": pa.array(
                    [0] * len(per) + [excluded], type=pa.int64()
                ),
            }
        )

    from ray.data.aggregate import Sum

    # distributed finalize: per-batch tallies combine in a groupby, so
    # the driver receives |vocab|+1 rows, not vocab x batches partials
    agg = (
        ds.map_batches(tally, batch_format="pyarrow")
        .groupby("label")
        .aggregate(
            Sum("correct", alias_name="correct"),
            Sum("total", alias_name="total"),
            Sum("excluded", alias_name="excluded"),
        )
        .to_pandas()
    )
    for c in ("correct", "total", "excluded"):
        agg[c] = agg[c].astype("int64")
    agg["accuracy"] = (agg["correct"] / agg["total"].clip(lower=1)).round(4)
    return agg.sort_values("label").reset_index(drop=True)


def ocr_with_scorer(
    sf_dir: str, kind: str, num_gpus: float = 0
) -> "rd.Dataset":
    """step3 as one lazy pipeline: assembly labeled by the trained scorer
    (dense K5/K8 or conv K7) instead of kNN.

    Training happens exactly ONCE, driver-side; the weights go to the
    object store via ``ray.put`` and every scorer worker loads the same
    broadcast state once (never retrains — enforced by
    ``_OcrBase._make_classifier``).

    ``num_gpus`` is forwarded to the scorer tasks (the north star's GPU
    scorer shape: batched inference on a GPU worker); the default keeps
    the pure-numpy CPU path."""
    import ray

    from tensorflow_ocr_ray.pipelines.ocr_pipeline import (
        explode_documents,
        ocr_documents,
    )
    from tensorflow_ocr_ray.fixtures import generate_documents

    n_docs = _tier(sf_dir, _TIER_SCORER_DOCS, 32)
    docs = generate_documents(n_docs, seed=42)
    epochs = {"dense": 600, "cnn": 120}.get(kind)
    if epochs is None:
        raise ValueError(f"unknown scorer kind {kind!r}")
    state_ref = ray.put(trained_scorer_state(kind, epochs))
    remote = {"ray_remote_args": {"num_gpus": num_gpus}} if num_gpus else {}
    out = ocr_documents(
        rd.from_arrow(docs),
        concurrency=4,
        batch_size=8,
        scorer_spec={"kind": kind, "state_ref": state_ref},
        num_blocks=8,
        **remote,
    )
    return out.map_batches(explode_documents, batch_format="pyarrow")
