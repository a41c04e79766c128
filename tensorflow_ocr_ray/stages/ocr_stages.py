"""OCR stages for ``map_batches``.

Stateful-stage pattern (the reference's process-global k-d tree + config,
main/kd.c:28 / main/main.c:26-47, becomes per-worker warm state):

- ``__init__`` runs once per worker process: build/fetch the font index,
  construct the media store, freeze the config.  Nothing heavy per batch.
- ``__call__`` runs per Arrow batch, zero-copy in, Arrow out.

- ``OcrSpanStage``   — rows are exploded spans ``(doc_id, kind, text,
                       media_ref, offset)``; media rows get OCR'd, text
                       rows pass through untouched.  The flagship's
                       per-block task calls it once per slice of
                       ``batch_size`` documents through
                       :func:`make_span_ocr_fn`.
- ``GlyphDumpStage`` — the -T per-glyph feature dump over the same rows.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from tensorflow_ocr_ray.config import OcrConfig
from tensorflow_ocr_ray.core.page import ocr_payload
from tensorflow_ocr_ray.state.fonts_source import make_font_index
from tensorflow_ocr_ray.state.media import make_media_store


class _OcrBase:
    def __init__(
        self,
        cfg: OcrConfig | None = None,
        font_spec: dict | None = None,
        media_spec: dict | None = None,
        postprocess: list[str] | None = None,
        scorer_spec: dict | None = None,
        on_media_error: str = "raise",
    ):
        from tensorflow_ocr_ray.config import FIXTURE_CONFIG
        from tensorflow_ocr_ray.functions.postprocess import build_chain

        self.cfg = cfg or FIXTURE_CONFIG
        self.index = make_font_index(font_spec or {"kind": "builtin"})
        self.media = make_media_store(media_spec or {"kind": "synthetic"})
        self.post = build_chain(postprocess or [])
        self.classifier_input = "features"
        self.classifier = self._make_classifier(scorer_spec)
        if on_media_error not in ("raise", "empty"):
            raise ValueError(f"on_media_error: {on_media_error!r}")
        # "empty": a missing/corrupt payload yields text "" instead of
        # failing the task — at 100 TB a few bad objects must not kill a
        # partition (the reference, single-process, simply crashed)
        self.on_media_error = on_media_error

    def _make_classifier(self, spec: dict | None):
        """Scorer behind one interface (SURVEY §7.0): None/"knn" keeps the
        reference kNN ocrValue; "dense" loads broadcast weights (K5/K8);
        "cnn" loads the conv scorer over fixed glyph windows (K7).

        Stages NEVER train: weights are trained once on the driver and
        shipped as ``state`` (inline) or ``state_ref`` (``ray.put``
        broadcast — N workers fetch one copy from the object store
        instead of running N redundant trainings)."""
        if not spec or spec.get("kind") in (None, "knn"):
            return None
        kind = spec["kind"]
        state = spec.get("state")
        if state is None and "state_ref" in spec:
            import ray

            state = ray.get(spec["state_ref"])
        if state is None:
            raise ValueError(
                f"scorer spec for {kind!r} must carry 'state' or "
                "'state_ref' — train driver-side (models.dense."
                "train_on_font_index / models.cnn.train_on_font_windows) "
                "and broadcast; stages never train"
            )
        if kind == "dense":
            from tensorflow_ocr_ray.models.dense import DenseModel

            return DenseModel.from_state(state).predict
        if kind == "cnn":
            from tensorflow_ocr_ray.models.cnn import CnnModel

            self.classifier_input = "windows"
            return CnnModel.from_state(state).predict
        raise ValueError(f"unknown scorer kind {kind!r}")

    def _ocr_ref(self, ref: str) -> str:
        try:
            payload = self.media.get(ref)
            text = ocr_payload(
                payload, self.cfg, self.index, collect_glyphs=False,
                classifier=self.classifier,
                classifier_input=self.classifier_input,
            ).text
        except Exception:
            if self.on_media_error == "empty":
                return ""
            raise
        return self.post(text)


# Per-WORKER-PROCESS stage cache for the task-pool deployment (see
# make_span_ocr_fn): keyed by the spec fingerprint so one worker can
# serve several concurrent pipelines with different configs.
_WORKER_STAGE_CACHE: dict = {}


def _worker_stage(key: str, kwargs: dict) -> "OcrSpanStage":
    """This process's stage for ``key``, built on first use.  A
    module-level function, so cloudpickle ships it by reference and every
    unpickled scorer closure shares this module's cache (a closure that
    read ``_WORKER_STAGE_CACHE`` itself would carry a copy of it)."""
    st = _WORKER_STAGE_CACHE.get(key)
    if st is None:
        st = _WORKER_STAGE_CACHE.setdefault(key, OcrSpanStage(**kwargs))
    return st


def _spec_fingerprint(kwargs: dict) -> str:
    """Deterministic per-session key for a stage spec.  repr() covers
    ObjectRefs (hex id, stable within a session) and OcrConfig
    (dataclass repr); specs are small driver-side values, never data."""
    return repr(sorted((k, repr(v)) for k, v in kwargs.items()))


def make_span_ocr_fn(kwargs: dict):
    """Task-pool form of :class:`OcrSpanStage`: the scorer step that
    ``ocr_documents``' per-block task calls on each slice of
    ``batch_size`` documents, between the block's explode and its
    reassembly.

    Tasks, not actors: an actor pool pays a measured 3.5-6 s spin-up per
    EXECUTION on a 32-cpu node (31 fresh actor processes) and holds its
    CPUs, while Ray reuses warm worker processes for plain tasks.  Stage
    state is cheap to build (~16 ms with the kNN scorer: font index +
    media-store handle; a trained scorer adds its broadcast-weight
    fetch), and it is built once per worker process — cached in a
    module global keyed by the spec — so every later task and slice in
    that process reuses it.  A GPU scorer asks for its device per task
    through ``ocr_documents(ray_remote_args={"num_gpus": ...})``.

    The returned closure captures only the spec (small; scorer weights
    should ride as ``state_ref`` broadcasts, never inline)."""
    key = _spec_fingerprint(kwargs)

    def ocr_span_batch(batch: pa.Table) -> pa.Table:
        return _worker_stage(key, kwargs)(batch)

    return ocr_span_batch


class OcrSpanStage(_OcrBase):
    """Fill ``text`` for media rows of an exploded span batch.  Only the
    media rows' refs cross into Python; every other row keeps its text
    as is, and a batch without media rows is returned unchanged."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        is_media = pc.fill_null(
            pc.equal(batch.column("kind"), "media"), False
        ).combine_chunks()
        if not pc.any(is_media).as_py():
            return batch
        refs = batch.column("media_ref").filter(is_media).to_pylist()
        text = batch.column("text").combine_chunks()
        scored = pa.array([self._ocr_ref(ref) for ref in refs],
                          type=text.type)
        i = batch.schema.get_field_index("text")
        return batch.set_column(
            i, "text", pc.replace_with_mask(text, is_media, scored)
        )


class GlyphDumpStage(_OcrBase):
    """The -T TensorFlow feature-dump stage (main/kd.c:225-235), as a
    Dataset instead of a text file: one output row per glyph with its 27
    features and the kNN label (``XX`` when beyond minMatch)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from tensorflow_ocr_ray.config import OCRFAILS, TF_UNKNOWN

        doc_ids, span_idxs, line_idxs, glyph_idxs = [], [], [], []
        lefts, rights, tops, bottoms = [], [], [], []
        feats, labels, dists, page_idxs = [], [], [], []
        kinds = batch.column("kind").to_pylist()
        refs = batch.column("media_ref").to_pylist()
        ids = batch.column("doc_id").to_pylist()
        offs = batch.column("offset").to_pylist()
        for doc_id, kind, ref, off in zip(ids, kinds, refs, offs):
            if kind != "media":
                continue
            res = ocr_payload(
                self.media.get(ref), self.cfg, self.index, collect_glyphs=True
            )
            for g in res.glyphs:
                doc_ids.append(doc_id)
                span_idxs.append(off)
                page_idxs.append(g.page_idx)
                line_idxs.append(g.line_idx)
                glyph_idxs.append(g.glyph_idx)
                lefts.append(g.left)
                rights.append(g.right)
                tops.append(g.top)
                bottoms.append(g.bottom)
                feats.append(g.features.tolist())
                labels.append(TF_UNKNOWN if g.label == OCRFAILS else g.label)
                dists.append(g.dist2)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, type=pa.string()),
                "span_idx": pa.array(span_idxs, type=pa.int32()),
                "page_idx": pa.array(page_idxs, type=pa.int32()),
                "line_idx": pa.array(line_idxs, type=pa.int32()),
                "glyph_idx": pa.array(glyph_idxs, type=pa.int32()),
                "left": pa.array(lefts, type=pa.int32()),
                "right": pa.array(rights, type=pa.int32()),
                "top": pa.array(tops, type=pa.int32()),
                "bottom": pa.array(bottoms, type=pa.int32()),
                "features": pa.array(feats, type=pa.list_(pa.float32(), 27)),
                "knn_label": pa.array(labels, type=pa.string()),
                "knn_dist2": pa.array(dists, type=pa.float32()),
            }
        )
