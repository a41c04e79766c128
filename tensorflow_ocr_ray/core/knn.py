"""Exact nearest-neighbor font index — the reference's k-d tree, re-expressed.

The reference builds a 27-dim k-d tree (bucket 20, max depth 50) over the
font tuples and answers exact-NN queries with branch-and-bound
(``main/kd.c:45-172, 572-615``).  Font vocabularies are tiny (139-1,284
entries — ``main/fontData/*.data``), so an exact brute-force argmin over a
``(N, 27)`` float32 matrix returns the *same* nearest neighbor with far
better batch throughput on numpy than a pointer-chasing tree; we keep the
exact-NN contract and drop the tree shape.

Classification semantics (``main/kd.c:210-251``):
- empty index → "·"
- dist² ≤ minMatch² → the stored label (labels may be multi-char, e.g. "rn")
- otherwise → OCRFAILS ("▮")
- ``ignoreVertical`` (-i) drops dim 26 from the metric (``main/kd.c:35-36``).

RTL sniffing (``main/kd.c:550-566, 700-711``): the reference asks fribidi
whether any of the first 1000 labels contains an RTL character; we use
``unicodedata.bidirectional in {"R", "AL"}``.
"""

from __future__ import annotations

import unicodedata

import numpy as np

from tensorflow_ocr_ray.config import EMPTY_TREE_VALUE, OCRFAILS, TUPLELENGTH

BIGDIST = 1.0e10  # main/ocr.h:57


def has_rtl(label: str) -> bool:
    return any(unicodedata.bidirectional(ch) in ("R", "AL") for ch in label)


class FontIndex:
    """Immutable exact-NN index over labeled 27-dim font tuples.

    Tuples are stored *normalized* (dims 25,26 already x3), exactly as the
    in-memory tree stores them after ``readTuples`` (main/kd.c:687).
    """

    def __init__(self, tuples: np.ndarray, labels: list[str]):
        tuples = np.asarray(tuples, dtype=np.float32)
        if tuples.ndim != 2 or (len(labels) and tuples.shape[1] != TUPLELENGTH):
            raise ValueError(f"expected (N, {TUPLELENGTH}) tuples, got {tuples.shape}")
        self.tuples = tuples
        self.labels = list(labels)
        # main/kd.c:700-711 — any RTL char in the first 1000 labels
        self.rtl = any(has_rtl(v) for v in self.labels[:1000])
        # ocrValue's answer per key, then OCRFAILS, for one fancy index
        self._values = np.array(self.labels + [OCRFAILS], dtype=object)
        # squared key norms of the nearest() expansion, per metric
        self._norms: dict[bool, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.labels)

    def _keys(self, ignore_vertical: bool) -> np.ndarray:
        return self.tuples[:, : TUPLELENGTH - 1] if ignore_vertical else self.tuples

    def _key_norms(self, ignore_vertical: bool) -> np.ndarray:
        norms = self._norms.get(ignore_vertical)
        if norms is None:
            keys = self._keys(ignore_vertical)
            norms = self._norms[ignore_vertical] = (keys * keys).sum(axis=1)
        return norms

    def nearest(
        self, probes: np.ndarray, ignore_vertical: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched exact NN: returns (indices, dist²) as float32.

        ``probes`` is (M, 27); empty index → indices=-1, dist²=BIGDIST
        (main/kd.c:178 returns BIGDIST when the tree is empty).

        The page loop relies on one batched call answering as one-row
        probes would: the argmin runs over the probe's own row of the
        expansion and the winner's dist² is recomputed from the row
        alone.  That the matmul's rounding moves no argmin between batch
        shapes is checked bit for bit on the benchmark's pages by
        ``tests/test_page_table.py``.  The key norms are computed once
        per metric and kept.
        """
        probes = np.asarray(probes, dtype=np.float32).reshape(-1, TUPLELENGTH)
        m = probes.shape[0]
        if len(self.labels) == 0:
            return (
                np.full(m, -1, dtype=np.int64),
                np.full(m, BIGDIST, dtype=np.float32),
            )
        keys = self._keys(ignore_vertical)
        p = probes[:, : keys.shape[1]]
        # exact squared L2 via expansion, float32 throughout:
        # |p|² - 2 p·k + |k|², evaluated in that order, in place
        d2 = p @ keys.T
        d2 *= np.float32(2.0)
        np.subtract((p * p).sum(axis=1, keepdims=True), d2, out=d2)
        d2 += self._key_norms(ignore_vertical)[None, :]
        idx = np.argmin(d2, axis=1)
        # the winning distances the naive way, for parity with the
        # reference's accumulation (cheap: one row per probe)
        diffs = p - keys[idx]
        np.square(diffs, out=diffs)
        best = diffs.sum(axis=1).astype(np.float32, copy=False)
        return idx.astype(np.int64, copy=False), best

    def ocr_distance2(self, probes: np.ndarray, ignore_vertical: bool = False) -> np.ndarray:
        """ocrDistance2 (main/kd.c:174-180), batched."""
        _, d2 = self.nearest(probes, ignore_vertical)
        return d2

    def ocr_values(
        self,
        probes: np.ndarray,
        min_match: float,
        ignore_vertical: bool = False,
    ) -> tuple[list[str], np.ndarray]:
        """ocrValue (main/kd.c:210-251), batched: labels + dist² per probe."""
        idx, d2 = self.nearest(probes, ignore_vertical)
        if len(self.labels) == 0:
            return [EMPTY_TREE_VALUE] * len(idx), d2
        mm2 = np.float32(min_match) * np.float32(min_match)
        pick = np.where(d2 <= mm2, idx, len(self.labels))
        return self._values[pick].tolist(), d2

    def with_inserts(
        self, tuples: np.ndarray, labels: list[str]
    ) -> "FontIndex":
        """K4 incremental insert as an immutable rebuild (the reference
        inserts into its live kd-tree, main/kd.c:328-380; an exact-NN
        matrix rebuilds instead).  An inserted tuple exactly equal to an
        existing one REPLACES it — relabeling a glyph (the GUI loop's
        click→label, main/gtkDisplay.c:442-649) must win the tie, and
        argmin would otherwise keep the older entry."""
        new = np.asarray(tuples, dtype=np.float32).reshape(-1, TUPLELENGTH)
        if len(self.labels) == 0:
            return FontIndex(new, list(labels))
        new_keys = {t.tobytes() for t in new}
        keep = [
            i for i, t in enumerate(self.tuples)
            if t.tobytes() not in new_keys
        ]
        base_t = self.tuples[keep]
        base_l = [self.labels[i] for i in keep]
        return FontIndex(
            np.concatenate([base_t, new], axis=0), base_l + list(labels)
        )

    # -- (de)serialization for ray.put broadcast ---------------------------
    def to_state(self) -> dict:
        return {"tuples": self.tuples, "labels": self.labels}

    @classmethod
    def from_state(cls, state: dict) -> "FontIndex":
        return cls(state["tuples"], state["labels"])

    @classmethod
    def empty(cls) -> "FontIndex":
        return cls(np.empty((0, TUPLELENGTH), dtype=np.float32), [])
