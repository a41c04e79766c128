"""In-process cost of one OCR page, on the pages of a benchmark workload.

    python tools/page_bench.py --seed 1509 --runs 10

Run from the root of a checkout: the package and ``perfbench`` are
imported from the checkout this file sits in.  The pages of
``(--workload, --seed)`` come from ``perfbench.inputs`` (generated and
cached under ``.perfbench_work/`` on first use, as ``perfbench/run.py``
does; nothing in ``perfbench/`` is changed).  Each page is OCR'd in this
process the way the scorer stage does it: ``ocr_payload`` with
``FIXTURE_CONFIG``, the builtin font index and ``collect_glyphs=False``.

Prints, one line each:

- the median and minimum ms per page over ``--runs`` untimed-overhead runs
  (every page text is checked against the analytic truth);
- one instrumented run's split of the page into decode, segment, tuples,
  kNN, assemble and the rest, as self times in ms per page;
- how many times ``FontIndex.nearest`` ran in that run.
"""

from __future__ import annotations

import argparse
import functools
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_pages(workload: str, seed: int) -> list[tuple[str, bytes, str]]:
    """(media_ref, payload, truth) of every media span, in document order."""
    from perfbench import inputs
    from tensorflow_ocr_ray.state.media import DirMediaStore

    inp = inputs.load_inputs(
        workload, seed, os.path.join(ROOT, ".perfbench_work", "inputs"))
    store = DirMediaStore(inp.media_dir)
    pages = []
    for spans in inp.truth.column("spans").to_pylist():
        for s in spans:
            if s["kind"] == "media":
                ref = s["media_ref"]
                pages.append((ref, store.get(ref), s["text"]))
    return pages


class StepTimer:
    """Self time per step: wraps entry points by attribute, as the traced
    benchmark run does, and charges each call's time minus its wrapped
    children to the wrapped function's step."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._child = [0.0]
        self._restore: list[tuple] = []

    def wrap(self, owner, attr: str, step: str) -> None:
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def timed(*args, **kwargs):
            self._child.append(0.0)
            t = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t
                child = self._child.pop()
                self._child[-1] += dur
                self.self_s[step] = self.self_s.get(step, 0.0) + dur - child
                self.calls[attr] = self.calls.get(attr, 0) + 1

        setattr(owner, attr, timed)
        self._restore.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._restore:
            setattr(*self._restore.pop())


def run_pages(pages, cfg, index) -> tuple[float, int]:
    """Seconds for one pass over ``pages`` and the number of wrong texts."""
    from tensorflow_ocr_ray.core import page

    wrong = 0
    t = time.perf_counter()
    for _, payload, truth in pages:
        text = page.ocr_payload(payload, cfg, index, collect_glyphs=False).text
        wrong += text != truth
    return time.perf_counter() - t, wrong


def main() -> int:
    sys.path.insert(0, ROOT)
    from perfbench.inputs import SIZES

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="ocr_tiff_skewed",
                        choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, default=1509)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    from tensorflow_ocr_ray.config import FIXTURE_CONFIG
    from tensorflow_ocr_ray.core import page
    from tensorflow_ocr_ray.core.knn import FontIndex
    from tensorflow_ocr_ray.core.segment import PageSegmenter
    from tensorflow_ocr_ray.state.fonts_source import make_font_index

    pages = load_pages(args.workload, args.seed)
    if not pages:
        print(f"{args.workload} seed {args.seed} has no pages")
        return 1
    index = make_font_index({"kind": "builtin"})
    cfg = FIXTURE_CONFIG
    n = len(pages)
    run_pages(pages, cfg, index)  # warm-up: kernels, caches, imports

    per_page, wrong = [], 0
    for _ in range(args.runs):
        s, bad = run_pages(pages, cfg, index)
        per_page.append(1000.0 * s / n)
        wrong += bad
    print(f"{args.workload} seed {args.seed}: {n} pages, {args.runs} runs: "
          f"median {statistics.median(per_page):.3f} ms/page, "
          f"min {min(per_page):.3f} ms/page, {wrong} wrong texts")

    timer = StepTimer()
    timer.wrap(page, "decode_payload_pages", "decode")
    for attr in ("__init__", "find_lines", "split_wide_glyphs",
                 "narrow_glyphs"):
        timer.wrap(PageSegmenter, attr, "segment")
    timer.wrap(PageSegmenter, "build_tuples", "tuples")
    timer.wrap(FontIndex, "ocr_values", "kNN")
    timer.wrap(FontIndex, "nearest", "kNN")
    timer.wrap(page, "assemble_page_text", "assemble")
    timer.wrap(page, "ocr_payload", "rest")
    try:
        run_pages(pages, cfg, index)
    finally:
        timer.uninstall()
    split = ", ".join(
        f"{step} {1000.0 * timer.self_s.get(step, 0.0) / n:.3f}"
        for step in ("decode", "segment", "tuples", "kNN", "assemble",
                     "rest"))
    print(f"instrumented run, ms/page: {split}")
    print(f"FontIndex.nearest calls: {timer.calls.get('nearest', 0)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
