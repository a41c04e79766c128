"""In-process cost of the html strip, on the spans of a benchmark workload.

    python tools/strip_bench.py --seed 1 --runs 20

Run from the root of a checkout: the package and ``perfbench`` are
imported from the checkout this file sits in.  The documents of
``(--workload, --seed)`` come from ``perfbench.inputs`` (generated and
cached under ``.perfbench_work/`` on first use, as ``perfbench/run.py``
does; nothing in ``perfbench/`` is changed).  They are split evenly into
``--blocks`` blocks (4 is the benchmark's split on one core) and exploded
to span rows, as the flagship's task does; each run then calls
``strip_html_spans`` once per block in this process.

Prints, one line each:

- the median and minimum µs per html span over ``--runs`` runs;
- how many spans went through ``extract_main_content`` one by one (the
  spans the batch kernel leaves to Python) in one more run, and whether
  that run's output equals the first run's.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_blocks(workload: str, seed: int, blocks: int) -> list:
    """The exploded span rows of each of ``blocks`` even document
    blocks."""
    from perfbench import inputs
    from tensorflow_ocr_ray.pipelines.ocr_pipeline import explode_documents

    docs = inputs.load_inputs(
        workload, seed, os.path.join(ROOT, ".perfbench_work", "inputs")).docs
    n = docs.num_rows
    cuts = [n * i // blocks for i in range(blocks + 1)]
    return [explode_documents(docs.slice(a, b - a))
            for a, b in zip(cuts, cuts[1:])]


def run_blocks(blocks: list) -> tuple[float, list]:
    """Seconds for one pass of ``strip_html_spans`` over ``blocks``, and
    its outputs."""
    from tensorflow_ocr_ray.pipelines import extract

    t = time.perf_counter()
    out = [extract.strip_html_spans(b) for b in blocks]
    return time.perf_counter() - t, out


def main() -> int:
    sys.path.insert(0, ROOT)
    from perfbench.inputs import SIZES

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="web_text",
                        choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--blocks", type=int, default=4)
    args = parser.parse_args()

    import pyarrow.compute as pc

    from tensorflow_ocr_ray.pipelines import extract

    blocks = load_blocks(args.workload, args.seed, args.blocks)
    n = sum(pc.sum(pc.equal(b.column("kind"), extract.HTML_KIND)).as_py()
            or 0 for b in blocks)
    if not n:
        print(f"{args.workload} seed {args.seed} has no html spans")
        return 1
    _, want = run_blocks(blocks)  # warm-up: kernels, imports

    per_span = [1e6 * run_blocks(blocks)[0] / n for _ in range(args.runs)]
    print(f"{args.workload} seed {args.seed}: {n} html spans in "
          f"{len(blocks)} blocks, {args.runs} runs: "
          f"median {statistics.median(per_span):.3f} us/span, "
          f"min {min(per_span):.3f} us/span")

    real, calls = extract.extract_main_content, [0]

    def counted(*a, **kw):
        calls[0] += 1
        return real(*a, **kw)

    extract.extract_main_content = counted
    try:
        _, got = run_blocks(blocks)
    finally:
        extract.extract_main_content = real
    same = all(g.equals(w) for g, w in zip(got, want))
    print(f"spans stripped one by one: {calls[0]} of {n}; "
          f"output same as the first run: {same}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
