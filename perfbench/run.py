"""Benchmark of the OCR and extraction flagships, truth-checked.

    python3 perfbench/run.py --workload web_text --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads (reasons in BENCHMARK.json):
``ocr_tiff_skewed`` and ``web_text``.  Inputs are made from ``--seed`` and
cached under ``.perfbench_work/`` before any timed window.

The process and every process it starts run on as many cores as the host
grants (``nproc``); Ray gets that many CPUs.

``--trace 0`` (end to end, no instrumentation): ``SETUPS`` sessions in
turn.  Each is set up, which is ``ray.init`` sized to the usable cores plus
the first (warm-up) execution, with the package import time added; then
one client runs executions back to back for its share of ``--seconds``.
Every output document is checked against the analytic truth.

``--trace 1`` (per layer): a few Ray executions give per-operator stats,
then the flagship's steps are replayed in this process, untraced and
traced, to give per-layer self times and the tracing overhead.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
host's core count, the Ray version and the plan settings.  A workload
whose job fails or passes its deadline counts all its documents as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SETUPS = 2
EXECUTION_DEADLINE_S = 60.0
RUN_BUDGET_S = 165.0  # every run must end well inside 180 s
TRACE_ROUNDS = 2  # untraced/traced replay pairs; the fastest of each is kept


def usable_cpus() -> int:
    """The cores this process may use, counted as ``nproc`` counts them:
    the affinity mask, capped by ``OMP_NUM_THREADS`` when that is set.  A
    container given a share of a larger host says its share that way."""
    cpus = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0].strip()
    if omp.isdigit() and int(omp) > 0:
        cpus = min(cpus, int(omp))
    return cpus


def pin_to_usable_cpus() -> None:
    """Confine this process, and every process it starts later, to
    ``usable_cpus()`` cores of its affinity mask: the mask of each of
    its threads is set, and new threads and child processes inherit it.

    On a VM whose vCPUs outnumber its share of the host, work spread over
    more vCPUs than the share loses time to the hypervisor (``/proc/stat``
    steal) whenever the host is busy: unpinned, ten runs of the same code
    spread 25% in throughput, the slow ones with the most steal.  Pinned,
    the steal on the benchmark's cores stays near 0 (``timed_steal_s``)."""
    mask = sorted(os.sched_getaffinity(0))
    # the highest-numbered cores: cpu0 takes most device interrupts
    cores = mask[-usable_cpus():]
    for tid in os.listdir("/proc/self/task"):
        os.sched_setaffinity(int(tid), cores)


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


class Run:
    def __init__(self, args, import_s: float):
        from perfbench import inputs, session

        self.t0 = time.perf_counter()
        self.args = args
        self.import_s = import_s
        self.cpus = usable_cpus()
        self.work = os.path.join(ROOT, ".perfbench_work")
        self.ray_tmp = session.ray_temp_dir(self.work)
        self.inp = inputs.load_inputs(
            args.workload, args.seed, os.path.join(self.work, "inputs"))
        self.truth = inputs.truth_index(self.inp.truth)
        self.n_docs = self.inp.docs.num_rows
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.stuck = False  # a consumer could not be released from Ray

    def deadline(self) -> float:
        left = RUN_BUDGET_S - (time.perf_counter() - self.t0)
        return min(EXECUTION_DEADLINE_S, left)

    def execute(self, want_stats: bool = False):
        """One execution, counted and checked; None once time is up."""
        from perfbench import inputs, session

        deadline = self.deadline()
        if deadline <= 0:
            return None
        ex = session.execute(
            lambda: session.build_dataset(
                self.args.workload, self.inp.docs, self.inp.media_dir,
                self.cpus),
            deadline, want_stats)
        self.attempted += self.n_docs
        self.stuck = self.stuck or ex.stuck
        if ex.ok:
            self.failed += inputs.count_failed(ex.batches(), self.truth)
        else:
            self.failed += self.n_docs
            self.errors.append(ex.error)
        return ex

    def check_table(self, table) -> None:
        from perfbench import inputs

        self.attempted += self.n_docs
        self.failed += inputs.count_failed([table], self.truth)

    def setup(self) -> float | None:
        """``ray.init`` plus the warm-up execution, with the import added;
        None when the warm-up failed."""
        from perfbench import session

        t = time.perf_counter()
        session.start_ray(ROOT, self.cpus, self.ray_tmp)
        ex = self.execute()
        if ex is None or not ex.ok:
            return None
        return self.import_s + time.perf_counter() - t

    def end_to_end(self) -> dict:
        """``SETUPS`` sessions, each set up afresh and then timed for an
        equal share of ``--seconds``, so a slow session or a slow stretch
        of the host weighs on some of the samples, not all of them."""
        from perfbench import session

        setups: list[float] = []
        execs = []
        rss = 0.0
        for i in range(SETUPS):
            if i:
                session.stop_ray()
            setup_s = self.setup()
            if setup_s is None:
                break
            setups.append(setup_s)
            t_loop = time.perf_counter()
            ex = None
            while ex is None or (
                    time.perf_counter() - t_loop < self.args.seconds / SETUPS):
                ex = self.execute()
                if ex is None or not ex.ok:
                    break
                execs.append(ex)
            rss = session.session_peak_rss_mb()
            if ex is None or not ex.ok:
                break
        rates = [self.n_docs / ex.wall_s for ex in execs]
        latencies = [t for ex in execs for t in ex.doc_latencies()]
        self.info.update(
            setups_s=setups, executions=len(execs),
            timed_steal_s=sum(ex.steal_s for ex in execs),
            docs_per_s_samples=rates, doc_latency_samples=len(latencies),
            doc_latency_p90_s=(statistics.quantiles(latencies, n=10)[-1]
                               if len(latencies) > 1 else 0.0))
        return {
            "docs_per_s": ("docs/s", _median(rates)),
            "doc_latency_p50_s": ("s", _median(latencies)),
            "setup_s": ("s", _median(setups)),
            "peak_rss_mb": ("MiB", rss),
            "doc_ok_frac": (
                "ratio",
                1.0 - self.failed / self.attempted if self.attempted else 0.0),
        }

    def traced(self) -> dict:
        from perfbench import session, tracing

        per_exec = []
        if self.setup() is not None:
            t_loop = time.perf_counter()
            while not per_exec or (
                    time.perf_counter() - t_loop < self.args.seconds / 2):
                ex = self.execute(want_stats=True)
                if ex is None or not ex.ok:
                    break
                per_exec.append(session.operator_metrics(ex.stats))
        if not self.stuck:
            session.stop_ray()
        self.info["ray_executions"] = len(per_exec)
        metrics = {
            key: _median([m[key] for m in per_exec])
            for key in session.operator_metrics(None)
        }

        doc_of_ref, truth_of_ref = {}, {}
        for doc_id, spans in zip(self.inp.truth.column("doc_id").to_pylist(),
                                 self.inp.truth.column("spans").to_pylist()):
            for s in spans:
                if s["kind"] == "media":
                    doc_of_ref[s["media_ref"]] = doc_id
                    truth_of_ref[s["media_ref"]] = s["text"]
        tracer = tracing.Tracer(doc_of_ref, truth_of_ref)
        args = (self.args.workload, self.inp.docs, self.inp.media_dir)
        self.check_table(tracing.replay(*args))  # warm-up
        plain, traced = [], []
        for _ in range(TRACE_ROUNDS):
            t = time.perf_counter()
            out = tracing.replay(*args)
            plain.append(time.perf_counter() - t)
            self.check_table(out)
            tracer.reset()
            tracer.install()
            try:
                t = time.perf_counter()
                out = tracing.replay(*args)
                traced.append(time.perf_counter() - t)
            finally:
                tracer.uninstall()
            self.check_table(out)
        metrics.update(tracer.layer_metrics(self.inp.n_html))
        metrics["trace.overhead_frac"] = min(traced) / min(plain) - 1.0
        metrics["host.cpus"] = float(self.cpus)
        spans_path = os.path.join(
            self.work, f"spans-{self.args.workload}-s{self.args.seed}.jsonl")
        tracer.write(spans_path)
        self.info["spans_file"] = os.path.relpath(spans_path, ROOT)
        with open(os.path.join(ROOT, "perfbench", "layer_map.json")) as f:
            layer_map = json.load(f)
        if set(metrics) != set(layer_map):
            raise RuntimeError(
                f"per-layer metrics differ from layer_map.json: "
                f"{sorted(set(metrics) ^ set(layer_map))}")
        return {k: (layer_map[k]["unit"], v) for k, v in metrics.items()}

    def main(self) -> int:
        import ray

        from perfbench import session

        self.info = {
            "workload": self.args.workload, "seed": self.args.seed,
            "host_cpus": self.cpus, "ray_version": ray.__version__,
            "docs": self.n_docs, "pages": self.inp.n_pages,
            "html_spans": self.inp.n_html,
            "plan": {"concurrency": self.cpus,
                     "num_blocks": session.BLOCKS_PER_CPU * self.cpus,
                     "batch_size": session.BATCH_SIZE,
                     "reservation_ratio": session.RESERVATION_RATIO},
        }
        try:
            metrics = self.traced() if self.args.trace else self.end_to_end()
        finally:
            if not self.stuck:
                session.stop_ray()
        self.info["errors"] = self.errors
        print(json.dumps({"info": self.info}))
        print(json.dumps({
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (u, v) in metrics.items()},
        }), flush=True)
        if self.ray_tmp and not self.stuck:
            shutil.rmtree(self.ray_tmp, ignore_errors=True)
        if self.stuck:
            # Ray's exit hooks would touch the session the consumer holds
            session.kill_session()
            if self.ray_tmp:
                shutil.rmtree(self.ray_tmp, ignore_errors=True)
            os._exit(0)
        return 0


def main() -> int:
    pin_to_usable_cpus()
    sys.path.insert(0, ROOT)
    t = time.perf_counter()
    try:
        import ray.data  # noqa: F401

        import tensorflow_ocr_ray.pipelines.extract  # noqa: F401
        import tensorflow_ocr_ray.stages.ocr_stages  # noqa: F401
    except ImportError as e:
        print(f"perfbench: cannot import the program: {e}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t

    from perfbench.inputs import SIZES

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return Run(parser.parse_args(), import_s).main()


if __name__ == "__main__":
    sys.exit(main())
