"""The Ray side of the benchmark: session set-up, one pipeline execution
under a wall-clock deadline, operator stats and session memory.

Load shape: one client in a closed loop.  Each execution is one batch job
over the whole workload; the next starts only after the consumer has
drained the previous one through ``iter_batches``.
"""

from __future__ import annotations

import gc
import os
import signal
import threading
import time
from dataclasses import dataclass, field

import pyarrow as pa

# the repo's measured bench protocol (bench.py): 16-row scorer batches,
# 4 blocks per core for the span repartition, and no per-operator resource
# reservation, so the streaming executor shares cores greedily
BATCH_SIZE = 16
BLOCKS_PER_CPU = 4
RESERVATION_RATIO = 0.0
OBJECT_STORE_BYTES = 512 * 1024**2

# how long a job stopped at its deadline may take to release its consumer
STOP_GRACE_S = 10.0

# Unix socket paths under the session dir must fit in 107 bytes; Ray adds
# ~63 characters below the temp dir
MAX_TEMP_DIR_CHARS = 44


def ray_temp_dir(work_dir: str) -> str | None:
    """Ray's session files go under the work dir when the socket paths
    below it fit; otherwise Ray's own default is used (None)."""
    path = os.path.join(os.path.abspath(work_dir), "ray")
    return path if len(path) <= MAX_TEMP_DIR_CHARS else None


def start_ray(root: str, cpus: int, temp_dir: str | None) -> None:
    """``ray.init`` sized from the host.  Workers import the package
    whatever this process's cwd: the checkout goes on ``PYTHONPATH`` before
    the local Ray processes start, and they inherit it.  (A ``runtime_env``
    with the same variable works too, but its workers cannot reuse the
    ones Ray starts ahead: ~3 s more on the first execution, 4-core x86.)"""
    import ray
    from ray.data import DataContext

    paths = [root] + [p for p in os.environ.get("PYTHONPATH", "").split(
        os.pathsep) if p and p != root]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    kwargs = {"_temp_dir": temp_dir} if temp_dir else {}
    ray.init(
        address="local",
        num_cpus=cpus,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        log_to_driver=False,
        logging_level="ERROR",
        **kwargs,
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.op_resource_reservation_ratio = RESERVATION_RATIO


def stop_ray() -> None:
    """``ray.shutdown``, then make sure every process of the session has
    ended: now and then Ray leaves its dashboard agent running."""
    import ray

    procs = _descendants()
    ray.shutdown()
    _kill_and_wait(procs)


def build_dataset(workload: str, docs: pa.Table, media_dir: str, cpus: int):
    """The flagship plan the repo benchmarks: exploded spans, repartition,
    task-pool scorer, groupby reassembly (``extract_documents`` adds the
    html strip stage for the web corpus)."""
    import ray.data as rd

    from tensorflow_ocr_ray.pipelines.extract import extract_documents
    from tensorflow_ocr_ray.pipelines.ocr_pipeline import ocr_documents

    kwargs = dict(
        media_spec={"kind": "dir", "path": media_dir},
        concurrency=cpus,
        batch_size=BATCH_SIZE,
        num_blocks=BLOCKS_PER_CPU * cpus,
    )
    ds = rd.from_arrow(docs)
    if workload == "web_text":
        return extract_documents(ds, **kwargs)
    return ocr_documents(ds, **kwargs)


def steal_s() -> float:
    """Seconds the hypervisor has run something else while one of this
    process's allowed cores wanted to run (``/proc/stat`` steal, summed
    over the affinity mask)."""
    cpus = {f"cpu{c}" for c in os.sched_getaffinity(0)}
    ticks = 0
    with open("/proc/stat") as f:
        for line in f:
            fields = line.split()
            if fields and fields[0] in cpus:
                ticks += int(fields[8])
    return ticks / os.sysconf("SC_CLK_TCK")


@dataclass
class Execution:
    wall_s: float = 0.0
    steal_s: float = 0.0  # steal on this process's cores during the job
    # (seconds since job start, output batch) in arrival order
    arrivals: list = field(default_factory=list)
    error: str | None = None
    stats: object = None  # DatasetStatsSummary of the drained dataset
    stuck: bool = False  # the consumer could not be stopped

    @property
    def ok(self) -> bool:
        return self.error is None

    def doc_latencies(self) -> list[float]:
        return [t for t, b in self.arrivals for _ in range(b.num_rows)]

    def batches(self) -> list[pa.Table]:
        return [b for _, b in self.arrivals]


def execute(make_ds, deadline_s: float, want_stats: bool = False) -> Execution:
    """Build and drain one dataset.  The consumer runs on a helper thread so
    that a job that cannot make progress (for example a worker that keeps
    failing to start) ends as a counted failure at ``deadline_s`` instead
    of blocking the benchmark."""
    ex = Execution()
    st0 = steal_s()
    t0 = time.perf_counter()

    def consume():
        try:
            ds = make_ds()
            for batch in ds.iter_batches(batch_format="pyarrow",
                                         batch_size=None):
                ex.arrivals.append((time.perf_counter() - t0, batch))
            ex.wall_s = time.perf_counter() - t0
            ex.steal_s = steal_s() - st0
            if want_stats:
                ex.stats = ds._get_stats_summary()
        except Exception as e:  # the job failed: a counted failure
            ex.error = f"{type(e).__name__}: {e}"[:500]

    th = threading.Thread(target=consume, daemon=True)
    th.start()
    th.join(max(deadline_s, 0.0))
    if th.is_alive():
        ex.error = f"deadline of {deadline_s:.0f}s passed"
        # Stop the job so the consumer leaves Ray before the session ends.
        # The dataset only learns its executor once the first output has
        # arrived, so the running executors are found on the heap.
        from ray.data._internal.execution.streaming_executor import (
            StreamingExecutor,
        )

        for obj in gc.get_objects():
            if isinstance(obj, StreamingExecutor):
                obj.shutdown(force=True)
        th.join(STOP_GRACE_S)
        ex.stuck = th.is_alive()
    return ex


# ------------------------------------------------------- operator stats --

# Ray operator name fragment -> plan step.  Besides today's default plan
# this covers the flagship's actor-pool and fused scorers and Ray's hash
# shuffle, so a plan change keeps its steps; a step the plan lacks reads 0.
OP_STEPS = (
    ("explode_documents", "explode"),
    ("Repartition", "repartition"),
    ("ocr_span_batch", "score"),
    ("OcrSpanStage", "score"),
    ("OcrDocumentStage", "score"),
    ("Sort", "reassemble"),
    ("HashShuffle", "reassemble"),
    ("<lambda>", "reassemble"),
)
STEPS = ("explode", "repartition", "score", "reassemble")


def _step_of(name: str) -> str | None:
    for fragment, step in OP_STEPS:
        if fragment in name:
            return step
    return None


def _flatten(summary) -> list:
    out, todo = [], [summary]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(s.parents or [])
    return out


def operator_metrics(summary) -> dict[str, float]:
    """Per plan step, from a ``DatasetStatsSummary``: wall (first task start
    to last task end), summed task time, effective parallelism (task ÷
    wall), rows and bytes out; plus the time the consumer thread was
    blocked in ``iter_batches``.  All zero for ``None``."""
    acc = {s: {"start": None, "end": None, "task_s": 0.0, "rows_out": 0.0,
               "bytes_out": 0.0} for s in STEPS}
    for ds_summary in _flatten(summary) if summary is not None else ():
        for op in ds_summary.operators_stats or []:
            step = _step_of(op.operator_name)
            if step is None or not op.wall_time:
                continue
            a = acc[step]
            a["task_s"] += op.wall_time.get("sum", 0.0)
            if a["start"] is None or op.earliest_start_time < a["start"]:
                a["start"] = op.earliest_start_time
            if a["end"] is None or op.latest_end_time >= a["end"]:
                # a step's output is that of its last-finishing operator
                a["end"] = op.latest_end_time
                a["rows_out"] = (op.output_num_rows or {}).get("sum", 0.0)
                a["bytes_out"] = (op.output_size_bytes or {}).get("sum", 0.0)
    out = {}
    for step, a in acc.items():
        wall = a["end"] - a["start"] if a["start"] is not None else 0.0
        out[f"ray.{step}.wall_s"] = wall
        out[f"ray.{step}.task_s"] = a["task_s"]
        out[f"ray.{step}.parallelism"] = a["task_s"] / wall if wall > 0 else 0.0
        out[f"ray.{step}.rows_out"] = a["rows_out"]
        out[f"ray.{step}.bytes_out"] = a["bytes_out"]
    out["ray.consumer_wait_s"] = (
        summary.iter_stats.block_time.get() if summary is not None else 0.0)
    return out


# --------------------------------------------------------------- memory --

def _read(path: str) -> str:
    try:
        with open(path, "rb") as f:
            return f.read().decode(errors="replace")
    except OSError:  # the process ended while we looked
        return ""


def _vmhwm_kb(pid: int) -> int:
    for line in _read(f"/proc/{pid}/status").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def _stat(pid: int) -> list[str]:
    """Fields of ``/proc/<pid>/stat`` after the command name: state first,
    start time at index 19; empty once the process is gone."""
    return _read(f"/proc/{pid}/stat").rsplit(")", 1)[-1].split()


def _descendants() -> list[tuple[int, str]]:
    """(pid, start time) of every process descended from this one."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat(int(entry))
            if fields:
                children.setdefault(int(fields[1]), []).append(int(entry))
    out, todo = [], list(children.get(os.getpid(), []))
    while todo:
        pid = todo.pop()
        todo.extend(children.get(pid, []))
        fields = _stat(pid)
        if fields:
            out.append((pid, fields[19]))
    return out


def _alive(pid: int, started: str) -> bool:
    """The process still runs; a zombie or a reused pid does not count."""
    fields = _stat(pid)
    return bool(fields) and fields[19] == started and fields[0] != "Z"


def _kill_and_wait(procs: list[tuple[int, str]],
                   timeout_s: float = 10.0) -> None:
    for pid, started in procs:
        if _alive(pid, started):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    end = time.monotonic() + timeout_s
    for pid, started in procs:
        while _alive(pid, started) and time.monotonic() < end:
            try:
                os.waitpid(pid, os.WNOHANG)  # reap our own children
            except ChildProcessError:
                pass
            time.sleep(0.05)


def kill_session() -> None:
    """Last resort when a consumer could not be released, which makes
    ``ray.shutdown`` unsafe: kill every process this one started and
    wait until each has ended."""
    _kill_and_wait(_descendants())


def session_peak_rss_mb() -> float:
    """Sum of ``VmHWM`` over this process and the Ray worker processes
    descended from it (workers are named ``ray::...``)."""
    total = _vmhwm_kb(os.getpid()) + sum(
        _vmhwm_kb(pid) for pid, _ in _descendants()
        if _read(f"/proc/{pid}/cmdline").startswith("ray::"))
    return total / 1024.0
