"""mdelab benchmark: one workload, timed or traced, in one process.

    python3 perfbench/run.py --workload scenarios --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The process is single-threaded (BLAS pinned to one thread before numpy
loads) and drives mdelab as one closed-loop client: each operation starts
when the previous one returned, and every operation's output is checked.

``--trace 0`` times whole passes over the workload's operations with
nothing wrapped and reports the end-to-end metrics.  Times are CPU seconds
of the process (``time.process_time``), scaled to a fixed host speed by a
reference kernel that runs after every operation (see
``scale_to_reference``).  ``--trace 1`` wraps mdelab's public functions
(see tracing.py), alternates traced and untraced passes, and reports
per-layer metrics plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(machine, seed, every operation's time, spans of a traced run) goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Optional

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join("perfbench", "out")
TAIL_BEYOND = 10  # the tail percentile keeps at least this many operations above it
REF_NOMINAL_S = 0.010  # reported times are CPU seconds on a host where the kernel takes this
REF_WINDOW = 2  # an operation's speed comes from the kernel runs of its 2 + 1 + 2 neighbours

import numpy as np  # noqa: E402  (after the BLAS pinning)

import tracing  # noqa: E402
from workloads import WORK_DIR, WORKLOADS, Op  # noqa: E402


@dataclass
class OpRecord:
    name: str
    pass_index: int
    cpu_seconds: float  # CPU seconds of the process
    wall_seconds: float
    ref_seconds: float  # CPU seconds of the reference kernel run right after
    error: Optional[str]
    speed: float = math.nan  # seconds at the reference speed per CPU second
    seconds: float = math.nan  # cpu_seconds at the reference speed


def reference_kernel() -> float:
    """CPU seconds of a fixed mix of interpreted and small-array numpy work.

    Other tenants of a shared host make it run this process at speeds that
    differ by up to 1.8x for tens of seconds at a time.  The kernel's time
    tracks that speed: an allocating version of it correlated with a
    transport-2d pass on fixed inputs at 0.97 (see README.md).
    """
    a, outer, row, col = _KERNEL
    start = time.process_time()
    np.copyto(a, _KERNEL_START)
    for i in range(300):
        k = i % 80
        np.multiply(a[:, k], 1e-3, out=col)
        np.divide(a[k], a[k, k], out=row)
        np.outer(col, row, out=outer)
        np.subtract(a, outer, out=a)
    x = 0
    for i in range(30000):
        x += i * i % 7
    return time.process_time() - start


# The kernel works in place on these, so the heap a workload leaves behind
# does not change its speed.
_KERNEL_START = np.arange(6400.0).reshape(80, 80) % 7.0 + 50.0 * np.eye(80)
_KERNEL = (np.empty((80, 80)), np.empty((80, 80)), np.empty(80), np.empty(80))


def scale_to_reference(records: list[OpRecord]) -> None:
    """Set every record's ``speed`` and ``seconds`` at the reference speed.

    ``records`` are in the order they ran.  An operation's speed is the
    median kernel time over it and its REF_WINDOW neighbours on each side,
    so one disturbed kernel run does not move it.
    """
    refs = [r.ref_seconds for r in records]
    for i, r in enumerate(records):
        local = statistics.median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
        r.speed = REF_NOMINAL_S / local
        r.seconds = r.cpu_seconds * r.speed


def run_op(op: Op, pass_index: int, tracer=None, op_id=None) -> OpRecord:
    """Run one operation: untimed preparation, timed call, untimed check."""
    if op.before is not None:
        op.before()
    gc.collect()
    error = None
    if tracer is not None:
        tracer.op = op_id
    wall = time.perf_counter()
    start = time.process_time()
    try:
        raw = op.run()
    except Exception as exc:
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        seconds = time.process_time() - start
        wall_seconds = time.perf_counter() - wall
        if tracer is not None:
            tracer.op = None
    ref_seconds = reference_kernel()
    if error is None:
        try:
            op.check(op.digest(raw))
        except Exception as exc:
            error = f"check failed: {type(exc).__name__}: {exc}"
    return OpRecord(op.name, pass_index, seconds, wall_seconds, ref_seconds, error)


def run_pass(workload, index: int, tracer=None) -> list[OpRecord]:
    return [run_op(op, index, tracer, (index, i) if tracer else None)
            for i, op in enumerate(workload.pass_ops(index))]


def import_mdelab():
    """Import mdelab from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mdelab", "__init__.py")):
        raise SystemExit(f"perfbench: no mdelab sources under {src}")
    sys.path.insert(0, src)
    import mdelab
    import mdelab.cli  # noqa: F401  (the CLI is an operation of its own)

    if os.path.dirname(os.path.dirname(os.path.abspath(mdelab.__file__))) != src:
        raise SystemExit(f"perfbench: imported mdelab from {mdelab.__file__}, not {src}")
    return mdelab


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "clock": "time.process_time: CPU seconds of this process, scaled to the reference speed",
    }


def nearest_rank(seconds: list[float], rank: int) -> float:
    """The ``rank``-th smallest value (1-based): the 100 rank / n percentile."""
    return sorted(seconds)[rank - 1]


def tail(seconds: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest rank with TAIL_BEYOND ranks above it."""
    n = len(seconds)
    rank = n - TAIL_BEYOND
    if rank < 1:
        raise ValueError(f"{n} operations: need more than {TAIL_BEYOND} for a tail")
    return nearest_rank(seconds, rank), 100.0 * rank / n


def end_to_end(records: list[OpRecord], setup_s: float) -> tuple[dict, dict]:
    seconds = [r.seconds for r in records]
    done = sum(r.error is None for r in records)
    tail_s, tail_pct = tail(seconds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (done / sum(seconds), "1/s"),
        "op_p50_s": (nearest_rank(seconds, math.ceil(len(seconds) / 2)), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, {"tail_percentile": tail_pct, "timed_ops": len(seconds)}


def is_traced(index: int) -> bool:
    """Pass ``index`` of a traced run is traced: ABBA order from pass 1."""
    return index % 4 in (1, 0)


def traced_run(workload, passes: int) -> tuple[list[OpRecord], "tracing.Tracer"]:
    """Alternate traced and untraced passes, ``passes`` of each."""
    tracer = tracing.Tracer()
    records = []
    for index in range(1, 2 * passes + 1):
        if is_traced(index):
            tracer.install()
            try:
                records += run_pass(workload, index, tracer)
            finally:
                tracer.remove()
        else:
            tracing.assert_unwrapped()
            records += run_pass(workload, index)
    return records, tracer


def traced_metrics(records: list[OpRecord], tracer, passes: int) -> dict:
    """Per-layer metrics and the tracing overhead, from scaled records."""
    speed, pass_s = {}, {}
    for index in sorted({r.pass_index for r in records}):
        recs = [r for r in records if r.pass_index == index]
        for i, r in enumerate(recs):
            speed[(index, i)] = r.speed
        pass_s[index] = sum(r.seconds for r in recs)
    layers = tracer.layer_metrics(passes, speed)
    metrics = {name: (layers.get(name), unit) for name, unit in tracing.metric_names()}
    t = statistics.median(s for index, s in pass_s.items() if is_traced(index))
    u = statistics.median(s for index, s in pass_s.items() if not is_traced(index))
    metrics["trace.traced_pass_s"] = (t, "s")
    metrics["trace.untraced_pass_s"] = (u, "s")
    metrics["trace.overhead_frac"] = (t / u - 1.0, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    # Leave no __pycache__ under src/.  A cache left there by a test run is
    # still read; it saves at most the ~0.07 s it takes to compile mdelab.
    sys.dont_write_bytecode = True
    os.makedirs(OUT_DIR, exist_ok=True)
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    reference_kernel()  # its first run pays numpy's one-off costs

    start = time.process_time()
    M = import_mdelab()
    import_s = time.process_time() - start
    cls = WORKLOADS[args.workload]
    passes = cls.pass_count(args.seconds)
    # a traced run makes ceil(passes / 2) traced and as many untraced passes
    pairs = max(1, math.ceil(passes / 2))
    run_passes = 2 * pairs if args.trace else passes
    input_s = []
    for _ in range(3):  # the inputs are cheap to rebuild, so take a median
        start = time.process_time()
        workload = cls(M, args.seed, run_passes)
        input_s.append(time.process_time() - start)
    warmup = run_pass(workload, 0)

    extra = {}
    if args.trace:
        records, tracer = traced_run(workload, pairs)
    else:
        tracing.assert_unwrapped()
        records = []
        for index in range(1, passes + 1):
            records += run_pass(workload, index)
    shutil.rmtree(WORK_DIR, ignore_errors=True)

    every = warmup + records
    scale_to_reference(every)
    # import and inputs ran before the first kernel run: scale them by the warm-up's speed
    speed = REF_NOMINAL_S / statistics.median(r.ref_seconds for r in warmup)
    warmup_s = sum(r.seconds for r in warmup)
    setup_s = (import_s + statistics.median(input_s)) * speed + warmup_s
    if args.trace:
        metrics = traced_metrics(records, tracer, pairs)
        spans_file = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.dump(spans_file)
        extra["spans_file"] = spans_file
        extra["spans"] = len(tracer.spans)
    else:
        metrics, extra = end_to_end(records, setup_s)
    failed = [r for r in every if r.error is not None]
    info = {
        "workload": args.workload,
        "why": workload.why,
        "input_size": workload.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": run_passes,
        "machine": machine(),
        "setup": {"import_cpu_s": import_s, "inputs_cpu_s": input_s, "speed": speed,
                  "warmup_pass_s": warmup_s},
        "reference": {"nominal_s": REF_NOMINAL_S, "window": REF_WINDOW},
        "failed_frac": len(failed) / len(every),
        **extra,
    }
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**info, "metrics": metrics,
                   "operations": [vars(r) for r in every]}, fh, indent=1)

    m = info["machine"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {workload.size}")
    print(f"machine: nproc {m['nproc']}, python {m['python']}, numpy {m['numpy']}, "
          f"commit {m['commit']}, BLAS threads 1")
    for r in failed:
        print(f"FAILED {r.name} (pass {r.pass_index}): {r.error}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if not args.trace:
        print(f"op_tail_s is the p{extra['tail_percentile']:.1f} of {extra['timed_ops']} timed operations")
    print(f"failed_frac {info['failed_frac']:.6g} ({len(failed)} of {len(every)} operations)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
